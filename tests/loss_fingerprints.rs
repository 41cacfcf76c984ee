//! Pinned training results: per-epoch losses, kernel counts and modeled
//! time of all nine kinds full-graph and eight kinds mini-batch (STGCN's
//! mini-batch pass alone costs four times the other eight together) at
//! `Scale::Small`, seed 42, two epochs — in the scalar lane everywhere and
//! in the AVX2 lane where the CPU has it.
//!
//! The values predate shared tensor storage, the pack-free GEMM layouts and
//! the register-blocked convolution, all of which claim to change only
//! which bytes move and never the order of an accumulation; this is the
//! test that holds them, and any later host-side optimisation, to it. A
//! change that is meant to move results (a new kernel order, a new sampler)
//! re-records the tables from the failure message, which prints them in
//! source form.

use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_tensor::simd::{self, SimdLevel};
use gnnmark_workloads::{MinibatchConfig, TrainMode};

/// (label, mode, per-epoch loss bits, kernel count, `total_time_ns` bits).
type Row = (&'static str, &'static str, [u64; 2], usize, u64);

const SCALAR: &[Row] = &[
    ("PSAGE-MVL", "fullgraph", [0x3fd9753bf5555555, 0x3fd8b3d86aaaaaab], 2016, 0x4156606cb18177c6), // 0.397780 0.385977
    ("PSAGE-NWP", "fullgraph", [0x3fda409630000000, 0x3fd926ce4aaaaaab], 2088, 0x415d06d52fdb65f3), // 0.410192 0.392994
    ("STGCN", "fullgraph", [0x3fd4b90780000000, 0x3fd0d1f872aaaaab], 1680, 0x4160acaacf0ac9b4), // 0.323793 0.262816
    ("DGCN", "fullgraph", [0x3ff77ca8a0000000, 0x3feae11a80000000], 3288, 0x41661dd279681d3f), // 1.467934 0.839978
    ("GW", "fullgraph", [0x401932de35555555, 0x40182400eaaaaaab], 34203, 0x41990c2d82ca4183), // 6.299676 6.035160
    ("KGNNL", "fullgraph", [0x3fe4c98458000000, 0x3fe45784c0000000], 464, 0x413332c4f714c2c1), // 0.649599 0.635683
    ("KGNNH", "fullgraph", [0x3fe6874990000000, 0x3fe57fc008000000], 624, 0x413a52f1d35e8dff), // 0.704015 0.671844
    ("ARGA", "fullgraph", [0x3fe8c1cda0000000, 0x3fec0d7600000000], 210, 0x413887fb2c7d3824), // 0.773658 0.876643
    ("TLSTM", "fullgraph", [0x3ff9cbee48000000, 0x3ff9a90328000000], 7508, 0x417339a763bae21f), // 1.612288 1.603763
    ("PSAGE-MVL", "minibatch", [0x3fd8cd274aaaaaab, 0x3fda25234aaaaaab], 2016, 0x415520723390ed79), // 0.387522 0.408517
    ("PSAGE-NWP", "minibatch", [0x3fda3fb6a0000000, 0x3fd99e93f0000000], 2088, 0x415bce2e2899f3bc), // 0.410139 0.400304
    ("DGCN", "minibatch", [0x40029aa2d0000000, 0x3ff54f45b0000000], 1644, 0x4157c86b8e750f8d), // 2.325506 1.331854
    ("GW", "minibatch", [0x40193da940000000, 0x401891c320000000], 22484, 0x41905e0579ba4551), // 6.310216 6.142346
    ("KGNNL", "minibatch", [0x3fe4813900000000, 0x3fe466a0c0000000], 116, 0x4116f173893d5a73), // 0.640774 0.637528
    ("KGNNH", "minibatch", [0x3fe64fac00000000, 0x3fe5e583a0000000], 156, 0x412058da059c39a0), // 0.697226 0.684267
    ("ARGA", "minibatch", [0x3fe8ad31d5d1745d, 0x3fe89bfd145d1746], 4620, 0x4173b44c27773547), // 0.771142 0.769042
    ("TLSTM", "minibatch", [0x3ff9cba3d0000000, 0x3ff9b060d0000000], 3865, 0x4164fd15623d37b6), // 1.612217 1.605561
];

const AVX2: &[Row] = &[
    ("PSAGE-MVL", "fullgraph", [0x3fd9753c05555555, 0x3fd8b3d875555555], 2016, 0x4156606cb18177c6), // 0.397780 0.385977
    ("PSAGE-NWP", "fullgraph", [0x3fda4096baaaaaab, 0x3fd926ce95555555], 2088, 0x415d06d52fdb65f3), // 0.410192 0.392994
    ("STGCN", "fullgraph", [0x3fd4b907a0000000, 0x3fd0d1f850000000], 1680, 0x4160acaacf0ac9b4), // 0.323793 0.262816
    ("DGCN", "fullgraph", [0x3ff77ca8a0000000, 0x3feae12030000000], 3288, 0x41661dd279681d3f), // 1.467934 0.839981
    ("GW", "fullgraph", [0x401932de2aaaaaab, 0x4018240115555555], 34203, 0x41990c2d82ca4183), // 6.299676 6.035160
    ("KGNNL", "fullgraph", [0x3fe4c98468000000, 0x3fe45784d0000000], 464, 0x413332c4f714c2c1), // 0.649599 0.635683
    ("KGNNH", "fullgraph", [0x3fe6874990000000, 0x3fe57fc000000000], 624, 0x413a52f1d35e8dff), // 0.704015 0.671844
    ("ARGA", "fullgraph", [0x3fe8c1cda0000000, 0x3fec0d7600000000], 210, 0x413887fb2c7d3824), // 0.773658 0.876643
    ("TLSTM", "fullgraph", [0x3ff9cbee28000000, 0x3ff9a90338000000], 7508, 0x417339a763bae21f), // 1.612288 1.603763
    ("PSAGE-MVL", "minibatch", [0x3fd8cd2725555555, 0x3fda25234aaaaaab], 2016, 0x415520723390ed79), // 0.387522 0.408517
    ("PSAGE-NWP", "minibatch", [0x3fda3fb6aaaaaaab, 0x3fd99e93faaaaaab], 2088, 0x415bce2e2899f3bc), // 0.410139 0.400304
    ("DGCN", "minibatch", [0x40029aa2c0000000, 0x3ff54f45c0000000], 1644, 0x4157c86b8e750f8d), // 2.325506 1.331854
    ("GW", "minibatch", [0x40193da940000000, 0x401891c320000000], 22484, 0x41905e0579ba4551), // 6.310216 6.142346
    ("KGNNL", "minibatch", [0x3fe4813900000000, 0x3fe466a0c0000000], 116, 0x4116f173893d5a73), // 0.640774 0.637528
    ("KGNNH", "minibatch", [0x3fe64fac40000000, 0x3fe5e583c0000000], 156, 0x412058da059c39a0), // 0.697226 0.684267
    ("ARGA", "minibatch", [0x3fe8ad31d45d1746, 0x3fe89bfd12e8ba2f], 4620, 0x4173b44c27773547), // 0.771142 0.769042
    ("TLSTM", "minibatch", [0x3ff9cba390000000, 0x3ff9b060c0000000], 3865, 0x4164fd15623d37b6), // 1.612217 1.605561
];

fn measure() -> Vec<Row> {
    let modes = [
        TrainMode::FullGraph,
        TrainMode::Minibatch(MinibatchConfig::default()),
    ];
    let mut rows = Vec::new();
    for mode in modes {
        for kind in WorkloadKind::ALL {
            if mode != TrainMode::FullGraph && kind == WorkloadKind::Stgcn {
                continue;
            }
            let cfg = SuiteConfig::small().with_threads(2).with_mode(mode.clone());
            let art = run_workload_full(kind, &cfg)
                .unwrap_or_else(|e| panic!("{} {} trains: {e}", kind.label(), mode.label()));
            assert_eq!(art.losses.len(), 2);
            rows.push((
                kind.label(),
                mode.label(),
                [art.losses[0].to_bits(), art.losses[1].to_bits()],
                art.profile.kernels.len(),
                art.profile.total_time_ns().to_bits(),
            ));
        }
    }
    rows
}

fn check(lane: &str, level: SimdLevel, pinned: &[Row]) {
    let got = simd::with_level(level, measure);
    if got == pinned {
        return;
    }
    let mut table = String::new();
    for (label, mode, l, kernels, t) in &got {
        table.push_str(&format!(
            "    (\"{label}\", \"{mode}\", [{:#018x}, {:#018x}], {kernels}, {t:#018x}), // {:.6} {:.6}\n",
            l[0],
            l[1],
            f64::from_bits(l[0]),
            f64::from_bits(l[1]),
        ));
    }
    panic!("{lane} lane results moved; measured:\n{table}");
}

#[test]
fn small_scale_results_equal_the_pinned_ones_in_both_lanes() {
    check("scalar", SimdLevel::Scalar, SCALAR);
    if simd::detect() == SimdLevel::Avx2 {
        check("avx2", SimdLevel::Avx2, AVX2);
    }
    gnnmark_tensor::par::set_threads(1);
}
