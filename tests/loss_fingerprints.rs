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
//!
//! The `INFER_*` tables pin what inference computes, in the same form: the
//! loss of one `Single` and one `Full` step, the kernel count and the
//! modeled time of all nine kinds × {full-graph, mini-batch} × {fp32, fp16,
//! bf16} at `Scale::Test`, seed 42 — the only place a reduced-precision
//! inference value is pinned. They were recorded from the hand-written
//! tensor-level `infer` forwards, at the commit before those were replaced
//! by the training forward under a `NoGradGuard`.

use gnnmark::infer::{run_infer_workload, InferConfig};
use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_tensor::half::Precision;
use gnnmark_tensor::simd::{self, SimdLevel};
use gnnmark_workloads::{MinibatchConfig, TrainMode};

/// (label, mode, per-epoch loss bits, kernel count, `total_time_ns` bits).
type Row = (&'static str, &'static str, [u64; 2], usize, u64);

const SCALAR: &[Row] = &[
    (
        "PSAGE-MVL",
        "fullgraph",
        [0x3fd9753bf5555555, 0x3fd8b3d86aaaaaab],
        2016,
        0x4156606cb18177c6,
    ), // 0.397780 0.385977
    (
        "PSAGE-NWP",
        "fullgraph",
        [0x3fda409630000000, 0x3fd926ce4aaaaaab],
        2088,
        0x415d06d52fdb65f3,
    ), // 0.410192 0.392994
    (
        "STGCN",
        "fullgraph",
        [0x3fd4b90780000000, 0x3fd0d1f872aaaaab],
        1680,
        0x4160acaacf0ac9b4,
    ), // 0.323793 0.262816
    (
        "DGCN",
        "fullgraph",
        [0x3ff77ca8a0000000, 0x3feae11a80000000],
        3288,
        0x41661dd279681d3f,
    ), // 1.467934 0.839978
    (
        "GW",
        "fullgraph",
        [0x401932de35555555, 0x40182400eaaaaaab],
        34203,
        0x41990c2d82ca4183,
    ), // 6.299676 6.035160
    (
        "KGNNL",
        "fullgraph",
        [0x3fe4c98458000000, 0x3fe45784c0000000],
        464,
        0x413332c4f714c2c1,
    ), // 0.649599 0.635683
    (
        "KGNNH",
        "fullgraph",
        [0x3fe6874990000000, 0x3fe57fc008000000],
        624,
        0x413a52f1d35e8dff,
    ), // 0.704015 0.671844
    (
        "ARGA",
        "fullgraph",
        [0x3fe8c1cda0000000, 0x3fec0d7600000000],
        210,
        0x413887fb2c7d3824,
    ), // 0.773658 0.876643
    (
        "TLSTM",
        "fullgraph",
        [0x3ff9cbee48000000, 0x3ff9a90328000000],
        7508,
        0x417339a763bae21f,
    ), // 1.612288 1.603763
    (
        "PSAGE-MVL",
        "minibatch",
        [0x3fd8cd274aaaaaab, 0x3fda25234aaaaaab],
        2016,
        0x415520723390ed79,
    ), // 0.387522 0.408517
    (
        "PSAGE-NWP",
        "minibatch",
        [0x3fda3fb6a0000000, 0x3fd99e93f0000000],
        2088,
        0x415bce2e2899f3bc,
    ), // 0.410139 0.400304
    (
        "DGCN",
        "minibatch",
        [0x40029aa2d0000000, 0x3ff54f45b0000000],
        1644,
        0x4157c86b8e750f8d,
    ), // 2.325506 1.331854
    (
        "GW",
        "minibatch",
        [0x40193da940000000, 0x401891c320000000],
        22484,
        0x41905e0579ba4551,
    ), // 6.310216 6.142346
    (
        "KGNNL",
        "minibatch",
        [0x3fe4813900000000, 0x3fe466a0c0000000],
        116,
        0x4116f173893d5a73,
    ), // 0.640774 0.637528
    (
        "KGNNH",
        "minibatch",
        [0x3fe64fac00000000, 0x3fe5e583a0000000],
        156,
        0x412058da059c39a0,
    ), // 0.697226 0.684267
    (
        "ARGA",
        "minibatch",
        [0x3fe8ad31d5d1745d, 0x3fe89bfd145d1746],
        4620,
        0x4173b44c27773547,
    ), // 0.771142 0.769042
    (
        "TLSTM",
        "minibatch",
        [0x3ff9cba3d0000000, 0x3ff9b060d0000000],
        3865,
        0x4164fd15623d37b6,
    ), // 1.612217 1.605561
];

const AVX2: &[Row] = &[
    (
        "PSAGE-MVL",
        "fullgraph",
        [0x3fd9753c05555555, 0x3fd8b3d875555555],
        2016,
        0x4156606cb18177c6,
    ), // 0.397780 0.385977
    (
        "PSAGE-NWP",
        "fullgraph",
        [0x3fda4096baaaaaab, 0x3fd926ce95555555],
        2088,
        0x415d06d52fdb65f3,
    ), // 0.410192 0.392994
    (
        "STGCN",
        "fullgraph",
        [0x3fd4b907a0000000, 0x3fd0d1f850000000],
        1680,
        0x4160acaacf0ac9b4,
    ), // 0.323793 0.262816
    (
        "DGCN",
        "fullgraph",
        [0x3ff77ca8a0000000, 0x3feae12030000000],
        3288,
        0x41661dd279681d3f,
    ), // 1.467934 0.839981
    (
        "GW",
        "fullgraph",
        [0x401932de2aaaaaab, 0x4018240115555555],
        34203,
        0x41990c2d82ca4183,
    ), // 6.299676 6.035160
    (
        "KGNNL",
        "fullgraph",
        [0x3fe4c98468000000, 0x3fe45784d0000000],
        464,
        0x413332c4f714c2c1,
    ), // 0.649599 0.635683
    (
        "KGNNH",
        "fullgraph",
        [0x3fe6874990000000, 0x3fe57fc000000000],
        624,
        0x413a52f1d35e8dff,
    ), // 0.704015 0.671844
    (
        "ARGA",
        "fullgraph",
        [0x3fe8c1cda0000000, 0x3fec0d7600000000],
        210,
        0x413887fb2c7d3824,
    ), // 0.773658 0.876643
    (
        "TLSTM",
        "fullgraph",
        [0x3ff9cbee28000000, 0x3ff9a90338000000],
        7508,
        0x417339a763bae21f,
    ), // 1.612288 1.603763
    (
        "PSAGE-MVL",
        "minibatch",
        [0x3fd8cd2725555555, 0x3fda25234aaaaaab],
        2016,
        0x415520723390ed79,
    ), // 0.387522 0.408517
    (
        "PSAGE-NWP",
        "minibatch",
        [0x3fda3fb6aaaaaaab, 0x3fd99e93faaaaaab],
        2088,
        0x415bce2e2899f3bc,
    ), // 0.410139 0.400304
    (
        "DGCN",
        "minibatch",
        [0x40029aa2c0000000, 0x3ff54f45c0000000],
        1644,
        0x4157c86b8e750f8d,
    ), // 2.325506 1.331854
    (
        "GW",
        "minibatch",
        [0x40193da940000000, 0x401891c320000000],
        22484,
        0x41905e0579ba4551,
    ), // 6.310216 6.142346
    (
        "KGNNL",
        "minibatch",
        [0x3fe4813900000000, 0x3fe466a0c0000000],
        116,
        0x4116f173893d5a73,
    ), // 0.640774 0.637528
    (
        "KGNNH",
        "minibatch",
        [0x3fe64fac40000000, 0x3fe5e583c0000000],
        156,
        0x412058da059c39a0,
    ), // 0.697226 0.684267
    (
        "ARGA",
        "minibatch",
        [0x3fe8ad31d45d1746, 0x3fe89bfd12e8ba2f],
        4620,
        0x4173b44c27773547,
    ), // 0.771142 0.769042
    (
        "TLSTM",
        "minibatch",
        [0x3ff9cba390000000, 0x3ff9b060c0000000],
        3865,
        0x4164fd15623d37b6,
    ), // 1.612217 1.605561
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

/// Measures one lane and holds it to `pinned`; on a mismatch the panic
/// message is the measured table in source form (`source` renders a row).
fn check<R: PartialEq>(
    what: &str,
    level: SimdLevel,
    pinned: &[R],
    measure: fn() -> Vec<R>,
    source: fn(&R) -> String,
) {
    let got = simd::with_level(level, measure);
    if got != pinned {
        let table: String = got.iter().map(source).collect();
        panic!("{what} results moved; measured:\n{table}");
    }
}

/// A row in source form; `key` is everything before the loss bits.
fn source(key: String, l: &[u64; 2], kernels: usize, t: u64) -> String {
    format!(
        "    ({key}, [{:#018x}, {:#018x}], {kernels}, {t:#018x}), // {:.6} {:.6}\n",
        l[0],
        l[1],
        f64::from_bits(l[0]),
        f64::from_bits(l[1]),
    )
}

fn row_source((label, mode, l, kernels, t): &Row) -> String {
    source(format!("\"{label}\", \"{mode}\""), l, *kernels, *t)
}

/// (label, mode, precision, [`Single`, `Full`] loss bits, kernel count,
/// `total_time_ns` bits) of one `Single` and one `Full` inference step.
type InferRow = (
    &'static str,
    &'static str,
    &'static str,
    [u64; 2],
    usize,
    u64,
);

const INFER_SCALAR: &[InferRow] = &[
    (
        "PSAGE-MVL",
        "fullgraph",
        "fp32",
        [0x3fd4bc0920000000, 0x3fdc200320000000],
        114,
        0x411163f3e0668bae,
    ), // 0.323977 0.439454
    (
        "PSAGE-MVL",
        "fullgraph",
        "fp16",
        [0x3fd4bc5ee0000000, 0x3fdc2060c0000000],
        114,
        0x41110e585fe3005c,
    ), // 0.323997 0.439476
    (
        "PSAGE-MVL",
        "fullgraph",
        "bf16",
        [0x3fd4ba8ac0000000, 0x3fdc2163a0000000],
        114,
        0x41110e585fe3005c,
    ), // 0.323886 0.439538
    (
        "PSAGE-NWP",
        "fullgraph",
        "fp32",
        [0x3fda47eca0000000, 0x3fda87a7e0000000],
        120,
        0x4111d6837840e43d,
    ), // 0.410640 0.414530
    (
        "PSAGE-NWP",
        "fullgraph",
        "fp16",
        [0x3fda473dc0000000, 0x3fda877d20000000],
        120,
        0x4111b62a4f251a06,
    ), // 0.410598 0.414520
    (
        "PSAGE-NWP",
        "fullgraph",
        "bf16",
        [0x3fda4b79a0000000, 0x3fda8f8980000000],
        120,
        0x4111b62a4f251a06,
    ), // 0.410857 0.415011
    (
        "STGCN",
        "fullgraph",
        "fp32",
        [0x3fd7632060000000, 0x3fd5dfcf20000000],
        108,
        0x41105e407e51a77e,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "fullgraph",
        "fp16",
        [0x3fd7632080000000, 0x3fd5dfcf20000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "fullgraph",
        "bf16",
        [0x3fd76332e0000000, 0x3fd5dfe0a0000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365430 0.341789
    (
        "DGCN",
        "fullgraph",
        "fp32",
        [0x3fd6853400000000, 0x3ff2858cc0000000],
        144,
        0x41155cb3683f2252,
    ), // 0.351880 1.157605
    (
        "DGCN",
        "fullgraph",
        "fp16",
        [0x3fd6868000000000, 0x3ff2857360000000],
        144,
        0x411541bd820f5e03,
    ), // 0.351959 1.157581
    (
        "DGCN",
        "fullgraph",
        "bf16",
        [0x3fd675d660000000, 0x3ff293de20000000],
        144,
        0x411541bd820f5e03,
    ), // 0.350942 1.161101
    (
        "GW",
        "fullgraph",
        "fp32",
        [0x4011144060000000, 0x4010ba2800000000],
        1344,
        0x4147ccff7292831e,
    ), // 4.269777 4.181793
    (
        "GW",
        "fullgraph",
        "fp16",
        [0x4011143aa0000000, 0x4010ba28a0000000],
        1344,
        0x4147c34060231f19,
    ), // 4.269755 4.181796
    (
        "GW",
        "fullgraph",
        "bf16",
        [0x401114b3c0000000, 0x4010ba7500000000],
        1344,
        0x4147c34060231f19,
    ), // 4.270217 4.182087
    (
        "KGNNL",
        "fullgraph",
        "fp32",
        [0x3fe74b1700000000, 0x3fe4ca16a0000000],
        42,
        0x40f883e7d222c9fa,
    ), // 0.727916 0.649669
    (
        "KGNNL",
        "fullgraph",
        "fp16",
        [0x3fe74adde0000000, 0x3fe4ca1700000000],
        42,
        0x40f8345d7c1db316,
    ), // 0.727889 0.649669
    (
        "KGNNL",
        "fullgraph",
        "bf16",
        [0x3fe747af00000000, 0x3fe4c85480000000],
        42,
        0x40f8345d7c1db316,
    ), // 0.727500 0.649454
    (
        "KGNNH",
        "fullgraph",
        "fp32",
        [0x3febc55260000000, 0x3ff0e6a200000000],
        56,
        0x4100615c438b6ae6,
    ), // 0.867837 1.056307
    (
        "KGNNH",
        "fullgraph",
        "fp16",
        [0x3febc52180000000, 0x3ff0e678a0000000],
        56,
        0x41003087758068d1,
    ), // 0.867814 1.056267
    (
        "KGNNH",
        "fullgraph",
        "bf16",
        [0x3febc2e2e0000000, 0x3ff0e49460000000],
        56,
        0x41003087758068d1,
    ), // 0.867540 1.055806
    (
        "ARGA",
        "fullgraph",
        "fp32",
        [0x3fe8ea9d60000000, 0x3fe8ea9d60000000],
        34,
        0x40fd21f1c642d51d,
    ), // 0.778639 0.778639
    (
        "ARGA",
        "fullgraph",
        "fp16",
        [0x3fe8ea9980000000, 0x3fe8ea9980000000],
        34,
        0x40fc3686024034b6,
    ), // 0.778638 0.778638
    (
        "ARGA",
        "fullgraph",
        "bf16",
        [0x3fe8ea89a0000000, 0x3fe8ea89a0000000],
        34,
        0x40fc3686024034b6,
    ), // 0.778630 0.778630
    (
        "TLSTM",
        "fullgraph",
        "fp32",
        [0x3ff9c74120000000, 0x3ff9bd8140000000],
        504,
        0x4131ddf6dd7aa9db,
    ), // 1.611146 1.608766
    (
        "TLSTM",
        "fullgraph",
        "fp16",
        [0x3ff9c73b80000000, 0x3ff9bd7da0000000],
        504,
        0x4131d6ca05643dcc,
    ), // 1.611141 1.608762
    (
        "TLSTM",
        "fullgraph",
        "bf16",
        [0x3ff9c7ba40000000, 0x3ff9bdd720000000],
        504,
        0x4131d6ca05643dcc,
    ), // 1.611262 1.608848
    (
        "PSAGE-MVL",
        "minibatch",
        "fp32",
        [0x3fe4c2f4c0000000, 0x3fda3b5360000000],
        114,
        0x41122967370a9569,
    ), // 0.648798 0.409871
    (
        "PSAGE-MVL",
        "minibatch",
        "fp16",
        [0x3fe4c32240000000, 0x3fda3b77c0000000],
        114,
        0x4111d6838dfca92b,
    ), // 0.648820 0.409880
    (
        "PSAGE-MVL",
        "minibatch",
        "bf16",
        [0x3fe4c6d0e0000000, 0x3fda3afda0000000],
        114,
        0x4111d6838dfca92b,
    ), // 0.649270 0.409851
    (
        "PSAGE-NWP",
        "minibatch",
        "fp32",
        [0x3fe2a96e60000000, 0x3fd899ae80000000],
        120,
        0x4112a8c858c7b95b,
    ), // 0.583183 0.384380
    (
        "PSAGE-NWP",
        "minibatch",
        "fp16",
        [0x3fe2aa6600000000, 0x3fd899ac40000000],
        120,
        0x4112857f4308a546,
    ), // 0.583301 0.384379
    (
        "PSAGE-NWP",
        "minibatch",
        "bf16",
        [0x3fe2a6afa0000000, 0x3fd8979160000000],
        120,
        0x4112857f4308a546,
    ), // 0.582847 0.384251
    (
        "STGCN",
        "minibatch",
        "fp32",
        [0x3fd7632060000000, 0x3fd5dfcf20000000],
        108,
        0x41105e407e51a77e,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "minibatch",
        "fp16",
        [0x3fd7632080000000, 0x3fd5dfcf20000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "minibatch",
        "bf16",
        [0x3fd76332e0000000, 0x3fd5dfe0a0000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365430 0.341789
    (
        "DGCN",
        "minibatch",
        "fp32",
        [0x3fd6853400000000, 0x3ff2858cc0000000],
        144,
        0x41155cb3683f2252,
    ), // 0.351880 1.157605
    (
        "DGCN",
        "minibatch",
        "fp16",
        [0x3fd6868000000000, 0x3ff2857360000000],
        144,
        0x411541bd820f5e03,
    ), // 0.351959 1.157581
    (
        "DGCN",
        "minibatch",
        "bf16",
        [0x3fd675d660000000, 0x3ff293de20000000],
        144,
        0x411541bd820f5e03,
    ), // 0.350942 1.161101
    (
        "GW",
        "minibatch",
        "fp32",
        [0x4011144060000000, 0x4010c6bb40000000],
        1424,
        0x41495ccbe84a935a,
    ), // 4.269777 4.194074
    (
        "GW",
        "minibatch",
        "fp16",
        [0x4011143aa0000000, 0x4010c6ba40000000],
        1424,
        0x414950e3551c16fc,
    ), // 4.269755 4.194070
    (
        "GW",
        "minibatch",
        "bf16",
        [0x401114b3c0000000, 0x4010c6e0c0000000],
        1424,
        0x414950e3551c16fc,
    ), // 4.270217 4.194217
    (
        "KGNNL",
        "minibatch",
        "fp32",
        [0x3fe74b1700000000, 0x3fe60a6ee0000000],
        42,
        0x40f89c9d62f6c406,
    ), // 0.727916 0.688774
    (
        "KGNNL",
        "minibatch",
        "fp16",
        [0x3fe74adde0000000, 0x3fe60a5b80000000],
        42,
        0x40f840fee9309ac3,
    ), // 0.727889 0.688764
    (
        "KGNNL",
        "minibatch",
        "bf16",
        [0x3fe747af00000000, 0x3fe6088260000000],
        42,
        0x40f840fee9309ac3,
    ), // 0.727500 0.688539
    (
        "KGNNH",
        "minibatch",
        "fp32",
        [0x3febc55260000000, 0x3fef408ee0000000],
        56,
        0x41006bb7e751e8f8,
    ), // 0.867837 0.976631
    (
        "KGNNH",
        "minibatch",
        "fp16",
        [0x3febc52180000000, 0x3fef402b20000000],
        56,
        0x4100366585756165,
    ), // 0.867814 0.976583
    (
        "KGNNH",
        "minibatch",
        "bf16",
        [0x3febc2e2e0000000, 0x3fef3cd7a0000000],
        56,
        0x4100366585756165,
    ), // 0.867540 0.976177
    (
        "ARGA",
        "minibatch",
        "fp32",
        [0x3fe85c19c0000000, 0x3fe8ee9460000000],
        36,
        0x40faabbdd107cecf,
    ), // 0.761243 0.779123
    (
        "ARGA",
        "minibatch",
        "fp16",
        [0x3fe85c1c60000000, 0x3fe8ee9040000000],
        36,
        0x40f8a7e7a447578b,
    ), // 0.761244 0.779122
    (
        "ARGA",
        "minibatch",
        "bf16",
        [0x3fe85c09a0000000, 0x3fe8ee8780000000],
        36,
        0x40f8a7e7a447578b,
    ), // 0.761235 0.779117
    (
        "TLSTM",
        "minibatch",
        "fp32",
        [0x3ff9c74120000000, 0x3ff9b24fa0000000],
        504,
        0x4131f917efda8349,
    ), // 1.611146 1.606033
    (
        "TLSTM",
        "minibatch",
        "fp16",
        [0x3ff9c73b80000000, 0x3ff9b24f40000000],
        504,
        0x4131f06c1e592abc,
    ), // 1.611141 1.606033
    (
        "TLSTM",
        "minibatch",
        "bf16",
        [0x3ff9c7ba40000000, 0x3ff9b290e0000000],
        504,
        0x4131f06c1e592abc,
    ), // 1.611262 1.606095
];

const INFER_AVX2: &[InferRow] = &[
    (
        "PSAGE-MVL",
        "fullgraph",
        "fp32",
        [0x3fd4bc0920000000, 0x3fdc200300000000],
        114,
        0x411163f3e0668bae,
    ), // 0.323977 0.439454
    (
        "PSAGE-MVL",
        "fullgraph",
        "fp16",
        [0x3fd4bc5ec0000000, 0x3fdc2060c0000000],
        114,
        0x41110e585fe3005c,
    ), // 0.323997 0.439476
    (
        "PSAGE-MVL",
        "fullgraph",
        "bf16",
        [0x3fd4ba8ae0000000, 0x3fdc2163a0000000],
        114,
        0x41110e585fe3005c,
    ), // 0.323886 0.439538
    (
        "PSAGE-NWP",
        "fullgraph",
        "fp32",
        [0x3fda47ec80000000, 0x3fda87a7e0000000],
        120,
        0x4111d6837840e43d,
    ), // 0.410640 0.414530
    (
        "PSAGE-NWP",
        "fullgraph",
        "fp16",
        [0x3fda473d80000000, 0x3fda877ce0000000],
        120,
        0x4111b62a4f251a06,
    ), // 0.410598 0.414520
    (
        "PSAGE-NWP",
        "fullgraph",
        "bf16",
        [0x3fda4b7940000000, 0x3fda8f89a0000000],
        120,
        0x4111b62a4f251a06,
    ), // 0.410857 0.415011
    (
        "STGCN",
        "fullgraph",
        "fp32",
        [0x3fd7632060000000, 0x3fd5dfcf60000000],
        108,
        0x41105e407e51a77e,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "fullgraph",
        "fp16",
        [0x3fd7632080000000, 0x3fd5dfcf60000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "fullgraph",
        "bf16",
        [0x3fd76332e0000000, 0x3fd5dfe080000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365430 0.341789
    (
        "DGCN",
        "fullgraph",
        "fp32",
        [0x3fd68534c0000000, 0x3ff2858cc0000000],
        144,
        0x41155cb3683f2252,
    ), // 0.351880 1.157605
    (
        "DGCN",
        "fullgraph",
        "fp16",
        [0x3fd6868060000000, 0x3ff2857360000000],
        144,
        0x411541bd820f5e03,
    ), // 0.351959 1.157581
    (
        "DGCN",
        "fullgraph",
        "bf16",
        [0x3fd675d600000000, 0x3ff293de40000000],
        144,
        0x411541bd820f5e03,
    ), // 0.350942 1.161101
    (
        "GW",
        "fullgraph",
        "fp32",
        [0x4011144060000000, 0x4010ba2800000000],
        1344,
        0x4147ccff7292831e,
    ), // 4.269777 4.181793
    (
        "GW",
        "fullgraph",
        "fp16",
        [0x4011143aa0000000, 0x4010ba28a0000000],
        1344,
        0x4147c34060231f19,
    ), // 4.269755 4.181796
    (
        "GW",
        "fullgraph",
        "bf16",
        [0x401114b3e0000000, 0x4010ba74e0000000],
        1344,
        0x4147c34060231f19,
    ), // 4.270217 4.182086
    (
        "KGNNL",
        "fullgraph",
        "fp32",
        [0x3fe74b16c0000000, 0x3fe4ca1680000000],
        42,
        0x40f883e7d222c9fa,
    ), // 0.727916 0.649669
    (
        "KGNNL",
        "fullgraph",
        "fp16",
        [0x3fe74addc0000000, 0x3fe4ca1700000000],
        42,
        0x40f8345d7c1db316,
    ), // 0.727889 0.649669
    (
        "KGNNL",
        "fullgraph",
        "bf16",
        [0x3fe747af00000000, 0x3fe4c85480000000],
        42,
        0x40f8345d7c1db316,
    ), // 0.727500 0.649454
    (
        "KGNNH",
        "fullgraph",
        "fp32",
        [0x3febc55280000000, 0x3ff0e6a220000000],
        56,
        0x4100615c438b6ae6,
    ), // 0.867837 1.056307
    (
        "KGNNH",
        "fullgraph",
        "fp16",
        [0x3febc52160000000, 0x3ff0e678a0000000],
        56,
        0x41003087758068d1,
    ), // 0.867814 1.056267
    (
        "KGNNH",
        "fullgraph",
        "bf16",
        [0x3febc2e2c0000000, 0x3ff0e49480000000],
        56,
        0x41003087758068d1,
    ), // 0.867540 1.055806
    (
        "ARGA",
        "fullgraph",
        "fp32",
        [0x3fe8ea9d60000000, 0x3fe8ea9d60000000],
        34,
        0x40fd21f1c642d51d,
    ), // 0.778639 0.778639
    (
        "ARGA",
        "fullgraph",
        "fp16",
        [0x3fe8ea9980000000, 0x3fe8ea9980000000],
        34,
        0x40fc3686024034b6,
    ), // 0.778638 0.778638
    (
        "ARGA",
        "fullgraph",
        "bf16",
        [0x3fe8ea89a0000000, 0x3fe8ea89a0000000],
        34,
        0x40fc3686024034b6,
    ), // 0.778630 0.778630
    (
        "TLSTM",
        "fullgraph",
        "fp32",
        [0x3ff9c74100000000, 0x3ff9bd8100000000],
        504,
        0x4131ddf6dd7aa9db,
    ), // 1.611146 1.608766
    (
        "TLSTM",
        "fullgraph",
        "fp16",
        [0x3ff9c73b80000000, 0x3ff9bd7dc0000000],
        504,
        0x4131d6ca05643dcc,
    ), // 1.611141 1.608763
    (
        "TLSTM",
        "fullgraph",
        "bf16",
        [0x3ff9c7ba60000000, 0x3ff9bdd760000000],
        504,
        0x4131d6ca05643dcc,
    ), // 1.611262 1.608848
    (
        "PSAGE-MVL",
        "minibatch",
        "fp32",
        [0x3fe4c2f500000000, 0x3fda3b5340000000],
        114,
        0x41122967370a9569,
    ), // 0.648798 0.409871
    (
        "PSAGE-MVL",
        "minibatch",
        "fp16",
        [0x3fe4c32260000000, 0x3fda3b7800000000],
        114,
        0x4111d6838dfca92b,
    ), // 0.648820 0.409880
    (
        "PSAGE-MVL",
        "minibatch",
        "bf16",
        [0x3fe4c6d100000000, 0x3fda3afda0000000],
        114,
        0x4111d6838dfca92b,
    ), // 0.649270 0.409851
    (
        "PSAGE-NWP",
        "minibatch",
        "fp32",
        [0x3fe2a96e00000000, 0x3fd899ae80000000],
        120,
        0x4112a8c858c7b95b,
    ), // 0.583182 0.384380
    (
        "PSAGE-NWP",
        "minibatch",
        "fp16",
        [0x3fe2aa6620000000, 0x3fd899ac40000000],
        120,
        0x4112857f4308a546,
    ), // 0.583301 0.384379
    (
        "PSAGE-NWP",
        "minibatch",
        "bf16",
        [0x3fe2a6afa0000000, 0x3fd8979180000000],
        120,
        0x4112857f4308a546,
    ), // 0.582847 0.384251
    (
        "STGCN",
        "minibatch",
        "fp32",
        [0x3fd7632060000000, 0x3fd5dfcf60000000],
        108,
        0x41105e407e51a77e,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "minibatch",
        "fp16",
        [0x3fd7632080000000, 0x3fd5dfcf60000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365425 0.341785
    (
        "STGCN",
        "minibatch",
        "bf16",
        [0x3fd76332e0000000, 0x3fd5dfe080000000],
        108,
        0x41100ccd901e2dd1,
    ), // 0.365430 0.341789
    (
        "DGCN",
        "minibatch",
        "fp32",
        [0x3fd68534c0000000, 0x3ff2858cc0000000],
        144,
        0x41155cb3683f2252,
    ), // 0.351880 1.157605
    (
        "DGCN",
        "minibatch",
        "fp16",
        [0x3fd6868060000000, 0x3ff2857360000000],
        144,
        0x411541bd820f5e03,
    ), // 0.351959 1.157581
    (
        "DGCN",
        "minibatch",
        "bf16",
        [0x3fd675d600000000, 0x3ff293de40000000],
        144,
        0x411541bd820f5e03,
    ), // 0.350942 1.161101
    (
        "GW",
        "minibatch",
        "fp32",
        [0x4011144060000000, 0x4010c6bb40000000],
        1424,
        0x41495ccbe84a935a,
    ), // 4.269777 4.194074
    (
        "GW",
        "minibatch",
        "fp16",
        [0x4011143aa0000000, 0x4010c6ba40000000],
        1424,
        0x414950e3551c16fc,
    ), // 4.269755 4.194070
    (
        "GW",
        "minibatch",
        "bf16",
        [0x401114b3e0000000, 0x4010c6e0a0000000],
        1424,
        0x414950e3551c16fc,
    ), // 4.270217 4.194216
    (
        "KGNNL",
        "minibatch",
        "fp32",
        [0x3fe74b16c0000000, 0x3fe60a6ee0000000],
        42,
        0x40f89c9d62f6c406,
    ), // 0.727916 0.688774
    (
        "KGNNL",
        "minibatch",
        "fp16",
        [0x3fe74addc0000000, 0x3fe60a5b80000000],
        42,
        0x40f840fee9309ac3,
    ), // 0.727889 0.688764
    (
        "KGNNL",
        "minibatch",
        "bf16",
        [0x3fe747af00000000, 0x3fe6088260000000],
        42,
        0x40f840fee9309ac3,
    ), // 0.727500 0.688539
    (
        "KGNNH",
        "minibatch",
        "fp32",
        [0x3febc55280000000, 0x3fef408ee0000000],
        56,
        0x41006bb7e751e8f8,
    ), // 0.867837 0.976631
    (
        "KGNNH",
        "minibatch",
        "fp16",
        [0x3febc52160000000, 0x3fef402b00000000],
        56,
        0x4100366585756165,
    ), // 0.867814 0.976583
    (
        "KGNNH",
        "minibatch",
        "bf16",
        [0x3febc2e2c0000000, 0x3fef3cd7a0000000],
        56,
        0x4100366585756165,
    ), // 0.867540 0.976177
    (
        "ARGA",
        "minibatch",
        "fp32",
        [0x3fe85c19c0000000, 0x3fe8ee9460000000],
        36,
        0x40faabbdd107cecf,
    ), // 0.761243 0.779123
    (
        "ARGA",
        "minibatch",
        "fp16",
        [0x3fe85c1c60000000, 0x3fe8ee9040000000],
        36,
        0x40f8a7e7a447578b,
    ), // 0.761244 0.779122
    (
        "ARGA",
        "minibatch",
        "bf16",
        [0x3fe85c09a0000000, 0x3fe8ee8780000000],
        36,
        0x40f8a7e7a447578b,
    ), // 0.761235 0.779117
    (
        "TLSTM",
        "minibatch",
        "fp32",
        [0x3ff9c74100000000, 0x3ff9b24fe0000000],
        504,
        0x4131f917efda8349,
    ), // 1.611146 1.606033
    (
        "TLSTM",
        "minibatch",
        "fp16",
        [0x3ff9c73b80000000, 0x3ff9b24ec0000000],
        504,
        0x4131f06c1e592abc,
    ), // 1.611141 1.606032
    (
        "TLSTM",
        "minibatch",
        "bf16",
        [0x3ff9c7ba60000000, 0x3ff9b290e0000000],
        504,
        0x4131f06c1e592abc,
    ), // 1.611262 1.606095
];

fn measure_infer() -> Vec<InferRow> {
    let modes = [
        TrainMode::FullGraph,
        TrainMode::Minibatch(MinibatchConfig::default()),
    ];
    let mut rows = Vec::new();
    for mode in modes {
        for kind in WorkloadKind::ALL {
            for precision in [Precision::Fp32, Precision::Fp16, Precision::Bf16] {
                let suite = SuiteConfig::test()
                    .with_threads(2)
                    .with_mode(mode.clone())
                    .with_precision(precision);
                let mut cfg = InferConfig::new(suite);
                cfg.batch1_steps = 1;
                cfg.batched_steps = 1;
                let art = run_infer_workload(kind, &cfg)
                    .unwrap_or_else(|e| panic!("{} {} infers: {e}", kind.label(), mode.label()));
                assert_eq!(art.tape_nodes, 0, "{} recorded tape nodes", kind.label());
                rows.push((
                    kind.label(),
                    mode.label(),
                    precision.as_str(),
                    [art.losses[0].to_bits(), art.losses[1].to_bits()],
                    art.profile.kernels.len(),
                    art.profile.total_time_ns().to_bits(),
                ));
            }
        }
    }
    rows
}

fn infer_row_source((label, mode, precision, l, kernels, t): &InferRow) -> String {
    let key = format!("\"{label}\", \"{mode}\", \"{precision}\"");
    source(key, l, *kernels, *t)
}

// One test, not two: the SIMD level and the thread count are process-wide,
// and `cargo test` runs the tests of one binary on parallel threads.
#[test]
fn small_scale_results_equal_the_pinned_ones_in_both_lanes() {
    let avx2 = simd::detect() == SimdLevel::Avx2;
    check(
        "scalar lane inference",
        SimdLevel::Scalar,
        INFER_SCALAR,
        measure_infer,
        infer_row_source,
    );
    if avx2 {
        check(
            "avx2 lane inference",
            SimdLevel::Avx2,
            INFER_AVX2,
            measure_infer,
            infer_row_source,
        );
    }
    check(
        "scalar lane",
        SimdLevel::Scalar,
        SCALAR,
        measure,
        row_source,
    );
    if avx2 {
        check("avx2 lane", SimdLevel::Avx2, AVX2, measure, row_source);
    }
    gnnmark_tensor::par::set_threads(1);
}
