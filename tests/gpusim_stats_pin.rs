//! Pins the simulated statistics of one captured op stream on the four
//! sweep devices.
//!
//! The constants were generated with the stamp-LRU cache model, before
//! `gnnmark_gpusim::cache` was rewritten around recency-ordered sets. A
//! change that only makes the simulator faster must leave every one of
//! them untouched; a change that means to move them regenerates the table
//! from the failure message.

use gnnmark::suite::{run_workload_captured, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::DeviceSpec;
use gnnmark_profiler::replay::replay_profile;

/// `total_time_ns` bits, then `l1_hits`, `l2_hits`, `dram_bytes` and
/// `divergent_warp_ops` summed over every kernel.
type Pin = (u64, u64, u64, u64, u64);

fn sweep_devices() -> [(&'static str, DeviceSpec); 4] {
    [
        ("v100", DeviceSpec::v100()),
        ("a100", DeviceSpec::a100()),
        ("v100-fp16", DeviceSpec::v100().with_half_precision()),
        ("v100-l1-64k", DeviceSpec::v100().with_l1_bytes(64 * 1024)),
    ]
}

#[test]
fn replayed_statistics_match_the_stamp_lru_baseline() {
    const PINNED: [Pin; 4] = [
        (4690323772539142519, 117161, 107922, 2413312, 88771),
        (4689457828655922369, 127450, 97633, 2413312, 88771),
        (4690226158580466143, 69318, 46487, 1206656, 45804),
        (4690338893225848913, 103918, 121165, 2413312, 88771),
    ];

    let cfg = SuiteConfig::test();
    let (live, run) = run_workload_captured(WorkloadKind::ArgaCora, &cfg).expect("ARGA trains");
    let mut measured = Vec::new();
    for (name, spec) in sweep_devices() {
        let p = replay_profile(name, spec, &run.stream);
        let sum = |f: fn(&gnnmark_gpusim::MemoryTrace) -> u64| -> u64 {
            p.kernels.iter().map(|k| f(&k.memory)).sum()
        };
        measured.push((
            p.total_time_ns().to_bits(),
            sum(|m| m.l1_hits),
            sum(|m| m.l2_hits),
            sum(|m| m.dram_bytes),
            sum(|m| m.divergent_warp_ops),
        ));
    }
    assert_eq!(
        measured[0].0,
        live.profile.total_time_ns().to_bits(),
        "v100 replay must reproduce the live profile"
    );
    assert_eq!(measured, PINNED, "simulated statistics moved");
}
