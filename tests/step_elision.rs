//! The GPU model copies the metrics of a step that repeats the previous
//! step's events from the cache state that step started and ended in
//! (`GpuModel::execute_step`). Live sessions and replays both do it, so
//! comparing the two (`async_session.rs`) cannot catch a wrong copy. This
//! test compares both with the per-event reference: every event through
//! `GpuModel::execute`, in order, with no step boundaries at all.

use gnnmark::suite::{run_workload_captured, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::stream::CapturedStream;
use gnnmark_gpusim::{DeviceSpec, GpuModel, KernelMetrics};
use gnnmark_profiler::{replay_profile, replay_steps};

fn sweep_devices() -> [DeviceSpec; 4] {
    [
        DeviceSpec::v100(),
        DeviceSpec::a100(),
        DeviceSpec::v100().with_half_precision(),
        DeviceSpec::v100().with_l1_bytes(64 * 1024),
    ]
}

fn per_event(spec: &DeviceSpec, stream: &CapturedStream) -> Vec<KernelMetrics> {
    let mut gpu = GpuModel::new(spec.clone());
    stream.events.iter().map(|e| gpu.execute(e)).collect()
}

/// Every field of every kernel, bit for bit: `Debug` prints each `f64` in
/// the shortest form that reads back to the same bits.
fn assert_bit_identical(what: &str, got: &[KernelMetrics], want: &[KernelMetrics]) {
    assert_eq!(got.len(), want.len(), "{what}: kernel count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}: kernel {i}");
    }
}

#[test]
fn stgcn_live_and_replayed_equal_the_per_event_reference() {
    let kind = WorkloadKind::Stgcn;
    // Full-graph STGCN launches the same kernels over the same indices
    // every step; three epochs give it repeats to elide.
    let cfg = SuiteConfig {
        epochs: 3,
        ..SuiteConfig::test()
    };
    let (art, run) = run_workload_captured(kind, &cfg).expect("STGCN trains");
    let stream = &run.stream;
    assert_bit_identical(
        "live",
        &art.profile.kernels,
        &per_event(&art.profile.spec, stream),
    );
    for spec in sweep_devices() {
        let want = per_event(&spec, stream);
        let replayed = replay_profile(kind.label(), spec.clone(), stream);
        assert_bit_identical(&spec.name, &replayed.kernels, &want);

        let mut gpu = GpuModel::new(spec.clone());
        let mut kernels = Vec::new();
        replay_steps(&mut gpu, stream, &mut kernels);
        assert_bit_identical(&spec.name, &kernels, &want);
        assert_eq!(gpu.kernels_executed(), stream.events.len() as u64);
        assert!(
            gpu.steps_elided() >= 1,
            "{}: no step of {} elided",
            spec.name,
            stream.steps()
        );
    }
}
