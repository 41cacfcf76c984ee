//! Rebuilding a [`WorkloadProfile`] from a captured op stream.
//!
//! A stream captured by [`crate::ProfileSession::finish_captured`] (or
//! deserialized from the serve replay cache) contains everything the GPU
//! model needs; replaying it under a different [`DeviceSpec`] produces the
//! profile that device *would* have yielded, without re-running training.
//! Replaying under the capture-time device reproduces the original profile
//! exactly: the model is deterministic and consumes the steps in order from
//! a fresh state through [`GpuModel::execute_step`], the same way a live
//! session does.

use gnnmark_gpusim::stream::CapturedStream;
use gnnmark_gpusim::{
    DeviceSpec, GpuModel, KernelMetrics, PrevStep, TransferDirection, TransferEngine,
};

use crate::profile::WorkloadProfile;

/// Replays a captured op stream on a device, producing the aggregate
/// profile a live [`crate::ProfileSession`] on that device would build.
pub fn replay_profile(
    name: impl Into<String>,
    spec: DeviceSpec,
    stream: &CapturedStream,
) -> WorkloadProfile {
    let kernels = Vec::with_capacity(stream.events.len());
    replay_profile_into(name, spec, stream, kernels)
}

/// [`replay_profile`] into caller-allocated storage: the per-kernel
/// metrics are written into `kernels` (cleared first), which becomes the
/// profile's `kernels`. A caller that replays on a worker thread but keeps
/// the profile allocates it, with room for `stream.events.len()`, on its
/// own thread, so the largest block of the result lives in the allocator
/// arena of the thread that frees it (see `Command::Launch` in the
/// session for the same rule).
pub fn replay_profile_into(
    name: impl Into<String>,
    spec: DeviceSpec,
    stream: &CapturedStream,
    mut kernels: Vec<KernelMetrics>,
) -> WorkloadProfile {
    let mut sp = gnnmark_telemetry::span!("replay", "gpu-model");
    let mut gpu = GpuModel::new(spec.clone());
    kernels.clear();
    replay_steps(&mut gpu, stream, &mut kernels);
    sp.arg("elided", gpu.steps_elided());
    gnnmark_telemetry::metrics::counter_add(STEPS_ELIDED_TOTAL, gpu.steps_elided());
    let mut transfers = TransferEngine::new(&spec);
    for t in &stream.transfers {
        let direction = if t.h2d {
            TransferDirection::HostToDevice
        } else {
            TransferDirection::DeviceToHost
        };
        transfers.record_raw(direction, t.bytes, t.zeros, t.elements);
    }
    WorkloadProfile::build(
        name.into(),
        spec,
        kernels,
        &transfers,
        stream.steps(),
        stream.per_step.clone(),
    )
}

/// Counter of steps the GPU model copied instead of simulating, bumped once
/// per replay and once per live session.
pub(crate) const STEPS_ELIDED_TOTAL: &str = "gnnmark_sim_steps_elided_total";

/// Lowers `stream` step by step through `gpu`, each step following the one
/// before it, appending one metric per event to `kernels`.
pub fn replay_steps(gpu: &mut GpuModel, stream: &CapturedStream, kernels: &mut Vec<KernelMetrics>) {
    // A step's metrics go through `step` because the previous step's are
    // read from `kernels` meanwhile.
    let mut step = Vec::new();
    let mut prev = None;
    for events in stream.step_events() {
        let prev_step = prev.map(|events: &[_]| PrevStep {
            events,
            kernels: &kernels[kernels.len() - events.len()..],
        });
        gpu.execute_step(events, prev_step, &mut step);
        kernels.append(&mut step);
        prev = Some(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileSession;
    use gnnmark_tensor::Tensor;

    fn captured_session() -> (WorkloadProfile, CapturedStream) {
        let mut s = ProfileSession::new("replay-test", DeviceSpec::v100());
        s.enable_capture();
        s.upload(&Tensor::zeros(&[64]));
        s.begin_step();
        let x = Tensor::ones(&[32, 32]);
        let y = x.matmul(&x).unwrap();
        let _ = y.relu();
        s.end_step();
        s.begin_step();
        let _ = x.softmax_rows();
        s.end_step();
        s.download(&Tensor::ones(&[8]));
        s.finish_captured()
    }

    #[test]
    fn same_device_replay_reproduces_the_profile() {
        let (live, stream) = captured_session();
        let replayed = replay_profile("replay-test", DeviceSpec::v100(), &stream);
        assert_eq!(replayed.steps, live.steps);
        assert_eq!(replayed.kernels.len(), live.kernels.len());
        for (a, b) in replayed.kernels.iter().zip(&live.kernels) {
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(
                a.time_ns.to_bits(),
                b.time_ns.to_bits(),
                "kernel {}",
                a.kernel
            );
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        }
        assert_eq!(
            replayed.total_time_ns().to_bits(),
            live.total_time_ns().to_bits()
        );
        assert_eq!(
            replayed.mean_sparsity.to_bits(),
            live.mean_sparsity.to_bits()
        );
        assert_eq!(replayed.h2d_bytes, live.h2d_bytes);
        assert_eq!(replayed.sparsity_series, live.sparsity_series);
    }

    #[test]
    fn replay_into_fills_the_callers_storage() {
        let (live, stream) = captured_session();
        let mut stale = Vec::with_capacity(stream.events.len() + 1);
        stale.push(live.kernels[0].clone());
        let storage = stale.as_ptr();
        let into = replay_profile_into("replay-test", DeviceSpec::v100(), &stream, stale);
        assert_eq!(into.kernels.as_ptr(), storage, "no reallocation");
        let plain = replay_profile("replay-test", DeviceSpec::v100(), &stream);
        assert_eq!(into.kernels.len(), plain.kernels.len());
        for (a, b) in into.kernels.iter().zip(&plain.kernels) {
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.time_ns.to_bits(), b.time_ns.to_bits());
        }
        assert_eq!(
            into.total_time_ns().to_bits(),
            plain.total_time_ns().to_bits()
        );
    }

    #[test]
    fn different_device_changes_timing_but_not_work() {
        let (live, stream) = captured_session();
        let replayed = replay_profile("replay-test", DeviceSpec::a100(), &stream);
        assert_eq!(replayed.kernels.len(), live.kernels.len());
        // Same measured work...
        assert_eq!(replayed.instr.total(), live.instr.total());
        // ...different modeled time on faster hardware.
        assert!(replayed.total_kernel_time_ns() < live.total_kernel_time_ns());
    }

    #[test]
    fn replay_survives_serialization() {
        use gnnmark_gpusim::stream::{CapturedRun, ReplayMeta};
        let (live, stream) = captured_session();
        let run = CapturedRun {
            meta: ReplayMeta {
                workload: "replay-test".to_string(),
                scale: "tiny".to_string(),
                mode: "fullgraph".to_string(),
                phase: "train".to_string(),
                seed: 1,
                epochs: 1,
                steps_per_epoch: 2,
                grad_bytes: 0,
                losses: vec![],
                scaling: None,
                quality: None,
            },
            stream,
        };
        let back = CapturedRun::from_bytes(&run.to_bytes()).unwrap();
        let replayed = replay_profile("replay-test", DeviceSpec::v100(), &back.stream);
        assert_eq!(
            replayed.total_time_ns().to_bits(),
            live.total_time_ns().to_bits()
        );
    }
}
