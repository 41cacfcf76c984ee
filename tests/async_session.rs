//! `ProfileSession` simulates on its own `gnnmark-sim` thread while the
//! next step trains. These tests pin what that must not change: the live
//! profile is the one a serial replay of the same op stream builds, a
//! simulator panic reaches the resilient runner as that panic, and no
//! simulator thread outlives its session.
//!
//! Every test here starts simulator threads and two of them count the
//! process's, so they serialize on a file-local lock.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use gnnmark::infer::{run_infer_captured, InferConfig};
use gnnmark::resilience::{
    run_task_resilient, run_workload_resilient, Fault, FaultPlan, ResilienceConfig, TaskStatus,
    WorkloadStatus,
};
use gnnmark::suite::{run_workload_captured, SuiteConfig};
use gnnmark::{
    DeviceSpec, MinibatchConfig, ProfileSession, TrainMode, WorkloadKind, WorkloadProfile,
};
use gnnmark_gpusim::stream::CapturedRun;
use gnnmark_profiler::replay_profile;
use gnnmark_tensor::Tensor;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Threads of this process named `gnnmark-sim`.
#[cfg(target_os = "linux")]
fn sim_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "gnnmark-sim")
        .count()
}

fn no_retry() -> ResilienceConfig {
    let mut r = ResilienceConfig::default();
    r.retry.max_retries = 0;
    r.retry.backoff_base = Duration::ZERO;
    r.grad_clip_fallback = None;
    r
}

fn assert_live_equals_replay(what: &str, live: &WorkloadProfile, run: &CapturedRun) {
    let replayed = replay_profile(live.name.clone(), live.spec.clone(), &run.stream);
    assert_eq!(live.steps, replayed.steps, "{what}: steps");
    assert_eq!(
        live.step_kernels, replayed.step_kernels,
        "{what}: step_kernels"
    );
    assert_eq!(
        live.kernels.len(),
        replayed.kernels.len(),
        "{what}: kernels"
    );
    assert!(!live.kernels.is_empty(), "{what}: ran nothing");
    for (i, (a, b)) in live.kernels.iter().zip(&replayed.kernels).enumerate() {
        assert_eq!(a.kernel, b.kernel, "{what}: kernel {i}");
        assert_eq!(
            a.time_ns.to_bits(),
            b.time_ns.to_bits(),
            "{what}: time of kernel {i}"
        );
        assert_eq!(
            a.cycles.to_bits(),
            b.cycles.to_bits(),
            "{what}: cycles of kernel {i}"
        );
        assert_eq!(
            format!("{:?}", a.memory),
            format!("{:?}", b.memory),
            "{what}: memory trace of kernel {i}"
        );
    }
    assert_eq!(
        live.total_time_ns().to_bits(),
        replayed.total_time_ns().to_bits(),
        "{what}: total"
    );
}

#[test]
fn live_profiles_equal_a_serial_replay_of_their_own_capture() {
    let _g = lock();
    let full = SuiteConfig::test();
    let mini = SuiteConfig::test().with_mode(TrainMode::Minibatch(MinibatchConfig::default()));
    for kind in WorkloadKind::ALL {
        for (mode, cfg) in [("fullgraph", &full), ("minibatch", &mini)] {
            let (art, run) = run_workload_captured(kind, cfg).unwrap();
            assert_live_equals_replay(&format!("{kind:?} {mode}"), &art.profile, &run);
        }
        let (art, run) = run_infer_captured(kind, &InferConfig::test()).unwrap();
        assert_live_equals_replay(&format!("{kind:?} infer"), &art.profile, &run);
        // What used to be read off the live session per step is now derived
        // from the finished profile.
        let steps = art.batch1_latency_ns.len() + art.batched_step_ns.len();
        assert_eq!(
            steps as u64, art.profile.steps,
            "{kind:?}: one time per step"
        );
        let total: f64 = art
            .batch1_latency_ns
            .iter()
            .chain(&art.batched_step_ns)
            .sum();
        let kernels = art.profile.total_kernel_time_ns();
        assert!(
            (total - kernels).abs() <= 1e-9 * kernels,
            "{kind:?}: step times {total} vs kernels {kernels}"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_simulator_panic_reaches_the_resilient_runner_and_no_thread_is_left() {
    let _g = lock();
    assert_eq!(sim_threads(), 0, "baseline");
    let task = Arc::new(|_attempt: usize| -> gnnmark::Result<usize> {
        let mut session = ProfileSession::with_model("doomed", DeviceSpec::v100(), |_| {
            panic!("injected simulator fault")
        });
        let x = Tensor::ones(&[8, 8]);
        for _ in 0..8 {
            session.begin_step();
            let _ = x.relu();
            session.end_step();
        }
        Ok(session.finish().kernels.len())
    });
    let outcome = run_task_resilient("doomed", &no_retry(), task);
    match outcome.status {
        TaskStatus::Panicked { message } => assert_eq!(message, "injected simulator fault"),
        other => panic!("expected the simulator's panic, got {other:?}"),
    }
    assert_eq!(sim_threads(), 0, "the panicked simulator was joined");
}

#[cfg(target_os = "linux")]
#[test]
fn a_run_abandoned_by_an_error_takes_its_simulator_with_it() {
    let _g = lock();
    assert_eq!(sim_threads(), 0, "baseline");
    // The numeric guard returns `Err` out of the epoch loop with the
    // session alive and steps possibly still queued.
    let kind = WorkloadKind::ArgaCora;
    let faults = FaultPlan::none().inject(
        kind.label(),
        Fault::NanLoss {
            epoch: 0,
            failures: usize::MAX,
        },
    );
    let outcome =
        run_workload_resilient(kind, &SuiteConfig::test(), &no_retry().with_faults(faults));
    assert!(
        matches!(outcome.status, WorkloadStatus::Failed { .. }),
        "{:?}",
        outcome.status
    );
    assert_eq!(sim_threads(), 0, "the dropped session joined its simulator");
}
