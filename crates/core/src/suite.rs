//! Suite execution: build workloads, train them under profiling sessions.

use gnnmark_gpusim::stream::{CapturedRun, CapturedStream, ReplayMeta};
use gnnmark_gpusim::DeviceSpec;
use gnnmark_profiler::{ProfileSession, WorkloadProfile};
use gnnmark_tensor::half::{Precision, PrecisionGuard};
use gnnmark_workloads::{Scale, TrainMode, WorkloadKind};

use crate::Result;

/// Configuration of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Problem size.
    pub scale: Scale,
    /// Training epochs profiled per workload.
    pub epochs: usize,
    /// Dataset / initialization seed.
    pub seed: u64,
    /// The modeled device.
    pub device: DeviceSpec,
    /// CPU threads for the tensor kernels (`None` = keep the process-wide
    /// setting: `GNNMARK_THREADS` or the detected core count). Results are
    /// bit-identical at every thread count; only wall-clock changes.
    pub threads: Option<usize>,
    /// Storage precision for parameters and activations (the CLI's
    /// `--precision`). f16/bf16 runs train with real quantized storage and
    /// dynamic loss scaling, and model the device at 2-byte elements.
    pub precision: Precision,
    /// Training mode (the CLI's `--mode`): full-graph or mini-batch
    /// neighbor sampling with a configurable batch size and fanouts.
    pub mode: TrainMode,
}

impl SuiteConfig {
    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        SuiteConfig {
            scale: Scale::Test,
            epochs: 1,
            seed: 42,
            device: DeviceSpec::v100(),
            threads: None,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
        }
    }

    /// Default figure-generation configuration (matches the paper's
    /// methodology of profiling a bounded window of training).
    pub fn small() -> Self {
        SuiteConfig {
            scale: Scale::Small,
            epochs: 2,
            seed: 42,
            device: DeviceSpec::v100(),
            threads: None,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
        }
    }

    /// The largest configuration the CPU substrate sustains.
    pub fn paper() -> Self {
        SuiteConfig {
            scale: Scale::Paper,
            epochs: 1,
            seed: 42,
            device: DeviceSpec::v100(),
            threads: None,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
        }
    }

    /// Replaces the device (ablations).
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Sets the kernel thread count (the CLI's `--threads`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the storage precision (the CLI's `--precision`).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the training mode (the CLI's `--mode` / `--batch-size` /
    /// `--fanout`).
    pub fn with_mode(mut self, mode: TrainMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Extra results captured alongside a profile.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The profile itself.
    pub profile: WorkloadProfile,
    /// Per-epoch mean training losses.
    pub losses: Vec<f64>,
    /// Optimizer steps per epoch (DDP all-reduces).
    pub steps_per_epoch: u64,
    /// Gradient payload per step, bytes.
    pub grad_bytes: u64,
    /// How the workload scales under DDP (`None` = excluded).
    pub scaling: Option<gnnmark_gpusim::ScalingBehavior>,
    /// Task-quality metric after training, if the workload defines one.
    pub quality: Option<(&'static str, f64)>,
}

/// Trains and profiles one workload, returning its profile.
///
/// # Errors
/// Propagates workload construction or training errors.
pub fn run_workload(kind: WorkloadKind, cfg: &SuiteConfig) -> Result<WorkloadProfile> {
    Ok(run_workload_full(kind, cfg)?.profile)
}

/// Trains and profiles one workload, returning the profile plus training
/// metadata needed by the scaling model.
///
/// # Errors
/// Propagates workload construction or training errors, annotated with the
/// workload label (see [`gnnmark_tensor::TensorError::InWorkload`]).
pub fn run_workload_full(kind: WorkloadKind, cfg: &SuiteConfig) -> Result<RunArtifacts> {
    run_workload_full_inner(kind, cfg, false)
        .map(|(art, _)| art)
        .map_err(|e| e.in_workload(kind.label()))
}

/// Trains and profiles one workload with op-stream capture enabled,
/// returning the artifacts plus a serializable [`CapturedRun`] that can be
/// replayed under other device configs without retraining (the unit stored
/// by the `gnnmark-serve` replay cache).
///
/// # Errors
/// Propagates workload construction or training errors, annotated with the
/// workload label.
pub fn run_workload_captured(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
) -> Result<(RunArtifacts, CapturedRun)> {
    let (artifacts, stream) = run_workload_full_inner(kind, cfg, true)
        .map_err(|e| e.in_workload(kind.label()))?;
    let stream = stream.expect("capture was requested");
    let run = CapturedRun {
        meta: ReplayMeta {
            workload: kind.label().to_string(),
            scale: cfg.scale.label().to_string(),
            mode: cfg.mode.key(),
            phase: "train".to_string(),
            seed: cfg.seed,
            epochs: cfg.epochs as u32,
            steps_per_epoch: artifacts.steps_per_epoch,
            grad_bytes: artifacts.grad_bytes,
            losses: artifacts.losses.clone(),
            scaling: artifacts.scaling,
            quality: artifacts.quality,
        },
        stream,
    };
    Ok((artifacts, run))
}

/// Rebuilds [`RunArtifacts`] from a captured run replayed on `device` —
/// the profile a live training run on that device would have produced,
/// without retraining. Training metadata (losses, quality, scaling) is
/// device-independent and comes straight from the capture.
pub fn artifacts_from_replay(run: &CapturedRun, device: &DeviceSpec) -> RunArtifacts {
    let profile = gnnmark_profiler::replay_profile(
        run.meta.workload.clone(),
        device.clone(),
        &run.stream,
    );
    RunArtifacts {
        profile,
        losses: run.meta.losses.clone(),
        steps_per_epoch: run.meta.steps_per_epoch,
        grad_bytes: run.meta.grad_bytes,
        scaling: run.meta.scaling,
        quality: run.meta.quality,
    }
}

/// Disables thread-local loss scaling on drop (panic-safe, like
/// [`PrecisionGuard`]) so a pooled worker thread never leaks AMP state into
/// the next workload it runs.
struct AmpOff;

impl Drop for AmpOff {
    fn drop(&mut self) {
        gnnmark_autograd::amp::disable();
    }
}

/// Thread-local mixed-precision state for one workload run, installed
/// *before* the workload builds so its parameters get 16-bit master
/// storage and every tape activation rounds on store. Holds the RAII
/// guards until dropped; both the direct [`run_workload_full`] path and
/// the resilient suite's per-attempt worker threads install one.
pub(crate) struct PrecisionSetup {
    _precision: PrecisionGuard,
    _amp: AmpOff,
    /// The modeled device, switched to 2-byte elements under a reduced
    /// precision (halved memory traffic, doubled effective cache
    /// capacity) unless the caller already chose a half-precision device.
    pub device: gnnmark_gpusim::DeviceSpec,
}

impl PrecisionSetup {
    pub fn install(cfg: &SuiteConfig) -> Self {
        let precision = PrecisionGuard::new(cfg.precision);
        gnnmark_autograd::amp::enable(cfg.precision);
        let device = if cfg.precision != Precision::Fp32 && cfg.device.elem_bytes == 4 {
            cfg.device.clone().with_half_precision()
        } else {
            cfg.device.clone()
        };
        PrecisionSetup {
            _precision: precision,
            _amp: AmpOff,
            device,
        }
    }
}

/// One epoch's `--progress` line: wall and modeled time since
/// [`EpochProgress::start`]. Exists only while progress is on, because each
/// modeled-time read waits for the session's simulator to catch up, which
/// takes simulation off the thread it overlaps with (training math never
/// observes the clocks either way).
pub(crate) struct EpochProgress {
    modeled_before_ns: f64,
    started: std::time::Instant,
}

impl EpochProgress {
    pub fn start(session: &mut ProfileSession) -> Option<Self> {
        gnnmark_telemetry::progress_enabled().then(|| EpochProgress {
            modeled_before_ns: session.modeled_time_ns(),
            started: std::time::Instant::now(),
        })
    }

    pub fn report(
        self,
        kind: WorkloadKind,
        epoch: usize,
        epochs: usize,
        loss: f64,
        session: &mut ProfileSession,
    ) {
        let pool = gnnmark_tensor::pool::global_stats();
        eprintln!(
            "[{}] epoch {}/{}: loss {:.4}  wall {:.1} ms  modeled {:.1} ms  pool hit {:.1}%",
            kind.label(),
            epoch + 1,
            epochs,
            loss,
            self.started.elapsed().as_secs_f64() * 1e3,
            (session.modeled_time_ns() - self.modeled_before_ns) / 1e6,
            pool.hit_rate() * 100.0,
        );
    }
}

fn run_workload_full_inner(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    capture: bool,
) -> Result<(RunArtifacts, Option<CapturedStream>)> {
    if let Some(t) = cfg.threads {
        gnnmark_tensor::par::set_threads(t);
    }
    // Loss scaling rides along with the precision; both are thread-local
    // and the guards restore fp32 even if training panics on a pooled
    // thread.
    let setup = PrecisionSetup::install(cfg);
    let device = setup.device.clone();
    let _wl = gnnmark_telemetry::span!(format!("workload:{}", kind.label()));
    // Make room for this workload's shapes (see `pool::clear`).
    gnnmark_tensor::pool::clear();
    let mut w = {
        let _build = gnnmark_telemetry::span!("build");
        kind.build_mode(cfg.scale, cfg.seed, &cfg.mode)?
    };
    let mut session = ProfileSession::new(kind.label(), device);
    if capture {
        session.enable_capture();
    }
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _ep = gnnmark_telemetry::span!("epoch");
        let progress = EpochProgress::start(&mut session);
        let loss = w.run_epoch(&mut session)?;
        losses.push(loss);
        if let Some(p) = progress {
            p.report(kind, epoch, cfg.epochs, loss, &mut session);
        }
    }
    let quality = w.quality()?;
    let (profile, stream) = if capture {
        let (p, s) = session.finish_captured();
        (p, Some(s))
    } else {
        (session.finish(), None)
    };
    Ok((
        RunArtifacts {
            profile,
            losses,
            steps_per_epoch: w.steps_per_epoch(),
            grad_bytes: w.params().total_bytes(),
            scaling: w.scaling_behavior(),
            quality,
        },
        stream,
    ))
}

/// Runs the whole suite (every workload of the paper's figures) and
/// returns the artifacts in [`WorkloadKind::ALL`] order.
///
/// # Errors
/// Propagates the first workload failure.
pub fn run_suite(cfg: &SuiteConfig) -> Result<Vec<RunArtifacts>> {
    WorkloadKind::ALL
        .iter()
        .map(|&k| run_workload_full(k, cfg))
        .collect()
}

/// Renders a panic payload (the `Box<dyn Any>` from a joined thread) as the
/// panic message when it is a string, or a placeholder otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the whole suite with one OS thread per workload (op recording is
/// thread-local, so runs are fully independent); results come back in
/// [`WorkloadKind::ALL`] order and are bit-identical to [`run_suite`].
///
/// # Errors
/// Propagates the first workload failure. A panicking worker becomes an
/// `Err` naming the panicking workload — it never takes down the caller.
/// For a run that *always* completes and reports per-workload status
/// instead, see [`crate::resilience::run_suite_resilient`].
pub fn run_suite_parallel(cfg: &SuiteConfig) -> Result<Vec<RunArtifacts>> {
    let results: Vec<Result<RunArtifacts>> = std::thread::scope(|scope| {
        let handles: Vec<_> = WorkloadKind::ALL
            .iter()
            .map(|&kind| {
                let cfg = cfg.clone();
                scope.spawn(move || run_workload_full(kind, &cfg))
            })
            .collect();
        WorkloadKind::ALL
            .iter()
            .zip(handles)
            .map(|(&kind, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(gnnmark_tensor::TensorError::InvalidArgument {
                        op: "run_suite_parallel",
                        reason: format!("worker panicked: {}", panic_message(payload.as_ref())),
                    }
                    .in_workload(kind.label()))
                })
            })
            .collect()
    });
    results.into_iter().collect()
}

/// Result of a time-to-train measurement (the MLPerf-style metric the
/// paper plans to adopt in its future work, §VII).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeToTrain {
    /// Epochs needed to reach the target (`None` if never reached).
    pub epochs: Option<usize>,
    /// Modeled GPU time spent, nanoseconds (up to the reaching epoch, or
    /// all of `max_epochs` when the target was missed).
    pub modeled_ns: f64,
    /// The loss trajectory that was observed.
    pub losses: Vec<f64>,
}

/// Trains a workload until its epoch loss falls below `target_loss` (or
/// `max_epochs` elapse) and reports the modeled time to get there — the
/// "time-to-train" metric of MLPerf that the paper lists as future work.
///
/// # Errors
/// Propagates workload failures.
pub fn time_to_target(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    target_loss: f64,
    max_epochs: usize,
) -> Result<TimeToTrain> {
    let mut w = kind.build_mode(cfg.scale, cfg.seed, &cfg.mode)?;
    let mut session = ProfileSession::new(kind.label(), cfg.device.clone());
    let mut losses = Vec::new();
    let mut reached = None;
    for epoch in 0..max_epochs {
        let loss = w.run_epoch(&mut session)?;
        losses.push(loss);
        if loss <= target_loss {
            reached = Some(epoch + 1);
            break;
        }
    }
    let profile = session.finish();
    Ok(TimeToTrain {
        epochs: reached,
        modeled_ns: profile.total_time_ns(),
        losses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_workload_produces_profile() {
        let cfg = SuiteConfig::test();
        let art = run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        assert_eq!(art.losses.len(), 1);
        assert!(art.profile.kernels.len() > 10);
        assert!(art.grad_bytes > 0);
        assert!(art.steps_per_epoch > 0);
        assert!(art.scaling.is_some());
    }

    #[test]
    fn time_to_target_reports_epochs_or_miss() {
        let cfg = SuiteConfig::test();
        // An absurdly high target is hit on epoch 1.
        let easy = time_to_target(WorkloadKind::Tlstm, &cfg, 1e9, 4).unwrap();
        assert_eq!(easy.epochs, Some(1));
        assert_eq!(easy.losses.len(), 1);
        assert!(easy.modeled_ns > 0.0);
        // An impossible target runs out the budget.
        let hard = time_to_target(WorkloadKind::Tlstm, &cfg, -1.0, 2).unwrap();
        assert_eq!(hard.epochs, None);
        assert_eq!(hard.losses.len(), 2);
        assert!(hard.modeled_ns > easy.modeled_ns);
    }

    #[test]
    fn captured_run_replays_to_identical_artifacts() {
        let cfg = SuiteConfig::test();
        let (live, run) = run_workload_captured(WorkloadKind::Tlstm, &cfg).unwrap();
        assert_eq!(run.meta.workload, "TLSTM");
        assert_eq!(run.meta.scale, "test");
        assert_eq!(run.meta.losses, live.losses);
        // Roundtrip through the serialized form, then replay on the same
        // device: profile must match the live run bit-for-bit.
        let back = CapturedRun::from_bytes(&run.to_bytes()).unwrap();
        let replayed = artifacts_from_replay(&back, &cfg.device);
        assert_eq!(replayed.profile.kernels.len(), live.profile.kernels.len());
        assert_eq!(
            replayed.profile.total_time_ns().to_bits(),
            live.profile.total_time_ns().to_bits()
        );
        assert_eq!(replayed.losses, live.losses);
        assert_eq!(replayed.grad_bytes, live.grad_bytes);
        // Replaying under a different device yields different timing from
        // the very same capture — the point of the cache.
        let ablated = artifacts_from_replay(&back, &DeviceSpec::a100());
        assert!(
            ablated.profile.total_kernel_time_ns() < live.profile.total_kernel_time_ns()
        );
    }

    #[test]
    fn configs_differ_in_scale() {
        assert_eq!(SuiteConfig::test().scale, Scale::Test);
        assert_eq!(SuiteConfig::small().scale, Scale::Small);
        assert_eq!(SuiteConfig::paper().scale, Scale::Paper);
        let custom = SuiteConfig::test().with_device(DeviceSpec::v100().with_half_precision());
        assert_eq!(custom.device.elem_bytes, 2);
    }
}
