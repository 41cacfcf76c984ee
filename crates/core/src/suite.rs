//! Suite execution: build workloads, train them under profiling sessions.

use gnnmark_gpusim::stream::{CapturedRun, CapturedStream, ReplayMeta};
use gnnmark_gpusim::DeviceSpec;
use gnnmark_profiler::{ProfileSession, WorkloadProfile};
use gnnmark_tensor::half::{Precision, PrecisionGuard};
use gnnmark_workloads::{Scale, TrainMode, Workload, WorkloadKind};

use crate::resilience::NumericGuard;
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

    /// The device a run under this configuration models. A reduced
    /// precision models the device at 2-byte elements (halved memory
    /// traffic, doubled effective cache capacity) unless the caller
    /// already chose a half-precision device.
    pub(crate) fn modeled_device(&self) -> DeviceSpec {
        if self.precision != Precision::Fp32 && self.device.elem_bytes == 4 {
            self.device.clone().with_half_precision()
        } else {
            self.device.clone()
        }
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

/// Trains and profiles one workload, returning the profile plus training
/// metadata needed by the scaling model.
///
/// # Errors
/// Propagates workload construction or training errors, annotated with the
/// workload label (see [`gnnmark_tensor::TensorError::InWorkload`]).
pub fn run_workload_full(kind: WorkloadKind, cfg: &SuiteConfig) -> Result<RunArtifacts> {
    train(kind, cfg, false, None, None).map(|(art, _)| art)
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
    let (artifacts, stream) = train(kind, cfg, true, None, None)?;
    let run = captured_run(
        kind,
        cfg,
        &artifacts,
        stream.expect("capture was requested"),
    );
    Ok((artifacts, run))
}

/// Packs a captured training stream with the device-independent training
/// record of its run, keyed by the [`ReplayMeta`] a
/// [`crate::cache::CacheKey`] matches.
pub(crate) fn captured_run(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    artifacts: &RunArtifacts,
    stream: CapturedStream,
) -> CapturedRun {
    CapturedRun {
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
    }
}

/// Rebuilds [`RunArtifacts`] from a captured run replayed on `device` —
/// the profile a live training run on that device would have produced,
/// without retraining. Training metadata (losses, quality, scaling) is
/// device-independent and comes straight from the capture.
pub fn artifacts_from_replay(run: &CapturedRun, device: &DeviceSpec) -> RunArtifacts {
    let profile =
        gnnmark_profiler::replay_profile(run.meta.workload.clone(), device.clone(), &run.stream);
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

/// The one workload-run skeleton: every path that executes a workload
/// (plain, captured and resilient training, forward-only inference) goes
/// through this prologue and epilogue, so a step added here is applied on
/// all of them. `body` drives the built workload under the session and
/// returns whatever it measured; `span` names the enclosing telemetry span
/// (`workload:<LABEL>` / `infer:<LABEL>`). Errors come back annotated with
/// the workload label.
pub(crate) fn run_session<T>(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    span: &str,
    capture: bool,
    body: impl FnOnce(&mut dyn Workload, &mut ProfileSession) -> Result<T>,
) -> Result<(T, WorkloadProfile, Option<CapturedStream>)> {
    let run = || {
        if let Some(t) = cfg.threads {
            gnnmark_tensor::par::set_threads(t);
        }
        // Thread-local mixed-precision state, installed *before* the
        // workload builds so its parameters get 16-bit master storage and
        // every tape activation rounds on store. Loss scaling rides along;
        // the guards restore fp32 even if the body panics on a pooled
        // thread.
        let _precision = PrecisionGuard::new(cfg.precision);
        gnnmark_autograd::amp::enable(cfg.precision);
        let _amp = AmpOff;
        let device = cfg.modeled_device();
        let _wl = gnnmark_telemetry::span!(format!("{span}:{}", kind.label()));
        let mut w = {
            let _build = gnnmark_telemetry::span!("build");
            kind.build_mode(cfg.scale, cfg.seed, &cfg.mode)?
        };
        let mut session = ProfileSession::new(kind.label(), device);
        if capture {
            session.enable_capture();
        }
        let out = body(w.as_mut(), &mut session)?;
        Ok(if capture {
            let (profile, stream) = session.finish_captured();
            (out, profile, Some(stream))
        } else {
            (out, session.finish(), None)
        })
    };
    run().map_err(|e: gnnmark_tensor::TensorError| e.in_workload(kind.label()))
}

/// The one training loop. The resilient runner passes a [`NumericGuard`]
/// (a non-finite or diverged loss or gradient norm becomes an error) and
/// the epoch whose loss an injected fault turns into NaN; plain runs pass
/// neither and hand non-finite losses back to the caller as they are.
pub(crate) fn train(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    capture: bool,
    mut guard: Option<NumericGuard>,
    nan_epoch: Option<usize>,
) -> Result<(RunArtifacts, Option<CapturedStream>)> {
    let (into_artifacts, profile, stream) =
        run_session(kind, cfg, "workload", capture, |w, session| {
            let mut losses = Vec::with_capacity(cfg.epochs);
            for epoch in 0..cfg.epochs {
                let _ep = gnnmark_telemetry::span!("epoch");
                // `--progress` only: each modeled-time read waits for the
                // session's simulator to catch up, which takes simulation
                // off the thread it overlaps with (training math never
                // observes the clocks either way).
                let progress = gnnmark_telemetry::progress_enabled()
                    .then(|| (session.modeled_time_ns(), std::time::Instant::now()));
                let mut loss = w.run_epoch(session)?;
                if nan_epoch == Some(epoch) {
                    loss = f64::NAN;
                }
                if let Some(guard) = &mut guard {
                    guard.observe_loss(epoch, loss)?;
                    guard.observe_grad_norm(epoch, w.params().grad_norm())?;
                }
                losses.push(loss);
                if let Some((modeled_before_ns, started)) = progress {
                    eprintln!(
                        "[{}] epoch {}/{}: loss {:.4}  wall {:.1} ms  modeled {:.1} ms",
                        kind.label(),
                        epoch + 1,
                        cfg.epochs,
                        loss,
                        started.elapsed().as_secs_f64() * 1e3,
                        (session.modeled_time_ns() - modeled_before_ns) / 1e6,
                    );
                }
            }
            let quality = w.quality()?;
            let steps_per_epoch = w.steps_per_epoch();
            let grad_bytes = w.params().total_bytes();
            let scaling = w.scaling_behavior();
            Ok(move |profile| RunArtifacts {
                profile,
                losses,
                steps_per_epoch,
                grad_bytes,
                scaling,
                quality,
            })
        })?;
    Ok((into_artifacts(profile), stream))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_produces_profile() {
        let cfg = SuiteConfig::test();
        let art = run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        assert_eq!(art.losses.len(), 1);
        assert!(art.profile.kernels.len() > 10);
        assert!(art.grad_bytes > 0);
        assert!(art.steps_per_epoch > 0);
        assert!(art.scaling.is_some());
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
        assert!(ablated.profile.total_kernel_time_ns() < live.profile.total_kernel_time_ns());
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
