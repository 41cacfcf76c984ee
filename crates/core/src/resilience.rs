//! Resilient suite execution: fault isolation, deadlines, retries,
//! numeric-anomaly guards, deterministic fault injection, and
//! checkpoint/resume.
//!
//! One diverging workload must not discard eight finished ones, so the
//! entry points here never abort the suite; a caller that wants fail-fast
//! semantics asks the finished [`SuiteReport`] for them
//! ([`SuiteReport::runs`]):
//!
//! * [`run_task_resilient`] is the one attempt runner: it executes a
//!   fallible task on a dedicated worker thread per attempt under
//!   `catch_unwind`, an optional wall-clock deadline, and a bounded retry
//!   policy with exponential backoff, and records the attempt timeline.
//! * [`run_workload_resilient`] is a workload-shaped task on that runner:
//!   per-attempt seed perturbation, the injected fault, and
//!   [`crate::suite`]'s one training loop under a [`NumericGuard`], with
//!   the result classified as a [`WorkloadStatus`]. With a checkpoint
//!   directory it is also the checkpoint: the directory is a replay cache
//!   ([`crate::cache::StreamCache`]), a finished run is rebuilt from its
//!   captured stream instead of training again, and a new run is captured
//!   and stored.
//! * [`run_suite_resilient`] drives every workload (serially or one thread
//!   per workload) and returns a [`SuiteReport`] carrying per-workload
//!   status plus whatever artifacts succeeded — figure rendering then
//!   degrades gracefully instead of silently dropping rows.
//! * [`FaultPlan`] injects deterministic faults (panic, transient error,
//!   NaN loss, stall) into named workloads so every recovery path is
//!   provable in tests, mirroring how the paper characterizes behavior
//!   under controlled perturbation.
//! * [`NumericGuard`] aborts a workload whose losses or gradient norms go
//!   NaN/Inf or diverge, as a structured
//!   [`TensorError::NumericAnomaly`] instead of training garbage; the
//!   runner can retry once with gradient clipping enabled
//!   (see [`gnnmark_autograd::optim::set_thread_grad_clip`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gnnmark_profiler::Table;
use gnnmark_telemetry::export::json_escape;
use gnnmark_tensor::TensorError;
use gnnmark_workloads::WorkloadKind;

use crate::cache::{CacheKey, StreamCache};
use crate::suite::{artifacts_from_replay, captured_run, panic_message, RunArtifacts, SuiteConfig};
use crate::Result;

/// Bounded retry policy for one workload. A workload's retries retrain
/// with `seed + attempt - 1`, so a seed-sensitive failure (bad
/// initialization draw) does not repeat verbatim.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = no retries).
    pub max_retries: usize,
    /// Backoff before retry `n` is `base · 2ⁿ⁻¹` (capped at 2 s).
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, attempt: usize) -> Duration {
        let factor = 1u32 << (attempt.saturating_sub(1)).min(5) as u32;
        (self.backoff_base * factor).min(Duration::from_secs(2))
    }
}

/// Configuration of the resilience layer around a suite run.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Per-workload wall-clock deadline (`None` = unbounded).
    pub timeout: Option<Duration>,
    /// Retry policy per workload.
    pub retry: RetryPolicy,
    /// When set, a workload failing with a numeric anomaly is retried one
    /// extra time with gradients clipped to this global L2 norm.
    pub grad_clip_fallback: Option<f64>,
    /// Replay-cache directory of finished runs (the CLI's `--checkpoint`):
    /// a workload whose stream is stored there for the current
    /// configuration is rebuilt from it instead of training again, and a
    /// workload that trains is captured and stored.
    pub checkpoint_dir: Option<PathBuf>,
    /// Run one worker thread per workload instead of serially.
    pub parallel: bool,
    /// Deterministic fault injection (tests and chaos drills).
    pub faults: FaultPlan,
}

impl ResilienceConfig {
    /// Sets the per-workload deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the retry budget (extra attempts after the first).
    #[must_use]
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retry.max_retries = retries;
        self
    }

    /// Sets the checkpoint directory.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// A deterministic fault to inject into a named workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Panic at the start of every attempt.
    Panic,
    /// Return a transient error on the first `failures` attempts, then
    /// succeed (exercises the retry path).
    TransientError {
        /// Number of leading attempts that fail.
        failures: usize,
    },
    /// Force the training loss to NaN at a given epoch on the first
    /// `failures` attempts (exercises the numeric guard and the clipped
    /// retry).
    NanLoss {
        /// Epoch (0-based) whose loss is replaced with NaN.
        epoch: usize,
        /// Number of leading attempts that inject (later attempts run
        /// clean, so retries can be observed to succeed).
        failures: usize,
    },
    /// Sleep this long at the start of every attempt (exercises the
    /// deadline path).
    Stall {
        /// Injected stall duration.
        duration: Duration,
    },
}

impl Fault {
    /// Applies the fault's start-of-attempt effect on the worker thread and
    /// returns the epoch whose loss this attempt must turn into NaN.
    fn apply(&self, kind: WorkloadKind, attempt: usize) -> Result<Option<usize>> {
        gnnmark_telemetry::mark("fault:injected", "resilience");
        match self {
            Fault::Panic => panic!("injected panic in {}", kind.label()),
            Fault::TransientError { failures } if attempt <= *failures => {
                Err(TensorError::InvalidArgument {
                    op: "fault_injection",
                    reason: format!("injected transient error (attempt {attempt})"),
                }
                .in_workload(kind.label()))
            }
            Fault::Stall { duration } => {
                std::thread::sleep(*duration);
                Ok(None)
            }
            Fault::NanLoss { epoch, failures } if attempt <= *failures => Ok(Some(*epoch)),
            _ => Ok(None),
        }
    }
}

/// Maps workload labels to injected faults.
///
/// The `GNNMARK_FAULT` environment hook (see [`FaultPlan::from_env`])
/// exposes the same injection to CLI-level tests:
///
/// ```text
/// GNNMARK_FAULT=panic:TLSTM            # panic every attempt
/// GNNMARK_FAULT=transient:TLSTM@2      # error on the first 2 attempts
/// GNNMARK_FAULT=nan:TLSTM@1            # NaN loss at epoch 1 (first attempt)
/// GNNMARK_FAULT=stall:TLSTM@750ms      # sleep 750 ms every attempt
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    by_workload: HashMap<String, Fault>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault for a workload label (e.g. `"TLSTM"`).
    #[must_use]
    pub fn inject(mut self, label: &str, fault: Fault) -> Self {
        self.by_workload.insert(label.to_string(), fault);
        self
    }

    /// Parses the `GNNMARK_FAULT` environment variable (see type docs);
    /// unset or malformed values yield an empty plan.
    pub fn from_env() -> Self {
        match std::env::var("GNNMARK_FAULT") {
            Ok(spec) => Self::parse(&spec).unwrap_or_default(),
            Err(_) => FaultPlan::default(),
        }
    }

    /// Parses a `kind:WORKLOAD[@param]` spec; `None` when malformed.
    pub fn parse(spec: &str) -> Option<Self> {
        let (kind, rest) = spec.split_once(':')?;
        let (label, param) = match rest.split_once('@') {
            Some((l, p)) => (l, Some(p)),
            None => (rest, None),
        };
        let fault = match kind {
            "panic" => Fault::Panic,
            "transient" => Fault::TransientError {
                failures: param.map_or(Some(1), |p| p.parse().ok())?,
            },
            "nan" => Fault::NanLoss {
                epoch: param.map_or(Some(0), |p| p.parse().ok())?,
                failures: 1,
            },
            "stall" => {
                let ms: u64 = param?.strip_suffix("ms")?.parse().ok()?;
                Fault::Stall {
                    duration: Duration::from_millis(ms),
                }
            }
            _ => return None,
        };
        Some(FaultPlan::default().inject(label, fault))
    }

    /// The fault registered for a workload label, if any. Public so other
    /// execution paths (e.g. the serve daemon's job workers) can honor
    /// the same plan outside `run_workload_resilient`.
    pub fn fault_for(&self, label: &str) -> Option<&Fault> {
        self.by_workload.get(label)
    }

    /// `true` when no faults are registered.
    pub fn is_empty(&self) -> bool {
        self.by_workload.is_empty()
    }
}

/// A loss beyond this many times the first epoch's magnitude has diverged.
const DIVERGENCE_FACTOR: f64 = 1e4;

/// Monitors a training run for numeric anomalies.
///
/// Flags NaN/Inf losses, NaN/Inf gradient norms, and divergence (a loss
/// exceeding `1e4 ×` the magnitude of the first epoch's loss), returning a
/// structured [`TensorError::NumericAnomaly`].
#[derive(Debug, Clone, Default)]
pub struct NumericGuard {
    first_loss: Option<f64>,
}

impl NumericGuard {
    /// Checks one epoch's mean loss.
    ///
    /// # Errors
    /// [`TensorError::NumericAnomaly`] on NaN/Inf or divergence.
    pub fn observe_loss(&mut self, epoch: usize, loss: f64) -> Result<()> {
        if !loss.is_finite() {
            return Err(TensorError::NumericAnomaly {
                what: "epoch loss",
                epoch,
                value: format!("{loss}"),
            });
        }
        match self.first_loss {
            None => self.first_loss = Some(loss),
            Some(first) => {
                let bound = DIVERGENCE_FACTOR * first.abs().max(1.0);
                if loss.abs() > bound {
                    return Err(TensorError::NumericAnomaly {
                        what: "epoch loss",
                        epoch,
                        value: format!("{loss} diverged beyond {bound:.3e}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks the post-epoch global gradient norm.
    ///
    /// # Errors
    /// [`TensorError::NumericAnomaly`] on NaN/Inf.
    pub fn observe_grad_norm(&self, epoch: usize, norm: f64) -> Result<()> {
        if !norm.is_finite() {
            return Err(TensorError::NumericAnomaly {
                what: "grad norm",
                epoch,
                value: format!("{norm}"),
            });
        }
        Ok(())
    }
}

/// Terminal state of one workload under the resilient runner.
#[derive(Debug)]
pub enum WorkloadStatus {
    /// Training finished; artifacts are attached.
    Completed(Box<RunArtifacts>),
    /// Not trained: the checkpoint directory held this configuration's
    /// captured run. Carries the artifacts rebuilt from it, which equal
    /// the ones the training would have produced.
    Restored(Box<RunArtifacts>),
    /// Every attempt failed with an error (workload-annotated).
    Failed {
        /// The final attempt's error.
        error: TensorError,
    },
    /// The final attempt exceeded the wall-clock deadline.
    TimedOut {
        /// The deadline that was exceeded.
        after: Duration,
    },
    /// The final attempt panicked (isolated on its worker thread).
    Panicked {
        /// The panic message.
        message: String,
    },
    /// Not attempted: a graceful shutdown (SIGINT/SIGTERM, see
    /// [`crate::shutdown`]) was requested before this workload started.
    /// Finished workloads keep their checkpoints; a resumed run picks up
    /// from here.
    Interrupted,
}

impl WorkloadStatus {
    /// Short machine-friendly label (`completed`/`restored`/…).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadStatus::Completed(_) => "completed",
            WorkloadStatus::Restored(_) => "restored",
            WorkloadStatus::Failed { .. } => "failed",
            WorkloadStatus::TimedOut { .. } => "timed_out",
            WorkloadStatus::Panicked { .. } => "panicked",
            WorkloadStatus::Interrupted => "interrupted",
        }
    }

    /// One-line human detail (empty for successful runs).
    pub fn detail(&self) -> String {
        match self {
            WorkloadStatus::Completed(_) => String::new(),
            WorkloadStatus::Restored(a) => {
                format!("from checkpoint ({} epochs)", a.losses.len())
            }
            WorkloadStatus::Failed { error } => error.to_string(),
            WorkloadStatus::TimedOut { after } => {
                format!("exceeded {:.3}s deadline", after.as_secs_f64())
            }
            WorkloadStatus::Panicked { message } => format!("panic: {message}"),
            WorkloadStatus::Interrupted => "skipped: shutdown requested".to_string(),
        }
    }
}

/// One attempt's timing and result, as recorded by the resilient runner.
///
/// Offsets are measured against the workload's first attempt, so the log
/// doubles as a retry timeline: gaps between `start_ms + dur_ms` of one
/// attempt and `start_ms` of the next are the backoff sleeps.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptEvent {
    /// 1-based attempt index.
    pub attempt: usize,
    /// Offset of this attempt's start from the first attempt, ms.
    pub start_ms: f64,
    /// Attempt duration, ms.
    pub dur_ms: f64,
    /// Result label: `ok` / `error` / `panicked` / `timed_out`.
    pub result: &'static str,
}

impl AttemptEvent {
    fn to_json(&self) -> String {
        format!(
            "{{\"attempt\":{},\"start_ms\":{:.3},\"dur_ms\":{:.3},\"result\":\"{}\"}}",
            self.attempt, self.start_ms, self.dur_ms, self.result,
        )
    }
}

/// Outcome of one workload: status plus attempt accounting.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Terminal status.
    pub status: WorkloadStatus,
    /// Attempts consumed (including the clipped fallback retry).
    pub attempts: usize,
    /// Wall-clock time spent across all attempts.
    pub wall: Duration,
    /// Per-attempt timeline (empty for restored-from-checkpoint outcomes).
    pub attempt_log: Vec<AttemptEvent>,
}

impl WorkloadOutcome {
    /// The artifacts, when training completed or was restored.
    pub fn artifacts(&self) -> Option<&RunArtifacts> {
        match &self.status {
            WorkloadStatus::Completed(a) | WorkloadStatus::Restored(a) => Some(a),
            _ => None,
        }
    }

    /// `true` for `Completed` or `Restored`.
    pub fn succeeded(&self) -> bool {
        self.artifacts().is_some()
    }
}

/// The always-produced result of a resilient suite run.
#[derive(Debug)]
pub struct SuiteReport {
    /// One outcome per workload, in [`WorkloadKind::ALL`] order.
    pub outcomes: Vec<WorkloadOutcome>,
}

impl SuiteReport {
    /// Artifacts of every workload that completed or was restored, with
    /// kinds.
    pub fn artifacts(&self) -> Vec<(&WorkloadKind, &RunArtifacts)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.artifacts().map(|a| (&o.kind, a)))
            .collect()
    }

    /// Workloads with no artifacts this run (failed, timed out, panicked
    /// or interrupted) — figures render these as `—` rows.
    pub fn missing(&self) -> Vec<WorkloadKind> {
        self.outcomes
            .iter()
            .filter(|o| o.artifacts().is_none())
            .map(|o| o.kind)
            .collect()
    }

    /// `true` when every workload completed or was restored.
    pub fn all_succeeded(&self) -> bool {
        self.outcomes.iter().all(WorkloadOutcome::succeeded)
    }

    /// The artifacts of every workload that completed or was restored, in
    /// [`WorkloadKind::ALL`] order. Unless `keep_going`, this is fail-fast:
    /// the first failed, timed-out or panicked workload is the `Err`.
    /// Interrupted workloads are neither runs nor failures.
    ///
    /// # Errors
    /// The first failure, annotated with its workload label, when
    /// `keep_going` is off.
    pub fn runs(&self, keep_going: bool) -> Result<Vec<RunArtifacts>> {
        if !keep_going {
            if let Some(error) = self.first_failure() {
                return Err(error);
            }
        }
        Ok(self
            .outcomes
            .iter()
            .filter_map(|o| o.artifacts().cloned())
            .collect())
    }

    /// The first non-successful outcome's error.
    fn first_failure(&self) -> Option<TensorError> {
        self.outcomes.iter().find_map(|o| match &o.status {
            WorkloadStatus::Failed { error } => Some(error.clone()),
            WorkloadStatus::TimedOut { after } => Some(
                TensorError::InvalidArgument {
                    op: "run_suite_resilient",
                    reason: format!("workload exceeded {:.3}s deadline", after.as_secs_f64()),
                }
                .in_workload(o.kind.label()),
            ),
            WorkloadStatus::Panicked { message } => Some(
                TensorError::InvalidArgument {
                    op: "run_suite_resilient",
                    reason: format!("worker panicked: {message}"),
                }
                .in_workload(o.kind.label()),
            ),
            _ => None,
        })
    }

    /// Per-workload status as a renderable table.
    pub fn status_table(&self) -> Table {
        let mut t = Table::new("Suite status — per-workload resilience report");
        t.header(["Workload", "Status", "Attempts", "Wall s", "Detail"]);
        for o in &self.outcomes {
            t.row([
                o.kind.label().to_string(),
                o.status.label().to_string(),
                o.attempts.to_string(),
                format!("{:.2}", o.wall.as_secs_f64()),
                o.status.detail(),
            ]);
        }
        t
    }

    /// Machine-readable status summary (stable JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workloads\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let log = o
                .attempt_log
                .iter()
                .map(AttemptEvent::to_json)
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"status\":\"{}\",\"attempts\":{},\"wall_ms\":{:.3},\
                 \"detail\":\"{}\",\"attempt_log\":[{}]}}",
                o.kind.label(),
                o.status.label(),
                o.attempts,
                o.wall.as_secs_f64() * 1e3,
                json_escape(&o.status.detail()),
                log,
            ));
        }
        out.push_str(&format!(
            "],\"completed\":{},\"restored\":{},\"failed\":{}}}",
            self.outcomes
                .iter()
                .filter(|o| matches!(o.status, WorkloadStatus::Completed(_)))
                .count(),
            self.outcomes
                .iter()
                .filter(|o| matches!(o.status, WorkloadStatus::Restored(_)))
                .count(),
            self.outcomes.iter().filter(|o| !o.succeeded()).count(),
        ));
        gnnmark_telemetry::export::debug_validated("SuiteReport::to_json", out)
    }

    /// Count of workloads skipped by a graceful-shutdown request.
    pub fn interrupted(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, WorkloadStatus::Interrupted))
            .count()
    }
}

/// Runs one workload to a terminal [`WorkloadStatus`] through
/// [`run_task_resilient`], which supplies the panic isolation, the
/// deadline, the retries and the clipped bonus retry. What is particular
/// to a workload lives in the task: the per-attempt seed perturbation, the
/// injected fault, and training under a [`NumericGuard`].
///
/// With [`ResilienceConfig::checkpoint_dir`] set, that directory is a
/// replay cache. A stored run of this configuration comes back
/// [`WorkloadStatus::Restored`] with 0 attempts, its artifacts replayed on
/// the device the training would have modeled. Otherwise every attempt
/// trains with capture on and stores its run under its own key, so a
/// seed-perturbed retry is never restored as the base seed's run. A store
/// that fails costs only a retrain next time.
///
/// Never panics and never blocks past `timeout × attempts`; a timed-out
/// worker thread is detached (it finishes in the background and its result
/// is discarded).
pub fn run_workload_resilient(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    rcfg: &ResilienceConfig,
) -> WorkloadOutcome {
    let started = Instant::now();
    let cache = rcfg.checkpoint_dir.as_ref().map(StreamCache::new);
    if let Some(run) = cache
        .as_ref()
        .and_then(|c| c.lookup(&CacheKey::for_training(kind, cfg)))
    {
        gnnmark_telemetry::mark("checkpoint:restored", "resilience");
        let art = artifacts_from_replay(&run, &cfg.modeled_device());
        return WorkloadOutcome {
            kind,
            status: WorkloadStatus::Restored(Box::new(art)),
            attempts: 0,
            wall: started.elapsed(),
            attempt_log: Vec::new(),
        };
    }
    let cfg = cfg.clone();
    let fault = rcfg.faults.fault_for(kind.label()).cloned();
    let outcome = run_task_resilient(
        kind.label(),
        rcfg,
        std::sync::Arc::new(move |attempt| {
            let mut cfg = cfg.clone();
            cfg.seed = cfg.seed.wrapping_add(attempt as u64 - 1);
            let nan_epoch = match &fault {
                Some(fault) => fault.apply(kind, attempt)?,
                None => None,
            };
            let guard = Some(NumericGuard::default());
            let (art, stream) = crate::suite::train(kind, &cfg, cache.is_some(), guard, nan_epoch)?;
            if let (Some(cache), Some(stream)) = (&cache, stream) {
                let run = captured_run(kind, &cfg, &art, stream);
                if cache
                    .store(&CacheKey::for_training(kind, &cfg), &run)
                    .is_ok()
                {
                    gnnmark_telemetry::mark("checkpoint:written", "resilience");
                }
            }
            Ok(art)
        }),
    );
    WorkloadOutcome {
        kind,
        status: match outcome.status {
            TaskStatus::Completed(art) => WorkloadStatus::Completed(Box::new(art)),
            TaskStatus::Failed { error } => WorkloadStatus::Failed { error },
            TaskStatus::TimedOut { after } => WorkloadStatus::TimedOut { after },
            TaskStatus::Panicked { message } => WorkloadStatus::Panicked { message },
        },
        attempts: outcome.attempts,
        wall: outcome.wall,
        attempt_log: outcome.attempt_log,
    }
}

/// Terminal state of a generic resilient task (see [`run_task_resilient`]).
#[derive(Debug)]
pub enum TaskStatus<T> {
    /// The task returned `Ok`.
    Completed(T),
    /// Every attempt failed with an error.
    Failed {
        /// The final attempt's error.
        error: TensorError,
    },
    /// The final attempt exceeded the wall-clock deadline.
    TimedOut {
        /// The deadline that was exceeded.
        after: Duration,
    },
    /// The final attempt panicked (isolated on its worker thread).
    Panicked {
        /// The panic message.
        message: String,
    },
}

/// Outcome of a generic resilient task: status plus attempt accounting.
#[derive(Debug)]
pub struct TaskOutcome<T> {
    /// Terminal status.
    pub status: TaskStatus<T>,
    /// Attempts consumed.
    pub attempts: usize,
    /// Wall-clock time across all attempts (including backoff sleeps).
    pub wall: Duration,
    /// Per-attempt timeline.
    pub(crate) attempt_log: Vec<AttemptEvent>,
}

impl<T> TaskOutcome<T> {
    /// The value, when the task completed.
    pub fn value(self) -> Option<T> {
        match self.status {
            TaskStatus::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// One-line failure description (`None` when completed).
    pub fn failure(&self) -> Option<String> {
        match &self.status {
            TaskStatus::Completed(_) => None,
            TaskStatus::Failed { error } => Some(error.to_string()),
            TaskStatus::TimedOut { after } => {
                Some(format!("exceeded {:.3}s deadline", after.as_secs_f64()))
            }
            TaskStatus::Panicked { message } => Some(format!("panic: {message}")),
        }
    }
}

/// The one attempt runner: runs a fallible task on a dedicated worker
/// thread per attempt with panic isolation, an optional wall-clock
/// deadline, and bounded retries with exponential backoff. The closure
/// receives the 1-based attempt index. A task failing with a numeric
/// anomaly while [`ResilienceConfig::grad_clip_fallback`] is set earns one
/// bonus retry, and that and every later attempt run with gradients
/// clipped (see [`gnnmark_autograd::set_thread_grad_clip`]): divergence is
/// the failure clipping exists to fix. [`run_workload_resilient`] and the
/// `gnnmark-serve` campaign engine's per-job retries both run here.
///
/// A timed-out worker thread is detached — it finishes in the background
/// and its result is discarded.
pub fn run_task_resilient<T: Send + 'static>(
    name: &str,
    rcfg: &ResilienceConfig,
    task: std::sync::Arc<dyn Fn(usize) -> Result<T> + Send + Sync>,
) -> TaskOutcome<T> {
    let started = Instant::now();
    let max_attempts = rcfg.retry.max_retries + 1;
    let mut attempts = 0;
    let mut clip = None; // the fallback norm, once an anomaly has earned it
    let mut attempt_log = Vec::new();
    loop {
        attempts += 1;
        let attempt = attempts;
        let attempt_t0 = started.elapsed();
        let span =
            gnnmark_telemetry::Span::enter_cat(format!("attempt:{name}#{attempt}"), "resilience");
        let t = std::sync::Arc::clone(&task);
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name(format!("gnnmark-task-{name}"))
            .spawn(move || {
                if clip.is_some() {
                    gnnmark_autograd::set_thread_grad_clip(clip);
                }
                // The receiver may have timed out and gone away; fine.
                let _ = tx.send(catch_unwind(AssertUnwindSafe(|| t(attempt))));
            });
        let received = match (spawned, rcfg.timeout) {
            (Err(_), _) => Some(Err("failed to spawn worker thread".to_string())),
            (Ok(_), Some(deadline)) => rx.recv_timeout(deadline).ok().map(attempt_result),
            (Ok(_), None) => Some(
                rx.recv()
                    .map_or_else(|_| Err("worker vanished".to_string()), attempt_result),
            ),
        };
        drop(span);
        let (status, result) = match received {
            Some(Ok(Ok(value))) => (TaskStatus::Completed(value), "ok"),
            Some(Ok(Err(error))) => (TaskStatus::Failed { error }, "error"),
            Some(Err(message)) => (TaskStatus::Panicked { message }, "panicked"),
            None => {
                gnnmark_telemetry::mark("timeout", "resilience");
                let after = rcfg.timeout.unwrap_or_default();
                (TaskStatus::TimedOut { after }, "timed_out")
            }
        };
        attempt_log.push(AttemptEvent {
            attempt,
            start_ms: attempt_t0.as_secs_f64() * 1e3,
            dur_ms: (started.elapsed() - attempt_t0).as_secs_f64() * 1e3,
            result,
        });
        let retry = match &status {
            TaskStatus::Completed(_) => None,
            TaskStatus::Failed { error }
                if clip.is_none()
                    && rcfg.grad_clip_fallback.is_some()
                    && matches!(error.root_cause(), TensorError::NumericAnomaly { .. }) =>
            {
                // One bonus retry with clipping, outside the retry budget.
                clip = rcfg.grad_clip_fallback;
                Some("retry:clipped")
            }
            _ if attempts >= max_attempts => {
                gnnmark_telemetry::metrics::counter_add("gnnmark_resilience_failures_total", 1);
                None
            }
            _ => Some("retry:scheduled"),
        };
        let Some(retry) = retry else {
            return TaskOutcome {
                status,
                attempts,
                wall: started.elapsed(),
                attempt_log,
            };
        };
        gnnmark_telemetry::mark(retry, "resilience");
        gnnmark_telemetry::metrics::counter_add("gnnmark_resilience_retries_total", 1);
        std::thread::sleep(rcfg.retry.backoff(attempts));
    }
}

/// What the worker thread sent: the task's own result, or its panic
/// message.
fn attempt_result<T>(
    sent: std::thread::Result<Result<T>>,
) -> std::result::Result<Result<T>, String> {
    sent.map_err(|payload| panic_message(payload.as_ref()))
}

/// Runs the full suite under the resilience layer; always returns a
/// complete [`SuiteReport`] (one outcome per workload, in
/// [`WorkloadKind::ALL`] order). Once a graceful shutdown is requested,
/// workloads not yet started are [`WorkloadStatus::Interrupted`]; with a
/// checkpoint directory, a rerun restores the finished ones (see
/// [`run_workload_resilient`]).
pub fn run_suite_resilient(cfg: &SuiteConfig, rcfg: &ResilienceConfig) -> SuiteReport {
    let run_one = |kind: WorkloadKind| -> WorkloadOutcome {
        if crate::shutdown::requested() {
            gnnmark_telemetry::mark("shutdown:workload-skipped", "resilience");
            return WorkloadOutcome {
                kind,
                status: WorkloadStatus::Interrupted,
                attempts: 0,
                wall: Duration::ZERO,
                attempt_log: Vec::new(),
            };
        }
        run_workload_resilient(kind, cfg, rcfg)
    };
    let outcomes: Vec<WorkloadOutcome> = if rcfg.parallel {
        let run_one = &run_one;
        std::thread::scope(|scope| {
            let handles: Vec<_> = WorkloadKind::ALL
                .iter()
                .map(|&kind| scope.spawn(move || run_one(kind)))
                .collect();
            WorkloadKind::ALL
                .iter()
                .zip(handles)
                .map(|(&kind, h)| {
                    h.join().unwrap_or_else(|payload| WorkloadOutcome {
                        kind,
                        status: WorkloadStatus::Panicked {
                            message: panic_message(payload.as_ref()),
                        },
                        attempts: 1,
                        wall: Duration::ZERO,
                        attempt_log: Vec::new(),
                    })
                })
                .collect()
        })
    } else {
        WorkloadKind::ALL.iter().map(|&k| run_one(k)).collect()
    };
    SuiteReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;

    fn fast_rcfg() -> ResilienceConfig {
        let mut r = ResilienceConfig::default();
        r.retry.backoff_base = Duration::ZERO;
        r
    }

    #[test]
    fn completes_without_faults() {
        let cfg = SuiteConfig::test();
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &fast_rcfg());
        assert!(matches!(o.status, WorkloadStatus::Completed(_)));
        assert_eq!(o.attempts, 1);
        assert_eq!(o.artifacts().unwrap().losses.len(), cfg.epochs);
    }

    #[test]
    fn injected_panic_is_isolated() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg().with_faults(FaultPlan::none().inject("TLSTM", Fault::Panic));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        match &o.status {
            WorkloadStatus::Panicked { message } => {
                assert!(message.contains("injected panic"), "{message}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn transient_error_is_retried_to_success() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_retries(2)
            .with_faults(FaultPlan::none().inject("TLSTM", Fault::TransientError { failures: 2 }));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(
            matches!(o.status, WorkloadStatus::Completed(_)),
            "{:?}",
            o.status
        );
        assert_eq!(o.attempts, 3);
    }

    #[test]
    fn transient_error_exhausts_bounded_retries() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_retries(1)
            .with_faults(FaultPlan::none().inject("TLSTM", Fault::TransientError { failures: 5 }));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        match &o.status {
            WorkloadStatus::Failed { error } => {
                let s = error.to_string();
                assert!(s.starts_with("TLSTM: "), "{s}");
                assert!(s.contains("transient"), "{s}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(o.attempts, 2);
    }

    #[test]
    fn nan_loss_trips_the_numeric_guard() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg().with_faults(FaultPlan::none().inject(
            "TLSTM",
            Fault::NanLoss {
                epoch: 0,
                failures: usize::MAX,
            },
        ));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        match &o.status {
            WorkloadStatus::Failed { error } => {
                assert!(
                    matches!(error.root_cause(), TensorError::NumericAnomaly { .. }),
                    "{error}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn clip_fallback_rescues_a_diverged_workload() {
        let cfg = SuiteConfig::test();
        let rcfg = ResilienceConfig {
            grad_clip_fallback: Some(1.0),
            ..fast_rcfg()
        }
        .with_faults(FaultPlan::none().inject(
            "TLSTM",
            Fault::NanLoss {
                epoch: 0,
                failures: 1,
            },
        ));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(
            matches!(o.status, WorkloadStatus::Completed(_)),
            "{:?}",
            o.status
        );
        assert_eq!(o.attempts, 2, "one clean attempt after the clipped retry");
    }

    #[test]
    fn stall_exceeds_deadline_and_times_out() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_timeout(Duration::from_millis(40))
            .with_faults(FaultPlan::none().inject(
                "TLSTM",
                Fault::Stall {
                    duration: Duration::from_millis(400),
                },
            ));
        let started = Instant::now();
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(
            matches!(o.status, WorkloadStatus::TimedOut { .. }),
            "{:?}",
            o.status
        );
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "did not detach"
        );
    }

    #[test]
    fn numeric_guard_flags_nan_inf_and_divergence() {
        let mut g = NumericGuard::default();
        assert!(g.observe_loss(0, 1.0).is_ok());
        assert!(g.observe_loss(1, f64::NAN).is_err());
        assert!(g.observe_loss(1, f64::INFINITY).is_err());
        assert!(g.observe_loss(1, 2.0).is_ok());
        assert!(g.observe_loss(2, 1e9).is_err(), "diverged loss accepted");
        assert!(g.observe_grad_norm(0, 5.0).is_ok());
        assert!(g.observe_grad_norm(0, f64::NAN).is_err());
        // The bound is 1e4 times the first loss's magnitude.
        let mut scaled = NumericGuard::default();
        assert!(scaled.observe_loss(0, -3.0).is_ok());
        assert!(scaled.observe_loss(1, 2.9e4).is_ok());
        assert!(scaled.observe_loss(2, -3.1e4).is_err());
    }

    #[test]
    fn fault_plan_env_grammar() {
        let p = FaultPlan::parse("panic:TLSTM").unwrap();
        assert_eq!(p.fault_for("TLSTM"), Some(&Fault::Panic));
        let p = FaultPlan::parse("transient:GW@3").unwrap();
        assert_eq!(
            p.fault_for("GW"),
            Some(&Fault::TransientError { failures: 3 })
        );
        let p = FaultPlan::parse("nan:DGCN@2").unwrap();
        assert_eq!(
            p.fault_for("DGCN"),
            Some(&Fault::NanLoss {
                epoch: 2,
                failures: 1
            })
        );
        let p = FaultPlan::parse("stall:ARGA@250ms").unwrap();
        assert_eq!(
            p.fault_for("ARGA"),
            Some(&Fault::Stall {
                duration: Duration::from_millis(250)
            })
        );
        assert!(FaultPlan::parse("bogus:TLSTM").is_none());
        assert!(FaultPlan::parse("no-colon").is_none());
        assert!(FaultPlan::parse("stall:X@raisins").is_none());
    }

    #[test]
    fn resilient_run_applies_the_configured_thread_count() {
        let prev = gnnmark_tensor::par::threads();
        gnnmark_tensor::par::set_threads(3);
        let cfg = SuiteConfig::test().with_threads(1);
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &fast_rcfg());
        assert!(
            matches!(o.status, WorkloadStatus::Completed(_)),
            "{:?}",
            o.status
        );
        let threads = gnnmark_tensor::par::threads();
        gnnmark_tensor::par::set_threads(prev);
        assert_eq!(threads, 1);
    }

    #[test]
    fn suite_report_json_and_tables() {
        let cfg = SuiteConfig::test();
        let art = crate::suite::run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        let report = SuiteReport {
            outcomes: vec![
                WorkloadOutcome {
                    kind: WorkloadKind::Tlstm,
                    status: WorkloadStatus::Completed(Box::new(art)),
                    attempts: 1,
                    wall: Duration::from_millis(10),
                    attempt_log: vec![AttemptEvent {
                        attempt: 1,
                        start_ms: 0.0,
                        dur_ms: 10.0,
                        result: "ok",
                    }],
                },
                WorkloadOutcome {
                    kind: WorkloadKind::Gw,
                    status: WorkloadStatus::Panicked {
                        message: "boom".to_string(),
                    },
                    attempts: 2,
                    wall: Duration::from_millis(20),
                    attempt_log: Vec::new(),
                },
            ],
        };
        assert!(!report.all_succeeded());
        assert_eq!(report.missing(), vec![WorkloadKind::Gw]);
        assert_eq!(report.artifacts().len(), 1);
        let json = report.to_json();
        assert!(json.contains("\"workload\":\"TLSTM\""), "{json}");
        assert!(json.contains("\"status\":\"panicked\""), "{json}");
        assert!(json.contains("\"completed\":1"), "{json}");
        assert!(json.contains("\"failed\":1"), "{json}");
        let table = report.status_table().to_string();
        assert!(table.contains("TLSTM") && table.contains("boom"), "{table}");
        assert_eq!(report.runs(true).unwrap().len(), 1);
        let err = report.runs(false).expect_err("has a failure");
        assert!(err.to_string().starts_with("GW: "), "{err}");
    }

    #[test]
    fn attempt_log_pins_retry_timeline_fields() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_retries(2)
            .with_faults(FaultPlan::none().inject("TLSTM", Fault::TransientError { failures: 1 }));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(
            matches!(o.status, WorkloadStatus::Completed(_)),
            "{:?}",
            o.status
        );
        assert_eq!(o.attempt_log.len(), 2, "{:?}", o.attempt_log);
        let first = &o.attempt_log[0];
        let second = &o.attempt_log[1];
        assert_eq!((first.attempt, first.result), (1, "error"));
        assert_eq!((second.attempt, second.result), (2, "ok"));
        // The timeline is monotone and bounded by the measured wall time.
        assert!(second.start_ms >= first.start_ms + first.dur_ms);
        let wall_ms = o.wall.as_secs_f64() * 1e3;
        assert!(second.start_ms + second.dur_ms <= wall_ms + 1.0);
        // JSON carries the log with its pinned field names.
        let report = SuiteReport { outcomes: vec![o] };
        let json = report.to_json();
        for field in [
            "\"attempt_log\":[",
            "\"attempt\":1",
            "\"start_ms\":",
            "\"dur_ms\":",
            "\"result\":\"error\"",
            "\"result\":\"ok\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        gnnmark_telemetry::export::validate_json(&json).expect("report JSON is valid");
    }

    #[test]
    fn checkpoint_save_load_respects_fingerprint() {
        let dir = std::env::temp_dir().join(format!("gnnmark_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg().with_checkpoint_dir(&dir);
        let live = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(matches!(live.status, WorkloadStatus::Completed(_)));
        let entry =
            StreamCache::new(&dir).path_for(&CacheKey::for_training(WorkloadKind::Tlstm, &cfg));
        assert!(entry.exists(), "a trained run is stored under its key");
        let again = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(matches!(again.status, WorkloadStatus::Restored(_)));
        assert_eq!(again.attempts, 0);
        assert_eq!(
            again.artifacts().unwrap().losses,
            live.artifacts().unwrap().losses
        );
        // A different seed invalidates the checkpoint.
        let other = SuiteConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let o = run_workload_resilient(WorkloadKind::Tlstm, &other, &rcfg);
        assert!(matches!(o.status, WorkloadStatus::Completed(_)));
        // A corrupted entry is treated as absent.
        std::fs::write(&entry, "garbage").unwrap();
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(matches!(o.status, WorkloadStatus::Completed(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_retried_run_is_stored_under_its_own_seed() {
        let dir = std::env::temp_dir().join(format!("gnnmark_ckpt_retry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_retries(1)
            .with_checkpoint_dir(&dir)
            .with_faults(FaultPlan::none().inject("TLSTM", Fault::TransientError { failures: 1 }));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert_eq!(o.attempts, 2, "{:?}", o.status);
        let cache = StreamCache::new(&dir);
        let retried = SuiteConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert!(!cache
            .path_for(&CacheKey::for_training(WorkloadKind::Tlstm, &cfg))
            .exists());
        assert!(cache
            .path_for(&CacheKey::for_training(WorkloadKind::Tlstm, &retried))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generic_task_retries_then_succeeds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let mut rcfg = fast_rcfg().with_retries(2);
        rcfg.retry.backoff_base = Duration::ZERO;
        let task: Arc<dyn Fn(usize) -> Result<u32> + Send + Sync> = Arc::new(move |attempt| {
            calls2.fetch_add(1, Ordering::SeqCst);
            if attempt < 3 {
                Err(TensorError::InvalidArgument {
                    op: "test_task",
                    reason: format!("transient (attempt {attempt})"),
                })
            } else {
                Ok(7)
            }
        });
        let o = run_task_resilient("test", &rcfg, task);
        assert!(
            matches!(o.status, TaskStatus::Completed(7)),
            "{:?}",
            o.status
        );
        assert_eq!(o.attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert!(o.failure().is_none());
    }

    #[test]
    fn generic_task_isolates_panics_and_deadlines() {
        use std::sync::Arc;
        let rcfg = fast_rcfg();
        let panicker: Arc<dyn Fn(usize) -> Result<u32> + Send + Sync> =
            Arc::new(|_| panic!("task exploded"));
        let o = run_task_resilient("panicker", &rcfg, panicker);
        assert!(
            matches!(o.status, TaskStatus::Panicked { .. }),
            "{:?}",
            o.status
        );
        assert!(o.failure().unwrap().contains("task exploded"));

        let rcfg = fast_rcfg().with_timeout(Duration::from_millis(20));
        let staller: Arc<dyn Fn(usize) -> Result<u32> + Send + Sync> = Arc::new(|_| {
            std::thread::sleep(Duration::from_secs(5));
            Ok(0)
        });
        let o = run_task_resilient("staller", &rcfg, staller);
        assert!(
            matches!(o.status, TaskStatus::TimedOut { .. }),
            "{:?}",
            o.status
        );
        assert!(o.failure().unwrap().contains("deadline"));
    }

    #[test]
    fn shutdown_request_interrupts_remaining_workloads() {
        // With shutdown already requested, every workload is skipped as
        // Interrupted and nothing trains.
        crate::shutdown::request();
        let report = run_suite_resilient(&SuiteConfig::test(), &fast_rcfg());
        crate::shutdown::reset_for_tests();
        assert_eq!(report.interrupted(), WorkloadKind::ALL.len());
        assert!(!report.all_succeeded());
        let o = &report.outcomes[0];
        assert!(matches!(o.status, WorkloadStatus::Interrupted));
        assert_eq!(o.status.label(), "interrupted");
        assert!(o.status.detail().contains("shutdown"));
        assert_eq!(o.attempts, 0);
        gnnmark_telemetry::export::validate_json(&report.to_json()).unwrap();
    }

    #[test]
    fn device_spec_is_cloneable_for_attempts() {
        // Attempt threads move a cloned SuiteConfig; make sure the device
        // spec stays equal across the clone (guards accidental `Copy`
        // regressions in gpusim).
        let cfg = SuiteConfig::test();
        let c2 = cfg.clone();
        assert_eq!(cfg.device.elem_bytes, c2.device.elem_bytes);
        let _ = DeviceSpec::v100();
    }
}
