//! Resilient suite execution: fault isolation, deadlines, retries,
//! numeric-anomaly guards, deterministic fault injection, and
//! checkpoint/resume.
//!
//! [`crate::suite::run_suite`] propagates the first failure, which is the
//! right default for unit tests but wrong for a multi-hour characterization
//! run: one diverging workload must not discard eight finished ones. The
//! entry points here never abort the suite:
//!
//! * [`run_workload_resilient`] executes one workload on a dedicated worker
//!   thread under `catch_unwind`, an optional wall-clock deadline, and a
//!   bounded retry policy with exponential backoff and per-attempt seed
//!   perturbation, classifying the result as a [`WorkloadStatus`].
//! * [`run_suite_resilient`] drives every workload (serially or one thread
//!   per workload), checkpoints completed runs as JSON summaries, skips
//!   workloads a previous interrupted run already finished, and returns a
//!   [`SuiteReport`] carrying per-workload status plus whatever artifacts
//!   succeeded — figure rendering then degrades gracefully instead of
//!   silently dropping rows.
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

use gnnmark_profiler::{ProfileSession, Table};
use gnnmark_tensor::TensorError;
use gnnmark_workloads::{Scale, WorkloadKind};

use crate::suite::{panic_message, RunArtifacts, SuiteConfig};
use crate::Result;

/// Bounded retry policy for one workload.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = no retries).
    pub max_retries: usize,
    /// Backoff before retry `n` is `base · 2ⁿ⁻¹` (capped at 2 s).
    pub backoff_base: Duration,
    /// Retrain retries with `seed + attempt - 1`, so a seed-sensitive
    /// failure (bad initialization draw) does not repeat verbatim.
    pub perturb_seed: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: Duration::from_millis(50),
            perturb_seed: true,
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
    /// Directory for completed-run summaries; reruns skip workloads whose
    /// checkpoint matches the current configuration.
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

    /// Enables the gradient-clipping fallback for diverged workloads.
    #[must_use]
    pub fn with_grad_clip_fallback(mut self, max_norm: f64) -> Self {
        self.grad_clip_fallback = Some(max_norm);
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

    fn get(&self, label: &str) -> Option<&Fault> {
        self.fault_for(label)
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

/// Monitors a training run for numeric anomalies.
///
/// Flags NaN/Inf losses, NaN/Inf gradient norms, and divergence (a loss
/// exceeding `divergence_factor ×` the magnitude of the first epoch's
/// loss), returning a structured [`TensorError::NumericAnomaly`].
#[derive(Debug, Clone)]
pub struct NumericGuard {
    first_loss: Option<f64>,
    divergence_factor: f64,
}

impl Default for NumericGuard {
    fn default() -> Self {
        NumericGuard {
            first_loss: None,
            divergence_factor: 1e4,
        }
    }
}

impl NumericGuard {
    /// A guard with a custom divergence factor.
    pub fn with_divergence_factor(factor: f64) -> Self {
        NumericGuard {
            first_loss: None,
            divergence_factor: factor,
        }
    }

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
                let bound = self.divergence_factor * first.abs().max(1.0);
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
    /// Skipped: a checkpoint from a previous run matched this
    /// configuration. Carries the checkpointed summary (no profile, so
    /// figures needing one render this workload as a `—` row).
    Restored(RunSummary),
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
            WorkloadStatus::Restored(s) => format!("from checkpoint ({} epochs)", s.epochs),
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
            "{{\"attempt\":{},\"start_ms\":{:.3},\"dur_ms\":{:.3},\"result\":{}}}",
            self.attempt,
            self.start_ms,
            self.dur_ms,
            json_string(self.result),
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
    /// The artifacts, when training completed in this run.
    pub fn artifacts(&self) -> Option<&RunArtifacts> {
        match &self.status {
            WorkloadStatus::Completed(a) => Some(a),
            _ => None,
        }
    }

    /// `true` for `Completed` or `Restored`.
    pub fn succeeded(&self) -> bool {
        matches!(
            self.status,
            WorkloadStatus::Completed(_) | WorkloadStatus::Restored(_)
        )
    }
}

/// The always-produced result of a resilient suite run.
#[derive(Debug)]
pub struct SuiteReport {
    /// One outcome per workload, in [`WorkloadKind::ALL`] order.
    pub outcomes: Vec<WorkloadOutcome>,
}

impl SuiteReport {
    /// Artifacts of every workload that completed in this run, with kinds.
    pub fn artifacts(&self) -> Vec<(&WorkloadKind, &RunArtifacts)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.artifacts().map(|a| (&o.kind, a)))
            .collect()
    }

    /// Workloads with no artifacts this run (failed, timed out, panicked,
    /// or restored from checkpoint) — figures render these as `—` rows.
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

    /// The first non-successful outcome's error, for callers that want
    /// fail-fast semantics (`--keep-going` off).
    pub fn first_failure(&self) -> Option<TensorError> {
        self.outcomes.iter().find_map(|o| match &o.status {
            WorkloadStatus::Failed { error } => Some(error.clone()),
            WorkloadStatus::TimedOut { after } => Some(
                TensorError::InvalidArgument {
                    op: "run_suite_resilient",
                    reason: format!(
                        "workload exceeded {:.3}s deadline",
                        after.as_secs_f64()
                    ),
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
                "{{\"workload\":{},\"status\":{},\"attempts\":{},\"wall_ms\":{:.3},\
                 \"detail\":{},\"attempt_log\":[{}]}}",
                json_string(o.kind.label()),
                json_string(o.status.label()),
                o.attempts,
                o.wall.as_secs_f64() * 1e3,
                json_string(&o.status.detail()),
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

/// What one attempt on the worker thread produced.
enum AttemptOutcome {
    Done(Box<Result<RunArtifacts>>),
    Panicked(String),
    TimedOut,
}

/// Runs one workload to a terminal [`WorkloadStatus`]: panic isolation,
/// optional deadline, bounded retries with exponential backoff and seed
/// perturbation, and one extra clipped retry after a numeric anomaly when
/// [`ResilienceConfig::grad_clip_fallback`] is set.
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
    let max_attempts = rcfg.retry.max_retries + 1;
    let mut attempts = 0;
    let mut clip_retry_spent = false;
    let mut attempt_log: Vec<AttemptEvent> = Vec::new();
    let log_attempt = |attempts: usize, t0: Duration, result: &'static str| AttemptEvent {
        attempt: attempts,
        start_ms: t0.as_secs_f64() * 1e3,
        dur_ms: (started.elapsed() - t0).as_secs_f64() * 1e3,
        result,
    };
    loop {
        attempts += 1;
        let clip = clip_retry_spent; // set on the attempt *after* an anomaly
        let attempt_t0 = started.elapsed();
        let span = gnnmark_telemetry::Span::enter_cat(
            format!("attempt:{}#{}", kind.label(), attempts),
            "resilience",
        );
        let outcome = run_attempt(kind, cfg, rcfg, attempts, clip);
        drop(span);
        let status = match outcome {
            AttemptOutcome::Done(res) => match *res {
                Ok(art) => {
                    attempt_log.push(log_attempt(attempts, attempt_t0, "ok"));
                    return WorkloadOutcome {
                        kind,
                        status: WorkloadStatus::Completed(Box::new(art)),
                        attempts,
                        wall: started.elapsed(),
                        attempt_log,
                    };
                }
                Err(error) => {
                    attempt_log.push(log_attempt(attempts, attempt_t0, "error"));
                    let is_numeric =
                        matches!(error.root_cause(), TensorError::NumericAnomaly { .. });
                    if is_numeric && rcfg.grad_clip_fallback.is_some() && !clip_retry_spent {
                        // One bonus retry with clipping, outside the normal
                        // retry budget: divergence is the failure clipping
                        // exists to fix.
                        clip_retry_spent = true;
                        gnnmark_telemetry::mark("retry:clipped", "resilience");
                        gnnmark_telemetry::metrics::counter_add(
                            "gnnmark_resilience_retries_total",
                            1,
                        );
                        std::thread::sleep(rcfg.retry.backoff(attempts));
                        continue;
                    }
                    WorkloadStatus::Failed { error }
                }
            },
            AttemptOutcome::Panicked(message) => {
                attempt_log.push(log_attempt(attempts, attempt_t0, "panicked"));
                WorkloadStatus::Panicked { message }
            }
            AttemptOutcome::TimedOut => {
                attempt_log.push(log_attempt(attempts, attempt_t0, "timed_out"));
                gnnmark_telemetry::mark("timeout", "resilience");
                WorkloadStatus::TimedOut {
                    after: rcfg.timeout.unwrap_or_default(),
                }
            }
        };
        if attempts >= max_attempts {
            gnnmark_telemetry::metrics::counter_add("gnnmark_resilience_failures_total", 1);
            return WorkloadOutcome {
                kind,
                status,
                attempts,
                wall: started.elapsed(),
                attempt_log,
            };
        }
        gnnmark_telemetry::mark("retry:scheduled", "resilience");
        gnnmark_telemetry::metrics::counter_add("gnnmark_resilience_retries_total", 1);
        std::thread::sleep(rcfg.retry.backoff(attempts));
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
            TaskStatus::TimedOut { after } => Some(format!(
                "exceeded {:.3}s deadline",
                after.as_secs_f64()
            )),
            TaskStatus::Panicked { message } => Some(format!("panic: {message}")),
        }
    }
}

enum TaskAttempt<T> {
    Done(Box<Result<T>>),
    Panicked(String),
    TimedOut,
}

/// Runs an arbitrary fallible task under the same resilience machinery as
/// [`run_workload_resilient`]: a dedicated worker thread per attempt with
/// panic isolation, an optional wall-clock deadline, and bounded retries
/// with exponential backoff. The closure receives the 1-based attempt
/// index. Used by the `gnnmark-serve` campaign engine for per-job
/// retries/timeouts.
///
/// A timed-out worker thread is detached — it finishes in the background
/// and its result is discarded, exactly like a timed-out workload attempt.
pub fn run_task_resilient<T: Send + 'static>(
    name: &str,
    rcfg: &ResilienceConfig,
    task: std::sync::Arc<dyn Fn(usize) -> Result<T> + Send + Sync>,
) -> TaskOutcome<T> {
    let started = Instant::now();
    let max_attempts = rcfg.retry.max_retries + 1;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let attempt = attempts;
        let t = std::sync::Arc::clone(&task);
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name(format!("gnnmark-task-{name}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| t(attempt)));
                let msg = match result {
                    Ok(run) => TaskAttempt::Done(Box::new(run)),
                    Err(payload) => TaskAttempt::Panicked(panic_message(payload.as_ref())),
                };
                // The receiver may have timed out and gone away; fine.
                let _ = tx.send(msg);
            });
        let outcome = if spawned.is_err() {
            TaskAttempt::Panicked("failed to spawn worker thread".to_string())
        } else {
            match rcfg.timeout {
                Some(deadline) => rx.recv_timeout(deadline).unwrap_or(TaskAttempt::TimedOut),
                None => rx
                    .recv()
                    .unwrap_or_else(|_| TaskAttempt::Panicked("worker vanished".to_string())),
            }
        };
        let status = match outcome {
            TaskAttempt::Done(res) => match *res {
                Ok(value) => {
                    return TaskOutcome {
                        status: TaskStatus::Completed(value),
                        attempts,
                        wall: started.elapsed(),
                    };
                }
                Err(error) => TaskStatus::Failed { error },
            },
            TaskAttempt::Panicked(message) => TaskStatus::Panicked { message },
            TaskAttempt::TimedOut => TaskStatus::TimedOut {
                after: rcfg.timeout.unwrap_or_default(),
            },
        };
        if attempts >= max_attempts {
            gnnmark_telemetry::metrics::counter_add("gnnmark_resilience_failures_total", 1);
            return TaskOutcome {
                status,
                attempts,
                wall: started.elapsed(),
            };
        }
        gnnmark_telemetry::mark("retry:scheduled", "resilience");
        gnnmark_telemetry::metrics::counter_add("gnnmark_resilience_retries_total", 1);
        std::thread::sleep(rcfg.retry.backoff(attempts));
    }
}

/// One isolated attempt on a dedicated worker thread.
fn run_attempt(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    rcfg: &ResilienceConfig,
    attempt: usize,
    clip: bool,
) -> AttemptOutcome {
    let mut attempt_cfg = cfg.clone();
    if rcfg.retry.perturb_seed && attempt > 1 {
        attempt_cfg.seed = cfg.seed.wrapping_add(attempt as u64 - 1);
    }
    let fault = rcfg.faults.get(kind.label()).cloned();
    let clip_norm = rcfg.grad_clip_fallback;
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(format!("gnnmark-{}", kind.label()))
        .spawn(move || {
            if clip {
                if let Some(norm) = clip_norm {
                    gnnmark_autograd::set_thread_grad_clip(Some(norm));
                }
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                train_guarded(kind, &attempt_cfg, fault.as_ref(), attempt)
            }));
            let msg = match result {
                Ok(run) => AttemptOutcome::Done(Box::new(run)),
                Err(payload) => AttemptOutcome::Panicked(panic_message(payload.as_ref())),
            };
            // The receiver may have timed out and gone away; that is fine.
            let _ = tx.send(msg);
        });
    let Ok(_handle) = spawned else {
        return AttemptOutcome::Panicked("failed to spawn worker thread".to_string());
    };
    match rcfg.timeout {
        Some(deadline) => rx.recv_timeout(deadline).unwrap_or(AttemptOutcome::TimedOut),
        None => rx
            .recv()
            .unwrap_or_else(|_| AttemptOutcome::Panicked("worker vanished".to_string())),
    }
}

/// The guarded training loop: runs epochs under the numeric guard, applying
/// any injected fault deterministically.
fn train_guarded(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    fault: Option<&Fault>,
    attempt: usize,
) -> Result<RunArtifacts> {
    train_guarded_inner(kind, cfg, fault, attempt).map_err(|e| e.in_workload(kind.label()))
}

fn train_guarded_inner(
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    fault: Option<&Fault>,
    attempt: usize,
) -> Result<RunArtifacts> {
    if fault.is_some() {
        gnnmark_telemetry::mark("fault:injected", "resilience");
    }
    match fault {
        Some(Fault::Panic) => panic!("injected panic in {}", kind.label()),
        Some(Fault::TransientError { failures }) if attempt <= *failures => {
            return Err(TensorError::InvalidArgument {
                op: "fault_injection",
                reason: format!("injected transient error (attempt {attempt})"),
            });
        }
        Some(Fault::Stall { duration }) => std::thread::sleep(*duration),
        _ => {}
    }
    let _wl = gnnmark_telemetry::span!(format!("workload:{}", kind.label()));
    // Same thread-local mixed-precision install as the direct path: this
    // attempt runs on its own worker thread, so it must set up (and tear
    // down) precision + loss scaling itself.
    let setup = crate::suite::PrecisionSetup::install(cfg);
    // Make room for this workload's shapes (see `pool::clear`).
    gnnmark_tensor::pool::clear();
    let mut w = {
        let _build = gnnmark_telemetry::span!("build");
        kind.build_mode(cfg.scale, cfg.seed, &cfg.mode)?
    };
    let mut session = ProfileSession::new(kind.label(), setup.device.clone());
    let mut guard = NumericGuard::default();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _ep = gnnmark_telemetry::span!("epoch");
        let progress = crate::suite::EpochProgress::start(&mut session);
        let mut loss = w.run_epoch(&mut session)?;
        if let Some(Fault::NanLoss {
            epoch: at,
            failures,
        }) = fault
        {
            if epoch == *at && attempt <= *failures {
                loss = f64::NAN;
            }
        }
        guard.observe_loss(epoch, loss)?;
        guard.observe_grad_norm(epoch, w.params().grad_norm())?;
        losses.push(loss);
        if let Some(p) = progress {
            p.report(kind, epoch, cfg.epochs, loss, &mut session);
        }
    }
    let quality = w.quality()?;
    Ok(RunArtifacts {
        profile: session.finish(),
        losses,
        steps_per_epoch: w.steps_per_epoch(),
        grad_bytes: w.params().total_bytes(),
        scaling: w.scaling_behavior(),
        quality,
    })
}

/// Runs the full suite under the resilience layer; always returns a
/// complete [`SuiteReport`] (one outcome per workload, in
/// [`WorkloadKind::ALL`] order).
///
/// With a checkpoint directory configured, workloads whose stored summary
/// matches the current configuration are skipped as
/// [`WorkloadStatus::Restored`], and each newly completed workload is
/// checkpointed immediately — an interrupted `gnnmark all --scale paper`
/// resumes without re-training finished workloads.
pub fn run_suite_resilient(cfg: &SuiteConfig, rcfg: &ResilienceConfig) -> SuiteReport {
    let checkpoint = rcfg
        .checkpoint_dir
        .as_ref()
        .map(|dir| Checkpoint::new(dir.clone()));
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
        if let Some(cp) = &checkpoint {
            if let Some(summary) = cp.load_matching(kind, cfg) {
                gnnmark_telemetry::mark("checkpoint:restored", "resilience");
                return WorkloadOutcome {
                    kind,
                    status: WorkloadStatus::Restored(summary),
                    attempts: 0,
                    wall: Duration::ZERO,
                    attempt_log: Vec::new(),
                };
            }
        }
        let outcome = run_workload_resilient(kind, cfg, rcfg);
        if let (Some(cp), Some(art)) = (&checkpoint, outcome.artifacts()) {
            // Checkpoint write failures must not fail the run; the next
            // resume simply re-trains this workload.
            if cp.save(&RunSummary::of(kind, cfg, art)).is_ok() {
                gnnmark_telemetry::mark("checkpoint:written", "resilience");
            }
        }
        outcome
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

/// The checkpointed summary of one completed workload run: everything a
/// resume needs to prove the workload is done for this configuration, plus
/// headline metrics. Deliberately *not* the full profile — checkpoints stay
/// a few hundred bytes per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Workload label (e.g. `"PSAGE-MVL"`).
    pub workload: String,
    /// Scale name the run used (`test`/`small`/`paper`).
    pub scale: String,
    /// Epochs trained.
    pub epochs: usize,
    /// Base dataset/init seed.
    pub seed: u64,
    /// Storage precision the run trained under (`fp32`/`fp16`/`bf16`).
    pub precision: String,
    /// Per-epoch mean losses.
    pub losses: Vec<f64>,
    /// Optimizer steps per epoch.
    pub steps_per_epoch: u64,
    /// DDP gradient payload bytes.
    pub grad_bytes: u64,
    /// Modeled kernel + transfer time, ns.
    pub total_time_ns: f64,
    /// Kernel launches profiled.
    pub kernel_launches: u64,
}

/// Display name of a scale (stable across releases; used as the checkpoint
/// fingerprint component).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

impl RunSummary {
    /// Summarizes one completed run.
    pub fn of(kind: WorkloadKind, cfg: &SuiteConfig, art: &RunArtifacts) -> Self {
        RunSummary {
            workload: kind.label().to_string(),
            scale: scale_name(cfg.scale).to_string(),
            epochs: cfg.epochs,
            seed: cfg.seed,
            precision: cfg.precision.as_str().to_string(),
            losses: art.losses.clone(),
            steps_per_epoch: art.steps_per_epoch,
            grad_bytes: art.grad_bytes,
            total_time_ns: art.profile.total_time_ns(),
            kernel_launches: art.profile.kernels.len() as u64,
        }
    }

    /// `true` when this summary was produced by the given configuration.
    pub fn matches(&self, kind: WorkloadKind, cfg: &SuiteConfig) -> bool {
        self.workload == kind.label()
            && self.scale == scale_name(cfg.scale)
            && self.epochs == cfg.epochs
            && self.seed == cfg.seed
            && self.precision == cfg.precision.as_str()
    }

    /// Serializes to one JSON object.
    pub fn to_json(&self) -> String {
        let losses = self
            .losses
            .iter()
            .map(|l| format!("{l:?}"))
            .collect::<Vec<_>>()
            .join(",");
        let out = format!(
            "{{\"workload\":{},\"scale\":{},\"epochs\":{},\"seed\":{},\
             \"precision\":{},\"losses\":[{}],\
             \"steps_per_epoch\":{},\"grad_bytes\":{},\"total_time_ns\":{:?},\
             \"kernel_launches\":{}}}",
            json_string(&self.workload),
            json_string(&self.scale),
            self.epochs,
            self.seed,
            json_string(&self.precision),
            losses,
            self.steps_per_epoch,
            self.grad_bytes,
            self.total_time_ns,
            self.kernel_launches,
        );
        gnnmark_telemetry::export::debug_validated("RunSummary::to_json", out)
    }

    /// Parses a summary written by [`RunSummary::to_json`]; `None` on any
    /// structural mismatch (corrupted checkpoints are treated as absent).
    pub fn from_json(json: &str) -> Option<Self> {
        Some(RunSummary {
            workload: json_get_string(json, "workload")?,
            scale: json_get_string(json, "scale")?,
            epochs: json_get_number(json, "epochs")? as usize,
            seed: json_get_number(json, "seed")? as u64,
            // Checkpoints written before mixed precision lack the field;
            // they were fp32 runs by construction.
            precision: json_get_string(json, "precision")
                .unwrap_or_else(|| "fp32".to_string()),
            losses: json_get_array(json, "losses")?,
            steps_per_epoch: json_get_number(json, "steps_per_epoch")? as u64,
            grad_bytes: json_get_number(json, "grad_bytes")? as u64,
            total_time_ns: json_get_number(json, "total_time_ns")?,
            kernel_launches: json_get_number(json, "kernel_launches")? as u64,
        })
    }
}

/// Directory of per-workload completion summaries.
struct Checkpoint {
    dir: PathBuf,
}

impl Checkpoint {
    fn new(dir: PathBuf) -> Self {
        Checkpoint { dir }
    }

    fn path_for(&self, kind: WorkloadKind) -> PathBuf {
        self.dir.join(format!("{}.json", kind.label()))
    }

    /// Loads a summary for `kind` if present, parseable, and produced by
    /// the same configuration.
    fn load_matching(&self, kind: WorkloadKind, cfg: &SuiteConfig) -> Option<RunSummary> {
        let text = std::fs::read_to_string(self.path_for(kind)).ok()?;
        let summary = RunSummary::from_json(&text)?;
        summary.matches(kind, cfg).then_some(summary)
    }

    fn save(&self, summary: &RunSummary) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.json", summary.workload));
        // Write-then-rename keeps a torn write from corrupting a resume.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, summary.to_json())?;
        std::fs::rename(&tmp, &path)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finds the raw value text after `"key":` in a flat JSON object.
fn json_raw_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    Some(rest)
}

fn json_get_string(json: &str, key: &str) -> Option<String> {
    let rest = json_raw_value(json, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn json_get_number(json: &str, key: &str) -> Option<f64> {
    let rest = json_raw_value(json, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_get_array(json: &str, key: &str) -> Option<Vec<f64>> {
    let rest = json_raw_value(json, key)?;
    let rest = rest.strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = &rest[..end];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|s| s.trim().parse().ok())
        .collect::<Option<Vec<f64>>>()
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
        let rcfg =
            fast_rcfg().with_faults(FaultPlan::none().inject("TLSTM", Fault::Panic));
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
            .with_faults(FaultPlan::none().inject(
                "TLSTM",
                Fault::TransientError { failures: 2 },
            ));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(matches!(o.status, WorkloadStatus::Completed(_)), "{:?}", o.status);
        assert_eq!(o.attempts, 3);
    }

    #[test]
    fn transient_error_exhausts_bounded_retries() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_retries(1)
            .with_faults(FaultPlan::none().inject(
                "TLSTM",
                Fault::TransientError { failures: 5 },
            ));
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
        let rcfg = fast_rcfg()
            .with_grad_clip_fallback(1.0)
            .with_faults(FaultPlan::none().inject(
                "TLSTM",
                Fault::NanLoss {
                    epoch: 0,
                    failures: 1,
                },
            ));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(matches!(o.status, WorkloadStatus::Completed(_)), "{:?}", o.status);
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
        assert!(matches!(o.status, WorkloadStatus::TimedOut { .. }), "{:?}", o.status);
        assert!(started.elapsed() < Duration::from_millis(350), "did not detach");
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
        let mut tight = NumericGuard::with_divergence_factor(2.0);
        assert!(tight.observe_loss(0, 1.0).is_ok());
        assert!(tight.observe_loss(1, 3.0).is_err());
    }

    #[test]
    fn fault_plan_env_grammar() {
        let p = FaultPlan::parse("panic:TLSTM").unwrap();
        assert_eq!(p.get("TLSTM"), Some(&Fault::Panic));
        let p = FaultPlan::parse("transient:GW@3").unwrap();
        assert_eq!(p.get("GW"), Some(&Fault::TransientError { failures: 3 }));
        let p = FaultPlan::parse("nan:DGCN@2").unwrap();
        assert_eq!(
            p.get("DGCN"),
            Some(&Fault::NanLoss {
                epoch: 2,
                failures: 1
            })
        );
        let p = FaultPlan::parse("stall:ARGA@250ms").unwrap();
        assert_eq!(
            p.get("ARGA"),
            Some(&Fault::Stall {
                duration: Duration::from_millis(250)
            })
        );
        assert!(FaultPlan::parse("bogus:TLSTM").is_none());
        assert!(FaultPlan::parse("no-colon").is_none());
        assert!(FaultPlan::parse("stall:X@raisins").is_none());
    }

    #[test]
    fn run_summary_json_round_trips() {
        let s = RunSummary {
            workload: "PSAGE-MVL".to_string(),
            scale: "test".to_string(),
            epochs: 2,
            seed: 42,
            precision: "bf16".to_string(),
            losses: vec![1.25, 0.75],
            steps_per_epoch: 10,
            grad_bytes: 4096,
            total_time_ns: 1.5e9,
            kernel_launches: 321,
        };
        let json = s.to_json();
        let back = RunSummary::from_json(&json).expect("parses");
        assert_eq!(back, s);
        assert!(RunSummary::from_json("{\"workload\":3}").is_none());
        assert!(RunSummary::from_json("not json at all").is_none());
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
        let err = report.first_failure().expect("has a failure");
        assert!(err.to_string().starts_with("GW: "), "{err}");
    }

    #[test]
    fn attempt_log_pins_retry_timeline_fields() {
        let cfg = SuiteConfig::test();
        let rcfg = fast_rcfg()
            .with_retries(2)
            .with_faults(FaultPlan::none().inject(
                "TLSTM",
                Fault::TransientError { failures: 1 },
            ));
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &rcfg);
        assert!(matches!(o.status, WorkloadStatus::Completed(_)), "{:?}", o.status);
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
        let cp = Checkpoint::new(dir.clone());
        let art = crate::suite::run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        cp.save(&RunSummary::of(WorkloadKind::Tlstm, &cfg, &art)).unwrap();
        assert!(cp.load_matching(WorkloadKind::Tlstm, &cfg).is_some());
        // A different seed invalidates the checkpoint.
        let other = SuiteConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert!(cp.load_matching(WorkloadKind::Tlstm, &other).is_none());
        // A corrupted file is treated as absent.
        std::fs::write(cp.path_for(WorkloadKind::Tlstm), "garbage").unwrap();
        assert!(cp.load_matching(WorkloadKind::Tlstm, &cfg).is_none());
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
        let task: Arc<dyn Fn(usize) -> Result<u32> + Send + Sync> =
            Arc::new(move |attempt| {
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
        assert!(matches!(o.status, TaskStatus::Completed(7)), "{:?}", o.status);
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
        assert!(matches!(o.status, TaskStatus::Panicked { .. }), "{:?}", o.status);
        assert!(o.failure().unwrap().contains("task exploded"));

        let rcfg = fast_rcfg().with_timeout(Duration::from_millis(20));
        let staller: Arc<dyn Fn(usize) -> Result<u32> + Send + Sync> = Arc::new(|_| {
            std::thread::sleep(Duration::from_secs(5));
            Ok(0)
        });
        let o = run_task_resilient("staller", &rcfg, staller);
        assert!(matches!(o.status, TaskStatus::TimedOut { .. }), "{:?}", o.status);
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
