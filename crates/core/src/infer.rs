//! Forward-only inference characterization (`gnnmark infer`).
//!
//! Training characterization is the paper's subject, but its §V-A framing
//! leans on a contrast: prior GPU studies of GNN *inference* measured
//! GEMM-dominated execution (>50 %), while training adds backward passes
//! and optimizers full of irregular and element-wise kernels. This module
//! measures that contrast instead of modeling it: every workload runs its
//! training forward, optimizer-free, under a
//! [`gnnmark_autograd::NoGradGuard`] ([`gnnmark_workloads::Workload::infer`]),
//! so autograd records nothing, and the zero-tape-allocation accounting
//! below is measured per run, not assumed.
//!
//! Two batch shapes are measured through the gpusim timing model:
//!
//! * **batch-1 latency** — repeated [`InferBatch::Single`] steps; each
//!   step's modeled nanoseconds is one latency sample.
//! * **batched throughput** — repeated [`InferBatch::Full`] steps at the
//!   workload's training batch size; items per modeled second.
//!
//! Runs can be captured ([`run_infer_captured`]) into the same replay
//! format training uses, with [`ReplayMeta::phase`] set to `"infer"` so
//! the serve cache never conflates the two stream populations.

use gnnmark_autograd::tape_nodes_recorded;
use gnnmark_gpusim::stream::{CapturedRun, CapturedStream, ReplayMeta};
use gnnmark_profiler::{FigureCategory, Table, WorkloadProfile};
pub use gnnmark_telemetry::metrics::percentile;
use gnnmark_workloads::{InferBatch, WorkloadKind};

use crate::figures::pct;
use crate::suite::{run_session, SuiteConfig};
use crate::Result;

/// Execution phase of a captured op stream: the training loop (forward +
/// backward + optimizer) or the forward-only inference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPhase {
    /// Full training steps.
    Train,
    /// Forward-only inference steps (nothing taped).
    Infer,
}

impl ExecPhase {
    /// Stable string key (serialized into [`ReplayMeta::phase`] and cache
    /// key digests).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecPhase::Train => "train",
            ExecPhase::Infer => "infer",
        }
    }

    /// Parses [`ExecPhase::as_str`] output (case-insensitive).
    pub fn parse(s: &str) -> Option<ExecPhase> {
        match s.to_ascii_lowercase().as_str() {
            "train" => Some(ExecPhase::Train),
            "infer" => Some(ExecPhase::Infer),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration of one inference characterization run.
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// Scale / seed / device / threads / precision / mode, shared with the
    /// training suite so inference measures the same models and datasets.
    pub suite: SuiteConfig,
    /// Batch-1 latency samples ([`InferBatch::Single`] steps).
    pub batch1_steps: usize,
    /// Batched-throughput steps ([`InferBatch::Full`]).
    pub batched_steps: usize,
}

impl InferConfig {
    /// Wraps a suite config with the default step counts.
    pub fn new(suite: SuiteConfig) -> Self {
        InferConfig {
            suite,
            batch1_steps: 8,
            batched_steps: 4,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        InferConfig {
            suite: SuiteConfig::test(),
            batch1_steps: 2,
            batched_steps: 1,
        }
    }
}

/// Results of one forward-only inference run.
#[derive(Debug, Clone)]
pub struct InferArtifacts {
    /// Aggregate profile over every inference step (both batch shapes).
    pub profile: WorkloadProfile,
    /// Per-step modeled latency of the batch-1 steps, nanoseconds.
    pub batch1_latency_ns: Vec<f64>,
    /// Per-step modeled time of the batched steps, nanoseconds.
    pub batched_step_ns: Vec<f64>,
    /// Items scored per batched step ([`gnnmark_workloads::Workload::infer_items`]).
    pub batched_items: u64,
    /// Per-step forward losses, batch-1 steps first then batched steps.
    /// Device-independent; the batched loss bit-equals training-eval
    /// (`probe`) forward loss at fp32.
    pub losses: Vec<f64>,
    /// Autodiff tape nodes recorded process-wide during the run: 0 unless
    /// another thread of the process was training meanwhile (a push under
    /// the workload's `NoGradGuard` records nothing).
    pub tape_nodes: u64,
}

impl InferArtifacts {
    /// Mean batch-1 latency, nanoseconds.
    pub fn batch1_mean_ns(&self) -> f64 {
        if self.batch1_latency_ns.is_empty() {
            return 0.0;
        }
        self.batch1_latency_ns.iter().sum::<f64>() / self.batch1_latency_ns.len() as f64
    }

    /// Nearest-rank percentile of the batch-1 latency samples, `q` in 0–1.
    pub fn batch1_percentile_ns(&self, q: f64) -> f64 {
        percentile(&self.batch1_latency_ns, q)
    }

    /// Batched throughput in items per modeled second.
    pub fn batched_throughput(&self) -> f64 {
        let total_ns: f64 = self.batched_step_ns.iter().sum();
        if total_ns <= 0.0 {
            return 0.0;
        }
        (self.batched_items * self.batched_step_ns.len() as u64) as f64 / (total_ns / 1e9)
    }
}

/// Runs one workload forward-only and returns its inference metrics.
///
/// # Errors
/// Propagates workload construction or forward errors, annotated with the
/// workload label.
pub fn run_infer_workload(kind: WorkloadKind, cfg: &InferConfig) -> Result<InferArtifacts> {
    run_infer_inner(kind, cfg, false).map(|(art, _)| art)
}

/// Runs one workload forward-only with op-stream capture, returning the
/// metrics plus a serializable [`CapturedRun`] whose metadata carries
/// `phase = "infer"` — the unit the serve replay cache stores for
/// inference jobs.
///
/// # Errors
/// Propagates workload construction or forward errors.
pub fn run_infer_captured(
    kind: WorkloadKind,
    cfg: &InferConfig,
) -> Result<(InferArtifacts, CapturedRun)> {
    let (artifacts, stream) = run_infer_inner(kind, cfg, true)?;
    let stream = stream.expect("capture was requested");
    let run = CapturedRun {
        meta: ReplayMeta {
            workload: kind.label().to_string(),
            scale: cfg.suite.scale.label().to_string(),
            mode: cfg.suite.mode.key(),
            phase: ExecPhase::Infer.as_str().to_string(),
            seed: cfg.suite.seed,
            // There is no epoch loop in inference; the field carries the
            // batched-step count so cache keys (whose `epochs` doubles as
            // that count for infer jobs) cross-check cleanly on load.
            epochs: cfg.batched_steps as u32,
            steps_per_epoch: (cfg.batch1_steps + cfg.batched_steps) as u64,
            grad_bytes: 0,
            losses: artifacts.losses.clone(),
            scaling: None,
            quality: None,
        },
        stream,
    };
    Ok((artifacts, run))
}

fn run_infer_inner(
    kind: WorkloadKind,
    cfg: &InferConfig,
    capture: bool,
) -> Result<(InferArtifacts, Option<CapturedStream>)> {
    let ((losses, tape_nodes, batched_items), profile, stream) =
        run_session(kind, &cfg.suite, "infer", capture, |w, session| {
            let nodes_before = tape_nodes_recorded();
            let mut losses = Vec::with_capacity(cfg.batch1_steps + cfg.batched_steps);
            let batches = std::iter::repeat_n(InferBatch::Single, cfg.batch1_steps)
                .chain(std::iter::repeat_n(InferBatch::Full, cfg.batched_steps));
            for batch in batches {
                session.begin_step();
                let loss = w.infer(batch)?;
                session.end_step();
                losses.push(loss);
            }
            let tape_nodes = tape_nodes_recorded().saturating_sub(nodes_before);
            Ok((losses, tape_nodes, w.infer_items(InferBatch::Full)))
        })?;
    // Per-step modeled time is read off the finished profile, not off the
    // live session (a read there waits for the simulator). A step's time is
    // the growth of the running sum over all kernels, which is what reading
    // the session's clock before and after the step used to give, bit for
    // bit; summing the step's slice alone rounds differently.
    let mut clock_ns = 0.0f64;
    let mut batch1_latency_ns: Vec<f64> = profile
        .step_slices()
        .map(|step| {
            let before = clock_ns;
            for k in step {
                clock_ns += k.time_ns;
            }
            clock_ns - before
        })
        .collect();
    let batched_step_ns = batch1_latency_ns.split_off(cfg.batch1_steps);
    Ok((
        InferArtifacts {
            profile,
            batch1_latency_ns,
            batched_step_ns,
            batched_items,
            losses,
            tape_nodes,
        },
        stream,
    ))
}

/// Measured inference-vs-training *operation mix*: for each workload, the
/// time share of dense math, element-wise and irregular kernel classes in
/// the forward-only stream next to the training stream. The measured
/// counterpart of the paper's §V-A inference contrast.
pub fn infer_vs_train_op_mix(infer: &[WorkloadProfile], train: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Inference vs training — operation mix (measured)");
    t.header([
        "Workload",
        "Phase",
        "GEMM+SpMM (%)",
        "Conv+BN (%)",
        "ElemWise (%)",
        "Irregular (%)",
        "Kernels",
    ]);
    for (ip, tp) in infer.iter().zip(train) {
        for (phase, p) in [("infer", ip), ("train", tp)] {
            let dense = p.time_share(FigureCategory::Gemm) + p.time_share(FigureCategory::Spmm);
            let conv =
                p.time_share(FigureCategory::Conv2d) + p.time_share(FigureCategory::BatchNorm);
            let irregular = p.time_share(FigureCategory::Scatter)
                + p.time_share(FigureCategory::Gather)
                + p.time_share(FigureCategory::Reduction)
                + p.time_share(FigureCategory::IndexSelect)
                + p.time_share(FigureCategory::Sort);
            t.row([
                p.name.clone(),
                phase.to_string(),
                pct(dense),
                pct(conv),
                pct(p.time_share(FigureCategory::ElementWise)),
                pct(irregular),
                p.kernels.len().to_string(),
            ]);
        }
    }
    t
}

/// Measured inference-vs-training *instruction mix* (the paper's Figure 3
/// axis): fp32 vs int32 shares of arithmetic instructions, plus IPC.
pub fn infer_vs_train_instruction_mix(
    infer: &[WorkloadProfile],
    train: &[WorkloadProfile],
) -> Table {
    let mut t = Table::new("Inference vs training — instruction mix (measured)");
    t.header(["Workload", "Phase", "FP32 (%)", "INT32 (%)", "IPC"]);
    for (ip, tp) in infer.iter().zip(train) {
        for (phase, p) in [("infer", ip), ("train", tp)] {
            t.row([
                p.name.clone(),
                phase.to_string(),
                pct(p.instr.fp_share()),
                pct(p.instr.int_share()),
                format!("{:.2}", p.ipc()),
            ]);
        }
    }
    t
}

/// Measured inference-vs-training *cache behavior*: L1/L2 hit rates and
/// achieved GFLOPS of each phase's stream on the modeled device.
pub fn infer_vs_train_cache_behavior(
    infer: &[WorkloadProfile],
    train: &[WorkloadProfile],
) -> Table {
    let mut t = Table::new("Inference vs training — cache behavior (measured)");
    t.header(["Workload", "Phase", "L1 hit (%)", "L2 hit (%)", "GFLOPS"]);
    for (ip, tp) in infer.iter().zip(train) {
        for (phase, p) in [("infer", ip), ("train", tp)] {
            t.row([
                p.name.clone(),
                phase.to_string(),
                pct(p.l1_hit_rate()),
                pct(p.l2_hit_rate()),
                format!("{:.1}", p.gflops()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_workloads::{Scale, TrainMode};

    #[test]
    fn infer_runs_forward_only_and_measures_latency() {
        let cfg = InferConfig::test();
        let art = run_infer_workload(WorkloadKind::Tlstm, &cfg).unwrap();
        assert_eq!(art.batch1_latency_ns.len(), 2);
        assert_eq!(art.batched_step_ns.len(), 1);
        assert!(art.batch1_latency_ns.iter().all(|&ns| ns > 0.0));
        assert!(art.batched_throughput() > 0.0);
        assert!(art.batched_items >= 1);
        assert!(art.profile.kernels.len() > 4);
        assert_eq!(art.losses.len(), 3);
        assert!(art.losses.iter().all(|l| l.is_finite()));
        // Batch-1 repeats the same deterministic item: identical samples.
        assert_eq!(art.losses[0].to_bits(), art.losses[1].to_bits());
    }

    #[test]
    fn batched_infer_loss_bit_equals_probe_forward() {
        let cfg = InferConfig::test();
        let art = run_infer_workload(WorkloadKind::Dgcn, &cfg).unwrap();
        let mut w = WorkloadKind::Dgcn
            .build_mode(cfg.suite.scale, cfg.suite.seed, &cfg.suite.mode)
            .unwrap();
        let probe_loss = w.probe().unwrap();
        let batched_loss = *art.losses.last().unwrap();
        assert_eq!(
            batched_loss.to_bits(),
            probe_loss.to_bits(),
            "infer(Full) {batched_loss} != probe {probe_loss}"
        );
    }

    #[test]
    fn captured_infer_run_carries_the_infer_phase() {
        let cfg = InferConfig::test();
        let (art, run) = run_infer_captured(WorkloadKind::Tlstm, &cfg).unwrap();
        assert_eq!(run.meta.phase, "infer");
        assert_eq!(run.meta.grad_bytes, 0);
        assert_eq!(run.stream.steps(), 3);
        assert_eq!(run.meta.losses, art.losses);
        let back = CapturedRun::from_bytes(&run.to_bytes()).unwrap();
        assert_eq!(back.meta.phase, "infer");
        // Replaying the inference stream reproduces the profile timing.
        let replayed =
            gnnmark_profiler::replay_profile("TLSTM", cfg.suite.device.clone(), &back.stream);
        assert_eq!(
            replayed.total_kernel_time_ns().to_bits(),
            art.profile.total_kernel_time_ns().to_bits()
        );
    }

    #[test]
    fn minibatch_mode_infers_too() {
        let mut cfg = InferConfig::test();
        cfg.suite.mode = TrainMode::Minibatch(gnnmark_workloads::MinibatchConfig::default());
        let art = run_infer_workload(WorkloadKind::ArgaCora, &cfg).unwrap();
        assert!(art.batched_throughput() > 0.0);
        assert!(art.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn exec_phase_round_trips() {
        for phase in [ExecPhase::Train, ExecPhase::Infer] {
            assert_eq!(ExecPhase::parse(phase.as_str()), Some(phase));
        }
        assert_eq!(ExecPhase::parse("INFER"), Some(ExecPhase::Infer));
        assert_eq!(ExecPhase::parse("eval"), None);
    }

    #[test]
    fn figures_render_for_infer_and_train() {
        let cfg = InferConfig::test();
        let infer = run_infer_workload(WorkloadKind::Tlstm, &cfg).unwrap();
        let train = crate::suite::run_workload_full(
            WorkloadKind::Tlstm,
            &SuiteConfig {
                scale: Scale::Test,
                ..SuiteConfig::test()
            },
        )
        .unwrap()
        .profile;
        let infer_profiles = [infer.profile];
        let train_profiles = [train];
        let t1 = infer_vs_train_op_mix(&infer_profiles, &train_profiles);
        let t2 = infer_vs_train_instruction_mix(&infer_profiles, &train_profiles);
        let t3 = infer_vs_train_cache_behavior(&infer_profiles, &train_profiles);
        for t in [&t1, &t2, &t3] {
            let s = t.to_string();
            assert!(s.contains("TLSTM"), "missing workload row: {s}");
            assert!(s.contains("infer") && s.contains("train"));
        }
    }
}
