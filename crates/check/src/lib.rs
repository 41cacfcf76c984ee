//! # gnnmark-check
//!
//! The suite's verification subsystem, run as `gnnmark check`. It
//! validates the stack at six layers:
//!
//! 1. **Gradient checks** ([`gradcheck`], [`workload`]) — a central
//!    finite-difference harness compares every differentiable op's
//!    analytic gradient against numeric perturbation — and its value under
//!    a `NoGradGuard` against its taped value, bit for bit — then repeats
//!    the gradient comparison end-to-end on sampled parameter elements of
//!    each of the eight workloads.
//! 2. **Golden snapshots** ([`golden`]) — per-workload op streams and
//!    digests of every figure table are checked against files under
//!    `results/golden/`; `--bless` regenerates them after intentional
//!    changes.
//! 3. **Simulator invariants** ([`invariants`]) — accounting properties
//!    of the analytical GPU model: sums, cache conservation, stall
//!    distributions, cost formulas, and multi-GPU work conservation.
//! 4. **Mini-batch sampling** ([`minibatch`]) — FD gradient checks of
//!    the fanout-sampled gather/index-select path, bit-exact
//!    full-coverage parity against full-graph training, and minibatch
//!    golden op streams under `results/golden/opstream-minibatch/`.
//! 5. **Report rendering** ([`golden::check_report`]) — per-section FNV
//!    digests of the HTML characterization report rendered from the same
//!    suite runs, gated against `results/golden/report.csv`, which keeps
//!    `gnnmark report` byte-deterministic.
//! 6. **Inference** ([`infer`]) — thread-count (1 vs 4) parity of the
//!    inference loss, and inference golden op streams under
//!    `results/golden/opstream-infer/`. That every workload's forward
//!    under a `NoGradGuard` returns the loss bits its taped `probe` does
//!    is the integration test `tests/infer_stream_prefix.rs`.
//!
//! See `docs/VERIFICATION.md` for tolerances and workflow.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod golden;
pub mod gradcheck;
pub mod infer;
pub mod invariants;
pub mod minibatch;
pub mod workload;

use std::path::PathBuf;

use gnnmark::resilience::{run_suite_resilient, ResilienceConfig};
use gnnmark::suite::SuiteConfig;
use gnnmark_workloads::Scale;

/// Result alias re-used from the tensor crate.
pub type Result<T> = gnnmark_tensor::Result<T>;

/// Configuration of one `gnnmark check` run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Problem size for the workload gradient checks and the suite run
    /// that feeds the snapshot and invariant layers.
    pub scale: Scale,
    /// Workload seed (must match the blessed goldens' seed).
    pub seed: u64,
    /// Relative gradient tolerance.
    pub tol: f64,
    /// Golden snapshot directory.
    pub golden_dir: PathBuf,
    /// Regenerate goldens instead of comparing.
    pub bless: bool,
}

impl CheckConfig {
    /// The CI gate configuration (`gnnmark check --scale tiny`).
    pub fn tiny() -> Self {
        CheckConfig {
            scale: Scale::Test,
            seed: 42,
            tol: 1e-3,
            golden_dir: PathBuf::from(golden::GOLDEN_DIR),
            bless: false,
        }
    }
}

/// Everything one check run produced: report lines in display order plus
/// pass/fail counts.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Total individual checks run.
    pub checks: usize,
    /// Checks that failed.
    pub failures: usize,
}

impl CheckOutcome {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    fn record(&mut self, ok: bool, line: String) {
        self.checks += 1;
        if !ok {
            self.failures += 1;
        }
        self.lines.push(line);
    }
}

/// Runs all verification layers and collects the report.
///
/// Golden snapshots are only meaningful at the test (tiny) scale — the
/// checked-in files are generated there — so the snapshot layer is
/// skipped at other scales.
///
/// # Errors
/// Propagates construction/engine errors; individual check failures are
/// reported in the returned [`CheckOutcome`] instead.
pub fn run_check(cfg: &CheckConfig) -> Result<CheckOutcome> {
    let mut out = CheckOutcome {
        lines: Vec::new(),
        checks: 0,
        failures: 0,
    };

    out.lines.push("== layer 1: gradient checks ==".to_string());
    for r in gradcheck::all_op_reports(cfg.tol)? {
        out.record(r.passed(), r.line());
    }
    for r in workload::all_workload_reports(cfg.scale, cfg.seed, cfg.tol)? {
        out.record(r.passed(), r.line());
    }

    let mut suite_cfg = SuiteConfig::test();
    suite_cfg.scale = cfg.scale;
    suite_cfg.seed = cfg.seed;
    let rcfg = ResilienceConfig {
        parallel: true,
        ..ResilienceConfig::default()
    };
    let runs = run_suite_resilient(&suite_cfg, &rcfg).runs(false)?;

    out.lines
        .push("== layer 2: golden snapshots ==".to_string());
    if cfg.scale == Scale::Test {
        for run in &runs {
            let r = golden::check_opstream(&run.profile, &cfg.golden_dir, cfg.bless)?;
            out.record(r.ok, r.line());
        }
        let r = golden::check_figures(&runs, &cfg.golden_dir, cfg.bless)?;
        out.record(r.ok, r.line());
    } else {
        out.lines
            .push("(skipped: goldens are generated at the tiny scale)".to_string());
    }

    out.lines
        .push("== layer 3: simulator invariants ==".to_string());
    for run in &runs {
        for r in invariants::profile_invariants(run) {
            out.record(r.ok, r.line());
        }
        for r in invariants::scaling_invariants(run, &suite_cfg.device) {
            out.record(r.ok, r.line());
        }
    }
    for r in invariants::cost_formula_invariants(&suite_cfg.device)? {
        out.record(r.ok, r.line());
    }

    out.lines
        .push("== layer 4: mini-batch sampling ==".to_string());
    let r = minibatch::sampled_path_grad_report(cfg.tol)?;
    out.record(r.passed(), r.line());
    for r in minibatch::minibatch_workload_reports(cfg.scale, cfg.seed, cfg.tol)? {
        out.record(r.passed(), r.line());
    }
    for r in minibatch::parity_reports(cfg.scale, cfg.seed)? {
        out.record(r.ok, r.line());
    }
    if cfg.scale == Scale::Test {
        for run in minibatch::golden_runs(cfg.seed)? {
            let r = golden::check_opstream_in(
                &run.profile,
                &cfg.golden_dir,
                golden::MINIBATCH_OPSTREAM_DIR,
                cfg.bless,
            )?;
            out.record(r.ok, r.line());
        }
    } else {
        out.lines
            .push("(snapshots skipped: goldens are generated at the tiny scale)".to_string());
    }

    out.lines
        .push("== layer 5: report rendering ==".to_string());
    if cfg.scale == Scale::Test {
        let r = golden::check_report(&runs, &cfg.golden_dir, cfg.bless)?;
        out.record(r.ok, r.line());
    } else {
        out.lines
            .push("(skipped: goldens are generated at the tiny scale)".to_string());
    }

    out.lines.push("== layer 6: inference ==".to_string());
    for r in infer::thread_parity_reports(cfg.scale, cfg.seed)? {
        out.record(r.ok, r.line());
    }
    if cfg.scale == Scale::Test {
        for profile in infer::golden_profiles(cfg.seed)? {
            let r = golden::check_opstream_in(
                &profile,
                &cfg.golden_dir,
                golden::INFER_OPSTREAM_DIR,
                cfg.bless,
            )?;
            out.record(r.ok, r.line());
        }
    } else {
        out.lines
            .push("(snapshots skipped: goldens are generated at the tiny scale)".to_string());
    }

    Ok(out)
}
