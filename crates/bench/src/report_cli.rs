//! `gnnmark report` — render a deterministic single-file HTML
//! characterization report.
//!
//! The flags are in the `gnnmark` binary's usage text; the suite flags
//! are the ones `gnnmark <target>` and `gnnmark infer` take.
//!
//! Two input paths:
//!
//! * **Replay** — positional `.stream` files (replay-cache entries or
//!   `CapturedRun` dumps) are replayed through the gpusim timing model on
//!   `--device` without retraining; one report run per file.
//! * **Live suite** — with no inputs, the full suite trains on `--device`
//!   at the requested scale under the resilience layer and every
//!   completed workload becomes a report run.
//!
//! Either way the output is one self-contained HTML file (inline CSS and
//! SVG, no scripts) whose bytes depend only on the inputs: wall-clock and
//! scheduling-dependent metrics are filtered out, so two renders of the
//! same streams — at any `--threads` count — are byte-identical. The perf
//! history (`results/perf_history.jsonl`) feeds the trend panel when
//! present; `--no-history` drops it.

use std::path::Path;

use gnnmark::resilience::{run_suite_resilient, ResilienceConfig};
use gnnmark::suite::{artifacts_from_replay, RunArtifacts, SuiteConfig};
use gnnmark_gpusim::stream::CapturedRun;
use gnnmark_gpusim::DeviceSpec;
use gnnmark_report::{esc, load_history, Report, ReportRun, DEFAULT_HISTORY_PATH};
use gnnmark_telemetry::metrics::{self, MetricValue};

use crate::flags::parse_suite_args;

/// Metric families whose values are fully determined by the training
/// inputs (never by wall-clock or thread scheduling). Only these reach
/// the report, preserving byte-determinism; the live `/dashboard` route
/// is the place for the rest.
const DETERMINISTIC_METRIC_PREFIXES: &[&str] = &[
    "gnnmark_amp_",
    "gnnmark_activation_",
    "gnnmark_autograd_",
    "gnnmark_param_",
    "gnnmark_workload_modeled_",
    "gnnmark_kernels_",
    "gnnmark_transfer_",
];

/// Parsed `gnnmark report` invocation.
#[derive(Debug, Clone)]
pub struct ReportOpts {
    /// Output HTML path.
    pub out: String,
    /// The `--device` name the report shows.
    pub device: String,
    /// Suite config for the live-suite path (scale, seed, epochs,
    /// precision, mode); its `device` is also the replay device.
    pub cfg: SuiteConfig,
    /// Positional `.stream` inputs; empty = run the live suite.
    pub inputs: Vec<String>,
    /// Perf-history file; `None` = omit the trend panel.
    pub history: Option<String>,
    /// Trend-panel regression threshold.
    pub max_ratio: f64,
}

impl Default for ReportOpts {
    fn default() -> Self {
        ReportOpts {
            out: "report.html".to_string(),
            device: "v100".to_string(),
            cfg: SuiteConfig::test(),
            inputs: Vec::new(),
            history: Some(DEFAULT_HISTORY_PATH.to_string()),
            max_ratio: 1.5,
        }
    }
}

/// Parses the `gnnmark report` flag set.
///
/// # Errors
/// A human-readable message naming the offending flag.
pub fn parse_report_args(args: impl IntoIterator<Item = String>) -> Result<ReportOpts, String> {
    let mut opts = ReportOpts::default();
    let mut device = None;
    opts.cfg = parse_suite_args(args, opts.cfg.clone(), |flag, f| {
        match flag {
            "--out" => opts.out = f.value(flag)?,
            "--device" => {
                let v = f.value(flag)?;
                device = Some(
                    DeviceSpec::by_name(&v)
                        .ok_or_else(|| format!("unknown device `{v}` (v100|a100)"))?,
                );
                opts.device = v;
            }
            "--history" => opts.history = Some(f.value(flag)?),
            "--no-history" => opts.history = None,
            "--max-ratio" => {
                opts.max_ratio = f.parse(flag)?;
                if !(opts.max_ratio > 0.0 && opts.max_ratio.is_finite()) {
                    return Err("--max-ratio must be a positive number".to_string());
                }
            }
            input if !input.starts_with('-') => opts.inputs.push(input.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(spec) = device {
        opts.cfg.device = spec;
    }
    Ok(opts)
}

fn run_from_artifacts(label: String, art: RunArtifacts, meta: Vec<(String, String)>) -> ReportRun {
    let mut run = ReportRun::new(label, art.profile);
    run.losses = art.losses;
    run.steps_per_epoch = art.steps_per_epoch;
    run.quality = art.quality.map(|(n, v)| (n.to_string(), v));
    run.meta = meta;
    run
}

/// The metrics snapshot restricted to the deterministic families.
fn deterministic_metrics() -> Vec<(String, MetricValue)> {
    metrics::snapshot()
        .into_iter()
        .filter(|(name, _)| {
            DETERMINISTIC_METRIC_PREFIXES
                .iter()
                .any(|p| name.starts_with(p))
        })
        .collect()
}

/// Builds the report (without writing it). Returns the report plus the
/// number of profiled runs it contains.
///
/// # Errors
/// Unreadable or unparseable `.stream` inputs.
pub fn build_report(opts: &ReportOpts) -> Result<(Report, usize), String> {
    let mut report = Report::new("GNNMark characterization report");
    let mut runs = 0usize;
    if opts.inputs.is_empty() {
        report.subtitle(format!(
            "suite · scale {} · seed {} · {} epoch(s) · {} · {} · {}",
            opts.cfg.scale.label(),
            opts.cfg.seed,
            opts.cfg.epochs,
            opts.cfg.precision.as_str(),
            opts.cfg.mode.key(),
            opts.device,
        ));
        let suite = run_suite_resilient(&opts.cfg, &ResilienceConfig::default());
        gnnmark::observability::collect_run_metrics(&suite);
        for (kind, art) in suite.artifacts() {
            runs += 1;
            report.add_run(run_from_artifacts(
                kind.label().to_string(),
                art.clone(),
                vec![
                    ("mode".to_string(), opts.cfg.mode.key()),
                    (
                        "precision".to_string(),
                        opts.cfg.precision.as_str().to_string(),
                    ),
                    ("device".to_string(), opts.device.clone()),
                ],
            ));
        }
        let missing = suite.missing();
        if !missing.is_empty() {
            let names: Vec<&str> = missing.iter().map(|k| k.label()).collect();
            report.add_section(
                "failures",
                "Failed workloads",
                format!(
                    "<p class=\"fail\">Did not complete: {}.</p>",
                    esc(&names.join(", "))
                ),
            );
        }
        report.set_metrics(deterministic_metrics());
    } else {
        report.subtitle(format!(
            "replay · {} stream(s) · device {}",
            opts.inputs.len(),
            opts.device,
        ));
        for input in &opts.inputs {
            let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let run = CapturedRun::from_bytes(&bytes)
                .map_err(|e| format!("{input}: not a captured stream: {e}"))?;
            let label = format!("{}@{}", run.meta.workload, opts.device);
            let meta = vec![
                ("stream".to_string(), input.clone()),
                ("scale".to_string(), run.meta.scale.clone()),
                ("mode".to_string(), run.meta.mode.clone()),
                ("phase".to_string(), run.meta.phase.clone()),
                ("seed".to_string(), run.meta.seed.to_string()),
                ("epochs".to_string(), run.meta.epochs.to_string()),
            ];
            let art = artifacts_from_replay(&run, &opts.cfg.device);
            runs += 1;
            let mut rr = run_from_artifacts(label, art, meta);
            if run.meta.phase == "infer" {
                // Inference stream layout: `epochs` carries the batched
                // step count, the leading steps are batch-1 latency
                // samples (see gnnmark::infer::run_infer_captured).
                rr.infer = Some(gnnmark_report::InferStats {
                    batch1_steps: run
                        .meta
                        .steps_per_epoch
                        .saturating_sub(u64::from(run.meta.epochs))
                        as usize,
                    items_per_step: 0,
                });
            }
            report.add_run(rr);
        }
    }
    if let Some(history) = &opts.history {
        let rows = load_history(Path::new(history));
        if !rows.is_empty() {
            report.set_history(rows, opts.max_ratio);
        }
    }
    Ok((report, runs))
}

/// Runs `gnnmark report`; returns the process exit code.
pub fn run_report(opts: &ReportOpts) -> i32 {
    match build_report(opts) {
        Ok((report, runs)) => {
            let html = report.render();
            if let Some(dir) = Path::new(&opts.out).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            if let Err(e) = std::fs::write(&opts.out, &html) {
                eprintln!("error writing {}: {e}", opts.out);
                return 1;
            }
            eprintln!(
                "wrote {} ({} run(s), {} section(s), {} bytes)",
                opts.out,
                runs,
                report.digest_lines().len(),
                html.len(),
            );
            i32::from(runs == 0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark::Scale;

    fn argv(s: &[&str]) -> impl Iterator<Item = String> {
        s.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn flags_parse_and_reject_garbage() {
        let opts = parse_report_args(argv(&[
            "a.stream",
            "--out",
            "x.html",
            "--device",
            "a100",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--no-history",
            "--max-ratio",
            "2.0",
        ]))
        .unwrap();
        assert_eq!(opts.inputs, vec!["a.stream"]);
        assert_eq!(opts.out, "x.html");
        assert_eq!(opts.device, "a100");
        assert_eq!(opts.cfg.device, DeviceSpec::a100());
        assert_eq!(opts.cfg.scale, Scale::Test);
        assert_eq!(opts.cfg.seed, 7);
        assert!(opts.history.is_none());
        assert!(parse_report_args(argv(&["--device", "h100"])).is_err());
        assert!(parse_report_args(argv(&["--max-ratio", "-1"])).is_err());
        assert!(parse_report_args(argv(&["--bogus"])).is_err());
    }

    #[test]
    fn live_report_trains_on_the_named_device() {
        let timeline = |device: &str| {
            let opts = parse_report_args(argv(&["--device", device, "--no-history"])).unwrap();
            let (report, runs) = build_report(&opts).unwrap();
            assert_eq!(runs, 9);
            report
                .digest_lines()
                .into_iter()
                .find(|l| l.ends_with("\ttimeline"))
                .expect("timeline section")
        };
        assert_ne!(
            timeline("a100"),
            timeline("v100"),
            "modeled step times must differ"
        );
    }

    #[test]
    fn replayed_stream_renders_deterministically() {
        let dir = std::env::temp_dir().join(format!("gnnmark_report_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SuiteConfig::test();
        let (_, captured) =
            gnnmark::suite::run_workload_captured(gnnmark::WorkloadKind::Tlstm, &cfg).unwrap();
        let stream_path = dir.join("tlstm.stream");
        std::fs::write(&stream_path, captured.to_bytes()).unwrap();

        let opts = ReportOpts {
            inputs: vec![stream_path.to_string_lossy().into_owned()],
            history: None,
            ..ReportOpts::default()
        };
        let (a, runs_a) = build_report(&opts).unwrap();
        let (b, runs_b) = build_report(&opts).unwrap();
        assert_eq!(runs_a, 1);
        assert_eq!(runs_b, 1);
        assert_eq!(
            a.render(),
            b.render(),
            "same stream renders byte-identically"
        );
        let html = a.render();
        assert!(html.contains("TLSTM@v100"));
        assert!(html.contains("id=\"sec-roofline\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
