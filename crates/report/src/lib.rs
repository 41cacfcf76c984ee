//! # gnnmark-report
//!
//! Deterministic, dependency-free, single-file HTML characterization
//! reports — the paper's figures as an *operable artifact* instead of
//! loose CSVs. One [`Report`] renders any mix of:
//!
//! * profiled runs ([`ReportRun`]: a [`WorkloadProfile`] plus training
//!   metadata) — roofline scatter, cycle-weighted stall icicle, per-step
//!   timeline, cache-hierarchy, transfer/sparsity, and convergence
//!   panels, with side-by-side comparison when several runs are added;
//! * a metrics-registry snapshot — AMP/loss-scale and activation
//!   footprint, pool/sampler LRU stats, and SLO quantile tables from
//!   fixed-bucket latency histograms;
//! * the `results/perf_history.jsonl` trend store ([`history`]) — trend
//!   lines and a regression verdict (`gnnmark report` attaches it; the
//!   serve dashboard renders no history).
//!
//! The output is one self-contained HTML file with inline CSS and SVG —
//! no scripts, external assets, wall-clock reads, or randomness — so
//! rendering the same inputs is byte-identical everywhere. `gnnmark
//! check` exploits that: it renders the tiny-scale suite and gates the
//! per-section FNV digests against `results/golden/report.csv`.
//!
//! Consumers: the `gnnmark report` CLI, the serve daemon's `/dashboard`
//! and `/jobs/N/report` routes, and the check gate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod history;
pub mod html;
mod panels;
mod svg;

use std::fmt::Write as _;

use gnnmark_gpusim::stream::fnv1a_64;
use gnnmark_profiler::WorkloadProfile;
use gnnmark_telemetry::metrics::MetricValue;

pub use history::{
    append_row, load_history, parse_history, regression_verdict, HistoryRow, TrendVerdict,
    DEFAULT_HISTORY_PATH,
};
pub use html::{esc, html_table};

use history::HistoryRow as Row;

/// One profiled run plus the training metadata the panels draw on.
#[derive(Debug, Clone)]
pub struct ReportRun {
    /// Display label (workload name, optionally suffixed by device/mode).
    pub label: String,
    /// The modeled profile.
    pub profile: WorkloadProfile,
    /// Per-epoch training losses (convergence panel).
    pub losses: Vec<f64>,
    /// Optimizer steps per epoch (0 = unknown).
    pub steps_per_epoch: u64,
    /// Task-quality metric, if the workload defines one.
    pub quality: Option<(String, f64)>,
    /// Free-form configuration pairs shown in the overview (`mode`,
    /// `precision`, `device`, …).
    pub meta: Vec<(String, String)>,
    /// Inference shape of the profile, when this run is a forward-only
    /// stream (fills the inference panel; `None` for training runs).
    pub infer: Option<InferStats>,
}

/// How to read a forward-only profile's steps: the first
/// [`InferStats::batch1_steps`] steps are batch-1 latency samples, the
/// rest are batched-throughput steps.
#[derive(Debug, Clone)]
pub struct InferStats {
    /// Leading batch-1 latency steps in the profile.
    pub batch1_steps: usize,
    /// Items scored per batched step (`0` = unknown, e.g. a replayed
    /// stream whose metadata predates the field — the panel then reports
    /// steps/s instead of items/s).
    pub items_per_step: u64,
}

impl ReportRun {
    /// A run with just a label and profile; fill the rest as available.
    pub fn new(label: impl Into<String>, profile: WorkloadProfile) -> Self {
        ReportRun {
            label: label.into(),
            profile,
            losses: Vec::new(),
            steps_per_epoch: 0,
            quality: None,
            meta: Vec::new(),
            infer: None,
        }
    }
}

/// A report under construction: add runs, a metrics snapshot, history,
/// and custom sections, then [`Report::render`] the page or take its
/// [`Report::digest_lines`] for golden gating.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    subtitle: String,
    refresh_secs: Option<u32>,
    runs: Vec<ReportRun>,
    metrics: Vec<(String, MetricValue)>,
    history: Vec<Row>,
    history_max_ratio: f64,
    custom: Vec<(String, String, String)>,
}

impl Report {
    /// Starts an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            history_max_ratio: 1.5,
            ..Report::default()
        }
    }

    /// Sets the header subtitle (provenance: scale, seed, device, …).
    pub fn subtitle(&mut self, s: impl Into<String>) -> &mut Self {
        self.subtitle = s.into();
        self
    }

    /// Makes the page auto-refresh (live dashboard use). The refresh tag
    /// carries no timestamp, so determinism is preserved for fixed data.
    pub fn auto_refresh(&mut self, secs: u32) -> &mut Self {
        self.refresh_secs = Some(secs);
        self
    }

    /// Adds one profiled run.
    pub fn add_run(&mut self, run: ReportRun) -> &mut Self {
        self.runs.push(run);
        self
    }

    /// Attaches a metrics-registry snapshot (AMP, sampler/LRU, and SLO
    /// panels render from it). Determinism is the caller's contract: only
    /// pass values that are fixed for the inputs being reported.
    pub fn set_metrics(&mut self, snapshot: Vec<(String, MetricValue)>) -> &mut Self {
        self.metrics = snapshot;
        self
    }

    /// Attaches perf-history rows; `max_ratio` is the regression
    /// threshold the verdict line applies (mirrors `bench-check`).
    pub fn set_history(&mut self, rows: Vec<Row>, max_ratio: f64) -> &mut Self {
        self.history = rows;
        self.history_max_ratio = max_ratio;
        self
    }

    /// Prepends a caller-rendered section (the serve dashboard's fleet
    /// view). `body` is trusted HTML; escape interpolated text with
    /// [`esc`]. Custom sections render before the built-in panels in
    /// insertion order.
    pub fn add_section(
        &mut self,
        id: impl Into<String>,
        title: impl Into<String>,
        body: impl Into<String>,
    ) -> &mut Self {
        self.custom.push((id.into(), title.into(), body.into()));
        self
    }

    /// All non-empty sections as `(id, title, body)` in render order.
    fn sections(&self) -> Vec<(String, String, String)> {
        let mut out: Vec<(String, String, String)> = self.custom.clone();
        let builtin: [(&str, &str, String); 12] = [
            ("overview", "Overview", panels::overview(&self.runs)),
            ("roofline", "Roofline", panels::roofline_panel(&self.runs)),
            (
                "stalls",
                "Stall breakdown",
                panels::stalls_panel(&self.runs),
            ),
            (
                "timeline",
                "Per-step timeline",
                panels::timeline_panel(&self.runs),
            ),
            (
                "caches",
                "Cache hierarchy",
                panels::caches_panel(&self.runs),
            ),
            (
                "transfers",
                "Transfers & sparsity",
                panels::transfers_panel(&self.runs),
            ),
            (
                "convergence",
                "Convergence",
                panels::convergence_panel(&self.runs),
            ),
            (
                "amp",
                "AMP & memory footprint",
                panels::amp_panel(&self.metrics),
            ),
            (
                "minibatch",
                "Mini-batch & streaming caches",
                panels::minibatch_panel(&self.runs, &self.metrics),
            ),
            (
                "inference",
                "Inference latency & throughput",
                panels::inference_panel(&self.runs),
            ),
            (
                "comparison",
                "Side-by-side comparison",
                panels::comparison_panel(&self.runs),
            ),
            (
                "slo",
                "Request latency (SLO)",
                panels::slo_panel(&self.metrics),
            ),
        ];
        for (id, title, body) in builtin {
            if !body.is_empty() {
                out.push((id.to_string(), title.to_string(), body));
            }
        }
        let hist = panels::history_panel(&self.history, self.history_max_ratio);
        if !hist.is_empty() {
            out.push(("history".to_string(), "Perf history".to_string(), hist));
        }
        out
    }

    /// Renders the complete single-file HTML page.
    pub fn render(&self) -> String {
        let sections = self.sections();
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        if let Some(secs) = self.refresh_secs {
            let _ = writeln!(out, "<meta http-equiv=\"refresh\" content=\"{secs}\">");
        }
        let _ = writeln!(out, "<title>{}</title>", esc(&self.title));
        let _ = writeln!(out, "<style>{}</style>", html::CSS);
        out.push_str("</head>\n<body>\n<header>");
        let _ = write!(out, "<h1>{}</h1>", esc(&self.title));
        if !self.subtitle.is_empty() {
            let _ = write!(out, "<p>{}</p>", esc(&self.subtitle));
        }
        out.push_str("</header>\n<nav>");
        for (id, title, _) in &sections {
            let _ = write!(out, "<a href=\"#sec-{}\">{}</a>", esc(id), esc(title));
        }
        out.push_str("</nav>\n<main>\n");
        for (id, title, body) in &sections {
            let _ = writeln!(
                out,
                "<section id=\"sec-{}\">\n<h2>{}</h2>\n{body}</section>",
                esc(id),
                esc(title),
            );
        }
        out.push_str("</main>\n</body>\n</html>\n");
        out
    }

    /// Per-section FNV-1a digest lines, `digest<TAB>section id` — the
    /// golden-snapshot unit. Gating per section (rather than one digest
    /// of the whole page) means a mismatch names the panel that moved.
    pub fn digest_lines(&self) -> Vec<String> {
        self.sections()
            .iter()
            .map(|(id, _, body)| format!("{:016x}\t{id}", fnv1a_64(body.as_bytes())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_gpusim::DeviceSpec;
    use gnnmark_profiler::ProfileSession;
    use gnnmark_tensor::{IntTensor, Tensor};

    fn profile(name: &str, spec: DeviceSpec) -> WorkloadProfile {
        let mut s = ProfileSession::new(name, spec);
        s.upload(&Tensor::zeros(&[256]));
        s.upload(&Tensor::ones(&[256]));
        for _ in 0..3 {
            s.begin_step();
            let a = Tensor::ones(&[32, 32]);
            let _ = a.matmul(&a).unwrap();
            let _ = a.relu();
            let idx = IntTensor::from_vec(&[64], (0..64).map(|i| i % 32).collect()).unwrap();
            let _ = a.gather_rows(&idx).unwrap();
            s.end_step();
        }
        s.finish()
    }

    fn sample_run(name: &str, spec: DeviceSpec) -> ReportRun {
        let mut run = ReportRun::new(name, profile(name, spec));
        run.losses = vec![1.0, 0.6, 0.4];
        run.steps_per_epoch = 1;
        run.quality = Some(("accuracy".to_string(), 0.9));
        run.meta = vec![("mode".to_string(), "fullgraph".to_string())];
        run
    }

    #[test]
    fn rendering_is_byte_deterministic() {
        let mut r = Report::new("test report");
        r.add_run(sample_run("GCN", DeviceSpec::v100()));
        r.set_history(
            vec![HistoryRow {
                commit: "abc".to_string(),
                source: "seed".to_string(),
                unix_ms: 7,
                suite_wall_s: Some(1.0),
                cache_hit_rate: None,
                benches: vec![("k".to_string(), 10.0)],
            }],
            1.5,
        );
        assert_eq!(r.render(), r.render());
        assert_eq!(r.digest_lines(), r.digest_lines());
    }

    #[test]
    fn single_run_report_contains_core_panels() {
        let mut r = Report::new("t");
        r.add_run(sample_run("GCN", DeviceSpec::v100()));
        let html = r.render();
        for id in [
            "overview",
            "roofline",
            "stalls",
            "timeline",
            "caches",
            "transfers",
        ] {
            assert!(html.contains(&format!("id=\"sec-{id}\"")), "missing {id}");
        }
        // Single run → no comparison; no metrics → no AMP/SLO panels.
        assert!(!html.contains("id=\"sec-comparison\""));
        assert!(!html.contains("id=\"sec-slo\""));
        // Self-contained: no external references.
        assert!(
            !html.contains("http://") || html.contains("xmlns"),
            "only the SVG namespace"
        );
        assert!(!html.contains("<script"));
        assert!(!html.contains("href=\"http"));
        assert!(!html.contains("src="));
    }

    #[test]
    fn two_runs_enable_comparison_and_digests_name_sections() {
        let mut r = Report::new("t");
        r.add_run(sample_run("GCN@V100", DeviceSpec::v100()));
        r.add_run(sample_run("GCN@A100", DeviceSpec::a100()));
        let html = r.render();
        assert!(html.contains("id=\"sec-comparison\""));
        let digests = r.digest_lines();
        assert_eq!(digests.len(), r.sections().len());
        assert!(digests.iter().any(|l| l.ends_with("\troofline")));
        for l in &digests {
            assert_eq!(l.split('\t').next().unwrap().len(), 16);
        }
    }

    #[test]
    fn metrics_snapshot_feeds_amp_and_slo_panels() {
        let mut r = Report::new("t");
        static BOUNDS: &[f64] = &[0.01, 0.1];
        let mut counts = [0u64; gnnmark_telemetry::metrics::MAX_BUCKETS + 1];
        counts[0] = 5;
        counts[1] = 1;
        r.set_metrics(vec![
            (
                "gnnmark_amp_loss_scale".to_string(),
                MetricValue::Gauge(32768.0),
            ),
            (
                "gnnmark_tensor_buffers_total".to_string(),
                MetricValue::Counter(12),
            ),
            (
                "gnnmark_sampler_batches_total".to_string(),
                MetricValue::Counter(7),
            ),
            (
                "gnnmark_serve_route_seconds{route=\"/jobs\"}".to_string(),
                MetricValue::Buckets {
                    bounds: BOUNDS,
                    counts,
                    count: 6,
                    sum: 0.05,
                },
            ),
        ]);
        let html = r.render();
        let (amp_at, minibatch_at) = (
            html.find("id=\"sec-amp\"").unwrap(),
            html.find("id=\"sec-minibatch\"").unwrap(),
        );
        let amp = &html[amp_at..minibatch_at];
        assert!(amp.contains("32768") && amp.contains("gnnmark_tensor_buffers_total"));
        let minibatch = &html[minibatch_at..];
        assert!(minibatch.contains("gnnmark_sampler_batches_total"));
        assert!(!minibatch.contains("gnnmark_tensor_buffers_total"));
        assert!(html.contains("id=\"sec-slo\"") && html.contains("p99"));
    }

    #[test]
    fn custom_sections_render_first_and_escape_title() {
        let mut r = Report::new("t <&>");
        r.add_section("fleet", "Fleet <live>", "<p>queue depth 3</p>");
        r.add_run(sample_run("GCN", DeviceSpec::v100()));
        let html = r.render();
        assert!(html.contains("t &lt;&amp;&gt;"));
        assert!(html.contains("Fleet &lt;live&gt;"));
        let fleet_pos = html.find("id=\"sec-fleet\"").unwrap();
        let overview_pos = html.find("id=\"sec-overview\"").unwrap();
        assert!(fleet_pos < overview_pos);
    }

    #[test]
    fn auto_refresh_adds_meta_tag_only_when_asked() {
        let mut r = Report::new("t");
        assert!(!r.render().contains("http-equiv"));
        r.auto_refresh(5);
        assert!(r
            .render()
            .contains("<meta http-equiv=\"refresh\" content=\"5\">"));
    }

    #[test]
    fn device_change_moves_the_roofline_digest() {
        let mut a = Report::new("t");
        a.add_run(sample_run("GCN", DeviceSpec::v100()));
        let mut b = Report::new("t");
        b.add_run(sample_run("GCN", DeviceSpec::a100()));
        let da: Vec<_> = a.digest_lines();
        let db: Vec<_> = b.digest_lines();
        let get = |d: &[String], id: &str| {
            d.iter()
                .find(|l| l.ends_with(&format!("\t{id}")))
                .unwrap()
                .clone()
        };
        assert_ne!(get(&da, "roofline"), get(&db, "roofline"));
    }
}
