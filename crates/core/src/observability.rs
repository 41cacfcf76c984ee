//! Run-level observability: metrics collection and artifact export.
//!
//! Bridges the suite layer to [`gnnmark_telemetry`]: after a resilient run,
//! [`collect_run_metrics`] folds the substrate's instrumentation (tensor
//! pool, worker pool, autograd tape, per-workload profiles, resilience
//! outcomes) into the process-wide metrics registry, and
//! [`export_artifacts`] writes whatever the CLI asked for:
//!
//! * a merged Chrome/Perfetto trace (host spans + modeled device lanes),
//! * a JSON metrics snapshot plus a Prometheus text dump beside it,
//! * a `manifest.json` describing the run (seed, scale, threads, device,
//!   per-workload status/wall/modeled time).
//!
//! Everything here is pull-based and runs *after* training, so it adds no
//! overhead to the measured region.

use std::path::{Path, PathBuf};

use gnnmark_telemetry::export::{metrics_json, metrics_prometheus, ManifestWorkload, RunManifest};
use gnnmark_telemetry::metrics;

use crate::resilience::SuiteReport;
use crate::suite::SuiteConfig;

/// Where to write which artifacts. Every field is optional; the manifest
/// lands in `csv_dir`, else beside the metrics file, else beside the trace.
#[derive(Debug, Clone, Default)]
pub struct ExportPaths {
    /// Merged Chrome trace destination.
    pub trace: Option<PathBuf>,
    /// Metrics snapshot destination (a `.prom` dump is written beside it).
    pub metrics: Option<PathBuf>,
    /// CSV/artifact directory of the run, if any.
    pub csv_dir: Option<PathBuf>,
}

impl ExportPaths {
    /// `true` when nothing was requested.
    pub fn is_empty(&self) -> bool {
        self.trace.is_none() && self.metrics.is_none()
    }

    fn manifest_dir(&self) -> Option<&Path> {
        self.csv_dir
            .as_deref()
            .or_else(|| self.metrics.as_deref().and_then(Path::parent))
            .or_else(|| self.trace.as_deref().and_then(Path::parent))
    }
}

/// Folds every instrumented subsystem into the metrics registry.
///
/// Counters that the run also bumps live (resilience retries/failures) are
/// `counter_set` here from the report, so the registry ends authoritative
/// and re-collecting is idempotent.
pub fn collect_run_metrics(report: &SuiteReport) {
    metrics::counter_set(
        "gnnmark_tensor_buffers_total",
        gnnmark_tensor::pool::global_stats().misses,
    );

    let busy = gnnmark_tensor::par::worker_busy_ns();
    let mut sum_ms = 0.0;
    let mut max_ms: f64 = 0.0;
    for (i, ns) in busy.iter().enumerate() {
        let ms = *ns as f64 / 1e6;
        metrics::gauge_set(&format!("gnnmark_par_worker_busy_ms{{worker=\"{i}\"}}"), ms);
        sum_ms += ms;
        max_ms = max_ms.max(ms);
    }
    // Load imbalance as max/mean busy time: 1.0 = perfectly even, higher =
    // one worker dominating (0.0 when tracking was off or nothing ran).
    let mean_ms = sum_ms / busy.len().max(1) as f64;
    let imbalance = if mean_ms > 0.0 { max_ms / mean_ms } else { 0.0 };
    metrics::gauge_set("gnnmark_par_load_imbalance", imbalance);
    // How many kernels forked: regions handed to the pool vs run inline.
    let (pooled, inline) = gnnmark_tensor::par::regions();
    metrics::counter_set("gnnmark_par_regions_total{path=\"pooled\"}", pooled);
    metrics::counter_set("gnnmark_par_regions_total{path=\"inline\"}", inline);

    metrics::counter_set(
        "gnnmark_autograd_tape_nodes_total",
        gnnmark_autograd::tape_nodes_recorded(),
    );
    metrics::gauge_set(
        "gnnmark_activation_bytes_peak",
        gnnmark_autograd::activation_bytes_peak() as f64,
    );
    metrics::counter_set(
        "gnnmark_amp_skipped_steps_total",
        gnnmark_autograd::amp::skipped_steps_total(),
    );
    metrics::counter_set(
        "gnnmark_amp_overflows_total",
        gnnmark_autograd::amp::overflows_total(),
    );
    metrics::gauge_set(
        "gnnmark_amp_loss_scale",
        f64::from(gnnmark_autograd::amp::last_loss_scale()),
    );

    let mut param_bytes = 0u64;
    for (_, art) in report.artifacts() {
        param_bytes += art.grad_bytes;
    }
    // Sum of per-workload parameter payloads at storage precision: under
    // `--precision fp16|bf16` this lands at half the fp32 figure.
    metrics::gauge_set("gnnmark_param_bytes_total", param_bytes as f64);

    let mut kernels = 0u64;
    let mut bytes = 0u64;
    let mut sparsity_weighted = 0.0;
    for (kind, art) in report.artifacts() {
        kernels += art.profile.kernels.len() as u64;
        bytes += art.profile.h2d_bytes;
        sparsity_weighted += art.profile.mean_sparsity * art.profile.h2d_bytes as f64;
        metrics::gauge_set(
            &format!(
                "gnnmark_workload_modeled_ms{{workload=\"{}\"}}",
                kind.label()
            ),
            art.profile.total_time_ns() / 1e6,
        );
    }
    metrics::counter_set("gnnmark_kernels_recorded_total", kernels);
    metrics::counter_set("gnnmark_kernels_simulated_total", kernels);
    metrics::counter_set("gnnmark_transfer_bytes_total", bytes);
    if bytes > 0 {
        metrics::gauge_set(
            "gnnmark_transfer_mean_sparsity",
            sparsity_weighted / bytes as f64,
        );
    }

    let mut retries = 0u64;
    let mut failures = 0u64;
    for o in &report.outcomes {
        retries += o.attempts.saturating_sub(1) as u64;
        if !o.succeeded() {
            failures += 1;
        }
        metrics::gauge_set(
            &format!(
                "gnnmark_workload_wall_ms{{workload=\"{}\"}}",
                o.kind.label()
            ),
            o.wall.as_secs_f64() * 1e3,
        );
    }
    metrics::counter_set("gnnmark_resilience_retries_total", retries);
    metrics::counter_set("gnnmark_resilience_failures_total", failures);
}

/// Builds the run manifest from a report.
pub fn run_manifest(target: &str, cfg: &SuiteConfig, report: &SuiteReport) -> RunManifest {
    let workloads = report
        .outcomes
        .iter()
        .map(|o| ManifestWorkload {
            name: o.kind.label().to_string(),
            status: o.status.label().to_string(),
            wall_ms: o.wall.as_secs_f64() * 1e3,
            modeled_ms: o
                .artifacts()
                .map_or(0.0, |a| a.profile.total_time_ns() / 1e6),
            attempts: o.attempts as u32,
        })
        .collect();
    RunManifest {
        target: target.to_string(),
        seed: cfg.seed,
        scale: cfg.scale.label().to_string(),
        threads: cfg.threads.unwrap_or_else(gnnmark_tensor::par::threads),
        device: cfg.device.name.clone(),
        precision: cfg.precision.as_str().to_string(),
        mode: cfg.mode.key(),
        workloads,
        status: if report.all_succeeded() {
            "ok"
        } else {
            "partial"
        }
        .to_string(),
    }
}

/// Writes the requested artifacts and returns every path written.
///
/// Drains the host span sink ([`gnnmark_telemetry::take_host_trace`]) for
/// the merged trace, snapshots the metrics registry (after
/// [`collect_run_metrics`]), and drops a `manifest.json` whenever any
/// artifact was requested.
///
/// # Errors
/// Propagates filesystem errors from writing any artifact.
pub fn export_artifacts(
    target: &str,
    cfg: &SuiteConfig,
    report: &SuiteReport,
    paths: &ExportPaths,
) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    if paths.is_empty() {
        return Ok(written);
    }
    collect_run_metrics(report);
    if let Some(trace_path) = &paths.trace {
        let host = gnnmark_telemetry::take_host_trace();
        let profiles: Vec<_> = report
            .artifacts()
            .into_iter()
            .map(|(_, a)| a.profile.clone())
            .collect();
        let json = gnnmark_profiler::to_merged_chrome_trace(&host, &profiles);
        write_creating_dir(trace_path, &json)?;
        written.push(trace_path.clone());
    }
    if let Some(metrics_path) = &paths.metrics {
        let snap = metrics::snapshot();
        write_creating_dir(metrics_path, &metrics_json(&snap))?;
        written.push(metrics_path.clone());
        let prom_path = prom_path_for(metrics_path);
        write_creating_dir(&prom_path, &metrics_prometheus(&snap))?;
        written.push(prom_path);
    }
    if let Some(dir) = paths.manifest_dir() {
        let manifest_path = if dir.as_os_str().is_empty() {
            PathBuf::from("manifest.json")
        } else {
            dir.join("manifest.json")
        };
        let manifest = run_manifest(target, cfg, report);
        write_creating_dir(&manifest_path, &manifest.to_json())?;
        written.push(manifest_path);
    }
    Ok(written)
}

/// `metrics.json` → `metrics.json.prom` (appended, not replaced, so two
/// metrics files in one directory never collide on the dump name).
fn prom_path_for(metrics_path: &Path) -> PathBuf {
    let mut s = metrics_path.as_os_str().to_os_string();
    s.push(".prom");
    PathBuf::from(s)
}

fn write_creating_dir(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_workload_resilient, ResilienceConfig};
    use gnnmark_telemetry::export::validate_json;
    use gnnmark_workloads::WorkloadKind;

    fn tiny_report() -> SuiteReport {
        let cfg = SuiteConfig::test();
        let o = run_workload_resilient(WorkloadKind::Tlstm, &cfg, &ResilienceConfig::default());
        SuiteReport { outcomes: vec![o] }
    }

    #[test]
    fn collect_run_metrics_populates_registry() {
        let report = tiny_report();
        collect_run_metrics(&report);
        let snap = metrics::snapshot();
        let has = |name: &str| snap.iter().any(|(k, _)| k == name);
        for name in [
            "gnnmark_tensor_buffers_total",
            "gnnmark_kernels_recorded_total",
            "gnnmark_transfer_bytes_total",
            "gnnmark_resilience_retries_total",
            "gnnmark_workload_wall_ms{workload=\"TLSTM\"}",
            "gnnmark_workload_modeled_ms{workload=\"TLSTM\"}",
        ] {
            assert!(has(name), "missing metric {name}");
        }
        // Idempotent: collecting twice leaves the counters unchanged.
        let before = metrics::get("gnnmark_kernels_recorded_total");
        collect_run_metrics(&report);
        assert_eq!(metrics::get("gnnmark_kernels_recorded_total"), before);
    }

    #[test]
    fn export_artifacts_writes_trace_metrics_and_manifest() {
        let dir = std::env::temp_dir().join(format!("gnnmark_obs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = tiny_report();
        let cfg = SuiteConfig::test();
        let paths = ExportPaths {
            trace: Some(dir.join("trace.json")),
            metrics: Some(dir.join("metrics.json")),
            csv_dir: None,
        };
        let written = export_artifacts("tlstm", &cfg, &report, &paths).unwrap();
        assert_eq!(written.len(), 4, "{written:?}"); // trace, metrics, prom, manifest
        for p in &written {
            assert!(p.exists(), "{p:?} not written");
        }
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        validate_json(&trace).expect("trace is valid JSON");
        let metrics_text = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        validate_json(&metrics_text).expect("metrics snapshot is valid JSON");
        assert!(
            metrics_text.contains("gnnmark_tensor_buffers_total"),
            "{metrics_text}"
        );
        let prom = std::fs::read_to_string(dir.join("metrics.json.prom")).unwrap();
        assert!(
            prom.contains("# TYPE gnnmark_tensor_buffers_total counter"),
            "{prom}"
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        validate_json(&manifest).expect("manifest is valid JSON");
        for field in [
            "\"target\": \"tlstm\"",
            "\"scale\": \"test\"",
            "\"workloads\": [",
        ] {
            assert!(manifest.contains(field), "missing {field} in {manifest}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_artifacts_noop_when_nothing_requested() {
        let report = tiny_report();
        let cfg = SuiteConfig::test();
        let written = export_artifacts("tlstm", &cfg, &report, &ExportPaths::default()).unwrap();
        assert!(written.is_empty());
    }
}
