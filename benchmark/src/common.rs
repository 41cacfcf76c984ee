//! What every workload shares: run parameters, the outcome a child
//! process reports, peak RSS, and a scratch directory that removes itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats;

/// Everything the benchmark writes lives under here (git-ignored).
pub const OUT_DIR: &str = "benchmark/out";

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Dataset / init / sampler seed.
    pub seed: u64,
    /// Seconds the timed section measures.
    pub seconds: f64,
    /// Smoke mode: `Scale::Test`, one timed pass, 2 s serve window.
    pub quick: bool,
    /// Stop after set-up (set-up time sampling in a fresh process).
    pub setup_only: bool,
    /// When the process started; `setup_s` counts from here.
    pub started: Instant,
}

impl Params {
    pub fn scale(&self) -> gnnmark::Scale {
        if self.quick {
            gnnmark::Scale::Test
        } else {
            gnnmark::Scale::Small
        }
    }

    /// Whether another timed pass should start: at least one always runs,
    /// quick mode stops there, otherwise passes fill `budget_s`.
    pub fn keep_going(&self, passes_done: usize, timed: Instant, budget_s: f64) -> bool {
        passes_done == 0 || (!self.quick && timed.elapsed().as_secs_f64() < budget_s)
    }
}

/// What a workload run reports back.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<String, u64>,
    /// Quartile spread of those samples as a share of their median.
    pub spread: BTreeMap<String, f64>,
    /// Operations attempted: one workload-kind run, one replayed config,
    /// one job or one request each.
    pub ops: u64,
    /// Operations that returned an error, a non-finite loss or a bad status.
    pub failed_ops: u64,
    /// Output checks that failed.
    pub check_failures: u64,
    /// One line per failed op or check.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Sets a timing metric to the median of its samples and records how
    /// many there were and how far apart.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        self.samples.insert(name.to_string(), samples.len() as u64);
        self.spread
            .insert(name.to_string(), stats::quartile_spread(samples));
    }

    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed_ops += 1;
            self.notes.push(format!("failed op: {}", what()));
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures += 1;
            self.notes.push(format!("failed check: {}", what()));
        }
    }

    /// The end-to-end metrics of a workload made of whole passes. The call
    /// its client waits on is the pass, so the request percentiles are
    /// taken over the same samples as `wall_s`: `req_p50_ms` restates it
    /// and `req_p95_ms` is the slow end of the passes. Only `serve_jobs`
    /// has requests that are finer than a pass.
    pub fn set_pass_metrics(&mut self, passes_s: &[f64], kernels_per_s: f64) {
        self.set_median("wall_s", passes_s);
        self.set("kernels_per_s", kernels_per_s);
        let ms: Vec<f64> = passes_s.iter().map(|s| s * 1e3).collect();
        self.set_request_latency(&ms);
        self.set("peak_rss_mb", peak_rss_mb());
    }

    /// Request latency percentiles over `samples_ms`; p95 is reported as
    /// measured and `samples` says whether ten lie beyond it.
    pub fn set_request_latency(&mut self, samples_ms: &[f64]) {
        self.set("req_p50_ms", stats::percentile(samples_ms, 0.50));
        self.set("req_p95_ms", stats::percentile(samples_ms, 0.95));
        for name in ["req_p50_ms", "req_p95_ms"] {
            self.samples
                .insert(name.to_string(), samples_ms.len() as u64);
        }
    }
}

/// Simulated kernel events per host second, kept per workload kind. The
/// workload's figure is the geometric mean of the kinds' rates: a seed that
/// hands one kind a deeper tree or a bigger graph changes that kind's
/// event count and time together and leaves the mean where it was, where
/// total events over total time would swing with the mix.
#[derive(Debug, Clone)]
pub struct KernelRates {
    events: Vec<u64>,
    seconds: Vec<f64>,
}

impl KernelRates {
    pub fn new(kinds: usize) -> Self {
        KernelRates {
            events: vec![0; kinds],
            seconds: vec![0.0; kinds],
        }
    }

    pub fn add(&mut self, kind: usize, events: u64, seconds: f64) {
        self.events[kind] += events;
        self.seconds[kind] += seconds;
    }

    /// Geometric mean over the kinds that simulated anything.
    pub fn per_second(&self) -> f64 {
        let logs: Vec<f64> = self
            .events
            .iter()
            .zip(&self.seconds)
            .filter(|(&e, &s)| e > 0 && s > 0.0)
            .map(|(&e, &s)| (e as f64 / s).ln())
            .collect();
        if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under [`OUT_DIR`] that is removed on drop, so a workload's
/// cache and store never outlive its process (the benchmark reads and
/// writes only inside its checkout).
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// The scratch directory of process `pid` (one per workload process).
    pub fn path_of(pid: u32) -> PathBuf {
        Path::new(OUT_DIR).join(format!("tmp-{pid}"))
    }

    pub fn new() -> std::io::Result<ScratchDir> {
        let dir = Self::path_of(std::process::id());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bitwise equality of two loss vectors (same seed ⇒ deterministic).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_rate_is_the_geometric_mean_of_kind_rates() {
        let mut r = KernelRates::new(3);
        r.add(0, 100, 1.0);
        r.add(0, 100, 1.0); // 100/s
        r.add(1, 10_000, 1.0); // 10 000/s
        assert!(
            (r.per_second() - 1000.0).abs() < 1e-9,
            "kind 2 simulated nothing and is left out"
        );
        assert_eq!(KernelRates::new(2).per_second(), 0.0);
    }
}
