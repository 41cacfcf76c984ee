//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repo root declares the same sets; a unit test keeps them equal.

/// Kernel threads, passed explicitly to every run (never auto-detected).
pub const KERNEL_THREADS: usize = 2;
/// Campaign worker threads.
pub const CAMPAIGN_WORKERS: usize = 2;
/// Daemon worker threads per campaign.
pub const DAEMON_WORKERS: usize = 1;
/// Seconds one run measures unless `--seconds` says otherwise.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Default dataset / init / sampler seed.
pub const DEFAULT_SEED: u64 = 42;
/// Fresh processes whose set-up time is taken per run; the median is
/// reported.
pub const SETUP_SAMPLES: usize = 3;
/// A child still running after this long is killed and counted as failed.
pub const CHILD_DEADLINE_S: u64 = 150;

/// The workloads; `BENCHMARK.json` and the README say why each exists.
pub const WORKLOADS: [&str; 5] = [
    "train_full",
    "train_minibatch",
    "infer_fwd",
    "replay_sweep",
    "serve_jobs",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

pub const E2E: [E2e; 6] = [
    E2e {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    E2e {
        name: "kernels_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    E2e {
        name: "req_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "req_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric; the part before the first `.` is the layer (crate).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const LAYERS: [Layer; 51] = [
    lower("graph.build_s", "s"),
    lower("graph.sample_s", "s"),
    lower("graph.sample_edges", "count"),
    lower("nn.forward_s", "s"),
    lower("autograd.fwd_bwd_s", "s"),
    lower("autograd.tape_bwd_s", "s"),
    lower("autograd.tape_nodes", "count"),
    lower("autograd.activation_peak_mb", "MiB"),
    lower("tensor.gemm_384_ms", "ms"),
    lower("tensor.spmm_4k_32knnz_ms", "ms"),
    lower("tensor.scatter_add_32k_ms", "ms"),
    lower("tensor.relu_1m_ms", "ms"),
    lower("tensor.softmax_32kx32_ms", "ms"),
    higher("tensor.pool_hit_pct", "%"),
    lower("tensor.pool_misses", "count"),
    lower("workloads.epoch_s", "s"),
    lower("workloads.steps", "count"),
    lower("workloads.kernels", "count"),
    lower("workloads.host_compute_s", "s"),
    lower("gpusim.execute_s", "s"),
    lower("gpusim.ns_per_event", "ns"),
    lower("gpusim.cache_sim_s", "s"),
    lower("gpusim.timing_s", "s"),
    lower("gpusim.class_s.gemm", "s"),
    lower("gpusim.class_s.spmm", "s"),
    lower("gpusim.class_s.elementwise", "s"),
    lower("gpusim.class_s.scatter_gather", "s"),
    lower("gpusim.class_s.reduction", "s"),
    lower("gpusim.class_s.other", "s"),
    lower("gpusim.modeled_ms", "ms"),
    higher("gpusim.l1_hit_pct", "%"),
    higher("gpusim.l2_hit_pct", "%"),
    higher("gpusim.ipc", "1/cycle"),
    lower("profiler.replay_s", "s"),
    lower("profiler.build_profile_s", "s"),
    lower("core.figures_s", "s"),
    lower("core.suite_overhead_s", "s"),
    lower("report.render_s", "s"),
    lower("report.kb", "KiB"),
    lower("serve.encode_s", "s"),
    lower("serve.decode_s", "s"),
    lower("serve.cache_store_s", "s"),
    lower("serve.cache_load_s", "s"),
    lower("serve.stream_mb", "MiB"),
    lower("serve.wal_append_ms", "ms"),
    lower("serve.lease_claim_ms", "ms"),
    lower("serve.http_healthz_p50_ms", "ms"),
    lower("serve.http_status_p50_ms", "ms"),
    lower("serve.http_submit_p50_ms", "ms"),
    lower("serve.job_polls", "count"),
    lower("bench.trace_overhead_pct", "%"),
];

/// Simulated statistics and counts that repeat exactly for one seed: a
/// simulator or kernel speed-up must leave them identical.
pub const EXACT_REPEAT: [&str; 6] = [
    "gpusim.modeled_ms",
    "gpusim.l1_hit_pct",
    "gpusim.l2_hit_pct",
    "gpusim.ipc",
    "workloads.kernels",
    "autograd.tape_nodes",
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.contains(&name)
}

pub fn e2e(name: &str) -> Option<&'static E2e> {
    E2E.iter().find(|m| m.name == name)
}

/// Unit and direction of any declared metric.
pub fn describe(name: &str) -> Option<(&'static str, Better)> {
    e2e(name).map(|m| (m.unit, m.better)).or_else(|| {
        LAYERS
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.unit, m.better))
    })
}

pub fn unit_of(name: &str) -> &'static str {
    describe(name).map_or("", |(unit, _)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_telemetry::export::{parse_json, JsonValue};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(manifest: &JsonValue, key: &str) -> Vec<JsonValue> {
        manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array \"{key}\""))
            .to_vec()
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("missing \"{key}\""))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(E2E.iter().map(|m| m.name));
        all.extend(LAYERS.iter().map(|m| m.name));
        for n in &all {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
        for n in EXACT_REPEAT {
            assert!(
                LAYERS.iter().any(|m| m.name == n),
                "{n} is not a layer metric"
            );
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = e2e("setup_s").expect("setup_s is declared");
        assert!(E2E
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest = parse_json(&text).expect("BENCHMARK.json parses");

        let workloads = declared(&manifest, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, name) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(w, "name"), name);
            let why = field(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let e2e = declared(&manifest, "end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (d, m) in e2e.iter().zip(E2E) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit);
            assert_eq!(field(d, "better"), m.better.as_str());
            assert_eq!(d.get("bound").and_then(JsonValue::as_f64), Some(m.bound));
        }

        let layers = declared(&manifest, "per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (d, m) in layers.iter().zip(LAYERS) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit);
            assert_eq!(field(d, "better"), m.better.as_str());
        }

        assert_eq!(
            manifest.get("run_seconds").and_then(JsonValue::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
