//! A small process-wide metrics registry: counters, gauges and summary
//! histograms keyed by name.
//!
//! The registry is deliberately simple — a mutex around a sorted map —
//! because GNNMark updates metrics at *run* granularity (once per epoch,
//! per workload, or per export), never inside kernel hot loops. Hot-path
//! signals (tensor buffers, worker busy time, tape nodes) are accumulated in
//! their owning crates with relaxed atomics and only *read into* the
//! registry when a snapshot is taken.
//!
//! Label sets are encoded into the key itself, Prometheus-style:
//! `gnnmark_workload_wall_ms{workload="STGCN"}`. The exporters in
//! [`crate::export`] understand that convention.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Maximum number of *finite* bucket bounds a bucketed histogram holds
/// (the implicit `+Inf` bucket rides in one extra slot). Fixed so
/// [`MetricValue`] stays `Copy`.
pub const MAX_BUCKETS: usize = 16;

/// The shared request-latency bucket boundaries, seconds. Both the serve
/// daemon's per-route histograms and `gnnmark loadtest` observe into
/// these, so dashboard and SLO-harness quantiles come from one counter
/// family.
pub const LATENCY_BUCKETS_S: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// One metric's current value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Summary of observed samples.
    Histogram {
        /// Number of samples observed.
        count: u64,
        /// Sum of all samples.
        sum: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
    },
    /// Fixed-boundary bucketed histogram (Prometheus `histogram` type).
    Buckets {
        /// Ascending finite upper bounds; samples ≤ `bounds[i]` land in
        /// bucket `i`, the rest in the implicit `+Inf` bucket at
        /// `counts[bounds.len()]`.
        bounds: &'static [f64],
        /// Per-bucket (non-cumulative) sample counts; only the first
        /// `bounds.len() + 1` slots are meaningful.
        counts: [u64; MAX_BUCKETS + 1],
        /// Number of samples observed.
        count: u64,
        /// Sum of all samples.
        sum: f64,
    },
}

impl MetricValue {
    /// Bucketed histogram as `(bounds, per-bucket counts, count, sum)`
    /// where `counts.len() == bounds.len() + 1` (last slot is `+Inf`), or
    /// `None` for other variants.
    pub fn as_buckets(&self) -> Option<(&'static [f64], &[u64], u64, f64)> {
        match self {
            MetricValue::Buckets {
                bounds,
                counts,
                count,
                sum,
            } => Some((bounds, &counts[..bounds.len() + 1], *count, *sum)),
            _ => None,
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) of a bucketed histogram:
    /// nearest-rank bucket selection with linear interpolation inside the
    /// bucket, the same estimate Prometheus' `histogram_quantile` makes.
    /// Samples in the `+Inf` bucket clamp to the largest finite bound.
    /// `None` for non-bucketed variants or when no samples were observed.
    pub fn bucket_quantile(&self, q: f64) -> Option<f64> {
        let (bounds, counts, count, _) = self.as_buckets()?;
        if count == 0 || bounds.is_empty() {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev_seen = seen;
            seen += c;
            if seen >= rank {
                let upper = if i < bounds.len() {
                    bounds[i]
                } else {
                    return Some(bounds[bounds.len() - 1]);
                };
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let into = (rank - prev_seen) as f64 / c as f64;
                return Some(lower + (upper - lower) * into);
            }
        }
        Some(bounds[bounds.len() - 1])
    }
}

/// Nearest-rank percentile over unsorted samples, `q` in 0–1: the smallest
/// sample with at least `q` of the samples at or below it (0.0 when there
/// are none). The one definition behind `gnnmark infer`, `gnnmark
/// loadtest` and the report's latency panel.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

static REGISTRY: Mutex<BTreeMap<String, MetricValue>> = Mutex::new(BTreeMap::new());

/// Adds `delta` to the named counter, creating it at zero first.
pub fn counter_add(name: &str, delta: u64) {
    let mut reg = REGISTRY.lock().unwrap();
    match reg.get_mut(name) {
        Some(MetricValue::Counter(v)) => *v += delta,
        _ => {
            reg.insert(name.to_string(), MetricValue::Counter(delta));
        }
    }
}

/// Sets the named counter to an absolute value (for sources that already
/// aggregate, e.g. the process-wide tensor buffer count).
pub fn counter_set(name: &str, value: u64) {
    REGISTRY
        .lock()
        .unwrap()
        .insert(name.to_string(), MetricValue::Counter(value));
}

/// Sets the named gauge.
pub fn gauge_set(name: &str, value: f64) {
    REGISTRY
        .lock()
        .unwrap()
        .insert(name.to_string(), MetricValue::Gauge(value));
}

/// Folds one sample into the named histogram.
pub fn observe(name: &str, sample: f64) {
    let mut reg = REGISTRY.lock().unwrap();
    match reg.get_mut(name) {
        Some(MetricValue::Histogram {
            count,
            sum,
            min,
            max,
        }) => {
            *count += 1;
            *sum += sample;
            *min = min.min(sample);
            *max = max.max(sample);
        }
        _ => {
            reg.insert(
                name.to_string(),
                MetricValue::Histogram {
                    count: 1,
                    sum: sample,
                    min: sample,
                    max: sample,
                },
            );
        }
    }
}

/// Folds one sample into the named fixed-bucket histogram. `bounds` must
/// be ascending, non-empty, and at most [`MAX_BUCKETS`] long (the shared
/// [`LATENCY_BUCKETS_S`] set satisfies all three); the first observation
/// pins the bucket layout and later calls reuse it.
pub fn observe_bucketed(name: &str, sample: f64, bounds: &'static [f64]) {
    assert!(
        !bounds.is_empty() && bounds.len() <= MAX_BUCKETS,
        "observe_bucketed: 1..={MAX_BUCKETS} bounds required"
    );
    let mut reg = REGISTRY.lock().unwrap();
    match reg.get_mut(name) {
        Some(MetricValue::Buckets {
            bounds,
            counts,
            count,
            sum,
        }) => {
            let idx = bounds
                .iter()
                .position(|&b| sample <= b)
                .unwrap_or(bounds.len());
            counts[idx] += 1;
            *count += 1;
            *sum += sample;
        }
        _ => {
            let mut counts = [0u64; MAX_BUCKETS + 1];
            let idx = bounds
                .iter()
                .position(|&b| sample <= b)
                .unwrap_or(bounds.len());
            counts[idx] = 1;
            reg.insert(
                name.to_string(),
                MetricValue::Buckets {
                    bounds,
                    counts,
                    count: 1,
                    sum: sample,
                },
            );
        }
    }
}

/// A sorted copy of every registered metric.
pub fn snapshot() -> Vec<(String, MetricValue)> {
    REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Reads one metric by exact name.
pub fn get(name: &str) -> Option<MetricValue> {
    REGISTRY.lock().unwrap().get(name).copied()
}

/// Clears the registry (tests, or between independent runs).
pub fn reset() {
    REGISTRY.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; give each test its own key prefix so
    // they can run concurrently.

    #[test]
    fn counters_accumulate_and_set_overrides() {
        counter_add("t1_requests", 2);
        counter_add("t1_requests", 3);
        assert_eq!(get("t1_requests"), Some(MetricValue::Counter(5)));
        counter_set("t1_requests", 7);
        assert_eq!(get("t1_requests"), Some(MetricValue::Counter(7)));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        gauge_set("t2_rate", 0.25);
        gauge_set("t2_rate", 0.75);
        assert_eq!(get("t2_rate"), Some(MetricValue::Gauge(0.75)));
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        observe("t3_lat", 4.0);
        observe("t3_lat", 1.0);
        observe("t3_lat", 10.0);
        match get("t3_lat") {
            Some(MetricValue::Histogram {
                count,
                sum,
                min,
                max,
            }) => {
                assert_eq!(count, 3);
                assert!((sum - 15.0).abs() < 1e-12);
                assert!((min - 1.0).abs() < 1e-12);
                assert!((max - 10.0).abs() < 1e-12);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn bucketed_histograms_count_per_bucket() {
        let bounds: &[f64] = &[0.1, 1.0, 10.0];
        observe_bucketed("t6_lat", 0.05, bounds);
        observe_bucketed("t6_lat", 0.5, bounds);
        observe_bucketed("t6_lat", 0.7, bounds);
        observe_bucketed("t6_lat", 99.0, bounds);
        let v = get("t6_lat").unwrap();
        let (b, counts, count, sum) = v.as_buckets().unwrap();
        assert_eq!(b, bounds);
        assert_eq!(counts, [1, 2, 0, 1]);
        assert_eq!(count, 4);
        assert!((sum - 100.25).abs() < 1e-9);
        // Non-bucket variants return None.
        observe("t6_plain", 1.0);
        assert!(get("t6_plain").unwrap().as_buckets().is_none());
    }

    #[test]
    fn bucket_quantiles_interpolate() {
        let bounds: &[f64] = &[0.1, 1.0];
        for _ in 0..9 {
            observe_bucketed("t7_lat", 0.05, bounds);
        }
        observe_bucketed("t7_lat", 0.5, bounds);
        let v = get("t7_lat").unwrap();
        // p50 lands mid-way through the first bucket (rank 5 of 9 samples).
        let p50 = v.bucket_quantile(0.5).unwrap();
        assert!(p50 > 0.0 && p50 <= 0.1, "p50 {p50}");
        // p99 → rank 10, the lone sample in (0.1, 1.0].
        let p99 = v.bucket_quantile(0.99).unwrap();
        assert!(p99 > 0.1 && p99 <= 1.0, "p99 {p99}");
        // +Inf samples clamp to the top finite bound.
        observe_bucketed("t7_inf", 5.0, bounds);
        assert_eq!(get("t7_inf").unwrap().bucket_quantile(0.5), Some(1.0));
        // Empty / wrong-variant → None.
        observe("t7_plain", 1.0);
        assert!(get("t7_plain").unwrap().bucket_quantile(0.5).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [40.0, 10.0, 20.0, 30.0];
        assert_eq!(percentile(&samples, 0.5), 20.0);
        assert_eq!(percentile(&samples, 0.95), 40.0);
        assert_eq!(percentile(&samples, 0.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        counter_add("t4_b", 1);
        counter_add("t4_a", 1);
        let names: Vec<_> = snapshot()
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("t4_"))
            .collect();
        assert_eq!(names, ["t4_a", "t4_b"]);
    }
}
