//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, the "highest percentile with at least ten samples beyond
//! it" rule, and the quartile spread the agreement criterion uses.

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile, `q` in 0–1; 0.0 on no samples. The suite's
/// own, so the benchmark and `gnnmark infer` rank the same way.
pub use gnnmark::infer::percentile;

/// Median (mean of the two middle samples on an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond its nearest rank, or `None` when even p75 has fewer.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        n >= rank + MIN_BEYOND
    })
}

/// Distance between the first and third quartile as a share of the
/// median — Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), which is what the acceptance driver computes.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let v = sorted(samples);
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.34), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190: exactly ten lie beyond.
        assert_eq!(highest_resolved_percentile(200), Some(0.95));
        assert_eq!(highest_resolved_percentile(199), Some(0.90));
        assert_eq!(highest_resolved_percentile(1000), Some(0.99));
        assert_eq!(highest_resolved_percentile(100), Some(0.90));
        assert_eq!(highest_resolved_percentile(40), Some(0.75));
        assert_eq!(highest_resolved_percentile(39), None);
        assert_eq!(highest_resolved_percentile(0), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }
}
