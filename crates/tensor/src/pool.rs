//! Kernel output buffers: one acquisition call, counted.
//!
//! Every kernel that writes a fresh output asks [`zeroed`] for it. The
//! buffer is a plain `vec![0.0; len]`, and it goes back to the allocator
//! when its last handle drops; glibc's free lists reuse the chunk for the
//! next step's same-sized output. No buffer is retained here: a cache of
//! freed buffers held up to 64 MiB per thread for a hit rate of 3–13 %
//! (EXPERIMENTS.md, "The tensor pool is a memory knob").
//!
//! The count of acquisitions is kept process-wide so run-level consumers
//! (the telemetry metrics registry, the benchmark's per-layer rows) can
//! report how many buffers a run needs.

use std::sync::atomic::{AtomicU64, Ordering};

static ACQUIRED: AtomicU64 = AtomicU64::new(0);

/// Acquisition counters, aggregated across threads by [`global_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Always 0: no buffer is retained, so no acquisition reuses one. Kept
    /// so a consumer that reports a hit rate reads 0 % rather than break.
    pub hits: u64,
    /// Buffers acquired, every one freshly allocated.
    pub misses: u64,
}

impl PoolStats {
    /// Hits as a fraction of all acquisitions, or 0.0 before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot (saturating, so
    /// a snapshot taken out of order can't underflow).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A length-`len` buffer of zeros, counted as one acquisition.
pub fn zeroed(len: usize) -> Vec<f32> {
    ACQUIRED.fetch_add(1, Ordering::Relaxed);
    vec![0.0f32; len]
}

/// Acquisitions made on every thread since process start.
pub fn global_stats() -> PoolStats {
    PoolStats {
        hits: 0,
        misses: ACQUIRED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reset_and_hit_rate_and_since() {
        let s = PoolStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let earlier = PoolStats { hits: 1, misses: 1 };
        assert_eq!(s.since(&earlier), PoolStats { hits: 2, misses: 0 });
        assert_eq!(
            s.since(&PoolStats { hits: 4, misses: 2 }),
            PoolStats::default()
        );
        assert_eq!(PoolStats::default().hit_rate(), 0.0, "no traffic yet");
    }

    // Other tests in this process also acquire buffers concurrently, so the
    // global counter is asserted as a *delta with slack* (>=), never
    // exactly.
    #[test]
    fn global_stats_aggregate_across_threads() {
        let before = global_stats();
        let worker = std::thread::spawn(|| {
            let a = zeroed(48);
            let b = zeroed(48);
            assert!(a.iter().chain(&b).all(|&v| v == 0.0));
        });
        worker.join().unwrap();
        assert_eq!(zeroed(49).len(), 49);
        let delta = global_stats().since(&before);
        assert!(
            delta.misses >= 3,
            "both threads' acquisitions visible: {delta:?}"
        );
        assert_eq!(global_stats().hits, 0, "nothing is retained to hit");
    }
}
