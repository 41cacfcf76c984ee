//! `TensorPool`: thread-local reuse of tensor data buffers.
//!
//! Training steps allocate and free the same output shapes thousands of
//! times (every op's forward output, every backward kernel's gradient).
//! `vec![0.0; n]` pays an allocator round-trip plus first-touch page
//! faults on each call; the pool keeps recently dropped buffers bucketed by
//! exact length so the next same-shaped op reuses warm memory.
//!
//! Two acquisition modes keep determinism airtight:
//!
//! * [`zeroed`] — the buffer is memset to 0.0 (for accumulation kernels:
//!   GEMM, SpMM, scatter);
//! * [`filled`] — the buffer's contents are unspecified and the caller
//!   must overwrite every element (map-style kernels: element-wise, gather,
//!   softmax).
//!
//! Buffers come back via [`recycle`] / [`recycle_vec`] — the autograd tape
//! feeds consumed gradient temporaries here during the backward pass.
//! Tensor storage is shared and copy-on-write, so [`recycle`] takes a
//! buffer only from its last handle: one that a parameter, a reshape or
//! another tape node still holds is never handed out for overwriting. The
//! pool is strictly thread-local: parallel kernel workers never touch it
//! (they write into a caller-provided buffer), so no locks are paid.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Tensor;

/// Max buffers retained per distinct length.
const PER_BUCKET: usize = 16;
/// Max total f32 elements retained per thread (64 MiB).
const MAX_RETAINED_ELEMS: usize = 16 << 20;

#[derive(Default)]
struct PoolInner {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    retained_elems: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

thread_local! {
    static POOL: RefCell<PoolInner> = RefCell::default();
}

// Cross-thread aggregates, bumped alongside the thread-local counters with
// relaxed ordering (one uncontended atomic add next to a HashMap probe).
// These let run-level consumers (the telemetry metrics registry) see pool
// effectiveness across every worker thread, not just the caller's.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_RECYCLED: AtomicU64 = AtomicU64::new(0);

/// Counters describing pool effectiveness (per thread, or aggregated
/// across threads via [`global_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served from a recycled buffer.
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
}

impl PoolStats {
    /// Zeroes every counter in place.
    pub fn reset(&mut self) {
        *self = PoolStats::default();
    }

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
    /// a reset between snapshots can't underflow).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            recycled: self.recycled.saturating_sub(earlier.recycled),
        }
    }
}

fn take(len: usize) -> Option<Vec<f32>> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let buf = p.buckets.get_mut(&len).and_then(Vec::pop);
        if buf.is_some() {
            p.retained_elems -= len;
            p.hits += 1;
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
        } else {
            p.misses += 1;
            GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        buf
    })
}

/// A length-`len` buffer of zeros, reusing a recycled allocation when one
/// of the exact length is available.
pub fn zeroed(len: usize) -> Vec<f32> {
    match take(len) {
        Some(mut buf) => {
            buf.fill(0.0);
            buf
        }
        None => vec![0.0f32; len],
    }
}

/// A length-`len` buffer with **unspecified contents** (a recycled buffer
/// is returned as-is). Callers must write every element before the buffer
/// becomes observable; all in-crate users are full-overwrite kernels.
pub fn filled(len: usize) -> Vec<f32> {
    take(len).unwrap_or_else(|| vec![0.0f32; len])
}

/// Returns a tensor's data buffer to the pool — if `t` is the only handle
/// to it. Tensor storage is shared (see [`Tensor`]): a buffer that a clone,
/// a reshape or a tape node still reads stays theirs, and `t` is simply
/// dropped, without a copy. The last handle to reach here recycles it.
pub fn recycle(t: Tensor) {
    if let Some(v) = t.into_unique_vec() {
        recycle_vec(v);
    }
}

/// Returns a raw buffer to the pool. Buffers whose capacity differs from
/// their length (or that would exceed retention caps) are dropped.
pub fn recycle_vec(v: Vec<f32>) {
    let len = v.len();
    if len == 0 || v.capacity() != len {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.retained_elems + len > MAX_RETAINED_ELEMS {
            return;
        }
        let bucket = p.buckets.entry(len).or_default();
        if bucket.len() >= PER_BUCKET {
            return;
        }
        bucket.push(v);
        p.retained_elems += len;
        p.recycled += 1;
        GLOBAL_RECYCLED.fetch_add(1, Ordering::Relaxed);
    });
}

/// This thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            recycled: p.recycled,
        }
    })
}

/// Pool counters aggregated across **every** thread that has touched a
/// pool since process start.
pub fn global_stats() -> PoolStats {
    PoolStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        recycled: GLOBAL_RECYCLED.load(Ordering::Relaxed),
    }
}

/// Drops every retained buffer and zeroes this thread's counters.
///
/// The suite calls this where a workload starts. The pool buckets by exact
/// length and never evicts, so without it the first workload of a process
/// fills [`MAX_RETAINED_ELEMS`] with its shapes and every later workload's
/// buffers are refused at the cap: memory held for nothing, and misses on
/// every acquisition. The gain is memory, not time (EXPERIMENTS.md,
/// "Simulation overlap").
pub fn clear() {
    POOL.with(|p| *p.borrow_mut() = PoolInner::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reuses_and_rezeros() {
        clear();
        let mut a = zeroed(128);
        a.iter_mut().for_each(|v| *v = 7.0);
        recycle_vec(a);
        let b = zeroed(128);
        assert!(b.iter().all(|&v| v == 0.0));
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.recycled, 1);
        clear();
    }

    #[test]
    fn filled_keeps_contents_and_length_buckets_are_exact() {
        clear();
        let mut a = zeroed(64);
        a[0] = 3.5;
        recycle_vec(a);
        // Different length: miss.
        let b = filled(65);
        assert_eq!(b.len(), 65);
        // Same length: the recycled buffer comes back verbatim.
        let c = filled(64);
        assert_eq!(c[0], 3.5);
        clear();
    }

    #[test]
    fn bucket_cap_is_enforced() {
        clear();
        for _ in 0..(PER_BUCKET + 4) {
            recycle_vec(vec![0.0; 8]);
        }
        assert_eq!(stats().recycled, PER_BUCKET as u64);
        clear();
    }

    #[test]
    fn recycling_tensor_roundtrips() {
        clear();
        recycle(Tensor::ones(&[4, 4]));
        assert_eq!(stats().recycled, 1);
        let v = filled(16);
        assert!(v.iter().all(|&x| x == 1.0));
        clear();
    }

    #[test]
    fn recycling_a_shared_tensor_neither_recycles_nor_copies() {
        clear();
        let a = Tensor::ones(&[4, 4]);
        let b = a.clone();
        let view = a.reshape(&[16]).unwrap();
        let buf = a.as_slice().as_ptr();
        recycle(a);
        recycle(view);
        assert_eq!(stats().recycled, 0, "two other handles still read it");
        assert_eq!(b.as_slice().as_ptr(), buf, "the survivor was not copied");
        assert!(b.as_slice().iter().all(|&x| x == 1.0));
        recycle(b);
        assert_eq!(stats().recycled, 1, "the last handle gives the buffer back");
        let reused = filled(16);
        assert_eq!(reused.as_ptr(), buf);
        clear();
    }

    #[test]
    fn stats_reset_and_hit_rate_and_since() {
        let mut s = PoolStats {
            hits: 3,
            misses: 1,
            recycled: 2,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let earlier = PoolStats {
            hits: 1,
            misses: 1,
            recycled: 0,
        };
        assert_eq!(
            s.since(&earlier),
            PoolStats {
                hits: 2,
                misses: 0,
                recycled: 2
            }
        );
        s.reset();
        assert_eq!(s, PoolStats::default());
        assert_eq!(s.hit_rate(), 0.0, "no traffic yet");
    }

    // Other tests in this process also drive the pool concurrently, so the
    // global counters are asserted as *deltas with slack* (>=), never
    // exactly.
    #[test]
    fn global_stats_aggregate_across_threads() {
        let before = global_stats();
        let worker = std::thread::spawn(|| {
            // Fresh thread → fresh thread-local pool: miss, recycle, hit.
            let buf = filled(48);
            recycle_vec(buf);
            let _ = filled(48);
        });
        worker.join().unwrap();
        // This thread contributes a miss on a length no other test uses.
        let _ = filled(49);
        let delta = global_stats().since(&before);
        assert!(delta.hits >= 1, "worker hit visible globally: {delta:?}");
        assert!(delta.misses >= 2, "both threads' misses visible: {delta:?}");
        assert!(delta.recycled >= 1, "worker recycle visible: {delta:?}");
    }
}
