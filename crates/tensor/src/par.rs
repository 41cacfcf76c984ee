//! Parallel execution layer for the tensor kernels.
//!
//! A small, hand-rolled, persistent thread pool (the containers build
//! offline, so no rayon/crossbeam) plus deterministic work-partitioning
//! helpers. Every parallel kernel in this crate is written so that its
//! result is **bit-identical for every thread count**: output regions are
//! disjoint per task and each output element is accumulated in exactly the
//! same floating-point order as the sequential implementation. Partitioning
//! therefore only changes *who* computes an element, never *how*.
//!
//! The global degree of parallelism is configured once per process:
//!
//! * environment: `GNNMARK_THREADS=N` (read lazily on first use),
//! * programmatically: [`set_threads`] (the `gnnmark` CLI's `--threads`),
//! * default: [`std::thread::available_parallelism`].
//!
//! With one thread everything runs inline on the caller — no pool threads
//! are spawned and no synchronization is paid. Instrumentation events are
//! always emitted by the *calling* thread after the parallel region joins,
//! so the thread-local op recorder (see [`crate::record`]) observes exactly
//! the same event stream at every thread count.
//!
//! # The grain: does this kernel fork?
//!
//! GNN training is a stream of many small kernels, and one condvar
//! fork/join on the baseline box costs 20–60 µs (more when the helper it
//! wakes shares a core with the `gnnmark-sim` thread) — an order of
//! magnitude above the typical kernel. The decision is therefore made
//! once, here, in units of *time*: a kernel hands `chunks` (or `split` /
//! `fill_chunks`) its work in units and its family's `Cost` per unit, and
//! gets back how many chunks to cut, each worth at least `GRAIN_NS`
//! (100 µs) of estimated single-thread work. Anything under two grains
//! runs inline on the caller with zero hand-offs. `--threads` /
//! `GNNMARK_THREADS` only *cap* the chunk count, so more threads help
//! exactly the kernels that are above the grain.
//!
//! The per-family `Cost`s are the single-thread (`_t1`) medians of
//! `BENCH_kernels.json` divided by the kernel's unit count on the baseline
//! box, rounded up; the families that bench has no leg for (convolution
//! and its gradients, the libm element-wise ops, how badly a scatter
//! splits) were timed once on the same box at forced one- and two-chunk
//! plans. They are estimates, and only their order of magnitude matters:
//! end-to-end wall-clock is flat for grains from 100 µs to 800 µs
//! (EXPERIMENTS.md, "Fork/join grain"), because the grain sits a few
//! hand-offs above the fork/join cost, not at it. Because every kernel
//! fixes each output element's accumulation order independently of the
//! partition, moving the grain moves wall-clock only.
//!
//! Tests of thread parity use shapes far below the grain, which would all
//! plan one chunk and compare the inline path with itself. [`force_split`]
//! is the scoped, thread-local seam that makes every region on the calling
//! thread split into [`threads`] chunks, and [`regions`] counts how many
//! regions really went to the pool, so those tests can assert they did.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard upper bound on the configurable thread count.
pub const MAX_THREADS: usize = 64;

/// The minimum worthwhile chunk, in estimated single-thread nanoseconds: a
/// few fork/join hand-offs. The one threshold every kernel's fork decision
/// goes through (see the module docs and [`chunks`]).
const GRAIN_NS: u64 = 100_000;

/// Estimated single-thread cost of one unit of a kernel family's work, in
/// picoseconds: the `_t1` medians of `BENCH_kernels.json` (and, for the
/// families it has no `_t1` leg for, a one-off measurement on the same box)
/// divided by the kernel's unit count and rounded up to a round number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cost(u64);

impl Cost {
    /// One multiply-accumulate of the blocked GEMM micro-kernel
    /// (`gemm_384_t1`: 0.035 ns; 0.045 ns for thin 32-wide operands).
    pub(crate) const GEMM_MAC: Cost = Cost(50);
    /// One nnz × dense-column update of SpMM (`spmm_4k_32knnz_t1`:
    /// 0.047 ns).
    pub(crate) const SPMM_MAC: Cost = Cost(50);
    /// One multiply-accumulate of the direct forward convolution at stride
    /// 1 without padding, where a strip of outputs stays in registers
    /// across all taps (`conv2d_temporal` and STGCN's `Scale::Small`
    /// shapes, one thread: 0.054–0.056 ns).
    pub(crate) const CONV_MAC: Cost = Cost(60);
    /// The same under any other stride or padding, where every tap sweeps
    /// the output plane (a padded 3 × 3 over `[2, 8, 16, 16]`: 0.30 ns).
    pub(crate) const CONV_STRIDED_MAC: Cost = Cost(300);
    /// One forward multiply-accumulate's worth of a convolution gradient.
    /// dgrad and wgrad fork on one plan, priced at the dearer of the two:
    /// dgrad, an axpy per tap, 0.20 ns; wgrad, a block of add chains side
    /// by side, 0.09 ns (`conv2d_backward_temporal` and STGCN's shapes, one
    /// thread: 0.25–0.30 ns for the pair).
    pub(crate) const CONV_GRAD_MAC: Cost = Cost(200);
    /// One element streamed by an element-wise, gather, reduce or
    /// transpose kernel (`relu_1m_t1`: 0.40 ns; from 0.12 ns for the SIMD
    /// reductions to 1 ns for the scalar lane's strided transpose).
    pub(crate) const ELEMENT: Cost = Cost(500);
    /// One element through a scalar libm call: row softmax, `exp`, `log`,
    /// `sigmoid`, `tanh`, `pow` (`softmax_32kx32_t1`: 4.1 ns; `sigmoid`
    /// 3.5 ns, `tanh` 14 ns).
    pub(crate) const EXP_ELEM: Cost = Cost(4000);
    /// The part of a scattered element's cost that a split divides. A
    /// scatter task owns output rows and scans the *whole* index array
    /// behind an unpredictable ownership branch, so a split replicates the
    /// scan and divides only the adds: `scatter_add_32k` (1 Mi elements,
    /// 0.3–0.5 ms inline) cut in two is 1.6× slower, and 4 Mi elements is
    /// where two chunks win (0.6–0.8×).
    pub(crate) const SCATTER_ELEM: Cost = Cost(100);
}

static THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("GNNMARK_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The configured degree of parallelism (≥ 1).
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let d = default_threads();
    // Racing initializers compute the same default; last store wins.
    let _ = THREADS.compare_exchange(0, d, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Sets the degree of parallelism for all subsequent kernels
/// (clamped to `1..=MAX_THREADS`). Results are bit-identical across
/// settings; only wall-clock changes.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Per-worker busy-time accounting (off by default).
//
// When enabled (the telemetry layer's `--trace`/`--metrics` runs), each
// participant of a fork/join batch accumulates the wall-clock time it spent
// draining tasks into its slot: slot 0 is the submitting thread, slot
// `id + 1` is pool worker `gnnmark-par-{id}`. Two clock reads per batch per
// thread — nothing is touched per task, and nothing at all when disabled.
// ---------------------------------------------------------------------------

static TRACK_BUSY: AtomicBool = AtomicBool::new(false);

static BUSY_NS: [AtomicU64; MAX_THREADS + 1] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; MAX_THREADS + 1]
};

thread_local! {
    /// This thread's busy-time slot: workers set `id + 1`; everyone else
    /// (submitters, inline fallbacks) shares slot 0.
    static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Enables or disables per-worker busy-time accounting. Off by default;
/// results are unaffected either way.
pub fn set_worker_tracking(on: bool) {
    TRACK_BUSY.store(on, Ordering::Relaxed);
}

/// Busy nanoseconds per slot (`[0]` = submitter thread, `[i + 1]` = pool
/// worker `i`), trimmed after the last active slot. All zeros until
/// [`set_worker_tracking`] is turned on and a parallel kernel runs.
pub fn worker_busy_ns() -> Vec<u64> {
    let vals: Vec<u64> = BUSY_NS.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let last = vals.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    vals[..last.max(1)].to_vec()
}

#[inline]
fn busy_start() -> Option<Instant> {
    if TRACK_BUSY.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

#[inline]
fn busy_end(t0: Option<Instant>) {
    if let Some(t0) = t0 {
        let slot = SLOT.with(std::cell::Cell::get);
        BUSY_NS[slot].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The fork decision: counted, and forceable from tests.
// ---------------------------------------------------------------------------

static REGIONS_POOLED: AtomicU64 = AtomicU64::new(0);
static REGIONS_INLINE: AtomicU64 = AtomicU64::new(0);

/// Parallel regions entered so far in this process, as `(pooled, inline)`:
/// a region is *pooled* when its tasks were handed to the pool and
/// *inline* when the caller ran it alone (planned as one chunk, one
/// thread configured, nested, or the pool was busy).
pub fn regions() -> (u64, u64) {
    (
        REGIONS_POOLED.load(Ordering::Relaxed),
        REGIONS_INLINE.load(Ordering::Relaxed),
    )
}

thread_local! {
    static FORCE_SPLIT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test seam: while `f` runs, every region planned on this thread splits
/// into [`threads`] chunks (still capped by its row count) whatever its
/// estimated work, so thread-parity tests on tiny shapes really exercise
/// the pooled path. Results are unaffected, as with any partition.
#[doc(hidden)]
pub fn force_split<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SPLIT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_SPLIT.with(|c| c.replace(true)));
    f()
}

// ---------------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------------

/// One fork/join batch: `total` tasks pulled off an atomic counter.
struct Job {
    /// Lifetime-erased task body; valid until `done == total` because the
    /// submitter blocks in [`run`] until then.
    f: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    done: AtomicUsize,
    total: usize,
    /// Workers that may participate besides the submitter; extras spawned
    /// for earlier, wider jobs sit this one out so `--threads` is honored.
    max_helpers: usize,
    helpers: AtomicUsize,
    panicked: AtomicBool,
}

// SAFETY: `f` points at a `Sync` closure that outlives the job (the
// submitter keeps it alive on its stack until every task completed).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct PoolState {
    job: Option<Arc<Job>>,
    epoch: u64,
    spawned: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until its job drains.
    done_cv: Condvar,
}

/// Serializes submitters: one fork/join batch at a time. Concurrent
/// submitters (e.g. `--parallel` suite workers) fall back to inline
/// execution instead of queueing, which keeps the pool trivially deadlock-
/// free and never changes results.
static SUBMIT: Mutex<()> = Mutex::new(());

static POOL: OnceLock<Arc<Shared>> = OnceLock::new();

thread_local! {
    /// Set on pool workers; nested parallel calls run inline.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Arc<Shared> {
    POOL.get_or_init(|| {
        Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                spawned: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    })
}

/// Pulls tasks off `job` until its counter is exhausted; whoever finishes
/// the last task clears the pool's current job and wakes the submitter.
fn drain(job: &Arc<Job>, shared: &Shared) {
    let t0 = busy_start();
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            break;
        }
        // SAFETY: the submitter keeps the closure alive until `done == total`.
        let f = unsafe { &*job.f };
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            job.panicked.store(true, Ordering::SeqCst);
        }
        if job.done.fetch_add(1, Ordering::SeqCst) + 1 == job.total {
            let mut st = shared.state.lock().unwrap();
            if st.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, job)) {
                st.job = None;
            }
            shared.done_cv.notify_all();
        }
    }
    busy_end(t0);
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    IN_POOL.with(|f| f.set(true));
    SLOT.with(|s| s.set(id + 1));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.epoch != seen {
                    if let Some(job) = st.job.clone() {
                        seen = st.epoch;
                        if job.helpers.fetch_add(1, Ordering::SeqCst) >= job.max_helpers {
                            continue;
                        }
                        break job;
                    }
                    seen = st.epoch;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        drain(&job, &shared);
    }
}

fn ensure_workers(st: &mut PoolState, shared: &Arc<Shared>, wanted: usize) {
    while st.spawned < wanted {
        let shared = Arc::clone(shared);
        let id = st.spawned;
        std::thread::Builder::new()
            .name(format!("gnnmark-par-{id}"))
            .spawn(move || worker_loop(shared, id))
            .expect("spawn pool worker");
        st.spawned += 1;
    }
}

/// Runs `f(0..total)` across the pool, blocking until every task finished.
///
/// Falls back to an inline sequential loop when parallelism is 1, the call
/// is nested inside another parallel region, the pool is busy with another
/// submitter, or `total == 1`. All paths produce identical results.
///
/// # Panics
/// Re-raises (as a single panic) if any task panicked.
pub fn run(total: usize, f: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    let t = threads().min(total);
    let nested = IN_POOL.with(|g| g.get());
    // One fork/join at a time; a busy pool means another workload thread is
    // mid-kernel — run inline rather than wait (results are identical).
    let submit = if t <= 1 || nested {
        None
    } else {
        SUBMIT.try_lock().ok()
    };
    let Some(submit) = submit else {
        REGIONS_INLINE.fetch_add(1, Ordering::Relaxed);
        // Nested calls skip busy accounting: the enclosing `drain` is
        // already timing this thread.
        let t0 = if nested { None } else { busy_start() };
        for i in 0..total {
            f(i);
        }
        busy_end(t0);
        return;
    };
    REGIONS_POOLED.fetch_add(1, Ordering::Relaxed);
    let shared = pool();
    // SAFETY: lifetime erasure only; `run` does not return until every task
    // completed, so the closure outlives all uses.
    let f_static: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync), _>(f as *const _) };
    let job = Arc::new(Job {
        f: f_static,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        total,
        max_helpers: t - 1,
        helpers: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
    });
    {
        let mut st = shared.state.lock().unwrap();
        ensure_workers(&mut st, shared, t - 1);
        st.epoch += 1;
        st.job = Some(Arc::clone(&job));
        shared.work_cv.notify_all();
    }
    // The submitter is a full participant.
    drain(&job, shared);
    let mut st = shared.state.lock().unwrap();
    while job.done.load(Ordering::SeqCst) < job.total {
        st = shared.done_cv.wait(st).unwrap();
    }
    drop(st);
    // Unlock before re-raising: a panic that unwinds through the guard
    // poisons `SUBMIT`, and every later `try_lock` would read as "busy".
    drop(submit);
    if job.panicked.load(Ordering::SeqCst) {
        panic!("parallel kernel task panicked");
    }
}

// ---------------------------------------------------------------------------
// Deterministic partition helpers.
// ---------------------------------------------------------------------------

/// Splits `0..n` into `chunks` contiguous ranges of near-equal length
/// (remainder spread over the leading chunks). Deterministic in `n` and
/// `chunks` only.
pub fn even_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, n.max(1));
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..weights.len()` into at most `chunks` contiguous ranges of
/// near-equal total weight (used by SpMM to balance CSR rows by nnz).
/// Deterministic in the weights and `chunks` only.
pub fn weighted_ranges(weights: &[usize], chunks: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return vec![];
    }
    let chunks = chunks.clamp(1, n);
    let total: usize = weights.iter().sum();
    let target = total / chunks + 1;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    let mut acc = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= target && out.len() + 1 < chunks {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    out.push(start..n);
    out
}

/// How many chunks to cut a kernel of `units` units at `cost` each into:
/// as many whole [`GRAIN_NS`] grains as its estimated single-thread time
/// holds, at most [`threads`], and 1 (inline) below two grains.
pub(crate) fn chunks(units: usize, cost: Cost) -> usize {
    let t = threads();
    if FORCE_SPLIT.with(std::cell::Cell::get) {
        return t;
    }
    let est_ns = (units as u64).saturating_mul(cost.0) / 1000;
    (est_ns / GRAIN_NS).clamp(1, t as u64) as usize
}

/// [`even_ranges`] over `rows`, cut into [`chunks`]`(units, cost)` chunks.
pub(crate) fn split(rows: usize, units: usize, cost: Cost) -> Vec<Range<usize>> {
    even_ranges(rows, chunks(units, cost))
}

/// Wrapper making a raw pointer `Send + Sync` for disjoint-range writes.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Runs `f(chunk_idx, row_range, out_chunk)` over disjoint row ranges of a
/// mutable `[rows, row_len]` buffer, in parallel. `ranges` must be the
/// ascending, non-overlapping partition of `0..rows` (as produced by
/// [`even_ranges`] / [`weighted_ranges`]); each task receives exactly the
/// sub-slice `out[r.start * row_len .. r.end * row_len]`.
///
/// # Panics
/// Panics if the ranges overlap or exceed the buffer.
pub fn for_row_ranges_mut<T: Send>(
    out: &mut [T],
    row_len: usize,
    ranges: &[Range<usize>],
    f: impl Fn(usize, Range<usize>, &mut [T]) + Sync,
) {
    // Validate the partition up front so the unsafe below stays local.
    let mut prev_end = 0usize;
    for r in ranges {
        assert!(r.start == prev_end, "row ranges must tile contiguously");
        prev_end = r.end;
    }
    assert!(
        prev_end * row_len <= out.len(),
        "row ranges exceed the output buffer"
    );
    if ranges.len() == 1 {
        REGIONS_INLINE.fetch_add(1, Ordering::Relaxed);
        let r = ranges[0].clone();
        let chunk = &mut out[r.start * row_len..r.end * row_len];
        f(0, r, chunk);
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    let base_ref = &base;
    run(ranges.len(), &|ci| {
        let r = ranges[ci].clone();
        // SAFETY: ranges are validated disjoint and in-bounds above, so each
        // task gets an exclusive sub-slice.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(
                base_ref.0.add(r.start * row_len),
                (r.end - r.start) * row_len,
            )
        };
        f(ci, r, chunk);
    });
}

/// Element-chunked parallel fill of `out`: `f(range, chunk)` writes every
/// element of its chunk, at `cost` per element. Inline below the grain.
pub(crate) fn fill_chunks<T: Send>(
    out: &mut [T],
    cost: Cost,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let n = out.len();
    let ranges = split(n, n, cost);
    for_row_ranges_mut(out, 1, &ranges, |_, r, chunk| f(r, chunk));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_tile() {
        let rs = even_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        assert_eq!(even_ranges(2, 8).len(), 2);
        assert_eq!(even_ranges(0, 3), vec![0..0]);
    }

    #[test]
    fn weighted_ranges_balance() {
        // One heavy row then light rows: the heavy row gets its own chunk.
        let w = [100, 1, 1, 1, 1, 1];
        let rs = weighted_ranges(&w, 3);
        assert_eq!(rs[0], 0..1);
        assert_eq!(rs.last().unwrap().end, 6);
        let covered: usize = rs.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 6);
        assert!(weighted_ranges(&[], 4).is_empty());
    }

    #[test]
    fn run_executes_every_task_once() {
        let prev = threads();
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run(64, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        set_threads(prev);
    }

    #[test]
    fn fill_chunks_is_complete_and_disjoint() {
        let prev = threads();
        set_threads(3);
        let mut out = vec![0u32; 10_000];
        force_split(|| {
            fill_chunks(&mut out, Cost::ELEMENT, |r, chunk| {
                assert!(r.len() < 10_000, "three chunks, not one");
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (r.start + k) as u32;
                }
            })
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
        set_threads(prev);
    }

    #[test]
    fn nested_run_is_inline_and_panics_propagate() {
        let prev = threads();
        set_threads(2);
        // Nested: inner run must not deadlock.
        run(4, &|_| {
            run(4, &|_| {});
        });
        let caught = std::panic::catch_unwind(|| {
            run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        set_threads(prev);
    }

    #[test]
    fn worker_busy_tracking_accumulates_when_enabled() {
        // The pool and the busy counters are process-global and other tests
        // run concurrently, so assert deltas with slack, never exact values.
        let prev = threads();
        set_threads(4);
        // This test is the only one that ever enables tracking, so before
        // the enable the counters must stay flat through a parallel run.
        let base: u64 = worker_busy_ns().iter().sum();
        run(8, &|_| {
            std::hint::black_box((0..20_000u64).sum::<u64>());
        });
        assert_eq!(
            worker_busy_ns().iter().sum::<u64>(),
            base,
            "disabled tracking must not accumulate"
        );
        set_worker_tracking(true);
        run(64, &|_| {
            // Enough work per task that at least one participant's batch
            // registers a nonzero duration.
            std::hint::black_box((0..20_000u64).sum::<u64>());
        });
        set_worker_tracking(false);
        let after: u64 = worker_busy_ns().iter().sum();
        assert!(after > base, "busy time accumulated: {base} -> {after}");
        set_threads(prev);
    }

    #[test]
    fn set_threads_clamps() {
        let prev = threads();
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(10_000);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(prev);
    }
}
