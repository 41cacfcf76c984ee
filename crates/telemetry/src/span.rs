//! Hierarchical wall-clock spans.
//!
//! A [`Span`] is an RAII guard: entering it stamps a monotonic start time,
//! dropping it records a finished [`SpanEvent`] into a global sink. Spans
//! nest naturally — the Chrome trace renderer stacks overlapping events on
//! the same thread lane, so `epoch ⊃ step ⊃ forward` needs no explicit
//! parent ids.
//!
//! Telemetry is **off by default** and the entire span machinery compiles
//! down to one relaxed load of a static flag per [`span!`](crate::span)
//! site when disabled: no clock reads, no allocation, no locks. Spans never
//! touch tensor data, RNG state, or the op recorder, so enabling them
//! cannot perturb training determinism — only wall-clock observations are
//! added.
//!
//! Threads are first-class: each thread gets a stable *lane* id on its
//! first span, and the lane → thread-name mapping is kept so trace
//! exporters can name one timeline row per thread (the resilient suite
//! runner trains workloads on dedicated threads).

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROGRESS: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static LANES: Mutex<Vec<LaneInfo>> = Mutex::new(Vec::new());

/// Process-wide monotonic epoch; every span timestamp is relative to this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide telemetry epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span collection on or off (process-wide). Off by default.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps start near 0.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when spans are being collected.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the live per-epoch progress line on or off (the CLI's
/// `--progress`). Independent of span collection.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// `true` when progress reporting is requested.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// One finished span (or instant mark) on some thread's lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (`"epoch"`, `"forward"`, `"attempt:TLSTM"`, …).
    pub name: Cow<'static, str>,
    /// Category, used as the Chrome-trace `cat` field (`"host"`,
    /// `"resilience"`, `"gpu-model"`, …).
    pub cat: &'static str,
    /// Lane (stable per-thread id) the event happened on.
    pub lane: usize,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; 0 for instant marks.
    pub dur_ns: u64,
    /// `true` for zero-duration instant marks (retry scheduled, fault
    /// injected, checkpoint written, …).
    pub instant: bool,
    /// Integer arguments attached with [`Span::arg`], exported as the
    /// Chrome-trace event's `args`.
    pub args: Vec<(&'static str, u64)>,
}

/// Lane id → thread name, captured when the thread's first span opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneInfo {
    /// The lane id used by this thread's events.
    pub lane: usize,
    /// The OS thread name at registration (or `thread-N`).
    pub thread: String,
}

thread_local! {
    static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's lane id, assigning and registering one on first use.
pub fn lane() -> usize {
    LANE.with(|l| {
        let v = l.get();
        if v != usize::MAX {
            return v;
        }
        let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        l.set(id);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{id}"), str::to_string);
        LANES.lock().unwrap().push(LaneInfo {
            lane: id,
            thread: name,
        });
        id
    })
}

/// An RAII span guard; see the module docs. `None` inside means telemetry
/// was disabled at entry and the drop is a no-op.
#[must_use = "a span measures the region it is alive for; bind it to a named local"]
pub struct Span(Option<OpenSpan>);

struct OpenSpan {
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Opens a span in the default `"host"` category.
    #[inline]
    pub fn enter(name: impl Into<Cow<'static, str>>) -> Span {
        Self::enter_cat(name, "host")
    }

    /// Opens a span in an explicit category.
    #[inline]
    pub fn enter_cat(name: impl Into<Cow<'static, str>>, cat: &'static str) -> Span {
        if !enabled() {
            return Span(None);
        }
        Span(Some(OpenSpan {
            name: name.into(),
            cat,
            start_ns: now_ns(),
            args: Vec::new(),
        }))
    }

    /// Attaches an integer argument to the span (a no-op when telemetry
    /// was disabled at entry).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(open) = self.0.as_mut() {
            open.args.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let end = now_ns();
            let event = SpanEvent {
                name: open.name,
                cat: open.cat,
                lane: lane(),
                start_ns: open.start_ns,
                dur_ns: end.saturating_sub(open.start_ns),
                instant: false,
                args: open.args,
            };
            SINK.lock().unwrap().push(event);
        }
    }
}

/// Records a zero-duration instant mark (visible as an arrow/tick in the
/// trace). No-op when telemetry is disabled.
pub fn mark(name: impl Into<Cow<'static, str>>, cat: &'static str) {
    if !enabled() {
        return;
    }
    let event = SpanEvent {
        name: name.into(),
        cat,
        lane: lane(),
        start_ns: now_ns(),
        dur_ns: 0,
        instant: true,
        args: Vec::new(),
    };
    SINK.lock().unwrap().push(event);
}

/// Everything the host-side timeline collected: finished events plus the
/// lane → thread-name mapping trace exporters need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostTrace {
    /// Finished spans and marks, sorted by start time.
    pub events: Vec<SpanEvent>,
    /// Lane naming metadata, sorted by lane id.
    pub lanes: Vec<LaneInfo>,
}

impl HostTrace {
    /// Events whose name matches, in start order.
    pub fn named(&self, name: &str) -> Vec<&SpanEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }
}

/// Drains every buffered span into a [`HostTrace`] snapshot. Lane
/// registrations are *not* cleared (thread lane ids stay stable for the
/// process lifetime).
pub fn take_host_trace() -> HostTrace {
    let mut events = std::mem::take(&mut *SINK.lock().unwrap());
    events.sort_by_key(|e| (e.start_ns, e.lane));
    let mut lanes = LANES.lock().unwrap().clone();
    lanes.sort_by_key(|l| l.lane);
    HostTrace { events, lanes }
}

/// Number of events currently buffered (without draining).
pub fn pending_spans() -> usize {
    SINK.lock().unwrap().len()
}

/// Opens an RAII wall-clock span: `span!("forward")`, or with an explicit
/// category `span!("attempt", "resilience")`. Expands to a single branch on
/// a static flag when telemetry is disabled. Bind the guard to a named
/// local (`let _sp = span!(...)`) — binding to `_` drops it immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $cat:expr) => {
        $crate::Span::enter_cat($name, $cat)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state with each other; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = lock();
        set_enabled(false);
        let _ = take_host_trace();
        {
            let _sp = crate::span!("quiet");
            crate::mark("quiet-mark", "host");
        }
        assert_eq!(pending_spans(), 0);
    }

    #[test]
    fn enabled_spans_capture_name_cat_and_duration() {
        let _l = lock();
        let _ = take_host_trace();
        set_enabled(true);
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner", "resilience");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::mark("tick", "resilience");
        set_enabled(false);
        let trace = take_host_trace();
        assert_eq!(trace.events.len(), 3);
        let inner = trace.named("inner")[0];
        assert_eq!(inner.cat, "resilience");
        assert!(inner.dur_ns >= 1_000_000, "slept 2ms, got {}", inner.dur_ns);
        let outer = trace.named("outer")[0];
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        let tick = trace.named("tick")[0];
        assert!(tick.instant && tick.dur_ns == 0);
        assert!(!trace.lanes.is_empty());
    }

    #[test]
    fn args_ride_on_enabled_spans_only() {
        let _l = lock();
        let _ = take_host_trace();
        let mut quiet = crate::span!("quiet-args");
        quiet.arg("elided", 1);
        drop(quiet);
        set_enabled(true);
        {
            let mut sp = crate::span!("with-args");
            sp.arg("elided", 3);
        }
        set_enabled(false);
        let trace = take_host_trace();
        assert!(trace.named("quiet-args").is_empty());
        assert_eq!(trace.named("with-args")[0].args, [("elided", 3)]);
    }

    #[test]
    fn lanes_are_stable_per_thread_and_distinct_across_threads() {
        let _l = lock();
        let here = lane();
        assert_eq!(here, lane(), "lane is stable");
        let other = std::thread::spawn(lane).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn spans_from_worker_threads_land_on_their_own_lane() {
        let _l = lock();
        let _ = take_host_trace();
        set_enabled(true);
        let main_lane = lane();
        std::thread::Builder::new()
            .name("telemetry-test-worker".into())
            .spawn(|| {
                let _sp = crate::span!("worker-span");
            })
            .unwrap()
            .join()
            .unwrap();
        set_enabled(false);
        let trace = take_host_trace();
        let ev = trace.named("worker-span")[0];
        assert_ne!(ev.lane, main_lane);
        assert!(trace
            .lanes
            .iter()
            .any(|l| l.lane == ev.lane && l.thread == "telemetry-test-worker"));
    }
}
