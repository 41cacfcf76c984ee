//! Thread-local recording of [`OpEvent`]s.
//!
//! Recording is off by default; ops run at full speed and drop their events.
//! A profiling session turns recording on for the current thread, runs a
//! workload, then drains the buffer:
//!
//! ```
//! use gnnmark_tensor::{record, Tensor};
//!
//! record::start_recording();
//! let _ = Tensor::ones(&[2, 2]).relu();
//! let events = record::stop_recording();
//! assert_eq!(events.len(), 1);
//! assert!(!record::is_recording());
//! ```
//!
//! The recorder is strictly per-thread, so the multi-GPU simulator can run
//! one worker thread per modeled GPU, each with an independent event stream.

use std::cell::RefCell;

use crate::instrument::OpEvent;

thread_local! {
    static RECORDER: RefCell<Option<Vec<OpEvent>>> = const { RefCell::new(None) };
}

/// Starts (or restarts) event recording on the current thread.
///
/// Any events buffered by a previous, un-drained recording are discarded.
pub fn start_recording() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Vec::new()));
}

/// Stops recording on the current thread and returns the buffered events.
///
/// Returns an empty vector if recording was not active.
pub fn stop_recording() -> Vec<OpEvent> {
    RECORDER.with(|r| r.borrow_mut().take().unwrap_or_default())
}

/// Returns `true` if the current thread is recording op events.
pub fn is_recording() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Number of events buffered so far on this thread (0 when not recording).
#[cfg(test)]
fn pending_events() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |v| v.len()))
}

/// Emits an event if the current thread is recording; a no-op otherwise.
///
/// The event is built lazily by `f` so that disabled recording costs only a
/// thread-local flag check.
pub fn emit_with(f: impl FnOnce() -> OpEvent) {
    RECORDER.with(|r| {
        if let Some(buf) = r.borrow_mut().as_mut() {
            buf.push(f());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::OpClass;

    fn dummy_event() -> OpEvent {
        OpEvent {
            class: OpClass::ElementWise,
            kernel: "dummy",
            flops: 1,
            iops: 1,
            bytes_read: 4,
            bytes_written: 4,
            threads: 1,
            reads: vec![],
            writes: vec![],
        }
    }

    #[test]
    fn emit_only_while_recording() {
        emit_with(dummy_event);
        assert_eq!(pending_events(), 0);
        start_recording();
        emit_with(dummy_event);
        emit_with(dummy_event);
        assert_eq!(pending_events(), 2);
        let events = stop_recording();
        assert_eq!(events.len(), 2);
        assert_eq!(pending_events(), 0);
        emit_with(dummy_event);
        assert!(stop_recording().is_empty());
    }

    #[test]
    fn restart_discards_old_events() {
        start_recording();
        emit_with(dummy_event);
        start_recording();
        assert_eq!(pending_events(), 0);
        let _ = stop_recording();
    }

    #[test]
    fn recording_is_thread_local() {
        start_recording();
        let handle = std::thread::spawn(|| {
            assert!(!is_recording());
            emit_with(dummy_event);
            pending_events()
        });
        assert_eq!(handle.join().unwrap(), 0);
        assert!(is_recording());
        let _ = stop_recording();
    }
}
