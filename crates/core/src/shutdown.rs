//! Cooperative graceful shutdown on SIGINT/SIGTERM.
//!
//! Long runs (`gnnmark suite`, `gnnmark serve`) should not lose in-flight
//! artifacts when the user hits Ctrl-C or the scheduler sends SIGTERM.
//! [`install`] registers a minimal async-signal-safe handler that only
//! flips a process-wide [`AtomicBool`]; execution loops poll
//! [`requested`] at safe points (between workloads, between jobs, between
//! accepted connections) and wind down: flush the resilience checkpoint,
//! the telemetry metrics snapshot and the run manifest, then exit.
//!
//! The handler is installed at most once; a second signal while shutdown
//! is already in progress terminates the process immediately (so a double
//! Ctrl-C still kills a wedged process).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static DRAIN_HOOKS: Mutex<Vec<Box<dyn FnOnce() + Send>>> = Mutex::new(Vec::new());

/// Conventional exit code for "terminated by SIGINT" (128 + 2).
pub const EXIT_INTERRUPTED: i32 = 130;

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    // `std` already links libc; declaring the two calls we need directly
    // keeps the crate dependency-free.
    extern "C" {
        fn signal(signum: std::ffi::c_int, handler: extern "C" fn(std::ffi::c_int)) -> usize;
        fn _exit(status: std::ffi::c_int) -> !;
    }

    const SIGINT: std::ffi::c_int = 2;
    const SIGTERM: std::ffi::c_int = 15;

    extern "C" fn on_signal(_signum: std::ffi::c_int) {
        // Async-signal-safe: one atomic swap; a second signal while
        // shutdown is already pending terminates immediately (so a double
        // Ctrl-C still kills a wedged process).
        if SHUTDOWN.swap(true, Ordering::SeqCst) {
            unsafe { _exit(super::EXIT_INTERRUPTED) }
        }
    }

    pub fn install_handlers() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install_handlers() {}
}

/// Installs the SIGINT/SIGTERM handler (idempotent). On non-Unix targets
/// this is a no-op; [`request`] still works for programmatic shutdown.
pub fn install() {
    if !INSTALLED.swap(true, Ordering::SeqCst) {
        imp::install_handlers();
    }
}

/// Whether shutdown has been requested (by signal or [`request`]).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests shutdown programmatically — same effect as receiving SIGINT.
/// Used by tests and by the serve daemon's drain path.
pub fn request() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears a pending shutdown request. Only for tests — real runs exit.
pub fn reset_for_tests() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Registers a hook to run when the process drains (graceful shutdown).
///
/// Hooks are NOT run from the signal handler — they run when a draining
/// execution loop calls [`run_drain_hooks`] at a safe point, after
/// in-flight work has finished. The serve daemon uses this for the final
/// write-ahead-log flush and compaction, so a `SIGTERM`'d daemon leaves a
/// clean store behind.
pub fn on_drain(hook: impl FnOnce() + Send + 'static) {
    DRAIN_HOOKS.lock().unwrap().push(Box::new(hook));
}

/// Runs (and consumes) every registered drain hook, in registration
/// order. Idempotent: a second call is a no-op until new hooks register.
pub fn run_drain_hooks() {
    let hooks: Vec<_> = std::mem::take(&mut *DRAIN_HOOKS.lock().unwrap());
    for hook in hooks {
        hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_and_reset_clears() {
        reset_for_tests();
        assert!(!requested());
        request();
        assert!(requested());
        reset_for_tests();
        assert!(!requested());
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }

    #[test]
    fn drain_hooks_run_once_in_order() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let order = Arc::new(Mutex::new(Vec::new()));
        let runs = Arc::new(AtomicUsize::new(0));
        for tag in ["a", "b"] {
            let order = Arc::clone(&order);
            let runs = Arc::clone(&runs);
            on_drain(move || {
                order.lock().unwrap().push(tag);
                runs.fetch_add(1, Ordering::SeqCst);
            });
        }
        run_drain_hooks();
        run_drain_hooks(); // consumed: no double-run
        assert_eq!(*order.lock().unwrap(), vec!["a", "b"]);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }
}
