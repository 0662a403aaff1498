//! SIGTERM-triggered graceful drain.
//!
//! The handler does the only async-signal-safe thing possible: set an
//! atomic flag. The server's accept loop polls [`term_requested`] and
//! turns it into a drain — stop accepting, finish or journal in-flight
//! jobs, shut the shards down cleanly. No dependency is needed: `std`
//! already links libc on unix, so the `signal(2)` symbol is reachable
//! with a one-line extern declaration.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_term(_sig: i32) {
    // A plain atomic store is async-signal-safe; everything else (the
    // drain itself) happens on the accept loop's thread.
    TERM.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM handler (idempotent). On non-unix targets this
/// is a no-op and drains are triggered via [`request_term`] only.
#[cfg_attr(
    unix,
    expect(unsafe_code, reason = "signal(2) is the only way to install a handler")
)]
pub fn install_term_handler() {
    #[cfg(unix)]
    // SAFETY: `signal` replaces the process's SIGTERM disposition with
    // `on_term`, whose body is a single async-signal-safe atomic store.
    // The handler pointer is a static fn, so it outlives the process.
    unsafe {
        // CAST: fn-to-pointer-to-usize is the documented calling
        // convention of signal(2)'s handler slot; widths match.
        signal(SIGTERM, on_term as *const () as usize);
    }
}

/// Whether a drain was requested — by SIGTERM or programmatically.
pub fn term_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}

/// Requests a drain without a signal (tests, the Drain admin frame).
pub fn request_term() {
    TERM.store(true, Ordering::Relaxed);
}

/// Clears the flag so one process can serve, drain, and serve again
/// (tests do; production servers exit after one drain).
pub fn reset_term() {
    TERM.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset_term();
        assert!(!term_requested());
        request_term();
        assert!(term_requested());
        reset_term();
        assert!(!term_requested());
    }

    #[cfg(unix)]
    #[test]
    #[expect(unsafe_code, reason = "raise(3) is the only way to deliver the signal")]
    fn handler_installs_and_fires() {
        reset_term();
        install_term_handler();
        // Raise SIGTERM at ourselves through the installed handler.
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // SAFETY: raise(3) with a handled signal only runs `on_term`.
        let rc = unsafe { raise(SIGTERM) };
        assert_eq!(rc, 0);
        assert!(term_requested(), "handler stored the flag");
        reset_term();
    }
}
