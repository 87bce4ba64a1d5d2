//! Panic isolation and deterministic retry for worker cells.
//!
//! Sweep, verify, and chaos campaigns all fan out over a matrix of
//! independent cells; a bug that panics inside one cell must not take down
//! the worker pool or poison the other cells' results. [`catch_cell`] turns
//! a panic into a structured error string, and [`run_with_retry`] wraps that
//! in a bounded retry loop. A retry never waits: the cells are
//! deterministic, so only a change of attempt (the caller degrades per
//! attempt) can make a crash go away, and a retried run produces
//! byte-identical reports regardless of worker count or timing.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, converting a panic into `Err(message)`. The closure is wrapped
/// in [`AssertUnwindSafe`] because every caller hands in freshly constructed
/// per-cell state that is discarded on failure — there is no shared state to
/// observe half-mutated.
pub fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(format!("panic: {msg}"))
        }
    }
}

/// Resolves a requested worker count against the amount of work available:
/// `0` means one worker per available core
/// ([`std::thread::available_parallelism`], falling back to a single worker
/// when the host will not say), and the result is always within
/// `[1, cells]` — a pool can neither be empty nor larger than its work
/// list. The one job-count policy shared by every fan-out in the toolkit:
/// the sweep worker pool and the service scheduler.
pub fn resolve_jobs(requested: usize, cells: usize) -> usize {
    let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let j = if requested == 0 { auto } else { requested };
    j.clamp(1, cells.max(1))
}

/// Runs `f(attempt)` under [`catch_cell`] up to `1 + retries` times, back
/// to back. The attempt index is passed to the closure so the caller can
/// degrade per attempt (e.g. retry a crashed sweep cell one backend rung
/// lower). Returns the first success plus the crash message from every
/// failed attempt; `None` if all attempts panicked.
pub fn run_with_retry<T>(retries: u32, mut f: impl FnMut(u32) -> T) -> (Option<T>, Vec<String>) {
    let mut crashes = Vec::new();
    for attempt in 0..=retries {
        match catch_cell(|| f(attempt)) {
            Ok(v) => return (Some(v), crashes),
            Err(msg) => crashes.push(format!("attempt {attempt}: {msg}")),
        }
    }
    (None, crashes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_cell_passes_values_and_captures_panics() {
        assert_eq!(catch_cell(|| 42), Ok(42));
        let err = catch_cell(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "panic: boom 7");
        let err = catch_cell(|| -> u32 { panic!("static message") }).unwrap_err();
        assert_eq!(err, "panic: static message");
    }

    #[test]
    fn job_resolution_clamps() {
        assert_eq!(resolve_jobs(3, 100), 3);
        assert_eq!(resolve_jobs(64, 4), 4, "jobs beyond the work count clamp down");
        assert_eq!(resolve_jobs(7, 0), 1, "an empty work list still gets one worker");
        let auto = resolve_jobs(0, 1000);
        assert!((1..=1000).contains(&auto), "auto is within [1, cells]");
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(auto, host.min(1000), "auto derives from available_parallelism");
    }

    #[test]
    fn retry_succeeds_after_transient_panics_and_reports_each_crash() {
        let (v, crashes) = run_with_retry(3, |attempt| {
            if attempt < 2 {
                panic!("transient");
            }
            attempt
        });
        assert_eq!(v, Some(2), "third attempt (index 2) succeeds");
        assert_eq!(crashes.len(), 2);
        assert!(crashes[0].starts_with("attempt 0: panic: transient"));
    }

    #[test]
    fn retry_budget_is_bounded_even_when_every_attempt_panics() {
        let mut calls = 0u32;
        let (v, crashes) = run_with_retry(2, |_| {
            calls += 1;
            panic!("always");
        });
        assert_eq!(v, None::<u32>);
        assert_eq!(calls, 3, "retries=2 means exactly three attempts");
        assert_eq!(crashes.len(), 3);
    }
}
