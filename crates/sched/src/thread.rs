//! Scheduled thread forking.
//!
//! A token-passing scheduler must know about every participating
//! thread *and* must never let the token holder block in a real
//! `join()` while the child still needs the token to finish. The
//! pattern is:
//!
//! ```ignore
//! let forked = graft_sched::thread::fork("pool-worker-0");
//! let token = forked.token();
//! let handle = std::thread::spawn(forked.wrap(move || work()));
//! // ... later, before the real join:
//! token.join_point(); // schedulable wait for the child to finish
//! handle.join().unwrap(); // now guaranteed not to block the token
//! ```
//!
//! Outside a session all of this is free: `fork` returns an empty
//! handle, `wrap` returns the closure unchanged, `join_point` is a
//! no-op.

#[cfg(feature = "check")]
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe, Location};
use std::sync::{Arc, OnceLock};

use crate::session::Session;
#[cfg(feature = "check")]
use crate::session::{current_ctx, CtxGuard, SchedAbort};

/// How many threads `units` independent units of work should run on:
/// `min(units, CPUs this process may run on)`. The OS is asked once per
/// process (the query costs tens of microseconds; 4 when it fails).
/// Inside a schedule session the answer is `units`: the scheduler is the
/// CPU there, so what gets explored does not depend on the host.
pub fn parallelism(units: usize) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    #[cfg(feature = "check")]
    if current_ctx().is_some() {
        return units;
    }
    units.min(*CPUS.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get())))
}

/// A forked-thread registration; consume with [`Forked::wrap`].
pub struct Forked {
    inner: Option<(Arc<Session>, usize)>,
}

/// A lightweight handle for [`JoinToken::join_point`].
#[derive(Clone)]
pub struct JoinToken {
    inner: Option<(Arc<Session>, usize)>,
}

/// Registers a child thread with the calling thread's session (if any).
/// The child inherits the parent's happens-before view — a fork edge.
pub fn fork(name: impl Into<String>) -> Forked {
    #[cfg(feature = "check")]
    if let Some((session, parent)) = current_ctx() {
        let tid = session.register_thread(name.into(), parent);
        return Forked { inner: Some((session, tid)) };
    }
    let _ = name;
    Forked { inner: None }
}

impl Forked {
    /// A token for waiting on this thread at a schedulable point.
    pub fn token(&self) -> JoinToken {
        JoinToken { inner: self.inner.clone() }
    }

    /// Wraps the thread body: the child installs the session, waits to
    /// be scheduled, runs `f`, and reports its finish (including the
    /// panic message if `f` panicked) before unwinding onward.
    pub fn wrap<F, R>(self, f: F) -> impl FnOnce() -> R
    where
        F: FnOnce() -> R,
    {
        move || {
            let Some((session, tid)) = self.inner else {
                return f();
            };
            #[cfg(feature = "check")]
            {
                let _ctx = CtxGuard::install(Arc::clone(&session), tid);
                session.thread_started(tid);
                let result = catch_unwind(AssertUnwindSafe(f));
                let panic_msg = match &result {
                    Err(payload) if payload.downcast_ref::<SchedAbort>().is_none() => {
                        Some(payload_message(payload))
                    }
                    _ => None,
                };
                drop(_ctx);
                session.thread_finished(tid, panic_msg);
                match result {
                    Ok(value) => value,
                    Err(payload) => resume_unwind(payload),
                }
            }
            #[cfg(not(feature = "check"))]
            {
                let _ = (session, tid);
                f()
            }
        }
    }
}

impl JoinToken {
    /// Waits (schedulably) until the target thread has finished and
    /// joins its final clock — the join happens-before edge. Call this
    /// immediately before the real `JoinHandle::join` / scope end.
    #[track_caller]
    pub fn join_point(&self) {
        #[cfg(feature = "check")]
        if let Some((session, target)) = &self.inner {
            if let Some((caller_session, tid)) = current_ctx() {
                if !Arc::ptr_eq(session, &caller_session) {
                    return;
                }
                let target = *target;
                let loc = Location::caller();
                caller_session.op(
                    tid,
                    loc,
                    || format!("join thread {target}"),
                    |core, tid| core.join_finished(target, tid),
                );
            }
        }
    }
}

/// Whether a caught panic payload is the scheduler's own teardown
/// signal. Code that `catch_unwind`s *inside a scheduled thread* — a
/// worker loop shielding itself from panicking jobs, say — must
/// re-throw such payloads with `std::panic::resume_unwind` instead of
/// swallowing them, or the torn-down schedule will stall waiting for
/// the thread to exit.
pub fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    #[cfg(feature = "check")]
    {
        payload.downcast_ref::<SchedAbort>().is_some()
    }
    #[cfg(not(feature = "check"))]
    {
        let _ = payload;
        false
    }
}

#[cfg(feature = "check")]
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_the_hosts_outside_a_session_and_the_askers_inside() {
        let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
        assert_eq!(parallelism(1), 1);
        assert_eq!(parallelism(usize::MAX), cpus);
        let report =
            crate::explore(&crate::ExploreConfig { schedules: 2, ..Default::default() }, || {
                assert_eq!(parallelism(cpus + 3), cpus + 3);
            });
        assert!(report.clean());
    }

    #[test]
    fn passthrough_fork_is_transparent() {
        let forked = fork("child");
        let token = forked.token();
        let handle = std::thread::spawn(forked.wrap(|| 6 * 7));
        token.join_point();
        assert_eq!(handle.join().unwrap(), 42);
    }
}
