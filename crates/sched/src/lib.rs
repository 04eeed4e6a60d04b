//! # graft-sched
//!
//! Deterministic schedule exploration and happens-before race detection
//! for the graft runtime — Graft's replay-debugging philosophy aimed at
//! our own engine and server instead of at user vertex programs.
//!
//! The crate has three layers:
//!
//! 1. **Shims** ([`sync`], [`atomic`], [`chan`]): drop-in replacements
//!    for `Mutex`, `RwLock`, `Barrier`, atomics, and an mpsc channel.
//!    Outside a schedule session they are passthroughs whose only cost
//!    is a thread-local load (and with the `check` feature disabled,
//!    not even that). Inside a session every operation is a scheduler
//!    yield point and a happens-before edge between vector clocks.
//! 2. **Race detection** ([`cell::TrackedCell`]): cells whose safety
//!    rests on a protocol (phase barriers, ownership handoff) rather
//!    than a lock. Accesses are checked FastTrack-style against the
//!    happens-before graph the shims establish; unordered conflicting
//!    accesses are reported with both source locations.
//! 3. **Exploration** ([`mod@explore`]): a cooperative token-passing
//!    scheduler serializes all participating threads and drives them
//!    through N distinct interleavings (seeded random + PCT priority
//!    strategies). A failing schedule — race, deadlock, panic, stall —
//!    reports its seed, and [`explore::run_schedule`] replays that seed
//!    as an identical interleaving with a step-by-step trace.
//!
//! Threads participate by being forked through [`thread::fork`]; a
//! session is installed per-thread, so concurrently running tests
//! never interfere. [`fixtures`] holds miniature engine/server
//! protocols with planted bugs — the detector's own regression suite,
//! also runnable via `graft-cli check-sched`.

#![forbid(unsafe_code)]

pub mod atomic;
pub mod cell;
pub mod chan;
pub mod clock;
pub mod explore;
pub mod fixtures;
mod session;
pub mod sync;
pub mod thread;

pub use cell::TrackedCell;
pub use explore::{
    explore, render_trace, run_schedule, ExploreConfig, ExploreReport, ScheduleOutcome,
    StrategyKind,
};
pub use session::{AccessKind, RaceAccess, RaceReport, StepRecord};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The scheduler must serialize threads: with two forked threads
    /// incrementing a TrackedCell under a shim mutex, every schedule
    /// ends at 2 and reports no race.
    #[test]
    fn scheduled_mutex_counter_is_clean() {
        let cfg = ExploreConfig { schedules: 25, seed: 1, ..Default::default() };
        let report = explore(&cfg, || {
            let counter = Arc::new(sync::Mutex::new(0u64));
            let mut handles = Vec::new();
            for i in 0..2 {
                let counter = Arc::clone(&counter);
                let forked = thread::fork(format!("incr-{i}"));
                let token = forked.token();
                let handle = std::thread::spawn(forked.wrap(move || {
                    *counter.lock() += 1;
                }));
                handles.push((token, handle));
            }
            for (token, handle) in handles {
                token.join_point();
                let _ = handle.join();
            }
            assert_eq!(*counter.lock(), 2);
        });
        assert!(report.clean(), "unexpected failure: {:?}", report.failure.map(|f| f.verdict()));
        assert!(report.distinct >= 2, "two orders of two increments exist");
    }

    /// An unguarded cell written by two threads must be flagged even
    /// though the internal container physically serializes the writes.
    #[test]
    fn scheduled_unguarded_cell_races() {
        let cfg = ExploreConfig { schedules: 10, seed: 2, ..Default::default() };
        let report = explore(&cfg, || {
            let cell = Arc::new(TrackedCell::new("naked-cell", 0u64));
            let mut handles = Vec::new();
            for i in 0..2 {
                let cell = Arc::clone(&cell);
                let forked = thread::fork(format!("writer-{i}"));
                let token = forked.token();
                let handle = std::thread::spawn(forked.wrap(move || cell.set(i)));
                handles.push((token, handle));
            }
            for (token, handle) in handles {
                token.join_point();
                let _ = handle.join();
            }
        });
        let failure = report.failure.expect("naked concurrent writes must race");
        assert_eq!(failure.races[0].cell, "naked-cell");
    }

    /// Two threads that deadlock (ABBA lock order) are detected, not
    /// hung: the report names both parked threads.
    #[test]
    fn abba_deadlock_is_detected_not_hung() {
        let cfg = ExploreConfig { schedules: 60, seed: 3, ..Default::default() };
        let report = explore(&cfg, || {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let mut handles = Vec::new();
            for i in 0..2 {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                let forked = thread::fork(format!("locker-{i}"));
                let token = forked.token();
                let handle = std::thread::spawn(forked.wrap(move || {
                    if i == 0 {
                        let _x = a.lock();
                        let _y = b.lock();
                    } else {
                        let _y = b.lock();
                        let _x = a.lock();
                    }
                }));
                handles.push((token, handle));
            }
            for (token, handle) in handles {
                token.join_point();
                let _ = handle.join();
            }
        });
        let failure = report.failure.expect("ABBA order must deadlock in some schedule");
        assert!(failure.deadlock.is_some(), "verdict: {}", failure.verdict());
    }

    /// Channel handoff carries happens-before: a cell written before a
    /// send and read after the matching recv is ordered, not racy.
    #[test]
    fn channel_send_recv_establishes_order() {
        let cfg = ExploreConfig { schedules: 20, seed: 4, ..Default::default() };
        let report = explore(&cfg, || {
            let cell = Arc::new(TrackedCell::new("handoff-cell", 0u64));
            let (tx, rx) = chan::channel::<()>();
            let consumer = {
                let cell = Arc::clone(&cell);
                let forked = thread::fork("consumer");
                let token = forked.token();
                let handle = std::thread::spawn(forked.wrap(move || {
                    if rx.recv().is_ok() {
                        cell.with_read(|v| assert_eq!(*v, 9));
                    }
                }));
                (token, handle)
            };
            cell.set(9);
            tx.send(()).unwrap();
            drop(tx);
            consumer.0.join_point();
            let _ = consumer.1.join();
        });
        assert!(
            report.clean(),
            "send/recv must order the accesses: {:?}",
            report.failure.map(|f| format!("{} {:?}", f.verdict(), f.races))
        );
    }
}
