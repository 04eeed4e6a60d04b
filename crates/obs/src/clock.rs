//! Time sources for observability.
//!
//! Two implementations share one trait:
//!
//! * [`WallClock`] reports real elapsed time — what a human profiling a
//!   run wants to see.
//! * [`TickClock`] is a logical clock: every reading advances a counter
//!   by a fixed step, so a run's timestamps depend only on the *sequence*
//!   of instrumentation calls, not on the machine. Two identical seeded
//!   runs produce byte-identical metric and event exports under it.
//!
//! Coordinator-thread code stamps events with [`Clock::now_nanos`].
//! Worker threads must never touch the shared counter (their interleaving
//! is nondeterministic); they measure durations with [`Clock::timer`],
//! which for the tick clock charges a fixed cost per measured operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic time source.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds since the clock's epoch. Intended for
    /// single-threaded (coordinator) use: the tick clock advances on
    /// every call, so concurrent callers would entangle their streams.
    fn now_nanos(&self) -> u64;

    /// Starts a duration measurement that is safe on any thread.
    fn timer(&self) -> Timer;
}

/// An in-flight duration measurement; see [`Clock::timer`].
#[derive(Clone, Copy, Debug)]
pub enum Timer {
    /// Real elapsed time since the contained instant.
    Wall(Instant),
    /// Logical time: stopping always reports the contained fixed step.
    Tick(u64),
    /// Nothing is measured: stopping reports 0 (an off `Obs`).
    Off,
}

impl Timer {
    /// Elapsed nanoseconds since the timer started.
    #[inline]
    pub fn stop(&self) -> u64 {
        match self {
            Timer::Wall(start) => start.elapsed().as_nanos() as u64,
            Timer::Tick(step) => *step,
            Timer::Off => 0,
        }
    }
}

/// Real time, measured from the clock's creation.
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn timer(&self) -> Timer {
        Timer::Wall(Instant::now())
    }
}

/// A deterministic logical clock: reading it advances time by a fixed
/// number of nanoseconds.
pub struct TickClock {
    step: u64,
    ticks: AtomicU64,
}

impl TickClock {
    /// A tick clock advancing `step_nanos` per reading (minimum 1).
    pub fn new(step_nanos: u64) -> Self {
        Self { step: step_nanos.max(1), ticks: AtomicU64::new(0) }
    }
}

impl Clock for TickClock {
    fn now_nanos(&self) -> u64 {
        (self.ticks.fetch_add(1, Ordering::SeqCst) + 1) * self.step
    }

    fn timer(&self) -> Timer {
        Timer::Tick(self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_is_deterministic() {
        let a = TickClock::new(500);
        let b = TickClock::new(500);
        let seq_a: Vec<u64> = (0..4).map(|_| a.now_nanos()).collect();
        let seq_b: Vec<u64> = (0..4).map(|_| b.now_nanos()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(seq_a, vec![500, 1000, 1500, 2000]);
    }

    #[test]
    fn tick_timer_charges_fixed_cost() {
        let clock = TickClock::new(250);
        let t = clock.timer();
        assert_eq!(t.stop(), 250);
        // Timers never touch the shared counter.
        assert_eq!(clock.now_nanos(), 250);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}
