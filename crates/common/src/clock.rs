//! Clock abstraction.
//!
//! All time-dependent engine logic (operator rates, elastic-buffer resize
//! periods, the what-if predictor's `T_remain = V_remain / R_consume`, the
//! auto-tuner's deadlines) reads time through [`Clock`] so that unit tests can
//! drive a [`ManualClock`] deterministically while the engine runs on
//! [`SystemClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic clock measured in nanoseconds from an arbitrary epoch.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since the clock's epoch.
    fn now_nanos(&self) -> u64;

    /// Milliseconds since the clock's epoch.
    fn now_millis(&self) -> u64 {
        self.now_nanos() / 1_000_000
    }

    /// Duration since the clock's epoch.
    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.now_nanos())
    }
}

/// Shared handle to a clock.
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock implementation backed by [`Instant`].
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }

    /// Convenience constructor returning an `Arc<dyn Clock>`.
    pub fn shared() -> SharedClock {
        Arc::new(SystemClock::new())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Deterministic, manually-advanced clock for tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        ManualClock {
            nanos: AtomicU64::new(0),
        }
    }

    pub fn shared() -> Arc<ManualClock> {
        Arc::new(ManualClock::new())
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Advances the clock by whole milliseconds.
    pub fn advance_millis(&self, ms: u64) {
        self.advance(Duration::from_millis(ms));
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance_millis(5);
        assert_eq!(c.now_millis(), 5);
        c.advance(Duration::from_micros(1500));
        assert_eq!(c.now_nanos(), 5_000_000 + 1_500_000);
    }

    #[test]
    fn trait_object_usable() {
        let c: SharedClock = ManualClock::shared();
        assert_eq!(c.now_millis(), 0);
        assert_eq!(c.elapsed(), Duration::ZERO);
    }
}
