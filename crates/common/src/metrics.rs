//! Lock-free metrics primitives.
//!
//! Driver threads update a [`Counter`] with `Relaxed` atomics and readers
//! load it without locking; the elasticity controller keeps each stage's
//! runtime information (paper §5.1, Fig 18) as [`TimePoint`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One point of a recorded time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// When the sample was taken, since query start.
    pub at: Duration,
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }
}
