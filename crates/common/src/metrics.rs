//! Lock-free metrics primitives.
//!
//! The runtime information collector (paper §5.1, Fig 18) aggregates
//! per-task counters into per-stage and per-query views every collection
//! period. These primitives are designed to be updated from driver threads
//! with `Relaxed` atomics and read from the collector without locking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::SharedClock;
use crate::sync::Mutex;

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
    /// Elapsed time at the sample, relative to the series' creation.
    pub at: Duration,
    pub value: f64,
}

/// Append-only time series used by the experiment harness to record
/// per-stage throughput curves (the paper's Figures 23–30).
#[derive(Debug)]
pub struct TimeSeries {
    clock: SharedClock,
    start_nanos: u64,
    points: Mutex<Vec<TimePoint>>,
}

impl TimeSeries {
    pub fn new(clock: SharedClock) -> Self {
        let start_nanos = clock.now_nanos();
        TimeSeries {
            clock,
            start_nanos,
            points: Mutex::new(Vec::new()),
        }
    }

    pub fn shared(clock: SharedClock) -> Arc<Self> {
        Arc::new(Self::new(clock))
    }

    /// Appends a sample with the current timestamp.
    pub fn push(&self, value: f64) {
        let at = Duration::from_nanos(self.clock.now_nanos().saturating_sub(self.start_nanos));
        self.points.lock().push(TimePoint { at, value });
    }

    /// Snapshot of all recorded points.
    pub fn points(&self) -> Vec<TimePoint> {
        self.points.lock().clone()
    }

    /// Most recent point, if any.
    pub fn last(&self) -> Option<TimePoint> {
        self.points.lock().last().copied()
    }

    pub fn len(&self) -> usize {
        self.points.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::time::Duration;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn time_series_records_relative_times() {
        let clock = ManualClock::shared();
        clock.advance_millis(500); // epoch offset before creation
        let ts = TimeSeries::new(clock.clone());
        ts.push(1.0);
        clock.advance_millis(100);
        ts.push(2.0);
        let pts = ts.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].at, Duration::ZERO);
        assert_eq!(pts[1].at, Duration::from_millis(100));
        assert!(!ts.is_empty());
        assert_eq!(ts.last(), Some(pts[1]));
    }
}
