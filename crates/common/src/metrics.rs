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

/// Windowed rate meter: computes events/second over the interval between the
/// last two `sample()` calls. Writers call [`RateMeter::record`]; one reader
/// (the info collector) periodically calls [`RateMeter::sample`].
#[derive(Debug)]
pub struct RateMeter {
    clock: SharedClock,
    total: Counter,
    last_total: AtomicU64,
    last_nanos: AtomicU64,
    /// Rate computed at the previous sample, microunits/second
    /// (events·1e-6/s) to keep fractional rates in an atomic.
    last_rate_micro: AtomicU64,
}

impl RateMeter {
    pub fn new(clock: SharedClock) -> Self {
        let now = clock.now_nanos();
        RateMeter {
            clock,
            total: Counter::new(),
            last_total: AtomicU64::new(0),
            last_nanos: AtomicU64::new(now),
            last_rate_micro: AtomicU64::new(0),
        }
    }

    /// Records `n` events (e.g. rows or bytes produced).
    #[inline]
    pub fn record(&self, n: u64) {
        self.total.add(n);
    }

    /// Recomputes and returns the rate (events/second) since the previous
    /// sample. Returns the last known rate when called again within < 1 µs.
    pub fn sample(&self) -> f64 {
        let now = self.clock.now_nanos();
        let prev_ns = self.last_nanos.swap(now, Ordering::Relaxed);
        if now <= prev_ns + 1_000 {
            // Too close to the previous sample to measure; keep the old rate
            // and restore the previous timestamp so the next interval is not
            // truncated.
            self.last_nanos.store(prev_ns, Ordering::Relaxed);
            return self.last_rate_micro.load(Ordering::Relaxed) as f64 / 1e6;
        }
        let cur_total = self.total.get();
        let prev_total = self.last_total.swap(cur_total, Ordering::Relaxed);
        let dt_sec = (now - prev_ns) as f64 / 1e9;
        let rate = (cur_total.saturating_sub(prev_total)) as f64 / dt_sec;
        self.last_rate_micro
            .store((rate * 1e6) as u64, Ordering::Relaxed);
        rate
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

    /// Most recent point, if any — what the elasticity controller's what-if
    /// predictor reads as the live sample.
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
    fn rate_meter_measures_window_rate() {
        let clock = ManualClock::shared();
        let m = RateMeter::new(clock.clone());
        m.record(100);
        clock.advance(Duration::from_secs(1));
        let r = m.sample();
        assert!((r - 100.0).abs() < 1e-9, "rate was {r}");
        // Second window: 50 events over 2 seconds = 25/s.
        m.record(50);
        clock.advance(Duration::from_secs(2));
        let r = m.sample();
        assert!((r - 25.0).abs() < 1e-9, "rate was {r}");
    }

    #[test]
    fn rate_meter_survives_zero_interval() {
        let clock = ManualClock::shared();
        let m = RateMeter::new(clock.clone());
        m.record(10);
        clock.advance(Duration::from_secs(1));
        let r1 = m.sample();
        // No time passes; sample again must not divide by zero and keeps rate.
        let r2 = m.sample();
        assert_eq!(r1, r2);
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
