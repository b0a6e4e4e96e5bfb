//! Admission control: gates query starts against the executor's pool.
//!
//! [`AdmissionController`] admits queries up to
//! `max_concurrent_queries`; beyond it, arrivals either wait
//! ([`AdmissionPolicy::Queue`], bounded by `queue_limit`) or fail fast
//! ([`AdmissionPolicy::Reject`]). The default is unlimited. Admitted queries
//! share the executor's compute slots: each query's
//! elasticity controller caps its DOP at the pool's slots, and the slot
//! semaphore decides which task runs.

use std::sync::Arc;

use accordion_common::config::{AdmissionConfig, AdmissionPolicy};
use accordion_common::sync::{condvar_wait, Condvar, Mutex};
use accordion_common::{AccordionError, Result};

/// Counters describing what the admission gate has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries holding a permit right now.
    pub running: usize,
    /// Queries parked in the admission queue right now.
    pub waiting: usize,
    /// Permits ever granted.
    pub admitted: u64,
    /// Arrivals turned away (policy `Reject`, a full queue, or an abort
    /// while queued).
    pub rejected: u64,
    /// High-water mark of concurrently running queries.
    pub peak_running: usize,
}

#[derive(Debug, Default)]
struct AdmissionState {
    stats: AdmissionStats,
    /// Bumped by [`AdmissionController::abort_waiters`]; a waiter that
    /// observes a generation change fails with the stored error instead of
    /// eventually admitting. Future admits are unaffected.
    abort_generation: u64,
    abort_error: Option<AccordionError>,
}

/// Gates query starts against the shared worker pool (see module docs).
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

/// Proof of admission for one query; dropping it releases the slot and
/// wakes the next queued arrival.
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.controller.state.lock();
        st.stats.running = st.stats.running.saturating_sub(1);
        drop(st);
        self.controller.cv.notify_all();
    }
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            state: Mutex::new(AdmissionState::default()),
            cv: Condvar::new(),
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Admits one query, blocking under the `Queue` policy while the pool
    /// is saturated. Errors when the `Reject` policy turns the query away,
    /// when the wait queue itself is full, or when
    /// [`Self::abort_waiters`] fails the queued arrivals.
    pub fn admit(self: &Arc<Self>) -> Result<AdmissionPermit> {
        let mut st = self.state.lock();
        let Some(max) = self.config.max_concurrent_queries else {
            st.stats.running += 1;
            st.stats.admitted += 1;
            st.stats.peak_running = st.stats.peak_running.max(st.stats.running);
            return Ok(AdmissionPermit {
                controller: self.clone(),
            });
        };
        if st.stats.running >= max {
            match self.config.policy {
                AdmissionPolicy::Reject => {
                    st.stats.rejected += 1;
                    return Err(AccordionError::Execution(format!(
                        "admission rejected: {} queries already running (max {max})",
                        st.stats.running
                    )));
                }
                AdmissionPolicy::Queue => {
                    if st.stats.waiting >= self.config.queue_limit {
                        st.stats.rejected += 1;
                        return Err(AccordionError::Execution(format!(
                            "admission queue full: {} queries waiting (limit {})",
                            st.stats.waiting, self.config.queue_limit
                        )));
                    }
                    st.stats.waiting += 1;
                    let generation = st.abort_generation;
                    while st.stats.running >= max && st.abort_generation == generation {
                        st = condvar_wait(&self.cv, st);
                    }
                    st.stats.waiting -= 1;
                    if st.abort_generation != generation {
                        st.stats.rejected += 1;
                        let err = st.abort_error.clone().unwrap_or_else(|| {
                            AccordionError::Execution("admission wait aborted".into())
                        });
                        return Err(err);
                    }
                }
            }
        }
        st.stats.running += 1;
        st.stats.admitted += 1;
        st.stats.peak_running = st.stats.peak_running.max(st.stats.running);
        Ok(AdmissionPermit {
            controller: self.clone(),
        })
    }

    /// Fails every arrival currently parked in the admission queue with
    /// `err`. Queries already running are untouched (the scheduler poisons
    /// those separately) and *future* arrivals admit normally — this is
    /// the queued-side half of `QueryExecutor::poison_active`.
    pub fn abort_waiters(&self, err: AccordionError) {
        let mut st = self.state.lock();
        if st.stats.waiting == 0 {
            return;
        }
        st.abort_generation += 1;
        st.abort_error = Some(err);
        drop(st);
        self.cv.notify_all();
    }

    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().stats
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_admission_never_blocks_or_rejects() {
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig::default()));
        let a = ctrl.admit().unwrap();
        let b = ctrl.admit().unwrap();
        assert_eq!(ctrl.stats().running, 2);
        drop((a, b));
        let s = ctrl.stats();
        assert_eq!(s.running, 0);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.peak_running, 2);
    }

    #[test]
    fn reject_policy_fails_fast_at_capacity() {
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig::rejecting(1)));
        let permit = ctrl.admit().unwrap();
        let err = ctrl.admit().unwrap_err();
        assert!(err.to_string().contains("admission rejected"), "{err}");
        drop(permit);
        // Capacity freed: the next arrival admits.
        let _again = ctrl.admit().unwrap();
        assert_eq!(ctrl.stats().rejected, 1);
    }

    #[test]
    fn queue_policy_waits_for_a_slot() {
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig::queued(1)));
        let permit = ctrl.admit().unwrap();
        let ctrl2 = ctrl.clone();
        let waiter = std::thread::spawn(move || ctrl2.admit().map(|_| ()));
        // Give the waiter time to park.
        for _ in 0..200 {
            if ctrl.stats().waiting == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ctrl.stats().waiting, 1, "second arrival should queue");
        drop(permit);
        waiter.join().unwrap().unwrap();
        let s = ctrl.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.peak_running, 1, "never more than the cap ran at once");
    }

    #[test]
    fn full_queue_rejects_and_abort_fails_waiters() {
        let config = AdmissionConfig {
            queue_limit: 1,
            ..AdmissionConfig::queued(1)
        };
        let ctrl = Arc::new(AdmissionController::new(config));
        let permit = ctrl.admit().unwrap();
        let ctrl2 = ctrl.clone();
        let waiter = std::thread::spawn(move || ctrl2.admit().map(|_| ()));
        for _ in 0..200 {
            if ctrl.stats().waiting == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queue slot taken: the third arrival is rejected outright.
        let err = ctrl.admit().unwrap_err();
        assert!(err.to_string().contains("queue full"), "{err}");
        // Abort fails the parked waiter with the given error...
        ctrl.abort_waiters(AccordionError::Execution("shutting down".into()));
        let waited = waiter.join().unwrap();
        assert!(waited.unwrap_err().to_string().contains("shutting down"));
        // ...but admission itself still works afterwards.
        drop(permit);
        let _next = ctrl.admit().unwrap();
    }
}
