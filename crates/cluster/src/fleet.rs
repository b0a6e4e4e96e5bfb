//! Fleet-level elasticity: multi-query admission control and cross-query
//! DOP arbitration.
//!
//! The per-query controller in [`crate::elastic`] answers "what DOP does
//! *this* query need to meet *its* deadline?" — but every query answering
//! that question alone assumes it owns the whole `worker_threads` pool.
//! This module promotes the decision to the fleet:
//!
//! * [`AdmissionController`] gates query **starts** against the shared
//!   compute-slot pool. Beyond `max_concurrent_queries`, arrivals either
//!   wait ([`AdmissionPolicy::Queue`], bounded by `queue_limit`) or fail
//!   fast ([`AdmissionPolicy::Reject`]). The default is unlimited — the
//!   single-tenant behavior of earlier versions.
//! * [`FleetController`] reads each live query's runtime sample (remaining
//!   split volume, measured rate, current DOP — the same §5.2 inputs the
//!   per-query predictor uses) together with its **remaining** deadline
//!   budget, and arbitrates per-query DOP budgets over the pool: every
//!   member is guaranteed its minimum, then slots go to the queries whose
//!   required DOP is smallest first (cheapest SLO saves), with the
//!   leftover round-robined toward the laggards. A query ahead of its SLO
//!   therefore shrinks to feed one behind — Elasticutor's
//!   executor-centric reallocation shape on our slot economy.
//!
//! The per-query [`crate::elastic::ElasticityController`] holds a
//! [`FleetHandle`]: whenever it wakes — at a split-queue event, or at the
//! 10 ms tick when there is none — it publishes its live sample, gives the
//! arbiter a chance to run, and clamps its own what-if choice to the
//! budget the fleet granted. A query with no company has no budget
//! (`None`) and is capped by the pool itself: its controller never asks
//! for more tasks than the executor has compute slots. Budgets are
//! *targets handed to the existing per-stage retune path*, not preemption
//! — a shrunk query retires task slots at its next split boundary exactly
//! like any other shrink.
//!
//! Everything here is clock-driven through `accordion_common::clock`, so
//! fleet arbitration is deterministic under a [`ManualClock`] in tests.
//!
//! [`ManualClock`]: accordion_common::ManualClock

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use accordion_common::config::{AdmissionConfig, AdmissionPolicy};
use accordion_common::sync::{condvar_wait, Condvar, Mutex};
use accordion_common::{AccordionError, Result, SharedClock, SystemClock};
use accordion_plan::fragment::DopBounds;

use crate::elastic::WhatIfPredictor;

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

/// Fleet arbitration knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// The compute-slot pool the budgets are carved from — the executor's
    /// `worker_threads`.
    pub total_slots: u32,
    /// Minimum interval between arbitration rounds, milliseconds. Every
    /// member's controller offers to arbitrate each time it wakes, which
    /// with short splits and several members is far more often than
    /// budgets are worth re-deciding.
    pub arbitrate_every_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            total_slots: 4,
            arbitrate_every_ms: 2,
        }
    }
}

/// One query's live runtime sample, as published by its elasticity
/// controller each time it wakes — the fleet-level mirror of the §5.2
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberSample {
    /// Rows not scanned yet across the query's elastic stages, in claimed
    /// and unclaimed splits alike.
    pub remaining_rows: u64,
    /// Measured scan throughput at the current DOP, rows/second.
    pub measured_rate: f64,
    /// Tasks currently scanning.
    pub current_dop: u32,
}

#[derive(Debug)]
struct Member {
    deadline_ms: u64,
    /// Registration instant **on the fleet's clock** — per-query metrics
    /// clocks have their own epochs and must never be mixed with this one.
    registered_nanos: u64,
    bounds: DopBounds,
    sample: Option<MemberSample>,
    budget: Option<u32>,
}

/// One budget change applied by an arbitration round — an entry of the
/// fleet retune log ([`FleetSnapshot::events`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRetuneEvent {
    /// Arbitration round counter (1-based).
    pub round: u64,
    pub query_id: u64,
    /// DOP the member reported running at when the round fired.
    pub current_dop: u32,
    /// DOP the predictor says the member needs to meet its remaining
    /// deadline budget.
    pub required_dop: u32,
    /// True when the member's predicted completion at its current DOP
    /// misses its remaining budget.
    pub behind: bool,
    pub from_budget: Option<u32>,
    pub to_budget: u32,
}

/// A point-in-time copy of the fleet's arbitration history.
#[derive(Debug, Clone, Default)]
pub struct FleetSnapshot {
    /// Arbitration rounds that ran (≥ 2 live sampled members).
    pub rounds: u64,
    /// Rounds in which a behind-SLO member was granted budget above its
    /// minimum while an ahead-of-SLO member was live to cede the slots —
    /// the cross-query reallocation the tentpole is about.
    pub cross_query_rounds: u64,
    /// Every budget change ever applied, in order.
    pub events: Vec<FleetRetuneEvent>,
    /// Members currently registered.
    pub live_members: usize,
}

#[derive(Debug, Default)]
struct FleetState {
    members: HashMap<u64, Member>,
    last_round_nanos: Option<u64>,
    rounds: u64,
    cross_query_rounds: u64,
    events: Vec<FleetRetuneEvent>,
}

/// Arbitrates per-query DOP budgets across every live elastic query on one
/// executor (see module docs).
#[derive(Debug)]
pub struct FleetController {
    config: FleetConfig,
    clock: SharedClock,
    state: Mutex<FleetState>,
}

impl FleetController {
    pub fn new(config: FleetConfig) -> Self {
        FleetController::with_clock(config, SystemClock::shared())
    }

    /// A controller on an injected clock — [`ManualClock`] makes
    /// arbitration rounds fully deterministic in tests.
    ///
    /// [`ManualClock`]: accordion_common::ManualClock
    pub fn with_clock(config: FleetConfig, clock: SharedClock) -> Self {
        FleetController {
            config,
            clock,
            state: Mutex::new(FleetState::default()),
        }
    }

    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Adds a query to the fleet, anchoring its deadline to *now* on the
    /// fleet clock. `bounds` are the union of the query's elastic stage
    /// bounds — the range a budget may meaningfully take.
    pub fn register(&self, query_id: u64, deadline_ms: u64, bounds: DopBounds) {
        let registered_nanos = self.clock.now_nanos();
        self.state.lock().members.insert(
            query_id,
            Member {
                deadline_ms,
                registered_nanos,
                bounds,
                sample: None,
                budget: None,
            },
        );
    }

    /// Removes a finished query; its slots become available to the next
    /// round.
    pub fn deregister(&self, query_id: u64) {
        self.state.lock().members.remove(&query_id);
    }

    /// Publishes a query's live sample (called by its controller).
    pub fn publish(&self, query_id: u64, sample: MemberSample) {
        if let Some(m) = self.state.lock().members.get_mut(&query_id) {
            m.sample = Some(sample);
        }
    }

    /// The DOP budget most recently granted to `query_id` (`None` = no
    /// budget: unknown query, no round yet, or fewer than two live members
    /// — a lone query owns the pool, and the pool's slots are its cap).
    pub fn budget(&self, query_id: u64) -> Option<u32> {
        self.state
            .lock()
            .members
            .get(&query_id)
            .and_then(|m| m.budget)
    }

    /// Runs an arbitration round if at least `arbitrate_every_ms` has
    /// passed since the last one. Returns true when a round ran.
    pub fn maybe_arbitrate(&self) -> bool {
        let now = self.clock.now_nanos();
        let mut st = self.state.lock();
        let interval = Duration::from_millis(self.config.arbitrate_every_ms).as_nanos() as u64;
        if let Some(last) = st.last_round_nanos {
            if now.saturating_sub(last) < interval {
                return false;
            }
        }
        self.arbitrate_locked(&mut st, now)
    }

    /// Runs an arbitration round unconditionally (tests and tools).
    pub fn arbitrate_now(&self) -> bool {
        let now = self.clock.now_nanos();
        let mut st = self.state.lock();
        self.arbitrate_locked(&mut st, now)
    }

    pub fn snapshot(&self) -> FleetSnapshot {
        let st = self.state.lock();
        FleetSnapshot {
            rounds: st.rounds,
            cross_query_rounds: st.cross_query_rounds,
            events: st.events.clone(),
            live_members: st.members.len(),
        }
    }

    /// The round itself. Deterministic: members are processed in ascending
    /// `query_id` order and every input comes from the snapshot taken at
    /// entry.
    fn arbitrate_locked(&self, st: &mut FleetState, now_nanos: u64) -> bool {
        let mut ids: Vec<u64> = st
            .members
            .iter()
            .filter(|(_, m)| m.sample.is_some())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        if ids.len() < 2 {
            // A lone query owns the pool: clear any stale cap left over
            // from when it had company.
            for m in st.members.values_mut() {
                m.budget = None;
            }
            return false;
        }

        struct Entry {
            query_id: u64,
            bounds: DopBounds,
            current_dop: u32,
            required: u32,
            behind: bool,
            grant: u32,
        }
        let mut entries: Vec<Entry> = ids
            .iter()
            .map(|&id| {
                let m = &st.members[&id];
                let s = m.sample.expect("filtered on sample presence");
                let elapsed = now_nanos.saturating_sub(m.registered_nanos);
                let remaining = Duration::from_millis(m.deadline_ms)
                    .saturating_sub(Duration::from_nanos(elapsed));
                let choice = WhatIfPredictor::choose_dop(
                    s.remaining_rows,
                    s.measured_rate,
                    s.current_dop,
                    m.bounds,
                    remaining,
                );
                let per_task = s.measured_rate / f64::from(s.current_dop.max(1));
                let predicted_now =
                    WhatIfPredictor::predict_secs(s.remaining_rows, per_task, s.current_dop);
                // "Behind" is a posture, not a grant: at the current DOP the
                // predictor misses the remaining budget (an exhausted budget
                // with rows left counts as behind by definition).
                let behind = predicted_now > remaining.as_secs_f64();
                Entry {
                    query_id: id,
                    bounds: m.bounds,
                    current_dop: s.current_dop,
                    required: choice.dop,
                    behind,
                    grant: m.bounds.min,
                }
            })
            .collect();

        // Pass 1: everyone keeps their minimum (already granted above).
        let guaranteed: u64 = entries.iter().map(|e| u64::from(e.grant)).sum();
        let mut pool = u64::from(self.config.total_slots).saturating_sub(guaranteed);

        // Pass 2: top members up toward their required DOP, cheapest SLO
        // saves first (ascending required, query id breaking ties).
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].required, entries[i].query_id));
        for &i in &order {
            if pool == 0 {
                break;
            }
            let e = &mut entries[i];
            let want = u64::from(e.required.saturating_sub(e.grant));
            let give = want.min(pool);
            e.grant += give as u32;
            pool -= give;
        }

        // Pass 3: round-robin the leftover toward the most demanding
        // members (descending required), up to each member's max.
        order.sort_by_key(|&i| (std::cmp::Reverse(entries[i].required), entries[i].query_id));
        while pool > 0 {
            let mut progressed = false;
            for &i in &order {
                if pool == 0 {
                    break;
                }
                let e = &mut entries[i];
                if e.grant < e.bounds.max {
                    e.grant += 1;
                    pool -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        // Apply: record every budget change; classify the round.
        let round = st.rounds + 1;
        let mut any_behind_fed = false;
        let mut any_ahead = false;
        for e in &entries {
            if e.behind && e.grant > e.bounds.min {
                any_behind_fed = true;
            }
            if !e.behind {
                any_ahead = true;
            }
            let m = st.members.get_mut(&e.query_id).expect("member still live");
            if m.budget != Some(e.grant) {
                st.events.push(FleetRetuneEvent {
                    round,
                    query_id: e.query_id,
                    current_dop: e.current_dop,
                    required_dop: e.required,
                    behind: e.behind,
                    from_budget: m.budget,
                    to_budget: e.grant,
                });
                m.budget = Some(e.grant);
            }
        }
        st.rounds = round;
        st.last_round_nanos = Some(now_nanos);
        if any_behind_fed && any_ahead {
            st.cross_query_rounds += 1;
        }
        true
    }
}

/// One query's membership in the fleet, held by its elasticity controller.
/// Dropping the handle deregisters the query.
#[derive(Debug)]
pub struct FleetHandle {
    fleet: Arc<FleetController>,
    query_id: u64,
}

impl FleetHandle {
    /// Registers `query_id` and returns the handle its controller keeps.
    pub fn register(
        fleet: Arc<FleetController>,
        query_id: u64,
        deadline_ms: u64,
        bounds: DopBounds,
    ) -> Self {
        fleet.register(query_id, deadline_ms, bounds);
        FleetHandle { fleet, query_id }
    }

    pub fn publish(&self, sample: MemberSample) {
        self.fleet.publish(self.query_id, sample);
    }

    /// Offers the fleet a chance to arbitrate (rate-limited internally).
    pub fn offer_arbitration(&self) {
        self.fleet.maybe_arbitrate();
    }

    /// This query's current DOP budget (`None` = alone: the pool is the
    /// cap).
    pub fn budget(&self) -> Option<u32> {
        self.fleet.budget(self.query_id)
    }
}

impl Drop for FleetHandle {
    fn drop(&mut self) {
        self.fleet.deregister(self.query_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_common::ManualClock;

    fn bounds(min: u32, max: u32) -> DopBounds {
        DopBounds::new(min, max)
    }

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

    /// Builds a two-member fleet on a manual clock: query 1 is ahead of a
    /// loose deadline, query 2 behind a tight one.
    fn contended_fleet() -> (Arc<FleetController>, Arc<ManualClock>) {
        let clock = ManualClock::shared();
        let fleet = Arc::new(FleetController::with_clock(
            FleetConfig {
                total_slots: 4,
                arbitrate_every_ms: 10,
            },
            clock.clone(),
        ));
        fleet.register(1, 10_000, bounds(1, 4)); // loose deadline
        fleet.register(2, 20, bounds(1, 4)); // tight deadline
        clock.advance_millis(10);
        // Query 1: 1000 rows left at 1000 rows/s on 2 tasks → needs well
        // under its ~10 s of remaining budget even at DOP 1.
        fleet.publish(
            1,
            MemberSample {
                remaining_rows: 1_000,
                measured_rate: 1_000.0,
                current_dop: 2,
            },
        );
        // Query 2: 10 ms of budget left, 1000 rows at 100 rows/s on 1 task
        // → unmeetable, the predictor wants its max.
        fleet.publish(
            2,
            MemberSample {
                remaining_rows: 1_000,
                measured_rate: 100.0,
                current_dop: 1,
            },
        );
        (fleet, clock)
    }

    #[test]
    fn arbitration_feeds_the_laggard_from_the_ahead_query() {
        let (fleet, _clock) = contended_fleet();
        assert!(fleet.arbitrate_now());
        // Pool of 4: both keep min 1; query 1 requires 1 (ahead), query 2
        // requires 4 (behind) and soaks up the remaining 2 → budget 3.
        assert_eq!(fleet.budget(1), Some(1));
        assert_eq!(fleet.budget(2), Some(3));
        let snap = fleet.snapshot();
        assert_eq!(snap.rounds, 1);
        assert_eq!(
            snap.cross_query_rounds, 1,
            "laggard was fed while a peer was ahead"
        );
        let by_query: HashMap<u64, FleetRetuneEvent> =
            snap.events.iter().map(|e| (e.query_id, *e)).collect();
        assert!(!by_query[&1].behind);
        assert!(by_query[&2].behind);
        assert_eq!(by_query[&2].to_budget, 3);
    }

    #[test]
    fn arbitration_is_deterministic_under_a_manual_clock() {
        let run = || {
            let (fleet, clock) = contended_fleet();
            fleet.arbitrate_now();
            clock.advance_millis(50);
            fleet.publish(
                1,
                MemberSample {
                    remaining_rows: 500,
                    measured_rate: 1_000.0,
                    current_dop: 1,
                },
            );
            fleet.publish(
                2,
                MemberSample {
                    remaining_rows: 900,
                    measured_rate: 300.0,
                    current_dop: 3,
                },
            );
            fleet.arbitrate_now();
            let snap = fleet.snapshot();
            (
                fleet.budget(1),
                fleet.budget(2),
                snap.rounds,
                snap.cross_query_rounds,
                snap.events
                    .iter()
                    .map(|e| (e.round, e.query_id, e.from_budget, e.to_budget, e.behind))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run(), "identical inputs must arbitrate identically");
    }

    #[test]
    fn lone_member_is_uncapped() {
        let (fleet, _clock) = contended_fleet();
        assert!(fleet.arbitrate_now());
        assert_eq!(fleet.budget(2), Some(3));
        fleet.deregister(1);
        // With one member left no round runs and the stale cap is cleared.
        assert!(!fleet.arbitrate_now());
        assert_eq!(fleet.budget(2), None);
    }

    #[test]
    fn maybe_arbitrate_respects_the_interval() {
        let (fleet, clock) = contended_fleet();
        assert!(fleet.maybe_arbitrate());
        assert!(!fleet.maybe_arbitrate(), "second round inside the interval");
        clock.advance_millis(10);
        assert!(fleet.maybe_arbitrate());
    }

    #[test]
    fn no_quorum_attempt_does_not_charge_the_interval() {
        // Short-lived queries offer arbitration the moment they publish; an
        // offer that finds only one sampled member must not start the
        // rate-limit window, or the first real two-member window (which can
        // be shorter than the interval) would never arbitrate.
        let clock = ManualClock::shared();
        let fleet = Arc::new(FleetController::with_clock(
            FleetConfig {
                total_slots: 4,
                arbitrate_every_ms: 10,
            },
            clock.clone(),
        ));
        fleet.register(1, 10_000, bounds(1, 4));
        fleet.publish(
            1,
            MemberSample {
                remaining_rows: 1_000,
                measured_rate: 1_000.0,
                current_dop: 2,
            },
        );
        assert!(!fleet.maybe_arbitrate(), "lone member never arbitrates");
        // A second query joins and publishes immediately after — well
        // inside what would have been the interval had it been charged.
        clock.advance_millis(1);
        fleet.register(2, 20, bounds(1, 4));
        fleet.publish(
            2,
            MemberSample {
                remaining_rows: 1_000,
                measured_rate: 100.0,
                current_dop: 1,
            },
        );
        assert!(
            fleet.maybe_arbitrate(),
            "first two-member offer must arbitrate"
        );
        assert_eq!(fleet.snapshot().rounds, 1);
    }

    #[test]
    fn handle_drop_deregisters() {
        let fleet = Arc::new(FleetController::new(FleetConfig::default()));
        let h = FleetHandle::register(fleet.clone(), 7, 1_000, bounds(1, 4));
        assert_eq!(fleet.snapshot().live_members, 1);
        h.publish(MemberSample {
            remaining_rows: 10,
            measured_rate: 1.0,
            current_dop: 1,
        });
        drop(h);
        assert_eq!(fleet.snapshot().live_members, 0);
    }
}
