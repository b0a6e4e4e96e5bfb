//! Intra-query runtime elasticity: the re-parallelization controller
//! (paper §5, Fig 13).
//!
//! The headline mechanism of the paper: a running query's Source-stage
//! degree of parallelism is retuned **between splits** instead of
//! restarting the query. Three pieces cooperate:
//!
//! 1. **Runtime info collection** — each [`StageControl`] measures its
//!    stage's scan throughput per *measurement era* and keeps the stage's
//!    series of paper Fig 18, from one read of the scan meters
//!    ([`QueryMetrics::scan_totals`]) at every step, never on a timer of
//!    its own. The first era starts at the stage's first scanned page, not
//!    at query start: thread start-up and the wait for a compute slot are
//!    not scan time, and billing them to the scan makes a 25 ms query look
//!    three times slower than it is. Every retune starts a new era, so the
//!    rate always measures the *current* task set. A stage's series ends
//!    with its scan, and goes to the query's stats when the run ends.
//! 2. **The what-if predictor** ([`WhatIfPredictor`], §5.2) — estimates the
//!    remaining completion time under a candidate DOP as
//!    `T_remain(d) = V_remain / (R_per_task · d)`. `V_remain` is every row
//!    not scanned yet — the stage's total minus its scan counters, so a
//!    split that is claimed but still being read counts — and `R_per_task`
//!    is the era's rate over the tasks that can actually run at once.
//!    [`WhatIfPredictor::evaluate`] turns that into a decision: the
//!    **smallest** DOP whose prediction meets what is left of the deadline
//!    (don't pay for parallelism the deadline doesn't need), never more
//!    tasks than the stage can occupy compute slots, and no shrink that
//!    merely spends the head start a higher DOP has earned.
//! 3. **The re-parallelization mechanism** — each stage's scan tasks
//!    claim splits from a shared [`SplitQueue`], in every mode; under the
//!    controller its pause threshold holds claims at the decision
//!    boundary, so a retune always lands between splits, never mid-split.
//!    The first boundary is armed when node 0 wires the query, before a
//!    task on any node can claim.
//!
//! ## Decided where the boundary is reached
//!
//! The controller is no thread: its stages' controls sit behind one mutex with
//! one entry, [`Step::step`], which the threads that hit a boundary run. The
//! claim that reaches the decision boundary (every claimed split is one) or
//! takes the last split steps before it scans; so does the scan page that makes
//! a task's sample usable, so the first decision comes a fraction of a
//! millisecond into the task's first split. Both go on if the mutex is held,
//! leaving a flag its holder reads before it lets go. A claimant parked at a
//! paused boundary waits for the mutex, counted in [`StageView::parked`]: it
//! waits only while another thread is inside one closed-form evaluation.
//! Nothing waits for a timer.
//!
//! An `auto` decision wants a **usable sample** — [`MIN_SAMPLE_PAGES`]
//! pages in the current era — and is postponed to the next event without
//! one. But the controller **never holds a parked claimant while it waits
//! to know more**: with someone at the boundary the stage runs below its
//! DOP, no rows flow from that task, and the sample being waited for may
//! never come; it decides on what it has (which, with nothing measured,
//! is "carry on"). Every evaluation, acted on or not, is a `DecisionRecord`
//! in the query's stats: the [`StageView`] the predictor was given and the
//! [`Evaluation`] it returned, so re-evaluating the view replays it. The
//! step that sees the query's poison releases every queue instead.
//!
//! The era's average is all the predictor has. A scan thread that loses its
//! core for a few milliseconds early in an era reads as a scan that got
//! slower: the stage grows, and shrinks back (where the deadline lets it)
//! once the average has recovered. That is deliberate — a grow that turns
//! out unnecessary costs a thread start, a late one costs the deadline.
//!
//! ## The EndSignal handshake (Fig 13)
//!
//! *Shrinking*: the controller retires task slots on the split queue. A retired
//! task's next claim is answered like exhaustion — no split, on any node — so
//! it finishes its current split, then its scan ends and its task's
//! `ExchangeWriter` leaves its node's writer group in-band: the claim that
//! returns nothing is the paper's EndSignal, and nothing downstream tells it
//! from exhaustion. Partial-operator state is safe to abandon this way because
//! partial aggregates/top-Ns are reconstructible unions: whatever the retired
//! task already pushed merges downstream exactly like the output of a completed
//! task (paper §4.1).
//!
//! *Growing*: the stepping thread starts the new tasks through the scheduler's
//! task starter, on its slot pool, and they drain the same split queue. A new
//! task's writer joins its node's writer group for the stage's output edge (see
//! `accordion_net::exchange`); the edge itself does not change. Its producers
//! are nodes, and hash partitioning is DOP-stable — routing depends only on the
//! consumer count, which never changes — so no in-flight page needs
//! repartitioning either. A grow joins only a group with a live member: once
//! every task of the stage on the controller's node has ended (the splits ran
//! out, or a LIMIT ended them) the group has ended, the grow starts nothing,
//! and the stage's DOP does not count it.
//!
//! [`SplitQueue`]: accordion_exec::splits::SplitQueue

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use accordion_common::config::ElasticityMode;
use accordion_common::metrics::TimePoint;
use accordion_common::sync::Mutex;
use accordion_common::Result;
use accordion_exec::metrics::{
    DecisionRecord, EraSample, Evaluation, QueryMetrics, RetuneEvent, ScanTotals, StageSeries,
    StageView, SAMPLE_MIN_INTERVAL_NANOS,
};
use accordion_exec::splits::{SplitQueue, Step};
use accordion_net::ExchangeRegistry;
use accordion_plan::fragment::DopBounds;

/// Pages a measurement era must hold before `auto` acts on its rate: the
/// first few pages of a task are read cache-cold between two clock reads
/// microseconds apart, eight average that out, and a scan produces them in
/// well under a millisecond.
pub const MIN_SAMPLE_PAGES: u64 = 8;

/// The §5.2 what-if predictor: completion-time estimates under candidate
/// DOPs, from live runtime info.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfPredictor;

impl WhatIfPredictor {
    /// `T_remain = V_remain / (R_per_task · dop)`: `remaining_rows` still to
    /// scan, consumed by `dop` tasks each sustaining `per_task_rate`
    /// rows/second.
    pub fn predict_secs(remaining_rows: u64, per_task_rate: f64, dop: u32) -> f64 {
        if remaining_rows == 0 {
            return 0.0;
        }
        let combined = per_task_rate * f64::from(dop.max(1));
        // A NaN or infinite rate (a meter sampled inside one clock tick can
        // produce either) means "nothing usable measured": predict infinite
        // remaining time rather than letting NaN poison the comparison chain.
        if !combined.is_finite() || combined <= 0.0 {
            return f64::INFINITY;
        }
        remaining_rows as f64 / combined
    }

    /// Picks the smallest DOP within `bounds` whose predicted completion
    /// time meets `deadline` — scaling the stage-level `measured_rate`
    /// (observed at `current_dop` tasks) linearly per task, the paper's
    /// §5.2 model. Falls back to `bounds.max` when no candidate meets the
    /// deadline (including when nothing has been measured yet). Computed in
    /// closed form (`required = ⌈V_remain / (R_per_task · deadline)⌉`) so
    /// arbitrarily wide bounds cost nothing while the stage's claimants
    /// wait at the decision boundary.
    pub fn choose_dop(
        remaining_rows: u64,
        measured_rate: f64,
        current_dop: u32,
        bounds: DopBounds,
        deadline: Duration,
    ) -> u32 {
        let per_task = measured_rate / f64::from(current_dop.max(1));
        if remaining_rows == 0 {
            return bounds.min;
        }
        let deadline_secs = deadline.as_secs_f64();
        // `per_task <= 0.0` is false for NaN, and `NaN as u32` is 0 — so an
        // unguarded NaN rate would silently clamp to the *minimum* DOP, the
        // exact opposite of the intended nothing-measured fallback. Treat
        // every non-finite or non-positive input as "unmeetable" and take
        // the largest DOP in bounds.
        if !per_task.is_finite()
            || per_task <= 0.0
            || !deadline_secs.is_finite()
            || deadline_secs <= 0.0
        {
            return bounds.max;
        }
        let required = (remaining_rows as f64 / (per_task * deadline_secs)).ceil();
        if !required.is_finite() || required >= f64::from(bounds.max) {
            bounds.max
        } else {
            bounds.clamp(required as u32)
        }
    }
}

impl WhatIfPredictor {
    /// One `auto` decision (see the module docs for the rules' reasons).
    ///
    /// * No usable sample ([`MIN_SAMPLE_PAGES`]) and nobody parked:
    ///   postponed. Somebody parked: decide on what there is — and with
    ///   nothing measured at all, that is "carry on", unless the deadline
    ///   has already passed.
    /// * Otherwise the smallest DOP that scans `unscanned_rows` within
    ///   `budget`, at the per-task rate of the tasks that really run
    ///   concurrently (`min(dop, slots)` — a task without a slot adds no
    ///   throughput, so dividing by all of them would understate the rate).
    /// * A **shrink** goes no lower than the DOP that would have met the
    ///   whole deadline had the stage run at it from the start: a stage
    ///   ahead of schedule got there by running wider, and dropping below
    ///   that width just spends the head start down to a prediction that
    ///   equals the budget — one slow split from a miss. For the same
    ///   reason a shrink needs a prediction strictly inside the budget.
    /// * Never above the cap: tasks beyond the query's slots queue for a
    ///   slot instead of scanning.
    pub fn evaluate(view: &StageView) -> Evaluation {
        let occupied = view.dop.min(view.slots).max(1);
        let rate = view.sample.rate();
        let per_task_rate = rate / f64::from(occupied);
        let predict = |dop: u32| Self::predict_secs(view.unscanned_rows, per_task_rate, dop);
        let stay = |postponed: bool| Evaluation {
            per_task_rate,
            required_dop: view.dop,
            chosen_dop: view.dop,
            predicted_secs: predict(view.dop),
            postponed,
        };
        if view.sample.pages < MIN_SAMPLE_PAGES && view.parked == 0 {
            return stay(true);
        }
        if view.sample.rows == 0 && !view.budget.is_zero() {
            return stay(false);
        }
        let required = Self::choose_dop(
            view.unscanned_rows,
            rate,
            occupied,
            view.bounds,
            view.budget,
        );
        let mut chosen = required;
        if chosen < view.dop {
            let steady =
                Self::choose_dop(view.total_rows, rate, occupied, view.bounds, view.deadline);
            chosen = chosen.max(steady.min(view.dop));
            if predict(chosen) >= view.budget.as_secs_f64() {
                chosen = view.dop;
            }
        }
        let chosen_dop = view.bounds.clamp(chosen.min(view.slots));
        Evaluation {
            per_task_rate,
            required_dop: required,
            chosen_dop,
            predicted_secs: predict(chosen_dop),
            postponed: false,
        }
    }
}

/// One elastic Source stage under controller management.
pub struct StageControl {
    pub stage: u32,
    bounds: DopBounds,
    queue: Arc<SplitQueue>,
    /// Active task slots (slot ids are never reused); `len()` is the
    /// stage's current DOP.
    active: Vec<u32>,
    /// Compute slots the stage's tasks can occupy at once: the controller
    /// node's pool, where every grow runs, plus the planned tasks other
    /// nodes host. `Auto` never asks for more tasks than this.
    slots: u32,
    /// Next fresh slot id for grown tasks.
    next_slot: u32,
    done: bool,
    /// Where the current measurement era began: the stage's scan totals
    /// and the clock then. `None` until the stage's first page, which opens
    /// the first era and is not part of it.
    era: Option<(ScanTotals, u64)>,
    /// The stage's era rate over time (paper Fig 18): at most one point per
    /// [`SAMPLE_MIN_INTERVAL_NANOS`], plus one per decision.
    series: Vec<TimePoint>,
}

impl StageControl {
    pub fn new(
        stage: u32,
        bounds: DopBounds,
        initial_dop: u32,
        slots: u32,
        queue: Arc<SplitQueue>,
    ) -> Self {
        let initial_dop = initial_dop.max(1);
        StageControl {
            stage,
            bounds,
            queue,
            active: (0..initial_dop).collect(),
            slots: slots.max(1),
            next_slot: initial_dop,
            done: false,
            era: None,
            series: Vec::new(),
        }
    }

    fn dop(&self) -> u32 {
        self.active.len() as u32
    }

    /// Detaches the controller from this stage: no claim ever waits again,
    /// and the output edge ends once the remaining tasks finish. Idempotent.
    fn finish(&mut self) {
        self.queue.release();
        self.done = true;
    }
}

/// Starts one grown task `(stage, slot)` on the scheduler's pool: `false`
/// when the stage's writer group has ended and nothing started.
pub type Spawn = Box<dyn Fn(u32, u32) -> Result<bool> + Send + Sync>;

/// The runtime elasticity controller of one query execution: its elastic
/// stages' controls behind one mutex, entered through [`Step::step`] by the
/// threads that reach a boundary (see the module docs).
pub struct ElasticityController {
    mode: ElasticityMode,
    /// Also the deadline's anchor: every `Auto` decision budgets against
    /// the deadline **minus [`QueryMetrics::elapsed`]**, not the whole
    /// deadline, on a clock tests set (`QueryMetrics::with_clock`).
    metrics: Arc<QueryMetrics>,
    /// Whose poison ends every decision, and whose writer groups end stages.
    registry: Arc<ExchangeRegistry>,
    stages: Mutex<Vec<StageControl>>,
    /// Set by every event; the holder of `stages` passes again while set.
    pending: AtomicBool,
    spawn: Spawn,
}

impl ElasticityController {
    /// Builds the controller and installs its step on every stage's queue
    /// and every scan registered from now on. Node 0 armed each queue's first
    /// boundary (one claim in) when it wired the query.
    pub fn new(
        mode: ElasticityMode,
        metrics: Arc<QueryMetrics>,
        registry: Arc<ExchangeRegistry>,
        stages: Vec<StageControl>,
        spawn: Spawn,
    ) -> Arc<Self> {
        let ctrl = Arc::new(ElasticityController {
            mode,
            metrics,
            registry,
            stages: Mutex::new(stages),
            pending: AtomicBool::new(false),
            spawn,
        });
        let step: Weak<dyn Step> = Arc::downgrade(&ctrl) as Weak<ElasticityController>;
        for st in ctrl.stages.lock().iter() {
            st.queue.set_step(step.clone());
        }
        // A task's first page opens its era and is not part of it.
        ctrl.metrics.step_scans_at(MIN_SAMPLE_PAGES + 1, step);
        ctrl
    }

    /// The run has ended: each stage's series goes to the stats, and its
    /// queue is released.
    pub fn finish(&self) {
        for st in self.stages.lock().iter_mut() {
            st.finish();
            self.metrics.record_series(StageSeries {
                stage: st.stage,
                points: std::mem::take(&mut st.series),
            });
        }
    }

    /// The deadline minus the time since query start, saturating at zero,
    /// which [`WhatIfPredictor::choose_dop`] meets with the maximum DOP.
    fn remaining_budget(&self, deadline_ms: u64) -> Duration {
        Duration::from_millis(deadline_ms).saturating_sub(self.metrics.elapsed())
    }

    /// Reads `st`'s scan meters once and returns them with its current era,
    /// adding the era's rate to the series when a point is due: its first,
    /// one [`SAMPLE_MIN_INTERVAL_NANOS`] after the last, or one `force`d.
    fn sample(&self, st: &mut StageControl, force: bool) -> (ScanTotals, EraSample) {
        let totals = self.metrics.scan_totals(st.stage);
        let (now, at) = (self.metrics.clock().now_nanos(), self.metrics.elapsed());
        // The first era begins with the first page, which is itself
        // outside it: it was scanned before the era's clock started.
        if let (None, Some(first)) = (st.era, totals.first_page) {
            let opened = ScanTotals {
                rows: first.rows,
                pages: 1,
                first_page: None,
            };
            st.era = Some((opened, first.nanos));
        }
        let sample = st
            .era
            .map_or(EraSample::default(), |(start, nanos)| EraSample {
                rows: totals.rows.saturating_sub(start.rows),
                pages: totals.pages.saturating_sub(start.pages),
                secs: now.saturating_sub(nanos) as f64 / 1e9,
            });
        let spacing = Duration::from_nanos(SAMPLE_MIN_INTERVAL_NANOS);
        let due = |last: &TimePoint| at.saturating_sub(last.at) >= spacing;
        if force || st.series.last().is_none_or(due) {
            st.series.push(TimePoint {
                at,
                value: sample.rate(),
            });
        }
        (totals, sample)
    }

    /// Starts a new measurement era for `st`, so later rates measure its
    /// new task set only.
    fn restart_era(&self, st: &mut StageControl) {
        let totals = self.metrics.scan_totals(st.stage);
        st.era = Some((totals, self.metrics.clock().now_nanos()));
    }

    /// One look at every stage still running: finish it once its splits or
    /// its tasks (a LIMIT met mid-scan) have run out, take its decision if
    /// one is due, and sample it otherwise. A poisoned query decides nothing.
    fn pass(&self, stages: &mut [StageControl]) {
        let poisoned = || self.registry.poison_error().is_some();
        for st in stages.iter_mut().filter(|st| !st.done) {
            if poisoned() {
                break;
            }
            let tasks_done = (self.registry.producers_remaining(st.stage)).map_or(true, |n| n == 0);
            if st.queue.remaining_splits() == 0 || tasks_done {
                self.sample(st, false);
                st.finish();
            } else if !st.queue.decision_due() {
                self.sample(st, false);
            } else if let Err(e) = self.decide(st) {
                self.registry.poison(e);
            }
        }
        if poisoned() {
            stages.iter_mut().for_each(StageControl::finish);
        }
    }

    /// One `Auto` evaluation of `st`, recorded whatever comes of it.
    fn evaluate(
        &self,
        st: &StageControl,
        deadline_ms: u64,
        sampled: (ScanTotals, EraSample),
    ) -> Evaluation {
        let (totals, sample) = sampled;
        let view = StageView {
            dop: st.dop(),
            bounds: st.bounds,
            slots: st.slots,
            total_rows: st.queue.total_rows(),
            // Every row not scanned yet. Counting only the *unclaimed*
            // splits would leave out the ones being read right now — up to
            // a split per task, which late in a stage is most of what
            // remains.
            unscanned_rows: st.queue.total_rows().saturating_sub(totals.rows),
            sample,
            parked: st.queue.parked(),
            deadline: Duration::from_millis(deadline_ms),
            budget: self.remaining_budget(deadline_ms),
        };
        let eval = WhatIfPredictor::evaluate(&view);
        self.metrics.record_decision(DecisionRecord {
            at_ms: self.metrics.elapsed().as_secs_f64() * 1e3,
            stage: st.stage,
            view,
            eval,
        });
        eval
    }

    /// One decision for `st`, whose boundary has been reached.
    fn decide(&self, st: &mut StageControl) -> Result<()> {
        // Fresh, and a point of the series whatever its spacing.
        let sampled = self.sample(st, true);
        let (bounds, dop) = (st.bounds, st.dop());
        let (target, predicted_secs) = match self.mode {
            ElasticityMode::Off => return Ok(()),
            ElasticityMode::Forced { target_dop } => (bounds.clamp(target_dop), 0.0),
            ElasticityMode::ForcedGrow => (bounds.clamp(dop.saturating_mul(2)), 0.0),
            ElasticityMode::ForcedShrink => (bounds.min, 0.0),
            ElasticityMode::Cycle { high, low } => {
                // Alternate between the two poles at every boundary: the
                // stress schedule for repeated grow→shrink→grow within one
                // query (exercises per-era rate baselines and exactly-once
                // split claiming under churn).
                let next = if dop >= bounds.clamp(high) { low } else { high };
                (bounds.clamp(next), 0.0)
            }
            ElasticityMode::Auto { deadline_ms } => {
                let eval = self.evaluate(st, deadline_ms, sampled);
                if eval.postponed {
                    // The boundary stays where it is: whoever claims next
                    // parks at it and steps, and then the decision is taken
                    // on whatever has been measured.
                    return Ok(());
                }
                (eval.chosen_dop, eval.predicted_secs)
            }
        };

        self.apply_retune(st, target, predicted_secs)?;

        // Arm the next boundary — or, for one-shot forced schedules, go
        // passive: release the queue so claims never wait again.
        match self.mode {
            // Every claimed split is a boundary. That costs one step per
            // split and, as a rule, no waiting: the claim that reaches the
            // boundary steps before it scans, and the boundary has moved on
            // before the next claim.
            ElasticityMode::Auto { .. } | ElasticityMode::Cycle { .. } => {
                st.queue.set_pause_after(Some(st.queue.claimed() + 1));
            }
            _ => st.queue.release(),
        }
        Ok(())
    }

    /// Applies a DOP change for `st` and — inseparably — records the retune
    /// event and starts the stage's next measurement era. This is the
    /// *only* code path that changes a stage's task set, so a new era
    /// begins on every DOP change: the next decision must not divide a rate
    /// observed at the old DOP by the new one (mixing eras skews the
    /// per-task rate by up to the grow/shrink ratio).
    fn apply_retune(&self, st: &mut StageControl, target: u32, predicted_secs: f64) -> Result<()> {
        let dop = st.dop();
        if target == dop {
            return Ok(());
        }
        // Before the first task starts: `first_page_ms` counts from here.
        let at_ms = self.metrics.elapsed().as_secs_f64() * 1e3;
        let mut spawned = Vec::new();
        if target > dop {
            // Grow: each new task's writer joins the stage's live group;
            // the edge does not change. Once the group has ended no grow
            // can start, and the DOP counts only the ones that did.
            for _ in 0..(target - dop) {
                if !(self.spawn)(st.stage, st.next_slot)? {
                    break;
                }
                st.active.push(st.next_slot);
                spawned.push(st.next_slot);
                st.next_slot += 1;
            }
        } else {
            // Shrink: retire the most recently added slots; each retired
            // task's scan ends at its next claim.
            for _ in 0..(dop - target) {
                if let Some(slot) = st.active.pop() {
                    st.queue.retire(slot);
                }
            }
        }
        let to_dop = st.dop();
        if to_dop == dop {
            return Ok(());
        }
        self.metrics.record_retune(
            RetuneEvent {
                stage: st.stage,
                from_dop: dop,
                to_dop,
                splits_claimed: st.queue.claimed(),
                predicted_secs,
                at_ms,
                // Known once a spawned task has scanned a page: the
                // snapshot fills it in.
                first_page_ms: None,
            },
            spawned,
        );
        self.restart_era(st);
        Ok(())
    }
}

impl Step for ElasticityController {
    /// One pass over the stages, and another for every event that arrived
    /// meanwhile. A caller that is not `parked` goes on if another thread
    /// holds the mutex, leaving its event pending for that thread, which
    /// reads the flag again once it has let go: no event is lost.
    fn step(&self, parked: bool) {
        self.pending.store(true, Ordering::SeqCst);
        let try_lock = || self.stages.try_lock();
        let mut held = if parked {
            Some(self.stages.lock())
        } else {
            try_lock()
        };
        while let Some(mut stages) = held {
            while self.pending.swap(false, Ordering::SeqCst) {
                self.pass(&mut stages);
            }
            drop(stages);
            held = self.pending.load(Ordering::SeqCst).then(try_lock).flatten();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_common::ManualClock;
    use accordion_net::ExchangeStats;

    fn bounds(min: u32, max: u32) -> DopBounds {
        DopBounds::new(min, max)
    }

    #[test]
    fn predict_secs_is_volume_over_combined_rate() {
        // 1000 rows at 100 rows/s/task and 4 tasks → 2.5 s.
        let t = WhatIfPredictor::predict_secs(1000, 100.0, 4);
        assert!((t - 2.5).abs() < 1e-9);
        assert_eq!(WhatIfPredictor::predict_secs(0, 100.0, 4), 0.0);
        assert_eq!(WhatIfPredictor::predict_secs(10, 0.0, 4), f64::INFINITY);
    }

    #[test]
    fn choose_dop_picks_smallest_meeting_deadline() {
        // 1000 rows remaining, measured 100 rows/s at 2 tasks → 50/s/task.
        // Deadline 10 s: dop 2 predicts 10 s — the smallest that fits.
        let dop =
            WhatIfPredictor::choose_dop(1000, 100.0, 2, bounds(1, 8), Duration::from_secs(10));
        assert_eq!(dop, 2);
        assert!((WhatIfPredictor::predict_secs(1000, 50.0, dop) - 10.0).abs() < 1e-9);
        // Tight deadline 3 s: needs ≥ 1000/(50·3) = 6.67 → dop 7.
        let dop = WhatIfPredictor::choose_dop(1000, 100.0, 2, bounds(1, 8), Duration::from_secs(3));
        assert_eq!(dop, 7);
        assert!(WhatIfPredictor::predict_secs(1000, 50.0, dop) <= 3.0);
        // Impossible deadline: the largest DOP in bounds.
        let dop = WhatIfPredictor::choose_dop(1000, 100.0, 2, bounds(1, 8), Duration::ZERO);
        assert_eq!(dop, 8);
        // Generous deadline: the smallest.
        let dop =
            WhatIfPredictor::choose_dop(1000, 100.0, 2, bounds(2, 8), Duration::from_secs(60));
        assert_eq!(dop, 2);
    }

    #[test]
    fn choose_dop_without_measurements_maxes_out() {
        // No throughput observed → every prediction is infinite → largest.
        let dop = WhatIfPredictor::choose_dop(1000, 0.0, 1, bounds(1, 4), Duration::from_secs(60));
        assert_eq!(dop, 4);
        assert_eq!(WhatIfPredictor::predict_secs(1000, 0.0, dop), f64::INFINITY);
    }

    #[test]
    fn choose_dop_guards_nan_and_infinite_rates() {
        // NaN passes a `<= 0.0` test and casts to u32 as 0 — before the
        // guard, a NaN rate silently clamped to the *minimum* DOP. It must
        // take the maximum, the nothing-measured fallback.
        let dop =
            WhatIfPredictor::choose_dop(1000, f64::NAN, 2, bounds(1, 8), Duration::from_secs(10));
        assert_eq!(dop, 8);
        assert_eq!(
            WhatIfPredictor::predict_secs(1000, f64::NAN, dop),
            f64::INFINITY
        );
        // An infinite measured rate (meter sampled within one clock tick)
        // likewise has no extrapolation value.
        let dop = WhatIfPredictor::choose_dop(
            1000,
            f64::INFINITY,
            2,
            bounds(1, 8),
            Duration::from_secs(10),
        );
        assert_eq!(dop, 8);
        // Negative rates (a meter wrapped or was reset mid-window) too.
        let dop =
            WhatIfPredictor::choose_dop(1000, -50.0, 2, bounds(1, 8), Duration::from_secs(10));
        assert_eq!(dop, 8);
    }

    #[test]
    fn choose_dop_guards_degenerate_deadlines() {
        // Zero deadline: unmeetable by any finite rate → max DOP.
        let dop = WhatIfPredictor::choose_dop(1000, 100.0, 2, bounds(1, 8), Duration::ZERO);
        assert_eq!(dop, 8);
        // Sub-sample-interval query: the whole scan finishes before the
        // controller takes its first sample, so the rate reads 0.0 and
        // remaining volume is tiny. Still deterministic: max DOP.
        let dop = WhatIfPredictor::choose_dop(3, 0.0, 1, bounds(1, 4), Duration::from_millis(1));
        assert_eq!(dop, 4);
        assert_eq!(WhatIfPredictor::predict_secs(3, 0.0, dop), f64::INFINITY);
        // And when the queue is already empty, no work remains: min DOP,
        // zero predicted time, regardless of the rate's pathology.
        let dop = WhatIfPredictor::choose_dop(0, f64::NAN, 2, bounds(2, 8), Duration::ZERO);
        assert_eq!(dop, 2);
        assert_eq!(WhatIfPredictor::predict_secs(0, f64::NAN, dop), 0.0);
    }

    #[test]
    fn half_spent_deadline_chooses_a_strictly_higher_dop() {
        // The headline regression: the controller must budget each Auto
        // decision against the deadline MINUS elapsed query time. With the
        // full-deadline bug, both decisions below were identical.
        let clock = ManualClock::shared();
        let (_, _, _, ctrl) = controlled(ElasticityMode::auto(10_000), Vec::new(), clock.clone());

        // 1000 rows left, 100 rows/s measured at 2 tasks → 50 rows/s/task.
        let decide =
            |budget: Duration| WhatIfPredictor::choose_dop(1000, 100.0, 2, bounds(1, 8), budget);

        // Fresh query: the full 10 s remain; dop 2 meets it exactly.
        assert_eq!(ctrl.remaining_budget(10_000), Duration::from_secs(10));
        let fresh = decide(ctrl.remaining_budget(10_000));
        assert_eq!(fresh, 2);

        // Half the deadline burned at the same rate/volume: only 5 s left,
        // so the same work now needs dop 4 — strictly more than before.
        clock.advance_millis(5_000);
        assert_eq!(ctrl.remaining_budget(10_000), Duration::from_secs(5));
        let half_spent = decide(ctrl.remaining_budget(10_000));
        assert_eq!(half_spent, 4);
        assert!(
            half_spent > fresh,
            "a half-spent deadline must choose a strictly higher DOP"
        );

        // Budget exhaustion saturates at zero, which the predictor treats
        // as unmeetable → max DOP.
        clock.advance_millis(60_000);
        assert_eq!(ctrl.remaining_budget(10_000), Duration::ZERO);
        assert_eq!(decide(ctrl.remaining_budget(10_000)), 8);
    }

    /// A stage a fifth of the way through a million rows at dop 1, scanning
    /// a million rows a second, with a second's deadline and 0.9 s of it
    /// left: on schedule, exactly.
    fn view() -> StageView {
        StageView {
            dop: 1,
            bounds: bounds(1, 8),
            slots: 4,
            total_rows: 1_000_000,
            unscanned_rows: 900_000,
            sample: EraSample {
                rows: 100_000,
                pages: 100,
                secs: 0.1,
            },
            parked: 0,
            deadline: Duration::from_secs(1),
            budget: Duration::from_millis(900),
        }
    }

    #[test]
    fn a_thin_sample_is_not_acted_on_unless_a_claimant_is_parked() {
        // Three pages at a rate that, believed, calls for dop 2.
        let thin = StageView {
            sample: EraSample {
                rows: 1_500,
                pages: MIN_SAMPLE_PAGES - 1,
                secs: 0.003,
            },
            ..view()
        };
        let e = WhatIfPredictor::evaluate(&thin);
        assert!(e.postponed);
        assert_eq!(e.chosen_dop, 1);
        // With a claimant at the boundary there is no waiting to know more.
        let e = WhatIfPredictor::evaluate(&StageView { parked: 1, ..thin });
        assert!(!e.postponed);
        assert_eq!((e.required_dop, e.chosen_dop), (2, 2));
        // The same sample one page later is usable with nobody parked.
        let mut usable = thin;
        usable.sample.pages = MIN_SAMPLE_PAGES;
        assert!(!WhatIfPredictor::evaluate(&usable).postponed);
    }

    #[test]
    fn with_nothing_measured_a_parked_claimant_is_sent_on_at_the_same_dop() {
        // Every task parks before a row has flowed (single-page splits):
        // waiting for a sample would wait forever, and "no throughput →
        // infinite time → maximum DOP" would grow on no evidence at all.
        let blind = StageView {
            sample: EraSample::default(),
            parked: 1,
            ..view()
        };
        let e = WhatIfPredictor::evaluate(&blind);
        assert!(!e.postponed);
        assert_eq!(e.chosen_dop, 1);
        // A deadline already missed needs no rate to call for everything.
        let e = WhatIfPredictor::evaluate(&StageView {
            budget: Duration::ZERO,
            ..blind
        });
        assert_eq!((e.required_dop, e.chosen_dop), (8, 4));
    }

    #[test]
    fn auto_never_targets_more_tasks_than_the_query_has_slots_or_budget() {
        let hopeless = StageView {
            budget: Duration::from_millis(1),
            ..view()
        };
        let e = WhatIfPredictor::evaluate(&hopeless);
        assert_eq!((e.required_dop, e.chosen_dop), (8, 4), "four slots");
        let e = WhatIfPredictor::evaluate(&StageView {
            slots: 2,
            ..hopeless
        });
        assert_eq!(e.chosen_dop, 2);
        // Four tasks on two slots scan at the rate of two: the per-task
        // rate divides by the slots they can occupy, not by their number.
        let e = WhatIfPredictor::evaluate(&StageView {
            dop: 4,
            slots: 2,
            ..view()
        });
        assert!((e.per_task_rate - 500_000.0).abs() < 1e-6);
    }

    /// `view()` later on at dop 2: two million rows a second.
    fn ahead(unscanned_rows: u64, budget_ms: u64) -> StageView {
        StageView {
            dop: 2,
            unscanned_rows,
            sample: EraSample {
                rows: 200_000,
                pages: 200,
                secs: 0.1,
            },
            budget: Duration::from_millis(budget_ms),
            // Loose enough that dop 1 would have done from the start.
            deadline: Duration::from_secs(10),
            ..view()
        }
    }

    #[test]
    fn a_prediction_equal_to_the_budget_does_not_shrink() {
        // 500k rows at a million a second per task: dop 1 predicts 0.5 s.
        let e = WhatIfPredictor::evaluate(&ahead(500_000, 500));
        assert_eq!(e.required_dop, 1, "dop 1 meets the budget to the µs");
        assert_eq!(e.chosen_dop, 2, "which leaves nothing for a slow split");
        assert_eq!(
            WhatIfPredictor::evaluate(&ahead(500_000, 501)).chosen_dop,
            1
        );
    }

    #[test]
    fn a_shrink_does_not_spend_the_head_start_of_the_dop_that_earned_it() {
        // A million rows in 0.7 s needs dop 2 from the start. 0.35 s in,
        // dop 2 has scanned 700k; the other 300k would fit the remaining
        // 0.35 s at dop 1 — only because dop 2 ran so far. Keep it.
        let tight = StageView {
            deadline: Duration::from_millis(700),
            ..ahead(300_000, 350)
        };
        let e = WhatIfPredictor::evaluate(&tight);
        assert_eq!((e.required_dop, e.chosen_dop), (1, 2));
        // Under a deadline dop 1 could have met alone, the same position
        // does shrink.
        assert_eq!(
            WhatIfPredictor::evaluate(&ahead(300_000, 350)).chosen_dop,
            1
        );
    }

    /// A one-stage registry and a controller over `splits` for stage 1,
    /// whose metrics run on `clock` and whose grows start nothing. A task's
    /// writer keeps the stage's group live, as a running task does.
    fn controlled(
        config: ElasticityMode,
        splits: Vec<accordion_storage::split::Split>,
        clock: accordion_common::SharedClock,
    ) -> (
        Arc<ExchangeRegistry>,
        Arc<QueryMetrics>,
        Arc<SplitQueue>,
        Arc<ElasticityController>,
    ) {
        controlled_with(config, splits, clock, Box::new(|_, _| Ok(false)))
    }

    fn controlled_with(
        config: ElasticityMode,
        splits: Vec<accordion_storage::split::Split>,
        clock: accordion_common::SharedClock,
        spawn: Spawn,
    ) -> (
        Arc<ExchangeRegistry>,
        Arc<QueryMetrics>,
        Arc<SplitQueue>,
        Arc<ElasticityController>,
    ) {
        use accordion_net::{EdgeSpec, ExchangeTopology, RoutePolicy};

        let topology = ExchangeTopology::new(0).edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1));
        let registry = ExchangeRegistry::build_in_process(&topology).unwrap();
        std::mem::forget(registry.writer(1, 0, None).unwrap());
        let metrics = Arc::new(QueryMetrics::with_clock(clock));
        let queue = Arc::new(SplitQueue::new(splits));
        queue.set_pause_after(Some(1)); // as `QueryExecutor::wire` arms it
        let stage = StageControl::new(1, bounds(1, 8), 1, 2, queue.clone());
        let ctrl = ElasticityController::new(
            config,
            metrics.clone(),
            registry.clone(),
            vec![stage],
            spawn,
        );
        (registry, metrics, queue, ctrl)
    }

    impl ElasticityController {
        fn sample_at(&self, i: usize, force: bool) -> (ScanTotals, EraSample) {
            self.sample(&mut self.stages.lock()[i], force)
        }

        fn restart_era_at(&self, i: usize) {
            self.restart_era(&mut self.stages.lock()[i]);
        }

        fn series_len(&self, i: usize) -> usize {
            self.stages.lock()[i].series.len()
        }
    }

    fn split(id: u64, rows: i64) -> accordion_storage::split::Split {
        use accordion_data::column::Column;
        use accordion_data::page::DataPage;
        use accordion_storage::split::Split;

        let page = DataPage::new(vec![Column::from_i64((0..rows).collect())]);
        Split {
            id: accordion_common::SplitId(id),
            table: "t".into(),
            rows: page.row_count() as u64,
            pages: Arc::new(vec![page]),
        }
    }

    #[test]
    fn v_remain_includes_a_split_that_is_claimed_but_not_scanned() {
        let (_registry, metrics, queue, ctrl) = controlled(
            ElasticityMode::auto(1_000),
            vec![split(0, 10), split(1, 10), split(2, 10)],
            ManualClock::shared(),
        );
        let scan = metrics.register(1, 0, 0, "TableScan");
        let unscanned = || {
            let decisions = metrics.snapshot(ExchangeStats::default()).decisions;
            decisions.last().unwrap().view.unscanned_rows
        };
        // The claim that reaches the boundary steps: nothing scanned yet,
        // so the decision waits, and records what is left to do.
        assert!(queue.claim(0, None).is_some());
        assert_eq!(queue.remaining_splits(), 2, "two splits left to claim");
        assert_eq!(unscanned(), 30, "what is left to do");
        scan.record_page(4, 32);
        ctrl.step(false);
        assert_eq!(unscanned(), 26);
    }

    #[test]
    fn a_grow_that_starts_nothing_is_not_counted() {
        // A cycle to 4 from 2, but the stage's writer group ends after the
        // first grown task joined it: the second grow starts nothing, so
        // the DOP, the retune and the next view count 3. At the next
        // boundary the same grow is tried again, starts nothing, and
        // records no retune.
        let started = Arc::new(Mutex::new(Vec::new()));
        let spawn: Spawn = {
            let started = started.clone();
            Box::new(move |_, slot| {
                let mut started = started.lock();
                started.push(slot);
                Ok(started.len() == 1)
            })
        };
        let (_registry, metrics, queue, ctrl) = controlled_with(
            ElasticityMode::cycle(4, 1),
            vec![split(0, 1), split(1, 1), split(2, 1)],
            ManualClock::shared(),
            spawn,
        );
        {
            let mut stages = ctrl.stages.lock();
            stages[0].active.push(1);
            stages[0].next_slot = 2;
        }
        assert!(queue.claim(0, None).is_some(), "reaches the boundary");
        assert_eq!(*started.lock(), vec![2, 3], "the second grow was tried");
        {
            let stages = ctrl.stages.lock();
            assert_eq!(stages[0].active, vec![0, 1, 2]);
            assert_eq!(stages[0].next_slot, 3, "slot 3 is still free");
        }
        let retunes = metrics.snapshot(ExchangeStats::default()).retunes;
        assert_eq!((retunes[0].from_dop, retunes[0].to_dop), (2, 3));
        assert!(queue.claim(0, None).is_some(), "the next boundary");
        assert_eq!(*started.lock(), vec![2, 3, 3]);
        assert_eq!(ctrl.stages.lock()[0].dop(), 3);
        assert_eq!(metrics.snapshot(ExchangeStats::default()).retunes.len(), 1);
    }

    #[test]
    fn a_claimant_parked_at_a_boundary_of_a_poisoned_query_returns() {
        use std::sync::mpsc;

        // `Auto` without a sample holds the boundary the first claim
        // reached, and the failure happens somewhere that never steps.
        let (registry, metrics, queue, _ctrl) = controlled(
            ElasticityMode::auto(100_000),
            vec![split(0, 1), split(1, 1), split(2, 1)],
            ManualClock::shared(),
        );
        assert!(queue.claim(0, None).is_some());
        assert!(queue.decision_due(), "postponed: the boundary holds");
        registry.poison(accordion_common::AccordionError::Execution("boom".into()));
        let (done, claimed) = mpsc::channel();
        let claimant = {
            let queue = queue.clone();
            std::thread::spawn(move || done.send(queue.claim(0, None).is_some()).unwrap())
        };
        assert!(
            claimed
                .recv_timeout(Duration::from_secs(10))
                .expect("the parked claimant's own step saw the poison"),
            "released, it claims"
        );
        claimant.join().unwrap();
        assert!(!queue.decision_due(), "no claim waits again");
        let decisions = metrics.snapshot(ExchangeStats::default()).decisions;
        assert_eq!(decisions.len(), 1, "nothing decided after the poison");
    }

    #[test]
    fn the_controller_samples_the_live_scan_rate() {
        let clock = ManualClock::shared();
        let (_registry, metrics, _, ctrl) =
            controlled(ElasticityMode::off(), vec![split(0, 1)], clock.clone());
        let m = metrics.register(1, 0, 0, "TableScan");
        let last_rate =
            |ctrl: &ElasticityController| ctrl.stages.lock()[0].series.last().unwrap().value;

        // The first page opens the first era and is not part of it. Then
        // 100 rows over the first second: era rate 100 rows/s.
        m.record_page(7, 56);
        m.record_page(100, 800);
        clock.advance_millis(1000);
        ctrl.sample_at(0, false);
        assert!((last_rate(&ctrl) - 100.0).abs() < 1e-9);

        // Sampling again without time passing is throttled: no new point.
        ctrl.sample_at(0, false);
        assert_eq!(ctrl.series_len(0), 1);

        // 100 more rows over another second: 100 rows/s over the era.
        m.record_page(100, 800);
        clock.advance_millis(1000);
        ctrl.sample_at(0, false);
        assert!((last_rate(&ctrl) - 100.0).abs() < 1e-9);

        // A retune starts a new measurement era: only rows since count,
        // so the rate reflects the new task set instead of a stale average.
        ctrl.restart_era_at(0);
        m.record_page(50, 400);
        clock.advance_millis(1000);
        let (_, fresh) = ctrl.sample_at(0, true);
        assert!((fresh.rate() - 50.0).abs() < 1e-9, "era rate was {fresh:?}");
        assert_eq!((fresh.rows, fresh.pages), (50, 1));

        // When the run ends the controller hands the series over, counted
        // from query start.
        ctrl.finish();
        let stats = metrics.snapshot(ExchangeStats::default());
        let series = stats.series_for(1).expect("series recorded");
        let at: Vec<u128> = series.points.iter().map(|p| p.at.as_millis()).collect();
        assert_eq!(at, [1000, 2000, 3000]);
    }

    #[test]
    fn the_first_era_starts_at_the_first_page_not_at_query_start() {
        let clock = ManualClock::shared();
        let (_registry, metrics, _, ctrl) =
            controlled(ElasticityMode::off(), vec![split(0, 1)], clock.clone());
        // 5 ms pass before the scan task runs at all: nothing to sample.
        clock.advance_millis(5);
        let m = metrics.register(1, 0, 0, "TableScan");
        assert_eq!(ctrl.sample_at(0, true).1, EraSample::default());
        // It scans 1000 rows a millisecond. Billing the gap to the scan
        // would read 6000 rows / 10 ms = 600k rows/s instead of a million.
        m.record_page(1000, 8000);
        for _ in 0..5 {
            clock.advance_millis(1);
            m.record_page(1000, 8000);
        }
        let (totals, sample) = ctrl.sample_at(0, true);
        assert_eq!((sample.rows, sample.pages), (5000, 5));
        assert!((sample.rate() - 1e6).abs() < 1e-3, "rate {}", sample.rate());
        assert_eq!(totals.rows, 6000, "progress counts them all");
    }

    #[test]
    fn era_rates_never_mix_across_retunes() {
        // A grow→shrink→grow schedule: each era's rate must reflect only
        // that era's rows and elapsed time, never a whole-query average.
        // Whole-query averaging would smear the 100 → 10 → 400 rows/s
        // staircase into drifting blends (e.g. era 2 would read 55, era 3
        // would read 170) and the predictor would mis-size every retune.
        let clock = ManualClock::shared();
        let (_registry, metrics, _, ctrl) =
            controlled(ElasticityMode::off(), vec![split(0, 1)], clock.clone());
        let m = metrics.register(1, 0, 0, "TableScan");

        let eras: [(u64, f64); 3] = [(100, 100.0), (10, 10.0), (400, 400.0)];
        m.record_page(1, 8); // opens the first era
        for (rows, want) in eras {
            m.record_page(rows, 8 * rows);
            clock.advance_millis(1000);
            let got = ctrl.sample_at(0, true).1.rate();
            assert!(
                (got - want).abs() < 1e-9,
                "era rate {got} rows/s, wanted {want}"
            );
            // What the controller's retune path does: a new task set
            // starts a fresh measurement era.
            ctrl.restart_era_at(0);
        }

        // Immediately after a restart, nothing has flowed in the new era.
        assert_eq!(ctrl.sample_at(0, true).1.rate(), 0.0);
    }

    #[test]
    fn a_finished_stage_adds_no_points_to_its_series() {
        use accordion_net::{EdgeSpec, ExchangeTopology, RoutePolicy};

        // Stage 1 has nothing to scan and finishes at the first step;
        // stage 2 is held running by a producer that never finishes, so
        // every later step samples it.
        let topology = ExchangeTopology::new(0)
            .edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1))
            .edge(EdgeSpec::local(2, 1, RoutePolicy::Single, 1));
        let registry = ExchangeRegistry::build_in_process(&topology).unwrap();
        let clock = ManualClock::shared();
        let metrics = Arc::new(QueryMetrics::with_clock(clock.clone()));
        let stage = |id: u32, splits| {
            let queue = SplitQueue::new(splits);
            queue.set_pause_after(Some(1));
            StageControl::new(id, bounds(1, 8), 1, 2, Arc::new(queue))
        };
        let stages = vec![stage(1, Vec::new()), stage(2, vec![split(0, 1)])];
        let ctrl = ElasticityController::new(
            ElasticityMode::auto(100_000),
            metrics.clone(),
            registry.clone(),
            stages,
            Box::new(|_, _| Ok(false)),
        );
        let _task_writer = registry.writer(2, 0, None).unwrap();
        // Seven steps 10 ms apart: seven points are due on stage 2's
        // series, and none after its first on stage 1's.
        for _ in 0..7 {
            ctrl.step(false);
            clock.advance_millis(10);
        }
        ctrl.finish();
        let stats = metrics.snapshot(ExchangeStats::default());
        let points = |stage| stats.series_for(stage).unwrap().points.len();
        let (finished, running) = (points(1), points(2));
        assert!(finished <= 1, "a finished stage kept sampling: {finished}");
        assert_eq!(running, 7, "a running stage is sampled at every step");
    }

    #[test]
    fn predict_secs_guards_non_finite_rates() {
        assert_eq!(
            WhatIfPredictor::predict_secs(10, f64::NAN, 4),
            f64::INFINITY
        );
        assert_eq!(
            WhatIfPredictor::predict_secs(10, f64::INFINITY, 4),
            f64::INFINITY
        );
        assert_eq!(WhatIfPredictor::predict_secs(10, -1.0, 4), f64::INFINITY);
        assert_eq!(WhatIfPredictor::predict_secs(0, f64::NAN, 4), 0.0);
    }
}
