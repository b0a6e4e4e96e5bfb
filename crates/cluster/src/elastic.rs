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
//!    ([`QueryMetrics::scan_totals`]) whenever something wakes the
//!    controller, never on a timer of its own. The first era starts at the
//!    stage's first scanned page, not at query start: thread start-up and
//!    the wait for a compute slot are not scan time, and billing them to
//!    the scan makes a 25 ms query look three times slower than it is.
//!    Every retune starts a new era, so the rate always measures the
//!    *current* task set. A stage's series ends with its scan, and goes to
//!    the query's stats when the controller exits.
//! 2. **The what-if predictor** ([`WhatIfPredictor`], §5.2) — estimates the
//!    remaining completion time under a candidate DOP as
//!    `T_remain(d) = V_remain / (R_per_task · d)`. `V_remain` is every row
//!    not scanned yet — the stage's total minus its scan counters, so a
//!    split that is claimed but still being read counts — and `R_per_task`
//!    is the era's rate over the tasks that can actually run at once.
//!    [`WhatIfPredictor::evaluate`] turns that into a decision: the
//!    **smallest** DOP whose prediction meets what is left of the deadline
//!    (don't pay for parallelism the deadline doesn't need), never more
//!    tasks than the query can occupy compute slots, and no shrink that
//!    merely spends the head start a higher DOP has earned.
//! 3. **The re-parallelization mechanism** — each stage's scan tasks
//!    claim splits from a shared [`SplitQueue`], in every mode; under the
//!    controller its pause threshold makes claims block at the decision
//!    boundary, so a retune always lands between splits, never mid-split.
//!    The first boundary is armed when node 0 wires the query, before a
//!    task on any node can claim.
//!
//! ## Nothing here waits for a timer
//!
//! The controller sleeps on one [`Signal`] per query. The split queues
//! raise it when a claim reaches the decision boundary, when a claimant
//! parks there, when the last split is taken and when a slot is retired
//! (remote claims come through the coordinator's claim service into the
//! same queues); a scan task raises it once, when it has scanned enough
//! pages for a usable sample — so the first decision of a query, and the
//! first after a grow, comes a fraction of a millisecond into the task's
//! first split rather than at the end of it; the scheduler raises it when
//! a task exits, which covers stages that end early (LIMIT satisfied) and
//! tasks unwinding from a poisoned query. Every claimed split is a boundary, and the claim that
//! reaches it raises the signal while its task goes on to scan the split —
//! so by the time the next claim arrives the decision has normally been
//! taken and nobody parks at all. The single timed wait is the tick
//! ([`SAMPLE_MIN_INTERVAL_NANOS`]): it paces the Fig-18 series and bounds
//! the damage of an event nobody raised (a poison arriving from a peer,
//! say).
//!
//! An `auto` decision wants a **usable sample** — [`MIN_SAMPLE_PAGES`]
//! pages in the current era — and is postponed to the next event without
//! one. But the controller **never holds a parked claimant while it waits
//! to know more**: with someone at the boundary the stage runs below its
//! DOP, no rows flow from that task, and the sample being waited for may
//! never come; it decides on what it has (which, with nothing measured,
//! is "carry on"). Every evaluation, acted on or not, is a `DecisionRecord`
//! in the query's stats: the [`StageView`] the predictor was given and the
//! [`Evaluation`] it returned, so re-evaluating the view replays it.
//!
//! The era's average is all the predictor has. A scan thread that loses its
//! core for a few milliseconds early in an era reads as a scan that got
//! slower: the stage grows, and shrinks back (where the deadline lets it)
//! once the average has recovered. That is deliberate — a grow that turns
//! out unnecessary costs a thread start, a late one costs the deadline.
//!
//! ## The EndSignal handshake (Fig 13)
//!
//! *Shrinking*: the controller retires task slots on the split queue; a
//! retired task observes retirement at its next claim, finishes its current
//! split, and its scan emits `Page::End(EndSignal)` — the driver forwards
//! it through the task's `ExchangeWriter`, which leaves its node's writer
//! group in-band. Partial-operator state is safe to abandon this way
//! because partial aggregates/top-Ns are reconstructible unions: whatever
//! the retired task already pushed merges downstream exactly like the
//! output of a completed task (paper §4.1).
//!
//! *Growing*: the controller spawns the new tasks on the scheduler's
//! `worker_threads` slot pool, and they drain the same split queue. A new
//! task's writer joins its node's writer group for the stage's output edge
//! (see `accordion_net::exchange`); the edge itself does not change. Its
//! producers are nodes, and hash partitioning is DOP-stable — routing
//! depends only on the consumer count, which never changes — so no
//! in-flight page needs repartitioning either.
//!
//! Between "the stage's last task ends" and "a grown task joins", the group
//! is held open by the **writer lease**: one member of the coordinator's
//! group that [`StageControl`] holds, so consumers cannot see the edge's
//! end page while a retune is still possible. The lease is released once
//! the stage's split queue is exhausted — or unconditionally when the
//! controller unwinds, because [`StageControl`] releases its queue and
//! lease on drop (no decision can strand a blocked claimant).
//!
//! [`SplitQueue`]: accordion_exec::splits::SplitQueue

use std::sync::Arc;
use std::time::Duration;

use accordion_common::config::ElasticityMode;
use accordion_common::metrics::TimePoint;
use accordion_common::sync::Signal;
use accordion_common::Result;
use accordion_data::page::{EndReason, Page};
use accordion_exec::metrics::{
    DecisionRecord, EraSample, Evaluation, QueryMetrics, RetuneEvent, ScanTotals, StageSeries,
    StageView, SAMPLE_MIN_INTERVAL_NANOS,
};
use accordion_exec::splits::SplitQueue;
use accordion_net::{ExchangeRegistry, ExchangeWriter};
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
    /// Next fresh slot id for grown tasks.
    next_slot: u32,
    /// The writer lease: a member of this node's writer group for the
    /// stage's output edge, holding it open (see module docs). `None` once
    /// released.
    lease: Option<Box<dyn ExchangeWriter>>,
    done: bool,
    /// Where the current measurement era began: the stage's scan totals
    /// and the clock then. `None` until the stage's first page, which opens
    /// the first era and is not part of it.
    era: Option<(ScanTotals, u64)>,
    /// The stage's era rate over time (paper Fig 18): at most one point per
    /// tick, plus one per decision.
    series: Vec<TimePoint>,
}

impl StageControl {
    pub fn new(
        stage: u32,
        bounds: DopBounds,
        initial_dop: u32,
        queue: Arc<SplitQueue>,
        lease: Box<dyn ExchangeWriter>,
    ) -> Self {
        let initial_dop = initial_dop.max(1);
        StageControl {
            stage,
            bounds,
            queue,
            active: (0..initial_dop).collect(),
            next_slot: initial_dop,
            lease: Some(lease),
            done: false,
            era: None,
            series: Vec::new(),
        }
    }

    fn dop(&self) -> u32 {
        self.active.len() as u32
    }

    /// Detaches the controller from this stage: no claim ever blocks again
    /// and the writer lease is released, letting the output edge end once
    /// the remaining tasks finish. Idempotent.
    fn finish(&mut self) {
        self.queue.release();
        if let Some(mut lease) = self.lease.take() {
            // An explicit end page (rather than the drop guard) so the
            // lease's contribution closes with a deliberate reason.
            let _ = lease.push(Page::end(EndReason::UpstreamFinished));
        }
        self.done = true;
    }
}

impl Drop for StageControl {
    /// Safety net: a controller unwinding for any reason must never leave
    /// claimants parked at a pause boundary or consumers waiting on the
    /// edge the lease holds. (The lease writer's own drop guard leaves the
    /// group.)
    fn drop(&mut self) {
        self.queue.release();
    }
}

/// The runtime elasticity controller of one query execution: owns the
/// elastic stages' split queues, writer leases and runtime information,
/// and applies DOP retunes at between-splits decision boundaries.
pub struct ElasticityController {
    mode: ElasticityMode,
    /// Also the deadline's anchor: every `Auto` decision budgets against
    /// the deadline **minus [`QueryMetrics::elapsed`]** — handing the
    /// predictor the full deadline at every boundary would let a query
    /// halfway through its budget keep planning as if untouched. (Its clock
    /// is injectable via `QueryMetrics::with_clock` for deterministic
    /// tests.)
    metrics: Arc<QueryMetrics>,
    stages: Vec<StageControl>,
    /// Compute slots the query's tasks can occupy at once — the pool's
    /// `worker_threads`, times the nodes of a distributed query. `Auto`
    /// never asks for more tasks than this.
    slots: u32,
    /// Where [`Self::run`] sleeps; raised by the stages' split queues and,
    /// through [`Self::signal`], by the scheduler when a task exits.
    signal: Arc<Signal>,
}

impl ElasticityController {
    /// Builds the controller and has every stage's queue raise its signal.
    /// Each queue's first decision boundary (one claim in) is armed
    /// already: node 0 arms it when it wires the query, before a task on
    /// any node can claim.
    pub fn new(
        mode: ElasticityMode,
        metrics: Arc<QueryMetrics>,
        stages: Vec<StageControl>,
        slots: u32,
    ) -> Self {
        let signal = Arc::new(Signal::new());
        for st in &stages {
            st.queue.watch(signal.clone());
        }
        // A task's first page opens its era and is not part of it.
        metrics.watch_scans(MIN_SAMPLE_PAGES + 1, signal.clone());
        ElasticityController {
            mode,
            metrics,
            stages,
            slots: slots.max(1),
            signal,
        }
    }

    /// The controller's wake-up signal, for events its split queues cannot
    /// see: the scheduler raises it whenever one of the query's tasks exits.
    pub fn signal(&self) -> Arc<Signal> {
        self.signal.clone()
    }

    /// Deadline budget still available at this instant: the configured
    /// deadline minus time elapsed since query start. Saturates at zero —
    /// an exhausted budget flows into [`WhatIfPredictor::choose_dop`]'s
    /// unmeetable-deadline path, which takes the maximum DOP in bounds.
    fn remaining_budget(&self, deadline_ms: u64) -> Duration {
        Duration::from_millis(deadline_ms).saturating_sub(self.metrics.elapsed())
    }

    /// Reads stage `i`'s scan meters once and returns them with its
    /// current era. Adds the era's rate to the stage's series when a point
    /// is due: its first, a tick after the last, or one a decision
    /// `force`s.
    fn sample(&mut self, i: usize, force: bool) -> (ScanTotals, EraSample) {
        let totals = self.metrics.scan_totals(self.stages[i].stage);
        let (now, at) = (self.metrics.clock().now_nanos(), self.metrics.elapsed());
        let st = &mut self.stages[i];
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
        let tick = Duration::from_nanos(SAMPLE_MIN_INTERVAL_NANOS);
        let due = |last: &TimePoint| at.saturating_sub(last.at) >= tick;
        if force || st.series.last().is_none_or(due) {
            st.series.push(TimePoint {
                at,
                value: sample.rate(),
            });
        }
        (totals, sample)
    }

    /// Starts a new measurement era for stage `i`, so later rates measure
    /// its new task set only.
    fn restart_era(&mut self, i: usize) {
        let totals = self.metrics.scan_totals(self.stages[i].stage);
        self.stages[i].era = Some((totals, self.metrics.clock().now_nanos()));
    }

    /// Runs the control loop until every elastic stage's split queue is
    /// exhausted (or the registry is poisoned). One pass, over each stage
    /// still running: sample its runtime info (at most one point per
    /// tick), retire it if it is finished, and if its decision is due
    /// consult the schedule or the what-if predictor and apply the retune.
    /// Then sleep until the next event — a claim at a boundary, a parked
    /// claimant, the last split, a retirement, a task exit — or the tick,
    /// whichever is first. On the way out every stage's series goes to the
    /// query's stats. `spawn` launches one new task `(stage, slot)` on the
    /// scheduler's pool, whose writer joins the group the stage's lease
    /// holds open.
    pub fn run(
        mut self,
        registry: &ExchangeRegistry,
        spawn: &mut dyn FnMut(u32, u32) -> Result<()>,
    ) {
        'control: loop {
            if registry.poison_error().is_some() {
                break;
            }
            self.metrics.record_controller_wakeup();
            let mut pending = false;
            for i in 0..self.stages.len() {
                if self.stages[i].done {
                    continue;
                }
                self.sample(i, false);
                // A stage is complete when its split queue is exhausted —
                // or when every task already finished (e.g. each task's
                // local LIMIT was satisfied mid-scan and the task exited):
                // only the lease is left in this node's group and every
                // other node's group has ended, so nothing will ever claim
                // the leftover splits.
                let tasks_done = registry
                    .producers_remaining(self.stages[i].stage)
                    .map(|writers| writers <= 1)
                    .unwrap_or(true);
                if self.stages[i].queue.remaining_splits() == 0 || tasks_done {
                    self.stages[i].finish();
                    continue;
                }
                pending = true;
                if self.stages[i].queue.decision_due() {
                    if let Err(e) = self.decide(i, spawn) {
                        registry.poison(e);
                        break 'control;
                    }
                }
            }
            if !pending {
                break;
            }
            self.signal
                .wait_timeout(Duration::from_nanos(SAMPLE_MIN_INTERVAL_NANOS));
        }
        for st in &mut self.stages {
            st.finish();
            self.metrics.record_series(StageSeries {
                stage: st.stage,
                points: std::mem::take(&mut st.series),
            });
        }
    }

    /// One `Auto` evaluation of stage `i`, recorded whatever comes of it.
    fn evaluate(&mut self, i: usize, deadline_ms: u64) -> Evaluation {
        // Fresh, and a point of the series whatever the tick says.
        let (totals, sample) = self.sample(i, true);
        let st = &self.stages[i];
        let view = StageView {
            dop: st.dop(),
            bounds: st.bounds,
            slots: self.slots,
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

    /// One decision for stage `i`, whose boundary has been reached.
    fn decide(&mut self, i: usize, spawn: &mut dyn FnMut(u32, u32) -> Result<()>) -> Result<()> {
        let (bounds, dop) = {
            let st = &self.stages[i];
            (st.bounds, st.dop())
        };
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
                let eval = self.evaluate(i, deadline_ms);
                if eval.postponed {
                    // The boundary stays where it is: whoever claims next
                    // parks at it and raises the signal, and then the
                    // decision is taken on whatever has been measured.
                    return Ok(());
                }
                (eval.chosen_dop, eval.predicted_secs)
            }
        };

        self.apply_retune(i, spawn, target, predicted_secs)?;

        // Arm the next boundary — or, for one-shot forced schedules, go
        // passive: release the queue so claims never block again.
        match self.mode {
            // Every claimed split is a boundary. That costs one wake-up of
            // this thread per split and, as a rule, no waiting: the claim
            // that reaches the boundary raises the signal and goes off to
            // scan, and the boundary has moved on before the next claim.
            ElasticityMode::Auto { .. } | ElasticityMode::Cycle { .. } => {
                let claimed = self.stages[i].queue.claimed();
                self.stages[i].queue.set_pause_after(Some(claimed + 1));
            }
            // One-shot forced schedules go passive after their decision.
            _ => self.stages[i].queue.release(),
        }
        Ok(())
    }

    /// Applies a DOP change for stage `i` and — inseparably — records the
    /// retune event and starts the stage's next measurement era. This is
    /// the *only* code path that changes a stage's task set, so a new era
    /// begins on every DOP change: the next decision must not divide a rate
    /// observed at the old DOP by the new one (mixing eras skews the
    /// per-task rate by up to the grow/shrink ratio).
    fn apply_retune(
        &mut self,
        i: usize,
        spawn: &mut dyn FnMut(u32, u32) -> Result<()>,
        target: u32,
        predicted_secs: f64,
    ) -> Result<()> {
        let (stage, dop) = {
            let st = &self.stages[i];
            (st.stage, st.dop())
        };
        if target == dop {
            return Ok(());
        }
        // Before the first thread is spawned: `first_page_ms` counts from
        // here.
        let at_ms = self.metrics.elapsed().as_secs_f64() * 1e3;
        let mut spawned = Vec::new();
        if target > dop {
            // Grow: each new task's writer joins the group the lease holds
            // open; the edge does not change.
            for _ in 0..(target - dop) {
                let slot = self.stages[i].next_slot;
                self.stages[i].next_slot += 1;
                self.stages[i].active.push(slot);
                spawn(stage, slot)?;
                spawned.push(slot);
            }
        } else {
            // Shrink: retire the most recently added slots; each retired
            // task ends with `Page::End(EndSignal)` at its next claim.
            for _ in 0..(dop - target) {
                if let Some(slot) = self.stages[i].active.pop() {
                    self.stages[i].queue.retire(slot);
                }
            }
        }
        self.metrics.record_retune(
            RetuneEvent {
                stage,
                from_dop: dop,
                to_dop: target,
                splits_claimed: self.stages[i].queue.claimed(),
                predicted_secs,
                at_ms,
                // Known once a spawned task has scanned a page: the
                // snapshot fills it in.
                first_page_ms: None,
            },
            spawned,
        );
        self.restart_era(i);
        Ok(())
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
        let metrics = Arc::new(QueryMetrics::with_clock(clock.clone()));
        let ctrl = ElasticityController::new(ElasticityMode::auto(10_000), metrics, Vec::new(), 4);

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
    /// whose metrics run on `clock`.
    fn controlled(
        config: ElasticityMode,
        splits: Vec<accordion_storage::split::Split>,
        clock: accordion_common::SharedClock,
    ) -> (
        Arc<ExchangeRegistry>,
        Arc<QueryMetrics>,
        Arc<SplitQueue>,
        ElasticityController,
    ) {
        use accordion_net::{EdgeSpec, ExchangeTopology, RoutePolicy};

        let topology = ExchangeTopology::new(0).edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1));
        let registry = ExchangeRegistry::build_in_process(&topology).unwrap();
        let metrics = Arc::new(QueryMetrics::with_clock(clock));
        let queue = Arc::new(SplitQueue::new(splits));
        queue.set_pause_after(Some(1)); // as `QueryExecutor::wire` arms it
        let lease = registry.writer(1, u32::MAX, None).unwrap();
        let stage = StageControl::new(1, bounds(1, 8), 1, queue.clone(), lease);
        let ctrl = ElasticityController::new(config, metrics.clone(), vec![stage], 2);
        (registry, metrics, queue, ctrl)
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
        let (_registry, metrics, queue, mut ctrl) = controlled(
            ElasticityMode::auto(1_000),
            vec![split(0, 10), split(1, 10)],
            ManualClock::shared(),
        );
        let scan = metrics.register(1, 0, 0, "TableScan");
        assert!(queue.claim(0, None).is_some());
        assert_eq!(queue.remaining_rows(), 10, "what the unclaimed splits hold");
        let unscanned = |ctrl: &mut ElasticityController| {
            ctrl.evaluate(0, 1_000);
            let decisions = metrics.snapshot(ExchangeStats::default()).decisions;
            decisions.last().unwrap().view.unscanned_rows
        };
        assert_eq!(unscanned(&mut ctrl), 20, "what is left to do");
        scan.record_page(4, 32);
        assert_eq!(unscanned(&mut ctrl), 16);
    }

    #[test]
    fn a_poison_nobody_signals_ends_the_controller_within_a_tick() {
        use std::sync::mpsc;

        // `Off` makes no decision, so the claimant below stays parked and,
        // once it has, nothing raises the signal again — the state of a
        // query whose only scan task waits at the boundary while the
        // failure happens somewhere that cannot wake the controller.
        let (registry, _metrics, queue, ctrl) = controlled(
            ElasticityMode::off(),
            vec![split(0, 1), split(1, 1), split(2, 1)],
            ManualClock::shared(),
        );
        let signal = ctrl.signal();
        // A producer that never finishes keeps the stage pending.
        let _task_writer = registry.writer(1, 0, None).unwrap();
        let claimant = {
            let queue = queue.clone();
            std::thread::spawn(move || {
                assert!(queue.claim(0, None).is_some());
                queue.claim(0, None)
            })
        };
        while queue.parked() == 0 {
            signal.wait_timeout(Duration::from_secs(30));
        }
        let (done, finished) = mpsc::channel();
        let controller = {
            let registry = registry.clone();
            std::thread::spawn(move || {
                ctrl.run(&registry, &mut |_, _| Ok(()));
                done.send(()).unwrap();
            })
        };
        assert!(
            finished.recv_timeout(Duration::from_millis(100)).is_err(),
            "nothing is wrong yet: the controller waits"
        );
        registry.poison(accordion_common::AccordionError::Execution("boom".into()));
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the tick must have shown the controller the poison");
        controller.join().unwrap();
        // Leaving, it released the queue: the claimant is not stranded.
        assert!(claimant.join().unwrap().is_some());
    }

    #[test]
    fn the_controller_samples_the_live_scan_rate() {
        let clock = ManualClock::shared();
        let (registry, metrics, _, mut ctrl) =
            controlled(ElasticityMode::off(), vec![split(0, 1)], clock.clone());
        let m = metrics.register(1, 0, 0, "TableScan");
        let last_rate = |ctrl: &ElasticityController| ctrl.stages[0].series.last().unwrap().value;

        // The first page opens the first era and is not part of it. Then
        // 100 rows over the first second: era rate 100 rows/s.
        m.record_page(7, 56);
        m.record_page(100, 800);
        clock.advance_millis(1000);
        ctrl.sample(0, false);
        assert!((last_rate(&ctrl) - 100.0).abs() < 1e-9);

        // Sampling again without time passing is throttled: no new point.
        ctrl.sample(0, false);
        assert_eq!(ctrl.stages[0].series.len(), 1);

        // 100 more rows over another second: 100 rows/s over the era.
        m.record_page(100, 800);
        clock.advance_millis(1000);
        ctrl.sample(0, false);
        assert!((last_rate(&ctrl) - 100.0).abs() < 1e-9);

        // A retune starts a new measurement era: only rows since count,
        // so the rate reflects the new task set instead of a stale average.
        ctrl.restart_era(0);
        m.record_page(50, 400);
        clock.advance_millis(1000);
        let (_, fresh) = ctrl.sample(0, true);
        assert!((fresh.rate() - 50.0).abs() < 1e-9, "era rate was {fresh:?}");
        assert_eq!((fresh.rows, fresh.pages), (50, 1));

        // However it exits, the controller hands the series over, counted
        // from query start.
        registry.poison(accordion_common::AccordionError::Execution("boom".into()));
        ctrl.run(&registry, &mut |_, _| Ok(()));
        let stats = metrics.snapshot(ExchangeStats::default());
        let series = stats.series_for(1).expect("series recorded");
        let at: Vec<u128> = series.points.iter().map(|p| p.at.as_millis()).collect();
        assert_eq!(at, [1000, 2000, 3000]);
    }

    #[test]
    fn the_first_era_starts_at_the_first_page_not_at_query_start() {
        let clock = ManualClock::shared();
        let (_registry, metrics, _, mut ctrl) =
            controlled(ElasticityMode::off(), vec![split(0, 1)], clock.clone());
        // 5 ms pass before the scan task runs at all: nothing to sample.
        clock.advance_millis(5);
        let m = metrics.register(1, 0, 0, "TableScan");
        assert_eq!(ctrl.sample(0, true).1, EraSample::default());
        // It scans 1000 rows a millisecond. Billing the gap to the scan
        // would read 6000 rows / 10 ms = 600k rows/s instead of a million.
        m.record_page(1000, 8000);
        for _ in 0..5 {
            clock.advance_millis(1);
            m.record_page(1000, 8000);
        }
        let (totals, sample) = ctrl.sample(0, true);
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
        let (_registry, metrics, _, mut ctrl) =
            controlled(ElasticityMode::off(), vec![split(0, 1)], clock.clone());
        let m = metrics.register(1, 0, 0, "TableScan");

        let eras: [(u64, f64); 3] = [(100, 100.0), (10, 10.0), (400, 400.0)];
        m.record_page(1, 8); // opens the first era
        for (rows, want) in eras {
            m.record_page(rows, 8 * rows);
            clock.advance_millis(1000);
            let got = ctrl.sample(0, true).1.rate();
            assert!(
                (got - want).abs() < 1e-9,
                "era rate {got} rows/s, wanted {want}"
            );
            // What the controller's retune path does: a new task set
            // starts a fresh measurement era.
            ctrl.restart_era(0);
        }

        // Immediately after a restart, nothing has flowed in the new era.
        assert_eq!(ctrl.sample(0, true).1.rate(), 0.0);
    }

    #[test]
    fn a_finished_stage_adds_no_points_to_its_series() {
        use accordion_net::{EdgeSpec, ExchangeTopology, RoutePolicy};

        // Stage 1 has nothing to scan and finishes on the first pass;
        // stage 2 is held pending by a producer that never finishes, so
        // the controller goes on ticking until it is poisoned.
        let topology = ExchangeTopology::new(0)
            .edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1))
            .edge(EdgeSpec::local(2, 1, RoutePolicy::Single, 1));
        let registry = ExchangeRegistry::build_in_process(&topology).unwrap();
        let metrics = Arc::new(QueryMetrics::new());
        let stage = |id: u32, splits| {
            let (queue, lease) = (SplitQueue::new(splits), registry.writer(id, u32::MAX, None));
            queue.set_pause_after(Some(1));
            StageControl::new(id, bounds(1, 8), 1, Arc::new(queue), lease.unwrap())
        };
        let stages = vec![stage(1, Vec::new()), stage(2, vec![split(0, 1)])];
        let ctrl = ElasticityController::new(ElasticityMode::off(), metrics.clone(), stages, 2);
        let _task_writer = registry.writer(2, 0, None).unwrap();
        let controller = {
            let registry = registry.clone();
            std::thread::spawn(move || ctrl.run(&registry, &mut |_, _| Ok(())))
        };
        // Nothing raises the signal, so passes come a tick apart: seven
        // are 60 ms of sampling.
        while metrics
            .snapshot(ExchangeStats::default())
            .controller_wakeups
            < 7
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        registry.poison(accordion_common::AccordionError::Execution("boom".into()));
        controller.join().unwrap();
        let stats = metrics.snapshot(ExchangeStats::default());
        let points = |stage| stats.series_for(stage).unwrap().points.len();
        let (finished, running) = (points(1), points(2));
        assert!(finished <= 1, "a finished stage kept sampling: {finished}");
        assert!(
            running >= 3,
            "a running stage is sampled every tick: {running}"
        );
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
