//! Per-query runtime metrics (paper §5.1).
//!
//! Every driver chain wires a [`MeteredStream`] around each operator it
//! instantiates, counting rows and bytes produced and timing every pull
//! ([`OperatorStats::busy_ns`], and [`OperatorStats::self_ns`] net of the
//! operator feeding it). [`QueryMetrics`] collects the
//! per-(stage, task, pipeline, operator) registrations; a final
//! [`QueryMetrics::snapshot`] becomes the [`QueryStats`] exposed through
//! `QueryResult::stats()`.
//!
//! While a query runs, the elasticity controller in
//! `accordion_cluster::elastic` reads a stage's live scan meters
//! ([`QueryMetrics::scan_totals`]) whenever an event wakes it, turns them
//! into an [`EraSample`] for the what-if predictor's `R_consume` (§5.2:
//! `T_remain = V_remain / R_consume`) and keeps each stage's per-tick rate
//! as a [`StageSeries`] (paper Fig 18), handed over when it exits. What the
//! controller then does is part of the stats: every `auto` evaluation is a
//! [`DecisionRecord`] in [`QueryStats::decisions`] — the predictor's whole
//! input ([`StageView`]) and output ([`Evaluation`]) — every DOP change a
//! [`RetuneEvent`] in [`QueryStats::retunes`] (with the time a grown task
//! took to scan its first page), and [`QueryStats::controller_wakeups`]
//! counts how often the controller looked at all.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use accordion_common::clock::{SharedClock, SystemClock};
use accordion_common::metrics::{Counter, TimePoint};
use accordion_common::sync::{Mutex, Signal};
use accordion_common::{Json, Result};
use accordion_data::page::Page;
use accordion_net::ExchangeStats;
use accordion_plan::fragment::DopBounds;

use crate::operators::{BoxedStream, PageStream, Selection};

/// Live counters of one operator instance inside one driver.
#[derive(Debug)]
pub struct OperatorMetrics {
    pub stage: u32,
    pub task: u32,
    pub pipeline: u32,
    pub operator: &'static str,
    pub rows: Counter,
    pub bytes: Counter,
    pub pages: Counter,
    /// Tables a partial aggregate emitted before its input ended (see
    /// `PartialHashAggOp`); 0 for every other operator.
    pub flushes: Arc<Counter>,
    /// When this instance registered, on `clock`: where
    /// [`OperatorStats::rows_per_sec`] starts counting.
    registered_nanos: u64,
    /// Nanoseconds spent inside this operator's pulls, the pulls it made
    /// from upstream included (see [`OperatorStats::busy_ns`]).
    pub(crate) busy_ns: Counter,
    /// The operator feeding this one in its driver chain, if any: what
    /// [`OperatorStats::self_ns`] subtracts.
    input: OnceLock<Arc<OperatorMetrics>>,
    /// When this instance produced its first data page, and how many rows
    /// that page held. For a scan this is where measuring it can begin:
    /// everything before is thread start-up and waiting for a slot.
    pub first_page: OnceLock<FirstPage>,
    clock: SharedClock,
    /// Raised once, when this instance has produced that many pages (see
    /// [`QueryMetrics::watch_scans`]).
    alarm: Option<(u64, Arc<Signal>)>,
}

impl OperatorMetrics {
    /// Counts one data page of `rows` rows and `bytes` bytes leaving the
    /// operator.
    pub fn record_page(&self, rows: u64, bytes: u64) {
        self.rows.add(rows);
        self.bytes.add(bytes);
        self.pages.inc();
        self.first_page.get_or_init(|| FirstPage {
            nanos: self.clock.now_nanos(),
            rows,
        });
        // One task writes these counters, so `get` is this page's number.
        if let Some((at, signal)) = &self.alarm {
            if self.pages.get() == *at {
                signal.raise();
            }
        }
    }

    /// Records that `input` feeds this operator in its driver chain (its
    /// pulls are nested in this one's, so its busy time is part of ours).
    pub(crate) fn set_input(&self, input: Arc<OperatorMetrics>) {
        let _ = self.input.set(input);
    }

    /// Busy time minus the busy time of the operator feeding this one.
    fn self_ns(&self) -> u64 {
        let upstream = self.input.get().map_or(0, |i| i.busy_ns.get());
        self.busy_ns.get().saturating_sub(upstream)
    }

    /// Rows produced per second since registration; `0.0` within the first
    /// microsecond, too short to measure.
    fn rows_per_sec(&self) -> f64 {
        let nanos = self.clock.now_nanos().saturating_sub(self.registered_nanos);
        if nanos <= 1_000 {
            return 0.0;
        }
        self.rows.get() as f64 / (nanos as f64 / 1e9)
    }
}

/// See [`OperatorMetrics::first_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstPage {
    /// On the query's metrics clock.
    pub nanos: u64,
    pub rows: u64,
}

/// What a stage's scans have produced so far, over all its tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTotals {
    pub rows: u64,
    pub pages: u64,
    /// The earliest first page of any task.
    pub first_page: Option<FirstPage>,
}

/// Collector shared by every task of one query execution.
#[derive(Debug)]
pub struct QueryMetrics {
    clock: SharedClock,
    /// Query start on `clock`: what every `at_ms` in the stats and the
    /// controller's deadline budget count from.
    start_nanos: u64,
    operators: Mutex<Vec<Arc<OperatorMetrics>>>,
    /// Per-stage runtime series handed over by the elasticity controller.
    series: Mutex<Vec<StageSeries>>,
    /// DOP retunes applied by the elasticity controller, in order, each
    /// with the task slots it spawned (empty for a shrink).
    retunes: Mutex<Vec<(RetuneEvent, Vec<u32>)>>,
    /// `auto` evaluations of the elasticity controller, in order.
    decisions: Mutex<Vec<DecisionRecord>>,
    controller_wakeups: Counter,
    /// See [`Self::watch_scans`].
    scan_alarm: Mutex<Option<(u64, Arc<Signal>)>>,
}

impl QueryMetrics {
    pub fn new() -> Self {
        Self::with_clock(SystemClock::shared())
    }

    /// A collector reading time through `clock` (tests drive a
    /// `ManualClock`; the engine uses the system clock).
    pub fn with_clock(clock: SharedClock) -> Self {
        QueryMetrics {
            start_nanos: clock.now_nanos(),
            clock,
            operators: Mutex::new(Vec::new()),
            series: Mutex::new(Vec::new()),
            retunes: Mutex::new(Vec::new()),
            decisions: Mutex::new(Vec::new()),
            controller_wakeups: Counter::new(),
            scan_alarm: Mutex::new(None),
        }
    }

    /// The clock every meter of this query reads.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// Time since the query started (since this collector was built).
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.clock.now_nanos().saturating_sub(self.start_nanos))
    }

    /// Has every scan registered from now on raise `signal` once, when it
    /// has produced `pages` pages: the moment a task that has just started
    /// — with the query, or in a grow — has scanned enough for its rate to
    /// be worth reading, which is long before it is back for its next
    /// split.
    pub fn watch_scans(&self, pages: u64, signal: Arc<Signal>) {
        *self.scan_alarm.lock() = Some((pages, signal));
    }

    /// Registers one operator instance and returns its counters.
    pub fn register(
        &self,
        stage: u32,
        task: u32,
        pipeline: u32,
        operator: &'static str,
    ) -> Arc<OperatorMetrics> {
        let m = Arc::new(OperatorMetrics {
            stage,
            task,
            pipeline,
            operator,
            rows: Counter::new(),
            bytes: Counter::new(),
            pages: Counter::new(),
            flushes: Arc::new(Counter::new()),
            registered_nanos: self.clock.now_nanos(),
            busy_ns: Counter::new(),
            input: OnceLock::new(),
            first_page: OnceLock::new(),
            clock: self.clock.clone(),
            alarm: (operator == "TableScan")
                .then(|| self.scan_alarm.lock().clone())
                .flatten(),
        });
        self.operators.lock().push(m.clone());
        m
    }

    /// What every scan of `stage` has produced so far, in one pass over
    /// the meters.
    pub fn scan_totals(&self, stage: u32) -> ScanTotals {
        let mut totals = ScanTotals::default();
        for m in self.operators.lock().iter() {
            if m.stage != stage || m.operator != "TableScan" {
                continue;
            }
            totals.rows += m.rows.get();
            totals.pages += m.pages.get();
            if let Some(first) = m.first_page.get() {
                match totals.first_page {
                    Some(earliest) if earliest.nanos <= first.nanos => {}
                    _ => totals.first_page = Some(*first),
                }
            }
        }
        totals
    }

    /// Records the runtime series of one stage, complete: the elasticity
    /// controller hands each stage's over when it exits.
    pub fn record_series(&self, series: StageSeries) {
        self.series.lock().push(series);
    }

    /// Records one DOP retune applied by the elasticity controller,
    /// together with the task slots it `spawned`: the snapshot fills in
    /// `first_page_ms` from their scans.
    pub fn record_retune(&self, event: RetuneEvent, spawned: Vec<u32>) {
        self.retunes.lock().push((event, spawned));
    }

    /// Records one `auto` evaluation of the elasticity controller.
    pub fn record_decision(&self, decision: DecisionRecord) {
        self.decisions.lock().push(decision);
    }

    /// Counts one pass of the elasticity controller over its stages.
    pub fn record_controller_wakeup(&self) {
        self.controller_wakeups.inc();
    }

    /// Decision → first page scanned by any of the `spawned` tasks of
    /// `event`, milliseconds.
    fn first_page_ms(&self, event: &RetuneEvent, spawned: &[u32]) -> Option<f64> {
        let first = self
            .operators
            .lock()
            .iter()
            .filter(|m| {
                m.stage == event.stage && m.operator == "TableScan" && spawned.contains(&m.task)
            })
            .filter_map(|m| m.first_page.get().map(|f| f.nanos))
            .min()?;
        let since_start = first.saturating_sub(self.start_nanos) as f64 / 1e6;
        Some((since_start - event.at_ms).max(0.0))
    }

    /// Final snapshot: freezes the counters and every operator's rate,
    /// the collected per-stage time series, and the retune log.
    pub fn snapshot(&self, exchange: ExchangeStats) -> QueryStats {
        let operators = self
            .operators
            .lock()
            .iter()
            .map(|m| OperatorStats {
                stage: m.stage,
                task: m.task,
                pipeline: m.pipeline,
                operator: m.operator,
                rows: m.rows.get(),
                bytes: m.bytes.get(),
                rows_per_sec: m.rows_per_sec(),
                busy_ns: m.busy_ns.get(),
                self_ns: m.self_ns(),
                flushes: m.flushes.get(),
            })
            .collect();
        let retunes = self
            .retunes
            .lock()
            .iter()
            .map(|(event, spawned)| RetuneEvent {
                first_page_ms: self.first_page_ms(event, spawned),
                ..*event
            })
            .collect();
        QueryStats {
            operators,
            exchange,
            series: self.series.lock().clone(),
            retunes,
            decisions: self.decisions.lock().clone(),
            controller_wakeups: self.controller_wakeups.get(),
        }
    }
}

impl Default for QueryMetrics {
    fn default() -> Self {
        QueryMetrics::new()
    }
}

/// Frozen per-operator counters of one finished operator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorStats {
    pub stage: u32,
    pub task: u32,
    pub pipeline: u32,
    pub operator: &'static str,
    /// Rows this operator produced (pages leaving it, not entering).
    pub rows: u64,
    /// Bytes this operator produced.
    pub bytes: u64,
    /// `rows` over the seconds from the operator's registration to the
    /// snapshot (`0.0` when that is under a microsecond).
    pub rows_per_sec: f64,
    /// Wall-clock nanoseconds spent inside this operator's pulls, the
    /// pulls it made from the operator feeding it included: one `Instant`
    /// pair per page it was asked for.
    pub busy_ns: u64,
    /// `busy_ns` minus the `busy_ns` of the operator feeding this one in
    /// the same driver chain: the time spent in this operator itself. A
    /// source has no feeder, so its self time includes any wait for input
    /// — an exchange reader blocked on its producers, a scan waiting for a
    /// split claim. The self times of a chain sum to its last operator's
    /// `busy_ns`.
    pub self_ns: u64,
    /// Tables a partial aggregate emitted before its input ended.
    pub flushes: u64,
}

impl OperatorStats {
    /// The operator record of [`QueryStats::to_json`]; `flushes` only
    /// where there were some.
    pub fn to_json(&self) -> Json {
        let json = Json::obj()
            .with("stage", Json::u64(self.stage as u64))
            .with("task", Json::u64(self.task as u64))
            .with("pipeline", Json::u64(self.pipeline as u64))
            .with("operator", Json::str(self.operator))
            .with("rows", Json::u64(self.rows))
            .with("bytes", Json::u64(self.bytes))
            .with("rows_per_sec", Json::f64(self.rows_per_sec))
            .with("busy_ns", Json::u64(self.busy_ns))
            .with("self_ns", Json::u64(self.self_ns));
        match self.flushes {
            0 => json,
            n => json.with("flushes", Json::u64(n)),
        }
    }
}

/// One Source-stage DOP change applied by the elasticity controller
/// (paper Fig 13): recorded at the between-splits decision boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetuneEvent {
    pub stage: u32,
    pub from_dop: u32,
    pub to_dop: u32,
    /// Splits already handed out when the retune landed.
    pub splits_claimed: u64,
    /// The what-if predictor's remaining-time estimate for `to_dop` at
    /// decision time, seconds (`f64::INFINITY` with no rate sample yet,
    /// `0.0` for forced test schedules, which bypass the predictor).
    pub predicted_secs: f64,
    /// When the retune was decided, milliseconds since query start
    /// ([`QueryMetrics::elapsed`]).
    pub at_ms: f64,
    /// Retune latency, grows only: milliseconds from `at_ms` to the first
    /// page scanned by a task the retune spawned — thread start, slot
    /// hand-off, first claim and first page read. `None` for a shrink, and
    /// for a grow whose tasks found nothing left to scan.
    pub first_page_ms: Option<f64>,
}

impl RetuneEvent {
    /// The retune record of [`QueryStats::to_json`].
    /// A `predicted_secs` of infinity (no rate sample yet) maps to JSON
    /// `null` — JSON has no literal for it.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("stage", Json::u64(self.stage as u64))
            .with("from_dop", Json::u64(self.from_dop as u64))
            .with("to_dop", Json::u64(self.to_dop as u64))
            .with("splits_claimed", Json::u64(self.splits_claimed))
            .with("predicted_secs", Json::f64(self.predicted_secs))
            .with("at_ms", Json::f64(self.at_ms))
            .with(
                "first_page_ms",
                self.first_page_ms.map_or(Json::Null, Json::f64),
            )
    }
}

/// What one `auto` evaluation knows about its stage, read at one instant:
/// the what-if predictor's whole input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageView {
    /// Tasks scanning the stage now.
    pub dop: u32,
    pub bounds: DopBounds,
    /// Compute slots the stage's tasks can occupy at once (node 0's, where
    /// grows spawn, plus its tasks on other nodes): `auto`'s cap.
    pub slots: u32,
    /// Rows in all of the stage's splits.
    pub total_rows: u64,
    /// `V_remain`: `total_rows` minus what has been scanned, so a split
    /// that is claimed but still being read counts.
    pub unscanned_rows: u64,
    /// The current measurement era, from the same read of the scan meters
    /// as `unscanned_rows`.
    pub sample: EraSample,
    /// Claimants waiting at the decision boundary.
    pub parked: u32,
    /// The whole deadline, and what is left of it.
    pub deadline: Duration,
    pub budget: Duration,
}

/// What the what-if predictor makes of a [`StageView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Rows/second one task sustains in the current era (`0.0` with
    /// nothing measured yet).
    pub per_task_rate: f64,
    /// The DOP that meets `budget` from here, within bounds — before the
    /// cap (`StageView::slots`) and the shrink rules.
    pub required_dop: u32,
    /// The DOP to continue at.
    pub chosen_dop: u32,
    /// Predicted remaining time at `chosen_dop`, seconds.
    pub predicted_secs: f64,
    /// Too little measured and nobody waiting: ask again at the next event.
    pub postponed: bool,
}

/// One evaluation of the what-if predictor by the elasticity controller in
/// `auto` mode, whether or not the DOP changed: exactly what the predictor
/// saw and what it made of it, so evaluating `view` again gives `eval` —
/// "why did it (not) retune then" has an answer that can be replayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Milliseconds since query start.
    pub at_ms: f64,
    pub stage: u32,
    pub view: StageView,
    pub eval: Evaluation,
}

impl DecisionRecord {
    /// The decision record of [`QueryStats::to_json`]: the view's fields,
    /// then the evaluation's (an infinite `predicted_secs` is `null`).
    pub fn to_json(&self) -> Json {
        let (view, eval) = (&self.view, &self.eval);
        let ms = |d: Duration| Json::f64(d.as_secs_f64() * 1e3);
        Json::obj()
            .with("at_ms", Json::f64(self.at_ms))
            .with("stage", Json::u64(self.stage as u64))
            .with("dop", Json::u64(view.dop as u64))
            .with("min_dop", Json::u64(view.bounds.min as u64))
            .with("max_dop", Json::u64(view.bounds.max as u64))
            .with("cap", Json::u64(view.slots as u64))
            .with("total_rows", Json::u64(view.total_rows))
            .with("unscanned_rows", Json::u64(view.unscanned_rows))
            .with("sample_rows", Json::u64(view.sample.rows))
            .with("sample_pages", Json::u64(view.sample.pages))
            .with("sample_secs", Json::f64(view.sample.secs))
            .with("parked", Json::u64(view.parked as u64))
            .with("deadline_ms", ms(view.deadline))
            .with("budget_ms", ms(view.budget))
            .with("per_task_rate", Json::f64(eval.per_task_rate))
            .with("required_dop", Json::u64(eval.required_dop as u64))
            .with("chosen_dop", Json::u64(eval.chosen_dop as u64))
            .with("predicted_secs", Json::f64(eval.predicted_secs))
            .with("postponed", Json::Bool(eval.postponed))
    }
}

/// Frozen runtime time series of one stage (paper Fig 18).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSeries {
    pub stage: u32,
    /// Samples in collection order; `at` is monotone non-decreasing.
    pub points: Vec<TimePoint>,
}

impl StageSeries {
    /// Serializes the per-stage throughput curve: each point is
    /// `[elapsed_ms, rows_per_sec]`, a compact pair array.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("stage", Json::u64(self.stage as u64))
            .with(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::Arr(vec![
                                Json::f64(p.at.as_secs_f64() * 1000.0),
                                Json::f64(p.value),
                            ])
                        })
                        .collect(),
                ),
            )
    }
}

/// Runtime statistics of one executed query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// One entry per operator instance per driver, in registration order.
    pub operators: Vec<OperatorStats>,
    /// Aggregate shuffle-exchange transfer counters.
    pub exchange: ExchangeStats,
    /// Per-stage runtime info samples collected while the query ran (empty
    /// unless an elasticity controller ran).
    pub series: Vec<StageSeries>,
    /// DOP retunes the elasticity controller applied, in order.
    pub retunes: Vec<RetuneEvent>,
    /// Every `auto` evaluation of the elasticity controller, in order.
    pub decisions: Vec<DecisionRecord>,
    /// Passes of the elasticity controller over its stages: one per event
    /// that woke it plus one per tick it slept through.
    pub controller_wakeups: u64,
}

impl QueryStats {
    /// Total rows produced across all instances of the named operator.
    pub fn rows_produced(&self, operator: &str) -> u64 {
        self.operators
            .iter()
            .filter(|o| o.operator == operator)
            .map(|o| o.rows)
            .sum()
    }

    /// Total bytes produced across all instances of the named operator.
    pub fn bytes_produced(&self, operator: &str) -> u64 {
        self.operators
            .iter()
            .filter(|o| o.operator == operator)
            .map(|o| o.bytes)
            .sum()
    }

    /// The runtime series collected for one stage, if any.
    pub fn series_for(&self, stage: u32) -> Option<&StageSeries> {
        self.series.iter().find(|s| s.stage == stage)
    }

    /// Serializes the full stats record (the repo benchmark's `trace_*.json`
    /// carries one per statement): per-operator counters, exchange aggregates,
    /// the per-stage throughput series, the retune and decision logs. Field
    /// order is fixed, so identical runs serialize byte-identically.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with(
                "operators",
                Json::Arr(self.operators.iter().map(|o| o.to_json()).collect()),
            )
            .with(
                "exchange",
                Json::obj()
                    .with("pages", Json::u64(self.exchange.pages))
                    .with("bytes", Json::u64(self.exchange.bytes))
                    .with("grow_events", Json::u64(self.exchange.grow_events))
                    .with("max_capacity", Json::u64(self.exchange.max_capacity as u64)),
            )
            .with(
                "series",
                Json::Arr(self.series.iter().map(|s| s.to_json()).collect()),
            )
            .with(
                "retunes",
                Json::Arr(self.retunes.iter().map(|r| r.to_json()).collect()),
            )
            .with(
                "decisions",
                Json::Arr(self.decisions.iter().map(|d| d.to_json()).collect()),
            )
            .with("controller_wakeups", Json::u64(self.controller_wakeups))
    }
}

/// The tick: minimum spacing of the periodic runtime-info samples, and the
/// longest the elasticity controller sleeps when no event wakes it — 10 ms
/// resolves the Fig-18 throughput curve of any query worth plotting, and
/// without a floor the append-only series would grow with how often the
/// controller wakes instead of with information (decision samples bypass
/// it; there is at most one per claimed split).
pub const SAMPLE_MIN_INTERVAL_NANOS: u64 = 10_000_000;

/// What a stage's scans produced in the current measurement era: since the
/// stage's first page, then since its last retune.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EraSample {
    pub rows: u64,
    /// Pages behind `rows` — how much the rate can be trusted.
    pub pages: u64,
    /// Era length so far, seconds.
    pub secs: f64,
}

impl EraSample {
    /// Stage scan throughput over the era, rows/second (`0.0` before
    /// anything was measured).
    pub fn rate(&self) -> f64 {
        if self.secs <= 0.0 {
            return 0.0;
        }
        self.rows as f64 / self.secs
    }
}

/// Wraps an operator stream, recording every page it produces and the time
/// each pull took.
pub struct MeteredStream {
    inner: BoxedStream,
    metrics: Arc<OperatorMetrics>,
}

impl MeteredStream {
    pub fn new(inner: BoxedStream, metrics: Arc<OperatorMetrics>) -> Self {
        MeteredStream { inner, metrics }
    }

    /// Runs one pull of the inner stream, adding its duration to the
    /// operator's busy time.
    fn timed<T>(&mut self, pull: impl FnOnce(&mut BoxedStream) -> T) -> T {
        let start = Instant::now();
        let out = pull(&mut self.inner);
        self.metrics.busy_ns.add(start.elapsed().as_nanos() as u64);
        out
    }
}

impl PageStream for MeteredStream {
    fn next_page(&mut self) -> Result<Page> {
        let page = self.timed(|s| s.next_page())?;
        if let Page::Data(p) = &page {
            self.metrics
                .record_page(p.row_count() as u64, p.byte_size() as u64);
        }
        Ok(page)
    }

    /// A handed-over page counts as what the operator produced: the
    /// selected rows, and their share of the page's bytes.
    fn next_selected(&mut self) -> Result<(Page, Option<Selection>)> {
        let (page, selection) = self.timed(|s| s.next_selected())?;
        if let Page::Data(p) = &page {
            let rows = selection.as_ref().map_or(p.row_count(), Selection::len);
            let bytes = p.byte_size() * rows / p.row_count().max(1);
            self.metrics.record_page(rows as u64, bytes as u64);
        }
        Ok((page, selection))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::QueueSource;
    use accordion_data::column::Column;
    use accordion_data::page::{DataPage, EndReason};

    #[test]
    fn metered_stream_counts_rows_and_bytes() {
        let metrics = QueryMetrics::new();
        let m = metrics.register(0, 0, 0, "TableScan");
        let pages = vec![
            Arc::new(DataPage::new(vec![Column::from_i64(vec![1, 2])])),
            Arc::new(DataPage::new(vec![Column::from_i64(vec![3])])),
        ];
        let mut s = MeteredStream::new(
            Box::new(QueueSource::new(pages, EndReason::UpstreamFinished)),
            m,
        );
        while !s.next_page().unwrap().is_end() {}
        let stats = metrics.snapshot(ExchangeStats::default());
        assert_eq!(stats.rows_produced("TableScan"), 3);
        assert!(stats.bytes_produced("TableScan") > 0);
        assert_eq!(stats.operators.len(), 1);
        assert!(stats.series.is_empty());
        assert!(stats.retunes.is_empty());
    }

    #[test]
    fn rows_per_sec_is_rows_since_registration_over_seconds() {
        use accordion_common::clock::ManualClock;

        let clock = ManualClock::shared();
        clock.advance_millis(300); // query start is not registration
        let metrics = QueryMetrics::with_clock(clock.clone());
        clock.advance_millis(200);
        let m = metrics.register(0, 0, 0, "Filter");
        m.record_page(100, 800);
        let rate = || metrics.snapshot(ExchangeStats::default()).operators[0].rows_per_sec;
        // Under a microsecond since registration: too short to measure.
        assert_eq!(rate(), 0.0);
        clock.advance_millis(500);
        m.record_page(150, 1200);
        assert!((rate() - 500.0).abs() < 1e-9, "rate {}", rate());
        // Read again later: the same rows over a longer lifetime.
        clock.advance_millis(500);
        assert!((rate() - 250.0).abs() < 1e-9, "rate {}", rate());
    }

    fn retune(stage: u32, from_dop: u32, to_dop: u32) -> RetuneEvent {
        RetuneEvent {
            stage,
            from_dop,
            to_dop,
            splits_claimed: 1,
            predicted_secs: 0.5,
            at_ms: 0.0,
            first_page_ms: None,
        }
    }

    #[test]
    fn a_watched_scan_raises_the_signal_at_its_nth_page_and_only_then() {
        let metrics = QueryMetrics::new();
        let before = metrics.register(1, 0, 0, "TableScan");
        let signal = Arc::new(Signal::new());
        metrics.watch_scans(3, signal.clone());
        let scan = metrics.register(1, 1, 0, "TableScan");
        let filter = metrics.register(1, 1, 0, "Filter");
        let raised = || signal.wait_timeout(Duration::ZERO);
        for _ in 0..5 {
            before.record_page(1, 8);
            filter.record_page(1, 8);
        }
        assert!(!raised(), "registered before the watch, or not a scan");
        scan.record_page(1, 8);
        scan.record_page(1, 8);
        assert!(!raised());
        scan.record_page(1, 8);
        assert!(raised(), "the third page");
        scan.record_page(1, 8);
        assert!(!raised(), "once");
    }

    #[test]
    fn grow_latency_is_the_first_page_of_a_spawned_task() {
        use accordion_common::clock::ManualClock;

        let clock = ManualClock::shared();
        let metrics = Arc::new(QueryMetrics::with_clock(clock.clone()));
        let old = metrics.register(1, 0, 0, "TableScan");
        old.record_page(10, 80);
        clock.advance_millis(4);
        let at_ms = metrics.elapsed().as_secs_f64() * 1e3;
        metrics.record_retune(
            RetuneEvent {
                at_ms,
                ..retune(1, 1, 3)
            },
            vec![1, 2],
        );
        metrics.record_retune(retune(1, 3, 1), Vec::new());
        // Task 0 keeps scanning; of the spawned ones task 2 is first, 3 ms
        // after the retune. A filter of task 2 is not its scan.
        old.record_page(10, 80);
        clock.advance_millis(3);
        metrics.register(1, 2, 0, "Filter").record_page(1, 8);
        metrics.register(1, 2, 0, "TableScan").record_page(10, 80);
        clock.advance_millis(2);
        metrics.register(1, 1, 0, "TableScan").record_page(10, 80);
        let stats = metrics.snapshot(ExchangeStats::default());
        assert_eq!(stats.retunes[0].at_ms, 4.0);
        assert_eq!(stats.retunes[0].first_page_ms, Some(3.0));
        assert_eq!(stats.retunes[1].first_page_ms, None, "a shrink spawns none");
    }

    #[test]
    fn stats_serialize_to_stable_json() {
        let metrics = Arc::new(QueryMetrics::new());
        let m = metrics.register(0, 1, 2, "TableScan");
        m.rows.add(42);
        m.bytes.add(336);
        metrics.record_retune(
            RetuneEvent {
                predicted_secs: f64::INFINITY,
                ..retune(0, 2, 4)
            },
            vec![2, 3],
        );
        metrics.record_decision(DecisionRecord {
            at_ms: 1.5,
            stage: 0,
            view: StageView {
                dop: 2,
                bounds: DopBounds::new(1, 8),
                slots: 4,
                total_rows: 4000,
                unscanned_rows: 1000,
                sample: EraSample {
                    rows: 3000,
                    pages: 30,
                    secs: 0.75e-3,
                },
                parked: 1,
                deadline: Duration::from_millis(2),
                budget: Duration::from_micros(250),
            },
            eval: Evaluation {
                per_task_rate: 2e6,
                required_dop: 2,
                chosen_dop: 4,
                predicted_secs: 0.125e-3,
                postponed: false,
            },
        });
        metrics.record_controller_wakeup();
        let stats = metrics.snapshot(ExchangeStats {
            pages: 3,
            bytes: 1024,
            grow_events: 1,
            max_capacity: 16,
        });
        let j = stats.to_json();
        assert_eq!(
            j.get("exchange").unwrap().get("bytes").unwrap().as_u64(),
            Some(1024)
        );
        let op = &j.get("operators").unwrap().as_arr().unwrap()[0];
        assert_eq!(op.get("operator").unwrap().as_str(), Some("TableScan"));
        assert_eq!(op.get("rows").unwrap().as_u64(), Some(42));
        let retune = &j.get("retunes").unwrap().as_arr().unwrap()[0];
        assert_eq!(retune.get("to_dop").unwrap().as_u64(), Some(4));
        // The writer emits a stable field order, so the same stats always
        // produce the same bytes; a parse round-trip preserves them.
        let text = j.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.to_string_pretty(), text);
        // Infinity is not representable in JSON: the writer emits null.
        let retune = &parsed.get("retunes").unwrap().as_arr().unwrap()[0];
        assert!(retune.get("predicted_secs").unwrap().is_null());
        // So does a grow none of whose tasks scanned a page.
        assert!(retune.get("first_page_ms").unwrap().is_null());
        assert!(retune.get("at_ms").unwrap().as_f64().is_some());
        let decision = &parsed.get("decisions").unwrap().as_arr().unwrap()[0];
        assert_eq!(decision.get("chosen_dop").unwrap().as_u64(), Some(4));
        assert_eq!(decision.get("postponed").unwrap().as_bool(), Some(false));
        // The cap is the view's slots; the view's other inputs are there too.
        assert_eq!(decision.get("cap").unwrap().as_u64(), Some(4));
        assert_eq!(decision.get("max_dop").unwrap().as_u64(), Some(8));
        assert_eq!(decision.get("sample_pages").unwrap().as_u64(), Some(30));
        assert_eq!(parsed.get("controller_wakeups").unwrap().as_u64(), Some(1));
    }
}
