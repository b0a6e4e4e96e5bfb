//! Intra-query re-parallelization tests (paper Fig 13, §5.2).
//!
//! The core invariant: a mid-query Source-stage DOP change — grow 1→4 or
//! shrink 4→1, applied between splits by the elasticity controller — must
//! produce a result **identical** to the static-DOP run, with every split
//! scanned exactly once (no page loss, no duplication). A second group
//! exercises the `Auto` mode, where the decision is made by the what-if
//! predictor from the live era samples the elasticity controller takes of
//! each stage's scans, and every decision replays from its record; a third
//! pins down the runtime info itself (monotone per-stage series) and the
//! retune log.

mod common;

use accordion_cluster::{QueryExecutor, WhatIfPredictor};
use accordion_common::config::{ElasticityConfig, NetworkConfig};
use accordion_common::ElasticityMode;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::{execute_tree, ExecOptions, QueryResult};
use accordion_expr::agg::AggKind;
use accordion_expr::scalar::Expr;
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;
use common::{split_catalog, tree_at, wide_opts, wide_sum};

fn i(v: i64) -> Value {
    Value::Int64(v)
}
fn s(v: &str) -> Value {
    Value::Utf8(v.to_string())
}

/// A 64-row fact table over 4 nodes × 2 splits (8 splits — enough decision
/// boundaries for between-splits retunes) plus a small dimension table.
fn catalog() -> Catalog {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("region", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ]);
    let mut b = TableBuilder::new("sales", schema, 3);
    for n in 0..64i64 {
        b.push_row(vec![
            Value::Utf8(format!("region-{}", n % 5)),
            if n % 11 == 0 { Value::Null } else { i(n % 13) },
            Value::Float64(0.5 * (n % 7) as f64),
        ]);
    }
    b.register(&c, 8);

    // 2 nodes × 2 splits: the join's build-side scan — the only elastic
    // stage of a broadcast join (the probe reads a child exchange) — needs
    // more than one split to have a between-splits decision boundary.
    let dim_schema = Schema::shared(vec![
        Field::new("name", DataType::Utf8),
        Field::new("bonus", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("bonuses", dim_schema, 1);
    for (name, bonus) in [
        ("region-0", 10i64),
        ("region-1", 15),
        ("region-2", 20),
        ("region-3", 30),
        ("region-4", 40),
    ] {
        b.push_row(vec![s(name), i(bonus)]);
    }
    b.register(&c, 4);
    c
}

/// The golden suite: the same representative query shapes the scheduling
/// determinism tests pin down.
fn golden_suite(c: &Catalog) -> Vec<(&'static str, LogicalPlanBuilder)> {
    let scan = LogicalPlanBuilder::scan(c, "sales").unwrap();

    let filter = {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let pred = Expr::gt(b.col("qty").unwrap(), Expr::lit_i64(4));
        b.filter(pred).unwrap()
    };

    let group_by = {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let aggs = vec![
            b.agg(AggKind::Count, "qty", "cnt").unwrap(),
            b.agg(AggKind::Sum, "qty", "total").unwrap(),
            b.agg(AggKind::Avg, "price", "mean").unwrap(),
        ];
        b.aggregate(&["region"], aggs).unwrap()
    };

    let top_n = {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        b.top_n(&[("qty", true), ("region", false), ("price", false)], 10)
            .unwrap()
    };

    let join = {
        let sales = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let bonuses = LogicalPlanBuilder::scan(c, "bonuses").unwrap();
        sales
            .join(bonuses, &[("region", "name")])
            .unwrap()
            .select(&["region", "qty", "bonus"])
            .unwrap()
    };

    vec![
        ("scan", scan),
        ("filter", filter),
        ("group_by", group_by),
        ("top_n", top_n),
        ("join", join),
    ]
}

fn sorted_rows(result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows = result.rows();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn opts(worker_threads: usize, elasticity: ElasticityConfig) -> ExecOptions {
    ExecOptions::with_page_rows(3)
        .worker_threads(worker_threads)
        .network(NetworkConfig::builder().fixed_buffers(2).build())
        .elasticity(elasticity)
}

/// Static reference result: the serial in-process executor at DOP 1.
fn reference(c: &Catalog, builder: &LogicalPlanBuilder) -> (Vec<Vec<Value>>, u64) {
    let tree = tree_at(builder, 1);
    let r = execute_tree(c, &tree, &ExecOptions::with_page_rows(3)).unwrap();
    let scanned = r.stats().rows_produced("TableScan");
    (sorted_rows(&r), scanned)
}

/// Asserts the elasticity invariants of one run against the static
/// reference: identical rows, every split scanned exactly once, the
/// expected retune applied, and monotone runtime-info samples.
fn assert_elastic_run(
    name: &str,
    result: &QueryResult,
    reference_rows: &[Vec<Value>],
    reference_scan_rows: u64,
    from_dop: u32,
    to_dop: u32,
) {
    assert_eq!(
        sorted_rows(result),
        reference_rows,
        "{name}: {from_dop}→{to_dop} retune changed the result"
    );
    let stats = result.stats();
    assert_eq!(
        stats.rows_produced("TableScan"),
        reference_scan_rows,
        "{name}: page loss or duplication — splits not scanned exactly once"
    );
    assert!(
        stats
            .retunes
            .iter()
            .any(|r| r.from_dop == from_dop && r.to_dop == to_dop),
        "{name}: no {from_dop}→{to_dop} retune recorded (retunes: {:?})",
        stats.retunes
    );
    assert!(
        !stats.series.is_empty(),
        "{name}: no runtime info collected"
    );
    for series in &stats.series {
        assert!(
            series.points.windows(2).all(|w| w[0].at <= w[1].at),
            "{name}: stage {} samples are not monotone in time",
            series.stage
        );
    }
}

#[test]
fn forced_grow_1_to_4_matches_static_results_across_golden_suite() {
    let c = catalog();
    for (name, builder) in golden_suite(&c) {
        let (ref_rows, ref_scans) = reference(&c, &builder);
        for worker_threads in [1usize, 4] {
            let tree = tree_at(&builder, 1);
            let executor = QueryExecutor::new(opts(worker_threads, ElasticityConfig::forced(4)));
            let result = executor.execute_tree(&c, &tree).unwrap_or_else(|e| {
                panic!("{name} failed growing 1→4 at workers={worker_threads}: {e}")
            });
            assert_elastic_run(name, &result, &ref_rows, ref_scans, 1, 4);
        }
    }
}

#[test]
fn forced_shrink_4_to_1_matches_static_results_across_golden_suite() {
    let c = catalog();
    for (name, builder) in golden_suite(&c) {
        let (ref_rows, ref_scans) = reference(&c, &builder);
        for worker_threads in [1usize, 4] {
            let tree = tree_at(&builder, 4);
            let executor = QueryExecutor::new(opts(worker_threads, ElasticityConfig::forced(1)));
            let result = executor.execute_tree(&c, &tree).unwrap_or_else(|e| {
                panic!("{name} failed shrinking 4→1 at workers={worker_threads}: {e}")
            });
            assert_elastic_run(name, &result, &ref_rows, ref_scans, 4, 1);
        }
    }
}

#[test]
fn auto_mode_grows_to_the_pool_under_an_impossible_deadline() {
    // Deadline 0: no DOP can meet it, so the what-if predictor asks for the
    // largest DOP in bounds (default 1..=8) — and gets the four tasks the
    // executor has compute slots for. A fifth would only queue for a slot
    // one of the four holds: more threads, no more parallelism.
    let c = catalog();
    let builder = {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let aggs = vec![b.agg(AggKind::Sum, "qty", "total").unwrap()];
        b.aggregate(&["region"], aggs).unwrap()
    };
    let (ref_rows, ref_scans) = reference(&c, &builder);
    let tree = tree_at(&builder, 1);
    let executor = QueryExecutor::new(opts(4, ElasticityConfig::auto(0)));
    let result = executor.execute_tree(&c, &tree).unwrap();
    assert_elastic_run("auto-grow", &result, &ref_rows, ref_scans, 1, 4);
    // The predictor-driven decision carries its remaining-time estimate.
    let retune = result
        .stats()
        .retunes
        .iter()
        .find(|r| r.to_dop == 4)
        .unwrap();
    assert!(retune.predicted_secs > 0.0);
    // The decision consumed a live sample: the stage's series has one, and
    // scanning had begun by then.
    let series = result.stats().series_for(retune.stage).unwrap();
    assert!(
        series.points.iter().any(|p| p.value > 0.0),
        "predictor decided without a live throughput sample"
    );
    // And it is on record with what it was based on.
    let decision = result
        .stats()
        .decisions
        .iter()
        .find(|d| d.eval.chosen_dop == 4)
        .expect("the grow is in the decision log");
    assert_eq!(
        (
            decision.view.dop,
            decision.eval.required_dop,
            decision.view.slots
        ),
        (1, 8, 4)
    );
    assert!(decision.view.budget.is_zero());
}

#[test]
fn auto_mode_shrinks_to_bounds_min_under_generous_deadline() {
    // A one-hour deadline: the smallest DOP meets it easily, so the
    // predictor shrinks 4→1 once it has a live rate sample.
    let c = catalog();
    let builder = {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let aggs = vec![b.agg(AggKind::Count, "qty", "cnt").unwrap()];
        b.aggregate(&["region"], aggs).unwrap()
    };
    let (ref_rows, ref_scans) = reference(&c, &builder);
    let tree = tree_at(&builder, 4);
    let executor = QueryExecutor::new(opts(4, ElasticityConfig::auto(3_600_000)));
    let result = executor.execute_tree(&c, &tree).unwrap();
    assert_elastic_run("auto-shrink", &result, &ref_rows, ref_scans, 4, 1);
    let retune = result
        .stats()
        .retunes
        .iter()
        .find(|r| r.to_dop == 1)
        .unwrap();
    assert!(
        retune.predicted_secs.is_finite() && retune.predicted_secs >= 0.0,
        "shrink decision must come from a finite prediction, got {}",
        retune.predicted_secs
    );
}

#[test]
fn every_auto_decision_replays_from_its_record() {
    // A decision record is the predictor's whole input and its output:
    // evaluating the recorded view again must give the recorded
    // evaluation, under deadlines that grow, stay and shrink.
    let c = catalog();
    for (name, builder) in golden_suite(&c) {
        for planned_dop in [1, 4] {
            let tree = tree_at(&builder, planned_dop);
            for deadline_ms in [1, 20, 3_600_000] {
                for worker_threads in [1usize, 4] {
                    let elasticity = ElasticityConfig::auto(deadline_ms);
                    let executor = QueryExecutor::new(opts(worker_threads, elasticity));
                    let result = executor.execute_tree(&c, &tree).unwrap();
                    let decisions = &result.stats().decisions;
                    let run = format!(
                        "{name} at dop {planned_dop}, {deadline_ms} ms, {worker_threads} threads"
                    );
                    assert!(!decisions.is_empty(), "{run}: no decision recorded");
                    for d in decisions {
                        assert_eq!(WhatIfPredictor::evaluate(&d.view), d.eval, "{run}: {d:?}");
                        assert!(d.view.unscanned_rows <= d.view.total_rows, "{run}: {d:?}");
                        assert!(d.view.budget <= d.view.deadline, "{run}: {d:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn elasticity_off_records_nothing() {
    let c = catalog();
    let builder = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let tree = tree_at(&builder, 4);
    let executor = QueryExecutor::new(opts(4, ElasticityConfig::off()));
    let result = executor.execute_tree(&c, &tree).unwrap();
    assert!(result.stats().retunes.is_empty());
    assert!(result.stats().series.is_empty());
    assert_eq!(result.stats().rows_produced("TableScan"), 64);
}

#[test]
fn env_schedule_injector_parses_the_matrix_values() {
    // The CI elasticity matrix toggles ACCORDION_ELASTICITY; the injector
    // must map each matrix value onto the right controller mode.
    assert_eq!(
        ElasticityConfig::parse_mode(Some("off")),
        ElasticityMode::Off
    );
    assert_eq!(
        ElasticityConfig::parse_mode(Some("forced-grow")),
        ElasticityMode::ForcedGrow
    );
    assert_eq!(
        ElasticityConfig::parse_mode(Some("forced-shrink")),
        ElasticityMode::ForcedShrink
    );
    assert_eq!(
        ElasticityConfig::parse_mode(Some("auto")),
        ElasticityMode::Auto {
            deadline_ms: ElasticityConfig::DEFAULT_AUTO_DEADLINE_MS
        }
    );
}

#[test]
fn cycle_mode_alternates_retunes_within_one_query() {
    // The cross-era regression: a forced grow→shrink→grow schedule inside
    // a single query. Every retune must start a fresh measurement era
    // (baseline reset), so rates never mix samples across DOP changes, and
    // the result must stay identical to the static reference with every
    // split scanned exactly once.
    let c = catalog();
    let builder = {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let aggs = vec![
            b.agg(AggKind::Sum, "qty", "total").unwrap(),
            b.agg(AggKind::Count, "qty", "cnt").unwrap(),
        ];
        b.aggregate(&["region"], aggs).unwrap()
    };
    let (ref_rows, ref_scans) = reference(&c, &builder);
    let tree = tree_at(&builder, 1);
    let executor = QueryExecutor::new(opts(4, ElasticityConfig::cycle(4, 1)));
    let result = executor.execute_tree(&c, &tree).unwrap();
    assert_eq!(
        sorted_rows(&result),
        ref_rows,
        "cycle retunes changed the result"
    );
    let stats = result.stats();
    assert_eq!(
        stats.rows_produced("TableScan"),
        ref_scans,
        "cycle: splits not scanned exactly once"
    );
    let retunes = &stats.retunes;
    assert!(
        retunes.len() >= 3,
        "expected a grow→shrink→grow chain, got {retunes:?}"
    );
    // The chain is well-linked per stage: each retune starts where the
    // previous one on the same stage ended…
    for w in retunes.windows(2) {
        if w[0].stage == w[1].stage {
            assert_eq!(
                w[0].to_dop, w[1].from_dop,
                "retune chain broken: {retunes:?}"
            );
        }
    }
    // …and strictly alternates between the cycle's two poles.
    for r in retunes {
        assert_ne!(r.from_dop, r.to_dop, "no-op retune recorded: {retunes:?}");
        assert!(
            r.to_dop == 4 || r.to_dop == 1,
            "cycle left its poles: {retunes:?}"
        );
    }
    assert!(
        retunes.iter().any(|r| r.to_dop == 4) && retunes.iter().any(|r| r.to_dop == 1),
        "cycle never visited both poles: {retunes:?}"
    );
    // Runtime info stayed sane across all eras: samples monotone in time,
    // and every sampled rate finite (a cross-era mix of a shrunk baseline
    // shows up as an inflated or non-finite rate).
    assert!(!stats.series.is_empty(), "no runtime info collected");
    for series in &stats.series {
        assert!(
            series.points.windows(2).all(|w| w[0].at <= w[1].at),
            "stage {} samples are not monotone in time",
            series.stage
        );
        assert!(
            series
                .points
                .iter()
                .all(|p| p.value.is_finite() && p.value >= 0.0),
            "stage {} sampled a non-finite or negative rate",
            series.stage
        );
    }
}

#[test]
fn repeated_grow_shrink_cycles_stay_correct() {
    // Hammer the mechanism: alternating forced targets across runs on the
    // same catalog must stay byte-identical to the reference every time.
    let c = catalog();
    let builder = {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        b.top_n(&[("qty", true), ("region", false), ("price", false)], 10)
            .unwrap()
    };
    let (ref_rows, _) = reference(&c, &builder);
    for round in 0..3 {
        for (start_dop, target) in [(1u32, 6u32), (4, 2), (2, 8), (8, 1)] {
            let tree = tree_at(&builder, start_dop);
            let executor = QueryExecutor::new(opts(2, ElasticityConfig::forced(target)));
            let result = executor.execute_tree(&c, &tree).unwrap();
            assert_eq!(
                sorted_rows(&result),
                ref_rows,
                "round {round}: {start_dop}→{target} diverged"
            );
        }
    }
}

#[test]
fn auto_never_grows_past_the_slots_of_its_pool() {
    // A 1 ms deadline on two compute slots: the predictor wants 8, and the
    // stage must not be given more tasks than can run.
    let c = split_catalog(8, 256, 64);
    let builder = wide_sum(&c);
    let (ref_rows, ref_scans) = reference(&c, &builder);
    let tree = tree_at(&builder, 1);
    let executor = QueryExecutor::new(wide_opts(2, ElasticityConfig::auto(1)));
    let result = executor.execute_tree(&c, &tree).unwrap();
    assert_eq!(sorted_rows(&result), ref_rows);
    let stats = result.stats();
    assert_eq!(stats.rows_produced("TableScan"), ref_scans);
    assert!(
        stats.retunes.iter().all(|r| r.to_dop <= 2),
        "grew past the pool: {:?}",
        stats.retunes
    );
    assert!(
        stats
            .retunes
            .iter()
            .any(|r| (r.from_dop, r.to_dop) == (1, 2)),
        "never grew at all: {:?}",
        stats.decisions
    );
    assert!(stats.decisions.iter().all(|d| d.view.slots == 2));
}

#[test]
fn single_page_splits_never_wait_for_a_sample_that_cannot_come() {
    // 64 splits of one page each: a task is back at the queue after every
    // page, so under per-split boundaries every task is parked before a
    // usable sample exists. A controller that postponed its decision while
    // somebody was parked would stop the scan it is waiting to measure.
    let c = split_catalog(8, 4, 4);
    let builder = wide_sum(&c);
    let (ref_rows, ref_scans) = reference(&c, &builder);
    for elasticity in [ElasticityConfig::auto(1), ElasticityConfig::cycle(4, 1)] {
        for planned_dop in [1, 4] {
            let tree = tree_at(&builder, planned_dop);
            let executor = QueryExecutor::new(wide_opts(2, elasticity));
            let result = executor.execute_tree(&c, &tree).unwrap();
            assert_eq!(sorted_rows(&result), ref_rows, "{elasticity:?}");
            let stats = result.stats();
            assert_eq!(
                stats.rows_produced("TableScan"),
                ref_scans,
                "{elasticity:?}: splits not scanned exactly once"
            );
            assert!(
                stats
                    .decisions
                    .iter()
                    .all(|d| !(d.eval.postponed && d.view.parked > 0)),
                "postponed with a claimant parked: {:?}",
                stats.decisions
            );
        }
    }
}
