//! Elasticity behaviour that only means something when nothing else
//! competes for the test's CPUs. Cargo runs test binaries one after another
//! but the tests *inside* one in parallel, and a sibling test that takes a
//! core for five milliseconds looks, to the what-if predictor, exactly like
//! a scan that has become several times slower. Hence a binary of their
//! own, in which they also take turns, and splits that take milliseconds
//! each: a stall the machine itself throws in (they reach 5 ms on a shared
//! two-core host) is then small against what a decision is based on.

mod common;

use std::sync::Mutex;

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use common::{split_catalog, timed, tree_at, wide_opts, wide_stats};

/// Held by whichever test is running.
static ALONE: Mutex<()> = Mutex::new(());

#[test]
fn each_split_costs_a_bounded_number_of_evaluations() {
    // 64 splits of 64 pages. Whatever `auto` decides along the way, an
    // evaluation is a step that something reached: the claim that takes a
    // split up to the boundary, a task's usable-sample page, or a claimant
    // parked there. A decision lets one claim through, and a postponed one
    // needs a thin sample, which only a task's start or a retune's new era
    // has: the work per split is bounded, whatever the split's length.
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let c = split_catalog(8, 8192, 128);
    let tree = tree_at(&wide_stats(&c), 1);
    let executor = QueryExecutor::new(wide_opts(2, ElasticityConfig::auto(20)));
    let (result, wall_ms) = timed(&executor, &c, &tree);
    let stats = result.stats();
    assert_eq!(stats.rows_produced("TableScan"), 64 * 8192);
    let tasks = (stats.operators.iter())
        .filter(|o| o.operator == "TableScan")
        .count();
    let allowed = 64 + tasks + stats.retunes.len();
    assert!(
        (1..=allowed).contains(&stats.decisions.len()),
        "{} evaluations with {tasks} tasks and {} retunes (allowed {allowed})",
        stats.decisions.len(),
        stats.retunes.len()
    );
    // Retune latency is a number, not a guess: every grow whose tasks got
    // to scan says how long the first page took to come.
    for r in stats.retunes.iter().filter(|r| r.to_dop > r.from_dop) {
        assert!(r.at_ms > 0.0 && r.at_ms <= wall_ms, "{r:?}");
        if let Some(ms) = r.first_page_ms {
            assert!(ms <= wall_ms, "{r:?}");
        }
    }
}

#[test]
fn the_first_decision_is_taken_on_the_first_usable_sample() {
    // Dop 1 under a deadline it never needs to grow for, over splits of 32
    // pages: the task's own page that makes its sample usable (the ninth:
    // the first opens the era) steps the controller, so the first decision
    // that is not postponed has seen at most 16 pages, in every run.
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let c = split_catalog(4, 4096, 128);
    let tree = tree_at(&wide_stats(&c), 1);
    let executor = QueryExecutor::new(wide_opts(2, ElasticityConfig::auto(100_000)));
    for run in 0..20 {
        let result = executor.execute_tree(&c, &tree).unwrap();
        let stats = result.stats();
        assert!(stats.retunes.is_empty(), "run {run}: {:?}", stats.retunes);
        let first = stats.decisions.iter().find(|d| !d.eval.postponed);
        let pages = first.map(|d| d.view.sample.pages);
        assert!(
            pages.is_some_and(|p| p <= 16),
            "run {run}: first decided evaluation after {pages:?} pages\n{:?}",
            stats.decisions
        );
    }
}

#[test]
fn a_loose_deadline_is_met_without_a_single_retune() {
    // Planned at dop 1 with three times the time dop 1 takes: the cheapest
    // plan is to do nothing, every time. (What used to go wrong: a first
    // decision on a rate that billed thread start-up to the scan grew the
    // stage, and the next one shrank it back.)
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let c = split_catalog(3, 32768, 128);
    let tree = tree_at(&wide_stats(&c), 1);
    let off = QueryExecutor::new(wide_opts(2, ElasticityConfig::off()));
    let mut t1: Vec<f64> = (0..3).map(|_| timed(&off, &c, &tree).1).collect();
    t1.sort_by(f64::total_cmp);
    let deadline_ms = (3.0 * t1[1]).ceil().max(1.0) as u64;
    let executor = QueryExecutor::new(wide_opts(2, ElasticityConfig::auto(deadline_ms)));
    for run in 0..10 {
        let result = executor.execute_tree(&c, &tree).unwrap();
        let stats = result.stats();
        assert!(
            stats.retunes.is_empty(),
            "run {run}, deadline {deadline_ms} ms: {:?}\n{:?}",
            stats.retunes,
            stats.decisions
        );
        assert!(!stats.decisions.is_empty(), "every evaluation is on record");
    }
}
