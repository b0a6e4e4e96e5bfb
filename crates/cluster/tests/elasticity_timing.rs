//! Elasticity behaviour that only means something when nothing else
//! competes for the test's CPUs. Cargo runs test binaries one after another
//! but the tests *inside* one in parallel, and a sibling test that takes a
//! core for five milliseconds looks, to the what-if predictor, exactly like
//! a scan that has become several times slower — and, to a claimant, like
//! a controller that does not answer. Hence a binary of their own, in which
//! they also take turns, and splits that take milliseconds each: a stall
//! the machine itself throws in (they reach 5 ms on a shared two-core host)
//! is then small against what a decision is based on.

mod common;

use std::sync::Mutex;

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use common::{split_catalog, timed, tree_at, wide_opts, wide_stats};

/// Held by whichever test is running.
static ALONE: Mutex<()> = Mutex::new(());

#[test]
fn the_controller_wakes_for_events_and_ticks_not_on_a_poll_period() {
    // 64 splits of 64 pages. Whatever `auto` decides along the way, the
    // controller has one reason to look per claimed split, one per retune
    // (a retirement raises the signal, a grown task's exit too), one per
    // 10 ms tick it sleeps through, and a few more: each scan task's
    // usable-sample page, the exits of the query's other tasks. A poll
    // loop looks thousands of times a second instead.
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let c = split_catalog(8, 8192, 128);
    let tree = tree_at(&wide_stats(&c), 1);
    let executor = QueryExecutor::new(wide_opts(2, ElasticityConfig::auto(20)));
    let (result, wall_ms) = timed(&executor, &c, &tree);
    let stats = result.stats();
    assert_eq!(stats.rows_produced("TableScan"), 64 * 8192);
    let allowed = 64 + stats.retunes.len() as u64 + (wall_ms / 10.0) as u64 + 8;
    assert!(
        (1..=allowed).contains(&stats.controller_wakeups),
        "{} wake-ups in {wall_ms:.1} ms with {} retunes (allowed {allowed})",
        stats.controller_wakeups,
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
