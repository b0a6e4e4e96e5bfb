//! Multi-query concurrency: admission policies over the shared gate and
//! per-query poisoning isolation, end to end.
//!
//! One `QueryExecutor` is a worker pool shared by every query it runs;
//! these tests drive N queries at it concurrently and pin down the
//! pool-level contracts: admission limits hold (queue waits, reject
//! fails fast, the queue bound rejects overflow), one failing query never
//! poisons a sibling, queued arrivals die with `poison_active`, and
//! concurrent deadline-driven queries each cap their DOP at the pool.

use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::{DistRole, NodeQuery, QueryExecutor, SplitQueues};
use accordion_common::config::{AdmissionConfig, ElasticityConfig};
use accordion_common::AccordionError;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::{ExecOptions, QueryResult};
use accordion_expr::agg::AggKind;
use accordion_expr::scalar::Expr;
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

fn i(v: i64) -> Value {
    Value::Int64(v)
}

/// The 64-row fact table of the scheduling suite.
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
    c
}

fn group_by_plan(c: &Catalog) -> Arc<accordion_plan::logical::LogicalPlan> {
    let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
    let aggs = vec![
        b.agg(AggKind::Count, "qty", "cnt").unwrap(),
        b.agg(AggKind::Sum, "qty", "total").unwrap(),
    ];
    b.aggregate(&["region"], aggs).unwrap().build()
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

fn scan_tree(c: &Catalog) -> StageTree {
    let scan = LogicalPlanBuilder::scan(c, "sales").unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
    StageTree::build(optimizer.optimize(&scan).unwrap()).unwrap()
}

/// Wires `tree` as a whole query without running it: the unrun query holds
/// its admission permit and sits in the executor's active map until it is
/// dropped or run — a query in flight for exactly as long as the test says.
fn hold<'a>(
    executor: &QueryExecutor,
    c: &'a Catalog,
    tree: &'a StageTree,
) -> NodeQuery<&'a StageTree> {
    let opts = ExecOptions::with_page_rows(1).elasticity(ElasticityConfig::off());
    executor
        .wire(
            c,
            tree,
            &opts,
            DistRole::single(),
            0,
            &SplitQueues::default(),
        )
        .unwrap()
}

/// Spins (yielding the CPU) until `cond` holds, for up to 10 s.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn n_queries_share_the_gate_under_the_queue_policy() {
    let c = catalog();
    let plan = group_by_plan(&c);
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(3)
            .worker_threads(2)
            .elasticity(ElasticityConfig::off())
            .admission(AdmissionConfig::queued(2)),
    );
    let reference = sorted_rows(&executor.execute_logical(&c, &plan, &optimizer).unwrap());

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let (executor, c, plan, optimizer) = (&executor, &c, &plan, &optimizer);
                scope.spawn(move || executor.execute_logical(c, plan, optimizer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert_eq!(
            sorted_rows(r.as_ref().unwrap()),
            reference,
            "a queued query diverged"
        );
    }
    let stats = executor.admission().stats();
    assert_eq!(stats.admitted, 7, "warmup + all six concurrent queries");
    assert_eq!(stats.rejected, 0);
    assert!(
        stats.peak_running <= 2,
        "admission cap exceeded: peak {}",
        stats.peak_running
    );
    assert_eq!(stats.running, 0);
    assert_eq!(stats.waiting, 0);
}

#[test]
fn reject_policy_fails_fast_while_the_pool_is_busy() {
    let c = catalog();
    let scan = LogicalPlanBuilder::scan(&c, "sales").unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(1)
            .elasticity(ElasticityConfig::off())
            .worker_threads(2)
            .admission(AdmissionConfig::rejecting(1)),
    );

    let tree = scan_tree(&c);
    let held = hold(&executor, &c, &tree);
    assert_eq!(executor.admission().stats().running, 1);
    match executor.execute_logical(&c, &scan, &optimizer) {
        Err(AccordionError::Execution(msg)) => {
            assert!(
                msg.contains("admission rejected"),
                "unexpected error: {msg}"
            )
        }
        other => panic!("expected an admission rejection, got {other:?}"),
    }
    let rows = held.run().unwrap().expect("node 0 drains the result");
    assert_eq!(rows.row_count(), 64);
    // The pool drained: the same arrival now admits.
    executor.execute_logical(&c, &scan, &optimizer).unwrap();
    assert_eq!(executor.admission().stats().rejected, 1);
}

#[test]
fn one_failing_query_does_not_poison_concurrent_siblings() {
    use accordion_plan::physical::{Partitioning, PhysicalNode};
    let c = catalog();

    // A hand-built tree whose filter fails at runtime (`NOT` over Int64).
    let meta = c.get("sales").unwrap();
    let scan = Arc::new(PhysicalNode::TableScan {
        table: "sales".into(),
        table_schema: meta.schema.clone(),
        projection: vec![0, 1, 2],
    });
    let filter = Arc::new(PhysicalNode::Filter {
        input: scan,
        predicate: Expr::Not(Arc::new(Expr::col(1))),
    });
    let gather = Arc::new(PhysicalNode::Exchange {
        input: filter,
        partitioning: Partitioning::Single,
        input_parallelism: 4,
    });
    let bad_tree = StageTree::build(gather).unwrap();

    let plan = group_by_plan(&c);
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(3)
            .worker_threads(2)
            .elasticity(ElasticityConfig::off()),
    );
    let reference = sorted_rows(&executor.execute_logical(&c, &plan, &optimizer).unwrap());

    // Failing and healthy queries interleave on the same pool; each
    // query's exchanges are its own, so the poison must stay contained.
    std::thread::scope(|scope| {
        let mut good = Vec::new();
        let mut bad = Vec::new();
        for round in 0..4 {
            let (ex, c2, plan2, opt2, tree2) = (&executor, &c, &plan, &optimizer, &bad_tree);
            if round % 2 == 0 {
                good.push(scope.spawn(move || ex.execute_logical(c2, plan2, opt2)));
            } else {
                bad.push(scope.spawn(move || ex.execute_tree(c2, tree2)));
            }
        }
        for h in good {
            let r = h.join().unwrap().expect("sibling was poisoned");
            assert_eq!(sorted_rows(&r), reference);
        }
        for h in bad {
            match h.join().unwrap() {
                Err(AccordionError::Execution(msg)) => {
                    assert!(msg.contains("NOT over non-boolean"), "unexpected: {msg}")
                }
                other => panic!("expected the operator error, got {other:?}"),
            }
        }
    });
}

#[test]
fn poison_active_aborts_queued_arrivals_but_not_future_ones() {
    let c = catalog();
    let scan = LogicalPlanBuilder::scan(&c, "sales").unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(1)
            .elasticity(ElasticityConfig::off())
            .worker_threads(2)
            .admission(AdmissionConfig::queued(1)),
    );

    let tree = scan_tree(&c);
    let held = hold(&executor, &c, &tree);
    std::thread::scope(|scope| {
        let (ex, c3, scan3, opt3) = (&executor, &c, &scan, &optimizer);
        let queued = scope.spawn(move || ex.execute_logical(c3, scan3, opt3));
        assert!(
            eventually(|| executor.admission().stats().waiting == 1),
            "second query never queued"
        );

        executor.poison_active(AccordionError::Execution("admin abort".into()));

        // Both the in-flight query and the queued one fail with the abort.
        for outcome in [queued.join().unwrap().map(|_| ()), held.run().map(|_| ())] {
            match outcome {
                Err(e) => assert!(e.to_string().contains("admin abort"), "got {e}"),
                Ok(_) => panic!("query survived poison_active"),
            }
        }
    });
    // The kill switch only covers what was in flight: new queries run.
    executor.execute_logical(&c, &scan, &optimizer).unwrap();
}

#[test]
fn concurrent_auto_queries_return_the_serial_rows() {
    let c = catalog();
    let plan = group_by_plan(&c);
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let executor = QueryExecutor::new(ExecOptions::with_page_rows(3).worker_threads(4));
    let off = ExecOptions::with_page_rows(3).elasticity(ElasticityConfig::off());
    let reference = sorted_rows(
        &executor
            .execute_logical_opts(&c, &plan, &optimizer, &off)
            .unwrap(),
    );

    // Two deadline-driven queries race on the shared pool: a tight one and
    // a loose one. Whatever their controllers decide, both must finish with
    // exactly the right rows — retunes change DOP, never correctness.
    let auto_tight = ExecOptions::with_page_rows(3).elasticity(ElasticityConfig::auto(5));
    let auto_loose = ExecOptions::with_page_rows(3).elasticity(ElasticityConfig::auto(60_000));
    std::thread::scope(|scope| {
        let handles: Vec<_> = [&auto_tight, &auto_loose, &auto_tight, &auto_loose]
            .into_iter()
            .map(|opts| {
                let (ex, c2, plan2, opt2) = (&executor, &c, &plan, &optimizer);
                scope.spawn(move || ex.execute_logical_opts(c2, plan2, opt2, opts))
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap().expect("auto query failed");
            assert_eq!(sorted_rows(&r), reference, "retuning changed rows");
            // Company does not shrink a query's cap: it is the pool.
            for d in &r.stats().decisions {
                assert_eq!(d.view.slots, 4, "{d:?}");
                assert!(d.eval.chosen_dop <= 4, "{d:?}");
            }
        }
    });
}
