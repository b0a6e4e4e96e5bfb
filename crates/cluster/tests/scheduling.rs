//! Scheduling determinism and failure-propagation tests.
//!
//! The golden query suite runs across DOP × worker_threads × exchange
//! capacity and must produce identical (sorted) result sets everywhere —
//! the invariant that makes runtime DOP tuning safe. A second group proves
//! that one mid-query operator error terminates every in-flight task with
//! that error (no hangs, no partial results), and a third pins down the
//! elastic-buffer behavior: capacities start at one page and grow only
//! under consumer-side demand, never past the configured limit.

use std::sync::Arc;

use accordion_cluster::QueryExecutor;
use accordion_common::config::NetworkConfig;
use accordion_common::AccordionError;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::{execute_tree, ExecOptions, QueryResult};
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
fn s(v: &str) -> Value {
    Value::Utf8(v.to_string())
}

/// A 64-row fact table over 4 nodes × 2 splits — big enough that capacity-1
/// exchanges see real backpressure at page_rows 3.
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

    let dim_schema = Schema::shared(vec![
        Field::new("name", DataType::Utf8),
        Field::new("bonus", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("bonuses", dim_schema, 2);
    for (name, bonus) in [("region-0", 10i64), ("region-2", 20), ("region-4", 40)] {
        b.push_row(vec![s(name), i(bonus)]);
    }
    b.register(&c, 1);
    c
}

/// The golden suite: representative query shapes exercising scan, filter,
/// two-phase aggregation, top-N merge and broadcast hash join.
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

    // One group per row of `sales`: at page_rows 3 the final pulls about 22
    // pages of partial rows off the exchange, not five groups' worth.
    let group_every_row = || {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let aggs = vec![b.agg(AggKind::Count, "qty", "cnt").unwrap()];
        b.aggregate(&["region", "qty", "price"], aggs).unwrap()
    };
    let group_every_row_sorted = group_every_row()
        .top_n(&[("price", true), ("qty", false), ("region", false)], 100)
        .unwrap();

    vec![
        ("scan", scan),
        ("filter", filter),
        ("group_by", group_by),
        ("top_n", top_n),
        ("join", join),
        ("group_every_row", group_every_row()),
        ("group_every_row_sorted", group_every_row_sorted),
    ]
}

fn sorted_rows(result: &QueryResult) -> Vec<Vec<Value>> {
    sort_rows(result.rows())
}

fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn opts(worker_threads: usize, capacity_one: bool) -> ExecOptions {
    let network = if capacity_one {
        NetworkConfig::builder().fixed_buffers(1).build()
    } else {
        NetworkConfig::builder().unbounded_buffers().build()
    };
    ExecOptions::with_page_rows(3)
        .worker_threads(worker_threads)
        .network(network)
}

#[test]
fn golden_suite_is_invariant_across_the_scheduling_matrix() {
    let c = catalog();
    for (name, builder) in golden_suite(&c) {
        // Reference: the serial in-process executor at DOP 1.
        let serial_opt = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
        let tree =
            StageTree::build(serial_opt.optimize(&builder.clone().build()).unwrap()).unwrap();
        let reference = sorted_rows(&execute_tree(&c, &tree, &opts(1, false)).unwrap());
        assert!(!reference.is_empty(), "{name}: empty reference result");

        for (dop, merge) in [1u32, 2, 4]
            .into_iter()
            .flat_map(|d| [(d, 1u32), (d, 2), (d, 3)])
        {
            let optimizer = Optimizer::new(
                OptimizerConfig::default()
                    .with_parallelism(dop)
                    .with_merge_parallelism(merge),
            );
            let tree =
                StageTree::build(optimizer.optimize(&builder.clone().build()).unwrap()).unwrap();
            for worker_threads in [1usize, 4] {
                for capacity_one in [true, false] {
                    let executor = QueryExecutor::new(opts(worker_threads, capacity_one));
                    let result = executor.execute_tree(&c, &tree).unwrap_or_else(|e| {
                        panic!(
                            "{name} failed at dop={dop} merge={merge} \
                             workers={worker_threads} capacity_one={capacity_one}: {e}"
                        )
                    });
                    assert_eq!(
                        sorted_rows(&result),
                        reference,
                        "{name} diverged at dop={dop} merge={merge} \
                         workers={worker_threads} capacity_one={capacity_one}"
                    );
                }
            }
        }
    }
}

#[test]
fn concurrent_matches_serial_executor_exactly() {
    let c = catalog();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(3));
    for (name, builder) in golden_suite(&c) {
        let plan = builder.build();
        let tree = StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap();
        let serial = execute_tree(&c, &tree, &opts(1, false)).unwrap();
        let concurrent = QueryExecutor::new(opts(4, true))
            .execute_tree(&c, &tree)
            .unwrap();
        assert_eq!(
            sorted_rows(&concurrent),
            sorted_rows(&serial),
            "{name}: scheduler diverged from serial reference"
        );
    }
}

/// A stage tree whose scan-side filter fails at runtime: `NOT qty` is now
/// rejected at expression type-check, so the tree is hand-built from
/// physical nodes (mimicking a planner bug / future operator) to exercise
/// the mid-query error path.
fn poisoned_tree(c: &Catalog) -> StageTree {
    use accordion_plan::physical::{Partitioning, PhysicalNode};
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
    StageTree::build(gather).unwrap()
}

#[test]
fn operator_error_terminates_all_in_flight_tasks() {
    let c = catalog();
    for worker_threads in [1usize, 4] {
        for capacity_one in [true, false] {
            let tree = poisoned_tree(&c);
            let executor = QueryExecutor::new(opts(worker_threads, capacity_one));
            // Must return (not hang with blocked siblings) and carry the
            // original operator error, at every pool/capacity combination.
            match executor.execute_tree(&c, &tree) {
                Err(AccordionError::Execution(msg)) => {
                    assert!(
                        msg.contains("NOT over non-boolean"),
                        "unexpected error: {msg}"
                    );
                }
                other => panic!("expected the operator error, got {other:?}"),
            }
        }
    }
}

#[test]
fn limit_terminates_producers_early_without_deadlock() {
    // The root LIMIT stops pulling after 5 rows while scan tasks are still
    // pushing into capacity-1 buffers. Dropping the reader closes its
    // buffer (end-signal direction of Fig 13), so the producers run out
    // instead of blocking forever — at every pool size.
    let c = catalog();
    for worker_threads in [1usize, 4] {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let plan = b.limit(5).unwrap();
        let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
        let executor = QueryExecutor::new(opts(worker_threads, true));
        let result = executor
            .execute_logical(&c, &plan.build(), &optimizer)
            .unwrap();
        assert_eq!(result.row_count(), 5);
    }
}

#[test]
fn elastic_buffers_start_at_one_page_and_grow_on_demand() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let aggs = vec![b.agg(AggKind::Sum, "qty", "total").unwrap()];
    let plan = b.aggregate(&["region"], aggs).unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(4));

    // Roomy limit: consumer-side demand must grow some buffer past 1 page.
    let network = NetworkConfig::default(); // initial 1, max 256
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(1)
            .worker_threads(2)
            .network(network),
    );
    let grown = executor.execute_logical(&c, &plan, &optimizer).unwrap();
    assert!(
        grown.stats().exchange.grow_events > 0,
        "expected elastic growth, stats: {:?}",
        grown.stats().exchange
    );
    assert!(grown.stats().exchange.max_capacity > 1);

    // Hard limit of one page: capacity must never grow.
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(1)
            .worker_threads(2)
            .network(NetworkConfig::builder().fixed_buffers(1).build()),
    );
    let fixed = executor.execute_logical(&c, &plan, &optimizer).unwrap();
    assert_eq!(fixed.stats().exchange.grow_events, 0);
    assert_eq!(fixed.stats().exchange.max_capacity, 1);
    // Same rows either way.
    assert_eq!(sorted_rows(&grown), sorted_rows(&fixed));
}

#[test]
fn stats_expose_per_operator_rows() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let pred = Expr::gt(b.col("qty").unwrap(), Expr::lit_i64(100));
    let plan = b.filter(pred).unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let executor = QueryExecutor::new(opts(2, false));
    let result = executor.execute_logical(&c, &plan, &optimizer).unwrap();
    assert_eq!(result.row_count(), 0, "no qty exceeds 100");
    let stats = result.stats();
    assert_eq!(stats.rows_produced("TableScan"), 64, "scan reads all rows");
    assert_eq!(stats.rows_produced("Filter"), 0, "filter drops everything");
    assert!(stats.bytes_produced("TableScan") > 0);
    assert_eq!(
        stats.exchange.pages, 0,
        "everything filtered: no data page crosses the exchange"
    );
}

#[test]
fn a_join_with_no_keys_is_the_full_product_on_both_executors() {
    // `join(right, &[])` is the cross join: the planner gives it the
    // broadcast join's shape, and a join table with no keys hands every
    // probe row every build row, NULL-bearing rows included.
    let c = catalog();
    let table_rows = |name: &str| -> Vec<Vec<Value>> {
        let meta = c.get(name).unwrap();
        let pages = meta.splits.splits().iter().flat_map(|s| s.pages.iter());
        pages.flat_map(|p| p.rows()).collect()
    };
    let bonuses = table_rows("bonuses");
    let product: Vec<Vec<Value>> = table_rows("sales")
        .into_iter()
        .flat_map(|probe| {
            bonuses
                .iter()
                .map(move |build| [probe.clone(), build.clone()].concat())
        })
        .collect();
    assert_eq!(product.len(), 64 * 3);
    let expected = sort_rows(product);

    let sales = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let plan = sales
        .join(LogicalPlanBuilder::scan(&c, "bonuses").unwrap(), &[])
        .unwrap()
        .build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let tree = StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap();
    let serial = execute_tree(&c, &tree, &opts(1, false)).unwrap();
    assert_eq!(sorted_rows(&serial), expected, "serial executor");
    let concurrent = QueryExecutor::new(opts(2, true))
        .execute_tree(&c, &tree)
        .unwrap();
    assert_eq!(sorted_rows(&concurrent), expected, "QueryExecutor at dop 2");
}
