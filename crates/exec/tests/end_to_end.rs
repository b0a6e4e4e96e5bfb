//! Golden end-to-end query tests: `LogicalPlanBuilder → Optimizer →
//! StageTree → split_pipelines → exec` against hand-computed expectations.
//!
//! The fixture table mirrors a tiny sales fact table with NULLs in `qty`,
//! registered twice: `sales` spread over 4 splits on 2 nodes (exercising
//! multi-task scans) and `sales1` as a single split (for order-sensitive
//! golden results without a final sort).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use accordion_common::sync::Semaphore;
use accordion_common::{AccordionError, Result, StageId};
use accordion_data::column::Column;
use accordion_data::page::{DataPage, EndReason, Page};
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::{
    execute_logical, execute_tree, run_task, ExecOptions, JoinBuilds, QueryMetrics, QueryResult,
    TaskContext,
};
use accordion_expr::agg::AggKind;
use accordion_expr::scalar::Expr;
use accordion_net::{
    EdgeSpec, ExchangeReader, ExchangeRegistry, ExchangeStats, ExchangeTopology, ExchangeWriter,
    RoutePolicy,
};
use accordion_plan::fragment::{PlanFragment, StageKind, StageTree};
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::physical::{Partitioning, PhysicalNode};
use accordion_plan::pipeline::{split_pipelines, PipelineSpec};
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

fn i(v: i64) -> Value {
    Value::Int64(v)
}
fn f(v: f64) -> Value {
    Value::Float64(v)
}
fn s(v: &str) -> Value {
    Value::Utf8(v.to_string())
}

/// 8 rows; qty is NULL for rows 2 and 6.
/// (region, product, qty, price)
fn sales_rows() -> Vec<Vec<Value>> {
    vec![
        vec![s("east"), s("apple"), i(10), f(1.0)],
        vec![s("east"), s("banana"), i(5), f(2.0)],
        vec![s("east"), s("apple"), Value::Null, f(3.0)],
        vec![s("west"), s("banana"), i(20), f(1.5)],
        vec![s("west"), s("apple"), i(7), f(2.5)],
        vec![s("west"), s("cherry"), i(1), f(4.0)],
        vec![s("north"), s("cherry"), Value::Null, f(0.5)],
        vec![s("north"), s("apple"), i(2), f(1.0)],
    ]
}

fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::new("region", DataType::Utf8),
        Field::new("product", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ])
}

fn catalog() -> Catalog {
    let c = Catalog::new();
    // Multi-split copy: 2 nodes × 2 splits, 3-row pages.
    let mut b = TableBuilder::new("sales", std::sync::Arc::new(sales_schema()), 3);
    for row in sales_rows() {
        b.push_row(row);
    }
    b.register(&c, 4);
    // Single-split copy preserving row order.
    let mut b = TableBuilder::new("sales1", std::sync::Arc::new(sales_schema()), 1024);
    for row in sales_rows() {
        b.push_row(row);
    }
    b.register(&c, 1);
    // Empty and all-null tables for the edge-case shapes.
    let empty_schema = Schema::shared(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    TableBuilder::new("empty", empty_schema.clone(), 8).register(&c, 2);
    let mut b = TableBuilder::new("nulls", empty_schema, 2);
    for _ in 0..5 {
        b.push_row(vec![Value::Int64(1), Value::Null]);
    }
    b.register(&c, 2);
    c
}

fn run(catalog: &Catalog, builder: LogicalPlanBuilder, dop: u32) -> QueryResult {
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    execute_logical(
        catalog,
        &builder.build(),
        &optimizer,
        &ExecOptions::with_page_rows(3),
    )
    .unwrap()
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

// -- golden shape 1: plain scan -------------------------------------------

#[test]
fn golden_scan() {
    let c = catalog();
    let result = run(&c, LogicalPlanBuilder::scan(&c, "sales1").unwrap(), 1);
    assert_eq!(result.schema.len(), 4);
    assert_eq!(result.rows(), sales_rows(), "serial scan preserves order");
    // The same rows come back from the 4-split copy at dop 3.
    let parallel = run(&c, LogicalPlanBuilder::scan(&c, "sales").unwrap(), 3);
    assert_eq!(sorted_rows(&parallel).len(), 8);
    let mut expected = sales_rows();
    expected.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    assert_eq!(sorted_rows(&parallel), expected);
}

// -- golden shape 2: scan + filter ----------------------------------------

#[test]
fn golden_filter() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let pred = Expr::gt(b.col("qty").unwrap(), Expr::lit_i64(4));
    let result = run(&c, b.filter(pred).unwrap(), 1);
    // NULL qty rows are dropped by SQL comparison semantics.
    assert_eq!(
        result.rows(),
        vec![
            vec![s("east"), s("apple"), i(10), f(1.0)],
            vec![s("east"), s("banana"), i(5), f(2.0)],
            vec![s("west"), s("banana"), i(20), f(1.5)],
            vec![s("west"), s("apple"), i(7), f(2.5)],
        ]
    );
}

// -- golden shape 3: projection arithmetic --------------------------------

#[test]
fn golden_projection_arithmetic() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let revenue = Expr::mul(b.col("qty").unwrap(), b.col("price").unwrap());
    let result = run(
        &c,
        b.clone()
            .project(vec![
                (b.col("product").unwrap(), "product"),
                (revenue, "revenue"),
            ])
            .unwrap(),
        1,
    );
    assert_eq!(result.schema.field(1).name, "revenue");
    assert_eq!(result.schema.field(1).data_type, DataType::Float64);
    assert_eq!(
        result.rows(),
        vec![
            vec![s("apple"), f(10.0)],
            vec![s("banana"), f(10.0)],
            vec![s("apple"), Value::Null], // NULL qty propagates
            vec![s("banana"), f(30.0)],
            vec![s("apple"), f(17.5)],
            vec![s("cherry"), f(4.0)],
            vec![s("cherry"), Value::Null],
            vec![s("apple"), f(2.0)],
        ]
    );
}

// -- golden shape 4: COUNT/SUM/AVG/MIN/MAX group-by (partial → final) -----

#[test]
fn golden_group_by_all_agg_kinds() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let aggs = vec![
        b.agg(AggKind::Count, "qty", "cnt").unwrap(),
        b.agg(AggKind::Sum, "qty", "total").unwrap(),
        b.agg(AggKind::Avg, "qty", "mean").unwrap(),
        b.agg(AggKind::Min, "qty", "lo").unwrap(),
        b.agg(AggKind::Max, "qty", "hi").unwrap(),
    ];
    let plan = b
        .aggregate(&["region"], aggs)
        .unwrap()
        .top_n(&[("region", false)], 10)
        .unwrap();
    let result = run(&c, plan, 4);
    // COUNT skips NULLs; AVG divides by the non-null count; MIN/MAX ignore
    // NULLs. east: qty {10,5,NULL}; north: {NULL,2}; west: {20,7,1}.
    assert_eq!(
        result.rows(),
        vec![
            vec![s("east"), i(2), i(15), f(7.5), i(5), i(10)],
            vec![s("north"), i(1), i(2), f(2.0), i(2), i(2)],
            vec![s("west"), i(3), i(28), f(28.0 / 3.0), i(1), i(20)],
        ]
    );
}

// -- golden shape 5: ungrouped (global) aggregate -------------------------

#[test]
fn golden_global_aggregate() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let aggs = vec![
        accordion_expr::agg::AggSpec::count_star("rows"),
        b.agg(AggKind::Sum, "qty", "total").unwrap(),
    ];
    let plan = b.aggregate(&[], aggs).unwrap();
    let result = run(&c, plan, 4);
    assert_eq!(result.row_count(), 1);
    assert_eq!(result.rows(), vec![vec![i(8), i(45)]]);
}

// -- golden shape 6: ORDER BY multi-key with NULLs ------------------------

#[test]
fn golden_order_by_multi_key_with_nulls() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    // ORDER BY qty ASC (NULLs first), price DESC — over all 8 rows.
    let plan = b
        .select(&["qty", "price", "product"])
        .unwrap()
        .top_n(&[("qty", false), ("price", true)], 100)
        .unwrap();
    let result = run(&c, plan, 3);
    assert_eq!(
        result.rows(),
        vec![
            vec![Value::Null, f(3.0), s("apple")], // null qty, higher price first
            vec![Value::Null, f(0.5), s("cherry")],
            vec![i(1), f(4.0), s("cherry")],
            vec![i(2), f(1.0), s("apple")],
            vec![i(5), f(2.0), s("banana")],
            vec![i(7), f(2.5), s("apple")],
            vec![i(10), f(1.0), s("apple")],
            vec![i(20), f(1.5), s("banana")],
        ]
    );
}

// -- golden shape 7: LIMIT and TopN ---------------------------------------

#[test]
fn golden_limit_and_topn() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let limited = run(&c, b.limit(3).unwrap(), 1);
    assert_eq!(limited.rows(), sales_rows()[..3].to_vec());

    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let top = run(&c, b.top_n(&[("qty", true)], 2).unwrap(), 4);
    assert_eq!(
        top.rows(),
        vec![
            vec![s("west"), s("banana"), i(20), f(1.5)],
            vec![s("east"), s("apple"), i(10), f(1.0)],
        ]
    );

    // LIMIT larger than the table returns everything.
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let all = run(&c, b.limit(99).unwrap(), 4);
    assert_eq!(all.row_count(), 8);
}

// -- golden shape 8: empty input ------------------------------------------

#[test]
fn golden_empty_input() {
    let c = catalog();
    // Scan of an empty table: zero rows, right schema.
    let scan = run(&c, LogicalPlanBuilder::scan(&c, "empty").unwrap(), 2);
    assert_eq!(scan.row_count(), 0);
    assert_eq!(scan.schema.len(), 2);
    let empty = scan.concat();
    assert_eq!(empty.row_count(), 0);
    let types: Vec<_> = empty.columns().iter().map(|c| c.data_type()).collect();
    let want: Vec<_> = scan.schema.fields().iter().map(|f| f.data_type).collect();
    assert_eq!(types, want, "typed empty columns, one per field");

    // Grouped aggregate over empty input: zero groups.
    let b = LogicalPlanBuilder::scan(&c, "empty").unwrap();
    let sum = b.agg(AggKind::Sum, "v", "s").unwrap();
    let grouped = run(&c, b.aggregate(&["k"], vec![sum]).unwrap(), 2);
    assert_eq!(grouped.row_count(), 0);

    // Global aggregate over empty input: one row, COUNT 0 / SUM NULL.
    let b = LogicalPlanBuilder::scan(&c, "empty").unwrap();
    let aggs = vec![
        b.agg(AggKind::Count, "k", "c").unwrap(),
        b.agg(AggKind::Sum, "v", "s").unwrap(),
    ];
    let global = run(&c, b.aggregate(&[], aggs).unwrap(), 2);
    assert_eq!(global.rows(), vec![vec![i(0), Value::Null]]);
}

// -- golden shape 9: all-NULL column --------------------------------------

#[test]
fn golden_all_null_column() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "nulls").unwrap();
    let aggs = vec![
        b.agg(AggKind::Count, "v", "c").unwrap(),
        b.agg(AggKind::Sum, "v", "s").unwrap(),
        b.agg(AggKind::Avg, "v", "a").unwrap(),
        b.agg(AggKind::Min, "v", "lo").unwrap(),
        b.agg(AggKind::Max, "v", "hi").unwrap(),
    ];
    let result = run(&c, b.aggregate(&["k"], aggs).unwrap(), 2);
    assert_eq!(
        result.rows(),
        vec![vec![
            i(1),
            i(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null
        ]]
    );
}

// -- golden shape 10: inner equi-join -------------------------------------

#[test]
fn golden_join() {
    let c = catalog();
    let prices_schema = Schema::shared(vec![
        Field::new("name", DataType::Utf8),
        Field::new("tariff", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("tariffs", prices_schema, 4);
    for (name, t) in [("apple", 1i64), ("banana", 2), ("durian", 9)] {
        b.push_row(vec![s(name), i(t)]);
    }
    b.register(&c, 1);

    let sales = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let tariffs = LogicalPlanBuilder::scan(&c, "tariffs").unwrap();
    let joined = sales
        .join(tariffs, &[("product", "name")])
        .unwrap()
        .select(&["product", "qty", "tariff"])
        .unwrap();
    let result = run(&c, joined, 2);
    // cherry rows have no tariff; durian never sold.
    assert_eq!(
        sorted_rows(&result),
        vec![
            vec![s("apple"), Value::Null, i(1)],
            vec![s("apple"), i(2), i(1)],
            vec![s("apple"), i(7), i(1)],
            vec![s("apple"), i(10), i(1)],
            vec![s("banana"), i(5), i(2)],
            vec![s("banana"), i(20), i(2)],
        ]
    );
}

// -- acceptance: full stack, stage by stage -------------------------------

/// Drives every layer explicitly (no convenience wrapper) for a
/// scan → filter → two-phase group-by → sort query, asserting both the
/// intermediate structures and the exact row-level result.
#[test]
fn acceptance_full_stack_scan_filter_groupby_sort() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let pred = Expr::gt(b.col("price").unwrap(), Expr::lit_f64(0.75));
    let b = b.filter(pred).unwrap();
    let aggs = vec![
        b.agg(AggKind::Sum, "qty", "total").unwrap(),
        b.agg(AggKind::Count, "qty", "cnt").unwrap(),
    ];
    let logical = b
        .aggregate(&["region"], aggs)
        .unwrap()
        .top_n(&[("total", true)], 10)
        .unwrap()
        .build();

    // Optimize at DOP 3 and fragment.
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(3));
    let physical = optimizer.optimize(&logical).unwrap();
    let tree = StageTree::build(physical).unwrap();
    assert_eq!(tree.len(), 3, "scan stage, hash-merge stage, output stage");
    let source = tree.fragment(accordion_common::StageId(2)).unwrap();
    assert_eq!(source.kind, StageKind::Source);
    assert_eq!(source.parallelism, 3, "partial side keeps the scan DOP");
    let merge = tree.fragment(accordion_common::StageId(1)).unwrap();
    assert_eq!(merge.parallelism, 2, "final phase runs distributed");
    let output = tree.root();
    assert_eq!(output.parallelism, 1, "root merge runs at parallelism 1");

    // The merge stage is one pipeline that merges partial states as they
    // arrive; the output stage merges the per-task TopNs.
    let pipelines = split_pipelines(merge).unwrap();
    assert_eq!(pipelines.len(), 1);
    assert_eq!(
        pipelines[0].operator_names(),
        vec!["ExchangeSource", "FinalAggregate", "TopN", "Output"]
    );
    assert_eq!(
        split_pipelines(output).unwrap()[0].operator_names(),
        vec!["ExchangeSource", "TopN", "Output"]
    );
    // The source stage is one streaming pipeline ending in the partial agg.
    let scan_pipes = split_pipelines(source).unwrap();
    assert_eq!(
        scan_pipes[0].operator_names(),
        vec!["TableScan", "Filter", "PartialAggregate", "Output"]
    );

    // Execute and check exact rows. price > 0.75 drops only the north
    // cherry row (price 0.5, NULL qty): east {10,5,NULL} → 15/2,
    // west {20,7,1} → 28/3, north {2} → 2/1. Sorted by total DESC.
    let result = execute_tree(&c, &tree, &ExecOptions::with_page_rows(2)).unwrap();
    assert_eq!(
        result.rows(),
        vec![
            vec![s("west"), i(28), i(3)],
            vec![s("east"), i(15), i(2)],
            vec![s("north"), i(2), i(1)],
        ]
    );
}

// -- parallelism invariance -----------------------------------------------

/// The elasticity-critical invariant at the whole-query level: any scan DOP
/// produces the same result set.
#[test]
fn results_invariant_under_parallelism() {
    let c = catalog();
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for dop in [1, 2, 3, 5, 8] {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let aggs = vec![
            b.agg(AggKind::Sum, "qty", "total").unwrap(),
            b.agg(AggKind::Avg, "price", "avg_price").unwrap(),
        ];
        let plan = b
            .aggregate(&["region", "product"], aggs)
            .unwrap()
            .top_n(&[("region", false), ("product", false)], 100)
            .unwrap();
        let rows = run(&c, plan, dop).rows();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "dop {dop} diverged"),
        }
    }
    assert_eq!(
        reference.unwrap().len(),
        7,
        "7 distinct (region, product) pairs"
    );
}

/// The serial executor runs a stage's tasks one after another, each to
/// completion, yet every scanning task still reads a share of the table:
/// the merge above it combines partial states from several tasks, as it
/// does on the concurrent scheduler, instead of one full and the rest empty.
#[test]
fn serial_scan_tasks_each_read_a_share_of_the_splits() {
    let c = catalog();
    for dop in [2, 4] {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let aggs = vec![b.agg(AggKind::Sum, "qty", "total").unwrap()];
        let result = run(&c, b.aggregate(&["region"], aggs).unwrap(), dop);
        let scans: Vec<u64> = result
            .stats()
            .operators
            .iter()
            .filter(|o| o.operator == "TableScan")
            .map(|o| o.rows)
            .collect();
        assert_eq!(scans.len(), dop as usize, "one scan per task at dop {dop}");
        assert!(scans.iter().all(|&rows| rows > 0), "dop {dop}: {scans:?}");
        assert_eq!(scans.iter().sum::<u64>(), 8, "dop {dop}: {scans:?}");
    }
}

/// A child-stage input that sleeps before handing out each page.
struct SleepyInput {
    pages: Vec<Arc<DataPage>>,
    nap: Duration,
}

impl ExchangeReader for SleepyInput {
    fn pull(&mut self) -> Result<Page> {
        std::thread::sleep(self.nap);
        Ok(match self.pages.pop() {
            Some(p) => Page::Data(p),
            None => Page::end(EndReason::UpstreamFinished),
        })
    }
}

struct Discard;

impl ExchangeWriter for Discard {
    fn push(&mut self, _: Page) -> Result<()> {
        Ok(())
    }
}

/// Every operator of a driver chain reports the time spent in its pulls,
/// upstream included (`busy_ns`), and net of the operator feeding it
/// (`self_ns`): a chain's self times add up to its last operator's busy
/// time, and a source's self time is its wait on input.
#[test]
fn operators_report_busy_and_self_time() {
    let source = Arc::new(PhysicalNode::RemoteSource {
        child_stage: StageId(1),
        schema: Schema::new(vec![Field::new("a", DataType::Int64)]),
    });
    let filter = Arc::new(PhysicalNode::Filter {
        input: source,
        predicate: Expr::gt(Expr::col(0), Expr::lit_i64(1)),
    });
    let pipelines = pipelines_of(PhysicalNode::Project {
        input: filter,
        exprs: vec![(Expr::col(0), "a".into())],
    });
    let page = Arc::new(DataPage::new(vec![Column::from_i64(vec![1, 2, 3, 4])]));
    let nap = Duration::from_millis(3);
    let mut inputs: HashMap<u32, Box<dyn ExchangeReader>> = HashMap::new();
    inputs.insert(
        1,
        Box::new(SleepyInput {
            pages: vec![page.clone(), page],
            nap,
        }),
    );
    let metrics = Arc::new(QueryMetrics::new());
    let mut task = TaskContext::new(
        0,
        0,
        64,
        inputs,
        Box::new(Discard),
        None,
        Arc::new(JoinBuilds::new(None)),
        metrics.clone(),
    );
    run_task(&pipelines, &mut task).unwrap();
    let stats = metrics.snapshot(ExchangeStats::default());
    let names: Vec<_> = stats.operators.iter().map(|o| o.operator).collect();
    assert_eq!(names, ["ExchangeSource", "Filter", "Project"]);
    let [source, filter, project] = [0, 1, 2].map(|i| &stats.operators[i]);
    // Three pulls of the input (two pages, then the end), each asleep.
    assert!(source.busy_ns >= 3 * nap.as_nanos() as u64, "{source:?}");
    assert_eq!(source.self_ns, source.busy_ns, "a source has no feeder");
    assert_eq!(filter.self_ns, filter.busy_ns - source.busy_ns);
    assert_eq!(project.self_ns, project.busy_ns - filter.busy_ns);
    assert_eq!(
        source.self_ns + filter.self_ns + project.self_ns,
        project.busy_ns
    );
    let json = project.to_json();
    assert_eq!(json.get("busy_ns").unwrap().as_u64(), Some(project.busy_ns));
    assert_eq!(json.get("self_ns").unwrap().as_u64(), Some(project.self_ns));
}

/// The pipelines of a one-task fragment rooted at `root`, whose remote
/// sources read stages 1 and 2.
fn pipelines_of(root: PhysicalNode) -> Vec<PipelineSpec> {
    split_pipelines(&PlanFragment {
        stage: StageId(0),
        root: Arc::new(root),
        parallelism: 1,
        kind: StageKind::Intermediate,
        child_stages: vec![StageId(1), StageId(2)],
        output_partitioning: Partitioning::Single,
        elastic_bounds: None,
    })
    .unwrap()
}

/// A build pipeline (stage 1's pages into join 0) and a probe pipeline
/// (stage 2's pages against it), as a probe stage's tasks run them.
fn join_pipelines() -> Vec<PipelineSpec> {
    let remote = |stage, name: &str| {
        Arc::new(PhysicalNode::RemoteSource {
            child_stage: StageId(stage),
            schema: Schema::new(vec![Field::new(name, DataType::Int64)]),
        })
    };
    let pipelines = pipelines_of(PhysicalNode::HashJoin {
        probe: remote(2, "p"),
        build: remote(1, "b"),
        on: vec![(0, 0)],
    });
    assert_eq!(
        pipelines
            .iter()
            .map(|p| p.operator_names())
            .collect::<Vec<_>>(),
        [
            vec!["ExchangeSource", "HashJoinBuild"],
            vec!["ExchangeSource", "HashJoinProbe", "Output"],
        ]
    );
    pipelines
}

/// A join build sink reports like an operator: a `HashJoinBuild` row fed
/// by the build chain's last operator, with the build side's rows and
/// bytes, whose busy time covers the drain and the table build, so its
/// self time is the build.
#[test]
fn a_join_build_reports_its_rows_and_its_own_time() {
    let pipelines = join_pipelines();
    let build_pages = vec![
        Arc::new(DataPage::new(vec![Column::from_i64(vec![1, 2, 3, 4])])),
        Arc::new(DataPage::new(vec![Column::from_i64(vec![3, 4, 5])])),
    ];
    let build_bytes: usize = build_pages.iter().map(|p| p.byte_size()).sum();
    let probe_page = Arc::new(DataPage::new(vec![Column::from_i64(vec![3, 9])]));
    let nap = Duration::from_millis(3);
    let builds = JoinBuilds::new(None);
    builds.add(
        0,
        0,
        Box::new(SleepyInput {
            pages: build_pages,
            nap,
        }),
    );
    let mut inputs: HashMap<u32, Box<dyn ExchangeReader>> = HashMap::new();
    inputs.insert(
        2,
        Box::new(SleepyInput {
            pages: vec![probe_page],
            nap,
        }),
    );
    let metrics = Arc::new(QueryMetrics::new());
    let mut task = TaskContext::new(
        0,
        0,
        64,
        inputs,
        Box::new(Discard),
        None,
        Arc::new(builds),
        metrics.clone(),
    );
    run_task(&pipelines, &mut task).unwrap();
    let stats = metrics.snapshot(ExchangeStats::default());
    let names: Vec<_> = stats
        .operators
        .iter()
        .map(|o| (o.pipeline, o.operator))
        .collect();
    assert_eq!(
        names,
        [
            (0, "ExchangeSource"),
            (0, "HashJoinBuild"),
            (1, "ExchangeSource"),
            (1, "HashJoinProbe")
        ]
    );
    let [source, build] = [0, 1].map(|i| &stats.operators[i]);
    assert_eq!(build.rows, 7, "{build:?}");
    assert_eq!(build.bytes, build_bytes as u64);
    assert!(source.busy_ns >= 3 * nap.as_nanos() as u64, "{source:?}");
    assert!(build.busy_ns >= source.busy_ns, "{build:?}");
    assert_eq!(build.self_ns, build.busy_ns - source.busy_ns);
    assert!(
        build.self_ns > 0,
        "building the table takes time: {build:?}"
    );
    // Probe key 3 meets both build rows of key 3; 9 meets none.
    assert_eq!(stats.rows_produced("HashJoinProbe"), 2);
}

/// A build that fails wakes every task waiting for its table. Two tasks
/// share the node's `JoinBuilds`: one drains the build edge, the other
/// parks for the table, and both hand their compute slot back while they
/// wait. The build side's producer then fails mid-stream — its error
/// poisons the query, as the scheduler does — and both tasks return it.
#[test]
fn a_failed_join_build_wakes_every_task_waiting_for_its_table() {
    let pipelines = Arc::new(join_pipelines());
    for slots in [1, 4] {
        let gate = Arc::new(Semaphore::new(slots));
        let topology = ExchangeTopology::new(0)
            .edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1))
            .edge(EdgeSpec::local(2, 1, RoutePolicy::Single, 2));
        let registry = ExchangeRegistry::build_in_process(&topology).unwrap();
        let builds = Arc::new(JoinBuilds::new(Some(gate.clone())));
        builds.add(0, 0, registry.reader(1, 0, Some(gate.clone())).unwrap());
        let mut producer = registry.writer(1, 0, None).unwrap();
        let page = DataPage::new(vec![Column::from_i64(vec![1, 2, 3])]);
        producer.push(Page::Data(Arc::new(page))).unwrap();

        let started = Arc::new(AtomicUsize::new(0));
        let (done, outcomes) = mpsc::channel();
        for task in 0..2 {
            let mut inputs: HashMap<u32, Box<dyn ExchangeReader>> = HashMap::new();
            let probe = registry.reader(2, task, Some(gate.clone())).unwrap();
            inputs.insert(2, probe);
            let (gate, builds, pipelines) = (gate.clone(), builds.clone(), pipelines.clone());
            let (started, done) = (started.clone(), done.clone());
            std::thread::spawn(move || {
                gate.acquire();
                started.fetch_add(1, Ordering::SeqCst);
                let metrics = Arc::new(QueryMetrics::new());
                let output = Box::new(Discard);
                let mut ctx = TaskContext::new(0, task, 64, inputs, output, None, builds, metrics);
                let outcome = run_task(&pipelines, &mut ctx);
                gate.release();
                done.send(outcome).unwrap();
            });
        }
        // Neither task can finish before the build side ends, so once both
        // have started and every permit is free, both are parked.
        let parked_by = Instant::now() + Duration::from_secs(5);
        while started.load(Ordering::SeqCst) < 2 || gate.available() != slots {
            assert!(
                Instant::now() < parked_by,
                "slots={slots}: tasks never parked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let failure = AccordionError::Execution("the build side's producer failed".into());
        registry.poison(failure.clone());
        for _ in 0..2 {
            match outcomes.recv_timeout(Duration::from_secs(5)) {
                Ok(Err(e)) => assert_eq!(e.to_string(), failure.to_string(), "slots={slots}"),
                other => panic!("slots={slots}: expected the producer's error, got {other:?}"),
            }
        }
    }
}

/// The plan's `Partitioning` and the exchange's `RoutePolicy` are one
/// type: this compiles only because a fragment's output partitioning is
/// already an edge's routing policy, with nothing to convert.
#[test]
fn a_plan_partitioning_is_a_route_policy() {
    fn route(partitioning: Partitioning) -> RoutePolicy {
        partitioning
    }
    let hash = Partitioning::Hash {
        keys: vec![0],
        partitions: 2,
    };
    let edge = EdgeSpec::local(1, 1, route(hash.clone()), 2);
    assert_eq!(edge.policy, hash);
}

/// A scan gets its splits from its stage's split queue and nowhere else: a
/// task given no feed fails, naming the table, instead of scanning a share
/// of it.
#[test]
fn a_scan_without_a_split_feed_is_an_execution_error() {
    let pipelines = pipelines_of(PhysicalNode::TableScan {
        table: "sales".into(),
        table_schema: Schema::shared(vec![Field::new("region", DataType::Utf8)]),
        projection: vec![0],
    });
    let metrics = Arc::new(QueryMetrics::new());
    let mut task = TaskContext::new(
        0,
        0,
        64,
        HashMap::new(),
        Box::new(Discard),
        None,
        Arc::new(JoinBuilds::new(None)),
        metrics,
    );
    match run_task(&pipelines, &mut task) {
        Err(AccordionError::Execution(msg)) => assert!(msg.contains("sales"), "{msg}"),
        other => panic!("expected an execution error, got {other:?}"),
    }
}
