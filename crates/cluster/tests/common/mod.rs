//! What the elasticity test binaries share: a many-split table to retune
//! on, and the few lines that plan and time a run.
#![allow(dead_code)] // each test binary uses its own subset

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::{ExecOptions, QueryResult};
use accordion_expr::agg::AggKind;
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

pub fn tree_at(builder: &LogicalPlanBuilder, dop: u32) -> StageTree {
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    StageTree::build(optimizer.optimize(&builder.clone().build()).unwrap()).unwrap()
}

/// `side`² splits of `rows_per_split` rows in storage pages of `page_rows`.
pub fn split_catalog(side: u32, rows_per_split: i64, page_rows: usize) -> Catalog {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("wide", schema, page_rows);
    for n in 0..i64::from(side * side) * rows_per_split {
        b.push_row(vec![Value::Int64(n % 7), Value::Int64(n % 1000)]);
    }
    b.register(&c, side * side);
    c
}

pub fn wide_sum(c: &Catalog) -> LogicalPlanBuilder {
    let b = LogicalPlanBuilder::scan(c, "wide").unwrap();
    let aggs = vec![b.agg(AggKind::Sum, "v", "total").unwrap()];
    b.aggregate(&["k"], aggs).unwrap()
}

/// A scan-bound aggregate several times the work of [`wide_sum`] per row,
/// for tests whose splits have to take milliseconds.
pub fn wide_stats(c: &Catalog) -> LogicalPlanBuilder {
    let b = LogicalPlanBuilder::scan(c, "wide").unwrap();
    let aggs = [
        (AggKind::Count, "cnt"),
        (AggKind::Sum, "total"),
        (AggKind::Avg, "mean"),
        (AggKind::Min, "least"),
        (AggKind::Max, "most"),
    ]
    .into_iter()
    .map(|(kind, name)| b.agg(kind, "v", name).unwrap())
    .collect();
    b.aggregate(&["k"], aggs).unwrap()
}

pub fn wide_opts(worker_threads: usize, elasticity: ElasticityConfig) -> ExecOptions {
    ExecOptions::with_page_rows(128)
        .worker_threads(worker_threads)
        .elasticity(elasticity)
}

/// Wall-clock milliseconds of one run.
pub fn timed(executor: &QueryExecutor, c: &Catalog, tree: &StageTree) -> (QueryResult, f64) {
    let started = std::time::Instant::now();
    let result = executor.execute_tree(c, tree).unwrap();
    (result, started.elapsed().as_secs_f64() * 1e3)
}
