//! What a driver runs, pinned as literals: for `benchmarks/sql/q{1,3,6}.sql`
//! and the suite's `q_shuffle.sql`, planned at dop 2 over a small generated
//! TPC-H catalog, the operator names of every pipeline, the `build_inputs`
//! of every fragment, and the `(stage, task, pipeline, operator)` rows of
//! one serial run's `QueryStats::operators` — which name every operator
//! meter and give their registration order. Last, which partial aggregates
//! flush their tables: one over unique keys does in every task, q1's never.

use accordion::data::schema::{Field, Schema};
use accordion::data::types::{DataType, Value};
use accordion::exec::metrics::OperatorStats;
use accordion::exec::operators::PARTIAL_GROUP_CAP;
use accordion::exec::{execute_tree, ExecOptions};
use accordion::plan::fragment::StageTree;
use accordion::plan::optimizer::{Optimizer, OptimizerConfig};
use accordion::plan::pipeline::{build_inputs, split_pipelines};
use accordion::sql::plan_select;
use accordion::storage::catalog::Catalog;
use accordion::storage::table::TableBuilder;
use accordion::tpch::gen::{generate, TpchOptions};

/// One stage: its id, each pipeline's operator names, and its join build
/// inputs as `(child stage, join)`.
type Stage = (u32, Vec<Vec<&'static str>>, Vec<(u32, usize)>);
/// One operator meter: `(stage, task, pipeline, operator)`.
type Meter = (u32, u32, u32, &'static str);

fn catalog() -> Catalog {
    generate(&TpchOptions {
        scale_factor: 0.002,
        seed: 7,
        page_rows: 256,
    })
    .catalog
}

fn pinned(catalog: &Catalog, sql: &str) -> (Vec<Stage>, Vec<Meter>, Vec<Vec<Value>>) {
    let plan = plan_select(catalog, sql).unwrap();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let tree = StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap();
    let stages = tree
        .fragments()
        .iter()
        .map(|f| {
            let pipelines = split_pipelines(f).unwrap();
            let names = pipelines.iter().map(|p| p.operator_names()).collect();
            let builds = build_inputs(&pipelines);
            (
                f.stage.0,
                names,
                builds.iter().map(|&(c, j)| (c.0, j)).collect(),
            )
        })
        .collect();
    let result = execute_tree(catalog, &tree, &ExecOptions::with_page_rows(256)).unwrap();
    let meters = (result.stats().operators.iter())
        .map(|o| (o.stage, o.task, o.pipeline, o.operator))
        .collect();
    (stages, meters, result.rows())
}

#[test]
fn q1_pipelines_and_meters() {
    let (stages, meters, rows) = pinned(&catalog(), include_str!("../benchmarks/sql/q1.sql"));
    assert_eq!(
        stages,
        [
            (0, vec![vec!["ExchangeSource", "TopN", "Output"]], vec![]),
            (
                1,
                vec![vec![
                    "ExchangeSource",
                    "FinalAggregate",
                    "Project",
                    "Project",
                    "TopN",
                    "Output",
                ]],
                vec![],
            ),
            (
                2,
                vec![vec!["TableScan", "Filter", "PartialAggregate", "Output"]],
                vec![],
            ),
        ]
    );
    assert_eq!(
        meters,
        [
            (2, 0, 0, "TableScan"),
            (2, 0, 0, "Filter"),
            (2, 0, 0, "PartialAggregate"),
            (2, 1, 0, "TableScan"),
            (2, 1, 0, "Filter"),
            (2, 1, 0, "PartialAggregate"),
            (1, 0, 0, "ExchangeSource"),
            (1, 0, 0, "FinalAggregate"),
            (1, 0, 0, "Project"),
            (1, 0, 0, "Project"),
            (1, 0, 0, "TopN"),
            (1, 1, 0, "ExchangeSource"),
            (1, 1, 0, "FinalAggregate"),
            (1, 1, 0, "Project"),
            (1, 1, 0, "Project"),
            (1, 1, 0, "TopN"),
            (0, 0, 0, "ExchangeSource"),
            (0, 0, 0, "TopN"),
        ]
    );
    assert_eq!(rows.len(), 6);
}

#[test]
fn q3_pipelines_and_meters() {
    let (stages, meters, rows) = pinned(&catalog(), include_str!("../benchmarks/sql/q3.sql"));
    assert_eq!(
        stages,
        [
            (0, vec![vec!["ExchangeSource", "TopN", "Output"]], vec![]),
            (
                1,
                vec![vec![
                    "ExchangeSource",
                    "FinalAggregate",
                    "Project",
                    "TopN",
                    "Output",
                ]],
                vec![],
            ),
            (
                2,
                vec![
                    vec!["ExchangeSource", "HashJoinBuild"],
                    vec!["ExchangeSource", "HashJoinBuild"],
                    vec![
                        "TableScan",
                        "HashJoinProbe",
                        "Filter",
                        "Project",
                        "HashJoinProbe",
                        "PartialAggregate",
                        "Output",
                    ],
                ],
                vec![(4, 0), (3, 1)],
            ),
            (3, vec![vec!["TableScan", "Filter", "Output"]], vec![]),
            (
                4,
                vec![vec!["TableScan", "Filter", "Project", "Output"]],
                vec![],
            ),
        ]
    );
    assert_eq!(
        meters,
        [
            (4, 0, 0, "TableScan"),
            (4, 0, 0, "Filter"),
            (4, 0, 0, "Project"),
            (4, 1, 0, "TableScan"),
            (4, 1, 0, "Filter"),
            (4, 1, 0, "Project"),
            (3, 0, 0, "TableScan"),
            (3, 0, 0, "Filter"),
            (3, 1, 0, "TableScan"),
            (3, 1, 0, "Filter"),
            (2, 0, 0, "ExchangeSource"),
            (2, 0, 0, "HashJoinBuild"),
            (2, 0, 1, "ExchangeSource"),
            (2, 0, 1, "HashJoinBuild"),
            (2, 0, 2, "TableScan"),
            (2, 0, 2, "HashJoinProbe"),
            (2, 0, 2, "Filter"),
            (2, 0, 2, "Project"),
            (2, 0, 2, "HashJoinProbe"),
            (2, 0, 2, "PartialAggregate"),
            (2, 1, 2, "TableScan"),
            (2, 1, 2, "HashJoinProbe"),
            (2, 1, 2, "Filter"),
            (2, 1, 2, "Project"),
            (2, 1, 2, "HashJoinProbe"),
            (2, 1, 2, "PartialAggregate"),
            (1, 0, 0, "ExchangeSource"),
            (1, 0, 0, "FinalAggregate"),
            (1, 0, 0, "Project"),
            (1, 0, 0, "TopN"),
            (1, 1, 0, "ExchangeSource"),
            (1, 1, 0, "FinalAggregate"),
            (1, 1, 0, "Project"),
            (1, 1, 0, "TopN"),
            (0, 0, 0, "ExchangeSource"),
            (0, 0, 0, "TopN"),
        ]
    );
    assert_eq!(rows.len(), 10);
}

#[test]
fn q6_pipelines_and_meters() {
    let (stages, meters, rows) = pinned(&catalog(), include_str!("../benchmarks/sql/q6.sql"));
    assert_eq!(
        stages,
        [
            (
                0,
                vec![vec![
                    "ExchangeSource",
                    "FinalAggregate",
                    "Project",
                    "Output"
                ]],
                vec![],
            ),
            (
                1,
                vec![vec!["TableScan", "Filter", "PartialAggregate", "Output"]],
                vec![],
            ),
        ]
    );
    assert_eq!(
        meters,
        [
            (1, 0, 0, "TableScan"),
            (1, 0, 0, "Filter"),
            (1, 0, 0, "PartialAggregate"),
            (1, 1, 0, "TableScan"),
            (1, 1, 0, "Filter"),
            (1, 1, 0, "PartialAggregate"),
            (0, 0, 0, "ExchangeSource"),
            (0, 0, 0, "FinalAggregate"),
            (0, 0, 0, "Project"),
        ]
    );
    assert_eq!(rows.len(), 1);
}

#[test]
fn q_shuffle_pipelines_and_meters() {
    let (stages, meters, rows) = pinned(&catalog(), include_str!("../suite/sql/q_shuffle.sql"));
    assert_eq!(
        stages,
        [
            (0, vec![vec!["ExchangeSource", "TopN", "Output"]], vec![]),
            (
                1,
                vec![vec![
                    "ExchangeSource",
                    "FinalAggregate",
                    "Project",
                    "TopN",
                    "Output",
                ]],
                vec![],
            ),
            (
                2,
                vec![vec!["TableScan", "PartialAggregate", "Output"]],
                vec![],
            ),
        ]
    );
    assert_eq!(
        meters,
        [
            (2, 0, 0, "TableScan"),
            (2, 0, 0, "PartialAggregate"),
            (2, 1, 0, "TableScan"),
            (2, 1, 0, "PartialAggregate"),
            (1, 0, 0, "ExchangeSource"),
            (1, 0, 0, "FinalAggregate"),
            (1, 0, 0, "Project"),
            (1, 0, 0, "TopN"),
            (1, 1, 0, "ExchangeSource"),
            (1, 1, 0, "FinalAggregate"),
            (1, 1, 0, "Project"),
            (1, 1, 0, "TopN"),
            (0, 0, 0, "ExchangeSource"),
            (0, 0, 0, "TopN"),
        ]
    );
    assert_eq!(rows.len(), 20);
}

/// Registers `uniq`: `rows` rows of a unique INT64 key `k` in 4 splits.
fn register_unique_keys(catalog: &Catalog, rows: usize) {
    let schema = Schema::shared(vec![Field::new("k", DataType::Int64)]);
    let mut table = TableBuilder::new("uniq", schema, 256);
    for k in 0..rows as i64 {
        table.push_row(vec![Value::Int64(k)]);
    }
    table.register(catalog, 4);
}

/// The partial aggregates' meters of one serial dop-2 run of `sql`.
fn partial_meters(catalog: &Catalog, sql: &str) -> Vec<OperatorStats> {
    let plan = plan_select(catalog, sql).unwrap();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let tree = StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap();
    let result = execute_tree(catalog, &tree, &ExecOptions::with_page_rows(256)).unwrap();
    let partials = result.stats().operators.iter();
    let partials = partials.filter(|o| o.operator == "PartialAggregate");
    partials.cloned().collect()
}

#[test]
fn each_partial_task_flushes_over_unique_keys_and_q1s_never_do() {
    let catalog = catalog();
    let keys = 3 * PARTIAL_GROUP_CAP + 1_000;
    register_unique_keys(&catalog, keys);
    let uniq = partial_meters(&catalog, "SELECT k, count(*) AS n FROM uniq GROUP BY k");
    assert_eq!(uniq.len(), 2);
    for task in &uniq {
        assert!(task.flushes >= 1, "{task:?}");
        let json = task.to_json();
        assert_eq!(
            json.get("flushes").and_then(|f| f.as_u64()),
            Some(task.flushes)
        );
    }
    assert!(uniq.iter().map(|t| t.rows).sum::<u64>() >= keys as u64);
    let q1 = partial_meters(&catalog, include_str!("../benchmarks/sql/q1.sql"));
    assert_eq!(q1.len(), 2);
    for task in &q1 {
        assert_eq!(task.flushes, 0, "{task:?}");
        assert_eq!(task.to_json().get("flushes"), None);
    }
}
