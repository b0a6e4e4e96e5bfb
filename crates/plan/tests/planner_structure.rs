//! Structural planner tests: two-stage aggregation shape, fragment cutting,
//! pipeline splitting and which final aggregates may skip their key sort,
//! driven through the public
//! `LogicalPlanBuilder`/SQL `→ Optimizer → StageTree → split_pipelines` API.

use std::sync::Arc;

use accordion_common::StageId;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::{BinaryOp, Expr};
use accordion_plan::catalog::MemoryCatalog;
use accordion_plan::fragment::{DopBounds, StageKind, StageTree};
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::physical::{Partitioning, PhysicalNode};
use accordion_plan::pipeline::{build_inputs, split_pipelines, OperatorSpec};
use accordion_plan::LogicalPlanBuilder;
use accordion_sql::plan_select;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

fn catalog() -> Catalog {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("k", DataType::Utf8),
        Field::new("v", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("t", schema, 8);
    for i in 0..20 {
        b.push_row(vec![Value::Utf8(format!("g{}", i % 4)), Value::Int64(i)]);
    }
    b.register(&c, 4);
    c
}

/// scan → filter → group-by → top-n at DOP 5, the paper's canonical shape.
fn agg_sort_tree(dop: u32) -> StageTree {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "t").unwrap();
    let pred = Expr::gt(b.col("v").unwrap(), Expr::lit_i64(2));
    let b = b.filter(pred).unwrap();
    let sum = b.agg(AggKind::Sum, "v", "total").unwrap();
    let logical = b
        .aggregate(&["k"], vec![sum])
        .unwrap()
        .top_n(&[("total", true)], 3)
        .unwrap()
        .build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    let physical = optimizer.optimize(&logical).unwrap();
    StageTree::build(physical).unwrap()
}

#[test]
fn two_stage_agg_has_parallel_partial_and_hash_partitioned_final() {
    let tree = agg_sort_tree(5);
    assert_eq!(tree.len(), 3, "scan stage, hash merge stage, output stage");

    let source = tree.fragment(StageId(2)).unwrap();
    assert_eq!(source.kind, StageKind::Source);
    assert_eq!(source.parallelism, 5, "partial phase keeps the scan DOP");
    // The partial→final exchange hash-partitions the group key across the
    // merge tasks instead of gathering to a single task.
    assert_eq!(
        source.output_partitioning,
        Partitioning::Hash {
            keys: vec![0],
            partitions: 2
        }
    );
    // Source fragment shape: PartialAggregate over Filter over TableScan.
    let mut names = Vec::new();
    source.root.visit(&mut |n| names.push(n.name()));
    assert_eq!(names, vec!["PartialAggregate", "Filter", "TableScan"]);
    // The partial output layout is group key + serialized SUM state.
    let partial_schema = source.schema();
    assert_eq!(partial_schema.len(), 2);
    assert_eq!(partial_schema.field(0).name, "k");
    assert_eq!(partial_schema.field(1).data_type, DataType::Int64);

    let merge = tree.fragment(StageId(1)).unwrap();
    assert_eq!(merge.kind, StageKind::Intermediate);
    assert_eq!(merge.parallelism, 2, "final phase runs distributed");
    let mut names = Vec::new();
    merge.root.visit(&mut |n| names.push(n.name()));
    assert_eq!(
        names,
        vec!["TopN", "FinalAggregate", "RemoteSource"],
        "per-task TopN pushed into the merge stage"
    );

    let output = tree.root();
    assert_eq!(output.kind, StageKind::Output);
    assert_eq!(output.parallelism, 1);
    let mut names = Vec::new();
    output.root.visit(&mut |n| names.push(n.name()));
    assert_eq!(names, vec!["TopN", "RemoteSource"]);
}

#[test]
fn fragment_cutting_yields_expected_stage_tree_shape() {
    let tree = agg_sort_tree(3);
    // Two cuts: output ← merge ← source, a chain of single-child stages.
    assert_eq!(tree.len(), 3);
    assert_eq!(tree.root().child_stages, vec![StageId(1)]);
    assert_eq!(
        tree.fragment(StageId(1)).unwrap().child_stages,
        vec![StageId(2)]
    );
    assert!(tree.fragment(StageId(2)).unwrap().child_stages.is_empty());
    assert_eq!(
        tree.execution_order(),
        vec![StageId(2), StageId(1), StageId(0)]
    );
    // The final stage's query-facing schema: group key + SUM output.
    let schema = tree.root().schema();
    assert_eq!(schema.field(0).name, "k");
    assert_eq!(schema.field(1).name, "total");
    assert_eq!(schema.field(1).data_type, DataType::Int64);
    // Display renders one block per stage.
    let text = tree.display();
    assert!(text.contains("Stage 0"));
    assert!(text.contains("Stage 1"));
    assert!(text.contains("Stage 2"));
}

#[test]
fn pipeline_splitting_breaks_only_at_join_builds() {
    let tree = agg_sort_tree(4);

    // Merge stage: one pipeline whose final aggregate merges partial states
    // as they arrive off the exchange.
    let merge_pipelines = split_pipelines(tree.fragment(StageId(1)).unwrap()).unwrap();
    assert_eq!(merge_pipelines.len(), 1);
    assert_eq!(
        merge_pipelines[0].operator_names(),
        vec!["ExchangeSource", "FinalAggregate", "TopN", "Output"]
    );
    assert!(merge_pipelines[0].is_output());

    // Output stage: one streaming pipeline merging the distributed TopNs.
    let output_pipelines = split_pipelines(tree.root()).unwrap();
    assert_eq!(output_pipelines.len(), 1);
    assert_eq!(
        output_pipelines[0].operator_names(),
        vec!["ExchangeSource", "TopN", "Output"]
    );

    // Source stage: one streaming pipeline, no breakers.
    let source_pipelines = split_pipelines(tree.fragment(StageId(2)).unwrap()).unwrap();
    assert_eq!(source_pipelines.len(), 1);
    assert_eq!(
        source_pipelines[0].operator_names(),
        vec!["TableScan", "Filter", "PartialAggregate", "Output"]
    );
}

#[test]
fn serial_aggregation_still_splits_stages() {
    // Even at scan DOP 1 the two-phase rewrite keeps partial and final in
    // separate stages — the boundary the runtime controller re-parallelizes.
    let tree = agg_sort_tree(1);
    assert_eq!(tree.len(), 3);
    assert_eq!(tree.fragment(StageId(2)).unwrap().parallelism, 1);
}

#[test]
fn single_scan_source_stages_are_elastic_eligible() {
    let tree = agg_sort_tree(4);
    // The scan-side stage gets runtime DOP bounds; the merge and output
    // stages (no scans / stage 0) stay pinned.
    let source = tree.fragment(StageId(2)).unwrap();
    assert_eq!(source.elastic_bounds, Some(DopBounds::new(1, 8)));
    assert_eq!(tree.fragment(StageId(1)).unwrap().elastic_bounds, None);
    assert_eq!(tree.root().elastic_bounds, None);
    // Bounds never shrink below the planned DOP.
    let wide = agg_sort_tree(16);
    let source = wide.fragment(StageId(2)).unwrap();
    assert_eq!(source.elastic_bounds, Some(DopBounds::new(1, 16)));
    // Bounds are overridable (and rejected on non-eligible stages).
    let mut tree = agg_sort_tree(4);
    tree.set_elastic_bounds(StageId(2), DopBounds::new(2, 4))
        .unwrap();
    assert_eq!(
        tree.fragment(StageId(2)).unwrap().elastic_bounds,
        Some(DopBounds::new(2, 4))
    );
    assert!(tree
        .set_elastic_bounds(StageId(0), DopBounds::new(1, 2))
        .is_err());
}

#[test]
fn broadcast_probe_stage_is_elastic_eligible() {
    // A probe-side Source stage reads the build side through a child
    // exchange that feeds a join build: the node's tasks share the table,
    // so a task spawned mid-query replays no buffer, and the stage is
    // elastic.
    let c = catalog();
    let schema = Schema::shared(vec![
        Field::new("k2", DataType::Utf8),
        Field::new("w", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("dim2", schema, 8);
    b.push_row(vec![Value::Utf8("g0".into()), Value::Int64(1)]);
    b.register(&c, 2);

    let fact = LogicalPlanBuilder::scan(&c, "t").unwrap();
    let dim = LogicalPlanBuilder::scan(&c, "dim2").unwrap();
    let logical = fact.join(dim, &[("k", "k2")]).unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(3));
    let tree = StageTree::build(optimizer.optimize(&logical).unwrap()).unwrap();
    let probe = tree.fragment(StageId(1)).unwrap();
    assert_eq!(probe.kind, StageKind::Source);
    assert_eq!(probe.elastic_bounds, Some(DopBounds::new(1, 8)));
    let pipelines = split_pipelines(probe).unwrap();
    assert_eq!(build_inputs(&pipelines), vec![(StageId(2), 0)]);
    // The gathered build-side scan stage is itself elastic.
    assert!(tree.fragment(StageId(2)).unwrap().elastic_bounds.is_some());
}

#[test]
fn a_stage_with_a_child_that_feeds_no_build_stays_pinned() {
    // q3: the lineitem probe stage and both build scans are elastic; the
    // merge stage reads a hash exchange into its final aggregate.
    let tree = tpch_tree(include_str!("../../../suite/sql/q3.sql"));
    let elastic: Vec<u32> = (tree.fragments().iter())
        .filter(|f| f.elastic_bounds.is_some())
        .map(|f| f.stage.0)
        .collect();
    assert_eq!(elastic, [2, 3, 4], "{tree}");
    let merge = tree.fragment(StageId(1)).unwrap();
    assert!(build_inputs(&split_pipelines(merge).unwrap()).is_empty());
    // A Source stage whose exchange is the probe side, not a build input:
    // a grown task would have no reader for it, so it stays pinned.
    let scan = |table: &str| {
        Arc::new(PhysicalNode::TableScan {
            table: table.into(),
            table_schema: Schema::shared(vec![Field::new("a", DataType::Int64)]),
            projection: vec![0],
        })
    };
    let probe_exchange = Arc::new(PhysicalNode::Exchange {
        input: scan("u"),
        partitioning: Partitioning::Single,
        input_parallelism: 2,
    });
    let join = Arc::new(PhysicalNode::HashJoin {
        probe: probe_exchange,
        build: scan("t"),
        on: vec![(0, 0)],
        join_type: accordion_plan::JoinType::Inner,
    });
    let tree = StageTree::build(Arc::new(PhysicalNode::Exchange {
        input: join,
        partitioning: Partitioning::Single,
        input_parallelism: 2,
    }))
    .unwrap();
    let stage = tree.fragment(StageId(1)).unwrap();
    assert_eq!(
        (stage.kind, stage.elastic_bounds),
        (StageKind::Source, None)
    );
    assert!(tree.fragment(StageId(2)).unwrap().elastic_bounds.is_some());
}

#[test]
fn distributed_scan_gets_gather_stage() {
    let c = catalog();
    let logical = LogicalPlanBuilder::scan(&c, "t").unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(4));
    let tree = StageTree::build(optimizer.optimize(&logical).unwrap()).unwrap();
    assert_eq!(tree.len(), 2);
    assert_eq!(tree.root().kind, StageKind::Output);
    assert!(matches!(
        tree.root().root.as_ref(),
        PhysicalNode::RemoteSource { .. }
    ));
    assert_eq!(tree.fragment(StageId(1)).unwrap().parallelism, 4);
}

#[test]
fn topn_pushdown_keeps_partial_topn_in_scan_stage() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "t").unwrap();
    let logical = b.top_n(&[("v", true)], 5).unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(4));
    let tree = StageTree::build(optimizer.optimize(&logical).unwrap()).unwrap();
    assert_eq!(tree.len(), 2);
    // Scan stage ends in a per-task TopN; output stage re-applies it.
    let source = tree.fragment(StageId(1)).unwrap();
    assert_eq!(source.root.name(), "TopN");
    assert_eq!(tree.root().root.name(), "TopN");
}

#[test]
fn join_build_side_becomes_child_stage_and_pipeline() {
    let c = catalog();
    let schema = Schema::shared(vec![
        Field::new("k2", DataType::Utf8),
        Field::new("w", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("dim", schema, 8);
    b.push_row(vec![Value::Utf8("g0".into()), Value::Int64(1)]);
    b.register(&c, 2);

    let fact = LogicalPlanBuilder::scan(&c, "t").unwrap();
    let dim = LogicalPlanBuilder::scan(&c, "dim").unwrap();
    let logical = fact.join(dim, &[("k", "k2")]).unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(3));
    let tree = StageTree::build(optimizer.optimize(&logical).unwrap()).unwrap();

    // Three stages: output gather, probe stage (with the join), build-side
    // scan stage feeding it through an exchange.
    assert_eq!(tree.len(), 3);
    let probe_stage = tree.fragment(StageId(1)).unwrap();
    assert_eq!(probe_stage.kind, StageKind::Source);
    assert_eq!(probe_stage.child_stages, vec![StageId(2)]);
    let pipelines = split_pipelines(probe_stage).unwrap();
    assert_eq!(pipelines.len(), 2, "build side is its own pipeline");
    assert_eq!(
        pipelines[0].operator_names(),
        vec!["ExchangeSource", "HashJoinBuild"]
    );
    assert_eq!(
        pipelines[1].operator_names(),
        vec!["TableScan", "HashJoinProbe", "Output"]
    );
}

#[test]
fn pushdown_moves_filter_into_scan_stage() {
    // Filter above a projection ends up beneath it, next to the scan, so it
    // runs in the elastic source stage.
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "t").unwrap();
    let b = b
        .project(vec![
            (Expr::col(0), "k"),
            (Expr::mul(Expr::col(1), Expr::lit_i64(2)), "v2"),
        ])
        .unwrap();
    let pred = Expr::gt(b.col("v2").unwrap(), Expr::lit_i64(10));
    let logical = b.filter(pred).unwrap().build();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let tree = StageTree::build(optimizer.optimize(&logical).unwrap()).unwrap();
    let source = tree.fragment(StageId(1)).unwrap();
    let mut names = Vec::new();
    source.root.visit(&mut |n| names.push(n.name()));
    assert_eq!(
        names,
        vec!["Project", "Filter", "TableScan"],
        "filter sank beneath the projection"
    );
    // And the physical plan still validates schema-wise end to end.
    assert_eq!(tree.root().schema().field(1).name, "v2");
}

/// The benchmark's tables, schemas only.
fn tpch_catalog() -> MemoryCatalog {
    let table = |fields: &[(&str, DataType)]| {
        Schema::shared(
            fields
                .iter()
                .map(|&(name, dt)| Field::new(name, dt))
                .collect(),
        )
    };
    use DataType::*;
    let mut c = MemoryCatalog::new();
    c.register(
        "lineitem",
        table(&[
            ("l_orderkey", Int64),
            ("l_linenumber", Int64),
            ("l_partkey", Int64),
            ("l_suppkey", Int64),
            ("l_quantity", Float64),
            ("l_extendedprice", Float64),
            ("l_discount", Float64),
            ("l_tax", Float64),
            ("l_returnflag", Utf8),
            ("l_linestatus", Utf8),
            ("l_shipdate", Date32),
        ]),
    );
    c.register(
        "orders",
        table(&[
            ("o_orderkey", Int64),
            ("o_custkey", Int64),
            ("o_orderstatus", Utf8),
            ("o_totalprice", Float64),
            ("o_orderdate", Date32),
        ]),
    );
    c.register(
        "customer",
        table(&[
            ("c_custkey", Int64),
            ("c_name", Utf8),
            ("c_nationkey", Int64),
            ("c_mktsegment", Utf8),
            ("c_acctbal", Float64),
        ]),
    );
    c
}

/// `sql` planned the way the benchmark runs it (scan DOP 2).
fn tpch_tree(sql: &str) -> StageTree {
    let plan = plan_select(&tpch_catalog(), sql).unwrap();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap()
}

/// `table_order` of every final aggregate in `sql`'s pipelines.
fn final_table_order(sql: &str) -> Vec<bool> {
    let tree = tpch_tree(sql);
    let mut out = Vec::new();
    for fragment in tree.fragments() {
        for pipeline in split_pipelines(fragment).unwrap() {
            for op in pipeline.operators {
                if let OperatorSpec::FinalAggregate { table_order, .. } = op {
                    out.push(table_order);
                }
            }
        }
    }
    out
}

#[test]
fn a_final_skips_the_key_sort_only_under_a_sort_covering_its_groups() {
    let cases: [(&str, &str, bool); 8] = [
        (
            "q_shuffle: TopN [qty DESC, l_orderkey] covers l_orderkey",
            include_str!("../../../suite/sql/q_shuffle.sql"),
            true,
        ),
        (
            "q1: TopN [0, 1] is the group",
            include_str!("../../../suite/sql/q1.sql"),
            true,
        ),
        (
            "q_expr: TopN [0] is the group",
            include_str!("../../../suite/sql/q_expr.sql"),
            true,
        ),
        (
            "q3: TopN [revenue, l_orderkey] leaves o_orderdate out",
            include_str!("../../../suite/sql/q3.sql"),
            false,
        ),
        (
            "q6: a global aggregate nobody sorts",
            include_str!("../../../suite/sql/q6.sql"),
            false,
        ),
        (
            "LIMIT without ORDER BY keeps the first groups in key order",
            "SELECT l_orderkey, sum(l_quantity) AS qty FROM lineitem \
             GROUP BY l_orderkey LIMIT 5",
            false,
        ),
        (
            "a covering ORDER BY above a HAVING filter",
            "SELECT l_returnflag, l_linestatus, count(*) AS n FROM lineitem \
             GROUP BY l_returnflag, l_linestatus HAVING count(*) > 1 \
             ORDER BY n DESC, l_linestatus, l_returnflag",
            true,
        ),
        (
            "a sort on an expression over the group column covers nothing",
            "SELECT l_orderkey + 1 AS k1, count(*) AS n FROM lineitem \
             GROUP BY l_orderkey ORDER BY k1",
            false,
        ),
    ];
    for (case, sql, table_order) in cases {
        assert_eq!(final_table_order(sql), vec![table_order], "{case}");
    }
}

#[test]
fn every_benchmark_stage_is_one_pipeline_plus_one_per_join_build() {
    let statements = [
        include_str!("../../../suite/sql/q1.sql"),
        include_str!("../../../suite/sql/q3.sql"),
        include_str!("../../../suite/sql/q6.sql"),
        include_str!("../../../suite/sql/q_expr.sql"),
        include_str!("../../../suite/sql/q_shuffle.sql"),
        include_str!("../../../suite/sql/q_top.sql"),
        include_str!("../../../suite/sql/q_wide.sql"),
    ];
    for sql in statements {
        for fragment in tpch_tree(sql).fragments() {
            let mut joins = 0;
            fragment.root.visit(&mut |n| {
                if matches!(n, PhysicalNode::HashJoin { .. }) {
                    joins += 1;
                }
            });
            let pipelines = split_pipelines(fragment).unwrap();
            assert_eq!(pipelines.len(), 1 + joins, "{sql}");
            let builds = pipelines
                .iter()
                .filter(|p| p.operator_names().last() == Some(&"HashJoinBuild"))
                .count();
            assert_eq!(builds, joins, "{sql}");
        }
    }
}

#[test]
fn avg_lowers_to_sum_and_count_under_a_dividing_project() {
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "t").unwrap();
    let avg = b.agg(AggKind::Avg, "v", "mean").unwrap();
    let aggs = vec![avg.clone(), AggSpec::count_star("n")];
    let logical = b.aggregate(&["k"], aggs).unwrap().build();
    let physical = Optimizer::new(OptimizerConfig::serial())
        .optimize(&logical)
        .unwrap();
    let PhysicalNode::Project { input, exprs } = physical.as_ref() else {
        panic!("the division above the final: {physical}")
    };
    let PhysicalNode::FinalAggregate { aggs, .. } = input.as_ref() else {
        panic!("the final under the division: {physical}")
    };
    // The SUM takes the AVG's place and sums as FLOAT64; the COUNT of the
    // same argument comes after every other aggregate.
    let kinds: Vec<_> = aggs.iter().map(|a| (a.kind, a.input_type)).collect();
    assert_eq!(
        kinds,
        [
            (AggKind::Sum, DataType::Float64),
            (AggKind::Count, DataType::Int64),
            (AggKind::Count, DataType::Int64),
        ]
    );
    assert_eq!((&aggs[0].input, &aggs[2].input), (&avg.input, &avg.input));
    let mean = Expr::binary(Expr::col(1), BinaryOp::Div, Expr::col(3));
    let expected = [(Expr::col(0), "k"), (mean, "mean"), (Expr::col(2), "n")];
    let expected: Vec<(Expr, String)> = expected
        .into_iter()
        .map(|(e, n)| (e, n.to_string()))
        .collect();
    assert_eq!(exprs, &expected);
    assert_eq!(physical.schema(), logical.schema());
}

#[test]
fn every_partial_aggregate_state_is_one_column_per_aggregate() {
    let statements = [
        include_str!("../../../suite/sql/q1.sql"),
        include_str!("../../../suite/sql/q3.sql"),
        include_str!("../../../suite/sql/q6.sql"),
        include_str!("../../../suite/sql/q_expr.sql"),
        include_str!("../../../suite/sql/q_shuffle.sql"),
        "SELECT l_returnflag, avg(l_quantity) AS q, count(*) AS n, avg(l_orderkey) AS k \
         FROM lineitem GROUP BY l_returnflag",
        "SELECT avg(l_discount) FROM lineitem",
    ];
    for sql in statements {
        let plan = plan_select(&tpch_catalog(), sql).unwrap();
        for two_stage_aggregation in [true, false] {
            let config = OptimizerConfig {
                two_stage_aggregation,
                ..OptimizerConfig::default().with_parallelism(2)
            };
            let physical = Optimizer::new(config).optimize(&plan).unwrap();
            let mut partials = 0;
            physical.visit(&mut |node| {
                if let PhysicalNode::PartialAggregate { group_by, aggs, .. } = node {
                    partials += 1;
                    assert!(aggs.iter().all(|a| a.kind != AggKind::Avg), "{sql}");
                    assert_eq!(node.schema().len(), group_by.len() + aggs.len(), "{sql}");
                }
            });
            assert_eq!(partials, 1, "{sql}");
            // Every AVG is a division above the final; the statement's
            // output is the analyzer's.
            assert_eq!(physical.schema(), plan.schema(), "{sql}");
        }
    }
    // q1's AVG splits, and its final still leaves groups in table order:
    // the division's projection passes the group columns through.
    assert_eq!(
        final_table_order(include_str!("../../../suite/sql/q1.sql")),
        vec![true]
    );
}

#[test]
fn order_by_without_limit_displays_as_a_top_n_over_all_rows() {
    let text = tpch_tree(include_str!("../../../suite/sql/q1.sql")).display();
    assert!(text.contains("TopN: n=all keys=[0, 1]"), "{text}");
    assert!(!text.contains(&usize::MAX.to_string()), "{text}");
}

#[test]
fn optimizer_rejects_invalid_plans() {
    let schema = Schema::shared(vec![Field::new("a", DataType::Int64)]);
    let bad = accordion_plan::logical::LogicalPlan::Filter {
        input: Arc::new(accordion_plan::logical::LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: schema,
            projection: vec![0],
        }),
        predicate: Expr::gt(Expr::col(7), Expr::lit_i64(0)),
    };
    let optimizer = Optimizer::new(OptimizerConfig::default());
    assert!(optimizer.optimize(&bad).is_err());
}
