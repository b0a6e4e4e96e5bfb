//! Shape of the logical rewrites (`Optimizer::rewrite_logical`): where each
//! conjunct of a filter above a join ends up, and which columns each scan
//! and join input still carries. The trees are built the way the SQL
//! analyzer builds them — one `Filter` holding the whole `WHERE` above the
//! joins — over schema-only tables shaped like TPC-H's.

use std::sync::Arc;

use accordion_data::schema::{Field, Schema};
use accordion_data::types::DataType::{self, Date32, Float64, Int64, Utf8};
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::{BinaryOp, Expr};
use accordion_plan::catalog::Catalog;
use accordion_plan::logical::LogicalPlan;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::TableMeta;
use accordion_storage::split::SplitSet;

fn catalog() -> Catalog {
    let c = Catalog::new();
    let register = |name: &str, cols: &[(&str, DataType)]| {
        c.register(TableMeta {
            name: name.into(),
            schema: Schema::shared(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect()),
            splits: SplitSet::default(),
        })
    };
    register(
        "lineitem",
        &[
            ("l_orderkey", Int64),
            ("l_linenumber", Int64),
            ("l_quantity", Float64),
            ("l_extendedprice", Float64),
            ("l_discount", Float64),
            ("l_returnflag", Utf8),
            ("l_shipdate", Date32),
        ],
    );
    register(
        "orders",
        &[
            ("o_orderkey", Int64),
            ("o_custkey", Int64),
            ("o_orderstatus", Utf8),
            ("o_totalprice", Float64),
            ("o_orderdate", Date32),
        ],
    );
    register(
        "customer",
        &[
            ("c_custkey", Int64),
            ("c_name", Utf8),
            ("c_mktsegment", Utf8),
            ("c_acctbal", Float64),
        ],
    );
    c
}

/// lineitem ⋈ orders ⋈ customer, left-deep, as `FROM … JOIN … JOIN …` plans.
fn three_tables(c: &Catalog) -> LogicalPlanBuilder {
    let scan = |t| LogicalPlanBuilder::scan(c, t).unwrap();
    scan("lineitem")
        .join(scan("orders"), &[("l_orderkey", "o_orderkey")])
        .unwrap()
        .join(scan("customer"), &[("o_custkey", "c_custkey")])
        .unwrap()
}

fn and(all: Vec<Expr>) -> Expr {
    all.into_iter().reduce(Expr::and).unwrap()
}

fn rewrite(plan: &LogicalPlan) -> Arc<LogicalPlan> {
    let rewritten = Optimizer::new(OptimizerConfig::default()).rewrite_logical(plan);
    rewritten.validate().unwrap();
    assert_eq!(
        rewritten.schema(),
        plan.schema(),
        "a rewrite keeps the output"
    );
    rewritten
}

/// Every scan of `plan` as (table, projected column names).
fn scans(plan: &LogicalPlan) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    plan.visit(&mut |n| {
        if let LogicalPlan::TableScan { table, .. } = n {
            let names = n.schema().fields().iter().map(|f| f.name.clone()).collect();
            out.push((table.clone(), names));
        }
    });
    out
}

/// Every filter of `plan` as (the node it sits on, the column names its
/// predicate reads).
fn filters(plan: &LogicalPlan) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    plan.visit(&mut |n| {
        if let LogicalPlan::Filter { input, predicate } = n {
            let on = match input.as_ref() {
                LogicalPlan::TableScan { table, .. } => format!("scan {table}"),
                LogicalPlan::Join { on, .. } => format!("join on {on:?}"),
                other => other.display().lines().next().unwrap().to_string(),
            };
            let schema = input.schema();
            let reads = predicate
                .referenced_columns()
                .iter()
                .map(|&c| schema.field(c).name.clone())
                .collect();
            out.push((on, reads));
        }
    });
    out
}

fn names(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

/// q3: three single-table conjuncts in one `WHERE`, a grouped aggregate over
/// an expression, ORDER BY … LIMIT.
fn q3(c: &Catalog) -> Arc<LogicalPlan> {
    let b = three_tables(c);
    let date = Expr::lit_date(9_204); // 1995-03-15
    let predicate = and(vec![
        Expr::gt(b.col("l_shipdate").unwrap(), date.clone()),
        Expr::lt(b.col("o_orderdate").unwrap(), date),
        Expr::eq(b.col("c_mktsegment").unwrap(), Expr::lit_str("BUILDING")),
    ]);
    let b = b.filter(predicate).unwrap();
    let revenue = Expr::mul(
        b.col("l_extendedprice").unwrap(),
        Expr::sub(Expr::lit_f64(1.0), b.col("l_discount").unwrap()),
    );
    let sum = AggSpec::new(AggKind::Sum, revenue, Float64, "revenue");
    b.aggregate(&["l_orderkey", "o_orderdate"], vec![sum])
        .unwrap()
        .top_n(&[("revenue", true), ("l_orderkey", false)], 10)
        .unwrap()
        .build()
}

#[test]
fn q3_conjuncts_sink_to_their_tables_and_scans_keep_what_is_read() {
    let c = catalog();
    let rewritten = rewrite(&q3(&c));
    // The build sides filter directly above their scans. The probe side is
    // a bare scan, which keeps its conjunct directly above its join (see
    // `push_filter_into_join`); nothing is left above the outer join.
    assert_eq!(
        filters(&rewritten),
        vec![
            ("join on [(0, 0)]".to_string(), names(&["l_shipdate"])),
            ("scan orders".to_string(), names(&["o_orderdate"])),
            ("scan customer".to_string(), names(&["c_mktsegment"])),
        ],
        "{rewritten}"
    );
    assert_eq!(
        scans(&rewritten),
        vec![
            (
                "lineitem".to_string(),
                names(&["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
            ),
            (
                "orders".to_string(),
                names(&["o_orderkey", "o_custkey", "o_orderdate"])
            ),
            (
                "customer".to_string(),
                names(&["c_custkey", "c_mktsegment"])
            ),
        ]
    );
    // Join inputs carry only what the join or something above it reads:
    // the outer probe side lost l_shipdate and o_orderkey, the customer
    // build side c_mktsegment.
    let LogicalPlan::TopN { input, .. } = rewritten.as_ref() else {
        panic!("{rewritten}")
    };
    let LogicalPlan::Aggregate { input, .. } = input.as_ref() else {
        panic!("{rewritten}")
    };
    let LogicalPlan::Join { left, right, .. } = input.as_ref() else {
        panic!("{rewritten}")
    };
    let fields = |p: &LogicalPlan| -> Vec<String> {
        p.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    assert_eq!(
        fields(left),
        names(&[
            "l_orderkey",
            "l_extendedprice",
            "l_discount",
            "o_custkey",
            "o_orderdate"
        ])
    );
    assert_eq!(fields(right), names(&["c_custkey"]));
    assert!(matches!(right.as_ref(), LogicalPlan::Project { .. }));
}

#[test]
fn a_probe_side_that_is_not_a_bare_scan_takes_its_conjuncts() {
    // Two conjuncts over the lineitem ⋈ orders side of the outer join: both
    // leave the top; the one over orders reaches its scan.
    let c = catalog();
    let b = three_tables(&c);
    let predicate = and(vec![
        Expr::gt(b.col("l_quantity").unwrap(), Expr::lit_f64(10.0)),
        Expr::eq(b.col("o_orderstatus").unwrap(), Expr::lit_str("F")),
    ]);
    let rewritten = rewrite(&b.filter(predicate).unwrap().build());
    assert!(
        matches!(rewritten.as_ref(), LogicalPlan::Join { .. }),
        "nothing stays above the outer join: {rewritten}"
    );
    assert_eq!(
        filters(&rewritten),
        vec![
            ("join on [(0, 0)]".to_string(), names(&["l_quantity"])),
            ("scan orders".to_string(), names(&["o_orderstatus"])),
        ]
    );
}

#[test]
fn conjuncts_over_both_sides_or_no_column_stay_above_the_join() {
    let c = catalog();
    let b = three_tables(&c);
    let across = Expr::gt(b.col("o_totalprice").unwrap(), b.col("c_acctbal").unwrap());
    let or_across = Expr::binary(
        Expr::eq(b.col("c_mktsegment").unwrap(), Expr::lit_str("BUILDING")),
        BinaryOp::Or,
        Expr::lt(b.col("l_quantity").unwrap(), Expr::lit_f64(5.0)),
    );
    let constant = Expr::eq(Expr::lit_i64(1), Expr::lit_i64(1));
    let one_side = Expr::gt(b.col("c_acctbal").unwrap(), Expr::lit_f64(0.0));
    let plan = b
        .filter(and(vec![across, or_across, one_side, constant]))
        .unwrap()
        .build();
    let rewritten = rewrite(&plan);
    assert_eq!(
        filters(&rewritten),
        vec![
            (
                "join on [(8, 0)]".to_string(),
                names(&["l_quantity", "o_totalprice", "c_mktsegment", "c_acctbal"])
            ),
            ("scan customer".to_string(), names(&["c_acctbal"])),
        ],
        "{rewritten}"
    );
}

#[test]
fn cross_join_sides_take_their_conjuncts_too() {
    let c = catalog();
    let scan = |t| LogicalPlanBuilder::scan(&c, t).unwrap();
    let b = scan("orders")
        .join(scan("customer"), &[("o_custkey", "c_custkey")])
        .unwrap()
        .join(scan("lineitem"), &[])
        .unwrap();
    let predicate = and(vec![
        Expr::lt(b.col("l_linenumber").unwrap(), Expr::lit_i64(2)),
        Expr::gt(b.col("c_acctbal").unwrap(), Expr::lit_f64(0.0)),
        Expr::eq(b.col("l_orderkey").unwrap(), b.col("o_orderkey").unwrap()),
    ]);
    let rewritten = rewrite(&b.filter(predicate).unwrap().build());
    assert_eq!(
        filters(&rewritten),
        vec![
            (
                "join on []".to_string(),
                names(&["o_orderkey", "l_orderkey"])
            ),
            ("scan customer".to_string(), names(&["c_acctbal"])),
            ("scan lineitem".to_string(), names(&["l_linenumber"])),
        ],
        "{rewritten}"
    );
}

#[test]
fn a_filter_never_crosses_a_topn_or_a_limit_on_its_way_to_a_join() {
    let c = catalog();
    for limited in [false, true] {
        let b = three_tables(&c);
        let b = if limited {
            b.limit(5).unwrap()
        } else {
            b.top_n(&[("o_totalprice", true)], 5).unwrap()
        };
        let predicate = Expr::eq(b.col("c_mktsegment").unwrap(), Expr::lit_str("BUILDING"));
        let rewritten = rewrite(&b.filter(predicate).unwrap().build());
        let LogicalPlan::Filter { input, .. } = rewritten.as_ref() else {
            panic!("the filter left the top: {rewritten}")
        };
        assert!(matches!(
            input.as_ref(),
            LogicalPlan::TopN { .. } | LogicalPlan::Limit { .. }
        ));
        assert_eq!(filters(&rewritten).len(), 1);
    }
}

#[test]
fn scans_feeding_no_join_narrow_without_a_new_operator() {
    // q6's shape: the filter reads columns the aggregate does not; the scan
    // keeps both sets and no Project appears between them.
    let c = catalog();
    let b = LogicalPlanBuilder::scan(&c, "lineitem").unwrap();
    let predicate = and(vec![
        Expr::gt(b.col("l_shipdate").unwrap(), Expr::lit_date(8_766)),
        Expr::lt(b.col("l_quantity").unwrap(), Expr::lit_f64(24.0)),
    ]);
    let b = b.filter(predicate).unwrap();
    let revenue = Expr::mul(
        b.col("l_extendedprice").unwrap(),
        b.col("l_discount").unwrap(),
    );
    let sum = AggSpec::new(AggKind::Sum, revenue, Float64, "revenue");
    let plan = b.aggregate(&[], vec![sum]).unwrap().build();
    let rewritten = rewrite(&plan);
    assert_eq!(rewritten.node_count(), plan.node_count(), "{rewritten}");
    assert_eq!(
        scans(&rewritten),
        vec![(
            "lineitem".to_string(),
            names(&["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"])
        )]
    );
    // count(*) reads no column at all: the scan projects none.
    let count = LogicalPlanBuilder::scan(&c, "orders")
        .unwrap()
        .aggregate(&[], vec![AggSpec::count_star("n")])
        .unwrap()
        .build();
    assert_eq!(
        scans(&rewrite(&count)),
        vec![("orders".to_string(), vec![])]
    );
}

#[test]
fn without_predicate_pushdown_the_tree_is_returned_untouched() {
    let c = catalog();
    let plan = q3(&c);
    let off = Optimizer::new(OptimizerConfig {
        predicate_pushdown: false,
        ..OptimizerConfig::default()
    });
    let debug = |p: &LogicalPlan| format!("{p:?}");
    assert_eq!(debug(&off.rewrite_logical(&plan)), debug(&plan));
    assert_ne!(debug(&rewrite(&plan)), debug(&plan));
}
