//! What `EXPLAIN` answers, pinned as literals: for
//! `benchmarks/sql/q{1,3,6}.sql` at `SET dop = 2`, over a server holding
//! TPC-H's schemas (sf 0.001 — plans do not depend on the data), the rows
//! of the one `plan` column are the analyzer's tree, the tree after the
//! logical rewrites and the stage tree, one line each. `EXPLAIN ANALYZE`
//! shows a partial aggregate's flushes on its meter line.

use std::sync::Arc;

use accordion::cluster::QueryExecutor;
use accordion::data::schema::{Field, Schema};
use accordion::data::types::{DataType, Value};
use accordion::exec::operators::PARTIAL_GROUP_CAP;
use accordion::server::{Client, QueryServer, ServerConfig};
use accordion::storage::table::TableBuilder;
use accordion::tpch::gen::{generate, TpchOptions};

fn explain_all(statements: &[&str]) -> Vec<String> {
    let catalog = generate(&TpchOptions {
        scale_factor: 0.001,
        ..TpchOptions::default()
    })
    .catalog;
    let executor = QueryExecutor::default();
    let config = ServerConfig::default();
    let mut server =
        QueryServer::start(Arc::new(catalog), executor, config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send("SET dop = 2").unwrap();
    let plans = statements
        .iter()
        .map(|sql| {
            let rs = client.query(&format!("EXPLAIN {sql}")).unwrap();
            assert_eq!(rs.columns, ["plan"]);
            let lines = rs.rows.iter().map(|row| format!("{}\n", row.join(",")));
            lines.collect()
        })
        .collect();
    server.shutdown();
    plans
}

#[test]
fn explain_prints_the_three_plans_of_q1_q3_and_q6() {
    let plans = explain_all(&[
        include_str!("../benchmarks/sql/q1.sql"),
        include_str!("../benchmarks/sql/q3.sql"),
        include_str!("../benchmarks/sql/q6.sql"),
    ]);
    assert_eq!(
        plans[0],
        r#"=== as analyzed ===
TopN: n=all keys=[0, 1]
  Project: ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "avg_disc", "count_order"]
    Aggregate: group=[8, 9] aggs=["__agg0", "__agg1", "__agg2", "__agg3", "__agg4"]
      Filter
        TableScan: lineitem cols=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

=== rewritten ===
TopN: n=all keys=[0, 1]
  Project: ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "avg_disc", "count_order"]
    Aggregate: group=[3, 4] aggs=["__agg0", "__agg1", "__agg2", "__agg3", "__agg4"]
      Filter
        TableScan: lineitem cols=[4, 5, 6, 8, 9, 10]

=== stage tree (dop 2) ===
Stage 0 [Output] x1 → single
  TopN: n=all keys=[0, 1]
    RemoteSource: S1
Stage 1 [Intermediate] x2 → single
  TopN: n=all keys=[0, 1]
    Project: ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "avg_disc", "count_order"]
      Project: ["l_returnflag", "l_linestatus", "__agg0", "__agg1", "__agg2", "__agg3", "__agg4"]
        FinalAggregate: groups=2 aggs=["__agg0", "__agg1", "__agg2", "__agg3#sum", "__agg4", "__agg3#count"]
          RemoteSource: S2
Stage 2 [Source] x2 elastic[1..=8] → hash[0, 1]x2
  PartialAggregate: group=[3, 4] aggs=["__agg0", "__agg1", "__agg2", "__agg3#sum", "__agg4", "__agg3#count"]
    Filter
      TableScan: lineitem cols=[4, 5, 6, 8, 9, 10]

"#,
        "q1"
    );
    assert_eq!(
        plans[1],
        r#"=== as analyzed ===
TopN: n=10 keys=[2, 0]
  Project: ["l_orderkey", "o_orderdate", "revenue"]
    Aggregate: group=[0, 15] aggs=["__agg0"]
      Filter
        Join: on=[(12, 0)]
          Join: on=[(0, 0)]
            TableScan: lineitem cols=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
            TableScan: orders cols=[0, 1, 2, 3, 4]
          TableScan: customer cols=[0, 1, 2, 3, 4]

=== rewritten ===
TopN: n=10 keys=[2, 0]
  Project: ["l_orderkey", "o_orderdate", "revenue"]
    Aggregate: group=[0, 4] aggs=["__agg0"]
      Join: on=[(3, 0)]
        Project: ["l_orderkey", "l_extendedprice", "l_discount", "o_custkey", "o_orderdate"]
          Filter
            Join: on=[(0, 0)]
              TableScan: lineitem cols=[0, 5, 6, 10]
              Filter
                TableScan: orders cols=[0, 1, 4]
        Project: ["c_custkey"]
          Filter
            TableScan: customer cols=[0, 3]

=== stage tree (dop 2) ===
Stage 0 [Output] x1 → single
  TopN: n=10 keys=[2, 0]
    RemoteSource: S1
Stage 1 [Intermediate] x2 → single
  TopN: n=10 keys=[2, 0]
    Project: ["l_orderkey", "o_orderdate", "revenue"]
      FinalAggregate: groups=2 aggs=["__agg0"]
        RemoteSource: S2
Stage 2 [Source] x2 elastic[1..=8] → hash[0, 1]x2
  PartialAggregate: group=[0, 4] aggs=["__agg0"]
    HashJoin: on=[(3, 0)]
      Project: ["l_orderkey", "l_extendedprice", "l_discount", "o_custkey", "o_orderdate"]
        Filter
          HashJoin: on=[(0, 0)]
            TableScan: lineitem cols=[0, 5, 6, 10]
            RemoteSource: S3
      RemoteSource: S4
Stage 3 [Source] x2 elastic[1..=8] → single
  Filter
    TableScan: orders cols=[0, 1, 4]
Stage 4 [Source] x2 elastic[1..=8] → single
  Project: ["c_custkey"]
    Filter
      TableScan: customer cols=[0, 3]

"#,
        "q3"
    );
    assert_eq!(
        plans[2],
        r#"=== as analyzed ===
Project: ["revenue"]
  Aggregate: group=[] aggs=["__agg0"]
    Filter
      TableScan: lineitem cols=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

=== rewritten ===
Project: ["revenue"]
  Aggregate: group=[] aggs=["__agg0"]
    Filter
      TableScan: lineitem cols=[4, 5, 6, 10]

=== stage tree (dop 2) ===
Stage 0 [Output] x1 → single
  Project: ["revenue"]
    FinalAggregate: groups=0 aggs=["__agg0"]
      RemoteSource: S1
Stage 1 [Source] x2 elastic[1..=8] → single
  PartialAggregate: group=[] aggs=["__agg0"]
    Filter
      TableScan: lineitem cols=[4, 5, 6, 10]

"#,
        "q6"
    );
}

/// The `flushes=N` of every meter line of an `EXPLAIN ANALYZE` answer.
fn flushes_shown(client: &mut Client, sql: &str) -> Vec<u64> {
    let rs = client.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let notes = rs
        .rows
        .iter()
        .filter_map(|row| row[0].split_once("flushes="));
    notes
        .map(|(_, n)| n.trim_end_matches(')').parse().unwrap())
        .collect()
}

#[test]
fn explain_analyze_shows_each_partial_aggregates_flushes() {
    let catalog = generate(&TpchOptions {
        scale_factor: 0.001,
        ..TpchOptions::default()
    })
    .catalog;
    let schema = Schema::shared(vec![Field::new("k", DataType::Int64)]);
    let mut uniq = TableBuilder::new("uniq", schema, 1024);
    for k in 0..(3 * PARTIAL_GROUP_CAP + 1_000) as i64 {
        uniq.push_row(vec![Value::Int64(k)]);
    }
    uniq.register(&catalog, 4);
    let config = ServerConfig::default();
    let mut server = QueryServer::start(
        Arc::new(catalog),
        QueryExecutor::default(),
        config,
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // At a fixed dop of 2 a task reads half the keys or more; a grow
    // could split them into shares under the cap.
    client.send("SET dop = 2").unwrap();
    client.send("SET elasticity = off").unwrap();
    let uniq = flushes_shown(&mut client, "SELECT k, count(*) AS n FROM uniq GROUP BY k");
    assert!(matches!(uniq[..], [n] if n >= 1), "{uniq:?}");
    let q1 = flushes_shown(&mut client, include_str!("../benchmarks/sql/q1.sql"));
    assert_eq!(q1, [0]);
    server.shutdown();
}
