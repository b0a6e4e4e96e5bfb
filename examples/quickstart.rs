//! End-to-end quickstart: register a table, build a query, show the plan at
//! every layer (logical → physical → stages → pipelines) and execute it
//! concurrently with the cluster scheduler — stages stream pages to each
//! other through elastic exchange buffers while they run.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use accordion::cluster::QueryExecutor;
use accordion::common::ElasticityConfig;
use accordion::data::schema::{Field, Schema};
use accordion::data::types::{DataType, Value};
use accordion::exec::ExecOptions;
use accordion::expr::agg::AggKind;
use accordion::expr::scalar::Expr;
use accordion::plan::fragment::StageTree;
use accordion::plan::optimizer::{Optimizer, OptimizerConfig};
use accordion::plan::pipeline::split_pipelines;
use accordion::plan::LogicalPlanBuilder;
use accordion::storage::table::TableBuilder;
use accordion::storage::Catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny lineitem-flavored table spread over 2 nodes × 2 splits.
    let catalog = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("region", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ]);
    let mut b = TableBuilder::new("sales", schema, 4);
    for i in 0..32i64 {
        b.push_row(vec![
            Value::Utf8(format!("region-{}", i % 3)),
            Value::Int64(i % 7),
            Value::Float64(1.5 * (i % 5) as f64),
        ]);
    }
    b.register(&catalog, 4);

    // SELECT region, sum(qty), avg(price) FROM sales
    // WHERE qty > 1 GROUP BY region ORDER BY sum(qty) DESC LIMIT 10
    let b = LogicalPlanBuilder::scan(&catalog, "sales")?;
    let predicate = Expr::gt(b.col("qty")?, Expr::lit_i64(1));
    let b = b.filter(predicate)?;
    let aggs = vec![
        b.agg(AggKind::Sum, "qty", "total_qty")?,
        b.agg(AggKind::Avg, "price", "avg_price")?,
    ];
    let logical = b
        .aggregate(&["region"], aggs)?
        .top_n(&[("total_qty", true)], 10)?
        .build();
    println!("=== logical plan ===\n{logical}");

    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(4));
    let physical = optimizer.optimize(&logical)?;
    println!("=== physical plan ===\n{physical}");

    let tree = StageTree::build(physical)?;
    println!("=== stage tree ===\n{tree}");

    for fragment in tree.fragments() {
        println!("=== pipelines of stage {} ===", fragment.stage);
        for p in split_pipelines(fragment)? {
            println!("  {}: {}", p.id, p.operator_names().join(" → "));
        }
    }

    // All stages run concurrently on the worker pool; pages stream between
    // tasks through elastic exchange buffers (1 page each, growing on
    // consumer-side demand up to the NetworkConfig limit).
    let executor = QueryExecutor::new(ExecOptions::default());
    let result = executor.execute_tree(&catalog, &tree)?;
    println!("\n=== result ({} rows) ===", result.row_count());
    let names: Vec<&str> = result
        .schema
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    println!("{}", names.join("\t"));
    for row in result.rows() {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }

    let stats = result.stats();
    println!("\n=== runtime stats ===");
    println!(
        "scan rows: {}  partial-agg rows: {}  exchange pages: {}  \
         exchange bytes: {}  buffer growths: {}",
        stats.rows_produced("TableScan"),
        stats.rows_produced("PartialAggregate"),
        stats.exchange.pages,
        stats.exchange.bytes,
        stats.exchange.grow_events,
    );

    // Intra-query runtime elasticity (paper Fig 13): run the same tree
    // again with the controller forcing a mid-query grow of the Source
    // stage — identical result, retune applied between splits.
    let elastic =
        QueryExecutor::new(ExecOptions::default().elasticity(ElasticityConfig::forced(8)));
    let regrown = elastic.execute_tree(&catalog, &tree)?;
    assert_eq!(regrown.row_count(), result.row_count());
    println!("\n=== runtime elasticity (forced grow) ===");
    for r in &regrown.stats().retunes {
        println!(
            "stage {}: DOP {} → {} after {} splits (predicted {:.3}s remaining)",
            r.stage, r.from_dop, r.to_dop, r.splits_claimed, r.predicted_secs
        );
    }
    for s in &regrown.stats().series {
        println!(
            "stage {}: {} runtime-info samples collected",
            s.stage,
            s.points.len()
        );
    }
    Ok(())
}
