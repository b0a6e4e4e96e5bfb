//! Prints what the planner makes of a statement: the analyzer's logical
//! tree, the tree after the logical rewrites, and the stage tree that runs.
//!
//! ```sh
//! cargo run -q --example explain -- suite/sql/q3.sql        # planned at dop 2
//! cargo run -q --example explain -- benchmarks/sql/q1.sql 4
//! ```
//!
//! Schemas are TPC-H's (sf 0.001 — plans do not depend on the data).

use accordion::plan::fragment::StageTree;
use accordion::plan::optimizer::{Optimizer, OptimizerConfig};
use accordion::sql::plan_select;
use accordion::tpch::gen::{generate, TpchOptions};

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next().expect("usage: explain <file.sql> [dop]");
    let dop = args
        .next()
        .map_or(2, |d| d.parse().expect("dop is a number"));
    let sql = std::fs::read_to_string(&path).expect("statement file reads");
    let catalog = generate(&TpchOptions {
        scale_factor: 0.001,
        ..TpchOptions::default()
    })
    .catalog;
    let logical = plan_select(&catalog, &sql).unwrap_or_else(|e| panic!("{e}"));
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    println!("=== as analyzed ===\n{logical}");
    println!("=== rewritten ===\n{}", optimizer.rewrite_logical(&logical));
    let physical = optimizer.optimize(&logical).expect("plan lowers");
    let tree = StageTree::build(physical).expect("plan fragments");
    println!("=== stage tree (dop {dop}) ===\n{}", tree.display());
}
