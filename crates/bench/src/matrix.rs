//! Benchmark matrix execution: one query across a grid of
//! (DOP × worker threads × elasticity mode) configurations.
//!
//! The bench harness (`accordion-bench`) needs every cell of its matrix to
//! run the *same* plan through the *same* machinery the engine's tests use:
//! optimize at the cell's Source-stage parallelism, split into a
//! [`StageTree`], execute on the multi-threaded [`QueryExecutor`], and
//! time the whole thing. This module is that one cell — the only place
//! the harness touches planning or scheduling.
//!
//! Result rows are fingerprinted **order-insensitively** (sorted before
//! hashing): parallel schedules deliver pages in nondeterministic order,
//! but the multiset of rows is exactly-once — the checksum pins that.

use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use accordion_common::Result;
use accordion_data::types::Value;
use accordion_exec::metrics::QueryStats;
use accordion_exec::{ExecOptions, QueryResult};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;

/// One configuration of the bench matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Planned Source-stage parallelism.
    pub dop: u32,
    /// Compute slots of the scheduler's worker pool.
    pub worker_threads: usize,
    /// Elasticity controller configuration for this cell.
    pub elasticity: ElasticityConfig,
    /// Target rows per page.
    pub page_rows: usize,
}

/// Measured outcome of one cell execution.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// End-to-end wall-clock time: plan → stage tree → full result drain.
    pub wall_ms: f64,
    /// Result cardinality.
    pub rows: u64,
    /// Order-insensitive fingerprint of the full result multiset.
    pub result_checksum: u64,
    /// The engine's runtime stats for the run.
    pub stats: QueryStats,
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hashes one value with a fixed multiply-xor mix (stable across runs).
///
/// Floats are quantized to seven significant decimal digits before
/// hashing: parallel aggregate merges consume partial states in
/// nondeterministic arrival order, which perturbs the low mantissa bits of
/// float sums. Quantizing makes every exactly-once schedule fingerprint
/// identically while still distinguishing genuinely different results.
fn mix_value(mut h: u64, v: &Value) -> u64 {
    let word = match v {
        Value::Null => 0xDEAD_BEEF_0BAD_F00D,
        Value::Int64(x) => *x as u64,
        Value::Date32(x) => 0x4441_5445_0000_0000 ^ (*x as u32 as u64),
        Value::Bool(x) => 2 + *x as u64,
        Value::Float64(x) => {
            let x = if *x == 0.0 { 0.0 } else { *x };
            if x.is_finite() {
                fnv_bytes(format!("{x:.6e}").as_bytes())
            } else {
                x.to_bits()
            }
        }
        Value::Utf8(s) => fnv_bytes(s.as_bytes()),
    };
    h ^= word.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = h.rotate_left(31);
    h.wrapping_mul(0xC4CE_B9FE_1A85_EC53)
}

/// Order-insensitive checksum of a result: rows are sorted by total order
/// first, so any exactly-once schedule produces the same fingerprint.
pub fn result_checksum(result: &QueryResult) -> u64 {
    let mut rows = result.rows();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for row in &rows {
        for v in row {
            h = mix_value(h, v);
        }
    }
    h
}

/// Plans `query` at the cell's DOP and executes it on the multi-threaded
/// scheduler, timing plan + execution end to end.
pub fn run_cell(
    catalog: &Catalog,
    query: &LogicalPlanBuilder,
    cell: &MatrixCell,
) -> Result<CellOutcome> {
    let started = Instant::now();
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(cell.dop.max(1)));
    let tree = StageTree::build(optimizer.optimize(&query.clone().build())?)?;
    let opts = ExecOptions::with_page_rows(cell.page_rows.max(1))
        .worker_threads(cell.worker_threads.max(1))
        .elasticity(cell.elasticity);
    let result = QueryExecutor::new(opts).execute_tree(catalog, &tree)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    Ok(CellOutcome {
        wall_ms,
        rows: result.row_count() as u64,
        result_checksum: result_checksum(&result),
        stats: result.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;
    use accordion_storage::table::{PartitioningScheme, TableBuilder};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::shared(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("t", schema, 4);
        for n in 0..48i64 {
            b.push_row(vec![Value::Int64(n % 6), Value::Float64(n as f64)]);
        }
        b.register(&c, PartitioningScheme::new(4, 2), 0);
        c
    }

    #[test]
    fn cells_agree_on_rows_and_checksum_across_the_matrix() {
        let c = catalog();
        let q = LogicalPlanBuilder::scan(&c, "t").unwrap();
        let mut seen: Option<(u64, u64)> = None;
        for dop in [1u32, 4] {
            for workers in [1usize, 4] {
                for elasticity in [ElasticityConfig::off(), ElasticityConfig::forced(2)] {
                    let out = run_cell(
                        &c,
                        &q,
                        &MatrixCell {
                            dop,
                            worker_threads: workers,
                            elasticity,
                            page_rows: 3,
                        },
                    )
                    .unwrap();
                    assert!(out.wall_ms >= 0.0);
                    assert_eq!(out.rows, 48);
                    let key = (out.rows, out.result_checksum);
                    match seen {
                        None => seen = Some(key),
                        Some(prev) => assert_eq!(prev, key, "matrix cells disagree"),
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_is_order_insensitive_but_content_sensitive() {
        let c = catalog();
        let q = LogicalPlanBuilder::scan(&c, "t").unwrap();
        let base = run_cell(
            &c,
            &q,
            &MatrixCell {
                dop: 2,
                worker_threads: 2,
                elasticity: ElasticityConfig::off(),
                page_rows: 3,
            },
        )
        .unwrap();
        // A different query (filtered) must fingerprint differently.
        let filtered = q
            .clone()
            .filter(accordion_expr::scalar::Expr::gt(
                q.col("v").unwrap(),
                accordion_expr::scalar::Expr::lit_f64(10.0),
            ))
            .unwrap();
        let other = run_cell(
            &c,
            &filtered,
            &MatrixCell {
                dop: 2,
                worker_threads: 2,
                elasticity: ElasticityConfig::off(),
                page_rows: 3,
            },
        )
        .unwrap();
        assert_ne!(base.result_checksum, other.result_checksum);
        assert!(other.rows < base.rows);
    }
}
