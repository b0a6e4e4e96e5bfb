//! Exactly-once execution of the benchmark statements under every schedule:
//! `benchmarks/sql/q{1,3,6}.sql`, the suite's `q_expr.sql` (and a variant of
//! it whose `LIKE` selects something) and a Top-N over `orders`, each run on the
//! concurrent [`QueryExecutor`] at DOP {1, 4} × worker threads {1, 4} ×
//! elasticity {off, forced-grow, forced-shrink, auto, cycle}. Every cell must
//! return the rows of the serial oracle ([`execute_logical`]), the known
//! cardinality, and a `TableScan` row count equal to the tables' sizes — a
//! split scanned twice or dropped by a retune shows in all three. The oracle
//! shares the operators with the runner under test, so a few result values
//! are pinned as literals too (cross-checked once by brute force over the
//! generated rows).
//!
//! Modes are set per cell; `ACCORDION_ELASTICITY` and
//! `ACCORDION_WORKER_THREADS` do not reach this test.

use std::sync::OnceLock;

use accordion::cluster::QueryExecutor;
use accordion::common::config::{ElasticityConfig, ElasticityMode};
use accordion::data::types::Value;
use accordion::exec::{execute_logical, ExecOptions};
use accordion::plan::fragment::StageTree;
use accordion::plan::logical::LogicalPlan;
use accordion::plan::optimizer::{Optimizer, OptimizerConfig};
use accordion::sql::plan_select;
use accordion::storage::catalog::Catalog;
use accordion::tpch::gen::{generate, TpchOptions};

const PAGE_ROWS: usize = 256;
const MODES: [&str; 5] = ["off", "forced-grow", "forced-shrink", "auto", "cycle"];

/// TPC-H at sf 0.01, seed 42: 59,799 lineitem, 15,000 orders and 1,500
/// customer rows. Generated once for all the tests.
fn catalog() -> &'static Catalog {
    static DATA: OnceLock<Catalog> = OnceLock::new();
    DATA.get_or_init(|| {
        generate(&TpchOptions {
            scale_factor: 0.01,
            seed: 42,
            page_rows: PAGE_ROWS,
        })
        .catalog
    })
}

/// Float aggregates are summed in exchange-arrival order, so two schedules
/// differ in the last ulps; everything else is exact.
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => a == b,
    }
}

/// Runs `sql` (every statement here is totally ordered) through the whole
/// matrix and returns the oracle's rows for the caller's literal checks.
fn run_matrix(name: &str, sql: &str, rows: usize, scan_rows: u64) -> Vec<Vec<Value>> {
    let catalog = catalog();
    let plan = plan_select(catalog, sql).unwrap_or_else(|e| panic!("{name}: {e}"));
    let oracle = execute_logical(
        catalog,
        &plan,
        &Optimizer::new(OptimizerConfig::serial()),
        &ExecOptions::with_page_rows(PAGE_ROWS),
    )
    .unwrap_or_else(|e| panic!("{name} (oracle): {e}"))
    .rows();
    assert_eq!(oracle.len(), rows, "{name}: oracle cardinality");

    // The two pool sizes side by side: the cells are debug-build compute,
    // and q3's are half of it, so one thread per test leaves a core idle.
    std::thread::scope(|scope| {
        for workers in [1, 4] {
            let (plan, oracle) = (&plan, &oracle);
            scope.spawn(move || run_pool(name, plan, oracle, scan_rows, workers));
        }
    });
    oracle
}

/// The ten cells of one statement on one `workers`-slot executor.
fn run_pool(name: &str, plan: &LogicalPlan, oracle: &[Vec<Value>], scan_rows: u64, workers: usize) {
    let catalog = catalog();
    let executor = QueryExecutor::new(ExecOptions::default().worker_threads(workers));
    for dop in [1, 4] {
        let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
        let tree = StageTree::build(optimizer.optimize(plan).unwrap()).unwrap();
        let mut elastic_stages: Vec<u32> = tree
            .fragments()
            .iter()
            .filter(|f| f.elastic_bounds.is_some())
            .map(|f| f.stage.0)
            .collect();
        elastic_stages.sort_unstable();
        assert!(!elastic_stages.is_empty(), "{name}: nothing to retune");
        for mode in MODES {
            let cell = format!("{name} dop={dop} workers={workers} mode={mode}");
            let mode = ElasticityConfig::try_parse_mode(mode).unwrap();
            let opts = ExecOptions::with_page_rows(PAGE_ROWS).elasticity(mode);
            let result = executor
                .execute_tree_opts(catalog, &tree, &opts)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));

            let got = result.rows();
            assert_eq!(got.len(), oracle.len(), "{cell}: cardinality");
            for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
                assert!(
                    g.len() == o.len() && g.iter().zip(o).all(|(x, y)| close(x, y)),
                    "{cell}: row {i} is {g:?}, the oracle has {o:?}"
                );
            }
            let stats = result.stats();
            assert_eq!(
                stats.rows_produced("TableScan"),
                scan_rows,
                "{cell}: rows scanned"
            );
            let mut retuned: Vec<u32> = stats.retunes.iter().map(|r| r.stage).collect();
            retuned.sort_unstable();
            match mode {
                ElasticityMode::Off => assert!(retuned.is_empty(), "{cell}: {retuned:?}"),
                // One grow per elastic stage (q3 has three: its lineitem
                // probe stage and both build scans), then passive.
                ElasticityMode::ForcedGrow => assert_eq!(retuned, elastic_stages, "{cell}"),
                _ => {}
            }
        }
    }
}

#[test]
fn q1_is_exactly_once_across_the_matrix() {
    let rows = run_matrix("q1", include_str!("../benchmarks/sql/q1.sql"), 6, 59_799);
    let count_order: Vec<&Value> = rows.iter().map(|r| &r[6]).collect();
    let expected = [19_545, 230, 19_343, 207, 19_531, 208].map(Value::Int64);
    assert_eq!(count_order, expected.iter().collect::<Vec<_>>());
}

#[test]
fn q3_is_exactly_once_across_the_matrix() {
    // lineitem + orders + customer.
    let rows = run_matrix("q3", include_str!("../benchmarks/sql/q3.sql"), 10, 76_299);
    let orderkeys: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
    let expected = [
        14_418, 13_225, 2_801, 13_614, 3_259, 14_356, 13_358, 856, 12_212, 3_491,
    ]
    .map(Value::Int64);
    assert_eq!(orderkeys, expected.iter().collect::<Vec<_>>());
}

/// Each node builds a join's table once: at every DOP and pool size q3
/// has one `HashJoinBuild` row per join, holding the build side it holds
/// at dop 1, and its build edges carry each build side once however many
/// probe tasks read the table.
#[test]
fn q3_builds_each_join_table_once_per_node() {
    let catalog = catalog();
    let plan = plan_select(catalog, include_str!("../benchmarks/sql/q3.sql")).unwrap();
    for workers in [1, 4] {
        let executor = QueryExecutor::new(ExecOptions::default().worker_threads(workers));
        let mut runs = Vec::new();
        for dop in [1, 2, 4] {
            let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
            let tree = StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap();
            let opts = ExecOptions::with_page_rows(PAGE_ROWS).elasticity(ElasticityConfig::off());
            let result = executor.execute_tree_opts(catalog, &tree, &opts).unwrap();
            let stats = result.stats();
            // (pipeline, rows, bytes) of every table built.
            let mut tables: Vec<(u32, u64, u64)> = (stats.operators.iter())
                .filter(|o| o.operator == "HashJoinBuild")
                .map(|o| (o.pipeline, o.rows, o.bytes))
                .collect();
            tables.sort_unstable();
            assert_eq!(tables.len(), 2, "dop={dop} workers={workers}: {tables:?}");
            runs.push((dop, tables, stats.exchange.bytes));
        }
        let (_, sides, dop1_bytes) = &runs[0];
        for (dop, tables, _) in &runs {
            assert_eq!(tables, sides, "dop={dop} workers={workers}");
        }
        // One copy of each build side per node: dop 4 moves less than dop
        // 1 plus one more copy of them (150,864 bytes at dop 1 and 4; a
        // copy per probe task made dop 4 move 594,936).
        let side_bytes: u64 = sides.iter().map(|t| t.2).sum();
        let dop4_bytes = runs[2].2;
        assert!(
            dop4_bytes < dop1_bytes + side_bytes,
            "workers={workers}: dop 1 {dop1_bytes}, dop 4 {dop4_bytes}, sides {side_bytes}"
        );
    }
}

#[test]
fn q6_is_exactly_once_across_the_matrix() {
    let rows = run_matrix("q6", include_str!("../benchmarks/sql/q6.sql"), 1, 59_799);
    assert!(
        close(&rows[0][0], &Value::Float64(776_548.606_4)),
        "q6 revenue is {:?}",
        rows[0][0]
    );
}

/// `suite/sql/q_expr.sql`: IN + EXTRACT in the predicate, CASE over LIKE and
/// CASE over a float compare in the arguments. The suite checks it against
/// an oracle that shares every expression kernel, so the values are pinned
/// here, brute-forced from the raw generated rows (string compares on
/// `format_date32` text, no engine expression involved): per `l_returnflag`
/// in ('A', 'R') shipped in 1994, (`open_price`, `deep_discounts`, `lines`).
const Q_EXPR: &str = include_str!("../suite/sql/q_expr.sql");

fn assert_q_expr_rows(rows: &[Vec<Value>], expected: [(&str, f64, i64, i64); 2]) {
    for (row, (flag, price, deep_discounts, lines)) in rows.iter().zip(expected) {
        assert_eq!(row[0], Value::Utf8(flag.into()));
        assert!(
            close(&row[1], &Value::Float64(price)),
            "{flag}: the CASE-over-LIKE sum is {:?}, not {price}",
            row[1]
        );
        assert_eq!(
            row[2],
            Value::Int64(deep_discounts),
            "{flag}: deep_discounts"
        );
        assert_eq!(row[3], Value::Int64(lines), "{flag}: lines");
    }
}

#[test]
fn q_expr_is_exactly_once_across_the_matrix() {
    let rows = run_matrix("q_expr", Q_EXPR, 2, 59_799);
    // Everything shipped in 1994 has l_linestatus 'F': nothing is open.
    assert_q_expr_rows(&rows, [("A", 0.0, 1_334, 2_976), ("R", 0.0, 1_336, 2_998)]);
}

#[test]
fn q_expr_with_a_like_that_matches_is_exactly_once_across_the_matrix() {
    let sql = Q_EXPR.replace("LIKE 'O%'", "LIKE 'F%'");
    assert_ne!(
        sql, Q_EXPR,
        "q_expr.sql no longer has the LIKE this test flips"
    );
    let rows = run_matrix("q_expr/F%", &sql, 2, 59_799);
    assert_q_expr_rows(
        &rows,
        [
            ("A", 76_201_704.43, 1_334, 2_976),
            ("R", 78_906_725.02, 1_336, 2_998),
        ],
    );
}

#[test]
fn top_orders_is_exactly_once_across_the_matrix() {
    run_matrix(
        "top_orders",
        "SELECT * FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100",
        100,
        15_000,
    );
}
