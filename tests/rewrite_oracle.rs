//! The logical rewrites against an oracle, not against themselves.
//!
//! `OptimizerConfig::predicate_pushdown = false` turns every logical rewrite
//! off: the analyzer's tree — every scan projecting every column, the whole
//! `WHERE` in one filter above the joins — is lowered as it stands. That
//! plan is the oracle here. Seeded random three-table statements must
//! return the same rows with the rewrites on, at DOP 1 and 4, with
//! elasticity off and under `forced-grow`; and over the benchmark's own
//! statements every scan of a rewritten plan must project exactly the
//! columns something above it reads.

use std::cmp::Ordering;
use std::sync::OnceLock;

use accordion::cluster::QueryExecutor;
use accordion::common::config::{ElasticityConfig, ElasticityMode};
use accordion::data::types::Value;
use accordion::exec::ExecOptions;
use accordion::plan::optimizer::{Optimizer, OptimizerConfig};
use accordion::plan::physical::{Partitioning, PhysicalNode};
use accordion::sql::plan_select;
use accordion::storage::catalog::Catalog;
use accordion::tpch::gen::{generate, TpchOptions};

const PAGE_ROWS: usize = 256;

/// TPC-H at sf 0.01, seed 42 (59,799 lineitem, 15,000 orders, 1,500
/// customer rows), generated once.
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

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    /// Each of `pool` with probability `pct` %, in pool order.
    fn some_of(&mut self, pool: &[&'static str], pct: usize) -> Vec<&'static str> {
        pool.iter().copied().filter(|_| self.chance(pct)).collect()
    }
}

/// Conjuncts over one table each, per table.
const SINGLE_SIDE: [&[&str]; 3] = [
    &[
        "l_shipdate > DATE '1995-03-15'",
        "l_quantity < 24",
        "l_discount BETWEEN 0.05 AND 0.07",
        "l_returnflag IN ('A', 'R')",
        "l_linenumber = 1",
        "NOT l_linestatus = 'O'",
    ],
    &[
        "o_orderdate < DATE '1995-03-15'",
        "o_totalprice > 150000.0",
        "o_orderstatus = 'F'",
        "EXTRACT(YEAR FROM o_orderdate) = 1994",
    ],
    &[
        "c_mktsegment = 'BUILDING'",
        "c_acctbal > 0.0",
        "c_nationkey IN (1, 2, 3, 4, 5)",
        "c_name LIKE '%7'",
    ],
];

/// Conjuncts a join side cannot take alone: comparisons and `OR`s across
/// tables, and conjuncts that read no column.
const CROSS_SIDE: [&str; 6] = [
    "l_shipdate > o_orderdate",
    "o_totalprice > c_acctbal * 20.0",
    "l_quantity = o_custkey",
    "(l_quantity < 10 OR o_orderstatus = 'F')",
    "(c_acctbal < 0.0 OR l_discount > 0.05 OR o_orderstatus = 'P')",
    "l_extendedprice * (1.0 - l_discount) < o_totalprice / 3.0",
];
const CONSTANT: [&str; 3] = ["1 = 1", "2 > 1", "1 = 0"];

/// One generated statement and whether its text fixes the row order.
struct Statement {
    sql: String,
    ordered: bool,
}

fn generate_statement(rng: &mut XorShift) -> Statement {
    let mut conjuncts: Vec<&str> = Vec::new();
    for pool in SINGLE_SIDE {
        conjuncts.extend(rng.some_of(pool, 30));
    }
    conjuncts.extend(rng.some_of(&CROSS_SIDE, 15));
    if rng.chance(15) {
        conjuncts.push(CONSTANT[rng.below(CONSTANT.len())]);
    }
    // Written order is not table order, and some conjuncts sit in `ON`.
    for i in (1..conjuncts.len()).rev() {
        conjuncts.swap(i, rng.below(i + 1));
    }
    let mut on_orders = vec!["l_orderkey = o_orderkey"];
    let mut on_customer = vec!["o_custkey = c_custkey"];
    conjuncts.retain(|c| {
        let into_on = rng.chance(20);
        if into_on && !c.contains("c_") {
            on_orders.push(c);
        } else if into_on {
            on_customer.push(c);
        }
        !into_on
    });
    let from = format!(
        "FROM lineitem INNER JOIN orders ON {} INNER JOIN customer ON {}",
        on_orders.join(" AND "),
        on_customer.join(" AND ")
    );
    let filter = if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    };
    // (select list, GROUP BY / HAVING, an ORDER BY that is total)
    // `SELECT *` is the rare one: it is all 21 columns through both joins
    // and the Top-N, rewritten or not.
    let (select, group, order) = match rng.below(10) {
        0 => ("*", "", "l_orderkey, l_linenumber"),
        1 | 2 => (
            "l_orderkey, l_linenumber, o_orderdate, c_name, \
             l_extendedprice * (1.0 - l_discount) AS net",
            "",
            "l_orderkey, l_linenumber",
        ),
        3 | 4 => (
            "c_mktsegment, o_orderstatus, count(*) AS n, sum(l_extendedprice) AS total, \
             min(l_shipdate) AS first_ship",
            " GROUP BY c_mktsegment, o_orderstatus",
            "c_mktsegment, o_orderstatus",
        ),
        5..=7 => (
            "l_orderkey, o_orderdate, sum(l_extendedprice * (1.0 - l_discount)) AS revenue",
            [
                " GROUP BY l_orderkey, o_orderdate",
                " GROUP BY l_orderkey, o_orderdate HAVING l_orderkey > 6000",
                " GROUP BY l_orderkey, o_orderdate HAVING count(*) > 2 AND 1 = 1",
            ][rng.below(3)],
            "l_orderkey",
        ),
        _ => (
            "count(*) AS n, sum(l_quantity) AS qty, max(o_totalprice) AS top",
            ["", " HAVING 1 = 0", " HAVING count(*) >= 0"][rng.below(3)],
            "n",
        ),
    };
    // An unordered `SELECT *` over all three tables is the one shape whose
    // result can run to 60 k rows of 21 columns: those always get a LIMIT.
    let limited = rng.chance(50) || (select == "*" && conjuncts.len() < 2);
    let tail = if limited {
        format!(" ORDER BY {order} LIMIT {}", 1 + rng.below(200))
    } else if rng.chance(30) {
        format!(" ORDER BY {order}")
    } else {
        String::new()
    };
    Statement {
        ordered: !tail.is_empty(),
        sql: format!("SELECT {select} {from}{filter}{group}{tail}"),
    }
}

/// Float aggregates are summed in arrival order; everything else is exact.
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => a == b,
    }
}

fn by_total_order(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| *o != Ordering::Equal)
        .unwrap_or(Ordering::Equal)
}

#[test]
fn generated_three_table_statements_agree_with_the_unrewritten_plan() {
    const STATEMENTS: usize = 208;
    let catalog = catalog();
    let mut rng = XorShift(0x0A11_CE5E_ED5E_ED01);
    let statements: Vec<Statement> = (0..STATEMENTS)
        .map(|_| generate_statement(&mut rng))
        .collect();
    // Every shape the generator knows turned up.
    for needle in [
        "SELECT *",
        "GROUP BY c_mktsegment",
        "HAVING 1 = 0",
        "HAVING l_orderkey",
        " LIMIT ",
        "1 = 0",
        "l_shipdate > o_orderdate AND",
        " OR ",
        "ON o_custkey = c_custkey AND",
        "ON l_orderkey = o_orderkey AND",
    ] {
        assert!(
            statements.iter().any(|s| s.sql.contains(needle)),
            "no generated statement contains {needle:?}"
        );
    }

    let rewrites = |on: bool, dop: u32| {
        Optimizer::new(OptimizerConfig {
            predicate_pushdown: on,
            ..OptimizerConfig::default().with_parallelism(dop)
        })
    };
    const CELLS: [(u32, ElasticityMode); 4] = [
        (1, ElasticityMode::Off),
        (1, ElasticityMode::ForcedGrow),
        (4, ElasticityMode::Off),
        (4, ElasticityMode::ForcedGrow),
    ];
    // Two halves side by side, one executor each: the cells are debug-build
    // compute and one thread leaves a core idle.
    let (first, second) = statements.split_at(STATEMENTS / 2);
    let nonempty = std::thread::scope(|scope| {
        let halves = [first, second].map(|half| {
            scope.spawn(move || {
                let executor = QueryExecutor::new(ExecOptions::default().worker_threads(2));
                let mut nonempty = 0;
                for (nth, statement) in half.iter().enumerate() {
                    let sql = &statement.sql;
                    let plan = plan_select(catalog, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                    let rows = |on: bool, (dop, mode): (u32, ElasticityMode)| {
                        let opts = ExecOptions::with_page_rows(PAGE_ROWS)
                            .elasticity(ElasticityConfig { mode });
                        let mut rows = executor
                            .execute_logical_opts(catalog, &plan, &rewrites(on, dop), &opts)
                            .unwrap_or_else(|e| {
                                panic!("{sql} (rewrites {on}, dop {dop}, {mode:?}): {e}")
                            })
                            .rows();
                        if !statement.ordered {
                            rows.sort_by(|a, b| by_total_order(a, b));
                        }
                        rows
                    };
                    // The unrewritten plan joins all 21 columns of all
                    // 59,799 lineitems before it filters one: it is most
                    // of this test's time, so it runs in one cell — in all
                    // four for every eighth statement — and the rewritten
                    // plan in every cell.
                    let mut oracle = rows(false, CELLS[0]);
                    nonempty += !oracle.is_empty() as usize;
                    for cell in CELLS {
                        if nth % 8 == 0 && cell != CELLS[0] {
                            oracle = rows(false, cell);
                        }
                        let got = rows(true, cell);
                        let cell = format!("{sql}\n{cell:?}");
                        assert_eq!(got.len(), oracle.len(), "{cell}: cardinality");
                        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                            assert!(
                                g.len() == o.len() && g.iter().zip(o).all(|(x, y)| close(x, y)),
                                "{cell}: row {i} is {g:?}, the oracle has {o:?}"
                            );
                        }
                    }
                }
                nonempty
            })
        });
        halves
            .into_iter()
            .map(|half| half.join().expect("a half panicked"))
            .sum::<usize>()
    });
    // The comparison is not one of empty results.
    assert!(
        nonempty >= STATEMENTS / 2,
        "{nonempty} statements with rows"
    );
}

// ---------------------------------------------------------------------------
// Columns read above ÷ columns projected
// ---------------------------------------------------------------------------

fn union(a: &[usize], b: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut all: Vec<usize> = a.iter().copied().chain(b).collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Walks the physical plan top-down with the output columns each node's
/// parent reads, and at every scan adds (columns read, columns projected)
/// to `out` — written from what each operator does with its input, not
/// from the rewrite that is being checked.
fn scan_column_use(node: &PhysicalNode, read: &[usize], out: &mut (usize, usize)) {
    match node {
        PhysicalNode::TableScan { projection, .. } => {
            assert!(read.iter().all(|&c| c < projection.len()));
            out.0 += read.len();
            out.1 += projection.len();
        }
        PhysicalNode::Filter { input, predicate } => {
            scan_column_use(input, &union(read, predicate.referenced_columns()), out)
        }
        PhysicalNode::Project { input, exprs } => {
            let reads = read.iter().flat_map(|&c| exprs[c].0.referenced_columns());
            scan_column_use(input, &union(&[], reads), out)
        }
        PhysicalNode::PartialAggregate {
            input,
            group_by,
            aggs,
        } => {
            let arguments = aggs.iter().filter_map(|a| a.input.as_ref());
            let reads = arguments.flat_map(|e| e.referenced_columns());
            scan_column_use(input, &union(group_by, reads), out)
        }
        PhysicalNode::FinalAggregate { input, .. } => {
            // The merge reads the whole partial layout.
            let all: Vec<usize> = (0..input.schema().len()).collect();
            scan_column_use(input, &all, out)
        }
        PhysicalNode::HashJoin {
            probe, build, on, ..
        } => {
            let width = probe.schema().len();
            let (p, b) = read.split_at(read.partition_point(|&c| c < width));
            let b: Vec<usize> = b.iter().map(|&c| c - width).collect();
            scan_column_use(probe, &union(p, on.iter().map(|k| k.0)), out);
            scan_column_use(build, &union(&b, on.iter().map(|k| k.1)), out);
        }
        PhysicalNode::Exchange {
            input,
            partitioning,
            ..
        }
        | PhysicalNode::LocalExchange {
            input,
            partitioning,
        } => {
            let keys = match partitioning {
                Partitioning::Hash { keys, .. } => keys.clone(),
                _ => Vec::new(),
            };
            scan_column_use(input, &union(read, keys), out)
        }
        PhysicalNode::Sort { input, keys } | PhysicalNode::TopN { input, keys, .. } => {
            scan_column_use(input, &union(read, keys.iter().map(|k| k.column)), out)
        }
        PhysicalNode::Limit { input, .. } => scan_column_use(input, read, out),
        PhysicalNode::RemoteSource { .. } => {}
    }
}

#[test]
fn benchmark_statements_scan_exactly_the_columns_they_read() {
    let statements = [
        ("suite q1", include_str!("../suite/sql/q1.sql")),
        ("suite q3", include_str!("../suite/sql/q3.sql")),
        ("suite q6", include_str!("../suite/sql/q6.sql")),
        ("suite q_expr", include_str!("../suite/sql/q_expr.sql")),
        (
            "suite q_shuffle",
            include_str!("../suite/sql/q_shuffle.sql"),
        ),
        ("suite q_top", include_str!("../suite/sql/q_top.sql")),
        ("suite q_wide", include_str!("../suite/sql/q_wide.sql")),
        ("benchmarks q1", include_str!("../benchmarks/sql/q1.sql")),
        ("benchmarks q3", include_str!("../benchmarks/sql/q3.sql")),
        ("benchmarks q6", include_str!("../benchmarks/sql/q6.sql")),
    ];
    let catalog = catalog();
    let use_of = |sql: &str, rewrites: bool| {
        let plan = plan_select(catalog, sql).unwrap();
        let optimizer = Optimizer::new(OptimizerConfig {
            predicate_pushdown: rewrites,
            ..OptimizerConfig::default().with_parallelism(2)
        });
        let root = optimizer.optimize(&plan).unwrap();
        let all: Vec<usize> = (0..root.schema().len()).collect();
        let mut counts = (0, 0);
        scan_column_use(&root, &all, &mut counts);
        counts
    };
    let mut total = (0, 0);
    for (name, sql) in statements {
        let (read, projected) = use_of(sql, true);
        assert_eq!(read, projected, "{name}: columns read / projected");
        assert!(read > 0, "{name}");
        total = (total.0 + read, total.1 + projected);
    }
    assert_eq!(total.0 as f64 / total.1 as f64, 1.0);
    // The walk can tell: without the rewrites q3 projects all 21 columns of
    // its three tables and reads 9 of them.
    assert_eq!(use_of(statements[1].1, false), (9, 21));
}
