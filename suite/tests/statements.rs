//! The statement files are the only query definition the suite knows:
//! every one of them must plan against the TPC-H catalog and return its
//! expected, non-zero row count through `QueryExecutor`.

use std::collections::BTreeSet;
use std::path::Path;

use accordion_cluster::QueryExecutor;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_suite::env::{Settings, DOP};
use accordion_suite::workloads::STATEMENTS;
use accordion_tpch::gen::generate;

/// Row counts at sf 0.01, seed 42.
const EXPECTED_ROWS: [(&str, usize); 7] = [
    ("q1", 6),
    ("q3", 10),
    ("q6", 1),
    ("q_expr", 2),
    ("q_shuffle", 20),
    ("q_top", 100),
    ("q_wide", 3452),
];

#[test]
fn every_sql_file_is_a_listed_statement_and_returns_its_rows() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("sql");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".sql"))
        .map(|n| n.trim_end_matches(".sql").to_string())
        .collect();
    let listed: BTreeSet<String> = STATEMENTS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(
        on_disk, listed,
        "suite/sql and workloads::STATEMENTS differ"
    );

    let settings = Settings { sf: 0.01, seed: 42 };
    let data = generate(&settings.tpch_options());
    let executor = QueryExecutor::new(settings.exec_options());
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(DOP));
    for (name, sql) in STATEMENTS {
        let plan = accordion_sql::plan_select(&data.catalog, sql)
            .unwrap_or_else(|e| panic!("{name} does not plan: {e}"));
        let result = executor
            .execute_logical(&data.catalog, &plan, &optimizer)
            .unwrap_or_else(|e| panic!("{name} does not run: {e}"));
        let expected = EXPECTED_ROWS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} has no expected row count"))
            .1;
        assert!(expected > 0);
        assert_eq!(result.row_count(), expected, "{name}");
    }
}

/// q1, q3 and q6 are copies of the files the CI smoke jobs use; while those
/// exist, the copies must not drift from them.
#[test]
fn shared_statements_match_the_ci_copies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for name in ["q1", "q3", "q6"] {
        let Ok(theirs) = std::fs::read_to_string(root.join(format!("benchmarks/sql/{name}.sql")))
        else {
            continue;
        };
        let ours = STATEMENTS.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(ours, theirs, "{name}.sql drifted from benchmarks/sql");
    }
}
