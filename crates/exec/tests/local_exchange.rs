//! Hand-built `LocalExchange` nodes. The optimizer no longer emits one, and
//! pipeline splitting streams through it: the pipeline's one driver sees
//! every row whatever the partitioning, so a global operator above the node
//! answers as if the node were not there. These tests check exactly that,
//! plus the per-operator stats of a merge plan.

use std::sync::Arc;

use accordion_data::schema::{Field, Schema};
use accordion_data::sort::SortKey;
use accordion_data::types::{DataType, Value};
use accordion_exec::{execute_tree, ExecOptions};
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::Expr;
use accordion_plan::fragment::StageTree;
use accordion_plan::physical::{Partitioning, PhysicalNode};
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

fn catalog() -> Catalog {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("facts", schema, 3);
    for n in 0..30i64 {
        b.push_row(vec![Value::Int64(n % 6), Value::Int64(n)]);
    }
    b.register(&c, 4);
    c
}

fn scan() -> Arc<PhysicalNode> {
    Arc::new(PhysicalNode::TableScan {
        table: "facts".into(),
        table_schema: Schema::shared(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]),
        projection: vec![0, 1],
    })
}

fn sum_agg() -> Vec<AggSpec> {
    vec![AggSpec::new(
        AggKind::Sum,
        Expr::col(1),
        DataType::Int64,
        "total",
    )]
}

/// partial agg (DOP 3) → gather → hash local exchange → final agg, sorted
/// for a deterministic assertion.
fn hash_merge_plan(local_partitions: u32) -> Arc<PhysicalNode> {
    let partial = Arc::new(PhysicalNode::PartialAggregate {
        input: scan(),
        group_by: vec![0],
        aggs: sum_agg(),
    });
    let exchange = Arc::new(PhysicalNode::Exchange {
        input: partial,
        partitioning: Partitioning::Single,
        input_parallelism: 3,
    });
    let local = Arc::new(PhysicalNode::LocalExchange {
        input: exchange,
        partitioning: Partitioning::Hash {
            keys: vec![0],
            partitions: local_partitions,
        },
    });
    let final_agg = Arc::new(PhysicalNode::FinalAggregate {
        input: local,
        group_count: 1,
        aggs: sum_agg(),
    });
    Arc::new(PhysicalNode::Sort {
        input: Arc::new(PhysicalNode::LocalExchange {
            input: final_agg,
            partitioning: Partitioning::Single,
        }),
        keys: vec![SortKey::asc(0)],
    })
}

fn expected_groups() -> Vec<Vec<Value>> {
    // k = n % 6 over n in 0..30: each k has 5 values k, k+6, ..., k+24.
    (0..6i64)
        .map(|k| vec![Value::Int64(k), Value::Int64(5 * k + 60)])
        .collect()
}

#[test]
fn hash_partitioned_local_exchange_executes() {
    let c = catalog();
    for partitions in [2u32, 3] {
        let tree = StageTree::build(hash_merge_plan(partitions)).unwrap();
        let result = execute_tree(&c, &tree, &ExecOptions::with_page_rows(2)).unwrap();
        assert_eq!(
            result.rows(),
            expected_groups(),
            "{partitions}-partition local exchange"
        );
        // One driver ran the final, whatever the partitioning.
        let final_drivers = result
            .stats()
            .operators
            .iter()
            .filter(|o| o.operator == "FinalAggregate")
            .count();
        assert_eq!(final_drivers, 1);
    }
}

#[test]
fn a_local_exchange_of_any_partitioning_returns_the_rows_of_the_plan_without_it() {
    let c = catalog();
    let partial = || {
        Arc::new(PhysicalNode::PartialAggregate {
            input: scan(),
            group_by: vec![0],
            aggs: sum_agg(),
        })
    };
    type Above = fn(Arc<PhysicalNode>) -> Arc<PhysicalNode>;
    let above: [(&str, Above); 4] = [
        ("FinalAggregate", |input| {
            Arc::new(PhysicalNode::FinalAggregate {
                input,
                group_count: 1,
                aggs: sum_agg(),
            })
        }),
        ("TopN", |input| {
            Arc::new(PhysicalNode::TopN {
                input,
                keys: vec![SortKey::desc(1)],
                n: 7,
            })
        }),
        ("Sort", |input| {
            Arc::new(PhysicalNode::Sort {
                input,
                keys: vec![SortKey::asc(1)],
            })
        }),
        ("Limit", |input| {
            Arc::new(PhysicalNode::Limit { input, n: 7 })
        }),
    ];
    let rows = |root: Arc<PhysicalNode>| {
        let tree = StageTree::build(root).unwrap();
        execute_tree(&c, &tree, &ExecOptions::with_page_rows(4))
            .unwrap()
            .rows()
    };
    for partitioning in [
        Partitioning::Single,
        Partitioning::Hash {
            keys: vec![0],
            partitions: 2,
        },
        Partitioning::Hash {
            keys: vec![1],
            partitions: 3,
        },
    ] {
        for (name, op) in above {
            let input = || {
                if name == "FinalAggregate" {
                    partial()
                } else {
                    scan()
                }
            };
            let expected = rows(op(input()));
            assert!(!expected.is_empty(), "{name}");
            let local = Arc::new(PhysicalNode::LocalExchange {
                input: input(),
                partitioning: partitioning.clone(),
            });
            assert_eq!(rows(op(local)), expected, "{name} over {partitioning}");
        }
    }
}

#[test]
fn stats_snapshot_covers_scan_and_aggregate() {
    let c = catalog();
    let tree = StageTree::build(hash_merge_plan(2)).unwrap();
    let result = execute_tree(&c, &tree, &ExecOptions::with_page_rows(2)).unwrap();
    let stats = result.stats();
    assert_eq!(stats.rows_produced("TableScan"), 30);
    assert_eq!(stats.rows_produced("FinalAggregate"), 6);
    assert!(stats.bytes_produced("PartialAggregate") > 0);
    assert!(
        stats.exchange.pages > 0,
        "partial states crossed the exchange"
    );
    // Page arity: every operator instance is tagged with its stage/task.
    assert!(stats.operators.iter().any(|o| o.stage == 1));
    assert!(stats.operators.iter().all(|o| o.rows_per_sec >= 0.0));

    // Concat of an empty result keeps the schema arity (regression for the
    // QueryResult helpers surviving the API redesign).
    assert_eq!(result.concat().row_count(), 6);
}
