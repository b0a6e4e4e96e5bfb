//! Physical query plans.
//!
//! The optimizer lowers a [`crate::logical::LogicalPlan`] into a
//! [`PhysicalNode`] tree with **explicit data movement**: [`Exchange`] nodes
//! mark task-to-task (network) shuffles and are the cut points for stage
//! fragmentation (paper Fig 4). Inside a task nothing is redistributed:
//! every pipeline has one driver, and pipelines break only at hash-join
//! builds (paper Fig 6). A pipeline is a run of these same nodes, from
//! which the executor builds each operator. An [`Exchange`]'s
//! [`Partitioning`] lives in `accordion_data::hash`, next to the hash
//! partitioner, and is the exchange's routing policy as it stands.
//!
//! Aggregation is always represented in the paper's two-phase form
//! ([`PhysicalNode::PartialAggregate`] / [`PhysicalNode::FinalAggregate`]):
//! the partial phase runs in the scan-side stage at elastic parallelism, the
//! final phase merges partial states (§4.1). Every aggregate here has a
//! one-column state; AVG never appears, the optimizer lowers it to a SUM
//! and a COUNT.
//!
//! [`Exchange`]: PhysicalNode::Exchange

use std::fmt;
use std::sync::Arc;

use accordion_common::StageId;
pub use accordion_data::hash::Partitioning;
use accordion_data::schema::{Field, Schema, SchemaRef};
use accordion_data::sort::SortKey;
use accordion_data::types::DataType;
use accordion_expr::agg::AggSpec;
use accordion_expr::scalar::Expr;

/// A physical plan node. Children are `Arc`-shared, like logical plans.
#[derive(Debug, Clone)]
pub enum PhysicalNode {
    /// Scan of a catalog table with column projection. The leaf of every
    /// source stage, which scans at most one table: its tasks claim the
    /// table's splits one at a time from the stage's one split queue.
    TableScan {
        table: String,
        table_schema: SchemaRef,
        projection: Vec<usize>,
    },
    /// Row filter.
    Filter {
        input: Arc<PhysicalNode>,
        predicate: Expr,
    },
    /// Column computation / projection.
    Project {
        input: Arc<PhysicalNode>,
        exprs: Vec<(Expr, String)>,
    },
    /// Partial (scan-side) phase of a two-phase aggregation. Output layout:
    /// group columns first, then one state column per aggregate, typed and
    /// named as the aggregate's finished column.
    PartialAggregate {
        input: Arc<PhysicalNode>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
    },
    /// Final (merge) phase of a two-phase aggregation; consumes the partial
    /// layout. Its input's first `group_count` columns are group keys.
    FinalAggregate {
        input: Arc<PhysicalNode>,
        group_count: usize,
        aggs: Vec<AggSpec>,
    },
    /// Hash join: `build` is fully consumed into a hash table (the pipeline
    /// breaker, paper Fig 6), then `probe` streams through.
    HashJoin {
        probe: Arc<PhysicalNode>,
        build: Arc<PhysicalNode>,
        /// Pairs of (probe column, build column) equi-join keys; with none
        /// every probe row meets every build row.
        on: Vec<(usize, usize)>,
    },
    /// Task-to-task (network) shuffle. Stage fragmentation cuts here.
    /// `input_parallelism` is the producing stage's planned DOP, the task
    /// count it starts with; an elastic stage's controller moves it at
    /// runtime within the stage's `elastic_bounds`.
    Exchange {
        input: Arc<PhysicalNode>,
        partitioning: Partitioning,
        input_parallelism: u32,
    },
    /// Redistribution inside one task. The optimizer no longer emits it:
    /// pipeline splitting streams through it, and the pipeline's one driver
    /// sees every row whatever the partitioning.
    LocalExchange {
        input: Arc<PhysicalNode>,
        partitioning: Partitioning,
    },
    /// Placeholder leaf created by stage fragmentation where an [`Exchange`]
    /// was cut: pages arrive from `child_stage`'s task output buffers.
    ///
    /// [`Exchange`]: PhysicalNode::Exchange
    RemoteSource {
        child_stage: StageId,
        schema: Schema,
    },
    /// Full sort (ORDER BY without LIMIT).
    Sort {
        input: Arc<PhysicalNode>,
        keys: Vec<SortKey>,
    },
    /// ORDER BY + LIMIT: a stable sort cut after `n` rows, which holds at
    /// most `2n` candidate rows at execution time (`n` is `usize::MAX` for
    /// ORDER BY without LIMIT).
    TopN {
        input: Arc<PhysicalNode>,
        keys: Vec<SortKey>,
        n: usize,
    },
    /// Plain LIMIT.
    Limit { input: Arc<PhysicalNode>, n: usize },
}

impl PhysicalNode {
    /// Output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalNode::TableScan {
                table_schema,
                projection,
                ..
            } => table_schema.project(projection),
            PhysicalNode::Filter { input, .. } => input.schema(),
            PhysicalNode::Project { input, exprs } => {
                let in_schema = input.schema();
                Schema::new(
                    exprs
                        .iter()
                        .map(|(e, name)| {
                            let dt = e.data_type(&in_schema).unwrap_or(DataType::Int64);
                            Field::new(name.clone(), dt)
                        })
                        .collect(),
                )
            }
            PhysicalNode::PartialAggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema();
                aggregate_schema(group_by.iter().map(|&i| in_schema.field(i)), aggs)
            }
            PhysicalNode::FinalAggregate {
                input,
                group_count,
                aggs,
            } => aggregate_schema(input.schema().fields()[..*group_count].iter(), aggs),
            PhysicalNode::HashJoin { probe, build, .. } => probe.schema().join(&build.schema()),
            PhysicalNode::Exchange { input, .. }
            | PhysicalNode::LocalExchange { input, .. }
            | PhysicalNode::Sort { input, .. }
            | PhysicalNode::TopN { input, .. }
            | PhysicalNode::Limit { input, .. } => input.schema(),
            PhysicalNode::RemoteSource { schema, .. } => schema.clone(),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Arc<PhysicalNode>> {
        match self {
            PhysicalNode::TableScan { .. } | PhysicalNode::RemoteSource { .. } => vec![],
            PhysicalNode::Filter { input, .. }
            | PhysicalNode::Project { input, .. }
            | PhysicalNode::PartialAggregate { input, .. }
            | PhysicalNode::FinalAggregate { input, .. }
            | PhysicalNode::Exchange { input, .. }
            | PhysicalNode::LocalExchange { input, .. }
            | PhysicalNode::Sort { input, .. }
            | PhysicalNode::TopN { input, .. }
            | PhysicalNode::Limit { input, .. } => vec![input],
            PhysicalNode::HashJoin { probe, build, .. } => vec![probe, build],
        }
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut dyn FnMut(&PhysicalNode)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Number of nodes in the subtree.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Names of the tables scanned in the subtree, in visit order. A stage
    /// has at most one: the table whose `SplitSet` backs the stage's split
    /// queue.
    pub fn scan_tables(&self) -> Vec<String> {
        let mut tables = Vec::new();
        self.visit(&mut |node| {
            if let PhysicalNode::TableScan { table, .. } = node {
                tables.push(table.clone());
            }
        });
        tables
    }

    /// One-word operator name (display / test assertions).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalNode::TableScan { .. } => "TableScan",
            PhysicalNode::Filter { .. } => "Filter",
            PhysicalNode::Project { .. } => "Project",
            PhysicalNode::PartialAggregate { .. } => "PartialAggregate",
            PhysicalNode::FinalAggregate { .. } => "FinalAggregate",
            PhysicalNode::HashJoin { .. } => "HashJoin",
            PhysicalNode::Exchange { .. } => "Exchange",
            PhysicalNode::LocalExchange { .. } => "LocalExchange",
            PhysicalNode::RemoteSource { .. } => "RemoteSource",
            PhysicalNode::Sort { .. } => "Sort",
            PhysicalNode::TopN { .. } => "TopN",
            PhysicalNode::Limit { .. } => "Limit",
        }
    }

    /// Multi-line indented plan rendering (EXPLAIN-style).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            PhysicalNode::TableScan {
                table, projection, ..
            } => out.push_str(&format!("{pad}TableScan: {table} cols={projection:?}\n")),
            PhysicalNode::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::Project { input, exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(_, n)| n.as_str()).collect();
                out.push_str(&format!("{pad}Project: {names:?}\n"));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::PartialAggregate {
                input,
                group_by,
                aggs,
            } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}PartialAggregate: group={group_by:?} aggs={names:?}\n"
                ));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::FinalAggregate {
                input,
                group_count,
                aggs,
            } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}FinalAggregate: groups={group_count} aggs={names:?}\n"
                ));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::HashJoin { probe, build, on } => {
                out.push_str(&format!("{pad}HashJoin: on={on:?}\n"));
                probe.fmt_indent(out, indent + 1);
                build.fmt_indent(out, indent + 1);
            }
            PhysicalNode::Exchange {
                input,
                partitioning,
                input_parallelism,
            } => {
                out.push_str(&format!(
                    "{pad}Exchange[{partitioning}] from x{input_parallelism}\n"
                ));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::LocalExchange {
                input,
                partitioning,
            } => {
                out.push_str(&format!("{pad}LocalExchange[{partitioning}]\n"));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::RemoteSource { child_stage, .. } => {
                out.push_str(&format!("{pad}RemoteSource: {child_stage}\n"));
            }
            PhysicalNode::Sort { input, keys } => {
                let cols: Vec<usize> = keys.iter().map(|k| k.column).collect();
                out.push_str(&format!("{pad}Sort: keys={cols:?}\n"));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::TopN { input, keys, n } => {
                let cols: Vec<usize> = keys.iter().map(|k| k.column).collect();
                let n = crate::logical::top_n_display(*n);
                out.push_str(&format!("{pad}TopN: n={n} keys={cols:?}\n"));
                input.fmt_indent(out, indent + 1);
            }
            PhysicalNode::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.fmt_indent(out, indent + 1);
            }
        }
    }
}

/// The group columns, then one column per aggregate: a partial aggregate's
/// state and a final one's result have the same layout.
fn aggregate_schema<'a>(groups: impl Iterator<Item = &'a Field>, aggs: &[AggSpec]) -> Schema {
    let aggs = aggs
        .iter()
        .map(|a| Field::new(a.name.clone(), a.output_type()));
    Schema::new(groups.cloned().chain(aggs).collect())
}

impl fmt::Display for PhysicalNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_expr::agg::AggKind;

    fn scan() -> Arc<PhysicalNode> {
        Arc::new(PhysicalNode::TableScan {
            table: "t".into(),
            table_schema: Schema::shared(vec![
                Field::new("k", DataType::Utf8),
                Field::new("v", DataType::Int64),
            ]),
            projection: vec![0, 1],
        })
    }

    /// AVG(v) as the optimizer lowers it: a Float64 SUM and a COUNT.
    fn split_avg() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggKind::Sum, Expr::col(1), DataType::Float64, "a#sum"),
            AggSpec::new(AggKind::Count, Expr::col(1), DataType::Int64, "a#count"),
        ]
    }

    #[test]
    fn partial_schema_is_one_column_per_aggregate() {
        let p = PhysicalNode::PartialAggregate {
            input: scan(),
            group_by: vec![0],
            aggs: split_avg(),
        };
        let s = p.schema();
        // group key + one state column per aggregate.
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "k");
        assert_eq!(s.field(1).data_type, DataType::Float64);
        assert_eq!(s.field(2).data_type, DataType::Int64);
    }

    #[test]
    fn final_schema_recovers_output_names() {
        let partial = Arc::new(PhysicalNode::PartialAggregate {
            input: scan(),
            group_by: vec![0],
            aggs: split_avg(),
        });
        let fin = PhysicalNode::FinalAggregate {
            input: partial,
            group_count: 1,
            aggs: split_avg(),
        };
        let s = fin.schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "k");
        assert_eq!(s.field(1).name, "a#sum");
        assert_eq!(s.field(1).data_type, DataType::Float64);
        assert_eq!(s.field(2).name, "a#count");
    }

    #[test]
    fn partitioning_counts() {
        assert_eq!(Partitioning::Single.partition_count(), 1);
        assert_eq!(
            Partitioning::Hash {
                keys: vec![0],
                partitions: 4
            }
            .partition_count(),
            4
        );
    }

    #[test]
    fn traversal_and_display() {
        let plan = PhysicalNode::Exchange {
            input: Arc::new(PhysicalNode::Filter {
                input: scan(),
                predicate: Expr::gt(Expr::col(1), Expr::lit_i64(0)),
            }),
            partitioning: Partitioning::Single,
            input_parallelism: 4,
        };
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.scan_tables(), ["t"]);
        let text = plan.display();
        assert!(text.contains("Exchange[single] from x4"));
        assert!(text.contains("TableScan"));
    }
}
