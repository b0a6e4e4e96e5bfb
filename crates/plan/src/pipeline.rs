//! Pipeline splitting (paper Fig 6).
//!
//! Each task executes its fragment as a set of **pipelines**: maximal runs
//! of operators that stream pages without buffering between them, each run
//! by one driver. A fragment is split only where a hash-join build side must
//! finish first: the build becomes a pipeline terminated by
//! [`OperatorSpec::HashJoinBuild`], which materializes the hash table the
//! probe pipeline's [`OperatorSpec::HashJoinProbe`] reads. A merge stage is
//! one pipeline, `ExchangeSource → FinalAggregate → … → Output`, that
//! merges pages as they arrive.
//!
//! Pipelines are emitted producers-first, so executing them in order always
//! satisfies intra-task data dependencies. The last pipeline ends with
//! [`OperatorSpec::Output`]: it feeds the task's output buffer.

use accordion_common::{AccordionError, PipelineId, Result, StageId};
use accordion_data::schema::Schema;
use accordion_data::sort::SortKey;
use accordion_expr::agg::AggSpec;
use accordion_expr::scalar::Expr;

use crate::fragment::PlanFragment;
use crate::physical::PhysicalNode;

/// One operator slot of a pipeline, fully describing what the executor
/// instantiates. Specs carry the output schemas the operators cannot infer
/// from input pages alone (needed e.g. when the input is empty).
#[derive(Debug, Clone)]
pub enum OperatorSpec {
    /// Source: streams the splits of a base table the task claims from its
    /// stage's split queue.
    TableScan {
        table: String,
        projection: Vec<usize>,
    },
    /// Source: streams pages produced by a child stage.
    ExchangeSource {
        child_stage: StageId,
    },
    Filter {
        predicate: Expr,
    },
    Project {
        exprs: Vec<(Expr, String)>,
    },
    PartialAggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        output_schema: Schema,
    },
    FinalAggregate {
        group_count: usize,
        aggs: Vec<AggSpec>,
        output_schema: Schema,
        /// Groups may leave in table (first-seen) order instead of sorted
        /// by key bytes: this pipeline carries them, through Filters and
        /// Projects of plain column references, into a TopN or Sort whose
        /// keys include every group column, so nobody can see their order.
        /// Set by [`split_pipelines`].
        table_order: bool,
    },
    /// Sink: consumes the build side of hash join `join` into a hash table.
    HashJoinBuild {
        join: usize,
        keys: Vec<usize>,
    },
    /// Streams probe rows against the hash table built by `HashJoinBuild`.
    HashJoinProbe {
        join: usize,
        keys: Vec<usize>,
        output_schema: Schema,
    },
    TopN {
        keys: Vec<SortKey>,
        n: usize,
    },
    Sort {
        keys: Vec<SortKey>,
    },
    Limit {
        n: usize,
    },
    /// Sink: pushes pages into the task's output buffer.
    Output,
}

impl OperatorSpec {
    pub fn name(&self) -> &'static str {
        match self {
            OperatorSpec::TableScan { .. } => "TableScan",
            OperatorSpec::ExchangeSource { .. } => "ExchangeSource",
            OperatorSpec::Filter { .. } => "Filter",
            OperatorSpec::Project { .. } => "Project",
            OperatorSpec::PartialAggregate { .. } => "PartialAggregate",
            OperatorSpec::FinalAggregate { .. } => "FinalAggregate",
            OperatorSpec::HashJoinBuild { .. } => "HashJoinBuild",
            OperatorSpec::HashJoinProbe { .. } => "HashJoinProbe",
            OperatorSpec::TopN { .. } => "TopN",
            OperatorSpec::Sort { .. } => "Sort",
            OperatorSpec::Limit { .. } => "Limit",
            OperatorSpec::Output => "Output",
        }
    }
}

/// One pipeline of a task: `operators[0]` is a source, the last operator is
/// a sink, everything between streams pages.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    pub id: PipelineId,
    pub operators: Vec<OperatorSpec>,
}

impl PipelineSpec {
    /// True when this pipeline feeds the task output buffer.
    pub fn is_output(&self) -> bool {
        matches!(self.operators.last(), Some(OperatorSpec::Output))
    }

    /// Operator names in order — convenient for structural assertions.
    pub fn operator_names(&self) -> Vec<&'static str> {
        self.operators.iter().map(|o| o.name()).collect()
    }
}

/// Splits a fragment into its pipelines at hash-join build sides. Producer
/// pipelines precede their consumers; the final pipeline carries
/// [`OperatorSpec::Output`].
pub fn split_pipelines(fragment: &PlanFragment) -> Result<Vec<PipelineSpec>> {
    let mut splitter = Splitter {
        pipelines: Vec::new(),
        joins: 0,
    };
    let mut ops = splitter.build(&fragment.root)?;
    ops.push(OperatorSpec::Output);
    splitter.pipelines.push(ops);
    Ok(splitter
        .pipelines
        .into_iter()
        .enumerate()
        .map(|(i, mut operators)| {
            mark_unread_group_order(&mut operators);
            PipelineSpec {
                id: PipelineId(i as u32),
                operators,
            }
        })
        .collect())
}

/// Sets `table_order` on every final aggregate of a finished pipeline whose
/// group order nobody reads ([`sort_covers_groups`]).
fn mark_unread_group_order(operators: &mut [OperatorSpec]) {
    for i in 0..operators.len() {
        let (head, downstream) = operators.split_at_mut(i + 1);
        if let OperatorSpec::FinalAggregate {
            group_count,
            output_schema,
            table_order,
            ..
        } = &mut head[i]
        {
            *table_order = sort_covers_groups(downstream, *group_count, output_schema.len());
        }
    }
}

/// Whether the operators after a final aggregate (of `width` output
/// columns, the first `group_count` of them its group columns) carry its
/// rows, through Filters and Projects of plain column references, into a
/// TopN or Sort whose keys include every group column. Two groups then
/// differ in a sort key, and keys compare by `Value::total_cmp` — under
/// which a NULL and a value, and any two distinct float bit patterns, are
/// unequal — so the sort leaves no tie for arrival order to break.
fn sort_covers_groups(downstream: &[OperatorSpec], group_count: usize, width: usize) -> bool {
    // For each column of the stream, the aggregate column it copies.
    let mut origin: Vec<Option<usize>> = (0..width).map(Some).collect();
    for op in downstream {
        match op {
            OperatorSpec::Filter { .. } => {}
            OperatorSpec::Project { exprs } => {
                origin = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(c) => origin.get(*c).copied().flatten(),
                        _ => None,
                    })
                    .collect();
            }
            OperatorSpec::TopN { keys, .. } | OperatorSpec::Sort { keys } => {
                return (0..group_count).all(|g| {
                    keys.iter()
                        .any(|k| origin.get(k.column).copied().flatten() == Some(g))
                });
            }
            _ => return false,
        }
    }
    false
}

struct Splitter {
    /// Completed producer pipelines, in execution order.
    pipelines: Vec<Vec<OperatorSpec>>,
    joins: usize,
}

impl Splitter {
    /// Returns the operator prefix of the pipeline `node` belongs to,
    /// pushing any producer pipelines it depends on.
    fn build(&mut self, node: &PhysicalNode) -> Result<Vec<OperatorSpec>> {
        match node {
            PhysicalNode::TableScan {
                table, projection, ..
            } => Ok(vec![OperatorSpec::TableScan {
                table: table.clone(),
                projection: projection.clone(),
            }]),
            PhysicalNode::RemoteSource { child_stage, .. } => {
                Ok(vec![OperatorSpec::ExchangeSource {
                    child_stage: *child_stage,
                }])
            }
            // One driver sees every row whatever the partitioning, so the
            // operators above stay globally correct.
            PhysicalNode::LocalExchange { input, .. } => self.build(input),
            PhysicalNode::HashJoin {
                probe, build, on, ..
            } => {
                let join = self.joins;
                self.joins += 1;
                let mut build_ops = self.build(build)?;
                build_ops.push(OperatorSpec::HashJoinBuild {
                    join,
                    keys: on.iter().map(|&(_, b)| b).collect(),
                });
                self.pipelines.push(build_ops);
                let mut probe_ops = self.build(probe)?;
                probe_ops.push(OperatorSpec::HashJoinProbe {
                    join,
                    keys: on.iter().map(|&(p, _)| p).collect(),
                    output_schema: node.schema(),
                });
                Ok(probe_ops)
            }
            PhysicalNode::Filter { input, predicate } => {
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::Filter {
                    predicate: predicate.clone(),
                });
                Ok(ops)
            }
            PhysicalNode::Project { input, exprs } => {
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::Project {
                    exprs: exprs.clone(),
                });
                Ok(ops)
            }
            PhysicalNode::PartialAggregate {
                input,
                group_by,
                aggs,
            } => {
                let output_schema = node.schema();
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::PartialAggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    output_schema,
                });
                Ok(ops)
            }
            PhysicalNode::FinalAggregate {
                input,
                group_count,
                aggs,
            } => {
                let output_schema = node.schema();
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::FinalAggregate {
                    group_count: *group_count,
                    aggs: aggs.clone(),
                    output_schema,
                    table_order: false,
                });
                Ok(ops)
            }
            PhysicalNode::Sort { input, keys } => {
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::Sort { keys: keys.clone() });
                Ok(ops)
            }
            PhysicalNode::TopN { input, keys, n } => {
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::TopN {
                    keys: keys.clone(),
                    n: *n,
                });
                Ok(ops)
            }
            PhysicalNode::Limit { input, n } => {
                let mut ops = self.build(input)?;
                ops.push(OperatorSpec::Limit { n: *n });
                Ok(ops)
            }
            PhysicalNode::Exchange { .. } => Err(AccordionError::Plan(
                "fragment contains an uncut Exchange — run StageTree::build first".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{StageKind, StageTree};
    use crate::logical::JoinType;
    use crate::physical::Partitioning;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;
    use std::sync::Arc;

    fn scan(name: &str) -> Arc<PhysicalNode> {
        Arc::new(PhysicalNode::TableScan {
            table: name.into(),
            table_schema: Schema::shared(vec![Field::new("a", DataType::Int64)]),
            projection: vec![0],
        })
    }

    fn fragment_of(root: Arc<PhysicalNode>) -> PlanFragment {
        PlanFragment {
            stage: accordion_common::StageId(0),
            root,
            parallelism: 1,
            kind: StageKind::Output,
            child_stages: vec![],
            output_partitioning: Partitioning::Single,
            elastic_bounds: None,
        }
    }

    #[test]
    fn streaming_fragment_is_one_pipeline() {
        let root = Arc::new(PhysicalNode::Filter {
            input: scan("t"),
            predicate: Expr::gt(Expr::col(0), Expr::lit_i64(0)),
        });
        let pipelines = split_pipelines(&fragment_of(root)).unwrap();
        assert_eq!(pipelines.len(), 1);
        assert_eq!(
            pipelines[0].operator_names(),
            vec!["TableScan", "Filter", "Output"]
        );
        assert!(pipelines[0].is_output());
    }

    #[test]
    fn local_exchange_does_not_break_pipeline() {
        for partitioning in [
            Partitioning::Single,
            Partitioning::RoundRobin { partitions: 2 },
        ] {
            let root = Arc::new(PhysicalNode::Sort {
                input: Arc::new(PhysicalNode::LocalExchange {
                    input: scan("t"),
                    partitioning,
                }),
                keys: vec![SortKey::asc(0)],
            });
            let pipelines = split_pipelines(&fragment_of(root)).unwrap();
            assert_eq!(pipelines.len(), 1);
            assert_eq!(
                pipelines[0].operator_names(),
                vec!["TableScan", "Sort", "Output"]
            );
        }
    }

    #[test]
    fn join_build_side_is_its_own_pipeline() {
        let root = Arc::new(PhysicalNode::HashJoin {
            probe: scan("probe"),
            build: scan("build"),
            on: vec![(0, 0)],
            join_type: JoinType::Inner,
        });
        let pipelines = split_pipelines(&fragment_of(root)).unwrap();
        assert_eq!(pipelines.len(), 2);
        assert_eq!(
            pipelines[0].operator_names(),
            vec!["TableScan", "HashJoinBuild"]
        );
        assert_eq!(
            pipelines[1].operator_names(),
            vec!["TableScan", "HashJoinProbe", "Output"]
        );
    }

    #[test]
    fn uncut_exchange_is_rejected() {
        let root = Arc::new(PhysicalNode::Exchange {
            input: scan("t"),
            partitioning: Partitioning::Single,
            input_parallelism: 2,
        });
        assert!(split_pipelines(&fragment_of(root)).is_err());
    }

    #[test]
    fn agg_stage_splits_like_fig6() {
        // Build the final-agg fragment the optimizer produces, via the real
        // fragmenter: the merge stage is one pipeline that merges partial
        // states as they arrive off the exchange.
        use accordion_expr::agg::{AggKind, AggSpec};
        let count = || {
            vec![AggSpec::new(
                AggKind::Count,
                Expr::col(0),
                DataType::Int64,
                "c",
            )]
        };
        let partial = Arc::new(PhysicalNode::PartialAggregate {
            input: scan("t"),
            group_by: vec![0],
            aggs: count(),
        });
        let root = Arc::new(PhysicalNode::FinalAggregate {
            input: Arc::new(PhysicalNode::Exchange {
                input: partial,
                partitioning: Partitioning::Single,
                input_parallelism: 2,
            }),
            group_count: 1,
            aggs: count(),
        });
        let tree = StageTree::build(root).unwrap();
        let pipelines = split_pipelines(tree.root()).unwrap();
        assert_eq!(pipelines.len(), 1);
        assert_eq!(
            pipelines[0].operator_names(),
            vec!["ExchangeSource", "FinalAggregate", "Output"]
        );
    }
}
