//! Pipeline splitting (paper Fig 6).
//!
//! Each task executes its fragment as a set of **pipelines**: maximal runs
//! of operators that stream pages without buffering between them, each run
//! by one driver. A pipeline is a run of the fragment's own
//! [`PhysicalNode`]s in pull order, from a source to a [`Sink`]; the driver
//! instantiates each operator from its node's fields. A fragment is split
//! only where a hash-join build side must finish first: the build becomes a
//! pipeline ending in [`Sink::JoinBuild`], which materializes the hash
//! table the probe pipeline's `HashJoin` node reads. A merge stage is one
//! pipeline, `ExchangeSource → FinalAggregate → … → Output`, that merges
//! pages as they arrive.
//!
//! Pipelines are emitted producers-first, so executing them in order always
//! satisfies intra-task data dependencies. The last pipeline ends in
//! [`Sink::Output`]: it feeds the task's output buffer.

use std::sync::Arc;

use accordion_common::{AccordionError, PipelineId, Result, StageId};
use accordion_expr::scalar::Expr;

use crate::fragment::PlanFragment;
use crate::physical::PhysicalNode;

/// Where a pipeline's pages go.
#[derive(Debug, Clone)]
pub enum Sink {
    /// The task's output buffer.
    Output,
    /// The hash table of join `join`, keyed on the build-side columns of
    /// its `on` pairs.
    JoinBuild { join: usize, keys: Vec<usize> },
}

impl Sink {
    pub fn name(&self) -> &'static str {
        match self {
            Sink::Output => "Output",
            Sink::JoinBuild { .. } => "HashJoinBuild",
        }
    }
}

/// One pipeline of a task: a source, the operators streaming its pages,
/// and the sink they end in.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    pub id: PipelineId,
    /// The fragment's nodes this pipeline runs, in pull order: the source
    /// (a `TableScan` or `RemoteSource`), then each streaming operator — a
    /// `Filter`, `Project`, `PartialAggregate`, `FinalAggregate`, `TopN`,
    /// `Sort` or `Limit`, or a `HashJoin` as its probe.
    pub nodes: Vec<Arc<PhysicalNode>>,
    /// The join id of each `HashJoin` in `nodes`, in order.
    pub probes: Vec<usize>,
    pub sink: Sink,
}

impl PipelineSpec {
    /// True when this pipeline feeds the task output buffer.
    pub fn is_output(&self) -> bool {
        matches!(self.sink, Sink::Output)
    }

    /// Operator names in order, the sink's last: the names their meters
    /// report in `QueryStats` (an `Output` sink has none).
    pub fn operator_names(&self) -> Vec<&'static str> {
        let nodes = self.nodes.iter().map(|n| operator_name(n));
        nodes.chain([self.sink.name()]).collect()
    }

    /// Whether the final aggregate at `nodes[step]` may leave its groups in
    /// table (first-seen) order instead of sorting them by key bytes: the
    /// steps after it carry its rows, through Filters and Projects of plain
    /// column references, into a TopN or Sort whose keys include every
    /// group column, so nobody can see their order (`sort_covers_groups`).
    pub fn table_order(&self, step: usize) -> bool {
        match &*self.nodes[step] {
            PhysicalNode::FinalAggregate {
                group_count, aggs, ..
            } => {
                let width = group_count + aggs.len();
                sort_covers_groups(&self.nodes[step + 1..], *group_count, width)
            }
            _ => false,
        }
    }
}

/// The name the operator running `node` reports: the plan's, except that
/// a `RemoteSource` runs as an `ExchangeSource` and a `HashJoin` in a
/// pipeline is its probe.
pub fn operator_name(node: &PhysicalNode) -> &'static str {
    match node {
        PhysicalNode::RemoteSource { .. } => "ExchangeSource",
        PhysicalNode::HashJoin { .. } => "HashJoinProbe",
        node => node.name(),
    }
}

/// Splits a fragment into its pipelines at hash-join build sides. Producer
/// pipelines precede their consumers; the final pipeline ends in
/// [`Sink::Output`].
pub fn split_pipelines(fragment: &PlanFragment) -> Result<Vec<PipelineSpec>> {
    let mut splitter = Splitter::default();
    let mut run = Run::default();
    splitter.build(&fragment.root, &mut run)?;
    splitter.finish(run, Sink::Output);
    Ok(splitter.pipelines)
}

/// The child stages a join build consumes, each with its join's id: the
/// `RemoteSource` of every pipeline that ends in [`Sink::JoinBuild`]. One
/// task per node drains such an edge into the table every task of the
/// stage on that node probes, so the edge has one consumer slot per node,
/// and a task spawned mid-query reads no exchange of its own.
pub fn build_inputs(pipelines: &[PipelineSpec]) -> Vec<(StageId, usize)> {
    pipelines
        .iter()
        .filter_map(|p| match (p.nodes.first().map(|n| &**n), &p.sink) {
            (
                Some(PhysicalNode::RemoteSource { child_stage, .. }),
                Sink::JoinBuild { join, .. },
            ) => Some((*child_stage, *join)),
            _ => None,
        })
        .collect()
}

/// Whether the nodes after a final aggregate (of `width` output columns,
/// the first `group_count` of them its group columns) carry its rows,
/// through Filters and Projects of plain column references, into a TopN or
/// Sort whose keys include every group column. Two groups then differ in a
/// sort key, and keys compare by `Value::total_cmp` — under which a NULL
/// and a value, and any two distinct float bit patterns, are unequal — so
/// the sort leaves no tie for arrival order to break.
fn sort_covers_groups(downstream: &[Arc<PhysicalNode>], group_count: usize, width: usize) -> bool {
    // For each column of the stream, the aggregate column it copies.
    let mut origin: Vec<Option<usize>> = (0..width).map(Some).collect();
    for node in downstream {
        match &**node {
            PhysicalNode::Filter { .. } => {}
            PhysicalNode::Project { exprs, .. } => {
                origin = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(c) => origin.get(*c).copied().flatten(),
                        _ => None,
                    })
                    .collect();
            }
            PhysicalNode::TopN { keys, .. } | PhysicalNode::Sort { keys, .. } => {
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

/// The nodes and probe join ids of a pipeline under construction.
#[derive(Default)]
struct Run {
    nodes: Vec<Arc<PhysicalNode>>,
    probes: Vec<usize>,
}

#[derive(Default)]
struct Splitter {
    /// Completed pipelines, in execution order.
    pipelines: Vec<PipelineSpec>,
    joins: usize,
}

impl Splitter {
    /// Appends `node`'s subtree, source first, to the pipeline `run` it
    /// belongs to, finishing first every build pipeline it depends on.
    fn build(&mut self, node: &Arc<PhysicalNode>, run: &mut Run) -> Result<()> {
        match &**node {
            // One driver sees every row whatever the partitioning, so the
            // operators above stay globally correct.
            PhysicalNode::LocalExchange { input, .. } => return self.build(input, run),
            PhysicalNode::Exchange { .. } => {
                return Err(AccordionError::Plan(
                    "fragment contains an uncut Exchange — run StageTree::build first".into(),
                ))
            }
            PhysicalNode::HashJoin {
                probe, build, on, ..
            } => {
                let join = self.joins;
                self.joins += 1;
                let mut build_run = Run::default();
                self.build(build, &mut build_run)?;
                let keys = on.iter().map(|&(_, b)| b).collect();
                self.finish(build_run, Sink::JoinBuild { join, keys });
                self.build(probe, run)?;
                run.probes.push(join);
            }
            // A source has no input; every other operator streams its one.
            _ => {
                for input in node.children() {
                    self.build(input, run)?;
                }
            }
        }
        run.nodes.push(node.clone());
        Ok(())
    }

    fn finish(&mut self, run: Run, sink: Sink) {
        self.pipelines.push(PipelineSpec {
            id: PipelineId(self.pipelines.len() as u32),
            nodes: run.nodes,
            probes: run.probes,
            sink,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{StageKind, StageTree};
    use crate::physical::Partitioning;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::sort::SortKey;
    use accordion_data::types::DataType;

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
            Partitioning::Hash {
                keys: vec![0],
                partitions: 2,
            },
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
