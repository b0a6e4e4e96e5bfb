//! Stage fragmentation (paper Fig 4).
//!
//! The physical plan is cut at every [`PhysicalNode::Exchange`] into a tree
//! of [`PlanFragment`]s: each fragment is the unit of distributed scheduling
//! (a *stage*), runs `parallelism` tasks, and streams its output — shaped by
//! `output_partitioning` — into the parent stage's tasks. Inside each
//! fragment the cut point is replaced by a [`PhysicalNode::RemoteSource`]
//! leaf naming the child stage.
//!
//! Stage numbering follows the paper's Figure 4: the root/output stage is
//! stage 0, child stages are numbered in depth-first discovery order.

use std::fmt;
use std::sync::Arc;

use accordion_common::{AccordionError, Result, StageId};
use accordion_data::schema::Schema;

use crate::physical::{Partitioning, PhysicalNode};
use crate::pipeline::{build_inputs, split_pipelines};

/// Role of a stage in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// The root stage: produces the query result at parallelism 1.
    Output,
    /// A leaf-side stage scanning one table; the elastic stages whose DOP
    /// the paper tunes at runtime.
    Source,
    /// An interior stage fed only by remote exchanges.
    Intermediate,
}

/// Runtime DOP bounds of an elastic Source stage: the range the elasticity
/// controller may retune the stage's task count within (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DopBounds {
    pub min: u32,
    pub max: u32,
}

impl DopBounds {
    pub fn new(min: u32, max: u32) -> Self {
        let min = min.max(1);
        DopBounds {
            min,
            max: max.max(min),
        }
    }

    /// Clamps a candidate DOP into the bounds.
    pub fn clamp(&self, dop: u32) -> u32 {
        dop.clamp(self.min, self.max)
    }
}

/// Largest runtime DOP of an elastic stage whose planned parallelism is
/// smaller.
pub const DEFAULT_MAX_ELASTIC_DOP: u32 = 8;

/// One stage: a connected piece of the physical plan between exchanges.
#[derive(Debug, Clone)]
pub struct PlanFragment {
    pub stage: StageId,
    /// Fragment-local plan; `Exchange` cut points appear as `RemoteSource`.
    pub root: Arc<PhysicalNode>,
    /// Number of tasks this stage starts with: all it runs, unless
    /// `elastic_bounds` lets the controller grow or shrink it mid-query.
    pub parallelism: u32,
    pub kind: StageKind,
    /// Stages feeding this one, in the order their `RemoteSource` leaves
    /// appear in `root`.
    pub child_stages: Vec<StageId>,
    /// How this stage's tasks partition their output for the parent stage
    /// (`Single` for the root: the coordinator reads one result stream).
    pub output_partitioning: Partitioning,
    /// Runtime DOP bounds when this stage is eligible for intra-query
    /// re-parallelization: a Source stage whose child exchanges all feed
    /// join builds (so a task set can grow or shrink between splits: a
    /// grown task probes its node's tables and replays no remote input).
    /// `None` pins the planned DOP.
    pub elastic_bounds: Option<DopBounds>,
}

impl PlanFragment {
    /// Output schema of the fragment.
    pub fn schema(&self) -> Schema {
        self.root.schema()
    }

    pub fn is_output(&self) -> bool {
        self.kind == StageKind::Output
    }

    /// The table this stage scans, if any. [`StageTree::build`] refuses a
    /// stage that scans more than one, so every task of the stage claims
    /// from one split queue: this table's.
    pub fn scan_table(&self) -> Option<String> {
        self.root.scan_tables().pop()
    }
}

/// The fragmented plan: stage 0 is the output stage.
#[derive(Debug, Clone)]
pub struct StageTree {
    fragments: Vec<PlanFragment>,
}

impl StageTree {
    /// Cuts `root` at its exchanges. The root fragment always runs at
    /// parallelism 1 (the optimizer gathers distributed plans first). A
    /// stage that would scan more than one table is a [`Plan`] error: the
    /// optimizer never emits one, and a stage's tasks claim from one pool.
    ///
    /// [`Plan`]: AccordionError::Plan
    pub fn build(root: Arc<PhysicalNode>) -> Result<StageTree> {
        let mut cutter = Cutter {
            next_id: 1,
            fragments: Vec::new(),
        };
        cutter.cut_fragment(StageId(0), &root, 1, Partitioning::Single)?;
        cutter.fragments.sort_by_key(|f| f.stage);
        // Ids are dense by construction; double-check before handing the
        // tree to the executor, which indexes stage outputs by id.
        for (i, f) in cutter.fragments.iter().enumerate() {
            if f.stage.0 as usize != i {
                return Err(AccordionError::Internal(format!(
                    "non-dense stage numbering: slot {i} holds {}",
                    f.stage
                )));
            }
        }
        Ok(StageTree {
            fragments: cutter.fragments,
        })
    }

    /// The output fragment (stage 0).
    pub fn root(&self) -> &PlanFragment {
        &self.fragments[0]
    }

    pub fn fragment(&self, stage: StageId) -> Result<&PlanFragment> {
        self.fragments
            .get(stage.0 as usize)
            .ok_or_else(|| AccordionError::Plan(format!("unknown stage {stage}")))
    }

    pub fn fragments(&self) -> &[PlanFragment] {
        &self.fragments
    }

    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Stages in a valid execution order: every stage appears after all of
    /// its children. (A parent's id is always smaller than its children's —
    /// ids are allocated while cutting the parent — so descending id order
    /// is such an order.)
    pub fn execution_order(&self) -> Vec<StageId> {
        let mut ids: Vec<StageId> = self.fragments.iter().map(|f| f.stage).collect();
        ids.sort_by(|a, b| b.cmp(a));
        ids
    }

    /// Multi-fragment EXPLAIN rendering.
    pub fn display(&self) -> String {
        let mut out = String::new();
        for f in &self.fragments {
            let elastic = match f.elastic_bounds {
                Some(b) => format!(" elastic[{}..={}]", b.min, b.max),
                None => String::new(),
            };
            out.push_str(&format!(
                "Stage {} [{:?}] x{}{} → {}\n",
                f.stage.0, f.kind, f.parallelism, elastic, f.output_partitioning
            ));
            for line in f.root.display().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

impl fmt::Display for StageTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

struct Cutter {
    next_id: u32,
    fragments: Vec<PlanFragment>,
}

impl Cutter {
    fn cut_fragment(
        &mut self,
        stage: StageId,
        root: &Arc<PhysicalNode>,
        parallelism: u32,
        output_partitioning: Partitioning,
    ) -> Result<()> {
        let mut child_stages = Vec::new();
        let stripped = self.strip(root, &mut child_stages)?;
        let scans = stripped.scan_tables();
        if scans.len() > 1 {
            return Err(AccordionError::Plan(format!(
                "stage {stage} scans {} tables ({}); a stage claims its splits from one pool",
                scans.len(),
                scans.join(", ")
            )));
        }
        let kind = if stage.0 == 0 {
            StageKind::Output
        } else if scans.is_empty() {
            StageKind::Intermediate
        } else {
            StageKind::Source
        };
        let parallelism = parallelism.max(1);
        let mut fragment = PlanFragment {
            stage,
            root: stripped,
            parallelism,
            kind,
            child_stages,
            output_partitioning,
            elastic_bounds: None,
        };
        // A stage is runtime-elastic when growing/shrinking its task set
        // between splits cannot lose or duplicate work: its one table's
        // unconsumed splits are a single queue, and every child exchange
        // feeds a join build, whose table the node's tasks share — a task
        // spawned mid-query probes it and has no buffer to replay.
        let builds = build_inputs(&split_pipelines(&fragment)?);
        let mut children = fragment.child_stages.iter();
        if kind == StageKind::Source && children.all(|c| builds.iter().any(|(b, _)| b == c)) {
            fragment.elastic_bounds =
                Some(DopBounds::new(1, parallelism.max(DEFAULT_MAX_ELASTIC_DOP)));
        }
        self.fragments.push(fragment);
        Ok(())
    }

    /// Rebuilds `node` with every `Exchange` replaced by a `RemoteSource`,
    /// recursively fragmenting the subtree below each cut.
    fn strip(
        &mut self,
        node: &Arc<PhysicalNode>,
        child_stages: &mut Vec<StageId>,
    ) -> Result<Arc<PhysicalNode>> {
        match node.as_ref() {
            PhysicalNode::Exchange {
                input,
                partitioning,
                input_parallelism,
            } => {
                let child_stage = StageId(self.next_id);
                self.next_id += 1;
                child_stages.push(child_stage);
                let schema = input.schema();
                self.cut_fragment(child_stage, input, *input_parallelism, partitioning.clone())?;
                Ok(Arc::new(PhysicalNode::RemoteSource {
                    child_stage,
                    schema,
                }))
            }
            PhysicalNode::RemoteSource { .. } => Err(AccordionError::Plan(
                "plan already fragmented: unexpected RemoteSource".into(),
            )),
            PhysicalNode::TableScan { .. } => Ok(node.clone()),
            PhysicalNode::Filter { input, predicate } => Ok(Arc::new(PhysicalNode::Filter {
                input: self.strip(input, child_stages)?,
                predicate: predicate.clone(),
            })),
            PhysicalNode::Project { input, exprs } => Ok(Arc::new(PhysicalNode::Project {
                input: self.strip(input, child_stages)?,
                exprs: exprs.clone(),
            })),
            PhysicalNode::PartialAggregate {
                input,
                group_by,
                aggs,
            } => Ok(Arc::new(PhysicalNode::PartialAggregate {
                input: self.strip(input, child_stages)?,
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            })),
            PhysicalNode::FinalAggregate {
                input,
                group_count,
                aggs,
            } => Ok(Arc::new(PhysicalNode::FinalAggregate {
                input: self.strip(input, child_stages)?,
                group_count: *group_count,
                aggs: aggs.clone(),
            })),
            PhysicalNode::HashJoin { probe, build, on } => Ok(Arc::new(PhysicalNode::HashJoin {
                probe: self.strip(probe, child_stages)?,
                build: self.strip(build, child_stages)?,
                on: on.clone(),
            })),
            PhysicalNode::LocalExchange {
                input,
                partitioning,
            } => Ok(Arc::new(PhysicalNode::LocalExchange {
                input: self.strip(input, child_stages)?,
                partitioning: partitioning.clone(),
            })),
            PhysicalNode::Sort { input, keys } => Ok(Arc::new(PhysicalNode::Sort {
                input: self.strip(input, child_stages)?,
                keys: keys.clone(),
            })),
            PhysicalNode::TopN { input, keys, n } => Ok(Arc::new(PhysicalNode::TopN {
                input: self.strip(input, child_stages)?,
                keys: keys.clone(),
                n: *n,
            })),
            PhysicalNode::Limit { input, n } => Ok(Arc::new(PhysicalNode::Limit {
                input: self.strip(input, child_stages)?,
                n: *n,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;

    fn scan() -> Arc<PhysicalNode> {
        Arc::new(PhysicalNode::TableScan {
            table: "t".into(),
            table_schema: Schema::shared(vec![Field::new("a", DataType::Int64)]),
            projection: vec![0],
        })
    }

    #[test]
    fn unfragmented_plan_is_one_output_stage() {
        let tree = StageTree::build(scan()).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root().kind, StageKind::Output);
        assert!(tree.root().child_stages.is_empty());
        assert_eq!(tree.execution_order(), vec![StageId(0)]);
    }

    #[test]
    fn exchange_cuts_into_two_stages() {
        let plan = Arc::new(PhysicalNode::Exchange {
            input: scan(),
            partitioning: Partitioning::Single,
            input_parallelism: 3,
        });
        let tree = StageTree::build(plan).unwrap();
        assert_eq!(tree.len(), 2);
        let root = tree.root();
        assert_eq!(root.parallelism, 1);
        assert_eq!(root.child_stages, vec![StageId(1)]);
        assert!(matches!(
            root.root.as_ref(),
            PhysicalNode::RemoteSource { child_stage, .. } if *child_stage == StageId(1)
        ));
        let child = tree.fragment(StageId(1)).unwrap();
        assert_eq!(child.kind, StageKind::Source);
        assert_eq!(child.parallelism, 3);
        assert_eq!(child.output_partitioning, Partitioning::Single);
        // Children execute before parents.
        assert_eq!(tree.execution_order(), vec![StageId(1), StageId(0)]);
    }

    #[test]
    fn nested_exchanges_number_depth_first() {
        // Exchange(Exchange(scan)) → stages 0,1,2 with 2 the innermost.
        let plan = Arc::new(PhysicalNode::Exchange {
            input: Arc::new(PhysicalNode::Exchange {
                input: scan(),
                partitioning: Partitioning::Single,
                input_parallelism: 4,
            }),
            partitioning: Partitioning::Single,
            input_parallelism: 1,
        });
        let tree = StageTree::build(plan).unwrap();
        assert_eq!(tree.len(), 3);
        assert_eq!(
            tree.fragment(StageId(1)).unwrap().kind,
            StageKind::Intermediate
        );
        assert_eq!(tree.fragment(StageId(2)).unwrap().kind, StageKind::Source);
        assert_eq!(tree.fragment(StageId(2)).unwrap().parallelism, 4);
        assert_eq!(
            tree.execution_order(),
            vec![StageId(2), StageId(1), StageId(0)]
        );
    }

    #[test]
    fn a_stage_scanning_two_tables_is_a_plan_error() {
        let join = Arc::new(PhysicalNode::HashJoin {
            probe: scan(),
            build: Arc::new(PhysicalNode::TableScan {
                table: "u".into(),
                table_schema: Schema::shared(vec![Field::new("b", DataType::Int64)]),
                projection: vec![0],
            }),
            on: vec![(0, 0)],
        });
        let plan = Arc::new(PhysicalNode::Exchange {
            input: join,
            partitioning: Partitioning::Single,
            input_parallelism: 2,
        });
        match StageTree::build(plan) {
            Err(AccordionError::Plan(msg)) => {
                assert!(msg.contains("stage S1") && msg.contains("t, u"), "{msg}")
            }
            other => panic!("expected a plan error, got {other:?}"),
        }
    }

    #[test]
    fn refragmenting_errors() {
        let plan = Arc::new(PhysicalNode::RemoteSource {
            child_stage: StageId(1),
            schema: Schema::empty(),
        });
        assert!(StageTree::build(plan).is_err());
    }
}
