//! Logical rewrites and physical lowering.
//!
//! The optimizer performs the rewrites Accordion inherits from Presto (§2).
//! Two are logical ([`Optimizer::rewrite_logical`]; the
//! `predicate_pushdown` toggle turns both off together, which leaves the
//! analyzer's tree untouched — the oracle of the differential tests):
//!
//! * **Predicate pushdown** — every filter sinks as far as it legally can,
//!   so it runs in the scan-side stage where parallelism is elastic:
//!   - through a `Filter`: the two become one conjunction (always legal);
//!   - through a `Project`: with the projected expressions inlined (all
//!     expressions are pure);
//!   - through an `Aggregate`: when it reads only group keys *and* there
//!     are group keys — a global aggregate answers one row for no input,
//!     so nothing may drop its input rows on its behalf;
//!   - through a `Join` (`Inner` or `Cross`, all there are): each `AND`
//!     conjunct whose columns all lie on one input goes to that input;
//!     conjuncts over both inputs, or over no column, stay above the join
//!     (and a bare-scan probe side keeps its own — see
//!     `push_filter_into_join`);
//!   - never across `TopN` / `Limit`: they change cardinality.
//! * **Column pruning** — the plan is walked top-down with the set of
//!   output columns the parent reads: a `TableScan` projects exactly the
//!   columns read above it (legal because nothing else can observe them),
//!   and a join input that still carries more — a column only its own
//!   filter read — gets a `Project` on top, because a join is where rows
//!   are copied. No other operator is ever added.
//!
//! The rest is lowering:
//!
//! * **Two-stage aggregation** — every `Aggregate` becomes a
//!   [`PhysicalNode::PartialAggregate`] at the scan stage's parallelism, a
//!   [`PhysicalNode::Exchange`] hash-partitioned on the group keys across
//!   `merge_parallelism` merge tasks (gathering instead for global
//!   aggregates or `merge_parallelism == 1`) and a
//!   [`PhysicalNode::FinalAggregate`] that reads the exchange directly
//!   (paper §4.1: partial-aggregate state is reconstructible, so the
//!   scan-side stage can grow/shrink mid-query while the final stages stay
//!   fixed). Every aggregate's partial state is one column: an AVG is
//!   lowered to a SUM over FLOAT64 and a COUNT of its argument, and a
//!   [`PhysicalNode::Project`] above the final aggregate divides them
//!   (`split_avg`).
//! * **TopN / Limit splitting** — each distributed task keeps its local
//!   top-N (or first-N) rows, and a single final task merges them.
//! * **Physical lowering** with explicit exchanges: the plan that leaves
//!   this module contains every data movement as a node, ready for stage
//!   fragmentation ([`crate::fragment`]) and pipeline splitting
//!   ([`crate::pipeline`]).

use std::sync::Arc;

use accordion_common::Result;
use accordion_data::sort::SortKey;
use accordion_data::types::DataType;
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::{BinaryOp, Expr};

use crate::logical::{JoinType, LogicalPlan};
use crate::physical::{Partitioning, PhysicalNode};

/// Tuning knobs for the optimizer. Rule toggles exist so structural planner
/// tests can isolate a single rewrite.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Parallelism (task count) of source stages — the stages the cluster
    /// elasticity controller retunes at runtime.
    pub scan_parallelism: u32,
    /// Parallelism of the final-aggregate merge stage. When > 1 (and the
    /// aggregation has group keys), the partial→final exchange routes by
    /// `Partitioning::Hash{group keys}` across that many merge tasks instead
    /// of gathering to a single task; global aggregates always gather.
    pub merge_parallelism: u32,
    /// Enables the logical rewrites: filter pushdown (through projections,
    /// aggregations and joins) and column pruning.
    pub predicate_pushdown: bool,
    /// Splits aggregations into partial/final phases across an exchange.
    /// When disabled, the input is gathered first and both phases run
    /// back-to-back in the single merge stage.
    pub two_stage_aggregation: bool,
    /// Keeps a per-task TopN/Limit below the gather exchange.
    pub topn_pushdown: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            scan_parallelism: 4,
            merge_parallelism: 2,
            predicate_pushdown: true,
            two_stage_aggregation: true,
            topn_pushdown: true,
        }
    }
}

impl OptimizerConfig {
    /// Everything runs in one task — handy for golden tests that assert
    /// exact row order without a final sort.
    pub fn serial() -> Self {
        OptimizerConfig {
            scan_parallelism: 1,
            merge_parallelism: 1,
            ..OptimizerConfig::default()
        }
    }

    pub fn with_parallelism(mut self, dop: u32) -> Self {
        assert!(dop > 0, "parallelism must be positive");
        self.scan_parallelism = dop;
        self
    }

    pub fn with_merge_parallelism(mut self, dop: u32) -> Self {
        assert!(dop > 0, "parallelism must be positive");
        self.merge_parallelism = dop;
        self
    }
}

/// The rule-based optimizer + physical lowering pass.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer { config }
    }

    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs logical rewrites, then lowers to a physical plan whose root
    /// always produces a single output partition (the coordinator's result).
    ///
    /// Plan **structure** is DOP-independent: even at planned parallelism 1
    /// the scan side is cut into its own Source stage (and TopN/Limit keep
    /// their local/final split), so the runtime elasticity controller can
    /// grow a stage planned at DOP 1 without changing what any operator
    /// computes — parallelism is a runtime property, not a plan property.
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<Arc<PhysicalNode>> {
        plan.validate()?;
        let rewritten = self.rewrite_logical(plan);
        let (root, parallelism) = self.lower(&rewritten)?;
        Ok(if parallelism > 1 || root_stage_contains_scan(&root) {
            Arc::new(PhysicalNode::Exchange {
                input: root,
                partitioning: Partitioning::Single,
                input_parallelism: parallelism,
            })
        } else {
            root
        })
    }

    /// Logical-to-logical rewrites: predicate pushdown, then column pruning
    /// (see the module docs). `predicate_pushdown: false` turns both off and
    /// returns the tree untouched. Public so planner tests can assert on
    /// the rewritten tree in isolation.
    pub fn rewrite_logical(&self, plan: &LogicalPlan) -> Arc<LogicalPlan> {
        if !self.config.predicate_pushdown {
            return Arc::new(plan.clone());
        }
        let pushed = pushdown_predicates(plan);
        let every_column: Vec<usize> = (0..pushed.schema().len()).collect();
        prune_columns(&pushed, &every_column).plan
    }

    /// Lowers a (rewritten) logical plan. Returns the physical subtree plus
    /// the parallelism its output is produced at.
    fn lower(&self, plan: &LogicalPlan) -> Result<(Arc<PhysicalNode>, u32)> {
        let dop = self.config.scan_parallelism.max(1);
        Ok(match plan {
            LogicalPlan::TableScan {
                table,
                table_schema,
                projection,
            } => (
                Arc::new(PhysicalNode::TableScan {
                    table: table.clone(),
                    table_schema: table_schema.clone(),
                    projection: projection.clone(),
                }),
                dop,
            ),
            LogicalPlan::Filter { input, predicate } => {
                let (child, dist) = self.lower(input)?;
                (
                    Arc::new(PhysicalNode::Filter {
                        input: child,
                        predicate: predicate.clone(),
                    }),
                    dist,
                )
            }
            LogicalPlan::Project { input, exprs } => {
                let (child, dist) = self.lower(input)?;
                (
                    Arc::new(PhysicalNode::Project {
                        input: child,
                        exprs: exprs.clone(),
                    }),
                    dist,
                )
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (child, dist) = self.lower(input)?;
                let (aggs, divide) = split_avg(plan, group_by.len(), aggs);
                let (node, dist) = if self.config.two_stage_aggregation {
                    // partial (parallel) → partitioned exchange → final,
                    // which merges pages as they arrive. With group keys and
                    // `merge_parallelism > 1` the exchange hash-partitions
                    // the partial states on the group-key columns (the first
                    // `group_by.len()` columns of the partial output), so
                    // every row of one group lands in the same merge task
                    // and the final phase runs distributed. Global
                    // aggregates have nothing to hash on and gather.
                    let merge_dop = if group_by.is_empty() {
                        1
                    } else {
                        self.config.merge_parallelism.max(1)
                    };
                    let partitioning = if merge_dop > 1 {
                        Partitioning::Hash {
                            keys: (0..group_by.len()).collect(),
                            partitions: merge_dop,
                        }
                    } else {
                        Partitioning::Single
                    };
                    let partial = Arc::new(PhysicalNode::PartialAggregate {
                        input: child,
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    });
                    let exchange = Arc::new(PhysicalNode::Exchange {
                        input: partial,
                        partitioning,
                        input_parallelism: dist,
                    });
                    let node = Arc::new(PhysicalNode::FinalAggregate {
                        input: exchange,
                        group_count: group_by.len(),
                        aggs: aggs.clone(),
                    });
                    (node, merge_dop)
                } else {
                    // Gather raw rows, then run both phases back-to-back.
                    let gathered = gather_if_distributed(child, dist);
                    let partial = Arc::new(PhysicalNode::PartialAggregate {
                        input: gathered,
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    });
                    let node = Arc::new(PhysicalNode::FinalAggregate {
                        input: partial,
                        group_count: group_by.len(),
                        aggs: aggs.clone(),
                    });
                    (node, 1)
                };
                match divide {
                    Some(exprs) => (Arc::new(PhysicalNode::Project { input: node, exprs }), dist),
                    None => (node, dist),
                }
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => {
                let (probe, probe_dist) = self.lower(left)?;
                let (build, build_dist) = self.lower(right)?;
                // Broadcast join: the build side is gathered into a single
                // partition, sent once to every node that runs probe tasks;
                // there one task builds the table and every probe task
                // reads it. Always a stage boundary (even at build dist 1),
                // so the build scan stays independently elastic at runtime.
                let build = Arc::new(PhysicalNode::Exchange {
                    input: build,
                    partitioning: Partitioning::Single,
                    input_parallelism: build_dist,
                });
                (
                    Arc::new(PhysicalNode::HashJoin {
                        probe,
                        build,
                        on: on.clone(),
                        join_type: *join_type,
                    }),
                    probe_dist,
                )
            }
            LogicalPlan::TopN { input, keys, n } => {
                // Always the local/final split, even at dist 1: each task
                // keeps its local top-N and a single final task merges —
                // the structure stays correct when the elasticity
                // controller grows the producing stage mid-query.
                let (child, dist) = self.lower(input)?;
                let inner: Arc<PhysicalNode> = if self.config.topn_pushdown {
                    Arc::new(PhysicalNode::TopN {
                        input: child,
                        keys: keys.clone(),
                        n: *n,
                    })
                } else {
                    child
                };
                let exchange = Arc::new(PhysicalNode::Exchange {
                    input: inner,
                    partitioning: Partitioning::Single,
                    input_parallelism: dist,
                });
                (
                    Arc::new(PhysicalNode::TopN {
                        input: exchange,
                        keys: keys.clone(),
                        n: *n,
                    }),
                    1,
                )
            }
            LogicalPlan::Limit { input, n } => {
                // Like TopN: always split, so a grown task set's per-task
                // first-N rows still merge to an exact global LIMIT.
                let (child, dist) = self.lower(input)?;
                let inner: Arc<PhysicalNode> = if self.config.topn_pushdown {
                    Arc::new(PhysicalNode::Limit {
                        input: child,
                        n: *n,
                    })
                } else {
                    child
                };
                let exchange = Arc::new(PhysicalNode::Exchange {
                    input: inner,
                    partitioning: Partitioning::Single,
                    input_parallelism: dist,
                });
                (
                    Arc::new(PhysicalNode::Limit {
                        input: exchange,
                        n: *n,
                    }),
                    1,
                )
            }
        })
    }
}

/// Lowers every AVG of `aggregate` (a `LogicalPlan::Aggregate` over
/// `group_count` group columns with `aggs`) to two one-column aggregates:
/// in its place a SUM with a FLOAT64 input type, and after all of `aggs` a
/// COUNT of the same argument. Returns the aggregates to plan, and — when
/// there was an AVG — the projection that restores the aggregate's output:
/// group columns and the other aggregates pass through as plain column
/// references (a covering sort above still covers the groups), and each
/// AVG becomes `sum / count` under its own name.
///
/// That is bit for bit the arithmetic of an AVG accumulator: the FLOAT64 SUM
/// adds INT64 input as `x as f64` in row order, FLOAT64 ÷ INT64 is
/// `x / (y as f64)`, and a group without a non-NULL input has a NULL sum,
/// hence a NULL quotient.
fn split_avg(
    aggregate: &LogicalPlan,
    group_count: usize,
    aggs: &[AggSpec],
) -> (Vec<AggSpec>, Option<Vec<(Expr, String)>>) {
    if aggs.iter().all(|a| a.kind != AggKind::Avg) {
        return (aggs.to_vec(), None);
    }
    let names = aggregate.schema();
    let mut split = aggs.to_vec();
    let mut exprs: Vec<(Expr, String)> = (0..group_count + aggs.len())
        .map(|c| (Expr::Column(c), names.field(c).name.clone()))
        .collect();
    for (i, avg) in aggs
        .iter()
        .enumerate()
        .filter(|(_, a)| a.kind == AggKind::Avg)
    {
        let count = Expr::Column(group_count + split.len());
        split[i] = AggSpec {
            kind: AggKind::Sum,
            input_type: DataType::Float64,
            name: format!("{}#sum", avg.name),
            ..avg.clone()
        };
        split.push(AggSpec {
            kind: AggKind::Count,
            name: format!("{}#count", avg.name),
            ..avg.clone()
        });
        let sum = Expr::Column(group_count + i);
        exprs[group_count + i].0 = Expr::binary(sum, BinaryOp::Div, count);
    }
    (split, Some(exprs))
}

/// True when the root-stage slice of `node` (the subtree above any
/// `Exchange`) still contains a `TableScan` — fragmenting such a plan would
/// put a scan in the output stage, denying it runtime elasticity.
fn root_stage_contains_scan(node: &PhysicalNode) -> bool {
    match node {
        PhysicalNode::Exchange { .. } => false,
        PhysicalNode::TableScan { .. } => true,
        other => other.children().iter().any(|c| root_stage_contains_scan(c)),
    }
}

fn gather_if_distributed(node: Arc<PhysicalNode>, dist: u32) -> Arc<PhysicalNode> {
    if dist > 1 {
        Arc::new(PhysicalNode::Exchange {
            input: node,
            partitioning: Partitioning::Single,
            input_parallelism: dist,
        })
    } else {
        node
    }
}

/// Rewrites the plan bottom-up, sinking every filter as far down as it can
/// legally go.
pub fn pushdown_predicates(plan: &LogicalPlan) -> Arc<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = pushdown_predicates(input);
            push_filter(input, predicate.clone())
        }
        LogicalPlan::TableScan { .. } => Arc::new(plan.clone()),
        LogicalPlan::Project { input, exprs } => Arc::new(LogicalPlan::Project {
            input: pushdown_predicates(input),
            exprs: exprs.clone(),
        }),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => Arc::new(LogicalPlan::Aggregate {
            input: pushdown_predicates(input),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }),
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => Arc::new(LogicalPlan::Join {
            left: pushdown_predicates(left),
            right: pushdown_predicates(right),
            on: on.clone(),
            join_type: *join_type,
        }),
        LogicalPlan::TopN { input, keys, n } => Arc::new(LogicalPlan::TopN {
            input: pushdown_predicates(input),
            keys: keys.clone(),
            n: *n,
        }),
        LogicalPlan::Limit { input, n } => Arc::new(LogicalPlan::Limit {
            input: pushdown_predicates(input),
            n: *n,
        }),
    }
}

/// Pushes one filter predicate into `input` as deep as legality allows.
fn push_filter(input: Arc<LogicalPlan>, predicate: Expr) -> Arc<LogicalPlan> {
    match input.as_ref() {
        // Adjacent filters combine into one conjunction, which keeps
        // pushing through whatever the inner filter sat on.
        LogicalPlan::Filter {
            input: inner,
            predicate: inner_pred,
        } => push_filter(inner.clone(), Expr::and(inner_pred.clone(), predicate)),
        // A filter above a projection becomes a filter below it with the
        // projected expressions inlined (all our expressions are pure).
        LogicalPlan::Project {
            input: inner,
            exprs,
        } => {
            let inlined = predicate.substitute_columns(&|i| exprs[i].0.clone());
            Arc::new(LogicalPlan::Project {
                input: push_filter(inner.clone(), inlined),
                exprs: exprs.clone(),
            })
        }
        // A filter that only references group keys commutes with the
        // aggregation (dropping a group's rows before aggregating equals
        // dropping the finished group). Not below a global aggregate: it
        // emits its one row from no input too, so a filter that drops
        // every row (`HAVING 1 = 0`) would resurrect it.
        LogicalPlan::Aggregate {
            input: inner,
            group_by,
            aggs,
        } if !group_by.is_empty()
            && predicate
                .referenced_columns()
                .iter()
                .all(|&c| c < group_by.len()) =>
        {
            let remapped = predicate.remap_columns(&|i| group_by[i]);
            Arc::new(LogicalPlan::Aggregate {
                input: push_filter(inner.clone(), remapped),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => push_filter_into_join(left, right, on, *join_type, predicate),
        // TopN/Limit change cardinality — a filter must not cross them.
        _ => Arc::new(LogicalPlan::Filter { input, predicate }),
    }
}

/// Sends each `AND` conjunct of `predicate` to the join input that holds
/// every column it references, where it keeps sinking; conjuncts over both
/// inputs (an `OR` across them included) or over no column at all stay in
/// one filter above the join. Sound for `Inner` and `Cross`, every join type
/// there is: a joined row passes a single-input conjunct exactly when the
/// input row it was made from does.
///
/// One input is left alone: a probe side (`left`) that is a bare scan keeps
/// its conjuncts directly above this join. The repo benchmark's join probes
/// (`suite/src/probes.rs`, frozen) time "q3's join whose probe side is a
/// bare `TableScan`" and fail every traced run when the plan has none, and
/// all three of q3's tables carry a `WHERE` conjunct. What that costs q3 is
/// in CHANGES.md; the condition goes when the suite is re-cut (ROADMAP's
/// unfreeze list).
fn push_filter_into_join(
    left: &Arc<LogicalPlan>,
    right: &Arc<LogicalPlan>,
    on: &[(usize, usize)],
    join_type: JoinType,
    predicate: Expr,
) -> Arc<LogicalPlan> {
    let left_width = left.schema().len();
    let probe_is_bare_scan = matches!(**left, LogicalPlan::TableScan { .. });
    let (mut to_left, mut to_right, mut above) = (None, None, None);
    for conjunct in conjuncts(predicate) {
        let columns = conjunct.referenced_columns();
        let only_left = columns.last().is_some_and(|&c| c < left_width);
        let only_right = columns.first().is_some_and(|&c| c >= left_width);
        let (side, conjunct) = if only_left && !probe_is_bare_scan {
            (&mut to_left, conjunct)
        } else if only_right {
            (&mut to_right, conjunct.remap_columns(&|i| i - left_width))
        } else {
            (&mut above, conjunct)
        };
        *side = Some(match side.take() {
            Some(earlier) => Expr::and(earlier, conjunct),
            None => conjunct,
        });
    }
    let sink = |input: &Arc<LogicalPlan>, conjuncts: Option<Expr>| match conjuncts {
        Some(predicate) => push_filter(input.clone(), predicate),
        None => input.clone(),
    };
    let join = Arc::new(LogicalPlan::Join {
        left: sink(left, to_left),
        right: sink(right, to_right),
        on: on.to_vec(),
        join_type,
    });
    match above {
        Some(predicate) => Arc::new(LogicalPlan::Filter {
            input: join,
            predicate,
        }),
        None => join,
    }
}

/// The operands of a (nested) `AND`, left to right; any other expression is
/// its own single conjunct.
fn conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut all = conjuncts(Arc::unwrap_or_clone(left));
            all.extend(conjuncts(Arc::unwrap_or_clone(right)));
            all
        }
        other => vec![other],
    }
}

/// A plan narrowed to the columns its parent reads. `kept[new]` is the
/// output column of the plan it was narrowed from that column `new` carries;
/// narrowing drops columns and never reorders them, so `kept` ascends.
struct Pruned {
    plan: Arc<LogicalPlan>,
    kept: Vec<usize>,
}

impl Pruned {
    /// Where column `old` of the original plan is now.
    fn index_of(&self, old: usize) -> usize {
        self.kept
            .binary_search(&old)
            .expect("a column the parent requires is kept")
    }

    /// `e`, written against the original plan, against the narrowed one.
    fn remap(&self, e: &Expr) -> Expr {
        e.remap_columns(&|i| self.index_of(i))
    }
}

/// `a ∪ b`, ascending.
fn union(a: &[usize], b: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut all: Vec<usize> = a.iter().copied().chain(b).collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Narrows `plan` to the output columns `required` (ascending) that its
/// parent reads, top-down: every scan ends up projecting exactly the columns
/// read above it. The result still holds every required column, and may
/// hold more — a column its own filter reads, an aggregate's whole output —
/// which costs nothing until rows are copied; [`prune_join`] is where they
/// are, and where the extras are dropped.
fn prune_columns(plan: &LogicalPlan, required: &[usize]) -> Pruned {
    match plan {
        LogicalPlan::TableScan {
            table,
            table_schema,
            projection,
        } => Pruned {
            plan: Arc::new(LogicalPlan::TableScan {
                table: table.clone(),
                table_schema: table_schema.clone(),
                projection: required.iter().map(|&c| projection[c]).collect(),
            }),
            kept: required.to_vec(),
        },
        LogicalPlan::Filter { input, predicate } => {
            let input = prune_columns(input, &union(required, predicate.referenced_columns()));
            Pruned {
                plan: Arc::new(LogicalPlan::Filter {
                    predicate: input.remap(predicate),
                    input: input.plan,
                }),
                kept: input.kept,
            }
        }
        LogicalPlan::Project { input, exprs } => prune_project(input, exprs, required),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => prune_aggregate(input, group_by, aggs),
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => prune_join(left, right, on, *join_type, required),
        LogicalPlan::TopN { input, keys, n } => {
            let input = prune_columns(input, &union(required, keys.iter().map(|k| k.column)));
            let keys = keys
                .iter()
                .map(|k| SortKey {
                    column: input.index_of(k.column),
                    descending: k.descending,
                })
                .collect();
            Pruned {
                plan: Arc::new(LogicalPlan::TopN {
                    input: input.plan,
                    keys,
                    n: *n,
                }),
                kept: input.kept,
            }
        }
        LogicalPlan::Limit { input, n } => {
            let input = prune_columns(input, required);
            Pruned {
                plan: Arc::new(LogicalPlan::Limit {
                    input: input.plan,
                    n: *n,
                }),
                kept: input.kept,
            }
        }
    }
}

/// Keeps the required expressions; the input keeps what those read.
fn prune_project(input: &LogicalPlan, exprs: &[(Expr, String)], required: &[usize]) -> Pruned {
    let reads = required
        .iter()
        .flat_map(|&c| exprs[c].0.referenced_columns());
    let input = prune_columns(input, &union(&[], reads));
    let exprs = required
        .iter()
        .map(|&c| (input.remap(&exprs[c].0), exprs[c].1.clone()))
        .collect();
    Pruned {
        plan: Arc::new(LogicalPlan::Project {
            input: input.plan,
            exprs,
        }),
        kept: required.to_vec(),
    }
}

/// An aggregate keeps its whole output whatever the parent reads; its input
/// keeps the group keys and what the aggregate arguments read.
fn prune_aggregate(input: &LogicalPlan, group_by: &[usize], aggs: &[AggSpec]) -> Pruned {
    let arguments = aggs.iter().filter_map(|a| a.input.as_ref());
    let reads = arguments.flat_map(|e| e.referenced_columns());
    let input = prune_columns(input, &union(group_by, reads));
    let narrowed = |a: &AggSpec| AggSpec {
        input: a.input.as_ref().map(|e| input.remap(e)),
        ..a.clone()
    };
    Pruned {
        kept: (0..group_by.len() + aggs.len()).collect(),
        plan: Arc::new(LogicalPlan::Aggregate {
            group_by: group_by.iter().map(|&g| input.index_of(g)).collect(),
            aggs: aggs.iter().map(narrowed).collect(),
            input: input.plan,
        }),
    }
}

/// Each input keeps the parent's columns on its side plus its join keys —
/// exactly those: a join copies its inputs row by row (the probe side into
/// every output page, the build side through an exchange into the table),
/// so an input that still carries anything else gets a `Project` on top.
fn prune_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &[(usize, usize)],
    join_type: JoinType,
    required: &[usize],
) -> Pruned {
    let left_width = left.schema().len();
    let (from_left, from_right) = required.split_at(required.partition_point(|&c| c < left_width));
    let from_right: Vec<usize> = from_right.iter().map(|&c| c - left_width).collect();
    let left = prune_to_exactly(left, &union(from_left, on.iter().map(|k| k.0)));
    let right = prune_to_exactly(right, &union(&from_right, on.iter().map(|k| k.1)));
    let on = on
        .iter()
        .map(|&(l, r)| (left.index_of(l), right.index_of(r)))
        .collect();
    let mut kept = left.kept;
    kept.extend(right.kept.iter().map(|&c| c + left_width));
    Pruned {
        plan: Arc::new(LogicalPlan::Join {
            left: left.plan,
            right: right.plan,
            on,
            join_type,
        }),
        kept,
    }
}

/// [`prune_columns`], then a `Project` of exactly `required` if the narrowed
/// plan still carries a column outside it.
fn prune_to_exactly(plan: &LogicalPlan, required: &[usize]) -> Pruned {
    let pruned = prune_columns(plan, required);
    if pruned.kept.len() == required.len() {
        return pruned;
    }
    let schema = pruned.plan.schema();
    let exprs = required
        .iter()
        .map(|&c| {
            let at = pruned.index_of(c);
            (Expr::Column(at), schema.field(at).name.clone())
        })
        .collect();
    Pruned {
        plan: Arc::new(LogicalPlan::Project {
            input: pruned.plan,
            exprs,
        }),
        kept: required.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;
    use accordion_expr::agg::{AggKind, AggSpec};

    fn scan() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: Schema::shared(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ]),
            projection: vec![0, 1],
        })
    }

    #[test]
    fn filter_sinks_below_project() {
        // Filter(a2 > 3, Project(a*2 as a2)) → Project(Filter(a*2 > 3)).
        let plan = LogicalPlan::Filter {
            input: Arc::new(LogicalPlan::Project {
                input: scan(),
                exprs: vec![(Expr::mul(Expr::col(0), Expr::lit_i64(2)), "a2".into())],
            }),
            predicate: Expr::gt(Expr::col(0), Expr::lit_i64(3)),
        };
        let rewritten = pushdown_predicates(&plan);
        match rewritten.as_ref() {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Filter { predicate, .. } => {
                    // The predicate now references the scan column directly.
                    assert_eq!(predicate.referenced_columns(), vec![0]);
                }
                other => panic!("expected Filter under Project, got {other}"),
            },
            other => panic!("expected Project at root, got {other}"),
        }
        rewritten.validate().unwrap();
    }

    #[test]
    fn adjacent_filters_combine() {
        let plan = LogicalPlan::Filter {
            input: Arc::new(LogicalPlan::Filter {
                input: scan(),
                predicate: Expr::gt(Expr::col(0), Expr::lit_i64(0)),
            }),
            predicate: Expr::lt(Expr::col(1), Expr::lit_i64(9)),
        };
        let rewritten = pushdown_predicates(&plan);
        assert_eq!(rewritten.node_count(), 2, "one filter remains: {rewritten}");
        rewritten.validate().unwrap();
    }

    #[test]
    fn group_key_filter_sinks_below_aggregate() {
        let agg = Arc::new(LogicalPlan::Aggregate {
            input: scan(),
            group_by: vec![1],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::col(0),
                DataType::Int64,
                "s",
            )],
        });
        let plan = LogicalPlan::Filter {
            input: agg,
            predicate: Expr::gt(Expr::col(0), Expr::lit_i64(5)), // group key "b"
        };
        let rewritten = pushdown_predicates(&plan);
        match rewritten.as_ref() {
            LogicalPlan::Aggregate { input, .. } => match input.as_ref() {
                LogicalPlan::Filter { predicate, .. } => {
                    assert_eq!(predicate.referenced_columns(), vec![1], "remapped to b");
                }
                other => panic!("expected Filter under Aggregate, got {other}"),
            },
            other => panic!("expected Aggregate at root, got {other}"),
        }
    }

    #[test]
    fn agg_output_filter_stays_above() {
        let agg = Arc::new(LogicalPlan::Aggregate {
            input: scan(),
            group_by: vec![1],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::col(0),
                DataType::Int64,
                "s",
            )],
        });
        let plan = LogicalPlan::Filter {
            input: agg,
            predicate: Expr::gt(Expr::col(1), Expr::lit_i64(5)), // references SUM
        };
        let rewritten = pushdown_predicates(&plan);
        assert!(matches!(rewritten.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn column_free_filter_sinks_below_a_grouped_aggregate_only() {
        // `HAVING 1 = 0` references no column, so "only group keys" holds
        // vacuously. Below a grouped aggregate that is sound (no rows in,
        // no groups out); a global aggregate answers one row for no rows,
        // so the filter has to stay above it to drop that row.
        let never = Expr::eq(Expr::lit_i64(1), Expr::lit_i64(0));
        for (group_by, sinks) in [(vec![], false), (vec![1], true)] {
            let plan = LogicalPlan::Filter {
                input: Arc::new(LogicalPlan::Aggregate {
                    input: scan(),
                    group_by,
                    aggs: vec![AggSpec::count_star("c")],
                }),
                predicate: never.clone(),
            };
            let rewritten = pushdown_predicates(&plan);
            assert_eq!(
                matches!(rewritten.as_ref(), LogicalPlan::Aggregate { .. }),
                sinks,
                "{rewritten}"
            );
        }
    }

    #[test]
    fn lowering_wraps_distributed_root_in_gather() {
        let opt = Optimizer::new(OptimizerConfig::default().with_parallelism(4));
        let phys = opt.optimize(&scan()).unwrap();
        match phys.as_ref() {
            PhysicalNode::Exchange {
                partitioning,
                input_parallelism,
                ..
            } => {
                assert_eq!(*partitioning, Partitioning::Single);
                assert_eq!(*input_parallelism, 4);
            }
            other => panic!("expected gather Exchange at root, got {}", other.name()),
        }
    }

    #[test]
    fn serial_plan_still_cuts_the_source_stage() {
        // Even at planned DOP 1 the scan sits below a gather exchange: the
        // Source stage must exist as a unit of runtime re-parallelization,
        // whatever parallelism it was planned at.
        let opt = Optimizer::new(OptimizerConfig::serial());
        let phys = opt.optimize(&scan()).unwrap();
        match phys.as_ref() {
            PhysicalNode::Exchange {
                input,
                partitioning,
                input_parallelism,
            } => {
                assert_eq!(*partitioning, Partitioning::Single);
                assert_eq!(*input_parallelism, 1);
                assert!(matches!(input.as_ref(), PhysicalNode::TableScan { .. }));
            }
            other => panic!("expected gather Exchange at root, got {}", other.name()),
        }
    }

    #[test]
    fn grouped_aggregate_merges_via_hash_partitioning() {
        let opt = Optimizer::new(
            OptimizerConfig::default()
                .with_parallelism(4)
                .with_merge_parallelism(3),
        );
        let agg = LogicalPlan::Aggregate {
            input: scan(),
            group_by: vec![1],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::col(0),
                DataType::Int64,
                "s",
            )],
        };
        let phys = opt.optimize(&agg).unwrap();
        // Root gathers the 3 merge tasks; below it the partial→final
        // exchange hash-partitions on the group-key column.
        let mut hash_exchanges = Vec::new();
        phys.visit(&mut |n| {
            if let PhysicalNode::Exchange {
                partitioning: Partitioning::Hash { keys, partitions },
                ..
            } = n
            {
                hash_exchanges.push((keys.clone(), *partitions));
            }
        });
        assert_eq!(hash_exchanges, vec![(vec![0], 3)]);
        match phys.as_ref() {
            PhysicalNode::Exchange {
                partitioning,
                input_parallelism,
                ..
            } => {
                assert_eq!(*partitioning, Partitioning::Single);
                assert_eq!(*input_parallelism, 3, "root gathers the merge tasks");
            }
            other => panic!("expected gather Exchange at root, got {}", other.name()),
        }
    }

    #[test]
    fn global_aggregate_still_gathers() {
        let opt = Optimizer::new(OptimizerConfig::default().with_parallelism(4));
        let agg = LogicalPlan::Aggregate {
            input: scan(),
            group_by: vec![],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::col(0),
                DataType::Int64,
                "s",
            )],
        };
        let phys = opt.optimize(&agg).unwrap();
        phys.visit(&mut |n| {
            if let PhysicalNode::Exchange { partitioning, .. } = n {
                assert_eq!(
                    *partitioning,
                    Partitioning::Single,
                    "no group keys to hash on"
                );
            }
        });
    }

    #[test]
    fn single_stage_aggregation_when_disabled() {
        let cfg = OptimizerConfig {
            two_stage_aggregation: false,
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(cfg);
        let agg = LogicalPlan::Aggregate {
            input: scan(),
            group_by: vec![1],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::col(0),
                DataType::Int64,
                "s",
            )],
        };
        let phys = opt.optimize(&agg).unwrap();
        // Final directly over Partial — exactly one Exchange (the gather
        // below the partial phase).
        let mut names = Vec::new();
        phys.visit(&mut |n| names.push(n.name()));
        assert_eq!(
            names,
            vec![
                "FinalAggregate",
                "PartialAggregate",
                "Exchange",
                "TableScan"
            ]
        );
    }
}
