//! Query planning for the Accordion IQRE engine.
//!
//! The crate follows the paper's Presto-derived pipeline (§2):
//!
//! 1. A [`logical::LogicalPlan`] is built (by the SQL front-end or the
//!    [`builder::LogicalPlanBuilder`] API).
//! 2. The [`optimizer`] applies the logical rewrites (predicate pushdown,
//!    column pruning) and lowers to a [`physical::PhysicalNode`] tree
//!    containing explicit **Exchange** nodes: two-stage aggregation,
//!    broadcast joins and local/final Top-N and Limit.
//! 3. The [`fragment`] module cuts the physical plan at Exchange nodes into a
//!    stage tree ([`fragment::StageTree`], paper Fig 4) of plan fragments.
//! 4. The [`pipeline`] module splits each fragment into pipelines (paper
//!    Fig 6) at the one pipeline breaker, the hash-join build side.
//!
//! The output of this crate is *descriptive*: each pipeline is a run of the
//! fragment's own physical nodes, which the `accordion-exec` driver
//! instantiates into running operators.

pub mod builder;
pub mod catalog;
pub mod fragment;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod pipeline;

pub use builder::LogicalPlanBuilder;
pub use catalog::Catalog;
pub use fragment::{PlanFragment, StageKind, StageTree};
pub use logical::LogicalPlan;
pub use optimizer::{Optimizer, OptimizerConfig};
pub use physical::{Partitioning, PhysicalNode};
pub use pipeline::{build_inputs, split_pipelines, PipelineSpec, Sink};
