//! Query planning for the Accordion IQRE engine.
//!
//! The crate follows the paper's Presto-derived pipeline (§2):
//!
//! 1. A [`logical::LogicalPlan`] is built (by the SQL front-end or the
//!    [`builder::LogicalPlanBuilder`] API).
//! 2. The [`optimizer`] applies rewrite rules (predicate pushdown, two-stage
//!    aggregation, broadcast-vs-partitioned join selection, optional elastic
//!    shuffle-stage insertion §4.6) and lowers to a [`physical::PhysicalNode`]
//!    tree containing explicit **Exchange** nodes.
//! 3. The [`fragment`] module cuts the physical plan at Exchange nodes into a
//!    stage tree ([`fragment::StageTree`], paper Fig 4) of plan fragments.
//! 4. The [`pipeline`] module rewrites each fragment into pipelines (paper
//!    Fig 6) by splitting at the one pipeline breaker, the hash-join build
//!    side.
//!
//! The output of this crate is *descriptive*: operator **specs** that the
//! `accordion-exec` crate instantiates into running operators/drivers.

pub mod builder;
pub mod catalog;
pub mod fragment;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod pipeline;

pub use builder::LogicalPlanBuilder;
pub use catalog::{Catalog, MemoryCatalog, TableRef};
pub use fragment::{PlanFragment, StageKind, StageTree};
pub use logical::{JoinType, LogicalPlan};
pub use optimizer::{Optimizer, OptimizerConfig};
pub use physical::{Partitioning, PhysicalNode};
pub use pipeline::{build_inputs, split_pipelines, OperatorSpec, PipelineSpec};
