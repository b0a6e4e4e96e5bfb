//! Vectorized executor for the Accordion IQRE engine.
//!
//! Takes the descriptive output of `accordion-plan` — a [`StageTree`] of
//! fragments, each split into pipelines of the fragment's own physical
//! nodes — and runs it against the streaming exchange endpoints of
//! `accordion-net`, whose edges route by each fragment's output
//! `Partitioning` as it stands:
//!
//! * [`operators`] — the physical operators as pull-based [`Page`] streams
//!   (scan over splits, filter, project, partial/final hash aggregation,
//!   sort, top-N, limit, hash join).
//! * [`driver`] — instantiates one pipeline's nodes into a metered
//!   operator chain and pulls it to completion into the pipeline's sink
//!   (paper §2 "Driver Execution"). A task holds an `ExchangeWriter` toward its parent stage
//!   and one `ExchangeReader` per child stage that feeds no join build;
//!   the join tables are its node's, built once (`JoinBuilds`). Every
//!   pipeline has one driver.
//! * [`executor`] — the serial in-process reference executor (stages run
//!   bottom-up in one thread, streaming through unbounded in-process
//!   exchanges) plus the exchange-wiring helpers shared with the
//!   multi-threaded scheduler in `accordion-cluster`.
//! * [`metrics`] — per-operator row/byte counters and times exposed
//!   through [`QueryResult::stats`], the per-stage scan totals the
//!   elasticity controller samples into an [`EraSample`] while a query
//!   runs, and the records it leaves: [`StageSeries`] (paper Fig 18) and
//!   every decision's [`StageView`] and [`Evaluation`].
//! * [`splits`] — the [`SplitQueue`] every scanning stage's tasks claim
//!   their splits from, in every elasticity mode, making scans resumable
//!   across mid-query DOP changes (paper Fig 13; driven by
//!   `accordion_cluster::elastic` when a controller runs).
//!
//! For concurrent stage execution on a worker pool with bounded elastic
//! buffers, use `accordion_cluster::QueryExecutor`.
//!
//! [`StageTree`]: accordion_plan::fragment::StageTree
//! [`Page`]: accordion_data::page::Page
//! [`QueryResult::stats`]: executor::QueryResult::stats

pub mod driver;
pub mod executor;
pub mod metrics;
pub mod operators;
pub mod splits;

pub use driver::{run_pipeline, run_task, JoinBuilds, TaskContext};
pub use executor::{
    drain_result, exchange_topology, execute_logical, execute_tree, ExecOptions, QueryResult,
};
pub use metrics::{
    DecisionRecord, EraSample, Evaluation, OperatorStats, QueryMetrics, QueryStats, RetuneEvent,
    StageSeries, StageView,
};
pub use operators::{JoinTable, PageStream, Selection};
pub use splits::{SplitFeed, SplitQueue, SplitSource};
