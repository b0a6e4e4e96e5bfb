//! Cluster scheduling: concurrent multi-task query execution.
//!
//! This crate turns the planning stack's [`StageTree`] into running
//! queries: the [`QueryExecutor`] launches every stage's tasks as soon as
//! their inputs exist (with streaming exchanges — immediately), runs them
//! gated by a fixed pool of `worker_threads` compute slots, streams pages
//! between concurrently running tasks through the elastic exchange buffers
//! of `accordion-net`, and propagates the first task failure by poisoning
//! every exchange so sibling tasks unwind.
//!
//! There is **one runner** ([`scheduler`]), parameterised by placement
//! ([`dist`]): a query executes as node `n` of `N` — a single process is
//! node 0 of 1 — and the runner starts only the tasks placed on its node.
//! The scheduler's module docs say what node 0 does that the others do
//! not, and what a process's one executor shares across its queries.
//!
//! The serial reference executor lives in `accordion_exec::executor`; both
//! drive the identical [`TaskContext`]/driver machinery, so any query that
//! runs on one produces the same result set on the other — the invariant
//! the scheduling-determinism test suite pins down.
//!
//! Every scanning stage's tasks claim their splits from one shared queue,
//! in every mode. When [`ExecOptions::elasticity`] enables the controller,
//! the [`elastic`] module adds the paper's headline mechanism on top: the
//! [`ElasticityController`] retunes eligible Source stages' degree of
//! parallelism **between splits** — growing or shrinking the live task set over the streaming
//! exchange endpoints without losing or duplicating a page.
//!
//! [`StageTree`]: accordion_plan::fragment::StageTree
//! [`TaskContext`]: accordion_exec::driver::TaskContext
//! [`ExecOptions::elasticity`]: accordion_exec::executor::ExecOptions

pub mod admission;
pub mod dist;
pub mod elastic;
pub mod scheduler;

pub use admission::{AdmissionController, AdmissionPermit, AdmissionStats};
pub use dist::{
    distributed_topology, plan_fingerprint, task_node, ClaimMsg, DistRole, RemoteSplitSource,
    SplitQueues, SplitServer,
};
pub use elastic::{ElasticityController, StageControl, WhatIfPredictor};
pub use scheduler::{NodeQuery, QueryExecutor};
