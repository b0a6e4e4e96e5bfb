//! Common foundation types for the Accordion IQRE engine.
//!
//! This crate holds the vocabulary shared by every layer of the engine:
//!
//! * [`id`] — strongly-typed identifiers for queries, stages, tasks,
//!   pipelines, drivers, output buffers, cluster nodes and splits. The
//!   textual forms follow the paper's conventions (e.g. task `3_0` is task 0
//!   of stage 3).
//! * [`error`] — the engine-wide error enum and `Result` alias.
//! * [`config`] — the configuration every layer reads: network and
//!   exchange-buffer parameters, elasticity and admission settings.
//! * [`clock`] — a clock abstraction so that time-dependent logic (rate
//!   meters, the what-if predictor, the auto-tuner) can be unit-tested with a
//!   manual clock and run in production against the wall clock.
//! * [`json`] — a zero-dependency JSON value model, deterministic writer
//!   and strict parser, used by the bench harness's `BENCH_*.json` files.
//! * [`metrics`] — lock-free counters, gauges, windowed rate meters and a
//!   time-series recorder used by the runtime information collector
//!   (paper §5.1, Fig 18).
//! * [`sync`] — poison-ignoring `Mutex`/`RwLock` wrappers over `std::sync`
//!   used throughout the engine (no external locking dependency).

pub mod clock;
pub mod config;
pub mod error;
pub mod id;
pub mod json;
pub mod metrics;
pub mod sync;

pub use clock::{Clock, ManualClock, SharedClock, SystemClock};
pub use config::{
    AdmissionConfig, AdmissionPolicy, ElasticityConfig, ElasticityMode, NetworkConfig,
};
pub use error::{AccordionError, Result};
pub use id::{
    BufferId, DriverId, NodeId, PipelineId, PlanNodeId, QueryId, SplitId, StageId, TaskId,
};
pub use json::Json;
