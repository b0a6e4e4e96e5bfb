//! Common foundation types for the Accordion IQRE engine.
//!
//! This crate holds the vocabulary shared by every layer of the engine:
//!
//! * [`id`] — strongly-typed identifiers for stages, pipelines, cluster
//!   nodes and splits, and the FNV-1a fingerprint ([`fnv1a`]).
//! * [`error`] — the engine-wide error enum and `Result` alias.
//! * [`config`] — the configuration every layer reads: network and
//!   exchange-buffer parameters, elasticity and admission settings.
//! * [`clock`] — a clock abstraction so that time-dependent logic (rate
//!   meters, the what-if predictor, the auto-tuner) can be unit-tested with a
//!   manual clock and run in production against the wall clock.
//! * [`json`] — a zero-dependency JSON value model, deterministic writer
//!   and strict parser, behind `QueryStats::to_json` and the repo
//!   benchmark's reports.
//! * [`metrics`] — lock-free counters and the time-series point the
//!   elasticity controller records its runtime info in (paper Fig 18).
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
pub use config::{AdmissionConfig, ElasticityConfig, ElasticityMode, NetworkConfig};
pub use error::{AccordionError, Result};
pub use id::{fnv1a, NodeId, PipelineId, SplitId, StageId};
pub use json::Json;
