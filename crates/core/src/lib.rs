//! Multi-client query server for the Accordion IQRE engine.
//!
//! This crate turns the library stack — `accordion-sql` front-end over the
//! `accordion-cluster` elastic executor — into a network service:
//!
//! - [`protocol`] — the line-oriented text protocol (greeting, `OK` /
//!   `RESULT`+CSV+`END` / `ERR` frames).
//! - [`session`] — per-connection `SET` variables (`deadline_ms`,
//!   `elasticity`, `dop`, `nodes`) and how they become per-query
//!   [`ExecOptions`].
//! - [`server`] — [`QueryServer`]: thread-per-connection sessions
//!   multiplexed over **one shared** [`QueryExecutor`] worker pool, with
//!   graceful shutdown that poisons in-flight queries.
//! - [`client`] — a small blocking [`Client`] for tests, the CLI, and
//!   examples.
//! - [`dist`] — process-per-node execution: the [`Worker`] node (one
//!   address serving query sessions, which carry pages, split claims and
//!   the coordinator's WIRE/GO/JOIN) and the
//!   [`Fleet`] through which a coordinating node — a server session with
//!   `SET nodes` — drives worker processes through a distributed query.
//!
//! The `accordion-core` binary wraps this into `server`, `client` and
//! `worker` subcommands (TPC-H data baked in at a chosen scale factor).
//!
//! ```no_run
//! use std::sync::Arc;
//! use accordion_cluster::QueryExecutor;
//! use accordion_core::{Client, QueryServer, ServerConfig};
//! use accordion_storage::catalog::Catalog;
//!
//! let catalog = Arc::new(Catalog::new());
//! let mut server = QueryServer::start(
//!     catalog,
//!     QueryExecutor::default(),
//!     ServerConfig::default(),
//!     "127.0.0.1:0",
//! )
//! .unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.send("SET dop = 2").unwrap();
//! server.shutdown();
//! ```
//!
//! [`ExecOptions`]: accordion_exec::ExecOptions
//! [`QueryExecutor`]: accordion_cluster::QueryExecutor

pub mod client;
pub mod dist;
mod explain;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, Response, ResultSet};
pub use dist::{DistributedRun, Fleet, Worker};
pub use server::{QueryServer, ServerConfig};
pub use session::SessionVars;
