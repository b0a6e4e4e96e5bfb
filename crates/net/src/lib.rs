//! Data-plane network: the streaming shuffle exchange.
//!
//! This crate is the push/pull boundary between concurrently running tasks
//! — the decoupling the paper's intra-query elasticity is built on. Stages
//! no longer hand fully materialized page maps to their consumers; data
//! streams page-by-page through exchange endpoints:
//!
//! * [`exchange`] — the [`ExchangeWriter`]/[`ExchangeReader`] traits
//!   (page-granular, bounded, blocking, with `Page::End` as the in-band
//!   termination signal) and the [`ExchangeRegistry`] that wires each
//!   stage's output to its consumer tasks under a [`RoutePolicy`]
//!   (gather/broadcast or hash: the plan's
//!   `accordion_data::hash::Partitioning` under its exchange name); a
//!   node's writers of a stage are one producer of its output, however
//!   many tasks it runs.
//! * [`buffer`] — the paper's elastic buffers (§4.2.2): per-(task,
//!   partition) [`ElasticQueue`]s that start at **one page** and grow on
//!   consumer-side demand up to the `NetworkConfig` limit, blocking
//!   producers for backpressure. Waits yield the scheduler's compute-slot
//!   semaphore, keeping bounded buffers deadlock-free on a fixed pool.
//! * [`frame`] — the one framing of node-to-node traffic,
//!   `[len][kind][payload]`: the only frame reader and writer, the only
//!   dialer ([`FrameConn`](frame::FrameConn)) and accept loop
//!   ([`listen`](frame::listen), which serves the one conversation a
//!   node has, a query's session opened by HELLO), and the kind table
//!   shared by exchange pages, worker control and split claims.
//! * [`tcp`] — the real multi-node transport on that framing: one
//!   [`Session`] per (query, peer) carries a node's pages (the
//!   `accordion_data::wire` codec) under a credit window mirroring the
//!   elastic-buffer backpressure, its end frames, poison, split claims and
//!   the coordinator's WIRE, GO and JOIN into the peer's
//!   [`PageRegistries`], [`Claims`] and [`Control`] services.
//!
//! The wiring of a query is declared as an [`ExchangeTopology`]: one
//! [`EdgeSpec`] per stage output naming where every consumer slot lives
//! ([`ConsumerLoc`]), so the same registry serves single-process execution
//! (all slots local) and distributed execution (remote slots reached over
//! TCP) without the producing or consuming tasks knowing the difference.
//!
//! Error handling is cooperative: the scheduler poisons the registry on the
//! first task failure, which wakes and fails every endpoint so sibling
//! tasks unwind with the original error; in a distributed run the poison is
//! broadcast on the query's sessions to every peer node.
//!
//! [`ExchangeWriter`]: exchange::ExchangeWriter
//! [`ExchangeReader`]: exchange::ExchangeReader
//! [`ExchangeRegistry`]: exchange::ExchangeRegistry
//! [`ExchangeTopology`]: exchange::ExchangeTopology
//! [`EdgeSpec`]: exchange::EdgeSpec
//! [`ConsumerLoc`]: exchange::ConsumerLoc
//! [`RoutePolicy`]: exchange::RoutePolicy
//! [`ElasticQueue`]: buffer::ElasticQueue
//! [`PageRegistries`]: tcp::PageRegistries
//! [`Session`]: tcp::Session
//! [`Claims`]: tcp::Claims
//! [`Control`]: tcp::Control

pub mod buffer;
pub mod exchange;
pub mod frame;
pub mod tcp;

pub use buffer::ElasticQueue;
pub use exchange::{
    route_page, ConsumerLoc, EdgeSpec, ExchangeReader, ExchangeRegistry, ExchangeStats,
    ExchangeTopology, ExchangeWriter, NicModel, RoutePolicy,
};
pub use tcp::{serve_sessions, Claims, Control, PageRegistries, PageServer, Session, Wired};
