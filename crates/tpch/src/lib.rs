//! Deterministic TPC-H data generation.
//!
//! The paper's experiments (§7) run TPC-H-shaped analytical queries over
//! tables laid out across storage nodes per its Table 1. This crate
//! reproduces that setup in-process and without external dependencies:
//!
//! * [`gen`] — a deterministic, seeded generator for the seven-table TPC-H
//!   schema at a selectable scale factor. The same `(scale_factor, seed)`
//!   pair always produces byte-identical tables (pinned by per-table row
//!   counts and content checksums), so benchmark runs are reproducible
//!   across machines and sessions.
//! * [`schemas`] — the Table 1 column lists the generator builds from.
//!
//! The evaluation queries themselves are SQL text: `benchmarks/sql/q1.sql`,
//! `q3.sql` and `q6.sql`.

pub mod gen;
pub mod schemas;

pub use gen::{generate, TableSummary, TpchData, TpchOptions};
