//! Storage layer: catalog and in-memory table splits.
//!
//! The paper stores TPC-H tables as CSV files manually divided into splits
//! on storage nodes separate from the compute nodes (Table 1). This crate
//! keeps each table's split count but holds every split's pages in memory,
//! in every process (tables are generated, not read from files):
//!
//! * [`catalog`] — table metadata registry shared by the analyzer, planner
//!   and scheduler.
//! * [`split`] — the **system split** model (paper §2 "Driver Execution"):
//!   a split is a chunk of a base table, named by its position in the
//!   table; scan tasks fetch and process splits. Splits carry row counts so
//!   the progress monitor can compute `V_remain` for the what-if predictor
//!   (§5.2).
//! * [`table`] — helpers to build in-memory tables, partition them into a
//!   table's splits and register them in the catalog.

pub mod catalog;
pub mod split;
pub mod table;

pub use catalog::{Catalog, TableMeta};
pub use split::{Split, SplitSet};
pub use table::{partition_rows, TableBuilder};
