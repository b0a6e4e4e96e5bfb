//! Name-to-schema resolution for plan construction.
//!
//! The planner (and above it the SQL analyzer) resolves a table name through
//! the storage layer's registry, [`Catalog::get`], and reads only the
//! table's canonical name and schema; an unknown name is an analysis error,
//! `table 'x' does not exist`. A table registered with no splits
//! (`TableMeta { name, schema, splits: SplitSet::default() }`) is enough to
//! parse, analyze and plan against.

pub use accordion_storage::catalog::Catalog;
