//! Columnar data plane for the Accordion IQRE engine.
//!
//! The paper's Accordion uses Apache Arrow as its data-exchange format; this
//! crate is the from-scratch substitute (see DESIGN.md §2). It provides:
//!
//! * [`types`] — the type system ([`types::DataType`], scalar
//!   [`types::Value`]s).
//! * [`mod@column`] — typed column vectors with optional validity bitmaps.
//! * [`schema`] — named, typed schemas.
//! * [`page`] — the unit of data flow between operators, drivers and tasks:
//!   a batch of rows in columnar layout plus the *marker* pages used by the
//!   end-page shutdown protocol (paper Fig 13).
//! * [`hash`] — row hashing for hash-partitioned shuffles and hash tables.
//! * [`sort`] — multi-column comparators, sorting and Top-N selection.
//! * [`rowkey`] — compact byte encodings of key columns for group-by and
//!   join hash tables.
//! * [`grouptable`] — the open-addressing raw table over encoded keys that
//!   grouped aggregation and join builds share.
//! * [`wire`] — the versioned binary page codec behind [`page::Page::encode`]
//!   / [`page::Page::decode`]: one buffer per page on the network, with a
//!   version byte and a checksum guarding every frame.

pub mod column;
pub mod grouptable;
pub mod hash;
pub mod page;
pub mod rowkey;
pub mod schema;
pub mod sort;
pub mod types;
pub mod wire;

pub use column::{Column, ColumnBuilder};
pub use page::{DataPage, Page, PageBuilder};
pub use schema::{Field, Schema, SchemaRef};
pub use types::{DataType, Value};
