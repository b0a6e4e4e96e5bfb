//! Umbrella crate for the Accordion IQRE engine.
//!
//! Re-exports every layer under one name so integration code (and the
//! examples in later PRs) can depend on a single crate:
//!
//! ```
//! use accordion::plan::LogicalPlanBuilder;
//! use accordion::storage::Catalog;
//! let _ = (Catalog::new(), LogicalPlanBuilder::scan);
//! ```

pub use accordion_cluster as cluster;
pub use accordion_common as common;
pub use accordion_core as server;
pub use accordion_data as data;
pub use accordion_exec as exec;
pub use accordion_expr as expr;
pub use accordion_net as net;
pub use accordion_plan as plan;
pub use accordion_sql as sql;
pub use accordion_storage as storage;
pub use accordion_tpch as tpch;
