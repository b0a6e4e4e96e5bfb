//! Table catalog.
//!
//! The catalog is shared by the SQL analyzer and the planner, which read
//! only table schemas (through [`Catalog::get`]), and by the
//! scheduler, which enumerates a scanning stage's splits.

use std::collections::BTreeMap;
use std::sync::Arc;

use accordion_common::sync::RwLock;
use accordion_common::{AccordionError, Result};
use accordion_data::schema::SchemaRef;

use crate::split::SplitSet;

/// Metadata of one registered table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub name: String,
    pub schema: SchemaRef,
    pub splits: SplitSet,
}

impl TableMeta {
    pub fn row_count(&self) -> u64 {
        self.splits.total_rows()
    }
}

/// Thread-safe table registry. Cheap to clone (shared internals).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Arc<RwLock<BTreeMap<String, Arc<TableMeta>>>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table. Names are case-insensitive and
    /// stored lower-case, matching common SQL engines.
    pub fn register(&self, meta: TableMeta) {
        let key = meta.name.to_ascii_lowercase();
        self.tables.write().insert(key, Arc::new(meta));
    }

    /// Looks up a table by name (case-insensitive).
    pub fn get(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| AccordionError::Analysis(format!("table '{name}' does not exist")))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;

    fn meta(name: &str) -> TableMeta {
        TableMeta {
            name: name.to_string(),
            schema: Schema::shared(vec![Field::new("x", DataType::Int64)]),
            splits: SplitSet::default(),
        }
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let c = Catalog::new();
        c.register(meta("Lineitem"));
        assert!(c.contains("lineitem"));
        assert!(c.contains("LINEITEM"));
        let t = c.get("lineItem").unwrap();
        assert_eq!(t.name, "Lineitem");
        assert!(c.get("orders").is_err());
    }

    #[test]
    fn replace_and_enumerate() {
        let c = Catalog::new();
        c.register(meta("a"));
        c.register(meta("b"));
        c.register(meta("a")); // replace
        assert_eq!(c.len(), 2);
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert!(!c.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let c = Catalog::new();
        let c2 = c.clone();
        c.register(meta("t"));
        assert!(c2.contains("t"));
    }
}
