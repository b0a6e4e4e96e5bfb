//! Table construction helpers.
//!
//! [`TableBuilder`] accumulates rows, chunks them into pages, partitions the
//! pages into a fixed number of splits (the paper's Table 1 gives each
//! table its split count, e.g. 70 for lineitem) and registers the result
//! in a [`Catalog`].

use std::sync::Arc;

use accordion_common::SplitId;
use accordion_data::page::{DataPage, PageBuilder};
use accordion_data::schema::SchemaRef;
use accordion_data::types::Value;

use crate::catalog::{Catalog, TableMeta};
use crate::split::{Split, SplitSet};

/// Chunks `pages` into `splits` splits of about equal row counts. Split
/// `i` gets id `SplitId(i)`, so the same table built twice, in one process
/// or in two, names its splits the same way.
pub fn partition_rows(table: &str, pages: Vec<DataPage>, splits: u32) -> SplitSet {
    assert!(splits > 0, "a table needs at least one split");
    let total_rows: usize = pages.iter().map(|p| p.row_count()).sum();
    let total_splits = splits as usize;
    let rows_per_split = total_rows.div_ceil(total_splits).max(1);

    // Flatten into per-split page groups of ~rows_per_split rows.
    let mut groups: Vec<Vec<DataPage>> = vec![Vec::new(); total_splits];
    let mut group_rows = vec![0usize; total_splits];
    let mut g = 0usize;
    for page in pages {
        let mut offset = 0;
        while offset < page.row_count() {
            if g < total_splits - 1 && group_rows[g] >= rows_per_split {
                g += 1;
            }
            let take = (rows_per_split.saturating_sub(group_rows[g]))
                .min(page.row_count() - offset)
                .max(1);
            groups[g].push(page.slice(offset, take));
            group_rows[g] += take;
            offset += take;
        }
    }

    let splits = groups.into_iter().enumerate().map(|(i, group)| Split {
        id: SplitId(i as u64),
        table: table.to_string(),
        rows: group.iter().map(|p| p.row_count() as u64).sum(),
        pages: Arc::new(group),
    });
    SplitSet::new(splits.collect())
}

/// Row-at-a-time table builder.
pub struct TableBuilder {
    name: String,
    schema: SchemaRef,
    builder: PageBuilder,
    pages: Vec<DataPage>,
}

impl TableBuilder {
    pub fn new(name: impl Into<String>, schema: SchemaRef, page_rows: usize) -> Self {
        let builder = PageBuilder::new(schema.clone(), page_rows);
        TableBuilder {
            name: name.into(),
            schema,
            builder,
            pages: Vec::new(),
        }
    }

    pub fn push_row(&mut self, row: Vec<Value>) {
        self.builder.push_row(row);
        if self.builder.is_full() {
            self.pages.push(self.builder.finish());
        }
    }

    pub fn row_count(&self) -> usize {
        self.pages.iter().map(|p| p.row_count()).sum::<usize>() + self.builder.row_count()
    }

    /// Finishes the table, partitions it into `splits` splits and
    /// registers it in `catalog`.
    pub fn register(mut self, catalog: &Catalog, splits: u32) -> Arc<TableMeta> {
        if !self.builder.is_empty() {
            self.pages.push(self.builder.finish());
        }
        let splits = partition_rows(&self.name, self.pages, splits);
        let meta = TableMeta {
            name: self.name.clone(),
            schema: self.schema,
            splits,
        };
        catalog.register(meta);
        catalog.get(&self.name).expect("just registered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::column::Column;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;

    fn pages(n: usize, rows_per_page: usize) -> Vec<DataPage> {
        (0..n)
            .map(|i| {
                DataPage::new(vec![Column::from_i64(
                    (0..rows_per_page as i64)
                        .map(|r| (i * rows_per_page) as i64 + r)
                        .collect(),
                )])
            })
            .collect()
    }

    #[test]
    fn partitioning_preserves_all_rows() {
        let set = partition_rows("t", pages(5, 100), 6);
        assert_eq!(set.len(), 6);
        assert_eq!(set.total_rows(), 500);
        // A split's id is its position.
        for (i, split) in set.splits().iter().enumerate() {
            assert_eq!(split.id, SplitId(i as u64));
        }
    }

    #[test]
    fn partitioning_balances_rows() {
        let set = partition_rows("t", pages(4, 50), 4);
        let sizes: Vec<u64> = set.splits().iter().map(|s| s.rows).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 200);
        for s in &sizes {
            assert!(*s >= 40 && *s <= 60, "unbalanced split: {s} rows");
        }
    }

    #[test]
    fn builder_flushes_partial_pages_and_registers() {
        let catalog = Catalog::new();
        let schema = Schema::shared(vec![Field::new("x", DataType::Int64)]);
        let mut b = TableBuilder::new("nums", schema, 4);
        for i in 0..10 {
            b.push_row(vec![Value::Int64(i)]);
        }
        assert_eq!(b.row_count(), 10);
        let meta = b.register(&catalog, 2);
        assert_eq!(meta.row_count(), 10);
        assert_eq!(meta.splits.len(), 2);
        assert!(catalog.contains("nums"));
        // Streaming all splits yields exactly the input rows.
        let mut seen = Vec::new();
        for split in meta.splits.splits() {
            let mut it = split.open(3).unwrap();
            while let Some(p) = it.next_page().unwrap() {
                seen.extend_from_slice(p.column(0).as_i64().unwrap());
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn empty_table_registers_with_empty_splits() {
        let catalog = Catalog::new();
        let schema = Schema::shared(vec![Field::new("x", DataType::Int64)]);
        let b = TableBuilder::new("empty", schema, 4);
        let meta = b.register(&catalog, 2);
        assert_eq!(meta.row_count(), 0);
    }
}
