//! The split model.
//!
//! A [`Split`] is the unit of table-scan work distribution: a contiguous
//! chunk of one base table. The coordinator hands splits to scan tasks
//! ("system splits", paper Fig 5); a scan task opens the split and streams
//! its pages.
//!
//! A split's id is its position in its table's [`SplitSet`], the same in
//! every process that builds the table. Its row count is known up front:
//! the what-if predictor's `V_remain` (paper §5.2) starts from the sum.

use std::sync::Arc;

use accordion_common::{AccordionError, Result, SplitId};
use accordion_data::page::DataPage;

/// One chunk of a base table.
#[derive(Debug, Clone)]
pub struct Split {
    /// The split's position in its table's [`SplitSet`].
    pub id: SplitId,
    pub table: String,
    /// The split's pages, held in memory.
    pub pages: Arc<Vec<DataPage>>,
    /// Total rows in this split.
    pub rows: u64,
}

impl Split {
    /// Opens the split as a page iterator producing pages of at most
    /// `page_rows` rows (at least one: a zero would re-chunk forever).
    pub fn open(&self, page_rows: usize) -> Result<SplitPages> {
        Ok(SplitPages {
            pages: self.pages.clone(),
            next: 0,
            page_rows: page_rows.max(1),
            pending: None,
        })
    }
}

/// Streaming page iterator over one split.
pub struct SplitPages {
    pages: Arc<Vec<DataPage>>,
    next: usize,
    page_rows: usize,
    /// Remainder of a stored page larger than `page_rows`.
    pending: Option<(DataPage, usize)>,
}

impl SplitPages {
    /// Next page, or `None` when the split is exhausted.
    pub fn next_page(&mut self) -> Result<Option<DataPage>> {
        loop {
            if let Some((page, offset)) = self.pending.take() {
                let take = (page.row_count() - offset).min(self.page_rows);
                let out = page.slice(offset, take);
                if offset + take < page.row_count() {
                    self.pending = Some((page, offset + take));
                }
                return Ok(Some(out));
            }
            let Some(page) = self.pages.get(self.next).cloned() else {
                return Ok(None);
            };
            self.next += 1;
            if page.row_count() == 0 {
                continue;
            }
            if page.row_count() <= self.page_rows {
                return Ok(Some(page));
            }
            self.pending = Some((page, 0));
        }
    }
}

/// An ordered collection of splits for one table, with totals. Split `i`
/// has id `SplitId(i)`.
#[derive(Debug, Clone, Default)]
pub struct SplitSet {
    splits: Vec<Split>,
}

impl SplitSet {
    pub fn new(splits: Vec<Split>) -> Self {
        SplitSet { splits }
    }

    pub fn splits(&self) -> &[Split] {
        &self.splits
    }

    pub fn len(&self) -> usize {
        self.splits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    pub fn total_rows(&self) -> u64 {
        self.splits.iter().map(|s| s.rows).sum()
    }

    /// The split with id `id`, which is its position in this set.
    pub fn get(&self, id: SplitId) -> Result<&Split> {
        self.splits
            .get(id.0 as usize)
            .filter(|s| s.id == id)
            .ok_or_else(|| AccordionError::Storage(format!("unknown split {id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_common::SplitId;
    use accordion_data::column::Column;

    fn mem_split(id: u64, pages: Vec<DataPage>) -> Split {
        let rows = pages.iter().map(|p| p.row_count() as u64).sum();
        Split {
            id: SplitId(id),
            table: "t".into(),
            pages: Arc::new(pages),
            rows,
        }
    }

    fn page(vals: Vec<i64>) -> DataPage {
        DataPage::new(vec![Column::from_i64(vals)])
    }

    #[test]
    fn zero_page_rows_yields_every_row_once_then_ends() {
        // `page_rows` 0 used to re-chunk a remainder into empty pages
        // forever; it now means one row per page.
        let s = mem_split(0, vec![page(vec![1, 2, 3]), page(vec![4])]);
        let mut it = s.open(0).unwrap();
        let mut all = Vec::new();
        for _ in 0..4 {
            let p = it.next_page().unwrap().expect("a page per row");
            all.extend_from_slice(p.column(0).as_i64().unwrap());
        }
        assert_eq!(all, vec![1, 2, 3, 4]);
        assert!(it.next_page().unwrap().is_none());
    }

    #[test]
    fn memory_split_streams_all_rows() {
        let s = mem_split(0, vec![page(vec![1, 2, 3]), page(vec![4])]);
        let mut it = s.open(10).unwrap();
        let mut rows = 0;
        while let Some(p) = it.next_page().unwrap() {
            rows += p.row_count();
        }
        assert_eq!(rows, 4);
    }

    #[test]
    fn memory_split_rechunks_large_pages() {
        let s = mem_split(0, vec![page((0..10).collect())]);
        let mut it = s.open(4).unwrap();
        let mut sizes = Vec::new();
        let mut all = Vec::new();
        while let Some(p) = it.next_page().unwrap() {
            sizes.push(p.row_count());
            all.extend_from_slice(p.column(0).as_i64().unwrap());
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(all, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn memory_split_skips_empty_pages() {
        let s = mem_split(0, vec![page(vec![]), page(vec![7])]);
        let mut it = s.open(4).unwrap();
        let p = it.next_page().unwrap().unwrap();
        assert_eq!(p.row_count(), 1);
        assert!(it.next_page().unwrap().is_none());
    }

    #[test]
    fn split_set_totals_and_lookup() {
        let set = SplitSet::new(vec![
            mem_split(0, vec![page(vec![1, 2])]),
            mem_split(1, vec![page(vec![3])]),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_rows(), 3);
        assert_eq!(set.get(SplitId(1)).unwrap().rows, 1);
        assert!(set.get(SplitId(2)).is_err());
    }
}
