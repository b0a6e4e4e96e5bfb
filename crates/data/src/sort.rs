//! Multi-column sorting and Top-N selection.
//!
//! Used by the ORDER BY / TopN operators (e.g. TPC-H Q3's
//! `ORDER BY revenue DESC, o_orderdate LIMIT 10`).
//!
//! Every ordering decision is one of two typed comparators, each exactly
//! [`Value::total_cmp`] of the cells it reads, without building a `Value`:
//! [`cmp_cells`] (cell against cell — full sorts) and [`cmp_cell_value`]
//! (cell against an owned value — a Top-N candidate against the worst row
//! kept so far). Only a row that enters the Top-N heap is materialised.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::column::Column;
use crate::page::DataPage;
use crate::types::Value;

/// One ORDER BY term: a column index plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub column: usize,
    pub descending: bool,
}

impl SortKey {
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            descending: false,
        }
    }

    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            descending: true,
        }
    }
}

/// [`Value::total_cmp`] of cell `ra` of `a` and cell `rb` of `b`, read from
/// the typed vectors: NULL sorts first, floats by `f64::total_cmp`, Int64
/// against Float64 as f64, strings by bytes, and any other pair of types is
/// `Equal`.
pub fn cmp_cells(a: &Column, ra: usize, b: &Column, rb: usize) -> Ordering {
    match (a.is_valid(ra), b.is_valid(rb)) {
        (true, true) => {}
        (va, vb) => return va.cmp(&vb),
    }
    match (a, b) {
        (Column::Int64(x, _), Column::Int64(y, _)) => x[ra].cmp(&y[rb]),
        (Column::Date32(x, _), Column::Date32(y, _)) => x[ra].cmp(&y[rb]),
        (Column::Float64(x, _), Column::Float64(y, _)) => x[ra].total_cmp(&y[rb]),
        (Column::Bool(x, _), Column::Bool(y, _)) => x[ra].cmp(&y[rb]),
        (Column::Utf8(x, _), Column::Utf8(y, _)) => x.bytes(ra).cmp(y.bytes(rb)),
        (Column::Int64(x, _), Column::Float64(y, _)) => (x[ra] as f64).total_cmp(&y[rb]),
        (Column::Float64(x, _), Column::Int64(y, _)) => x[ra].total_cmp(&(y[rb] as f64)),
        _ => Ordering::Equal,
    }
}

/// [`Value::total_cmp`] of cell `row` of `col` and `v`, read from the typed
/// vector — the same rules as [`cmp_cells`], against an owned value.
pub fn cmp_cell_value(col: &Column, row: usize, v: &Value) -> Ordering {
    match (col.is_valid(row), v.is_null()) {
        (true, false) => {}
        (valid, null) => return valid.cmp(&!null),
    }
    match (col, v) {
        (Column::Int64(x, _), Value::Int64(y)) => x[row].cmp(y),
        (Column::Date32(x, _), Value::Date32(y)) => x[row].cmp(y),
        (Column::Float64(x, _), Value::Float64(y)) => x[row].total_cmp(y),
        (Column::Bool(x, _), Value::Bool(y)) => x[row].cmp(y),
        (Column::Utf8(x, _), Value::Utf8(y)) => x.bytes(row).cmp(y.as_bytes()),
        (Column::Int64(x, _), Value::Float64(y)) => (x[row] as f64).total_cmp(y),
        (Column::Float64(x, _), Value::Int64(y)) => x[row].total_cmp(&(*y as f64)),
        _ => Ordering::Equal,
    }
}

/// A key comparison turned the way the key sorts.
fn directed(descending: bool, ord: Ordering) -> Ordering {
    if descending {
        ord.reverse()
    } else {
        ord
    }
}

/// Compares row `a` of `pa` with row `b` of `pb` under `keys`.
pub fn compare_rows(
    pa: &DataPage,
    a: usize,
    pb: &DataPage,
    b: usize,
    keys: &[SortKey],
) -> Ordering {
    keys.iter()
        .map(|k| {
            let ord = cmp_cells(pa.column(k.column), a, pb.column(k.column), b);
            directed(k.descending, ord)
        })
        .find(|ord| ord.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Fully sorts a page by `keys`, returning a new page.
pub fn sort_page(page: &DataPage, keys: &[SortKey]) -> DataPage {
    let mut indices: Vec<u32> = (0..page.row_count() as u32).collect();
    indices.sort_by(|&a, &b| compare_rows(page, a as usize, page, b as usize, keys));
    page.gather(&indices)
}

/// Streaming Top-N accumulator: feeds pages in, keeps the N smallest rows
/// under `keys` (i.e. the first N of the total order — for DESC keys this is
/// the "largest" in user terms).
///
/// Once the heap holds `n` rows, a candidate's key cells are compared in
/// place against the heap root's key values ([`cmp_cell_value`]); a row
/// that is not strictly better than the root is skipped without building
/// anything. That is the same test the heap itself would make, so the heap
/// sees the same pushes and pops as if every row were materialised — the
/// rows kept, ties at the cut included, do not change.
#[derive(Debug)]
pub struct TopNAccumulator {
    keys: Vec<SortKey>,
    /// `keys`' directions, shared by every heap row.
    descending: Arc<[bool]>,
    n: usize,
    /// Max-heap of (row values snapshot). The heap root is the *worst* of
    /// the current top-N, evicted when a better row arrives.
    heap: BinaryHeap<HeapRow>,
}

#[derive(Debug)]
struct HeapRow {
    sort_values: Vec<Value>,
    full_row: Vec<Value>,
    descending: Arc<[bool]>,
}

impl HeapRow {
    fn cmp_keys(&self, other: &Self) -> Ordering {
        self.sort_values
            .iter()
            .zip(&other.sort_values)
            .zip(self.descending.iter())
            .map(|((a, b), &desc)| directed(desc, a.total_cmp(b)))
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialEq for HeapRow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_keys(other) == Ordering::Equal
    }
}
impl Eq for HeapRow {}
impl PartialOrd for HeapRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRow {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_keys(other)
    }
}

impl TopNAccumulator {
    pub fn new(keys: Vec<SortKey>, n: usize) -> Self {
        TopNAccumulator {
            descending: keys.iter().map(|k| k.descending).collect(),
            keys,
            n,
            heap: BinaryHeap::new(),
        }
    }

    /// Number of rows currently retained (≤ n).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Feeds a page of candidate rows.
    pub fn push_page(&mut self, page: &DataPage) {
        if self.n == 0 {
            return;
        }
        let key_cols: Vec<(&Column, bool)> = self
            .keys
            .iter()
            .map(|k| (page.column(k.column), k.descending))
            .collect();
        for row in 0..page.row_count() {
            if self.heap.len() == self.n {
                let worst = self
                    .heap
                    .peek()
                    .expect("a full heap of n > 0 rows has a root");
                let beats_worst = key_cols
                    .iter()
                    .zip(&worst.sort_values)
                    .map(|(&(col, desc), v)| directed(desc, cmp_cell_value(col, row, v)))
                    .find(|ord| ord.is_ne())
                    == Some(Ordering::Less);
                if !beats_worst {
                    continue;
                }
                self.heap.pop();
            }
            let full_row = page.row(row);
            let sort_values = self
                .keys
                .iter()
                .map(|k| full_row[k.column].clone())
                .collect();
            self.heap.push(HeapRow {
                sort_values,
                full_row,
                descending: self.descending.clone(),
            });
        }
    }

    /// Extracts the retained rows in sorted order.
    pub fn finish_rows(self) -> Vec<Vec<Value>> {
        let mut rows: Vec<HeapRow> = self.heap.into_vec();
        rows.sort_by(|a, b| a.cmp_keys(b));
        rows.into_iter().map(|r| r.full_row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(keys: Vec<i64>, payload: Vec<i64>) -> DataPage {
        DataPage::new(vec![Column::from_i64(keys), Column::from_i64(payload)])
    }

    #[test]
    fn sort_asc_desc() {
        let p = page(vec![3, 1, 2], vec![30, 10, 20]);
        let asc = sort_page(&p, &[SortKey::asc(0)]);
        assert_eq!(asc.column(1).as_i64().unwrap(), &[10, 20, 30]);
        let desc = sort_page(&p, &[SortKey::desc(0)]);
        assert_eq!(desc.column(1).as_i64().unwrap(), &[30, 20, 10]);
    }

    #[test]
    fn sort_multi_key_with_ties() {
        let p = DataPage::new(vec![
            Column::from_i64(vec![1, 1, 0]),
            Column::from_strings(&["b", "a", "z"]),
        ]);
        let sorted = sort_page(&p, &[SortKey::asc(0), SortKey::asc(1)]);
        assert_eq!(
            sorted.column(1).value(0),
            Value::Utf8("z".into()),
            "key 0 dominates"
        );
        assert_eq!(sorted.column(1).value(1), Value::Utf8("a".into()));
        assert_eq!(sorted.column(1).value(2), Value::Utf8("b".into()));
    }

    #[test]
    fn topn_matches_full_sort() {
        let keys = vec![SortKey::desc(0)];
        let p1 = page(vec![5, 1, 9], vec![50, 10, 90]);
        let p2 = page(vec![7, 3, 8], vec![70, 30, 80]);
        let mut acc = TopNAccumulator::new(keys.clone(), 3);
        acc.push_page(&p1);
        acc.push_page(&p2);
        let rows = acc.finish_rows();
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![9, 8, 7]);
    }

    #[test]
    fn topn_smaller_than_n() {
        let mut acc = TopNAccumulator::new(vec![SortKey::asc(0)], 10);
        acc.push_page(&page(vec![2, 1], vec![0, 0]));
        assert_eq!(acc.len(), 2);
        let rows = acc.finish_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int64(1));
    }

    #[test]
    fn topn_zero_keeps_nothing() {
        let mut acc = TopNAccumulator::new(vec![SortKey::asc(0)], 0);
        acc.push_page(&page(vec![1, 2, 3], vec![0, 0, 0]));
        assert!(acc.is_empty());
        assert!(acc.finish_rows().is_empty());
    }

    #[test]
    fn compare_rows_across_pages() {
        let a = page(vec![1], vec![0]);
        let b = page(vec![2], vec![0]);
        assert_eq!(
            compare_rows(&a, 0, &b, 0, &[SortKey::asc(0)]),
            Ordering::Less
        );
        assert_eq!(
            compare_rows(&a, 0, &b, 0, &[SortKey::desc(0)]),
            Ordering::Greater
        );
    }
}
