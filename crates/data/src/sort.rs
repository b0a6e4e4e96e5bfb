//! Multi-column sorting and Top-N selection.
//!
//! Used by the ORDER BY / TopN operators (e.g. TPC-H Q3's
//! `ORDER BY revenue DESC, o_orderdate LIMIT 10`).
//!
//! Every ordering decision is [`cmp_cells`], which orders two cells read
//! from their typed vectors exactly as the scalar type's `total_cmp` would
//! order them, without building a scalar. Rows stay in typed pages: a full
//! sort gathers its input once in sorted order, and a Top-N keeps its
//! candidates as pages and sorts them the same way.

use std::cmp::Ordering;

use crate::column::Column;
use crate::page::DataPage;

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

/// The scalar `total_cmp` of cell `ra` of `a` and cell `rb` of `b`, read from
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

/// Streaming Top-N accumulator: a stable sort of every row fed in, cut
/// after the first `n` — whole rows, ties at the cut going to the earliest
/// arrival — that keeps at most `2n` candidate rows.
///
/// Candidates are typed pages in arrival order. Once more than `2n` rows
/// are held they are sorted (stably) and cut back to `n`, into one page
/// that goes first: its rows arrived before any later candidate, and ties
/// among them are in arrival order. From then on a row is a candidate only
/// if it sorts strictly before that page's last row, the current `n`-th:
/// a row that ties with it arrived later and can never make the cut. With
/// `n = usize::MAX` nothing is ever cut, and this is one typed sort.
#[derive(Debug)]
pub struct TopNAccumulator {
    keys: Vec<SortKey>,
    n: usize,
    /// Candidate rows in arrival order; after a cut, `pages[0]` holds the
    /// `n` best rows so far, sorted.
    pages: Vec<DataPage>,
    rows: usize,
    cut: bool,
}

impl TopNAccumulator {
    pub fn new(keys: Vec<SortKey>, n: usize) -> Self {
        TopNAccumulator {
            keys,
            n,
            pages: Vec::new(),
            rows: 0,
            cut: false,
        }
    }

    /// Number of rows [`finish`](Self::finish) returns.
    pub fn len(&self) -> usize {
        self.rows.min(self.n)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds a page of candidate rows.
    pub fn push_page(&mut self, page: &DataPage) {
        if self.n == 0 || page.is_empty() {
            return;
        }
        let page = match self.pages.first().filter(|_| self.cut) {
            None => page.clone(),
            Some(best) => {
                let nth = best.row_count() - 1;
                let better: Vec<u32> = (0..page.row_count() as u32)
                    .filter(|&row| compare_rows(page, row as usize, best, nth, &self.keys).is_lt())
                    .collect();
                match better.len() {
                    0 => return,
                    all if all == page.row_count() => page.clone(),
                    _ => page.gather(&better),
                }
            }
        };
        self.rows += page.row_count();
        self.pages.push(page);
        if self.rows > self.n.saturating_mul(2) {
            let best = self.sorted().slice(0, self.n);
            self.pages = vec![best];
            self.rows = self.n;
            self.cut = true;
        }
    }

    /// Every candidate row in one page, stably sorted.
    fn sorted(&self) -> DataPage {
        let pages: Vec<&DataPage> = self.pages.iter().collect();
        sort_page(&DataPage::concat(&pages), &self.keys)
    }

    /// The first `n` rows in order, in pages of `page_rows` rows.
    pub fn finish(self, page_rows: usize) -> Vec<DataPage> {
        if self.pages.is_empty() {
            return Vec::new();
        }
        let sorted = self.sorted();
        let len = self.len();
        let page_rows = page_rows.max(1);
        (0..len)
            .step_by(page_rows)
            .map(|at| sorted.slice(at, page_rows.min(len - at)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

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

    /// Column `col` of the pages `finish` returned, as one vector.
    fn ints(pages: &[DataPage], col: usize) -> Vec<i64> {
        pages
            .iter()
            .flat_map(|p| p.column(col).as_i64().unwrap().to_vec())
            .collect()
    }

    #[test]
    fn topn_matches_full_sort() {
        let keys = vec![SortKey::desc(0)];
        let p1 = page(vec![5, 1, 9], vec![50, 10, 90]);
        let p2 = page(vec![7, 3, 8], vec![70, 30, 80]);
        let mut acc = TopNAccumulator::new(keys.clone(), 3);
        acc.push_page(&p1);
        acc.push_page(&p2);
        let pages = acc.finish(2);
        assert_eq!(
            pages.iter().map(DataPage::row_count).collect::<Vec<_>>(),
            vec![2, 1]
        );
        assert_eq!(ints(&pages, 0), vec![9, 8, 7]);
        assert_eq!(ints(&pages, 1), vec![90, 80, 70]);
    }

    #[test]
    fn topn_smaller_than_n() {
        let mut acc = TopNAccumulator::new(vec![SortKey::asc(0)], 10);
        acc.push_page(&page(vec![2, 1], vec![0, 0]));
        assert_eq!(acc.len(), 2);
        let pages = acc.finish(8);
        assert_eq!(ints(&pages, 0), vec![1, 2]);
    }

    #[test]
    fn topn_zero_keeps_nothing() {
        let mut acc = TopNAccumulator::new(vec![SortKey::asc(0)], 0);
        acc.push_page(&page(vec![1, 2, 3], vec![0, 0, 0]));
        assert!(acc.is_empty());
        assert!(acc.finish(8).is_empty());
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
