//! Pages — the unit of data flow.
//!
//! In the paper's execution model (§2), table-scan data chunks are divided
//! into pages which travel between physical operators and between tasks
//! (through task output buffers and exchange operators). Accordion
//! additionally uses special **end pages** to close drivers and tasks
//! gracefully at runtime (§4.3, Fig 13) — that is what makes mid-query DOP
//! reduction safe.
//!
//! [`Page`] is therefore an enum: a data batch, or an end marker. Data pages
//! are `Arc`-shared so broadcast replication and the intermediate-data cache
//! (Fig 17) never deep-copy.

use std::fmt;
use std::sync::Arc;

use crate::column::{Column, ColumnBuilder};
use crate::schema::SchemaRef;
use crate::types::Value;

/// A batch of rows in columnar layout. All columns have the same length.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPage {
    columns: Vec<Column>,
    row_count: usize,
    byte_size: usize,
}

impl DataPage {
    pub fn new(columns: Vec<Column>) -> Self {
        let row_count = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            assert_eq!(c.len(), row_count, "ragged page: column length mismatch");
        }
        let byte_size = columns.iter().map(|c| c.byte_size()).sum();
        DataPage {
            columns,
            row_count,
            byte_size,
        }
    }

    /// A page with no columns but a positive row count — used by
    /// `SELECT count(*)`-style plans where only cardinality matters.
    pub fn row_count_only(row_count: usize) -> Self {
        DataPage {
            columns: vec![],
            row_count,
            byte_size: 0,
        }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Approximate in-memory size; drives byte-based buffer accounting.
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    /// Materializes row `i` as owned scalars (testing / result display path).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows as owned scalars — convenient for assertions in tests.
    /// `Value` stays here: the frozen suite's oracle compares these rows.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.row_count).map(|i| self.row(i)).collect()
    }

    /// Gathers `indices` from every column into a new page.
    pub fn gather(&self, indices: &[u32]) -> DataPage {
        if self.columns.is_empty() {
            return DataPage::row_count_only(indices.len());
        }
        DataPage::new(self.columns.iter().map(|c| c.gather(indices)).collect())
    }

    /// Contiguous row range as a new page.
    pub fn slice(&self, offset: usize, len: usize) -> DataPage {
        assert!(offset + len <= self.row_count, "slice out of bounds");
        if self.columns.is_empty() {
            return DataPage::row_count_only(len);
        }
        DataPage::new(self.columns.iter().map(|c| c.slice(offset, len)).collect())
    }

    /// Keeps only columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> DataPage {
        let cols: Vec<Column> = indices.iter().map(|&i| self.columns[i].clone()).collect();
        if cols.is_empty() {
            DataPage::row_count_only(self.row_count)
        } else {
            DataPage::new(cols)
        }
    }

    /// Vertically concatenates pages with identical layouts.
    pub fn concat(pages: &[&DataPage]) -> DataPage {
        assert!(!pages.is_empty());
        let ncols = pages[0].num_columns();
        if ncols == 0 {
            return DataPage::row_count_only(pages.iter().map(|p| p.row_count()).sum());
        }
        let mut cols = Vec::with_capacity(ncols);
        for ci in 0..ncols {
            let parts: Vec<&Column> = pages.iter().map(|p| p.column(ci)).collect();
            cols.push(Column::concat(&parts));
        }
        DataPage::new(cols)
    }
}

/// Why an end page was emitted — provenance helps debugging the relay
/// protocol and is asserted on in tests. Mirrors the paper's list of end
/// page producers (§4.3 "End page").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// Table scan exhausted its splits.
    ScanExhausted,
    /// An upstream task output buffer finished or was asked to close a
    /// downstream consumer.
    UpstreamFinished,
    /// The engine asked this driver to shut down (DOP decrease).
    EndSignal,
}

/// Marker that terminates a page stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndPage {
    pub reason: EndReason,
}

/// The unit of flow between operators: either a shared data batch or an end
/// marker ("no more pages", Fig 5).
#[derive(Debug, Clone, PartialEq)]
pub enum Page {
    Data(Arc<DataPage>),
    End(EndPage),
}

impl Page {
    pub fn data(page: DataPage) -> Page {
        Page::Data(Arc::new(page))
    }

    pub fn end(reason: EndReason) -> Page {
        Page::End(EndPage { reason })
    }

    pub fn is_end(&self) -> bool {
        matches!(self, Page::End(_))
    }

    pub fn as_data(&self) -> Option<&Arc<DataPage>> {
        match self {
            Page::Data(d) => Some(d),
            Page::End(_) => None,
        }
    }

    pub fn row_count(&self) -> usize {
        match self {
            Page::Data(d) => d.row_count(),
            Page::End(_) => 0,
        }
    }

    pub fn byte_size(&self) -> usize {
        match self {
            Page::Data(d) => d.byte_size(),
            Page::End(_) => 0,
        }
    }

    /// Encodes this page as one contiguous wire frame (see [`crate::wire`]
    /// for the layout). This is the engine's **only** page serialization
    /// entry point — transports add an outer length prefix and ship the
    /// buffer verbatim. An end page has no wire form and encodes to no
    /// bytes, which [`Page::decode`] refuses.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_page(self)
    }

    /// Decodes a data page produced by [`Page::encode`]. Truncated, corrupt
    /// or version-mismatched input returns a typed
    /// [`accordion_common::AccordionError::Wire`] — never a panic.
    pub fn decode(bytes: &[u8]) -> accordion_common::Result<Page> {
        crate::wire::decode_data(bytes).map(Page::Data)
    }
}

impl fmt::Display for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Page::Data(d) => write!(f, "Page[{} rows, {} B]", d.row_count(), d.byte_size()),
            Page::End(e) => write!(f, "EndPage[{:?}]", e.reason),
        }
    }
}

/// Row-at-a-time page builder bound to a schema. Flushes into a [`DataPage`]
/// when `target_rows` is reached. `Value` stays here: it is the row-in
/// entry for the TPC-H generator and test fixtures.
#[derive(Debug)]
pub struct PageBuilder {
    schema: SchemaRef,
    builders: Vec<ColumnBuilder>,
    target_rows: usize,
}

impl PageBuilder {
    pub fn new(schema: SchemaRef, target_rows: usize) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, target_rows))
            .collect();
        PageBuilder {
            schema,
            builders,
            target_rows,
        }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Appends one row; panics when arity mismatches the schema.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.builders.len(), "row arity mismatch");
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push(v);
        }
    }

    pub fn row_count(&self) -> usize {
        self.builders.first().map_or(0, |b| b.len())
    }

    pub fn is_full(&self) -> bool {
        self.row_count() >= self.target_rows
    }

    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Takes the accumulated rows as a page, resetting the builder.
    pub fn finish(&mut self) -> DataPage {
        let builders = std::mem::replace(
            &mut self.builders,
            self.schema
                .fields()
                .iter()
                .map(|f| ColumnBuilder::new(f.data_type, self.target_rows))
                .collect(),
        );
        DataPage::new(builders.into_iter().map(|b| b.finish()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    fn sample_page() -> DataPage {
        DataPage::new(vec![
            Column::from_i64(vec![1, 2, 3]),
            Column::from_strings(&["a", "b", "c"]),
        ])
    }

    #[test]
    fn page_accessors() {
        let p = sample_page();
        assert_eq!(p.row_count(), 3);
        assert_eq!(p.num_columns(), 2);
        assert!(!p.is_empty());
        assert_eq!(
            p.row(1),
            vec![Value::Int64(2), Value::Utf8("b".to_string())]
        );
        assert!(p.byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "ragged page")]
    fn ragged_page_panics() {
        DataPage::new(vec![
            Column::from_i64(vec![1]),
            Column::from_i64(vec![1, 2]),
        ]);
    }

    #[test]
    fn gather_slice_project_concat() {
        let p = sample_page();
        let g = p.gather(&[2, 0]);
        assert_eq!(g.row(0), vec![Value::Int64(3), Value::Utf8("c".into())]);
        let s = p.slice(1, 2);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row(0)[0], Value::Int64(2));
        let pr = p.project(&[1]);
        assert_eq!(pr.num_columns(), 1);
        assert_eq!(pr.row(2), vec![Value::Utf8("c".into())]);
        let c = DataPage::concat(&[&p, &s]);
        assert_eq!(c.row_count(), 5);
        assert_eq!(c.row(4)[0], Value::Int64(3));
    }

    #[test]
    fn row_count_only_pages() {
        let p = DataPage::row_count_only(42);
        assert_eq!(p.row_count(), 42);
        assert_eq!(p.num_columns(), 0);
        assert_eq!(p.byte_size(), 0);
        let s = p.slice(0, 10);
        assert_eq!(s.row_count(), 10);
        let g = p.gather(&[0, 1, 2]);
        assert_eq!(g.row_count(), 3);
    }

    #[test]
    fn end_pages() {
        let e = Page::end(EndReason::EndSignal);
        assert!(e.is_end());
        assert_eq!(e.row_count(), 0);
        assert_eq!(e.byte_size(), 0);
        assert!(e.as_data().is_none());
        let d = Page::data(sample_page());
        assert!(!d.is_end());
        assert_eq!(d.row_count(), 3);
    }

    #[test]
    fn page_builder_flushes() {
        let schema = Schema::shared(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = PageBuilder::new(schema, 2);
        assert!(b.is_empty());
        b.push_row(vec![Value::Int64(1), Value::Float64(0.5)]);
        assert!(!b.is_full());
        b.push_row(vec![Value::Int64(2), Value::Null]);
        assert!(b.is_full());
        let page = b.finish();
        assert_eq!(page.row_count(), 2);
        assert_eq!(page.column(1).null_count(), 1);
        assert!(b.is_empty(), "builder resets after finish");
    }

    #[test]
    fn shared_pages_clone_cheaply() {
        let p = Page::data(sample_page());
        let q = p.clone();
        if let (Page::Data(a), Page::Data(b)) = (&p, &q) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected data pages");
        }
    }
}
