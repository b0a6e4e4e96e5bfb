//! Typed column vectors.
//!
//! A [`Column`] stores one attribute of a page in a dense, type-specialized
//! vector plus an optional validity bitmap (absent bitmap = all valid).
//! Columns are immutable once built; operators create new columns with the
//! typed `gather`/`slice`/`concat`/`interleave` kernels (`slice` and
//! `concat` share one typed range copy). [`ColumnBuilder`] is the row-in
//! entry for pages built from `Value`s.
//!
//! Kernels read the typed vectors and combine validity word-wise
//! ([`Validity::and`]); a null row's data slot is a don't-care. A
//! [`Utf8Column`] keeps its arena as a `String`: UTF-8 is checked once, where
//! bytes enter (a `&str` push, or `Utf8Column::from_raw` for bytes off the
//! wire), so reading a value is a slice, never a re-validation.

use std::ops::Range;
use std::sync::Arc;

use crate::types::{DataType, Value};

/// Validity bitmap: bit `i` set ⇒ row `i` is non-null.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validity {
    bits: Vec<u64>,
    len: usize,
}

impl Validity {
    pub fn new_all_valid(len: usize) -> Self {
        Validity {
            bits: vec![u64::MAX; len.div_ceil(64)],
            len,
        }
    }

    pub fn new_all_null(len: usize) -> Self {
        Validity {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Bitmap of `len` rows with row `i` valid iff `valid(i)`, built a word
    /// at a time.
    pub fn from_fn(len: usize, mut valid: impl FnMut(usize) -> bool) -> Self {
        let bits = (0..len.div_ceil(64))
            .map(|w| {
                let base = w * 64;
                (base..len.min(base + 64))
                    .fold(0u64, |word, i| word | (valid(i) as u64) << (i - base))
            })
            .collect();
        Validity { bits, len }
    }

    /// Rows valid in both operands — the null rule of every binary kernel.
    /// An absent bitmap is all-valid, so the other side's is shared as is.
    pub fn and(a: Option<&Arc<Validity>>, b: Option<&Arc<Validity>>) -> Option<Arc<Validity>> {
        match (a, b) {
            (None, v) | (v, None) => v.cloned(),
            (Some(a), Some(b)) => {
                debug_assert_eq!(a.len, b.len);
                let bits = a.bits.iter().zip(&b.bits).map(|(x, y)| x & y).collect();
                Some(Arc::new(Validity { bits, len: a.len }))
            }
        }
    }

    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        if valid {
            self.bits[w] |= 1 << b;
        } else {
            self.bits[w] &= !(1 << b);
        }
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw bitmap words (row `i` lives at bit `i % 64` of word `i / 64`).
    /// Exposed for the wire codec only — word padding bits are
    /// representation, not data.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a bitmap from raw words (wire-codec decode path).
    pub(crate) fn from_words(bits: Vec<u64>, len: usize) -> Result<Validity, String> {
        if bits.len() != len.div_ceil(64) {
            return Err(format!(
                "validity word count {} does not match {} rows",
                bits.len(),
                len
            ));
        }
        Ok(Validity { bits, len })
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        let mut valid = 0usize;
        for (w, word) in self.bits.iter().enumerate() {
            let bits_in_word = if (w + 1) * 64 <= self.len {
                64
            } else {
                self.len - w * 64
            };
            let mask = if bits_in_word == 64 {
                u64::MAX
            } else {
                (1u64 << bits_in_word) - 1
            };
            valid += (word & mask).count_ones() as usize;
        }
        self.len - valid
    }
}

/// A typed, immutable column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64(Arc<Vec<i64>>, Option<Arc<Validity>>),
    Float64(Arc<Vec<f64>>, Option<Arc<Validity>>),
    Bool(Arc<Vec<bool>>, Option<Arc<Validity>>),
    Date32(Arc<Vec<i32>>, Option<Arc<Validity>>),
    Utf8(Arc<Utf8Column>, Option<Arc<Validity>>),
}

/// Variable-width UTF-8 column stored as one contiguous arena plus offsets
/// (the classic Arrow layout, rebuilt from scratch here).
///
/// Invariant: `data` is valid UTF-8 as a whole (it is a `String`) and every
/// offset lies on a char boundary, so each value is a `str` slice of the
/// arena. Both ways in keep it: [`push`](Utf8Column::push) appends a `&str`,
/// the crate-private `from_raw` checks bytes that crossed a network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Utf8Column {
    data: String,
    /// `offsets.len() == row_count + 1`; row `i` spans
    /// `data[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
}

impl Utf8Column {
    /// An empty column with room for the offsets of `rows` values.
    fn with_capacity(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Utf8Column {
            data: String::new(),
            offsets,
        }
    }

    pub fn from_strings<S: AsRef<str>>(vals: &[S]) -> Self {
        let mut c = Utf8Column::with_capacity(vals.len());
        for v in vals {
            c.push(v.as_ref());
        }
        c
    }

    pub fn push(&mut self, s: &str) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.data.push_str(s);
        self.offsets.push(self.data.len() as u32);
    }

    /// Appends rows `rows` of `src`: its arena bytes in one copy, its
    /// offsets shifted onto the end of this arena.
    fn extend_from(&mut self, src: &Utf8Column, rows: Range<usize>) {
        if rows.is_empty() {
            return;
        }
        let (lo, hi) = (src.offsets[rows.start], src.offsets[rows.end]);
        let base = u32::try_from(self.data.len() + (hi - lo) as usize)
            .map(|end| end - (hi - lo))
            .expect("utf8 column arena over u32::MAX bytes");
        self.data.push_str(&src.data[lo as usize..hi as usize]);
        self.offsets.extend(
            src.offsets[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| base + (o - lo)),
        );
    }

    #[inline]
    pub fn value(&self, i: usize) -> &str {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The bytes of row `i` — what hashing, key encoding and equality read.
    #[inline]
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.data.as_bytes()[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every value's bytes in row order.
    pub fn iter_bytes(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        let data = self.data.as_bytes();
        self.offsets
            .windows(2)
            .map(move |w| &data[w[0] as usize..w[1] as usize])
    }

    /// Every value in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        self.offsets
            .windows(2)
            .map(|w| &self.data[w[0] as usize..w[1] as usize])
    }

    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn byte_size(&self) -> usize {
        self.data.len() + self.offsets.len() * 4
    }

    /// Raw byte arena (wire-codec encode path).
    pub(crate) fn data_bytes(&self) -> &[u8] {
        self.data.as_bytes()
    }

    /// Raw offsets; `offsets[rows]` is the arena length. May be empty for a
    /// never-pushed column — encoders must treat that as `[0]`.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Rebuilds a column from a raw arena + offsets, validating the type's
    /// invariant (wire-codec decode path: the input crossed a network and
    /// cannot be trusted). A valid arena cut on char boundaries is exactly
    /// an arena whose every value is valid UTF-8.
    pub(crate) fn from_raw(data: Vec<u8>, offsets: Vec<u32>) -> Result<Utf8Column, String> {
        if offsets.first() != Some(&0) {
            return Err("utf8 offsets must start at 0".to_string());
        }
        let mut prev = 0u32;
        for &o in &offsets {
            if o < prev {
                return Err("utf8 offsets are not monotonic".to_string());
            }
            prev = o;
        }
        if prev as usize != data.len() {
            return Err(format!(
                "utf8 arena is {} bytes but final offset is {prev}",
                data.len()
            ));
        }
        let data =
            String::from_utf8(data).map_err(|_| "utf8 value is not valid UTF-8".to_string())?;
        if !offsets.iter().all(|&o| data.is_char_boundary(o as usize)) {
            return Err("utf8 value is not valid UTF-8".to_string());
        }
        Ok(Utf8Column { data, offsets })
    }
}

/// Builds a validity bitmap from a nulls mask — `None` when fully valid
/// (the all-valid fast path skips the bitmap entirely).
fn validity_from_nulls(nulls: &[bool]) -> Option<Arc<Validity>> {
    nulls
        .contains(&true)
        .then(|| Arc::new(Validity::from_fn(nulls.len(), |i| !nulls[i])))
}

impl Column {
    pub fn from_i64(vals: Vec<i64>) -> Self {
        Column::Int64(Arc::new(vals), None)
    }

    pub fn from_f64(vals: Vec<f64>) -> Self {
        Column::Float64(Arc::new(vals), None)
    }

    pub fn from_bool(vals: Vec<bool>) -> Self {
        Column::Bool(Arc::new(vals), None)
    }

    pub fn from_date32(vals: Vec<i32>) -> Self {
        Column::Date32(Arc::new(vals), None)
    }

    pub fn from_strings<S: AsRef<str>>(vals: &[S]) -> Self {
        Column::Utf8(Arc::new(Utf8Column::from_strings(vals)), None)
    }

    /// Typed constructors taking a parallel nulls mask (`nulls[i]` ⇒ row `i`
    /// is NULL; its data slot is a don't-care). These let kernels build
    /// output columns straight from accumulator vectors without a
    /// per-value [`ColumnBuilder`] round trip.
    pub fn from_i64_nullable(vals: Vec<i64>, nulls: &[bool]) -> Self {
        debug_assert_eq!(vals.len(), nulls.len());
        let v = validity_from_nulls(nulls);
        Column::Int64(Arc::new(vals), v)
    }

    pub fn from_f64_nullable(vals: Vec<f64>, nulls: &[bool]) -> Self {
        debug_assert_eq!(vals.len(), nulls.len());
        let v = validity_from_nulls(nulls);
        Column::Float64(Arc::new(vals), v)
    }

    pub fn from_bool_nullable(vals: Vec<bool>, nulls: &[bool]) -> Self {
        debug_assert_eq!(vals.len(), nulls.len());
        let v = validity_from_nulls(nulls);
        Column::Bool(Arc::new(vals), v)
    }

    pub fn from_date32_nullable(vals: Vec<i32>, nulls: &[bool]) -> Self {
        debug_assert_eq!(vals.len(), nulls.len());
        let v = validity_from_nulls(nulls);
        Column::Date32(Arc::new(vals), v)
    }

    pub fn from_utf8_nullable(vals: Utf8Column, nulls: &[bool]) -> Self {
        debug_assert_eq!(vals.len(), nulls.len());
        let v = validity_from_nulls(nulls);
        Column::Utf8(Arc::new(vals), v)
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(..) => DataType::Int64,
            Column::Float64(..) => DataType::Float64,
            Column::Bool(..) => DataType::Bool,
            Column::Date32(..) => DataType::Date32,
            Column::Utf8(..) => DataType::Utf8,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Date32(v, _) => v.len(),
            Column::Utf8(v, _) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn validity(&self) -> Option<&Arc<Validity>> {
        match self {
            Column::Int64(_, v)
            | Column::Float64(_, v)
            | Column::Bool(_, v)
            | Column::Date32(_, v)
            | Column::Utf8(_, v) => v.as_ref(),
        }
    }

    /// The same data under another bitmap: kernels compute over every data
    /// slot, then attach the validity their operands combine to.
    pub fn with_validity(self, validity: Option<Arc<Validity>>) -> Column {
        debug_assert!(validity.as_ref().is_none_or(|v| v.len() == self.len()));
        match self {
            Column::Int64(d, _) => Column::Int64(d, validity),
            Column::Float64(d, _) => Column::Float64(d, validity),
            Column::Bool(d, _) => Column::Bool(d, validity),
            Column::Date32(d, _) => Column::Date32(d, validity),
            Column::Utf8(d, _) => Column::Utf8(d, validity),
        }
    }

    /// `len` NULLs of type `dt` (no bitmap at `len == 0`: an empty column of
    /// that type).
    pub fn nulls(dt: DataType, len: usize) -> Column {
        let data = match dt {
            DataType::Int64 => Column::from_i64(vec![0; len]),
            DataType::Float64 => Column::from_f64(vec![0.0; len]),
            DataType::Bool => Column::from_bool(vec![false; len]),
            DataType::Date32 => Column::from_date32(vec![0; len]),
            DataType::Utf8 => Column::from_strings(&vec![""; len]),
        };
        data.with_validity((len > 0).then(|| Arc::new(Validity::new_all_null(len))))
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|v| v.is_valid(i))
    }

    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |v| v.null_count())
    }

    /// Approximate heap size in bytes — drives buffer capacity accounting
    /// (the paper's buffers are sized in bytes/pages).
    pub fn byte_size(&self) -> usize {
        let data = match self {
            Column::Int64(v, _) => v.len() * 8,
            Column::Float64(v, _) => v.len() * 8,
            Column::Bool(v, _) => v.len(),
            Column::Date32(v, _) => v.len() * 4,
            Column::Utf8(v, _) => v.byte_size(),
        };
        data + self.validity().map_or(0, |v| v.len() / 8)
    }

    /// Scalar accessor (boundary/testing path; hot kernels use the typed
    /// accessors below).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int64(v, _) => Value::Int64(v[i]),
            Column::Float64(v, _) => Value::Float64(v[i]),
            Column::Bool(v, _) => Value::Bool(v[i]),
            Column::Date32(v, _) => Value::Date32(v[i]),
            Column::Utf8(v, _) => Value::Utf8(v.value(i).to_string()),
        }
    }

    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v, _) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v, _) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v, _) => Some(v),
            _ => None,
        }
    }

    pub fn as_date32(&self) -> Option<&[i32]> {
        match self {
            Column::Date32(v, _) => Some(v),
            _ => None,
        }
    }

    pub fn as_utf8(&self) -> Option<&Utf8Column> {
        match self {
            Column::Utf8(v, _) => Some(v),
            _ => None,
        }
    }

    /// Materializes `self[indices]` as a new column (the take/gather kernel
    /// behind filters, joins and sorts).
    pub fn gather(&self, indices: &[u32]) -> Column {
        let validity = self.validity().map(|v| {
            Arc::new(Validity::from_fn(indices.len(), |out| {
                v.is_valid(indices[out] as usize)
            }))
        });
        match self {
            Column::Int64(v, _) => Column::Int64(
                Arc::new(indices.iter().map(|&i| v[i as usize]).collect()),
                validity,
            ),
            Column::Float64(v, _) => Column::Float64(
                Arc::new(indices.iter().map(|&i| v[i as usize]).collect()),
                validity,
            ),
            Column::Bool(v, _) => Column::Bool(
                Arc::new(indices.iter().map(|&i| v[i as usize]).collect()),
                validity,
            ),
            Column::Date32(v, _) => Column::Date32(
                Arc::new(indices.iter().map(|&i| v[i as usize]).collect()),
                validity,
            ),
            Column::Utf8(v, _) => {
                let mut out = Utf8Column::with_capacity(indices.len());
                for &i in indices {
                    out.push(v.value(i as usize));
                }
                Column::Utf8(Arc::new(out), validity)
            }
        }
    }

    /// Row `i` of the result is row `i` of `sources[pick[i]]`, value and
    /// validity — the typed select behind `CASE`. Panics unless every source
    /// has this column type and `pick.len()` rows and every pick is in range
    /// (callers check; a planner-built `CASE` cannot get here otherwise).
    pub fn interleave(sources: &[&Column], pick: &[u32]) -> Column {
        fn select<T: Copy>(slices: Vec<&[T]>, pick: &[u32]) -> Arc<Vec<T>> {
            Arc::new(
                pick.iter()
                    .enumerate()
                    .map(|(i, &p)| slices[p as usize][i])
                    .collect(),
            )
        }
        const MIXED: &str = "interleave over mixed column types";
        let first = sources.first().expect("interleave of zero sources");
        let validity = sources.iter().any(|c| c.validity().is_some()).then(|| {
            Arc::new(Validity::from_fn(pick.len(), |i| {
                sources[pick[i] as usize].is_valid(i)
            }))
        });
        match first {
            Column::Int64(..) => Column::Int64(
                select(
                    sources.iter().map(|c| c.as_i64().expect(MIXED)).collect(),
                    pick,
                ),
                validity,
            ),
            Column::Float64(..) => Column::Float64(
                select(
                    sources.iter().map(|c| c.as_f64().expect(MIXED)).collect(),
                    pick,
                ),
                validity,
            ),
            Column::Bool(..) => Column::Bool(
                select(
                    sources.iter().map(|c| c.as_bool().expect(MIXED)).collect(),
                    pick,
                ),
                validity,
            ),
            Column::Date32(..) => Column::Date32(
                select(
                    sources
                        .iter()
                        .map(|c| c.as_date32().expect(MIXED))
                        .collect(),
                    pick,
                ),
                validity,
            ),
            Column::Utf8(..) => {
                let strs: Vec<&Utf8Column> =
                    sources.iter().map(|c| c.as_utf8().expect(MIXED)).collect();
                let mut out = Utf8Column::with_capacity(pick.len());
                for (i, &p) in pick.iter().enumerate() {
                    out.push(strs[p as usize].value(i));
                }
                Column::Utf8(Arc::new(out), validity)
            }
        }
    }

    /// Contiguous slice `self[range]` as a new column.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        Column::copy_ranges(&[(self, offset..offset + len)])
    }

    /// Vertically concatenates columns of identical type; panics, naming
    /// both, on a column of another type.
    pub fn concat(cols: &[&Column]) -> Column {
        let parts: Vec<_> = cols.iter().map(|&c| (c, 0..c.len())).collect();
        Column::copy_ranges(&parts)
    }

    /// Rows `range` of every part, in order, as one new column: the typed
    /// copy behind [`slice`](Column::slice) and [`concat`](Column::concat).
    /// The result carries a bitmap only if one of its rows is NULL, and no
    /// padding bit of an input bitmap reaches it.
    fn copy_ranges(parts: &[(&Column, Range<usize>)]) -> Column {
        fn fixed<T: Copy>(
            parts: &[(&Column, Range<usize>)],
            total: usize,
            typed: fn(&Column) -> Option<&[T]>,
        ) -> Arc<Vec<T>> {
            let mut out = Vec::with_capacity(total);
            for (c, rows) in parts {
                out.extend_from_slice(&typed(c).expect("checked type")[rows.clone()]);
            }
            Arc::new(out)
        }
        let (first, _) = parts.first().expect("concat of zero columns");
        let dt = first.data_type();
        if let Some((other, _)) = parts.iter().find(|(c, _)| c.data_type() != dt) {
            panic!(
                "concat of mixed column types: {dt} then {}",
                other.data_type()
            );
        }
        let total = parts.iter().map(|(_, rows)| rows.len()).sum();
        let validity = parts
            .iter()
            .any(|(c, _)| c.validity().is_some())
            .then(|| {
                let mut bits = Validity::new_all_null(total);
                let cells = parts
                    .iter()
                    .flat_map(|(c, rows)| rows.clone().map(|r| (*c, r)));
                for (out, (c, row)) in cells.enumerate() {
                    bits.set(out, c.is_valid(row));
                }
                bits
            })
            .filter(|bits| bits.null_count() > 0)
            .map(Arc::new);
        match first {
            Column::Int64(..) => Column::Int64(fixed(parts, total, Column::as_i64), validity),
            Column::Float64(..) => Column::Float64(fixed(parts, total, Column::as_f64), validity),
            Column::Bool(..) => Column::Bool(fixed(parts, total, Column::as_bool), validity),
            Column::Date32(..) => Column::Date32(fixed(parts, total, Column::as_date32), validity),
            Column::Utf8(..) => {
                let mut out = Utf8Column::with_capacity(total);
                for (c, rows) in parts {
                    out.extend_from(c.as_utf8().expect("checked type"), rows.clone());
                }
                Column::Utf8(Arc::new(out), validity)
            }
        }
    }
}

/// Incremental column builder: the `Value`-in boundary behind
/// [`PageBuilder`](crate::page::PageBuilder), not a kernel path.
#[derive(Debug)]
pub enum ColumnBuilder {
    Int64(Vec<i64>, Vec<bool>),
    Float64(Vec<f64>, Vec<bool>),
    Bool(Vec<bool>, Vec<bool>),
    Date32(Vec<i32>, Vec<bool>),
    Utf8(Utf8Column, Vec<bool>),
}

impl ColumnBuilder {
    pub fn new(dt: DataType, capacity: usize) -> Self {
        match dt {
            DataType::Int64 => ColumnBuilder::Int64(Vec::with_capacity(capacity), Vec::new()),
            DataType::Float64 => ColumnBuilder::Float64(Vec::with_capacity(capacity), Vec::new()),
            DataType::Bool => ColumnBuilder::Bool(Vec::with_capacity(capacity), Vec::new()),
            DataType::Date32 => ColumnBuilder::Date32(Vec::with_capacity(capacity), Vec::new()),
            DataType::Utf8 => ColumnBuilder::Utf8(Utf8Column::default(), Vec::new()),
        }
    }

    /// Appends a value; `Value::Null` appends a null of the builder's type.
    /// Int64⇄Float64 coercion is performed to match analyzer semantics.
    pub fn push(&mut self, v: Value) {
        match self {
            ColumnBuilder::Int64(data, nulls) => match v {
                Value::Int64(x) => {
                    data.push(x);
                    nulls.push(false);
                }
                Value::Date32(x) => {
                    data.push(x as i64);
                    nulls.push(false);
                }
                Value::Null => {
                    data.push(0);
                    nulls.push(true);
                }
                other => panic!("type mismatch pushing {other:?} into Int64 builder"),
            },
            ColumnBuilder::Float64(data, nulls) => match v {
                Value::Float64(x) => {
                    data.push(x);
                    nulls.push(false);
                }
                Value::Int64(x) => {
                    data.push(x as f64);
                    nulls.push(false);
                }
                Value::Null => {
                    data.push(0.0);
                    nulls.push(true);
                }
                other => panic!("type mismatch pushing {other:?} into Float64 builder"),
            },
            ColumnBuilder::Bool(data, nulls) => match v {
                Value::Bool(x) => {
                    data.push(x);
                    nulls.push(false);
                }
                Value::Null => {
                    data.push(false);
                    nulls.push(true);
                }
                other => panic!("type mismatch pushing {other:?} into Bool builder"),
            },
            ColumnBuilder::Date32(data, nulls) => match v {
                Value::Date32(x) => {
                    data.push(x);
                    nulls.push(false);
                }
                Value::Int64(x) => {
                    data.push(x as i32);
                    nulls.push(false);
                }
                Value::Null => {
                    data.push(0);
                    nulls.push(true);
                }
                other => panic!("type mismatch pushing {other:?} into Date32 builder"),
            },
            ColumnBuilder::Utf8(data, nulls) => match v {
                Value::Utf8(x) => {
                    data.push(&x);
                    nulls.push(false);
                }
                Value::Null => {
                    data.push("");
                    nulls.push(true);
                }
                other => panic!("type mismatch pushing {other:?} into Utf8 builder"),
            },
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Int64(d, _) => d.len(),
            ColumnBuilder::Float64(d, _) => d.len(),
            ColumnBuilder::Bool(d, _) => d.len(),
            ColumnBuilder::Date32(d, _) => d.len(),
            ColumnBuilder::Utf8(d, _) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::Int64(d, n) => {
                let v = validity_from_nulls(&n);
                Column::Int64(Arc::new(d), v)
            }
            ColumnBuilder::Float64(d, n) => {
                let v = validity_from_nulls(&n);
                Column::Float64(Arc::new(d), v)
            }
            ColumnBuilder::Bool(d, n) => {
                let v = validity_from_nulls(&n);
                Column::Bool(Arc::new(d), v)
            }
            ColumnBuilder::Date32(d, n) => {
                let v = validity_from_nulls(&n);
                Column::Date32(Arc::new(d), v)
            }
            ColumnBuilder::Utf8(d, n) => {
                let v = validity_from_nulls(&n);
                Column::Utf8(Arc::new(d), v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_bitmap() {
        let mut v = Validity::new_all_valid(70);
        assert_eq!(v.null_count(), 0);
        v.set(0, false);
        v.set(65, false);
        assert!(!v.is_valid(0));
        assert!(v.is_valid(1));
        assert!(!v.is_valid(65));
        assert_eq!(v.null_count(), 2);
        let n = Validity::new_all_null(10);
        assert_eq!(n.null_count(), 10);
    }

    #[test]
    fn utf8_column_roundtrip() {
        let c = Utf8Column::from_strings(&["hello", "", "world"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), "hello");
        assert_eq!(c.value(1), "");
        assert_eq!(c.value(2), "world");
    }

    #[test]
    fn validity_from_fn_and_word_wise_and() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let a = Arc::new(Validity::from_fn(len, |i| i % 3 != 0));
            let b = Arc::new(Validity::from_fn(len, |i| i % 2 == 0));
            assert_eq!(a.len(), len);
            assert_eq!(a.null_count(), len.div_ceil(3));
            let both = Validity::and(Some(&a), Some(&b)).unwrap();
            for i in 0..len {
                assert_eq!(a.is_valid(i), i % 3 != 0, "len {len} row {i}");
                assert_eq!(both.is_valid(i), a.is_valid(i) && b.is_valid(i));
            }
            // An absent bitmap is all-valid: the other side's is shared.
            assert!(Arc::ptr_eq(&Validity::and(Some(&a), None).unwrap(), &a));
            assert!(Arc::ptr_eq(&Validity::and(None, Some(&b)).unwrap(), &b));
        }
        assert!(Validity::and(None, None).is_none());
    }

    #[test]
    fn utf8_from_raw_checks_the_arena_once_and_every_cut() {
        let ok = Utf8Column::from_raw("aé日".as_bytes().to_vec(), vec![0, 1, 3, 6]).unwrap();
        assert_eq!(ok.iter().collect::<Vec<_>>(), vec!["a", "é", "日"]);
        assert_eq!(ok.bytes(1), "é".as_bytes());
        assert_eq!(
            ok.iter_bytes().map(<[u8]>::len).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        // A cut inside a character: every value would be invalid UTF-8.
        assert!(Utf8Column::from_raw("aé".as_bytes().to_vec(), vec![0, 2, 3]).is_err());
        // Invalid bytes, bad offsets.
        assert!(Utf8Column::from_raw(vec![0xff, 0xfe], vec![0, 2]).is_err());
        assert!(Utf8Column::from_raw(b"ab".to_vec(), vec![1, 2]).is_err());
        assert!(Utf8Column::from_raw(b"ab".to_vec(), vec![0, 2, 1]).is_err());
        assert!(Utf8Column::from_raw(b"ab".to_vec(), vec![0, 1]).is_err());
    }

    #[test]
    fn interleave_selects_value_and_validity_per_row() {
        let a = Column::from_i64(vec![1, 2, 3, 4]);
        let b = Column::from_i64_nullable(vec![10, 20, 30, 40], &[false, true, false, true]);
        let nulls = Column::nulls(DataType::Int64, 4);
        let got = Column::interleave(&[&a, &b, &nulls], &[0, 1, 1, 2]);
        assert_eq!(
            (0..4).map(|i| got.value(i)).collect::<Vec<_>>(),
            vec![Value::Int64(1), Value::Null, Value::Int64(30), Value::Null]
        );
        // No source has a bitmap ⇒ neither has the result.
        assert!(Column::interleave(&[&a, &a], &[1, 0, 1, 0])
            .validity()
            .is_none());
        let s = Column::from_strings(&["x", "yy", "", "zzz"]);
        let t = Column::from_strings(&["p", "q", "r", "s"]);
        let got = Column::interleave(&[&s, &t], &[1, 0, 0, 1]);
        let strs = got.as_utf8().unwrap();
        assert_eq!(strs.iter().collect::<Vec<_>>(), vec!["p", "yy", "", "s"]);
        // `nulls` of every type is all NULL and of that type.
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Date32,
            DataType::Utf8,
        ] {
            let c = Column::nulls(dt, 3);
            assert_eq!((c.data_type(), c.len(), c.null_count()), (dt, 3, 3));
        }
    }

    #[test]
    fn gather_preserves_values_and_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int64, 4);
        b.push(Value::Int64(10));
        b.push(Value::Null);
        b.push(Value::Int64(30));
        b.push(Value::Int64(40));
        let c = b.finish();
        assert_eq!(c.null_count(), 1);
        let g = c.gather(&[3, 1, 0]);
        assert_eq!(g.value(0), Value::Int64(40));
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), Value::Int64(10));
        assert_eq!(g.null_count(), 1);
    }

    #[test]
    fn gather_strings() {
        let c = Column::from_strings(&["a", "bb", "ccc"]);
        let g = c.gather(&[2, 0]);
        assert_eq!(g.value(0), Value::Utf8("ccc".into()));
        assert_eq!(g.value(1), Value::Utf8("a".into()));
    }

    #[test]
    fn slice_and_concat() {
        let c = Column::from_i64(vec![1, 2, 3, 4, 5]);
        let s = c.slice(1, 3);
        assert_eq!(s.as_i64().unwrap(), &[2, 3, 4]);
        let joined = Column::concat(&[&s, &c]);
        assert_eq!(joined.len(), 8);
        assert_eq!(joined.value(3), Value::Int64(1));
    }

    #[test]
    fn byte_size_accounts_data() {
        let c = Column::from_i64(vec![0; 100]);
        assert_eq!(c.byte_size(), 800);
        let s = Column::from_strings(&["abcd"; 10]);
        assert_eq!(s.byte_size(), 40 + 11 * 4);
    }

    #[test]
    fn builder_coerces_ints_to_float() {
        let mut b = ColumnBuilder::new(DataType::Float64, 2);
        b.push(Value::Int64(2));
        b.push(Value::Float64(0.5));
        let c = b.finish();
        assert_eq!(c.as_f64().unwrap(), &[2.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int64, 1);
        b.push(Value::Utf8("oops".into()));
    }

    #[test]
    fn nullable_constructors_build_validity_lazily() {
        let c = Column::from_i64_nullable(vec![1, 2], &[false, false]);
        assert!(c.validity().is_none(), "all-valid column carries no bitmap");
        let c = Column::from_f64_nullable(vec![1.0, 0.0], &[false, true]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0), Value::Float64(1.0));
        assert_eq!(c.value(1), Value::Null);
        let c = Column::from_date32_nullable(vec![9, 0], &[false, true]);
        assert_eq!(c.value(0), Value::Date32(9));
        assert_eq!(c.value(1), Value::Null);
        let c = Column::from_bool_nullable(vec![true, false], &[true, false]);
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Bool(false));
        let c = Column::from_utf8_nullable(Utf8Column::from_strings(&["x", ""]), &[false, true]);
        assert_eq!(c.value(0), Value::Utf8("x".into()));
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn typed_accessors() {
        let c = Column::from_bool(vec![true, false]);
        assert_eq!(c.as_bool().unwrap(), &[true, false]);
        assert!(c.as_i64().is_none());
        let d = Column::from_date32(vec![7]);
        assert_eq!(d.as_date32().unwrap(), &[7]);
        assert_eq!(d.data_type(), DataType::Date32);
    }
}
