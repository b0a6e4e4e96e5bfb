//! Compact byte encodings of key columns.
//!
//! Group-by and join hash tables key on tuples of column values. Encoding
//! the key columns of a row into a single `Vec<u8>` gives hash tables a
//! cheap, hashable, equality-comparable key without boxing per-cell values.
//! The encoding is injective (length-prefixed strings, tagged nulls), so
//! byte equality ⇔ key-tuple equality.

use crate::column::{Column, Utf8Column};
use crate::page::DataPage;
use crate::types::DataType;

const TAG_NULL: u8 = 0;
const TAG_VALUE: u8 = 1;

/// Encodes the key cells of `row` (columns `key_indices`) into `out`.
pub fn encode_key_into(page: &DataPage, key_indices: &[usize], row: usize, out: &mut Vec<u8>) {
    for &ki in key_indices {
        let col = page.column(ki);
        if !col.is_valid(row) {
            out.push(TAG_NULL);
            continue;
        }
        out.push(TAG_VALUE);
        match col {
            Column::Int64(v, _) => out.extend_from_slice(&v[row].to_le_bytes()),
            Column::Float64(v, _) => out.extend_from_slice(&v[row].to_bits().to_le_bytes()),
            Column::Bool(v, _) => out.push(v[row] as u8),
            Column::Date32(v, _) => out.extend_from_slice(&v[row].to_le_bytes()),
            Column::Utf8(v, _) => {
                let s = v.bytes(row);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s);
            }
        }
    }
}

/// Whether rows `a` and `b` of `page` hold the same key — exactly when
/// [`encode_key_into`] would give both the same bytes — decided from the
/// typed cells, column by column, without encoding either: two NULLs are
/// the same cell, a NULL and a value are not, floats compare by bit pattern.
pub fn key_cells_equal(page: &DataPage, key_indices: &[usize], a: usize, b: usize) -> bool {
    key_indices.iter().all(|&ki| {
        let col = page.column(ki);
        if let Some(v) = col.validity() {
            let (va, vb) = (v.is_valid(a), v.is_valid(b));
            if !(va && vb) {
                return va == vb;
            }
        }
        match col {
            Column::Int64(v, _) => v[a] == v[b],
            Column::Float64(v, _) => v[a].to_bits() == v[b].to_bits(),
            Column::Bool(v, _) => v[a] == v[b],
            Column::Date32(v, _) => v[a] == v[b],
            Column::Utf8(v, _) => v.bytes(a) == v.bytes(b),
        }
    })
}

/// Encodes the key cells of `row` as an owned byte vector.
pub fn encode_key(page: &DataPage, key_indices: &[usize], row: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(key_indices.len() * 9);
    encode_key_into(page, key_indices, row, &mut out);
    out
}

/// Mutable typed decode buffers, one per key column.
enum KeyDecoder {
    Int64(Vec<i64>, Vec<bool>),
    Float64(Vec<f64>, Vec<bool>),
    Bool(Vec<bool>, Vec<bool>),
    Date32(Vec<i32>, Vec<bool>),
    Utf8(Utf8Column, Vec<bool>),
}

impl KeyDecoder {
    fn new(dt: DataType, capacity: usize) -> Self {
        match dt {
            DataType::Int64 => KeyDecoder::Int64(Vec::with_capacity(capacity), Vec::new()),
            DataType::Float64 => KeyDecoder::Float64(Vec::with_capacity(capacity), Vec::new()),
            DataType::Bool => KeyDecoder::Bool(Vec::with_capacity(capacity), Vec::new()),
            DataType::Date32 => KeyDecoder::Date32(Vec::with_capacity(capacity), Vec::new()),
            DataType::Utf8 => KeyDecoder::Utf8(Utf8Column::default(), Vec::new()),
        }
    }

    /// Consumes one cell starting at `key[at]`; returns the next cursor.
    fn decode_cell(&mut self, key: &[u8], at: usize) -> usize {
        let tag = key[at];
        let at = at + 1;
        if tag == TAG_NULL {
            match self {
                KeyDecoder::Int64(d, n) => {
                    d.push(0);
                    n.push(true);
                }
                KeyDecoder::Float64(d, n) => {
                    d.push(0.0);
                    n.push(true);
                }
                KeyDecoder::Bool(d, n) => {
                    d.push(false);
                    n.push(true);
                }
                KeyDecoder::Date32(d, n) => {
                    d.push(0);
                    n.push(true);
                }
                KeyDecoder::Utf8(d, n) => {
                    d.push("");
                    n.push(true);
                }
            }
            return at;
        }
        debug_assert_eq!(tag, TAG_VALUE, "corrupt key encoding: bad tag");
        match self {
            KeyDecoder::Int64(d, n) => {
                d.push(i64::from_le_bytes(key[at..at + 8].try_into().unwrap()));
                n.push(false);
                at + 8
            }
            KeyDecoder::Float64(d, n) => {
                let bits = u64::from_le_bytes(key[at..at + 8].try_into().unwrap());
                d.push(f64::from_bits(bits));
                n.push(false);
                at + 8
            }
            KeyDecoder::Bool(d, n) => {
                d.push(key[at] != 0);
                n.push(false);
                at + 1
            }
            KeyDecoder::Date32(d, n) => {
                d.push(i32::from_le_bytes(key[at..at + 4].try_into().unwrap()));
                n.push(false);
                at + 4
            }
            KeyDecoder::Utf8(d, n) => {
                let len = u32::from_le_bytes(key[at..at + 4].try_into().unwrap()) as usize;
                let at = at + 4;
                d.push(std::str::from_utf8(&key[at..at + len]).expect("corrupt utf8 in key"));
                n.push(false);
                at + len
            }
        }
    }

    fn finish(self) -> Column {
        match self {
            KeyDecoder::Int64(d, n) => Column::from_i64_nullable(d, &n),
            KeyDecoder::Float64(d, n) => Column::from_f64_nullable(d, &n),
            KeyDecoder::Bool(d, n) => Column::from_bool_nullable(d, &n),
            KeyDecoder::Date32(d, n) => Column::from_date32_nullable(d, &n),
            KeyDecoder::Utf8(d, n) => Column::from_utf8_nullable(d, &n),
        }
    }
}

/// Decodes a sequence of encoded keys back into one typed column per key
/// field — the inverse of [`encode_key_into`] for a known type layout.
/// Aggregation emits its group-key output columns through this, straight
/// from the hash table's key arena, with no per-cell `Value` boxing.
pub fn decode_keys_to_columns<'a>(
    keys: impl Iterator<Item = &'a [u8]>,
    types: &[DataType],
    count: usize,
) -> Vec<Column> {
    let mut decoders: Vec<KeyDecoder> =
        types.iter().map(|&dt| KeyDecoder::new(dt, count)).collect();
    for key in keys {
        let mut at = 0;
        for d in decoders.iter_mut() {
            at = d.decode_cell(key, at);
        }
        debug_assert_eq!(at, key.len(), "key not fully consumed");
    }
    decoders.into_iter().map(KeyDecoder::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnBuilder};
    use crate::types::{DataType, Value};

    /// Every row's encoded key, one owned byte vector per row.
    fn encode_keys(page: &DataPage, key_indices: &[usize]) -> Vec<Vec<u8>> {
        (0..page.row_count())
            .map(|row| encode_key(page, key_indices, row))
            .collect()
    }

    #[test]
    fn equal_keys_encode_equal() {
        let p = DataPage::new(vec![
            Column::from_i64(vec![7, 7, 8]),
            Column::from_strings(&["x", "x", "x"]),
        ]);
        let keys = encode_keys(&p, &[0, 1]);
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn encoding_is_injective_across_string_boundaries() {
        // ("ab","c") must differ from ("a","bc") — length prefixes ensure it.
        let p1 = DataPage::new(vec![
            Column::from_strings(&["ab"]),
            Column::from_strings(&["c"]),
        ]);
        let p2 = DataPage::new(vec![
            Column::from_strings(&["a"]),
            Column::from_strings(&["bc"]),
        ]);
        assert_ne!(encode_key(&p1, &[0, 1], 0), encode_key(&p2, &[0, 1], 0));
    }

    #[test]
    fn null_distinct_from_zero() {
        let mut b = ColumnBuilder::new(DataType::Int64, 2);
        b.push(Value::Null);
        b.push(Value::Int64(0));
        let p = DataPage::new(vec![b.finish()]);
        let keys = encode_keys(&p, &[0]);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn decode_round_trips_all_types_with_nulls() {
        use crate::types::Value;
        let mut ints = ColumnBuilder::new(DataType::Int64, 3);
        ints.push(Value::Int64(-5));
        ints.push(Value::Null);
        ints.push(Value::Int64(i64::MAX));
        let mut strs = ColumnBuilder::new(DataType::Utf8, 3);
        strs.push(Value::Utf8("ab".into()));
        strs.push(Value::Utf8("".into()));
        strs.push(Value::Null);
        let p = DataPage::new(vec![
            ints.finish(),
            Column::from_f64(vec![0.5, -0.0, f64::INFINITY]),
            Column::from_bool(vec![true, false, true]),
            Column::from_date32(vec![0, -400, 12345]),
            strs.finish(),
        ]);
        let kis = [0usize, 1, 2, 3, 4];
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Date32,
            DataType::Utf8,
        ];
        let keys = encode_keys(&p, &kis);
        let cols = decode_keys_to_columns(keys.iter().map(|k| k.as_slice()), &types, keys.len());
        assert_eq!(cols.len(), types.len());
        for (ci, col) in cols.iter().enumerate() {
            assert_eq!(col.data_type(), types[ci]);
            for row in 0..p.row_count() {
                assert_eq!(
                    col.value(row),
                    p.column(ci).value(row),
                    "col {ci} row {row}"
                );
            }
        }
    }

    #[test]
    fn mixed_type_keys() {
        let p = DataPage::new(vec![
            Column::from_date32(vec![10, 10]),
            Column::from_bool(vec![true, false]),
            Column::from_f64(vec![0.5, 0.5]),
        ]);
        let keys = encode_keys(&p, &[0, 1, 2]);
        assert_ne!(keys[0], keys[1]);
        let only_date = encode_keys(&p, &[0]);
        assert_eq!(only_date[0], only_date[1]);
    }
}
