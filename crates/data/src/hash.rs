//! Row hashing for hash-partitioned shuffles and hash tables.
//!
//! The hash function must be **stable across tasks and nodes** because the
//! paper's shuffle buffers repartition cached pages when the downstream DOP
//! changes (§4.2.1, §4.5): the same row must land in a deterministic
//! partition for any partition count. We therefore use a fixed
//! multiply-xor mix (an FxHash/wyhash-style construction implemented here
//! from scratch) rather than std's randomly-seeded SipHash.

use std::fmt;

use crate::column::Column;
use crate::page::DataPage;

pub(crate) const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const NULL_SENTINEL: u64 = 0xDEAD_BEEF_0BAD_F00D;

#[inline]
pub(crate) fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = h.rotate_left(31);
    h.wrapping_mul(0xC4CE_B9FE_1A85_EC53)
}

#[inline]
pub(crate) fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Hashes one scalar cell into an accumulator.
#[inline]
fn hash_cell(col: &Column, row: usize, acc: u64) -> u64 {
    if !col.is_valid(row) {
        return mix(acc, NULL_SENTINEL);
    }
    match col {
        Column::Int64(v, _) => mix(acc, v[row] as u64),
        Column::Date32(v, _) => mix(acc, v[row] as u64),
        Column::Bool(v, _) => mix(acc, v[row] as u64 + 1),
        Column::Float64(v, _) => mix(acc, v[row].to_bits()),
        Column::Utf8(v, _) => hash_bytes(acc, v.bytes(row)),
    }
}

/// Hashes a string cell: its length, then its bytes as little-endian words,
/// the last one zero-padded.
#[inline]
fn hash_bytes(acc: u64, s: &[u8]) -> u64 {
    let mut h = mix(acc, s.len() as u64);
    let mut words = s.chunks_exact(8);
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = mix(h, tail.iter().rev().fold(0, |w, &b| w << 8 | b as u64));
    }
    h
}

/// Scalar reference: hashes the key cells of one row. Kept as the
/// cross-check target for the vectorized [`hash_columns`] kernels — both
/// must produce bit-identical output for every input.
pub fn hash_row(page: &DataPage, key_indices: &[usize], row: usize) -> u64 {
    let mut h = SEED;
    for &ki in key_indices {
        h = hash_cell(page.column(ki), row, h);
    }
    finalize(h)
}

/// Folds one whole column into the per-row accumulators, column at a time.
///
/// The fixed-width types run a branch-light inner loop: with no validity
/// bitmap it is a straight `mix` over the typed vector; with one, the null
/// sentinel is selected per row without branching on the data path. Utf8
/// walks the arena value by value.
fn hash_column_into(col: &Column, hashes: &mut [u64]) {
    match (col, col.validity()) {
        (Column::Int64(v, _), None) => {
            for (h, &x) in hashes.iter_mut().zip(v.iter()) {
                *h = mix(*h, x as u64);
            }
        }
        (Column::Int64(v, _), Some(valid)) => {
            for (i, (h, &x)) in hashes.iter_mut().zip(v.iter()).enumerate() {
                let word = if valid.is_valid(i) {
                    x as u64
                } else {
                    NULL_SENTINEL
                };
                *h = mix(*h, word);
            }
        }
        (Column::Date32(v, _), None) => {
            for (h, &x) in hashes.iter_mut().zip(v.iter()) {
                *h = mix(*h, x as u64);
            }
        }
        (Column::Date32(v, _), Some(valid)) => {
            for (i, (h, &x)) in hashes.iter_mut().zip(v.iter()).enumerate() {
                let word = if valid.is_valid(i) {
                    x as u64
                } else {
                    NULL_SENTINEL
                };
                *h = mix(*h, word);
            }
        }
        (Column::Bool(v, _), None) => {
            for (h, &x) in hashes.iter_mut().zip(v.iter()) {
                *h = mix(*h, x as u64 + 1);
            }
        }
        (Column::Bool(v, _), Some(valid)) => {
            for (i, (h, &x)) in hashes.iter_mut().zip(v.iter()).enumerate() {
                let word = if valid.is_valid(i) {
                    x as u64 + 1
                } else {
                    NULL_SENTINEL
                };
                *h = mix(*h, word);
            }
        }
        (Column::Float64(v, _), None) => {
            for (h, &x) in hashes.iter_mut().zip(v.iter()) {
                *h = mix(*h, x.to_bits());
            }
        }
        (Column::Float64(v, _), Some(valid)) => {
            for (i, (h, &x)) in hashes.iter_mut().zip(v.iter()).enumerate() {
                let word = if valid.is_valid(i) {
                    x.to_bits()
                } else {
                    NULL_SENTINEL
                };
                *h = mix(*h, word);
            }
        }
        (Column::Utf8(v, _), None) => {
            for (h, s) in hashes.iter_mut().zip(v.iter_bytes()) {
                *h = hash_bytes(*h, s);
            }
        }
        (Column::Utf8(v, _), Some(valid)) => {
            for (i, (h, s)) in hashes.iter_mut().zip(v.iter_bytes()).enumerate() {
                *h = if valid.is_valid(i) {
                    hash_bytes(*h, s)
                } else {
                    mix(*h, NULL_SENTINEL)
                };
            }
        }
    }
}

/// Vectorized hash kernel: hashes the row tuples formed by `cols`,
/// column at a time, returning one finalized hash per row.
///
/// Bit-identical to [`hash_row`] over the same cells — the stable mix is
/// part of the engine contract (§4.2.1 repartitioning must route a row to
/// the same partition at any DOP), so the vectorized and scalar paths may
/// never diverge.
pub fn hash_columns(cols: &[&Column], row_count: usize) -> Vec<u64> {
    let mut hashes = vec![SEED; row_count];
    for col in cols {
        debug_assert_eq!(col.len(), row_count);
        hash_column_into(col, &mut hashes);
    }
    for h in hashes.iter_mut() {
        *h = finalize(*h);
    }
    hashes
}

/// Hashes the key columns (`key_indices`) of every row in `page`.
pub fn hash_rows(page: &DataPage, key_indices: &[usize]) -> Vec<u64> {
    let cols: Vec<&Column> = key_indices.iter().map(|&ki| page.column(ki)).collect();
    hash_columns(&cols, page.row_count())
}

/// Maps a hash to one of `partitions` buckets. A partition count of zero is
/// a caller bug, but it must not mis-route rows in release builds (the old
/// `debug_assert!` compiled away): it is clamped to one bucket, so every row
/// deterministically lands in partition 0.
#[inline]
pub fn partition_of(hash: u64, partitions: u32) -> u32 {
    let partitions = partitions.max(1);
    // Multiply-shift avoids the modulo and keeps high-entropy bits.
    (((hash >> 32) * partitions as u64) >> 32) as u32
}

/// Splits `page` into `partitions` pages by key hash. Returns one (possibly
/// empty) page per partition. This is the kernel inside the shuffle buffer's
/// shuffle executors (paper Fig 10b). Like [`partition_of`], a zero
/// partition count is clamped to one — rows are never silently dropped.
pub fn hash_partition(page: &DataPage, key_indices: &[usize], partitions: u32) -> Vec<DataPage> {
    let partitions = partitions.max(1);
    let hashes = hash_rows(page, key_indices);
    let mut index_lists: Vec<Vec<u32>> = vec![Vec::new(); partitions as usize];
    for (row, h) in hashes.iter().enumerate() {
        index_lists[partition_of(*h, partitions) as usize].push(row as u32);
    }
    index_lists
        .into_iter()
        .map(|idx| page.gather(&idx))
        .collect()
}

/// How the producing side of an exchange partitions its output across the
/// consuming side's slots: the plan's `Exchange` and a fragment's output
/// carry it, and the exchange's writers route by it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// One output partition. With one consumer this is a gather; with many
    /// every page is broadcast to each of them (a join's build side, whose
    /// edge has one consumer per node: the node's table).
    Single,
    /// Rows are hash-partitioned on key columns into `partitions` buckets
    /// ([`hash_partition`]).
    Hash { keys: Vec<usize>, partitions: u32 },
}

impl Partitioning {
    /// Number of output partitions produced under this scheme.
    pub fn partition_count(&self) -> u32 {
        match self {
            Partitioning::Single => 1,
            Partitioning::Hash { partitions, .. } => *partitions,
        }
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioning::Single => write!(f, "single"),
            Partitioning::Hash { keys, partitions } => write!(f, "hash{keys:?}x{partitions}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn key_page(keys: Vec<i64>) -> DataPage {
        let n = keys.len();
        DataPage::new(vec![
            Column::from_i64(keys),
            Column::from_i64((0..n as i64).collect()),
        ])
    }

    #[test]
    fn hashing_is_deterministic() {
        let p = key_page(vec![1, 2, 3, 1]);
        let h1 = hash_rows(&p, &[0]);
        let h2 = hash_rows(&p, &[0]);
        assert_eq!(h1, h2);
        assert_eq!(h1[0], h1[3], "equal keys hash equal");
        assert_ne!(h1[0], h1[1], "different keys should differ (whp)");
    }

    #[test]
    fn hash_covers_multiple_key_columns() {
        let p = DataPage::new(vec![
            Column::from_i64(vec![1, 1]),
            Column::from_strings(&["x", "y"]),
        ]);
        let h = hash_rows(&p, &[0, 1]);
        assert_ne!(h[0], h[1]);
        let h_first_only = hash_rows(&p, &[0]);
        assert_eq!(h_first_only[0], h_first_only[1]);
    }

    #[test]
    fn partition_of_in_range() {
        for parts in [1u32, 2, 3, 7, 64] {
            for h in [0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0] {
                assert!(partition_of(h, parts) < parts);
            }
        }
    }

    #[test]
    fn partition_union_preserves_rows() {
        let p = key_page((0..1000).collect());
        let parts = hash_partition(&p, &[0], 7);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(|p| p.row_count()).sum();
        assert_eq!(total, 1000);
        // Partitioning is reasonably balanced for sequential keys.
        for part in &parts {
            assert!(
                part.row_count() > 50,
                "partition too small: {}",
                part.row_count()
            );
        }
    }

    #[test]
    fn repartitioning_is_consistent() {
        // A row that lands in partition i of n must land in a deterministic
        // partition for m as well — DOP switching relies on stability.
        let p = key_page(vec![42; 10]);
        let by4 = hash_partition(&p, &[0], 4);
        let by6 = hash_partition(&p, &[0], 6);
        let n4: Vec<usize> = by4.iter().map(|p| p.row_count()).collect();
        let n6: Vec<usize> = by6.iter().map(|p| p.row_count()).collect();
        // All identical keys land in exactly one partition in both layouts.
        assert_eq!(n4.iter().filter(|&&c| c > 0).count(), 1);
        assert_eq!(n6.iter().filter(|&&c| c > 0).count(), 1);
        assert_eq!(n4.iter().sum::<usize>(), 10);
        assert_eq!(n6.iter().sum::<usize>(), 10);
    }

    #[test]
    fn zero_partitions_clamp_to_one_bucket() {
        // Previously only a debug_assert: a release build would mod-by-zero
        // semantics its way into out-of-range buckets. Now zero clamps to
        // one bucket in both profiles and never loses a row.
        for h in [0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            assert_eq!(partition_of(h, 0), 0);
        }
        let p = key_page((0..100).collect());
        let parts = hash_partition(&p, &[0], 0);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].row_count(), 100);
    }

    #[test]
    fn null_hashes_consistently() {
        use crate::column::ColumnBuilder;
        use crate::types::{DataType, Value};
        let mut b = ColumnBuilder::new(DataType::Int64, 2);
        b.push(Value::Null);
        b.push(Value::Null);
        let p = DataPage::new(vec![b.finish()]);
        let h = hash_rows(&p, &[0]);
        assert_eq!(h[0], h[1]);
    }

    #[test]
    fn float_hash_uses_bits() {
        let p = DataPage::new(vec![Column::from_f64(vec![1.0, 1.0, 2.0])]);
        let h = hash_rows(&p, &[0]);
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
    }

    #[test]
    fn hash_columns_matches_scalar_hash_row() {
        use crate::column::ColumnBuilder;
        use crate::types::{DataType, Value};
        let mut ints = ColumnBuilder::new(DataType::Int64, 5);
        for v in [
            Value::Int64(3),
            Value::Null,
            Value::Int64(-9),
            Value::Int64(i64::MAX),
            Value::Int64(0),
        ] {
            ints.push(v);
        }
        let mut floats = ColumnBuilder::new(DataType::Float64, 5);
        for v in [
            Value::Float64(0.5),
            Value::Float64(-0.0),
            Value::Null,
            Value::Float64(f64::INFINITY),
            Value::Float64(1e300),
        ] {
            floats.push(v);
        }
        let p = DataPage::new(vec![
            ints.finish(),
            floats.finish(),
            Column::from_bool(vec![true, false, true, false, true]),
            Column::from_date32(vec![0, -1, 10000, 5, 5]),
            Column::from_strings(&["", "a", "abcdefgh", "abcdefghi", "ü"]),
        ]);
        let keys = [0usize, 1, 2, 3, 4];
        let vectorized = hash_rows(&p, &keys);
        for (row, &h) in vectorized.iter().enumerate() {
            assert_eq!(h, hash_row(&p, &keys, row), "row {row}");
        }
    }

    #[test]
    fn empty_key_hash_is_uniform() {
        let p = key_page(vec![1, 2, 3]);
        let h = hash_rows(&p, &[]);
        assert_eq!(h[0], h[1]);
        assert_eq!(h[1], h[2]);
        assert_eq!(h[0], hash_row(&p, &[], 0));
    }
}
