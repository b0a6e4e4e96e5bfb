//! `Column::concat`, `Column::slice` and `DataPage::concat` copy typed
//! vectors; here they are held to the cell-by-cell copy they replaced —
//! every cell read as a `Value` and pushed into a `ColumnBuilder` — on
//! seeded parts of all five types: with and without bitmaps, bitmaps whose
//! padding bits are set, empty parts, single parts, empty and multi-byte
//! strings, and whatever the data slot of a NULL row holds.

use std::ops::Range;
use std::sync::Arc;

use accordion_data::column::{Column, ColumnBuilder, Validity};
use accordion_data::page::DataPage;
use accordion_data::types::DataType;

const TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Date32,
    DataType::Utf8,
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The replaced copy: rows `range` of every part, one `Value` at a time.
fn reference(parts: &[(&Column, Range<usize>)]) -> Column {
    let mut b = ColumnBuilder::new(parts[0].0.data_type(), 0);
    for (c, rows) in parts {
        for i in rows.clone() {
            b.push(c.value(i));
        }
    }
    b.finish()
}

/// Same type, same cells, and the same bitmap word for word: present only
/// when a row is NULL, padding clear (a NULL row's data slot is a
/// don't-care, so data is compared through `value`).
fn assert_same(got: &Column, want: &Column, case: &str) {
    assert_eq!(got.data_type(), want.data_type(), "{case}");
    assert_eq!(got.len(), want.len(), "{case}");
    assert_eq!(got.validity(), want.validity(), "{case}: bitmap");
    for i in 0..got.len() {
        assert_eq!(got.value(i), want.value(i), "{case}: row {i}");
    }
}

/// A part of 0–140 rows: no bitmap, a bitmap with NULLs, or a bitmap built
/// by `new_all_valid` — padding bits set — with or without NULLs. Rows
/// that end up NULL keep their random data.
fn random_part(rng: &mut Rng, dt: DataType) -> Column {
    let rows = match rng.below(4) {
        0 => 0,
        1 => 1 + rng.below(3),
        _ => rng.below(141),
    } as usize;
    let data = match dt {
        DataType::Int64 => Column::from_i64((0..rows).map(|_| rng.next() as i64).collect()),
        DataType::Float64 => Column::from_f64(
            (0..rows)
                .map(|_| match rng.below(8) {
                    0 => f64::NAN,
                    1 => -0.0,
                    _ => (rng.next() as i64 >> 11) as f64 / 8.0,
                })
                .collect(),
        ),
        DataType::Bool => Column::from_bool((0..rows).map(|_| rng.below(2) == 1).collect()),
        DataType::Date32 => Column::from_date32((0..rows).map(|_| rng.next() as i32).collect()),
        DataType::Utf8 => {
            let words = ["", "a", "ünïcodé", "日本語", "a longer string value", "é"];
            let picked: Vec<&str> = (0..rows)
                .map(|_| words[rng.below(words.len() as u64) as usize])
                .collect();
            Column::from_strings(&picked)
        }
    };
    let validity = match rng.below(4) {
        0 => None,
        1 => Some(Validity::from_fn(rows, |_| rng.below(4) != 0)),
        mode => {
            let mut bits = Validity::new_all_valid(rows);
            for i in 0..rows {
                if mode == 3 && rng.below(4) == 0 {
                    bits.set(i, false);
                }
            }
            Some(bits)
        }
    };
    data.with_validity(validity.map(Arc::new))
}

#[test]
fn concat_and_slice_equal_the_cell_by_cell_reference() {
    for seed in 0..400u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let dt = TYPES[seed as usize % TYPES.len()];
        let parts: Vec<Column> = (0..1 + rng.below(4))
            .map(|_| random_part(&mut rng, dt))
            .collect();
        let whole: Vec<(&Column, Range<usize>)> = parts.iter().map(|c| (c, 0..c.len())).collect();
        let want = reference(&whole);
        let case = format!("seed {seed}, {dt}, {} parts", parts.len());

        let refs: Vec<&Column> = parts.iter().collect();
        assert_same(&Column::concat(&refs), &want, &format!("{case}: concat"));

        for c in &parts {
            let start = rng.below(c.len() as u64 + 1) as usize;
            let len = rng.below((c.len() - start) as u64 + 1) as usize;
            assert_same(
                &c.slice(start, len),
                &reference(&[(c, start..start + len)]),
                &format!("{case}: slice {start}+{len} of {}", c.len()),
            );
        }

        // The same parts as the first column of two-column pages.
        let pages: Vec<DataPage> = parts
            .iter()
            .map(|c| DataPage::new(vec![c.clone(), Column::from_i64(vec![7; c.len()])]))
            .collect();
        let page = DataPage::concat(&pages.iter().collect::<Vec<_>>());
        assert_eq!(page.row_count(), want.len(), "{case}");
        assert_same(page.column(0), &want, &format!("{case}: page concat"));
    }
}

#[test]
fn padding_bits_of_one_part_never_reach_the_next() {
    for dt in TYPES {
        // `new_all_valid(70)` sets bits 70–127 of its second word.
        let padded =
            Column::nulls(dt, 70).with_validity(Some(Arc::new(Validity::new_all_valid(70))));
        let nulls = Column::nulls(dt, 3);
        let got = Column::concat(&[&padded, &nulls]);
        assert_eq!(got.null_count(), 3, "{dt}");
        assert!((70..73).all(|i| !got.is_valid(i)), "{dt}");
        assert_same(
            &got,
            &reference(&[(&padded, 0..70), (&nulls, 0..3)]),
            &format!("{dt}"),
        );
        // An all-valid result carries no bitmap at all.
        assert!(Column::concat(&[&padded]).validity().is_none(), "{dt}");
        assert!(padded.slice(60, 10).validity().is_none(), "{dt}");
    }
}

#[test]
fn zero_column_pages_concat_to_their_row_count() {
    let pages = [3, 0, 4].map(DataPage::row_count_only);
    let page = DataPage::concat(&pages.iter().collect::<Vec<_>>());
    assert_eq!((page.num_columns(), page.row_count()), (0, 7));
}

#[test]
#[should_panic(expected = "concat of mixed column types: FLOAT64 then INT64")]
fn concat_of_mixed_types_panics_naming_both() {
    // The cell-by-cell copy turned the Int64 part into floats.
    Column::concat(&[&Column::from_f64(vec![1.5]), &Column::from_i64(vec![2])]);
}
