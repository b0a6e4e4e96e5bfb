//! Property-style ordering tests: `sort_page` and `TopNAccumulator` are
//! cross-checked against a naive row-materializing reference sort on
//! randomized-but-seeded inputs (nulls included), and the typed comparators
//! against `Value::total_cmp` on every pair of cells. The Top-N reference
//! is a stable sort of every row, truncated after `n`: whole rows, ties at
//! the cut going to the earliest arrival.

use std::cmp::Ordering;

use accordion_data::column::{Column, ColumnBuilder};
use accordion_data::page::DataPage;
use accordion_data::sort::{cmp_cells, compare_rows, sort_page, SortKey, TopNAccumulator};
use accordion_data::types::{DataType, Value};

/// Deterministic xorshift64* generator (no external rand crate).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random 3-column page: small-domain Int64 (forces ties), Utf8, Float64 —
/// each with ~1/6 NULLs.
fn random_page(rng: &mut Rng, rows: usize) -> DataPage {
    let mut c0 = ColumnBuilder::new(DataType::Int64, rows);
    let mut c1 = ColumnBuilder::new(DataType::Utf8, rows);
    let mut c2 = ColumnBuilder::new(DataType::Float64, rows);
    for _ in 0..rows {
        c0.push(if rng.below(6) == 0 {
            Value::Null
        } else {
            Value::Int64(rng.below(5) as i64)
        });
        c1.push(if rng.below(6) == 0 {
            Value::Null
        } else {
            Value::Utf8(format!("s{}", rng.below(4)))
        });
        c2.push(if rng.below(6) == 0 {
            Value::Null
        } else {
            Value::Float64(rng.below(100) as f64 / 4.0)
        });
    }
    DataPage::new(vec![c0.finish(), c1.finish(), c2.finish()])
}

fn cmp_value_rows(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a[k.column].total_cmp(&b[k.column]);
        let ord = if k.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Naive reference: materialize rows, stable-sort with the same comparator.
fn reference_sort(page: &DataPage, keys: &[SortKey]) -> Vec<Vec<Value>> {
    let mut rows = page.rows();
    rows.sort_by(|a, b| cmp_value_rows(a, b, keys));
    rows
}

/// Feeds `pages` to a Top-N of `n` and returns its rows, checking that
/// every page but the last holds `page_rows` rows.
fn top_n(pages: &[DataPage], keys: &[SortKey], n: usize, page_rows: usize) -> Vec<Vec<Value>> {
    let mut acc = TopNAccumulator::new(keys.to_vec(), n);
    for p in pages {
        acc.push_page(p);
    }
    let len = acc.len();
    let out = acc.finish(page_rows);
    let sizes: Vec<usize> = out.iter().map(DataPage::row_count).collect();
    assert_eq!(sizes.iter().sum::<usize>(), len);
    assert!(
        sizes.iter().rev().skip(1).all(|&s| s == page_rows),
        "{sizes:?}"
    );
    out.iter().flat_map(DataPage::rows).collect()
}

#[test]
fn sort_page_matches_reference_across_seeds() {
    let key_sets: Vec<Vec<SortKey>> = vec![
        vec![SortKey::asc(0)],
        vec![SortKey::desc(2)],
        vec![SortKey::asc(0), SortKey::desc(1)],
        vec![SortKey::desc(1), SortKey::asc(2), SortKey::asc(0)],
    ];
    for seed in 1..=15u64 {
        let mut rng = Rng::new(seed * 7919);
        let rows = 1 + rng.below(60) as usize;
        let page = random_page(&mut rng, rows);
        for keys in &key_sets {
            let sorted = sort_page(&page, keys);
            let expected = reference_sort(&page, keys);
            // Both sorts are stable with the same comparator ⇒ rows match
            // exactly, payload columns included.
            assert_eq!(
                sorted.rows(),
                expected,
                "seed {seed}, keys {keys:?} diverged"
            );
        }
    }
}

#[test]
fn topn_matches_reference_prefix_across_seeds() {
    let keys = vec![SortKey::asc(0), SortKey::desc(2)];
    for seed in 1..=15u64 {
        let mut rng = Rng::new(seed * 104_729);
        // Feed the accumulator in several pages; the reference sees the
        // concatenation.
        let mut pages: Vec<DataPage> = Vec::new();
        for _ in 0..3 {
            let rows = 1 + rng.below(25) as usize;
            pages.push(random_page(&mut rng, rows));
        }
        let whole = DataPage::concat(&pages.iter().collect::<Vec<_>>());
        for n in [0usize, 1, 3, 10, 1000, usize::MAX] {
            let expected = reference_sort(&whole, &keys);
            let expected_prefix = &expected[..n.min(expected.len())];
            // Whole rows, payload columns included: ties at the cut go to
            // the row that arrived first, as in the stable sort.
            assert_eq!(
                top_n(&pages, &keys, n, 4),
                expected_prefix,
                "seed {seed}, n {n} diverged"
            );
        }
    }
}

#[test]
fn compare_rows_agrees_with_value_comparator() {
    let mut rng = Rng::new(31);
    let page = random_page(&mut rng, 40);
    let keys = vec![SortKey::desc(0), SortKey::asc(1)];
    let rows = page.rows();
    for a in 0..page.row_count() {
        for b in 0..page.row_count() {
            assert_eq!(
                compare_rows(&page, a, &page, b, &keys),
                cmp_value_rows(&rows[a], &rows[b], &keys),
                "rows {a} vs {b}"
            );
        }
    }
}

#[test]
fn nulls_sort_first_ascending_last_descending() {
    let mut b = ColumnBuilder::new(DataType::Int64, 4);
    b.push(Value::Int64(5));
    b.push(Value::Null);
    b.push(Value::Int64(1));
    b.push(Value::Null);
    let page = DataPage::new(vec![b.finish()]);
    let asc = sort_page(&page, &[SortKey::asc(0)]);
    assert_eq!(
        asc.rows(),
        vec![
            vec![Value::Null],
            vec![Value::Null],
            vec![Value::Int64(1)],
            vec![Value::Int64(5)],
        ]
    );
    let desc = sort_page(&page, &[SortKey::desc(0)]);
    assert_eq!(
        desc.rows(),
        vec![
            vec![Value::Int64(5)],
            vec![Value::Int64(1)],
            vec![Value::Null],
            vec![Value::Null],
        ]
    );
}

const ALL_TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Date32,
    DataType::Utf8,
];

/// A non-NULL value of `dt` from a small domain (ties are the point), with
/// the floats total order treats specially and integers at the extremes.
fn edge_value(rng: &mut Rng, dt: DataType) -> Value {
    match dt {
        DataType::Int64 => match rng.below(12) {
            0 => Value::Int64(i64::MIN),
            1 => Value::Int64(i64::MAX),
            k => Value::Int64(k as i64 % 5 - 2),
        },
        DataType::Float64 => {
            let specials = [
                f64::NAN,
                -f64::NAN,
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.5,
                -2.0,
                2.0,
            ];
            Value::Float64(specials[rng.below(specials.len() as u64) as usize])
        }
        DataType::Bool => Value::Bool(rng.below(2) == 0),
        DataType::Date32 => Value::Date32(rng.below(4) as i32 - 1),
        DataType::Utf8 => {
            let words = ["", "a", "a\u{0}", "ab", "b", "ünï", "zz"];
            Value::Utf8(words[rng.below(words.len() as u64) as usize].to_string())
        }
    }
}

/// One row per type in `ALL_TYPES` order, each cell NULL with chance 1/6.
fn edge_row(rng: &mut Rng) -> Vec<Value> {
    ALL_TYPES
        .iter()
        .map(|&dt| {
            if rng.below(6) == 0 {
                Value::Null
            } else {
                edge_value(rng, dt)
            }
        })
        .collect()
}

fn page_of(rows: &[Vec<Value>]) -> DataPage {
    let mut builders: Vec<ColumnBuilder> = ALL_TYPES
        .iter()
        .map(|&dt| ColumnBuilder::new(dt, rows.len()))
        .collect();
    for row in rows {
        for (b, v) in builders.iter_mut().zip(row) {
            b.push(v.clone());
        }
    }
    DataPage::new(builders.into_iter().map(ColumnBuilder::finish).collect())
}

#[test]
fn topn_keeps_exactly_the_rows_of_a_stable_sort_then_truncate() {
    let key_sets: Vec<Vec<SortKey>> = vec![
        vec![SortKey::asc(0)],
        vec![SortKey::desc(1)],
        vec![SortKey::asc(2), SortKey::desc(4)],
        vec![SortKey::desc(3), SortKey::asc(1)],
        vec![SortKey::asc(4)],
        vec![
            SortKey::desc(4),
            SortKey::asc(2),
            SortKey::desc(3),
            SortKey::asc(0),
            SortKey::desc(1),
        ],
        vec![],
    ];
    for seed in 1..=42u64 {
        let mut rng = Rng::new(seed * 15_485_863);
        let keys = &key_sets[seed as usize % key_sets.len()];
        let mut rows: Vec<Vec<Value>> = (0..rng.below(400)).map(|_| edge_row(&mut rng)).collect();
        // Input ascending, descending or shuffled relative to the keys: a
        // sorted input makes every row a candidate, a reversed one rejects
        // nearly every row after the first cut.
        let order = match seed % 3 {
            0 => "shuffled",
            1 => {
                rows.sort_by(|a, b| cmp_value_rows(a, b, keys));
                "ascending"
            }
            _ => {
                rows.sort_by(|a, b| cmp_value_rows(b, a, keys));
                "descending"
            }
        };
        let mut pages = Vec::new();
        let mut at = 0;
        while at < rows.len() {
            let take = (1 + rng.below(40) as usize).min(rows.len() - at);
            pages.push(page_of(&rows[at..at + take]));
            at += take;
        }
        let mut expected = rows.clone();
        expected.sort_by(|a, b| cmp_value_rows(a, b, keys));
        for n in [0usize, 1, 3, 10, 1000, usize::MAX] {
            let page_rows = 1 + rng.below(16) as usize;
            assert_eq!(
                top_n(&pages, keys, n, page_rows),
                expected[..n.min(rows.len())],
                "seed {seed}, {order} input of {} rows in {} pages, keys {keys:?}, n {n}",
                rows.len(),
                pages.len()
            );
        }
    }
}

#[test]
fn typed_comparators_equal_value_total_cmp_on_every_pair_of_cells() {
    // Every type against every type (mismatched pairs compare Equal, Int64
    // against Float64 as f64), NULL on either side, every edge value.
    let mut rng = Rng::new(77);
    let rows: Vec<Vec<Value>> = (0..48).map(|_| edge_row(&mut rng)).collect();
    let page = page_of(&rows);
    let mut nulls = 0;
    for ca in 0..ALL_TYPES.len() {
        for cb in 0..ALL_TYPES.len() {
            let (a, b): (&Column, &Column) = (page.column(ca), page.column(cb));
            for ra in 0..page.row_count() {
                for rb in 0..page.row_count() {
                    let (va, vb) = (&rows[ra][ca], &rows[rb][cb]);
                    let expected = va.total_cmp(vb);
                    assert_eq!(
                        cmp_cells(a, ra, b, rb),
                        expected,
                        "cmp_cells({va:?}, {vb:?})"
                    );
                    nulls += (va.is_null() || vb.is_null()) as usize;
                }
            }
        }
    }
    assert!(nulls > 0, "NULL was on one side of some pairs");
}
