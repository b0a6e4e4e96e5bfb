//! Seeded property suite for the wire codec: random pages round-trip
//! bit-identically, malformed frames return typed errors (never panic),
//! and the encoded size stays within the documented bound.

use std::sync::Arc;

use accordion_common::AccordionError;
use accordion_data::column::{Column, Utf8Column};
use accordion_data::page::{DataPage, Page};
use accordion_data::wire::{FRAME_OVERHEAD, PER_COLUMN_OVERHEAD};

/// Tiny deterministic PRNG (xorshift*) — no external deps allowed.
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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Interesting scalar pools — extremes are drawn often so every seed hits
/// them.
const I64_POOL: &[i64] = &[0, 1, -1, i64::MAX, i64::MIN, 42, -9_999_999_999];
const F64_POOL: &[f64] = &[
    0.0,
    -0.0,
    1.5,
    -2.25,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    f64::MAX,
];
const STR_POOL: &[&str] = &[
    "",
    "a",
    "héllo wörld",
    "日本語テキスト",
    "x\u{1F600}y",
    "\0nul",
];

fn random_nulls(rng: &mut Rng, rows: usize) -> Vec<bool> {
    match rng.below(3) {
        0 => vec![false; rows],                           // all valid
        1 => vec![true; rows],                            // all null
        _ => (0..rows).map(|_| rng.chance(30)).collect(), // mixed
    }
}

fn random_column(rng: &mut Rng, rows: usize) -> Column {
    let nulls = random_nulls(rng, rows);
    match rng.below(5) {
        0 => Column::from_i64_nullable(
            (0..rows)
                .map(|_| I64_POOL[rng.below(I64_POOL.len() as u64) as usize])
                .collect(),
            &nulls,
        ),
        1 => Column::from_f64_nullable(
            (0..rows)
                .map(|_| F64_POOL[rng.below(F64_POOL.len() as u64) as usize])
                .collect(),
            &nulls,
        ),
        2 => Column::from_bool_nullable((0..rows).map(|_| rng.chance(50)).collect(), &nulls),
        3 => Column::from_date32_nullable(
            (0..rows)
                .map(|_| [0, 1, -1, i32::MAX, i32::MIN, 19_000][rng.below(6) as usize])
                .collect(),
            &nulls,
        ),
        _ => {
            let vals: Vec<&str> = (0..rows)
                .map(|_| STR_POOL[rng.below(STR_POOL.len() as u64) as usize])
                .collect();
            Column::from_utf8_nullable(Utf8Column::from_strings(&vals), &nulls)
        }
    }
}

fn random_page(rng: &mut Rng) -> DataPage {
    let rows = [0, 1, 2, 63, 64, 65, 200][rng.below(7) as usize];
    if rng.chance(10) {
        return DataPage::row_count_only(rows);
    }
    let ncols = 1 + rng.below(5) as usize;
    DataPage::new((0..ncols).map(|_| random_column(rng, rows)).collect())
}

/// Bit-exact column comparison. Derived `PartialEq` is not enough: NaN
/// compares unequal to itself, so floats go through `to_bits`.
fn assert_columns_bit_identical(a: &Column, b: &Column) {
    assert_eq!(a.data_type(), b.data_type());
    assert_eq!(a.len(), b.len());
    assert_eq!(
        a.validity().is_some(),
        b.validity().is_some(),
        "validity presence must round-trip (absent bitmap = all valid)"
    );
    if let (Some(va), Some(vb)) = (a.validity(), b.validity()) {
        assert_eq!(va, vb, "validity bitmap words must round-trip exactly");
    }
    match (a, b) {
        (Column::Float64(x, _), Column::Float64(y, _)) => {
            for (l, r) in x.iter().zip(y.iter()) {
                assert_eq!(l.to_bits(), r.to_bits(), "float bits must round-trip");
            }
        }
        _ => assert_eq!(a, b),
    }
}

fn assert_pages_bit_identical(a: &DataPage, b: &DataPage) {
    assert_eq!(a.row_count(), b.row_count());
    assert_eq!(a.num_columns(), b.num_columns());
    assert_eq!(a.byte_size(), b.byte_size());
    for (ca, cb) in a.columns().iter().zip(b.columns().iter()) {
        assert_columns_bit_identical(ca, cb);
    }
}

fn roundtrip(page: &DataPage) -> Arc<DataPage> {
    let encoded = Page::data(page.clone()).encode();
    match Page::decode(&encoded).expect("well-formed frame must decode") {
        Page::Data(d) => d,
        Page::End(_) => panic!("data frame decoded as end frame"),
    }
}

#[test]
fn random_pages_roundtrip_bit_identically() {
    let mut rng = Rng(0xA11C_E5ED_5EED_0001);
    for _ in 0..300 {
        let page = random_page(&mut rng);
        let decoded = roundtrip(&page);
        assert_pages_bit_identical(&page, &decoded);
        // Encoding is deterministic: re-encoding the decoded page gives
        // the same bytes.
        assert_eq!(
            Page::data(page.clone()).encode(),
            Page::Data(decoded).encode()
        );
    }
}

#[test]
fn encoded_size_stays_within_documented_bound() {
    let mut rng = Rng(0xA11C_E5ED_5EED_0002);
    for _ in 0..200 {
        let page = random_page(&mut rng);
        let encoded = Page::data(page.clone()).encode();
        let bound = page.byte_size() + FRAME_OVERHEAD + PER_COLUMN_OVERHEAD * page.num_columns();
        assert!(
            encoded.len() <= bound,
            "encoded {} bytes exceeds bound {bound} (byte_size {}, {} cols)",
            encoded.len(),
            page.byte_size(),
            page.num_columns()
        );
    }
}

#[test]
fn special_values_roundtrip() {
    let page = DataPage::new(vec![
        Column::from_i64(vec![i64::MIN, i64::MAX, 0, -1]),
        Column::from_f64(vec![f64::NAN, -0.0, 0.0, f64::NEG_INFINITY]),
        Column::from_strings(&["", "\u{0}", "héllo", "末"]),
    ]);
    let decoded = roundtrip(&page);
    assert_pages_bit_identical(&page, &decoded);
    let f = decoded.column(1).as_f64().unwrap();
    assert!(f[0].is_nan());
    assert_eq!(f[1].to_bits(), (-0.0f64).to_bits(), "-0.0 must stay -0.0");
    assert_eq!(decoded.column(2).as_utf8().unwrap().value(0), "");
}

#[test]
fn empty_and_row_count_only_pages_roundtrip() {
    let empty = DataPage::new(vec![
        Column::from_i64(vec![]),
        Column::from_strings::<&str>(&[]),
    ]);
    assert_pages_bit_identical(&empty, &roundtrip(&empty));
    let counted = DataPage::row_count_only(12345);
    let decoded = roundtrip(&counted);
    assert_eq!(decoded.row_count(), 12345);
    assert_eq!(decoded.num_columns(), 0);
}

#[test]
fn truncation_at_every_length_is_a_typed_error_never_a_panic() {
    let mut rng = Rng(0xA11C_E5ED_5EED_0003);
    for _ in 0..20 {
        let page = random_page(&mut rng);
        let encoded = Page::data(page).encode();
        for len in 0..encoded.len() {
            match Page::decode(&encoded[..len]) {
                Err(AccordionError::Wire(_)) => {}
                Err(other) => panic!("expected Wire error, got {other}"),
                Ok(_) => panic!("truncated frame of {len}/{} bytes decoded", encoded.len()),
            }
        }
    }
}

#[test]
fn corruption_of_any_byte_is_detected() {
    let mut rng = Rng(0xA11C_E5ED_5EED_0004);
    let page = random_page(&mut rng);
    let encoded = Page::data(page.clone()).encode();
    // Flip a bit at a sample of positions across the frame (every position
    // for small frames). The checksum (or the version gate) must catch it —
    // decode may never panic and never silently return different data.
    for pos in 0..encoded.len() {
        let mut bad = encoded.clone();
        bad[pos] ^= 0x40;
        if let Ok(Page::Data(d)) = Page::decode(&bad) {
            assert_pages_bit_identical(&page, &d);
        }
    }
}

#[test]
fn garbage_input_never_panics() {
    let mut rng = Rng(0xA11C_E5ED_5EED_0005);
    for _ in 0..500 {
        let len = rng.below(256) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Any outcome but a panic is acceptable; Ok is astronomically
        // unlikely but not wrong per se (checksum collision).
        let _ = Page::decode(&garbage);
    }
}
