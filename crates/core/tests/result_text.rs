//! The text result path against references that share none of its code:
//! `write_rows`' floats against `format!("{}")` over seeded values of every
//! kind, `decode_line` against the char-by-char decoder it replaced, and
//! written pages against each cell's `Value` `Display` text, which is what
//! a client of the protocol is promised.

use accordion_common::{AccordionError, Result};
use accordion_core::protocol::{decode_line, write_rows};
use accordion_data::column::{Column, ColumnBuilder};
use accordion_data::page::DataPage;
use accordion_data::types::{DataType, Value};

/// xorshift64: seeded, so a failing case names an input that can be
/// rebuilt.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every line `write_rows` writes for `page`.
fn written_lines(page: &DataPage) -> Vec<String> {
    let (mut out, mut line) = (Vec::new(), String::new());
    write_rows(&mut out, page, &mut line).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn float_cells_are_written_as_display_writes_them() {
    let mut values = Vec::new();
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    for _ in 0..200_000 {
        // Any bit pattern: NaNs, infinities, subnormals and huge values.
        values.push(f64::from_bits(rng.next()));
        // Whole cents of both signs and every length up to 14 digits, then
        // the same values one and two ULPs off.
        let cents = (rng.next() % 10u64.pow(1 + rng.below(14) as u32)) as f64;
        let x = if rng.below(2) == 0 { cents } else { -cents } / 100.0;
        values.push(x);
        for ulps in [1, 2] {
            values.push(f64::from_bits(x.to_bits() + ulps));
            values.push(f64::from_bits(x.to_bits().wrapping_sub(ulps)));
        }
    }
    // Around the 1e12 cut, where the whole-cents path ends.
    for k in -100_000..100_000 {
        let x = (1e14 + k as f64) / 100.0;
        values.extend([x, -x, f64::from_bits(x.to_bits() + 1)]);
    }
    values.extend([
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN,
        1e12,
        999_999_999_999.99,
        0.01,
        0.1,
        0.3,
        0.1 + 0.2,
    ]);
    assert!(values.len() >= 1_000_000, "{} values", values.len());
    for chunk in values.chunks(4096) {
        let page = DataPage::new(vec![Column::from_f64(chunk.to_vec())]);
        for (x, line) in chunk.iter().zip(written_lines(&page)) {
            assert_eq!(line, format!("{x}"), "bits {:#018x}", x.to_bits());
        }
    }
}

/// The char-by-char decoder that `decode_line` replaced, kept as the
/// reference it is held to.
fn decode_line_reference(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    loop {
        if i < bytes.len() && bytes[i] == b'"' {
            let mut field = String::new();
            i += 1;
            loop {
                match bytes.get(i) {
                    Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                        field.push('"');
                        i += 2;
                    }
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(_) => {
                        let ch = line[i..].chars().next().expect("in bounds");
                        field.push(ch);
                        i += ch.len_utf8();
                    }
                    None => {
                        return Err(AccordionError::Parse(format!(
                            "unterminated quoted CSV field in {line:?}"
                        )))
                    }
                }
            }
            fields.push(field);
        } else {
            let end = line[i..].find(',').map(|p| i + p).unwrap_or(line.len());
            fields.push(line[i..end].to_string());
            i = end;
        }
        match bytes.get(i) {
            Some(b',') => i += 1,
            None => return Ok(fields),
            Some(_) => {
                return Err(AccordionError::Parse(format!(
                    "malformed CSV line near byte {i} in {line:?}"
                )))
            }
        }
    }
}

const PIECES: [&str; 14] = [
    "",
    "a",
    "NULL",
    "-12.5",
    "1994-03-05",
    ",",
    "\"",
    "\"\"",
    "ü",
    "日本",
    "✓",
    " ",
    "x,y",
    "END 3 4",
];

#[test]
fn decode_line_matches_the_char_by_char_reference() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut ok, mut err) = (0, 0);
    let fixed = [
        "",
        ",",
        "\"",
        "\"\"",
        "\"\",\"\"",
        "\"abc",
        "\"a\"b",
        "\"a\"\"",
        "a\"b,\"\"\"\"",
    ];
    for case in 0..30_000 {
        let mut line = String::new();
        for f in 0..1 + rng.below(5) {
            if f > 0 {
                line.push(',');
            }
            let text: String = (0..rng.below(4)).map(|_| PIECES[rng.below(14)]).collect();
            if rng.below(3) > 0 {
                line.push('"');
                line.push_str(&text.replace('"', "\"\""));
                line.push('"');
            } else {
                line.push_str(&text.replace(['"', ','], ""));
            }
        }
        // Malformed lines: cut at, or insert a piece at, a random char
        // boundary, which leaves quotes unterminated or bytes after a
        // closing quote.
        let at = line
            .char_indices()
            .map(|(i, _)| i)
            .nth(rng.below(line.chars().count() + 1))
            .unwrap_or(line.len());
        match rng.below(4) {
            0 => line.truncate(at),
            1 => line.insert_str(at, PIECES[rng.below(14)]),
            _ => {}
        }
        if case < fixed.len() {
            line = fixed[case].to_string();
        }
        match (decode_line(&line), decode_line_reference(&line)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got, want, "{line:?}");
                ok += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "{line:?}");
                err += 1;
            }
            (got, want) => panic!("{line:?}: {got:?} against {want:?}"),
        }
    }
    assert!(ok > 10_000 && err > 1_000, "{ok} decoded, {err} refused");
}

#[test]
fn written_rows_decode_to_each_cells_display_text() {
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let types = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Date32,
        DataType::Utf8,
    ];
    for page_no in 0..300 {
        let rows = 1 + rng.below(64);
        let columns = (0..1 + rng.below(8))
            .map(|_| {
                let dt = types[rng.below(5)];
                let null_pct = [0, 10, 100][rng.below(3)];
                let mut b = ColumnBuilder::new(dt, rows);
                for _ in 0..rows {
                    let bits = rng.next();
                    b.push(if rng.below(100) < null_pct {
                        Value::Null
                    } else {
                        match dt {
                            DataType::Int64 => Value::Int64(bits as i64 >> rng.below(64)),
                            DataType::Float64 if bits.is_multiple_of(2) => {
                                Value::Float64(f64::from_bits(bits))
                            }
                            DataType::Float64 => {
                                Value::Float64((bits as i64 >> rng.below(64)) as f64 / 100.0)
                            }
                            DataType::Bool => Value::Bool(bits.is_multiple_of(2)),
                            DataType::Date32 => {
                                Value::Date32((bits % 6_000_001) as i32 - 3_000_000)
                            }
                            DataType::Utf8 => Value::Utf8(
                                (0..rng.below(4)).map(|_| PIECES[rng.below(14)]).collect(),
                            ),
                        }
                    });
                }
                b.finish()
            })
            .collect();
        let page = DataPage::new(columns);
        let lines = written_lines(&page);
        assert_eq!(lines.len(), rows, "page {page_no}");
        for (row, (values, line)) in page.rows().iter().zip(&lines).enumerate() {
            let want: Vec<String> = values.iter().map(Value::to_string).collect();
            assert_eq!(decode_line(line).unwrap(), want, "page {page_no} row {row}");
        }
    }
}
