//! The wire protocol: a line-oriented text exchange over TCP.
//!
//! One session per connection. After the greeting, the client sends SQL
//! statements terminated by `;` (a statement may span lines, and one send
//! may carry several statements); the server answers **one frame per
//! statement**, in order. `EXIT;` / `QUIT;` end the session.
//!
//! ```text
//! server → OK accordion <version>          greeting, once per connection
//! client → SELECT ... ;                    any statement batch
//! server → OK <message>                    SET / SHOW acknowledgment
//!        | RESULT <ncols>                  result set follows (a SELECT's,
//!                                          or EXPLAIN's one `plan` column)
//!          <csv header>
//!          <csv row>*
//!          END <nrows> <elapsed_ms>
//!        | ERR <message>                   parse/analysis/execution error
//! ```
//!
//! CSV encoding: string fields are **always** double-quoted (with `""`
//! escaping), every other type — integers, floats, booleans, dates, and
//! `NULL` — is written bare. Since no bare rendering starts with `E`, a
//! data row can never be mistaken for the `END` trailer, so results stream
//! without a length prefix. A string's line break is written raw inside
//! its quotes (RFC 4180), so a row can span lines: the client reads on
//! while the row is unterminated. `OK`/`ERR` payloads are single-line:
//! newlines and backslashes are escaped (`\n`, `\r`, `\\`).
//!
//! Rows cost what their bytes cost: [`write_rows`] pushes cells as bytes
//! (digit pairs, whole strings, and whole cents below 10^12 for floats; see
//! `push_f64`), and [`decode_line`] slices each field once. On q_wide's
//! 173,527 rows (sf 0.5, 2-vCPU host) that took writing from about 310 to
//! 85 ns per row and the client's read and decode from 375 to 280 ns.

use std::io::{self, Write as _};

use accordion_common::{AccordionError, Result};
use accordion_data::column::Column;
use accordion_data::page::DataPage;
use accordion_data::schema::Schema;
use accordion_data::types::{date32_ascii, format_date32, Value};

/// Protocol/package version announced in the greeting.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The greeting line sent by the server on accept (without the newline).
pub fn greeting() -> String {
    format!("OK accordion {VERSION}")
}

/// Escapes an `OK`/`ERR` payload into a single line.
pub fn escape_message(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    for ch in msg.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_message`].
pub fn unescape_message(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    let mut chars = msg.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Quotes one CSV field with `""` escaping.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for (i, run) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(run);
    }
    out.push('"');
    out
}

/// Encodes one value as a CSV field. Strings are always quoted; every
/// other type renders bare via its `Display` form.
pub fn csv_value(v: &Value) -> String {
    match v {
        Value::Utf8(s) => quote(s),
        other => other.to_string(),
    }
}

/// Encodes one result row as a CSV line (without the newline). `Value`
/// stays here: the frozen suite times it, and `write_rows` is held to it.
pub fn encode_row(row: &[Value]) -> String {
    let fields: Vec<String> = row.iter().map(csv_value).collect();
    fields.join(",")
}

/// Writes every row of `page` as the line [`encode_row`] specifies for it,
/// newline included — straight from the typed columns, with no `Value`, no
/// row vector and no formatter in between. The page's lines are gathered
/// in the bytes of `line`, scratch space a caller keeps across pages, and
/// leave in one `write_all`.
pub fn write_rows(out: &mut impl io::Write, page: &DataPage, line: &mut String) -> io::Result<()> {
    // Cells are pushed as bytes; the buffer goes back to `line` empty, so
    // handing it back checks no UTF-8 and keeps its capacity.
    let mut buf = std::mem::take(line).into_bytes();
    buf.clear();
    for row in 0..page.row_count() {
        for (i, column) in page.columns().iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            if !column.is_valid(row) {
                buf.extend_from_slice(b"NULL");
                continue;
            }
            // The `Display` of the cell's `Value`.
            match column {
                Column::Int64(v, _) => push_i64(&mut buf, v[row]),
                Column::Float64(v, _) => push_f64(&mut buf, v[row]),
                Column::Bool(v, _) => {
                    buf.extend_from_slice(if v[row] { b"true" } else { b"false" })
                }
                Column::Date32(v, _) => match date32_ascii(v[row]) {
                    Some(text) => buf.extend_from_slice(&text),
                    None => buf.extend_from_slice(format_date32(v[row]).as_bytes()),
                },
                Column::Utf8(v, _) => {
                    buf.push(b'"');
                    for (i, run) in v.value(row).split('"').enumerate() {
                        if i > 0 {
                            buf.extend_from_slice(b"\"\"");
                        }
                        buf.extend_from_slice(run.as_bytes());
                    }
                    buf.push(b'"');
                }
            }
        }
        buf.push(b'\n');
    }
    let written = out.write_all(&buf);
    buf.clear();
    *line = String::from_utf8(buf).expect("an empty buffer");
    written
}

/// "00" through "99": two decimal digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `n` in decimal, as `u64`'s `Display` writes it.
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        let pair = (n % 100) as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        n /= 100;
        if n == 0 {
            break;
        }
    }
    // The first pair's leading zero is not a digit (of "00", one is).
    buf.extend_from_slice(&digits[at + (digits[at] == b'0') as usize..]);
}

fn push_i64(buf: &mut Vec<u8>, v: i64) {
    if v < 0 {
        buf.push(b'-');
    }
    push_u64(buf, v.unsigned_abs());
}

/// `x` as `f64`'s `Display` writes it (the shortest decimal that reads
/// back as `x`, never an exponent), fast for whole cents below 10^12.
///
/// That path takes `c = round(100·x)` when `x` is finite, `|x| < 1e12` and
/// `c / 100.0 == x`, and prints `c/100` with trailing fraction zeros
/// trimmed. `|c| < 2^53` is exact and the division rounds correctly, so
/// `c/100` reads back as `x`. No other decimal `D` with no more
/// significant digits does: if `D`'s leading digit is no lower than
/// `c/100`'s, `D` ends by the hundredths and differs from `c/100` by at
/// least 0.01; if it is lower, `D` falls short of a power of ten that
/// `c/100` reaches by at least a unit in its last place, 0.001 or more.
/// Two decimals that read back as `x` lie within one ULP of each other,
/// and below 1e12 < 2^40 an ULP is at most 2^-13 ≈ 1.2e-4. So `c/100` is
/// the one shortest decimal, and `Display` prints it. The sign is `x`'s,
/// so `-0.0` prints `-0` as `Display` does. Everything else takes `Display`.
fn push_f64(buf: &mut Vec<u8>, x: f64) {
    let c = (x * 100.0).round();
    if !(x.is_finite() && x.abs() < 1e12 && c / 100.0 == x) {
        write!(buf, "{x}").expect("writing to a Vec");
        return;
    }
    if x.is_sign_negative() {
        buf.push(b'-');
    }
    let cents = c.abs() as u64;
    push_u64(buf, cents / 100);
    let frac = (cents % 100) as usize;
    if !frac.is_multiple_of(10) {
        buf.push(b'.');
        buf.extend_from_slice(&DIGIT_PAIRS[frac * 2..frac * 2 + 2]);
    } else if frac != 0 {
        buf.extend_from_slice(&[b'.', b'0' + (frac / 10) as u8]);
    }
}

/// Encodes the result header — column names, always quoted.
pub fn encode_header(schema: &Schema) -> String {
    let fields: Vec<String> = schema.fields().iter().map(|f| quote(&f.name)).collect();
    fields.join(",")
}

/// Splits one CSV line produced by [`encode_row`] / [`encode_header`] back
/// into fields. Quoted fields are unquoted; bare fields are returned as-is
/// (so `NULL`, numbers, dates stay textual — the client works in strings).
/// Each field is sliced out of `line` once, into a `String` of its exact
/// size; only a quoted field holding `""` is assembled piece by piece.
pub fn decode_line(line: &str) -> Result<Vec<String>> {
    let bytes = line.as_bytes();
    let mut fields = Vec::with_capacity(1 + bytes.iter().filter(|&&b| b == b',').count());
    let unterminated =
        || AccordionError::Parse(format!("unterminated quoted CSV field in {line:?}"));
    let find = |from: usize, byte: u8| bytes[from..].iter().position(|&b| b == byte);
    let quote_at = |from: usize| find(from, b'"').map(|p| from + p);
    let mut i = 0;
    loop {
        if bytes.get(i) == Some(&b'"') {
            let mut close = quote_at(i + 1).ok_or_else(unterminated)?;
            if bytes.get(close + 1) != Some(&b'"') {
                fields.push(line[i + 1..close].to_string());
            } else {
                let mut field = String::new();
                let mut from = i + 1;
                while bytes.get(close + 1) == Some(&b'"') {
                    field.push_str(&line[from..=close]);
                    from = close + 2;
                    close = quote_at(from).ok_or_else(unterminated)?;
                }
                field.push_str(&line[from..close]);
                fields.push(field);
            }
            i = close + 1;
        } else {
            let end = find(i, b',').map_or(line.len(), |p| i + p);
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

/// One parsed response head-line, as the client sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// `OK <message>` — acknowledgment with an unescaped payload.
    Ok(String),
    /// `RESULT <ncols>` — a header line, rows, and an `END` trailer follow.
    Result { ncols: usize },
    /// `END <nrows> <elapsed_ms>` — result trailer.
    End { nrows: u64, elapsed_ms: u64 },
    /// `ERR <message>` — unescaped error payload.
    Err(String),
}

/// Parses one protocol line into a [`Frame`].
pub fn parse_frame(line: &str) -> Result<Frame> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("OK") {
        return Ok(Frame::Ok(unescape_message(rest.trim_start())));
    }
    if let Some(rest) = line.strip_prefix("ERR") {
        return Ok(Frame::Err(unescape_message(rest.trim_start())));
    }
    if let Some(rest) = line.strip_prefix("RESULT ") {
        let ncols = rest
            .trim()
            .parse::<usize>()
            .map_err(|_| AccordionError::Parse(format!("malformed RESULT frame: {line:?}")))?;
        return Ok(Frame::Result { ncols });
    }
    if let Some(rest) = line.strip_prefix("END ") {
        let mut parts = rest.split_whitespace();
        let (Some(nrows), Some(elapsed_ms), None) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(AccordionError::Parse(format!(
                "malformed END frame: {line:?}"
            )));
        };
        let (Ok(nrows), Ok(elapsed_ms)) = (nrows.parse::<u64>(), elapsed_ms.parse::<u64>()) else {
            return Err(AccordionError::Parse(format!(
                "malformed END frame: {line:?}"
            )));
        };
        return Ok(Frame::End { nrows, elapsed_ms });
    }
    Err(AccordionError::Parse(format!(
        "unrecognized protocol frame: {line:?}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::Field;
    use accordion_data::types::DataType;

    #[test]
    fn message_escape_roundtrip() {
        let msg = "line one\nline two\r\\slash";
        let escaped = escape_message(msg);
        assert!(!escaped.contains('\n'));
        assert_eq!(unescape_message(&escaped), msg);
    }

    #[test]
    fn csv_roundtrip_with_quotes_commas_and_nulls() {
        let row = vec![
            Value::Utf8("a,b \"quoted\"\n".to_string()),
            Value::Null,
            Value::Int64(-3),
            Value::Float64(1.5),
            Value::Utf8("END 3 4".to_string()),
        ];
        let line = encode_row(&row);
        // String fields are always quoted, so the line can't be mistaken
        // for an END trailer even when a value spells one.
        assert!(line.starts_with('"'));
        let fields = decode_line(&line).unwrap();
        assert_eq!(fields[0], "a,b \"quoted\"\n");
        assert_eq!(fields[1], "NULL");
        assert_eq!(fields[2], "-3");
        assert_eq!(fields[4], "END 3 4");
    }

    #[test]
    fn typed_row_writer_is_encode_row_byte_for_byte() {
        use accordion_data::column::ColumnBuilder;
        // xorshift: seeded, so a failure names a page that can be rebuilt.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let floats = [
            0.0,
            -0.0,
            1.5,
            1e21,
            1e-7,
            -123456.789,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        let ints = [0, -1, 42, i64::MAX, i64::MIN];
        let dates = [0, -1, 9_204, 10_957, -719_162, 2_932_896, 11_016];
        let texts = [
            "",
            "plain",
            "a,b",
            "say \"hi\"",
            "\"",
            "line\nbreak\r\n",
            "END 3 4",
            "NULL",
            "ünïcodé ✓",
        ];
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Date32,
            DataType::Utf8,
        ];
        let mut line = String::new();
        for page_no in 0..200 {
            let rows = below(40) as usize;
            let ncols = 1 + below(6) as usize;
            let columns = (0..ncols)
                .map(|c| {
                    // The first five columns cover every type on every page.
                    let dt = types[if c < 5 { c } else { below(5) as usize }];
                    let null_pct = [0, 0, 20, 100][below(4) as usize];
                    let mut b = ColumnBuilder::new(dt, rows);
                    for _ in 0..rows {
                        b.push(if below(100) < null_pct {
                            Value::Null
                        } else {
                            match dt {
                                DataType::Int64 => Value::Int64(ints[below(5) as usize]),
                                DataType::Float64 => Value::Float64(floats[below(11) as usize]),
                                DataType::Bool => Value::Bool(below(2) == 0),
                                DataType::Date32 => Value::Date32(dates[below(7) as usize]),
                                DataType::Utf8 => Value::Utf8(texts[below(9) as usize].into()),
                            }
                        });
                    }
                    b.finish()
                })
                .collect();
            let page = DataPage::new(columns);
            let mut written = Vec::new();
            write_rows(&mut written, &page, &mut line).unwrap();
            let mut expected = String::new();
            for row in page.rows() {
                let encoded = encode_row(&row);
                let fields = decode_line(&encoded).unwrap();
                let texts: Vec<String> = row.iter().map(Value::to_string).collect();
                assert_eq!(
                    fields, texts,
                    "page {page_no}: {encoded:?} does not round-trip"
                );
                expected.push_str(&encoded);
                expected.push('\n');
            }
            assert_eq!(
                String::from_utf8(written).unwrap(),
                expected,
                "page {page_no}"
            );
        }
        // A page with rows and no columns is that many empty lines.
        let mut written = Vec::new();
        write_rows(&mut written, &DataPage::row_count_only(3), &mut line).unwrap();
        assert_eq!(written, b"\n\n\n");
    }

    #[test]
    fn header_encodes_column_names() {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("total", DataType::Int64),
        ]);
        let fields = decode_line(&encode_header(&schema)).unwrap();
        assert_eq!(fields, vec!["region", "total"]);
    }

    #[test]
    fn frames_parse() {
        assert_eq!(
            parse_frame("OK deadline_ms = 250\n").unwrap(),
            Frame::Ok("deadline_ms = 250".to_string())
        );
        assert_eq!(parse_frame("RESULT 3").unwrap(), Frame::Result { ncols: 3 });
        assert_eq!(
            parse_frame("END 10 42").unwrap(),
            Frame::End {
                nrows: 10,
                elapsed_ms: 42
            }
        );
        let Frame::Err(msg) = parse_frame("ERR boom\\nline 2").unwrap() else {
            panic!("expected ERR");
        };
        assert_eq!(msg, "boom\nline 2");
        assert!(parse_frame("WAT 1").is_err());
        assert!(parse_frame("END 1").is_err());
    }
}
