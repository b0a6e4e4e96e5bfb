//! Zero-dependency JSON value model, writer and parser.
//!
//! `QueryStats::to_json` and the repo benchmark (`suite/`) write their
//! traces and reports as JSON, and the benchmark reads them back. The
//! workspace is dependency-free by design, so this module implements the
//! small JSON subset they need from scratch:
//!
//! * [`Json`] — a value tree. Objects keep **insertion order** (a
//!   `Vec<(String, Json)>`, not a map), which is what makes the emitted
//!   files byte-deterministic for a fixed input.
//! * [`Json::to_string_compact`] / [`Json::to_string_pretty`] — writers.
//!   Numbers are written as integers when exactly representable (`3`, not
//!   `3.0`); non-finite floats (`NaN`, `±inf`) are written as `null`, the
//!   common lossy-but-valid convention.
//! * [`Json::parse`] — a strict recursive-descent parser (UTF-8 input,
//!   `\uXXXX` escapes with surrogate pairs, no trailing garbage).

use std::fmt::Write as _;

use crate::{AccordionError, Result};

/// Largest integer magnitude exactly representable in an `f64`.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64` (the JSON number model).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order — serialization is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Number from an unsigned counter.
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Number from a float (non-finite values serialize as `null`).
    pub fn f64(v: f64) -> Json {
        Json::Num(v)
    }

    /// String value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Appends a field to an object; panics if `self` is not an object
    /// (builder misuse, not data-dependent).
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: impl Into<String>, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Field of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a non-negative integer (counters, ids).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= MAX_SAFE_INT => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline — the format of the repo benchmark's reports.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(parse_err(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Infinity literal; null keeps the file valid while
        // staying visibly "not a number" to readers.
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= MAX_SAFE_INT {
        let _ = write!(out, "{}", v as i64);
    } else {
        // Rust's shortest-roundtrip Display is deterministic.
        let _ = write!(out, "{v}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn parse_err(pos: usize, msg: &str) -> AccordionError {
    AccordionError::Parse(format!("json: {msg} at byte {pos}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<()> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(parse_err(*pos, "unexpected token"))
    }
}

/// Deepest nesting [`Json::parse`] accepts, so that text from a peer (a
/// worker's DONE) cannot recurse the parser out of its stack.
const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(parse_err(*pos, "nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(parse_err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(parse_err(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| parse_err(start, "invalid utf-8 in number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| parse_err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(parse_err(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(parse_err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(parse_err(*pos, "unpaired surrogate"));
                            }
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(parse_err(*pos, "invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| parse_err(*pos, "invalid code point"))?,
                        );
                    }
                    _ => return Err(parse_err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| parse_err(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: usize) -> Result<u32> {
    let end = pos + 4;
    if end > bytes.len() {
        return Err(parse_err(pos, "truncated \\u escape"));
    }
    let text =
        std::str::from_utf8(&bytes[pos..end]).map_err(|_| parse_err(pos, "invalid \\u escape"))?;
    u32::from_str_radix(text, 16).map_err(|_| parse_err(pos, "invalid \\u escape"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_deterministic_objects() {
        let doc = Json::obj()
            .with("b", Json::u64(2))
            .with(
                "a",
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)]),
            )
            .with("s", Json::str("hi\n\"there\""));
        let compact = doc.to_string_compact();
        assert_eq!(
            compact, r#"{"b":2,"a":[1.5,null,true],"s":"hi\n\"there\""}"#,
            "insertion order and escapes must be stable"
        );
        // Writing twice is byte-identical.
        assert_eq!(compact, doc.to_string_compact());
    }

    #[test]
    fn integers_print_without_fraction_and_nonfinite_as_null() {
        assert_eq!(Json::u64(12345).to_string_compact(), "12345");
        assert_eq!(Json::f64(0.25).to_string_compact(), "0.25");
        assert_eq!(Json::f64(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::f64(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Json::f64(-3.0).to_string_compact(), "-3");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let doc = Json::obj()
            .with("name", Json::str("bench"))
            .with("values", Json::Arr(vec![Json::u64(1), Json::f64(2.5)]))
            .with(
                "nested",
                Json::obj()
                    .with("empty_arr", Json::Arr(vec![]))
                    .with("empty_obj", Json::obj()),
            );
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, doc);
        }
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = Json::parse(r#""aA\n\té😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\té😀"));
        // Escaped output re-parses to the same string.
        let s = Json::str("tab\t\"q\"\u{1}");
        assert_eq!(Json::parse(&s.to_string_compact()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&format!("{}{}", "[".repeat(64), "]".repeat(64))).is_ok());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse(r#""\ud800x""#).is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::obj()
            .with("n", Json::u64(7))
            .with("f", Json::f64(1.5))
            .with("s", Json::str("x"))
            .with("b", Json::Bool(true))
            .with("a", Json::Arr(vec![Json::Null]));
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("f").unwrap().as_u64(), None);
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(doc.get("a").unwrap().as_arr().unwrap()[0].is_null());
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.as_obj().unwrap().len(), 5);
        assert!(Json::Null.get("x").is_none());
    }
}
