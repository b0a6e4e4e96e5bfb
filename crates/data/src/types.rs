//! The engine's type system.
//!
//! Deliberately small: the five types below cover the TPC-H evaluation
//! workload. Decimals are mapped to `Float64` (a documented substitution —
//! the experiments measure elasticity, not numeric precision).

use std::cmp::Ordering;
use std::fmt;

/// Physical data types of column vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (keys, counts, quantities).
    Int64,
    /// 64-bit IEEE float (prices, discounts — decimal substitute).
    Float64,
    /// Boolean.
    Bool,
    /// Days since 1970-01-01 (TPC-H dates).
    Date32,
    /// UTF-8 string.
    Utf8,
}

impl DataType {
    /// Fixed width in bytes of one value, `None` for variable-width types.
    pub fn fixed_width(&self) -> Option<usize> {
        match self {
            DataType::Int64 => Some(8),
            DataType::Float64 => Some(8),
            DataType::Bool => Some(1),
            DataType::Date32 => Some(4),
            DataType::Utf8 => None,
        }
    }

    /// True for types on which arithmetic is defined.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT64",
            DataType::Float64 => "FLOAT64",
            DataType::Bool => "BOOL",
            DataType::Date32 => "DATE",
            DataType::Utf8 => "VARCHAR",
        };
        f.write_str(s)
    }
}

/// An owned scalar value (used in literals, scalar results, test fixtures).
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int64(i64),
    Float64(f64),
    Bool(bool),
    Date32(i32),
    Utf8(String),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date32(_) => Some(DataType::Date32),
            Value::Utf8(_) => Some(DataType::Utf8),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            Value::Date32(v) => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Total-order comparison used by ORDER BY / Top-N. `Null` sorts first;
    /// NaN sorts last among floats. Mixed numeric types compare as f64;
    /// comparing other mismatched types is a logic error handled upstream by
    /// the analyzer, so it falls back to `Ordering::Equal`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int64(a), Int64(b)) => a.cmp(b),
            (Date32(a), Date32(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Int64(a), Float64(b)) => (*a as f64).total_cmp(b),
            (Float64(a), Int64(b)) => a.total_cmp(&(*b as f64)),
            _ => Ordering::Equal,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Null != Null for SQL semantics is handled by the evaluator; here we
        // implement *structural* equality so Values can be used in test
        // assertions and hash maps.
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            (Date32(a), Date32(b)) => a == b,
            (Utf8(a), Utf8(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Date32(v) => write_date32(f, *v),
            Value::Utf8(v) => write!(f, "{v}"),
        }
    }
}

/// Days in each month of a non-leap year.
const MONTH_DAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

/// Converts `YYYY-MM-DD` to days since 1970-01-01.
///
/// Valid for years 1 through 9999. Out-of-range month/day components are
/// **clamped** into `1..=12` / `1..=31`: the old `debug_assert!` compiled
/// away in release builds, where a month of 0 or 13 walked the month table
/// out of bounds and produced a silently wrong day count. Callers that need
/// rejection instead of clamping validate first (see [`parse_date32`]).
pub fn date32_from_ymd(year: i64, month: i64, day: i64) -> i32 {
    let month = month.clamp(1, 12);
    let day = day.clamp(1, 31);
    let mut days: i64 = 0;
    if year >= 1970 {
        for y in 1970..year {
            days += if is_leap(y) { 366 } else { 365 };
        }
    } else {
        for y in year..1970 {
            days -= if is_leap(y) { 366 } else { 365 };
        }
    }
    for (m, len) in MONTH_DAYS.iter().enumerate().take((month - 1) as usize) {
        days += len;
        if m == 1 && is_leap(year) {
            days += 1;
        }
    }
    (days + day - 1) as i32
}

/// Parses a `YYYY-MM-DD` literal into days since the epoch.
pub fn parse_date32(s: &str) -> Option<i32> {
    let mut it = s.splitn(3, '-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: i64 = it.next()?.parse().ok()?;
    let d: i64 = it.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(date32_from_ymd(y, m, d))
}

/// Formats days-since-epoch as `YYYY-MM-DD`.
pub fn format_date32(days: i32) -> String {
    let mut text = String::with_capacity(10);
    write_date32(&mut text, days).expect("writing to a String cannot fail");
    text
}

/// [`format_date32`] into an existing buffer or formatter.
pub fn write_date32(out: &mut impl fmt::Write, days: i32) -> fmt::Result {
    let mut remaining = days as i64;
    let mut year = 1970i64;
    loop {
        let len = if is_leap(year) { 366 } else { 365 };
        if remaining >= len {
            remaining -= len;
            year += 1;
        } else if remaining < 0 {
            year -= 1;
            remaining += if is_leap(year) { 366 } else { 365 };
        } else {
            break;
        }
    }
    let mut month = 0usize;
    loop {
        let mut len = MONTH_DAYS[month];
        if month == 1 && is_leap(year) {
            len += 1;
        }
        if remaining >= len {
            remaining -= len;
            month += 1;
        } else {
            break;
        }
    }
    write!(out, "{:04}-{:02}-{:02}", year, month + 1, remaining + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_epoch() {
        assert_eq!(date32_from_ymd(1970, 1, 1), 0);
        assert_eq!(format_date32(0), "1970-01-01");
    }

    #[test]
    fn date_roundtrip_known_values() {
        // 1994-03-05 appears in the paper's example query.
        let d = parse_date32("1994-03-05").unwrap();
        assert_eq!(format_date32(d), "1994-03-05");
        // Leap day.
        let d = parse_date32("1996-02-29").unwrap();
        assert_eq!(format_date32(d), "1996-02-29");
        // Pre-epoch.
        let d = parse_date32("1969-12-31").unwrap();
        assert_eq!(d, -1);
        assert_eq!(format_date32(d), "1969-12-31");
    }

    #[test]
    fn date_ordering_matches_string_ordering() {
        let a = parse_date32("1992-01-02").unwrap();
        let b = parse_date32("1998-12-01").unwrap();
        assert!(a < b);
    }

    #[test]
    fn out_of_range_components_clamp_in_every_profile() {
        // month 0 / 13 used to index past the month table in release builds
        // (debug_assert only); now both profiles clamp identically.
        assert_eq!(date32_from_ymd(1994, 0, 5), date32_from_ymd(1994, 1, 5));
        assert_eq!(date32_from_ymd(1994, 13, 5), date32_from_ymd(1994, 12, 5));
        assert_eq!(date32_from_ymd(1994, 3, 0), date32_from_ymd(1994, 3, 1));
        assert_eq!(date32_from_ymd(1994, 3, 99), date32_from_ymd(1994, 3, 31));
        // Clamped results still format as real dates.
        assert_eq!(format_date32(date32_from_ymd(1994, 13, 5)), "1994-12-05");
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(parse_date32("1994-13-01").is_none());
        assert!(parse_date32("1994-00-01").is_none());
        assert!(parse_date32("not-a-date").is_none());
        assert!(parse_date32("1994-01").is_none());
    }

    #[test]
    fn value_total_cmp() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int64(1).total_cmp(&Value::Int64(2)), Less);
        assert_eq!(Value::Null.total_cmp(&Value::Int64(0)), Less);
        assert_eq!(
            Value::Utf8("a".into()).total_cmp(&Value::Utf8("b".into())),
            Less
        );
        assert_eq!(Value::Int64(2).total_cmp(&Value::Float64(1.5)), Greater);
        assert_eq!(
            Value::Float64(f64::NAN).total_cmp(&Value::Float64(1.0)),
            Greater,
            "NaN sorts last"
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Date32(3).as_i64(), Some(3));
        assert_eq!(Value::Int64(7).as_f64(), Some(7.0));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Utf8("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn fixed_widths() {
        assert_eq!(DataType::Int64.fixed_width(), Some(8));
        assert_eq!(DataType::Utf8.fixed_width(), None);
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
    }
}
