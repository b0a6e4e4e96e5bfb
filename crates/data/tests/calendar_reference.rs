//! The O(1) calendar (`civil_from_days`, and through it `Value`'s
//! `Display` of a date) against references that share none of its code:
//! the year-by-year walk that `write_date32` ran before it, and the
//! loop-based `date32_from_ymd` / `parse_date32`.

use accordion_data::types::{civil_from_days, date32_from_ymd, format_date32, parse_date32};

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn month_len(year: i64, month: u32) -> i64 {
    const DAYS: [i64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    DAYS[month as usize - 1] + (month == 2 && is_leap(year)) as i64
}

/// The year-by-year walk `write_date32` ran before `civil_from_days`,
/// O(|year − 1970|) per call.
fn walk(days: i32) -> (i64, u32, u32) {
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
    let mut month = 1;
    while remaining >= month_len(year, month) {
        remaining -= month_len(year, month);
        month += 1;
    }
    (year, month, remaining as u32 + 1)
}

#[test]
fn civil_from_days_matches_the_walk() {
    // The walk itself on every 997th day of ±3 M days (years -6244 to
    // 10183), then every day of that range, stepping the calendar on.
    for d in (-3_000_000..=3_000_000).step_by(997) {
        assert_eq!(civil_from_days(d), walk(d), "day {d}");
    }
    let (mut y, mut m, mut dd) = walk(-3_000_000);
    for d in -3_000_000..=3_000_000 {
        assert_eq!(civil_from_days(d), (y, m, dd), "day {d}");
        dd += 1;
        if dd as i64 > month_len(y, m) {
            (m, dd) = (m % 12 + 1, 1);
            y += (m == 1) as i64;
        }
    }
}

#[test]
fn every_day_of_years_1_to_9999_formats_as_the_loop_counts_it() {
    // Each January 1st round-trips through the loop-based parser, and
    // every other day is its predecessor plus one.
    let mut d = date32_from_ymd(1, 1, 1);
    for y in 1..=9_999i64 {
        assert_eq!(parse_date32(&format_date32(d)), Some(d), "year {y}");
        for m in 1..=12 {
            for dd in 1..=month_len(y, m) {
                assert_eq!(format_date32(d), format!("{y:04}-{m:02}-{dd:02}"));
                d += 1;
            }
        }
    }
    assert_eq!(d, date32_from_ymd(10_000, 1, 1));
    // Outside years 0–9999 the text keeps `{:04}`'s width and sign.
    assert_eq!(format_date32(d), "10000-01-01");
    assert_eq!(format_date32(date32_from_ymd(-1, 12, 31)), "-001-12-31");
    assert_eq!(format_date32(date32_from_ymd(0, 2, 29)), "0000-02-29");
}
