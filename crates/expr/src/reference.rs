//! The row-at-a-time evaluator, kept as the **reference** for the column
//! kernels of [`crate::scalar`], and the property suite that compares the
//! two. Compiled for tests only: nothing a query runs can reach it.
//!
//! [`eval_row`] states what an expression means for one row in terms of
//! [`Value`]s alone — no typed vectors, no validity words, no shared helper
//! with the kernels — so a kernel that is wrong is not wrong here too.

use std::cmp::Ordering;
use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_data::column::{Column, ColumnBuilder};
use accordion_data::page::DataPage;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};

use crate::scalar::{BinaryOp, Expr};

/// A schema naming the page's columns `c0, c1, …` with their actual types.
pub(crate) fn schema_of(page: &DataPage) -> Schema {
    Schema::new(
        page.columns()
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
            .collect(),
    )
}

/// The value of `expr` for row `row` of `page`, whose layout is `schema`.
pub(crate) fn eval_row(expr: &Expr, page: &DataPage, schema: &Schema, row: usize) -> Result<Value> {
    let rec = |e: &Expr| eval_row(e, page, schema, row);
    Ok(match expr {
        Expr::Column(i) => page.column(*i).value(row),
        Expr::Literal(v) => v.clone(),
        Expr::Binary { left, op, right } => eval_binary_scalar(&rec(left)?, *op, &rec(right)?)?,
        Expr::Not(e) => match rec(e)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            other => return Err(mistyped("NOT", &other)),
        },
        Expr::Between { expr, low, high } => {
            let x = rec(expr)?;
            let ge = eval_binary_scalar(&x, BinaryOp::GtEq, &rec(low)?)?;
            let le = eval_binary_scalar(&x, BinaryOp::LtEq, &rec(high)?)?;
            eval_binary_scalar(&ge, BinaryOp::And, &le)?
        }
        // x IN (a, b, …) is x = a OR x = b OR …, by definition.
        Expr::InList { expr, list } => {
            let x = rec(expr)?;
            let mut any = Value::Bool(false);
            for element in list {
                let hit = eval_binary_scalar(&x, BinaryOp::Eq, element)?;
                any = eval_binary_scalar(&any, BinaryOp::Or, &hit)?;
            }
            any
        }
        Expr::Like { expr, pattern } => match rec(expr)? {
            Value::Utf8(s) => Value::Bool(like_match(pattern, &s)),
            Value::Null => Value::Null,
            other => return Err(mistyped("LIKE", &other)),
        },
        Expr::Case {
            branches,
            otherwise,
        } => {
            let mut chosen = Value::Null;
            let mut matched = false;
            for (cond, value) in branches {
                if rec(cond)? == Value::Bool(true) {
                    chosen = rec(value)?;
                    matched = true;
                    break;
                }
            }
            if !matched {
                if let Some(e) = otherwise {
                    chosen = rec(e)?;
                }
            }
            // A CASE over INT64 and FLOAT64 branches is FLOAT64.
            match (chosen, expr.data_type(schema)) {
                (Value::Int64(x), Ok(DataType::Float64)) => Value::Float64(x as f64),
                (v, _) => v,
            }
        }
        Expr::ExtractYear(e) => match rec(e)? {
            Value::Date32(d) => Value::Int64(year_by_walk(d)),
            Value::Null => Value::Null,
            other => return Err(mistyped("EXTRACT YEAR", &other)),
        },
        Expr::IsNull(e) => Value::Bool(rec(e)?.is_null()),
    })
}

/// The year of a day count, walking whole years from 1970: shares nothing
/// with the O(1) `civil_from_days` of the kernel and of `Value`'s `Display`.
fn year_by_walk(days: i32) -> i64 {
    let len = |y: i64| 365 + ((y % 4 == 0 && y % 100 != 0) || y % 400 == 0) as i64;
    let (mut year, mut rest) = (1970, days as i64);
    while rest < 0 {
        year -= 1;
        rest += len(year);
    }
    while rest >= len(year) {
        rest -= len(year);
        year += 1;
    }
    year
}

fn mistyped(what: &str, v: &Value) -> AccordionError {
    AccordionError::Execution(format!("{what} over {v:?}"))
}

/// How two non-NULL values of comparable types order; `None` when they do
/// not (a NaN on either side). INT64 against FLOAT64 compares as FLOAT64.
fn partial_order(a: &Value, b: &Value) -> Result<Option<Ordering>> {
    use Value::*;
    Ok(match (a, b) {
        (Int64(x), Int64(y)) => Some(x.cmp(y)),
        (Float64(x), Float64(y)) => x.partial_cmp(y),
        (Int64(x), Float64(y)) => (*x as f64).partial_cmp(y),
        (Float64(x), Int64(y)) => x.partial_cmp(&(*y as f64)),
        (Date32(x), Date32(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Utf8(x), Utf8(y)) => Some(x.cmp(y)),
        _ => {
            return Err(AccordionError::Execution(format!(
                "cannot compare {a:?} with {b:?}"
            )))
        }
    })
}

/// Scalar semantics, including Kleene AND/OR with nulls.
pub(crate) fn eval_binary_scalar(a: &Value, op: BinaryOp, b: &Value) -> Result<Value> {
    use BinaryOp::*;
    if op.is_logical() {
        let operand = |v: &Value| match v {
            Value::Bool(x) => Ok(Some(*x)),
            Value::Null => Ok(None),
            other => Err(mistyped("AND/OR", other)),
        };
        return Ok(match (op, operand(a)?, operand(b)?) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
            (And, Some(true), Some(true)) => Value::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
            (Or, Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = partial_order(a, b)?;
        return Ok(Value::Bool(match op {
            Eq => ord == Some(Ordering::Equal),
            NotEq => ord != Some(Ordering::Equal),
            Lt => ord == Some(Ordering::Less),
            LtEq => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
            Gt => ord == Some(Ordering::Greater),
            GtEq => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
            _ => unreachable!(),
        }));
    }
    // Arithmetic.
    match (a, b) {
        // Wrapping, like the kernels and the SUM accumulator.
        (Value::Int64(x), Value::Int64(y)) => Ok(match op {
            Add => Value::Int64(x.wrapping_add(*y)),
            Sub => Value::Int64(x.wrapping_sub(*y)),
            Mul => Value::Int64(x.wrapping_mul(*y)),
            Div => Value::Float64(*x as f64 / *y as f64),
            _ => unreachable!(),
        }),
        (Value::Date32(x), Value::Int64(y)) => Ok(match op {
            Add => Value::Date32(x.wrapping_add(*y as i32)),
            Sub => Value::Date32(x.wrapping_sub(*y as i32)),
            _ => {
                return Err(AccordionError::Execution(
                    "only +/- defined on dates".into(),
                ))
            }
        }),
        (Value::Int64(_) | Value::Float64(_), Value::Int64(_) | Value::Float64(_)) => {
            let (x, y) = (a.as_f64().expect("numeric"), b.as_f64().expect("numeric"));
            Ok(Value::Float64(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                _ => unreachable!(),
            }))
        }
        _ => Err(AccordionError::Execution(format!(
            "unsupported scalar operands {a:?} {op} {b:?}"
        ))),
    }
}

/// SQL LIKE matcher supporting `%` and `_`, by recursion over characters.
pub(crate) fn like_match(pattern: &str, s: &str) -> bool {
    fn rec(p: &[char], s: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| rec(rest, &s[k..])),
            Some(('_', rest)) => !s.is_empty() && rec(rest, &s[1..]),
            Some((c, rest)) => s.first() == Some(c) && rec(rest, &s[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let sc: Vec<char> = s.chars().collect();
    rec(&p, &sc)
}

// ---------------------------------------------------------------------------
// Kernel-reference property suite
// ---------------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const STRINGS: [&str; 10] = [
    "",
    "a",
    "ab",
    "abc",
    "ba",
    "A",
    "ünïcodé",
    "日本語",
    "a%b",
    "longer-string-value",
];

/// A random value of `dt` from a domain small enough that comparisons, IN
/// lists and LIKE patterns hit, and that holds every float special.
fn random_value(rng: &mut XorShift, dt: DataType) -> Value {
    match dt {
        DataType::Int64 => match rng.below(12) {
            0 => Value::Int64(i64::MAX),
            1 => Value::Int64(i64::MIN),
            2 => Value::Int64((1 << 53) + 1),
            _ => Value::Int64(rng.below(7) as i64 - 3),
        },
        DataType::Float64 => Value::Float64(match rng.below(14) {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 0.5,
            _ => rng.below(7) as f64 - 3.0,
        }),
        DataType::Bool => Value::Bool(rng.below(2) == 0),
        // Within ±200 000 days of the epoch, leap-day neighbourhoods included.
        DataType::Date32 => Value::Date32(match rng.below(6) {
            0 => 11_015 + rng.below(3) as i32,  // 2000-02-28 ..
            1 => -25_509 + rng.below(3) as i32, // 1900-02-28 ..
            2 => rng.below(5) as i32,
            _ => rng.below(400_001) as i32 - 200_000,
        }),
        DataType::Utf8 => Value::Utf8(STRINGS[rng.below(STRINGS.len() as u64) as usize].into()),
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Nulls {
    None,
    Some,
    All,
}

fn random_column(rng: &mut XorShift, dt: DataType, rows: usize, nulls: Nulls) -> Column {
    let mut b = ColumnBuilder::new(dt, rows);
    for _ in 0..rows {
        let null = match nulls {
            Nulls::None => false,
            Nulls::Some => rng.below(4) == 0,
            Nulls::All => true,
        };
        b.push(if null {
            Value::Null
        } else {
            random_value(rng, dt)
        });
    }
    b.finish()
}

const TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Date32,
    DataType::Utf8,
];

/// Two columns of every type: columns `t` and `5 + t` have type `TYPES[t]`.
fn random_page(rng: &mut XorShift, rows: usize, nulls: Nulls) -> DataPage {
    DataPage::new(
        TYPES
            .iter()
            .chain(&TYPES)
            .map(|&dt| random_column(rng, dt, rows, nulls))
            .collect(),
    )
}

fn arc(e: Expr) -> Arc<Expr> {
    Arc::new(e)
}

/// Operands of every type: both columns, two literals, and an untyped NULL.
fn operands(rng: &mut XorShift) -> Vec<Expr> {
    let mut out = vec![Expr::lit(Value::Null)];
    for (t, &dt) in TYPES.iter().enumerate() {
        out.push(Expr::col(t));
        out.push(Expr::col(5 + t));
        out.push(Expr::lit(random_value(rng, dt)));
        out.push(Expr::lit(random_value(rng, dt)));
    }
    out
}

const OPS: [BinaryOp; 12] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::And,
    BinaryOp::Or,
];

const PATTERNS: [&str; 16] = [
    "", "%", "%%", "_", "a", "a%", "%a", "%a%", "a_", "_b%", "%b_", "a%b", "%ï%é", "__語", "a\\%b",
    "%_%_%",
];

/// Every expression shape the analyzer can produce over [`random_page`]'s
/// layout: all operators over all operand pairs, and every other variant
/// over every operand it accepts, nested one level so that kernels also see
/// kernel output (NULLs included) as input.
fn expressions(rng: &mut XorShift) -> Vec<Expr> {
    let operands = operands(rng);
    let mut out = Vec::new();
    for op in OPS {
        for l in &operands {
            for r in &operands {
                out.push(Expr::binary(l.clone(), op, r.clone()));
            }
        }
    }
    // Boolean-valued expressions with NULLs of their own, as operands of
    // NOT / AND / OR / CASE WHEN.
    let bools = [
        Expr::col(2),
        Expr::lt(Expr::col(0), Expr::col(5)),
        Expr::eq(Expr::col(1), Expr::col(6)),
        Expr::IsNull(arc(Expr::col(4))),
        Expr::lit(Value::Null),
    ];
    for a in &bools {
        out.push(Expr::Not(arc(a.clone())));
        for b in &bools {
            out.push(Expr::and(a.clone(), b.clone()));
            out.push(Expr::binary(a.clone(), BinaryOp::Or, b.clone()));
        }
    }
    for e in &operands {
        out.push(Expr::IsNull(arc(e.clone())));
        out.push(Expr::Not(arc(e.clone())));
        out.push(Expr::ExtractYear(arc(e.clone())));
        for pattern in PATTERNS {
            out.push(Expr::Like {
                expr: arc(e.clone()),
                pattern: pattern.into(),
            });
        }
        for lo in &operands {
            out.push(Expr::between(e.clone(), lo.clone(), operands[1].clone()));
            out.push(Expr::between(e.clone(), lo.clone(), operands[7].clone()));
        }
        // IN lists: one type, mixed numerics, with and without a NULL.
        for &dt in &TYPES {
            let mut list: Vec<Value> = (0..3).map(|_| random_value(rng, dt)).collect();
            out.push(Expr::InList {
                expr: arc(e.clone()),
                list: list.clone(),
            });
            list.push(Value::Null);
            out.push(Expr::InList {
                expr: arc(e.clone()),
                list,
            });
        }
        out.push(Expr::InList {
            expr: arc(e.clone()),
            list: vec![
                Value::Int64(1),
                Value::Float64(0.5),
                Value::Float64(-2.0),
                Value::Int64((1 << 53) + 1),
                Value::Float64((1u64 << 53) as f64),
            ],
        });
        out.push(Expr::InList {
            expr: arc(e.clone()),
            list: vec![],
        });
    }
    // CASE: one and two branches, with and without ELSE, over every pair of
    // value operands (mixed INT64/FLOAT64 and untyped NULLs included).
    for a in &operands {
        for b in &operands {
            out.push(Expr::Case {
                branches: vec![(bools[0].clone(), a.clone())],
                otherwise: Some(arc(b.clone())),
            });
            out.push(Expr::Case {
                branches: vec![(bools[1].clone(), a.clone()), (bools[2].clone(), b.clone())],
                otherwise: None,
            });
            out.push(Expr::Case {
                branches: vec![(bools[4].clone(), a.clone()), (bools[3].clone(), b.clone())],
                otherwise: Some(arc(a.clone())),
            });
        }
    }
    out
}

/// Runs `expr` through the kernels and the reference over `page`; panics on
/// any difference in type, value or validity. Returns whether the
/// expression type-checked (only those are evaluated).
fn check(expr: &Expr, page: &DataPage, schema: &Schema, context: &str) -> bool {
    let Ok(dt) = expr.data_type(schema) else {
        return false;
    };
    let got = expr
        .evaluate(page)
        .unwrap_or_else(|e| panic!("{context}: kernel failed on {expr:?}: {e}"));
    assert_eq!(got.len(), page.row_count(), "{context}: {expr:?}");
    assert_eq!(got.data_type(), dt, "{context}: {expr:?}");
    for row in 0..page.row_count() {
        let want = eval_row(expr, page, schema, row)
            .unwrap_or_else(|e| panic!("{context}: reference failed on {expr:?}: {e}"));
        assert_eq!(
            got.value(row),
            want,
            "{context} row {row} of {:?}: {expr:?}",
            page.row(row)
        );
    }
    true
}

#[test]
fn kernels_match_the_reference_for_every_expression_the_analyzer_accepts() {
    let mut evaluated = 0usize;
    for seed in [1u64, 2, 3] {
        let mut rng = XorShift::new(seed);
        let exprs = expressions(&mut rng);
        for nulls in [Nulls::None, Nulls::Some, Nulls::All] {
            for rows in [0usize, 1, 63, 64, 65, 1024] {
                let page = random_page(&mut rng, rows, nulls);
                let schema = schema_of(&page);
                let context = format!("seed {seed}, {nulls:?} nulls, {rows} rows");
                // The full cross product on the small pages, a rotating
                // slice of it on the large one.
                let step = if rows == 1024 { 17 } else { 1 };
                for expr in exprs.iter().skip(seed as usize % step).step_by(step) {
                    evaluated += check(expr, &page, &schema, &context) as usize;
                }
            }
        }
    }
    assert!(
        evaluated > 90_000,
        "only {evaluated} expressions type-checked"
    );
}

#[test]
fn every_accepted_operator_and_type_pair_is_covered() {
    // The generator is only a property suite if it reaches every kernel:
    // count, per operator, the operand type pairs that type-check.
    let mut rng = XorShift::new(7);
    let page = random_page(&mut rng, 1, Nulls::None);
    let schema = schema_of(&page);
    let cols: Vec<Expr> = (0..5).map(Expr::col).collect();
    for op in OPS {
        let accepted: Vec<(DataType, DataType)> = cols
            .iter()
            .flat_map(|l| cols.iter().map(move |r| (l, r)))
            .filter(|(l, r)| {
                Expr::binary((*l).clone(), op, (*r).clone())
                    .data_type(&schema)
                    .is_ok()
            })
            .map(|(l, r)| (l.data_type(&schema).unwrap(), r.data_type(&schema).unwrap()))
            .collect();
        let want = if op.is_logical() {
            1 // BOOL, BOOL
        } else if op.is_comparison() {
            7 // five identical pairs + INT64/FLOAT64 both ways
        } else {
            // the four numeric pairs, and DATE ± INT64
            4 + matches!(op, BinaryOp::Add | BinaryOp::Sub) as usize
        };
        assert_eq!(accepted.len(), want, "{op}: {accepted:?}");
    }
}

#[test]
fn in_list_is_a_disjunction_of_equalities() {
    for seed in [11u64, 12, 13] {
        let mut rng = XorShift::new(seed);
        for nulls in [Nulls::None, Nulls::Some, Nulls::All] {
            let page = random_page(&mut rng, 200, nulls);
            let schema = schema_of(&page);
            for (t, &dt) in TYPES.iter().enumerate() {
                for with_null in [false, true] {
                    let mut list: Vec<Value> = (0..4).map(|_| random_value(&mut rng, dt)).collect();
                    if dt == DataType::Int64 {
                        list.push(Value::Float64(1.0));
                        list.push(Value::Float64(0.5));
                    }
                    if dt == DataType::Float64 {
                        list.push(Value::Int64(2));
                    }
                    if with_null {
                        list.insert(1, Value::Null);
                    }
                    let x = Expr::col(t);
                    let in_list = Expr::InList {
                        expr: arc(x.clone()),
                        list: list.clone(),
                    };
                    let disjunction = list
                        .iter()
                        .map(|v| Expr::eq(x.clone(), Expr::lit(v.clone())))
                        .reduce(|a, b| Expr::binary(a, BinaryOp::Or, b))
                        .unwrap();
                    assert!(in_list.data_type(&schema).is_ok());
                    let a = in_list.evaluate(&page).unwrap();
                    let b = disjunction.evaluate(&page).unwrap();
                    for row in 0..page.row_count() {
                        assert_eq!(
                            a.value(row),
                            b.value(row),
                            "seed {seed} {dt} row {row}: {:?} IN {list:?}",
                            page.column(t).value(row)
                        );
                    }
                    // NOT IN (…, NULL) keeps no row: no row is TRUE.
                    if with_null {
                        let kept = Expr::Not(arc(in_list)).filter_indices(&page).unwrap();
                        assert!(kept.is_empty(), "NOT IN (…, NULL) kept {kept:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_comparison_does_not_depend_on_the_other_rows_of_the_page() {
    // NaN, ±0.0 and ±∞ against each other under every comparison, once on a
    // page without NULLs and once with a NULL row appended: the shared rows
    // must read the same (they used to flip between IEEE and total order).
    let specials = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for a in specials {
        for b in specials {
            left.push(a);
            right.push(b);
        }
    }
    let n = left.len();
    let dense = DataPage::new(vec![
        Column::from_f64(left.clone()),
        Column::from_f64(right.clone()),
    ]);
    let mut nulls = vec![false; n + 1];
    nulls[n] = true;
    left.push(0.0);
    right.push(0.0);
    let with_null = DataPage::new(vec![
        Column::from_f64_nullable(left, &nulls),
        Column::from_f64(right),
    ]);
    for op in OPS.into_iter().filter(BinaryOp::is_comparison) {
        for expr in [
            Expr::binary(Expr::col(0), op, Expr::col(1)),
            Expr::binary(Expr::col(0), op, Expr::lit_f64(f64::NAN)),
            Expr::binary(Expr::col(0), op, Expr::lit_f64(0.0)),
            Expr::binary(Expr::lit_i64(0), op, Expr::col(0)),
        ] {
            let a = expr.evaluate(&dense).unwrap();
            let b = expr.evaluate(&with_null).unwrap();
            for row in 0..n {
                assert_eq!(a.value(row), b.value(row), "{expr:?} row {row}");
                let want = eval_row(&expr, &dense, &schema_of(&dense), row).unwrap();
                assert_eq!(a.value(row), want, "{expr:?} row {row}");
            }
            assert_eq!(b.value(n), Value::Null);
        }
    }
    // IEEE, spelled out: NaN equals nothing, the zeros are one value.
    let eq = Expr::eq(Expr::col(0), Expr::col(1))
        .evaluate(&dense)
        .unwrap();
    assert_eq!(eq.value(0), Value::Bool(false), "NaN = NaN");
    assert_eq!(eq.value(n / 6 + 2), Value::Bool(true), "-0.0 = 0.0");
}

#[test]
fn year_of_matches_the_calendar() {
    let year = |d: i32| {
        Expr::ExtractYear(arc(Expr::col(0)))
            .evaluate(&DataPage::new(vec![Column::from_date32(vec![d])]))
            .unwrap()
            .value(0)
    };
    // Every day for ±200 000 days (years 1422–2517) against the
    // year-by-year walk.
    let days: Vec<i32> = (-200_000..=200_000).collect();
    let got = Expr::ExtractYear(arc(Expr::col(0)))
        .evaluate(&DataPage::new(vec![Column::from_date32(days.clone())]))
        .unwrap();
    for (i, &d) in days.iter().enumerate() {
        assert_eq!(got.as_i64().unwrap()[i], year_by_walk(d), "day {d}");
    }
    // Century rules: 1900 is not a leap year, 2000 is.
    use accordion_data::types::parse_date32;
    for (text, y) in [
        ("1899-12-31", 1899),
        ("1900-01-01", 1900),
        ("1900-02-28", 1900),
        ("1900-03-01", 1900),
        ("1900-12-31", 1900),
        ("1999-12-31", 1999),
        ("2000-01-01", 2000),
        ("2000-02-29", 2000),
        ("2000-03-01", 2000),
        ("2000-12-31", 2000),
        ("2001-01-01", 2001),
    ] {
        assert_eq!(year(parse_date32(text).unwrap()), Value::Int64(y), "{text}");
    }
}

#[test]
fn like_kernel_matches_the_recursive_matcher() {
    let page = DataPage::new(vec![Column::from_strings(&STRINGS)]);
    for pattern in PATTERNS.into_iter().chain([
        "%語", "日%", "_本_", "ü%é", "%ab%ab%", "a%%b", "_%", "%_", "ab", "abc%",
    ]) {
        let got = Expr::Like {
            expr: arc(Expr::col(0)),
            pattern: pattern.into(),
        }
        .evaluate(&page)
        .unwrap();
        for (row, s) in STRINGS.iter().enumerate() {
            assert_eq!(
                got.value(row),
                Value::Bool(like_match(pattern, s)),
                "'{s}' LIKE '{pattern}'"
            );
        }
    }
    // `_` is one character, however many bytes it takes.
    assert!(like_match("___", "日本語") && !like_match("_", "ü_"));
}
