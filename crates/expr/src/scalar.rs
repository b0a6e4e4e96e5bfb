//! Scalar expression tree and vectorized evaluator.
//!
//! Expressions are evaluated page-at-a-time: `Expr::evaluate(&DataPage)`
//! returns a whole output [`Column`]. Hot numeric comparisons and arithmetic
//! use type-specialized loops; everything else goes through a scalar
//! fallback. SQL three-valued logic is honoured: any null operand makes an
//! arithmetic/comparison result null; AND/OR use Kleene semantics.

use std::fmt;
use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_data::column::{Column, ColumnBuilder};
use accordion_data::page::DataPage;
use accordion_data::schema::Schema;
use accordion_data::types::{DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    pub fn is_logical(&self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// A scalar expression over the columns of a page.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        left: Arc<Expr>,
        op: BinaryOp,
        right: Arc<Expr>,
    },
    /// Boolean negation.
    Not(Arc<Expr>),
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        expr: Arc<Expr>,
        low: Arc<Expr>,
        high: Arc<Expr>,
    },
    /// `expr IN (v1, v2, ...)` against literal values.
    InList { expr: Arc<Expr>, list: Vec<Value> },
    /// SQL LIKE with `%` (any run) and `_` (any char) wildcards.
    Like { expr: Arc<Expr>, pattern: String },
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        otherwise: Option<Arc<Expr>>,
    },
    /// Extracts the year of a Date32 as Int64 (TPC-H `extract(year ...)`).
    ExtractYear(Arc<Expr>),
    /// IS NULL test (never null itself).
    IsNull(Arc<Expr>),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn lit_i64(v: i64) -> Expr {
        Expr::Literal(Value::Int64(v))
    }

    pub fn lit_f64(v: f64) -> Expr {
        Expr::Literal(Value::Float64(v))
    }

    pub fn lit_str(v: &str) -> Expr {
        Expr::Literal(Value::Utf8(v.to_string()))
    }

    pub fn lit_date(days: i32) -> Expr {
        Expr::Literal(Value::Date32(days))
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Arc::new(left),
            op,
            right: Arc::new(right),
        }
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::Eq, r)
    }

    pub fn lt(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::Lt, r)
    }

    pub fn gt(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::Gt, r)
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::And, r)
    }

    // Static constructors, not `std::ops` impls — expressions are built,
    // not evaluated, by these.
    #[allow(clippy::should_implement_trait)]
    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::Add, r)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::Sub, r)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::binary(l, BinaryOp::Mul, r)
    }

    pub fn between(e: Expr, low: Expr, high: Expr) -> Expr {
        Expr::Between {
            expr: Arc::new(e),
            low: Arc::new(low),
            high: Arc::new(high),
        }
    }

    /// All column indices referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::ExtractYear(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Between { expr, low, high } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, .. } => expr.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (c, v) in branches {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                if let Some(e) = otherwise {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Rewrites column references through `mapping[old] = new`.
    pub fn remap_columns(&self, mapping: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(mapping(*i)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Arc::new(left.remap_columns(mapping)),
                op: *op,
                right: Arc::new(right.remap_columns(mapping)),
            },
            Expr::Not(e) => Expr::Not(Arc::new(e.remap_columns(mapping))),
            Expr::ExtractYear(e) => Expr::ExtractYear(Arc::new(e.remap_columns(mapping))),
            Expr::IsNull(e) => Expr::IsNull(Arc::new(e.remap_columns(mapping))),
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Arc::new(expr.remap_columns(mapping)),
                low: Arc::new(low.remap_columns(mapping)),
                high: Arc::new(high.remap_columns(mapping)),
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: Arc::new(expr.remap_columns(mapping)),
                list: list.clone(),
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: Arc::new(expr.remap_columns(mapping)),
                pattern: pattern.clone(),
            },
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.remap_columns(mapping), v.remap_columns(mapping)))
                    .collect(),
                otherwise: otherwise
                    .as_ref()
                    .map(|e| Arc::new(e.remap_columns(mapping))),
            },
        }
    }

    /// Operand type for compatibility checks: `None` for an untyped NULL
    /// literal (NULL compares with anything — the result is just NULL).
    fn operand_type(&self, input: &Schema) -> Result<Option<DataType>> {
        if matches!(self, Expr::Literal(Value::Null)) {
            return Ok(None);
        }
        self.data_type(input).map(Some)
    }

    /// Infers the output type against an input schema, rejecting operand
    /// type combinations that could never match at runtime (e.g.
    /// `int_col > 'string'` — comparisons across incompatible types would
    /// otherwise type-check as Bool and silently select nothing).
    pub fn data_type(&self, input: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(i) => input
                .fields()
                .get(*i)
                .map(|f| f.data_type)
                .ok_or_else(|| AccordionError::Analysis(format!("column #{i} out of range"))),
            Expr::Literal(v) => v
                .data_type()
                .ok_or_else(|| AccordionError::Analysis("untyped NULL literal".into())),
            Expr::Binary { left, op, right } => {
                if op.is_comparison() {
                    check_comparable(left, right, input, *op)?;
                    return Ok(DataType::Bool);
                }
                if op.is_logical() {
                    for side in [left, right] {
                        if let Some(t) = side.operand_type(input)? {
                            if t != DataType::Bool {
                                return Err(AccordionError::Analysis(format!(
                                    "{op} requires boolean operands, got {t}"
                                )));
                            }
                        }
                    }
                    return Ok(DataType::Bool);
                }
                let lt = left.data_type(input)?;
                let rt = right.data_type(input)?;
                match (lt, rt) {
                    (DataType::Float64, _) | (_, DataType::Float64) => Ok(DataType::Float64),
                    (DataType::Int64, DataType::Int64) => {
                        if *op == BinaryOp::Div {
                            Ok(DataType::Float64)
                        } else {
                            Ok(DataType::Int64)
                        }
                    }
                    (DataType::Date32, DataType::Int64) => Ok(DataType::Date32),
                    other => Err(AccordionError::Analysis(format!(
                        "invalid operand types {other:?} for {op}"
                    ))),
                }
            }
            Expr::Between { expr, low, high } => {
                check_comparable(expr, low, input, BinaryOp::GtEq)?;
                check_comparable(expr, high, input, BinaryOp::LtEq)?;
                Ok(DataType::Bool)
            }
            Expr::InList { expr, list } => {
                if let Some(t) = expr.operand_type(input)? {
                    for v in list {
                        if let Some(vt) = v.data_type() {
                            if !comparable_types(t, vt) {
                                return Err(AccordionError::Analysis(format!(
                                    "IN list value of type {vt} is not comparable to {t}"
                                )));
                            }
                        }
                    }
                }
                Ok(DataType::Bool)
            }
            Expr::Like { expr, .. } => {
                if let Some(t) = expr.operand_type(input)? {
                    if t != DataType::Utf8 {
                        return Err(AccordionError::Analysis(format!(
                            "LIKE requires a string operand, got {t}"
                        )));
                    }
                }
                Ok(DataType::Bool)
            }
            Expr::Not(e) => {
                if let Some(t) = e.operand_type(input)? {
                    if t != DataType::Bool {
                        return Err(AccordionError::Analysis(format!(
                            "NOT requires a boolean operand, got {t}"
                        )));
                    }
                }
                Ok(DataType::Bool)
            }
            Expr::IsNull(_) => Ok(DataType::Bool),
            Expr::ExtractYear(e) => {
                if let Some(t) = e.operand_type(input)? {
                    if t != DataType::Date32 {
                        return Err(AccordionError::Analysis(format!(
                            "EXTRACT YEAR requires a date operand, got {t}"
                        )));
                    }
                }
                Ok(DataType::Int64)
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                if let Some((_, v)) = branches.first() {
                    v.data_type(input)
                } else if let Some(e) = otherwise {
                    e.data_type(input)
                } else {
                    Err(AccordionError::Analysis("empty CASE".into()))
                }
            }
        }
    }

    /// Evaluates the expression over every row of `page`.
    pub fn evaluate(&self, page: &DataPage) -> Result<Column> {
        let n = page.row_count();
        match self {
            Expr::Column(i) => {
                if *i >= page.num_columns() {
                    return Err(AccordionError::Execution(format!(
                        "column #{i} out of range ({} columns)",
                        page.num_columns()
                    )));
                }
                Ok(page.column(*i).clone())
            }
            Expr::Literal(v) => Ok(broadcast_literal(v, n)),
            Expr::Binary { left, op, right } => {
                let l = left.evaluate(page)?;
                let r = right.evaluate(page)?;
                eval_binary(&l, *op, &r)
            }
            Expr::Not(e) => {
                let c = e.evaluate(page)?;
                let mut b = ColumnBuilder::new(DataType::Bool, n);
                for i in 0..n {
                    match c.value(i) {
                        Value::Bool(v) => b.push(Value::Bool(!v)),
                        Value::Null => b.push(Value::Null),
                        other => {
                            return Err(AccordionError::Execution(format!(
                                "NOT over non-boolean {other:?}"
                            )))
                        }
                    }
                }
                Ok(b.finish())
            }
            Expr::Between { expr, low, high } => {
                // expr >= low AND expr <= high — desugared at eval time.
                let ge = Expr::Binary {
                    left: expr.clone(),
                    op: BinaryOp::GtEq,
                    right: low.clone(),
                };
                let le = Expr::Binary {
                    left: expr.clone(),
                    op: BinaryOp::LtEq,
                    right: high.clone(),
                };
                Expr::binary(ge, BinaryOp::And, le).evaluate(page)
            }
            Expr::InList { expr, list } => {
                let c = expr.evaluate(page)?;
                let mut b = ColumnBuilder::new(DataType::Bool, n);
                for i in 0..n {
                    let v = c.value(i);
                    if v.is_null() {
                        b.push(Value::Null);
                    } else {
                        b.push(Value::Bool(list.contains(&v)));
                    }
                }
                Ok(b.finish())
            }
            Expr::Like { expr, pattern } => {
                let c = expr.evaluate(page)?;
                let mut b = ColumnBuilder::new(DataType::Bool, n);
                for i in 0..n {
                    match c.value(i) {
                        Value::Utf8(s) => b.push(Value::Bool(like_match(pattern, &s))),
                        Value::Null => b.push(Value::Null),
                        other => {
                            return Err(AccordionError::Execution(format!(
                                "LIKE over non-string {other:?}"
                            )))
                        }
                    }
                }
                Ok(b.finish())
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                let conds: Vec<Column> = branches
                    .iter()
                    .map(|(c, _)| c.evaluate(page))
                    .collect::<Result<_>>()?;
                let vals: Vec<Column> = branches
                    .iter()
                    .map(|(_, v)| v.evaluate(page))
                    .collect::<Result<_>>()?;
                let default = otherwise.as_ref().map(|e| e.evaluate(page)).transpose()?;
                let out_type = vals
                    .first()
                    .map(|c| c.data_type())
                    .or(default.as_ref().map(|c| c.data_type()))
                    .ok_or_else(|| AccordionError::Execution("empty CASE".into()))?;
                let mut b = ColumnBuilder::new(out_type, n);
                'rows: for i in 0..n {
                    for (cond, val) in conds.iter().zip(&vals) {
                        if cond.value(i) == Value::Bool(true) {
                            b.push(val.value(i));
                            continue 'rows;
                        }
                    }
                    match &default {
                        Some(d) => b.push(d.value(i)),
                        None => b.push(Value::Null),
                    }
                }
                Ok(b.finish())
            }
            Expr::ExtractYear(e) => {
                let c = e.evaluate(page)?;
                let mut b = ColumnBuilder::new(DataType::Int64, n);
                for i in 0..n {
                    match c.value(i) {
                        Value::Date32(d) => {
                            let y = accordion_data::types::format_date32(d)[..4]
                                .parse::<i64>()
                                .expect("year digits");
                            b.push(Value::Int64(y));
                        }
                        Value::Null => b.push(Value::Null),
                        other => {
                            return Err(AccordionError::Execution(format!(
                                "EXTRACT YEAR over non-date {other:?}"
                            )))
                        }
                    }
                }
                Ok(b.finish())
            }
            Expr::IsNull(e) => {
                let c = e.evaluate(page)?;
                let mut b = ColumnBuilder::new(DataType::Bool, n);
                for i in 0..n {
                    b.push(Value::Bool(!c.is_valid(i)));
                }
                Ok(b.finish())
            }
        }
    }

    /// Evaluates a predicate and returns the selected row indices.
    pub fn filter_indices(&self, page: &DataPage) -> Result<Vec<u32>> {
        let mask = self.evaluate(page)?;
        let bools = mask.as_bool().ok_or_else(|| {
            AccordionError::Execution(format!(
                "filter predicate evaluated to {} not BOOL",
                mask.data_type()
            ))
        })?;
        let mut out = Vec::new();
        for (i, &keep) in bools.iter().enumerate() {
            if keep && mask.is_valid(i) {
                out.push(i as u32);
            }
        }
        Ok(out)
    }
}

/// True when values of the two types can be meaningfully ordered against
/// each other: identical types, or any numeric pair (Int64/Float64 promote).
fn comparable_types(a: DataType, b: DataType) -> bool {
    a == b || (a.is_numeric() && b.is_numeric())
}

/// Rejects comparisons whose operand types could never match at runtime.
fn check_comparable(left: &Expr, right: &Expr, input: &Schema, op: BinaryOp) -> Result<()> {
    let lt = left.operand_type(input)?;
    let rt = right.operand_type(input)?;
    if let (Some(a), Some(b)) = (lt, rt) {
        if !comparable_types(a, b) {
            return Err(AccordionError::Analysis(format!(
                "cannot compare {a} {op} {b}: incompatible types"
            )));
        }
    }
    Ok(())
}

fn broadcast_literal(v: &Value, n: usize) -> Column {
    match v {
        Value::Int64(x) => Column::from_i64(vec![*x; n]),
        Value::Float64(x) => Column::from_f64(vec![*x; n]),
        Value::Bool(x) => Column::from_bool(vec![*x; n]),
        Value::Date32(x) => Column::from_date32(vec![*x; n]),
        Value::Utf8(x) => {
            let vals: Vec<&str> = (0..n).map(|_| x.as_str()).collect();
            Column::from_strings(&vals)
        }
        Value::Null => {
            // Typeless null literal: represent as all-null Int64.
            let mut b = ColumnBuilder::new(DataType::Int64, n);
            for _ in 0..n {
                b.push(Value::Null);
            }
            b.finish()
        }
    }
}

/// Specialized vectorized kernels for the hot numeric paths, with a scalar
/// fallback for everything else.
fn eval_binary(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    use BinaryOp::*;
    let n = l.len();
    if n != r.len() {
        return Err(AccordionError::Execution(format!(
            "binary operand length mismatch: {} vs {}",
            n,
            r.len()
        )));
    }
    let no_nulls = l.null_count() == 0 && r.null_count() == 0;

    // Fast paths: non-null i64 and f64 vectors.
    if no_nulls {
        if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
            return Ok(match op {
                // Wrapping arithmetic: i64 overflow must produce the same
                // result in debug and release builds and on every eval path
                // (this kernel, the scalar fallback, the SUM accumulator).
                Add => Column::from_i64(a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect()),
                Sub => Column::from_i64(a.iter().zip(b).map(|(x, y)| x.wrapping_sub(*y)).collect()),
                Mul => Column::from_i64(a.iter().zip(b).map(|(x, y)| x.wrapping_mul(*y)).collect()),
                Div => Column::from_f64(
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| *x as f64 / *y as f64)
                        .collect(),
                ),
                Eq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x == y).collect()),
                NotEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x != y).collect()),
                Lt => Column::from_bool(a.iter().zip(b).map(|(x, y)| x < y).collect()),
                LtEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x <= y).collect()),
                Gt => Column::from_bool(a.iter().zip(b).map(|(x, y)| x > y).collect()),
                GtEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x >= y).collect()),
                And | Or => {
                    return Err(AccordionError::Execution(
                        "AND/OR over integer columns".into(),
                    ))
                }
            });
        }
        if let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) {
            return Ok(match op {
                Add => Column::from_f64(a.iter().zip(b).map(|(x, y)| x + y).collect()),
                Sub => Column::from_f64(a.iter().zip(b).map(|(x, y)| x - y).collect()),
                Mul => Column::from_f64(a.iter().zip(b).map(|(x, y)| x * y).collect()),
                Div => Column::from_f64(a.iter().zip(b).map(|(x, y)| x / y).collect()),
                Eq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x == y).collect()),
                NotEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x != y).collect()),
                Lt => Column::from_bool(a.iter().zip(b).map(|(x, y)| x < y).collect()),
                LtEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x <= y).collect()),
                Gt => Column::from_bool(a.iter().zip(b).map(|(x, y)| x > y).collect()),
                GtEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x >= y).collect()),
                And | Or => {
                    return Err(AccordionError::Execution(
                        "AND/OR over float columns".into(),
                    ))
                }
            });
        }
        if let (Some(a), Some(b)) = (l.as_date32(), r.as_date32()) {
            if op.is_comparison() {
                return Ok(match op {
                    Eq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x == y).collect()),
                    NotEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x != y).collect()),
                    Lt => Column::from_bool(a.iter().zip(b).map(|(x, y)| x < y).collect()),
                    LtEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x <= y).collect()),
                    Gt => Column::from_bool(a.iter().zip(b).map(|(x, y)| x > y).collect()),
                    GtEq => Column::from_bool(a.iter().zip(b).map(|(x, y)| x >= y).collect()),
                    _ => unreachable!(),
                });
            }
        }
        // Date ± days arithmetic (e.g. `l_shipdate + 30`).
        if let (Some(a), Some(b)) = (l.as_date32(), r.as_i64()) {
            if matches!(op, Add | Sub) {
                return Ok(match op {
                    Add => Column::from_date32(
                        a.iter()
                            .zip(b)
                            .map(|(x, y)| x.wrapping_add(*y as i32))
                            .collect(),
                    ),
                    Sub => Column::from_date32(
                        a.iter()
                            .zip(b)
                            .map(|(x, y)| x.wrapping_sub(*y as i32))
                            .collect(),
                    ),
                    _ => unreachable!(),
                });
            }
        }
        if let (Some(a), Some(b)) = (l.as_bool(), r.as_bool()) {
            if op.is_logical() {
                return Ok(match op {
                    And => Column::from_bool(a.iter().zip(b).map(|(x, y)| *x && *y).collect()),
                    Or => Column::from_bool(a.iter().zip(b).map(|(x, y)| *x || *y).collect()),
                    _ => unreachable!(),
                });
            }
        }
    }

    // Generic scalar fallback with SQL null semantics.
    let out_type = match op {
        op if op.is_comparison() || op.is_logical() => DataType::Bool,
        _ => match (l.data_type(), r.data_type()) {
            (DataType::Float64, _) | (_, DataType::Float64) => DataType::Float64,
            (DataType::Int64, DataType::Int64) => {
                if op == Div {
                    DataType::Float64
                } else {
                    DataType::Int64
                }
            }
            (DataType::Date32, DataType::Int64) => DataType::Date32,
            (a, b) => {
                return Err(AccordionError::Execution(format!(
                    "unsupported operand types {a} {op} {b}"
                )))
            }
        },
    };
    let mut out = ColumnBuilder::new(out_type, n);
    for i in 0..n {
        let a = l.value(i);
        let b = r.value(i);
        out.push(eval_binary_scalar(&a, op, &b)?);
    }
    Ok(out.finish())
}

/// Scalar semantics, including Kleene AND/OR with nulls.
fn eval_binary_scalar(a: &Value, op: BinaryOp, b: &Value) -> Result<Value> {
    use BinaryOp::*;
    if op.is_logical() {
        let av = a.as_bool();
        let bv = b.as_bool();
        return Ok(match (op, av, bv) {
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
        let ord = a.total_cmp(b);
        return Ok(Value::Bool(match op {
            Eq => ord == std::cmp::Ordering::Equal,
            NotEq => ord != std::cmp::Ordering::Equal,
            Lt => ord == std::cmp::Ordering::Less,
            LtEq => ord != std::cmp::Ordering::Greater,
            Gt => ord == std::cmp::Ordering::Greater,
            GtEq => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        }));
    }
    // Arithmetic.
    match (a, b) {
        // Wrapping, matching the vectorized fast paths exactly.
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
        _ => {
            let x = a.as_f64();
            let y = b.as_f64();
            match (x, y) {
                (Some(x), Some(y)) => Ok(match op {
                    Add => Value::Float64(x + y),
                    Sub => Value::Float64(x - y),
                    Mul => Value::Float64(x * y),
                    Div => Value::Float64(x / y),
                    _ => unreachable!(),
                }),
                _ => Err(AccordionError::Execution(format!(
                    "unsupported scalar operands {a:?} {op} {b:?}"
                ))),
            }
        }
    }
}

/// SQL LIKE matcher supporting `%` and `_`.
pub fn like_match(pattern: &str, s: &str) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::Field;

    fn num_page() -> DataPage {
        DataPage::new(vec![
            Column::from_i64(vec![1, 2, 3, 4]),
            Column::from_f64(vec![10.0, 20.0, 30.0, 40.0]),
            Column::from_strings(&["apple", "banana", "avocado", "cherry"]),
            Column::from_date32(vec![100, 200, 300, 400]),
        ])
    }

    #[test]
    fn arithmetic_int() {
        let p = num_page();
        let e = Expr::add(Expr::col(0), Expr::lit_i64(10));
        let c = e.evaluate(&p).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[11, 12, 13, 14]);
        let e = Expr::mul(Expr::col(0), Expr::col(0));
        assert_eq!(e.evaluate(&p).unwrap().as_i64().unwrap(), &[1, 4, 9, 16]);
    }

    #[test]
    fn int_division_produces_float() {
        let p = num_page();
        let e = Expr::binary(Expr::col(0), BinaryOp::Div, Expr::lit_i64(2));
        let c = e.evaluate(&p).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn mixed_numeric_promotes() {
        let p = num_page();
        let e = Expr::mul(Expr::col(0), Expr::col(1));
        let c = e.evaluate(&p).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[10.0, 40.0, 90.0, 160.0]);
    }

    #[test]
    fn comparisons_and_filter() {
        let p = num_page();
        let e = Expr::gt(Expr::col(0), Expr::lit_i64(2));
        let idx = e.filter_indices(&p).unwrap();
        assert_eq!(idx, vec![2, 3]);
        let e = Expr::and(
            Expr::gt(Expr::col(0), Expr::lit_i64(1)),
            Expr::lt(Expr::col(1), Expr::lit_f64(40.0)),
        );
        assert_eq!(e.filter_indices(&p).unwrap(), vec![1, 2]);
    }

    #[test]
    fn date_comparison() {
        let p = num_page();
        let e = Expr::lt(Expr::col(3), Expr::lit_date(250));
        assert_eq!(e.filter_indices(&p).unwrap(), vec![0, 1]);
    }

    #[test]
    fn between_inclusive() {
        let p = num_page();
        let e = Expr::between(Expr::col(0), Expr::lit_i64(2), Expr::lit_i64(3));
        assert_eq!(e.filter_indices(&p).unwrap(), vec![1, 2]);
    }

    #[test]
    fn in_list() {
        let p = num_page();
        let e = Expr::InList {
            expr: Arc::new(Expr::col(2)),
            list: vec![Value::Utf8("apple".into()), Value::Utf8("cherry".into())],
        };
        assert_eq!(e.filter_indices(&p).unwrap(), vec![0, 3]);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("a%", "apple"));
        assert!(like_match("%an%", "banana"));
        assert!(like_match("_herry", "cherry"));
        assert!(!like_match("a%", "banana"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        let p = num_page();
        let e = Expr::Like {
            expr: Arc::new(Expr::col(2)),
            pattern: "a%".into(),
        };
        assert_eq!(e.filter_indices(&p).unwrap(), vec![0, 2]);
    }

    #[test]
    fn case_expression() {
        let p = num_page();
        let e = Expr::Case {
            branches: vec![(Expr::gt(Expr::col(0), Expr::lit_i64(2)), Expr::lit_i64(1))],
            otherwise: Some(Arc::new(Expr::lit_i64(0))),
        };
        let c = e.evaluate(&p).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[0, 0, 1, 1]);
    }

    #[test]
    fn case_without_else_yields_null() {
        let p = num_page();
        let e = Expr::Case {
            branches: vec![(Expr::gt(Expr::col(0), Expr::lit_i64(3)), Expr::lit_i64(1))],
            otherwise: None,
        };
        let c = e.evaluate(&p).unwrap();
        assert_eq!(c.null_count(), 3);
    }

    #[test]
    fn extract_year() {
        use accordion_data::types::parse_date32;
        let p = DataPage::new(vec![Column::from_date32(vec![
            parse_date32("1994-03-05").unwrap(),
            parse_date32("1998-12-01").unwrap(),
        ])]);
        let e = Expr::ExtractYear(Arc::new(Expr::col(0)));
        let c = e.evaluate(&p).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[1994, 1998]);
    }

    #[test]
    fn null_propagation_and_kleene_logic() {
        let mut b = ColumnBuilder::new(DataType::Int64, 3);
        b.push(Value::Int64(1));
        b.push(Value::Null);
        b.push(Value::Int64(3));
        let p = DataPage::new(vec![b.finish()]);
        // Arithmetic null propagation.
        let c = Expr::add(Expr::col(0), Expr::lit_i64(1))
            .evaluate(&p)
            .unwrap();
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(0), Value::Int64(2));
        // Comparison null propagation: filter drops null rows.
        let idx = Expr::gt(Expr::col(0), Expr::lit_i64(0))
            .filter_indices(&p)
            .unwrap();
        assert_eq!(idx, vec![0, 2]);
        // Kleene: NULL OR TRUE = TRUE.
        let e = Expr::binary(
            Expr::IsNull(Arc::new(Expr::col(0))),
            BinaryOp::Or,
            Expr::gt(Expr::col(0), Expr::lit_i64(0)),
        );
        assert_eq!(e.filter_indices(&p).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn is_null_never_null() {
        let mut b = ColumnBuilder::new(DataType::Int64, 2);
        b.push(Value::Null);
        b.push(Value::Int64(5));
        let p = DataPage::new(vec![b.finish()]);
        let c = Expr::IsNull(Arc::new(Expr::col(0))).evaluate(&p).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[true, false]);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn referenced_columns_and_remap() {
        let e = Expr::and(
            Expr::gt(Expr::col(3), Expr::lit_i64(0)),
            Expr::eq(Expr::col(1), Expr::col(3)),
        );
        assert_eq!(e.referenced_columns(), vec![1, 3]);
        let remapped = e.remap_columns(&|i| i + 10);
        assert_eq!(remapped.referenced_columns(), vec![11, 13]);
    }

    #[test]
    fn type_inference() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        assert_eq!(
            Expr::add(Expr::col(0), Expr::col(1))
                .data_type(&schema)
                .unwrap(),
            DataType::Float64
        );
        assert_eq!(
            Expr::gt(Expr::col(0), Expr::lit_i64(1))
                .data_type(&schema)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::binary(Expr::col(0), BinaryOp::Div, Expr::col(0))
                .data_type(&schema)
                .unwrap(),
            DataType::Float64
        );
        assert!(Expr::col(9).data_type(&schema).is_err());
    }

    #[test]
    fn incompatible_comparisons_rejected_at_type_check() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::new("d", DataType::Date32),
        ]);
        // int_col > 'string' — the ROADMAP gap — is now an analysis error.
        let e = Expr::gt(Expr::col(0), Expr::lit_str("banana"));
        assert!(matches!(
            e.data_type(&schema),
            Err(AccordionError::Analysis(_))
        ));
        // string vs date, date vs int: also rejected.
        assert!(Expr::eq(Expr::col(1), Expr::lit_date(7))
            .data_type(&schema)
            .is_err());
        assert!(Expr::lt(Expr::col(2), Expr::lit_i64(7))
            .data_type(&schema)
            .is_err());
        // BETWEEN / IN / LIKE get the same treatment.
        assert!(
            Expr::between(Expr::col(0), Expr::lit_str("a"), Expr::lit_str("b"))
                .data_type(&schema)
                .is_err()
        );
        let in_list = Expr::InList {
            expr: Arc::new(Expr::col(0)),
            list: vec![Value::Utf8("x".into())],
        };
        assert!(in_list.data_type(&schema).is_err());
        let like_int = Expr::Like {
            expr: Arc::new(Expr::col(0)),
            pattern: "a%".into(),
        };
        assert!(like_int.data_type(&schema).is_err());
        // AND over non-boolean operands is rejected too.
        assert!(Expr::and(Expr::col(0), Expr::col(1))
            .data_type(&schema)
            .is_err());
        // NOT over a non-boolean and EXTRACT YEAR over a non-date as well.
        assert!(Expr::Not(Arc::new(Expr::col(0)))
            .data_type(&schema)
            .is_err());
        assert!(Expr::ExtractYear(Arc::new(Expr::col(0)))
            .data_type(&schema)
            .is_err());
        // ...while their legal forms still type-check.
        assert_eq!(
            Expr::Not(Arc::new(Expr::gt(Expr::col(0), Expr::lit_i64(1))))
                .data_type(&schema)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::ExtractYear(Arc::new(Expr::col(2)))
                .data_type(&schema)
                .unwrap(),
            DataType::Int64
        );
    }

    #[test]
    fn compatible_comparisons_still_type_check() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        // Numeric cross-type comparison promotes.
        assert_eq!(
            Expr::gt(Expr::col(0), Expr::col(1))
                .data_type(&schema)
                .unwrap(),
            DataType::Bool
        );
        // NULL literal compares with anything (result is NULL, not an error).
        assert_eq!(
            Expr::eq(Expr::col(2), Expr::lit(Value::Null))
                .data_type(&schema)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::eq(Expr::col(2), Expr::lit_str("x"))
                .data_type(&schema)
                .unwrap(),
            DataType::Bool
        );
    }

    #[test]
    fn filter_on_non_bool_errors() {
        let p = num_page();
        assert!(Expr::col(0).filter_indices(&p).is_err());
    }

    #[test]
    fn length_mismatch_errors() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![1]);
        assert!(eval_binary(&a, BinaryOp::Add, &b).is_err());
    }

    #[test]
    fn int_overflow_wraps_on_every_path() {
        // The vectorized no-null fast path, the null-handling fallback, and
        // the scalar evaluator must all wrap identically at i64::MAX.
        let a = Column::from_i64(vec![i64::MAX, i64::MIN, i64::MAX]);
        let b = Column::from_i64(vec![1, -1, 2]);
        let fast = eval_binary(&a, BinaryOp::Add, &b).unwrap();
        assert_eq!(
            fast.as_i64().unwrap(),
            &[i64::MIN, i64::MAX, i64::MIN + 1],
            "no-null fast path wraps"
        );
        let mul = eval_binary(&a, BinaryOp::Mul, &b).unwrap();
        assert_eq!(mul.as_i64().unwrap()[2], i64::MAX.wrapping_mul(2));
        let sub = eval_binary(&b, BinaryOp::Sub, &a).unwrap();
        assert_eq!(sub.as_i64().unwrap()[0], 1i64.wrapping_sub(i64::MAX));

        // Same inputs with a null in the page take the scalar fallback; the
        // non-null rows must produce the identical wrapped values.
        let mut nb = ColumnBuilder::new(DataType::Int64, 3);
        nb.push(Value::Int64(1));
        nb.push(Value::Null);
        nb.push(Value::Int64(2));
        let b_null = nb.finish();
        let slow = eval_binary(&a, BinaryOp::Add, &b_null).unwrap();
        assert_eq!(slow.value(0), Value::Int64(i64::MIN));
        assert_eq!(slow.value(1), Value::Null);
        assert_eq!(slow.value(2), Value::Int64(i64::MIN + 1));
        assert_eq!(
            eval_binary_scalar(&Value::Int64(i64::MAX), BinaryOp::Add, &Value::Int64(1)).unwrap(),
            Value::Int64(i64::MIN)
        );
    }

    #[test]
    fn date_plus_int_fast_path() {
        let p = num_page();
        // dates [100, 200, 300, 400] ± constant days.
        let plus = Expr::add(Expr::col(3), Expr::lit_i64(30))
            .evaluate(&p)
            .unwrap();
        assert_eq!(plus.as_date32().unwrap(), &[130, 230, 330, 430]);
        let minus = Expr::binary(Expr::col(3), BinaryOp::Sub, Expr::lit_i64(50))
            .evaluate(&p)
            .unwrap();
        assert_eq!(minus.as_date32().unwrap(), &[50, 150, 250, 350]);
        // With a null present the fallback runs; results must agree.
        let mut nb = ColumnBuilder::new(DataType::Int64, 4);
        for v in [
            Value::Int64(30),
            Value::Null,
            Value::Int64(30),
            Value::Int64(30),
        ] {
            nb.push(v);
        }
        let slow = eval_binary(p.column(3), BinaryOp::Add, &nb.finish()).unwrap();
        assert_eq!(slow.value(0), Value::Date32(130));
        assert_eq!(slow.value(1), Value::Null);
        assert_eq!(slow.value(3), Value::Date32(430));
        // Comparisons on dates still route through the comparison kernels.
        let cmp = Expr::lt(Expr::col(3), Expr::lit_date(250));
        assert_eq!(cmp.filter_indices(&p).unwrap(), vec![0, 1]);
    }
}
