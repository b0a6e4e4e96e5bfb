//! Scalar expression tree and vectorized evaluator.
//!
//! Expressions are evaluated page-at-a-time: `Expr::evaluate(&DataPage)`
//! returns a whole output [`Column`], and every variant is a **kernel**: a
//! loop over the operands' typed vectors (`&[i64]`, `&[f64]`, the string
//! arena …) that never builds a per-row `Value`. A kernel computes its data
//! over every slot — a NULL row's slot is a don't-care — and attaches the
//! validity separately, so one loop serves pages with and without NULLs and
//! a row's answer cannot depend on its neighbours.
//!
//! SQL three-valued logic: the result of arithmetic, a comparison, `NOT`,
//! `LIKE`, `EXTRACT` is NULL exactly where an operand is ([`Validity::and`],
//! word-wise); `AND`/`OR` are Kleene; `x IN (a, b, …)` is `x = a OR x = b OR
//! …`; `CASE` takes value and validity of the first branch whose condition
//! is TRUE. Comparisons are `PartialOrd` of the operand type — IEEE for
//! floats — with an `Int64` side cast once per column against a `Float64`
//! one.
//!
//! The row-at-a-time evaluator these kernels replaced survives as the
//! reference the property suite compares them to (`reference.rs`, compiled
//! for tests only); nothing here calls it.

use std::fmt;
use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_data::column::{Column, Validity};
use accordion_data::page::DataPage;
use accordion_data::schema::Schema;
use accordion_data::types::{civil_from_days, DataType, Value};

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

    /// The operator with its operands swapped: `a < b` is `b > a`.
    fn mirrored(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
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
    /// Constant. `Value` stays here: one literal per expression, broadcast
    /// into a typed column before any kernel sees it.
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
        self.substitute_columns(&|i| Expr::Column(mapping(i)))
    }

    /// Replaces every `Column(i)` with `binding(i)` — inlining projected
    /// expressions into a predicate that moves below the projection.
    pub fn substitute_columns(&self, binding: &dyn Fn(usize) -> Expr) -> Expr {
        let sub = |e: &Expr| Arc::new(e.substitute_columns(binding));
        match self {
            Expr::Column(i) => binding(*i),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: sub(left),
                op: *op,
                right: sub(right),
            },
            Expr::Not(e) => Expr::Not(sub(e)),
            Expr::ExtractYear(e) => Expr::ExtractYear(sub(e)),
            Expr::IsNull(e) => Expr::IsNull(sub(e)),
            Expr::Between { expr, low, high } => Expr::Between {
                expr: sub(expr),
                low: sub(low),
                high: sub(high),
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: sub(expr),
                list: list.clone(),
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: sub(expr),
                pattern: pattern.clone(),
            },
            Expr::Case {
                branches,
                otherwise,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.substitute_columns(binding), v.substitute_columns(binding)))
                    .collect(),
                otherwise: otherwise.as_deref().map(sub),
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
                    (DataType::Int64, DataType::Int64) if *op != BinaryOp::Div => {
                        Ok(DataType::Int64)
                    }
                    (a, b) if a.is_numeric() && b.is_numeric() => Ok(DataType::Float64),
                    (DataType::Date32, DataType::Int64)
                        if matches!(op, BinaryOp::Add | BinaryOp::Sub) =>
                    {
                        Ok(DataType::Date32)
                    }
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
                for (cond, _) in branches {
                    if let Some(t) = cond.operand_type(input)? {
                        if t != DataType::Bool {
                            return Err(AccordionError::Analysis(format!(
                                "CASE WHEN requires a boolean condition, got {t}"
                            )));
                        }
                    }
                }
                let mut typed = Vec::new();
                for v in case_values(branches, otherwise) {
                    typed.extend(v.operand_type(input)?);
                }
                unify_all(typed)
                    .map_err(AccordionError::Analysis)?
                    .ok_or_else(|| AccordionError::Analysis("CASE has no typed branch".into()))
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
                if op.is_comparison() {
                    // A string literal is compared as a scalar, not
                    // broadcast into an n-string column per page.
                    if let Expr::Literal(Value::Utf8(s)) = &**right {
                        let l = left.evaluate_as(page, DataType::Utf8)?;
                        return compare_utf8_scalar(&l, *op, s);
                    }
                    if let Expr::Literal(Value::Utf8(s)) = &**left {
                        let r = right.evaluate_as(page, DataType::Utf8)?;
                        return compare_utf8_scalar(&r, op.mirrored(), s);
                    }
                }
                // An untyped NULL takes the type its context gives it: BOOL
                // under AND/OR, its sibling's otherwise.
                let (l, r) = if op.is_logical() {
                    (
                        left.evaluate_as(page, DataType::Bool)?,
                        right.evaluate_as(page, DataType::Bool)?,
                    )
                } else if left.is_null_literal() {
                    let r = right.evaluate(page)?;
                    (Column::nulls(r.data_type(), n), r)
                } else {
                    let l = left.evaluate(page)?;
                    let r = right.evaluate_as(page, l.data_type())?;
                    (l, r)
                };
                eval_binary(&l, *op, &r)
            }
            Expr::Not(e) => {
                let c = e.evaluate_as(page, DataType::Bool)?;
                let bools = expect_type(c.as_bool(), "NOT over non-boolean", &c)?;
                Ok(Column::from_bool(bools.iter().map(|b| !b).collect())
                    .with_validity(c.validity().cloned()))
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
                let null_as = list.iter().find_map(Value::data_type);
                in_list(
                    &expr.evaluate_as(page, null_as.unwrap_or(DataType::Bool))?,
                    list,
                )
            }
            Expr::Like { expr, pattern } => {
                let c = expr.evaluate_as(page, DataType::Utf8)?;
                let strs = expect_type(c.as_utf8(), "LIKE over non-string", &c)?;
                let pattern = LikePattern::compile(pattern);
                Ok(
                    Column::from_bool(strs.iter().map(|s| pattern.matches(s)).collect())
                        .with_validity(c.validity().cloned()),
                )
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                // Which source each row reads: the first WHEN that is TRUE,
                // else the ELSE slot. Walking the conditions last to first
                // lets an earlier one simply overwrite.
                let mut pick = vec![branches.len() as u32; n];
                for (j, (cond, _)) in branches.iter().enumerate().rev() {
                    let c = cond.evaluate_as(page, DataType::Bool)?;
                    let bools = expect_type(c.as_bool(), "CASE WHEN over non-boolean", &c)?;
                    match c.validity() {
                        None => {
                            for (p, &t) in pick.iter_mut().zip(bools) {
                                *p = if t { j as u32 } else { *p };
                            }
                        }
                        Some(v) => {
                            for (i, (p, &t)) in pick.iter_mut().zip(bools).enumerate() {
                                *p = if t && v.is_valid(i) { j as u32 } else { *p };
                            }
                        }
                    }
                }
                // The sources, THEN values first: an untyped NULL (or no
                // ELSE) is a NULL of the type the others unify to.
                let values = case_values(branches, otherwise)
                    .map(|v| (!v.is_null_literal()).then(|| v.evaluate(page)).transpose())
                    .collect::<Result<Vec<Option<Column>>>>()?;
                let out_type = unify_all(values.iter().flatten().map(Column::data_type))
                    .map_err(AccordionError::Execution)?
                    .unwrap_or(DataType::Int64);
                let mut sources: Vec<Column> = values
                    .into_iter()
                    .map(|v| match v {
                        Some(Column::Int64(d, v)) if out_type == DataType::Float64 => {
                            Column::Float64(Arc::new(to_f64(&d)), v)
                        }
                        Some(c) => c,
                        None => Column::nulls(out_type, n),
                    })
                    .collect();
                if otherwise.is_none() {
                    sources.push(Column::nulls(out_type, n));
                }
                Ok(Column::interleave(
                    &sources.iter().collect::<Vec<_>>(),
                    &pick,
                ))
            }
            Expr::ExtractYear(e) => {
                let c = e.evaluate_as(page, DataType::Date32)?;
                let days = expect_type(c.as_date32(), "EXTRACT YEAR over non-date", &c)?;
                Ok(
                    Column::from_i64(days.iter().map(|&d| civil_from_days(d).0).collect())
                        .with_validity(c.validity().cloned()),
                )
            }
            Expr::IsNull(e) => {
                let c = e.evaluate(page)?;
                Ok(Column::from_bool(match c.validity() {
                    None => vec![false; n],
                    Some(v) => (0..n).map(|i| !v.is_valid(i)).collect(),
                }))
            }
        }
    }

    fn is_null_literal(&self) -> bool {
        matches!(self, Expr::Literal(Value::Null))
    }

    /// [`evaluate`](Expr::evaluate), with an untyped `NULL` literal taking
    /// the type its context expects.
    fn evaluate_as(&self, page: &DataPage, null_as: DataType) -> Result<Column> {
        if self.is_null_literal() {
            return Ok(Column::nulls(null_as, page.row_count()));
        }
        self.evaluate(page)
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
        // Write every row id, advance only past the kept ones: no branch to
        // mispredict at any selectivity.
        let mut out = vec![0u32; bools.len()];
        let mut kept = 0;
        match mask.validity() {
            None => {
                for (i, &keep) in bools.iter().enumerate() {
                    out[kept] = i as u32;
                    kept += keep as usize;
                }
            }
            Some(v) => {
                for (i, &keep) in bools.iter().enumerate() {
                    out[kept] = i as u32;
                    kept += (keep && v.is_valid(i)) as usize;
                }
            }
        }
        out.truncate(kept);
        Ok(out)
    }
}

/// The value expressions of a `CASE`: every THEN in order, then the ELSE.
fn case_values<'a>(
    branches: &'a [(Expr, Expr)],
    otherwise: &'a Option<Arc<Expr>>,
) -> impl Iterator<Item = &'a Expr> {
    branches.iter().map(|(_, v)| v).chain(otherwise.as_deref())
}

/// The type two `CASE` branches share: their own when equal, `Float64` for a
/// numeric pair (the `Int64` side is cast), none otherwise.
fn unify_types(a: DataType, b: DataType) -> Option<DataType> {
    if a == b {
        Some(a)
    } else if a.is_numeric() && b.is_numeric() {
        Some(DataType::Float64)
    } else {
        None
    }
}

/// The type all the typed branches of a `CASE` unify to (none when there is
/// no typed branch), or what to tell the user about the pair that does not.
fn unify_all(
    types: impl IntoIterator<Item = DataType>,
) -> std::result::Result<Option<DataType>, String> {
    let mut out = None;
    for t in types {
        out = Some(match out {
            None => t,
            Some(o) => unify_types(o, t)
                .ok_or_else(|| format!("CASE branches have incompatible types {o} and {t}"))?,
        });
    }
    Ok(out)
}

/// True when values of the two types can be meaningfully ordered against
/// each other: identical types, or any numeric pair (Int64/Float64 promote).
fn comparable_types(a: DataType, b: DataType) -> bool {
    unify_types(a, b).is_some()
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
        Value::Utf8(x) => Column::from_strings(&vec![x.as_str(); n]),
        // Typeless null literal: represent as all-null Int64.
        Value::Null => Column::nulls(DataType::Int64, n),
    }
}

/// The typed view a kernel needs of its operand, or the error a mistyped
/// expression (one that skipped analysis) ends in.
fn expect_type<T>(view: Option<T>, kernel: &str, col: &Column) -> Result<T> {
    view.ok_or_else(|| AccordionError::Execution(format!("{kernel} {}", col.data_type())))
}

fn to_f64(v: &[i64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// One comparison operator over operand pairs. `PartialOrd` of the operand
/// type is the only comparison semantics there is: IEEE for floats (`NaN`
/// equals and orders with nothing, `-0.0 = 0.0`), bytes for strings.
fn compare<T: PartialOrd>(pairs: impl Iterator<Item = (T, T)>, op: BinaryOp) -> Column {
    Column::from_bool(match op {
        BinaryOp::Eq => pairs.map(|(a, b)| a == b).collect(),
        BinaryOp::NotEq => pairs.map(|(a, b)| a != b).collect(),
        BinaryOp::Lt => pairs.map(|(a, b)| a < b).collect(),
        BinaryOp::LtEq => pairs.map(|(a, b)| a <= b).collect(),
        BinaryOp::Gt => pairs.map(|(a, b)| a > b).collect(),
        BinaryOp::GtEq => pairs.map(|(a, b)| a >= b).collect(),
        _ => unreachable!("compare is only called with a comparison operator"),
    })
}

/// `col <op> 'literal'`, NULL where `col` is.
fn compare_utf8_scalar(col: &Column, op: BinaryOp, literal: &str) -> Result<Column> {
    let strs = col
        .as_utf8()
        .ok_or_else(|| unsupported(col, op, "VARCHAR"))?;
    Ok(compare(strs.iter().map(|s| (s, literal)), op).with_validity(col.validity().cloned()))
}

fn unsupported(l: &Column, op: BinaryOp, r: impl fmt::Display) -> AccordionError {
    AccordionError::Execution(format!(
        "unsupported operand types {} {op} {r}",
        l.data_type()
    ))
}

/// Binary kernels: one loop per operand type pair over the data vectors,
/// result validity = the operands' validity ANDed (Kleene for AND/OR).
fn eval_binary(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    use BinaryOp::*;
    use Column::{Bool, Date32, Float64, Int64, Utf8};
    if l.len() != r.len() {
        return Err(AccordionError::Execution(format!(
            "binary operand length mismatch: {} vs {}",
            l.len(),
            r.len()
        )));
    }
    if op.is_logical() {
        return kleene(l, op, r);
    }
    let cmp = op.is_comparison();
    let data = match (l, r) {
        (Int64(a, _), Int64(b, _)) if cmp => compare(a.iter().zip(b.iter()), op),
        // Wrapping arithmetic: i64 overflow must produce the same result
        // in debug and release builds and in the SUM accumulator.
        (Int64(a, _), Int64(b, _)) => match op {
            Add => Column::from_i64(zip_map(a, b, i64::wrapping_add)),
            Sub => Column::from_i64(zip_map(a, b, i64::wrapping_sub)),
            Mul => Column::from_i64(zip_map(a, b, i64::wrapping_mul)),
            _ => Column::from_f64(zip_map(a, b, |x, y| x as f64 / y as f64)),
        },
        (Float64(a, _), Float64(b, _)) => numeric_f64(a, op, b),
        (Int64(a, _), Float64(b, _)) => numeric_f64(&to_f64(a), op, b),
        (Float64(a, _), Int64(b, _)) => numeric_f64(a, op, &to_f64(b)),
        (Date32(a, _), Date32(b, _)) if cmp => compare(a.iter().zip(b.iter()), op),
        (Bool(a, _), Bool(b, _)) if cmp => compare(a.iter().zip(b.iter()), op),
        (Utf8(a, _), Utf8(b, _)) if cmp => compare(a.iter().zip(b.iter()), op),
        // Date ± days arithmetic (e.g. `l_shipdate + 30`).
        (Date32(a, _), Int64(b, _)) if op == Add => {
            Column::from_date32(zip_map(a, b, |x, y| x.wrapping_add(y as i32)))
        }
        (Date32(a, _), Int64(b, _)) if op == Sub => {
            Column::from_date32(zip_map(a, b, |x, y| x.wrapping_sub(y as i32)))
        }
        _ => return Err(unsupported(l, op, r.data_type())),
    };
    Ok(data.with_validity(Validity::and(l.validity(), r.validity())))
}

/// Comparison or arithmetic over two `f64` vectors.
fn numeric_f64(a: &[f64], op: BinaryOp, b: &[f64]) -> Column {
    match op {
        BinaryOp::Add => Column::from_f64(zip_map(a, b, |x, y| x + y)),
        BinaryOp::Sub => Column::from_f64(zip_map(a, b, |x, y| x - y)),
        BinaryOp::Mul => Column::from_f64(zip_map(a, b, |x, y| x * y)),
        BinaryOp::Div => Column::from_f64(zip_map(a, b, |x, y| x / y)),
        _ => compare(a.iter().zip(b), op),
    }
}

/// `f` over the operand pairs: the loop every arithmetic kernel is.
fn zip_map<A: Copy, B: Copy, T>(a: &[A], b: &[B], f: impl Fn(A, B) -> T) -> Vec<T> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// Kleene AND/OR. The data is the plain `&&`/`||` of the data vectors — a
/// NULL operand's slot only reaches a valid result when the other operand
/// decides it (`FALSE AND _`, `TRUE OR _`), where its value does not matter.
fn kleene(l: &Column, op: BinaryOp, r: &Column) -> Result<Column> {
    let (Some(a), Some(b)) = (l.as_bool(), r.as_bool()) else {
        return Err(unsupported(l, op, r.data_type()));
    };
    // The value that decides the result alone: FALSE for AND, TRUE for OR.
    let decides = op == BinaryOp::Or;
    let pairs = a.iter().zip(b);
    let data = if decides {
        pairs.map(|(x, y)| *x || *y).collect()
    } else {
        pairs.map(|(x, y)| *x && *y).collect()
    };
    let validity = match (l.validity(), r.validity()) {
        (None, None) => None,
        (va, vb) => Some(Arc::new(Validity::from_fn(a.len(), |i| {
            let (va, vb) = (
                va.is_none_or(|v| v.is_valid(i)),
                vb.is_none_or(|v| v.is_valid(i)),
            );
            let decided_by = |valid: bool, value: bool| valid && value == decides;
            (va && vb) || decided_by(va, a[i]) || decided_by(vb, b[i])
        }))),
    };
    Ok(Column::from_bool(data).with_validity(validity))
}

/// `x IN (a, b, …)` is `x = a OR x = b OR …`, element by element with the
/// semantics of `=` for that type pair: a row is TRUE on a hit, else NULL
/// if `x` or any element is NULL, else FALSE.
fn in_list(col: &Column, list: &[Value]) -> Result<Column> {
    /// The non-NULL elements as the column kernel's needle type.
    fn needles<'a, T>(
        list: &'a [Value],
        col: &Column,
        needle: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Vec<T>> {
        list.iter()
            .filter(|v| !v.is_null())
            .map(|v| {
                needle(v).ok_or_else(|| {
                    AccordionError::Execution(format!(
                        "IN list value {v} is not comparable to {}",
                        col.data_type()
                    ))
                })
            })
            .collect()
    }
    let hits: Vec<bool> = match col {
        Column::Int64(data, _) => {
            // An integer element compares as an integer, a float one against
            // the column cast to float — what `=` does for each.
            let numbers = needles(list, col, |v| v.as_f64().map(|_| v))?;
            let ints: Vec<i64> = numbers.iter().filter_map(|v| v.as_i64()).collect();
            let floats: Vec<f64> = numbers
                .iter()
                .filter(|v| v.as_i64().is_none())
                .filter_map(|v| v.as_f64())
                .collect();
            data.iter()
                .map(|x| ints.contains(x) || floats.contains(&(*x as f64)))
                .collect()
        }
        Column::Float64(data, _) => {
            let floats = needles(list, col, Value::as_f64)?;
            data.iter().map(|x| floats.iter().any(|f| x == f)).collect()
        }
        Column::Date32(data, _) => {
            let days = needles(list, col, |v| match v {
                Value::Date32(d) => Some(*d),
                _ => None,
            })?;
            data.iter().map(|x| days.contains(x)).collect()
        }
        Column::Bool(data, _) => {
            let bools = needles(list, col, Value::as_bool)?;
            data.iter().map(|x| bools.contains(x)).collect()
        }
        Column::Utf8(data, _) => {
            let strs = needles(list, col, |v| v.as_str().map(str::as_bytes))?;
            // A byte loop, not `==`: the values are short (flags, codes),
            // where the call into memcmp costs more than the compare.
            data.iter_bytes()
                .map(|s| {
                    strs.iter()
                        .any(|n| n.len() == s.len() && n.iter().zip(s).all(|(a, b)| a == b))
                })
                .collect()
        }
    };
    let validity = if list.is_empty() {
        None // the empty disjunction is FALSE, whatever x is
    } else if list.iter().any(Value::is_null) {
        let hit = Arc::new(Validity::from_fn(hits.len(), |i| hits[i]));
        Validity::and(col.validity(), Some(&hit))
    } else {
        col.validity().cloned()
    };
    Ok(Column::from_bool(hits).with_validity(validity))
}

/// A `LIKE` pattern compiled once per kernel call: `%` matches any run of
/// characters, `_` exactly one character (not one byte).
enum LikePattern<'a> {
    Exact(&'a str),
    Prefix(&'a str),
    Suffix(&'a str),
    Contains(&'a str),
    General(Vec<LikeToken>),
}

#[derive(PartialEq)]
enum LikeToken {
    AnyRun,
    AnyChar,
    Char(char),
}

impl<'a> LikePattern<'a> {
    fn compile(pattern: &'a str) -> Self {
        let body = pattern.trim_matches('%');
        if body.contains(['%', '_']) {
            let mut tokens = Vec::new();
            for c in pattern.chars() {
                match c {
                    '%' if tokens.last() == Some(&LikeToken::AnyRun) => {}
                    '%' => tokens.push(LikeToken::AnyRun),
                    '_' => tokens.push(LikeToken::AnyChar),
                    c => tokens.push(LikeToken::Char(c)),
                }
            }
            return LikePattern::General(tokens);
        }
        match (pattern.starts_with('%'), pattern.ends_with('%')) {
            (false, false) => LikePattern::Exact(body),
            (false, true) => LikePattern::Prefix(body),
            (true, false) => LikePattern::Suffix(body),
            (true, true) => LikePattern::Contains(body),
        }
    }

    fn matches(&self, s: &str) -> bool {
        match self {
            LikePattern::Exact(p) => s == *p,
            LikePattern::Prefix(p) => s.starts_with(p),
            LikePattern::Suffix(p) => s.ends_with(p),
            LikePattern::Contains(p) => s.contains(p),
            LikePattern::General(tokens) => like_general(tokens, s),
        }
    }
}

/// Greedy wildcard match without recursion: on a mismatch, fall back to the
/// last `%` and let it swallow one more character.
fn like_general(tokens: &[LikeToken], s: &str) -> bool {
    let (mut at, mut tok) = (0, 0);
    // (token after the last `%`, text position it was tried from)
    let mut retry: Option<(usize, usize)> = None;
    loop {
        let c = s[at..].chars().next();
        match (tokens.get(tok), c) {
            (Some(LikeToken::AnyRun), _) => {
                tok += 1;
                if tok == tokens.len() {
                    return true;
                }
                retry = Some((tok, at));
            }
            (Some(LikeToken::AnyChar), Some(c)) => {
                tok += 1;
                at += c.len_utf8();
            }
            (Some(LikeToken::Char(p)), Some(c)) if *p == c => {
                tok += 1;
                at += c.len_utf8();
            }
            (None, None) => return true,
            _ => {
                let Some((after_run, from)) = retry else {
                    return false;
                };
                let Some(skipped) = s[from..].chars().next() else {
                    return false;
                };
                at = from + skipped.len_utf8();
                tok = after_run;
                retry = Some((after_run, at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{eval_binary_scalar, like_match};
    use accordion_data::column::ColumnBuilder;
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
        // The kernel, with and without NULLs in the page, and the reference
        // evaluator must all wrap identically at i64::MAX.
        let a = Column::from_i64(vec![i64::MAX, i64::MIN, i64::MAX]);
        let b = Column::from_i64(vec![1, -1, 2]);
        let fast = eval_binary(&a, BinaryOp::Add, &b).unwrap();
        assert_eq!(
            fast.as_i64().unwrap(),
            &[i64::MIN, i64::MAX, i64::MIN + 1],
            "the kernel wraps"
        );
        let mul = eval_binary(&a, BinaryOp::Mul, &b).unwrap();
        assert_eq!(mul.as_i64().unwrap()[2], i64::MAX.wrapping_mul(2));
        let sub = eval_binary(&b, BinaryOp::Sub, &a).unwrap();
        assert_eq!(sub.as_i64().unwrap()[0], 1i64.wrapping_sub(i64::MAX));

        // Same inputs with a null in the page: the non-null rows must
        // produce the identical wrapped values.
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
        // With a null present the results must agree.
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
