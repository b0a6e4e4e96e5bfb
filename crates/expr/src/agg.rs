//! Aggregate functions in the two-phase model.
//!
//! The paper (§4.1) keeps aggregation elastic by splitting it: the
//! **partial** phase runs in the scan-side stage at any parallelism (its
//! per-task state is reconstructible, so tasks/drivers can come and go), and
//! the **final** phase merges all partial states at parallelism 1.
//!
//! An [`AggSpec`] describes one aggregate call; [`AggAccumulator`] holds its
//! state for every group of one operator. Every partial state is one typed
//! column, the same column the aggregate finishes to
//! ([`AggAccumulator::finish_column`]), so the exchange between partial and
//! final stages is plain page flow and a final merges a partial's column
//! with the same kernel it folds input with. AVG is the one aggregate that
//! would need two: it has no accumulator, and the optimizer lowers it to a
//! SUM and a COUNT divided above the final aggregate.

use std::cmp::Ordering;
use std::fmt;

use accordion_common::{AccordionError, Result};
use accordion_data::column::{Column, Utf8Column, Validity};
use accordion_data::types::DataType;

use crate::scalar::Expr;

/// Which aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// COUNT(expr) / COUNT(*) when `input` is `None`.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    /// Refuses an argument type the aggregate cannot fold: SUM and AVG add
    /// numbers, so they take INT64 or FLOAT64 only.
    pub fn check_argument(self, dt: DataType) -> Result<()> {
        match (self, dt) {
            (AggKind::Sum | AggKind::Avg, DataType::Bool | DataType::Date32 | DataType::Utf8) => {
                Err(AccordionError::Analysis(format!(
                    "{self}() takes a numeric argument, got {dt}"
                )))
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        };
        f.write_str(s)
    }
}

/// One aggregate call in a plan: `kind(input)` named `name`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub kind: AggKind,
    /// Argument expression; `None` only for COUNT(*).
    pub input: Option<Expr>,
    /// Output column name.
    pub name: String,
    /// Input value type (set by the analyzer/planner; used to pick the
    /// accumulator representation).
    pub input_type: DataType,
}

impl AggSpec {
    pub fn count_star(name: impl Into<String>) -> Self {
        AggSpec {
            kind: AggKind::Count,
            input: None,
            name: name.into(),
            input_type: DataType::Int64,
        }
    }

    pub fn new(kind: AggKind, input: Expr, input_type: DataType, name: impl Into<String>) -> Self {
        AggSpec {
            kind,
            input: Some(input),
            name: name.into(),
            input_type,
        }
    }

    /// Output type of the *final* result.
    pub fn output_type(&self) -> DataType {
        match self.kind {
            AggKind::Count => DataType::Int64,
            AggKind::Avg => DataType::Float64,
            AggKind::Sum => match self.input_type {
                DataType::Int64 => DataType::Int64,
                _ => DataType::Float64,
            },
            AggKind::Min | AggKind::Max => self.input_type,
        }
    }
}

/// Columnar accumulator: typed vectors indexed by dense group id, updated
/// with per-column kernels.
///
/// This is the aggregation half of the vectorized hash engine: the group
/// table assigns every input row a `group_id`, then each aggregate walks
/// the argument column once in a branch-light loop. No input type
/// materializes a per-row `Value`; the row-at-a-time reference these
/// kernels are held to lives in `crates/exec/tests/kernel_reference.rs`.
#[derive(Debug)]
pub enum AggAccumulator {
    /// COUNT(*) and COUNT(expr).
    Count { counts: Vec<i64> },
    /// SUM over Int64, wrapping on overflow (identically in debug and
    /// release profiles, like the `i64` arithmetic kernels).
    SumInt { sums: Vec<i64>, seen: Vec<bool> },
    /// SUM over Float64 (and Int64-coerced) inputs.
    SumFloat { sums: Vec<f64>, seen: Vec<bool> },
    /// MIN or MAX over any type; a group's value is a don't-care until
    /// `seen`.
    MinMax {
        vals: MinMaxValues,
        seen: Vec<bool>,
        is_min: bool,
    },
}

/// Per-group MIN/MAX values, one vector of the argument's type.
#[derive(Debug)]
pub enum MinMaxValues {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    Date32(Vec<i32>),
    /// One owned string per group, overwritten in place when beaten.
    Utf8(Vec<String>),
}

impl AggAccumulator {
    /// One accumulator per spec of `aggs`. An AVG is refused with a typed
    /// error: it has no accumulator, and a plan that reaches an operator
    /// with one skipped the optimizer's lowering.
    pub fn for_specs(aggs: &[AggSpec]) -> Result<Vec<AggAccumulator>> {
        if let Some(avg) = aggs.iter().find(|a| a.kind == AggKind::Avg) {
            return Err(AccordionError::Plan(format!(
                "aggregate '{}' is an AVG, which runs as a SUM and a COUNT: lower the plan \
                 with the optimizer",
                avg.name
            )));
        }
        Ok(aggs.iter().map(AggAccumulator::for_spec).collect())
    }

    /// Picks the accumulator representation for a spec. Panics on AVG,
    /// which has none ([`for_specs`](Self::for_specs) refuses it instead).
    pub fn for_spec(spec: &AggSpec) -> AggAccumulator {
        match (spec.kind, spec.input_type) {
            (AggKind::Count, _) => AggAccumulator::Count { counts: Vec::new() },
            (AggKind::Sum, DataType::Int64) => AggAccumulator::SumInt {
                sums: Vec::new(),
                seen: Vec::new(),
            },
            (AggKind::Sum, _) => AggAccumulator::SumFloat {
                sums: Vec::new(),
                seen: Vec::new(),
            },
            (AggKind::Avg, _) => panic!("AVG has no accumulator: it runs as a SUM and a COUNT"),
            (kind @ (AggKind::Min | AggKind::Max), dt) => AggAccumulator::MinMax {
                vals: match dt {
                    DataType::Int64 => MinMaxValues::Int64(Vec::new()),
                    DataType::Float64 => MinMaxValues::Float64(Vec::new()),
                    DataType::Bool => MinMaxValues::Bool(Vec::new()),
                    DataType::Date32 => MinMaxValues::Date32(Vec::new()),
                    DataType::Utf8 => MinMaxValues::Utf8(Vec::new()),
                },
                seen: Vec::new(),
                is_min: kind == AggKind::Min,
            },
        }
    }

    /// Number of groups currently accumulated.
    pub fn len(&self) -> usize {
        match self {
            AggAccumulator::Count { counts } => counts.len(),
            AggAccumulator::SumInt { sums, .. } => sums.len(),
            AggAccumulator::SumFloat { sums, .. } => sums.len(),
            AggAccumulator::MinMax { seen, .. } => seen.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets the number of groups to `n`: new ones start empty, groups past
    /// `n` are dropped (the partial aggregate adds one spare slot for the
    /// unselected rows of a handed-over page and drops it after the fold).
    pub fn resize(&mut self, n: usize) {
        match self {
            AggAccumulator::Count { counts } => counts.resize(n, 0),
            AggAccumulator::SumInt { sums, seen } => {
                sums.resize(n, 0);
                seen.resize(n, false);
            }
            AggAccumulator::SumFloat { sums, seen } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggAccumulator::MinMax { vals, seen, .. } => {
                seen.resize(n, false);
                match vals {
                    MinMaxValues::Int64(v) => v.resize(n, 0),
                    MinMaxValues::Float64(v) => v.resize(n, 0.0),
                    MinMaxValues::Bool(v) => v.resize(n, false),
                    MinMaxValues::Date32(v) => v.resize(n, 0),
                    MinMaxValues::Utf8(v) => v.resize(n, String::new()),
                }
            }
        }
    }

    /// Partial-phase update: folds `col[i]` into group `group_ids[i]` for
    /// every row. `col = None` is COUNT(*) (every row counts).
    pub fn update(&mut self, col: Option<&Column>, group_ids: &[u32]) -> Result<()> {
        let Some(col) = col else {
            // COUNT(*): no argument, count every row.
            let AggAccumulator::Count { counts } = self else {
                return Err(AccordionError::Internal(
                    "argument-less aggregate that is not COUNT(*)".into(),
                ));
            };
            for &g in group_ids {
                counts[g as usize] += 1;
            }
            return Ok(());
        };
        match self {
            AggAccumulator::Count { counts } => match col.validity() {
                None => {
                    for &g in group_ids {
                        counts[g as usize] += 1;
                    }
                }
                Some(v) => {
                    for (i, &g) in group_ids.iter().enumerate() {
                        counts[g as usize] += v.is_valid(i) as i64;
                    }
                }
            },
            AggAccumulator::SumInt { sums, seen } => {
                let Some(data) = col.as_i64() else {
                    return Err(kernel_type_error("sum<i64>", col));
                };
                match col.validity() {
                    None => {
                        for (i, &g) in group_ids.iter().enumerate() {
                            let g = g as usize;
                            sums[g] = sums[g].wrapping_add(data[i]);
                            seen[g] = true;
                        }
                    }
                    Some(v) => {
                        for (i, &g) in group_ids.iter().enumerate() {
                            let g = g as usize;
                            let valid = v.is_valid(i);
                            sums[g] = sums[g].wrapping_add(if valid { data[i] } else { 0 });
                            seen[g] |= valid;
                        }
                    }
                }
            }
            AggAccumulator::SumFloat { sums, seen } => {
                sum_f64_kernel(sums, seen, col, group_ids)?;
            }
            AggAccumulator::MinMax { vals, seen, is_min } => {
                let fold = MinMaxFold {
                    seen,
                    want: if *is_min {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    },
                    validity: col.validity().map(|v| &**v),
                    group_ids,
                };
                match (vals, col) {
                    (MinMaxValues::Int64(vals), Column::Int64(data, _)) => {
                        fold.run(vals, data.iter().copied(), i64::cmp, |v, c| *v = c)
                    }
                    (MinMaxValues::Float64(vals), Column::Float64(data, _)) => {
                        fold.run(vals, data.iter().copied(), f64::total_cmp, |v, c| *v = c)
                    }
                    (MinMaxValues::Bool(vals), Column::Bool(data, _)) => {
                        fold.run(vals, data.iter().copied(), bool::cmp, |v, c| *v = c)
                    }
                    (MinMaxValues::Date32(vals), Column::Date32(data, _)) => {
                        fold.run(vals, data.iter().copied(), i32::cmp, |v, c| *v = c)
                    }
                    // Compared in place; a group's string is rewritten (its
                    // buffer reused) only when the row beats it.
                    (MinMaxValues::Utf8(vals), Column::Utf8(data, _)) => fold.run(
                        vals,
                        data.iter(),
                        |c, v| c.as_bytes().cmp(v.as_bytes()),
                        |v, c| {
                            v.clear();
                            v.push_str(c);
                        },
                    ),
                    _ => return Err(kernel_type_error("min/max", col)),
                }
            }
        }
        Ok(())
    }

    /// Final-phase merge: folds a partial aggregate's state column — the
    /// column a partial [`finish_column`](Self::finish_column) emitted —
    /// into the accumulators.
    pub fn merge(&mut self, col: &Column, group_ids: &[u32]) -> Result<()> {
        match self {
            AggAccumulator::Count { counts } => {
                let Some(data) = col.as_i64() else {
                    return Err(kernel_type_error("count-merge", col));
                };
                for_each_valid(col, group_ids, |i, g| counts[g] += data[i]);
            }
            AggAccumulator::SumInt { sums, seen } => {
                let Some(data) = col.as_i64() else {
                    return Err(kernel_type_error("sum<i64>-merge", col));
                };
                for_each_valid(col, group_ids, |i, g| {
                    sums[g] = sums[g].wrapping_add(data[i]);
                    seen[g] = true;
                });
            }
            // A float sum and a min/max merge their states with the same
            // kernel that folds their input.
            AggAccumulator::SumFloat { .. } | AggAccumulator::MinMax { .. } => {
                return self.update(Some(col), group_ids)
            }
        }
        Ok(())
    }

    /// Produces the final output column in `order`.
    pub fn finish_column(&self, order: &[u32]) -> Column {
        match self {
            AggAccumulator::Count { counts } => Column::from_i64(gather(counts, order)),
            AggAccumulator::SumInt { sums, seen } => {
                Column::from_i64_nullable(gather(sums, order), &unseen(seen, order))
            }
            AggAccumulator::SumFloat { sums, seen } => {
                Column::from_f64_nullable(gather(sums, order), &unseen(seen, order))
            }
            AggAccumulator::MinMax { vals, seen, .. } => {
                let nulls = unseen(seen, order);
                match vals {
                    MinMaxValues::Int64(v) => Column::from_i64_nullable(gather(v, order), &nulls),
                    MinMaxValues::Float64(v) => Column::from_f64_nullable(gather(v, order), &nulls),
                    MinMaxValues::Bool(v) => Column::from_bool_nullable(gather(v, order), &nulls),
                    MinMaxValues::Date32(v) => {
                        Column::from_date32_nullable(gather(v, order), &nulls)
                    }
                    MinMaxValues::Utf8(v) => {
                        let strs: Vec<&str> =
                            order.iter().map(|&g| v[g as usize].as_str()).collect();
                        Column::from_utf8_nullable(Utf8Column::from_strings(&strs), &nulls)
                    }
                }
            }
        }
    }
}

/// The one MIN/MAX fold every argument type runs: a row's cell replaces its
/// group's value when the group has none yet or the cell compares `want`
/// (strictly `Less` for MIN, `Greater` for MAX) against it. NULL cells are
/// skipped.
struct MinMaxFold<'a> {
    seen: &'a mut [bool],
    want: Ordering,
    validity: Option<&'a Validity>,
    group_ids: &'a [u32],
}

impl MinMaxFold<'_> {
    fn run<T, C>(
        self,
        vals: &mut [T],
        cells: impl Iterator<Item = C>,
        cmp: impl Fn(&C, &T) -> Ordering,
        store: impl Fn(&mut T, C),
    ) {
        for (i, (cell, &g)) in cells.zip(self.group_ids).enumerate() {
            if self.validity.is_some_and(|v| !v.is_valid(i)) {
                continue;
            }
            let g = g as usize;
            if !self.seen[g] || cmp(&cell, &vals[g]) == self.want {
                store(&mut vals[g], cell);
            }
            self.seen[g] = true;
        }
    }
}

/// Shared inner loop: calls `f(row, group)` for every row whose cell is
/// valid, with a no-bitmap fast path.
#[inline]
fn for_each_valid(col: &Column, group_ids: &[u32], mut f: impl FnMut(usize, usize)) {
    match col.validity() {
        None => {
            for (i, &g) in group_ids.iter().enumerate() {
                f(i, g as usize);
            }
        }
        Some(v) => {
            for (i, &g) in group_ids.iter().enumerate() {
                if v.is_valid(i) {
                    f(i, g as usize);
                }
            }
        }
    }
}

/// f64 sum kernel accepting Float64 or (analyzer-coerced) Int64 input.
fn sum_f64_kernel(
    sums: &mut [f64],
    seen: &mut [bool],
    col: &Column,
    group_ids: &[u32],
) -> Result<()> {
    if let Some(data) = col.as_f64() {
        match col.validity() {
            None => {
                for (i, &g) in group_ids.iter().enumerate() {
                    let g = g as usize;
                    sums[g] += data[i];
                    seen[g] = true;
                }
            }
            Some(v) => {
                for (i, &g) in group_ids.iter().enumerate() {
                    let g = g as usize;
                    let valid = v.is_valid(i);
                    sums[g] += if valid { data[i] } else { 0.0 };
                    seen[g] |= valid;
                }
            }
        }
        return Ok(());
    }
    if let Some(data) = col.as_i64() {
        for_each_valid(col, group_ids, |i, g| {
            sums[g] += data[i] as f64;
            seen[g] = true;
        });
        return Ok(());
    }
    Err(kernel_type_error("sum<f64>", col))
}

/// `vals` of each group in `order`.
fn gather<T: Copy>(vals: &[T], order: &[u32]) -> Vec<T> {
    order.iter().map(|&g| vals[g as usize]).collect()
}

/// The NULL mask of groups in `order` that saw no value.
fn unseen(seen: &[bool], order: &[u32]) -> Vec<bool> {
    order.iter().map(|&g| !seen[g as usize]).collect()
}

fn kernel_type_error(kernel: &str, col: &Column) -> AccordionError {
    AccordionError::Internal(format!("{kernel} kernel fed a {} column", col.data_type()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::column::ColumnBuilder;
    use accordion_data::types::Value;

    /// Equality that also holds between two NaNs of any payload.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float64(x), Value::Float64(y)) if x.is_nan() && y.is_nan() => true,
            _ => a == b,
        }
    }

    /// Folds `col` (`None`: COUNT(*)) into `want.len()` groups in one
    /// accumulator, and again in three partial accumulators over thirds of
    /// the rows whose finished columns one final accumulator merges — the
    /// elastic split. Both must finish to `want`.
    fn check(spec: &AggSpec, col: Option<&Column>, gids: &[u32], want: &[Value]) {
        let order: Vec<u32> = (0..want.len() as u32).collect();
        let assert_finishes = |acc: &AggAccumulator, path: &str| {
            let out = acc.finish_column(&order);
            assert_eq!(out.data_type(), spec.output_type(), "{} {path}", spec.kind);
            for (g, want) in want.iter().enumerate() {
                let got = out.value(g);
                assert!(
                    same(&got, want),
                    "{} {path} group {g}: {got:?}, want {want:?}",
                    spec.kind
                );
            }
        };
        let mut direct = AggAccumulator::for_spec(spec);
        direct.resize(want.len());
        direct.update(col, gids).unwrap();
        assert_finishes(&direct, "direct");

        let mut merged = AggAccumulator::for_spec(spec);
        merged.resize(want.len());
        let n = gids.len();
        for rows in [0..n / 3, n / 3..n / 2, n / 2..n] {
            let part = col.map(|c| c.slice(rows.start, rows.len()));
            let mut partial = AggAccumulator::for_spec(spec);
            partial.resize(want.len());
            partial.update(part.as_ref(), &gids[rows]).unwrap();
            merged
                .merge(&partial.finish_column(&order), &order)
                .unwrap();
        }
        assert_finishes(&merged, "partial → final");
    }

    fn column(dt: DataType, values: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::new(dt, values.len());
        values.into_iter().for_each(|v| b.push(v));
        b.finish()
    }

    fn spec(kind: AggKind, dt: DataType) -> AggSpec {
        AggSpec::new(kind, Expr::col(0), dt, "x")
    }

    #[test]
    fn count_ignores_nulls() {
        let col = column(
            DataType::Int64,
            vec![Value::Int64(1), Value::Null, Value::Int64(3)],
        );
        let count = spec(AggKind::Count, DataType::Int64);
        check(&count, Some(&col), &[0, 0, 0], &[Value::Int64(2)]);
    }

    #[test]
    fn sum_int_and_float() {
        let ints = Column::from_i64(vec![1, 2]);
        let sum = spec(AggKind::Sum, DataType::Int64);
        check(&sum, Some(&ints), &[0, 0], &[Value::Int64(3)]);
        let floats = Column::from_f64(vec![0.5, 1.5]);
        let sum = spec(AggKind::Sum, DataType::Float64);
        check(&sum, Some(&floats), &[0, 0], &[Value::Float64(2.0)]);
    }

    #[test]
    fn sum_of_no_rows_is_null() {
        let sum = spec(AggKind::Sum, DataType::Int64);
        check(&sum, Some(&Column::from_i64(vec![])), &[], &[Value::Null]);
        let null = Column::nulls(DataType::Int64, 1);
        check(&sum, Some(&null), &[0], &[Value::Null]);
    }

    #[test]
    fn min_max_over_strings_and_dates() {
        let strs = Column::from_strings(&["b", "a"]);
        let min = spec(AggKind::Min, DataType::Utf8);
        check(&min, Some(&strs), &[0, 0], &[Value::Utf8("a".into())]);
        let dates = Column::from_date32(vec![5, 9]);
        let max = spec(AggKind::Max, DataType::Date32);
        check(&max, Some(&dates), &[0, 0], &[Value::Date32(9)]);
    }

    #[test]
    fn partial_final_equals_direct_for_all_kinds() {
        // The elasticity-critical invariant: splitting the input stream in
        // any way and merging partials gives the same answer as one pass.
        let col = Column::from_i64((1..=10).collect());
        let gids = [0u32; 10];
        for (kind, want) in [
            (AggKind::Count, Value::Int64(10)),
            (AggKind::Sum, Value::Int64(55)),
            (AggKind::Min, Value::Int64(1)),
            (AggKind::Max, Value::Int64(10)),
        ] {
            check(&spec(kind, DataType::Int64), Some(&col), &gids, &[want]);
        }
    }

    #[test]
    fn count_star_spec() {
        let spec = AggSpec::count_star("cnt");
        assert_eq!(spec.output_type(), DataType::Int64);
        assert!(spec.input.is_none());
        check(&spec, None, &[0, 0], &[Value::Int64(2)]);
    }

    #[test]
    fn output_and_partial_types() {
        let avg = AggSpec::new(AggKind::Avg, Expr::col(0), DataType::Int64, "a");
        assert_eq!(avg.output_type(), DataType::Float64);
        // A partial state is the finished column, so its type is the
        // output type.
        for (kind, input, output) in [
            (AggKind::Sum, DataType::Int64, DataType::Int64),
            (AggKind::Sum, DataType::Float64, DataType::Float64),
            (AggKind::Min, DataType::Utf8, DataType::Utf8),
            (AggKind::Count, DataType::Bool, DataType::Int64),
        ] {
            let spec = spec(kind, input);
            assert_eq!(spec.output_type(), output);
            let mut acc = AggAccumulator::for_spec(&spec);
            acc.resize(1);
            assert_eq!(acc.finish_column(&[0]).data_type(), output, "{kind}");
        }
    }

    #[test]
    fn an_avg_spec_is_refused_with_a_typed_error() {
        let sum = spec(AggKind::Sum, DataType::Float64);
        let avg = spec(AggKind::Avg, DataType::Float64);
        assert_eq!(
            AggAccumulator::for_specs(std::slice::from_ref(&sum))
                .unwrap()
                .len(),
            1
        );
        let err = AggAccumulator::for_specs(&[sum, avg]).unwrap_err();
        assert!(matches!(err, AccordionError::Plan(_)), "{err}");
    }

    #[test]
    fn accumulator_matches_scalar_states_i64() {
        let col = column(
            DataType::Int64,
            [3, 0, -7, i64::MAX, 1, 0, 0, 42]
                .into_iter()
                .enumerate()
                .map(|(i, x)| match i {
                    1 | 6 => Value::Null,
                    _ => Value::Int64(x),
                })
                .collect(),
        );
        // Groups: {3, -7, 42}, {NULL, 1}, {MAX, 0, NULL}.
        let gids = [0u32, 1, 0, 2, 1, 2, 2, 0];
        let ints = |v: [i64; 3]| v.map(Value::Int64);
        let cases = [
            (AggKind::Count, ints([3, 1, 2])),
            (AggKind::Sum, ints([38, 1, i64::MAX])),
            (AggKind::Min, ints([-7, 1, 0])),
            (AggKind::Max, ints([42, 1, i64::MAX])),
        ];
        for (kind, want) in cases {
            check(&spec(kind, DataType::Int64), Some(&col), &gids, &want);
        }
    }

    #[test]
    fn accumulator_matches_scalar_states_f64() {
        let col = column(
            DataType::Float64,
            [0.5, -0.0, 0.0, f64::NAN, 1e300, -3.25, 0.0, 0.0]
                .into_iter()
                .enumerate()
                .map(|(i, x)| match i {
                    2 | 7 => Value::Null,
                    _ => Value::Float64(x),
                })
                .collect(),
        );
        // Groups: {0.5, -0.0, 0.0}, {NULL, NaN, NULL}, {1e300, -3.25}.
        let gids = [0u32, 0, 1, 1, 2, 2, 0, 1];
        let floats = |v: [f64; 3]| v.map(Value::Float64);
        let cases = [
            (AggKind::Count, [3, 1, 2].map(Value::Int64)),
            (AggKind::Sum, floats([0.5, f64::NAN, 1e300])),
            // `f64::total_cmp`: -0.0 sorts before 0.0, NaN after everything.
            (AggKind::Min, floats([-0.0, f64::NAN, -3.25])),
            (AggKind::Max, floats([0.5, f64::NAN, 1e300])),
        ];
        for (kind, want) in cases {
            check(&spec(kind, DataType::Float64), Some(&col), &gids, &want);
        }
    }

    #[test]
    fn accumulator_minmax_for_utf8_and_bool() {
        let strs = column(
            DataType::Utf8,
            vec![
                Value::Utf8("pear".into()),
                Value::Null,
                Value::Utf8("apple".into()),
                Value::Utf8("zed".into()),
                Value::Null,
                Value::Utf8("é".into()),
            ],
        );
        // Groups: {pear, NULL, apple}, {zed, é}, {NULL}; "é" is 0xC3 0xA9,
        // after "zed" byte-wise.
        let gids = [0u32, 0, 0, 1, 2, 1];
        let text = |s: &str| Value::Utf8(s.into());
        let min = spec(AggKind::Min, DataType::Utf8);
        check(
            &min,
            Some(&strs),
            &gids,
            &[text("apple"), text("zed"), Value::Null],
        );
        let max = spec(AggKind::Max, DataType::Utf8);
        check(
            &max,
            Some(&strs),
            &gids,
            &[text("pear"), text("é"), Value::Null],
        );

        let bools = column(
            DataType::Bool,
            vec![
                Value::Bool(true),
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
            ],
        );
        let gids = [0u32, 0, 0, 1];
        let min = spec(AggKind::Min, DataType::Bool);
        check(&min, Some(&bools), &gids, &[false, true].map(Value::Bool));
        let max = spec(AggKind::Max, DataType::Bool);
        check(&max, Some(&bools), &gids, &[true, true].map(Value::Bool));

        // The hand-over's spare slot: a value folded into group 1 of a
        // one-group accumulator is gone once the slot is dropped.
        let mut acc = AggAccumulator::for_spec(&spec(AggKind::Max, DataType::Utf8));
        acc.resize(2);
        acc.update(Some(&Column::from_strings(&["a", "zzz"])), &[0, 1])
            .unwrap();
        acc.resize(1);
        acc.resize(2);
        let out = acc.finish_column(&[0, 1]);
        assert_eq!((out.value(0), out.value(1)), (text("a"), Value::Null));
    }

    #[test]
    fn kernels_reject_a_column_of_another_type() {
        let strs = Column::from_strings(&["x"]);
        for spec in [
            spec(AggKind::Sum, DataType::Int64),
            spec(AggKind::Sum, DataType::Float64),
            spec(AggKind::Min, DataType::Int64),
            spec(AggKind::Max, DataType::Bool),
        ] {
            let mut acc = AggAccumulator::for_spec(&spec);
            acc.resize(1);
            assert!(acc.update(Some(&strs), &[0]).is_err(), "{}", spec.kind);
        }
    }

    #[test]
    fn accumulator_count_star_counts_every_row() {
        let spec = AggSpec::count_star("cnt");
        let mut acc = AggAccumulator::for_spec(&spec);
        acc.resize(2);
        acc.update(None, &[0, 1, 1, 1]).unwrap();
        let out = acc.finish_column(&[0, 1]);
        assert_eq!(out.value(0), Value::Int64(1));
        assert_eq!(out.value(1), Value::Int64(3));
    }

    #[test]
    fn accumulator_sum_int_wraps_like_scalar() {
        let col = Column::from_i64(vec![i64::MAX, 1]);
        let sum = spec(AggKind::Sum, DataType::Int64);
        check(&sum, Some(&col), &[0, 0], &[Value::Int64(i64::MIN)]);
    }

    #[test]
    fn accumulator_empty_groups_finish_null_sum() {
        let mut acc = AggAccumulator::for_spec(&spec(AggKind::Sum, DataType::Int64));
        acc.resize(1);
        // No rows fed: SUM over the empty group is NULL.
        assert_eq!(acc.finish_column(&[0]).value(0), Value::Null);
    }
}
