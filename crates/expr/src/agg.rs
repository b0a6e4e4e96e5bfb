//! Aggregate functions in the two-phase model.
//!
//! The paper (§4.1) keeps aggregation elastic by splitting it: the
//! **partial** phase runs in the scan-side stage at any parallelism (its
//! per-task state is reconstructible, so tasks/drivers can come and go), and
//! the **final** phase merges all partial states at parallelism 1.
//!
//! An [`AggSpec`] describes one aggregate call; [`AggState`] is the
//! accumulator. Partial states serialize into ordinary page columns
//! ([`AggState::partial_values`] / [`AggSpec::partial_state_types`]), so the
//! exchange between partial and final stages is plain page flow.

use std::fmt;

use accordion_common::{AccordionError, Result};
use accordion_data::column::{Column, ColumnBuilder};
use accordion_data::types::{DataType, Value};

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

    /// Column types of the serialized partial state (what flows between the
    /// partial-agg stage and the final-agg stage).
    pub fn partial_state_types(&self) -> Vec<DataType> {
        match self.kind {
            AggKind::Count => vec![DataType::Int64],
            AggKind::Sum => vec![self.output_type()],
            AggKind::Avg => vec![DataType::Float64, DataType::Int64],
            AggKind::Min | AggKind::Max => vec![self.input_type],
        }
    }

    pub fn new_state(&self) -> AggState {
        match self.kind {
            AggKind::Count => AggState::Count(0),
            AggKind::Sum => match self.input_type {
                DataType::Int64 => AggState::SumInt(0, false),
                _ => AggState::SumFloat(0.0, false),
            },
            AggKind::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
        }
    }
}

/// Accumulator for one aggregate over one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Count(i64),
    /// (sum, saw_any) — SQL SUM over zero rows is NULL.
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Avg {
        sum: f64,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    /// Feeds one raw input value (partial phase). NULL inputs are ignored
    /// per SQL semantics, except COUNT(*) which is fed `Value::Int64(1)` by
    /// the operator.
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumInt(s, any) => {
                if let Some(x) = v.as_i64() {
                    // Wrapping, matching the vectorized kernel and the
                    // eval_binary i64 fast path: overflow must not change
                    // behavior between debug and release profiles.
                    *s = s.wrapping_add(x);
                    *any = true;
                }
            }
            AggState::SumFloat(s, any) => {
                if let Some(x) = v.as_f64() {
                    *s += x;
                    *any = true;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *count += 1;
                }
            }
            AggState::Min(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => v.total_cmp(c) == std::cmp::Ordering::Less,
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => v.total_cmp(c) == std::cmp::Ordering::Greater,
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    /// Serializes this state into partial columns (see
    /// [`AggSpec::partial_state_types`]).
    pub fn partial_values(&self) -> Vec<Value> {
        match self {
            AggState::Count(c) => vec![Value::Int64(*c)],
            AggState::SumInt(s, any) => vec![if *any { Value::Int64(*s) } else { Value::Null }],
            AggState::SumFloat(s, any) => {
                vec![if *any {
                    Value::Float64(*s)
                } else {
                    Value::Null
                }]
            }
            AggState::Avg { sum, count } => vec![Value::Float64(*sum), Value::Int64(*count)],
            AggState::Min(v) | AggState::Max(v) => {
                vec![v.clone().unwrap_or(Value::Null)]
            }
        }
    }

    /// Merges a serialized partial state (final phase).
    pub fn merge_partial(&mut self, partial: &[Value]) -> Result<()> {
        match self {
            AggState::Count(c) => {
                let v = partial_scalar(partial, 0)?;
                if let Some(x) = v.as_i64() {
                    *c += x;
                }
            }
            AggState::SumInt(s, any) => {
                let v = partial_scalar(partial, 0)?;
                if let Some(x) = v.as_i64() {
                    *s = s.wrapping_add(x);
                    *any = true;
                }
            }
            AggState::SumFloat(s, any) => {
                let v = partial_scalar(partial, 0)?;
                if let Some(x) = v.as_f64() {
                    *s += x;
                    *any = true;
                }
            }
            AggState::Avg { sum, count } => {
                let sv = partial_scalar(partial, 0)?;
                let cv = partial_scalar(partial, 1)?;
                if let (Some(s2), Some(c2)) = (sv.as_f64(), cv.as_i64()) {
                    *sum += s2;
                    *count += c2;
                }
            }
            AggState::Min(cur) => {
                let v = partial_scalar(partial, 0)?;
                if !v.is_null() {
                    let replace = match cur {
                        None => true,
                        Some(c) => v.total_cmp(c) == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                let v = partial_scalar(partial, 0)?;
                if !v.is_null() {
                    let replace = match cur {
                        None => true,
                        Some(c) => v.total_cmp(c) == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Produces the final output value.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int64(*c),
            AggState::SumInt(s, any) => {
                if *any {
                    Value::Int64(*s)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat(s, any) => {
                if *any {
                    Value::Float64(*s)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(*sum / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar accumulators
// ---------------------------------------------------------------------------

/// Columnar accumulator: one typed vector (or pair) indexed by dense group
/// id, updated with per-column kernels instead of one
/// [`AggState::update`] call per row.
///
/// This is the aggregation half of the vectorized hash engine: the group
/// table assigns every input row a `group_id`, then each aggregate walks
/// the argument column once in a branch-light loop. i64/f64/date inputs
/// never materialize a [`Value`]; types without a kernel (Utf8/Bool
/// min-max) fall back to a vector of the scalar [`AggState`]s, which also
/// remains the reference implementation the property suite checks against.
#[derive(Debug)]
pub enum AggAccumulator {
    /// COUNT(*) and COUNT(expr).
    Count {
        counts: Vec<i64>,
    },
    /// SUM over Int64, wrapping on overflow (see [`AggState::SumInt`]).
    SumInt {
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    /// SUM over Float64 (and Int64-coerced) inputs.
    SumFloat {
        sums: Vec<f64>,
        seen: Vec<bool>,
    },
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    MinMaxI64 {
        vals: Vec<i64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    MinMaxF64 {
        vals: Vec<f64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    MinMaxDate {
        vals: Vec<i32>,
        seen: Vec<bool>,
        is_min: bool,
    },
    /// Scalar fallback for kernel-less types; `template` seeds new groups.
    Scalar {
        template: AggState,
        states: Vec<AggState>,
    },
}

impl AggAccumulator {
    /// Picks the accumulator representation for a spec.
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
            (AggKind::Avg, _) => AggAccumulator::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            (kind @ (AggKind::Min | AggKind::Max), dt) => {
                let is_min = kind == AggKind::Min;
                match dt {
                    DataType::Int64 => AggAccumulator::MinMaxI64 {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    DataType::Float64 => AggAccumulator::MinMaxF64 {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    DataType::Date32 => AggAccumulator::MinMaxDate {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    _ => AggAccumulator::Scalar {
                        template: spec.new_state(),
                        states: Vec::new(),
                    },
                }
            }
        }
    }

    /// Number of groups currently accumulated.
    pub fn len(&self) -> usize {
        match self {
            AggAccumulator::Count { counts } => counts.len(),
            AggAccumulator::SumInt { sums, .. } => sums.len(),
            AggAccumulator::SumFloat { sums, .. } => sums.len(),
            AggAccumulator::Avg { sums, .. } => sums.len(),
            AggAccumulator::MinMaxI64 { vals, .. } => vals.len(),
            AggAccumulator::MinMaxF64 { vals, .. } => vals.len(),
            AggAccumulator::MinMaxDate { vals, .. } => vals.len(),
            AggAccumulator::Scalar { states, .. } => states.len(),
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
            AggAccumulator::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
            AggAccumulator::MinMaxI64 { vals, seen, .. } => {
                vals.resize(n, 0);
                seen.resize(n, false);
            }
            AggAccumulator::MinMaxF64 { vals, seen, .. } => {
                vals.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggAccumulator::MinMaxDate { vals, seen, .. } => {
                vals.resize(n, 0);
                seen.resize(n, false);
            }
            AggAccumulator::Scalar { template, states } => {
                states.resize(n, template.clone());
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
                    return update_via_values(
                        &mut AggStatesView::SumInt(sums, seen),
                        col,
                        group_ids,
                    );
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
            AggAccumulator::Avg { sums, counts } => {
                avg_f64_kernel(sums, counts, col, group_ids)?;
            }
            AggAccumulator::MinMaxI64 { vals, seen, is_min } => {
                let Some(data) = col.as_i64() else {
                    return Err(kernel_type_error("min/max<i64>", col));
                };
                let is_min = *is_min;
                for_each_valid(col, group_ids, |i, g| {
                    if !seen[g] || (data[i] < vals[g]) == is_min {
                        vals[g] = data[i];
                    }
                    seen[g] = true;
                });
            }
            AggAccumulator::MinMaxF64 { vals, seen, is_min } => {
                let Some(data) = col.as_f64() else {
                    return Err(kernel_type_error("min/max<f64>", col));
                };
                let is_min = *is_min;
                for_each_valid(col, group_ids, |i, g| {
                    use std::cmp::Ordering;
                    let want = if is_min {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    if !seen[g] || data[i].total_cmp(&vals[g]) == want {
                        vals[g] = data[i];
                    }
                    seen[g] = true;
                });
            }
            AggAccumulator::MinMaxDate { vals, seen, is_min } => {
                let Some(data) = col.as_date32() else {
                    return Err(kernel_type_error("min/max<date32>", col));
                };
                let is_min = *is_min;
                for_each_valid(col, group_ids, |i, g| {
                    if !seen[g] || (data[i] < vals[g]) == is_min {
                        vals[g] = data[i];
                    }
                    seen[g] = true;
                });
            }
            AggAccumulator::Scalar { states, .. } => {
                for (i, &g) in group_ids.iter().enumerate() {
                    states[g as usize].update(&col.value(i));
                }
            }
        }
        Ok(())
    }

    /// Final-phase merge: folds serialized partial-state columns (layout per
    /// [`AggSpec::partial_state_types`]) into the accumulators.
    pub fn merge(&mut self, cols: &[&Column], group_ids: &[u32]) -> Result<()> {
        let state_col = |i: usize| -> Result<&Column> {
            cols.get(i).copied().ok_or_else(|| {
                AccordionError::Internal(format!(
                    "partial state arity mismatch: wanted column {i}, got {}",
                    cols.len()
                ))
            })
        };
        match self {
            AggAccumulator::Count { counts } => {
                let col = state_col(0)?;
                let Some(data) = col.as_i64() else {
                    return Err(kernel_type_error("count-merge", col));
                };
                for_each_valid(col, group_ids, |i, g| counts[g] += data[i]);
            }
            AggAccumulator::SumInt { sums, seen } => {
                let col = state_col(0)?;
                let Some(data) = col.as_i64() else {
                    return Err(kernel_type_error("sum<i64>-merge", col));
                };
                for_each_valid(col, group_ids, |i, g| {
                    sums[g] = sums[g].wrapping_add(data[i]);
                    seen[g] = true;
                });
            }
            AggAccumulator::SumFloat { sums, seen } => {
                sum_f64_kernel(sums, seen, state_col(0)?, group_ids)?;
            }
            AggAccumulator::Avg { sums, counts } => {
                let scol = state_col(0)?;
                let ccol = state_col(1)?;
                let (Some(s), Some(c)) = (scol.as_f64(), ccol.as_i64()) else {
                    return Err(kernel_type_error("avg-merge", scol));
                };
                for (i, &g) in group_ids.iter().enumerate() {
                    let g = g as usize;
                    if scol.is_valid(i) && ccol.is_valid(i) {
                        sums[g] += s[i];
                        counts[g] += c[i];
                    }
                }
            }
            // Min/max partial state is one column of the input type; merging
            // it is the same kernel as the partial update.
            AggAccumulator::MinMaxI64 { .. }
            | AggAccumulator::MinMaxF64 { .. }
            | AggAccumulator::MinMaxDate { .. } => {
                return self.update(Some(state_col(0)?), group_ids);
            }
            AggAccumulator::Scalar { states, .. } => {
                for (i, &g) in group_ids.iter().enumerate() {
                    let partial: Vec<Value> = cols.iter().map(|c| c.value(i)).collect();
                    states[g as usize].merge_partial(&partial)?;
                }
            }
        }
        Ok(())
    }

    /// Serializes the partial state as columns in `order` (layout per
    /// [`AggSpec::partial_state_types`]), built straight from the
    /// accumulator vectors.
    pub fn partial_columns(&self, order: &[u32], spec: &AggSpec) -> Vec<Column> {
        match self {
            AggAccumulator::Count { counts } => {
                vec![Column::from_i64(
                    order.iter().map(|&g| counts[g as usize]).collect(),
                )]
            }
            AggAccumulator::SumInt { sums, seen } => {
                vec![gather_i64_nullable(sums, seen, order)]
            }
            AggAccumulator::SumFloat { sums, seen } => {
                vec![gather_f64_nullable(sums, seen, order)]
            }
            AggAccumulator::Avg { sums, counts } => vec![
                Column::from_f64(order.iter().map(|&g| sums[g as usize]).collect()),
                Column::from_i64(order.iter().map(|&g| counts[g as usize]).collect()),
            ],
            AggAccumulator::MinMaxI64 { vals, seen, .. } => {
                vec![gather_i64_nullable(vals, seen, order)]
            }
            AggAccumulator::MinMaxF64 { vals, seen, .. } => {
                vec![gather_f64_nullable(vals, seen, order)]
            }
            AggAccumulator::MinMaxDate { vals, seen, .. } => {
                let nulls: Vec<bool> = order.iter().map(|&g| !seen[g as usize]).collect();
                vec![Column::from_date32_nullable(
                    order.iter().map(|&g| vals[g as usize]).collect(),
                    &nulls,
                )]
            }
            AggAccumulator::Scalar { states, .. } => {
                let types = spec.partial_state_types();
                let mut builders: Vec<ColumnBuilder> = types
                    .iter()
                    .map(|&dt| ColumnBuilder::new(dt, order.len()))
                    .collect();
                for &g in order {
                    for (b, v) in builders.iter_mut().zip(states[g as usize].partial_values()) {
                        b.push(v);
                    }
                }
                builders.into_iter().map(ColumnBuilder::finish).collect()
            }
        }
    }

    /// Produces the final output column in `order`.
    pub fn finish_column(&self, order: &[u32], spec: &AggSpec) -> Column {
        match self {
            AggAccumulator::Count { counts } => {
                Column::from_i64(order.iter().map(|&g| counts[g as usize]).collect())
            }
            AggAccumulator::SumInt { sums, seen } => gather_i64_nullable(sums, seen, order),
            AggAccumulator::SumFloat { sums, seen } => gather_f64_nullable(sums, seen, order),
            AggAccumulator::Avg { sums, counts } => {
                let mut out = Vec::with_capacity(order.len());
                let mut nulls = Vec::with_capacity(order.len());
                for &g in order {
                    let g = g as usize;
                    let empty = counts[g] == 0;
                    out.push(if empty {
                        0.0
                    } else {
                        sums[g] / counts[g] as f64
                    });
                    nulls.push(empty);
                }
                Column::from_f64_nullable(out, &nulls)
            }
            AggAccumulator::MinMaxI64 { vals, seen, .. } => gather_i64_nullable(vals, seen, order),
            AggAccumulator::MinMaxF64 { vals, seen, .. } => gather_f64_nullable(vals, seen, order),
            AggAccumulator::MinMaxDate { vals, seen, .. } => {
                let nulls: Vec<bool> = order.iter().map(|&g| !seen[g as usize]).collect();
                Column::from_date32_nullable(
                    order.iter().map(|&g| vals[g as usize]).collect(),
                    &nulls,
                )
            }
            AggAccumulator::Scalar { states, .. } => {
                let mut b = ColumnBuilder::new(spec.output_type(), order.len());
                for &g in order {
                    b.push(states[g as usize].finish());
                }
                b.finish()
            }
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

/// Avg partial kernel over Float64 or Int64 input.
fn avg_f64_kernel(
    sums: &mut [f64],
    counts: &mut [i64],
    col: &Column,
    group_ids: &[u32],
) -> Result<()> {
    if let Some(data) = col.as_f64() {
        for_each_valid(col, group_ids, |i, g| {
            sums[g] += data[i];
            counts[g] += 1;
        });
        return Ok(());
    }
    if let Some(data) = col.as_i64() {
        for_each_valid(col, group_ids, |i, g| {
            sums[g] += data[i] as f64;
            counts[g] += 1;
        });
        return Ok(());
    }
    Err(kernel_type_error("avg", col))
}

fn gather_i64_nullable(vals: &[i64], seen: &[bool], order: &[u32]) -> Column {
    let nulls: Vec<bool> = order.iter().map(|&g| !seen[g as usize]).collect();
    Column::from_i64_nullable(order.iter().map(|&g| vals[g as usize]).collect(), &nulls)
}

fn gather_f64_nullable(vals: &[f64], seen: &[bool], order: &[u32]) -> Column {
    let nulls: Vec<bool> = order.iter().map(|&g| !seen[g as usize]).collect();
    Column::from_f64_nullable(order.iter().map(|&g| vals[g as usize]).collect(), &nulls)
}

fn kernel_type_error(kernel: &str, col: &Column) -> AccordionError {
    AccordionError::Internal(format!("{kernel} kernel fed a {} column", col.data_type()))
}

/// Last-resort scalar path when a typed kernel receives a mismatched column
/// (unreachable through the planner, kept for defense in depth).
enum AggStatesView<'a> {
    SumInt(&'a mut [i64], &'a mut [bool]),
}

fn update_via_values(view: &mut AggStatesView<'_>, col: &Column, group_ids: &[u32]) -> Result<()> {
    match view {
        AggStatesView::SumInt(sums, seen) => {
            for (i, &g) in group_ids.iter().enumerate() {
                if let Some(x) = col.value(i).as_i64() {
                    let g = g as usize;
                    sums[g] = sums[g].wrapping_add(x);
                    seen[g] = true;
                }
            }
        }
    }
    Ok(())
}

fn partial_scalar(partial: &[Value], i: usize) -> Result<&Value> {
    partial.get(i).ok_or_else(|| {
        AccordionError::Internal(format!(
            "partial state arity mismatch: wanted index {i}, got {} values",
            partial.len()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(spec: &AggSpec, values: &[Value]) -> AggState {
        let mut s = spec.new_state();
        for v in values {
            s.update(v);
        }
        s
    }

    #[test]
    fn count_ignores_nulls() {
        let spec = AggSpec::new(AggKind::Count, Expr::col(0), DataType::Int64, "c");
        let s = feed(&spec, &[Value::Int64(1), Value::Null, Value::Int64(3)]);
        assert_eq!(s.finish(), Value::Int64(2));
    }

    #[test]
    fn sum_int_and_float() {
        let spec = AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Int64, "s");
        let s = feed(&spec, &[Value::Int64(1), Value::Int64(2)]);
        assert_eq!(s.finish(), Value::Int64(3));
        let fspec = AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Float64, "s");
        let s = feed(&fspec, &[Value::Float64(0.5), Value::Float64(1.5)]);
        assert_eq!(s.finish(), Value::Float64(2.0));
    }

    #[test]
    fn sum_of_no_rows_is_null() {
        let spec = AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Int64, "s");
        assert_eq!(spec.new_state().finish(), Value::Null);
        let s = feed(&spec, &[Value::Null]);
        assert_eq!(s.finish(), Value::Null);
    }

    #[test]
    fn avg_merges_correctly() {
        let spec = AggSpec::new(AggKind::Avg, Expr::col(0), DataType::Float64, "a");
        let s1 = feed(&spec, &[Value::Float64(1.0), Value::Float64(2.0)]);
        let s2 = feed(&spec, &[Value::Float64(6.0)]);
        let mut merged = spec.new_state();
        merged.merge_partial(&s1.partial_values()).unwrap();
        merged.merge_partial(&s2.partial_values()).unwrap();
        assert_eq!(merged.finish(), Value::Float64(3.0));
    }

    #[test]
    fn min_max_over_strings_and_dates() {
        let spec = AggSpec::new(AggKind::Min, Expr::col(0), DataType::Utf8, "m");
        let s = feed(&spec, &[Value::Utf8("b".into()), Value::Utf8("a".into())]);
        assert_eq!(s.finish(), Value::Utf8("a".into()));
        let spec = AggSpec::new(AggKind::Max, Expr::col(0), DataType::Date32, "m");
        let s = feed(&spec, &[Value::Date32(5), Value::Date32(9)]);
        assert_eq!(s.finish(), Value::Date32(9));
    }

    #[test]
    fn partial_final_equals_direct_for_all_kinds() {
        // The elasticity-critical invariant: splitting the input stream in
        // any way and merging partials gives the same answer as one pass.
        let data: Vec<Value> = (1..=10).map(Value::Int64).collect();
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            let spec = AggSpec::new(kind, Expr::col(0), DataType::Int64, "x");
            let direct = feed(&spec, &data);
            // Split into 3 uneven chunks.
            let mut merged = spec.new_state();
            for chunk in [&data[0..2], &data[2..7], &data[7..10]] {
                let mut partial = spec.new_state();
                for v in chunk {
                    partial.update(v);
                }
                merged.merge_partial(&partial.partial_values()).unwrap();
            }
            assert_eq!(merged.finish(), direct.finish(), "kind {kind}");
        }
    }

    #[test]
    fn count_star_spec() {
        let spec = AggSpec::count_star("cnt");
        assert_eq!(spec.output_type(), DataType::Int64);
        assert!(spec.input.is_none());
        let mut s = spec.new_state();
        s.update(&Value::Int64(1));
        s.update(&Value::Int64(1));
        assert_eq!(s.finish(), Value::Int64(2));
    }

    #[test]
    fn output_and_partial_types() {
        let avg = AggSpec::new(AggKind::Avg, Expr::col(0), DataType::Int64, "a");
        assert_eq!(avg.output_type(), DataType::Float64);
        assert_eq!(
            avg.partial_state_types(),
            vec![DataType::Float64, DataType::Int64]
        );
        let sum_f = AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Float64, "s");
        assert_eq!(sum_f.output_type(), DataType::Float64);
        let min_s = AggSpec::new(AggKind::Min, Expr::col(0), DataType::Utf8, "m");
        assert_eq!(min_s.output_type(), DataType::Utf8);
        assert_eq!(min_s.partial_state_types(), vec![DataType::Utf8]);
    }

    #[test]
    fn merge_arity_mismatch_errors() {
        let spec = AggSpec::new(AggKind::Avg, Expr::col(0), DataType::Float64, "a");
        let mut s = spec.new_state();
        assert!(s.merge_partial(&[Value::Float64(1.0)]).is_err());
    }

    /// Runs one spec through both paths over the same column/group layout
    /// and asserts identical final values per group.
    fn check_accumulator_matches_scalar(spec: &AggSpec, col: &Column, gids: &[u32], groups: usize) {
        // Scalar reference.
        let mut states: Vec<AggState> = (0..groups).map(|_| spec.new_state()).collect();
        for (i, &g) in gids.iter().enumerate() {
            states[g as usize].update(&col.value(i));
        }
        // Vectorized.
        let mut acc = AggAccumulator::for_spec(spec);
        acc.resize(groups);
        acc.update(Some(col), gids).unwrap();
        let order: Vec<u32> = (0..groups as u32).collect();
        let out = acc.finish_column(&order, spec);
        for (g, state) in states.iter().enumerate() {
            assert_eq!(
                out.value(g),
                state.finish(),
                "{} group {g} diverged",
                spec.kind
            );
        }
        // And through serialize → merge (the partial/final split).
        let partial_cols = acc.partial_columns(&order, spec);
        let refs: Vec<&Column> = partial_cols.iter().collect();
        let ids: Vec<u32> = (0..groups as u32).collect();
        let mut merged = AggAccumulator::for_spec(spec);
        merged.resize(groups);
        merged.merge(&refs, &ids).unwrap();
        let merged_out = merged.finish_column(&order, spec);
        for (g, state) in states.iter().enumerate() {
            assert_eq!(
                merged_out.value(g),
                state.finish(),
                "{} group {g} diverged after merge",
                spec.kind
            );
        }
    }

    #[test]
    fn accumulator_matches_scalar_states_i64() {
        let mut b = ColumnBuilder::new(DataType::Int64, 8);
        for v in [
            Value::Int64(3),
            Value::Null,
            Value::Int64(-7),
            Value::Int64(i64::MAX),
            Value::Int64(1),
            Value::Int64(0),
            Value::Null,
            Value::Int64(42),
        ] {
            b.push(v);
        }
        let col = b.finish();
        let gids = [0u32, 1, 0, 2, 1, 2, 2, 0];
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            let spec = AggSpec::new(kind, Expr::col(0), DataType::Int64, "x");
            check_accumulator_matches_scalar(&spec, &col, &gids, 3);
        }
    }

    #[test]
    fn accumulator_matches_scalar_states_f64() {
        let mut b = ColumnBuilder::new(DataType::Float64, 8);
        for v in [
            Value::Float64(0.5),
            Value::Float64(-0.0),
            Value::Null,
            Value::Float64(f64::NAN),
            Value::Float64(1e300),
            Value::Float64(-3.25),
            Value::Float64(0.0),
            Value::Null,
        ] {
            b.push(v);
        }
        let col = b.finish();
        let gids = [0u32, 0, 1, 1, 2, 2, 0, 1];
        for kind in [AggKind::Count, AggKind::Sum, AggKind::Avg] {
            let spec = AggSpec::new(kind, Expr::col(0), DataType::Float64, "x");
            check_accumulator_matches_scalar(&spec, &col, &gids, 3);
        }
        // Min/max use f64::total_cmp — NaN ordering must match Value::total_cmp.
        for kind in [AggKind::Min, AggKind::Max] {
            let spec = AggSpec::new(kind, Expr::col(0), DataType::Float64, "x");
            check_accumulator_matches_scalar(&spec, &col, &gids, 3);
        }
    }

    #[test]
    fn accumulator_scalar_fallback_for_utf8_minmax() {
        let mut b = ColumnBuilder::new(DataType::Utf8, 4);
        for v in [
            Value::Utf8("pear".into()),
            Value::Null,
            Value::Utf8("apple".into()),
            Value::Utf8("zed".into()),
        ] {
            b.push(v);
        }
        let col = b.finish();
        let gids = [0u32, 0, 0, 1];
        for kind in [AggKind::Min, AggKind::Max] {
            let spec = AggSpec::new(kind, Expr::col(0), DataType::Utf8, "x");
            let acc = AggAccumulator::for_spec(&spec);
            assert!(matches!(acc, AggAccumulator::Scalar { .. }));
            check_accumulator_matches_scalar(&spec, &col, &gids, 2);
        }
    }

    #[test]
    fn accumulator_count_star_counts_every_row() {
        let spec = AggSpec::count_star("cnt");
        let mut acc = AggAccumulator::for_spec(&spec);
        acc.resize(2);
        acc.update(None, &[0, 1, 1, 1]).unwrap();
        let out = acc.finish_column(&[0, 1], &spec);
        assert_eq!(out.value(0), Value::Int64(1));
        assert_eq!(out.value(1), Value::Int64(3));
    }

    #[test]
    fn accumulator_sum_int_wraps_like_scalar() {
        let col = Column::from_i64(vec![i64::MAX, 1]);
        let gids = [0u32, 0];
        let spec = AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Int64, "s");
        check_accumulator_matches_scalar(&spec, &col, &gids, 1);
        let mut acc = AggAccumulator::for_spec(&spec);
        acc.resize(1);
        acc.update(Some(&col), &gids).unwrap();
        assert_eq!(
            acc.finish_column(&[0], &spec).value(0),
            Value::Int64(i64::MIN)
        );
    }

    #[test]
    fn accumulator_empty_groups_finish_null_sum() {
        let spec = AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Int64, "s");
        let mut acc = AggAccumulator::for_spec(&spec);
        acc.resize(1);
        // No rows fed: SUM over the empty group is NULL.
        assert_eq!(acc.finish_column(&[0], &spec).value(0), Value::Null);
    }
}
