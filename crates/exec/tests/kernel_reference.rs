//! Property tests for the vectorized hash engine.
//!
//! Seeded random pages (all column types, with nulls) are run through the
//! vectorized paths — column-at-a-time hashing, grouped aggregation on the
//! open-addressing table with typed accumulators, and selection-vector hash
//! join — and cross-checked against scalar reference implementations built
//! from row-at-a-time pieces ([`AggState`] below, the engine's former
//! per-group accumulator; `encode_key`; a nested-loop join). Any divergence
//! in results, null handling, or output order is a bug in the kernels.
//!
//! The last section pins the filter hand-over: consumers that take a
//! filter's input page plus a [`Selection`] produce exactly what they
//! produce from a copy of the survivors, and everything that does not ask
//! for a selection keeps receiving dense pages.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use accordion_common::id::StageId;
use accordion_common::Result;
use accordion_data::column::ColumnBuilder;
use accordion_data::hash::{hash_row, hash_rows};
use accordion_data::page::{DataPage, EndReason, Page};
use accordion_data::rowkey::{encode_key, key_cells_equal};
use accordion_data::schema::{Field, Schema};
use accordion_data::sort::SortKey;
use accordion_data::types::{DataType, Value};
use accordion_exec::operators::{
    FilterOp, FinalHashAggOp, HashJoinProbeOp, LimitOp, PageStream, PartialHashAggOp, ProjectOp,
    QueueSource, Selection, SortOp, TopNOp,
};
use accordion_exec::{
    execute_logical, run_task, ExecOptions, JoinBuilds, JoinTable, QueryMetrics, SplitFeed,
    SplitQueue, TaskContext,
};
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::{BinaryOp, Expr};
use accordion_net::{ExchangeReader, ExchangeWriter};
use accordion_plan::fragment::{PlanFragment, StageKind, StageTree};
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::physical::{Partitioning, PhysicalNode};
use accordion_plan::pipeline::split_pipelines;
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

// ---------------------------------------------------------------------------
// Deterministic generator
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

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Random value of `dt`. Keys draw from a small domain so groups and join
/// matches actually collide; values include negatives, extremes and NaN.
fn random_value(rng: &mut XorShift, dt: DataType, small_domain: bool) -> Value {
    match dt {
        DataType::Int64 => {
            if small_domain {
                Value::Int64(rng.below(7) as i64 - 3)
            } else {
                match rng.below(20) {
                    0 => Value::Int64(i64::MAX),
                    1 => Value::Int64(i64::MIN),
                    _ => Value::Int64(rng.next() as i64 >> 16),
                }
            }
        }
        DataType::Float64 => {
            if small_domain {
                Value::Float64(rng.below(5) as f64 - 2.0)
            } else {
                match rng.below(20) {
                    0 => Value::Float64(f64::NAN),
                    1 => Value::Float64(-0.0),
                    2 => Value::Float64(f64::INFINITY),
                    _ => Value::Float64((rng.next() as i64 >> 20) as f64 / 64.0),
                }
            }
        }
        DataType::Bool => Value::Bool(rng.chance(50)),
        DataType::Date32 => Value::Date32(if small_domain {
            rng.below(5) as i32
        } else {
            rng.next() as i32 >> 8
        }),
        DataType::Utf8 => {
            let words = ["", "a", "ab", "ünïcodé", "longer-string-value", "zz"];
            Value::Utf8(words[rng.below(words.len() as u64) as usize].to_string())
        }
    }
}

fn random_column(
    rng: &mut XorShift,
    dt: DataType,
    rows: usize,
    null_pct: u64,
    small_domain: bool,
) -> accordion_data::Column {
    let mut b = ColumnBuilder::new(dt, rows);
    for _ in 0..rows {
        if rng.chance(null_pct) {
            b.push(Value::Null);
        } else {
            b.push(random_value(rng, dt, small_domain));
        }
    }
    b.finish()
}

/// Splits a page at random boundaries into 1..=4 chunks.
fn random_split(rng: &mut XorShift, page: &DataPage) -> Vec<DataPage> {
    let rows = page.row_count();
    if rows == 0 {
        return vec![];
    }
    let mut cuts: Vec<usize> = (0..rng.below(3))
        .map(|_| rng.below(rows as u64) as usize)
        .collect();
    cuts.push(0);
    cuts.push(rows);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| page.slice(w[0], w[1] - w[0]))
        .collect()
}

fn drain(mut s: impl PageStream) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    loop {
        match s.next_page().unwrap() {
            Page::End(_) => return rows,
            Page::Data(p) => rows.extend(p.rows()),
        }
    }
}

fn source(pages: Vec<DataPage>) -> Box<dyn PageStream> {
    Box::new(QueueSource::new(
        pages.into_iter().map(Arc::new).collect(),
        EndReason::UpstreamFinished,
    ))
}

// ---------------------------------------------------------------------------
// Hash kernels
// ---------------------------------------------------------------------------

#[test]
fn hash_columns_bit_identical_to_scalar_and_split_invariant() {
    let all = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Date32,
        DataType::Utf8,
    ];
    for seed in 0..30 {
        let mut rng = XorShift::new(seed);
        let rows = rng.below(120) as usize;
        let cols: Vec<_> = all
            .iter()
            .map(|&dt| {
                let small = rng.chance(50);
                random_column(&mut rng, dt, rows, 25, small)
            })
            .collect();
        let page = if rows == 0 {
            continue;
        } else {
            DataPage::new(cols)
        };
        let keys: Vec<usize> = (0..all.len()).filter(|_| rng.chance(70)).collect();
        let vectorized = hash_rows(&page, &keys);
        // Bit-identical to the row-at-a-time reference.
        for (row, &h) in vectorized.iter().enumerate() {
            assert_eq!(
                h,
                hash_row(&page, &keys, row),
                "seed {seed} row {row}: vectorized hash diverged from scalar"
            );
        }
        // Invariant under page boundaries: hashing the chunks of a random
        // split yields the same per-row hashes, so §4.2.1 repartitioning is
        // deterministic no matter how the scan chunked its input.
        let mut chunked = Vec::with_capacity(rows);
        for chunk in random_split(&mut rng, &page) {
            chunked.extend(hash_rows(&chunk, &keys));
        }
        assert_eq!(vectorized, chunked, "seed {seed}: split changed hashes");
    }
}

#[test]
fn key_cells_equal_is_encoded_key_equality() {
    // The group-id memo trusts the typed compare in place of the byte
    // compare of two encoded keys; they must agree on every row pair.
    let all = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Date32,
        DataType::Utf8,
    ];
    for seed in 0..20 {
        let mut rng = XorShift::new(300 + seed);
        let rows = 1 + rng.below(40) as usize;
        let null_pct = [0, 30, 100][seed as usize % 3];
        let cols: Vec<_> = all
            .iter()
            .map(|&dt| random_column(&mut rng, dt, rows, null_pct, true))
            .collect();
        let page = DataPage::new(cols);
        let keys: Vec<usize> = (0..all.len()).filter(|_| rng.chance(50)).collect();
        for a in 0..rows {
            for b in 0..rows {
                assert_eq!(
                    key_cells_equal(&page, &keys, a, b),
                    encode_key(&page, &keys, a) == encode_key(&page, &keys, b),
                    "seed {seed} keys {keys:?}: rows {:?} and {:?}",
                    page.row(a),
                    page.row(b)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Grouped aggregation
// ---------------------------------------------------------------------------

/// The row-at-a-time accumulator for one aggregate over one group: one
/// `Value` per row, compared with `Value::total_cmp`. The engine ran it for
/// MIN/MAX over text and booleans until every type got a typed
/// accumulator; here it is the oracle those accumulators are held to, and
/// the AVG the planner's SUM / COUNT split is held to.
#[derive(Debug, Clone)]
enum AggState {
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
    fn new(spec: &AggSpec) -> AggState {
        match spec.kind {
            AggKind::Count => AggState::Count(0),
            AggKind::Sum if spec.input_type == DataType::Int64 => AggState::SumInt(0, false),
            AggKind::Sum => AggState::SumFloat(0.0, false),
            AggKind::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
        }
    }

    /// Feeds one input value; NULLs are ignored (COUNT(*) is fed 1s).
    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumInt(s, any) => {
                if let Some(x) = v.as_i64() {
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
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int64(*c),
            AggState::SumInt(s, true) => Value::Int64(*s),
            AggState::SumFloat(s, true) => Value::Float64(*s),
            AggState::Avg { sum, count } if *count > 0 => Value::Float64(*sum / *count as f64),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }
}

/// Scalar reference: BTreeMap over encoded keys + one [`AggState`] per agg
/// (fed its argument column's cell, or 1 for COUNT(*)). Emits key values ++
/// finished values in encoded-key order. Every aggregate's partial state is
/// its finished value, so these are a partial aggregate's rows too.
fn reference_grouped_agg(
    pages: &[DataPage],
    key_cols: &[usize],
    aggs: &[AggSpec],
) -> Vec<Vec<Value>> {
    let mut groups: BTreeMap<Vec<u8>, (Vec<Value>, Vec<AggState>)> = BTreeMap::new();
    for page in pages {
        for row in 0..page.row_count() {
            let key = encode_key(page, key_cols, row);
            let entry = groups.entry(key).or_insert_with(|| {
                (
                    key_cols
                        .iter()
                        .map(|&k| page.column(k).value(row))
                        .collect(),
                    aggs.iter().map(AggState::new).collect(),
                )
            });
            for (state, spec) in entry.1.iter_mut().zip(aggs) {
                match &spec.input {
                    Some(Expr::Column(c)) => state.update(&page.column(*c).value(row)),
                    None => state.update(&Value::Int64(1)),
                    Some(other) => panic!("the reference reads columns, not {other:?}"),
                }
            }
        }
    }
    groups
        .into_values()
        .map(|(mut key_vals, states)| {
            key_vals.extend(states.iter().map(AggState::finish));
            key_vals
        })
        .collect()
}

/// Group key fields `k0..`, then one field per aggregate: the layout of a
/// partial aggregate's state and of a final's result alike.
fn aggregate_fields(key_types: &[DataType], aggs: &[AggSpec]) -> Vec<Field> {
    let keys = key_types
        .iter()
        .enumerate()
        .map(|(i, &dt)| Field::new(format!("k{i}"), dt));
    let aggs = aggs
        .iter()
        .map(|a| Field::new(a.name.clone(), a.output_type()));
    keys.chain(aggs).collect()
}

#[test]
fn grouped_agg_matches_scalar_reference() {
    let key_types = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Date32,
        DataType::Utf8,
    ];
    for seed in 0..40 {
        let mut rng = XorShift::new(1000 + seed);
        let rows = rng.below(150) as usize;
        let n_keys = 1 + rng.below(2) as usize;
        let kts: Vec<DataType> = (0..n_keys)
            .map(|_| key_types[rng.below(key_types.len() as u64) as usize])
            .collect();
        let value_type = if rng.chance(50) {
            DataType::Int64
        } else {
            DataType::Float64
        };
        // MIN/MAX read a second argument of any type, sometimes from a
        // small domain so groups hold ties.
        let minmax_type = key_types[rng.below(key_types.len() as u64) as usize];
        let mut cols: Vec<_> = kts
            .iter()
            .map(|&dt| random_column(&mut rng, dt, rows, 20, true))
            .collect();
        cols.push(random_column(&mut rng, value_type, rows, 20, false));
        let small = rng.chance(50);
        cols.push(random_column(&mut rng, minmax_type, rows, 20, small));
        let (value_col, minmax_col) = (n_keys, n_keys + 1);
        let page = DataPage::new(cols);
        let key_cols: Vec<usize> = (0..n_keys).collect();

        let arg = Expr::col(value_col);
        let minmax = Expr::col(minmax_col);
        let aggs = vec![
            AggSpec::count_star("cnt"),
            AggSpec::new(AggKind::Count, arg.clone(), value_type, "c"),
            AggSpec::new(AggKind::Sum, arg.clone(), value_type, "s"),
            // AVG's sum half: INT64 input summed as FLOAT64.
            AggSpec::new(AggKind::Sum, arg.clone(), DataType::Float64, "sf"),
            AggSpec::new(AggKind::Min, arg.clone(), value_type, "mn"),
            AggSpec::new(AggKind::Max, arg.clone(), value_type, "mx"),
            AggSpec::new(AggKind::Min, minmax.clone(), minmax_type, "mn2"),
            AggSpec::new(AggKind::Max, minmax, minmax_type, "mx2"),
        ];

        let fields = aggregate_fields(&kts, &aggs);

        let chunks = random_split(&mut rng, &page);
        let expected = reference_grouped_agg(&chunks, &key_cols, &aggs);

        let page_rows = 1 + rng.below(64) as usize;
        let partial = PartialHashAggOp::new(
            source(chunks),
            key_cols.clone(),
            aggs.clone(),
            Schema::new(fields.clone()),
            page_rows,
        );
        let fin = FinalHashAggOp::new(
            Box::new(partial),
            n_keys,
            aggs,
            Schema::new(fields),
            page_rows,
        );
        let got = drain(fin);
        assert_eq!(got, expected, "seed {seed}: grouped agg diverged");
    }
}

#[test]
fn global_agg_matches_scalar_reference_including_empty_input() {
    for seed in 0..15 {
        let mut rng = XorShift::new(9000 + seed);
        let rows = rng.below(40) as usize; // often tiny, sometimes 0
        let col = random_column(&mut rng, DataType::Int64, rows, 30, false);
        let page = DataPage::new(vec![col]);
        let aggs = vec![
            AggSpec::count_star("cnt"),
            AggSpec::new(AggKind::Sum, Expr::col(0), DataType::Int64, "s"),
        ];
        let chunks = random_split(&mut rng, &page);
        // Reference: global agg always yields exactly one row.
        let mut states: Vec<AggState> = aggs.iter().map(AggState::new).collect();
        for chunk in &chunks {
            for row in 0..chunk.row_count() {
                states[0].update(&Value::Int64(1));
                states[1].update(&chunk.column(0).value(row));
            }
        }
        let expected = vec![states.iter().map(|s| s.finish()).collect::<Vec<_>>()];

        let partial = PartialHashAggOp::new(
            source(chunks),
            vec![],
            aggs.clone(),
            Schema::new(vec![
                Field::new("cnt#p0", DataType::Int64),
                Field::new("s#p0", DataType::Int64),
            ]),
            8,
        );
        let fin = FinalHashAggOp::new(
            Box::new(partial),
            0,
            aggs,
            Schema::new(vec![
                Field::new("cnt", DataType::Int64),
                Field::new("s", DataType::Int64),
            ]),
            8,
        );
        assert_eq!(drain(fin), expected, "seed {seed}: global agg diverged");
    }
}

#[test]
fn avg_through_the_planner_matches_the_row_at_a_time_reference() {
    // The optimizer runs AVG as a FLOAT64 SUM and a COUNT, divided above
    // the final aggregate. At dop 1 every sum sees its rows in table order,
    // as the reference does, so the two agree bit for bit; at dop > 1
    // partial sums meet in another order, and agree within rounding.
    let mut rng = XorShift::new(4242);
    let above_2_53 = |rng: &mut XorShift| (1i64 << 53) + 1 + 2 * rng.below(1 << 20) as i64;
    let mut table = TableBuilder::new(
        "t",
        Schema::shared(vec![
            Field::new("k", DataType::Int64),
            Field::new("vi", DataType::Int64),
            Field::new("vf", DataType::Float64),
        ]),
        7,
    );
    let mut rows = Vec::new();
    for _ in 0..400 {
        // Group 5 only ever holds NULLs.
        let k = rng.below(6) as i64;
        let vi = match rng.below(10) {
            _ if k == 5 || rng.chance(15) => Value::Null,
            0 => Value::Int64(i64::MAX),
            1 => Value::Int64(-above_2_53(&mut rng)),
            2..=5 => Value::Int64(above_2_53(&mut rng)),
            _ => Value::Int64(rng.below(1000) as i64 - 500),
        };
        let vf = match rng.below(40) {
            _ if k == 5 || rng.chance(15) => Value::Null,
            // Infinities and NaN in groups 0 and 1 only: the others keep
            // finite sums a reordering can move.
            0 if k == 0 => Value::Float64(f64::INFINITY),
            1 if k == 1 => Value::Float64(f64::NEG_INFINITY),
            2 if k == 1 => Value::Float64(f64::NAN),
            3 => Value::Float64(-0.0),
            _ => Value::Float64((rng.next() as i64 >> 20) as f64 / 64.0),
        };
        rows.push(vec![Value::Int64(k), vi, vf]);
    }
    for row in &rows {
        table.push_row(row.clone());
    }
    let catalog = Catalog::new();
    table.register(&catalog, 6);

    // Reference: per group, the AVG state fed in table order.
    let avg = AggSpec::new(AggKind::Avg, Expr::col(0), DataType::Float64, "a");
    let mut groups: BTreeMap<i64, [AggState; 2]> = BTreeMap::new();
    for row in &rows {
        let k = row[0].as_i64().unwrap();
        let states = groups
            .entry(k)
            .or_insert_with(|| [AggState::new(&avg), AggState::new(&avg)]);
        states[0].update(&row[1]);
        states[1].update(&row[2]);
    }
    assert!(
        matches!(groups[&5][0].finish(), Value::Null),
        "an all-NULL group"
    );

    let b = LogicalPlanBuilder::scan(&catalog, "t").unwrap();
    let aggs = vec![
        b.agg(AggKind::Avg, "vi", "ai").unwrap(),
        b.agg(AggKind::Avg, "vf", "af").unwrap(),
    ];
    let grouped = b.aggregate(&["k"], aggs).unwrap().build();
    let b = LogicalPlanBuilder::scan(&catalog, "t").unwrap();
    let none = Expr::lt(b.col("k").unwrap(), Expr::lit_i64(0));
    let aggs = vec![b.agg(AggKind::Avg, "vi", "ai").unwrap()];
    let global_over_nothing = b
        .filter(none)
        .unwrap()
        .aggregate(&[], aggs)
        .unwrap()
        .build();

    let same_bits = |got: &Value, want: &Value| got == want;
    let within_rounding = |got: &Value, want: &Value| match (got, want) {
        (Value::Float64(g), Value::Float64(w)) if w.is_finite() => {
            (g - w).abs() <= 1e-9 * w.abs().max(1.0)
        }
        (Value::Float64(g), Value::Float64(w)) if w.is_nan() => g.is_nan(),
        _ => got == want,
    };
    for (dop, agree) in [
        (1, &same_bits as &dyn Fn(&Value, &Value) -> bool),
        (3, &within_rounding),
    ] {
        for page_rows in [1, 5, 1024] {
            let config = OptimizerConfig::serial()
                .with_parallelism(dop)
                .with_merge_parallelism(dop);
            let run = |plan| {
                execute_logical(
                    &catalog,
                    plan,
                    &Optimizer::new(config.clone()),
                    &ExecOptions::with_page_rows(page_rows),
                )
                .unwrap()
                .rows()
            };
            let got = run(&grouped);
            assert_eq!(got.len(), groups.len(), "dop {dop}");
            for row in got {
                let want = &groups[&row[0].as_i64().unwrap()];
                for (col, state) in [(1, &want[0]), (2, &want[1])] {
                    let want = state.finish();
                    assert!(
                        agree(&row[col], &want),
                        "dop {dop}, page_rows {page_rows}, group {:?}, column {col}: {:?} ≠ {want:?}",
                        row[0],
                        row[col]
                    );
                }
            }
            assert_eq!(run(&global_over_nothing), vec![vec![Value::Null]]);
        }
    }
}

// ---------------------------------------------------------------------------
// Group emission order
// ---------------------------------------------------------------------------

const ALL_TYPES: [DataType; 5] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Date32,
    DataType::Utf8,
];

/// A key column drawn from small domains that hold every cell the key
/// encoding and the sort comparators must keep apart: NULL, -0.0 beside
/// 0.0, NaNs of different payloads and signs, empty and multi-byte strings.
fn edge_key_column(rng: &mut XorShift, dt: DataType, rows: usize) -> accordion_data::Column {
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001),
        f64::from_bits(0x7FF0_0000_0000_0002),
        1.5,
        f64::NEG_INFINITY,
    ];
    let words = ["", "a", "ab", "ünïcodé", "日本", "a\u{0}"];
    let mut b = ColumnBuilder::new(dt, rows);
    for _ in 0..rows {
        let pick = |rng: &mut XorShift, n: usize| rng.below(n as u64) as usize;
        b.push(if rng.chance(12) {
            Value::Null
        } else {
            match dt {
                DataType::Int64 => Value::Int64([i64::MIN, -1, 0, 1, 7, i64::MAX][pick(rng, 6)]),
                DataType::Float64 => Value::Float64(floats[pick(rng, floats.len())]),
                DataType::Bool => Value::Bool(rng.chance(50)),
                DataType::Date32 => Value::Date32([-1, 0, 1, 10_957][pick(rng, 4)]),
                DataType::Utf8 => Value::Utf8(words[pick(rng, words.len())].to_string()),
            }
        });
    }
    b.finish()
}

/// `rows` in one canonical order (lexicographic `Value::total_cmp`, under
/// which only equal rows tie): equal after this ⇔ equal as multisets.
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

#[test]
fn partial_aggregate_rows_are_the_key_ordered_rows_as_a_multiset() {
    // A partial aggregate's rows only feed a final one, which merges each
    // group whatever order they arrive in: the partial may emit in any
    // order, but exactly the rows the key-ordered reference emits, cut
    // into full pages of `page_rows`.
    for seed in 0..60 {
        let mut rng = XorShift::new(7100 + seed);
        let rows = rng.below(200) as usize;
        let n_keys = 1 + rng.below(3) as usize;
        let kts: Vec<DataType> = (0..n_keys)
            .map(|_| ALL_TYPES[rng.below(5) as usize])
            .collect();
        let mut cols: Vec<_> = kts
            .iter()
            .map(|&dt| edge_key_column(&mut rng, dt, rows))
            .collect();
        cols.push(random_column(&mut rng, DataType::Float64, rows, 20, false));
        let page = DataPage::new(cols);
        let key_cols: Vec<usize> = (0..n_keys).collect();
        let v = Expr::col(n_keys);
        let aggs = vec![
            AggSpec::count_star("cnt"),
            AggSpec::new(AggKind::Sum, v.clone(), DataType::Float64, "s"),
            AggSpec::new(AggKind::Count, v.clone(), DataType::Float64, "c"),
            AggSpec::new(AggKind::Min, v, DataType::Float64, "mn"),
        ];
        let fields = aggregate_fields(&kts, &aggs);
        let chunks = random_split(&mut rng, &page);
        let expected = reference_grouped_agg(&chunks, &key_cols, &aggs);
        let page_rows = 1 + rng.below(64) as usize;
        let mut partial = PartialHashAggOp::new(
            source(chunks),
            key_cols,
            aggs,
            Schema::new(fields),
            page_rows,
        );
        let mut sizes = Vec::new();
        let mut got = Vec::new();
        while let Page::Data(p) = partial.next_page().unwrap() {
            sizes.push(p.row_count());
            got.extend(p.rows());
        }
        let context = format!("seed {seed}, keys {kts:?}, page_rows {page_rows}");
        assert_eq!(canonical(got), canonical(expected.clone()), "{context}");
        assert_eq!(sizes.iter().sum::<usize>(), expected.len(), "{context}");
        assert!(
            sizes.iter().rev().skip(1).all(|&n| n == page_rows),
            "{context}: pages {sizes:?}"
        );
    }
}

#[test]
fn a_final_under_a_covering_sort_returns_its_key_ordered_twin_row_for_row() {
    // With Top-N pushdown the merge stage's final aggregate feeds a per-task
    // TopN inside its own pipeline — through a HAVING-shaped filter and a
    // projection that reorders plain columns — whose keys cover every group
    // column, so it may emit groups in table order. Without pushdown the
    // same final feeds the gather exchange and must keep key order; with
    // single-stage aggregation partial and final share that pipeline. All
    // three plans must return the same rows in the same order.
    for seed in 0..30 {
        let mut rng = XorShift::new(7300 + seed);
        let rows = rng.below(300) as usize;
        let n_keys = 1 + rng.below(2) as usize;
        let kts: Vec<DataType> = (0..n_keys)
            .map(|_| ALL_TYPES[rng.below(5) as usize])
            .collect();
        let mut fields: Vec<Field> = kts
            .iter()
            .enumerate()
            .map(|(i, &dt)| Field::new(format!("k{i}"), dt))
            .collect();
        fields.push(Field::new("v", DataType::Float64));
        let mut cols: Vec<_> = kts
            .iter()
            .map(|&dt| edge_key_column(&mut rng, dt, rows))
            .collect();
        cols.push(random_column(&mut rng, DataType::Float64, rows, 20, true));
        let page = DataPage::new(cols);
        let catalog = Catalog::new();
        let mut table = TableBuilder::new("t", Schema::shared(fields), 1 + rng.below(40) as usize);
        for row in page.rows() {
            table.push_row(row);
        }
        table.register(&catalog, 4);

        let keys: Vec<String> = (0..n_keys).map(|i| format!("k{i}")).collect();
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let b = LogicalPlanBuilder::scan(&catalog, "t").unwrap();
        let aggs = vec![
            b.agg(AggKind::Sum, "v", "s").unwrap(),
            AggSpec::count_star("c"),
        ];
        let mut b = b.aggregate(&key_refs, aggs).unwrap();
        if rng.chance(50) {
            let c = b.col("c").unwrap();
            b = b.filter(Expr::gt(c, Expr::lit_i64(1))).unwrap();
        }
        // Aggregates first, groups after them in reverse: every column a
        // plain reference.
        let mut projection = vec![(b.col("c").unwrap(), "c"), (b.col("s").unwrap(), "s")];
        for k in key_refs.iter().rev() {
            projection.push((b.col(k).unwrap(), *k));
        }
        let b = b.project(projection).unwrap();
        let mut order = vec![("s", rng.chance(50))];
        order.extend(key_refs.iter().map(|k| (*k, rng.chance(50))));
        let n = [1, 5, usize::MAX][rng.below(3) as usize];
        let plan = b.top_n(&order, n).unwrap().build();

        let dop = 1 + rng.below(3) as u32;
        let opts = ExecOptions::with_page_rows(1 + rng.below(20) as usize);
        let run = |config: OptimizerConfig| {
            execute_logical(&catalog, &plan, &Optimizer::new(config), &opts)
                .unwrap()
                .rows()
        };
        let pushed = OptimizerConfig::default().with_parallelism(dop);
        let twin = run(OptimizerConfig {
            topn_pushdown: false,
            ..pushed.clone()
        });
        let context = format!("seed {seed}, keys {kts:?}, order {order:?}, n {n}, dop {dop}");
        assert_eq!(run(pushed), twin, "{context}: pushed-down TopN");
    }
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Scalar reference: nested-loop equi-join on encoded key bytes (the
/// engine's own equality definition), NULL keys excluded on both sides,
/// build rows in concatenated build order.
fn reference_join(
    build_pages: &[DataPage],
    probe_pages: &[DataPage],
    build_keys: &[usize],
    probe_keys: &[usize],
) -> Vec<Vec<Value>> {
    let mut build_rows: Vec<(Vec<u8>, Vec<Value>)> = Vec::new();
    for page in build_pages {
        'rows: for row in 0..page.row_count() {
            for &k in build_keys {
                if !page.column(k).is_valid(row) {
                    continue 'rows;
                }
            }
            build_rows.push((encode_key(page, build_keys, row), page.row(row)));
        }
    }
    let mut out = Vec::new();
    for page in probe_pages {
        'rows: for row in 0..page.row_count() {
            for &k in probe_keys {
                if !page.column(k).is_valid(row) {
                    continue 'rows;
                }
            }
            let key = encode_key(page, probe_keys, row);
            for (bkey, brow) in &build_rows {
                if *bkey == key {
                    let mut r = page.row(row);
                    r.extend(brow.iter().cloned());
                    out.push(r);
                }
            }
        }
    }
    out
}

/// Joins `build` to `probe` on their leading `key_types.len()` columns with
/// the engine's table and probe operator, both sides cut into random pages,
/// and requires the nested-loop reference's rows in the reference's order.
fn assert_join_matches_reference(
    rng: &mut XorShift,
    key_types: &[DataType],
    build: &DataPage,
    probe: &DataPage,
    case: &str,
) {
    let keys: Vec<usize> = (0..key_types.len()).collect();
    let build_chunks = random_split(rng, build);
    let probe_chunks = random_split(rng, probe);
    let expected = reference_join(&build_chunks, &probe_chunks, &keys, &keys);
    let table = Arc::new(JoinTable::build(
        build_chunks.iter().cloned().map(Arc::new).collect(),
        &keys,
    ));
    let side = |prefix: &str, payload: DataType| {
        let mut fields: Vec<Field> = key_types
            .iter()
            .enumerate()
            .map(|(i, &kt)| Field::new(format!("{prefix}k{i}"), kt))
            .collect();
        fields.push(Field::new(format!("{prefix}v"), payload));
        fields
    };
    let mut fields = side("p", DataType::Float64);
    fields.extend(side("b", DataType::Int64));
    let op = HashJoinProbeOp::new(source(probe_chunks), table, keys, Schema::new(fields), 32);
    assert_eq!(drain(op), expected, "{case}: join diverged");
}

/// `page` with its rows reordered so that equal keys (NULL keys among them)
/// are neighbours — a probe side clustered on its join key.
fn clustered_on(page: &DataPage, keys: &[usize]) -> DataPage {
    let mut order: Vec<u32> = (0..page.row_count() as u32).collect();
    order.sort_by_key(|&row| encode_key(page, keys, row as usize));
    page.gather(&order)
}

#[test]
fn hash_join_matches_nested_loop_reference() {
    // Single keys of every type that hashes, and compound keys; small value
    // domains so keys repeat on both sides, 15 % NULLs in every key column.
    let key_shapes: [&[DataType]; 7] = [
        &[DataType::Int64],
        &[DataType::Date32],
        &[DataType::Utf8],
        &[DataType::Float64],
        &[DataType::Bool],
        &[DataType::Int64, DataType::Utf8],
        &[DataType::Utf8, DataType::Date32, DataType::Int64],
    ];
    for seed in 0..140 {
        let mut rng = XorShift::new(5000 + seed);
        let key_types = key_shapes[seed as usize % key_shapes.len()];
        let keys: Vec<usize> = (0..key_types.len()).collect();
        // Every fifth build side is empty.
        let build_rows = if seed % 5 == 4 {
            0
        } else {
            rng.below(60) as usize
        };
        let probe_rows = rng.below(120) as usize;
        let side = |rng: &mut XorShift, rows: usize, payload: DataType| {
            let mut cols: Vec<_> = key_types
                .iter()
                .map(|&kt| random_column(rng, kt, rows, 15, true))
                .collect();
            cols.push(random_column(rng, payload, rows, 10, false));
            DataPage::new(cols)
        };
        let build = side(&mut rng, build_rows, DataType::Int64);
        let probe = side(&mut rng, probe_rows, DataType::Float64);
        assert_join_matches_reference(
            &mut rng,
            key_types,
            &build,
            &probe,
            &format!("seed {seed} as generated"),
        );
        // The same rows with equal probe keys adjacent: every run after its
        // first row takes the remembered match range instead of a lookup,
        // which must not change one output row or its place.
        let clustered = clustered_on(&probe, &keys);
        assert_join_matches_reference(
            &mut rng,
            key_types,
            &build,
            &clustered,
            &format!("seed {seed} clustered"),
        );
    }
}

#[test]
fn hash_join_over_a_build_side_of_thousands_of_keys() {
    // 3 000 distinct keys, each on two build rows: far past the 16 slots a
    // table starts with when it is not sized from its input. The probe side
    // holds every second key four times over — once clustered, once dealt
    // round — and keys the build side never had.
    let mut rng = XorShift::new(9);
    let build_keys: Vec<i64> = (0..6_000).map(|i| (i % 3_000) * 7).collect();
    let build = DataPage::new(vec![
        accordion_data::Column::from_i64(build_keys),
        accordion_data::Column::from_i64((0..6_000).collect()),
    ]);
    let probe_keys: Vec<i64> = (0..6_000).map(|i| (i % 1_500) * 14 + (i % 2)).collect();
    let probe = DataPage::new(vec![
        accordion_data::Column::from_i64(probe_keys),
        accordion_data::Column::from_f64((0..6_000).map(|i| i as f64).collect()),
    ]);
    let key_types = [DataType::Int64];
    assert_join_matches_reference(&mut rng, &key_types, &build, &probe, "dealt round");
    assert_join_matches_reference(
        &mut rng,
        &key_types,
        &build,
        &clustered_on(&probe, &[0]),
        "clustered",
    );
}

// ---------------------------------------------------------------------------
// Batch edges
// ---------------------------------------------------------------------------
//
// The join build, the join probe and the grouped aggregates load the first
// table slots of every 32 rows together before probing any of them
// (`GroupTable::warm`). These cases put every page size around that batch
// (1, 31, 32, 33) and past it (1000, 1025) over tables of at least 20,000
// keys, NULL keys at rows 31, 32 and 33, and hold the results to the
// row-at-a-time references.

const EDGE_PAGE_ROWS: [usize; 6] = [1, 31, 32, 33, 1000, 1025];

/// Rows whose key is NULL: the last row of the first batch and the first
/// two of the second.
const EDGE_NULL_ROWS: [usize; 3] = [31, 32, 33];

/// `page` cut into consecutive pages of `rows` rows (the last one shorter).
fn pages_of(page: &DataPage, rows: usize) -> Vec<DataPage> {
    (0..page.row_count())
        .step_by(rows)
        .map(|start| page.slice(start, rows.min(page.row_count() - start)))
        .collect()
}

/// A distinct key per `i`, spread over the whole `i64` range so that
/// neighbouring rows land in far-apart slots. Every one is odd.
fn spread_key(i: usize) -> i64 {
    ((2 * i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as i64
}

#[test]
fn grouped_aggregates_across_batch_edges_match_the_reference() {
    // 30,000 rows over 22,000 distinct keys: most keys once, every row
    // from 22,000 on a repeat of an earlier one. The partial and the final
    // both start from an empty `GroupTable::new()` of 16 slots, so their
    // tables grow inside a batch (at the 9th group, row 8 of the first).
    let rows = 30_000;
    let distinct = 22_000;
    let mut rng = XorShift::new(3737);
    let key_of: Vec<usize> = (0..rows)
        .map(|r| {
            if r < distinct {
                r
            } else {
                rng.below(distinct as u64) as usize
            }
        })
        .collect();
    let nulls: Vec<bool> = (0..rows).map(|r| EDGE_NULL_ROWS.contains(&r)).collect();
    let ints = accordion_data::Column::from_i64_nullable(
        key_of.iter().map(|&k| spread_key(k)).collect(),
        &nulls,
    );
    let words: Vec<String> = key_of.iter().map(|&k| format!("w{}", k % 97)).collect();
    let strs = accordion_data::Column::from_strings(&words);
    let values = random_column(&mut rng, DataType::Float64, rows, 10, false);
    let key_shapes: [(&[DataType], accordion_data::Column); 2] = [
        (&[DataType::Int64], ints.clone()),
        (&[DataType::Utf8, DataType::Int64], strs),
    ];
    for (kts, first) in key_shapes {
        let mut cols = vec![first];
        if kts.len() == 2 {
            cols.push(ints.clone());
        }
        cols.push(values.clone());
        let page = DataPage::new(cols);
        let n_keys = kts.len();
        let key_cols: Vec<usize> = (0..n_keys).collect();
        let v = Expr::col(n_keys);
        let aggs = vec![
            AggSpec::count_star("cnt"),
            AggSpec::new(AggKind::Sum, v.clone(), DataType::Float64, "s"),
            AggSpec::new(AggKind::Min, v.clone(), DataType::Float64, "mn"),
            AggSpec::new(AggKind::Max, v, DataType::Float64, "mx"),
        ];
        let fields = aggregate_fields(kts, &aggs);
        let expected = reference_grouped_agg(std::slice::from_ref(&page), &key_cols, &aggs);
        assert!(expected.len() > 20_000, "{} groups", expected.len());
        for page_rows in EDGE_PAGE_ROWS {
            let partial = PartialHashAggOp::new(
                source(pages_of(&page, page_rows)),
                key_cols.clone(),
                aggs.clone(),
                Schema::new(fields.clone()),
                page_rows,
            );
            let fin = FinalHashAggOp::new(
                Box::new(partial),
                n_keys,
                aggs.clone(),
                Schema::new(fields.clone()),
                page_rows,
            );
            // Not `assert_eq!`: a dump of 22,000 rows on failure helps nobody.
            assert!(
                drain(fin) == expected,
                "keys {kts:?}, page_rows {page_rows}: grouped aggregate diverged"
            );
        }
    }
}

#[test]
fn hash_join_across_batch_edges_matches_the_reference() {
    // A build side of 24,010 rows over more than 23,000 keys, where every
    // batch edge from row 64 on falls between two rows of one key, and a
    // probe side of 3,010 rows: build keys (duplicated ones included),
    // keys the build never had (even numbers), runs of one key across
    // batch edges, and NULL keys at rows 31-33 on both sides. Neither side
    // is a whole number of batches, so each ends in a short one.
    let build_rows = 24_010;
    let probe_rows = 3_010;
    let mut rng = XorShift::new(4242);
    let build_keys: Vec<i64> = (0..build_rows)
        .scan(0, |key, r| {
            if r < 64 || r % 32 != 0 {
                *key = spread_key(r);
            }
            Some(*key)
        })
        .collect();
    let null_rows =
        |rows: usize| -> Vec<bool> { (0..rows).map(|r| EDGE_NULL_ROWS.contains(&r)).collect() };
    let build = DataPage::new(vec![
        accordion_data::Column::from_i64_nullable(build_keys.clone(), &null_rows(build_rows)),
        accordion_data::Column::from_i64((0..build_rows as i64).collect()),
    ]);
    let mut probe_keys: Vec<i64> = Vec::with_capacity(probe_rows);
    for r in 0..probe_rows {
        let key = match rng.below(10) {
            0..=2 if r > 0 => probe_keys[r - 1],
            3..=4 => 2 * rng.below(1 << 40) as i64,
            _ => build_keys[rng.below(build_rows as u64) as usize],
        };
        probe_keys.push(key);
    }
    let probe = DataPage::new(vec![
        accordion_data::Column::from_i64_nullable(probe_keys, &null_rows(probe_rows)),
        accordion_data::Column::from_f64((0..probe_rows).map(|r| r as f64).collect()),
    ]);
    let keys = [0usize];
    let expected = reference_join(
        std::slice::from_ref(&build),
        std::slice::from_ref(&probe),
        &keys,
        &keys,
    );
    assert!(
        expected.windows(2).any(|w| w[0][1] == w[1][1]),
        "some probe row must match a duplicated build key"
    );
    let fields = vec![
        Field::new("pk", DataType::Int64),
        Field::new("pv", DataType::Float64),
        Field::new("bk", DataType::Int64),
        Field::new("bv", DataType::Int64),
    ];
    for page_rows in EDGE_PAGE_ROWS {
        let table = Arc::new(JoinTable::build(
            pages_of(&build, page_rows)
                .into_iter()
                .map(Arc::new)
                .collect(),
            &keys,
        ));
        let op = HashJoinProbeOp::new(
            source(pages_of(&probe, page_rows)),
            table,
            keys.to_vec(),
            Schema::new(fields.clone()),
            page_rows,
        );
        assert!(
            drain(op) == expected,
            "page_rows {page_rows}: join diverged"
        );
    }
}

#[test]
fn cross_join_on_no_keys_matches_reference() {
    let mut rng = XorShift::new(777);
    let build = DataPage::new(vec![random_column(&mut rng, DataType::Int64, 7, 20, true)]);
    let probe = DataPage::new(vec![random_column(&mut rng, DataType::Utf8, 5, 20, true)]);
    let expected = reference_join(
        std::slice::from_ref(&build),
        std::slice::from_ref(&probe),
        &[],
        &[],
    );
    assert_eq!(expected.len(), 35, "cross join is the full product");
    let table = Arc::new(JoinTable::build(vec![Arc::new(build)], &[]));
    let schema = Schema::new(vec![
        Field::new("p", DataType::Utf8),
        Field::new("b", DataType::Int64),
    ]);
    let op = HashJoinProbeOp::new(source(vec![probe]), table, vec![], schema, 32);
    assert_eq!(drain(op), expected);
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

#[test]
fn topn_equals_sort_then_limit_row_for_row() {
    // TopN keeps at most 2n candidates and skips a row that cannot beat
    // its current n-th; a full sort keeps everything. Over the same
    // multi-page input both must return the same rows in the same order,
    // payloads included: among rows tied on every key, the earliest
    // arrivals make the cut.
    let types = [
        DataType::Int64,
        DataType::Float64,
        DataType::Bool,
        DataType::Date32,
        DataType::Utf8,
    ];
    let schema = Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &dt)| Field::new(format!("c{i}"), dt))
            .collect(),
    );
    for seed in 0..40 {
        let mut rng = XorShift::new(4100 + seed);
        let small = rng.chance(70);
        let pages: Vec<DataPage> = (0..1 + rng.below(6))
            .map(|_| {
                let rows = 1 + rng.below(40) as usize;
                DataPage::new(
                    types
                        .iter()
                        .map(|&dt| random_column(&mut rng, dt, rows, 17, small))
                        .collect(),
                )
            })
            .collect();
        let keys: Vec<SortKey> = (0..1 + rng.below(3))
            .map(|_| {
                let column = rng.below(types.len() as u64) as usize;
                if rng.chance(50) {
                    SortKey::desc(column)
                } else {
                    SortKey::asc(column)
                }
            })
            .collect();
        for n in [0usize, 1, 3, 10, 500, usize::MAX] {
            for page_rows in 1..=3 {
                let topn = drain(TopNOp::new(
                    source(pages.clone()),
                    keys.clone(),
                    n,
                    schema.clone(),
                    page_rows,
                ));
                let sorted = drain(LimitOp::new(
                    Box::new(SortOp::new(source(pages.clone()), keys.clone(), page_rows)),
                    n,
                ));
                assert_eq!(
                    topn, sorted,
                    "seed {seed}, keys {keys:?}, n {n}, page_rows {page_rows}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Filter hand-over
// ---------------------------------------------------------------------------

/// Hides `next_selected`: whatever is behind it is pulled through
/// `next_page`, the copy-the-survivors path (gather, then run).
struct CopiesSurvivors(Box<dyn PageStream>);

impl PageStream for CopiesSurvivors {
    fn next_page(&mut self) -> Result<Page> {
        self.0.next_page()
    }
}

/// Counts how the stream behind it is pulled.
struct Spy {
    inner: Box<dyn PageStream>,
    dense_pulls: Arc<AtomicUsize>,
    selected_pulls: Arc<AtomicUsize>,
}

impl PageStream for Spy {
    fn next_page(&mut self) -> Result<Page> {
        self.dense_pulls.fetch_add(1, Ordering::Relaxed);
        self.inner.next_page()
    }

    fn next_selected(&mut self) -> Result<(Page, Option<Selection>)> {
        self.selected_pulls.fetch_add(1, Ordering::Relaxed);
        self.inner.next_selected()
    }
}

/// Column layout of the hand-over pages.
const ID: usize = 0; // unique row number
const PCT: usize = 1; // 0..100 uniformly, some NULL: what the predicates cut on
const K_STR: usize = 2;
const K_DATE: usize = 3;
const V_F64: usize = 4;
const V_I64: usize = 5;

fn handover_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("pct", DataType::Int64),
        Field::new("k_str", DataType::Utf8),
        Field::new("k_date", DataType::Date32),
        Field::new("v_f64", DataType::Float64),
        Field::new("v_i64", DataType::Int64),
    ])
}

/// Pages of 1..=1024 rows, `null_pct` % NULLs in every column but `id`.
fn handover_pages(rng: &mut XorShift, null_pct: u64) -> Vec<DataPage> {
    let mut next_id = 0i64;
    [1usize, 64, 1024, 7, 65, 300]
        .into_iter()
        .map(|rows| {
            let mut ids = ColumnBuilder::new(DataType::Int64, rows);
            let mut pct = ColumnBuilder::new(DataType::Int64, rows);
            for _ in 0..rows {
                ids.push(Value::Int64(next_id));
                next_id += 1;
                pct.push(if rng.chance(null_pct) {
                    Value::Null
                } else {
                    Value::Int64(rng.below(100) as i64)
                });
            }
            DataPage::new(vec![
                ids.finish(),
                pct.finish(),
                random_column(rng, DataType::Utf8, rows, null_pct, true),
                random_column(rng, DataType::Date32, rows, null_pct, true),
                random_column(rng, DataType::Float64, rows, null_pct, false),
                random_column(rng, DataType::Int64, rows, null_pct, false),
            ])
        })
        .collect()
}

/// Predicates keeping no row, one row, ~10 %, ~98 % and every row.
fn selectivities() -> Vec<(&'static str, Expr)> {
    let pct_below = |n| Expr::lt(Expr::col(PCT), Expr::lit_i64(n));
    vec![
        ("none", pct_below(0)),
        ("one row", Expr::eq(Expr::col(ID), Expr::lit_i64(500))),
        ("10 %", pct_below(10)),
        ("98 %", pct_below(98)),
        (
            "all",
            Expr::binary(
                pct_below(100),
                BinaryOp::Or,
                Expr::IsNull(Arc::new(Expr::col(PCT))),
            ),
        ),
    ]
}

fn filtered(pages: &[DataPage], predicate: &Expr) -> Box<dyn PageStream> {
    Box::new(FilterOp::new(source(pages.to_vec()), predicate.clone()))
}

#[test]
fn consumers_of_a_selection_equal_gather_then_run() {
    let arg = |c| Expr::col(c);
    let aggs = vec![
        AggSpec::count_star("cnt"),
        AggSpec::new(AggKind::Count, arg(V_I64), DataType::Int64, "c"),
        AggSpec::new(AggKind::Sum, arg(V_I64), DataType::Int64, "si"),
        AggSpec::new(AggKind::Sum, arg(V_F64), DataType::Float64, "sf"),
        AggSpec::new(
            AggKind::Sum,
            Expr::mul(arg(V_F64), Expr::lit_f64(0.1)),
            DataType::Float64,
            "sx",
        ),
        AggSpec::new(AggKind::Count, arg(V_F64), DataType::Float64, "cf"),
        AggSpec::new(AggKind::Min, arg(V_F64), DataType::Float64, "mn"),
        AggSpec::new(AggKind::Max, arg(K_DATE), DataType::Date32, "mx"),
        AggSpec::new(AggKind::Min, arg(K_STR), DataType::Utf8, "ms"),
        AggSpec::new(
            AggKind::Max,
            Expr::gt(arg(V_I64), Expr::lit_i64(0)),
            DataType::Bool,
            "mb",
        ),
    ];
    let mut partial_fields = vec![
        Field::new("k_str", DataType::Utf8),
        Field::new("k_date", DataType::Date32),
    ];
    partial_fields.extend(aggregate_fields(&[], &aggs));
    let partial = |input: Box<dyn PageStream>, group_by: &[usize]| {
        PartialHashAggOp::new(
            input,
            group_by.to_vec(),
            aggs.clone(),
            Schema::new(partial_fields[2 - group_by.len()..].to_vec()),
            50,
        )
    };
    let project = |input: Box<dyn PageStream>| {
        ProjectOp::new(
            input,
            vec![
                Expr::col(ID),
                Expr::col(K_STR),
                Expr::mul(Expr::col(V_F64), Expr::col(V_I64)),
                Expr::Case {
                    branches: vec![(
                        Expr::gt(Expr::col(V_I64), Expr::lit_i64(0)),
                        Expr::col(V_F64),
                    )],
                    otherwise: None,
                },
            ],
        )
    };
    for seed in [21u64, 22, 23] {
        for null_pct in [0, 20] {
            let mut rng = XorShift::new(seed);
            let pages = handover_pages(&mut rng, null_pct);
            for (name, predicate) in selectivities() {
                let context = format!("seed {seed}, {null_pct} % nulls, selectivity {name}");
                for group_by in [&[K_STR, K_DATE][..], &[K_DATE], &[]] {
                    // Value equality is bit equality for floats: every sum
                    // saw its rows in the same order on both paths.
                    assert_eq!(
                        drain(partial(filtered(&pages, &predicate), group_by)),
                        drain(partial(
                            Box::new(CopiesSurvivors(filtered(&pages, &predicate))),
                            group_by
                        )),
                        "{context}: partial aggregate by {group_by:?}"
                    );
                }
                assert_eq!(
                    drain(project(filtered(&pages, &predicate))),
                    drain(project(Box::new(CopiesSurvivors(filtered(
                        &pages, &predicate
                    ))))),
                    "{context}: project"
                );
                let no_columns = |input| drain(ProjectOp::new(input, vec![])).len();
                assert_eq!(
                    no_columns(filtered(&pages, &predicate)),
                    no_columns(Box::new(CopiesSurvivors(filtered(&pages, &predicate)))),
                    "{context}: zero-column project"
                );
            }
        }
    }
}

#[test]
fn a_filter_hands_over_its_input_page_and_the_surviving_row_ids() {
    let mut rng = XorShift::new(31);
    let pages = handover_pages(&mut rng, 20);
    for (name, predicate) in selectivities() {
        let mut handed = filtered(&pages, &predicate);
        let mut copied = filtered(&pages, &predicate);
        loop {
            let (page, selection) = handed.next_selected().unwrap();
            let dense = copied.next_page().unwrap();
            let (Page::Data(page), Page::Data(dense)) = (&page, &dense) else {
                assert!(
                    page.is_end() && dense.is_end(),
                    "{name}: streams end together"
                );
                break;
            };
            match &selection {
                // (rows, not pages: a NaN cell makes a page unequal to itself)
                None => assert_eq!(page.rows(), dense.rows(), "{name}: passed on untouched"),
                Some(sel) => {
                    assert!(
                        pages.iter().any(|p| p.rows() == page.rows()),
                        "{name}: the input page itself"
                    );
                    assert!(!sel.is_empty() && sel.len() < page.row_count(), "{name}");
                    assert!(sel.rows().windows(2).all(|w| w[0] < w[1]), "{name}");
                    assert_eq!(page.gather(sel.rows()).rows(), dense.rows(), "{name}");
                }
            }
        }
    }
}

#[test]
fn operators_that_do_not_ask_for_a_selection_receive_dense_pages() {
    let mut rng = XorShift::new(41);
    let pages = handover_pages(&mut rng, 20);
    let build = Arc::new(JoinTable::build(
        vec![Arc::new(DataPage::new(vec![random_column(
            &mut rng,
            DataType::Date32,
            20,
            10,
            true,
        )]))],
        &[0],
    ));
    let mut joined_fields = handover_schema().fields().to_vec();
    joined_fields.push(Field::new("b", DataType::Date32));
    type Wrap = Box<dyn Fn(Box<dyn PageStream>) -> Box<dyn PageStream>>;
    let consumers: Vec<(&str, Wrap)> = vec![
        (
            "TopN",
            Box::new(|input| {
                Box::new(TopNOp::new(
                    input,
                    vec![SortKey::desc(V_I64), SortKey::asc(ID)],
                    40,
                    handover_schema(),
                    16,
                ))
            }),
        ),
        (
            "Limit",
            Box::new(|input| Box::new(LimitOp::new(input, 333))),
        ),
        (
            "Sort",
            Box::new(|input| Box::new(SortOp::new(input, vec![SortKey::asc(ID)], 100))),
        ),
        (
            "HashJoinProbe",
            Box::new(move |input| {
                Box::new(HashJoinProbeOp::new(
                    input,
                    build.clone(),
                    vec![K_DATE],
                    Schema::new(joined_fields.clone()),
                    64,
                ))
            }),
        ),
        (
            "Filter",
            Box::new(|input| {
                Box::new(FilterOp::new(
                    input,
                    Expr::gt(Expr::col(V_I64), Expr::lit_i64(0)),
                ))
            }),
        ),
    ];
    for (name, predicate) in selectivities() {
        for (consumer, wrap) in &consumers {
            let (dense_pulls, selected_pulls) =
                (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
            let spied = wrap(Box::new(Spy {
                inner: filtered(&pages, &predicate),
                dense_pulls: dense_pulls.clone(),
                selected_pulls: selected_pulls.clone(),
            }));
            let plain = wrap(Box::new(CopiesSurvivors(filtered(&pages, &predicate))));
            assert_eq!(
                drain(CopiesSurvivors(spied)),
                drain(CopiesSurvivors(plain)),
                "{consumer} over {name}"
            );
            assert_eq!(selected_pulls.load(Ordering::Relaxed), 0, "{consumer}");
            assert!(dense_pulls.load(Ordering::Relaxed) > 0, "{consumer}");
        }
    }
}

#[test]
fn sinks_behind_a_filter_receive_dense_pages() {
    // Filter → exchange writer and Filter → join build, through the real
    // driver: a sink that mistook a handed-over page for a dense one would
    // ship or build every row of it.
    let mut rng = XorShift::new(51);
    let pages = handover_pages(&mut rng, 20);
    let catalog = Catalog::new();
    let mut table = TableBuilder::new("t", Arc::new(handover_schema()), 128);
    for page in &pages {
        for row in page.rows() {
            table.push_row(row);
        }
    }
    table.register(&catalog, 4);
    let mut dates = TableBuilder::new(
        "dates",
        Schema::shared(vec![Field::new("d", DataType::Date32)]),
        8,
    );
    for d in 0..5 {
        dates.push_row(vec![Value::Date32(d)]);
    }
    dates.register(&catalog, 1);

    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(2));
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    let pipeline_shapes = |plan: &Arc<accordion_plan::LogicalPlan>| {
        let tree = StageTree::build(optimizer.optimize(plan).unwrap()).unwrap();
        let mut shapes = Vec::new();
        for fragment in tree.fragments() {
            for pipeline in split_pipelines(fragment).unwrap() {
                shapes.push(pipeline.operator_names().join(" → "));
            }
        }
        shapes
    };
    for (name, predicate) in selectivities() {
        let survivors: Vec<Vec<Value>> = drain(CopiesSurvivors(filtered(&pages, &predicate)));

        let plan = LogicalPlanBuilder::scan(&catalog, "t")
            .unwrap()
            .filter(predicate.clone())
            .unwrap()
            .build();
        assert!(
            pipeline_shapes(&plan).contains(&"TableScan → Filter → Output".to_string()),
            "{:?}",
            pipeline_shapes(&plan)
        );
        let result = execute_logical(
            &catalog,
            &plan,
            &optimizer,
            &ExecOptions::with_page_rows(100),
        )
        .unwrap();
        assert_eq!(
            sorted(result.rows()),
            sorted(survivors.clone()),
            "{name}: filter → exchange writer"
        );

        // The planner puts an exchange between a filtered scan and a join
        // build, so that fragment is written out by hand: one task, build
        // pipeline first, its rows arriving through an input reader as they
        // would off that exchange; the probe side scans `dates`.
        let join = PhysicalNode::HashJoin {
            probe: Arc::new(PhysicalNode::TableScan {
                table: "dates".into(),
                table_schema: catalog.get("dates").unwrap().schema.clone(),
                projection: vec![0],
            }),
            build: Arc::new(PhysicalNode::Filter {
                input: Arc::new(PhysicalNode::RemoteSource {
                    child_stage: StageId(1),
                    schema: handover_schema(),
                }),
                predicate: predicate.clone(),
            }),
            on: vec![(0, K_DATE)],
        };
        let pipelines = split_pipelines(&PlanFragment {
            stage: StageId(0),
            root: Arc::new(join),
            parallelism: 1,
            kind: StageKind::Source,
            child_stages: vec![StageId(1)],
            output_partitioning: Partitioning::Single,
            elastic_bounds: None,
        })
        .unwrap();
        assert_eq!(
            pipelines
                .iter()
                .map(|p| p.operator_names())
                .collect::<Vec<_>>(),
            [
                vec!["ExchangeSource", "Filter", "HashJoinBuild"],
                vec!["TableScan", "HashJoinProbe", "Output"],
            ]
        );
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let build_side = pages.iter().cloned().map(Arc::new).collect();
        let builds = JoinBuilds::new(None);
        builds.add(
            0,
            0,
            Box::new(Input(QueueSource::new(
                build_side,
                EndReason::UpstreamFinished,
            ))),
        );
        let date_splits = catalog.get("dates").unwrap().splits.splits().to_vec();
        let mut task = TaskContext::new(
            0,
            0,
            100,
            HashMap::new(),
            Box::new(Collect(delivered.clone())),
            Some(SplitFeed::new(
                Arc::new(SplitQueue::new(date_splits)),
                0,
                None,
            )),
            Arc::new(builds),
            Arc::new(QueryMetrics::new()),
        );
        run_task(&pipelines, &mut task).unwrap();
        let joined: Vec<Vec<Value>> = delivered
            .lock()
            .unwrap()
            .iter()
            .filter_map(|page| page.as_data().map(|p| p.rows()))
            .flatten()
            .collect();
        let expected: Vec<Vec<Value>> = survivors
            .iter()
            .filter_map(|row| match &row[K_DATE] {
                Value::Date32(d) if (0..5).contains(d) => {
                    let mut joined = vec![Value::Date32(*d)];
                    joined.extend(row.iter().cloned());
                    Some(joined)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            sorted(joined),
            sorted(expected),
            "{name}: filter → join build"
        );
    }
}

/// An exchange reader replaying fixed pages.
struct Input(QueueSource);

impl ExchangeReader for Input {
    fn pull(&mut self) -> Result<Page> {
        self.0.next_page()
    }
}

/// An exchange writer that keeps what it is given.
struct Collect(Arc<Mutex<Vec<Page>>>);

impl ExchangeWriter for Collect {
    fn push(&mut self, page: Page) -> Result<()> {
        self.0.lock().unwrap().push(page);
        Ok(())
    }
}
