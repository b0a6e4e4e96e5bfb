//! The benchmark harness: TPC-H evaluation queries across a
//! (DOP × worker threads × elasticity mode) matrix, with stable
//! `BENCH_<name>.json` output.
//!
//! One [`run`] generates the seeded TPC-H catalog, executes every selected
//! query in every matrix cell (with warmup and repeated timed runs,
//! reporting the median wall clock), harvests the engine's
//! [`QueryStats`] — per-stage throughput series, exchange counters, the
//! retune log — and emits a single JSON report:
//!
//! ```text
//! { "schema_version": 1, "name": ..., "config": {...},
//!   "tables":  [ {"name", "rows", "checksum"} ... ],
//!   "queries": [ { "query": "q1",
//!                  "rows": ..., "result_checksum": "0x...",
//!                  "cells": [ { "dop", "workers", "mode",
//!                               "wall_ms_median", "wall_ms_runs": [...],
//!                               "wall_ms_vs_off": 1.02 | null,
//!                               "scan_rows", "retunes",
//!                               "stats": { ...QueryStats... } } ... ] } ] }
//! ```
//!
//! Two invariants are *checked while benchmarking*, not just recorded:
//! every cell of a query must produce the identical row multiset
//! (exactly-once scans under retuning — the paper's core claim), and
//! repeated runs of one cell must agree with each other. Counter fields
//! (rows, checksums, scan rows) are deterministic for a fixed
//! `(scale_factor, seed)`; wall-clock fields are machine-dependent, which
//! is why [`compare`] checks counters exactly but timings only within a
//! tolerance and above an absolute floor.
//!
//! [`QueryStats`]: accordion_exec::metrics::QueryStats

use accordion_common::config::ElasticityConfig;
use accordion_common::{AccordionError, Json, Result};
use accordion_tpch::{all_queries, generate, TpchOptions};

pub mod matrix;
pub mod workload;

use matrix::{run_cell, MatrixCell};
pub use workload::{compare_workload, run_workload, validate_workload, WorkloadOptions};

/// Harness configuration: what to run and how often.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Report name: the output file is `BENCH_<name>.json`.
    pub name: String,
    pub scale_factor: f64,
    pub seed: u64,
    pub page_rows: usize,
    /// Untimed runs per cell before measurement.
    pub warmup: u32,
    /// Timed runs per cell; the median is the headline number.
    pub repeats: u32,
    /// Source-stage DOP values to plan at.
    pub dops: Vec<u32>,
    /// Worker-pool sizes to execute with.
    pub workers: Vec<usize>,
    /// Elasticity mode specs (`off`, `forced-grow`, `forced-shrink`,
    /// `auto[:deadline_ms]`, `cycle[:high:low]` — the
    /// `ACCORDION_ELASTICITY` syntax).
    pub modes: Vec<String>,
    /// Query names to run; empty means all.
    pub queries: Vec<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            name: "local".to_string(),
            scale_factor: 0.01,
            seed: 42,
            page_rows: 256,
            warmup: 1,
            repeats: 3,
            dops: vec![1, 4],
            workers: vec![4],
            modes: vec!["off".into(), "forced-grow".into(), "auto".into()],
            queries: Vec::new(),
        }
    }
}

fn hex(v: u64) -> Json {
    Json::str(format!("{v:#018x}"))
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs the full benchmark matrix and returns the report.
pub fn run(opts: &BenchOptions) -> Result<Json> {
    let data = generate(&TpchOptions {
        scale_factor: opts.scale_factor,
        seed: opts.seed,
        page_rows: opts.page_rows,
    });

    let mut queries = all_queries(&data.catalog)?;
    if !opts.queries.is_empty() {
        for want in &opts.queries {
            if !queries.iter().any(|(n, _)| n == want) {
                return Err(AccordionError::Analysis(format!(
                    "unknown query '{want}' (have: {})",
                    queries
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        queries.retain(|(n, _)| opts.queries.iter().any(|w| w == n));
    }

    let tables = Json::Arr(
        data.tables
            .iter()
            .map(|t| {
                Json::obj()
                    .with("name", Json::str(t.name))
                    .with("rows", Json::u64(t.rows))
                    .with("checksum", hex(t.checksum))
            })
            .collect(),
    );

    let mut query_reports = Vec::new();
    for (name, builder) in &queries {
        let mut fingerprint: Option<(u64, u64)> = None;
        // (dop, workers) → median of the `off` cell, for the on/off delta.
        let mut off_medians: Vec<((u32, usize), f64)> = Vec::new();
        let mut cells = Vec::new();
        for &dop in &opts.dops {
            for &workers in &opts.workers {
                for mode in &opts.modes {
                    let elasticity = ElasticityConfig {
                        mode: ElasticityConfig::parse_mode(Some(mode)),
                    };
                    let cell = MatrixCell {
                        dop,
                        worker_threads: workers,
                        elasticity,
                        page_rows: opts.page_rows,
                    };
                    for _ in 0..opts.warmup {
                        run_cell(&data.catalog, builder, &cell)?;
                    }
                    let mut walls = Vec::new();
                    let mut last = None;
                    for _ in 0..opts.repeats.max(1) {
                        let out = run_cell(&data.catalog, builder, &cell)?;
                        let key = (out.rows, out.result_checksum);
                        match fingerprint {
                            None => fingerprint = Some(key),
                            // The harness *checks* exactly-once execution,
                            // it doesn't just record it: every cell and
                            // every repeat of one query must produce the
                            // identical row multiset.
                            Some(prev) if prev != key => {
                                return Err(AccordionError::Internal(format!(
                                    "{name}: dop={dop} workers={workers} mode={mode} produced \
                                     {} rows (checksum {:#x}), previous cells produced {} \
                                     (checksum {:#x})",
                                    key.0, key.1, prev.0, prev.1
                                )));
                            }
                            Some(_) => {}
                        }
                        walls.push(out.wall_ms);
                        last = Some(out);
                    }
                    let last = last.expect("repeats >= 1");
                    walls.sort_by(f64::total_cmp);
                    let wall_median = median(&walls);
                    if ElasticityConfig::parse_mode(Some(mode))
                        == accordion_common::ElasticityMode::Off
                    {
                        off_medians.push(((dop, workers), wall_median));
                    }
                    cells.push((dop, workers, mode.clone(), wall_median, walls, last));
                }
            }
        }

        let (rows, checksum) = fingerprint.expect("at least one cell ran");
        let cell_objs = cells
            .into_iter()
            .map(|(dop, workers, mode, wall_median, walls, out)| {
                let vs_off = off_medians
                    .iter()
                    .find(|((d, w), _)| *d == dop && *w == workers)
                    .map(|(_, off)| {
                        if *off > 0.0 {
                            Json::f64(wall_median / off)
                        } else {
                            Json::Null
                        }
                    })
                    .unwrap_or(Json::Null);
                Json::obj()
                    .with("dop", Json::u64(dop as u64))
                    .with("workers", Json::u64(workers as u64))
                    .with("mode", Json::str(mode))
                    .with("wall_ms_median", Json::f64(wall_median))
                    .with(
                        "wall_ms_runs",
                        Json::Arr(walls.iter().map(|w| Json::f64(*w)).collect()),
                    )
                    .with("wall_ms_vs_off", vs_off)
                    .with("scan_rows", Json::u64(out.stats.rows_produced("TableScan")))
                    .with("retunes", Json::u64(out.stats.retunes.len() as u64))
                    .with("stats", out.stats.to_json())
            })
            .collect();

        query_reports.push(
            Json::obj()
                .with("query", Json::str(*name))
                .with("rows", Json::u64(rows))
                .with("result_checksum", hex(checksum))
                .with("cells", Json::Arr(cell_objs)),
        );
    }

    Ok(Json::obj()
        .with("schema_version", Json::u64(1))
        .with("name", Json::str(&opts.name))
        .with(
            "config",
            Json::obj()
                .with("scale_factor", Json::f64(opts.scale_factor))
                .with("seed", Json::u64(opts.seed))
                .with("page_rows", Json::u64(opts.page_rows as u64))
                .with("warmup", Json::u64(opts.warmup as u64))
                .with("repeats", Json::u64(opts.repeats as u64))
                .with(
                    "dops",
                    Json::Arr(opts.dops.iter().map(|d| Json::u64(*d as u64)).collect()),
                )
                .with(
                    "workers",
                    Json::Arr(opts.workers.iter().map(|w| Json::u64(*w as u64)).collect()),
                )
                .with(
                    "modes",
                    Json::Arr(opts.modes.iter().map(Json::str).collect()),
                ),
        )
        .with("tables", tables)
        .with("queries", Json::Arr(query_reports)))
}

/// The report flavour: matrix reports (the original schema) carry no
/// `kind` field; workload reports say `kind: "workload"`.
fn report_kind(report: &Json) -> &str {
    report
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or("matrix")
}

/// Checks `report` against the `BENCH_*.json` schema — the matrix schema
/// by default, the workload schema when the report says
/// `kind: "workload"`. Returns every violation found (empty = valid).
pub fn validate(report: &Json) -> Vec<String> {
    if report_kind(report) == "workload" {
        return validate_workload(report);
    }
    let mut errs = Vec::new();
    let mut need = |path: &str, ok: bool| {
        if !ok {
            errs.push(format!("missing or mistyped field: {path}"));
        }
    };
    need(
        "schema_version",
        report.get("schema_version").and_then(Json::as_u64) == Some(1),
    );
    need("name", report.get("name").and_then(Json::as_str).is_some());
    let config = report.get("config");
    need("config", config.map(|c| c.as_obj().is_some()) == Some(true));
    if let Some(c) = config {
        for key in ["scale_factor", "seed", "page_rows", "warmup", "repeats"] {
            need(
                &format!("config.{key}"),
                c.get(key).and_then(Json::as_f64).is_some(),
            );
        }
        for key in ["dops", "workers", "modes"] {
            need(
                &format!("config.{key}"),
                c.get(key).and_then(Json::as_arr).is_some(),
            );
        }
    }
    match report.get("tables").and_then(Json::as_arr) {
        None => errs.push("missing or mistyped field: tables".into()),
        Some(tables) => {
            for (i, t) in tables.iter().enumerate() {
                let mut need = |path: String, ok: bool| {
                    if !ok {
                        errs.push(format!("missing or mistyped field: {path}"));
                    }
                };
                need(
                    format!("tables[{i}].name"),
                    t.get("name").and_then(Json::as_str).is_some(),
                );
                need(
                    format!("tables[{i}].rows"),
                    t.get("rows").and_then(Json::as_u64).is_some(),
                );
                need(
                    format!("tables[{i}].checksum"),
                    t.get("checksum").and_then(Json::as_str).is_some(),
                );
            }
        }
    }
    match report.get("queries").and_then(Json::as_arr) {
        None => errs.push("missing or mistyped field: queries".into()),
        Some(queries) => {
            for (qi, q) in queries.iter().enumerate() {
                let mut need = |path: String, ok: bool| {
                    if !ok {
                        errs.push(format!("missing or mistyped field: {path}"));
                    }
                };
                need(
                    format!("queries[{qi}].query"),
                    q.get("query").and_then(Json::as_str).is_some(),
                );
                need(
                    format!("queries[{qi}].rows"),
                    q.get("rows").and_then(Json::as_u64).is_some(),
                );
                need(
                    format!("queries[{qi}].result_checksum"),
                    q.get("result_checksum").and_then(Json::as_str).is_some(),
                );
                let cells = q.get("cells").and_then(Json::as_arr);
                need(format!("queries[{qi}].cells"), cells.is_some());
                for (ci, cell) in cells.into_iter().flatten().enumerate() {
                    let at = format!("queries[{qi}].cells[{ci}]");
                    for key in ["dop", "workers", "scan_rows", "retunes"] {
                        need(
                            format!("{at}.{key}"),
                            cell.get(key).and_then(Json::as_u64).is_some(),
                        );
                    }
                    need(
                        format!("{at}.mode"),
                        cell.get("mode").and_then(Json::as_str).is_some(),
                    );
                    need(
                        format!("{at}.wall_ms_median"),
                        cell.get("wall_ms_median").and_then(Json::as_f64).is_some(),
                    );
                    need(
                        format!("{at}.wall_ms_runs"),
                        cell.get("wall_ms_runs").and_then(Json::as_arr).is_some(),
                    );
                    let stats = cell.get("stats");
                    need(format!("{at}.stats"), stats.is_some());
                    if let Some(s) = stats {
                        for key in ["operators", "series", "retunes"] {
                            need(
                                format!("{at}.stats.{key}"),
                                s.get(key).and_then(Json::as_arr).is_some(),
                            );
                        }
                        need(
                            format!("{at}.stats.exchange"),
                            s.get("exchange").map(|e| e.as_obj().is_some()) == Some(true),
                        );
                    }
                }
            }
        }
    }
    errs
}

/// Compares `candidate` against `baseline`.
///
/// Deterministic counters — table fingerprints, result row counts, result
/// checksums, scan row counts — must match **exactly** (for cells present
/// in both reports with the same `(query, dop, workers, mode)` key).
/// Wall-clock medians are machine-dependent: a cell only counts as a
/// regression when it is BOTH `tolerance` (fractional, e.g. `0.2` = 20 %)
/// slower than baseline AND more than `floor_ms` slower in absolute terms —
/// the floor keeps micro-benchmark noise at tiny scale factors from
/// tripping the gate. Returns every violation (empty = pass).
///
/// Workload reports (`kind: "workload"`) dispatch to
/// [`compare_workload`]; comparing a workload report against a matrix
/// report (or vice versa) is a single "kind" violation.
pub fn compare(baseline: &Json, candidate: &Json, tolerance: f64, floor_ms: f64) -> Vec<String> {
    match (report_kind(baseline), report_kind(candidate)) {
        ("workload", "workload") => return compare_workload(baseline, candidate),
        ("workload", other) | (other, "workload") => {
            return vec![format!(
                "report kind mismatch: cannot compare a workload report against '{other}'"
            )];
        }
        _ => {}
    }
    let mut errs = Vec::new();

    // Table fingerprints: the generated data must be identical, otherwise
    // nothing else is comparable.
    let base_tables = baseline.get("tables").and_then(Json::as_arr);
    let cand_tables = candidate.get("tables").and_then(Json::as_arr);
    if let (Some(bt), Some(ct)) = (base_tables, cand_tables) {
        for b in bt {
            let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
            let Some(c) = ct
                .iter()
                .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
            else {
                errs.push(format!("table {name}: missing from candidate"));
                continue;
            };
            for key in ["rows", "checksum"] {
                if b.get(key).map(|v| v.to_string_compact())
                    != c.get(key).map(|v| v.to_string_compact())
                {
                    errs.push(format!("table {name}: {key} differs from baseline"));
                }
            }
        }
    } else {
        errs.push("tables array missing from baseline or candidate".into());
    }

    let empty = Vec::new();
    let base_queries = baseline
        .get("queries")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let cand_queries = candidate
        .get("queries")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for bq in base_queries {
        let qname = bq.get("query").and_then(Json::as_str).unwrap_or("?");
        let Some(cq) = cand_queries
            .iter()
            .find(|q| q.get("query").and_then(Json::as_str) == Some(qname))
        else {
            // Absence is fine: the candidate may have run a subset.
            continue;
        };
        for key in ["rows", "result_checksum"] {
            if bq.get(key).map(|v| v.to_string_compact())
                != cq.get(key).map(|v| v.to_string_compact())
            {
                errs.push(format!("{qname}: {key} differs from baseline"));
            }
        }
        let bcells = bq.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
        let ccells = cq.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
        for bc in bcells {
            let cell_key = |c: &Json| {
                (
                    c.get("dop").and_then(Json::as_u64),
                    c.get("workers").and_then(Json::as_u64),
                    c.get("mode").and_then(Json::as_str).map(str::to_string),
                )
            };
            let key = cell_key(bc);
            let Some(cc) = ccells.iter().find(|c| cell_key(c) == key) else {
                continue;
            };
            let at = format!(
                "{qname} dop={} workers={} mode={}",
                key.0.unwrap_or(0),
                key.1.unwrap_or(0),
                key.2.as_deref().unwrap_or("?")
            );
            if bc.get("scan_rows").and_then(Json::as_u64)
                != cc.get("scan_rows").and_then(Json::as_u64)
            {
                errs.push(format!("{at}: scan_rows differs from baseline"));
            }
            let (Some(bw), Some(cw)) = (
                bc.get("wall_ms_median").and_then(Json::as_f64),
                cc.get("wall_ms_median").and_then(Json::as_f64),
            ) else {
                errs.push(format!("{at}: wall_ms_median missing"));
                continue;
            };
            if cw > bw * (1.0 + tolerance) && cw - bw > floor_ms {
                errs.push(format!(
                    "{at}: wall-clock regression {bw:.2} ms -> {cw:.2} ms \
                     (> {:.0}% and > {floor_ms} ms)",
                    tolerance * 100.0
                ));
            }
        }
    }
    errs
}

/// One grouped-aggregation cell's scan-side throughput, extracted from a
/// bench report by [`kernel_throughputs`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCell {
    pub query: String,
    pub dop: u64,
    pub workers: u64,
    pub mode: String,
    /// Peak scan-stage throughput in rows/s.
    pub rows_per_sec: f64,
    /// Rows scanned by the cell (for converting a throughput drop into an
    /// implied absolute slowdown).
    pub scan_rows: u64,
}

/// Extracts the scan throughput of every cell whose stats contain a
/// `PartialAggregate` operator — the cells exercised by the vectorized
/// grouped-aggregation kernels. Throughput is the peak `rows_per_sec` of
/// the per-stage series; when the series has no samples (runs at tiny
/// scale factors finish inside the sampler's throttle window) it falls
/// back to the fastest `TableScan` operator's lifetime `rows_per_sec`.
pub fn kernel_throughputs(report: &Json) -> Vec<KernelCell> {
    fn arr(v: Option<&Json>) -> &[Json] {
        v.and_then(Json::as_arr).unwrap_or(&[])
    }
    let mut out = Vec::new();
    for q in arr(report.get("queries")) {
        let query = q
            .get("query")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        for cell in arr(q.get("cells")) {
            let Some(stats) = cell.get("stats") else {
                continue;
            };
            let ops = arr(stats.get("operators"));
            let grouped = ops
                .iter()
                .any(|o| o.get("operator").and_then(Json::as_str) == Some("PartialAggregate"));
            if !grouped {
                continue;
            }
            let mut peak = 0.0f64;
            for series in arr(stats.get("series")) {
                for point in arr(series.get("points")) {
                    if let Some(v) = point
                        .as_arr()
                        .and_then(|xy| xy.get(1))
                        .and_then(Json::as_f64)
                    {
                        peak = peak.max(v);
                    }
                }
            }
            if peak <= 0.0 {
                for o in ops {
                    if o.get("operator").and_then(Json::as_str) == Some("TableScan") {
                        if let Some(v) = o.get("rows_per_sec").and_then(Json::as_f64) {
                            peak = peak.max(v);
                        }
                    }
                }
            }
            if peak <= 0.0 {
                continue;
            }
            out.push(KernelCell {
                query: query.clone(),
                dop: cell.get("dop").and_then(Json::as_u64).unwrap_or(0),
                workers: cell.get("workers").and_then(Json::as_u64).unwrap_or(0),
                mode: cell
                    .get("mode")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                rows_per_sec: peak,
                scan_rows: cell.get("scan_rows").and_then(Json::as_u64).unwrap_or(0),
            });
        }
    }
    out
}

/// Gates grouped-aggregation kernel throughput against a baseline report.
///
/// For every `(query, dop, workers, mode)` cell present in both reports, a
/// regression is flagged only when the candidate's throughput is more than
/// `tolerance` (fractional) below baseline AND the implied extra scan time
/// (`scan_rows/candidate − scan_rows/baseline`) exceeds `floor_ms` — the
/// same two-sided rule as [`compare`], so micro-benchmark noise at tiny
/// scale factors cannot trip the gate. Returns the violations (empty =
/// pass) plus a comparison artifact with one row per compared cell, meant
/// to be uploaded by CI.
pub fn compare_kernels(
    baseline: &Json,
    candidate: &Json,
    tolerance: f64,
    floor_ms: f64,
) -> (Vec<String>, Json) {
    let base = kernel_throughputs(baseline);
    let cand = kernel_throughputs(candidate);
    let mut errs = Vec::new();
    let mut cells = Vec::new();
    for b in &base {
        let Some(c) = cand.iter().find(|c| {
            c.query == b.query && c.dop == b.dop && c.workers == b.workers && c.mode == b.mode
        }) else {
            continue;
        };
        let ratio = c.rows_per_sec / b.rows_per_sec;
        let extra_ms =
            (c.scan_rows as f64 / c.rows_per_sec - c.scan_rows as f64 / b.rows_per_sec) * 1000.0;
        let regressed = c.rows_per_sec < b.rows_per_sec * (1.0 - tolerance) && extra_ms > floor_ms;
        if regressed {
            errs.push(format!(
                "{} dop={} workers={} mode={}: grouped-agg scan throughput regression \
                 {:.0} rows/s -> {:.0} rows/s ({:.1}% of baseline, +{extra_ms:.1} ms implied)",
                b.query,
                b.dop,
                b.workers,
                b.mode,
                b.rows_per_sec,
                c.rows_per_sec,
                ratio * 100.0
            ));
        }
        cells.push(
            Json::obj()
                .with("query", Json::str(&b.query))
                .with("dop", Json::u64(b.dop))
                .with("workers", Json::u64(b.workers))
                .with("mode", Json::str(&b.mode))
                .with("baseline_rows_per_sec", Json::f64(b.rows_per_sec))
                .with("candidate_rows_per_sec", Json::f64(c.rows_per_sec))
                .with("ratio", Json::f64(ratio))
                .with("implied_extra_ms", Json::f64(extra_ms))
                .with("regressed", Json::Bool(regressed)),
        );
    }
    let artifact = Json::obj()
        .with("tolerance", Json::f64(tolerance))
        .with("floor_ms", Json::f64(floor_ms))
        .with("cells", Json::Arr(cells));
    (errs, artifact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts() -> BenchOptions {
        BenchOptions {
            name: "test".into(),
            scale_factor: 0.001,
            seed: 42,
            page_rows: 64,
            warmup: 0,
            repeats: 1,
            dops: vec![1, 2],
            workers: vec![2],
            modes: vec!["off".into(), "forced-grow".into()],
            queries: vec!["q6".into(), "top_orders".into()],
        }
    }

    #[test]
    fn smoke_report_is_schema_valid() {
        let report = run(&smoke_opts()).unwrap();
        let errs = validate(&report);
        assert!(errs.is_empty(), "schema violations: {errs:?}");
        let queries = report.get("queries").unwrap().as_arr().unwrap();
        assert_eq!(queries.len(), 2);
        // 2 dops × 1 worker count × 2 modes.
        for q in queries {
            assert_eq!(q.get("cells").unwrap().as_arr().unwrap().len(), 4);
        }
    }

    #[test]
    fn deterministic_counters_are_stable_across_runs() {
        let a = run(&smoke_opts()).unwrap();
        let b = run(&smoke_opts()).unwrap();
        for (qa, qb) in a
            .get("queries")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(b.get("queries").unwrap().as_arr().unwrap())
        {
            for key in ["query", "rows", "result_checksum"] {
                assert_eq!(
                    qa.get(key).unwrap().to_string_compact(),
                    qb.get(key).unwrap().to_string_compact(),
                );
            }
        }
        // Therefore self-comparison passes at zero tolerance.
        assert_eq!(compare(&a, &b, 0.0, f64::INFINITY), Vec::<String>::new());
    }

    #[test]
    fn unknown_query_is_an_error() {
        let mut opts = smoke_opts();
        opts.queries = vec!["q99".into()];
        assert!(run(&opts).is_err());
    }

    #[test]
    fn compare_flags_counter_mismatch_and_honours_floor() {
        let a = run(&smoke_opts()).unwrap();
        let text = a.to_string_pretty();

        // Corrupt the candidate's first query checksum.
        let mut b = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut b {
            let queries = fields.iter_mut().find(|(k, _)| k == "queries").unwrap();
            if let Json::Arr(qs) = &mut queries.1 {
                if let Json::Obj(q) = &mut qs[0] {
                    q.iter_mut()
                        .find(|(k, _)| k == "result_checksum")
                        .unwrap()
                        .1 = Json::str("0xdeadbeef");
                }
            }
        }
        let errs = compare(&a, &b, 0.2, 50.0);
        assert!(
            errs.iter().any(|e| e.contains("result_checksum")),
            "{errs:?}"
        );

        // Identical reports never regress, even at zero tolerance.
        let c = Json::parse(&text).unwrap();
        assert!(compare(&a, &c, 0.0, f64::INFINITY).is_empty());
    }

    #[test]
    fn validate_rejects_truncated_reports() {
        let report = Json::obj().with("schema_version", Json::u64(1));
        let errs = validate(&report);
        assert!(errs.iter().any(|e| e.contains("queries")));
        assert!(errs.iter().any(|e| e.contains("tables")));
    }

    /// A minimal report with one grouped-agg cell at the given throughput
    /// (delivered via the TableScan operator fallback — tiny runs have no
    /// series samples) and one non-agg query the gate must ignore.
    fn kernel_report(rows_per_sec: f64, with_series: Option<f64>) -> Json {
        let mut series = Vec::new();
        if let Some(v) = with_series {
            series.push(Json::obj().with("stage", Json::u64(0)).with(
                "points",
                Json::Arr(vec![Json::Arr(vec![Json::f64(5.0), Json::f64(v)])]),
            ));
        }
        let agg_stats = Json::obj()
            .with(
                "operators",
                Json::Arr(vec![
                    Json::obj()
                        .with("operator", Json::str("TableScan"))
                        .with("rows_per_sec", Json::f64(rows_per_sec)),
                    Json::obj().with("operator", Json::str("PartialAggregate")),
                ]),
            )
            .with("series", Json::Arr(series));
        let cell = |stats: Json| {
            Json::obj()
                .with("dop", Json::u64(4))
                .with("workers", Json::u64(4))
                .with("mode", Json::str("off"))
                .with("scan_rows", Json::u64(60_000))
                .with("stats", stats)
        };
        let scan_only_stats = Json::obj()
            .with(
                "operators",
                Json::Arr(vec![Json::obj()
                    .with("operator", Json::str("TableScan"))
                    .with("rows_per_sec", Json::f64(1.0))]),
            )
            .with("series", Json::Arr(vec![]));
        Json::obj().with(
            "queries",
            Json::Arr(vec![
                Json::obj()
                    .with("query", Json::str("q1"))
                    .with("cells", Json::Arr(vec![cell(agg_stats)])),
                Json::obj()
                    .with("query", Json::str("top_orders"))
                    .with("cells", Json::Arr(vec![cell(scan_only_stats)])),
            ]),
        )
    }

    #[test]
    fn kernel_throughputs_picks_agg_cells_with_series_peak_and_fallback() {
        // Series present: its peak wins over the operator counter.
        let cells = kernel_throughputs(&kernel_report(100.0, Some(250.0)));
        assert_eq!(cells.len(), 1, "non-agg query ignored");
        assert_eq!(cells[0].query, "q1");
        assert_eq!(cells[0].rows_per_sec, 250.0);
        // No series samples: falls back to the TableScan counter.
        let cells = kernel_throughputs(&kernel_report(100.0, None));
        assert_eq!(cells[0].rows_per_sec, 100.0);
        assert_eq!(cells[0].scan_rows, 60_000);
    }

    #[test]
    fn compare_kernels_gates_on_tolerance_and_floor() {
        let base = kernel_report(1_000_000.0, None);
        // 30% slower AND well past a 1 ms floor (60k rows: 60 ms -> 86 ms).
        let slow = kernel_report(700_000.0, None);
        let (errs, artifact) = compare_kernels(&base, &slow, 0.2, 1.0);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("q1"), "{errs:?}");
        let cells = artifact.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("regressed").unwrap().as_bool(), Some(true));

        // Same drop but under the absolute floor: not a regression.
        let (errs, _) = compare_kernels(&base, &slow, 0.2, 1_000.0);
        assert!(errs.is_empty(), "{errs:?}");
        // Within tolerance: not a regression even with a zero floor.
        let (errs, _) = compare_kernels(&base, &kernel_report(900_000.0, None), 0.2, 0.0);
        assert!(errs.is_empty(), "{errs:?}");
        // Faster candidate passes trivially.
        let (errs, artifact) = compare_kernels(&base, &kernel_report(2_000_000.0, None), 0.2, 0.0);
        assert!(errs.is_empty());
        let cells = artifact.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells[0].get("regressed").unwrap().as_bool(), Some(false));
    }
}
