//! Multi-query workload driver: seeded open/closed-loop arrivals against
//! ONE shared [`QueryExecutor`], with per-query deadlines, admission
//! control, and the fleet retune log — `BENCH_workload_<name>.json`.
//!
//! The matrix harness (`lib.rs`) measures queries one at a time on fresh
//! executors; this driver is the other half of the evaluation: N queries
//! contending for one compute-slot pool, each carrying its own SLO. The
//! report records per-query SLO attainment and the fleet's cross-query
//! reallocation decisions:
//!
//! ```text
//! { "schema_version": 1, "kind": "workload", "name": ..., "config": {...},
//!   "tables":  [ {"name", "rows", "checksum"} ... ],
//!   "queries": [ { "id", "query", "planned_dop", "deadline_ms",
//!                  "submitted_ms", "wall_ms", "outcome",
//!                  "rows", "result_checksum", "retunes", "sla_met" } ... ],
//!   "summary": { "submitted", "completed", "rejected", "errored",
//!                "sla_attainment", "wall_ms_p50", "wall_ms_p95",
//!                "fleet_rounds", "cross_query_retunes" },
//!   "fleet":   { "rounds", "cross_query_rounds", "events": [...] },
//!   "admission": { "admitted", "rejected", "peak_running" } }
//! ```
//!
//! Rows and checksums stay deterministic per query name (exactly-once
//! scans under retuning — checked while running, not just recorded); wall
//! clocks, SLO attainment, and the retune log are machine-dependent.
//! [`crate::validate`]/[`crate::compare`] dispatch on `kind` and gate only
//! the deterministic fields.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use accordion_cluster::QueryExecutor;
use accordion_common::config::{AdmissionConfig, ElasticityConfig};
use accordion_common::{AccordionError, Json, Result};
use accordion_exec::ExecOptions;
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_tpch::{all_queries, generate, TpchOptions};

use crate::matrix::result_checksum;

/// Workload shape: who arrives, when, and with what SLO.
#[derive(Debug, Clone)]
pub struct WorkloadOptions {
    /// Report name: the output file is `BENCH_<name>.json`.
    pub name: String,
    pub scale_factor: f64,
    /// Seeds both the TPC-H generator and the arrival process.
    pub seed: u64,
    pub page_rows: usize,
    /// Compute slots of the one shared executor.
    pub workers: usize,
    /// `Some(n)`: closed loop, `n` clients running queries back to back.
    /// `None`: open loop, arrivals at `rate_qps`.
    pub clients: Option<usize>,
    /// Open-loop arrival rate, queries/second.
    pub rate_qps: f64,
    /// Queries to submit in total.
    pub total: usize,
    /// Deadlines sampled per arrival (uniform over the list, seeded).
    pub deadlines_ms: Vec<u64>,
    /// Planned Source-stage DOPs sampled per arrival.
    pub dops: Vec<u32>,
    /// Query names to draw from; empty means all.
    pub queries: Vec<String>,
    /// Admission config of the shared executor.
    pub admission: AdmissionConfig,
    /// Replace the arrival process with the contention preset: pairs of an
    /// ahead-of-SLO query (loose deadline, wide plan) and a behind-SLO
    /// query (tight deadline, narrow plan) arriving moments later — the
    /// shape that forces a cross-query reallocation.
    pub contention: bool,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        WorkloadOptions {
            name: "workload".to_string(),
            scale_factor: 0.01,
            seed: 42,
            page_rows: 64,
            workers: 4,
            clients: Some(2),
            rate_qps: 20.0,
            total: 8,
            deadlines_ms: vec![50, 5_000],
            dops: vec![1, 4],
            queries: vec!["q1".into(), "q6".into()],
            admission: AdmissionConfig::default(),
            contention: false,
        }
    }
}

/// xorshift64* — the deterministic arrival stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick<'a, T>(&mut self, list: &'a [T]) -> &'a T {
        &list[(self.next() % list.len() as u64) as usize]
    }
}

/// One planned submission.
#[derive(Debug, Clone)]
struct Arrival {
    id: usize,
    query: String,
    dop: u32,
    deadline_ms: u64,
    /// Open-loop submit time relative to workload start; `None` in closed
    /// loop (clients submit as soon as they free up).
    offset_ms: Option<u64>,
}

/// What one submission did.
#[derive(Debug, Clone)]
struct QueryRecord {
    arrival: Arrival,
    submitted_ms: f64,
    wall_ms: f64,
    outcome: &'static str,
    error: Option<String>,
    rows: u64,
    checksum: u64,
    retunes: u64,
    sla_met: bool,
}

fn plan_arrivals(opts: &WorkloadOptions, names: &[String]) -> Vec<Arrival> {
    let mut rng = Rng::new(opts.seed ^ 0x9E37_79B9);
    if opts.contention {
        // Pairs: the loose query arrives first and cruises far ahead of its
        // deadline; the tight one lands while it runs and must grow into
        // the slots the fleet claws back.
        let pairs = opts.total.div_ceil(2).max(1);
        let mut out = Vec::new();
        for p in 0..pairs {
            let base = (p as u64) * 400;
            out.push(Arrival {
                id: out.len(),
                query: names[0].clone(),
                dop: 4,
                deadline_ms: 10_000,
                offset_ms: Some(base),
            });
            out.push(Arrival {
                id: out.len(),
                query: names[0].clone(),
                dop: 1,
                deadline_ms: 10,
                offset_ms: Some(base + 25),
            });
        }
        return out;
    }
    let mut offset = 0u64;
    (0..opts.total)
        .map(|id| {
            let gap_ms = (1000.0 / opts.rate_qps.max(0.001)) as u64;
            // 50–150 % of the nominal gap, seeded.
            offset += gap_ms / 2 + rng.next() % gap_ms.max(1);
            Arrival {
                id,
                query: rng.pick(names).clone(),
                dop: *rng.pick(&opts.dops),
                deadline_ms: *rng.pick(&opts.deadlines_ms),
                offset_ms: opts.clients.is_none().then_some(offset),
            }
        })
        .collect()
}

/// Runs the workload and returns the report.
pub fn run_workload(opts: &WorkloadOptions) -> Result<Json> {
    if opts.total == 0 {
        return Err(AccordionError::Analysis(
            "workload: --total must be > 0".into(),
        ));
    }
    if opts.dops.is_empty() || opts.deadlines_ms.is_empty() {
        return Err(AccordionError::Analysis(
            "workload: --dops/--deadlines-ms must be non-empty".into(),
        ));
    }
    let data = generate(&TpchOptions {
        scale_factor: opts.scale_factor,
        seed: opts.seed,
        page_rows: opts.page_rows,
    });
    let all = all_queries(&data.catalog)?;
    let names: Vec<String> = if opts.queries.is_empty() {
        all.iter().map(|(n, _)| n.to_string()).collect()
    } else {
        for want in &opts.queries {
            if !all.iter().any(|(n, _)| n == want) {
                return Err(AccordionError::Analysis(format!(
                    "unknown query '{want}' (have: {})",
                    all.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                )));
            }
        }
        opts.queries.clone()
    };
    let arrivals = plan_arrivals(opts, &names);

    // ONE executor: its worker pool, admission gate, node NIC, and fleet
    // controller are what every arrival contends for.
    let executor = QueryExecutor::new(
        ExecOptions::with_page_rows(opts.page_rows.max(1))
            .worker_threads(opts.workers.max(1))
            .admission(opts.admission),
    );

    let started = Instant::now();
    let records: Mutex<Vec<QueryRecord>> = Mutex::new(Vec::new());
    let submit = |arrival: &Arrival| {
        if let Some(offset) = arrival.offset_ms {
            let target = Duration::from_millis(offset);
            let elapsed = started.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        // Plan at the arrival's DOP; execute with its own deadline. The
        // elasticity mode is set per call, never inherited from the
        // environment, so the workload is self-describing.
        let run = || -> Result<_> {
            let (_, builder) = all
                .iter()
                .find(|(n, _)| *n == arrival.query)
                .expect("names validated above");
            let optimizer =
                Optimizer::new(OptimizerConfig::default().with_parallelism(arrival.dop.max(1)));
            let tree = StageTree::build(optimizer.optimize(&builder.clone().build())?)?;
            let call_opts = ExecOptions::with_page_rows(opts.page_rows.max(1))
                .elasticity(ElasticityConfig::auto(arrival.deadline_ms));
            executor.execute_tree_opts(&data.catalog, &tree, &call_opts)
        };
        let submitted_ms = started.elapsed().as_secs_f64() * 1000.0;
        let t0 = Instant::now();
        let outcome = run();
        let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let record = match outcome {
            Ok(result) => QueryRecord {
                arrival: arrival.clone(),
                submitted_ms,
                wall_ms,
                outcome: "ok",
                error: None,
                rows: result.row_count() as u64,
                checksum: result_checksum(&result),
                retunes: result.stats().retunes.len() as u64,
                sla_met: wall_ms <= arrival.deadline_ms as f64,
            },
            Err(e) => {
                let msg = e.to_string();
                let rejected =
                    msg.contains("admission rejected") || msg.contains("admission queue");
                QueryRecord {
                    arrival: arrival.clone(),
                    submitted_ms,
                    wall_ms,
                    outcome: if rejected { "rejected" } else { "error" },
                    error: Some(msg),
                    rows: 0,
                    checksum: 0,
                    retunes: 0,
                    sla_met: false,
                }
            }
        };
        records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(record);
    };

    match opts.clients {
        // Closed loop: `n` clients drain the arrival list back to back.
        Some(n) if !opts.contention => {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..n.max(1) {
                    let (cursor, arrivals, submit) = (&cursor, &arrivals, &submit);
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = arrivals.get(i) else {
                            break;
                        };
                        submit(arrival);
                    });
                }
            });
        }
        // Open loop (and the contention preset): one thread per arrival,
        // each sleeping until its scheduled offset.
        _ => {
            std::thread::scope(|scope| {
                for arrival in &arrivals {
                    let submit = &submit;
                    scope.spawn(move || submit(arrival));
                }
            });
        }
    }

    let mut records = records.into_inner().unwrap_or_else(|p| p.into_inner());
    records.sort_by_key(|r| r.arrival.id);

    // Exactly-once under contention: every successful run of one query
    // name must produce the identical row multiset.
    let mut fingerprints: Vec<(&str, (u64, u64))> = Vec::new();
    for r in records.iter().filter(|r| r.outcome == "ok") {
        let key = (r.rows, r.checksum);
        match fingerprints.iter().find(|(n, _)| *n == r.arrival.query) {
            None => fingerprints.push((&r.arrival.query, key)),
            Some((_, prev)) if *prev != key => {
                return Err(AccordionError::Internal(format!(
                    "{}: arrival #{} produced {} rows (checksum {:#x}), an earlier arrival \
                     produced {} (checksum {:#x})",
                    r.arrival.query, r.arrival.id, key.0, key.1, prev.0, prev.1
                )));
            }
            Some(_) => {}
        }
    }

    let fleet = executor.fleet().snapshot();
    let admission = executor.admission().stats();

    let completed = records.iter().filter(|r| r.outcome == "ok").count();
    let rejected = records.iter().filter(|r| r.outcome == "rejected").count();
    let errored = records.iter().filter(|r| r.outcome == "error").count();
    if errored > 0 {
        let first = records.iter().find(|r| r.outcome == "error").unwrap();
        return Err(AccordionError::Internal(format!(
            "workload query {} failed: {}",
            first.arrival.id,
            first.error.as_deref().unwrap_or("?")
        )));
    }
    let met = records.iter().filter(|r| r.sla_met).count();
    let mut walls: Vec<f64> = records
        .iter()
        .filter(|r| r.outcome == "ok")
        .map(|r| r.wall_ms)
        .collect();
    walls.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if walls.is_empty() {
            return 0.0;
        }
        walls[((walls.len() - 1) as f64 * p).round() as usize]
    };

    let hex = |v: u64| Json::str(format!("{v:#018x}"));
    let query_objs = records
        .iter()
        .map(|r| {
            Json::obj()
                .with("id", Json::u64(r.arrival.id as u64))
                .with("query", Json::str(&r.arrival.query))
                .with("planned_dop", Json::u64(r.arrival.dop as u64))
                .with("deadline_ms", Json::u64(r.arrival.deadline_ms))
                .with("submitted_ms", Json::f64(r.submitted_ms))
                .with("wall_ms", Json::f64(r.wall_ms))
                .with("outcome", Json::str(r.outcome))
                .with("rows", Json::u64(r.rows))
                .with("result_checksum", hex(r.checksum))
                .with("retunes", Json::u64(r.retunes))
                .with("sla_met", Json::Bool(r.sla_met))
        })
        .collect();

    let event_objs = fleet
        .events
        .iter()
        .map(|e| {
            Json::obj()
                .with("round", Json::u64(e.round))
                .with("query_id", Json::u64(e.query_id))
                .with("current_dop", Json::u64(e.current_dop as u64))
                .with("required_dop", Json::u64(e.required_dop as u64))
                .with("behind", Json::Bool(e.behind))
                .with(
                    "from_budget",
                    e.from_budget.map_or(Json::Null, |b| Json::u64(b as u64)),
                )
                .with("to_budget", Json::u64(e.to_budget as u64))
        })
        .collect();

    Ok(Json::obj()
        .with("schema_version", Json::u64(1))
        .with("kind", Json::str("workload"))
        .with("name", Json::str(&opts.name))
        .with(
            "config",
            Json::obj()
                .with("scale_factor", Json::f64(opts.scale_factor))
                .with("seed", Json::u64(opts.seed))
                .with("page_rows", Json::u64(opts.page_rows as u64))
                .with("workers", Json::u64(opts.workers as u64))
                .with(
                    "clients",
                    opts.clients.map_or(Json::Null, |c| Json::u64(c as u64)),
                )
                .with("rate_qps", Json::f64(opts.rate_qps))
                .with("total", Json::u64(opts.total as u64))
                .with("contention", Json::Bool(opts.contention))
                .with(
                    "max_concurrent_queries",
                    opts.admission
                        .max_concurrent_queries
                        .map_or(Json::Null, |m| Json::u64(m as u64)),
                )
                .with(
                    "admission_policy",
                    Json::str(opts.admission.policy.to_string()),
                ),
        )
        .with(
            "tables",
            Json::Arr(
                data.tables
                    .iter()
                    .map(|t| {
                        Json::obj()
                            .with("name", Json::str(t.name))
                            .with("rows", Json::u64(t.rows))
                            .with("checksum", hex(t.checksum))
                    })
                    .collect(),
            ),
        )
        .with("queries", Json::Arr(query_objs))
        .with(
            "summary",
            Json::obj()
                .with("submitted", Json::u64(records.len() as u64))
                .with("completed", Json::u64(completed as u64))
                .with("rejected", Json::u64(rejected as u64))
                .with("errored", Json::u64(errored as u64))
                .with(
                    "sla_attainment",
                    Json::f64(met as f64 / records.len().max(1) as f64),
                )
                .with("wall_ms_p50", Json::f64(pct(0.5)))
                .with("wall_ms_p95", Json::f64(pct(0.95)))
                .with("fleet_rounds", Json::u64(fleet.rounds))
                .with("cross_query_retunes", Json::u64(fleet.cross_query_rounds)),
        )
        .with(
            "fleet",
            Json::obj()
                .with("rounds", Json::u64(fleet.rounds))
                .with("cross_query_rounds", Json::u64(fleet.cross_query_rounds))
                .with("events", Json::Arr(event_objs)),
        )
        .with(
            "admission",
            Json::obj()
                .with("admitted", Json::u64(admission.admitted))
                .with("rejected", Json::u64(admission.rejected))
                .with("peak_running", Json::u64(admission.peak_running as u64)),
        ))
}

/// Schema check for `kind: "workload"` reports (empty = valid).
pub fn validate_workload(report: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut need = |path: String, ok: bool| {
        if !ok {
            errs.push(format!("missing or mistyped field: {path}"));
        }
    };
    need(
        "schema_version".into(),
        report.get("schema_version").and_then(Json::as_u64) == Some(1),
    );
    need(
        "kind".into(),
        report.get("kind").and_then(Json::as_str) == Some("workload"),
    );
    need(
        "name".into(),
        report.get("name").and_then(Json::as_str).is_some(),
    );
    need(
        "config".into(),
        report.get("config").map(|c| c.as_obj().is_some()) == Some(true),
    );
    match report.get("tables").and_then(Json::as_arr) {
        None => need("tables".into(), false),
        Some(tables) => {
            for (i, t) in tables.iter().enumerate() {
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
        None => need("queries".into(), false),
        Some(queries) => {
            for (i, q) in queries.iter().enumerate() {
                let at = format!("queries[{i}]");
                for key in ["id", "planned_dop", "deadline_ms", "rows", "retunes"] {
                    need(
                        format!("{at}.{key}"),
                        q.get(key).and_then(Json::as_u64).is_some(),
                    );
                }
                for key in ["query", "outcome", "result_checksum"] {
                    need(
                        format!("{at}.{key}"),
                        q.get(key).and_then(Json::as_str).is_some(),
                    );
                }
                for key in ["submitted_ms", "wall_ms"] {
                    need(
                        format!("{at}.{key}"),
                        q.get(key).and_then(Json::as_f64).is_some(),
                    );
                }
                need(
                    format!("{at}.sla_met"),
                    q.get("sla_met").and_then(Json::as_bool).is_some(),
                );
            }
        }
    }
    match report.get("summary") {
        None => need("summary".into(), false),
        Some(s) => {
            for key in ["submitted", "completed", "rejected", "errored"] {
                need(
                    format!("summary.{key}"),
                    s.get(key).and_then(Json::as_u64).is_some(),
                );
            }
            for key in ["sla_attainment", "wall_ms_p50", "wall_ms_p95"] {
                need(
                    format!("summary.{key}"),
                    s.get(key).and_then(Json::as_f64).is_some(),
                );
            }
            for key in ["fleet_rounds", "cross_query_retunes"] {
                need(
                    format!("summary.{key}"),
                    s.get(key).and_then(Json::as_u64).is_some(),
                );
            }
        }
    }
    match report.get("fleet") {
        None => need("fleet".into(), false),
        Some(f) => {
            for key in ["rounds", "cross_query_rounds"] {
                need(
                    format!("fleet.{key}"),
                    f.get(key).and_then(Json::as_u64).is_some(),
                );
            }
            need(
                "fleet.events".into(),
                f.get("events").and_then(Json::as_arr).is_some(),
            );
        }
    }
    match report.get("admission") {
        None => need("admission".into(), false),
        Some(a) => {
            for key in ["admitted", "rejected", "peak_running"] {
                need(
                    format!("admission.{key}"),
                    a.get(key).and_then(Json::as_u64).is_some(),
                );
            }
        }
    }
    errs
}

/// Workload-report comparison: table fingerprints and per-query-name
/// result rows/checksums must match exactly; everything timing-shaped
/// (wall clocks, SLO attainment, the retune log) is machine-dependent and
/// not gated. Returns every violation (empty = pass).
pub fn compare_workload(baseline: &Json, candidate: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let empty = Vec::new();
    let tables = |r: &'_ Json| -> Vec<Json> {
        r.get("tables")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let bt = tables(baseline);
    if bt.is_empty() {
        errs.push("tables array missing from baseline or candidate".into());
    }
    let ct = tables(candidate);
    for b in &bt {
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

    // First successful record per query name → the deterministic result.
    let fingerprint = |r: &'_ Json| -> Vec<(String, String, String)> {
        let mut out: Vec<(String, String, String)> = Vec::new();
        for q in r.get("queries").and_then(Json::as_arr).unwrap_or(&empty) {
            if q.get("outcome").and_then(Json::as_str) != Some("ok") {
                continue;
            }
            let name = q
                .get("query")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            if out.iter().any(|(n, _, _)| *n == name) {
                continue;
            }
            let rows = q
                .get("rows")
                .map(|v| v.to_string_compact())
                .unwrap_or_default();
            let sum = q
                .get("result_checksum")
                .map(|v| v.to_string_compact())
                .unwrap_or_default();
            out.push((name, rows, sum));
        }
        out
    };
    let cand = fingerprint(candidate);
    for (name, rows, sum) in fingerprint(baseline) {
        let Some((_, crows, csum)) = cand.iter().find(|(n, _, _)| *n == name) else {
            // The candidate workload may simply not have drawn this query.
            continue;
        };
        if rows != *crows {
            errs.push(format!("{name}: rows differs from baseline"));
        }
        if sum != *csum {
            errs.push(format!("{name}: result_checksum differs from baseline"));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadOptions {
        WorkloadOptions {
            scale_factor: 0.001,
            total: 4,
            workers: 2,
            clients: Some(2),
            queries: vec!["q6".into()],
            ..WorkloadOptions::default()
        }
    }

    #[test]
    fn closed_loop_report_is_schema_valid() {
        let report = run_workload(&tiny()).unwrap();
        let errs = validate_workload(&report);
        assert!(errs.is_empty(), "schema violations: {errs:?}");
        let summary = report.get("summary").unwrap();
        assert_eq!(summary.get("submitted").and_then(Json::as_u64), Some(4));
        assert_eq!(summary.get("completed").and_then(Json::as_u64), Some(4));
        // `validate` dispatches on `kind`.
        assert!(crate::validate(&report).is_empty());
    }

    #[test]
    fn open_loop_arrivals_are_seeded_and_results_deterministic() {
        let opts = WorkloadOptions {
            clients: None,
            rate_qps: 200.0,
            ..tiny()
        };
        let a = run_workload(&opts).unwrap();
        let b = run_workload(&opts).unwrap();
        // Same seed → same arrival plan and same per-query results.
        assert!(compare_workload(&a, &b).is_empty());
        assert!(compare_workload(&b, &a).is_empty());
        let queries = |r: &Json| -> Vec<String> {
            r.get("queries")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|q| {
                    format!(
                        "{}:{}:{}",
                        q.get("query").and_then(Json::as_str).unwrap(),
                        q.get("planned_dop").and_then(Json::as_u64).unwrap(),
                        q.get("deadline_ms").and_then(Json::as_u64).unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(queries(&a), queries(&b));
    }

    #[test]
    fn rejections_are_recorded_not_fatal() {
        let opts = WorkloadOptions {
            admission: AdmissionConfig::rejecting(1),
            clients: Some(4),
            total: 8,
            ..tiny()
        };
        let report = run_workload(&opts).unwrap();
        let summary = report.get("summary").unwrap();
        let completed = summary.get("completed").and_then(Json::as_u64).unwrap();
        let rejected = summary.get("rejected").and_then(Json::as_u64).unwrap();
        assert_eq!(completed + rejected, 8);
        assert!(completed >= 1);
        assert!(validate_workload(&report).is_empty());
    }

    #[test]
    fn compare_workload_flags_checksum_drift() {
        let a = run_workload(&tiny()).unwrap();
        let text = a.to_string_pretty();
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
        let errs = compare_workload(&a, &b);
        assert!(
            errs.iter().any(|e| e.contains("result_checksum")),
            "{errs:?}"
        );
        // And via the dispatching top-level compare.
        let errs = crate::compare(&a, &b, 0.2, 50.0);
        assert!(
            errs.iter().any(|e| e.contains("result_checksum")),
            "{errs:?}"
        );
    }

    #[test]
    fn mismatched_kinds_refuse_to_compare() {
        let a = run_workload(&tiny()).unwrap();
        let matrix_ish = Json::obj().with("schema_version", Json::u64(1));
        let errs = crate::compare(&a, &matrix_ish, 0.2, 50.0);
        assert!(errs.iter().any(|e| e.contains("kind")), "{errs:?}");
    }

    #[test]
    fn contention_preset_reallocates_across_queries() {
        let opts = WorkloadOptions {
            contention: true,
            total: 2,
            scale_factor: 0.01,
            workers: 4,
            ..WorkloadOptions::default()
        };
        let report = run_workload(&opts).unwrap();
        assert!(validate_workload(&report).is_empty());
        let summary = report.get("summary").unwrap();
        assert_eq!(summary.get("completed").and_then(Json::as_u64), Some(2));
        // Both queries ran concurrently on one pool; the fleet had live
        // members to arbitrate. (Cross-query rounds are timing-dependent,
        // so the hard `> 0` gate lives in the CI smoke run, which retries.)
        assert!(summary.get("fleet_rounds").and_then(Json::as_u64).unwrap() >= 1);
    }
}
