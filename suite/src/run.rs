//! One benchmark run of one workload.
//!
//! `--trace 0` measures what a user sees, with no tracer anywhere: three
//! lives of the system, each set up (timed) and then driven with
//! closed-loop rounds for a third of `--seconds`, all of it beside a
//! [`SpeedMonitor`] so that every time can be brought to nominal machine
//! speed. `--trace 1` explains it:
//! client rounds, the same statements on the library path with and without
//! spans (interleaved round by round, so drift hits all three alike), then
//! the cluster and layer probes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_common::json::Json;

use crate::env::{Env, Settings, StepOutcome, PAGE_ROWS};
use crate::oracle;
use crate::probes::{cluster_probes, layer_probes, slot_handoff, ProbeScale};
use crate::procstat;
use crate::report::{machine_record, median, percentile, write_json, Metric, RunResult};
use crate::speed::{at_nominal_speed, SpeedMonitor};
use crate::trace::{self, LibraryOutcome, Tracer};
use crate::workloads::Workload;

/// Lives of the system per `--trace 0` run; `setup_s` is the median of
/// their set-ups and the timed rounds are shared among them.
const PHASES: usize = 3;
/// Rounds inside every set-up: the cold first touch of a fresh system, and
/// the only warm-up a phase gets (a run's numbers are medians over rounds).
const SETUP_ROUNDS: usize = 1;
/// Timed rounds a phase never goes below, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Rounds of each kind in the traced pass: at least, and at most.
const TRACE_ROUNDS: (usize, usize) = (2, 5);
/// Fixed round count of every loop under `--smoke`.
const SMOKE_ROUNDS: usize = 2;
/// Failure messages kept in the report.
const MAX_ERRORS: usize = 8;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub settings: Settings,
    /// How long the timed part lasts.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny fixed sizes, for the smoke test; not a measurement.
    pub smoke: bool,
    /// Where `report_*.json` and `trace_*.json` go.
    pub out_dir: PathBuf,
}

/// Tallies statements and keeps the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: &str, error: Option<&String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(format!("{label}: {e}"));
            }
        }
    }

    fn errors_json(&self) -> Json {
        Json::Arr(self.errors.iter().map(Json::str).collect())
    }
}

fn round_ms(round: &[StepOutcome]) -> f64 {
    round.iter().map(|o| o.latency_ms).sum()
}

/// p50 latency per step label over `rounds`, in round order.
fn label_p50s<'a>(rounds: impl Iterator<Item = (&'a str, f64)>) -> BTreeMap<&'a str, f64> {
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (label, ms) in rounds {
        by_label.entry(label).or_default().push(ms);
    }
    by_label
        .into_iter()
        .map(|(label, mut ms)| (label, median(&mut ms)))
        .collect()
}

fn json_map(map: &BTreeMap<&str, f64>) -> Json {
    let mut obj = Json::obj();
    for (k, v) in map {
        obj.set(*k, Json::f64(*v));
    }
    obj
}

/// What one life of the system derived for itself: generation time, the
/// calibrated `T1`s and the deadlines that follow from them.
fn phase_settings(env: &Env) -> Json {
    let mut deadlines = Json::obj();
    for step in &env.workload.round {
        if let Some(d) = env.deadline_ms(step) {
            deadlines.set(step.label(), Json::u64(d));
        }
    }
    let t1: BTreeMap<&str, f64> = env.t1_ms.iter().map(|(k, v)| (*k, *v)).collect();
    Json::obj()
        .with("gen_s", Json::f64(env.gen_s))
        .with("gen_rows", Json::u64(env.gen_rows))
        .with("t1_ms", json_map(&t1))
        .with("deadline_ms", deadlines)
}

fn common_detail(cfg: &RunConfig) -> Json {
    Json::obj()
        .with("workload", Json::str(cfg.workload.name))
        .with("trace", Json::Bool(cfg.trace))
        .with("smoke", Json::Bool(cfg.smoke))
        .with("seconds", Json::f64(cfg.seconds))
        .with("machine", machine_record(&cfg.settings))
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    if cfg!(debug_assertions) && !cfg.smoke {
        return Err("refusing to time a debug build: run with --release (or --smoke)".into());
    }
    let result = if cfg.trace {
        run_traced(cfg)?
    } else {
        run_end_to_end(cfg)?
    };
    let name = format!("report_{}_trace{}.json", cfg.workload.name, cfg.trace as u8);
    let report = result.detail.clone().with("metrics", result.metrics_json());
    write_json(&cfg.out_dir, &name, &report)?;
    Ok(result)
}

/// One timed round: what the client saw, what it cost, and how slow the
/// machine was meanwhile.
struct TimedRound {
    outcomes: Vec<StepOutcome>,
    from: Instant,
    to: Instant,
    /// CPU seconds of every engine process; `None` where `/proc` is not.
    cpu_s: Option<f64>,
}

fn run_end_to_end(cfg: &RunConfig) -> Result<RunResult, String> {
    // A run is `phases` lives of the system: set up (timed), then a share
    // of `--seconds` of timed rounds. Several fresh systems give `setup_s`
    // its median and keep one unlucky thread placement from deciding the
    // run's numbers.
    let phases = if cfg.smoke { 1 } else { PHASES };
    let monitor = SpeedMonitor::start();
    let mut setups: Vec<(Instant, Instant)> = Vec::with_capacity(phases);
    let mut rounds: Vec<TimedRound> = Vec::new();
    // Peak memory of every phase; `None` where `/proc` is not.
    let mut phase_peak_mb: Option<Vec<f64>> = Some(Vec::with_capacity(phases));
    let mut expectations = None;
    let mut phase_details = Vec::with_capacity(phases);
    let mut env = None;
    for _ in 0..phases {
        // One system at a time, and this process's peak starts over, so
        // peak memory is one system's. (Where the peak cannot be reset it
        // only ever rises, and the median below is the second phase's.)
        drop(env.take());
        procstat::reset_peak_rss();
        let started = Instant::now();
        let env = env.insert(Env::setup(&cfg.workload, &cfg.settings, SETUP_ROUNDS)?);
        setups.push((started, Instant::now()));
        // Same seed, same tables: the oracle runs once.
        if expectations.is_none() {
            expectations = Some(
                oracle::for_workload(&env.catalog, &cfg.workload, PAGE_ROWS)
                    .map_err(|e| e.to_string())?,
            );
        }
        env.set_expectations(expectations.clone().expect("computed above"));

        let pids = env.engine_pids();
        let started = Instant::now();
        let mut in_phase = 0;
        let fatal = loop {
            let before = procstat::sample_all(&pids);
            let from = Instant::now();
            let outcomes = env.run_round();
            let to = Instant::now();
            let after = procstat::sample_all(&pids);
            let fatal = outcomes.iter().any(|o| o.fatal);
            rounds.push(TimedRound {
                outcomes,
                from,
                to,
                cpu_s: before.zip(after).map(|(b, a)| a.cpu_s - b.cpu_s),
            });
            in_phase += 1;
            let enough = if cfg.smoke {
                in_phase >= SMOKE_ROUNDS
            } else {
                in_phase >= MIN_ROUNDS
                    && started.elapsed().as_secs_f64() >= cfg.seconds / phases as f64
            };
            if fatal || enough {
                break fatal;
            }
        };
        phase_peak_mb = phase_peak_mb
            .zip(procstat::sample_all(&pids))
            .map(|(mut peaks, usage)| {
                peaks.push(usage.peak_rss_mb);
                peaks
            });
        phase_details.push(phase_settings(env).with("rounds", Json::u64(in_phase as u64)));
        if fatal {
            break;
        }
    }
    drop(env);
    let speed = monitor.snapshot();
    drop(monitor);

    let mut tally = Tally::default();
    let mut attained = 0u64;
    let mut min_remote_slots = usize::MAX;
    for outcome in rounds.iter().flat_map(|r| &r.outcomes) {
        tally.record(&outcome.label, outcome.error.as_ref());
        attained += outcome.attained() as u64;
        min_remote_slots = min_remote_slots.min(outcome.remote_slots);
    }
    let completed = tally.attempted - tally.failed;

    // Every time is measured raw and then brought to nominal machine speed
    // with the slowdown the monitor saw over the same window (see `speed`).
    let mut setup_raw = Vec::with_capacity(setups.len());
    let mut setup_nominal = Vec::with_capacity(setups.len());
    let mut setup_slowdown = Vec::with_capacity(setups.len());
    for &(from, to) in &setups {
        let secs = (to - from).as_secs_f64();
        let slowdown = speed.slowdown(from, to);
        setup_raw.push(secs);
        setup_slowdown.push(slowdown);
        setup_nominal.push(at_nominal_speed(secs, slowdown, cfg.workload.speed.setup));
    }
    let mut round_raw_ms: Vec<f64> = rounds.iter().map(|r| round_ms(&r.outcomes)).collect();
    let round_slowdown: Vec<f64> = rounds
        .iter()
        .map(|r| speed.slowdown(r.from, r.to))
        .collect();
    let mut round_nominal_ms: Vec<f64> = round_raw_ms
        .iter()
        .zip(&round_slowdown)
        .map(|(ms, s)| at_nominal_speed(*ms, *s, cfg.workload.speed.latency))
        .collect();
    // Unavailable (off Linux) is reported as such, never as 0.
    let round_cpu_s: Option<Vec<f64>> = rounds.iter().map(|r| r.cpu_s).collect();
    let cpu_nominal_s = round_cpu_s.as_ref().map_or(f64::NAN, |cpu| {
        let mut nominal: Vec<f64> = cpu
            .iter()
            .zip(&round_slowdown)
            .map(|(c, s)| at_nominal_speed(*c, *s, cfg.workload.speed.cpu))
            .collect();
        median(&mut nominal)
    });
    let peak_rss_mb = phase_peak_mb.map_or(f64::NAN, |mut peaks| median(&mut peaks));

    let metrics = vec![
        Metric::new("setup_s", median(&mut setup_nominal), "s"),
        Metric::new("round_ms_nominal", median(&mut round_nominal_ms), "ms"),
        Metric::new("cpu_s_per_round_nominal", cpu_nominal_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new(
            "slo_attained_frac",
            attained as f64 / tally.attempted as f64,
            "frac",
        ),
    ];
    let stmt_p50 = label_p50s(
        rounds
            .iter()
            .flat_map(|r| &r.outcomes)
            .map(|o| (o.label.as_str(), o.latency_ms)),
    );
    let f64s = |values: &[f64]| Json::Arr(values.iter().map(|v| Json::f64(*v)).collect());
    let busy_s: f64 = round_raw_ms.iter().sum::<f64>() / 1e3;
    let detail = common_detail(cfg)
        .with("rounds", Json::u64(rounds.len() as u64))
        .with("phases", Json::Arr(phase_details))
        .with(
            "failed_frac",
            Json::f64(tally.failed as f64 / tally.attempted as f64),
        )
        // As measured, before the correction, in round order; with these and
        // the slowdowns the exponents can be fitted again.
        .with("setup_s_raw", f64s(&setup_raw))
        .with("setup_slowdown", f64s(&setup_slowdown))
        .with("round_ms_raw", f64s(&round_raw_ms))
        .with(
            "round_cpu_s_raw",
            f64s(round_cpu_s.as_deref().unwrap_or_default()),
        )
        .with("round_slowdown", f64s(&round_slowdown))
        .with(
            "speed.exponents",
            Json::obj()
                .with("latency", Json::f64(cfg.workload.speed.latency))
                .with("cpu", Json::f64(cfg.workload.speed.cpu))
                .with("setup", Json::f64(cfg.workload.speed.setup)),
        )
        .with("speed.fastest_kernel_ms", Json::f64(speed.fastest_ms()))
        .with("speed.readings", Json::u64(speed.readings() as u64))
        .with(
            "speed.slowdown_p50",
            Json::f64(median(&mut round_slowdown.clone())),
        )
        .with("core.round_ms_p50", Json::f64(median(&mut round_raw_ms)))
        .with(
            "core.round_ms_p90",
            Json::f64(percentile(&mut round_raw_ms, 90.0)),
        )
        .with(
            "core.queries_per_s",
            Json::f64(completed as f64 / busy_s.max(1e-9)),
        )
        .with("core.stmt_ms_p50", json_map(&stmt_p50))
        .with(
            "min_remote_slots",
            Json::u64(if min_remote_slots == usize::MAX {
                0
            } else {
                min_remote_slots as u64
            }),
        )
        .with("errors", tally.errors_json());
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}

/// Mean per round of a count summed over each round's statements.
fn per_round(rounds: &[Vec<LibraryOutcome>], count: impl Fn(&LibraryOutcome) -> u64) -> f64 {
    let total: u64 = rounds.iter().flatten().map(count).sum();
    total as f64 / rounds.len().max(1) as f64
}

fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    // Nothing here is corrected for machine speed: a layer number is read
    // next to `bench.host_slowdown` of the same run.
    let monitor = SpeedMonitor::start();
    let run_started = Instant::now();
    let mut env = Env::setup(&cfg.workload, &cfg.settings, SETUP_ROUNDS)?;
    env.set_expectations(
        oracle::for_workload(&env.catalog, &cfg.workload, PAGE_ROWS).map_err(|e| e.to_string())?,
    );
    let executor = QueryExecutor::new(cfg.settings.exec_options());
    let steps = cfg.workload.round.clone();
    let library_round = |env: &mut Env, tracer: &mut Tracer| -> Vec<LibraryOutcome> {
        steps
            .iter()
            .map(|step| env.run_step_library(step, &executor, tracer))
            .collect()
    };

    let (min_rounds, max_rounds) = if cfg.smoke {
        (SMOKE_ROUNDS, SMOKE_ROUNDS)
    } else {
        TRACE_ROUNDS
    };
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut client_rounds: Vec<Vec<StepOutcome>> = Vec::new();
    let mut plain_rounds: Vec<Vec<LibraryOutcome>> = Vec::new();
    let mut traced_rounds: Vec<Vec<LibraryOutcome>> = Vec::new();
    let started = Instant::now();
    // Half of `--seconds` goes to these passes; the probes take the rest.
    while traced_rounds.len() < min_rounds
        || (traced_rounds.len() < max_rounds && started.elapsed().as_secs_f64() < cfg.seconds / 2.0)
    {
        let round = env.run_round();
        let fatal = round.iter().any(|o| o.fatal);
        client_rounds.push(round);
        if fatal {
            break;
        }
        plain_rounds.push(library_round(&mut env, &mut untraced));
        traced_rounds.push(library_round(&mut env, &mut tracer));
    }

    let mut tally = Tally::default();
    for o in client_rounds.iter().flatten() {
        tally.record(&o.label, o.error.as_ref());
    }
    for o in plain_rounds.iter().chain(&traced_rounds).flatten() {
        tally.record(&o.label, o.error.as_ref());
    }
    let spans = tracer.spans();
    if let Err(e) = trace::check_nesting(spans) {
        tally.record("trace", Some(&e));
    }

    let lib_ms = |round: &Vec<LibraryOutcome>| round.iter().map(|o| o.latency_ms).sum::<f64>();
    let mut client_ms: Vec<f64> = client_rounds.iter().map(|r| round_ms(r)).collect();
    let client_p50 = median(&mut client_ms);
    let plain_p50 = median(&mut plain_rounds.iter().map(lib_ms).collect::<Vec<_>>());
    let traced_p50 = median(&mut traced_rounds.iter().map(lib_ms).collect::<Vec<_>>());
    let statements = (traced_rounds.len() * steps.len()).max(1) as f64;
    let retunes: usize = traced_rounds
        .iter()
        .flatten()
        .map(|o| o.stats.retunes.len())
        .sum();

    let client_busy_s: f64 = client_ms.iter().sum::<f64>() / 1e3;
    let client_completed = client_rounds
        .iter()
        .flatten()
        .filter(|o| o.error.is_none())
        .count();
    let mut metrics = vec![
        Metric::new("core.round_ms_p50", client_p50, "ms"),
        Metric::new("core.round_ms_p90", percentile(&mut client_ms, 90.0), "ms"),
        Metric::new(
            "core.queries_per_s",
            client_completed as f64 / client_busy_s.max(1e-9),
            "1/s",
        ),
        Metric::new("core.residual_ms", client_p50 - plain_p50, "ms"),
        Metric::new(
            "bench.trace_overhead_frac",
            traced_p50 / plain_p50 - 1.0,
            "frac",
        ),
    ];
    let shares = trace::self_shares(spans);
    for name in std::iter::once(trace::ROOT).chain(trace::CHILDREN) {
        metrics.push(Metric::new(
            format!("span.{name}_frac"),
            shares.get(name).copied().unwrap_or(0.0),
            "frac",
        ));
    }
    let mut count = |name: &str, unit: &'static str, of: &dyn Fn(&LibraryOutcome) -> u64| {
        metrics.push(Metric::new(name, per_round(&traced_rounds, of), unit));
    };
    count("exec.scan_rows", "rows", &|o| {
        o.stats.rows_produced("TableScan")
    });
    count("exec.scan_bytes", "bytes", &|o| {
        o.stats.bytes_produced("TableScan")
    });
    count("net.exchange_pages", "pages", &|o| o.stats.exchange.pages);
    count("net.exchange_bytes", "bytes", &|o| o.stats.exchange.bytes);
    count("net.grow_events", "count", &|o| {
        o.stats.exchange.grow_events
    });
    // Edges that leave the process: the only users of the wire codec and
    // the TCP exchange.
    count("net.remote_slots", "count", &|o| o.remote_slots as u64);
    metrics.push(Metric::new(
        "cluster.retunes_per_query",
        retunes as f64 / statements,
        "count",
    ));
    metrics.push(Metric::new(
        "tpch.gen_rows_per_s",
        env.gen_rows as f64 / env.gen_s.max(1e-9),
        "rows/s",
    ));

    // Per-statement numbers: report only, they differ by workload.
    let client_stmt = label_p50s(
        client_rounds
            .iter()
            .flatten()
            .map(|o| (o.label.as_str(), o.latency_ms)),
    );
    let library_stmt = label_p50s(
        plain_rounds
            .iter()
            .flatten()
            .map(|o| (o.label.as_str(), o.latency_ms)),
    );
    let residual_stmt: BTreeMap<&str, f64> = client_stmt
        .iter()
        .filter_map(|(label, ms)| Some((*label, ms - library_stmt.get(label)?)))
        .collect();
    let mut final_dops = Json::obj();
    let mut deadline_ratios = Json::obj();
    let mut last_stats = Json::obj();
    if let Some(last) = traced_rounds.last() {
        for o in last {
            final_dops.set(o.label.clone(), Json::u64(o.final_dop() as u64));
            if let Some(d) = o.deadline_ms {
                deadline_ratios.set(o.label.clone(), Json::f64(o.latency_ms / d as f64));
            }
            last_stats.set(o.label.clone(), o.stats.to_json());
        }
    }
    let mut detail = common_detail(cfg)
        .with("system", phase_settings(&env))
        .with("rounds_per_pass", Json::u64(traced_rounds.len() as u64))
        .with("client.round_ms_p50", Json::f64(client_p50))
        .with("library.round_ms_p50", Json::f64(plain_p50))
        .with("traced.round_ms_p50", Json::f64(traced_p50))
        .with("core.stmt_ms_p50", json_map(&client_stmt))
        .with("library.stmt_ms_p50", json_map(&library_stmt))
        .with("core.residual_ms", json_map(&residual_stmt))
        .with("cluster.final_dop", final_dops)
        .with("cluster.deadline_ratio", deadline_ratios);
    write_json(
        &cfg.out_dir,
        &format!("trace_{}.json", cfg.workload.name),
        &Json::obj()
            .with("workload", Json::str(cfg.workload.name))
            .with("machine", machine_record(&cfg.settings))
            .with("spans", trace::spans_to_json(spans))
            .with("query_stats", last_stats),
    )?;

    // The system under test is done; the probes only need its tables.
    let catalog = env.catalog.clone();
    drop(env);
    let scale = if cfg.smoke {
        ProbeScale::SMOKE
    } else {
        ProbeScale::FULL
    };
    let probes_started = Instant::now();
    // Cluster probes first: the ping-pong probes (exchange hops, round
    // trips, claims, slot hand-off) leave the kernel stacking threads that
    // wake each other onto one CPU for seconds afterwards, and a dop-2
    // statement timed in that shadow runs at dop-1 speed.
    let cluster = cluster_probes(&catalog, &cfg.settings, scale)?;
    metrics.extend(layer_probes(&catalog, &cfg.settings, scale)?);
    // What crossing the process boundary costs a statement, next to the
    // same statement run in one process.
    let mut dist_overhead = Json::obj();
    if cfg.workload.path == crate::workloads::Path::Dist {
        for (label, ms) in &client_stmt {
            let in_process = cluster
                .iter()
                .find(|m| m.name == format!("cluster.exec_ms.{label}"));
            if let Some(m) = in_process {
                dist_overhead.set(*label, Json::f64(ms / m.value - 1.0));
            }
        }
    }
    metrics.extend(cluster);
    metrics.push(slot_handoff(scale));
    metrics.push(Metric::new(
        "bench.host_slowdown",
        monitor.snapshot().slowdown(run_started, Instant::now()),
        "ratio",
    ));
    detail.set("cluster.dist_overhead_frac", dist_overhead);
    detail.set(
        "probes_s",
        Json::f64(probes_started.elapsed().as_secs_f64()),
    );
    detail.set("errors", tally.errors_json());
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}
