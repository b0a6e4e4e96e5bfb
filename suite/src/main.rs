//! `accordion-suite` — the repo benchmark.
//!
//! ```text
//! accordion-suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out DIR]
//!     One run of one workload. Prints the metric table, then — as the
//!     last line of stdout — one JSON object {correct, attempted, failed,
//!     metrics}. --trace 0: end-to-end metrics; --trace 1: per-layer.
//!     Exits non-zero on any correctness failure.
//!
//! accordion-suite --all [--seed N] [--seconds S] [--smoke] [--out DIR]
//!     Every workload in both trace modes, each as its own process.
//!
//! accordion-suite --aa [--seed N] [--seconds S] [--out DIR]
//!     A/A self-check: every workload's end-to-end run twice on this
//!     build; prints both values, the relative gap and the bound from
//!     BENCHMARK.json per metric; exits non-zero if a gap exceeds its
//!     bound.
//!
//! accordion-suite worker --sf X --seed N
//!     The worker process of dist_shuffle (started by the suite itself).
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use accordion_common::json::Json;
use accordion_suite::env::Settings;
use accordion_suite::run::{run, RunConfig};
use accordion_suite::{worker, workloads};

/// Scale factor of a real run, and of `--smoke`.
const SF: f64 = 0.5;
const SMOKE_SF: f64 = 0.01;
const DEFAULT_SEED: u64 = 42;
/// Same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Removes `--flag value`; `Err` if the value is missing or malformed.
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        let raw = self.rest.remove(i + 1);
        self.rest.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("invalid {flag}: '{raw}'"))
    }

    /// Removes a bare `--flag`; true if it was there.
    fn flag(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    fn finish(&self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args {
        rest: std::env::args().skip(1).collect(),
    };
    match dispatch(&mut args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("accordion-suite: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &mut Args) -> Result<ExitCode, String> {
    let is_worker = args.rest.first().is_some_and(|a| a == "worker");
    if is_worker {
        args.rest.remove(0);
    }
    let seed: u64 = args.value("--seed")?.unwrap_or(DEFAULT_SEED);
    if is_worker {
        let sf: f64 = args.value("--sf")?.ok_or("worker needs --sf")?;
        worker::serve(&Settings { sf, seed })?;
        return Ok(ExitCode::SUCCESS);
    }

    let smoke = args.flag("--smoke");
    let seconds: f64 = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let out_dir: PathBuf = args
        .value("--out")?
        .unwrap_or_else(|| PathBuf::from("suite/out"));
    let all = args.flag("--all");
    let aa = args.flag("--aa");
    let workload: Option<String> = args.value("--workload")?;
    let trace: u8 = args.value("--trace")?.unwrap_or(0);
    if trace > 1 {
        return Err(format!("--trace is 0 or 1, got {trace}"));
    }
    args.finish()?;

    let child = ChildRun {
        seed,
        seconds,
        smoke,
        out_dir: out_dir.clone(),
    };
    match (workload, all, aa) {
        (Some(name), false, false) => {
            let workload = workloads::by_name(&name).ok_or_else(|| {
                let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
                format!("unknown workload '{name}' (one of {})", names.join(", "))
            })?;
            let result = run(&RunConfig {
                workload,
                settings: Settings {
                    sf: if smoke { SMOKE_SF } else { SF },
                    seed,
                },
                seconds,
                trace: trace == 1,
                smoke,
                out_dir,
            })?;
            print!("{}", result.table());
            if let Some(errors) = result.detail.get("errors").and_then(Json::as_arr) {
                for e in errors {
                    eprintln!("accordion-suite: failed: {}", e.as_str().unwrap_or("?"));
                }
            }
            println!("{}", result.contract_line());
            Ok(if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        (None, true, false) => run_all(&child),
        (None, false, true) => run_aa(&child),
        _ => Err("give exactly one of --workload NAME, --all, --aa".into()),
    }
}

/// How `--all` and `--aa` run one workload: as a child process of this
/// same executable, exactly as the benchmark driver would, so that every
/// run has its own peak-memory reading and a clean process.
struct ChildRun {
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: PathBuf,
}

impl ChildRun {
    /// Runs one workload; returns its parsed contract line and whether the
    /// child exited zero. The child's metric table goes to our stdout.
    fn run(&self, workload: &str, trace: u8) -> Result<(Json, bool), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", &trace.to_string()])
            .arg("--out")
            .arg(&self.out_dir)
            .stdout(Stdio::piped());
        if self.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .spawn()
            .and_then(|c| c.wait_with_output())
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (table, line) = match stdout.trim_end().rsplit_once('\n') {
            Some((table, line)) => (table, line),
            None => ("", stdout.trim_end()),
        };
        println!("{table}");
        let parsed =
            Json::parse(line).map_err(|e| format!("{workload}: no result line ({e}): {line}"))?;
        Ok((parsed, output.status.success()))
    }
}

fn run_all(child: &ChildRun) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in workloads::all() {
        for trace in [0, 1] {
            println!("== {} (--trace {trace})", w.name);
            let (result, success) = child.run(w.name, trace)?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            if !(success && correct) {
                println!("   FAILED");
                ok = false;
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_aa(child: &ChildRun) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;

    let mut rows = Vec::new();
    let mut ok = true;
    for w in workloads::all() {
        let mut sides = Vec::new();
        for side in ["A", "A'"] {
            println!("== {} ({side})", w.name);
            let (result, success) = child.run(w.name, 0)?;
            ok &= success;
            sides.push(result);
        }
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(a), Some(b)) = (metric_value(&sides[0], name), metric_value(&sides[1], name))
            else {
                return Err(format!("{}: metric {name} missing from a run", w.name));
            };
            // How much worse the second run is than the first, as a share
            // of the first — the quantity the bound limits.
            let worse = if lower_is_better { b - a } else { a - b } / a.abs().max(1e-12);
            let within = worse <= bound;
            ok &= within;
            rows.push(format!(
                "{:<13} {:<18} {:>12.4} {:>12.4} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                name,
                a,
                b,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDS" }
            ));
        }
    }
    println!(
        "\n{:<13} {:<18} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "A", "A'", "worse by", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
