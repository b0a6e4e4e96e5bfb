//! `accordion-core` — the query-server CLI.
//!
//! ```text
//! accordion-core server [--addr 127.0.0.1:4433] [--sf 0.02] [--workers N]
//!                       [--dop N] [--elasticity MODE]
//!                       [--max-queries N] [--admission queue|reject]
//!     Generate TPC-H data at the scale factor, start the server, and run
//!     until killed. Prints `accordion-core listening on <addr>` when
//!     ready.
//!
//! accordion-core client [--addr 127.0.0.1:4433] [--expect-rows N]
//!                       [-e SQL]... [FILE.sql]...
//!     Run statements (from -e flags and .sql files, in order) against a
//!     server, print results, and — with --expect-rows — fail unless the
//!     last result set has exactly N rows.
//!
//! accordion-core worker [--listen 127.0.0.1:0] [--sf 0.02] [--workers N]
//!     One node of a process-per-node fleet: generate the TPC-H catalog,
//!     serve query sessions — pages, split claims and a coordinator's
//!     WIRE/GO/JOIN, one connection per query and peer — on the one
//!     `--listen` address, and run until killed. Prints
//!     `accordion-core worker listening on <addr>` when ready.
//! ```
//!
//! A distributed query is a session setting, not a subcommand: `client -e
//! "SET nodes = '<worker>,<worker>'" FILE.sql` makes the server run that
//! session's SELECTs across itself and those workers. All processes must
//! use the same --sf.

use std::process::ExitCode;
use std::sync::Arc;

use accordion_cluster::QueryExecutor;
use accordion_common::config::{AdmissionConfig, ElasticityMode};
use accordion_core::{Client, QueryServer, Response, ServerConfig};
use accordion_exec::ExecOptions;
use accordion_sql::parse_statements;
use accordion_tpch::gen::{generate, TpchOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("server") => run_server(&args[1..]),
        Some("client") => run_client(&args[1..]),
        Some("worker") => run_worker(&args[1..]),
        _ => {
            eprintln!(
                "usage: accordion-core <server|client|worker> [options]  \
                 (see --help in source)"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("accordion-core: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--flag value` out of an argument list; returns the value.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

/// `server` and `worker` take `--flag value` pairs only, so anything else in
/// a flag position is a typo — an error, not a default.
fn reject_unknown_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .step_by(2)
        .find(|a| !known.contains(&a.as_str()))
    {
        Some(a) => Err(format!("unknown flag '{a}'")),
        None => Ok(()),
    }
}

fn parse_or<T: std::str::FromStr>(v: Option<String>, default: T, what: &str) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("invalid {what}: '{s}'")),
    }
}

fn run_server(args: &[String]) -> Result<(), String> {
    const FLAGS: [&str; 7] = [
        "--addr",
        "--sf",
        "--workers",
        "--dop",
        "--elasticity",
        "--max-queries",
        "--admission",
    ];
    reject_unknown_flags(args, &FLAGS)?;
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:4433".to_string());
    let sf: f64 = parse_or(flag_value(args, "--sf")?, 0.02, "--sf")?;
    let workers: usize = parse_or(flag_value(args, "--workers")?, 4, "--workers")?;
    let dop: u32 = parse_or(flag_value(args, "--dop")?, 4, "--dop")?;
    let elasticity = match flag_value(args, "--elasticity")? {
        None => ElasticityMode::Off,
        Some(mode) => ElasticityMode::try_parse_mode(&mode).map_err(|e| e.to_string())?,
    };
    // Admission gate: `--max-queries` limits concurrent queries on the
    // shared pool; `--admission` picks what happens past the limit — a
    // rejecting gate is one whose queue has no room.
    let max_queries: Option<usize> = match flag_value(args, "--max-queries")? {
        None => None,
        Some(s) => Some(
            s.parse()
                .ok()
                .filter(|&n: &usize| n > 0)
                .ok_or_else(|| format!("invalid --max-queries: '{s}' (positive integer)"))?,
        ),
    };
    let admission =
        AdmissionConfig::try_parse(max_queries, flag_value(args, "--admission")?.as_deref())
            .map_err(|e| e.to_string())?;

    eprintln!("generating TPC-H data at sf {sf} ...");
    let data = generate(&TpchOptions {
        scale_factor: sf,
        ..TpchOptions::default()
    });
    for t in &data.tables {
        eprintln!("  {:>10}: {} rows", t.name, t.rows);
    }

    let exec = ExecOptions {
        worker_threads: workers,
        elasticity,
        admission,
        ..ExecOptions::default()
    };
    let executor = QueryExecutor::new(exec.clone());
    let config = ServerConfig {
        default_dop: dop,
        exec,
    };
    let server = QueryServer::start(Arc::new(data.catalog), executor, config, addr.as_str())
        .map_err(|e| e.to_string())?;
    // CI and scripts wait for this exact line on stdout.
    println!("accordion-core listening on {}", server.local_addr());
    loop {
        std::thread::park();
    }
}

fn run_client(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:4433".to_string());
    let (statements, expect_rows) = collect_script(args)?;

    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    eprintln!("connected: {}", client.greeting);
    let mut last_rows: Option<u64> = None;
    for sql in &statements {
        match client.send(sql).map_err(|e| e.to_string())? {
            Response::Ok(msg) => println!("OK {msg}"),
            Response::Rows(rs) => {
                println!("{}", rs.columns.join("\t"));
                for row in &rs.rows {
                    println!("{}", row.join("\t"));
                }
                println!("({} rows, {} ms)", rs.rows.len(), rs.elapsed_ms);
                last_rows = Some(rs.rows.len() as u64);
            }
        }
    }
    let _ = client.exit();
    match (expect_rows, last_rows) {
        (None, _) => Ok(()),
        (Some(expected), Some(actual)) if actual == expected => Ok(()),
        (Some(expected), Some(actual)) => Err(format!(
            "row-count check failed: expected {expected}, got {actual}"
        )),
        (Some(_), None) => Err("row-count check failed: no result set".to_string()),
    }
}

fn run_worker(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &["--listen", "--sf", "--workers"])?;
    let listen = flag_value(args, "--listen")?.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let sf: f64 = parse_or(flag_value(args, "--sf")?, 0.02, "--sf")?;
    let workers: usize = parse_or(flag_value(args, "--workers")?, 4, "--workers")?;

    eprintln!("generating TPC-H data at sf {sf} ...");
    let data = generate(&TpchOptions {
        scale_factor: sf,
        ..TpchOptions::default()
    });
    let exec = ExecOptions {
        worker_threads: workers,
        ..ExecOptions::default()
    };
    let worker = accordion_core::Worker::start(&listen, Arc::new(data.catalog), exec)
        .map_err(|e| e.to_string())?;
    // Harnesses wait for this exact line on stdout.
    println!("accordion-core worker listening on {}", worker.ctrl_addr());
    loop {
        std::thread::park();
    }
}

/// What `client` runs — every `-e SQL` plus the contents of every
/// positional .sql file, in command-line order — and the `--expect-rows`
/// value.
fn collect_script(args: &[String]) -> Result<(Vec<String>, Option<u64>), String> {
    let expect_rows = flag_value(args, "--expect-rows")?
        .map(|s| {
            s.parse()
                .map_err(|_| format!("invalid --expect-rows: '{s}'"))
        })
        .transpose()?;
    let mut statements = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-e" => {
                let sql = it.next().ok_or("-e needs a SQL string")?;
                collect_statements(sql, &mut statements)?;
            }
            "--addr" | "--expect-rows" => {
                it.next();
            }
            path => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                collect_statements(&text, &mut statements)?;
            }
        }
    }
    if statements.is_empty() {
        return Err("no statements: pass -e SQL or a .sql file".to_string());
    }
    Ok((statements, expect_rows))
}

/// Splits a script into statements (validated client-side so one bad file
/// fails fast with caret diagnostics) and appends their source text.
fn collect_statements(text: &str, out: &mut Vec<String>) -> Result<(), String> {
    let parsed = parse_statements(text).map_err(|errors| {
        errors
            .iter()
            .map(|e| e.render(text))
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    for statement in &parsed {
        let span = statement.span();
        out.push(text[span.start..span.end].to_string());
    }
    Ok(())
}
