//! Set-up and the closed-loop statement runner.
//!
//! [`Env::setup`] is what `setup_s` times: table generation, server (or
//! worker + fleet) start, client connection, deadline calibration and the
//! first, cold round. Load is a closed loop with one client connection and
//! one generator thread: the next statement is sent when the previous
//! result has been fully received (and checked).

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::QueryExecutor;
use accordion_common::config::{AdmissionConfig, ElasticityConfig, NetworkConfig};
use accordion_common::AccordionError;
use accordion_core::{Client, DistributedRun, Fleet, QueryServer, Response, ServerConfig};
use accordion_exec::ExecOptions;
use accordion_storage::catalog::Catalog;
use accordion_tpch::gen::{generate, TpchOptions};

use crate::oracle::{text_rows, Expectation};
use crate::report::median;
use crate::worker::WorkerProcess;
use crate::workloads::{sql, Path, Step, Workload};

/// Rows per page, in generation and execution.
pub const PAGE_ROWS: usize = 1024;
/// Compute slots per engine process; the suite is sized for two cores.
pub const WORKER_THREADS: usize = 2;
/// Session DOP unless a step sets its own.
pub const DOP: u32 = 2;
/// A statement slower than this counts as failed.
pub const STATEMENT_CAP: Duration = Duration::from_secs(60);
/// How long a spawned worker may take to generate its tables and listen.
const WORKER_READY_CAP: Duration = Duration::from_secs(120);
/// After the cap fired and the worker was killed, how long the coordinator
/// may take to notice before the run gives up.
const ABORT_GRACE: Duration = Duration::from_secs(10);
/// Untimed runs per statement behind each calibrated `T1`.
const CALIBRATION_RUNS: usize = 3;

/// What the engine is built from in one run. The engine only ever sees the
/// tables generated from these and SQL text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    pub sf: f64,
    pub seed: u64,
}

impl Settings {
    pub fn tpch_options(&self) -> TpchOptions {
        TpchOptions {
            scale_factor: self.sf,
            seed: self.seed,
            page_rows: PAGE_ROWS,
        }
    }

    /// Engine options, every field set explicitly so no `ACCORDION_*`
    /// environment variable can change what is measured.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            page_rows: PAGE_ROWS,
            worker_threads: WORKER_THREADS,
            network: NetworkConfig::default(),
            elasticity: ElasticityConfig::off(),
            admission: AdmissionConfig::default(),
        }
    }

    /// Command-line form, understood by the `worker` subcommand.
    pub fn to_args(&self) -> Vec<String> {
        vec![
            "--sf".into(),
            self.sf.to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ]
    }
}

/// What happened to one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    pub label: String,
    /// Client-observed latency: send to last result byte decoded.
    pub latency_ms: f64,
    /// ERR frame, transport error, timeout or wrong result.
    pub error: Option<String>,
    /// The step's `D`, when it has one.
    pub deadline_ms: Option<u64>,
    /// Cross-process consumer slots (`dist_shuffle` only).
    pub remote_slots: usize,
    /// The connection is no longer usable; stop the run.
    pub fatal: bool,
}

impl StepOutcome {
    /// Correct, and within `D` when the step has one. (Every statement is
    /// also under [`STATEMENT_CAP`]; past it, it is an error.)
    pub fn attained(&self) -> bool {
        self.error.is_none() && self.deadline_ms.is_none_or(|d| self.latency_ms <= d as f64)
    }
}

pub(crate) enum Backend {
    Server {
        // Declared before the server so the session closes first.
        client: Client,
        _server: QueryServer,
    },
    Dist {
        // Boxed: a fleet is several times the size of the server variant.
        fleet: Option<Box<Fleet>>,
        worker: WorkerProcess,
    },
}

/// A running system under test plus what is needed to drive one workload
/// through it.
pub struct Env {
    pub settings: Settings,
    pub workload: Workload,
    pub catalog: Arc<Catalog>,
    /// Table generation alone, seconds, and the rows it produced.
    pub gen_s: f64,
    pub gen_rows: u64,
    /// Calibrated dop-1, elasticity-off median per statement of a deadline
    /// step, milliseconds.
    pub t1_ms: HashMap<&'static str, f64>,
    pub(crate) backend: Backend,
    expectations: HashMap<&'static str, Expectation>,
}

/// `Fleet::run_sql` under [`STATEMENT_CAP`]: past the cap the worker is
/// killed, which fails the statement on the coordinator; if even that does
/// not return, the process exits — with the worker already gone.
pub(crate) fn run_dist_capped(
    fleet: &mut Fleet,
    worker: &WorkerProcess,
    sql: &str,
) -> accordion_common::Result<DistributedRun> {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            if done_rx.recv_timeout(STATEMENT_CAP) != Err(RecvTimeoutError::Timeout) {
                return;
            }
            worker.kill();
            if done_rx.recv_timeout(ABORT_GRACE) == Err(RecvTimeoutError::Timeout) {
                eprintln!("suite: distributed statement hung past its cap; giving up");
                std::process::exit(3);
            }
        });
        let run = fleet.run_sql(sql);
        drop(done_tx);
        run
    })
}

impl Env {
    /// Builds the system for `workload` and runs `warmup_rounds` untimed
    /// rounds through it. Any statement error during set-up is an `Err`.
    pub fn setup(
        workload: &Workload,
        settings: &Settings,
        warmup_rounds: usize,
    ) -> Result<Env, String> {
        // Start the worker first: it generates its tables while we
        // generate ours.
        let worker = match workload.path {
            Path::Server => None,
            Path::Dist => {
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                Some(WorkerProcess::start(&exe, settings)?)
            }
        };

        let started = Instant::now();
        let data = generate(&settings.tpch_options());
        let gen_s = started.elapsed().as_secs_f64();
        let gen_rows = data.tables.iter().map(|t| t.rows).sum();
        let catalog = Arc::new(data.catalog);

        let exec = settings.exec_options();
        let backend = match worker {
            None => {
                let server = QueryServer::start(
                    catalog.clone(),
                    QueryExecutor::new(exec.clone()),
                    ServerConfig {
                        default_dop: DOP,
                        exec,
                    },
                    "127.0.0.1:0",
                )
                .map_err(|e| format!("server start: {e}"))?;
                let network = NetworkConfig::builder()
                    .read_timeout_ms(Some(STATEMENT_CAP.as_millis() as u64))
                    .build();
                let client = Client::connect_with(server.local_addr(), &network)
                    .map_err(|e| format!("client connect: {e}"))?;
                Backend::Server {
                    client,
                    _server: server,
                }
            }
            Some(starting) => {
                let worker = starting.await_ready(WORKER_READY_CAP)?;
                let fleet = Fleet::connect(
                    &[worker.ctrl_addr().to_string()],
                    catalog.clone(),
                    exec,
                    "off",
                    DOP,
                )
                .map_err(|e| format!("fleet connect: {e}"))?;
                Backend::Dist {
                    fleet: Some(Box::new(fleet)),
                    worker,
                }
            }
        };

        let mut env = Env {
            settings: *settings,
            workload: workload.clone(),
            catalog,
            gen_s,
            gen_rows,
            t1_ms: HashMap::new(),
            backend,
            expectations: HashMap::new(),
        };
        env.calibrate()?;
        for _ in 0..warmup_rounds {
            for outcome in env.run_round() {
                if let Some(e) = outcome.error {
                    return Err(format!("warm-up {}: {e}", outcome.label));
                }
            }
        }
        Ok(env)
    }

    /// Measures `T1` — this run's own dop-1, elasticity-off median — for
    /// every statement that has a deadline step. Deadlines relative to it
    /// keep the workload meaningful on any machine.
    fn calibrate(&mut self) -> Result<(), String> {
        let stmts: Vec<&'static str> = self
            .workload
            .round
            .iter()
            .filter(|s| s.deadline.is_some())
            .map(|s| s.stmt)
            .collect();
        if stmts.is_empty() {
            return Ok(());
        }
        let Backend::Server { client, .. } = &mut self.backend else {
            return Err("deadline steps need the server path".into());
        };
        for set in ["SET dop = 1", "SET elasticity = off"] {
            client.send(set).map_err(|e| format!("{set}: {e}"))?;
        }
        for stmt in stmts {
            if self.t1_ms.contains_key(stmt) {
                continue;
            }
            let mut times = Vec::with_capacity(CALIBRATION_RUNS);
            for _ in 0..CALIBRATION_RUNS {
                let started = Instant::now();
                client
                    .query(sql(stmt))
                    .map_err(|e| format!("calibrating {stmt}: {e}"))?;
                times.push(started.elapsed().as_secs_f64() * 1e3);
            }
            self.t1_ms.insert(stmt, median(&mut times));
        }
        Ok(())
    }

    /// Every later result is checked against these.
    pub fn set_expectations(&mut self, expectations: HashMap<&'static str, Expectation>) {
        self.expectations = expectations;
    }

    /// `D` of a step: its factor times the statement's calibrated `T1`.
    pub fn deadline_ms(&self, step: &Step) -> Option<u64> {
        let t1 = self.t1_ms.get(step.stmt)?;
        Some(((t1 * step.deadline?.factor()).round() as u64).max(1))
    }

    /// Pids of every engine process: this one, and the worker if any.
    pub fn engine_pids(&self) -> Vec<u32> {
        let mut pids = vec![std::process::id()];
        if let Backend::Dist { worker, .. } = &self.backend {
            pids.push(worker.pid());
        }
        pids
    }

    pub(crate) fn check(&self, stmt: &str, rows: &[Vec<String>]) -> Option<String> {
        self.expectations.get(stmt)?.check(rows).err()
    }

    /// Sends one statement and waits for its complete, checked result.
    pub fn run_step(&mut self, step: &Step) -> StepOutcome {
        let deadline_ms = self.deadline_ms(step);
        let text = sql(step.stmt);
        let mut outcome = StepOutcome {
            label: step.label(),
            latency_ms: 0.0,
            error: None,
            deadline_ms,
            remote_slots: 0,
            fatal: false,
        };
        let rows = match &mut self.backend {
            Backend::Server { client, .. } => {
                if let Some(d) = deadline_ms {
                    let sets = [
                        "SET dop = 1".to_string(),
                        "SET elasticity = auto".to_string(),
                        format!("SET deadline_ms = {d}"),
                    ];
                    for set in &sets {
                        if let Err(e) = client.send(set) {
                            outcome.error = Some(format!("{set}: {e}"));
                            outcome.fatal = true;
                            return outcome;
                        }
                    }
                }
                let started = Instant::now();
                let response = client.send(text);
                outcome.latency_ms = started.elapsed().as_secs_f64() * 1e3;
                match response {
                    Ok(Response::Rows(rs)) => rs.rows,
                    Ok(Response::Ok(msg)) => {
                        outcome.error = Some(format!("expected rows, got OK {msg}"));
                        return outcome;
                    }
                    Err(e) => {
                        // An ERR frame leaves the session usable; anything
                        // else (timeout, closed socket) does not.
                        outcome.fatal = !matches!(e, AccordionError::Execution(_));
                        outcome.error = Some(e.to_string());
                        return outcome;
                    }
                }
            }
            Backend::Dist { fleet, worker } => {
                let fleet = fleet.as_mut().expect("fleet lives until drop");
                let started = Instant::now();
                let run = run_dist_capped(fleet, worker, text);
                outcome.latency_ms = started.elapsed().as_secs_f64() * 1e3;
                match run {
                    Ok(run) => {
                        outcome.remote_slots = run.remote_slots;
                        if run.remote_slots == 0 {
                            outcome.error = Some("no cross-process slot was used".into());
                        }
                        text_rows(&run.result)
                    }
                    Err(e) => {
                        outcome.error = Some(e.to_string());
                        outcome.fatal = true;
                        return outcome;
                    }
                }
            }
        };
        if outcome.error.is_none() {
            outcome.error = self.check(step.stmt, &rows);
        }
        outcome
    }

    /// One round: the workload's statements once, in order. Stops early
    /// only when the connection is gone.
    pub fn run_round(&mut self) -> Vec<StepOutcome> {
        let steps = self.workload.round.clone();
        let mut outcomes = Vec::with_capacity(steps.len());
        for step in &steps {
            let outcome = self.run_step(step);
            let fatal = outcome.fatal;
            outcomes.push(outcome);
            if fatal {
                break;
            }
        }
        outcomes
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Stop the coordinator's page and claim servers; the worker child
        // is killed by its own drop right after.
        if let Backend::Dist { fleet, .. } = &mut self.backend {
            if let Some(fleet) = fleet.take() {
                fleet.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failure_or_a_late_result_misses_the_limit() {
        let ok = StepOutcome {
            label: "q1@tight".into(),
            latency_ms: 90.0,
            error: None,
            deadline_ms: Some(100),
            remote_slots: 0,
            fatal: false,
        };
        assert!(ok.attained());
        assert!(!StepOutcome {
            latency_ms: 101.0,
            ..ok.clone()
        }
        .attained());
        assert!(!StepOutcome {
            error: Some("ERR".into()),
            ..ok.clone()
        }
        .attained());
        assert!(StepOutcome {
            latency_ms: 5_000.0,
            deadline_ms: None,
            ..ok
        }
        .attained());
    }
}
