//! The repo benchmark: four SQL workloads over the query server, the
//! coordinator + worker-process path and the elastic (deadline-driven)
//! path, measured end to end and layer by layer.
//!
//! The suite only ever calls public functions of the engine crates; no
//! span, counter, flag or environment variable lives inside the engine for
//! its sake. `suite/README.md` lists every metric, which end-to-end metric
//! each layer metric should move on which workload, and how to run it.
//!
//! - [`workloads`] — the statement files and the four workload definitions.
//! - [`oracle`] — expected results (serial executor) and the fingerprint
//!   every timed result is checked against.
//! - [`procstat`] — CPU seconds and peak RSS of a process from `/proc`.
//! - [`worker`] — the worker child process of `dist_shuffle`.
//! - [`env`] — set-up (generation, server/worker start, calibration,
//!   warm-up) and the closed-loop timed rounds.
//! - [`trace`] — in-memory spans around the library path a session takes.
//! - [`probes`] — single-threaded layer probes and in-process cluster
//!   probes.
//! - [`report`] — metric values, the machine record and the output files.
//! - [`speed`] — the machine-speed monitor and the correction of measured
//!   times to nominal speed.
//! - [`run`] — one benchmark run: `--trace 0` (end to end) or `--trace 1`
//!   (per layer).

pub mod env;
pub mod oracle;
pub mod probes;
pub mod procstat;
pub mod report;
pub mod run;
pub mod speed;
pub mod trace;
pub mod worker;
pub mod workloads;
