//! The worker process of `dist_shuffle`.
//!
//! The worker is this same executable run with the `worker` subcommand: it
//! does what `accordion-core worker` does (generate the catalog, start
//! `core::Worker`, announce its address) with two differences the
//! benchmark needs — it generates from the run's `--seed`, and it exits
//! when its stdin closes, so it cannot outlive a parent that was killed.
//! The parent side kills and reaps the child on drop, panics included.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use accordion_tpch::gen::generate;

use crate::env::Settings;

/// The line a ready worker prints on stdout, followed by its control
/// address.
const READY_PREFIX: &str = "accordion-suite worker listening on ";

/// Child side: serves until stdin reaches end of file.
pub fn serve(settings: &Settings) -> Result<(), String> {
    let data = generate(&settings.tpch_options());
    let worker = accordion_core::Worker::start(
        "127.0.0.1:0",
        Arc::new(data.catalog),
        settings.exec_options(),
    )
    .map_err(|e| e.to_string())?;
    println!("{READY_PREFIX}{}", worker.ctrl_addr());
    // The parent holds the other end of stdin for as long as it lives.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    Ok(())
}

/// Parent side: a running, ready worker child.
pub struct WorkerProcess {
    child: Mutex<Child>,
    pid: u32,
    ctrl_addr: String,
}

/// A worker that was started and may still be generating its tables.
pub struct StartingWorker {
    process: WorkerProcess,
    ready: mpsc::Receiver<String>,
    reader: JoinHandle<()>,
}

impl WorkerProcess {
    /// Starts `exe worker ...` without waiting for it, so the caller can
    /// generate its own tables meanwhile.
    pub fn start(exe: &Path, settings: &Settings) -> Result<StartingWorker, String> {
        let mut child = Command::new(exe)
            .arg("worker")
            .args(settings.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start worker {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The reader ends at the ready line or at end of file (the child
        // died or was killed), so joining it cannot hang.
        let (tx, ready) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if let Some(addr) = line.strip_prefix(READY_PREFIX) {
                    let _ = tx.send(addr.trim().to_string());
                    return;
                }
            }
        });
        Ok(StartingWorker {
            process: WorkerProcess {
                pid: child.id(),
                child: Mutex::new(child),
                ctrl_addr: String::new(),
            },
            ready,
            reader,
        })
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// The control address a `core::Fleet` connects to.
    pub fn ctrl_addr(&self) -> &str {
        &self.ctrl_addr
    }

    /// Kills and reaps the child. Idempotent; callable from a watchdog
    /// thread while another thread waits on the worker's sockets.
    pub fn kill(&self) {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl StartingWorker {
    /// Waits at most `timeout` for the ready line. On failure the child is
    /// killed and reaped.
    pub fn await_ready(self, timeout: Duration) -> Result<WorkerProcess, String> {
        let StartingWorker {
            mut process,
            ready,
            reader,
        } = self;
        let addr = ready.recv_timeout(timeout);
        if addr.is_err() {
            process.kill();
        }
        let _ = reader.join();
        process.ctrl_addr =
            addr.map_err(|_| format!("worker did not print its ready line within {timeout:?}"))?;
        Ok(process)
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}
