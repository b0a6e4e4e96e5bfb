//! The multi-client query server.
//!
//! [`QueryServer::start`] binds a TCP listener and serves the protocol of
//! [`crate::protocol`]: one session per connection, one OS thread per
//! session. Every session shares **one** [`QueryExecutor`] — its
//! compute-slot gate multiplexes all concurrent queries over the same
//! worker pool, so eight clients at `worker_threads = 1` make progress
//! (tasks parked on exchange backpressure release their slot; see
//! `accordion_cluster::scheduler`).
//!
//! Statement handling per session:
//!
//! - `SET deadline_ms | elasticity | dop | nodes` — session-scoped tunables
//!   ([`SessionVars`]); they shape the per-query [`ExecOptions`], the
//!   optimizer's planned DOP and where the query runs without touching
//!   other sessions.
//! - `SHOW <var> | ALL | TABLES | ADMISSION` — introspection
//!   (`ADMISSION` reports the shared executor's admission-gate counters).
//! - `SELECT ...` — parsed and analyzed by `accordion-sql` against the
//!   server catalog, executed on the shared pool, streamed back as CSV
//!   page by page. A session with `nodes` set is a **coordinator**: the
//!   statement runs across the server (node 0) and the listed workers
//!   through a [`Fleet`] on the same executor — same admission gate, same
//!   `poison_active`, same framing. The server's node listener, its second
//!   port, is bound the first time a session needs it.
//! - `EXIT;` / `QUIT;` — end the session.
//!
//! Errors (lex/parse/analysis/execution) become `ERR` frames; the session
//! survives and the next statement runs normally.
//!
//! ## One flush per response
//!
//! Every accepted socket is `TCP_NODELAY` and written through one
//! [`BufWriter`] of 64 KiB (`RESPONSE_BUFFER_BYTES`) that is flushed when a
//! response is complete and otherwise only when it is full. A small result
//! — `RESULT`, header, rows, `END` — therefore leaves as one segment; sent
//! as a page and then a trailer, the trailer would wait in the kernel for
//! the client's delayed ACK of the page, some 40 ms, on every statement. A
//! large result still streams: the buffer fills and empties as rows are
//! encoded and never holds more than its capacity.
//!
//! ## Sessions come and go
//!
//! The server keeps one `try_clone` of each live connection (so that
//! shutdown can unblock a session parked in `read_line`) and one thread
//! handle per session. Both are given up when the session ends — the clone
//! by the session itself, the handle by the accept loop the next time it
//! accepts — so a server that has seen a million short sessions holds what
//! a server with the currently open ones would.
//!
//! ## Graceful shutdown
//!
//! [`QueryServer::shutdown`] (also invoked on drop) flips the shutdown
//! flag, **poisons every in-flight query's exchanges** via
//! [`QueryExecutor::poison_active`] — their tasks unwind promptly and the
//! sessions emit a final `ERR` — shuts down all client sockets, wakes the
//! accept loop with a self-connection, and joins every thread.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_common::sync::Mutex;
use accordion_common::{AccordionError, Result};
use accordion_exec::{ExecOptions, QueryResult};
use accordion_sql::{parse_statements, Analyzer, Statement};
use accordion_storage::catalog::Catalog;

use crate::dist::{Fleet, Worker};
use crate::protocol::{encode_header, escape_message, greeting, write_rows};
use crate::session::SessionVars;

/// Capacity of a session's response buffer: a whole small result fits and
/// leaves as one segment, a large one goes out in writes of 64 KiB — the
/// most one TCP segment-offload unit carries — instead of a page at a time.
const RESPONSE_BUFFER_BYTES: usize = 64 * 1024;

/// Server-side knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Default planned Source-stage DOP for new sessions (`SET dop`
    /// overrides per session).
    pub default_dop: u32,
    /// Option template for new sessions: page size, network shape, and the
    /// default elasticity mode. Its `worker_threads` and `admission` are
    /// unused here: the pool and the gate are the executor's, which
    /// [`QueryServer::start`] is handed.
    pub exec: ExecOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_dop: 4,
            exec: ExecOptions::default(),
        }
    }
}

/// Everything the accept loop and the sessions share.
struct Shared {
    catalog: Arc<Catalog>,
    executor: QueryExecutor,
    config: ServerConfig,
    shutting_down: AtomicBool,
    /// One `try_clone` handle per live connection, by session number, so
    /// shutdown can unblock sessions parked in `read_line`. A session
    /// removes its own entry when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// The interface the text listener is bound on.
    ip: IpAddr,
    /// The server as node 0 of the fleets its sessions coordinate.
    node: Mutex<Option<Arc<Worker>>>,
}

impl Shared {
    /// Runs `sql` across this server (node 0) and the session's `nodes`.
    /// The server's node is bound on first use: an ephemeral port of the
    /// text listener's interface, in front of the shared executor.
    fn run_across(&self, sql: &str, vars: &SessionVars) -> Result<QueryResult> {
        let node = match &mut *self.node.lock() {
            Some(node) => node.clone(),
            unbound => {
                let addr = SocketAddr::new(self.ip, 0).to_string();
                let (catalog, executor) = (self.catalog.clone(), self.executor.clone());
                let node = Worker::with_executor(&addr, catalog, executor)?;
                unbound.insert(Arc::new(node)).clone()
            }
        };
        let mut fleet = Fleet::over(node, &vars.nodes, vars.exec_options(), vars.dop)?;
        Ok(fleet.run_sql(sql)?.result)
    }
}

/// A running query server. Dropping it shuts it down.
pub struct QueryServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    /// All sessions execute on `executor`'s shared worker pool against
    /// `catalog`.
    pub fn start(
        catalog: Arc<Catalog>,
        executor: QueryExecutor,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<QueryServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| AccordionError::Io(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| AccordionError::Io(format!("local_addr failed: {e}")))?;
        let shared = Arc::new(Shared {
            catalog,
            executor,
            config,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            ip: local_addr.ip(),
            node: Mutex::new(None),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(QueryServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of queries executing right now across all sessions.
    pub fn active_queries(&self) -> usize {
        self.shared.executor.active_queries()
    }

    /// Stops accepting, fails all in-flight queries, disconnects every
    /// session, and joins all server threads.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // In-flight queries unwind promptly: their sessions report the
        // poison as a final ERR frame before the socket closes.
        self.shared
            .executor
            .poison_active(AccordionError::Execution("server shutting down".into()));
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.shared.node.lock().take();
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap the sessions that have ended since the last accept.
        let (ended, live): (Vec<_>, Vec<_>) =
            sessions.into_iter().partition(JoinHandle::is_finished);
        sessions = live;
        for handle in ended {
            let _ = handle.join();
        }
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        // A shutdown that drained `conns` before this insert has already
        // set the flag: unblock the session ourselves.
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let session_shared = shared.clone();
        sessions.push(std::thread::spawn(move || {
            // Socket errors mean the client vanished — nothing to report.
            let _ = serve_session(stream, &session_shared);
            session_shared.conns.lock().remove(&id);
        }));
    }
    for handle in sessions {
        let _ = handle.join();
    }
}

/// Runs one connection to completion.
fn serve_session(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(RESPONSE_BUFFER_BYTES, stream);
    writeln!(writer, "{}", greeting())?;
    writer.flush()?;

    let mut vars = SessionVars::new(&shared.config.exec, shared.config.default_dop);
    let mut buffer = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        buffer.push_str(&line);
        // Statements are terminated by `;`; keep reading until the batch
        // is complete. (A `;` inside a string literal can hold a batch
        // open until the next bare one — acceptable for a line protocol.)
        let trimmed = buffer.trim();
        if trimmed.is_empty() {
            buffer.clear();
            continue;
        }
        let bare_exit = is_exit(trimmed);
        if !trimmed.ends_with(';') && !bare_exit {
            continue;
        }
        let batch = std::mem::take(&mut buffer);
        if bare_exit || is_exit(batch.trim().trim_end_matches(';').trim()) {
            writeln!(writer, "OK bye")?;
            writer.flush()?;
            return Ok(());
        }
        if !run_batch(&batch, &mut vars, shared, &mut writer)? {
            return Ok(());
        }
    }
}

fn is_exit(stmt: &str) -> bool {
    stmt.eq_ignore_ascii_case("exit") || stmt.eq_ignore_ascii_case("quit")
}

/// Executes one `;`-terminated batch, writing one frame per statement.
/// Returns `Ok(false)` when the session should close.
fn run_batch(
    batch: &str,
    vars: &mut SessionVars,
    shared: &Shared,
    writer: &mut impl Write,
) -> std::io::Result<bool> {
    let statements = match parse_statements(batch) {
        Ok(statements) => statements,
        Err(errors) => {
            // One ERR per failed statement, with caret diagnostics.
            for e in errors {
                writeln!(writer, "ERR {}", escape_message(&e.render(batch)))?;
            }
            writer.flush()?;
            return Ok(true);
        }
    };
    for statement in statements {
        if shared.shutting_down.load(Ordering::SeqCst) {
            writeln!(writer, "ERR server shutting down")?;
            writer.flush()?;
            return Ok(false);
        }
        match statement {
            Statement::Set {
                name, ref value, ..
            } => match vars.set(&name.lower(), value) {
                Ok(ack) => writeln!(writer, "OK {}", escape_message(&ack))?,
                Err(e) => writeln!(writer, "ERR {}", escape_message(&e.to_string()))?,
            },
            Statement::Show { name, .. } => {
                let name = name.lower();
                let answer = if name == "tables" {
                    Ok(format!(
                        "tables: {}",
                        shared.catalog.table_names().join(", ")
                    ))
                } else if name == "admission" {
                    // Live view of the shared executor's admission gate;
                    // one with no room to queue is a rejecting one.
                    let stats = shared.executor.admission().stats();
                    let config = shared.executor.admission().config();
                    let policy = if config.queue_limit == 0 {
                        "reject"
                    } else {
                        "queue"
                    };
                    Ok(format!(
                        "admission: policy={policy} max={} running={} waiting={} \
                         admitted={} rejected={} peak_running={}",
                        config
                            .max_concurrent_queries
                            .map_or("unlimited".to_string(), |m| m.to_string()),
                        stats.running,
                        stats.waiting,
                        stats.admitted,
                        stats.rejected,
                        stats.peak_running,
                    ))
                } else {
                    vars.show(&name)
                };
                match answer {
                    Ok(ack) => writeln!(writer, "OK {}", escape_message(&ack))?,
                    Err(e) => writeln!(writer, "ERR {}", escape_message(&e.to_string()))?,
                }
            }
            Statement::Select(ref select) => {
                run_select(batch, select, vars, shared, writer)?;
            }
        }
        writer.flush()?;
    }
    Ok(true)
}

/// Analyzes, executes, and streams one SELECT.
fn run_select(
    src: &str,
    select: &accordion_sql::ast::Select,
    vars: &SessionVars,
    shared: &Shared,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let started = Instant::now();
    let plan = match Analyzer::new(&*shared.catalog, src).analyze(select) {
        Ok(plan) => plan,
        Err(e) => {
            writeln!(writer, "ERR {}", escape_message(&e.render(src)))?;
            return Ok(());
        }
    };
    let result = if vars.nodes.is_empty() {
        shared.executor.execute_logical_opts(
            &shared.catalog,
            &plan,
            &vars.optimizer(),
            &vars.exec_options(),
        )
    } else {
        // Every node plans from the text; ours above was for the caret.
        shared.run_across(&src[select.span.start..select.span.end], vars)
    };
    match result {
        Ok(result) => {
            writeln!(writer, "RESULT {}", result.schema.len())?;
            writeln!(writer, "{}", encode_header(&result.schema))?;
            let mut nrows: u64 = 0;
            // Row by row into the session's buffer — large results never
            // materialize as one string, and nothing is flushed here (see
            // the module docs): the caller does that once per response.
            let mut line = String::new();
            for page in &result.pages {
                write_rows(writer, page, &mut line)?;
                nrows += page.row_count() as u64;
            }
            let elapsed_ms = started.elapsed().as_millis() as u64;
            writeln!(writer, "END {nrows} {elapsed_ms}")?;
        }
        Err(e) => {
            writeln!(writer, "ERR {}", escape_message(&e.to_string()))?;
        }
    }
    Ok(())
}
