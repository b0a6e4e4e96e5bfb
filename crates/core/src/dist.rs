//! Process-per-node execution: worker control protocol and the fleet
//! coordinator.
//!
//! `accordion-cluster` runs a query as node `n` of `N` on a process's one
//! [`QueryExecutor`]; this module gives each node its **own OS process**
//! and carries the wire/run hand-shake between them. A fleet is one
//! coordinator plus any number of `accordion-core worker` processes. Each
//! process — worker or coordinator — builds a single executor from the
//! `ExecOptions` it was started with, so its compute slots, NIC budget,
//! admission gate and kill switch span every query and every control
//! connection it serves. Every process generates the same
//! deterministic TPC-H catalog (same scale factor and seed) and plans
//! every query independently; the coordinator cross-checks a
//! [`plan_fingerprint`] so a divergent plan fails fast instead of
//! mis-routing pages.
//!
//! ## Control protocol
//!
//! Line-oriented text over TCP, one connection per (coordinator, worker)
//! pair, serving any number of queries sequentially:
//!
//! ```text
//! worker → WORKER <page-server-addr>                       greeting
//! coord  → WIRE <q> <node> <nodes> <fp> <claim|-> <elastic> <dop>
//!               <peer0,peer1,...> <hex-sql>
//! worker → WIRED <remote-slots> | ERR <msg>                plan + wire
//! coord  → GO <q>
//! worker → OK                                              tasks started
//! coord  → JOIN <q>
//! worker → OK <ms> | ERR <msg>                             tasks done
//! coord  → BYE
//! worker → OK bye                                          connection ends
//! ```
//!
//! The SQL travels hex-encoded so statements with spaces and newlines stay
//! one token; error payloads are escaped to a single line (same escaping
//! as the query-server protocol). The two-phase WIRE/GO split matters: a
//! worker's page server must know the query's registry before **any**
//! process starts tasks, or an early page from a fast peer would be
//! rejected. `GO` is only sent once every node acknowledged `WIRE`. A
//! wired query never outlives its control session: the coordinator sends
//! `JOIN` to every worker however the query ended, and a worker whose
//! connection closes poisons and forgets whatever it left behind.
//!
//! Elastic queries name the coordinator's [`SplitServer`] in the WIRE
//! line; worker tasks then claim splits from the coordinator's shared
//! queues, which is what keeps mid-query grow/shrink lossless across
//! process boundaries.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::{
    plan_fingerprint, ClaimWiring, DistRole, NodeQuery, QueryExecutor, SplitServer,
};
use accordion_common::config::ElasticityConfig;
use accordion_common::{AccordionError, Result};
use accordion_exec::executor::{ExecOptions, QueryResult};
use accordion_net::{ExchangeRegistry, PageServer};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_sql::plan_select;
use accordion_storage::catalog::Catalog;

use crate::protocol::{escape_message, unescape_message};

fn io_err(what: &str, e: std::io::Error) -> AccordionError {
    AccordionError::Io(format!("{what}: {e}"))
}

/// Lowercase hex of `bytes` — how SQL text survives the one-token-per-field
/// control lines.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(AccordionError::Parse("odd-length hex payload".into()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| AccordionError::Parse(format!("invalid hex byte at {i}")))
        })
        .collect()
}

/// Plans `sql` exactly as every other node of the fleet does: the SQL
/// front-end's analyzer, then the optimizer at Source-stage DOP `dop`.
/// Identical catalogs + identical inputs ⇒ identical stage trees, which
/// [`plan_fingerprint`] verifies.
pub fn plan_tree(catalog: &Catalog, sql: &str, dop: u32) -> Result<Arc<StageTree>> {
    let logical = plan_select(catalog, sql)?;
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    Ok(Arc::new(StageTree::build(optimizer.optimize(&logical)?)?))
}

/// One worker process: a page server for incoming exchange frames plus a
/// control listener speaking the WIRE/GO/JOIN protocol.
pub struct Worker {
    ctrl_addr: String,
    page_addr: String,
    executor: QueryExecutor,
}

struct WorkerState {
    catalog: Arc<Catalog>,
    /// The process's one pool: every query on every control connection
    /// runs its share here.
    executor: QueryExecutor,
    pages: Arc<PageServer>,
}

/// A query between WIRE and JOIN on one control connection.
enum WiredQuery {
    Ready(Box<NodeQuery>),
    Running {
        handle: std::thread::JoinHandle<Result<Option<QueryResult>>>,
        /// Kept to poison the run if the session ends before JOIN.
        registry: Arc<ExchangeRegistry>,
        started: Instant,
    },
}

impl Worker {
    /// Binds the control listener on `listen` (port 0 for ephemeral) and
    /// the page server on an ephemeral port, then serves control
    /// connections on background threads for the life of the process.
    pub fn start(listen: &str, catalog: Arc<Catalog>, exec: ExecOptions) -> Result<Worker> {
        let pages = PageServer::bind("127.0.0.1:0")?;
        let listener = TcpListener::bind(listen).map_err(|e| io_err("worker bind", e))?;
        let ctrl_addr = listener
            .local_addr()
            .map_err(|e| io_err("worker addr", e))?
            .to_string();
        let page_addr = pages.local_addr();
        let executor = QueryExecutor::new(exec);
        let state = Arc::new(WorkerState {
            catalog,
            executor: executor.clone(),
            pages,
        });
        std::thread::Builder::new()
            .name("worker-ctrl-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(conn) = conn else { continue };
                    let state = state.clone();
                    let _ = std::thread::Builder::new()
                        .name("worker-ctrl".into())
                        .spawn(move || {
                            let _ = serve_ctrl(&state, conn);
                        });
                }
            })
            .map_err(|e| io_err("worker accept thread", e))?;
        Ok(Worker {
            ctrl_addr,
            page_addr,
            executor,
        })
    }

    /// The worker's executor (read-only use: `active_queries`, stats).
    pub fn executor(&self) -> &QueryExecutor {
        &self.executor
    }

    /// The control address — what the coordinator's `--workers` list names.
    pub fn ctrl_addr(&self) -> String {
        self.ctrl_addr.clone()
    }

    /// The page-server address (informational; the coordinator learns it
    /// from the control greeting).
    pub fn page_addr(&self) -> String {
        self.page_addr.clone()
    }
}

/// Runs one coordinator control connection to completion, then unwinds
/// whatever the session left wired: a query must not outlive the only
/// connection that could ever JOIN it.
fn serve_ctrl(state: &WorkerState, conn: TcpStream) -> std::io::Result<()> {
    let mut wired = HashMap::new();
    let outcome = ctrl_session(state, conn, &mut wired);
    for (query, orphan) in wired {
        // Dropping a `Ready` query releases its wiring; a running one is
        // poisoned so its parked tasks unwind, then joined.
        if let WiredQuery::Running {
            handle, registry, ..
        } = orphan
        {
            registry.poison(AccordionError::Execution(format!(
                "coordinator session ended before query {query} was joined"
            )));
            let _ = handle.join();
        }
        state.pages.unregister(query);
    }
    outcome
}

fn ctrl_session(
    state: &WorkerState,
    conn: TcpStream,
    wired: &mut HashMap<u64, WiredQuery>,
) -> std::io::Result<()> {
    conn.set_nodelay(true).ok();
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    writeln!(writer, "WORKER {}", state.pages.local_addr())?;
    writer.flush()?;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let reply = match fields.as_slice() {
            ["BYE"] => {
                writeln!(writer, "OK bye")?;
                writer.flush()?;
                return Ok(());
            }
            ["WIRE", rest @ ..] => match handle_wire(state, rest) {
                Ok((query, nq)) => {
                    let slots = nq.remote_slots();
                    wired.insert(query, WiredQuery::Ready(Box::new(nq)));
                    format!("WIRED {slots}")
                }
                Err(e) => format!("ERR {}", escape_message(&e.to_string())),
            },
            ["GO", q] => match q.parse().ok().and_then(|q| Some((q, wired.remove(&q)?))) {
                Some((query, WiredQuery::Ready(nq))) => {
                    let registry = nq.registry().clone();
                    let started = Instant::now();
                    let handle = std::thread::Builder::new()
                        .name(format!("worker-query-{query}"))
                        .spawn(move || nq.run())?;
                    wired.insert(
                        query,
                        WiredQuery::Running {
                            handle,
                            registry,
                            started,
                        },
                    );
                    "OK".to_string()
                }
                Some((query, running)) => {
                    wired.insert(query, running);
                    format!("ERR query {query} is already running")
                }
                None => format!("ERR query {q} is not wired"),
            },
            ["JOIN", q] => {
                let reply = match q.parse::<u64>().ok().and_then(|q| wired.remove(&q)) {
                    Some(WiredQuery::Running {
                        handle, started, ..
                    }) => match handle.join() {
                        Ok(Ok(_)) => format!("OK {}", started.elapsed().as_millis()),
                        Ok(Err(e)) => format!("ERR {}", escape_message(&e.to_string())),
                        Err(_) => "ERR worker query thread panicked".to_string(),
                    },
                    Some(WiredQuery::Ready(_)) => format!("ERR query {q} was never started"),
                    None => format!("ERR query {q} is not running"),
                };
                if let Ok(q) = q.parse::<u64>() {
                    state.pages.unregister(q);
                }
                reply
            }
            _ => format!("ERR unknown control command: {}", line.trim()),
        };
        writeln!(writer, "{reply}")?;
        writer.flush()?;
    }
}

/// Parses one WIRE line (sans the `WIRE` token), plans the query, checks
/// the fingerprint, and wires this node's share.
fn handle_wire(state: &WorkerState, fields: &[&str]) -> Result<(u64, NodeQuery)> {
    let [query, node, nodes, fp, claim, elastic, dop, peers, hexsql] = fields else {
        return Err(AccordionError::Parse(format!(
            "malformed WIRE line: expected 9 fields, got {}",
            fields.len()
        )));
    };
    let parse_u64 = |s: &str, what: &str| {
        s.parse::<u64>()
            .map_err(|_| AccordionError::Parse(format!("invalid {what}: '{s}'")))
    };
    let query = parse_u64(query, "query id")?;
    let node = parse_u64(node, "node id")? as u32;
    let nodes = parse_u64(nodes, "node count")? as u32;
    let fp = u64::from_str_radix(fp, 16)
        .map_err(|_| AccordionError::Parse(format!("invalid fingerprint: '{fp}'")))?;
    let dop = parse_u64(dop, "dop")? as u32;
    let sql = String::from_utf8(from_hex(hexsql)?)
        .map_err(|_| AccordionError::Parse("WIRE sql is not UTF-8".into()))?;
    let peers: Vec<String> = peers.split(',').map(str::to_string).collect();
    let mut exec = state.executor.options().clone();
    exec.elasticity = ElasticityConfig {
        mode: ElasticityConfig::try_parse_mode(elastic)?,
        ..ElasticityConfig::default()
    };
    let tree = plan_tree(&state.catalog, &sql, dop)?;
    let local_fp = plan_fingerprint(&tree);
    if local_fp != fp {
        return Err(AccordionError::Execution(format!(
            "plan fingerprint mismatch for query {query}: coordinator {fp:016x}, \
             this node {local_fp:016x} — catalogs or planner versions diverge"
        )));
    }
    let role = DistRole { node, nodes, peers };
    // `-` (no elastic stage anywhere in the fleet) is never dialled.
    let wiring = ClaimWiring::Connect(claim.to_string());
    let nq = state
        .executor
        .wire(state.catalog.clone(), tree, &exec, role, query, wiring)?;
    state.pages.register(query, nq.registry().clone());
    Ok((query, nq))
}

/// One distributed query's outcome on the coordinator.
pub struct DistributedRun {
    pub result: QueryResult,
    /// Cross-process consumer slots across the whole fleet — at least one
    /// in any genuinely distributed plan.
    pub remote_slots: usize,
    pub elapsed_ms: u64,
}

/// One control connection to a worker process.
struct Link {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    page_addr: String,
}

impl Link {
    fn connect(addr: &str, timeout_ms: u64) -> Result<Link> {
        let sock: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| AccordionError::Parse(format!("bad worker address {addr:?}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sock, Duration::from_millis(timeout_ms.max(1)))
            .map_err(|e| io_err(&format!("connect to worker {addr}"), e))?;
        stream.set_nodelay(true).ok();
        let mut link = Link {
            reader: BufReader::new(stream.try_clone().map_err(|e| io_err("clone", e))?),
            writer: stream,
            page_addr: String::new(),
        };
        let greeting = link.read_reply()?;
        match greeting.strip_prefix("WORKER ") {
            Some(addr) => link.page_addr = addr.trim().to_string(),
            None => {
                return Err(AccordionError::Io(format!(
                    "worker {addr} sent an unexpected greeting: {greeting}"
                )))
            }
        }
        Ok(link)
    }

    fn request(&mut self, line: &str) -> Result<String> {
        writeln!(self.writer, "{line}").map_err(|e| io_err("worker send", e))?;
        self.writer.flush().map_err(|e| io_err("worker flush", e))?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| io_err("worker read", e))?;
        if n == 0 {
            return Err(AccordionError::Io("worker closed the connection".into()));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends a request whose reply must not be `ERR`; unescapes errors.
    fn expect_ok(&mut self, line: &str) -> Result<String> {
        let reply = self.request(line)?;
        match reply.strip_prefix("ERR ") {
            Some(msg) => Err(AccordionError::Execution(unescape_message(msg))),
            None => Ok(reply),
        }
    }
}

/// The coordinator's handle on a fleet of worker processes. Node 0 runs in
/// this process; each worker is one more node, in `--workers` order.
pub struct Fleet {
    links: Vec<Link>,
    pages: Arc<PageServer>,
    splits: Arc<SplitServer>,
    peers: Vec<String>,
    catalog: Arc<Catalog>,
    /// Node 0's pool; its admission gate and fleet arbiter speak for the
    /// whole distributed query.
    executor: QueryExecutor,
    elastic_arg: String,
    dop: u32,
    next_query: u64,
}

impl Fleet {
    /// Connects to every worker's control address and binds this node's
    /// page and split-claim servers. `elasticity` is the mode string every
    /// node parses identically (e.g. `off`, `forced-grow`, `auto:2000`).
    pub fn connect(
        workers: &[String],
        catalog: Arc<Catalog>,
        mut exec: ExecOptions,
        elasticity: &str,
        dop: u32,
    ) -> Result<Fleet> {
        exec.elasticity = ElasticityConfig {
            mode: ElasticityConfig::try_parse_mode(elasticity)?,
            ..ElasticityConfig::default()
        };
        let pages = PageServer::bind("127.0.0.1:0")?;
        let splits = SplitServer::bind("127.0.0.1:0")?;
        let mut links = Vec::with_capacity(workers.len());
        for addr in workers {
            links.push(Link::connect(addr, exec.network.connect_timeout_ms)?);
        }
        let mut peers = vec![pages.local_addr()];
        peers.extend(links.iter().map(|l| l.page_addr.clone()));
        Ok(Fleet {
            links,
            pages,
            splits,
            peers,
            catalog,
            executor: QueryExecutor::new(exec),
            elastic_arg: elasticity.to_string(),
            dop,
            next_query: 1,
        })
    }

    /// Fleet size, coordinator included.
    pub fn nodes(&self) -> u32 {
        self.links.len() as u32 + 1
    }

    /// Plans, wires, and runs one SELECT across every node of the fleet,
    /// returning the coordinator-side result.
    pub fn run_sql(&mut self, sql: &str) -> Result<DistributedRun> {
        let query = self.next_query;
        self.next_query += 1;
        let outcome = self.run_query(query, sql);
        self.pages.unregister(query);
        self.splits.unregister_query(query);
        outcome
    }

    fn run_query(&mut self, query: u64, sql: &str) -> Result<DistributedRun> {
        let started = Instant::now();
        let tree = plan_tree(&self.catalog, sql, self.dop)?;
        let fp = plan_fingerprint(&tree);
        let exec = self.executor.options();
        let claim = if exec.elasticity.enabled() {
            self.splits.local_addr()
        } else {
            "-".to_string()
        };
        let nodes = self.nodes();
        // Node 0 wires first: a query the admission gate turns away never
        // reaches a worker.
        let nq = self.executor.wire(
            self.catalog.clone(),
            tree,
            exec,
            DistRole {
                node: 0,
                nodes,
                peers: self.peers.clone(),
            },
            query,
            ClaimWiring::Serve(&self.splits),
        )?;
        let registry = nq.registry().clone();
        self.pages.register(query, registry.clone());
        let mut remote_slots = nq.remote_slots();
        let wire_tail = format!(
            "{nodes} {fp:016x} {claim} {} {} {} {}",
            self.elastic_arg,
            self.dop,
            self.peers.join(","),
            to_hex(sql.as_bytes())
        );
        let run = (|| {
            for (i, link) in self.links.iter_mut().enumerate() {
                let node = i + 1;
                let reply = link.expect_ok(&format!("WIRE {query} {node} {wire_tail}"))?;
                match reply.strip_prefix("WIRED ").map(str::parse::<usize>) {
                    Some(Ok(slots)) => remote_slots += slots,
                    _ => {
                        return Err(AccordionError::Io(format!(
                            "worker {node} answered WIRE with: {reply}"
                        )))
                    }
                }
            }
            for link in self.links.iter_mut() {
                link.expect_ok(&format!("GO {query}"))?;
            }
            nq.run()
        })();
        if let Err(e) = &run {
            // Workers already told to GO are parked on pages this node will
            // never send; the poison reaches them through the page servers.
            registry.poison(e.clone());
        }
        // Reap every worker however the query ended — one that answered
        // WIRED holds the query until it is JOINed (one that never did just
        // says so), and a worker's error is the root cause when the
        // coordinator only saw the poison.
        let mut worker_err = None;
        for link in self.links.iter_mut() {
            if let Err(e) = link.expect_ok(&format!("JOIN {query}")) {
                worker_err.get_or_insert(e);
            }
        }
        let result = run?
            .ok_or_else(|| AccordionError::Internal("coordinator run returned no result".into()))?;
        if let Some(e) = worker_err {
            return Err(e);
        }
        Ok(DistributedRun {
            result,
            remote_slots,
            elapsed_ms: started.elapsed().as_millis() as u64,
        })
    }

    /// Politely ends every control session and stops the local servers.
    /// Worker processes stay alive for the next coordinator.
    pub fn shutdown(mut self) {
        for link in self.links.iter_mut() {
            let _ = link.request("BYE");
        }
        self.pages.shutdown();
        self.splits.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let sql = "SELECT * FROM t WHERE a = 'x y';\n-- comment";
        let hex = to_hex(sql.as_bytes());
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(from_hex(&hex).unwrap(), sql.as_bytes());
        assert!(from_hex("abc").is_err(), "odd length rejected");
        assert!(from_hex("zz").is_err(), "non-hex rejected");
    }
}
