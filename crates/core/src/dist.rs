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
//! [`CtrlMsg`] frames on the node-to-node framing of `accordion_net::frame`
//! (kinds 8–14 plus the shared ACK and ERR; the kind table there has the
//! layouts), one connection per (coordinator, worker) pair, serving any
//! number of queries sequentially:
//!
//! ```text
//! worker → WORKER page-server address                      greeting
//! coord  → WIRE   query, node, nodes, fingerprint, dop, claim address,
//!                 elasticity mode, peers, sql
//! worker → WIRED  remote slots | ERR message               plan + wire
//! coord  → GO     query
//! worker → ACK                                             tasks started
//! coord  → JOIN   query
//! worker → DONE   elapsed ms | ERR message                 tasks done
//! coord  → BYE
//! worker → ACK                                             connection ends
//! ```
//!
//! Strings travel length-prefixed, so SQL and error text need no escaping.
//! The two-phase WIRE/GO split matters: a worker's page server must know
//! the query's registry before **any** process starts tasks, or an early
//! page from a fast peer would be rejected. `GO` is only sent once every
//! node acknowledged `WIRE`. A wired query never outlives its control
//! session: the coordinator sends `JOIN` to every worker however the query
//! ended, and a worker whose connection closes poisons and forgets whatever
//! it left behind.
//!
//! Elastic queries name the coordinator's [`SplitServer`] in the WIRE
//! message; worker tasks then claim splits from the coordinator's shared
//! queues, which is what keeps mid-query grow/shrink lossless across
//! process boundaries.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::{
    plan_fingerprint, ClaimWiring, DistRole, NodeQuery, QueryExecutor, SplitServer,
};
use accordion_common::config::ElasticityConfig;
use accordion_common::{AccordionError, Result};
use accordion_exec::executor::{ExecOptions, QueryResult};
use accordion_net::frame::{kind, listen, Cursor, Frame, FrameConn, Listener, Payload};
use accordion_net::{ExchangeRegistry, PageServer};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_sql::plan_select;
use accordion_storage::catalog::Catalog;

/// The coordinator ↔ worker control conversation — kinds 8–14 of the
/// node-to-node kind table (`accordion_net::frame`) plus the shared ACK. A
/// request that fails is answered with an ERR frame instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// The worker's greeting: where its page server listens.
    Worker { page_addr: String },
    /// Plan `sql` at `dop`, check it against `fingerprint`, and wire this
    /// node's share as node `node` of `nodes`.
    Wire {
        query: u64,
        node: u32,
        nodes: u32,
        fingerprint: u64,
        dop: u32,
        /// The coordinator's split-claim service; empty (and never
        /// dialled) when no stage of the query is elastic.
        claim: String,
        /// The elasticity mode string every node parses identically.
        elasticity: String,
        /// Page-server address of every node, indexed by node id.
        peers: Vec<String>,
        sql: String,
    },
    /// WIRE succeeded; this node reaches `remote_slots` cross-process slots.
    Wired { remote_slots: u32 },
    /// Start the wired query's tasks.
    Go { query: u64 },
    /// Wait for the query's tasks and forget it.
    Join { query: u64 },
    /// JOIN succeeded after this long.
    Done { elapsed_ms: u64 },
    /// End the session.
    Bye,
    /// GO and BYE succeeded.
    Ack,
}

impl CtrlMsg {
    /// This message as a frame.
    pub fn encode(&self) -> Frame {
        let p = Payload::default();
        match self {
            CtrlMsg::Worker { page_addr } => (kind::WORKER, p.str(page_addr).0),
            CtrlMsg::Wire {
                query,
                node,
                nodes,
                fingerprint,
                dop,
                claim,
                elasticity,
                peers,
                sql,
            } => {
                let p = p.u64(*query).u32(*node).u32(*nodes).u64(*fingerprint);
                let p = p.u32(*dop).str(claim).str(elasticity);
                let p = peers
                    .iter()
                    .fold(p.u32(peers.len() as u32), |p, a| p.str(a));
                (kind::WIRE, p.str(sql).0)
            }
            CtrlMsg::Wired { remote_slots } => (kind::WIRED, p.u32(*remote_slots).0),
            CtrlMsg::Go { query } => (kind::GO, p.u64(*query).0),
            CtrlMsg::Join { query } => (kind::JOIN, p.u64(*query).0),
            CtrlMsg::Done { elapsed_ms } => (kind::DONE, p.u64(*elapsed_ms).0),
            CtrlMsg::Bye => (kind::BYE, p.0),
            CtrlMsg::Ack => (kind::ACK, p.0),
        }
    }

    /// Inverse of [`encode`](Self::encode); anything else is a typed error.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<CtrlMsg> {
        let mut c = Cursor::new(payload);
        let msg = match kind {
            kind::WORKER => CtrlMsg::Worker {
                page_addr: c.str()?.to_string(),
            },
            kind::WIRE => CtrlMsg::Wire {
                query: c.u64()?,
                node: c.u32()?,
                nodes: c.u32()?,
                fingerprint: c.u64()?,
                dop: c.u32()?,
                claim: c.str()?.to_string(),
                elasticity: c.str()?.to_string(),
                peers: {
                    // Grown one by one: the count is only the sender's
                    // word, the payload running out is the bound.
                    let mut peers = Vec::new();
                    for _ in 0..c.u32()? {
                        peers.push(c.str()?.to_string());
                    }
                    peers
                },
                sql: c.str()?.to_string(),
            },
            kind::WIRED => CtrlMsg::Wired {
                remote_slots: c.u32()?,
            },
            kind::GO => CtrlMsg::Go { query: c.u64()? },
            kind::JOIN => CtrlMsg::Join { query: c.u64()? },
            kind::DONE => CtrlMsg::Done {
                elapsed_ms: c.u64()?,
            },
            kind::BYE => CtrlMsg::Bye,
            kind::ACK => CtrlMsg::Ack,
            other => {
                return Err(AccordionError::Wire(format!(
                    "frame kind {other} is not a control message"
                )))
            }
        };
        c.finish()?;
        Ok(msg)
    }
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
/// control listener speaking the WIRE/GO/JOIN protocol. Dropping it
/// releases both ports.
pub struct Worker {
    ctrl: Listener,
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
    /// connections on background threads for the life of the `Worker`.
    pub fn start(addr: &str, catalog: Arc<Catalog>, exec: ExecOptions) -> Result<Worker> {
        let pages = PageServer::bind("127.0.0.1:0")?;
        let page_addr = pages.local_addr();
        let executor = QueryExecutor::new(exec);
        let state = WorkerState {
            catalog,
            executor: executor.clone(),
            pages,
        };
        let ctrl = listen(addr, "worker-ctrl", move |conn| serve_ctrl(&state, conn))?;
        Ok(Worker {
            ctrl,
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
        self.ctrl.local_addr()
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
fn serve_ctrl(state: &WorkerState, conn: &mut FrameConn) -> Result<()> {
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
    conn: &mut FrameConn,
    wired: &mut HashMap<u64, WiredQuery>,
) -> Result<()> {
    let page_addr = state.pages.local_addr();
    conn.send(CtrlMsg::Worker { page_addr }.encode())?;
    while let Some((kind, payload)) = conn.recv()? {
        let request = CtrlMsg::decode(kind, &payload);
        let bye = matches!(request, Ok(CtrlMsg::Bye));
        let reply = request.and_then(|msg| handle_ctrl(state, wired, msg));
        conn.respond(reply.map(|msg| msg.encode()))?;
        if bye {
            break;
        }
    }
    Ok(())
}

/// Answers one control request; an `Err` travels back as an ERR frame and
/// the session goes on.
fn handle_ctrl(
    state: &WorkerState,
    wired: &mut HashMap<u64, WiredQuery>,
    request: CtrlMsg,
) -> Result<CtrlMsg> {
    let refuse = |msg: String| Err(AccordionError::Execution(msg));
    match request {
        CtrlMsg::Bye => Ok(CtrlMsg::Ack),
        CtrlMsg::Wire {
            query,
            node,
            nodes,
            fingerprint,
            dop,
            claim,
            elasticity,
            peers,
            sql,
        } => {
            let mut exec = state.executor.options().clone();
            exec.elasticity = ElasticityConfig {
                mode: ElasticityConfig::try_parse_mode(&elasticity)?,
            };
            let tree = plan_tree(&state.catalog, &sql, dop)?;
            let local = plan_fingerprint(&tree);
            if local != fingerprint {
                return refuse(format!(
                    "plan fingerprint mismatch for query {query}: coordinator \
                     {fingerprint:016x}, this node {local:016x} — catalogs or planner \
                     versions diverge"
                ));
            }
            let role = DistRole { node, nodes, peers };
            let wiring = ClaimWiring::Connect(claim);
            let nq =
                state
                    .executor
                    .wire(state.catalog.clone(), tree, &exec, role, query, wiring)?;
            state.pages.register(query, nq.registry().clone());
            let remote_slots = nq.remote_slots() as u32;
            wired.insert(query, WiredQuery::Ready(Box::new(nq)));
            Ok(CtrlMsg::Wired { remote_slots })
        }
        CtrlMsg::Go { query } => match wired.remove(&query) {
            Some(WiredQuery::Ready(nq)) => {
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
                Ok(CtrlMsg::Ack)
            }
            Some(running) => {
                wired.insert(query, running);
                refuse(format!("query {query} is already running"))
            }
            None => refuse(format!("query {query} is not wired")),
        },
        CtrlMsg::Join { query } => {
            let reply = match wired.remove(&query) {
                Some(WiredQuery::Running {
                    handle, started, ..
                }) => match handle.join() {
                    Ok(run) => run.map(|_| CtrlMsg::Done {
                        elapsed_ms: started.elapsed().as_millis() as u64,
                    }),
                    Err(_) => refuse("worker query thread panicked".into()),
                },
                Some(WiredQuery::Ready(_)) => refuse(format!("query {query} was never started")),
                None => refuse(format!("query {query} is not running")),
            };
            state.pages.unregister(query);
            reply
        }
        other => refuse(format!("unexpected control message: {other:?}")),
    }
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
    conn: FrameConn,
    page_addr: String,
}

impl Link {
    fn connect(addr: &str, timeout_ms: u64) -> Result<Link> {
        let mut conn = FrameConn::connect(addr, Duration::from_millis(timeout_ms))?;
        let (kind, payload) = conn.reply()?;
        match CtrlMsg::decode(kind, &payload)? {
            CtrlMsg::Worker { page_addr } => Ok(Link { conn, page_addr }),
            other => Err(AccordionError::Io(format!(
                "worker {addr} sent an unexpected greeting: {other:?}"
            ))),
        }
    }

    /// One request, one reply; the worker's ERR is the returned error.
    fn call(&mut self, request: &CtrlMsg) -> Result<CtrlMsg> {
        let (kind, payload) = self.conn.call(request.encode())?;
        CtrlMsg::decode(kind, &payload)
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
    /// Binds this node's page and split-claim servers and connects to every
    /// worker's control address; a worker that cannot be reached fails the
    /// whole call and leaves nothing bound behind. `elasticity` is the mode string every
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
            String::new()
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
        let run = (|| {
            for (i, link) in self.links.iter_mut().enumerate() {
                let node = i as u32 + 1;
                let wire = CtrlMsg::Wire {
                    query,
                    node,
                    nodes,
                    fingerprint: fp,
                    dop: self.dop,
                    claim: claim.clone(),
                    elasticity: self.elastic_arg.clone(),
                    peers: self.peers.clone(),
                    sql: sql.to_string(),
                };
                match link.call(&wire)? {
                    CtrlMsg::Wired {
                        remote_slots: slots,
                    } => remote_slots += slots as usize,
                    other => {
                        return Err(AccordionError::Io(format!(
                            "worker {node} answered WIRE with: {other:?}"
                        )))
                    }
                }
            }
            for link in self.links.iter_mut() {
                link.call(&CtrlMsg::Go { query })?;
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
            if let Err(e) = link.call(&CtrlMsg::Join { query }) {
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

    /// Politely ends every control session; dropping `self` then releases
    /// the local servers' ports. Worker processes stay alive for the next
    /// coordinator.
    pub fn shutdown(mut self) {
        for link in self.links.iter_mut() {
            let _ = link.call(&CtrlMsg::Bye);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(claim: &str, peers: &[&str], sql: &str) -> CtrlMsg {
        CtrlMsg::Wire {
            query: 7,
            node: 1,
            nodes: 2,
            fingerprint: 0xdead_beef_0123_4567,
            dop: 4,
            claim: claim.into(),
            elasticity: "auto:2000".into(),
            peers: peers.iter().map(|p| p.to_string()).collect(),
            sql: sql.into(),
        }
    }

    #[test]
    fn control_messages_round_trip_and_every_prefix_is_a_typed_error() {
        let messages = [
            CtrlMsg::Worker {
                page_addr: "127.0.0.1:4000".into(),
            },
            wire(
                "127.0.0.1:9",
                &["127.0.0.1:1", "127.0.0.1:2"],
                "SELECT * FROM t WHERE a = 'x y' AND b = \"q\";\n-- naïve ✓ comment",
            ),
            wire("", &[], ""),
            CtrlMsg::Wired { remote_slots: 3 },
            CtrlMsg::Go { query: u64::MAX },
            CtrlMsg::Join { query: 0 },
            CtrlMsg::Done { elapsed_ms: 12 },
            CtrlMsg::Bye,
            CtrlMsg::Ack,
        ];
        for msg in messages {
            let (kind, payload) = msg.encode();
            assert_eq!(CtrlMsg::decode(kind, &payload).unwrap(), msg);
            for cut in 0..payload.len() {
                let err = CtrlMsg::decode(kind, &payload[..cut]).unwrap_err();
                assert!(
                    matches!(err, AccordionError::Wire(_)),
                    "{msg:?}@{cut}: {err}"
                );
            }
            let mut long = payload.clone();
            long.push(0);
            assert!(CtrlMsg::decode(kind, &long).is_err(), "{msg:?}: trailing");
        }
        assert!(CtrlMsg::decode(kind::CLAIM, &[]).is_err(), "foreign kind");
    }

    #[test]
    fn a_peer_count_is_not_an_allocation_size() {
        // WIRE claiming four billion peers in a 41-byte payload: the decoder
        // runs out of bytes, not out of memory.
        let (kind, mut payload) = wire("", &[], "").encode();
        let count_at = 8 + 4 + 4 + 8 + 4 + 4 + 4 + "auto:2000".len();
        payload[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = CtrlMsg::decode(kind, &payload).unwrap_err();
        assert!(matches!(err, AccordionError::Wire(_)), "{err}");
    }
}
