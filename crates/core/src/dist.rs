//! Process-per-node execution: the node, its control protocol and the
//! fleet coordinator.
//!
//! `accordion-cluster` runs a query as node `n` of `N` on a process's one
//! [`QueryExecutor`]; this module gives each node its **own OS process**
//! and carries the wire/run hand-shake between them. A node is a
//! [`Worker`]: **one address** — one listener serving exchange pages, split
//! claims and control sessions, told apart by the first frame of each
//! connection — in front of one executor, so the process's compute slots,
//! admission gate and kill switch span every query and every
//! connection it serves. The coordinator is a node too, the one nobody has
//! wired, driving the others through a [`Fleet`]: a query-server session
//! with `SET nodes` does that on the server's own executor. Every process
//! generates the same deterministic TPC-H catalog (same scale factor and
//! seed) and plans every query independently; the coordinator cross-checks
//! a [`plan_fingerprint`] so a divergent plan fails fast instead of
//! mis-routing pages.
//!
//! ## Control protocol
//!
//! [`CtrlMsg`] frames on the node-to-node framing of `accordion_net::frame`
//! (kinds 8–12 plus the shared ACK and ERR; the kind table there has the
//! layouts), one connection per (coordinator, worker) pair, opened by its
//! first WIRE and serving any number of queries sequentially:
//!
//! ```text
//! coord  → WIRE   query, node, nodes, fingerprint, dop, elasticity mode,
//!                 peers, sql
//! worker → WIRED  remote slots | ERR message               plan + wire
//! coord  → GO     query
//! worker → ACK                                             tasks started
//! coord  → JOIN   query
//! worker → DONE   elapsed ms | ERR message                 tasks done
//! ```
//!
//! Strings travel length-prefixed, so SQL and error text need no escaping.
//! `peers` is `[coordinator] + workers`, every node's one address. The
//! two-phase WIRE/GO split matters: a worker must know the query's registry
//! before **any** process starts tasks, or an early page from a fast peer
//! would be rejected. `GO` is only sent once every node acknowledged
//! `WIRE`. A wired query never outlives its control session: the
//! coordinator sends `JOIN` to every worker however the query ended, and a
//! worker whose connection closes — which is how a session ends — poisons
//! and forgets whatever it left behind. Every worker task that scans claims
//! its splits from the coordinator's shared queues at `peers[0]`, in every
//! elasticity mode, which keeps mid-query grow/shrink lossless across
//! process boundaries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::{
    plan_fingerprint, ClaimWiring, DistRole, NodeQuery, QueryExecutor, SplitQueues,
};
use accordion_common::config::ElasticityConfig;
use accordion_common::{fnv1a, AccordionError, Result};
use accordion_exec::executor::{ExecOptions, QueryResult};
use accordion_net::frame::{
    kind, listen, Conversation, Cursor, Frame, FrameConn, Listener, Payload,
};
use accordion_net::{ExchangeRegistry, PageRegistries};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_sql::plan_select;
use accordion_storage::catalog::Catalog;

/// The coordinator ↔ worker control conversation — kinds 8–12 of the
/// node-to-node kind table (`accordion_net::frame`) plus the shared ACK. A
/// request that fails is answered with an ERR frame instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Plan `sql` at `dop`, check it against `fingerprint`, and wire this
    /// node's share as node `node` of `nodes`.
    Wire {
        query: u64,
        node: u32,
        nodes: u32,
        fingerprint: u64,
        dop: u32,
        /// The elasticity mode string every node parses identically.
        elasticity: String,
        /// The address of every node, indexed by node id; `peers[0]`
        /// serves the query's split claims.
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
    /// GO succeeded.
    Ack,
}

impl CtrlMsg {
    /// This message as a frame.
    pub fn encode(&self) -> Frame {
        let p = Payload::default();
        match self {
            CtrlMsg::Wire {
                query,
                node,
                nodes,
                fingerprint,
                dop,
                elasticity,
                peers,
                sql,
            } => {
                let p = p.u64(*query).u32(*node).u32(*nodes).u64(*fingerprint);
                let p = p.u32(*dop).str(elasticity);
                let p = peers
                    .iter()
                    .fold(p.u32(peers.len() as u32), |p, a| p.str(a));
                (kind::WIRE, p.str(sql).0)
            }
            CtrlMsg::Wired { remote_slots } => (kind::WIRED, p.u32(*remote_slots).0),
            CtrlMsg::Go { query } => (kind::GO, p.u64(*query).0),
            CtrlMsg::Join { query } => (kind::JOIN, p.u64(*query).0),
            CtrlMsg::Done { elapsed_ms } => (kind::DONE, p.u64(*elapsed_ms).0),
            CtrlMsg::Ack => (kind::ACK, p.0),
        }
    }

    /// Inverse of [`encode`](Self::encode); anything else is a typed error.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<CtrlMsg> {
        let mut c = Cursor::new(payload);
        let msg = match kind {
            kind::WIRE => CtrlMsg::Wire {
                query: c.u64()?,
                node: c.u32()?,
                nodes: c.u32()?,
                fingerprint: c.u64()?,
                dop: c.u32()?,
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

/// One node: a single listener serving page streams, split claims and
/// WIRE/GO/JOIN control sessions in front of one executor. A node somebody
/// wires is a worker; one that wires others (through a [`Fleet`]) is their
/// coordinator, and the same node may be both at once. Dropping it releases
/// its port.
pub struct Worker {
    listener: Listener,
    state: Arc<NodeState>,
}

/// What a node's three conversations share.
struct NodeState {
    catalog: Arc<Catalog>,
    /// The process's one pool: every query on every connection runs its
    /// share here.
    executor: QueryExecutor,
    pages: Arc<PageRegistries>,
    splits: Arc<SplitQueues>,
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

/// Low half of every query id this process hands out.
static NEXT_QUERY: AtomicU64 = AtomicU64::new(1);

impl Worker {
    /// Binds `addr` (port 0 for ephemeral) and serves it on background
    /// threads, on an executor of the node's own, for the life of the
    /// `Worker`.
    pub fn start(addr: &str, catalog: Arc<Catalog>, exec: ExecOptions) -> Result<Worker> {
        Worker::with_executor(addr, catalog, QueryExecutor::new(exec))
    }

    /// [`start`](Self::start) on an executor the process already has — a
    /// query server's, whose sessions then coordinate on the pool, gate and
    /// kill switch their local queries use.
    pub fn with_executor(
        addr: &str,
        catalog: Arc<Catalog>,
        executor: QueryExecutor,
    ) -> Result<Worker> {
        let state = Arc::new(NodeState {
            catalog,
            executor,
            pages: Arc::default(),
            splits: Arc::default(),
        });
        let ctrl = state.clone();
        let routes = vec![
            state.pages.route(),
            state.splits.route(),
            (
                kind::WIRE,
                Box::new(move |conn, wire| serve_ctrl(&ctrl, conn, wire)),
            ),
        ];
        let listener = listen(addr, "node", routes)?;
        Ok(Worker { listener, state })
    }

    /// The node's executor (read-only use: `active_queries`, stats).
    pub fn executor(&self) -> &QueryExecutor {
        &self.state.executor
    }

    /// The node's one address: what a coordinator's worker list, `SET
    /// nodes` and every `peers` entry name.
    pub fn ctrl_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// An id for a query this node coordinates. Workers key what they wire
    /// by id alone, whoever wired it, so no two coordinators may hand out
    /// the same one: the high half of this node's address hashed (FNV-1a),
    /// a process-wide counter in the low half.
    fn next_query(&self) -> u64 {
        let node = fnv1a(self.ctrl_addr().as_bytes()) & !0xffff_ffff;
        node | (NEXT_QUERY.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff)
    }
}

/// Runs one coordinator control connection, opened by the WIRE in `first`,
/// to completion, then unwinds whatever the session left wired: a query
/// must not outlive the only connection that could ever JOIN it.
fn serve_ctrl(state: &NodeState, conn: &mut FrameConn, first: Vec<u8>) -> Result<()> {
    let mut wired = HashMap::new();
    let outcome = (|| {
        let mut next = Some((kind::WIRE, first));
        while let Some((kind, payload)) = next {
            let request = CtrlMsg::decode(kind, &payload);
            let reply = request.and_then(|msg| handle_ctrl(state, &mut wired, msg));
            conn.respond(reply.map(|msg| msg.encode()))?;
            next = conn.recv()?;
        }
        Ok(())
    })();
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

/// Answers one control request; an `Err` travels back as an ERR frame and
/// the session goes on.
fn handle_ctrl(
    state: &NodeState,
    wired: &mut HashMap<u64, WiredQuery>,
    request: CtrlMsg,
) -> Result<CtrlMsg> {
    let refuse = |msg: String| Err(AccordionError::Execution(msg));
    match request {
        CtrlMsg::Wire {
            query,
            node,
            nodes,
            fingerprint,
            dop,
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
            let (catalog, role) = (&state.catalog, DistRole { node, nodes, peers });
            let nq =
                state
                    .executor
                    .wire(catalog, tree, &exec, role, query, ClaimWiring::Connect)?;
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

/// One request on a control connection, one reply; the worker's ERR is the
/// returned error.
fn call(link: &mut FrameConn, request: &CtrlMsg) -> Result<CtrlMsg> {
    let (kind, payload) = link.call(request.encode())?;
    CtrlMsg::decode(kind, &payload)
}

/// A coordinating node's handle on a fleet of workers: node 0 is `node`,
/// in this process; each worker is one more node, in list order, behind
/// one control connection.
pub struct Fleet {
    /// Node 0. Its executor's admission gate speaks for the whole
    /// distributed query.
    node: Arc<Worker>,
    links: Vec<FrameConn>,
    peers: Vec<String>,
    /// Per-query options on every node's executor: page size, network
    /// shape and the elasticity mode WIRE carries.
    exec: ExecOptions,
    dop: u32,
}

impl Fleet {
    /// A fleet coordinated by a node of its own — bound on an ephemeral
    /// port, with an executor built from `exec` — over `workers`;
    /// `elasticity` is a mode string (e.g. `off`, `forced-grow`,
    /// `auto:2000`).
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
        let node = Arc::new(Worker::start("127.0.0.1:0", catalog, exec.clone())?);
        Fleet::over(node, workers, exec, dop)
    }

    /// A fleet coordinated by `node` over the nodes at `workers`, planning
    /// at `dop` and running under `exec`. A worker that cannot be reached
    /// within `connect_timeout_ms` fails the whole call, naming it.
    pub fn over(
        node: Arc<Worker>,
        workers: &[String],
        exec: ExecOptions,
        dop: u32,
    ) -> Result<Fleet> {
        let mut peers = vec![node.ctrl_addr()];
        peers.extend_from_slice(workers);
        // A node keys a query's registry by its id: it can hold one share.
        if let Some(twice) = (1..peers.len()).find(|&i| peers[..i].contains(&peers[i])) {
            return Err(AccordionError::Execution(format!(
                "node {} is in the fleet twice",
                peers[twice]
            )));
        }
        let timeout = Duration::from_millis(exec.network.connect_timeout_ms);
        let links = workers
            .iter()
            .map(|addr| FrameConn::connect(addr, timeout))
            .collect::<Result<_>>()?;
        Ok(Fleet {
            node,
            links,
            peers,
            exec,
            dop,
        })
    }

    /// Fleet size, coordinator included.
    pub fn nodes(&self) -> u32 {
        self.peers.len() as u32
    }

    /// Plans, wires, and runs one SELECT across every node of the fleet,
    /// returning the coordinator-side result.
    pub fn run_sql(&mut self, sql: &str) -> Result<DistributedRun> {
        let query = self.node.next_query();
        let outcome = self.run_query(query, sql);
        self.node.state.pages.unregister(query);
        self.node.state.splits.unregister_query(query);
        outcome
    }

    fn run_query(&mut self, query: u64, sql: &str) -> Result<DistributedRun> {
        let started = Instant::now();
        let state = &self.node.state;
        let tree = plan_tree(&state.catalog, sql, self.dop)?;
        let fp = plan_fingerprint(&tree);
        let nodes = self.nodes();
        // Node 0 wires first: a query the admission gate turns away never
        // reaches a worker.
        let nq = state.executor.wire(
            &state.catalog,
            tree,
            &self.exec,
            DistRole {
                node: 0,
                nodes,
                peers: self.peers.clone(),
            },
            query,
            ClaimWiring::Serve(&state.splits),
        )?;
        let registry = nq.registry().clone();
        state.pages.register(query, registry.clone());
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
                    elasticity: self.exec.elasticity.mode.to_string(),
                    peers: self.peers.clone(),
                    sql: sql.to_string(),
                };
                match call(link, &wire)? {
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
                call(link, &CtrlMsg::Go { query })?;
            }
            nq.run()
        })();
        if let Err(e) = &run {
            // Workers already told to GO are parked on pages this node will
            // never send; the poison reaches them through their listeners.
            registry.poison(e.clone());
        }
        // Reap every worker however the query ended — one that answered
        // WIRED holds the query until it is JOINed (one that never did just
        // says so), and a worker's error is the root cause when the
        // coordinator only saw the poison.
        let mut worker_err = None;
        for link in self.links.iter_mut() {
            if let Err(e) = call(link, &CtrlMsg::Join { query }) {
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

    /// Ends the fleet: closing the control connections is what ends the
    /// sessions, and the last handle on the coordinating node releases its
    /// port. Workers stay alive for the next coordinator.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(peers: &[&str], sql: &str) -> CtrlMsg {
        CtrlMsg::Wire {
            query: 7,
            node: 1,
            nodes: 2,
            fingerprint: 0xdead_beef_0123_4567,
            dop: 4,
            elasticity: "auto:2000".into(),
            peers: peers.iter().map(|p| p.to_string()).collect(),
            sql: sql.into(),
        }
    }

    #[test]
    fn control_messages_round_trip_and_every_prefix_is_a_typed_error() {
        let messages = [
            wire(
                &["127.0.0.1:1", "127.0.0.1:2"],
                "SELECT * FROM t WHERE a = 'x y' AND b = \"q\";\n-- naïve ✓ comment",
            ),
            wire(&[], ""),
            CtrlMsg::Wired { remote_slots: 3 },
            CtrlMsg::Go { query: u64::MAX },
            CtrlMsg::Join { query: 0 },
            CtrlMsg::Done { elapsed_ms: 12 },
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
        // WIRE claiming four billion peers in a 49-byte payload: the decoder
        // runs out of bytes, not out of memory.
        let (kind, mut payload) = wire(&[], "").encode();
        let count_at = 8 + 4 + 4 + 8 + 4 + 4 + "auto:2000".len();
        payload[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = CtrlMsg::decode(kind, &payload).unwrap_err();
        assert!(matches!(err, AccordionError::Wire(_)), "{err}");
    }
}
