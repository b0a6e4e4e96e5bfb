//! Process-per-node execution: the node, its control protocol and the
//! fleet coordinator.
//!
//! `accordion-cluster` runs a query as node `n` of `N` on a process's one
//! [`QueryExecutor`]; this module gives each node its **own OS process**
//! and carries the wire/run hand-shake between them. A node is a
//! [`Worker`]: **one address** — one listener serving query sessions
//! (pages, split claims, registry control and the coordinator's control,
//! one connection per peer and query) — in front of one executor, so the
//! process's compute slots, admission gate and kill switch span every
//! query and every connection it serves. The coordinator is a node too,
//! the one nobody has wired, driving the others through a [`Fleet`]: a
//! query-server session with `SET nodes` does that on the server's own
//! executor. Every process generates the same deterministic TPC-H catalog
//! (same scale factor and seed) and plans every query independently; the
//! coordinator cross-checks a [`plan_fingerprint`] so a divergent plan
//! fails fast instead of mis-routing pages.
//!
//! ## Control protocol
//!
//! Frames of the node-to-node framing of `accordion_net::frame` (kinds 8
//! and 10–12 plus the shared ACK and ERR; the kind table there has the
//! layouts, [`WireMsg`] the one with a body), on the coordinator's session
//! for the query to each worker — the one its pages to that worker travel
//! on, whose HELLO names the query:
//!
//! ```text
//! coord  → HELLO  query                                    opens the session
//! coord  → WIRE   node, peers, fingerprint, dop, sql
//! worker → ACK | ERR message                               plan + wire
//! coord  → GO
//! worker → ACK                                             tasks started
//! coord  → DATA, FINISH, POISON                            as the query runs
//! coord  → JOIN
//! worker → DONE   stats JSON | ERR message                 tasks done
//! ```
//!
//! Strings travel length-prefixed, so SQL and error text need no escaping.
//! DONE carries the worker's [`node_stats`] as text, or past
//! [`MAX_CONTROL`] only `{"node":n,"omitted_bytes":len}`.
//! `peers` is `[coordinator] + workers`, every node's one address, and the
//! fleet is as many nodes as it lists. WIRE carries no elasticity mode: a
//! worker wires with its own executor's options, whose mode it never reads,
//! since only node 0 holds split queues and runs a controller. The
//! two-phase WIRE/GO split matters: a worker must know the query's registry
//! before **any** process starts tasks, or an early page from a fast peer
//! would be rejected. `GO` is only sent once every node acknowledged
//! `WIRE`, and `JOIN` once the coordinator's own share has run. A wired
//! query never outlives its session: one that closes before `JOIN` —
//! which is how a failed query ends, its poison sent ahead — poisons,
//! joins and forgets it (`accordion_net::tcp`). A [`Fleet`] holds no
//! connection between statements. Every worker task that scans claims
//! its splits from the coordinator's shared queues at `peers[0]`, in
//! every elasticity mode, on the session that carries its pages there,
//! which keeps mid-query grow/shrink lossless across process boundaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use accordion_cluster::{plan_fingerprint, DistRole, QueryExecutor, SplitQueues};
use accordion_common::config::ElasticityMode;
use accordion_common::{fnv1a, AccordionError, Json, Result};
use accordion_exec::executor::{ExecOptions, QueryResult};
use accordion_exec::metrics::QueryStats;
use accordion_net::frame::{kind, listen, Cursor, Frame, Listener, Payload, MAX_CONTROL};
use accordion_net::{serve_sessions, Control, PageRegistries, Wired};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_sql::plan_select;
use accordion_storage::catalog::Catalog;

/// WIRE, the one control request with a body — kind 8 of the node-to-node
/// kind table (`accordion_net::frame`), sent on the query's session: plan
/// `sql` at `dop`, check it against `fingerprint`, and wire this node's
/// share in `role` under the worker's own options. GO and JOIN, which
/// start and join that share, carry nothing; the worker answers WIRE and
/// GO with ACK, JOIN with DONE (its stats), and a request that fails with
/// ERR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsg {
    /// The worker's place in the fleet; `peers[0]` serves the query's
    /// split claims.
    pub role: DistRole,
    pub fingerprint: u64,
    pub dop: u32,
    pub sql: String,
}

impl WireMsg {
    /// This message as a frame.
    pub fn encode(&self) -> Frame {
        let (role, p) = (&self.role, Payload::default());
        let p = p.u32(role.node).u32(role.peers.len() as u32);
        let p = role.peers.iter().fold(p, |p, a| p.str(a));
        let p = p.u64(self.fingerprint).u32(self.dop).str(&self.sql);
        (kind::WIRE, p.0)
    }

    /// Inverse of [`encode`](Self::encode), from a WIRE frame's payload;
    /// anything else is a typed error.
    pub fn decode(payload: &[u8]) -> Result<WireMsg> {
        let mut c = Cursor::new(payload);
        let node = c.u32()?;
        // Grown one by one: the count is only the sender's word, the
        // payload running out is the bound.
        let mut peers = Vec::new();
        for _ in 0..c.u32()? {
            peers.push(c.str()?.to_string());
        }
        let msg = WireMsg {
            role: DistRole { node, peers },
            fingerprint: c.u64()?,
            dop: c.u32()?,
            sql: c.str()?.to_string(),
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

/// `stats` of node `node` as one JSON object: `"node"` first, then the
/// fields of [`QueryStats::to_json`]. `SHOW STATS` lists one per node.
pub fn node_stats(node: u32, stats: &QueryStats) -> Json {
    let mut json = Json::obj().with("node", Json::u64(node.into()));
    if let (Json::Obj(head), Json::Obj(fields)) = (&mut json, stats.to_json()) {
        head.extend(fields);
    }
    json
}

/// DONE's payload: [`node_stats`] as text, or — when that would not fit a
/// control frame — only the node and the length that was left out.
fn done_payload(node: u32, stats: &QueryStats) -> Vec<u8> {
    let text = node_stats(node, stats).to_string_compact();
    if text.len() <= MAX_CONTROL {
        return text.into_bytes();
    }
    let omitted = Json::obj()
        .with("node", Json::u64(node.into()))
        .with("omitted_bytes", Json::u64(text.len() as u64));
    omitted.to_string_compact().into_bytes()
}

/// One node: a single listener serving query sessions — pages, claims and
/// the WIRE/GO/JOIN of whoever coordinates the query — in front of one
/// executor. A node somebody wires is a worker; one that wires others
/// (through a [`Fleet`]) is their coordinator, and the same node may be
/// both at once. Dropping it releases its port.
pub struct Worker {
    listener: Listener,
    state: Arc<NodeState>,
}

/// What a node's sessions are served against.
struct NodeState {
    catalog: Arc<Catalog>,
    /// The process's one pool: every query on every connection runs its
    /// share here.
    executor: QueryExecutor,
    pages: Arc<PageRegistries>,
    splits: Arc<SplitQueues>,
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
        let (pages, splits) = (state.pages.clone(), state.splits.clone());
        let serve = serve_sessions(Some(pages), Some(splits), Some(state.clone()));
        let listener = listen(addr, "node", serve)?;
        Ok(Worker { listener, state })
    }

    /// The node's executor (read-only use: `active_queries`, stats).
    pub fn executor(&self) -> &QueryExecutor {
        &self.state.executor
    }

    /// The node's one address: what a coordinator's worker list, `SET
    /// nodes` and every `peers` entry name, and where every session to the
    /// node — pages, claims and control — is opened.
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

/// A worker's side of the control protocol: WIRE plans and wires the
/// node's share; the session that carried it starts, joins and unwinds it.
impl Control for NodeState {
    fn wire(&self, query: u64, wire: &[u8]) -> Result<Wired> {
        let wire = WireMsg::decode(wire)?;
        if wire.role.is_coordinator() {
            return Err(AccordionError::Execution(format!(
                "WIRE for query {query} names node 0, which wires itself"
            )));
        }
        let tree = plan_tree(&self.catalog, &wire.sql, wire.dop)?;
        let (local, fingerprint) = (plan_fingerprint(&tree), wire.fingerprint);
        if local != fingerprint {
            return Err(AccordionError::Execution(format!(
                "plan fingerprint mismatch for query {query}: coordinator \
                 {fingerprint:016x}, this node {local:016x} — catalogs or planner \
                 versions diverge"
            )));
        }
        let (catalog, splits, node) = (&self.catalog, &self.splits, wire.role.node);
        let exec = self.executor.options();
        let nq = self
            .executor
            .wire(catalog, tree, exec, wire.role, query, splits)?;
        let registry = nq.registry().clone();
        let run = move || Ok((kind::DONE, done_payload(node, nq.run()?.stats())));
        Ok((registry, Box::new(run)))
    }
}

/// One distributed query's outcome on the coordinator.
pub struct DistributedRun {
    /// The rows, with node 0's stats.
    pub result: QueryResult,
    /// Cross-process consumer slots across the whole fleet — at least one
    /// in any genuinely distributed plan.
    pub remote_slots: usize,
    /// Each worker's DONE, in node order.
    pub worker_stats: Vec<Json>,
}

/// A coordinating node's handle on a fleet of workers: node 0 is `node`,
/// in this process; each worker is one more node, in list order. It holds
/// no connection: each statement opens its own sessions, and closes them
/// with its registry.
pub struct Fleet {
    /// Node 0. Its executor's admission gate speaks for the whole
    /// distributed query.
    node: Arc<Worker>,
    peers: Vec<String>,
    /// Node 0's per-query options: page size, network shape and the
    /// elasticity mode its controller runs.
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
        exec.elasticity = ElasticityMode::try_parse_mode(elasticity)?;
        let node = Arc::new(Worker::start("127.0.0.1:0", catalog, exec.clone())?);
        Fleet::over(node, workers, exec, dop)
    }

    /// A fleet coordinated by `node` over the nodes at `workers`, planning
    /// at `dop` and running under `exec`. Nothing is dialed yet: a worker
    /// that cannot be reached within `connect_timeout_ms` fails the
    /// statement that needs it, naming it.
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
        Ok(Fleet {
            node,
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
        let tree = plan_tree(&self.node.state.catalog, sql, self.dop)?;
        self.run_tree(sql, &tree)
    }

    /// [`run_sql`](Self::run_sql) of a SELECT node 0 has already planned:
    /// `tree` is `sql` planned at the fleet's dop, which every worker plans
    /// again from `sql` and checks against `tree`'s fingerprint.
    pub(crate) fn run_tree(&mut self, sql: &str, tree: &StageTree) -> Result<DistributedRun> {
        let query = self.node.next_query();
        let outcome = self.run_query(query, sql, tree);
        self.node.state.pages.unregister(query);
        self.node.state.splits.unregister_query(query);
        outcome
    }

    fn run_query(&mut self, query: u64, sql: &str, tree: &StageTree) -> Result<DistributedRun> {
        let state = &self.node.state;
        let fingerprint = plan_fingerprint(tree);
        // Node 0 wires first: a query the admission gate turns away never
        // reaches a worker.
        let role = |node| DistRole {
            node,
            peers: self.peers.clone(),
        };
        let (catalog, splits) = (&state.catalog, &state.splits);
        let nq = state
            .executor
            .wire(catalog, tree, &self.exec, role(0), query, splits)?;
        let registry = nq.registry().clone();
        state.pages.register(query, registry.clone());
        let remote_slots = nq.fleet_remote_slots();
        let workers = &self.peers[1..];
        // One request on the query's session to a worker, one reply; the
        // worker's ERR is the returned error.
        let call = |worker: &String, request: Frame| registry.session(worker)?.call(request);
        let run: Result<(QueryResult, Vec<Json>)> = (|| {
            for (node, worker) in (1..).zip(workers) {
                let wire = WireMsg {
                    role: role(node),
                    fingerprint,
                    dop: self.dop,
                    sql: sql.to_string(),
                };
                call(worker, wire.encode())?;
            }
            for worker in workers {
                call(worker, (kind::GO, Vec::new()))?;
            }
            let result = nq.run()?;
            let mut worker_stats = Vec::new();
            for worker in workers {
                let (_, done) = call(worker, (kind::JOIN, Vec::new()))?;
                worker_stats.push(Json::parse(&String::from_utf8_lossy(&done))?);
            }
            Ok((result, worker_stats))
        })();
        if let Err(e) = &run {
            // Workers told to GO may be parked on pages this node will never
            // send: the poison reaches them on their sessions, and closing
            // those with the registry takes down what is left.
            registry.poison(e.clone());
        }
        let (result, worker_stats) = run?;
        Ok(DistributedRun {
            result,
            remote_slots,
            worker_stats,
        })
    }

    /// Ends the fleet. It holds no connection; the last handle on the
    /// coordinating node releases its port. Workers stay alive for the
    /// next coordinator.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(peers: &[&str], sql: &str) -> WireMsg {
        WireMsg {
            role: DistRole {
                node: 1,
                peers: peers.iter().map(|p| p.to_string()).collect(),
            },
            fingerprint: 0xdead_beef_0123_4567,
            dop: 4,
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
        ];
        for msg in messages {
            let (kind, payload) = msg.encode();
            assert_eq!(kind, kind::WIRE);
            assert_eq!(WireMsg::decode(&payload).unwrap(), msg);
            for cut in 0..payload.len() {
                let err = WireMsg::decode(&payload[..cut]).unwrap_err();
                assert!(
                    matches!(err, AccordionError::Wire(_)),
                    "{msg:?}@{cut}: {err}"
                );
            }
            let mut long = payload.clone();
            long.push(0);
            assert!(WireMsg::decode(&long).is_err(), "{msg:?}: trailing");
        }
    }

    #[test]
    fn done_carries_the_stats_or_only_their_length() {
        // A thousand tasks' meters fit a control frame; ten thousand do not.
        for (tasks, fits) in [(1_000, true), (10_000, false)] {
            let metrics = accordion_exec::metrics::QueryMetrics::new();
            (0..tasks).for_each(|t| metrics.register(2, t, 0, "TableScan").record_page(1, 8));
            let stats = metrics.snapshot(Default::default());
            let full = node_stats(2, &stats).to_string_compact();
            let omitted = format!(r#"{{"node":2,"omitted_bytes":{}}}"#, full.len());
            let done = String::from_utf8(done_payload(2, &stats)).unwrap();
            assert!(done.len() <= MAX_CONTROL, "{tasks}");
            assert_eq!(done, if fits { full } else { omitted }, "{tasks}");
        }
    }

    #[test]
    fn a_peer_count_is_not_an_allocation_size() {
        // WIRE claiming four billion peers in a 24-byte payload: the decoder
        // runs out of bytes, not out of memory.
        let (_, mut payload) = wire(&[], "").encode();
        let count_at = 4;
        payload[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = WireMsg::decode(&payload).unwrap_err();
        assert!(matches!(err, AccordionError::Wire(_)), "{err}");
    }
}
