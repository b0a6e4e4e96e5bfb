//! Placement and the shared split-claim service — what the scheduler's one
//! runner needs to know to execute a query as *node `n` of `N`*.
//!
//! A distributed query runs the **same [`StageTree`]** on every node — each
//! node plans independently from its identical catalog copy and the
//! coordinator cross-checks a [`plan_fingerprint`] so divergent plans fail
//! fast instead of mis-routing pages. Placement is deterministic and
//! agreed without communication: task `t` of every stage runs on node
//! [`task_node`]`(t, nodes)`. Node 0 is the **coordinator**: it hosts task
//! 0 of every stage (so it owns at least one local consumer slot of every
//! edge, keeping its writer accounting authoritative), passes the admission
//! gate on the query's behalf, drains the root stage's result, and runs the
//! elasticity controller. A single process is the fleet of one
//! ([`DistRole::single`]): node 0, with no peers. The runner itself —
//! `QueryExecutor::{wire, execute_tree}` and `NodeQuery::run` — lives in
//! `crate::scheduler`; nothing here spawns a task.
//!
//! [`distributed_topology`] re-homes the all-local topology of
//! `accordion_exec::exchange_topology` for one node: consumer slot `c`
//! stays [`ConsumerLoc::Local`] when `task_node(c) == node` and becomes
//! [`ConsumerLoc::Remote`] (that node's page-server address) everywhere
//! else. Every node therefore registers the same *global* edge — identical
//! slot indices, producer counts and hash partitions — and the
//! transport-agnostic registry of `accordion-net` does the rest.
//!
//! ## Elasticity across nodes
//!
//! The shared split pool is what makes mid-query DOP changes lossless, so
//! it is **never sharded**: the coordinator owns one [`SplitQueue`] per
//! elastic stage and serves it over a [`SplitServer`] (a line protocol:
//! `CLAIM <query> <stage> <slot> <node|->` → `SPLIT <ordinal>` / `NONE` /
//! `RETIRED`). Claims name splits by their **ordinal** in the stage's split
//! list — a position both sides derive from the same catalog order — never
//! by raw split id, which comes from a process-local counter and does not
//! agree across processes. Worker tasks claim through a
//! [`RemoteSplitSource`] proxy, resolving ordinals against their local
//! catalog copy; claims carry the
//! claimant's node id so the queue can prefer node-local splits
//! (`SplitQueue::claim_at`). Decision boundaries work unchanged: a paused
//! queue simply delays its claim replies, wherever the claimant runs.
//! Grown tasks always spawn on the coordinator (producer growth is
//! broadcast to every peer registry before they push); shrunk tasks
//! observe retirement through their next claim reply. [`ClaimWiring`] names
//! which side of the service a node is on — or that it is alone and its
//! queues need no service at all.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use accordion_common::sync::{Mutex, Semaphore};
use accordion_common::{AccordionError, NodeId, Result};
use accordion_exec::executor::exchange_topology;
use accordion_exec::splits::{SplitQueue, SplitSource};
use accordion_net::{ConsumerLoc, ExchangeTopology};
use accordion_plan::fragment::StageTree;
use accordion_storage::split::Split;

/// The node that runs task `t` of any stage. Deterministic round-robin, so
/// every node derives the same placement without communication.
pub fn task_node(task: u32, nodes: u32) -> u32 {
    task % nodes.max(1)
}

/// One node's identity within a fleet executing a query.
#[derive(Debug, Clone)]
pub struct DistRole {
    /// This node's index; node 0 is the coordinator.
    pub node: u32,
    /// Fleet size.
    pub nodes: u32,
    /// Page-server address of every node, indexed by node id (this node's
    /// own entry is present but unused).
    pub peers: Vec<String>,
}

impl DistRole {
    /// Node 0 of 1: a single process, hosting every task.
    pub fn single() -> DistRole {
        DistRole {
            node: 0,
            nodes: 1,
            peers: vec![String::new()],
        }
    }

    pub fn is_coordinator(&self) -> bool {
        self.node == 0
    }
}

/// A deterministic fingerprint of the planned stage tree. Every node plans
/// from its own catalog copy; the coordinator ships its fingerprint with
/// the wiring request and workers refuse to execute a plan that differs —
/// the distributed topology only agrees when the plans do.
pub fn plan_fingerprint(tree: &StageTree) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(tree.display().as_bytes());
    for f in tree.fragments() {
        eat(&f.stage.0.to_le_bytes());
        eat(&f.parallelism.to_le_bytes());
        eat(&[u8::from(f.elastic_bounds.is_some())]);
    }
    h
}

/// The global exchange topology of `tree` as seen from one node: consumer
/// slots placed on this node stay local, all others point at their owner's
/// page server. `leased` marks the elastic edges (as in
/// `accordion_exec::exchange_topology`).
pub fn distributed_topology(
    tree: &StageTree,
    leased: &HashSet<u32>,
    query: u64,
    role: &DistRole,
) -> Result<ExchangeTopology> {
    if role.peers.len() != role.nodes as usize {
        return Err(AccordionError::Internal(format!(
            "role lists {} peer addresses for {} nodes",
            role.peers.len(),
            role.nodes
        )));
    }
    let mut topology = exchange_topology(tree, leased)?;
    topology.query = query;
    for (id, addr) in role.peers.iter().enumerate() {
        if id as u32 != role.node {
            topology.peers.push(addr.clone());
        }
    }
    for edge in &mut topology.edges {
        for (slot, loc) in edge.consumers.iter_mut().enumerate() {
            let home = task_node(slot as u32, role.nodes);
            *loc = if home == role.node {
                ConsumerLoc::Local
            } else {
                ConsumerLoc::Remote(role.peers[home as usize].clone())
            };
        }
    }
    Ok(topology)
}

fn io_err(what: &str, e: std::io::Error) -> AccordionError {
    AccordionError::Io(format!("{what}: {e}"))
}

/// One registered elastic stage: its shared queue plus the split-id →
/// ordinal mapping claim replies are phrased in.
struct ServedQueue {
    queue: Arc<SplitQueue>,
    ordinals: HashMap<u64, u64>,
}

/// The coordinator's split-claim service: serves the shared [`SplitQueue`]s
/// of elastic stages to worker nodes over a line protocol, one blocking
/// request per line. A claim that is paused at a decision boundary simply
/// delays its reply — remote claimants park at the same boundary local
/// ones do.
pub struct SplitServer {
    addr: String,
    queues: Mutex<HashMap<(u64, u32), ServedQueue>>,
    shutdown: AtomicBool,
}

impl SplitServer {
    /// Binds (use port 0 for an ephemeral port) and starts accepting.
    pub fn bind(addr: &str) -> Result<Arc<SplitServer>> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("split server bind", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("split server addr", e))?
            .to_string();
        let server = Arc::new(SplitServer {
            addr,
            queues: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept = server.clone();
        std::thread::spawn(move || accept.accept_loop(listener));
        Ok(server)
    }

    pub fn local_addr(&self) -> String {
        self.addr.clone()
    }

    /// Builds the stage's shared queue from `splits` and exposes it to
    /// remote claimants. Replies name splits by their ordinal in `splits`,
    /// so remote resolution works even when split ids differ per process.
    /// Returns the queue for the coordinator's own local claims.
    pub fn register(&self, query: u64, stage: u32, splits: Vec<Split>) -> Arc<SplitQueue> {
        let ordinals = splits
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.0, i as u64))
            .collect();
        let queue = Arc::new(SplitQueue::new(splits));
        self.queues.lock().insert(
            (query, stage),
            ServedQueue {
                queue: queue.clone(),
                ordinals,
            },
        );
        queue
    }

    /// Drops every queue of `query`.
    pub fn unregister_query(&self, query: u64) {
        self.queues.lock().retain(|(q, _), _| *q != query);
    }

    /// Stops accepting. Live connections drain on their own.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        for conn in listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let Ok(conn) = conn else { continue };
            let server = self.clone();
            std::thread::spawn(move || {
                let _ = server.serve(conn);
            });
        }
    }

    fn serve(&self, conn: TcpStream) -> std::io::Result<()> {
        conn.set_nodelay(true).ok();
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut writer = conn;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            let reply = self.handle(line.trim());
            writer.write_all(reply.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
    }

    /// `CLAIM <query> <stage> <slot> <node|->` → `SPLIT <ordinal>` | `NONE`
    /// | `RETIRED` | `ERR <msg>`.
    fn handle(&self, line: &str) -> String {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parsed = match fields.as_slice() {
            ["CLAIM", query, stage, slot, node] => {
                let node = if *node == "-" {
                    Ok(None)
                } else {
                    node.parse::<u32>().map(|n| Some(NodeId(n)))
                };
                match (
                    query.parse::<u64>(),
                    stage.parse::<u32>(),
                    slot.parse::<u32>(),
                    node,
                ) {
                    (Ok(q), Ok(st), Ok(sl), Ok(n)) => Some((q, st, sl, n)),
                    _ => None,
                }
            }
            _ => None,
        };
        let Some((query, stage, slot, node)) = parsed else {
            return format!("ERR malformed claim request: {line}");
        };
        let served = {
            let queues = self.queues.lock();
            let Some(s) = queues.get(&(query, stage)) else {
                return format!("ERR no split queue for query {query} stage {stage}");
            };
            (s.queue.clone(), s.ordinals.clone())
        };
        let (queue, ordinals) = served;
        // Block right here — the connection thread is the remote claimant's
        // proxy, and a pause boundary is supposed to park it.
        match queue.claim_at(slot, node, None) {
            Some(split) => match ordinals.get(&split.id.0) {
                Some(ordinal) => format!("SPLIT {ordinal}"),
                None => format!("ERR split id {} missing from ordinal map", split.id.0),
            },
            None if queue.is_retired(slot) => "RETIRED".to_string(),
            None => "NONE".to_string(),
        }
    }
}

/// A worker-side [`SplitSource`] that claims from the coordinator's
/// [`SplitServer`] and resolves the returned split **ordinals** against
/// this node's own catalog copy. Both sides list the stage's splits in the
/// same catalog order, so positions agree even though raw split ids (a
/// process-local counter) do not.
///
/// One instance is shared by all of a worker's tasks of the stage; claims
/// serialize on a single connection, which is harmless at split
/// granularity. A transport failure panics the claiming task — the
/// scheduler's panic path poisons the exchanges, which is exactly the
/// contract for a mid-query node loss.
pub struct RemoteSplitSource {
    addr: String,
    query: u64,
    stage: u32,
    by_ordinal: Vec<Split>,
    conn: Mutex<Option<(BufReader<TcpStream>, TcpStream)>>,
    retired: Mutex<HashSet<u32>>,
}

impl RemoteSplitSource {
    /// `splits` must list the stage's splits in the same order the
    /// coordinator registered them (catalog order does this naturally).
    pub fn new(addr: String, query: u64, stage: u32, splits: Vec<Split>) -> Arc<RemoteSplitSource> {
        Arc::new(RemoteSplitSource {
            addr,
            query,
            stage,
            by_ordinal: splits,
            conn: Mutex::new(None),
            retired: Mutex::new(HashSet::new()),
        })
    }

    /// Sends one request line and reads one reply line over the (lazily
    /// opened) connection. Drops the connection on any transport error.
    fn exchange(&self, request: &str) -> Result<String> {
        let mut guard = self.conn.lock();
        if guard.is_none() {
            let stream =
                TcpStream::connect(&self.addr).map_err(|e| io_err("split claim connect", e))?;
            stream.set_nodelay(true).ok();
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| io_err("split claim clone", e))?,
            );
            *guard = Some((reader, stream));
        }
        let (reader, writer) = guard.as_mut().expect("connected above");
        let round_trip = (|| -> std::io::Result<String> {
            writer.write_all(request.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "split server closed the connection",
                ));
            }
            Ok(line.trim().to_string())
        })();
        match round_trip {
            Ok(line) => Ok(line),
            Err(e) => {
                *guard = None;
                Err(io_err("split claim", e))
            }
        }
    }
}

impl SplitSource for RemoteSplitSource {
    fn claim(&self, slot: u32, node: Option<NodeId>, gate: Option<&Semaphore>) -> Option<Split> {
        let node = node.map_or_else(|| "-".to_string(), |n| n.0.to_string());
        let request = format!("CLAIM {} {} {slot} {node}", self.query, self.stage);
        // The round trip can park at a remote decision boundary — yield the
        // compute slot for its whole duration.
        if let Some(g) = gate {
            g.release();
        }
        let reply = self.exchange(&request);
        if let Some(g) = gate {
            g.acquire();
        }
        let reply = match reply {
            Ok(r) => r,
            Err(e) => panic!("split claim failed: {e}"),
        };
        if reply == "NONE" {
            return None;
        }
        if reply == "RETIRED" {
            self.retired.lock().insert(slot);
            return None;
        }
        match reply.strip_prefix("SPLIT ").map(str::parse::<usize>) {
            Some(Ok(ordinal)) => Some(
                self.by_ordinal
                    .get(ordinal)
                    .unwrap_or_else(|| panic!("claim returned unknown split ordinal {ordinal}"))
                    .clone(),
            ),
            _ => panic!("split claim protocol error: {reply}"),
        }
    }

    fn is_retired(&self, slot: u32) -> bool {
        self.retired.lock().contains(&slot)
    }
}

/// How a node's elastic stages reach the query's shared split pools.
pub enum ClaimWiring<'a> {
    /// A fleet of one: the node owns the queues and nobody else claims.
    Local,
    /// Coordinator: owns the queues and publishes them on its service.
    Serve(&'a SplitServer),
    /// Worker: claims from the coordinator's service at this address
    /// (never dialled by a query that has no elastic stage).
    Connect(String),
}

/// One elastic stage's split pool as this node sees it.
pub(crate) struct StagePool {
    /// Where this node's tasks of the stage claim from.
    pub(crate) source: Arc<dyn SplitSource>,
    /// The queue itself, on the node that owns it — which is therefore the
    /// node that runs the stage's controller.
    pub(crate) queue: Option<Arc<SplitQueue>>,
}

impl ClaimWiring<'_> {
    /// This node's pool for `stage`, whose splits are `splits` in catalog
    /// order (the order claim ordinals refer to).
    pub(crate) fn pool(&self, query: u64, stage: u32, splits: Vec<Split>) -> StagePool {
        let owned = |queue: Arc<SplitQueue>| StagePool {
            source: queue.clone(),
            queue: Some(queue),
        };
        match self {
            ClaimWiring::Local => owned(Arc::new(SplitQueue::new(splits))),
            ClaimWiring::Serve(server) => owned(server.register(query, stage, splits)),
            ClaimWiring::Connect(addr) => StagePool {
                source: RemoteSplitSource::new(addr.clone(), query, stage, splits),
                queue: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_common::SplitId;
    use accordion_data::column::Column;
    use accordion_data::page::DataPage;
    use accordion_storage::split::SplitData;

    fn split_on(id: u64, node: u32) -> Split {
        let page = DataPage::new(vec![Column::from_i64(vec![id as i64])]);
        Split {
            id: SplitId(id),
            node: NodeId(node),
            table: "t".into(),
            data: SplitData::Memory(Arc::new(vec![page])),
            rows: 1,
            bytes: 8,
        }
    }

    #[test]
    fn placement_is_round_robin_with_coordinator_owning_task_zero() {
        assert_eq!(task_node(0, 3), 0);
        assert_eq!(task_node(1, 3), 1);
        assert_eq!(task_node(2, 3), 2);
        assert_eq!(task_node(3, 3), 0);
        assert_eq!(task_node(5, 1), 0, "single node hosts everything");
        assert_eq!(task_node(5, 0), 0, "degenerate fleet size is safe");
    }

    #[test]
    fn claim_service_round_trip_with_locality_and_retirement() {
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        let queue = server.register(
            77,
            2,
            vec![split_on(10, 0), split_on(11, 1), split_on(12, 0)],
        );
        // The claimant's catalog copy assigned *different* split ids (each
        // process numbers splits with its own counter) — only the order
        // matches. The ordinal protocol must still resolve correctly.
        let source = RemoteSplitSource::new(
            server.local_addr(),
            77,
            2,
            vec![split_on(20, 0), split_on(21, 1), split_on(22, 0)],
        );
        // A node-1 claimant gets its local split first, then steals.
        assert_eq!(source.claim(0, Some(NodeId(1)), None).unwrap().id.0, 21);
        assert_eq!(source.claim(0, Some(NodeId(1)), None).unwrap().id.0, 20);
        // Retire a different slot mid-stream: its claim reports RETIRED and
        // the source remembers (FeedScanSource's EndSignal path).
        queue.retire(5);
        assert!(source.claim(5, None, None).is_none());
        assert!(source.is_retired(5));
        // The last split drains, then exhaustion.
        assert_eq!(source.claim(0, None, None).unwrap().id.0, 22);
        assert!(source.claim(0, None, None).is_none());
        assert!(!source.is_retired(0), "exhaustion is not retirement");
        server.shutdown();
    }

    #[test]
    fn claim_service_rejects_unknown_edges() {
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        let source = RemoteSplitSource::new(server.local_addr(), 1, 1, vec![]);
        let err = source.exchange("CLAIM 1 1 0 -").unwrap();
        assert!(err.starts_with("ERR "), "{err}");
        let err = source.exchange("NOT A CLAIM").unwrap();
        assert!(err.starts_with("ERR "), "{err}");
        server.shutdown();
    }

    #[test]
    fn unregister_drops_a_query_but_not_its_neighbours() {
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        server.register(1, 1, vec![split_on(0, 0)]);
        server.register(2, 1, vec![split_on(0, 0)]);
        server.unregister_query(1);
        let source1 = RemoteSplitSource::new(server.local_addr(), 1, 1, vec![]);
        assert!(source1
            .exchange("CLAIM 1 1 0 -")
            .unwrap()
            .starts_with("ERR"));
        let source2 = RemoteSplitSource::new(server.local_addr(), 2, 1, vec![split_on(0, 0)]);
        assert_eq!(source2.claim(0, None, None).unwrap().id.0, 0);
        server.shutdown();
    }
}
