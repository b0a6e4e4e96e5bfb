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
//! [`ConsumerLoc::Remote`] (that node's address) everywhere else. Every
//! node therefore registers the same *global* edge — identical slot
//! indices, producer counts (the nodes hosting a task of the stage) and
//! hash partitions — and the transport-agnostic registry of `accordion-net`
//! does the rest.
//!
//! ## One split pool across nodes
//!
//! The shared split pool is what makes mid-query DOP changes lossless, so
//! it is **never sharded**: the coordinator owns one [`SplitQueue`] per
//! scanning stage, in every elasticity mode, and its [`SplitQueues`] answer
//! the CLAIM frames of every session opened to its node address
//! (`peers[0]`, where the worker's pages go too): one [`ClaimMsg`] round
//! trip per claim — a CLAIM frame answered by SPLIT or NONE — on
//! the node-to-node framing of `accordion_net::frame`, whose kind table has
//! the layouts. A SPLIT reply carries the split's id, which is its position
//! in its table and so the same in every process. Worker tasks claim
//! through a [`RemoteSplitSource`] proxy on their registry's session to the
//! coordinator, which looks the id up in its own catalog copy. Every claim,
//! local or remote, takes the front of the queue. Decision boundaries work
//! unchanged: the claim service answers each claim inline, and one at a
//! paused boundary steps the controller there as a local claimant does, so
//! it waits at most while another thread is inside one step (before node 0
//! runs, until node 0 installs the step). Grown tasks always spawn on the
//! coordinator, where they join its live writer groups (one whose tasks
//! have all ended starts none) and change nothing on any other node; a
//! shrunk task's next claim is answered NONE, as on exhaustion, and its
//! scan ends. Which
//! side of the service a node is on follows from its [`DistRole`]: node 0
//! registers its queues in the [`SplitQueues`] it is wired with — a fleet
//! of one in a service nobody else reaches — and every other node claims
//! at `peers[0]`.

use std::collections::HashMap;
use std::sync::Arc;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{yield_slot, Mutex, Semaphore};
use accordion_common::{fnv1a, AccordionError, NodeId, Result};
use accordion_exec::executor::exchange_topology;
use accordion_exec::splits::{SplitQueue, SplitSource};
use accordion_net::frame::{kind, Conversation, Cursor, Frame, Payload, Serve, Served};
use accordion_net::{
    serve_sessions, Claims, ConsumerLoc, ExchangeRegistry, ExchangeTopology, NicModel,
};
use accordion_plan::fragment::StageTree;
use accordion_storage::split::Split;

/// The node that runs task `t` of any stage. Deterministic round-robin, so
/// every node derives the same placement without communication.
pub fn task_node(task: u32, nodes: u32) -> u32 {
    task % nodes.max(1)
}

/// One node's identity within a fleet executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistRole {
    /// This node's index; node 0 is the coordinator.
    pub node: u32,
    /// The address of every node, indexed by node id, so the fleet is as
    /// large as this list (this node's own entry is present but unused).
    /// `peers[0]` is where workers claim splits as well as where they send
    /// pages.
    pub peers: Vec<String>,
}

impl DistRole {
    /// Node 0 of 1: a single process, hosting every task.
    pub fn single() -> DistRole {
        DistRole {
            node: 0,
            peers: vec![String::new()],
        }
    }

    /// Fleet size.
    pub fn nodes(&self) -> u32 {
        self.peers.len() as u32
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
    let mut bytes = tree.display().into_bytes();
    for f in tree.fragments() {
        bytes.extend(f.stage.0.to_le_bytes());
        bytes.extend(f.parallelism.to_le_bytes());
        bytes.push(u8::from(f.elastic_bounds.is_some()));
    }
    fnv1a(&bytes)
}

/// The global exchange topology of `tree` as seen from one node: consumer
/// slots placed on this node stay local, all others point at their owner's
/// address.
pub fn distributed_topology(
    tree: &StageTree,
    query: u64,
    role: &DistRole,
) -> Result<ExchangeTopology> {
    let nodes = role.nodes();
    if role.node >= nodes {
        return Err(AccordionError::Execution(format!(
            "role names node {} of a fleet of {nodes}",
            role.node
        )));
    }
    let mut topology = exchange_topology(tree, nodes)?;
    topology.query = query;
    for (id, addr) in role.peers.iter().enumerate() {
        if id as u32 != role.node {
            topology.peers.push(addr.clone());
        }
    }
    for edge in &mut topology.edges {
        for (slot, loc) in edge.consumers.iter_mut().enumerate() {
            let home = task_node(slot as u32, nodes);
            *loc = if home == role.node {
                ConsumerLoc::Local
            } else {
                ConsumerLoc::Remote(role.peers[home as usize].clone())
            };
        }
    }
    Ok(topology)
}

/// The replies of the split-claim conversation — kinds 14 and 15 of the
/// node-to-node kind table (`accordion_net::frame`) — without the (stage,
/// slot) their session puts in front: a worker task's CLAIM is answered
/// with one of these, or with an ERR frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimMsg {
    /// The split with this id.
    Split { id: u64 },
    /// No split for this slot: the stage's splits are exhausted, or a
    /// shrink retired the slot.
    None,
}

impl ClaimMsg {
    /// This message as a frame.
    pub fn encode(&self) -> Frame {
        let p = Payload::default();
        match *self {
            ClaimMsg::Split { id } => (kind::SPLIT, p.u64(id).0),
            ClaimMsg::None => (kind::NONE, p.0),
        }
    }

    /// Inverse of [`encode`](Self::encode); anything else is a typed error.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<ClaimMsg> {
        let mut c = Cursor::new(payload);
        let msg = match kind {
            kind::SPLIT => ClaimMsg::Split { id: c.u64()? },
            kind::NONE => ClaimMsg::None,
            other => {
                return Err(AccordionError::Wire(format!(
                    "frame kind {other} is not a claim reply"
                )))
            }
        };
        c.finish()?;
        Ok(msg)
    }
}

/// The coordinator's split-claim service: the shared [`SplitQueue`]s of its
/// queries' scanning stages, answering the CLAIM frames of the sessions
/// opened to its node. A claim at a paused decision boundary steps the
/// controller before its reply — remote claimants park at the same
/// boundary local ones do. It serves whatever listener its [`serve`](Self::serve)
/// handler is given to — the node's one listener, or a [`SplitServer`]'s
/// own.
#[derive(Default)]
pub struct SplitQueues(Mutex<HashMap<(u64, u32), Arc<SplitQueue>>>);

impl SplitQueues {
    /// Builds the stage's shared queue from `splits` and exposes it to
    /// remote claimants. Returns the queue for the coordinator's own local
    /// claims.
    pub fn register(&self, query: u64, stage: u32, splits: Vec<Split>) -> Arc<SplitQueue> {
        let queue = Arc::new(SplitQueue::new(splits));
        self.0.lock().insert((query, stage), queue.clone());
        queue
    }

    /// Drops every queue of `query`.
    pub fn unregister_query(&self, query: u64) {
        self.0.lock().retain(|(q, _), _| *q != query);
    }
}

impl Claims for SplitQueues {
    fn answer(&self, query: u64, stage: u32, slot: u32) -> Result<Frame> {
        let queue = self.0.lock().get(&(query, stage)).cloned().ok_or_else(|| {
            AccordionError::Execution(format!("no split queue for query {query} stage {stage}"))
        })?;
        Ok(match queue.claim(slot, None) {
            Some(split) => ClaimMsg::Split { id: split.id.0 }.encode(),
            None => ClaimMsg::None.encode(),
        })
    }
}

/// The claim side of a session: claims only.
impl Conversation for SplitQueues {
    fn serve(self: &Arc<Self>) -> Box<Serve> {
        serve_sessions(None, Some(self.clone()), None)
    }
}

/// [`SplitQueues`] behind a listener of their own, for a claim service that
/// has no node around it.
pub type SplitServer = Served<SplitQueues>;

/// A worker-side [`SplitSource`] that claims from the coordinator's
/// [`SplitQueues`] and looks each returned split id up in this node's own
/// copy of the table's splits, where a split's id is its position.
///
/// One instance is shared by all of a worker's tasks of the stage, and its
/// claims travel on the query's session to the coordinator next to the
/// node's pages. A failed claim — a lost connection, or an ERR such as a
/// poisoned coordinator's — poisons the query, the contract for a mid-query
/// node loss; a source of its own ([`RemoteSplitSource::new`]) panics.
pub struct RemoteSplitSource {
    /// The registry whose session to `addr` carries the claims.
    registry: Arc<ExchangeRegistry>,
    /// Whether `registry` is a query's, which a failed claim poisons.
    in_query: bool,
    addr: String,
    stage: u32,
    /// The table's splits, split `i` at position `i`.
    splits: Vec<Split>,
}

impl RemoteSplitSource {
    /// A source on a session of its own to the claim service at `addr`,
    /// opened on the first claim. `splits` lists the table's splits by id,
    /// as the catalog does.
    pub fn new(addr: String, query: u64, stage: u32, splits: Vec<Split>) -> Arc<RemoteSplitSource> {
        let own = ExchangeTopology::new(query);
        Arc::new(RemoteSplitSource {
            registry: ExchangeRegistry::build(&own, &NetworkConfig::default(), NicModel)
                .expect("a registry without edges always builds"),
            in_query: false,
            addr,
            stage,
            splits,
        })
    }

    /// A source whose claims ride `registry`'s session to `addr`: a
    /// worker's, next to its pages to the coordinator.
    pub(crate) fn on(
        registry: Arc<ExchangeRegistry>,
        addr: String,
        stage: u32,
        splits: Vec<Split>,
    ) -> Arc<RemoteSplitSource> {
        Arc::new(RemoteSplitSource {
            registry,
            in_query: true,
            addr,
            stage,
            splits,
        })
    }
}

impl SplitSource for RemoteSplitSource {
    fn claim(&self, slot: u32, _node: Option<NodeId>, gate: Option<&Semaphore>) -> Option<Split> {
        // The round trip can park at a remote decision boundary.
        let reply = yield_slot(gate, || {
            let (kind, body) = self.registry.session(&self.addr)?.claim(self.stage, slot)?;
            ClaimMsg::decode(kind, &body)
        });
        match reply {
            Ok(ClaimMsg::Split { id }) => Some(
                self.splits
                    .get(id as usize)
                    .filter(|s| s.id.0 == id)
                    .unwrap_or_else(|| panic!("claim returned unknown split id {id}"))
                    .clone(),
            ),
            Ok(ClaimMsg::None) => None,
            // A failed claim fails the query, if nothing has yet, and the
            // task meets the poison at its next exchange call.
            Err(e) if self.in_query => {
                self.registry.poison(e);
                None
            }
            Err(e) => panic!("split claim failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_common::SplitId;
    use accordion_data::column::Column;
    use accordion_data::page::DataPage;
    use accordion_net::frame::FrameConn;
    use std::time::Duration;

    /// A table of `n` one-row splits, built afresh on every call as each
    /// process builds its own copy.
    fn splits(n: u64) -> Vec<Split> {
        (0..n)
            .map(|id| Split {
                id: SplitId(id),
                table: "t".into(),
                pages: Arc::new(vec![DataPage::new(vec![Column::from_i64(vec![id as i64])])]),
                rows: 1,
            })
            .collect()
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
    fn claim_service_round_trip_with_retirement() {
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        let served = splits(3);
        let queue = server.register(77, 2, served.clone());
        // The claimant holds a copy of its own, built separately: a reply
        // names a split by id and the claimant hands out its own split.
        let copy = splits(3);
        let source = RemoteSplitSource::new(server.local_addr(), 77, 2, copy.clone());
        let first = source.claim(0, Some(NodeId(1)), None).unwrap();
        assert_eq!(first.id.0, 0, "the front of the queue, whatever node asks");
        assert!(Arc::ptr_eq(&first.pages, &copy[0].pages));
        assert!(!Arc::ptr_eq(&first.pages, &served[0].pages));
        assert_eq!(source.claim(0, None, None).unwrap().id.0, 1);
        // Retire a different slot mid-stream: its claim returns no split,
        // and takes none from the slots still claiming.
        queue.retire(5);
        assert!(source.claim(5, None, None).is_none());
        // Slot 0 still drains the last split, then exhaustion.
        assert_eq!(source.claim(0, None, None).unwrap().id.0, 2);
        assert!(source.claim(0, None, None).is_none());
        server.shutdown();
    }

    /// A session of `query` opened by hand, for the replies a
    /// `RemoteSplitSource` would panic on.
    fn session(addr: &str, query: u64) -> FrameConn {
        let mut conn = FrameConn::connect(addr, Duration::from_secs(5)).unwrap();
        conn.send((kind::HELLO, Payload::default().u64(query).0))
            .unwrap();
        conn
    }

    fn claim(stage: u32) -> Frame {
        (kind::CLAIM, Payload::default().u32(stage).u32(0).0)
    }

    #[test]
    fn claim_service_rejects_unknown_edges() {
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // A claim on a stage nobody registered fails its session: one ERR,
        // then the service hangs up.
        let mut unknown = session(&addr, 1);
        let err = unknown.call(claim(1)).unwrap_err();
        assert!(err.to_string().contains("no split queue"), "{err}");
        assert!(unknown.recv().unwrap().is_none(), "and the session ends");
        // Registered, the same claim is answered. A reply kind sent as a
        // request is refused, not obeyed: inside a session by the session,
        // as a first frame by the listener.
        server.register(1, 1, vec![]);
        let mut known = session(&addr, 1);
        let none = (kind::NONE, Payload::default().u32(1).u32(0).0);
        assert_eq!(known.call(claim(1)).unwrap(), none);
        let err = known.call(none.clone()).unwrap_err();
        assert!(err.to_string().contains("kind 15 is not served"), "{err}");
        let mut bare = FrameConn::connect(&addr, Duration::from_secs(5)).unwrap();
        let err = bare.call(none).unwrap_err();
        assert!(err.to_string().contains("opens no conversation"), "{err}");
        // A claim travels on a session and opens no conversation itself.
        let mut bare = FrameConn::connect(&addr, Duration::from_secs(5)).unwrap();
        let err = bare.call(claim(1)).unwrap_err();
        assert!(err.to_string().contains("kind 13 opens no"), "{err}");
        // Nor does a bare claim service take pages.
        let mut pages = session(&addr, 1);
        let data = (kind::DATA, Payload::default().u32(1).u32(0).0);
        let err = pages.call(data).unwrap_err();
        assert!(err.to_string().contains("kind 1 is not served"), "{err}");
        assert!(pages.recv().unwrap().is_none(), "and the session ends");
        server.shutdown();
    }

    #[test]
    fn unregister_drops_a_query_but_not_its_neighbours() {
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        server.register(1, 1, splits(1));
        server.register(2, 1, splits(1));
        server.unregister_query(1);
        assert!(session(&server.local_addr(), 1).call(claim(1)).is_err());
        let source2 = RemoteSplitSource::new(server.local_addr(), 2, 1, splits(1));
        assert_eq!(source2.claim(0, None, None).unwrap().id.0, 0);
        server.shutdown();
    }

    #[test]
    fn a_claim_at_a_paused_boundary_steps_and_is_answered_inline() {
        use accordion_exec::splits::Step;

        /// A controller whose every step moves the boundary a claim on.
        struct Decides(Arc<SplitQueue>, Mutex<Vec<bool>>);
        impl Step for Decides {
            fn step(&self, parked: bool) {
                self.1.lock().push(parked);
                self.0.set_pause_after(Some(self.0.claimed() + 1));
            }
        }
        // Stage 1 is paused at its decision boundary, stage 2 is not: one
        // session carries a claim on each. The first steps the controller
        // as a parked claimant, on the session's own thread, and both are
        // answered in turn.
        let server = SplitServer::bind("127.0.0.1:0").unwrap();
        let paused = server.register(5, 1, splits(2));
        paused.set_pause_after(Some(0));
        let decides = Arc::new(Decides(paused.clone(), Mutex::new(Vec::new())));
        paused.set_step(Arc::downgrade(&(decides.clone() as Arc<dyn Step>)));
        server.register(5, 2, splits(2));
        let registry = ExchangeRegistry::build(
            &ExchangeTopology::new(5),
            &NetworkConfig::default(),
            NicModel,
        )
        .unwrap();
        let source =
            |stage| RemoteSplitSource::on(registry.clone(), server.local_addr(), stage, splits(2));
        let (parked, free) = (source(1), source(2));
        assert_eq!(parked.claim(0, None, None).unwrap().id.0, 0);
        assert_eq!(free.claim(0, None, None).unwrap().id.0, 0);
        assert_eq!(*decides.1.lock(), [true, false], "parked, then reached");
        assert_eq!(paused.parked(), 0);
        assert_eq!(free.claim(0, None, None).unwrap().id.0, 1);
        server.shutdown();
    }

    #[test]
    fn claim_messages_round_trip_and_every_prefix_is_a_typed_error() {
        for msg in [ClaimMsg::Split { id: 1 << 40 }, ClaimMsg::None] {
            let (kind, payload) = msg.encode();
            assert_eq!(ClaimMsg::decode(kind, &payload).unwrap(), msg);
            for cut in 0..payload.len() {
                let err = ClaimMsg::decode(kind, &payload[..cut]).unwrap_err();
                assert!(
                    matches!(err, AccordionError::Wire(_)),
                    "{msg:?}@{cut}: {err}"
                );
            }
            let mut long = payload.clone();
            long.push(0);
            assert!(
                ClaimMsg::decode(kind, &long).is_err(),
                "{msg:?}: trailing byte"
            );
        }
        assert!(ClaimMsg::decode(kind::CLAIM, &[]).is_err(), "a request");
        assert!(ClaimMsg::decode(kind::HELLO, &[]).is_err(), "foreign kind");
        // A retired slot is answered NONE; kind 16 is unassigned.
        let err = ClaimMsg::decode(16, &[]).unwrap_err();
        assert!(
            err.to_string().contains("kind 16 is not a claim reply"),
            "{err}"
        );
    }
}
