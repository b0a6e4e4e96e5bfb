//! Exchange endpoints: the streaming boundary between stages.
//!
//! A stage's tasks no longer hand a materialized page map to their
//! consumers; they hold an [`ExchangeWriter`] toward the parent stage and
//! one [`ExchangeReader`] per child stage, both page-granular and blocking.
//! Termination is **in-band**: pushing `Page::End(reason)` closes a
//! producer's contribution (paper Fig 13), and a reader receives a single
//! end page once every producer has finished and the buffers are drained.
//!
//! ## Topology-first wiring
//!
//! All wiring is declared up front as an [`ExchangeTopology`]: one
//! [`EdgeSpec`] per stage output, each naming its producer count, routing
//! policy, and **where every consumer slot lives** ([`ConsumerLoc`]).
//! [`ExchangeRegistry::build`] consumes the descriptor and materializes one
//! [`ElasticQueue`] per consumer slot; writers route data pages by the
//! edge's [`RoutePolicy`] — gather/broadcast (`Single`), hash partitioning,
//! or round-robin. A transfer costs what the queue or the socket charges:
//! there is no simulated link.
//!
//! The registry is **transport-agnostic**: a slot marked
//! [`ConsumerLoc::Local`] is reached through its shared-memory queue, a
//! [`ConsumerLoc::Remote`] slot through the registry's one [`Session`] to
//! that node, whose [`PageRegistries`](crate::tcp::PageRegistries) feed the
//! page into the *same* queue type on the remote side. Producers and
//! consumers cannot tell which transport an edge uses. Every node of a
//! distributed query builds the **same global topology** (slots it does not
//! own marked remote), so consumer-slot indices, hash partitions, and
//! writer accounting agree everywhere: a finishing producer decrements its
//! slot on every local queue directly and on every remote node via a
//! FINISH frame, which follows the writer's pages on the session.
//!
//! A failed task [`ExchangeRegistry::poison`]s the registry: every queue
//! and every session wait fails, which unwinds all blocked sibling tasks
//! with the original error — and the poison is broadcast as a POISON frame
//! on every session and to every peer, so remote siblings unwind too.
//!
//! ## Re-parallelization and the EndSignal handshake (Fig 13)
//!
//! Edges support **live producer-set changes** for the runtime elasticity
//! controller. Shrinking needs no exchange support at all: a retiring task
//! simply pushes `Page::End(EndSignal)` through its writer, closing its
//! contribution. Growing re-registers the edge at the larger DOP with
//! [`ExchangeRegistry::add_producers`] before the new tasks' writers push
//! (the growth reaches a remote node as ADDPROD on the node's session, and
//! the grown task's pages and end frame follow it there, so they can never
//! outrun its registration). The race between "last old producer
//! finishes" and "new producers are added" is closed by a
//! **writer lease**: an [`EdgeSpec`] marked [`EdgeSpec::leased`] carries
//! one extra producer slot that the controller holds itself, so the queues
//! cannot deliver their end page — and consumers cannot conclude the stage
//! is done — while a retune is still possible. Dropping the lease
//! (explicitly, or via the writer drop guard on error paths) releases the
//! slot once the stage's split queue is exhausted.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::hash::hash_partition;
use accordion_data::page::{DataPage, EndReason, Page};

use crate::buffer::{ElasticQueue, ExchangeLimits};
use crate::frame::{kind, net_err, Payload};
use crate::tcp::Session;

/// Producer side of one exchange edge, held by a running task.
pub trait ExchangeWriter: Send {
    /// Delivers one page downstream, blocking while every destination
    /// buffer is full. `Page::End` is the in-band termination signal: it
    /// closes this producer's contribution to the edge and must be the last
    /// page pushed.
    fn push(&mut self, page: Page) -> Result<()>;
}

/// Consumer side of one exchange edge, held by a running task.
pub trait ExchangeReader: Send {
    /// Blocks until the next page is available. Returns `Page::End` exactly
    /// once, after every producer finished and the buffer drained; callers
    /// must stop pulling then.
    fn pull(&mut self) -> Result<Page>;
}

/// How a writer routes data pages across the consumer-side queues. Mirrors
/// `accordion_plan::physical::Partitioning` without depending on the plan
/// crate (the executor converts between the two).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePolicy {
    /// One output partition. With one consumer this is a gather; with many
    /// consumers every page is broadcast to each of them (a join's build
    /// side, whose edge has one consumer per node: the node's table).
    Single,
    /// Rows are hash-partitioned on `keys` into `partitions` queues.
    Hash { keys: Vec<usize>, partitions: u32 },
    /// Whole pages are dealt round-robin across `partitions` queues.
    RoundRobin { partitions: u32 },
}

impl RoutePolicy {
    pub fn partition_count(&self) -> u32 {
        match self {
            RoutePolicy::Single => 1,
            RoutePolicy::Hash { partitions, .. } | RoutePolicy::RoundRobin { partitions } => {
                *partitions
            }
        }
    }
}

/// Where one consumer slot of an edge runs, from the building node's point
/// of view. The same global slot is `Local` on exactly one node and
/// `Remote` (with that node's page-server address) everywhere else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsumerLoc {
    /// The slot's task runs in this process; delivery is the shared-memory
    /// queue.
    Local,
    /// The slot's task runs on the node that listens at this `host:port`;
    /// delivery is the registry's session to it.
    Remote(String),
}

/// Declarative description of one exchange edge: the output of `stage`.
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// Stage whose output this edge carries.
    pub stage: u32,
    /// Producer tasks across the whole fleet (every node registers the
    /// global count, not its local share, so writer accounting agrees on
    /// all nodes). Excludes the lease slot.
    pub producers: u32,
    /// Routing policy; a multi-partition policy must match the consumer
    /// slot count one-to-one.
    pub policy: RoutePolicy,
    /// One entry per consumer slot, globally indexed. Where each lives.
    pub consumers: Vec<ConsumerLoc>,
    /// Reserve one extra producer slot for the elasticity controller's
    /// writer lease (see module docs).
    pub leased: bool,
}

impl EdgeSpec {
    /// An all-local edge with `consumers` consumer slots — the common case
    /// for single-process execution.
    pub fn local(stage: u32, producers: u32, policy: RoutePolicy, consumers: u32) -> EdgeSpec {
        EdgeSpec {
            stage,
            producers,
            policy,
            consumers: vec![ConsumerLoc::Local; consumers.max(1) as usize],
            leased: false,
        }
    }

    /// Adds the elasticity controller's writer-lease slot.
    pub fn leased(mut self) -> EdgeSpec {
        self.leased = true;
        self
    }
}

/// The complete exchange wiring of one query on one node: every edge, plus
/// the addresses of the other nodes participating in the query.
/// [`ExchangeRegistry::build`] consumes this.
#[derive(Debug, Clone, Default)]
pub struct ExchangeTopology {
    /// Query id; a session's HELLO carries it so the receiving node can
    /// find the right registry.
    pub query: u64,
    /// Addresses of every *other* node in the query, which a poison
    /// reaches whether or not a session to them is open yet.
    pub peers: Vec<String>,
    /// One spec per exchange edge.
    pub edges: Vec<EdgeSpec>,
}

impl ExchangeTopology {
    pub fn new(query: u64) -> ExchangeTopology {
        ExchangeTopology {
            query,
            peers: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds one edge (builder-style).
    pub fn edge(mut self, spec: EdgeSpec) -> ExchangeTopology {
        self.edges.push(spec);
        self
    }

    /// Adds one peer node's page-server address (builder-style).
    pub fn peer(mut self, addr: impl Into<String>) -> ExchangeTopology {
        self.peers.push(addr.into());
        self
    }
}

/// Aggregate transfer statistics of a registry (all edges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Data pages that entered exchange buffers.
    pub pages: u64,
    /// Bytes that entered exchange buffers.
    pub bytes: u64,
    /// Consumer-side elastic capacity growths across all buffers.
    pub grow_events: u64,
    /// Largest bounded buffer capacity reached, in pages (0 when every
    /// buffer ran unbounded, e.g. the serial in-process executor).
    pub max_capacity: usize,
}

struct Edge {
    /// One queue per consumer slot, globally indexed. Remote slots have a
    /// queue too (unused locally) so indices line up on every node.
    queues: Vec<Arc<ElasticQueue>>,
    policy: RoutePolicy,
    consumers: Vec<ConsumerLoc>,
}

/// The third argument of [`ExchangeRegistry::build`]. It carries nothing:
/// it exists only so that signature, which benchmark code calls, stays as
/// it is.
#[derive(Debug, Default, Clone, Copy)]
pub struct NicModel;

impl NicModel {
    pub fn unlimited() -> Self {
        NicModel
    }
}

/// Wires stage output buffers to consumer-task inputs for one query, local
/// and remote. Built from an [`ExchangeTopology`] — see the module docs.
pub struct ExchangeRegistry {
    query: u64,
    limits: ExchangeLimits,
    network: NetworkConfig,
    peers: Vec<String>,
    edges: Mutex<HashMap<u32, Arc<Edge>>>,
    poison: Mutex<Option<AccordionError>>,
    /// The query's sessions, one per peer address this node has sent to.
    sessions: Mutex<HashMap<String, Arc<Session>>>,
}

impl ExchangeRegistry {
    /// Materializes `topology` with the buffer limits and transport
    /// timeouts of `network`.
    pub fn build(
        topology: &ExchangeTopology,
        network: &NetworkConfig,
        _nic: NicModel,
    ) -> Result<Arc<ExchangeRegistry>> {
        let registry = ExchangeRegistry {
            query: topology.query,
            limits: ExchangeLimits {
                initial_pages: network.initial_buffer_pages.max(1),
                max_pages: network.max_buffer_pages,
            },
            network: network.clone(),
            peers: topology.peers.clone(),
            edges: Mutex::new(HashMap::new()),
            poison: Mutex::new(None),
            sessions: Mutex::new(HashMap::new()),
        };
        for spec in &topology.edges {
            registry.register(spec)?;
        }
        Ok(Arc::new(registry))
    }

    /// Materializes `topology` for serial in-process execution: unbounded
    /// buffers (a whole stage completes before its consumer starts, so
    /// bounded pushes would self-deadlock).
    pub fn build_in_process(topology: &ExchangeTopology) -> Result<Arc<ExchangeRegistry>> {
        let unbounded = NetworkConfig::builder().buffer_pages(usize::MAX, None);
        Self::build(topology, &unbounded.build(), NicModel)
    }

    fn register(&self, spec: &EdgeSpec) -> Result<()> {
        if spec.consumers.is_empty() {
            return Err(AccordionError::Execution(format!(
                "stage {} edge declares no consumer slots",
                spec.stage
            )));
        }
        let partitions = spec.policy.partition_count();
        if partitions > 1 && partitions as usize != spec.consumers.len() {
            return Err(AccordionError::Execution(format!(
                "stage {} routes {partitions} partitions to {} consumer slots",
                spec.stage,
                spec.consumers.len()
            )));
        }
        let producers = spec.producers + u32::from(spec.leased);
        let queues: Vec<Arc<ElasticQueue>> = spec
            .consumers
            .iter()
            .map(|_| Arc::new(ElasticQueue::new(self.limits, producers)))
            .collect();
        let mut edges = self.edges.lock();
        if edges.contains_key(&spec.stage) {
            return Err(AccordionError::Internal(format!(
                "stage {} exchange registered twice",
                spec.stage
            )));
        }
        // Poison check and insert happen under the edges lock: a concurrent
        // poison() either sets the flag before this check (queues poisoned
        // here) or blocks on the edges lock and poisons them in its sweep —
        // an edge registered mid-failure can never slip through clean.
        // (poison() never holds its flag lock while taking the edges lock,
        // so this nesting cannot deadlock.)
        if let Some(e) = self.poison.lock().as_ref() {
            for q in &queues {
                q.poison(e.clone());
            }
        }
        edges.insert(
            spec.stage,
            Arc::new(Edge {
                queues,
                policy: spec.policy.clone(),
                consumers: spec.consumers.clone(),
            }),
        );
        Ok(())
    }

    fn edge(&self, stage: u32) -> Result<Arc<Edge>> {
        self.edges.lock().get(&stage).cloned().ok_or_else(|| {
            AccordionError::Execution(format!("stage {stage} has no registered exchange"))
        })
    }

    /// The queue of `stage`'s consumer slot `consumer` on this node, where a
    /// session feeds the pages addressed to it.
    pub(crate) fn ingress_queue(&self, stage: u32, consumer: u32) -> Result<Arc<ElasticQueue>> {
        let edge = self.edge(stage)?;
        match edge.consumers.get(consumer as usize) {
            Some(ConsumerLoc::Local) => Ok(edge.queues[consumer as usize].clone()),
            _ => Err(net_err(format!(
                "stage {stage} has no slot {consumer} here"
            ))),
        }
    }

    /// Applies a remote writer's end frame to every queue of `stage`'s
    /// edge on this node.
    pub(crate) fn finish_local(&self, stage: u32, reason: EndReason) -> Result<()> {
        for q in &self.edge(stage)?.queues {
            q.writer_finished(reason);
        }
        Ok(())
    }

    /// The query's session to the node at `addr`, opened on first use.
    pub fn session(&self, addr: &str) -> Result<Arc<Session>> {
        let mut sessions = self.sessions.lock();
        if let Some(session) = sessions.get(addr) {
            return Ok(session.clone());
        }
        let session = Session::open(addr, self.query, &self.network)?;
        if let Some(e) = self.poison_error() {
            session.fail(e);
        }
        sessions.insert(addr.to_string(), session.clone());
        Ok(session)
    }

    /// Writer endpoint for producer task `task` of `stage`. `gate` is the
    /// scheduler's compute-slot semaphore, yielded while blocked.
    pub fn writer(
        self: &Arc<Self>,
        stage: u32,
        task: u32,
        gate: Option<Arc<Semaphore>>,
    ) -> Result<Box<dyn ExchangeWriter>> {
        let edge = self.edge(stage)?;
        Ok(Box::new(EdgeWriter {
            registry: self.clone(),
            stage,
            queues: edge.queues.clone(),
            consumers: edge.consumers.clone(),
            policy: edge.policy.clone(),
            // Stagger round-robin starts by producer task so the stage's
            // combined output spreads across consumers even when every task
            // emits few pages.
            rr_next: task as usize,
            gate,
            finished: false,
        }))
    }

    /// Reader endpoint for consumer task `consumer` of `stage`'s output.
    /// The slot must be [`ConsumerLoc::Local`] on this node.
    pub fn reader(
        &self,
        stage: u32,
        consumer: u32,
        gate: Option<Arc<Semaphore>>,
    ) -> Result<Box<dyn ExchangeReader>> {
        let edge = self.edge(stage)?;
        let queue = edge.queues.get(consumer as usize).cloned().ok_or_else(|| {
            AccordionError::Execution(format!(
                "stage {stage} has {} consumer slots, task {consumer} requested",
                edge.queues.len()
            ))
        })?;
        if let Some(ConsumerLoc::Remote(host)) = edge.consumers.get(consumer as usize) {
            return Err(AccordionError::Execution(format!(
                "consumer slot {consumer} of stage {stage} lives on {host}, not this node"
            )));
        }
        Ok(Box::new(EdgeReader { queue, gate }))
    }

    /// Re-registers the output edge of `stage` at a larger producer count —
    /// on this node and, as ADDPROD on the session to it, on every node
    /// hosting a consumer slot of the edge. The grown tasks' frames follow
    /// on the same session, so they never reach a node that does not yet
    /// account for their writers. Routing is DOP-stable — hash/round-robin
    /// partitioning depends only on the (unchanged) consumer count — so
    /// grown producers need no repartitioning.
    ///
    /// The caller must hold an unfinished writer on the edge (the
    /// controller's lease): adding producers to an edge whose consumers
    /// already saw the end page would lose every page the new tasks push.
    pub fn add_producers(&self, stage: u32, n: u32) -> Result<()> {
        self.add_producers_local(stage, n)?;
        for host in remote_hosts(&self.edge(stage)?.consumers) {
            let grow = Payload::default().u32(stage).u32(n);
            self.session(host)?.send((kind::ADDPROD, grow.0))?;
        }
        Ok(())
    }

    /// Applies a producer-count growth to this node's queues only — a
    /// session calls this when a peer's ADDPROD arrives.
    pub fn add_producers_local(&self, stage: u32, n: u32) -> Result<()> {
        let edge = self.edge(stage)?;
        for q in &edge.queues {
            q.add_writers(n);
        }
        Ok(())
    }

    /// Producer slots of `stage`'s output edge that have not finished yet
    /// (including a held writer lease). The elasticity controller reads
    /// this each time it wakes (a task's exit wakes it) to detect a stage
    /// whose tasks all ended early — e.g. every
    /// task's LIMIT was satisfied mid-scan — with splits still unclaimed:
    /// once only the lease remains, nothing will ever claim again and the
    /// stage must be finished.
    ///
    /// Only queues of **local** consumer slots are consulted: those receive
    /// every producer's finish (local finishes directly, remote ones via
    /// FINISH frames), while the placeholder queues of remote slots only
    /// ever see local finishes and would over-count.
    pub fn producers_remaining(&self, stage: u32) -> Result<u32> {
        let edge = self.edge(stage)?;
        let local_max = edge
            .queues
            .iter()
            .zip(&edge.consumers)
            .filter(|(_, loc)| matches!(loc, ConsumerLoc::Local))
            .map(|(q, _)| q.writers())
            .max();
        Ok(match local_max {
            Some(n) => n,
            // No local slot: fall back to the placeholder queues (their
            // local-only count is still an upper bound).
            None => edge.queues.iter().map(|q| q.writers()).max().unwrap_or(0),
        })
    }

    /// Fails every buffer of every edge with `err` (first poison wins),
    /// unwinding all tasks blocked on — or about to touch — an exchange.
    /// The first poison is also broadcast (best-effort) as POISON on every
    /// open session and to every peer, so remote tasks of the query unwind
    /// too.
    pub fn poison(&self, err: AccordionError) {
        if !self.poison_local(err.clone()) {
            return;
        }
        for peer in &self.peers {
            // Best-effort: an unreachable peer is already failing.
            let _ = self.session(peer);
        }
        let msg = err.to_string();
        for session in self.sessions.lock().values() {
            let _ = session.send((kind::POISON, msg.clone().into_bytes()));
        }
    }

    /// Applies a poison to this node only (no re-broadcast — a session
    /// calls this when a peer's poison arrives, and echoing it back would
    /// ping-pong forever): every queue fails, and so does every wait on the
    /// registry's sessions. Returns whether this was the first poison.
    pub fn poison_local(&self, err: AccordionError) -> bool {
        let first = {
            let mut p = self.poison.lock();
            if p.is_none() {
                *p = Some(err.clone());
                true
            } else {
                false
            }
        };
        for edge in self.edges.lock().values() {
            for q in &edge.queues {
                q.poison(err.clone());
            }
        }
        for session in self.sessions.lock().values() {
            session.fail(err.clone());
        }
        first
    }

    /// The first error this registry was poisoned with, if any.
    pub fn poison_error(&self) -> Option<AccordionError> {
        self.poison.lock().clone()
    }

    /// Aggregate transfer statistics across all edges.
    pub fn stats(&self) -> ExchangeStats {
        let mut s = ExchangeStats::default();
        for edge in self.edges.lock().values() {
            for q in &edge.queues {
                s.pages += q.pages_in();
                s.bytes += q.bytes_in();
                s.grow_events += q.grow_events();
                let cap = q.capacity();
                // Effectively-unbounded buffers (serial in-process mode)
                // would make "largest capacity reached" meaningless.
                if cap != usize::MAX {
                    s.max_capacity = s.max_capacity.max(cap);
                }
            }
        }
        s
    }
}

impl Drop for ExchangeRegistry {
    /// A query's sessions end with its registry.
    fn drop(&mut self) {
        for session in self.sessions.get_mut().values() {
            session.close();
        }
    }
}

/// Routes one data page across `sinks` delivery targets according to
/// `policy`: gather/broadcast clones the (`Arc`-shared) page to every sink,
/// hash splits rows by key, round-robin deals whole pages advancing
/// `rr_next`. Empty pages and empty hash pieces are skipped. Every exchange
/// writer, local or remote, routes through it.
pub fn route_page(
    page: &Arc<DataPage>,
    policy: &RoutePolicy,
    rr_next: &mut usize,
    sinks: usize,
    deliver: &mut dyn FnMut(usize, Arc<DataPage>) -> Result<()>,
) -> Result<()> {
    if page.is_empty() {
        return Ok(());
    }
    match policy {
        RoutePolicy::Single => {
            for sink in 0..sinks.max(1) {
                deliver(sink, page.clone())?;
            }
        }
        RoutePolicy::Hash { keys, partitions } => {
            for (part, piece) in hash_partition(page, keys, *partitions)
                .into_iter()
                .enumerate()
            {
                if !piece.is_empty() {
                    deliver(part, Arc::new(piece))?;
                }
            }
        }
        RoutePolicy::RoundRobin { .. } => {
            let sink = *rr_next % sinks.max(1);
            *rr_next += 1;
            deliver(sink, page.clone())?;
        }
    }
    Ok(())
}

/// The distinct addresses of an edge's remote consumer slots.
fn remote_hosts(consumers: &[ConsumerLoc]) -> BTreeSet<&String> {
    consumers
        .iter()
        .filter_map(|loc| match loc {
            ConsumerLoc::Local => None,
            ConsumerLoc::Remote(host) => Some(host),
        })
        .collect()
}

/// Routes one producer task's pages into the edge's consumer slots —
/// local slots through their shared-memory queues, remote slots through
/// the registry's session to their node.
struct EdgeWriter {
    registry: Arc<ExchangeRegistry>,
    stage: u32,
    queues: Vec<Arc<ElasticQueue>>,
    consumers: Vec<ConsumerLoc>,
    policy: RoutePolicy,
    rr_next: usize,
    gate: Option<Arc<Semaphore>>,
    finished: bool,
}

impl EdgeWriter {
    /// Closes this producer's contribution: decrements the writer count of
    /// every local queue directly, and of every remote node hosting a
    /// consumer slot via a FINISH frame (whether or not this writer routed
    /// data there — the remote accounting needs the frame regardless).
    /// Idempotent.
    fn finish(&mut self, reason: EndReason) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        for q in &self.queues {
            q.writer_finished(reason);
        }
        let mut result = Ok(());
        for host in remote_hosts(&self.consumers) {
            let mut end = Payload::default().u32(self.stage).0;
            end.extend_from_slice(&Page::end(reason).encode());
            let sent = self.registry.session(host);
            if let Err(e) = sent.and_then(|s| s.send((kind::FINISH, end))) {
                result = Err(e);
            }
        }
        result
    }
}

impl ExchangeWriter for EdgeWriter {
    fn push(&mut self, page: Page) -> Result<()> {
        let page = match page {
            Page::End(e) => return self.finish(e.reason),
            Page::Data(p) => p,
        };
        if self.finished {
            return Err(AccordionError::Internal(
                "exchange writer pushed after its end page".into(),
            ));
        }
        let EdgeWriter {
            registry,
            stage,
            queues,
            consumers,
            policy,
            rr_next,
            gate,
            ..
        } = self;
        let gate = gate.as_deref();
        // A closed local queue (its consumer stopped pulling) is skipped:
        // the copy is simply not sent.
        route_page(
            &page,
            policy,
            rr_next,
            queues.len(),
            &mut |slot, piece| match &consumers[slot] {
                ConsumerLoc::Local => {
                    let q = &queues[slot];
                    if q.is_closed() {
                        return Ok(());
                    }
                    q.push(piece, gate)
                }
                ConsumerLoc::Remote(host) => {
                    registry
                        .session(host)?
                        .send_data(*stage, slot as u32, &piece, gate)
                }
            },
        )
    }
}

impl Drop for EdgeWriter {
    /// Safety net: a writer dropped without an end page (task error or bug)
    /// must not leave consumers waiting forever. A failed remote finish
    /// poisons the registry — the query cannot terminate cleanly once a
    /// node's writer accounting is short one end frame.
    fn drop(&mut self) {
        if let Err(e) = self.finish(EndReason::UpstreamFinished) {
            self.registry.poison(e);
        }
    }
}

struct EdgeReader {
    queue: Arc<ElasticQueue>,
    gate: Option<Arc<Semaphore>>,
}

impl ExchangeReader for EdgeReader {
    fn pull(&mut self) -> Result<Page> {
        self.queue.pull(self.gate.as_deref())
    }
}

impl Drop for EdgeReader {
    /// A reader dropped before draining (LIMIT satisfied, task unwinding)
    /// closes its buffer, so producers blocked on it run out instead of
    /// waiting forever — the consumer-to-producer direction of the paper's
    /// end-page shutdown protocol (Fig 13).
    fn drop(&mut self) {
        self.queue.close_consumer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::column::Column;
    use accordion_data::page::DataPage;

    fn registry_with(edges: Vec<EdgeSpec>) -> Arc<ExchangeRegistry> {
        let mut t = ExchangeTopology::new(1);
        for e in edges {
            t = t.edge(e);
        }
        ExchangeRegistry::build_in_process(&t).unwrap()
    }

    fn page(keys: Vec<i64>) -> Page {
        Page::data(DataPage::new(vec![Column::from_i64(keys)]))
    }

    fn drain(reader: &mut dyn ExchangeReader) -> Vec<i64> {
        let mut out = Vec::new();
        loop {
            match reader.pull().unwrap() {
                Page::End(_) => return out,
                Page::Data(p) => {
                    out.extend(p.column(0).as_i64().unwrap());
                }
            }
        }
    }

    #[test]
    fn gather_merges_all_producers() {
        let r = registry_with(vec![EdgeSpec::local(1, 2, RoutePolicy::Single, 1)]);
        let mut w0 = r.writer(1, 0, None).unwrap();
        let mut w1 = r.writer(1, 1, None).unwrap();
        w0.push(page(vec![1, 2])).unwrap();
        w1.push(page(vec![3])).unwrap();
        w0.push(Page::end(EndReason::ScanExhausted)).unwrap();
        w1.push(Page::end(EndReason::ScanExhausted)).unwrap();
        let mut reader = r.reader(1, 0, None).unwrap();
        let mut got = drain(reader.as_mut());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn single_partition_broadcasts_to_every_consumer() {
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 3)]);
        let mut w = r.writer(1, 0, None).unwrap();
        w.push(page(vec![7, 8])).unwrap();
        w.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        for consumer in 0..3 {
            let mut reader = r.reader(1, consumer, None).unwrap();
            assert_eq!(drain(reader.as_mut()), vec![7, 8]);
        }
    }

    #[test]
    fn hash_routing_is_deterministic_and_complete() {
        let r = registry_with(vec![EdgeSpec::local(
            1,
            1,
            RoutePolicy::Hash {
                keys: vec![0],
                partitions: 2,
            },
            2,
        )]);
        let mut w = r.writer(1, 0, None).unwrap();
        w.push(page((0..100).collect())).unwrap();
        w.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        let mut all = Vec::new();
        let mut per_queue = Vec::new();
        for consumer in 0..2 {
            let mut reader = r.reader(1, consumer, None).unwrap();
            let got = drain(reader.as_mut());
            per_queue.push(got.len());
            all.extend(got);
        }
        all.sort_unstable();
        assert_eq!(
            all,
            (0..100).collect::<Vec<_>>(),
            "no row lost or duplicated"
        );
        assert!(per_queue.iter().all(|&n| n > 0), "both partitions used");
    }

    #[test]
    fn round_robin_deals_pages() {
        let r = registry_with(vec![EdgeSpec::local(
            1,
            1,
            RoutePolicy::RoundRobin { partitions: 2 },
            2,
        )]);
        let mut w = r.writer(1, 0, None).unwrap();
        w.push(page(vec![1])).unwrap();
        w.push(page(vec![2])).unwrap();
        w.push(page(vec![3])).unwrap();
        w.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        let mut r0 = r.reader(1, 0, None).unwrap();
        let mut r1 = r.reader(1, 1, None).unwrap();
        assert_eq!(drain(r0.as_mut()), vec![1, 3]);
        assert_eq!(drain(r1.as_mut()), vec![2]);
    }

    #[test]
    fn round_robin_staggers_across_producer_tasks() {
        // Two producers, one page each: without per-task staggering both
        // pages would land on queue 0.
        let r = registry_with(vec![EdgeSpec::local(
            1,
            2,
            RoutePolicy::RoundRobin { partitions: 2 },
            2,
        )]);
        let mut w0 = r.writer(1, 0, None).unwrap();
        let mut w1 = r.writer(1, 1, None).unwrap();
        w0.push(page(vec![1])).unwrap();
        w1.push(page(vec![2])).unwrap();
        w0.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        w1.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        let mut r0 = r.reader(1, 0, None).unwrap();
        let mut r1 = r.reader(1, 1, None).unwrap();
        assert_eq!(drain(r0.as_mut()), vec![1]);
        assert_eq!(drain(r1.as_mut()), vec![2]);
    }

    #[test]
    fn broadcast_charges_stats_per_copy() {
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 3)]);
        let mut w = r.writer(1, 0, None).unwrap();
        w.push(page(vec![1, 2])).unwrap();
        w.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        let s = r.stats();
        assert_eq!(s.pages, 3, "one copy per consumer");
        assert_eq!(
            s.max_capacity, 0,
            "unbounded in-process buffers report no bounded capacity"
        );
    }

    #[test]
    fn partition_consumer_mismatch_rejected() {
        let topology = ExchangeTopology::new(1).edge(EdgeSpec::local(
            1,
            1,
            RoutePolicy::Hash {
                keys: vec![0],
                partitions: 3,
            },
            2,
        ));
        assert!(ExchangeRegistry::build_in_process(&topology).is_err());
    }

    #[test]
    fn dropped_writer_closes_edge() {
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1)]);
        {
            let mut w = r.writer(1, 0, None).unwrap();
            w.push(page(vec![5])).unwrap();
            // No end page: the drop guard must finish the edge.
        }
        let mut reader = r.reader(1, 0, None).unwrap();
        assert_eq!(drain(reader.as_mut()), vec![5]);
    }

    #[test]
    fn producers_added_mid_stream_extend_the_edge() {
        // One initial producer; the leased flag reserves the controller's
        // writer-lease slot.
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1).leased()]);
        let mut w0 = r.writer(1, 0, None).unwrap();
        let mut lease = r.writer(1, u32::MAX, None).unwrap();
        w0.push(page(vec![1])).unwrap();
        // The old task retires between splits (EndSignal direction).
        w0.push(Page::end(EndReason::EndSignal)).unwrap();
        // Grow: two new producers join the live edge and take over the
        // remaining splits.
        r.add_producers(1, 2).unwrap();
        let mut w1 = r.writer(1, 1, None).unwrap();
        let mut w2 = r.writer(1, 2, None).unwrap();
        w1.push(page(vec![2])).unwrap();
        w2.push(page(vec![3])).unwrap();
        w1.push(Page::end(EndReason::ScanExhausted)).unwrap();
        w2.push(Page::end(EndReason::ScanExhausted)).unwrap();
        // Only once the lease is released does the edge end.
        lease.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        let mut reader = r.reader(1, 0, None).unwrap();
        let mut got = drain(reader.as_mut());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3], "no page lost or duplicated");
    }

    #[test]
    fn lease_holds_edge_open_while_producers_finish() {
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1).leased()]);
        {
            let mut w = r.writer(1, 0, None).unwrap();
            w.push(page(vec![9])).unwrap();
            w.push(Page::end(EndReason::ScanExhausted)).unwrap();
        }
        let lease = r.writer(1, 1, None).unwrap();
        // All real producers are done, but the lease keeps the edge open:
        // the buffered page is readable, and no end page follows yet.
        let mut reader = r.reader(1, 0, None).unwrap();
        assert_eq!(reader.pull().unwrap().row_count(), 1);
        drop(lease); // drop guard finishes the lease's slot
        assert!(reader.pull().unwrap().is_end());
    }

    #[test]
    fn poison_fails_every_edge() {
        let r = registry_with(vec![
            EdgeSpec::local(1, 1, RoutePolicy::Single, 1),
            EdgeSpec::local(2, 1, RoutePolicy::Single, 1),
        ]);
        r.poison(AccordionError::Execution("boom".into()));
        let mut reader = r.reader(1, 0, None).unwrap();
        assert!(reader.pull().is_err());
        let mut w = r.writer(2, 0, None).unwrap();
        assert!(w.push(page(vec![1])).is_err());
        assert!(r.poison_error().is_some());
    }

    #[test]
    fn remote_slot_rejects_local_reader() {
        let spec = EdgeSpec {
            stage: 1,
            producers: 1,
            policy: RoutePolicy::Single,
            consumers: vec![ConsumerLoc::Local, ConsumerLoc::Remote("10.0.0.9:1".into())],
            leased: false,
        };
        let r = registry_with(vec![spec]);
        assert!(r.reader(1, 0, None).is_ok());
        assert!(
            r.reader(1, 1, None).is_err(),
            "remote slot is not readable here"
        );
    }

    #[test]
    fn producers_remaining_counts_local_slots_only() {
        // Slot 0 local, slot 1 remote: the remote placeholder queue never
        // sees remote finishes, so it must not dominate the count.
        let spec = EdgeSpec {
            stage: 1,
            producers: 2,
            policy: RoutePolicy::RoundRobin { partitions: 2 },
            consumers: vec![ConsumerLoc::Local, ConsumerLoc::Remote("10.0.0.9:1".into())],
            leased: false,
        };
        let r = registry_with(vec![spec]);
        assert_eq!(r.producers_remaining(1).unwrap(), 2);
        // Simulate a remote producer's FINISH frame: it decrements every
        // queue on this node (what a session does on receipt).
        r.finish_local(1, EndReason::ScanExhausted).unwrap();
        assert_eq!(r.producers_remaining(1).unwrap(), 1);
    }

    #[test]
    fn stats_count_transfers() {
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1)]);
        let mut w = r.writer(1, 0, None).unwrap();
        w.push(page(vec![1, 2, 3])).unwrap();
        w.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        let s = r.stats();
        assert_eq!(s.pages, 1);
        assert!(s.bytes > 0);
    }
}
