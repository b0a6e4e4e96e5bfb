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
//! edge's [`Partitioning`] — the plan's own type, also exported here as
//! [`RoutePolicy`] — gather/broadcast (`Single`), hash partitioning, or
//! round-robin. A transfer costs what the queue or the socket charges:
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
//! producer counts agree everywhere.
//!
//! A failed task [`ExchangeRegistry::poison`]s the registry: every queue
//! and every session wait fails, which unwinds all blocked sibling tasks
//! with the original error — and the poison is broadcast as a POISON frame
//! on every session and to every peer, so remote siblings unwind too.
//!
//! ## One producer per node, and re-parallelization (Fig 13)
//!
//! A node's tasks of a stage are **one producer** of the stage's output
//! edge, and [`EdgeSpec::producers`] counts producing nodes, not tasks.
//! Every [`ExchangeRegistry::writer`] call joins the node's *writer group*
//! for the edge; when the group's last member finishes, the group ends the
//! node's share once: it decrements every local queue directly and sends
//! one FINISH to each node hosting a consumer slot, behind every member's
//! pages on the session.
//!
//! So a change of a stage's DOP on a node touches no edge. A retiring task
//! pushes `Page::End(EndSignal)` and leaves its group; a grown task's
//! writer joins it. The elasticity controller holds one member of the group
//! on its own node (the *writer lease*), so the group cannot end — and
//! consumers cannot conclude the stage is done — while a grow is still
//! possible; it leaves once the stage's split queue is exhausted. Joining a
//! group that has ended is an error, never a reopened stream.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::hash::{hash_partition, Partitioning};
use accordion_data::page::{DataPage, EndReason, Page};

use crate::buffer::ElasticQueue;
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

/// How a writer routes data pages across an edge's consumer slots: the
/// plan's [`Partitioning`] itself, under the second name the exchange's
/// callers (the repo benchmark among them) spell it by.
pub use accordion_data::hash::Partitioning as RoutePolicy;

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
    /// Producing nodes across the whole fleet: each node's writers of the
    /// stage are one producer (see the module docs), and every node
    /// registers the global count.
    pub producers: u32,
    /// Routing policy; a multi-partition policy must match the consumer
    /// slot count one-to-one.
    pub policy: Partitioning,
    /// One entry per consumer slot, globally indexed. Where each lives.
    pub consumers: Vec<ConsumerLoc>,
    /// Ignored: the elasticity controller's lease is a member of its node's
    /// writer group, not a slot of the edge.
    pub leased: bool,
}

impl EdgeSpec {
    /// An all-local edge with `consumers` consumer slots — the common case
    /// for single-process execution.
    pub fn local(stage: u32, producers: u32, policy: Partitioning, consumers: u32) -> EdgeSpec {
        EdgeSpec {
            stage,
            producers,
            policy,
            consumers: vec![ConsumerLoc::Local; consumers.max(1) as usize],
            leased: false,
        }
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
    policy: Partitioning,
    consumers: Vec<ConsumerLoc>,
    /// This node's writer group: its live members, `None` once the last of
    /// them has left and the node's share of the edge has ended.
    group: Mutex<Option<u32>>,
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
        let queues: Vec<Arc<ElasticQueue>> = spec
            .consumers
            .iter()
            .map(|_| Arc::new(ElasticQueue::new(&self.network, spec.producers)))
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
                group: Mutex::new(Some(0)),
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

    /// Applies a remote node's end frame to every queue of `stage`'s
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

    /// Writer endpoint for producer task `task` of `stage`, a new member of
    /// this node's writer group for the edge. `gate` is the scheduler's
    /// compute-slot semaphore, yielded while blocked. A group whose members
    /// have all finished has ended the node's share of the edge: joining it
    /// is an error.
    pub fn writer(
        self: &Arc<Self>,
        stage: u32,
        task: u32,
        gate: Option<Arc<Semaphore>>,
    ) -> Result<Box<dyn ExchangeWriter>> {
        let edge = self.edge(stage)?;
        match edge.group.lock().as_mut() {
            Some(members) => *members += 1,
            None => {
                return Err(AccordionError::Internal(format!(
                    "task {task} cannot join stage {stage}'s writers here: they have all ended"
                )))
            }
        }
        Ok(Box::new(EdgeWriter {
            registry: self.clone(),
            stage,
            edge,
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

    /// The live writers of `stage`'s output edge as this node sees them:
    /// every member of its writer group (a held lease included), plus each
    /// other producing node whose FINISH has not arrived. The elasticity
    /// controller reads this each time it wakes (a task's exit wakes it) to
    /// detect a stage whose tasks all ended early — e.g. every task's LIMIT
    /// was satisfied mid-scan — with splits still unclaimed: once only its
    /// lease remains, nothing will ever claim again and the stage must be
    /// finished. It reads the first local consumer slot, whose queue counts
    /// every producing node (slot 0 is local on node 0, where the
    /// controller runs).
    pub fn producers_remaining(&self, stage: u32) -> Result<u32> {
        let edge = self.edge(stage)?;
        let slot = (edge.consumers.iter())
            .position(|loc| *loc == ConsumerLoc::Local)
            .ok_or_else(|| {
                AccordionError::Internal(format!("stage {stage} has no consumer slot here"))
            })?;
        let group = edge.group.lock();
        // A live group is one of the queue's writers, whatever its size.
        Ok(edge.queues[slot].writers() + group.unwrap_or(0).saturating_sub(1))
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
    policy: &Partitioning,
    rr_next: &mut usize,
    sinks: usize,
    deliver: &mut dyn FnMut(usize, Arc<DataPage>) -> Result<()>,
) -> Result<()> {
    if page.is_empty() {
        return Ok(());
    }
    match policy {
        Partitioning::Single => {
            for sink in 0..sinks.max(1) {
                deliver(sink, page.clone())?;
            }
        }
        Partitioning::Hash { keys, partitions } => {
            for (part, piece) in hash_partition(page, keys, *partitions)
                .into_iter()
                .enumerate()
            {
                if !piece.is_empty() {
                    deliver(part, Arc::new(piece))?;
                }
            }
        }
        Partitioning::RoundRobin { .. } => {
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
    edge: Arc<Edge>,
    rr_next: usize,
    gate: Option<Arc<Semaphore>>,
    finished: bool,
}

impl EdgeWriter {
    /// Leaves the node's writer group. The last member to leave ends the
    /// node's share of the edge: it decrements the writer count of every
    /// local queue directly, and of every remote node hosting a consumer
    /// slot via a FINISH frame (whether or not the group routed data there
    /// — the remote accounting needs the frame regardless), which follows
    /// every member's pages on the session. Idempotent.
    fn finish(&mut self, reason: EndReason) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        {
            let mut group = self.edge.group.lock();
            match group.as_mut() {
                Some(members) if *members > 1 => {
                    *members -= 1;
                    return Ok(());
                }
                _ => *group = None,
            }
        }
        for q in &self.edge.queues {
            q.writer_finished(reason);
        }
        let mut result = Ok(());
        for host in remote_hosts(&self.edge.consumers) {
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
            edge,
            rr_next,
            gate,
            ..
        } = self;
        let (gate, queues) = (gate.as_deref(), &edge.queues);
        // A closed local queue (its consumer stopped pulling) is skipped:
        // the copy is simply not sent.
        route_page(
            &page,
            &edge.policy,
            rr_next,
            queues.len(),
            &mut |slot, piece| match &edge.consumers[slot] {
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
    /// leaves its group all the same, so consumers never wait forever. A
    /// failed remote finish poisons the registry — the query cannot
    /// terminate cleanly once a node's writer accounting is short one end
    /// frame.
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
        // One node's two tasks: one producer.
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1)]);
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
        // Two producer tasks on one node, one page each: without per-task
        // staggering both pages would land on queue 0.
        let r = registry_with(vec![EdgeSpec::local(
            1,
            1,
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
    fn a_grow_joins_a_live_group() {
        // One node, one producer: a task and the controller's lease.
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1)]);
        let mut task = r.writer(1, 0, None).unwrap();
        let mut lease = r.writer(1, u32::MAX, None).unwrap();
        task.push(page(vec![1])).unwrap();
        // The old task retires between splits (EndSignal direction); the
        // lease keeps the group, and the edge, open.
        task.push(Page::end(EndReason::EndSignal)).unwrap();
        assert_eq!(r.producers_remaining(1).unwrap(), 1);
        // Grow: a new task joins the group. Nothing about the edge changes.
        let mut grown = r.writer(1, 1, None).unwrap();
        assert_eq!(r.producers_remaining(1).unwrap(), 2);
        grown.push(page(vec![2])).unwrap();
        grown.push(Page::end(EndReason::ScanExhausted)).unwrap();
        lease.push(Page::end(EndReason::UpstreamFinished)).unwrap();
        assert_eq!(r.producers_remaining(1).unwrap(), 0);
        let mut reader = r.reader(1, 0, None).unwrap();
        assert_eq!(
            drain(reader.as_mut()),
            vec![1, 2],
            "every page, then one end"
        );
    }

    #[test]
    fn the_last_task_ending_while_a_grow_is_decided_leaves_the_edge_open() {
        use std::sync::mpsc;
        use std::time::Duration;

        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1)]);
        let lease = r.writer(1, u32::MAX, None).unwrap();
        {
            let mut w = r.writer(1, 0, None).unwrap();
            w.push(page(vec![9])).unwrap();
            w.push(Page::end(EndReason::ScanExhausted)).unwrap();
        }
        // Every task has ended while the controller is still deciding
        // whether to grow: the buffered page is readable, and no end
        // page follows it yet.
        let mut reader = r.reader(1, 0, None).unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || loop {
            let page = reader.pull().unwrap();
            let end = page.is_end();
            tx.send(page.row_count()).unwrap();
            if end {
                return;
            }
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "the edge ended under a held lease"
        );
        drop(lease); // the drop guard leaves the group
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(0),
            "the end page"
        );
    }

    #[test]
    fn joining_an_ended_group_is_a_typed_error() {
        let r = registry_with(vec![EdgeSpec::local(1, 1, RoutePolicy::Single, 1)]);
        let mut w = r.writer(1, 0, None).unwrap();
        w.push(page(vec![1])).unwrap();
        w.push(Page::end(EndReason::ScanExhausted)).unwrap();
        let Err(err) = r.writer(1, 1, None) else {
            panic!("a writer joined an ended group");
        };
        assert!(matches!(err, AccordionError::Internal(_)), "{err}");
        // Nothing was reopened: the edge still ends after its one page.
        let mut reader = r.reader(1, 0, None).unwrap();
        assert_eq!(drain(reader.as_mut()), vec![1]);
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
