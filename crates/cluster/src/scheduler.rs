//! The query scheduler: one concurrent runner, parameterised by placement.
//!
//! [`QueryExecutor`] launches **every stage's tasks as soon as their inputs
//! exist** — with streaming exchanges, that is immediately: all tasks of
//! all stages start together and pages flow between them page-by-page
//! through the bounded elastic buffers of `accordion-net`.
//!
//! ## Placement
//!
//! Every query runs as *node `n` of `N`* ([`DistRole`]): the runner builds
//! a task only when [`task_node`] places it here, and every edge of the
//! node's registry knows which consumer slots are local and which sit
//! behind a peer's address. A single process is node 0 of 1 — it hosts
//! every task and owns every queue — so [`QueryExecutor::execute_tree`] is
//! "wire as node 0 of 1, run, unwrap the result", and a multi-node query
//! is the same two steps taken on each node: [`QueryExecutor::wire`]
//! (build the registry; the caller publishes it on its `PageRegistries`) and,
//! once every node is wired, [`NodeQuery::run`]. What the role decides:
//!
//! | | node 0 (coordinator) | nodes 1.. (workers) |
//! |---|---|---|
//! | admission gate | passes it | — (node 0 answers for the query) |
//! | split pools | registers the [`SplitQueue`]s in its [`SplitQueues`] | claims at `peers[0]` through a [`RemoteSplitSource`] |
//! | elasticity controller | arms its boundaries when wired, installs the controller's step, starts grown tasks | — |
//! | stage 0's result | drains it into the result's pages | none: a result of stats alone, or the query's poison |
//!
//! ## The worker pool
//!
//! Each task runs on its own (cheap, short-lived) thread, but computation
//! is gated by a compute-slot [`Semaphore`] with
//! `ExecOptions::worker_threads` permits: at most that many tasks execute
//! operators at any instant. A task blocked on exchange backpressure — a
//! full output buffer, or an empty input buffer — yields its slot while
//! parked (see `accordion_net::buffer`), so a producer stalled behind a
//! capacity-1 buffer hands its slot to the consumer that will drain it.
//! This is what makes the pool deadlock-free for any combination of
//! `worker_threads ≥ 1` and buffer capacity, including one page. Tasks the
//! elasticity controller grows mid-query join the same pool: a grown
//! stage competes for the same compute slots, it does not add any. The
//! pool belongs to the executor, not the query:
//! everything a process runs, whole queries or one node's share of them,
//! draws on it. Concurrent queries meet only there and at the admission
//! gate.
//!
//! Every task, planned or grown, starts through the run's one `Arc`-owned
//! task starter, on a thread whose handle goes on one list; the run drains
//! the result, then joins handles until the list is empty.
//!
//! ## Runtime elasticity
//!
//! Every stage that scans a table scans through its one [`SplitQueue`], in
//! every mode: its tasks claim splits one at a time, so its DOP can change
//! between any two claims. When `ExecOptions::elasticity` enables the
//! controller, an [`ElasticityController`] retunes the DOP of every
//! elastic-eligible Source stage (see
//! `accordion_plan::fragment::PlanFragment::elastic_bounds`: its child
//! exchanges, if any, all feed join builds) between splits, starting each
//! grown task on node 0 as a planned task starts — see `crate::elastic`
//! for the mechanism and the EndSignal handshake. Node 0
//! arms each such stage's first decision boundary when it is wired, so the
//! boundary holds before any task runs on any node: a worker whose share
//! starts first claims no further than node 0's own tasks could, and waits
//! there until node 0 runs and installs the controller's step. A node 0
//! dropped unrun releases its queues.
//!
//! ## Error propagation
//!
//! The first task failure (operator error or panic) poisons every
//! registered exchange — on this node and, through its sessions, on
//! every other: all sibling tasks unwind with the original error
//! the next time they touch an endpoint, the coordinator's result drain
//! fails fast, and every node's run returns that first error. The next
//! step of the controller sees the poison and releases its split queues,
//! and a claimant at a decision boundary steps before it waits: no
//! claimant stays parked there.
//!
//! [`SplitQueue`]: accordion_exec::splits::SplitQueue
//! [`ElasticityController`]: crate::elastic::ElasticityController

use std::collections::HashMap;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use accordion_common::sync::{Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_exec::driver::{run_task, JoinBuilds, TaskContext};
use accordion_exec::executor::{drain_result, ExecOptions, QueryResult};
use accordion_exec::metrics::QueryMetrics;
use accordion_exec::splits::{SplitFeed, SplitQueue, SplitSource};
use accordion_net::{ConsumerLoc, ExchangeRegistry, NicModel};
use accordion_plan::fragment::StageTree;
use accordion_plan::logical::LogicalPlan;
use accordion_plan::optimizer::Optimizer;
use accordion_plan::pipeline::{build_inputs, split_pipelines, PipelineSpec};
use accordion_storage::catalog::Catalog;

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::dist::{distributed_topology, task_node, DistRole, RemoteSplitSource, SplitQueues};
use crate::elastic::{ElasticityController, StageControl};

/// One task, assembled before its thread spawns: its stage's pipelines
/// and its context.
type Task = (Arc<Vec<PipelineSpec>>, TaskContext);

/// A stage's pipelines, split source (if it scans) and the child stages it
/// streams from (those that feed no join build).
type StageTasks = (
    Arc<Vec<PipelineSpec>>,
    Option<Arc<dyn SplitSource>>,
    Vec<u32>,
);

/// The run's task starter, the one way a task starts (see the module docs).
struct Tasks {
    registry: Arc<ExchangeRegistry>,
    gate: Arc<Semaphore>,
    builds: Arc<JoinBuilds>,
    metrics: Arc<QueryMetrics>,
    page_rows: usize,
    stages: HashMap<u32, StageTasks>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Tasks {
    /// Task `slot` of `stage`, with a writer in this node's group: `None`
    /// once the group has ended (a grow after every task here ended).
    fn task(&self, stage: u32, slot: u32) -> Result<Option<Task>> {
        let missing = || AccordionError::Internal(format!("the query has no stage {stage}"));
        let (pipelines, source, streams) = self.stages.get(&stage).ok_or_else(missing)?;
        let gate = || Some(self.gate.clone());
        let Some(output) = self.registry.try_writer(stage, gate())? else {
            return Ok(None);
        };
        let mut inputs = HashMap::new();
        for &child in streams {
            inputs.insert(child, self.registry.reader(child, slot, gate())?);
        }
        let feed = (source.clone()).map(|source| SplitFeed::from_source(source, slot, gate()));
        let (builds, metrics) = (self.builds.clone(), self.metrics.clone());
        let ctx = TaskContext::new(
            stage,
            slot,
            self.page_rows,
            inputs,
            output,
            feed,
            builds,
            metrics,
        );
        Ok(Some((pipelines.clone(), ctx)))
    }

    /// Runs `task` on a thread of its own, whose handle goes on `handles`.
    /// A task that fails, panics or cannot start poisons the query.
    fn start(self: &Arc<Self>, (pipelines, mut ctx): Task, handles: &mut Vec<JoinHandle<()>>) {
        let tasks = self.clone();
        let run = move || {
            tasks.gate.acquire();
            let outcome = catch_unwind(AssertUnwindSafe(|| run_task(&pipelines, &mut ctx)));
            tasks.gate.release();
            if let Err(e) = outcome.unwrap_or_else(|p| Err(panicked(&p))) {
                tasks.registry.poison(e);
            }
        };
        match std::thread::Builder::new().spawn(run) {
            Ok(handle) => handles.push(handle),
            Err(e) => self.registry.poison(e.into()),
        }
    }

    /// A grow, started unless its group has ended. The handle list stays
    /// locked from writer to push, so the run cannot find it empty between.
    fn grow(self: &Arc<Self>, stage: u32, slot: u32) -> Result<bool> {
        let mut handles = self.handles.lock();
        let task = self.task(stage, slot)?;
        Ok(task.map(|task| self.start(task, &mut handles)).is_some())
    }
}

/// Multi-threaded executor: concurrent stages, elastic exchanges, and
/// (when enabled) the intra-query re-parallelization
/// controller. The streaming counterpart of `accordion_exec::execute_tree`.
///
/// One executor is a **worker pool**: its compute-slot gate is created once
/// (from `ExecOptions::worker_threads`) and shared by every query it runs,
/// from any thread — N concurrent sessions multiplex the same slots, they
/// do not multiply them. Clones share the pool. Concurrent queries stay
/// deadlock-free for the same reason concurrent stages do: a task parked on
/// exchange backpressure releases its slot, so even `worker_threads = 1`
/// makes progress across arbitrarily many in-flight queries.
///
/// The executor also tracks every in-flight query's exchange registry;
/// [`QueryExecutor::poison_active`] fails them all promptly — the query
/// server's graceful shutdown path.
#[derive(Clone)]
pub struct QueryExecutor {
    opts: ExecOptions,
    /// Shared compute-slot gate — the worker pool.
    gate: Arc<Semaphore>,
    /// Exchange registries of wired and running queries, keyed by a local id.
    active: Arc<Mutex<HashMap<u64, Arc<ExchangeRegistry>>>>,
    next_query_id: Arc<AtomicU64>,
    /// Gates query starts against the pool (`ExecOptions::admission`,
    /// fixed at construction — per-call options cannot widen the limit).
    admission: Arc<AdmissionController>,
}

impl std::fmt::Debug for QueryExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryExecutor")
            .field("opts", &self.opts)
            .field("active_queries", &self.active.lock().len())
            .finish_non_exhaustive()
    }
}

impl Default for QueryExecutor {
    fn default() -> Self {
        QueryExecutor::new(ExecOptions::default())
    }
}

/// Removes a query's registry from the active map when the wired query
/// leaves scope — run to completion, failed, or dropped unrun.
struct ActiveGuard {
    active: Arc<Mutex<HashMap<u64, Arc<ExchangeRegistry>>>>,
    id: u64,
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.active.lock().remove(&self.id);
    }
}

/// One node's share of one query, wired and ready to run.
///
/// Life cycle (two-phase, so no task runs before every node is wired):
/// [`QueryExecutor::wire`] builds the topology and registry — the caller
/// registers the registry with its `PageRegistries` and acknowledges; once
/// every node is wired, [`NodeQuery::run`] executes this node's tasks.
/// Dropping an unrun `NodeQuery` releases everything `wire` took.
///
/// `T` is how the stage tree is held: an `Arc` for a query that waits,
/// wired, for its peers (and then runs on a thread of its own); a plain
/// borrow for one that runs where it was wired. The catalog is read only
/// while wiring, where the split pools are built.
pub struct NodeQuery<T = Arc<StageTree>> {
    tree: T,
    opts: ExecOptions,
    role: DistRole,
    registry: Arc<ExchangeRegistry>,
    /// Where this node's tasks of each stage that scans a table claim its
    /// splits, by stage id.
    sources: HashMap<u32, Arc<dyn SplitSource>>,
    /// The stages' split queues themselves, on node 0, which owns them and
    /// so runs their controller.
    queues: HashMap<u32, Arc<SplitQueue>>,
    remote_slots: usize,
    fleet_remote_slots: usize,
    /// The executor's slot pool, which the run draws on, and its size.
    gate: Arc<Semaphore>,
    slots: u32,
    /// Held from wiring until dropped: keeps the registry in the active map.
    _active: ActiveGuard,
    /// Held from wiring to the end of the run; node 0 only.
    _permit: Option<AdmissionPermit>,
}

impl QueryExecutor {
    pub fn new(opts: ExecOptions) -> Self {
        let gate = Arc::new(Semaphore::new(opts.worker_threads.max(1)));
        let admission = Arc::new(AdmissionController::new(opts.admission));
        QueryExecutor {
            opts,
            gate,
            active: Arc::new(Mutex::new(HashMap::new())),
            next_query_id: Arc::new(AtomicU64::new(0)),
            admission,
        }
    }

    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// The admission gate shared by every query on this pool.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Number of queries currently wired or executing on this pool.
    pub fn active_queries(&self) -> usize {
        self.active.lock().len()
    }

    /// Poisons every in-flight query's exchanges with `err`: all their
    /// tasks — on every node of a distributed query — unwind the next time
    /// they touch an endpoint and each query returns the error. New queries
    /// are unaffected — this is a kill switch for what is running *now*
    /// (server shutdown, admin abort).
    pub fn poison_active(&self, err: AccordionError) {
        let registries: Vec<Arc<ExchangeRegistry>> = self.active.lock().values().cloned().collect();
        for registry in registries {
            registry.poison(err.clone());
        }
        // Queries parked in the admission queue are in flight too — fail
        // them with the same error rather than letting them admit into a
        // shutting-down pool.
        self.admission.abort_waiters(err);
    }

    /// Executes a fragmented stage tree, running all stages concurrently on
    /// the worker pool.
    pub fn execute_tree(&self, catalog: &Catalog, tree: &StageTree) -> Result<QueryResult> {
        self.execute_tree_opts(catalog, tree, &self.opts)
    }

    /// [`Self::execute_tree`] with per-call options (a session's page size,
    /// network shape, elasticity mode). `opts.worker_threads` and
    /// `opts.admission` are ignored: the compute-slot gate and the
    /// admission limit belong to the executor, sized once at construction,
    /// and are shared by every query on this pool.
    pub fn execute_tree_opts(
        &self,
        catalog: &Catalog,
        tree: &StageTree,
        opts: &ExecOptions,
    ) -> Result<QueryResult> {
        // A query id is only ever spoken to peers, and node 0 of 1 serves
        // its split queues to nobody.
        let claims = SplitQueues::default();
        self.wire(catalog, tree, opts, DistRole::single(), 0, &claims)?
            .run()
    }

    /// Wires this node's share of query `query` (an id every node of the
    /// fleet agrees on) — phase one of an execution; see [`NodeQuery`].
    /// `opts` follows [`Self::execute_tree_opts`]: the pool and the
    /// admission limit stay the executor's. `claims` is the node's claim
    /// service, where node 0 registers the query's split queues; any other
    /// node claims from node 0's.
    pub fn wire<T>(
        &self,
        catalog: &Catalog,
        tree: T,
        opts: &ExecOptions,
        role: DistRole,
        query: u64,
        claims: &SplitQueues,
    ) -> Result<NodeQuery<T>>
    where
        T: Deref<Target = StageTree>,
    {
        // Admission first, on the node that answers for the query: past
        // the limit this waits in the gate's queue, or fails when that is
        // full; the permit is held until the run ends.
        let permit = if role.is_coordinator() {
            Some(self.admission.admit()?)
        } else {
            None
        };

        let topology = distributed_topology(&tree, query, &role)?;
        let remote_slots = topology
            .edges
            .iter()
            .flat_map(|e| &e.consumers)
            .filter(|c| matches!(c, ConsumerLoc::Remote(_)))
            .count();
        let slots = topology.edges.iter().map(|e| e.consumers.len());
        let fleet_remote_slots = (role.nodes() as usize - 1) * slots.sum::<usize>();
        let registry = ExchangeRegistry::build(&topology, &opts.network, NicModel)?;
        // Every scanning stage scans through one shared split pool, so its
        // task set can change between splits. Node 0 builds each pool and
        // serves it; every other node claims from node 0's, on its session
        // there (the role lists node 0, or `distributed_topology` refused it).
        let (mut sources, mut queues) = (HashMap::new(), HashMap::new());
        for f in tree.fragments() {
            let Some(table) = f.scan_table() else {
                continue;
            };
            let (stage, splits) = (f.stage.0, catalog.get(&table)?.splits.splits().to_vec());
            let source: Arc<dyn SplitSource> = if role.is_coordinator() {
                let queue = claims.register(query, stage, splits);
                // The controller decides from a stage's first claim on,
                // wherever the claim comes from: its first decision boundary
                // is armed here, before a task on any node can claim.
                if f.elastic_bounds.is_some() && opts.elasticity.enabled() {
                    queue.set_pause_after(Some(1));
                }
                queues.insert(stage, queue.clone());
                queue
            } else {
                RemoteSplitSource::on(registry.clone(), role.peers[0].clone(), stage, splits)
            };
            sources.insert(stage, source);
        }
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(id, registry.clone());
        Ok(NodeQuery {
            tree,
            opts: opts.clone(),
            role,
            registry,
            sources,
            queues,
            remote_slots,
            fleet_remote_slots,
            gate: self.gate.clone(),
            slots: self.opts.worker_threads.max(1) as u32,
            _active: ActiveGuard {
                active: self.active.clone(),
                id,
            },
            _permit: permit,
        })
    }

    /// Convenience entry point: `LogicalPlan → Optimizer → StageTree →
    /// concurrent tasks → result`.
    pub fn execute_logical(
        &self,
        catalog: &Catalog,
        plan: &LogicalPlan,
        optimizer: &Optimizer,
    ) -> Result<QueryResult> {
        self.execute_logical_opts(catalog, plan, optimizer, &self.opts)
    }

    /// [`Self::execute_logical`] with per-call options (see
    /// [`Self::execute_tree_opts`]).
    pub fn execute_logical_opts(
        &self,
        catalog: &Catalog,
        plan: &LogicalPlan,
        optimizer: &Optimizer,
        opts: &ExecOptions,
    ) -> Result<QueryResult> {
        let physical = optimizer.optimize(plan)?;
        let tree = StageTree::build(physical)?;
        self.execute_tree_opts(catalog, &tree, opts)
    }
}

impl<T> NodeQuery<T>
where
    T: Deref<Target = StageTree>,
{
    /// The per-node registry — register it with this node's
    /// `PageRegistries` (under the query's id) before any node runs.
    pub fn registry(&self) -> &Arc<ExchangeRegistry> {
        &self.registry
    }

    /// Consumer slots this node reaches over TCP — at least one in any
    /// genuinely multi-node plan.
    pub fn remote_slots(&self) -> usize {
        self.remote_slots
    }

    /// [`Self::remote_slots`] summed over the fleet, known without asking:
    /// every node registers the same edges and reaches all slots but its own.
    pub fn fleet_remote_slots(&self) -> usize {
        self.fleet_remote_slots
    }

    /// The one runner: executes, on the executor's pool, the tasks
    /// [`task_node`] places on this node, and returns the node's stats with
    /// the pages it drained: the whole result on the coordinator, none on a
    /// worker. Any node's failure poisons every registry in the query, so
    /// all nodes return the error.
    pub fn run(self) -> Result<QueryResult> {
        let tree: &StageTree = &self.tree;
        let (opts, role, registry, gate) = (&self.opts, &self.role, &self.registry, &self.gate);
        let builds = Arc::new(JoinBuilds::new(Some(gate.clone())));

        // Claim every endpoint up front so wiring errors surface before any
        // thread spawns.
        let mut stages = HashMap::new();
        for fragment in tree.fragments() {
            let stage = fragment.stage.0;
            let pipelines = Arc::new(split_pipelines(fragment)?);
            // A node hosting a task of the stage holds slot `node` of each
            // build edge: one reader, drained by whichever task claims it.
            let feeds = build_inputs(&pipelines);
            if role.node < fragment.parallelism.max(1) {
                for &(child, join) in &feeds {
                    let reader = registry.reader(child.0, role.node, Some(gate.clone()))?;
                    builds.add(stage, join, reader);
                }
            }
            let streams = (fragment.child_stages.iter())
                .filter(|child| !feeds.iter().any(|(c, _)| c == *child))
                .map(|child| child.0);
            let source = self.sources.get(&stage).cloned();
            stages.insert(stage, (pipelines, source, streams.collect()));
        }
        let tasks = Arc::new(Tasks {
            registry: registry.clone(),
            gate: gate.clone(),
            builds,
            metrics: Arc::new(QueryMetrics::new()),
            page_rows: opts.page_rows,
            stages,
            handles: Mutex::new(Vec::new()),
        });
        // Every planned writer before any task starts: no task has started,
        // so every group is live.
        let mut planned = Vec::new();
        for fragment in tree.fragments() {
            for slot in 0..fragment.parallelism.max(1) {
                if task_node(slot, role.nodes()) == role.node {
                    planned.extend(tasks.task(fragment.stage.0, slot)?);
                }
            }
        }
        // The coordinator's reader is not gated: the calling thread is not a
        // worker and only ever waits.
        let result_reader = if role.is_coordinator() {
            Some(registry.reader(0, 0, None)?)
        } else {
            None
        };

        // The controller lives where the queues are (node 0), over the
        // stages whose first decision boundary `wire` armed, and its step is
        // installed before any task here can claim.
        let mut controls = Vec::new();
        let elastic = opts.elasticity.enabled();
        for fragment in tree.fragments().iter().filter(|_| elastic) {
            let stage = fragment.stage.0;
            let queue = self.queues.get(&stage).cloned();
            let (Some(bounds), Some(queue)) = (fragment.elastic_bounds, queue) else {
                continue;
            };
            let dop = fragment.parallelism.max(1);
            // Every grow runs here, so the stage can occupy this node's
            // slots plus the planned tasks other nodes host for it.
            let away = (0..dop).filter(|&t| task_node(t, role.nodes()) != 0);
            let slots = self.slots + away.count() as u32;
            controls.push(StageControl::new(stage, bounds, dop, slots, queue));
        }
        let controller = (!controls.is_empty()).then(|| {
            let (mode, metrics, starter) = (opts.elasticity, tasks.metrics.clone(), tasks.clone());
            let spawn = Box::new(move |stage, slot| starter.grow(stage, slot));
            ElasticityController::new(mode, metrics, registry.clone(), controls, spawn)
        });

        let mut handles = tasks.handles.lock();
        planned
            .into_iter()
            .for_each(|task| tasks.start(task, &mut handles));
        drop(handles);
        // Drain the root stage's stream while tasks run; on poison the drain
        // errors out and the tasks unwind. Then join them, grown ones too.
        let drained = result_reader.map(drain_result);
        // Popped in a closure, so the list is unlocked while a task is joined.
        let next = || tasks.handles.lock().pop();
        while let Some(handle) = next() {
            let _ = handle.join();
        }
        controller.inspect(|c| c.finish());
        // The query's first failure, on this node or (arriving afterwards,
        // on a worker whose tasks all finished) on another.
        if let Some(e) = registry.poison_error() {
            return Err(e);
        }
        let pages = drained.transpose()?.unwrap_or_default();
        let stats = tasks.metrics.snapshot(registry.stats());
        Ok(QueryResult::new(tree.root().schema(), pages, stats))
    }
}

impl<T> Drop for NodeQuery<T> {
    /// A node 0 wired and dropped unrun leaves no claim parked at a
    /// boundary `wire` armed, which nothing would ever move. After a run
    /// this changes nothing: the controller has released its queues.
    fn drop(&mut self) {
        for queue in self.queues.values() {
            queue.release();
        }
    }
}

fn panicked(panic: &Box<dyn std::any::Any + Send>) -> AccordionError {
    let text = (panic.downcast_ref::<&str>().copied())
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
    let text = text.unwrap_or("non-string panic payload");
    AccordionError::Internal(format!("task panicked: {text}"))
}
