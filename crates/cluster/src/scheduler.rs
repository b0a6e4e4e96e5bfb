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
//! | split pools | owns the [`SplitQueue`]s | claims through a [`ClaimWiring`] proxy |
//! | elasticity controller | runs it, spawns grown tasks | — |
//! | stage 0's result | drains it (`Some(result)`) | `None`, or the query's poison |
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
//! elasticity controller spawns mid-query join the same pool: a grown
//! stage competes for the same compute slots, it does not add any. The
//! pool belongs to the executor, not the query:
//! everything a process runs, whole queries or one node's share of them,
//! draws on it. Concurrent queries meet only there and at the admission
//! gate.
//!
//! ## Runtime elasticity
//!
//! Every stage that scans a table scans through its one [`SplitQueue`], in
//! every mode: its tasks claim splits one at a time, so its DOP can change
//! between any two claims. When `ExecOptions::elasticity` enables the
//! controller, every elastic-eligible Source stage (see
//! `accordion_plan::fragment::PlanFragment::elastic_bounds`: its child
//! exchanges, if any, all feed join builds) also gets the controller's
//! writer lease on its output edge, and an
//! [`ElasticityController`] thread retunes the stage's DOP between splits
//! — see `crate::elastic` for the mechanism and the EndSignal handshake.
//! That thread sleeps until something happens: the split queues wake it at
//! their decision boundaries, and every task of the query wakes it when it
//! exits.
//!
//! ## Error propagation
//!
//! The first task failure (operator error or panic) poisons every
//! registered exchange — on this node and, through its sessions, on
//! every other: all sibling tasks unwind with the original error
//! the next time they touch an endpoint, the coordinator's result drain
//! fails fast, and every node's run returns that first error. The
//! controller observes the poison — woken by the first task that unwinds,
//! or within one tick if the only claimant is parked and nothing else
//! runs — releases its split queues and leases, and exits: no claimant
//! stays parked at a decision boundary.
//!
//! [`SplitQueue`]: accordion_exec::splits::SplitQueue
//! [`ElasticityController`]: crate::elastic::ElasticityController

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use accordion_common::sync::{Mutex, Semaphore, Signal};
use accordion_common::{AccordionError, Result, StageId};
use accordion_exec::driver::{run_task, JoinBuilds, TaskContext};
use accordion_exec::executor::{drain_result, ExecOptions, QueryResult};
use accordion_exec::metrics::QueryMetrics;
use accordion_exec::splits::SplitFeed;
use accordion_net::{ConsumerLoc, ExchangeReader, ExchangeRegistry, ExchangeWriter, NicModel};
use accordion_plan::fragment::StageTree;
use accordion_plan::logical::LogicalPlan;
use accordion_plan::optimizer::Optimizer;
use accordion_plan::pipeline::{build_inputs, split_pipelines, PipelineSpec};
use accordion_storage::catalog::Catalog;

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::dist::{distributed_topology, task_node, ClaimWiring, DistRole, StagePool};
use crate::elastic::{ElasticityController, StageControl};

/// Everything one task thread needs, assembled before spawning.
struct TaskSpec {
    stage: u32,
    task: u32,
    pipelines: Arc<Vec<PipelineSpec>>,
    inputs: HashMap<u32, Box<dyn ExchangeReader>>,
    output: Box<dyn ExchangeWriter>,
    /// Scanning stages claim splits from the stage's shared pool.
    split_feed: Option<SplitFeed>,
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
    /// Split pools of the stages that scan a table, by stage id.
    pools: HashMap<u32, StagePool>,
    /// The stages the controller drives: elastic, under an enabled mode.
    leased: HashSet<u32>,
    remote_slots: usize,
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
        // A query id is only ever spoken to peers; node 0 of 1 has none.
        self.wire(
            catalog,
            tree,
            opts,
            DistRole::single(),
            0,
            ClaimWiring::Local,
        )?
        .run()?
        .ok_or_else(|| AccordionError::Internal("node 0 returned no result".into()))
    }

    /// Wires this node's share of query `query` (an id every node of the
    /// fleet agrees on) — phase one of an execution; see [`NodeQuery`].
    /// `opts` follows [`Self::execute_tree_opts`]: the pool and the
    /// admission limit stay the executor's.
    pub fn wire<T>(
        &self,
        catalog: &Catalog,
        tree: T,
        opts: &ExecOptions,
        role: DistRole,
        query: u64,
        claim: ClaimWiring<'_>,
    ) -> Result<NodeQuery<T>>
    where
        T: Deref<Target = StageTree>,
    {
        // Admission first, on the node that answers for the query: under
        // the `Queue` policy this blocks until the pool has room; the
        // permit is held until the run ends.
        let permit = if role.is_coordinator() {
            Some(self.admission.admit()?)
        } else {
            None
        };

        let leased: HashSet<u32> = tree
            .fragments()
            .iter()
            .filter(|f| opts.elasticity.enabled() && f.elastic_bounds.is_some())
            .map(|f| f.stage.0)
            .collect();
        let topology = distributed_topology(&tree, &leased, query, &role)?;
        let remote_slots = topology
            .edges
            .iter()
            .flat_map(|e| &e.consumers)
            .filter(|c| matches!(c, ConsumerLoc::Remote(_)))
            .count();
        let registry = ExchangeRegistry::build(&topology, &opts.network, NicModel)?;
        // Every scanning stage scans through one shared split pool, so its
        // task set can change between splits; the edges of the stages a
        // controller drives get its writer lease slot.
        let mut pools: HashMap<u32, StagePool> = HashMap::new();
        let coordinator = role.peers.first().map_or("", String::as_str);
        for f in tree.fragments() {
            if let Some(table) = f.scan_table() {
                let splits = catalog.get(&table)?.splits.splits().to_vec();
                let pool = claim.pool(query, f.stage.0, splits, &registry, coordinator);
                pools.insert(f.stage.0, pool);
            }
        }
        // The lease on every elastic edge is held by the controller, which
        // runs where the queues are — a worker that owned one, or a
        // coordinator that did not, would leave the edge open forever.
        if pools
            .values()
            .any(|p| p.queue.is_some() != role.is_coordinator())
        {
            return Err(AccordionError::Internal(
                "a query's split queues are owned by node 0 and no other".into(),
            ));
        }
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(id, registry.clone());
        Ok(NodeQuery {
            tree,
            opts: opts.clone(),
            role,
            registry,
            pools,
            leased,
            remote_slots,
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
    T: Deref<Target = StageTree> + Sync,
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

    /// Runs one task to completion on the current thread, recording the
    /// first failure and poisoning the exchanges on error or panic. Its
    /// exit — clean, failed or unwinding from someone else's poison — is an
    /// event for the elasticity controller, whose signal `exited` is.
    fn run_task(
        &self,
        spec: TaskSpec,
        builds: &Arc<JoinBuilds>,
        metrics: &Arc<QueryMetrics>,
        first_err: &Mutex<Option<AccordionError>>,
        exited: Option<&Signal>,
    ) {
        self.gate.acquire();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = TaskContext::new(
                spec.stage,
                spec.task,
                self.opts.page_rows,
                spec.inputs,
                spec.output,
                spec.split_feed,
                builds.clone(),
                metrics.clone(),
            );
            run_task(&spec.pipelines, &mut ctx)
        }));
        self.gate.release();
        let err = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e),
            Err(panic) => Some(AccordionError::Internal(format!(
                "task panicked: {}",
                panic_message(&panic)
            ))),
        };
        if let Some(e) = err {
            first_err.lock().get_or_insert(e.clone());
            self.registry.poison(e);
        }
        if let Some(signal) = exited {
            signal.raise();
        }
    }

    /// The one runner: executes, on the executor's pool, the tasks
    /// [`task_node`] places on this node. The coordinator returns the
    /// drained result, workers `None`. Any node's failure poisons every
    /// registry in the query, so all nodes return the error.
    pub fn run(self) -> Result<Option<QueryResult>> {
        let tree: &StageTree = &self.tree;
        let (opts, role, registry, gate) = (&self.opts, &self.role, &self.registry, &self.gate);
        let metrics = Arc::new(QueryMetrics::new());
        let builds = Arc::new(JoinBuilds::new(Some(gate.clone())));
        let feed = |stage: u32, slot: u32| {
            let source = self.pools.get(&stage)?.source.clone();
            Some(SplitFeed::from_source(source, slot, Some(gate.clone())))
        };

        // Claim every endpoint up front so wiring errors surface before any
        // thread spawns.
        let mut pipelines: HashMap<u32, Arc<Vec<PipelineSpec>>> = HashMap::new();
        let mut specs = Vec::new();
        for fragment in tree.fragments() {
            let stage = fragment.stage.0;
            let stage_pipelines = Arc::new(split_pipelines(fragment)?);
            pipelines.insert(stage, stage_pipelines.clone());
            // A node hosting a task of the stage holds slot `node` of each
            // build edge: one reader, drained by whichever task claims it.
            let feeds = build_inputs(&stage_pipelines);
            if role.node < fragment.parallelism.max(1) {
                for &(child, join) in &feeds {
                    let reader = registry.reader(child.0, role.node, Some(gate.clone()))?;
                    builds.add(stage, join, reader);
                }
            }
            for task in 0..fragment.parallelism.max(1) {
                if task_node(task, role.nodes) != role.node {
                    continue;
                }
                let mut inputs = HashMap::new();
                for child in &fragment.child_stages {
                    if !feeds.iter().any(|(c, _)| c == child) {
                        let reader = registry.reader(child.0, task, Some(gate.clone()))?;
                        inputs.insert(child.0, reader);
                    }
                }
                specs.push(TaskSpec {
                    stage,
                    task,
                    pipelines: stage_pipelines.clone(),
                    inputs,
                    output: registry.writer(stage, task, Some(gate.clone()))?,
                    split_feed: feed(stage, task),
                });
            }
        }
        // The coordinator's reader is not gated: the calling thread is not a
        // worker and only ever waits.
        let result_reader = if role.is_coordinator() {
            Some(registry.reader(0, 0, None)?)
        } else {
            None
        };

        // The controller runs where the queues are (node 0): it takes the
        // writer lease on every elastic edge and arms the first decision
        // boundary — before any task runs. Producer growth goes out on this
        // node's sessions before grown tasks (always spawned here) push a
        // page on them.
        let mut controls = Vec::new();
        for &stage in &self.leased {
            let Some(queue) = self.pools.get(&stage).and_then(|p| p.queue.as_ref()) else {
                continue;
            };
            let fragment = tree.fragment(StageId(stage))?;
            controls.push(StageControl::new(
                stage,
                fragment
                    .elastic_bounds
                    .expect("only bounded stages are leased"),
                fragment.parallelism.max(1),
                queue.clone(),
                registry.writer(stage, u32::MAX, None)?,
            ));
        }
        let controller = if controls.is_empty() {
            None
        } else {
            // The query's tasks can occupy this node's slots and, spread
            // over several nodes, as many again on every other node.
            let slots = self.slots.saturating_mul(role.nodes);
            Some(ElasticityController::new(
                opts.elasticity,
                metrics.clone(),
                controls,
                slots,
            ))
        };

        let first_err = Mutex::new(None);
        let exited = controller.as_ref().map(ElasticityController::signal);
        let (this, builds, metrics, first_err) = (&self, &builds, &metrics, &first_err);
        let (pipelines, feed, exited) = (&pipelines, &feed, exited.as_deref());

        let mut pages = Vec::new();
        std::thread::scope(|scope| {
            // The controller first: a thread spawned while a scan task
            // already has a core can sit behind it in the run queue for a
            // scheduler slice — milliseconds in which the first decision
            // of the query is not taken. Started first, it is asleep on
            // its signal by then, and a wake-up does not queue.
            if let Some(controller) = controller {
                scope.spawn(move || {
                    // Grown tasks join the same scope, slot pool and join
                    // tables. The edge was re-registered at the larger DOP
                    // before this callback runs (ElasticityController::decide).
                    let mut spawn = |stage: u32, slot: u32| -> Result<()> {
                        let not_elastic =
                            || AccordionError::Internal(format!("stage {stage} is not elastic"));
                        let spec = TaskSpec {
                            stage,
                            task: slot,
                            pipelines: pipelines.get(&stage).ok_or_else(not_elastic)?.clone(),
                            inputs: HashMap::new(),
                            output: registry.writer(stage, slot, Some(gate.clone()))?,
                            split_feed: Some(feed(stage, slot).ok_or_else(not_elastic)?),
                        };
                        scope
                            .spawn(move || this.run_task(spec, builds, metrics, first_err, exited));
                        Ok(())
                    };
                    controller.run(registry, &mut spawn);
                });
            }
            for spec in specs {
                scope.spawn(move || this.run_task(spec, builds, metrics, first_err, exited));
            }
            // Drain the root stage's stream while tasks run; on poison the
            // drain errors out and the scope joins the unwinding tasks.
            if let Some(reader) = result_reader {
                match drain_result(reader) {
                    Ok(p) => pages = p,
                    Err(e) => {
                        first_err.lock().get_or_insert(e);
                    }
                }
            }
        });
        if let Some(e) = first_err.lock().take() {
            return Err(e);
        }
        if !role.is_coordinator() {
            // A remote failure can land after every local task finished
            // cleanly — surface it rather than reporting success.
            return match registry.poison_error() {
                Some(e) => Err(e),
                None => Ok(None),
            };
        }
        Ok(Some(QueryResult::new(
            tree.root().schema(),
            pages,
            metrics.snapshot(registry.stats()),
        )))
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
