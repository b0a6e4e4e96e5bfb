//! Serial in-process stage-tree execution over exchange endpoints.
//!
//! This module is the **reference implementation** of the execution API:
//! stages run bottom-up in one thread, but all data still flows through the
//! same [`ExchangeRegistry`] endpoints the multi-threaded scheduler in
//! `accordion-cluster` uses — there is no materialized stage-output map
//! anywhere. Because a whole stage completes before its consumer starts,
//! the serial path uses [`ExchangeRegistry::build_in_process`] (unbounded
//! buffers); bounded elastic buffers and the worker pool only make sense
//! with concurrent tasks and live in `accordion-cluster`. Scans claim
//! their splits through the same [`ScanSource`](crate::operators::ScanSource)
//! as there, but not from one pool per stage: tasks here run one after
//! another, each to completion, so a shared pool would hand every split to
//! task 0. Each task instead drains a [`SplitQueue`] of its own over every
//! `parallelism`-th split from its index on, and the merge stage above
//! still combines non-empty partial states from several scanning tasks.
//!
//! Task 0 of a probe stage builds each join table into the same
//! [`JoinBuilds`] as there, and tasks 1.. probe it.
//!
//! [`exchange_topology`] — shared with the cluster scheduler — derives the
//! query's [`ExchangeTopology`] from the stage tree: one edge per stage,
//! whose producers are the nodes hosting a task of the stage (one here:
//! a node's tasks are one producer), routing by the stage's output
//! partitioning into one consumer slot per consumer task, or per node on
//! an edge that feeds a join build (stage 0's consumer is the coordinator).
//! All slots are local; the distributed scheduler re-homes slots onto
//! worker nodes before building the registry.

use std::collections::HashMap;
use std::sync::Arc;

use accordion_common::config::{
    worker_threads_from_env, AdmissionConfig, ElasticityMode, NetworkConfig,
};
use accordion_common::{AccordionError, Result};
use accordion_data::column::Column;
use accordion_data::page::{DataPage, Page};
use accordion_data::schema::Schema;
use accordion_data::types::Value;
use accordion_net::{EdgeSpec, ExchangeReader, ExchangeRegistry, ExchangeTopology};
use accordion_plan::fragment::StageTree;
use accordion_plan::logical::LogicalPlan;
use accordion_plan::optimizer::Optimizer;
use accordion_plan::pipeline::{build_inputs, split_pipelines};
use accordion_storage::catalog::Catalog;

use crate::driver::{run_task, JoinBuilds, TaskContext};
use crate::metrics::{QueryMetrics, QueryStats};
use crate::splits::{SplitFeed, SplitQueue};

/// Executor tuning.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Target rows per page produced by scans and blocking operators.
    pub page_rows: usize,
    /// Compute slots of the cluster scheduler's worker pool (used by
    /// `accordion-cluster`; the serial executor ignores it). Defaults to
    /// the `ACCORDION_WORKER_THREADS` environment variable, else 4.
    pub worker_threads: usize,
    /// Elastic exchange buffer limits and TCP transport timeouts (used by
    /// the cluster scheduler).
    pub network: NetworkConfig,
    /// Intra-query re-parallelization controller (used by the cluster
    /// scheduler; the serial executor runs no controller). Defaults to the
    /// `ACCORDION_ELASTICITY` environment variable (`off`, `forced-grow`,
    /// `forced-shrink`, `auto[:deadline_ms]`), else off — what the CI
    /// elasticity matrix toggles.
    pub elasticity: ElasticityMode,
    /// Multi-query admission control (used by the cluster scheduler, which
    /// reads it from the options its executor was **constructed** with —
    /// per-query option overrides cannot change the shared limit).
    /// Defaults to unlimited; the query server sets it from `--max-queries`
    /// and `--admission`.
    pub admission: AdmissionConfig,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            page_rows: 1024,
            worker_threads: worker_threads_from_env(),
            network: NetworkConfig::default(),
            elasticity: ElasticityMode::from_env(),
            admission: AdmissionConfig::default(),
        }
    }
}

impl ExecOptions {
    pub fn with_page_rows(page_rows: usize) -> Self {
        assert!(page_rows > 0, "page_rows must be positive");
        ExecOptions {
            page_rows,
            ..ExecOptions::default()
        }
    }

    pub fn worker_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "worker_threads must be positive");
        self.worker_threads = n;
        self
    }

    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    pub fn elasticity(mut self, elasticity: ElasticityMode) -> Self {
        self.elasticity = elasticity;
        self
    }

    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// The materialized result of a query: the output schema, the pages the
/// root stage delivered (in delivery order), and runtime statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    /// `Arc`-shared result pages, exactly as the root stage delivered them.
    pub pages: Vec<Arc<DataPage>>,
    stats: QueryStats,
}

impl QueryResult {
    pub fn new(schema: Schema, pages: Vec<Arc<DataPage>>, stats: QueryStats) -> Self {
        QueryResult {
            schema,
            pages,
            stats,
        }
    }

    pub fn row_count(&self) -> usize {
        self.pages.iter().map(|p| p.row_count()).sum()
    }

    /// All result rows as owned scalars — the assertion path for tests.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.pages.iter().flat_map(|p| p.rows()).collect()
    }

    /// Runtime statistics: rows/bytes produced per operator per task, plus
    /// exchange transfer counters — the raw material for the §5.2
    /// `V_remain / R_consume` what-if predictor.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// The whole result as one page (an empty page of the right arity when
    /// the query produced no rows).
    pub fn concat(&self) -> DataPage {
        if self.pages.is_empty() {
            let fields = self.schema.fields().iter();
            return DataPage::new(fields.map(|f| Column::nulls(f.data_type, 0)).collect());
        }
        DataPage::concat(&self.pages.iter().map(|p| p.as_ref()).collect::<Vec<_>>())
    }
}

/// Derives the exchange wiring of `tree` over `nodes` as an all-local
/// [`ExchangeTopology`]: one edge per stage, whose consumer is its parent
/// stage's task set (stage 0 is consumed by the coordinator, one slot) —
/// or, when it feeds a join build, one slot on each of the `nodes` that
/// host a task of the parent (slot `s` on node `s`). Its producers are
/// the `min(parallelism, nodes)` nodes hosting a task of the stage: each
/// node's tasks, grown ones included, are one producer (see
/// `accordion_net::exchange`), so a mid-query DOP change never touches an
/// edge.
///
/// The distributed scheduler takes this as its starting point and re-homes
/// consumer slots onto worker nodes before building each node's registry.
pub fn exchange_topology(tree: &StageTree, nodes: u32) -> Result<ExchangeTopology> {
    let mut consumers: HashMap<u32, u32> = HashMap::new();
    consumers.insert(0, 1);
    for f in tree.fragments() {
        let tasks = f.parallelism.max(1);
        for c in &f.child_stages {
            consumers.insert(c.0, tasks);
        }
        for (c, _) in build_inputs(&split_pipelines(f)?) {
            consumers.insert(c.0, tasks.min(nodes.max(1)));
        }
    }
    let mut topology = ExchangeTopology::new(0);
    for f in tree.fragments() {
        let n = consumers.get(&f.stage.0).copied().ok_or_else(|| {
            AccordionError::Internal(format!("stage {} has no consumer", f.stage))
        })?;
        let producers = f.parallelism.max(1).min(nodes.max(1));
        let policy = f.output_partitioning.clone();
        topology = topology.edge(EdgeSpec::local(f.stage.0, producers, policy, n));
    }
    Ok(topology)
}

/// Drains the coordinator's reader (stage 0) into result pages.
pub fn drain_result(mut reader: Box<dyn ExchangeReader>) -> Result<Vec<Arc<DataPage>>> {
    let mut pages = Vec::new();
    loop {
        match reader.pull()? {
            Page::End(_) => return Ok(pages),
            Page::Data(p) => {
                if !p.is_empty() {
                    pages.push(p);
                }
            }
        }
    }
}

/// Executes a fragmented stage tree against the catalog, serially in the
/// calling thread. Stages run bottom-up; every task streams its output
/// through exchange endpoints.
pub fn execute_tree(
    catalog: &Catalog,
    tree: &StageTree,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let topology = exchange_topology(tree, 1)?;
    let registry = ExchangeRegistry::build_in_process(&topology)?;
    let metrics = Arc::new(QueryMetrics::new());
    let builds = Arc::new(JoinBuilds::new(None));
    for stage_id in tree.execution_order() {
        let fragment = tree.fragment(stage_id)?;
        let pipelines = split_pipelines(fragment)?;
        let feeds = build_inputs(&pipelines);
        for &(child, join) in &feeds {
            builds.add(stage_id.0, join, registry.reader(child.0, 0, None)?);
        }
        let table = fragment.scan_table().map(|t| catalog.get(&t)).transpose()?;
        let tasks = fragment.parallelism.max(1);
        // Every writer joins the stage's one group before task 0 runs, or
        // task 0's end would end the edge.
        let writers: Vec<_> = (0..tasks)
            .map(|task| registry.writer(fragment.stage.0, task, None))
            .collect::<Result<_>>()?;
        for (task, writer) in (0..tasks).zip(writers) {
            let mut inputs = HashMap::new();
            for child in &fragment.child_stages {
                if !feeds.iter().any(|(c, _)| c == child) {
                    inputs.insert(child.0, registry.reader(child.0, task, None)?);
                }
            }
            let mut ctx = TaskContext::new(
                fragment.stage.0,
                task,
                opts.page_rows,
                inputs,
                writer,
                table.as_ref().map(|table| {
                    let share = table.splits.splits().iter();
                    let share = share.skip(task as usize).step_by(tasks as usize);
                    SplitFeed::new(Arc::new(SplitQueue::new(share.cloned().collect())), 0, None)
                }),
                builds.clone(),
                metrics.clone(),
            );
            run_task(&pipelines, &mut ctx)?;
        }
    }
    let pages = drain_result(registry.reader(0, 0, None)?)?;
    Ok(QueryResult::new(
        tree.root().schema(),
        pages,
        metrics.snapshot(registry.stats()),
    ))
}

/// Convenience entry point covering the whole paper §2 pipeline:
/// `LogicalPlan → Optimizer → StageTree → pipelines → drivers → result`.
pub fn execute_logical(
    catalog: &Catalog,
    plan: &LogicalPlan,
    optimizer: &Optimizer,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let physical = optimizer.optimize(plan)?;
    let tree = StageTree::build(physical)?;
    execute_tree(catalog, &tree, opts)
}
