//! Driver execution (paper §2 "Driver Execution").
//!
//! A task holds **exchange endpoints**, not materialized page maps: one
//! [`ExchangeReader`] per child stage that feeds no join build and one
//! [`ExchangeWriter`] toward its parent, both streaming page-by-page, the
//! node's [`JoinBuilds`], and — when its stage scans a table — a
//! [`SplitFeed`] on a split queue, the only place a scan gets splits from.
//! Every pipeline has one driver: it instantiates the pipeline's nodes —
//! the fragment's own [`PhysicalNode`]s, in pull order — into a chain of
//! [`PageStream`]s, building each operator from its node's fields and
//! `schema()`, and pulls pages through it into the pipeline's [`Sink`], the
//! task's output writer or a hash-join build table. A final aggregate
//! emits its groups in table order where [`PipelineSpec::table_order`]
//! finds that no step after it can see their order. Every operator in the
//! chain is wrapped in a [`MeteredStream`] recording rows/bytes produced
//! and time spent into the query's [`QueryMetrics`], under the name
//! [`operator_name`] gives its node, and a join build sink is metered too
//! (`HashJoinBuild`: the build side's rows and bytes, its self time the
//! build).
//!
//! Pipelines run producer-first inside a task (the order
//! [`accordion_plan::pipeline::split_pipelines`] guarantees). A join's
//! table is built once per node: the tasks of a stage on one node share a
//! [`JoinBuilds`], the first task to reach a build pipeline drains the
//! node's one reader of the build edge into the table, and the others skip
//! the pipeline. A task waits for a table only where it needs it, when its
//! probe is built, with its compute slot yielded. A merge stage is one
//! pipeline whose final aggregate consumes pages as they arrive off the
//! exchange.
//!
//! When every pipeline has finished, [`run_task`] pushes the in-band end
//! page through the output writer, closing this task's contribution to the
//! downstream exchange (paper Fig 13).
//!
//! [`PageStream`]: crate::operators::PageStream
//! [`MeteredStream`]: crate::metrics::MeteredStream
//! [`QueryMetrics`]: crate::metrics::QueryMetrics

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use accordion_common::sync::{condvar_wait, yield_slot, Condvar, Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::page::{EndReason, Page};
use accordion_net::{ExchangeReader, ExchangeWriter};
use accordion_plan::physical::PhysicalNode;
use accordion_plan::pipeline::{operator_name, PipelineSpec, Sink};

use crate::metrics::{MeteredStream, OperatorMetrics, QueryMetrics};
use crate::operators::{
    BoxedStream, FilterOp, FinalHashAggOp, HashJoinProbeOp, JoinTable, LimitOp, PartialHashAggOp,
    ProjectOp, ScanSource, SortOp, TopNOp,
};
use crate::splits::SplitFeed;

/// Mutable state of one running task.
pub struct TaskContext {
    /// The stage this task belongs to.
    pub stage: u32,
    /// This task's sequence number within its stage.
    pub task_index: u32,
    pub page_rows: usize,
    /// Streaming inputs, one reader per child stage id that feeds no join
    /// build. A reader is consumed (moved into the chain) by the pipeline
    /// that sources from it.
    inputs: HashMap<u32, Box<dyn ExchangeReader>>,
    /// Streaming output toward the parent stage (or the coordinator).
    output: Box<dyn ExchangeWriter>,
    /// The join tables of the node's share of the query.
    builds: Arc<JoinBuilds>,
    metrics: Arc<QueryMetrics>,
    /// The task's claim on a split queue (its stage's, or in the serial
    /// executor its own); `None` when the stage scans no table.
    split_feed: Option<SplitFeed>,
}

impl TaskContext {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stage: u32,
        task_index: u32,
        page_rows: usize,
        inputs: HashMap<u32, Box<dyn ExchangeReader>>,
        output: Box<dyn ExchangeWriter>,
        split_feed: Option<SplitFeed>,
        builds: Arc<JoinBuilds>,
        metrics: Arc<QueryMetrics>,
    ) -> Self {
        TaskContext {
            stage,
            task_index,
            page_rows,
            inputs,
            output,
            builds,
            metrics,
            split_feed,
        }
    }
}

/// Runs every pipeline of the task, then closes its output with the in-band
/// end page.
pub fn run_task(pipelines: &[PipelineSpec], ctx: &mut TaskContext) -> Result<()> {
    for pipeline in pipelines {
        run_pipeline(pipeline, ctx)?;
    }
    ctx.output.push(Page::end(EndReason::UpstreamFinished))
}

/// Runs one pipeline to completion inside `ctx` with its one driver.
pub fn run_pipeline(pipeline: &PipelineSpec, ctx: &mut TaskContext) -> Result<()> {
    match &pipeline.sink {
        Sink::Output => {
            let (mut chain, _) = build_chain(pipeline, ctx)?;
            while let page @ Page::Data(_) = chain.next_page()? {
                ctx.output.push(page)?;
            }
        }
        Sink::JoinBuild { join, keys } => {
            let builds = ctx.builds.clone();
            let Some((claim, input)) = builds.claim(ctx.stage, *join)? else {
                return Ok(()); // another task of this node builds it
            };
            let built = build_table(pipeline, keys, ctx, input);
            claim.publish(built.clone());
            built?;
        }
    }
    Ok(())
}

/// Drains a build pipeline, whose source reads the claimed `input`, into
/// its join table. The sink is metered like an operator: the build side's
/// rows and bytes, and busy time over the drain and the build, so its self
/// time is the build.
fn build_table(
    pipeline: &PipelineSpec,
    keys: &[usize],
    ctx: &mut TaskContext,
    input: Box<dyn ExchangeReader>,
) -> Result<Arc<JoinTable>> {
    if let Some(PhysicalNode::RemoteSource { child_stage, .. }) =
        pipeline.nodes.first().map(|n| &**n)
    {
        ctx.inputs.insert(child_stage.0, input);
    }
    let (mut chain, mut last) = build_chain(pipeline, ctx)?;
    let m = register(pipeline.sink.name(), pipeline, ctx, &mut last);
    let start = Instant::now();
    let mut pages = Vec::new();
    while let Page::Data(p) = chain.next_page()? {
        m.record_page(p.row_count() as u64, p.byte_size() as u64);
        pages.push(p);
    }
    let table = JoinTable::build(pages, keys);
    m.busy_ns.add(start.elapsed().as_nanos() as u64);
    Ok(Arc::new(table))
}

/// Instantiates the pipeline's nodes (a source followed by streaming
/// operators) into a metered pull chain, returned with the meter of its
/// last operator.
fn build_chain(
    pipeline: &PipelineSpec,
    ctx: &mut TaskContext,
) -> Result<(BoxedStream, Option<Arc<OperatorMetrics>>)> {
    let (source, rest) = (pipeline.nodes.split_first())
        .ok_or_else(|| AccordionError::Execution("pipeline has a sink but no source".into()))?;
    let mut last = None;
    let stream = build_source(source, ctx)?;
    let mut chain: BoxedStream = Box::new(MeteredStream::new(
        stream,
        register(operator_name(source), pipeline, ctx, &mut last),
    ));
    let mut probes = pipeline.probes.iter();
    for (step, node) in rest.iter().enumerate() {
        let meter = register(operator_name(node), pipeline, ctx, &mut last);
        let stream = wrap_operator(pipeline, step + 1, chain, &mut probes, &meter, ctx)?;
        chain = Box::new(MeteredStream::new(stream, meter));
    }
    Ok((chain, last))
}

/// Registers the meter of operator `name`, which knows the operator feeding
/// it (`upstream`, which becomes this one for the next operator).
fn register(
    name: &'static str,
    pipeline: &PipelineSpec,
    ctx: &TaskContext,
    upstream: &mut Option<Arc<OperatorMetrics>>,
) -> Arc<OperatorMetrics> {
    let m = ctx
        .metrics
        .register(ctx.stage, ctx.task_index, pipeline.id.0, name);
    if let Some(input) = upstream.replace(m.clone()) {
        m.set_input(input);
    }
    m
}

fn build_source(node: &PhysicalNode, ctx: &mut TaskContext) -> Result<BoxedStream> {
    match node {
        PhysicalNode::TableScan {
            table, projection, ..
        } => {
            let feed = ctx.split_feed.take().ok_or_else(|| {
                AccordionError::Execution(format!("scan of table {table} has no split feed"))
            })?;
            Ok(Box::new(ScanSource::claiming(
                feed,
                projection.clone(),
                ctx.page_rows,
            )))
        }
        PhysicalNode::RemoteSource { child_stage, .. } => {
            let reader = ctx.inputs.remove(&child_stage.0).ok_or_else(|| {
                AccordionError::Execution(format!(
                    "task has no exchange reader for stage {child_stage}"
                ))
            })?;
            Ok(Box::new(ReaderSource { reader }))
        }
        other => Err(AccordionError::Execution(format!(
            "pipeline must start with a source, found {}",
            other.name()
        ))),
    }
}

/// Adapts an [`ExchangeReader`] into the operator chain.
struct ReaderSource {
    reader: Box<dyn ExchangeReader>,
}

impl crate::operators::PageStream for ReaderSource {
    fn next_page(&mut self) -> Result<Page> {
        self.reader.pull()
    }
}

/// Builds the operator of `pipeline.nodes[step]` over `input`; a probe
/// takes the next of the pipeline's `probes`, and a partial aggregate
/// counts its flushes in its `meter`.
fn wrap_operator(
    pipeline: &PipelineSpec,
    step: usize,
    input: BoxedStream,
    probes: &mut std::slice::Iter<'_, usize>,
    meter: &OperatorMetrics,
    ctx: &mut TaskContext,
) -> Result<BoxedStream> {
    let node = &pipeline.nodes[step];
    let page_rows = ctx.page_rows;
    Ok(match &**node {
        PhysicalNode::Filter { predicate, .. } => Box::new(FilterOp::new(input, predicate.clone())),
        PhysicalNode::Project { exprs, .. } => Box::new(ProjectOp::new(
            input,
            exprs.iter().map(|(e, _)| e.clone()).collect(),
        )),
        PhysicalNode::PartialAggregate { group_by, aggs, .. } => Box::new(
            PartialHashAggOp::new(
                input,
                group_by.clone(),
                aggs.clone(),
                node.schema(),
                page_rows,
            )
            .counting_flushes(meter.flushes.clone()),
        ),
        PhysicalNode::FinalAggregate {
            group_count, aggs, ..
        } => Box::new(
            FinalHashAggOp::new(input, *group_count, aggs.clone(), node.schema(), page_rows)
                .with_table_order(pipeline.table_order(step)),
        ),
        PhysicalNode::TopN { keys, n, .. } => Box::new(TopNOp::new(
            input,
            keys.clone(),
            *n,
            node.schema(),
            page_rows,
        )),
        PhysicalNode::Sort { keys, .. } => Box::new(SortOp::new(input, keys.clone(), page_rows)),
        PhysicalNode::Limit { n, .. } => Box::new(LimitOp::new(input, *n)),
        PhysicalNode::HashJoin { on, .. } => {
            let join = *probes.next().ok_or_else(|| {
                AccordionError::Execution(format!(
                    "pipeline {} probes an unknown join",
                    pipeline.id
                ))
            })?;
            Box::new(HashJoinProbeOp::new(
                input,
                ctx.builds.table(ctx.stage, join)?,
                on.iter().map(|&(p, _)| p).collect(),
                node.schema(),
                page_rows,
            ))
        }
        other => {
            return Err(AccordionError::Execution(format!(
                "operator {} cannot appear mid-pipeline",
                operator_name(other)
            )))
        }
    })
}

/// The hash-join tables of one node's share of one query: for each (stage,
/// join) one slot, which the first task of the stage to reach the join's
/// build pipeline claims, builds from the node's one reader of the build
/// edge, and publishes. Every task of the stage on this node probes the
/// same table, so a task spawned mid-query on the node replays nothing.
pub struct JoinBuilds {
    slots: Mutex<HashMap<(u32, usize), Build>>,
    published: Condvar,
    /// The compute-slot gate a task hands back while it waits for a table.
    gate: Option<Arc<Semaphore>>,
}

enum Build {
    Unclaimed(BoxedReader),
    Building,
    Built(Arc<JoinTable>),
    Failed(AccordionError),
}

impl JoinBuilds {
    pub fn new(gate: Option<Arc<Semaphore>>) -> Self {
        JoinBuilds {
            slots: Mutex::new(HashMap::new()),
            published: Condvar::new(),
            gate,
        }
    }

    /// Gives join `join` of `stage` the reader its table is built from.
    pub fn add(&self, stage: u32, join: usize, input: BoxedReader) {
        let mut slots = self.slots.lock();
        slots.insert((stage, join), Build::Unclaimed(input));
    }

    /// Claims the build of join `join` of `stage` with its input, or `None`
    /// when another task has claimed it already.
    fn claim(&self, stage: u32, join: usize) -> Result<Option<(BuildClaim<'_>, BoxedReader)>> {
        let mut slots = self.slots.lock();
        let slot = slots.get_mut(&(stage, join)).ok_or_else(|| {
            AccordionError::Execution(format!("hash join {join} of stage {stage} has no input"))
        })?;
        Ok(match std::mem::replace(slot, Build::Building) {
            Build::Unclaimed(input) => Some((BuildClaim(self, (stage, join)), input)),
            other => {
                *slot = other;
                None
            }
        })
    }

    /// The table of join `join` of `stage`, waiting with the compute slot
    /// yielded while another task builds it. A failed build is the
    /// builder's error here too.
    fn table(&self, stage: u32, join: usize) -> Result<Arc<JoinTable>> {
        loop {
            let mut slots = self.slots.lock();
            match slots.get(&(stage, join)) {
                Some(Build::Built(table)) => return Ok(table.clone()),
                Some(Build::Failed(e)) => return Err(e.clone()),
                Some(Build::Building) => {}
                _ => {
                    return Err(AccordionError::Execution(format!(
                        "hash join {join} probed before its build pipeline ran"
                    )))
                }
            }
            yield_slot(self.gate.as_deref(), || {
                while matches!(slots.get(&(stage, join)), Some(Build::Building)) {
                    slots = condvar_wait(&self.published, slots);
                }
                drop(slots);
            });
        }
    }
}

type BoxedReader = Box<dyn ExchangeReader>;

/// One task's claim on a join build. Dropping it wakes the waiters, and
/// fails the build if it was never published (a panic mid-build), so no
/// task waits for a table nobody builds.
struct BuildClaim<'a>(&'a JoinBuilds, (u32, usize));

impl BuildClaim<'_> {
    fn publish(self, built: Result<Arc<JoinTable>>) {
        let build = built.map_or_else(Build::Failed, Build::Built);
        self.0.slots.lock().insert(self.1, build);
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        let ((stage, join), mut slots) = (self.1, self.0.slots.lock());
        if let Some(slot @ Build::Building) = slots.get_mut(&self.1) {
            *slot = Build::Failed(AccordionError::Internal(format!(
                "the build of hash join {join} of stage {stage} stopped without a table"
            )));
        }
        self.0.published.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct Empty;

    impl ExchangeReader for Empty {
        fn pull(&mut self) -> Result<Page> {
            Ok(Page::end(EndReason::UpstreamFinished))
        }
    }

    #[test]
    fn a_claim_dropped_unpublished_fails_its_waiters() {
        let builds = Arc::new(JoinBuilds::new(None));
        builds.add(1, 0, Box::new(Empty));
        let (claim, _input) = builds.claim(1, 0).unwrap().expect("the first claim builds");
        assert!(builds.claim(1, 0).unwrap().is_none(), "the second skips");
        let (done, waited) = std::sync::mpsc::channel();
        let waiter = builds.clone();
        std::thread::spawn(move || done.send(waiter.table(1, 0).map(drop)));
        std::thread::sleep(Duration::from_millis(10)); // let it park
        drop(claim);
        match waited.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(AccordionError::Internal(msg))) => assert!(msg.contains("stage 1"), "{msg}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
        assert!(matches!(
            builds.table(1, 0),
            Err(AccordionError::Internal(_))
        ));
    }
}
