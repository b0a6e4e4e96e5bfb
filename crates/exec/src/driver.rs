//! Driver execution (paper §2 "Driver Execution").
//!
//! A task holds **exchange endpoints**, not materialized page maps: one
//! [`ExchangeReader`] per child stage and one [`ExchangeWriter`] toward its
//! parent, both streaming page-by-page. A driver instantiates one
//! pipeline's [`OperatorSpec`] list into a chain of [`PageStream`]s and
//! pulls pages through it into the pipeline's sink: the task's output
//! writer, a local exchange partition, or a hash-join build table. Every
//! operator in the chain is wrapped in a [`MeteredStream`] recording
//! rows/bytes produced and time spent into the query's [`QueryMetrics`].
//!
//! Pipelines still run producer-first inside a task (the order
//! [`accordion_plan::pipeline::split_pipelines`] guarantees), so local
//! exchanges and join tables are materialized before their intra-task
//! consumers start. A **multi-partition** local exchange runs its consumer
//! pipeline once per partition — one driver per partition — which is what
//! lets hash-partitioned merge stages execute inside a single task.
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

use accordion_common::{AccordionError, Result};
use accordion_data::page::{DataPage, EndReason, Page};
use accordion_data::schema::Schema;
use accordion_net::{route_page, ExchangeReader, ExchangeWriter, RoutePolicy};
use accordion_plan::pipeline::{OperatorSpec, PipelineSpec};
use accordion_storage::catalog::Catalog;

use crate::executor::route_policy;
use crate::metrics::{MeteredStream, OperatorMetrics, QueryMetrics};
use crate::operators::{
    BoxedStream, FilterOp, FinalHashAggOp, HashJoinProbeOp, JoinTable, LimitOp, PartialHashAggOp,
    ProjectOp, QueueSource, ScanSource, SortOp, TopNOp,
};
use crate::splits::{FeedScanSource, SplitFeed};

/// Buffered partitions of one intra-task local exchange, routed by the same
/// [`route_page`] helper the network writers use.
struct LocalExchange {
    partitions: Vec<Vec<Arc<DataPage>>>,
    policy: RoutePolicy,
    rr_next: usize,
}

/// Mutable state of one running task.
pub struct TaskContext<'a> {
    pub catalog: &'a Catalog,
    /// The stage this task belongs to.
    pub stage: u32,
    /// This task's sequence number within its stage.
    pub task_index: u32,
    /// Stage parallelism (used to pick this task's splits).
    pub parallelism: u32,
    pub page_rows: usize,
    /// Streaming inputs, one reader per child stage id. A reader is consumed
    /// (moved into the chain) by the pipeline that sources from it.
    inputs: HashMap<u32, Box<dyn ExchangeReader>>,
    /// Streaming output toward the parent stage (or the coordinator).
    output: Box<dyn ExchangeWriter>,
    /// Local exchange buffers, indexed by the splitter's exchange ids.
    local_exchanges: Vec<LocalExchange>,
    /// Hash-join build tables, indexed by the splitter's join ids.
    join_tables: Vec<Option<Arc<JoinTable>>>,
    metrics: Arc<QueryMetrics>,
    /// Elastic-stage scans claim splits from the stage's shared queue via
    /// this feed instead of the static `split_index % parallelism`
    /// assignment — what makes the task set grow/shrinkable between splits.
    split_feed: Option<SplitFeed>,
    /// End reason of the last output pipeline's chain, forwarded by
    /// [`run_task`] as the task's own end page.
    end_reason: EndReason,
}

impl<'a> TaskContext<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        catalog: &'a Catalog,
        stage: u32,
        task_index: u32,
        parallelism: u32,
        page_rows: usize,
        inputs: HashMap<u32, Box<dyn ExchangeReader>>,
        output: Box<dyn ExchangeWriter>,
        pipelines: &[PipelineSpec],
        metrics: Arc<QueryMetrics>,
    ) -> Self {
        let mut policies: Vec<RoutePolicy> = Vec::new();
        let mut joins = 0usize;
        for p in pipelines {
            for op in &p.operators {
                match op {
                    OperatorSpec::LocalSink {
                        exchange,
                        partitioning,
                    } => {
                        if policies.len() <= *exchange {
                            policies.resize(exchange + 1, RoutePolicy::Single);
                        }
                        policies[*exchange] = route_policy(partitioning);
                    }
                    OperatorSpec::LocalSource { exchange } if policies.len() <= *exchange => {
                        policies.resize(exchange + 1, RoutePolicy::Single);
                    }
                    OperatorSpec::HashJoinBuild { join, .. }
                    | OperatorSpec::HashJoinProbe { join, .. } => joins = joins.max(join + 1),
                    _ => {}
                }
            }
        }
        TaskContext {
            catalog,
            stage,
            task_index,
            parallelism: parallelism.max(1),
            page_rows,
            inputs,
            output,
            local_exchanges: policies
                .into_iter()
                .map(|policy| LocalExchange {
                    partitions: vec![Vec::new(); (policy.partition_count() as usize).max(1)],
                    policy,
                    rr_next: 0,
                })
                .collect(),
            join_tables: vec![None; joins],
            metrics,
            split_feed: None,
            end_reason: EndReason::UpstreamFinished,
        }
    }

    /// Makes this task's table scan claim splits from its stage's shared
    /// [`SplitQueue`] (one split at a time) instead of the static
    /// assignment. Set by the cluster scheduler for elastic Source stages.
    ///
    /// [`SplitQueue`]: crate::splits::SplitQueue
    pub fn set_split_feed(&mut self, feed: SplitFeed) {
        self.split_feed = Some(feed);
    }

    /// Number of drivers the pipeline needs: one per local-exchange
    /// partition when it sources from a local exchange, otherwise one.
    fn driver_count(&self, pipeline: &PipelineSpec) -> usize {
        match pipeline.operators.first() {
            Some(OperatorSpec::LocalSource { exchange }) => self
                .local_exchanges
                .get(*exchange)
                .map_or(1, |e| e.partitions.len()),
            _ => 1,
        }
    }
}

/// Runs every pipeline of the task, then closes its output with the in-band
/// end page.
pub fn run_task(pipelines: &[PipelineSpec], ctx: &mut TaskContext<'_>) -> Result<()> {
    for pipeline in pipelines {
        run_pipeline(pipeline, ctx)?;
    }
    let reason = ctx.end_reason;
    ctx.output.push(Page::end(reason))
}

/// Runs one pipeline to completion inside `ctx` — one driver per
/// local-exchange partition it consumes, a single driver otherwise.
pub fn run_pipeline(pipeline: &PipelineSpec, ctx: &mut TaskContext<'_>) -> Result<()> {
    let (sink, upstream) = pipeline
        .operators
        .split_last()
        .ok_or_else(|| AccordionError::Execution("empty pipeline".into()))?;
    if !sink.is_sink() {
        return Err(AccordionError::Execution(format!(
            "pipeline {} does not end in a sink: {}",
            pipeline.id,
            sink.name()
        )));
    }
    let drivers = ctx.driver_count(pipeline);
    if drivers > 1 {
        check_partition_safety(pipeline, upstream, drivers, ctx)?;
    }
    match sink {
        OperatorSpec::Output => {
            for driver in 0..drivers {
                let mut chain = build_chain(upstream, pipeline, driver, ctx)?;
                loop {
                    match chain.next_page()? {
                        Page::End(e) => {
                            ctx.end_reason = e.reason;
                            break;
                        }
                        page @ Page::Data(_) => ctx.output.push(page)?,
                    }
                }
            }
        }
        OperatorSpec::LocalSink { exchange, .. } => {
            for driver in 0..drivers {
                let mut chain = build_chain(upstream, pipeline, driver, ctx)?;
                loop {
                    match chain.next_page()? {
                        Page::End(_) => break,
                        Page::Data(p) => route_local(p, *exchange, ctx)?,
                    }
                }
            }
        }
        OperatorSpec::HashJoinBuild { join, keys } => {
            let mut pages = Vec::new();
            for driver in 0..drivers {
                let mut chain = build_chain(upstream, pipeline, driver, ctx)?;
                loop {
                    match chain.next_page()? {
                        Page::End(_) => break,
                        Page::Data(p) => pages.push(p),
                    }
                }
            }
            ctx.join_tables[*join] = Some(Arc::new(JoinTable::build(pages, keys)));
        }
        other => {
            return Err(AccordionError::Internal(format!(
                "unhandled sink {}",
                other.name()
            )))
        }
    }
    Ok(())
}

/// Per-partition drivers each run their own instance of every operator in
/// the chain, which is only correct for operators whose result is a union
/// of per-partition results. A global Limit, Sort or TopN would silently
/// over-count or mis-order; a FinalAggregate is union-correct only when the
/// local exchange hash-partitions on its group-key columns (the layout the
/// hash-partitioned merge plan produces — every row of one group lands in
/// the same partition).
fn check_partition_safety(
    pipeline: &PipelineSpec,
    upstream: &[OperatorSpec],
    drivers: usize,
    ctx: &TaskContext<'_>,
) -> Result<()> {
    let policy = match pipeline.operators.first() {
        Some(OperatorSpec::LocalSource { exchange }) => &ctx.local_exchanges[*exchange].policy,
        _ => &RoutePolicy::Single,
    };
    for op in upstream {
        match op {
            OperatorSpec::Limit { .. } | OperatorSpec::Sort { .. } | OperatorSpec::TopN { .. } => {
                return Err(AccordionError::Execution(format!(
                    "{} above a {drivers}-partition local exchange needs a merge step \
                     (per-driver instances would not be globally correct)",
                    op.name()
                )));
            }
            OperatorSpec::FinalAggregate { group_count, .. } => {
                let grouped_by_key = matches!(
                    policy,
                    RoutePolicy::Hash { keys, .. }
                        if !keys.is_empty() && keys.iter().all(|&k| k < *group_count)
                );
                if !grouped_by_key {
                    return Err(AccordionError::Execution(format!(
                        "FinalAggregate above a {drivers}-partition local exchange requires \
                         hash partitioning on its group keys (got {policy:?}); other routings \
                         would split a group's partial states across drivers"
                    )));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Routes one page into the partitions of a local exchange (same routing
/// rules as the network writers — see [`route_page`]).
fn route_local(page: Arc<DataPage>, exchange: usize, ctx: &mut TaskContext<'_>) -> Result<()> {
    let ex = ctx
        .local_exchanges
        .get_mut(exchange)
        .ok_or_else(|| AccordionError::Execution(format!("unknown local exchange {exchange}")))?;
    let LocalExchange {
        partitions,
        policy,
        rr_next,
    } = ex;
    route_page(&page, policy, rr_next, partitions.len(), &mut |sink, p| {
        partitions[sink].push(p);
        Ok(())
    })
}

/// Instantiates `specs` (a source followed by streaming operators) into a
/// metered pull chain. `driver` selects the local-exchange partition when
/// the pipeline sources from one.
fn build_chain(
    specs: &[OperatorSpec],
    pipeline: &PipelineSpec,
    driver: usize,
    ctx: &mut TaskContext<'_>,
) -> Result<BoxedStream> {
    let (source, rest) = specs
        .split_first()
        .ok_or_else(|| AccordionError::Execution("pipeline has a sink but no source".into()))?;
    let mut upstream = None;
    let stream = build_source(source, driver, ctx)?;
    let mut chain = meter(stream, source, pipeline, ctx, &mut upstream);
    for spec in rest {
        let stream = wrap_operator(spec, chain, ctx)?;
        chain = meter(stream, spec, pipeline, ctx, &mut upstream);
    }
    Ok(chain)
}

/// Wraps `stream` in a [`MeteredStream`] whose meter knows the operator
/// feeding it (`upstream`, which becomes this one for the next operator).
fn meter(
    stream: BoxedStream,
    spec: &OperatorSpec,
    pipeline: &PipelineSpec,
    ctx: &TaskContext<'_>,
    upstream: &mut Option<Arc<OperatorMetrics>>,
) -> BoxedStream {
    let m = ctx
        .metrics
        .register(ctx.stage, ctx.task_index, pipeline.id.0, spec.name());
    if let Some(input) = upstream.replace(m.clone()) {
        m.set_input(input);
    }
    Box::new(MeteredStream::new(stream, m))
}

fn build_source(
    spec: &OperatorSpec,
    driver: usize,
    ctx: &mut TaskContext<'_>,
) -> Result<BoxedStream> {
    match spec {
        OperatorSpec::TableScan { table, projection } => {
            if let Some(feed) = ctx.split_feed.clone() {
                // Elastic stage: claim splits from the shared queue so the
                // task set can change between splits (paper Fig 13).
                return Ok(Box::new(FeedScanSource::new(
                    feed,
                    projection.clone(),
                    ctx.page_rows,
                )));
            }
            let meta = ctx.catalog.get(table)?;
            // Static assignment: splits are dealt round-robin across the
            // stage's tasks.
            let splits = meta
                .splits
                .splits()
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 % ctx.parallelism == ctx.task_index)
                .map(|(_, s)| s.clone())
                .collect();
            Ok(Box::new(ScanSource::new(
                splits,
                projection.clone(),
                ctx.page_rows,
            )))
        }
        OperatorSpec::ExchangeSource { child_stage } => {
            let reader = ctx.inputs.remove(&child_stage.0).ok_or_else(|| {
                AccordionError::Execution(format!(
                    "task has no exchange reader for stage {child_stage}"
                ))
            })?;
            Ok(Box::new(ReaderSource { reader }))
        }
        OperatorSpec::LocalSource { exchange } => {
            let ex = ctx.local_exchanges.get_mut(*exchange).ok_or_else(|| {
                AccordionError::Execution(format!("unknown local exchange {exchange}"))
            })?;
            let pages = std::mem::take(&mut ex.partitions[driver]);
            Ok(Box::new(QueueSource::new(
                pages,
                EndReason::LocalExchangeDrained,
            )))
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

fn wrap_operator(
    spec: &OperatorSpec,
    input: BoxedStream,
    ctx: &mut TaskContext<'_>,
) -> Result<BoxedStream> {
    Ok(match spec {
        OperatorSpec::Filter { predicate } => Box::new(FilterOp::new(input, predicate.clone())),
        OperatorSpec::Project { exprs } => Box::new(ProjectOp::new(
            input,
            exprs.iter().map(|(e, _)| e.clone()).collect(),
        )),
        OperatorSpec::PartialAggregate {
            group_by,
            aggs,
            output_schema,
        } => Box::new(PartialHashAggOp::new(
            input,
            group_by.clone(),
            aggs.clone(),
            output_schema.clone(),
            ctx.page_rows,
        )),
        OperatorSpec::FinalAggregate {
            group_count,
            aggs,
            output_schema,
            table_order,
        } => Box::new(
            FinalHashAggOp::new(
                input,
                *group_count,
                aggs.clone(),
                output_schema.clone(),
                ctx.page_rows,
            )
            .with_table_order(*table_order),
        ),
        OperatorSpec::TopN { keys, n } => Box::new(TopNOp::new(
            input,
            keys.clone(),
            *n,
            Schema::default(),
            ctx.page_rows,
        )),
        OperatorSpec::Sort { keys } => Box::new(SortOp::new(input, keys.clone(), ctx.page_rows)),
        OperatorSpec::Limit { n } => Box::new(LimitOp::new(input, *n)),
        OperatorSpec::HashJoinProbe {
            join,
            keys,
            output_schema,
        } => {
            let table = ctx
                .join_tables
                .get(*join)
                .and_then(|t| t.clone())
                .ok_or_else(|| {
                    AccordionError::Execution(format!(
                        "hash join {join} probed before its build pipeline ran"
                    ))
                })?;
            Box::new(HashJoinProbeOp::new(
                input,
                table,
                keys.clone(),
                output_schema.clone(),
                ctx.page_rows,
            ))
        }
        other => {
            return Err(AccordionError::Execution(format!(
                "operator {} cannot appear mid-pipeline",
                other.name()
            )))
        }
    })
}
