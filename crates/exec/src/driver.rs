//! Driver execution (paper §2 "Driver Execution").
//!
//! A task holds **exchange endpoints**, not materialized page maps: one
//! [`ExchangeReader`] per child stage and one [`ExchangeWriter`] toward its
//! parent, both streaming page-by-page, and — when its stage scans a table
//! — a [`SplitFeed`] on a split queue, the only place a scan gets splits
//! from. Every pipeline has one driver: it
//! instantiates the pipeline's [`OperatorSpec`] list into a chain of
//! [`PageStream`]s and pulls pages through it into the pipeline's sink, the
//! task's output writer or a hash-join build table. Every operator in the
//! chain is wrapped in a [`MeteredStream`] recording rows/bytes produced
//! and time spent into the query's [`QueryMetrics`].
//!
//! Pipelines run producer-first inside a task (the order
//! [`accordion_plan::pipeline::split_pipelines`] guarantees), so a join
//! table is built before the probe pipeline that reads it starts. A merge
//! stage is one pipeline whose final aggregate consumes pages as they
//! arrive off the exchange.
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
use accordion_data::page::{EndReason, Page};
use accordion_data::schema::Schema;
use accordion_net::{ExchangeReader, ExchangeWriter};
use accordion_plan::pipeline::{OperatorSpec, PipelineSpec};

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
    /// Streaming inputs, one reader per child stage id. A reader is consumed
    /// (moved into the chain) by the pipeline that sources from it.
    inputs: HashMap<u32, Box<dyn ExchangeReader>>,
    /// Streaming output toward the parent stage (or the coordinator).
    output: Box<dyn ExchangeWriter>,
    /// Hash-join build tables, indexed by the splitter's join ids.
    join_tables: Vec<Option<Arc<JoinTable>>>,
    metrics: Arc<QueryMetrics>,
    /// The task's claim on a split queue (its stage's, or in the serial
    /// executor its own); `None` when the stage scans no table.
    split_feed: Option<SplitFeed>,
    /// End reason of the last output pipeline's chain, forwarded by
    /// [`run_task`] as the task's own end page.
    end_reason: EndReason,
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
        pipelines: &[PipelineSpec],
        metrics: Arc<QueryMetrics>,
    ) -> Self {
        let joins = pipelines
            .iter()
            .filter_map(|p| match p.operators.last() {
                Some(OperatorSpec::HashJoinBuild { join, .. }) => Some(join + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        TaskContext {
            stage,
            task_index,
            page_rows,
            inputs,
            output,
            join_tables: vec![None; joins],
            metrics,
            split_feed,
            end_reason: EndReason::UpstreamFinished,
        }
    }
}

/// Runs every pipeline of the task, then closes its output with the in-band
/// end page.
pub fn run_task(pipelines: &[PipelineSpec], ctx: &mut TaskContext) -> Result<()> {
    for pipeline in pipelines {
        run_pipeline(pipeline, ctx)?;
    }
    let reason = ctx.end_reason;
    ctx.output.push(Page::end(reason))
}

/// Runs one pipeline to completion inside `ctx` with its one driver.
pub fn run_pipeline(pipeline: &PipelineSpec, ctx: &mut TaskContext) -> Result<()> {
    let (sink, upstream) = pipeline
        .operators
        .split_last()
        .ok_or_else(|| AccordionError::Execution("empty pipeline".into()))?;
    let mut chain = build_chain(upstream, pipeline, ctx)?;
    match sink {
        OperatorSpec::Output => loop {
            match chain.next_page()? {
                Page::End(e) => {
                    ctx.end_reason = e.reason;
                    break;
                }
                page @ Page::Data(_) => ctx.output.push(page)?,
            }
        },
        OperatorSpec::HashJoinBuild { join, keys } => {
            let mut pages = Vec::new();
            while let Page::Data(p) = chain.next_page()? {
                pages.push(p);
            }
            ctx.join_tables[*join] = Some(Arc::new(JoinTable::build(pages, keys)));
        }
        other => {
            return Err(AccordionError::Execution(format!(
                "pipeline {} does not end in a sink: {}",
                pipeline.id,
                other.name()
            )))
        }
    }
    Ok(())
}

/// Instantiates `specs` (a source followed by streaming operators) into a
/// metered pull chain.
fn build_chain(
    specs: &[OperatorSpec],
    pipeline: &PipelineSpec,
    ctx: &mut TaskContext,
) -> Result<BoxedStream> {
    let (source, rest) = specs
        .split_first()
        .ok_or_else(|| AccordionError::Execution("pipeline has a sink but no source".into()))?;
    let mut upstream = None;
    let stream = build_source(source, ctx)?;
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
    ctx: &TaskContext,
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

fn build_source(spec: &OperatorSpec, ctx: &mut TaskContext) -> Result<BoxedStream> {
    match spec {
        OperatorSpec::TableScan { table, projection } => {
            let feed = ctx.split_feed.take().ok_or_else(|| {
                AccordionError::Execution(format!("scan of table {table} has no split feed"))
            })?;
            Ok(Box::new(ScanSource::claiming(
                feed,
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
    ctx: &mut TaskContext,
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
