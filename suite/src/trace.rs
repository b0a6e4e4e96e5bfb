//! In-memory spans around the library path a server session takes.
//!
//! End-to-end metrics are measured with no tracer anywhere. The traced
//! pass re-executes each statement through the same public calls
//! `core::server` makes for a SELECT — parse, analyze, optimize, fragment,
//! execute, frame the result — and the harness records a span around each
//! call. Nothing is recorded inside the engine. For `dist_shuffle` the
//! root span wraps `Fleet::run_sql` as a whole; what happens inside it is a
//! later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use accordion_common::json::Json;
use accordion_core::protocol::{encode_header, encode_row};
use accordion_exec::metrics::QueryStats;
use accordion_exec::QueryResult;
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_sql::{parse_statements, Analyzer, Statement};

use crate::env::{run_dist_capped, Backend, Env, DOP};
use crate::oracle::text_rows;
use crate::workloads::{sql, Step};

/// Span names, root first. The children are named `<layer>.<call>`.
pub const ROOT: &str = "stmt";
pub const CHILDREN: [&str; 7] = [
    "sql.parse",
    "sql.analyze",
    "plan.optimize",
    "plan.fragment",
    "cluster.execute",
    "core.frame_result",
    "core.fleet_run_sql",
];

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one statement execution share this.
    pub stmt_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; written out when the run ends. A disabled
/// tracer records nothing, which is how the tracing overhead is measured:
/// the same path with and without it.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt_id: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. A root span (no open parent) starts a new statement id.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.open.is_empty() {
            self.stmt_id += 1;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt_id: self.stmt_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children run sequentially inside their parent, so this is never
/// negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// `Err` naming the first span that is not inside its parent.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            let parent = spans
                .get(p)
                .ok_or_else(|| format!("span {i} names a missing parent {p}"))?;
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    span.name, parent.name
                ));
            }
            if span.stmt_id != parent.stmt_id {
                return Err(format!("span {i} and its parent differ in stmt_id"));
            }
        }
    }
    Ok(())
}

/// Self time per span name as a share of the summed root durations.
pub fn self_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let mut shares = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        *shares.entry(span.name).or_insert(0.0) += own_ns as f64 / total.max(1) as f64;
    }
    shares
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, own_ns)| {
                Json::obj()
                    .with("name", Json::str(s.name))
                    .with("start_ns", Json::u64(s.start_ns))
                    .with("end_ns", Json::u64(s.end_ns))
                    .with("self_ns", Json::u64(own_ns))
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    )
                    .with("stmt_id", Json::u64(s.stmt_id as u64))
            })
            .collect(),
    )
}

/// What one statement did on the library path.
pub struct LibraryOutcome {
    pub label: String,
    pub latency_ms: f64,
    pub error: Option<String>,
    pub deadline_ms: Option<u64>,
    pub stats: QueryStats,
    /// Planned Source-stage DOP the statement started at.
    pub planned_dop: u32,
    /// Cross-process consumer slots the statement's pages went through.
    pub remote_slots: usize,
}

impl LibraryOutcome {
    /// DOP of the Source stages when the statement ended: the planned one
    /// unless the controller retuned, then the last retune's target.
    pub fn final_dop(&self) -> u32 {
        self.stats
            .retunes
            .last()
            .map_or(self.planned_dop, |r| r.to_dop)
    }
}

impl Env {
    /// Runs one step through the public calls a server session makes,
    /// under `tracer`, on `executor` (a pool of the same size as the
    /// server's, which sits idle meanwhile).
    pub fn run_step_library(
        &mut self,
        step: &Step,
        executor: &QueryExecutor,
        tracer: &mut Tracer,
    ) -> LibraryOutcome {
        let deadline_ms = self.deadline_ms(step);
        let text = sql(step.stmt);
        let planned_dop = if deadline_ms.is_some() { 1 } else { DOP };
        let started = Instant::now();
        // The closures hand back the raw result: turning it into text rows
        // for the check is the harness's work, outside the timed span.
        let result: Result<(QueryResult, usize), String> = match &mut self.backend {
            Backend::Dist { fleet, worker } => {
                let fleet = fleet.as_mut().expect("fleet lives until drop");
                tracer.span(ROOT, |t| {
                    t.span("core.fleet_run_sql", |_| {
                        run_dist_capped(fleet, worker, text)
                    })
                    .map(|run| (run.result, run.remote_slots))
                    .map_err(|e| e.to_string())
                })
            }
            Backend::Server { .. } => {
                let catalog = self.catalog.clone();
                let mut opts = self.settings.exec_options();
                if let Some(d) = deadline_ms {
                    opts.elasticity = ElasticityConfig::auto(d);
                }
                tracer.span(ROOT, |t| {
                    let statements = t
                        .span("sql.parse", |_| parse_statements(text))
                        .map_err(|e| format!("{e:?}"))?;
                    let Some(Statement::Select(select)) = statements.first() else {
                        return Err("not a SELECT".to_string());
                    };
                    let plan = t
                        .span("sql.analyze", |_| {
                            Analyzer::new(&*catalog, text).analyze(select)
                        })
                        .map_err(|e| e.render(text))?;
                    let optimizer =
                        Optimizer::new(OptimizerConfig::default().with_parallelism(planned_dop));
                    let physical = t
                        .span("plan.optimize", |_| optimizer.optimize(&plan))
                        .map_err(|e| e.to_string())?;
                    let tree = t
                        .span("plan.fragment", |_| StageTree::build(physical))
                        .map_err(|e| e.to_string())?;
                    let result = t
                        .span("cluster.execute", |_| {
                            executor.execute_tree_opts(&catalog, &tree, &opts)
                        })
                        .map_err(|e| e.to_string())?;
                    // The frames the server writes, into memory instead of
                    // a socket.
                    let framed = t.span("core.frame_result", |_| {
                        let mut out = Vec::new();
                        let _ = writeln!(out, "RESULT {}", result.schema.len());
                        let _ = writeln!(out, "{}", encode_header(&result.schema));
                        for page in &result.pages {
                            for row in page.rows() {
                                let _ = writeln!(out, "{}", encode_row(&row));
                            }
                        }
                        out
                    });
                    std::hint::black_box(framed);
                    Ok((result, 0))
                })
            }
        };
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let (error, stats, remote_slots) = match result {
            Ok((result, slots)) => (
                self.check(step.stmt, &text_rows(&result)),
                result.stats().clone(),
                slots,
            ),
            Err(e) => (Some(e), QueryStats::default(), 0),
        };
        LibraryOutcome {
            label: step.label(),
            latency_ms,
            error,
            deadline_ms,
            stats,
            planned_dop,
            remote_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.span(ROOT, |t| {
                t.span("sql.parse", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.span("cluster.execute", |t| {
                    t.span("plan.fragment", |_| {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    })
                });
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        check_nesting(spans).unwrap();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[0].stmt_id, spans[4].stmt_id), (1, 2));
        let own = self_times_ns(spans);
        // The root's self time is what its two children do not cover.
        let children: u64 = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(own[0], spans[0].duration_ns() - children);
        assert!(own[0] < spans[0].duration_ns() / 2);
        let shares = self_shares(spans);
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(ROOT, |t| t.span("sql.parse", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let span = |start_ns, end_ns, parent| Span {
            name: ROOT,
            start_ns,
            end_ns,
            parent,
            stmt_id: 1,
        };
        assert!(check_nesting(&[span(0, 10, None), span(2, 8, Some(0))]).is_ok());
        assert!(check_nesting(&[span(0, 10, None), span(2, 12, Some(0))]).is_err());
        assert!(check_nesting(&[span(5, 4, None)]).is_err());
    }
}
