//! What `EXPLAIN` and `EXPLAIN ANALYZE` answer: plans as text, one result
//! row per line.

use std::collections::HashMap;
use std::sync::Arc;

use accordion_common::{Json, Result};
use accordion_exec::metrics::QueryStats;
use accordion_plan::fragment::StageTree;
use accordion_plan::logical::LogicalPlan;
use accordion_plan::optimizer::Optimizer;
use accordion_plan::physical::PhysicalNode;
use accordion_plan::pipeline::{split_pipelines, Sink};

/// `EXPLAIN`: the analyzer's tree, the tree after the logical rewrites,
/// and the stage tree `optimizer` makes of it at `dop`.
pub fn plans(logical: &LogicalPlan, optimizer: &Optimizer, dop: u32) -> Result<String> {
    let tree = StageTree::build(optimizer.optimize(logical)?)?;
    Ok(format!(
        "=== as analyzed ===\n{logical}\n=== rewritten ===\n{}\n\
         === stage tree (dop {dop}) ===\n{}\n",
        optimizer.rewrite_logical(logical),
        tree.display()
    ))
}

/// `EXPLAIN ANALYZE`: the stage tree that ran, each plan node's line
/// followed by its meter — rows and self time summed over every task on
/// every node in `nodes` (`dist::node_stats` objects), a join's with its
/// build sink's and a partial aggregate's with its flushes — then node 0's
/// retunes and decisions. A task registers
/// its meters in pipeline-step order, and step `i`'s belongs to
/// `PipelineSpec::nodes[i]`; a build sink's comes after its last step.
pub fn analyzed(tree: &StageTree, local: &QueryStats, nodes: &[Json]) -> Result<String> {
    // (stage, pipeline, step) → (rows, self ns, flushes).
    let mut meters: HashMap<(u64, u64, usize), (u64, u64, u64)> = HashMap::new();
    let mut out = String::new();
    for node in nodes {
        let field = |j: &Json, k| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let Some(operators) = node.get("operators").and_then(Json::as_arr) else {
            out.push_str(&format!("stats omitted: {}\n", node.to_string_compact()));
            continue;
        };
        let mut steps: HashMap<(u64, u64, u64), usize> = HashMap::new();
        for op in operators {
            let (stage, pipeline) = (field(op, "stage"), field(op, "pipeline"));
            let step = steps
                .entry((stage, field(op, "task"), pipeline))
                .or_default();
            let meter = meters.entry((stage, pipeline, *step)).or_default();
            meter.0 += field(op, "rows");
            meter.1 += field(op, "self_ns");
            meter.2 += field(op, "flushes");
            *step += 1;
        }
    }
    let display = tree.display();
    let mut lines = display.lines();
    for f in tree.fragments() {
        let pipelines = split_pipelines(f)?;
        let meter = |p: usize, step: usize| {
            let key = (f.stage.0.into(), p as u64, step);
            meters.get(&key).copied().unwrap_or_default()
        };
        let note =
            |(rows, ns, _): (u64, u64, u64)| format!("rows={rows} self_ms={:.3}", ns as f64 / 1e6);
        // Each node's meter by node; a build pipeline precedes its probe.
        let (mut builds, mut notes) = (HashMap::new(), HashMap::new());
        for (p, spec) in pipelines.iter().enumerate() {
            if let Sink::JoinBuild { join, .. } = spec.sink {
                builds.insert(join, note(meter(p, spec.nodes.len())));
            }
            let mut probes = spec.probes.iter();
            for (step, node) in spec.nodes.iter().enumerate() {
                let m = meter(p, step);
                let mut line = note(m);
                match **node {
                    PhysicalNode::HashJoin { .. } => {
                        let build = probes.next().and_then(|join| builds.get(join));
                        line.extend(build.map(|b| format!(" build: {b}")));
                    }
                    PhysicalNode::PartialAggregate { .. } => {
                        line.push_str(&format!(" flushes={}", m.2));
                    }
                    _ => {}
                }
                notes.insert(Arc::as_ptr(node), line);
            }
        }
        // The header, then one line per node in `visit` order.
        out.extend(lines.next().into_iter().chain(["\n"]));
        f.root.visit(&mut |node| {
            let line = lines.next().unwrap_or_default();
            out.push_str(&format!("{line}\n"));
            if let Some(note) = notes.get(&(node as *const PhysicalNode)) {
                let pad = &line[..line.len() - line.trim_start().len()];
                out.push_str(&format!("{pad}  ({note})\n"));
            }
        });
    }
    for r in &local.retunes {
        out.push_str(&format!("retune: {}\n", r.to_json().to_string_compact()));
    }
    for d in &local.decisions {
        out.push_str(&format!("decision: {}\n", d.to_json().to_string_compact()));
    }
    Ok(out)
}
