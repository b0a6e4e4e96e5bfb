//! Multi-node distributed execution, in-process: each "node" is a
//! [`QueryExecutor`] fronted by its own one-address listener, exchanging
//! pages over real TCP. The golden suite must produce results identical to the serial
//! reference, with at least one cross-node exchange edge in every
//! multi-task plan — and mid-query forced grow/shrink must stay lossless
//! when the elastic stage's tasks are spread across nodes claiming from
//! the coordinator's split service. Because every node runs on the one
//! scheduler, what holds for a single process holds here: node 0 passes the
//! admission gate, `poison_active` reaches every node, and a node's queries
//! share its executor's compute slots. Every node opens at most one
//! session per peer per query, which carries its pages and its claims
//! alike; a grow sends nothing. Every run leaves no query active on any
//! node.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use accordion_cluster::{
    distributed_topology, DistRole, NodeQuery, QueryExecutor, RemoteSplitSource, SplitQueues,
};
use accordion_common::config::{AdmissionConfig, NetworkConfig};
use accordion_common::sync::Mutex;
use accordion_common::{AccordionError, ElasticityMode, Result, StageId};
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::splits::SplitSource;
use accordion_exec::{execute_tree, ExecOptions, QueryResult};
use accordion_expr::agg::AggKind;
use accordion_expr::scalar::Expr;
use accordion_net::frame::{kind, listen, FrameConn, Listener, Payload};
use accordion_net::{serve_sessions, ExchangeRegistry, ExchangeTopology, NicModel, PageRegistries};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_plan::LogicalPlanBuilder;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

fn i(v: i64) -> Value {
    Value::Int64(v)
}

/// A 64-row fact table over 4 nodes × 2 splits plus a small dimension
/// table — the same shape the scheduling and elasticity suites pin down.
fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("region", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ]);
    let mut b = TableBuilder::new("sales", schema, 3);
    for n in 0..64i64 {
        b.push_row(vec![
            Value::Utf8(format!("region-{}", n % 5)),
            if n % 11 == 0 { Value::Null } else { i(n % 13) },
            Value::Float64(0.5 * (n % 7) as f64),
        ]);
    }
    b.register(&c, 8);

    let dim_schema = Schema::shared(vec![
        Field::new("name", DataType::Utf8),
        Field::new("bonus", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("bonuses", dim_schema, 1);
    for (name, bonus) in [("region-0", 10i64), ("region-2", 20), ("region-4", 40)] {
        b.push_row(vec![Value::Utf8(name.to_string()), i(bonus)]);
    }
    b.register(&c, 4);
    Arc::new(c)
}

fn golden_suite(c: &Catalog) -> Vec<(&'static str, LogicalPlanBuilder)> {
    let scan = LogicalPlanBuilder::scan(c, "sales").unwrap();
    let filter = {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let pred = Expr::gt(b.col("qty").unwrap(), Expr::lit_i64(4));
        b.filter(pred).unwrap()
    };
    let group_by = {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let aggs = vec![
            b.agg(AggKind::Count, "qty", "cnt").unwrap(),
            b.agg(AggKind::Sum, "qty", "total").unwrap(),
            b.agg(AggKind::Avg, "price", "mean").unwrap(),
        ];
        b.aggregate(&["region"], aggs).unwrap()
    };
    let top_n = {
        let b = LogicalPlanBuilder::scan(c, "sales").unwrap();
        b.top_n(&[("qty", true), ("region", false), ("price", false)], 10)
            .unwrap()
    };
    let join = {
        let sales = LogicalPlanBuilder::scan(c, "sales").unwrap();
        let bonuses = LogicalPlanBuilder::scan(c, "bonuses").unwrap();
        sales
            .join(bonuses, &[("region", "name")])
            .unwrap()
            .select(&["region", "qty", "bonus"])
            .unwrap()
    };
    vec![
        ("scan", scan),
        ("filter", filter),
        ("group_by", group_by),
        ("top_n", top_n),
        ("join", join),
    ]
}

fn sorted_rows(result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows = result.rows();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Sessions a node accepted, by the query their HELLO names.
type Counts = HashMap<u64, usize>;
type Accepted = Arc<Mutex<Counts>>;

/// An in-process fleet: one listener per node, serving the node's pages
/// and — on node 0 — the coordinator's claim service, so elasticity (when
/// enabled) claims at `peers[0]` exactly as separate processes would.
/// Every listener counts the sessions it accepts.
struct TestFleet {
    nodes: Vec<(Listener, Arc<PageRegistries>, Accepted)>,
    claims: Arc<SplitQueues>,
}

impl TestFleet {
    fn new(nodes: usize) -> TestFleet {
        let claims = Arc::<SplitQueues>::default();
        let node = |n| {
            let pages = Arc::<PageRegistries>::default();
            let served = (n == 0).then(|| claims.clone() as _);
            let accepted = Accepted::default();
            let serve = serve_sessions(Some(pages.clone()), served, None);
            let counted = accepted.clone();
            let count = move |conn: &mut FrameConn, query| {
                *counted.lock().entry(query).or_default() += 1;
                serve(conn, query)
            };
            let listener = listen("127.0.0.1:0", "test-node", Box::new(count)).unwrap();
            (listener, pages, accepted)
        };
        TestFleet {
            nodes: (0..nodes).map(node).collect(),
            claims,
        }
    }

    /// The sessions each node accepted, by query.
    fn accepted(&self) -> Vec<Counts> {
        self.nodes
            .iter()
            .map(|(_, _, accepted)| accepted.lock().clone())
            .collect()
    }

    /// Wires `node`'s share of `query` on `executor` and publishes its
    /// registry on the node's listener.
    fn wire(
        &self,
        node: u32,
        executor: &QueryExecutor,
        catalog: &Arc<Catalog>,
        tree: &Arc<StageTree>,
        opts: &ExecOptions,
        query: u64,
    ) -> Result<NodeQuery> {
        let role = DistRole {
            node,
            peers: self.nodes.iter().map(|(l, ..)| l.local_addr()).collect(),
        };
        let nq = executor.wire(catalog, tree.clone(), opts, role, query, &self.claims)?;
        self.nodes[node as usize]
            .1
            .register(query, nq.registry().clone());
        Ok(nq)
    }

    fn shutdown(self) {
        for (listener, ..) in &self.nodes {
            listener.shutdown();
        }
    }
}

/// Runs `tree` on an in-process fleet of `nodes` and returns the
/// coordinator's result, the number of cross-node consumer slots, and the
/// connections each node accepted.
fn run_on(
    nodes: usize,
    catalog: &Arc<Catalog>,
    tree: &Arc<StageTree>,
    opts: &ExecOptions,
    query: u64,
) -> (QueryResult, usize, Vec<Counts>) {
    let fleet = TestFleet::new(nodes);
    let executors: Vec<_> = (0..nodes)
        .map(|_| QueryExecutor::new(opts.clone()))
        .collect();
    let wired: Vec<NodeQuery> = (0..nodes)
        .map(|n| {
            fleet
                .wire(n as u32, &executors[n], catalog, tree, opts, query)
                .unwrap()
        })
        .collect();
    let remote_slots = wired.iter().map(NodeQuery::remote_slots).sum();
    let mut wired = wired.into_iter();
    let coordinator = wired.next().unwrap();
    let workers: Vec<_> = wired
        .map(|nq| std::thread::spawn(move || nq.run()))
        .collect();
    let result = coordinator.run().unwrap();
    for worker in workers {
        assert!(worker.join().unwrap().unwrap().pages.is_empty());
    }
    for (node, executor) in executors.iter().enumerate() {
        assert_eq!(executor.active_queries(), 0, "node {node} kept a query");
    }
    let accepted = fleet.accepted();
    fleet.shutdown();
    (result, remote_slots, accepted)
}

/// Runs `tree` on a two-node in-process fleet and returns the
/// coordinator's result plus the number of cross-node consumer slots.
fn run_two_nodes(
    catalog: &Arc<Catalog>,
    tree: &Arc<StageTree>,
    opts: &ExecOptions,
    query: u64,
) -> (QueryResult, usize) {
    let (result, remote_slots, _) = run_on(2, catalog, tree, opts, query);
    (result, remote_slots)
}

fn opts(network: NetworkConfig) -> ExecOptions {
    ExecOptions::with_page_rows(3)
        .worker_threads(2)
        .network(network)
}

#[test]
fn golden_suite_matches_serial_across_two_nodes() {
    let c = catalog();
    let serial_opts = opts(NetworkConfig::builder().unbounded_buffers().build());
    let mut query = 100;
    for (name, builder) in golden_suite(&c) {
        let serial_opt = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
        let tree =
            StageTree::build(serial_opt.optimize(&builder.clone().build()).unwrap()).unwrap();
        let reference = sorted_rows(&execute_tree(&c, &tree, &serial_opts).unwrap());
        assert!(!reference.is_empty(), "{name}: empty reference result");

        for dop in [2u32, 4] {
            let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
            let tree = Arc::new(
                StageTree::build(optimizer.optimize(&builder.clone().build()).unwrap()).unwrap(),
            );
            query += 1;
            let (result, remote_slots) = run_two_nodes(&c, &tree, &serial_opts, query);
            assert_eq!(
                sorted_rows(&result),
                reference,
                "{name} diverged across nodes at dop={dop}"
            );
            assert!(
                remote_slots >= 1,
                "{name} at dop={dop} never crossed a node boundary"
            );
        }
    }
}

#[test]
fn tight_buffers_survive_the_node_boundary() {
    // Capacity-one exchange buffers across TCP: the credit window collapses
    // to one in-flight frame per consumer, forcing real backpressure on
    // every cross-node edge.
    let c = catalog();
    let tight = opts(NetworkConfig::builder().fixed_buffers(1).build());
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(3));
    for (query, (name, builder)) in golden_suite(&c).into_iter().enumerate() {
        let tree = Arc::new(
            StageTree::build(optimizer.optimize(&builder.clone().build()).unwrap()).unwrap(),
        );
        let serial = sorted_rows(&execute_tree(&c, &tree, &tight).unwrap());
        let (result, _) = run_two_nodes(&c, &tree, &tight, 200 + query as u64);
        assert_eq!(
            sorted_rows(&result),
            serial,
            "{name} diverged under backpressure"
        );
    }
}

#[test]
fn forced_grow_and_shrink_stay_lossless_across_nodes() {
    let c = catalog();
    let group_by = {
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let aggs = vec![
            b.agg(AggKind::Count, "qty", "cnt").unwrap(),
            b.agg(AggKind::Sum, "qty", "total").unwrap(),
        ];
        b.aggregate(&["region"], aggs).unwrap().build()
    };
    let serial_opt = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
    let serial_tree = StageTree::build(serial_opt.optimize(&group_by).unwrap()).unwrap();
    let plain = opts(NetworkConfig::builder().unbounded_buffers().build());
    let reference = sorted_rows(&execute_tree(&c, &serial_tree, &plain).unwrap());

    for (query, mode) in [
        (301u64, ElasticityMode::ForcedGrow),
        (302, ElasticityMode::ForcedShrink),
    ] {
        // Grow starts at DOP 2 (one task per node); shrink starts at 4 so
        // retirement hits tasks on both nodes.
        let start_dop = match mode {
            ElasticityMode::ForcedShrink => 4,
            _ => 2,
        };
        let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(start_dop));
        let tree = Arc::new(StageTree::build(optimizer.optimize(&group_by).unwrap()).unwrap());
        let elastic_opts = ExecOptions {
            elasticity: mode,
            ..plain.clone()
        };
        let (result, remote_slots) = run_two_nodes(&c, &tree, &elastic_opts, query);
        assert_eq!(
            sorted_rows(&result),
            reference,
            "{mode:?} lost or duplicated rows across nodes"
        );
        assert!(remote_slots >= 1, "{mode:?} plan never crossed nodes");
        let grew = matches!(mode, ElasticityMode::ForcedGrow);
        assert!(
            result.stats().retunes.iter().any(|r| if grew {
                r.to_dop > r.from_dop
            } else {
                r.to_dop < r.from_dop
            }),
            "{mode:?} never retuned: {:?}",
            result.stats().retunes
        );
    }
}

#[test]
fn an_edge_counts_the_nodes_hosting_its_stage_as_its_producers() {
    // A node's tasks of a stage are one producer of its output edge, so
    // every node registers `min(parallelism, nodes)` producers: the nodes
    // `task_node` places a task of the stage on.
    let c = catalog();
    for (name, builder) in golden_suite(&c) {
        for dop in [1, 2, 4] {
            let tree = common::tree_at(&builder, dop);
            for nodes in 1..=3u32 {
                let peers = (0..nodes).map(|n| format!("127.0.0.1:{}", 9000 + n));
                for node in 0..nodes {
                    let role = DistRole {
                        node,
                        peers: peers.clone().collect(),
                    };
                    for edge in distributed_topology(&tree, 1, &role).unwrap().edges {
                        let stage = tree.fragment(StageId(edge.stage)).unwrap();
                        let hosts = stage.parallelism.max(1).min(nodes);
                        assert_eq!(edge.producers, hosts, "{name} at dop {dop} on {nodes}");
                    }
                }
            }
        }
    }
}

#[test]
fn the_coordinator_counts_the_fleets_remote_slots_without_asking() {
    // The coordinator reports a query's cross-node slots as (nodes − 1) ×
    // its edges' slots, with no word from its workers: every node registers
    // the same global edges, so that is what the nodes' own counts sum to.
    let c = catalog();
    let opts = opts(NetworkConfig::default());
    let (claims, mut query) = (SplitQueues::default(), 1000);
    for (name, builder) in golden_suite(&c) {
        for dop in [1, 2, 4] {
            let tree = Arc::new(common::tree_at(&builder, dop));
            for nodes in 1..=3u32 {
                query += 1;
                let peers: Vec<_> = (0..nodes)
                    .map(|n| format!("127.0.0.1:{}", 9000 + n))
                    .collect();
                let executor = QueryExecutor::new(opts.clone());
                let wired: Vec<NodeQuery> = (0..nodes)
                    .map(|node| {
                        let peers = peers.clone();
                        let role = DistRole { node, peers };
                        executor
                            .wire(&c, tree.clone(), &opts, role, query, &claims)
                            .unwrap()
                    })
                    .collect();
                let each: usize = wired.iter().map(NodeQuery::remote_slots).sum();
                let at = format!("{name} at dop {dop} on {nodes} nodes");
                assert_eq!(wired[0].fleet_remote_slots(), each, "{at}");
            }
        }
    }
}

#[test]
fn one_session_per_peer_per_query_carries_pages_and_claims() {
    // A shuffled group-by and a join across three nodes at dop 4: every
    // node sends pages to both others, and the workers claim splits from
    // node 0. Whatever a node sends a peer for the query — DATA, FINISH
    // and CLAIM — travels on one session, and a forced grow, which joins
    // node 0's writer groups, sends nothing more.
    let c = catalog();
    let plain = opts(NetworkConfig::default());
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(4));
    let serial = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
    let mut query = 700;
    for (name, builder) in golden_suite(&c) {
        if !matches!(name, "group_by" | "join") {
            continue;
        }
        let plan = builder.build();
        let reference = {
            let tree = StageTree::build(serial.optimize(&plan).unwrap()).unwrap();
            sorted_rows(&execute_tree(&c, &tree, &plain).unwrap())
        };
        let tree = Arc::new(StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap());
        for mode in [ElasticityMode::Off, ElasticityMode::ForcedGrow] {
            query += 1;
            let elastic = ExecOptions {
                elasticity: mode,
                ..plain.clone()
            };
            let (result, remote_slots, accepted) = run_on(3, &c, &tree, &elastic, query);
            assert_eq!(sorted_rows(&result), reference, "{name} under {mode:?}");
            assert!(remote_slots >= 1, "{name} never crossed a node");
            for (node, by_query) in accepted.iter().enumerate() {
                for (&q, &n) in by_query {
                    assert_eq!(
                        q, query,
                        "node {node} accepted {n} sessions of query {q} ({name} under {mode:?})"
                    );
                    assert!(
                        n <= 2,
                        "node {node} accepted {n} sessions from its 2 peers ({name} under {mode:?})"
                    );
                }
            }
            if mode == ElasticityMode::ForcedGrow && name == "group_by" {
                let retunes = &result.stats().retunes;
                assert!(retunes.iter().any(|r| r.to_dop > r.from_dop), "{retunes:?}");
            }
        }
    }
}

/// `run`'s value, failing the test if it takes longer than ten seconds.
fn within<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(run()));
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("the query did not finish within 10 s")
}

#[test]
fn an_elastic_stage_whose_tasks_all_end_early_finishes() {
    // A bare-scan LIMIT 5 over 64 splits: each scan task's own LIMIT is met
    // inside its first split, so every task ends with splits unclaimed, and
    // only the controller can end the stage, once nothing but its lease is
    // left on node 0 and every other node's tasks have ended. In process
    // and across two nodes, under a schedule that grows and shrinks and
    // one that grows once.
    let c = Arc::new(common::split_catalog(8, 16, 4));
    let scan = LogicalPlanBuilder::scan(c.as_ref(), "wide").unwrap();
    let tree = Arc::new(common::tree_at(&scan.limit(5).unwrap(), 2));
    let modes = [ElasticityMode::cycle(4, 1), ElasticityMode::ForcedGrow];
    for (query, elasticity) in (900..).zip(modes) {
        let opts = ExecOptions::with_page_rows(4)
            .worker_threads(2)
            .elasticity(elasticity);
        let executor = QueryExecutor::new(opts.clone());
        let (pool, c, tree) = (executor.clone(), c.clone(), tree.clone());
        let (in_process, c, tree) = within(move || {
            let result = pool.execute_tree(&c, &tree).unwrap();
            (result, c, tree)
        });
        assert_eq!(in_process.row_count(), 5, "{elasticity:?} in process");
        assert_eq!(executor.active_queries(), 0);
        // `run_on` checks that no node keeps the query.
        let (across, ..) = within(move || run_on(2, &c, &tree, &opts, query));
        assert_eq!(across.row_count(), 5, "{elasticity:?} across two nodes");
    }
}

#[test]
fn q3_builds_each_join_table_once_per_node_across_three_nodes() {
    // dop 4 over a coordinator and two workers: each node drains its one
    // slot of each build edge into a table its probe tasks share. Only the
    // coordinator's stats come back, and they hold one build per join.
    let c = Arc::new(common::tpch());
    let (oracle, _) = common::q3_oracle(&c);
    let tree = Arc::new(common::q3_at(&c, 4));
    let opts = ExecOptions::with_page_rows(common::TPCH_PAGE_ROWS).worker_threads(2);
    let (result, remote_slots, _) = run_on(3, &c, &tree, &opts, 800);
    assert!(
        common::same_rows(&result.rows(), &oracle),
        "{:?}",
        result.rows()
    );
    assert!(remote_slots >= 1);
    let builds: Vec<(u32, u32)> = (result.stats().operators.iter())
        .filter(|o| o.operator == "HashJoinBuild")
        .map(|o| (o.stage, o.pipeline))
        .collect();
    assert_eq!(builds.len(), 2, "{builds:?}");
    assert!(builds.iter().all(|&(stage, _)| stage == 2), "{builds:?}");
}

#[test]
fn a_worker_that_starts_first_claims_up_to_the_first_decision_boundary() {
    // Node 0 arms its elastic stage's first decision boundary when it is
    // wired, not when it runs: a worker whose share starts first claims one
    // split and waits there, and the grow lands one claim in.
    let c = catalog();
    let (tree, reference) = group_by_at(&c, 2);
    let grow = ExecOptions {
        elasticity: ElasticityMode::ForcedGrow,
        ..opts(NetworkConfig::builder().unbounded_buffers().build())
    };
    let coordinator = QueryExecutor::new(grow.clone());
    let worker = QueryExecutor::new(grow.clone());
    let fleet = TestFleet::new(2);
    let query = 960;
    let nq0 = fleet
        .wire(0, &coordinator, &c, &tree, &grow, query)
        .unwrap();
    let nq1 = fleet.wire(1, &worker, &c, &tree, &grow, query).unwrap();
    let running = std::thread::spawn(move || nq1.run());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !fleet.accepted()[0].contains_key(&query) {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never called"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Let the worker claim as far as it may before node 0 runs.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let result = nq0.run().unwrap();
    assert!(running.join().unwrap().unwrap().pages.is_empty());
    assert_eq!(sorted_rows(&result), reference);
    let retunes = &result.stats().retunes;
    let grows: Vec<u64> = (retunes.iter())
        .filter(|r| r.to_dop > r.from_dop)
        .map(|r| r.splits_claimed)
        .collect();
    assert_eq!(grows, [1], "{retunes:?}");
    assert_eq!(coordinator.active_queries(), 0);
    assert_eq!(worker.active_queries(), 0);
    fleet.shutdown();
}

#[test]
fn a_coordinator_dropped_unrun_frees_a_claim_parked_at_its_boundary() {
    // A claim that waits at the boundary node 0 armed while wiring is
    // answered once node 0 is dropped without running: nothing is left to
    // move the boundary, so the share lets go of its queues.
    let c = catalog();
    let (tree, _) = group_by_at(&c, 2);
    let grow = ExecOptions {
        elasticity: ElasticityMode::ForcedGrow,
        ..opts(NetworkConfig::default())
    };
    let coordinator = QueryExecutor::new(grow.clone());
    let fleet = TestFleet::new(2);
    let query = 961;
    let nq0 = fleet
        .wire(0, &coordinator, &c, &tree, &grow, query)
        .unwrap();
    let stage = (tree.fragments().iter())
        .find(|f| f.elastic_bounds.is_some())
        .expect("the scan stage is elastic")
        .stage
        .0;
    let splits = c.get("sales").unwrap().splits.splits().to_vec();
    let addr = fleet.nodes[0].0.local_addr();
    let source = RemoteSplitSource::new(addr, query, stage, splits);
    assert!(
        source.claim(1, None, None).is_some(),
        "the first claim passes"
    );
    let parked = {
        let source = source.clone();
        std::thread::spawn(move || source.claim(1, None, None).is_some())
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(
        !parked.is_finished(),
        "the second claim waits at the boundary"
    );
    drop(nq0);
    assert!(
        within(move || parked.join().unwrap()),
        "released, it claims"
    );
    assert_eq!(coordinator.active_queries(), 0);
    fleet.shutdown();
}

/// The group-by of the golden suite planned at `dop`, plus its serial
/// reference rows.
fn group_by_at(c: &Arc<Catalog>, dop: u32) -> (Arc<StageTree>, Vec<Vec<Value>>) {
    let (_, builder) = golden_suite(c).swap_remove(2);
    let plan = builder.build();
    let tree_at = |dop| {
        let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
        StageTree::build(optimizer.optimize(&plan).unwrap()).unwrap()
    };
    let plain = opts(NetworkConfig::builder().unbounded_buffers().build());
    let reference = sorted_rows(&execute_tree(c, &tree_at(1), &plain).unwrap());
    (Arc::new(tree_at(dop)), reference)
}

#[test]
fn coordinator_admission_gates_distributed_queries() {
    let c = catalog();
    let (tree, reference) = group_by_at(&c, 2);
    let limited = opts(NetworkConfig::builder().unbounded_buffers().build())
        .admission(AdmissionConfig::rejecting(1));
    let coordinator = QueryExecutor::new(limited.clone());
    let worker = QueryExecutor::new(limited.clone());
    let fleet = TestFleet::new(2);

    let nq0 = fleet
        .wire(0, &coordinator, &c, &tree, &limited, 401)
        .unwrap();
    let nq1 = fleet.wire(1, &worker, &c, &tree, &limited, 401).unwrap();
    // Node 0 runs but cannot finish — node 1's share has not started — so
    // query 401 holds the coordinator's only admission slot.
    let running = std::thread::spawn(move || nq0.run());
    let rejected = fleet
        .wire(0, &coordinator, &c, &tree, &limited, 402)
        .err()
        .expect("a second query on a full coordinator is turned away");
    assert!(
        rejected.to_string().contains("admission rejected"),
        "{rejected}"
    );
    assert_eq!(coordinator.admission().stats().rejected, 1);
    // Workers never gate: node 0 answered for the whole query.
    drop(fleet.wire(1, &worker, &c, &tree, &limited, 402).unwrap());
    assert_eq!(worker.admission().stats().admitted, 0);

    assert!(nq1.run().unwrap().pages.is_empty());
    let result = running.join().unwrap().unwrap();
    assert_eq!(sorted_rows(&result), reference);
    // The finished query gave its slot back.
    assert_eq!(coordinator.admission().stats().running, 0);
    drop(
        fleet
            .wire(0, &coordinator, &c, &tree, &limited, 403)
            .unwrap(),
    );
    fleet.shutdown();
}

#[test]
fn poison_active_reaches_every_node_of_an_in_flight_query() {
    let c = catalog();
    let (tree, _) = group_by_at(&c, 3);
    // Capacity-one buffers: nodes 0 and 1 run and park on backpressure,
    // because node 2 — wired, so its listener accepts frames — is held
    // back. The query is in flight on every node and can finish on none.
    let tight = opts(NetworkConfig::builder().fixed_buffers(1).build());
    let executors: Vec<QueryExecutor> = (0..3).map(|_| QueryExecutor::new(tight.clone())).collect();
    let fleet = TestFleet::new(3);
    let mut nodes: Vec<NodeQuery> = (0..3u32)
        .map(|n| {
            fleet
                .wire(n, &executors[n as usize], &c, &tree, &tight, 501)
                .unwrap()
        })
        .collect();
    let held = nodes.pop().unwrap();
    let running: Vec<_> = nodes
        .into_iter()
        .map(|nq| std::thread::spawn(move || nq.run()))
        .collect();
    assert_eq!(executors[0].active_queries(), 1);

    let err = AccordionError::Execution("server shutting down".into());
    executors[0].poison_active(err.clone());
    let mut outcomes: Vec<AccordionError> = running
        .into_iter()
        .map(|t| t.join().unwrap().expect_err("a poisoned node fails"))
        .collect();
    assert_eq!(outcomes[0], err, "node 0 returns the poison itself");
    outcomes.push(
        held.run()
            .expect_err("a node started after the poison fails too"),
    );
    for (node, e) in outcomes.iter().enumerate() {
        assert_eq!(*e, err, "node {node} fails with the poison as it was sent");
    }
    assert_eq!(executors[0].active_queries(), 0);
    fleet.shutdown();
}

#[test]
fn a_claim_on_a_query_poisoned_at_its_claim_service_gets_no_split() {
    // Node 0's query is poisoned and no broadcast of that poison has
    // reached the claimant: the claim, on a connection of its own, is
    // answered with the poison instead of a split.
    let c = catalog();
    let splits = c.get("sales").unwrap().splits.splits().to_vec();
    let fleet = TestFleet::new(1);
    let (node, pages, _) = &fleet.nodes[0];
    fleet.claims.register(9, 1, splits);
    let own = ExchangeTopology::new(9);
    let registry = ExchangeRegistry::build(&own, &NetworkConfig::default(), NicModel).unwrap();
    pages.register(9, registry.clone());
    registry.poison_local(AccordionError::Execution("server shutting down".into()));
    let mut conn =
        FrameConn::connect(&node.local_addr(), std::time::Duration::from_secs(5)).unwrap();
    conn.send((kind::HELLO, Payload::default().u64(9).0))
        .unwrap();
    let claim = (kind::CLAIM, Payload::default().u32(1).u32(0).0);
    let err = conn.call(claim).unwrap_err();
    assert!(
        matches!(&err, AccordionError::Execution(m) if m.contains("server shutting down")),
        "the poison's own ERR: {err}"
    );
    fleet.shutdown();
}

#[test]
#[should_panic(expected = "split claim failed")]
fn a_source_of_its_own_panics_on_a_failed_claim() {
    // No query stands behind it to poison: a refused connection must not
    // read as the table running out of splits.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let splits = catalog().get("sales").unwrap().splits.splits().to_vec();
    RemoteSplitSource::new(addr, 1, 1, splits).claim(0, None, None);
}

#[test]
fn one_compute_slot_serves_concurrent_queries_across_nodes() {
    // Two two-node queries at once, every node share of both on a
    // one-slot executor, over capacity-one buffers: progress depends on
    // each parked task handing the node's only slot to whichever query can
    // use it — across queries and across the node boundary.
    let c = catalog();
    let (tree, reference) = group_by_at(&c, 4);
    let tight = opts(NetworkConfig::builder().fixed_buffers(1).build()).worker_threads(1);
    let coordinator = QueryExecutor::new(tight.clone());
    let worker = QueryExecutor::new(tight.clone());
    let fleet = TestFleet::new(2);
    let wired: Vec<(NodeQuery, NodeQuery)> = [601u64, 602]
        .into_iter()
        .map(|query| {
            (
                fleet
                    .wire(0, &coordinator, &c, &tree, &tight, query)
                    .unwrap(),
                fleet.wire(1, &worker, &c, &tree, &tight, query).unwrap(),
            )
        })
        .collect();
    assert_eq!(worker.active_queries(), 2);
    let runs: Vec<_> = wired
        .into_iter()
        .map(|(nq0, nq1)| {
            (
                std::thread::spawn(move || nq0.run()),
                std::thread::spawn(move || nq1.run()),
            )
        })
        .collect();
    for (node0, node1) in runs {
        assert!(node1.join().unwrap().unwrap().pages.is_empty());
        let result = node0.join().unwrap().unwrap();
        assert_eq!(sorted_rows(&result), reference);
    }
    assert_eq!(worker.active_queries(), 0);
    fleet.shutdown();
}
