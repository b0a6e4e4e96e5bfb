//! Process-per-node distributed execution: real `accordion-core worker`
//! processes driven by an in-test [`Fleet`] coordinator, and by the front
//! door — a `server` process whose sessions `SET nodes`. Every query's
//! result must be row-identical (modulo float summation order) to the
//! serial in-process executor over the same generated data, with at least
//! one cross-process exchange edge — and mid-query forced grow/shrink must
//! stay lossless across process boundaries. The later cases run [`Worker`]s
//! inside the test process to watch their executors: no wired query may
//! outlive the session that wired it, a fleet that fails to
//! assemble leaves the workers it reached free for the next one, two
//! coordinators share a worker without seeing each other, and one address
//! serves all three conversations at once.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::{plan_fingerprint, DistRole, NodeQuery, QueryExecutor, SplitQueues};
use accordion_common::config::{ElasticityConfig, NetworkConfig};
use accordion_common::AccordionError;
use accordion_core::dist::{plan_tree, WireMsg};
use accordion_core::{Client, Fleet, QueryServer, Response, ServerConfig, Worker};
use accordion_data::types::Value;
use accordion_exec::{execute_tree, ExecOptions};
use accordion_net::frame::{kind, listen, FrameConn, Listener, Payload};
use accordion_net::{serve_sessions, PageRegistries};
use accordion_storage::catalog::Catalog;
use accordion_tpch::gen::{generate, TpchOptions};

const SF: &str = "0.02";

/// A spawned `worker` or `server` process, killed on drop so a failing test
/// cannot leak children.
struct NodeProc {
    child: Child,
    /// The address on its banner: a worker's node address, a server's
    /// client address.
    ctrl: String,
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker() -> NodeProc {
    spawn_node(
        &["worker", "--listen", "127.0.0.1:0"],
        " worker listening on ",
    )
}

/// Starts `accordion-core <args> --sf SF --workers 2` and waits for the
/// banner line containing `banner`, whose next word is the address.
fn spawn_node(args: &[&str], banner: &str) -> NodeProc {
    let child = Command::new(env!("CARGO_BIN_EXE_accordion-core"))
        .args(args)
        .args(["--sf", SF, "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn accordion-core");
    // Wrap immediately: any panic below (including the announce loop) now
    // reaps the child through Drop instead of leaking it.
    let mut proc = NodeProc {
        child,
        ctrl: String::new(),
    };
    let stdout = proc.child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("node stdout") == 0 {
            panic!("{args:?} exited before announcing its address");
        }
        if let Some((_, rest)) = line.split_once(banner) {
            proc.ctrl = rest
                .split_whitespace()
                .next()
                .expect("an address")
                .to_string();
            return proc;
        }
    }
}

/// Float aggregates are summed in exchange-arrival order; distributed runs
/// permute it, so compare with relative tolerance.
fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

fn assert_rows_close(name: &str, left: &[Vec<Value>], right: &[Vec<Value>]) {
    assert_eq!(left.len(), right.len(), "{name}: row counts diverged");
    for (i, (l, r)) in left.iter().zip(right).enumerate() {
        assert_eq!(l.len(), r.len(), "{name}: row {i} widths diverged");
        for (x, y) in l.iter().zip(r) {
            assert!(
                values_close(x, y),
                "{name}: row {i} diverged: {l:?} vs {r:?}"
            );
        }
    }
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn tpch_catalog_at(scale_factor: f64) -> Arc<Catalog> {
    let data = generate(&TpchOptions {
        scale_factor,
        ..TpchOptions::default()
    });
    Arc::new(data.catalog)
}

fn tpch_catalog() -> Arc<Catalog> {
    tpch_catalog_at(SF.parse().unwrap())
}

#[test]
fn fleet_of_three_processes_matches_in_process_execution() {
    let w1 = spawn_worker();
    let w2 = spawn_worker();
    let catalog = tpch_catalog();
    let exec = ExecOptions {
        worker_threads: 2,
        ..ExecOptions::default()
    };
    let mut fleet = Fleet::connect(
        &[w1.ctrl.clone(), w2.ctrl.clone()],
        catalog.clone(),
        exec.clone(),
        "off",
        4,
    )
    .expect("fleet connects to both workers");
    assert_eq!(fleet.nodes(), 3);

    let cases = [
        (
            "group_count",
            "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag",
        ),
        (
            "filter_project",
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 3.0",
        ),
        (
            "top_orders",
            "SELECT * FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 20",
        ),
        ("q1", include_str!("../../../benchmarks/sql/q1.sql")),
        ("q3", include_str!("../../../benchmarks/sql/q3.sql")),
        ("q6", include_str!("../../../benchmarks/sql/q6.sql")),
    ];
    for (name, sql) in cases {
        // Serial in-process reference over the identical catalog.
        let serial_tree = plan_tree(&catalog, sql, 1).expect(name);
        let reference = execute_tree(&catalog, &serial_tree, &exec).expect(name);

        let run = fleet
            .run_sql(sql)
            .unwrap_or_else(|e| panic!("{name} failed distributed: {e}"));
        assert_rows_close(name, &sorted(run.result.rows()), &sorted(reference.rows()));
        assert!(run.result.row_count() > 0, "{name}: empty result");
        assert!(
            run.remote_slots >= 1,
            "{name}: no cross-process exchange edge"
        );
    }
    fleet.shutdown();
}

#[test]
fn forced_retunes_stay_lossless_across_processes() {
    let w1 = spawn_worker();
    let catalog = tpch_catalog();
    let exec = ExecOptions {
        worker_threads: 2,
        ..ExecOptions::default()
    };
    let sql = "SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS q \
               FROM lineitem GROUP BY l_returnflag";
    let serial_tree = plan_tree(&catalog, sql, 1).unwrap();
    let reference = execute_tree(&catalog, &serial_tree, &exec).unwrap();

    for (mode, start_dop, grew) in [("forced-grow", 2, true), ("forced-shrink", 4, false)] {
        let mut fleet = Fleet::connect(
            std::slice::from_ref(&w1.ctrl),
            catalog.clone(),
            exec.clone(),
            mode,
            start_dop,
        )
        .unwrap_or_else(|e| panic!("{mode}: fleet connect: {e}"));
        let run = fleet
            .run_sql(sql)
            .unwrap_or_else(|e| panic!("{mode} failed distributed: {e}"));
        assert_rows_close(mode, &sorted(run.result.rows()), &sorted(reference.rows()));
        assert!(
            run.remote_slots >= 1,
            "{mode}: plan never crossed processes"
        );
        let retunes = &run.result.stats().retunes;
        assert!(
            retunes.iter().any(|r| if grew {
                r.to_dop > r.from_dop
            } else {
                r.to_dop < r.from_dop
            }),
            "{mode} never retuned: {retunes:?}"
        );
        fleet.shutdown();
    }
}

/// CSV cells of two result sets, equal up to float summation order.
fn assert_cells_close(name: &str, left: &[Vec<String>], right: &[Vec<String>]) {
    let value = |cell: &String| match cell.parse::<f64>() {
        Ok(x) => Value::Float64(x),
        Err(_) => Value::Utf8(cell.clone()),
    };
    let values = |rows: &[Vec<String>]| -> Vec<Vec<Value>> {
        rows.iter().map(|r| r.iter().map(value).collect()).collect()
    };
    assert_rows_close(name, &values(left), &values(right));
}

fn ok_line(client: &mut Client, statement: &str) -> String {
    match client.send(statement) {
        Ok(Response::Ok(line)) => line,
        other => panic!("{statement}: expected OK, got {other:?}"),
    }
}

/// The `admitted` counter of `SHOW admission`.
fn admitted(client: &mut Client) -> u64 {
    let shown = ok_line(client, "SHOW admission");
    let (_, rest) = shown.split_once("admitted=").expect("an admitted counter");
    rest.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn a_server_session_with_nodes_set_coordinates_worker_processes() {
    let (w1, w2) = (spawn_worker(), spawn_worker());
    let server = spawn_node(&["server", "--addr", "127.0.0.1:0"], " listening on ");
    let set_nodes = format!("SET nodes = '{},{}'", w1.ctrl, w2.ctrl);
    let mut client = Client::connect(server.ctrl.as_str()).unwrap();
    let queries = [
        ("q1", include_str!("../../../benchmarks/sql/q1.sql"), 6),
        ("q3", include_str!("../../../benchmarks/sql/q3.sql"), 10),
        ("q6", include_str!("../../../benchmarks/sql/q6.sql"), 1),
    ];

    // Distributed first, then the same session back on the local path.
    assert_eq!(
        ok_line(&mut client, &set_nodes),
        format!("nodes = {},{}", w1.ctrl, w2.ctrl)
    );
    assert_eq!(
        ok_line(&mut client, "SHOW nodes"),
        ok_line(&mut client, &set_nodes)
    );
    let before = admitted(&mut client);
    let across: Vec<_> = queries
        .iter()
        .map(|(name, sql, _)| client.query(sql).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    assert_eq!(
        admitted(&mut client),
        before + 3,
        "a distributed statement passes the server's admission gate"
    );
    assert_eq!(ok_line(&mut client, "SET nodes = ''"), "nodes = ");
    for ((name, sql, rows), across) in queries.iter().zip(&across) {
        let local = client.query(sql).unwrap();
        assert_eq!(local.rows.len(), *rows, "{name}");
        assert_eq!(across.columns, local.columns, "{name}");
        assert_cells_close(name, &across.rows, &local.rows);
    }

    // The session's other variables reach every node of the fleet.
    let (_, q1, _) = queries[0];
    let q1_local = client.query(q1).unwrap();
    client.send(&set_nodes).unwrap();
    for settings in [
        &["SET dop = 2", "SET elasticity = forced-grow"][..],
        &["SET dop = 4", "SET elasticity = forced-shrink"],
        &["SET deadline_ms = 50", "SET elasticity = auto"],
    ] {
        for set in settings {
            ok_line(&mut client, set);
        }
        let rs = client
            .query(q1)
            .unwrap_or_else(|e| panic!("{settings:?}: {e}"));
        assert_cells_close(&format!("{settings:?}"), &rs.rows, &q1_local.rows);
    }
    client.send("SET elasticity = off").unwrap();

    // A bad statement is diagnosed before anything is wired, identically.
    let bad = "SELECT l_nope FROM lineitem";
    let distributed_err = client.query(bad).unwrap_err().to_string();
    assert!(distributed_err.contains('^'), "{distributed_err}");
    client.send("SET nodes = ''").unwrap();
    assert_eq!(client.query(bad).unwrap_err().to_string(), distributed_err);

    // A dead node is an error naming it, promptly, and only for statements
    // that need it.
    let dead = dead_address();
    client
        .send(&format!("SET nodes = '{},{dead}'", w1.ctrl))
        .unwrap();
    let started = Instant::now();
    let err = client.query(q1).unwrap_err().to_string();
    assert!(err.contains(&dead), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "dial unbounded"
    );
    client.send("SET nodes = ''").unwrap();
    assert_cells_close(
        "after a dead node",
        &client.query(q1).unwrap().rows,
        &q1_local.rows,
    );

    // Two sessions coordinating over the same workers at the same time.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut client = Client::connect(server.ctrl.as_str()).unwrap();
                client.send(&set_nodes).unwrap();
                start.wait();
                for _ in 0..3 {
                    let rs = client.query(q1).unwrap();
                    assert_cells_close("concurrent session", &rs.rows, &q1_local.rows);
                }
            });
        }
    });

    // And the same through the `client` subcommand, as CI drives it.
    let out = Command::new(env!("CARGO_BIN_EXE_accordion-core"))
        .args(["client", "--addr", &server.ctrl, "--expect-rows", "3"])
        .args(["-e", &set_nodes, "-e", GROUP_SQL])
        .output()
        .expect("run accordion-core client");
    assert!(
        out.status.success(),
        "client failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn server_and_worker_reject_unknown_flags() {
    // A typo must not start a node on defaults: `--worker` for `--workers`,
    // a flag of another subcommand, a stray positional, an unknown
    // `--admission` policy.
    for (args, error) in [
        (&["server", "--worker", "8"][..], "unknown flag '--worker'"),
        (&["worker", "--dop", "4"][..], "unknown flag '--dop'"),
        (&["worker", "--sf", SF, "stray"][..], "unknown flag 'stray'"),
        (
            &["server", "--admission", "drop"][..],
            "unknown admission policy 'drop'",
        ),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_accordion-core"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn accordion-core");
        // A node that does start runs until killed: bound the wait.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?} started a node");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited zero");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("generating"),
            "{args:?} generated data before failing: {stderr}"
        );
    }
}

const GROUP_SQL: &str = "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag";

/// Options for the in-process session-lifetime cases: static DOP (they
/// hand-write WIRE messages) and capacity-one buffers, so a worker whose
/// coordinator never runs parks instead of finishing.
fn tight_static_opts() -> ExecOptions {
    ExecOptions {
        worker_threads: 2,
        elasticity: ElasticityConfig::off(),
        network: NetworkConfig::builder().fixed_buffers(1).build(),
        ..ExecOptions::default()
    }
}

/// The node address of a hand-rolled coordinator: its workers send their
/// pages here and, since every worker scan claims its splits from node 0,
/// their claims too.
fn coordinator_address() -> (Listener, Arc<PageRegistries>, Arc<SplitQueues>) {
    let (pages, claims) = (
        Arc::<PageRegistries>::default(),
        Arc::<SplitQueues>::default(),
    );
    let serve = serve_sessions(Some(pages.clone()), Some(claims.clone()), None);
    let listener = listen("127.0.0.1:0", "coordinator", serve).unwrap();
    (listener, pages, claims)
}

/// An address nothing listens on: bound, read back, released.
fn dead_address() -> String {
    let serve = Box::new(|_: &mut FrameConn, _| Ok(()));
    listen("127.0.0.1:0", "dead", serve).unwrap().local_addr()
}

/// A hand-rolled coordinator of query `query` over `worker` at dop 2: its
/// own share, wired behind an address of its own (so the worker's pages
/// have somewhere to go), and the query's session to the worker, on which
/// it has sent WIRE.
struct HandRolled {
    session: FrameConn,
    share: NodeQuery,
    address: Listener,
}

impl HandRolled {
    fn wire(worker: &Worker, catalog: &Arc<Catalog>, exec: &ExecOptions, query: u64) -> Self {
        let (address, pages, claims) = coordinator_address();
        let peers = vec![address.local_addr(), worker.ctrl_addr()];
        let tree = plan_tree(catalog, GROUP_SQL, 2).unwrap();
        let role = DistRole { node: 0, peers };
        let share = QueryExecutor::new(exec.clone())
            .wire(catalog, tree.clone(), exec, role.clone(), query, &claims)
            .unwrap();
        pages.register(query, share.registry().clone());
        let mut session = FrameConn::connect(&worker.ctrl_addr(), Duration::from_secs(5)).unwrap();
        let hello = (kind::HELLO, Payload::default().u64(query).0);
        session.send(hello).unwrap();
        let wire = WireMsg {
            role: DistRole { node: 1, ..role },
            fingerprint: plan_fingerprint(&tree),
            dop: 2,
            elasticity: "off".into(),
            sql: GROUP_SQL.into(),
        };
        assert_eq!(session.call(wire.encode()).unwrap().0, kind::ACK);
        HandRolled {
            session,
            share,
            address,
        }
    }
}

/// GO or JOIN on a hand-rolled session; the kind of the reply.
fn call(session: &mut FrameConn, request: u8) -> u8 {
    session.call((request, Vec::new())).unwrap().0
}

/// Waits (bounded) until the worker's executor holds no query.
fn await_idle(worker: &Worker) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while worker.executor().active_queries() != 0 {
        assert!(
            Instant::now() < deadline,
            "worker still holds {} queries",
            worker.executor().active_queries()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A fresh coordinator gets the right answer out of `worker`.
fn assert_serves_a_fresh_fleet(worker: &Worker, catalog: &Arc<Catalog>, exec: &ExecOptions) {
    let reference = execute_tree(catalog, &plan_tree(catalog, GROUP_SQL, 1).unwrap(), exec);
    let mut fleet = Fleet::connect(
        &[worker.ctrl_addr()],
        catalog.clone(),
        exec.clone(),
        "off",
        2,
    )
    .expect("fresh fleet connects");
    let run = fleet.run_sql(GROUP_SQL).expect("fresh fleet's query runs");
    assert_rows_close(
        "fresh fleet",
        &sorted(run.result.rows()),
        &sorted(reference.unwrap().rows()),
    );
    assert!(run.remote_slots >= 1);
    fleet.shutdown();
    await_idle(worker);
}

#[test]
fn failed_wiring_reaps_the_workers_already_wired() {
    let catalog = tpch_catalog_at(0.002);
    let exec = tight_static_opts();
    let real = Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap();
    // A second "worker" that takes a query's session like one and refuses
    // the WIRE that follows its HELLO.
    let refuse = |conn: &mut FrameConn, _query| {
        while let Some((kind, _)) = conn.recv()? {
            if kind == kind::WIRE {
                return Err(AccordionError::Execution("nope".into()));
            }
        }
        Ok(())
    };
    let stub = listen("127.0.0.1:0", "stub-worker", Box::new(refuse)).unwrap();
    let stub_addr = stub.local_addr();

    let mut fleet = Fleet::connect(
        &[real.ctrl_addr(), stub_addr],
        catalog.clone(),
        exec.clone(),
        "off",
        3,
    )
    .unwrap();
    let err = fleet
        .run_sql(GROUP_SQL)
        .err()
        .expect("the stub refuses to wire");
    assert!(err.to_string().contains("nope"), "{err}");
    // The real worker acknowledged WIRE before the stub refused: it must
    // have been reaped.
    await_idle(&real);
    fleet.shutdown();
    drop(stub);

    assert_serves_a_fresh_fleet(&real, &catalog, &exec);
}

#[test]
fn worker_unwinds_queries_orphaned_by_their_session() {
    let catalog = tpch_catalog_at(0.002);
    let exec = tight_static_opts();
    let real = Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap();

    // A hand-rolled coordinator tells the worker to WIRE — and GO, or not —
    // then vanishes without ever running or joining.
    for (query, go) in [(7, true), (8, false)] {
        let mut coordinator = HandRolled::wire(&real, &catalog, &exec, query);
        if go {
            assert_eq!(call(&mut coordinator.session, kind::GO), kind::ACK);
        }
        // Wired, the query holds the worker; started, node 1's final-stage
        // task waits on node 0's producers, which never start.
        assert_eq!(real.executor().active_queries(), 1, "query {query}");

        drop(coordinator.session);
        await_idle(&real);
        drop(coordinator.share);
        coordinator.address.shutdown();

        assert_serves_a_fresh_fleet(&real, &catalog, &exec);
    }
}

#[test]
fn a_wire_naming_a_node_outside_its_fleet_is_refused() {
    // A WIRE with the true fingerprint whose role names node 1 of an empty
    // fleet, then one naming node 0, which only the coordinator is: the
    // worker answers each with an ERR and keeps serving.
    let catalog = tpch_catalog_at(0.002);
    let exec = tight_static_opts();
    let worker = Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap();
    let tree = plan_tree(&catalog, GROUP_SQL, 2).unwrap();
    let peers = vec![dead_address(), worker.ctrl_addr()];
    for (query, role, says) in [
        (
            11,
            DistRole {
                node: 1,
                peers: vec![],
            },
            "node 1 of a fleet of 0",
        ),
        (12, DistRole { node: 0, peers }, "names node 0"),
    ] {
        let mut session = FrameConn::connect(&worker.ctrl_addr(), Duration::from_secs(5)).unwrap();
        session
            .send((kind::HELLO, Payload::default().u64(query).0))
            .unwrap();
        let wire = WireMsg {
            role,
            fingerprint: plan_fingerprint(&tree),
            dop: 2,
            elasticity: "off".into(),
            sql: GROUP_SQL.into(),
        };
        match session.call(wire.encode()) {
            Err(AccordionError::Execution(m)) => assert!(m.contains(says), "{m}"),
            other => panic!("expected the worker's ERR, got {other:?}"),
        }
        assert_eq!(worker.executor().active_queries(), 0);
    }
    assert_serves_a_fresh_fleet(&worker, &catalog, &exec);
}

#[test]
fn a_fleet_that_fails_to_assemble_leaves_its_workers_free() {
    let catalog = tpch_catalog_at(0.002);
    let exec = ExecOptions {
        network: NetworkConfig::builder()
            .fixed_buffers(1)
            .connect_timeout_ms(2_000)
            .build(),
        ..tight_static_opts()
    };
    let real = Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap();
    let dead = dead_address();

    // A fleet dials nobody until a statement needs its workers: the
    // statement fails, naming the dead one, after the live one was wired.
    let mut fleet = Fleet::connect(
        &[real.ctrl_addr(), dead.clone()],
        catalog.clone(),
        exec.clone(),
        "off",
        2,
    )
    .expect("a fleet holds no connection");
    let started = Instant::now();
    let err = fleet
        .run_sql(GROUP_SQL)
        .err()
        .expect("one worker address is dead");
    assert!(err.to_string().contains(&dead), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "dial unbounded"
    );
    fleet.shutdown();
    await_idle(&real);
    assert_serves_a_fresh_fleet(&real, &catalog, &exec);
}

#[test]
fn two_coordinators_share_a_worker_without_colliding() {
    // Both fleets' first query used to be "query 1", and the worker keys
    // its page registries by query id alone: the second WIRE replaced the
    // first's registry and either JOIN unregistered both.
    let catalog = tpch_catalog_at(0.002);
    let exec = ExecOptions {
        worker_threads: 2,
        ..ExecOptions::default()
    };
    let worker = Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap();
    let reference = execute_tree(&catalog, &plan_tree(&catalog, GROUP_SQL, 1).unwrap(), &exec);
    let reference = sorted(reference.unwrap().rows());

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let workers = [worker.ctrl_addr()];
                let mut fleet =
                    Fleet::connect(&workers, catalog.clone(), exec.clone(), "off", 2).unwrap();
                start.wait();
                for round in 0..20 {
                    let run = fleet
                        .run_sql(GROUP_SQL)
                        .unwrap_or_else(|e| panic!("round {round}: {e}"));
                    assert_rows_close("shared worker", &sorted(run.result.rows()), &reference);
                }
                fleet.shutdown();
            });
        }
    });
    await_idle(&worker);
}

#[test]
fn one_address_serves_pages_claims_and_control_at_once() {
    let catalog = tpch_catalog_at(0.002);
    let exec = tight_static_opts();
    let node = Arc::new(Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap());
    let other = Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap();
    let reference = execute_tree(&catalog, &plan_tree(&catalog, GROUP_SQL, 1).unwrap(), &exec);
    let reference = sorted(reference.unwrap().rows());

    // Conversation one, control: a hand-rolled coordinator wires `node` as
    // its worker and starts it, then holds the session open — the query is
    // parked on `node`, waiting for this coordinator's share to run.
    let mut coordinator = HandRolled::wire(&node, &catalog, &exec, 7);
    assert_eq!(call(&mut coordinator.session, kind::GO), kind::ACK);
    assert_eq!(node.executor().active_queries(), 1);

    // Conversations two and three, meanwhile: `node` coordinates a growing
    // query over `other`, whose tasks claim their splits from `node`'s
    // address and send their pages to it.
    let growing = ExecOptions {
        elasticity: ElasticityConfig::try_parse_mode("forced-grow").unwrap(),
        network: NetworkConfig::default(),
        ..exec.clone()
    };
    let mut fleet = Fleet::over(node.clone(), &[other.ctrl_addr()], growing, 2).unwrap();
    let run = fleet.run_sql(GROUP_SQL).expect("the coordinated query");
    assert_rows_close("coordinated", &sorted(run.result.rows()), &reference);
    assert!(run.remote_slots >= 1);
    let retunes = &run.result.stats().retunes;
    assert!(retunes.iter().any(|r| r.to_dop > r.from_dop), "{retunes:?}");
    fleet.shutdown();
    assert_eq!(node.executor().active_queries(), 1, "the parked query");

    // The held session was served all along: its query finishes the moment
    // the coordinator's share runs, with pages crossing both ways.
    let result = coordinator.share.run().unwrap().expect("node 0 drains");
    assert_rows_close("hand-rolled", &sorted(result.rows()), &reference);
    assert_eq!(call(&mut coordinator.session, kind::JOIN), kind::DONE);
    await_idle(&node);
    await_idle(&other);
}

#[test]
fn coordinating_sessions_leave_every_node_idle() {
    let catalog = tpch_catalog_at(0.002);
    let exec = ExecOptions {
        worker_threads: 2,
        elasticity: ElasticityConfig::off(),
        ..ExecOptions::default()
    };
    let workers = [
        Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap(),
        Worker::start("127.0.0.1:0", catalog.clone(), exec.clone()).unwrap(),
    ];
    let executor = QueryExecutor::new(exec.clone());
    let config = ServerConfig {
        default_dop: 4,
        exec,
    };
    let mut server = QueryServer::start(catalog.clone(), executor, config, "127.0.0.1:0").unwrap();
    let set_nodes = format!(
        "SET nodes = '{},{}'",
        workers[0].ctrl_addr(),
        workers[1].ctrl_addr()
    );
    let local = Client::connect(server.local_addr())
        .unwrap()
        .query(GROUP_SQL)
        .unwrap();

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for mode in ["forced-grow", "forced-shrink"] {
            let (start, set_nodes, local) = (&start, &set_nodes, &local);
            let addr = server.local_addr();
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.send(set_nodes).unwrap();
                client.send(&format!("SET elasticity = {mode}")).unwrap();
                start.wait();
                for _ in 0..5 {
                    let mut rs = client.query(GROUP_SQL).unwrap();
                    rs.rows.sort();
                    assert_eq!(rs.rows, sorted_cells(&local.rows), "{mode}");
                }
                // A statement that fails to assemble its fleet leaves the
                // worker it did reach free.
                let dead = dead_address();
                let (_, live) = set_nodes.split_once('\'').unwrap();
                let live = live.split(',').next().unwrap();
                client
                    .send(&format!("SET nodes = '{live},{dead}'"))
                    .unwrap();
                let err = client.query(GROUP_SQL).unwrap_err().to_string();
                assert!(err.contains(&dead), "{err}");
                // So does one that lists a node twice: a node holds one
                // share of a query.
                client
                    .send(&format!("SET nodes = '{live},{live}'"))
                    .unwrap();
                let err = client.query(GROUP_SQL).unwrap_err().to_string();
                assert!(err.contains("twice"), "{err}");
                client.exit().unwrap();
            });
        }
    });
    for worker in &workers {
        await_idle(worker);
    }
    assert_eq!(server.active_queries(), 0);
    server.shutdown();
}

fn sorted_cells(rows: &[Vec<String>]) -> Vec<Vec<String>> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}
