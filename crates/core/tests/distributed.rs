//! Process-per-node distributed execution: real `accordion-core worker`
//! processes driven by an in-test [`Fleet`] coordinator. Every query's
//! result must be row-identical (modulo float summation order) to the
//! serial in-process executor over the same generated data, with at least
//! one cross-process exchange edge — and mid-query forced grow/shrink must
//! stay lossless across process boundaries. The last three cases run a
//! [`Worker`] inside the test process to watch its executor: no wired
//! query may outlive the control session that wired it, and a fleet that
//! fails to assemble leaves the workers it reached free for the next one.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::{plan_fingerprint, ClaimWiring, DistRole, QueryExecutor};
use accordion_common::config::{ElasticityConfig, NetworkConfig};
use accordion_core::dist::{plan_tree, CtrlMsg};
use accordion_core::{Fleet, Worker};
use accordion_data::types::Value;
use accordion_exec::{execute_tree, ExecOptions};
use accordion_net::frame::{kind, listen, FrameConn};
use accordion_net::PageServer;
use accordion_storage::catalog::Catalog;
use accordion_tpch::gen::{generate, TpchOptions};

const SF: &str = "0.02";

/// A spawned worker process, killed on drop so a failing test cannot leak
/// children.
struct WorkerProc {
    child: Child,
    ctrl: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker() -> WorkerProc {
    let child = Command::new(env!("CARGO_BIN_EXE_accordion-core"))
        .args([
            "worker",
            "--listen",
            "127.0.0.1:0",
            "--sf",
            SF,
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn accordion-core worker");
    // Wrap immediately: any panic below (including the announce loop) now
    // reaps the child through Drop instead of leaking it.
    let mut proc = WorkerProc {
        child,
        ctrl: String::new(),
    };
    let stdout = proc.child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("worker stdout") == 0 {
            panic!("worker process exited before announcing its address");
        }
        if let Some(rest) = line
            .trim()
            .strip_prefix("accordion-core worker listening on ")
        {
            proc.ctrl = rest
                .split_whitespace()
                .next()
                .expect("control address")
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

#[test]
fn coord_subcommand_runs_a_fleet_end_to_end() {
    let w1 = spawn_worker();
    let out = Command::new(env!("CARGO_BIN_EXE_accordion-core"))
        .args([
            "coord",
            "--worker",
            &w1.ctrl,
            "--sf",
            SF,
            "--dop",
            "4",
            "--expect-rows",
            "3",
            "-e",
            "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag",
        ])
        .output()
        .expect("run accordion-core coord");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "coord failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("remote slots)"),
        "coord printed no trailer: {stdout}"
    );
}

#[test]
fn server_and_worker_reject_unknown_flags() {
    // A typo must not start a node on defaults: `--worker` for `--workers`,
    // a flag of another subcommand, a stray positional.
    for (args, bad) in [
        (&["server", "--worker", "8"][..], "--worker"),
        (&["worker", "--dop", "4"][..], "--dop"),
        (&["worker", "--sf", SF, "stray"][..], "stray"),
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
        assert!(
            stderr.contains(&format!("unknown flag '{bad}'")),
            "{args:?}: {stderr}"
        );
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
    // A second "worker" that greets like one (with a page address nobody
    // listens on) and refuses everything it is asked.
    let stub = listen("127.0.0.1:0", "stub-worker", |conn| {
        let page_addr = "127.0.0.1:1".into();
        conn.send(CtrlMsg::Worker { page_addr }.encode())?;
        while conn.recv()?.is_some() {
            conn.send((kind::ERR, b"nope".into()))?;
        }
        Ok(())
    })
    .unwrap();
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
    // The real worker answered WIRED before the stub refused: it must have
    // been reaped, not left holding the query until the session dies.
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

    // A hand-rolled coordinator: wires its own share (so the worker's pages
    // have somewhere to go), tells the worker to WIRE and GO, then vanishes
    // without ever running or joining.
    let mut ctrl = FrameConn::connect(&real.ctrl_addr(), Duration::from_secs(5)).unwrap();
    let (kind, greeting) = ctrl.reply().unwrap();
    let CtrlMsg::Worker {
        page_addr: worker_pages,
    } = CtrlMsg::decode(kind, &greeting).unwrap()
    else {
        panic!("the worker did not greet");
    };
    let mut call = |request: CtrlMsg| {
        let (kind, payload) = ctrl.call(request.encode()).unwrap();
        CtrlMsg::decode(kind, &payload).unwrap()
    };
    let pages = PageServer::bind("127.0.0.1:0").unwrap();
    let peers = vec![pages.local_addr(), worker_pages];
    let tree = plan_tree(&catalog, GROUP_SQL, 2).unwrap();
    let coordinator = QueryExecutor::new(exec.clone())
        .wire(
            catalog.clone(),
            tree.clone(),
            &exec,
            DistRole {
                node: 0,
                nodes: 2,
                peers: peers.clone(),
            },
            7,
            ClaimWiring::Local,
        )
        .unwrap();
    pages.register(7, coordinator.registry().clone());
    let wired = call(CtrlMsg::Wire {
        query: 7,
        node: 1,
        nodes: 2,
        fingerprint: plan_fingerprint(&tree),
        dop: 2,
        claim: String::new(),
        elasticity: "off".into(),
        peers,
        sql: GROUP_SQL.into(),
    });
    assert!(matches!(wired, CtrlMsg::Wired { .. }), "{wired:?}");
    assert_eq!(call(CtrlMsg::Go { query: 7 }), CtrlMsg::Ack);
    // Node 1's final-stage task waits on node 0's producers, which never
    // start: the query is parked on the worker.
    assert_eq!(real.executor().active_queries(), 1);

    drop(ctrl);
    await_idle(&real);
    drop(coordinator);
    pages.shutdown();

    assert_serves_a_fresh_fleet(&real, &catalog, &exec);
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
    // An address nothing listens on: bound, read back, released.
    let dead = listen("127.0.0.1:0", "dead", |_| Ok(()))
        .unwrap()
        .local_addr();

    let started = Instant::now();
    let err = Fleet::connect(
        &[real.ctrl_addr(), dead.clone()],
        catalog.clone(),
        exec.clone(),
        "off",
        2,
    )
    .err()
    .expect("one worker address is dead");
    assert!(err.to_string().contains(&dead), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "dial unbounded"
    );
    assert_serves_a_fresh_fleet(&real, &catalog, &exec);
}
