//! Integration tests for the query server: concurrent sessions over real
//! TCP sockets sharing one worker pool, session isolation, error frames,
//! and graceful shutdown.

use std::sync::Arc;

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use accordion_core::{Client, QueryServer, Response, ServerConfig};
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{DataType, Value};
use accordion_exec::ExecOptions;
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

/// The sales fixture of the exec golden suite: 8 rows, NULLs in qty,
/// spread over 2 nodes × 2 splits.
fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("region", DataType::Utf8),
        Field::new("product", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ]);
    let rows = vec![
        ("east", "apple", Some(10), 1.0),
        ("east", "banana", Some(5), 2.0),
        ("east", "apple", None, 3.0),
        ("west", "banana", Some(20), 1.5),
        ("west", "apple", Some(7), 2.5),
        ("west", "cherry", Some(1), 4.0),
        ("north", "cherry", None, 0.5),
        ("north", "apple", Some(2), 1.0),
    ];
    let mut b = TableBuilder::new("sales", schema, 3);
    for (region, product, qty, price) in rows {
        b.push_row(vec![
            Value::Utf8(region.to_string()),
            Value::Utf8(product.to_string()),
            qty.map(Value::Int64).unwrap_or(Value::Null),
            Value::Float64(price),
        ]);
    }
    b.register(&c, 4);
    Arc::new(c)
}

/// A server whose executor has exactly `worker_threads` compute slots.
fn start_server(worker_threads: usize) -> QueryServer {
    // Elasticity is pinned off so SHOW defaults stay deterministic under
    // the CI elasticity matrix; sessions opt into modes via SET.
    let exec = ExecOptions {
        worker_threads,
        elasticity: ElasticityConfig::off(),
        ..ExecOptions::with_page_rows(3)
    };
    let executor = QueryExecutor::new(exec.clone());
    let config = ServerConfig {
        default_dop: 2,
        exec,
    };
    QueryServer::start(catalog(), executor, config, "127.0.0.1:0").unwrap()
}

const GROUP_QUERY: &str = "SELECT region, count(qty) AS cnt, sum(qty) AS total FROM sales \
     GROUP BY region ORDER BY region";

fn group_query_expected() -> Vec<Vec<String>> {
    vec![
        vec!["east".into(), "2".into(), "15".into()],
        vec!["north".into(), "1".into(), "2".into()],
        vec!["west".into(), "3".into(), "28".into()],
    ]
}

#[test]
fn eight_concurrent_sessions_share_one_worker_thread() {
    // The elasticity-critical server invariant: 8 sessions × repeated
    // queries over ONE compute slot finish (tasks parked on exchange
    // backpressure release the slot) and all see identical results.
    let server = start_server(1);
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for i in 0..8u32 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            // Per-session planned DOP, to vary the stage shapes in flight.
            let dop = (i % 4) + 1;
            client.send(&format!("SET dop = {dop}")).unwrap();
            let mut rows = Vec::new();
            for _ in 0..3 {
                let rs = client.query(GROUP_QUERY).unwrap();
                assert_eq!(rs.columns, vec!["region", "cnt", "total"]);
                rows.push(rs.rows);
            }
            // Session isolation: our DOP survived everyone else's SETs.
            let Response::Ok(shown) = client.send("SHOW dop").unwrap() else {
                panic!("SHOW returns OK");
            };
            assert_eq!(shown, format!("dop = {dop}"));
            client.exit().unwrap();
            rows
        }));
    }
    for handle in handles {
        for rows in handle.join().unwrap() {
            assert_eq!(rows, group_query_expected());
        }
    }
    assert_eq!(server.active_queries(), 0);
}

#[test]
fn set_variables_are_session_scoped_and_validated() {
    let mut server = start_server(2);
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();

    assert_eq!(
        a.send("SET elasticity = 'auto:2500'").unwrap(),
        Response::Ok("elasticity = auto:2500".to_string())
    );
    assert_eq!(
        a.send("SHOW deadline_ms").unwrap(),
        Response::Ok("deadline_ms = 2500".to_string())
    );
    // B never set anything: it still sees the server default.
    assert_eq!(
        b.send("SHOW elasticity").unwrap(),
        Response::Ok("elasticity = off".to_string())
    );
    // The default gate queues, with no limit, and nothing has run yet.
    let gate = "admission: policy=queue max=unlimited running=0 waiting=0 admitted=0 \
                rejected=0 peak_running=0";
    assert_eq!(
        b.send("SHOW admission").unwrap(),
        Response::Ok(gate.to_string())
    );

    // Malformed values produce ERR frames and leave the session intact.
    let err = a.send("SET elasticity = 'warp'").unwrap_err();
    assert!(err.to_string().contains("unknown elasticity mode"), "{err}");
    let err = a.send("SET dop = 0").unwrap_err();
    assert!(err.to_string().contains("dop must be positive"), "{err}");
    // One line of hostile input must not become four billion task threads.
    let err = a.send("SET dop = 4000000000").unwrap_err();
    assert!(
        err.to_string().contains("dop must be at most 1024"),
        "{err}"
    );
    assert_eq!(
        a.send("SHOW dop").unwrap(),
        Response::Ok("dop = 2".to_string())
    );
    assert_eq!(
        a.send("SHOW elasticity").unwrap(),
        Response::Ok("elasticity = auto:2500".to_string())
    );

    // The session still executes queries after errors.
    let rs = a.query("SELECT region FROM sales WHERE qty > 19").unwrap();
    assert_eq!(rs.rows, vec![vec!["west".to_string()]]);
    server.shutdown();
}

#[test]
fn error_frames_carry_diagnostics_and_do_not_kill_the_session() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Parse error with caret rendering.
    let err = client.send("SELECT FROM sales").unwrap_err();
    assert!(err.to_string().contains('^'), "{err}");
    // Analysis error names the bad column.
    let err = client.send("SELECT nope FROM sales").unwrap_err();
    assert!(err.to_string().contains("unknown column 'nope'"), "{err}");
    // Unknown table.
    let err = client.send("SELECT x FROM missing").unwrap_err();
    assert!(err.to_string().contains("'missing'"), "{err}");

    // And the connection still works.
    let rs = client.query("SELECT count(*) AS n FROM sales").unwrap();
    assert_eq!(rs.rows, vec![vec!["8".to_string()]]);
    client.exit().unwrap();
}

#[test]
fn mixed_type_expressions_answer_or_fail_analysis_but_never_panic_a_worker() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // INT64 and FLOAT64 branches: the CASE is FLOAT64 (it used to answer
    // `ERR … task panicked: type mismatch pushing Float64(0.5) into Int64
    // builder`). Three prices are above 2.0.
    let rs = client
        .query("SELECT sum(CASE WHEN price > 2.0 THEN 1 ELSE 0.5 END) AS s FROM sales")
        .unwrap();
    assert_eq!(rs.rows, vec![vec!["5.5".to_string()]]);
    // Branches that do not unify are refused with the CASE underlined.
    let err = client
        .send("SELECT CASE WHEN qty > 5 THEN 'a' ELSE 1 END FROM sales")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("CASE branches have incompatible types") && err.contains('^'),
        "{err}"
    );
    // `float_col IN (int)` compares like `float_col = int` (it selected
    // nothing), and a NULL element makes NOT IN keep no row.
    let by_in = client
        .query("SELECT qty FROM sales WHERE price IN (1, 4) ORDER BY qty")
        .unwrap();
    let by_eq = client
        .query("SELECT qty FROM sales WHERE price = 1 OR price = 4 ORDER BY qty")
        .unwrap();
    assert_eq!(by_in.rows, by_eq.rows);
    assert_eq!(by_in.rows.len(), 3);
    let none = client
        .query("SELECT qty FROM sales WHERE qty NOT IN (5, NULL)")
        .unwrap();
    assert!(none.rows.is_empty(), "{:?}", none.rows);
    client.exit().unwrap();
}

#[test]
fn batches_return_one_frame_per_statement() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // One send carrying three statements → three responses in order.
    client
        .send("SET dop = 3; SHOW dop; SELECT region FROM sales WHERE qty = 1;")
        .unwrap();
    let second = client.read_response().unwrap();
    assert_eq!(second, Response::Ok("dop = 3".to_string()));
    let Response::Rows(rs) = client.read_response().unwrap() else {
        panic!("third response is a result set");
    };
    assert_eq!(rs.rows, vec![vec!["west".to_string()]]);

    // Multi-line statements work too: `;` ends the batch, not the line.
    client
        .send("SELECT region, qty FROM sales\nWHERE qty > 9\nORDER BY qty")
        .unwrap();
    client.exit().unwrap();
}

#[test]
fn show_admission_reports_the_gate_and_rejections_surface_as_err_frames() {
    use accordion_common::config::AdmissionConfig;

    // A server whose executor rejects past 1 concurrent query.
    let exec = ExecOptions {
        worker_threads: 2,
        elasticity: ElasticityConfig::off(),
        admission: AdmissionConfig::rejecting(1),
        ..ExecOptions::with_page_rows(3)
    };
    let executor = QueryExecutor::new(exec.clone());
    let config = ServerConfig {
        default_dop: 2,
        exec,
    };
    let mut server = QueryServer::start(catalog(), executor, config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let Response::Ok(shown) = client.send("SHOW admission").unwrap() else {
        panic!("SHOW admission returns OK");
    };
    assert!(
        shown.contains("policy=reject") && shown.contains("max=1"),
        "{shown}"
    );

    // Sessions hammer the 1-query gate; every statement either succeeds
    // with the right rows or comes back as a clean admission ERR frame.
    let addr = server.local_addr();
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut outcomes = (0u32, 0u32); // (ok, rejected)
            for _ in 0..10 {
                match client.query(GROUP_QUERY) {
                    Ok(rs) => {
                        assert_eq!(rs.rows, group_query_expected());
                        outcomes.0 += 1;
                    }
                    Err(e) => {
                        assert!(
                            e.to_string().contains("admission rejected"),
                            "unexpected error: {e}"
                        );
                        outcomes.1 += 1;
                    }
                }
            }
            client.exit().unwrap();
            outcomes
        }));
    }
    let mut completed = 0;
    for handle in handles {
        completed += handle.join().unwrap().0;
    }
    // The gate never starves everyone: sessions retrying into a 1-slot
    // limit still make progress.
    assert!(completed > 0);

    let Response::Ok(shown) = client.send("SHOW admission").unwrap() else {
        panic!("SHOW admission returns OK");
    };
    assert!(shown.contains("peak_running=1"), "{shown}");
    server.shutdown();
}

#[test]
fn connect_is_bounded_against_dead_and_mute_servers() {
    use accordion_common::config::NetworkConfig;
    use std::time::{Duration, Instant};

    let network = NetworkConfig::builder().connect_timeout_ms(200).build();

    // A listener that accepts but never greets: the greeting read must time
    // out instead of hanging the client forever.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = mute.local_addr().unwrap();
    let hold = std::thread::spawn(move || mute.accept());
    let start = Instant::now();
    let err = match Client::connect_with(addr, &network) {
        Err(e) => e,
        Ok(_) => panic!("connected to a server that never greeted"),
    };
    assert!(
        err.to_string().contains("read timeout"),
        "unexpected error: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "greeting read hung"
    );
    drop(hold);

    // Nothing listening at all: bounded retries with backoff, then a
    // connect error that names the attempt count.
    let vacant = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = vacant.local_addr().unwrap();
    drop(vacant);
    let start = Instant::now();
    let err = match Client::connect_with(addr, &network) {
        Err(e) => e,
        Ok(_) => panic!("connected to a dead address"),
    };
    assert!(
        err.to_string().contains("connect failed after"),
        "unexpected error: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "connect retried unboundedly"
    );
}

#[test]
fn shutdown_disconnects_sessions_and_poisons_in_flight_queries() {
    let mut server = start_server(1);
    let addr = server.local_addr();

    // Sessions hammering queries while the server goes down: each either
    // completes normally or observes a shutdown-shaped failure — never a
    // hang or a wrong answer.
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(std::thread::spawn(move || {
            let Ok(mut client) = Client::connect(addr) else {
                return;
            };
            for _ in 0..50 {
                match client.query(GROUP_QUERY) {
                    Ok(rs) => assert_eq!(rs.rows, group_query_expected()),
                    Err(_) => return, // poisoned or disconnected mid-shutdown
                }
            }
        }));
    }
    // Let the load start, then pull the plug.
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.shutdown();
    for handle in handles {
        handle.join().unwrap();
    }
    // New connections are refused or die immediately after shutdown.
    if let Ok(mut client) = Client::connect(addr) {
        assert!(client.send("SHOW dop").is_err());
    }
}

#[test]
fn no_statement_waits_out_a_delayed_ack() {
    use std::time::{Duration, Instant};

    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A statement written in two segments, or a response flushed in two,
    // idles for one delayed-ACK timer (~40 ms) per exchange: 2 s for these.
    let started = Instant::now();
    for _ in 0..50 {
        let Response::Ok(shown) = client.send("SHOW dop").unwrap() else {
            panic!("SHOW returns OK");
        };
        assert_eq!(shown, "dop = 2");
    }
    let shows = started.elapsed();
    assert!(
        shows < Duration::from_millis(500),
        "50 SHOWs took {shows:?}"
    );

    // A one-row result is a page and a trailer: they must leave together.
    let started = Instant::now();
    for _ in 0..20 {
        let rs = client
            .query("SELECT region FROM sales WHERE qty > 19")
            .unwrap();
        assert_eq!(rs.rows, vec![vec!["west".to_string()]]);
    }
    let selects = started.elapsed();
    assert!(
        selects < Duration::from_millis(500),
        "20 one-row SELECTs took {selects:?}"
    );
    client.exit().unwrap();
}

#[test]
fn a_large_result_streams_through_the_response_buffer_intact() {
    // Far more than the 64 KiB the response buffer holds: it fills and
    // empties many times within one response, and the client must still
    // see every row once, in order, before the trailer.
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("n", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ]);
    let mut b = TableBuilder::new("big", schema, 512);
    for n in 0..20_000i64 {
        b.push_row(vec![Value::Int64(n), Value::Utf8(format!("row-{n:08}"))]);
    }
    b.register(&c, 1);
    let exec = ExecOptions {
        worker_threads: 2,
        elasticity: ElasticityConfig::off(),
        ..ExecOptions::with_page_rows(512)
    };
    let config = ServerConfig {
        default_dop: 1,
        exec: exec.clone(),
    };
    let server =
        QueryServer::start(Arc::new(c), QueryExecutor::new(exec), config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rs = client.query("SELECT n, label FROM big ORDER BY n").unwrap();
    assert_eq!(rs.rows.len(), 20_000);
    for (n, row) in rs.rows.iter().enumerate() {
        assert_eq!(row, &vec![n.to_string(), format!("row-{n:08}")]);
    }
    client.exit().unwrap();
}

#[cfg(target_os = "linux")]
#[test]
fn a_finished_session_leaves_no_descriptor_behind() {
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }

    let server = start_server(1);
    let addr = server.local_addr();
    // One session first, so that whatever is allocated once is counted.
    Client::connect(addr).unwrap().exit().unwrap();
    let before = open_fds();
    for _ in 0..200 {
        let mut client = Client::connect(addr).unwrap();
        client.send("SHOW dop").unwrap();
        client.exit().unwrap();
    }
    // The last sessions may still be on their way out, and sibling tests
    // open sockets of their own — a few, not hundreds.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut after = open_fds();
    while after > before + 40 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = open_fds();
    }
    assert!(
        after <= before + 40,
        "{before} descriptors before 200 sessions, {after} after"
    );
}
