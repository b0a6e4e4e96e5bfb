//! Cross-node exchange over the real TCP transport: two registries in one
//! process, each fronted by its own `PageServer`, simulating a two-node
//! fleet. Exercises hybrid local/remote routing, writer accounting via
//! one FINISH frame per node, credit backpressure, poison propagation,
//! several edges sharing one session, and what a listener
//! does with peers that do not speak the framing, open with anything but
//! HELLO, or take a session out of turn.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use accordion_common::config::NetworkConfig;
use accordion_common::AccordionError;
use accordion_common::Result;
use accordion_data::column::Column;
use accordion_data::page::{DataPage, EndReason, Page};
use accordion_net::frame::{kind, listen, read_frame, FrameConn, Listener, MAX_DATA, PREALLOC};
use accordion_net::{
    serve_sessions, ConsumerLoc, Control, EdgeSpec, ExchangeReader, ExchangeRegistry,
    ExchangeTopology, NicModel, PageRegistries, PageServer, RoutePolicy, Wired,
};

fn data_page(keys: Vec<i64>) -> Arc<DataPage> {
    Arc::new(DataPage::new(vec![Column::from_i64(keys)]))
}

fn page(keys: Vec<i64>) -> Page {
    Page::Data(data_page(keys))
}

/// Roomy buffers for the single-threaded tests: writers run to completion
/// before anyone pulls, so pushes must never block on capacity.
fn roomy() -> NetworkConfig {
    NetworkConfig::builder().buffer_pages(64, None).build()
}

fn drain(reader: &mut dyn ExchangeReader) -> Vec<i64> {
    let mut out = Vec::new();
    loop {
        match reader.pull().unwrap() {
            Page::End(_) => return out,
            Page::Data(p) => out.extend(p.column(0).as_i64().unwrap()),
        }
    }
}

/// A two-node fleet for one edge: node A owns consumer slot 0 and node B
/// owns slot 1. Both registries declare the same global edge, each marking
/// the other node's slot remote.
struct Fleet {
    server_a: Arc<PageServer>,
    server_b: Arc<PageServer>,
    registry_a: Arc<ExchangeRegistry>,
    registry_b: Arc<ExchangeRegistry>,
}

fn fleet(query: u64, producers: u32, policy: RoutePolicy, network: &NetworkConfig) -> Fleet {
    let server_a = PageServer::bind("127.0.0.1:0").unwrap();
    let server_b = PageServer::bind("127.0.0.1:0").unwrap();
    let addr_a = server_a.local_addr();
    let addr_b = server_b.local_addr();
    let spec = |mine: usize, other: &str| EdgeSpec {
        stage: 1,
        producers,
        policy: policy.clone(),
        consumers: (0..2)
            .map(|slot| {
                if slot == mine {
                    ConsumerLoc::Local
                } else {
                    ConsumerLoc::Remote(other.to_string())
                }
            })
            .collect(),
        leased: false,
    };
    let topo_a = ExchangeTopology::new(query)
        .peer(addr_b.clone())
        .edge(spec(0, &addr_b));
    let topo_b = ExchangeTopology::new(query)
        .peer(addr_a.clone())
        .edge(spec(1, &addr_a));
    let registry_a = ExchangeRegistry::build(&topo_a, network, NicModel::unlimited()).unwrap();
    let registry_b = ExchangeRegistry::build(&topo_b, network, NicModel::unlimited()).unwrap();
    server_a.register(query, registry_a.clone());
    server_b.register(query, registry_b.clone());
    Fleet {
        server_a,
        server_b,
        registry_a,
        registry_b,
    }
}

#[test]
fn hash_edge_spans_two_nodes_without_loss() {
    let network = roomy();
    let f = fleet(
        7,
        2,
        RoutePolicy::Hash {
            keys: vec![0],
            partitions: 2,
        },
        &network,
    );
    // One producer per node, each emitting half the keyspace: every page is
    // hash-split across the local slot and the remote one.
    let mut w_a = f.registry_a.writer(1, 0, None).unwrap();
    let mut w_b = f.registry_b.writer(1, 1, None).unwrap();
    w_a.push(page((0..50).collect())).unwrap();
    w_b.push(page((50..100).collect())).unwrap();
    w_a.push(Page::end(EndReason::ScanExhausted)).unwrap();
    w_b.push(Page::end(EndReason::ScanExhausted)).unwrap();

    let mut r_a = f.registry_a.reader(1, 0, None).unwrap();
    let mut r_b = f.registry_b.reader(1, 1, None).unwrap();
    let got_a = drain(r_a.as_mut());
    let got_b = drain(r_b.as_mut());
    assert!(
        !got_a.is_empty() && !got_b.is_empty(),
        "both partitions used"
    );
    let mut all = got_a.clone();
    all.extend(&got_b);
    all.sort_unstable();
    assert_eq!(
        all,
        (0..100).collect::<Vec<_>>(),
        "no row lost or duplicated"
    );
    // Keys are partitioned consistently across nodes: the same key never
    // lands on both sides.
    assert!(got_a.iter().all(|k| !got_b.contains(k)));

    f.server_a.shutdown();
    f.server_b.shutdown();
}

#[test]
fn broadcast_reaches_remote_consumers_and_ends_cleanly() {
    let network = roomy();
    let f = fleet(8, 1, RoutePolicy::Single, &network);
    // Single producer on node A broadcasting to both slots.
    let mut w = f.registry_a.writer(1, 0, None).unwrap();
    w.push(page(vec![1, 2, 3])).unwrap();
    w.push(Page::end(EndReason::UpstreamFinished)).unwrap();
    let mut r_a = f.registry_a.reader(1, 0, None).unwrap();
    let mut r_b = f.registry_b.reader(1, 1, None).unwrap();
    assert_eq!(drain(r_a.as_mut()), vec![1, 2, 3]);
    assert_eq!(drain(r_b.as_mut()), vec![1, 2, 3], "remote copy intact");
    f.server_a.shutdown();
    f.server_b.shutdown();
}

#[test]
fn remote_producer_with_no_data_still_closes_the_edge() {
    // Node B's producer ends without routing a single page to node A: the
    // FINISH frame alone must decrement A's writer accounting, or A's
    // reader would wait forever.
    let network = roomy();
    let f = fleet(9, 2, RoutePolicy::Single, &network);
    let mut w_a = f.registry_a.writer(1, 0, None).unwrap();
    let mut w_b = f.registry_b.writer(1, 1, None).unwrap();
    w_a.push(page(vec![42])).unwrap(); // broadcast: local on A, a copy to B
    w_a.push(Page::end(EndReason::ScanExhausted)).unwrap();
    w_b.push(Page::end(EndReason::ScanExhausted)).unwrap(); // no data at all
    let mut r_a = f.registry_a.reader(1, 0, None).unwrap();
    assert_eq!(drain(r_a.as_mut()), vec![42]);
    f.server_a.shutdown();
    f.server_b.shutdown();
}

#[test]
fn credit_window_survives_a_tight_buffer() {
    // One-page buffers: the sink's credit window collapses to one frame in
    // flight, so every page waits for the previous push to be consumed.
    // 200 pages through that window must all arrive, in order. The edge's
    // only consumer slot lives on node A; the producer on node B is
    // remote-only.
    let network = NetworkConfig::builder().fixed_buffers(1).build();
    let server_a = PageServer::bind("127.0.0.1:0").unwrap();
    let topo_a = ExchangeTopology::new(10).edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1));
    let registry_a = ExchangeRegistry::build(&topo_a, &network, NicModel::unlimited()).unwrap();
    server_a.register(10, registry_a.clone());
    let topo_b = ExchangeTopology::new(10).edge(EdgeSpec {
        stage: 1,
        producers: 1,
        policy: RoutePolicy::Single,
        consumers: vec![ConsumerLoc::Remote(server_a.local_addr())],
        leased: false,
    });
    let registry_b = ExchangeRegistry::build(&topo_b, &network, NicModel::unlimited()).unwrap();
    let producer = std::thread::spawn(move || {
        let mut w = registry_b.writer(1, 0, None).unwrap();
        for i in 0..200 {
            w.push(page(vec![i])).unwrap();
        }
        w.push(Page::end(EndReason::ScanExhausted)).unwrap();
    });
    let mut r_a = registry_a.reader(1, 0, None).unwrap();
    let got_a = drain(r_a.as_mut());
    assert_eq!(got_a, (0..200).collect::<Vec<_>>(), "ordered, complete");
    producer.join().unwrap();
    server_a.shutdown();
}

#[test]
fn two_writers_on_one_node_end_behind_one_finish() {
    // Node A's two tasks are one producer of the edge, so node B registers
    // it with one. A's first task ends before its second has pushed a
    // page: had A sent a FINISH per task, B's edge would have ended right
    // there, without the second task's page.
    let network = roomy();
    let server_b = PageServer::bind("127.0.0.1:0").unwrap();
    let topo_b = ExchangeTopology::new(11).edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1));
    let registry_b = ExchangeRegistry::build(&topo_b, &network, NicModel::unlimited()).unwrap();
    server_b.register(11, registry_b.clone());
    let registry_a = remote_edge(11, 1, &server_b.local_addr(), &network);
    let mut first = registry_a.writer(1, 0, None).unwrap();
    let mut second = registry_a.writer(1, 1, None).unwrap();
    let mut reader = registry_b.reader(1, 0, None).unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        let keys = match reader.pull().unwrap() {
            Page::End(_) => None,
            Page::Data(p) => Some(p.column(0).as_i64().unwrap().to_vec()),
        };
        let end = keys.is_none();
        tx.send(keys).unwrap();
        if end {
            return;
        }
    });
    let next = || rx.recv_timeout(Duration::from_secs(10)).unwrap();
    first.push(page(vec![1])).unwrap();
    first.push(Page::end(EndReason::EndSignal)).unwrap();
    assert_eq!(next(), Some(vec![1]));
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "B's edge ended while a task of A still ran"
    );
    second.push(page(vec![2])).unwrap();
    second.push(Page::end(EndReason::ScanExhausted)).unwrap();
    assert_eq!(next(), Some(vec![2]));
    assert_eq!(next(), None, "and then the edge's one end");
    assert_eq!(registry_b.producers_remaining(1).unwrap(), 0);
    server_b.shutdown();
}

#[test]
fn poison_propagates_across_nodes() {
    let network = roomy();
    let f = fleet(12, 2, RoutePolicy::Single, &network);
    f.registry_a
        .poison(AccordionError::Execution("node A task failed".into()));
    // Node B's endpoints must observe the failure (poison() returns once
    // the POISON frame is written to A's session; B applies it when its
    // session thread reads it, so poll briefly).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if f.registry_b.poison_error().is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "poison never reached node B"
        );
        std::thread::yield_now();
    }
    let mut r_b = f.registry_b.reader(1, 1, None).unwrap();
    let err = r_b.pull().unwrap_err();
    assert!(err.to_string().contains("node A task failed"), "{err}");
    f.server_a.shutdown();
    f.server_b.shutdown();
}

/// A registry on the producing side of one edge, `producers` writers
/// strong, whose one consumer slot lives at `addr`.
fn remote_edge(
    query: u64,
    producers: u32,
    addr: &str,
    network: &NetworkConfig,
) -> Arc<ExchangeRegistry> {
    let topology = ExchangeTopology::new(query).edge(EdgeSpec {
        stage: 1,
        producers,
        policy: RoutePolicy::Single,
        consumers: vec![ConsumerLoc::Remote(addr.to_string())],
        leased: false,
    });
    ExchangeRegistry::build(&topology, network, NicModel::unlimited()).unwrap()
}

#[test]
fn unknown_query_is_rejected_with_an_error_frame() {
    let network = NetworkConfig::builder().connect_timeout_ms(2_000).build();
    let server = PageServer::bind("127.0.0.1:0").unwrap();
    // A node that also takes WIRE accepts a HELLO for a query it does not
    // know yet, which no WIRE has registered before the page arrives.
    let node = control_node(&Arc::default());
    for addr in [server.local_addr(), node.local_addr()] {
        // No registry registered for query 99: a push must surface the
        // server's error, not hang. HELLO has no reply, so the first page
        // goes out on the window's credit; the ERR lands while the writer
        // waits for more.
        let registry = remote_edge(99, 1, &addr, &network);
        let mut w = registry.writer(1, 0, None).unwrap();
        let err = (0..10_000)
            .find_map(|i| w.push(page(vec![i])).err())
            .expect("unregistered query must fail the producer");
        assert!(err.to_string().contains("not registered"), "{addr}: {err}");
    }
    server.shutdown();
}

/// A stand-in for a node's control service (which lives two crates up):
/// WIRE wires an edgeless registry, whose run JOIN answers with DONE.
struct StubControl;

impl Control for StubControl {
    fn wire(&self, query: u64, _wire: &[u8]) -> Result<Wired> {
        let registry = ExchangeRegistry::build(
            &ExchangeTopology::new(query),
            &roomy(),
            NicModel::unlimited(),
        )?;
        Ok((
            registry,
            Box::new(|| Ok((kind::DONE, 0u64.to_le_bytes().to_vec()))),
        ))
    }
}

/// A node listener serving pages into `pages` and WIRE through
/// [`StubControl`].
fn control_node(pages: &Arc<PageRegistries>) -> Listener {
    let serve = serve_sessions(Some(pages.clone()), None, Some(Arc::new(StubControl)));
    listen("127.0.0.1:0", "control", serve).unwrap()
}

/// xorshift64*, as in the CSV suite: the hostile schedule is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn frame_header(len: u32, kind: u8) -> Vec<u8> {
    let mut bytes = len.to_le_bytes().to_vec();
    bytes.push(kind);
    bytes
}

#[test]
fn hostile_peers_cost_a_small_buffer_and_a_closed_connection() {
    // A length is not an allocation size: the largest frame the reader
    // admits, announced and never sent, reserves no more than PREALLOC.
    let mut payload = Vec::new();
    let announced = frame_header(MAX_DATA as u32, kind::DATA);
    assert!(read_frame(&mut announced.as_slice(), &mut payload).is_err());
    assert!(payload.capacity() <= PREALLOC, "{}", payload.capacity());

    let network = roomy();
    let server = PageServer::bind("127.0.0.1:0").unwrap();
    let topo = ExchangeTopology::new(60).edge(EdgeSpec::local(1, 2, RoutePolicy::Single, 1));
    let registry = ExchangeRegistry::build(&topo, &network, NicModel::unlimited()).unwrap();
    server.register(60, registry.clone());
    // A well-behaved session, open for as long as the hostile ones come.
    let early = remote_edge(60, 2, &server.local_addr(), &network);
    let mut early_writer = early.writer(1, 0, None).unwrap();
    early_writer.push(page(vec![1, 2, 3])).unwrap();
    let mut hello = frame_header(9, kind::HELLO);
    hello.extend_from_slice(&60u64.to_le_bytes());

    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for round in 0..48 {
        let bytes = match rng.next() % 7 {
            // A frame that stops short of its announced length, on the
            // query's own session.
            0 => {
                let mut b = hello.clone();
                b.extend_from_slice(&frame_header(100, kind::DATA));
                b.extend(std::iter::repeat_n(7u8, (rng.next() % 99) as usize));
                b
            }
            1 => frame_header(0, kind::HELLO),
            2 => frame_header(u32::MAX, kind::DATA),
            3 => frame_header(MAX_DATA as u32, kind::DATA),
            // A kind nobody defined, and defined kinds a page server
            // does not serve (as a first frame and inside a session).
            4 => frame_header(1, 16 + (rng.next() % 240) as u8),
            5 => {
                let mut b = if rng.next().is_multiple_of(2) {
                    hello.clone()
                } else {
                    Vec::new()
                };
                b.extend_from_slice(&frame_header(1, kind::WIRE + (rng.next() % 9) as u8));
                b
            }
            _ => (0..rng.next() % 64).map(|_| rng.next() as u8).collect(),
        };
        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        // The server may already have hung up on an earlier byte.
        let _ = peer.write_all(&bytes);
        let _ = peer.shutdown(Shutdown::Write);
        // Whatever comes back is ERR, and then the connection ends — by
        // EOF or by reset, but not by our read timing out.
        while let Ok(Some(kind)) = read_frame(&mut peer, &mut payload) {
            assert_eq!(kind, kind::ERR, "round {round}: {bytes:?}");
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "round {round}: connection outlived its garbage: {bytes:?}"
        );
    }

    // A connection opens with HELLO. A reply kind opens nothing, and
    // neither do a claim or a WIRE, which travel inside a session, even at
    // a node that serves them there: one ERR naming the kind, then the
    // connection is closed.
    let control = control_node(&Arc::default());
    for (addr, first) in [
        (server.local_addr(), kind::CREDIT),
        (server.local_addr(), kind::ACK),
        (server.local_addr(), kind::WIRE),
        (server.local_addr(), kind::SPLIT),
        (server.local_addr(), kind::CLAIM),
        (control.local_addr(), kind::WIRE),
    ] {
        let mut peer = TcpStream::connect(&addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        peer.write_all(&frame_header(1, first)).unwrap();
        // The write side stays open: the server hangs up by itself.
        assert_eq!(
            read_frame(&mut peer, &mut payload).unwrap(),
            Some(kind::ERR),
            "first frame {first}"
        );
        let text = String::from_utf8_lossy(&payload).into_owned();
        assert!(text.contains(&format!("kind {first} ")), "{first}: {text}");
        assert!(payload.capacity() <= PREALLOC);
        assert!(
            !matches!(read_frame(&mut peer, &mut payload), Ok(Some(_))),
            "first frame {first}: a second reply"
        );
    }
    // Inside a session the node takes WIRE up — once: a second WIRE on
    // the session is refused with one ERR, and the session ends.
    let mut coordinator =
        FrameConn::connect(&control.local_addr(), Duration::from_secs(5)).unwrap();
    coordinator
        .send((kind::HELLO, 61u64.to_le_bytes().to_vec()))
        .unwrap();
    assert_eq!(
        coordinator.call((kind::WIRE, Vec::new())).unwrap().0,
        kind::ACK
    );
    let err = coordinator.call((kind::WIRE, Vec::new())).unwrap_err();
    assert!(err.to_string().contains("kind 8 out of turn"), "{err}");
    assert!(
        coordinator.recv().unwrap().is_none(),
        "and the session ends"
    );

    // Kind 16 is unassigned, like 5 and 9.
    let err = read_frame(&mut frame_header(1, 16).as_slice(), &mut payload).unwrap_err();
    assert!(err.to_string().contains("unknown frame kind 16"), "{err}");
    // FINISH names its stage and nothing else: one that carries more ends
    // its session with a typed ERR and finishes no queue of the edge.
    let mut finish = FrameConn::connect(&server.local_addr(), Duration::from_secs(5)).unwrap();
    finish
        .send((kind::HELLO, 60u64.to_le_bytes().to_vec()))
        .unwrap();
    let stage_and_more = [1u32.to_le_bytes().as_slice(), &[0]].concat();
    finish.send((kind::FINISH, stage_and_more)).unwrap();
    finish.close(); // a FINISH the node took would be answered by EOF
    let (reply, text) = finish.recv().unwrap().expect("an ERR");
    let err = AccordionError::from_display(&String::from_utf8_lossy(&text));
    assert!(
        reply == kind::ERR && matches!(err, AccordionError::Wire(_)),
        "{err}"
    );
    assert!(finish.recv().unwrap().is_none(), "and the session ends");
    assert_eq!(registry.producers_remaining(1).unwrap(), 2);

    // The session opened before all of that, and one opened after it, are
    // both served.
    early_writer.push(page(vec![4])).unwrap();
    early_writer
        .push(Page::end(EndReason::ScanExhausted))
        .unwrap();
    let late = remote_edge(60, 2, &server.local_addr(), &network);
    let mut late_writer = late.writer(1, 1, None).unwrap();
    late_writer.push(page(vec![5, 6])).unwrap();
    late_writer
        .push(Page::end(EndReason::ScanExhausted))
        .unwrap();
    let mut reader = registry.reader(1, 0, None).unwrap();
    let mut got = drain(reader.as_mut());
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
    server.shutdown();
}

#[test]
fn a_dropped_server_releases_its_port() {
    let timeout = Duration::from_secs(2);
    let server = PageServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    FrameConn::connect(&addr, timeout).expect("a live server accepts");
    drop(server);
    let started = Instant::now();
    assert!(FrameConn::connect(&addr, timeout).is_err(), "still bound");
    assert!(started.elapsed() <= timeout + Duration::from_millis(500));
}

#[test]
fn surplus_credit_does_not_lose_the_finish_frame() {
    // Two tasks on each of two nodes feed one tight consumer slot.
    // Capacity doubling hands the remote window surplus credit, so the
    // writers finish with CREDIT frames still unread on the wire, and no
    // FINISH is acknowledged. The session's close must still deliver the
    // remote node's FINISH — the dialer shuts down its write half and
    // drains its reader, so no unread byte resets the connection — or the
    // edge's writer accounting would never reach zero.
    let network = NetworkConfig::default();
    let server = PageServer::bind("127.0.0.1:0").unwrap();
    let topo_a = ExchangeTopology::new(50).edge(EdgeSpec::local(0, 2, RoutePolicy::Single, 1));
    let reg_a = ExchangeRegistry::build(&topo_a, &network, NicModel::unlimited()).unwrap();
    server.register(50, reg_a.clone());
    let topo_b = ExchangeTopology::new(50).edge(EdgeSpec {
        stage: 0,
        producers: 2,
        policy: RoutePolicy::Single,
        consumers: vec![ConsumerLoc::Remote(server.local_addr())],
        leased: false,
    });
    let reg_b = ExchangeRegistry::build(&topo_b, &network, NicModel::unlimited()).unwrap();
    // Every writer joins its node's group before any of them can end it,
    // as the scheduler creates a node's writers before it starts a task.
    let writers: Vec<_> = [(0u32, &reg_a), (1, &reg_b), (2, &reg_a), (3, &reg_b)]
        .into_iter()
        .map(|(task, reg)| reg.writer(0, task, None).unwrap())
        .collect();
    let mut handles = Vec::new();
    for mut w in writers {
        handles.push(std::thread::spawn(move || {
            for i in 0..20 {
                w.push(page(vec![i])).unwrap();
            }
            w.push(Page::end(EndReason::ScanExhausted)).unwrap();
        }));
    }
    // Node B's registry, and with it its session, goes away the moment its
    // writers are done, credit in flight or not.
    drop(reg_b);
    let mut reader = reg_a.reader(0, 0, None).unwrap();
    let mut rows = 0;
    loop {
        match reader.pull().unwrap() {
            Page::End(_) => break,
            Page::Data(p) => rows += p.row_count(),
        }
    }
    assert_eq!(rows, 80, "every producer's pages arrived exactly once");
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// A node listener serving pages only, which counts the connections it
/// accepts.
fn counting_node(pages: &Arc<PageRegistries>, accepted: &Arc<AtomicUsize>) -> Listener {
    let serve = serve_sessions(Some(pages.clone()), None, None);
    let accepted = accepted.clone();
    let counted = move |conn: &mut FrameConn, query| {
        accepted.fetch_add(1, Ordering::SeqCst);
        serve(conn, query)
    };
    listen("127.0.0.1:0", "counting", Box::new(counted)).unwrap()
}

/// Drains `reader` on a thread of its own, so a test can bound the wait.
fn drain_within(mut reader: Box<dyn ExchangeReader>, bound: Duration) -> Vec<i64> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(drain(reader.as_mut())));
    rx.recv_timeout(bound).expect("the edge never ended")
}

#[test]
fn a_full_edge_does_not_block_another_edge_on_its_session() {
    // Node A feeds two edges into node B over one session, through
    // one-page buffers. B's consumer of edge 1 does not pull, and a local
    // writer on B has filled its queue already, so A's first page of edge 1
    // lands in a full queue and A's window for it runs dry. Edge 2 must
    // still flow: the session's reader on B never waits for room, and each
    // window is its own.
    let network = NetworkConfig::builder().fixed_buffers(1).build();
    let (pages, accepted) = (
        Arc::<PageRegistries>::default(),
        Arc::new(AtomicUsize::new(0)),
    );
    let node_b = counting_node(&pages, &accepted);
    let edge = |stage, loc: &ConsumerLoc| EdgeSpec {
        stage,
        producers: if stage == 1 { 2 } else { 1 },
        policy: RoutePolicy::Single,
        consumers: vec![loc.clone()],
        leased: false,
    };
    let remote = ConsumerLoc::Remote(node_b.local_addr());
    let topo_a = ExchangeTopology::new(70)
        .edge(edge(1, &remote))
        .edge(edge(2, &remote));
    let topo_b = ExchangeTopology::new(70)
        .edge(edge(1, &ConsumerLoc::Local))
        .edge(edge(2, &ConsumerLoc::Local));
    let registry_a = ExchangeRegistry::build(&topo_a, &network, NicModel::unlimited()).unwrap();
    let registry_b = ExchangeRegistry::build(&topo_b, &network, NicModel::unlimited()).unwrap();
    pages.register(70, registry_b.clone());
    let mut local = registry_b.writer(1, 1, None).unwrap();
    local.push(page(vec![1000])).unwrap();
    local.push(Page::end(EndReason::ScanExhausted)).unwrap();

    let producer = |stage: u32, pages: i64| {
        let registry = registry_a.clone();
        std::thread::spawn(move || {
            let mut w = registry.writer(stage, 0, None).unwrap();
            for i in 0..pages {
                w.push(page(vec![i])).unwrap();
            }
            w.push(Page::end(EndReason::ScanExhausted)).unwrap();
        })
    };
    let stalled = producer(1, 20);
    let flowing = producer(2, 200);
    let reader_2 = registry_b.reader(2, 0, None).unwrap();
    let got = drain_within(reader_2, Duration::from_secs(10));
    assert_eq!(
        got,
        (0..200).collect::<Vec<_>>(),
        "edge 2 ordered and complete"
    );
    flowing.join().unwrap();
    assert!(
        !stalled.is_finished(),
        "edge 1 is held back by its consumer"
    );

    let reader_1 = registry_b.reader(1, 0, None).unwrap();
    let got = drain_within(reader_1, Duration::from_secs(10));
    assert_eq!(got, [1000].into_iter().chain(0..20).collect::<Vec<_>>());
    stalled.join().unwrap();
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "one session carried both edges"
    );
    node_b.shutdown();
}

#[test]
fn a_closed_consumer_credits_what_it_drops() {
    // Node A's window of four fills node B's queue, and B credits a page
    // only when its consumer pulls it. B's reader takes one page (A sends
    // one more on that credit) and goes away with four pages buffered and
    // A's window empty. The pages it drops, and every page after, are
    // credited at once: A's producer pushes the rest and finishes without
    // waiting on a window nobody will ever reopen.
    let network = NetworkConfig::builder().fixed_buffers(4).build();
    let server = PageServer::bind("127.0.0.1:0").unwrap();
    let topo_b = ExchangeTopology::new(80).edge(EdgeSpec::local(1, 1, RoutePolicy::Single, 1));
    let registry_b = ExchangeRegistry::build(&topo_b, &network, NicModel::unlimited()).unwrap();
    server.register(80, registry_b.clone());
    let registry_a = remote_edge(80, 1, &server.local_addr(), &network);
    let mut w = registry_a.writer(1, 0, None).unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let pushed = (0..105)
            .try_for_each(|i| w.push(page(vec![i])))
            .and_then(|()| w.push(Page::end(EndReason::ScanExhausted)));
        tx.send(pushed)
    });
    let buffered = |pages| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while registry_b.stats().pages < pages {
            assert!(Instant::now() < deadline, "{pages} pages never arrived");
            std::thread::yield_now();
        }
    };
    buffered(4);
    let mut reader = registry_b.reader(1, 0, None).unwrap();
    assert_eq!(reader.pull().unwrap().row_count(), 1);
    buffered(5);
    drop(reader);
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the producer waited for credit a closed consumer never sends")
        .unwrap();
    server.shutdown();
}
