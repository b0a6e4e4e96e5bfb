//! Real TCP transport for the exchange: length-prefixed page frames.
//!
//! The in-process exchange moves `Arc<DataPage>`s between threads; this
//! module moves the same pages between **processes**, using the versioned
//! binary codec behind [`Page::encode`] / [`Page::decode`]. One
//! [`PageServer`] per node accepts connections and feeds incoming pages
//! into the node's local [`ExchangeRegistry`] queues; a [`PageSink`] is the
//! producer-side connection a writer opens toward one remote node for one
//! exchange edge.
//!
//! ## Framing
//!
//! Every message is `[len: u32 LE][kind: u8][payload]`, `len` counting the
//! kind byte plus payload. Kinds:
//!
//! | kind | name    | payload                               | direction |
//! |------|---------|---------------------------------------|-----------|
//! | 0    | HELLO   | query `u64`, stage `u32`              | → server  |
//! | 1    | DATA    | consumer `u32`, encoded data page     | → server  |
//! | 2    | FINISH  | encoded end page (ACK-ed)             | → server  |
//! | 3    | CREDIT  | grant `u32`                           | ← server  |
//! | 4    | ERR     | UTF-8 message                         | ← server  |
//! | 5    | ADDPROD | stage `u32`, producers `u32`          | → server  |
//! | 6    | POISON  | UTF-8 message                         | → server  |
//! | 7    | ACK     | (empty)                               | ← server  |
//!
//! A connection greets with HELLO; `stage == u32::MAX` marks it a
//! **control channel** (ADDPROD/POISON broadcasts between registries),
//! anything else binds the connection to that exchange edge for DATA and
//! FINISH frames.
//!
//! ## Backpressure: credits mirroring the elastic buffers
//!
//! A sink starts with `initial_buffer_pages` credits and spends one per
//! DATA frame; the server grants credits back only after the frame's page
//! has been **pushed into the destination queue** — a push blocked on a
//! full [`ElasticQueue`](crate::buffer::ElasticQueue) delays the grant, so
//! remote producers feel exactly the local backpressure. When a consumer
//! pull doubles a queue's capacity, the next grant carries the growth as
//! extra credits, so the sink's window tracks the §4.2.2 doubling
//! discipline. A sink blocked waiting for credit yields the scheduler's
//! compute-slot semaphore, like every other exchange wait.
//!
//! ## Errors
//!
//! A poisoned queue makes the server answer ERR instead of a grant; the
//! sink surfaces it on its next send, failing the producing task, which
//! poisons its own registry — and poison broadcasts travel the control
//! channels, so every node's tasks unwind with the original error.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::page::{DataPage, EndReason, Page};

use crate::exchange::{ExchangeReader, ExchangeRegistry, ExchangeWriter, RoutePolicy};

/// HELLO stage id marking a control channel.
pub const CONTROL_STAGE: u32 = u32::MAX;

/// Frame size guard: no legitimate frame exceeds this (pages are bounded
/// by `page_rows`; this only rejects garbage prefixes).
const MAX_FRAME: usize = 1 << 30;

const KIND_HELLO: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_FINISH: u8 = 2;
const KIND_CREDIT: u8 = 3;
const KIND_ERR: u8 = 4;
const KIND_ADDPROD: u8 = 5;
const KIND_POISON: u8 = 6;
const KIND_ACK: u8 = 7;

fn net_err(msg: impl Into<String>) -> AccordionError {
    AccordionError::Io(msg.into())
}

/// Writes one `[len][kind][payload]` frame.
fn write_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> Result<()> {
    let len = (payload.len() + 1) as u32;
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
    stream.write_all(&buf)?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> Result<Option<(u8, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(net_err(format!("invalid frame length {len}")));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let kind = body[0];
    body.remove(0);
    Ok(Some((kind, body)))
}

fn connect(addr: &str, network: &NetworkConfig) -> Result<TcpStream> {
    let timeout = Duration::from_millis(network.connect_timeout_ms.max(1));
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| net_err(format!("bad exchange address {addr:?}: {e}")))?;
    let stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| net_err(format!("connect to {addr} failed: {e}")))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn hello_payload(query: u64, stage: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(12);
    p.extend_from_slice(&query.to_le_bytes());
    p.extend_from_slice(&stage.to_le_bytes());
    p
}

/// Producer-side connection toward one remote node for one exchange edge.
///
/// Not `Sync`: each writer owns its sinks. Dropping the sink without
/// [`PageSink::finish`] closes the stream; the remote side treats a missing
/// FINISH as the connection's contribution simply never having existed
/// (writer accounting travels via FINISH frames only).
pub struct PageSink {
    stream: TcpStream,
    credit: usize,
    finished: bool,
}

impl PageSink {
    /// Connects to the [`PageServer`] at `addr` and binds the connection to
    /// `(query, stage)`.
    pub fn connect(
        addr: &str,
        query: u64,
        stage: u32,
        network: &NetworkConfig,
    ) -> Result<PageSink> {
        let mut stream = connect(addr, network)?;
        write_frame(&mut stream, KIND_HELLO, &hello_payload(query, stage))?;
        Ok(PageSink {
            stream,
            credit: network.initial_buffer_pages.max(1),
            finished: false,
        })
    }

    /// Sends one data page to consumer slot `consumer`, blocking (and
    /// yielding `gate`) while the credit window is exhausted.
    pub fn send_data(
        &mut self,
        consumer: u32,
        page: &Arc<DataPage>,
        gate: Option<&Semaphore>,
    ) -> Result<()> {
        if self.finished {
            return Err(AccordionError::Internal(
                "page sink used after finish".into(),
            ));
        }
        if self.credit == 0 {
            self.wait_credit(gate)?;
        }
        self.credit -= 1;
        let mut payload = consumer.to_le_bytes().to_vec();
        payload.extend_from_slice(&Page::Data(page.clone()).encode());
        write_frame(&mut self.stream, KIND_DATA, &payload)
    }

    /// Sends the end-of-producer frame: the server applies it to every
    /// queue of the edge on its node and acknowledges. Idempotent.
    ///
    /// The round trip is load-bearing twice over: it guarantees the remote
    /// writer accounting landed before the producer exits, and it drains any
    /// surplus CREDIT frames still in flight — closing a socket with unread
    /// data would RST the connection and could discard the FINISH frame on
    /// the server side, leaving the edge's consumers waiting forever.
    ///
    /// The ACK queues behind every DATA frame this sink sent, and the
    /// server accepts those only as the remote consumer drains its queue —
    /// so, like a credit wait, the wait yields the compute-slot `gate`:
    /// two nodes' one-slot pools each parked here on the other's consumer
    /// would otherwise never run either consumer.
    pub fn finish(&mut self, reason: EndReason, gate: Option<&Semaphore>) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        write_frame(&mut self.stream, KIND_FINISH, &Page::end(reason).encode())?;
        self.stream.flush()?;
        if let Some(g) = gate {
            g.release();
        }
        let outcome = loop {
            match read_frame(&mut self.stream) {
                Ok(Some((KIND_ACK, _))) => break Ok(()),
                // Stale grants from pages the server pushed after our last
                // credit wait: consume and discard.
                Ok(Some((KIND_CREDIT, _))) => {}
                Ok(Some((KIND_ERR, p))) => {
                    break Err(AccordionError::Execution(
                        String::from_utf8_lossy(&p).into_owned(),
                    ))
                }
                Ok(Some((kind, _))) => {
                    break Err(net_err(format!("unexpected frame kind {kind} in finish")))
                }
                Ok(None) => break Err(net_err("exchange peer closed before acknowledging finish")),
                Err(e) => break Err(e),
            }
        };
        if let Some(g) = gate {
            g.acquire();
        }
        outcome
    }

    /// Blocks until the server grants credit, failing on an ERR frame. The
    /// compute-slot `gate` is yielded for the duration of the wait so a
    /// stalled remote consumer cannot wedge a one-slot pool.
    fn wait_credit(&mut self, gate: Option<&Semaphore>) -> Result<()> {
        if let Some(g) = gate {
            g.release();
        }
        let outcome = loop {
            match read_frame(&mut self.stream) {
                Ok(Some((KIND_CREDIT, p))) if p.len() == 4 => {
                    self.credit += u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
                    if self.credit > 0 {
                        break Ok(());
                    }
                }
                Ok(Some((KIND_ERR, p))) => {
                    break Err(AccordionError::Execution(
                        String::from_utf8_lossy(&p).into_owned(),
                    ))
                }
                Ok(Some((kind, _))) => {
                    break Err(net_err(format!("unexpected frame kind {kind} on sink")))
                }
                Ok(None) => break Err(net_err("exchange peer closed while awaiting credit")),
                Err(e) => break Err(e),
            }
        };
        if let Some(g) = gate {
            g.acquire();
        }
        outcome
    }
}

/// Control connection between two registries of one query: carries the
/// producer-set growth and poison broadcasts of the elasticity protocol.
pub(crate) struct ControlLink {
    stream: TcpStream,
}

impl ControlLink {
    pub(crate) fn connect(addr: &str, query: u64, network: &NetworkConfig) -> Result<ControlLink> {
        let mut stream = connect(addr, network)?;
        // Control round-trips are tiny; a dead peer should fail the query,
        // not hang the controller.
        stream.set_read_timeout(Some(Duration::from_millis(
            network.connect_timeout_ms.max(1),
        )))?;
        write_frame(
            &mut stream,
            KIND_HELLO,
            &hello_payload(query, CONTROL_STAGE),
        )?;
        Ok(ControlLink { stream })
    }

    /// Synchronously extends `stage`'s producer count by `n` on the peer:
    /// returns only after the peer acknowledged, so a grown task's pages
    /// can never reach a node that does not yet account for its writer.
    pub(crate) fn add_producers(&mut self, stage: u32, n: u32) -> Result<()> {
        let mut p = stage.to_le_bytes().to_vec();
        p.extend_from_slice(&n.to_le_bytes());
        write_frame(&mut self.stream, KIND_ADDPROD, &p)?;
        match read_frame(&mut self.stream)? {
            Some((KIND_ACK, _)) => Ok(()),
            Some((KIND_ERR, p)) => Err(AccordionError::Execution(
                String::from_utf8_lossy(&p).into_owned(),
            )),
            Some((kind, _)) => Err(net_err(format!("unexpected control reply kind {kind}"))),
            None => Err(net_err("control peer closed before acknowledging")),
        }
    }

    /// Fire-and-forget poison broadcast (the peer has no useful reply: it
    /// is failing the query either way).
    pub(crate) fn poison(&mut self, message: &str) -> Result<()> {
        write_frame(&mut self.stream, KIND_POISON, message.as_bytes())?;
        self.stream.flush()?;
        Ok(())
    }
}

/// Per-node exchange ingress: accepts [`PageSink`] and control
/// connections and feeds their frames into the registries of the queries
/// registered on this node.
pub struct PageServer {
    addr: SocketAddr,
    registries: Mutex<HashMap<u64, Arc<ExchangeRegistry>>>,
    shutdown: AtomicBool,
}

impl PageServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept loop on a background thread.
    pub fn bind(addr: &str) -> Result<Arc<PageServer>> {
        let listener = TcpListener::bind(addr)?;
        let server = Arc::new(PageServer {
            addr: listener.local_addr()?,
            registries: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept = server.clone();
        std::thread::Builder::new()
            .name("page-server-accept".into())
            .spawn(move || accept.accept_loop(listener))?;
        Ok(server)
    }

    /// The bound address, in `host:port` form — what peers connect to.
    pub fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    /// Makes `query`'s registry reachable for incoming frames. Must happen
    /// on every node **before any node's tasks start** (the two-phase
    /// wire/start handshake of the distributed scheduler guarantees it).
    pub fn register(&self, query: u64, registry: Arc<ExchangeRegistry>) {
        self.registries.lock().insert(query, registry);
    }

    /// Drops `query`'s registry; later frames for it are answered with ERR.
    pub fn unregister(&self, query: u64) {
        self.registries.lock().remove(&query);
    }

    /// Stops accepting new connections (existing ones run out on EOF).
    pub fn shutdown(self: &Arc<Self>) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let server = self.clone();
            let _ = std::thread::Builder::new()
                .name("page-server-conn".into())
                .spawn(move || {
                    let _ = server.serve_conn(stream);
                });
        }
    }

    fn serve_conn(&self, mut stream: TcpStream) -> Result<()> {
        stream.set_nodelay(true)?;
        let Some((KIND_HELLO, p)) = read_frame(&mut stream)? else {
            return Err(net_err("exchange connection did not greet"));
        };
        if p.len() != 12 {
            return Err(net_err("malformed HELLO"));
        }
        let query = u64::from_le_bytes(p[0..8].try_into().expect("8 bytes"));
        let stage = u32::from_le_bytes(p[8..12].try_into().expect("4 bytes"));
        let Some(registry) = self.registries.lock().get(&query).cloned() else {
            let msg = format!("query {query} is not registered on this node");
            let _ = write_frame(&mut stream, KIND_ERR, msg.as_bytes());
            return Err(net_err(msg));
        };
        if stage == CONTROL_STAGE {
            self.serve_control(stream, &registry)
        } else {
            self.serve_data(stream, &registry, stage)
        }
    }

    /// Ingress loop of one producer connection bound to `stage`'s edge.
    fn serve_data(
        &self,
        mut stream: TcpStream,
        registry: &Arc<ExchangeRegistry>,
        stage: u32,
    ) -> Result<()> {
        let queues = registry.edge_queues(stage)?;
        // Credit baseline: what the sink assumes its initial window is.
        let mut last_caps: Vec<usize> = queues.iter().map(|q| q.capacity()).collect();
        let mut errored = false;
        while let Some((kind, payload)) = read_frame(&mut stream)? {
            match kind {
                KIND_DATA => {
                    if payload.len() < 4 {
                        return Err(net_err("malformed DATA frame"));
                    }
                    let consumer =
                        u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")) as usize;
                    let page = match Page::decode(&payload[4..]) {
                        Ok(Page::Data(p)) => p,
                        Ok(Page::End(_)) => {
                            return Err(net_err("end page in DATA frame (FINISH expected)"))
                        }
                        Err(e) => {
                            // A corrupt page is unrecoverable for the query:
                            // fail it everywhere, not just on this stream.
                            registry.poison(e.clone());
                            let _ = write_frame(&mut stream, KIND_ERR, e.to_string().as_bytes());
                            return Err(e);
                        }
                    };
                    let Some(q) = queues.get(consumer) else {
                        return Err(net_err(format!(
                            "stage {stage} has {} queues, consumer {consumer} addressed",
                            queues.len()
                        )));
                    };
                    // The push provides the backpressure: no credit is
                    // granted until the page is accepted. A closed queue
                    // (consumer satisfied a LIMIT) accepts-and-drops; a
                    // poisoned one reports the failure once.
                    if let Err(e) = q.push(page, None) {
                        if !errored {
                            errored = true;
                            write_frame(&mut stream, KIND_ERR, e.to_string().as_bytes())?;
                        }
                    }
                    // Grant the spent credit back, plus any capacity the
                    // consumer's pulls grew meanwhile (§4.2.2 doubling).
                    let cap = q.capacity();
                    let extra = if cap == usize::MAX {
                        0
                    } else {
                        cap.saturating_sub(last_caps[consumer])
                    };
                    last_caps[consumer] = last_caps[consumer].max(cap);
                    let grant = 1u32.saturating_add(extra as u32);
                    write_frame(&mut stream, KIND_CREDIT, &grant.to_le_bytes())?;
                }
                KIND_FINISH => {
                    let reason = match Page::decode(&payload) {
                        Ok(Page::End(e)) => e.reason,
                        Ok(Page::Data(_)) => {
                            return Err(net_err("data page in FINISH frame"));
                        }
                        Err(e) => {
                            registry.poison(e.clone());
                            return Err(e);
                        }
                    };
                    for q in queues.iter() {
                        q.writer_finished(reason);
                    }
                    write_frame(&mut stream, KIND_ACK, &[])?;
                }
                other => return Err(net_err(format!("unexpected frame kind {other} on edge"))),
            }
        }
        Ok(())
    }

    /// Ingress loop of one control connection.
    fn serve_control(&self, mut stream: TcpStream, registry: &Arc<ExchangeRegistry>) -> Result<()> {
        while let Some((kind, payload)) = read_frame(&mut stream)? {
            match kind {
                KIND_ADDPROD => {
                    if payload.len() != 8 {
                        return Err(net_err("malformed ADDPROD frame"));
                    }
                    let stage = u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
                    let n = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
                    match registry.add_producers_local(stage, n) {
                        Ok(()) => write_frame(&mut stream, KIND_ACK, &[])?,
                        Err(e) => write_frame(&mut stream, KIND_ERR, e.to_string().as_bytes())?,
                    }
                }
                KIND_POISON => {
                    registry.poison_local(AccordionError::Execution(
                        String::from_utf8_lossy(&payload).into_owned(),
                    ));
                }
                other => {
                    return Err(net_err(format!(
                        "unexpected frame kind {other} on control channel"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// [`ExchangeWriter`] over TCP: routes every page by `policy` across the
/// consumer slots of one edge **on one remote node**. This is the
/// standalone transport endpoint; the registry's own writers use the same
/// [`PageSink`] machinery per remote slot while keeping node-local slots on
/// the shared-memory fast path.
pub struct TcpExchangeWriter {
    sink: PageSink,
    policy: RoutePolicy,
    consumers: usize,
    rr_next: usize,
    gate: Option<Arc<Semaphore>>,
}

impl TcpExchangeWriter {
    /// Connects to the remote [`PageServer`] and binds `(query, stage)`.
    pub fn connect(
        addr: &str,
        query: u64,
        stage: u32,
        policy: RoutePolicy,
        consumers: u32,
        network: &NetworkConfig,
        gate: Option<Arc<Semaphore>>,
    ) -> Result<TcpExchangeWriter> {
        Ok(TcpExchangeWriter {
            sink: PageSink::connect(addr, query, stage, network)?,
            policy,
            consumers: consumers.max(1) as usize,
            rr_next: 0,
            gate,
        })
    }
}

impl ExchangeWriter for TcpExchangeWriter {
    fn push(&mut self, page: Page) -> Result<()> {
        let page = match page {
            Page::End(e) => return self.sink.finish(e.reason, self.gate.as_deref()),
            Page::Data(p) => p,
        };
        let TcpExchangeWriter {
            sink,
            policy,
            consumers,
            rr_next,
            gate,
        } = self;
        let gate = gate.as_deref();
        crate::exchange::route_page(&page, policy, rr_next, *consumers, &mut |slot, piece| {
            sink.send_data(slot as u32, &piece, gate)
        })
    }
}

/// [`ExchangeReader`] over TCP: pulls from the local queue that the node's
/// [`PageServer`] ingress feeds. Remote delivery always lands in local
/// elastic buffers first — the reader side of the transport is exactly the
/// local reader of a TCP-fed edge, so consumers cannot tell (and need not
/// care) which transport produced their pages.
pub struct TcpExchangeReader {
    inner: Box<dyn ExchangeReader>,
}

impl TcpExchangeReader {
    pub fn new(
        registry: &Arc<ExchangeRegistry>,
        stage: u32,
        consumer: u32,
        gate: Option<Arc<Semaphore>>,
    ) -> Result<TcpExchangeReader> {
        Ok(TcpExchangeReader {
            inner: registry.reader(stage, consumer, gate)?,
        })
    }
}

impl ExchangeReader for TcpExchangeReader {
    fn pull(&mut self) -> Result<Page> {
        self.inner.pull()
    }
}
