//! The one framing for node-to-node traffic.
//!
//! Every message between two nodes — exchange pages and their credit flow,
//! the coordinator ↔ worker control hand-shake, split claims — is one
//! frame: `[len: u32 LE][kind: u8][payload]`, `len` counting the kind byte
//! plus the payload. This module owns what that looks like and nothing
//! else does: [`write_frame`] / [`read_frame`] are the only functions that
//! put a frame on a socket or take one off, [`FrameConn`] is the only
//! dialer, and [`listen`] the only accept loop. Text stays at the human
//! edge, the query server's client protocol.
//!
//! A node listens on **one** port and serves **one** conversation there:
//! a query's session (`crate::tcp`), opened by HELLO, which carries
//! everything one node sends another for the query — pages, claims and
//! the coordinator's WIRE, GO and JOIN. Any other first frame is answered
//! with one ERR naming the kind, and the connection is closed.
//!
//! ## Kind table
//!
//! Integers are little-endian; `str` is a `u32` byte length followed by
//! UTF-8 ([`Cursor::str`] / [`Payload::str`]); `text` is raw UTF-8 filling the
//! payload. Payload fields are always read through [`Cursor`], so a short
//! or over-long payload is a typed error, never a panic.
//!
//! | kind | name    | payload                                        | direction            |
//! |------|---------|------------------------------------------------|----------------------|
//! | 0    | HELLO   | query `u64`; opens a session                   | dialer → acceptor    |
//! | 1    | DATA    | stage `u32`, consumer `u32`, encoded data page | dialer → acceptor    |
//! | 2    | FINISH  | stage `u32`, encoded end page; one per node    | dialer → acceptor    |
//! | 3    | CREDIT  | stage `u32`, consumer `u32`, grant `u32`       | acceptor → dialer    |
//! | 4    | ERR     | `text`; the reply to any request that failed   | acceptor → dialer    |
//! | 6    | POISON  | `text`                                         | dialer → acceptor    |
//! | 7    | ACK     | (empty)                                        | worker → coordinator |
//! | 8    | WIRE    | node `u32`, peer count `u32` × `str` (the fleet, by node), fingerprint `u64`, dop `u32`, elasticity `str`, sql `str` (ACK) | coordinator → worker |
//! | 10   | GO      | (empty) (ACK)                                  | coordinator → worker |
//! | 11   | JOIN    | (empty) (DONE)                                 | coordinator → worker |
//! | 12   | DONE    | elapsed ms `u64`                               | worker → coordinator |
//! | 13   | CLAIM   | stage `u32`, slot `u32` (SPLIT, NONE or RETIRED) | dialer → acceptor  |
//! | 14   | SPLIT   | stage `u32`, slot `u32`, split id `u64` (its position in its table) | acceptor → dialer |
//! | 15   | NONE    | stage `u32`, slot `u32`                        | acceptor → dialer    |
//! | 16   | RETIRED | stage `u32`, slot `u32`                        | acceptor → dialer    |
//!
//! Kinds 5 and 9 are unassigned, so the others keep their numbers; they are
//! read as unknown kinds, which leaves 15. Every kind travels on a session,
//! whose HELLO names the query for all that follow. Frames of one sender
//! arrive in order; a node's tasks of a stage are one producer of its
//! edge, so one FINISH ends the node's share of it. Pages, FINISH and
//! POISON are unacknowledged; WIRE, GO and JOIN are answered in turn, and
//! a CLAIM by its (stage, slot). WIRE's payload is encoded and decoded by
//! `accordion_core::dist::WireMsg`; the bodies behind the (stage, slot) of
//! 14–16 by `accordion_cluster::dist::ClaimMsg`. A peer address — in WIRE,
//! in a consumer slot, in a claim — is always the node's one address.
//!
//! ## A length is not an allocation size
//!
//! A DATA payload may be as large as a page gets ([`MAX_DATA`]); every
//! other kind is capped at [`MAX_CONTROL`]. Within the cap the reader still
//! reserves at most [`PREALLOC`] bytes before any payload byte has
//! arrived and grows with what the peer actually sends, so four bytes from
//! anything that can reach a port cost a connection thread and a small
//! buffer, not a gigabyte.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use accordion_common::sync::Mutex;
use accordion_common::{AccordionError, Result};

pub use accordion_data::wire::{Cursor, Payload};

/// The kind byte of every frame; see the module's kind table.
pub mod kind {
    pub const HELLO: u8 = 0;
    pub const DATA: u8 = 1;
    pub const FINISH: u8 = 2;
    pub const CREDIT: u8 = 3;
    pub const ERR: u8 = 4;
    pub const POISON: u8 = 6;
    pub const ACK: u8 = 7;
    pub const WIRE: u8 = 8;
    pub const GO: u8 = 10;
    pub const JOIN: u8 = 11;
    pub const DONE: u8 = 12;
    pub const CLAIM: u8 = 13;
    pub const SPLIT: u8 = 14;
    pub const NONE: u8 = 15;
    pub const RETIRED: u8 = 16;
}

/// Payload guard of DATA frames: pages are bounded by `page_rows`, so this
/// only rejects garbage prefixes.
pub const MAX_DATA: usize = 1 << 30;

/// Payload cap of every other kind: SQL text, addresses and error messages.
pub const MAX_CONTROL: usize = 1 << 20;

/// The most [`read_frame`] reserves ahead of the bytes that arrived. Larger
/// than a default-sized page, so the page path allocates once per frame.
pub const PREALLOC: usize = 256 << 10;

pub(crate) fn net_err(msg: impl Into<String>) -> AccordionError {
    AccordionError::Io(msg.into())
}

/// Writes one frame with a single `write_all`, so a frame is never split
/// across two small TCP segments.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<()> {
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32 + 1).to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one frame's payload into `payload` (cleared first) and returns its
/// kind; `Ok(None)` on a clean EOF at a frame boundary. An unknown kind, a
/// length of zero or beyond the kind's cap, and a stream that ends
/// mid-frame are typed errors.
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<Option<u8>> {
    payload.clear();
    let mut header = [0u8; 5];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(net_err("connection closed inside a frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let [l0, l1, l2, l3, kind] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let cap = match kind {
        kind::DATA => MAX_DATA,
        kind::HELLO..=kind::ERR | kind::POISON..=kind::WIRE | kind::GO..=kind::RETIRED => {
            MAX_CONTROL
        }
        _ => return Err(net_err(format!("unknown frame kind {kind}"))),
    };
    if len == 0 || len - 1 > cap {
        return Err(net_err(format!(
            "invalid frame length {len} for kind {kind}"
        )));
    }
    let want = len - 1;
    payload.reserve(want.min(PREALLOC));
    let got = r.take(want as u64).read_to_end(payload)?;
    if got < want {
        return Err(net_err(format!(
            "connection closed {got} bytes into a {want}-byte frame"
        )));
    }
    Ok(Some(kind))
}

fn dial(sock: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&sock, timeout.max(Duration::from_millis(1)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A frame off the wire or bound for it: its kind and its payload.
pub type Frame = (u8, Vec<u8>);

/// One framed connection between two nodes, on either side of it. Clones
/// share it: one thread can send while another receives.
#[derive(Clone)]
pub struct FrameConn {
    stream: Arc<TcpStream>,
}

impl FrameConn {
    /// Dials `addr` (`host:port`), giving up after `timeout`.
    pub fn connect(addr: &str, timeout: Duration) -> Result<FrameConn> {
        let sock: SocketAddr = addr
            .parse()
            .map_err(|e| net_err(format!("bad node address {addr:?}: {e}")))?;
        let s =
            dial(sock, timeout).map_err(|e| net_err(format!("connect to {addr} failed: {e}")))?;
        Ok(FrameConn { stream: s.into() })
    }

    pub fn send(&mut self, (kind, payload): Frame) -> Result<()> {
        write_frame(&mut &*self.stream, kind, &payload)
    }

    /// The next frame, or `None` once the peer closed at a frame boundary.
    pub fn recv(&mut self) -> Result<Option<Frame>> {
        let mut payload = Vec::new();
        Ok(read_frame(&mut &*self.stream, &mut payload)?.map(|kind| (kind, payload)))
    }

    /// Answers a request: the reply frame, or the error as an ERR frame.
    pub fn respond(&mut self, reply: Result<Frame>) -> Result<()> {
        self.send(reply.unwrap_or_else(|e| (kind::ERR, e.to_string().into_bytes())))
    }

    /// One request, one reply: a closed connection is an `Io` error and an
    /// ERR frame is the `Execution` error it carries.
    pub fn call(&mut self, request: Frame) -> Result<Frame> {
        self.send(request)?;
        match self.recv()? {
            Some((kind::ERR, text)) => Err(AccordionError::Execution(
                String::from_utf8_lossy(&text).into_owned(),
            )),
            Some(frame) => Ok(frame),
            None => Err(net_err("peer closed the connection before replying")),
        }
    }

    /// Ends the sending direction: the peer reads every frame sent so far,
    /// then EOF.
    pub fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// A bound node-to-node server: an accept thread handing every connection
/// to its session handler on a thread of its own. Dropping the handle (or
/// [`shutdown`](Listener::shutdown)) stops the accept thread and releases
/// the port, so a listener never outlives its owner; connections already
/// open run out when their peers close them.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

/// What a listener runs on each session: it gets the query the HELLO
/// names and the connection to carry on with.
pub type Serve = dyn Fn(&mut FrameConn, u64) -> Result<()> + Send + Sync;

/// Binds `addr` (port 0 for an ephemeral port) and serves every accepted
/// connection that opens with HELLO through `serve`, on a thread named
/// after `name`. A handler that returns an error ends its connection with
/// that error as an ERR frame, as does any other first frame; the
/// listener keeps serving the others. A handler must not own the returned
/// [`Listener`], or neither is ever dropped: give it the state it serves,
/// not the server.
pub fn listen(addr: &str, name: &str, serve: Box<Serve>) -> Result<Listener> {
    let listener =
        TcpListener::bind(addr).map_err(|e| net_err(format!("{name}: bind {addr}: {e}")))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (stopped, serve, conn_name) = (stop.clone(), Arc::new(serve), format!("{name}-conn"));
    let accept = std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(s) = stream else { continue };
                let _ = s.set_nodelay(true);
                let serve = serve.clone();
                // Detached on purpose: a connection lives as long as its
                // peer keeps it open, which no join here could bound.
                let _ = std::thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || {
                        let mut conn = FrameConn { stream: s.into() };
                        let served = match conn.recv() {
                            Ok(Some((kind::HELLO, hello))) => {
                                let mut fields = Cursor::new(&hello);
                                let query = fields.u64();
                                fields.finish().and(query).and_then(|q| serve(&mut conn, q))
                            }
                            Ok(Some((kind, _))) => Err(net_err(format!(
                                "frame kind {kind} opens no conversation served at this address"
                            ))),
                            Ok(None) => Ok(()),
                            Err(e) => Err(e),
                        };
                        if let Err(e) = served {
                            let _ = conn.respond(Err(e));
                        }
                    });
            }
        })?;
    Ok(Listener {
        addr,
        stop,
        accept: Mutex::new(Some(accept)),
    })
}

impl Listener {
    /// The bound address, in `host:port` form — what peers connect to.
    pub fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    /// Stops accepting and releases the port. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.lock().take() else {
            return;
        };
        // `accept()` only returns for a connection, so make one. If even
        // that fails the thread stays parked until the next dial and exits
        // then; joining it now would hang.
        if dial(self.addr, Duration::from_secs(1)).is_ok() {
            let _ = accept.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// State a node's sessions are served against — its page registries, its
/// split queues.
pub trait Conversation {
    /// The handler that serves sessions against this state.
    fn serve(self: &Arc<Self>) -> Box<Serve>;
}

/// One [`Conversation`] behind a listener of its own, for when there is no
/// node around it; dereferences to the conversation's state. Dropping it
/// releases its port.
pub struct Served<S> {
    listener: Listener,
    state: Arc<S>,
}

impl<S: Conversation + Default> Served<S> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting.
    pub fn bind(addr: &str) -> Result<Arc<Self>> {
        let state = Arc::<S>::default();
        let listener = listen(addr, "served", state.serve())?;
        Ok(Arc::new(Served { listener, state }))
    }

    /// The bound address, in `host:port` form — what peers connect to.
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Stops accepting new connections (existing ones run out on EOF).
    pub fn shutdown(&self) {
        self.listener.shutdown();
    }
}

impl<S> std::ops::Deref for Served<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.state
    }
}
