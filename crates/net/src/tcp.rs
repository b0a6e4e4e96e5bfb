//! Real TCP transport for the exchange: pages as frames between processes.
//!
//! The in-process exchange moves `Arc<DataPage>`s between threads; this
//! module moves the same pages between **processes**, using the versioned
//! binary codec behind [`Page::encode`] / [`Page::decode`]. A node's
//! [`PageRegistries`] feed incoming pages into its local
//! [`ExchangeRegistry`] queues — served on the node's one listener next to
//! its other conversations, or alone behind a [`PageServer`]; a
//! [`PageSink`] is the producer-side connection a writer opens toward one
//! remote node for one exchange edge.
//!
//! ## Framing
//!
//! The page path speaks kinds 0–7 of the one node-to-node framing — HELLO,
//! DATA, FINISH, CREDIT, ERR, ADDPROD, POISON, ACK; layouts and directions
//! are in the kind table of [`crate::frame`]. A connection opens with
//! HELLO, which is also what routes it here; `stage == u32::MAX` marks it a
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
//! channels, so every node's tasks unwind with the original error. A
//! connection that sends anything malformed is answered ERR and closed;
//! every other connection keeps being served.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::page::{DataPage, EndReason, Page};

use crate::exchange::ExchangeRegistry;
use crate::frame::{kind, net_err, Conversation, Cursor, FrameConn, Payload, Route, Served};

/// HELLO stage id marking a control channel.
pub const CONTROL_STAGE: u32 = u32::MAX;

/// Dials the node at `addr` and greets its page ingress for `(query, stage)`.
fn greet(addr: &str, query: u64, stage: u32, network: &NetworkConfig) -> Result<FrameConn> {
    let timeout = Duration::from_millis(network.connect_timeout_ms);
    let mut conn = FrameConn::connect(addr, timeout)?;
    conn.send((kind::HELLO, Payload::default().u64(query).u32(stage).0))?;
    Ok(conn)
}

/// Producer-side connection toward one remote node for one exchange edge.
///
/// Not `Sync`: each writer owns its sinks. Dropping the sink without
/// [`PageSink::finish`] closes the stream; the remote side treats a missing
/// FINISH as the connection's contribution simply never having existed
/// (writer accounting travels via FINISH frames only).
pub struct PageSink {
    conn: FrameConn,
    credit: usize,
    finished: bool,
}

impl PageSink {
    /// Connects to the node at `addr` and binds the connection to
    /// `(query, stage)`.
    pub fn connect(
        addr: &str,
        query: u64,
        stage: u32,
        network: &NetworkConfig,
    ) -> Result<PageSink> {
        Ok(PageSink {
            conn: greet(addr, query, stage, network)?,
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
            self.await_reply(kind::CREDIT, gate)?;
        }
        self.credit -= 1;
        let mut payload = consumer.to_le_bytes().to_vec();
        payload.extend_from_slice(&Page::Data(page.clone()).encode());
        self.conn.send((kind::DATA, payload))
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
        self.conn.send((kind::FINISH, Page::end(reason).encode()))?;
        self.await_reply(kind::ACK, gate)
    }

    /// Blocks until the server sends `awaited` — a CREDIT that leaves the
    /// window open, or the ACK of a FINISH — failing on an ERR frame. Grants
    /// met on the way to an ACK are stale (pages the server pushed after our
    /// last credit wait) and harmless to add. The compute-slot `gate` is
    /// yielded for the duration of the wait so a stalled remote consumer
    /// cannot wedge a one-slot pool.
    fn await_reply(&mut self, awaited: u8, gate: Option<&Semaphore>) -> Result<()> {
        if let Some(g) = gate {
            g.release();
        }
        let outcome = (|| loop {
            match self.conn.reply()? {
                (kind::CREDIT, p) => {
                    self.credit += Cursor::new(&p).u32()? as usize;
                    if awaited == kind::CREDIT && self.credit > 0 {
                        return Ok(());
                    }
                }
                (kind::ACK, _) if awaited == kind::ACK => return Ok(()),
                (kind, _) => return Err(net_err(format!("unexpected frame kind {kind} on sink"))),
            }
        })();
        if let Some(g) = gate {
            g.acquire();
        }
        outcome
    }
}

/// Control connection between two registries of one query: carries the
/// producer-set growth and poison broadcasts of the elasticity protocol.
pub(crate) struct ControlLink {
    conn: FrameConn,
}

impl ControlLink {
    pub(crate) fn connect(addr: &str, query: u64, network: &NetworkConfig) -> Result<ControlLink> {
        let conn = greet(addr, query, CONTROL_STAGE, network)?;
        // Control round-trips are tiny; a dead peer should fail the query,
        // not hang the controller.
        conn.set_read_timeout(Some(Duration::from_millis(network.connect_timeout_ms)))?;
        Ok(ControlLink { conn })
    }

    /// Synchronously extends `stage`'s producer count by `n` on the peer:
    /// returns only after the peer acknowledged, so a grown task's pages
    /// can never reach a node that does not yet account for its writer.
    pub(crate) fn add_producers(&mut self, stage: u32, n: u32) -> Result<()> {
        let request = Payload::default().u32(stage).u32(n);
        match self.conn.call((kind::ADDPROD, request.0))? {
            (kind::ACK, _) => Ok(()),
            (kind, _) => Err(net_err(format!("unexpected control reply kind {kind}"))),
        }
    }

    /// Fire-and-forget poison broadcast (the peer has no useful reply: it
    /// is failing the query either way).
    pub(crate) fn poison(&mut self, message: &str) -> Result<()> {
        self.conn.send((kind::POISON, message.into()))
    }
}

/// A node's exchange ingress: the registries of the queries wired on it,
/// which the frames of incoming [`PageSink`] and control connections are fed
/// into. It serves whatever listener its [`route`](Self::route) is given to
/// — the node's one listener, or a [`PageServer`]'s own.
#[derive(Default)]
pub struct PageRegistries(Mutex<HashMap<u64, Arc<ExchangeRegistry>>>);

impl PageRegistries {
    /// Makes `query`'s registry reachable for incoming frames. Must happen
    /// on every node **before any node's tasks start** (the two-phase
    /// wire/start handshake of the distributed scheduler guarantees it).
    pub fn register(&self, query: u64, registry: Arc<ExchangeRegistry>) {
        self.0.lock().insert(query, registry);
    }

    /// Drops `query`'s registry; later frames for it are answered with ERR.
    pub fn unregister(&self, query: u64) {
        self.0.lock().remove(&query);
    }

    /// One greeted connection, from its HELLO to its close. An error ends
    /// the connection and reaches the peer as an ERR frame.
    fn serve(&self, conn: &mut FrameConn, hello: Vec<u8>) -> Result<()> {
        let mut hello = Cursor::new(&hello);
        let (query, stage) = (hello.u64()?, hello.u32()?);
        hello.finish()?;
        let registry = self
            .0
            .lock()
            .get(&query)
            .cloned()
            .ok_or_else(|| net_err(format!("query {query} is not registered on this node")))?;
        if stage == CONTROL_STAGE {
            serve_control(conn, &registry)
        } else {
            serve_data(conn, &registry, stage)
        }
    }
}

/// The page conversation: connections that open with HELLO.
impl Conversation for PageRegistries {
    fn route(self: &Arc<Self>) -> Route {
        let pages = self.clone();
        (
            kind::HELLO,
            Box::new(move |conn, hello| pages.serve(conn, hello)),
        )
    }
}

/// [`PageRegistries`] behind a listener of their own, for an exchange that
/// has no node around it.
pub type PageServer = Served<PageRegistries>;

/// Ingress loop of one producer connection bound to `stage`'s edge.
fn serve_data(conn: &mut FrameConn, registry: &Arc<ExchangeRegistry>, stage: u32) -> Result<()> {
    // Each ingress queue with its credit baseline: what the sink assumes
    // its initial window is.
    let mut queues: Vec<_> = registry
        .edge_queues(stage)?
        .into_iter()
        .map(|q| (q.capacity(), q))
        .collect();
    let mut errored = false;
    // A corrupt page is unrecoverable for the query: fail it everywhere,
    // not just on this stream.
    let decode = |bytes: &[u8]| Page::decode(bytes).inspect_err(|e| registry.poison(e.clone()));
    while let Some((kind, payload)) = conn.recv()? {
        match kind {
            kind::DATA => {
                let mut fields = Cursor::new(&payload);
                let consumer = fields.u32()? as usize;
                let Page::Data(page) = decode(fields.rest())? else {
                    return Err(net_err("end page in DATA frame (FINISH expected)"));
                };
                let slots = queues.len();
                let Some((last_cap, q)) = queues.get_mut(consumer) else {
                    return Err(net_err(format!(
                        "stage {stage} has {slots} queues, consumer {consumer} addressed"
                    )));
                };
                // The push provides the backpressure: no credit is
                // granted until the page is accepted. A closed queue
                // (consumer satisfied a LIMIT) accepts-and-drops; a
                // poisoned one reports the failure once.
                if let Err(e) = q.push(page, None) {
                    if !errored {
                        errored = true;
                        conn.respond(Err(e))?;
                    }
                }
                // Grant the spent credit back, plus any capacity the
                // consumer's pulls grew meanwhile (§4.2.2 doubling).
                let cap = q.capacity();
                let extra = if cap == usize::MAX {
                    0
                } else {
                    cap.saturating_sub(*last_cap)
                };
                *last_cap = (*last_cap).max(cap);
                let grant = 1u32.saturating_add(extra as u32);
                conn.send((kind::CREDIT, grant.to_le_bytes().into()))?;
            }
            kind::FINISH => {
                let Page::End(end) = decode(&payload)? else {
                    return Err(net_err("data page in FINISH frame"));
                };
                for (_, q) in &queues {
                    q.writer_finished(end.reason);
                }
                conn.send((kind::ACK, Vec::new()))?;
            }
            other => return Err(net_err(format!("unexpected frame kind {other} on edge"))),
        }
    }
    Ok(())
}

/// Ingress loop of one control connection.
fn serve_control(conn: &mut FrameConn, registry: &Arc<ExchangeRegistry>) -> Result<()> {
    while let Some((kind, payload)) = conn.recv()? {
        match kind {
            kind::ADDPROD => {
                let mut fields = Cursor::new(&payload);
                let (stage, n) = (fields.u32()?, fields.u32()?);
                fields.finish()?;
                let added = registry.add_producers_local(stage, n);
                conn.respond(added.map(|()| (kind::ACK, Vec::new())))?;
            }
            kind::POISON => {
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
