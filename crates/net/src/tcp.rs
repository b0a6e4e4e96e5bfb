//! Sessions: everything one node sends another for one query, on one
//! connection.
//!
//! This module moves pages between **processes** ([`Page::encode`] /
//! [`Page::decode`]) with the rest of a query's node-to-node traffic. A
//! node's [`ExchangeRegistry`] opens at most one [`Session`] per peer it
//! sends to, on first use, with HELLO(query); DATA and FINISH of every edge,
//! POISON, CLAIM and the coordinator's WIRE, GO and JOIN all travel on it.
//! The peer's [`PageRegistries`] take the pages, its [`Claims`] service
//! the claims and its [`Control`] service the WIRE — on the node's one
//! listener, or behind a [`PageServer`] (pages only) or a `SplitServer`
//! (claims only).
//!
//! ## Framing
//!
//! After HELLO every frame names its stream (layouts: [`crate::frame`]).
//! Frames of one sender arrive in order, so the one FINISH a node sends for
//! its share of an edge follows the DATA of every task that wrote there, a
//! grown task's included, with no acknowledgement: a change of DOP inside a
//! node sends nothing. The dialer's reader thread routes CREDIT to its
//! window, SPLIT, NONE or RETIRED to the waiting claim, and ACK or DONE to
//! the waiting [`Session::call`].
//!
//! The coordinator's session to a worker carries HELLO, WIRE, GO,
//! DATA/FINISH/POISON, JOIN, in that order. WIRE registers the query, so a
//! page-side frame is refused only if none has by then. A session wires
//! one query at most, and a session that ends before JOIN poisons, joins
//! and unregisters it.
//!
//! The accepting thread never waits for room in a queue (a join drains its
//! build edge before it pulls its probe edge, and both may share a
//! session), and a claim that must park at a decision boundary is answered
//! from a short-lived thread. It does wait out JOIN, which holds up
//! nothing: the coordinator sends JOIN once its own share has run, so every
//! frame it sends for the query precedes it.
//!
//! ## Backpressure: credits mirroring the elastic buffers
//!
//! A window per (session, edge, consumer slot) starts at
//! `initial_buffer_pages` credits; a DATA frame spends one. The peer queues
//! the page without waiting for room and returns the credit when the
//! consumer **pulls** it, plus the growth if that pull doubled the queue
//! (§4.2.2), so remote producers feel the local backpressure. A page a
//! closed queue drops is credited at once. A writer waiting for credit
//! yields its compute slot, like every other exchange wait.
//!
//! ## Errors and closing
//!
//! An ERR frame or an unexpected EOF fails every waiter on the session; so
//! does the query's poison, which the registry also sends as POISON on
//! every session and to every peer. Malformed frames are answered ERR. A
//! dropped registry ends its sessions: the dialer shuts down its write
//! half, the acceptor reads to that EOF and shuts down its own, and the
//! dialer's reader drains to EOF, so no side closes with unread bytes (a
//! reset could discard frames not yet read).

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{condvar_wait, yield_slot, Condvar, Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::page::{DataPage, Page};

use crate::buffer::Credit;
use crate::exchange::ExchangeRegistry;
use crate::frame::{kind, net_err, Conversation, Cursor, Frame, FrameConn, Payload, Serve, Served};

/// The dialing side of one query's connection to one peer, shared by every
/// writer, claimant and broadcast of the query on the node, and by the
/// reader thread that routes what comes back.
pub struct Session {
    conn: Mutex<FrameConn>,
    state: Mutex<SessionState>,
    cv: Condvar,
    initial_credit: usize,
}

#[derive(Default)]
struct SessionState {
    failed: Option<AccordionError>,
    /// Credits left per (stage, consumer slot).
    credit: HashMap<(u32, u32), usize>,
    /// Replies not yet taken: a claim's per (stage, slot), a control
    /// call's under `None`.
    replies: HashMap<Option<(u32, u32)>, Frame>,
}

impl Session {
    pub(crate) fn open(addr: &str, query: u64, network: &NetworkConfig) -> Result<Arc<Session>> {
        let timeout = Duration::from_millis(network.connect_timeout_ms);
        let mut conn = FrameConn::connect(addr, timeout)?;
        conn.send((kind::HELLO, Payload::default().u64(query).0))?;
        let incoming = conn.clone();
        let session = Arc::new(Session {
            conn: Mutex::new(conn),
            state: Mutex::new(SessionState::default()),
            cv: Condvar::new(),
            initial_credit: network.initial_buffer_pages.max(1),
        });
        let reader = session.clone();
        // Detached, like the listener's connection threads: it ends at the
        // EOF the peer sends once this side has closed.
        std::thread::Builder::new()
            .name("session-reader".into())
            .spawn(move || reader.read(incoming))?;
        Ok(session)
    }

    /// Sends one frame that expects no reply (FINISH, POISON).
    pub fn send(&self, frame: Frame) -> Result<()> {
        self.conn.lock().send(frame)
    }

    /// Sends a page to consumer slot `consumer` of `stage`'s edge, waiting
    /// (and yielding `gate`) while the window is empty.
    pub(crate) fn send_data(
        &self,
        stage: u32,
        consumer: u32,
        page: &Arc<DataPage>,
        gate: Option<&Semaphore>,
    ) -> Result<()> {
        let key = (stage, consumer);
        loop {
            let mut st = self.state.lock();
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            let credit = st.credit.entry(key).or_insert(self.initial_credit);
            if *credit > 0 {
                *credit -= 1;
                break;
            }
            yield_slot(gate, || {
                while st.failed.is_none() && st.credit[&key] == 0 {
                    st = condvar_wait(&self.cv, st);
                }
                drop(st);
            });
        }
        let mut payload = Payload::default().u32(stage).u32(consumer).0;
        payload.extend_from_slice(&Page::Data(page.clone()).encode());
        self.send((kind::DATA, payload))
    }

    /// Claims a split for `slot` of `stage` and returns the reply, without
    /// its (stage, slot). A claim parked at a decision boundary is supposed
    /// to wait, so there is no timeout; a failed session, or the query's
    /// poison, ends the wait.
    pub fn claim(&self, stage: u32, slot: u32) -> Result<Frame> {
        self.send((kind::CLAIM, Payload::default().u32(stage).u32(slot).0))?;
        self.reply(Some((stage, slot)))
    }

    /// Sends a control request — WIRE, GO or JOIN — and waits for its
    /// reply, ACK or DONE; the peer's ERR, or the query's poison, is the
    /// returned error. A coordinator makes one call at a time.
    pub fn call(&self, request: Frame) -> Result<Frame> {
        self.send(request)?;
        self.reply(None)
    }

    fn reply(&self, key: Option<(u32, u32)>) -> Result<Frame> {
        let mut st = self.state.lock();
        loop {
            if let Some(reply) = st.replies.remove(&key) {
                return Ok(reply);
            }
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            st = condvar_wait(&self.cv, st);
        }
    }

    /// Fails every current and future wait on this session with `err`.
    pub(crate) fn fail(&self, err: AccordionError) {
        self.state.lock().failed.get_or_insert(err);
        self.cv.notify_all();
    }

    /// Ends the sending direction; the reader thread drains to EOF.
    pub(crate) fn close(&self) {
        self.conn.lock().close();
    }

    /// Routes every reply until EOF, reading on after a failure so the
    /// connection still closes drained.
    fn read(&self, mut conn: FrameConn) {
        loop {
            let routed = match conn.recv() {
                Ok(Some(frame)) => self.route(frame),
                Ok(None) => return self.fail(net_err("peer closed the session")),
                Err(e) => return self.fail(e),
            };
            if let Err(e) = routed {
                self.fail(e);
            }
        }
    }

    fn route(&self, (kind, payload): Frame) -> Result<()> {
        match kind {
            kind::CREDIT => {
                let mut fields = Cursor::new(&payload);
                let (key, grant) = ((fields.u32()?, fields.u32()?), fields.u32()?);
                fields.finish()?;
                let mut st = self.state.lock();
                *st.credit.entry(key).or_insert(self.initial_credit) += grant as usize;
            }
            kind::SPLIT | kind::NONE | kind::RETIRED => {
                let mut fields = Cursor::new(&payload);
                let key = (fields.u32()?, fields.u32()?);
                let body = fields.rest().to_vec();
                self.state.lock().replies.insert(Some(key), (kind, body));
            }
            kind::ACK | kind::DONE => _ = self.state.lock().replies.insert(None, (kind, payload)),
            kind::ERR => {
                let text = String::from_utf8_lossy(&payload);
                return Err(AccordionError::Execution(text.into_owned()));
            }
            other => return Err(net_err(format!("frame kind {other} on a session reply"))),
        }
        self.cv.notify_all();
        Ok(())
    }
}

/// How the accepting side returns credit to the (session, stage, consumer
/// slot) window a page came from. A closed session has nobody to credit.
fn credit_back(replies: &Arc<Mutex<FrameConn>>, stage: u32, consumer: u32) -> Credit {
    let replies = replies.clone();
    Arc::new(move |grant| {
        let credit = Payload::default().u32(stage).u32(consumer).u32(grant);
        let _ = replies.lock().send((kind::CREDIT, credit.0));
    })
}

/// The split-claim service a session's accepting side hands CLAIM frames
/// to: `accordion_cluster::SplitQueues`, a crate up.
pub trait Claims: Send + Sync {
    /// The reply to `slot`'s claim on `stage` of `query`, which the session
    /// sends behind their (stage, slot); without `wait`, `Ok(None)` for a
    /// claim that would park at a decision boundary.
    fn answer(&self, query: u64, stage: u32, slot: u32, wait: bool) -> Result<Option<Frame>>;
}

/// The control service a session's accepting side hands WIRE to: the node
/// of `accordion_core::dist`, two crates up.
pub trait Control: Send + Sync {
    /// Plans and wires this node's share of `query` as WIRE's payload says.
    fn wire(&self, query: u64, wire: &[u8]) -> Result<Wired>;
}

/// A share of a query as WIRE leaves it: the node's registry for it and
/// the run GO starts, whose value is JOIN's reply. Dropped unrun, it
/// releases its wiring.
pub type Wired = (
    Arc<ExchangeRegistry>,
    Box<dyn FnOnce() -> Result<Frame> + Send>,
);

/// A node's exchange ingress: the registries of the queries wired on it,
/// which incoming sessions feed their pages into.
#[derive(Default)]
pub struct PageRegistries(Mutex<HashMap<u64, Arc<ExchangeRegistry>>>);

impl PageRegistries {
    /// Makes `query`'s registry reachable for incoming frames. Must happen
    /// on every node **before any node's tasks start** (the two-phase
    /// WIRE/GO handshake of the distributed scheduler guarantees it).
    pub fn register(&self, query: u64, registry: Arc<ExchangeRegistry>) {
        self.0.lock().insert(query, registry);
    }

    /// Drops `query`'s registry; a page that arrives for it later on a
    /// session that has not seen one yet is answered with ERR.
    pub fn unregister(&self, query: u64) {
        self.0.lock().remove(&query);
    }
}

/// The page side of a session: pages only.
impl Conversation for PageRegistries {
    fn serve(self: &Arc<Self>) -> Box<Serve> {
        serve_sessions(Some(self.clone()), None, None)
    }
}

/// [`PageRegistries`] behind a listener of their own, for an exchange that
/// has no node around it.
pub type PageServer = Served<PageRegistries>;

/// The handler of a node's sessions: pages go into `pages`' registries,
/// claims to `claims` and WIRE, GO and JOIN to `control`, which wires into
/// `pages`. A frame whose side is absent is refused.
pub fn serve_sessions(
    pages: Option<Arc<PageRegistries>>,
    claims: Option<Arc<dyn Claims>>,
    control: Option<Arc<dyn Control>>,
) -> Box<Serve> {
    Box::new(move |conn: &mut FrameConn, query: u64| {
        let replies = Arc::new(Mutex::new(conn.clone()));
        let mut share = Share::Unwired;
        let (pages, claims) = (pages.as_deref(), claims.as_ref());
        let control = control.as_deref().zip(pages);
        if let Err(e) = serve_session(conn, query, &replies, pages, claims, control, &mut share) {
            let _ = replies.lock().respond(Err(e));
        }
        share.unwind(query, pages);
        // Queued pages keep clones of the connection for their credits;
        // the peer's reader must not wait for them.
        replies.lock().close();
        // Read what the peer still has in flight: closing with unread bytes
        // would reset the connection and could discard an ERR with it.
        while let Ok(Some(_)) = conn.recv() {}
        Ok(())
    })
}

/// One accepted session of `query`, from its HELLO to the peer's EOF.
fn serve_session(
    conn: &mut FrameConn,
    query: u64,
    replies: &Arc<Mutex<FrameConn>>,
    pages: Option<&PageRegistries>,
    claims: Option<&Arc<dyn Claims>>,
    control: Option<(&dyn Control, &PageRegistries)>,
    share: &mut Share,
) -> Result<()> {
    // Looked up by the first page-side frame, which a node's WIRE precedes.
    // Weak: a registry holds sessions to its peers, whose acceptors must
    // not keep it alive in turn.
    let mut registry = None;
    while let Some((kind, payload)) = conn.recv()? {
        if let (Some((control, pages)), kind::WIRE | kind::GO | kind::JOIN) = (control, kind) {
            let reply = share.serve(kind, &payload, query, control, pages)?;
            replies.lock().send(reply)?;
            continue;
        }
        if let (Some(pages), None, kind::DATA | kind::FINISH | kind::POISON) =
            (pages, &registry, kind)
        {
            let found = pages.0.lock().get(&query).map(Arc::downgrade);
            let missing = || net_err(format!("query {query} is not registered here"));
            registry = Some(found.ok_or_else(missing)?);
        }
        let mut fields = Cursor::new(&payload);
        match (kind, registry.as_ref().map(Weak::upgrade), claims) {
            (kind::CLAIM, _, Some(claims)) => {
                let (stage, slot) = (fields.u32()?, fields.u32()?);
                fields.finish()?;
                let replies = replies.clone();
                let reply = move |reply: Result<Frame>| {
                    let keyed = reply.map(|(kind, body)| {
                        let mut keyed = Payload::default().u32(stage).u32(slot).0;
                        keyed.extend(body);
                        (kind, keyed)
                    });
                    replies.lock().respond(keyed)
                };
                // A query poisoned here hands out nothing more: the poison
                // answers on the claim's connection, which the claimant may
                // read before the broadcast that travels on another.
                let poison = pages.and_then(|p| p.0.lock().get(&query)?.poison_error());
                if let Some(e) = poison {
                    reply(Err(e))?;
                    continue;
                }
                if let Some(answer) = claims.answer(query, stage, slot, false)? {
                    reply(Ok(answer))?;
                    continue;
                }
                let claims = claims.clone();
                std::thread::Builder::new()
                    .name("claim-park".into())
                    .spawn(move || {
                        let answer = claims.answer(query, stage, slot, true).and_then(|r| {
                            r.ok_or_else(|| AccordionError::Internal("claim unanswered".into()))
                        });
                        let _ = reply(answer);
                    })?;
            }
            // The registry is gone, and every queue with it: DATA is
            // credited at once, and nothing else has anything to change.
            (kind::DATA, Some(None), _) => credit_back(replies, fields.u32()?, fields.u32()?)(1),
            (kind::FINISH | kind::POISON, Some(None), _) => {}
            (kind::DATA, Some(Some(registry)), _) => {
                let (stage, consumer) = (fields.u32()?, fields.u32()?);
                let Page::Data(page) = decode(&registry, fields.rest())? else {
                    return Err(net_err("end page in DATA frame (FINISH expected)"));
                };
                let credit = credit_back(replies, stage, consumer);
                let queue = registry.ingress_queue(stage, consumer)?;
                queue.push_credited(page, Some(credit), None)?;
            }
            (kind::FINISH, Some(Some(registry)), _) => {
                let stage = fields.u32()?;
                let Page::End(end) = decode(&registry, fields.rest())? else {
                    return Err(net_err("data page in FINISH frame"));
                };
                registry.finish_local(stage, end.reason)?;
            }
            (kind::POISON, Some(Some(registry)), _) => {
                let text = String::from_utf8_lossy(&payload).into_owned();
                registry.poison_local(AccordionError::Execution(text));
            }
            _ => return Err(net_err(format!("frame kind {kind} is not served here"))),
        }
    }
    Ok(())
}

/// The query a session wired on this node, which WIRE wires, GO starts and
/// JOIN waits for, each once and in turn. It never outlives the session.
enum Share {
    Unwired,
    Ready(Wired),
    Running(Arc<ExchangeRegistry>, JoinHandle<Result<Frame>>),
    Joined,
}

impl Share {
    /// Serves one control frame; the reply is ACK, or JOIN's DONE.
    fn serve(
        &mut self,
        kind: u8,
        payload: &[u8],
        query: u64,
        control: &dyn Control,
        pages: &PageRegistries,
    ) -> Result<Frame> {
        *self = match (kind, std::mem::replace(self, Share::Joined)) {
            (kind::WIRE, Share::Unwired) => {
                *self = Share::Unwired; // until it registers anything
                let (registry, run) = control.wire(query, payload)?;
                pages.register(query, registry.clone());
                Share::Ready((registry, run))
            }
            (kind::GO, Share::Ready((registry, run))) => {
                let name = format!("worker-query-{query}");
                Share::Running(registry, std::thread::Builder::new().name(name).spawn(run)?)
            }
            (kind::JOIN, Share::Running(_, handle)) => {
                let panicked = || AccordionError::Execution("worker query thread panicked".into());
                return handle.join().unwrap_or_else(|_| Err(panicked()));
            }
            (kind, share) => {
                *self = share;
                let turns = "a session wires, starts and joins one query";
                return Err(net_err(format!("frame kind {kind} out of turn: {turns}")));
            }
        };
        Ok((kind::ACK, Vec::new()))
    }

    /// Takes down what the session left of its query: a running share is
    /// poisoned, so its parked tasks unwind, and joined; a ready one
    /// releases its wiring.
    fn unwind(self, query: u64, pages: Option<&PageRegistries>) {
        let wired = !matches!(self, Share::Unwired);
        if let Share::Running(registry, handle) = self {
            let ended = format!("coordinator session ended before query {query} was joined");
            registry.poison(AccordionError::Execution(ended));
            let _ = handle.join();
        }
        if let (true, Some(pages)) = (wired, pages) {
            pages.unregister(query);
        }
    }
}

/// A page off a session. A corrupt page is unrecoverable for the query:
/// it fails everywhere, not just on this session.
fn decode(registry: &ExchangeRegistry, bytes: &[u8]) -> Result<Page> {
    Page::decode(bytes).inspect_err(|e| registry.poison(e.clone()))
}
