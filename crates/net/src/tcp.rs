//! Sessions: everything one node sends another for one query, on one
//! connection.
//!
//! This module moves pages between **processes** ([`Page::encode`] /
//! [`Page::decode`]) with the rest of a query's node-to-node traffic. A
//! node's [`ExchangeRegistry`] opens at most one [`Session`] per peer it
//! sends to, on first use, with HELLO(query); DATA and FINISH of every edge
//! and writer, ADDPROD, POISON and CLAIM all travel on it. The peer's
//! [`PageRegistries`] take the pages and its [`Claims`] service the claims
//! — on the node's one listener, or behind a [`PageServer`] (pages only) or
//! a `SplitServer` (claims only).
//!
//! ## Framing
//!
//! After HELLO every frame names its stream (layouts: [`crate::frame`]).
//! Frames of one sender arrive in order, so a writer's FINISH follows its
//! DATA and a grown task's frames follow the ADDPROD that counted it, with
//! no acknowledgement. The dialer's reader thread routes CREDIT to its
//! window and SPLIT, NONE or RETIRED to the waiting claim. The accepting
//! thread never blocks (a join drains its build edge before it pulls its
//! probe edge, and both may share a session), so a claim that must park
//! at a decision boundary is answered from a short-lived thread.
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
use std::time::Duration;

use accordion_common::config::NetworkConfig;
use accordion_common::sync::{condvar_wait, yield_slot, Condvar, Mutex, Semaphore};
use accordion_common::{AccordionError, Result};
use accordion_data::page::{DataPage, Page};

use crate::buffer::Credit;
use crate::exchange::ExchangeRegistry;
use crate::frame::{kind, net_err, Conversation, Cursor, Frame, FrameConn, Payload, Route, Served};

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
    /// Claim replies not yet taken, per (stage, slot).
    claims: HashMap<(u32, u32), Frame>,
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

    /// Sends one frame that expects no reply (FINISH, ADDPROD, POISON).
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
        let key = (stage, slot);
        self.send((kind::CLAIM, Payload::default().u32(stage).u32(slot).0))?;
        let mut st = self.state.lock();
        loop {
            if let Some(reply) = st.claims.remove(&key) {
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
                self.state.lock().claims.insert(key, (kind, body));
            }
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

/// A node's exchange ingress: the registries of the queries wired on it,
/// which incoming sessions feed their pages into.
#[derive(Default)]
pub struct PageRegistries(Mutex<HashMap<u64, Arc<ExchangeRegistry>>>);

impl PageRegistries {
    /// Makes `query`'s registry reachable for incoming frames. Must happen
    /// on every node **before any node's tasks start** (the two-phase
    /// wire/start handshake of the distributed scheduler guarantees it).
    pub fn register(&self, query: u64, registry: Arc<ExchangeRegistry>) {
        self.0.lock().insert(query, registry);
    }

    /// Drops `query`'s registry; a session opened for it later is answered
    /// with ERR.
    pub fn unregister(&self, query: u64) {
        self.0.lock().remove(&query);
    }
}

/// The page side of a session: pages only.
impl Conversation for PageRegistries {
    fn route(self: &Arc<Self>) -> Route {
        session_route(Some(self.clone()), None)
    }
}

/// [`PageRegistries`] behind a listener of their own, for an exchange that
/// has no node around it.
pub type PageServer = Served<PageRegistries>;

/// The route of a node's sessions: pages go into `pages`' registries and
/// claims to `claims`. A frame whose side is absent is refused.
pub fn session_route(pages: Option<Arc<PageRegistries>>, claims: Option<Arc<dyn Claims>>) -> Route {
    let serve = move |conn: &mut FrameConn, hello: Vec<u8>| {
        let replies = Arc::new(Mutex::new(conn.clone()));
        let served = serve_session(conn, &hello, &replies, pages.as_deref(), claims.as_ref());
        if let Err(e) = served {
            let _ = replies.lock().respond(Err(e));
        }
        // Queued pages keep clones of the connection for their credits;
        // the peer's reader must not wait for them.
        replies.lock().close();
        // Read what the peer still has in flight: closing with unread bytes
        // would reset the connection and could discard an ERR with it.
        while let Ok(Some(_)) = conn.recv() {}
        Ok(())
    };
    (kind::HELLO, Box::new(serve))
}

/// One accepted session, from its HELLO to the peer's EOF.
fn serve_session(
    conn: &mut FrameConn,
    hello: &[u8],
    replies: &Arc<Mutex<FrameConn>>,
    pages: Option<&PageRegistries>,
    claims: Option<&Arc<dyn Claims>>,
) -> Result<()> {
    let mut fields = Cursor::new(hello);
    let query = fields.u64()?;
    fields.finish()?;
    // Weak: a registry holds sessions to its peers, whose acceptors must
    // not keep it alive in turn.
    let registry = match pages.map(|pages| pages.0.lock().get(&query).map(Arc::downgrade)) {
        Some(None) => return Err(net_err(format!("query {query} is not registered here"))),
        registry => registry.flatten(),
    };
    while let Some((kind, payload)) = conn.recv()? {
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
            (kind::FINISH | kind::ADDPROD | kind::POISON, Some(None), _) => {}
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
            (kind::ADDPROD, Some(Some(registry)), _) => {
                let (stage, n) = (fields.u32()?, fields.u32()?);
                fields.finish()?;
                registry.add_producers_local(stage, n)?;
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

/// A page off a session. A corrupt page is unrecoverable for the query:
/// it fails everywhere, not just on this session.
fn decode(registry: &ExchangeRegistry, bytes: &[u8]) -> Result<Page> {
    Page::decode(bytes).inspect_err(|e| registry.poison(e.clone()))
}
