//! The connection-serving front end: owns a
//! [`StreamingServer`] and speaks the wire protocol
//! over any [`Transport`], and maps per-connection backpressure onto the
//! admission queue.
//!
//! ## Pump cycle
//!
//! [`Frontend::pump`] is one deterministic service round — and one tick
//! of **model time** (the lifecycle clock below) — sequential over
//! connections in [`ConnId`] order:
//!
//! 1. **Ingest** — flush each connection's deferred send queue, drain
//!    its transport into its [`FrameBuf`], decode, and handle each
//!    frame, charging [`FRAME_DECODE_OPS`] per decode attempt
//!    (well-formed or not) on the pumping ledger. `Hello` binds the
//!    connection to a tenant (checked against the registered credential
//!    when tenancy is active) and a *session* ([`SESSION_BIND_OPS`]);
//!    `Request` probes the session's dedup window ([`DEDUP_PROBE_OPS`])
//!    and is then admitted through
//!    [`StreamingServer::submit_as`](crate::StreamingServer::submit_as)
//!    ([`DEDUP_INSERT_WRITES`] for its dedup record); inbound
//!    `Answer`/`Error` frames are protocol violations
//!    ([`WireFault::UnexpectedFrame`]).
//! 2. **Dispatch** — one [`flush`](crate::StreamingServer::flush) if the
//!    queue is non-empty.
//! 3. **Deliver** — every deliverable result is encoded
//!    ([`FRAME_ENCODE_OPS`] each) and sent to the connection currently
//!    bound to the session that submitted it, keyed by the request's
//!    `(session, corr)`.
//!
//! ## Windows as backpressure
//!
//! Each session may have at most `window` requests in flight
//! (submitted, answer not yet recorded). A request over the window is
//! answered with a typed [`ServeError::Overloaded`] error frame —
//! `queue_len` reporting the session's in-flight count and `max_queue`
//! its window — and **never** a dropped byte: the connection stays
//! synchronized and other sessions keep submitting. The window defaults
//! to the admission policy's `max_queue`, so a single session cannot
//! force the server-side [`Overflow::Shed`](crate::Overflow::Shed) path
//! on its own.
//!
//! ## Connection lifecycle
//!
//! [`LifecyclePolicy`] adds four opt-in behaviors, all clocked in model
//! time (pump rounds), all **off by default** so a default frontend is
//! behavior- and charge-identical to one predating the policy:
//!
//! * **Idle deadlines + keepalive.** A connection silent for
//!   `idle_deadline` rounds is sent a [`Frame::Ping`]; if no frame
//!   arrives within `ping_grace` further rounds it is sent
//!   [`Frame::Goaway`] (`IdleTimeout`) and closed.
//! * **Strike escalation.** Each malformed or protocol-violating frame
//!   is a strike (every one still answered with a typed error frame);
//!   at `max_strikes` the connection is sent `Goaway` (`Misbehavior`)
//!   and closed — a misbehaving peer degrades loudly, never silently.
//! * **Bounded send buffers.** A frame the transport reports
//!   [`TransportError::Busy`] for is queued on the connection's
//!   deferred send queue and flushed in later rounds, preserving order.
//!   When the queue reaches `send_buffer` frames the frontend stops
//!   *ingesting* that connection (its bytes keep accumulating in the
//!   transport, whose flow control is the peer's problem) — slow
//!   clients cost bounded memory and never a dropped byte.
//! * **Session dedup windows.** Each session keeps its last
//!   `dedup_window` correlation ids with their outcomes: a resubmitted
//!   in-flight correlation id is suppressed, a resubmitted completed
//!   one is re-answered from the record. Combined with client
//!   resubmission this turns at-least-once delivery into exactly-once
//!   answers (see [`WireClient`](super::WireClient)).
//!
//! ## Graceful shutdown
//!
//! [`Frontend::begin_shutdown`] announces [`Frame::Goaway`]
//! (`Shutdown`) on every live connection; from then on fresh requests
//! are answered with typed [`ServeError::ShuttingDown`] error frames
//! while everything already in flight drains normally. A draining
//! connection (server shutdown or an inbound client `Goaway`) closes as
//! soon as nothing remains in flight for it and its send queue is
//! empty. [`Frontend::shutdown`] is the full sequence: announce, drain,
//! close.
//!
//! ## Faults
//!
//! Every failure is answered in-band: malformed frames, bad credentials,
//! tenant rejections, rebinds, post-`Goaway` submissions, and
//! over-window requests each produce an error frame carrying the same
//! [`ServeError`] the in-process API returns. A
//! connection is only ever *closed* by its transport
//! ([`TransportError`] on send or receive) or by
//! the lifecycle policy above; close is counted, buffered frames
//! already received are still served, and undeliverable answers are
//! parked, replayable from the session's dedup record.

use std::collections::VecDeque;

use wec_asym::{
    FxHashMap, Ledger, DEDUP_INSERT_WRITES, DEDUP_PROBE_OPS, FRAME_DECODE_OPS, FRAME_ENCODE_OPS,
    SESSION_BIND_OPS,
};
use wec_biconnectivity::BiconnQueryKey;
use wec_connectivity::ComponentId;
use wec_graph::Vertex;

use super::codec::{encode_frame, Frame, FrameBuf, GoawayReason, WireFault};
use super::transport::{Transport, TransportError};
use crate::streaming::StreamingServer;
use crate::tenant::TenantId;
use crate::{NoBiconn, OracleHandle, ServeError, ServeResult};

/// Handle to one frontend connection, returned by [`Frontend::connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(usize);

impl ConnId {
    /// The connection's slot index (connection order, 0-based).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Opt-in connection-lifecycle knobs, clocked in model time (pump
/// rounds). The default disables everything that could alter the
/// charge sequence of a pre-lifecycle frontend: no idle deadline, no
/// strike limit, no send-buffer bound. `dedup_window` bounds each
/// session's record of answered correlation ids; evicting a record
/// charges nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// Rounds a connection may sit without a decoded frame before it is
    /// pinged (0 disables idle handling entirely).
    pub idle_deadline: u64,
    /// Rounds after a ping before the silent connection is told
    /// `Goaway` (`IdleTimeout`) and closed.
    pub ping_grace: u64,
    /// Malformed/protocol-violating frames tolerated before `Goaway`
    /// (`Misbehavior`) and close (0 disables strikes).
    pub max_strikes: u32,
    /// Deferred send-queue length at which the frontend stops ingesting
    /// a slow connection (0 = unbounded queue, never stop ingesting).
    pub send_buffer: usize,
    /// Correlation ids remembered per session (clamped to ≥ 1); the
    /// idempotence horizon for client resubmission.
    pub dedup_window: usize,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        LifecyclePolicy {
            idle_deadline: 0,
            ping_grace: 2,
            max_strikes: 0,
            send_buffer: 0,
            dedup_window: 1024,
        }
    }
}

/// What an accepted `Hello` bound a connection to.
#[derive(Clone, Copy)]
struct Binding {
    tenant: TenantId,
    session: u64,
}

/// Server-side state of one connection.
struct Conn {
    transport: Box<dyn Transport>,
    rx: FrameBuf,
    /// Encoded frames the transport was too busy to take, flushed in
    /// order on later rounds.
    tx: VecDeque<Vec<u8>>,
    /// The binding of the accepted `Hello`, or, until one is accepted,
    /// the error this connection's requests are answered with: the last
    /// `Hello` refusal, or [`WireFault::UnexpectedFrame`] when no
    /// `Hello` was sent.
    binding: Result<Binding, ServeError>,
    /// Model time of the last decoded frame.
    last_rx: u64,
    /// When a keepalive ping was sent, until answered by any frame.
    ping_sent: Option<u64>,
    /// Malformed/protocol-violation count toward `max_strikes`.
    strikes: u32,
    /// `Goaway` exchanged (either direction): no new work, drain and
    /// close.
    draining: bool,
    closed: bool,
}

/// A placeholder transport for connections the frontend has retired;
/// swapping it in drops the real transport (closing loopback pipes /
/// sockets) while keeping the slot's stats readable.
struct DeadTransport;

impl Transport for DeadTransport {
    fn send(&mut self, _bytes: &[u8]) -> Result<(), TransportError> {
        Err(TransportError::Closed)
    }

    fn recv(&mut self, _buf: &mut [u8]) -> Result<usize, TransportError> {
        Err(TransportError::Closed)
    }
}

/// The server half of a session: survives reconnects, carries the
/// dedup window that makes resubmission idempotent.
struct Session {
    /// The connection currently speaking for this session.
    conn: Option<usize>,
    /// Requests admitted whose answer has not been recorded.
    in_flight: usize,
    /// Correlation id → outcome, bounded by the policy's `dedup_window`.
    dedup: FxHashMap<u64, DedupState>,
    /// Insertion order of `dedup` keys, for window eviction.
    order: VecDeque<u64>,
}

enum DedupState {
    /// Submitted, not yet answered: a duplicate is suppressed.
    Pending,
    /// Answered: a duplicate is re-answered from the record.
    Done(ServeResult),
}

/// Cumulative frontend counters ([`Frontend::frontend_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Frames decoded off connections (including ones that failed to
    /// decode — every decode attempt of a complete frame counts).
    pub frames_in: u64,
    /// Frames written to connections (answers, errors, hello replies).
    pub frames_out: u64,
    /// Requests admitted into the streaming server.
    pub admitted: u64,
    /// Requests rejected because the session's window was full.
    pub rejected_window: u64,
    /// Requests rejected by admission itself (shed, unknown tenant,
    /// quota).
    pub rejected_admission: u64,
    /// Requests rejected with [`ServeError::ShuttingDown`] after a
    /// `Goaway` was exchanged.
    pub rejected_shutdown: u64,
    /// Complete frames that failed to decode, plus protocol violations:
    /// inbound `Answer`/`Error` frames, rebinds, and requests on a
    /// connection without a session.
    pub malformed_frames: u64,
    /// `Hello` frames that bound a session.
    pub hellos_accepted: u64,
    /// `Hello` frames rejected (unknown tenant or bad credential).
    pub hellos_rejected: u64,
    /// Sessions created.
    pub sessions_bound: u64,
    /// Sessions rebound to a new connection (reconnects).
    pub sessions_rebound: u64,
    /// Requests whose correlation id was already in flight —
    /// suppressed, answered once by the pending ticket.
    pub dup_requests_suppressed: u64,
    /// Requests whose correlation id was already answered —
    /// re-answered from the dedup record without recomputation.
    pub dup_answers_replayed: u64,
    /// Answer frames (including per-ticket error results) delivered to a
    /// live connection.
    pub answers_delivered: u64,
    /// Answers whose session had no live connection at delivery
    /// time; the outcome is recorded for replay on resubmission.
    pub answers_parked: u64,
    /// Frames that could not be written because the transport failed.
    pub send_failures: u64,
    /// Keepalive pings sent to idle connections.
    pub pings_sent: u64,
    /// `Goaway` frames sent (shutdown, idle, misbehavior).
    pub goaways_sent: u64,
    /// `Goaway` frames received from clients.
    pub goaways_received: u64,
    /// Connections closed for missing the idle deadline.
    pub idle_closed: u64,
    /// Connections closed for reaching the strike limit.
    pub strike_closed: u64,
    /// Ingest rounds skipped because a connection's send queue sat at
    /// the `send_buffer` bound (slow-client backpressure).
    pub backpressure_skips: u64,
    /// Connections observed closed (each connection counts once).
    pub conns_closed: u64,
}

/// What one [`Frontend::pump`] round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Complete frames decoded this round.
    pub frames_in: usize,
    /// Requests admitted this round.
    pub admitted: usize,
    /// Queries dispatched to shards this round.
    pub dispatched: usize,
    /// Answer/error results delivered (sent or parked) this round.
    pub delivered: usize,
}

impl PumpReport {
    fn merge(&mut self, other: PumpReport) {
        self.frames_in += other.frames_in;
        self.admitted += other.admitted;
        self.dispatched += other.dispatched;
        self.delivered += other.delivered;
    }

    fn idle(&self) -> bool {
        *self == PumpReport::default()
    }
}

/// Retire a connection: swap in a [`DeadTransport`] (dropping the real
/// one closes the pipe) and count the close once.
fn close_conn(conn: &mut Conn, stats: &mut FrontendStats) {
    if !conn.closed {
        conn.closed = true;
        stats.conns_closed += 1;
    }
    conn.transport = Box::new(DeadTransport);
    conn.tx.clear();
}

/// Push the connection's deferred frames into the transport, in order,
/// stopping at the first [`TransportError::Busy`]. A fatal transport
/// error closes the connection.
fn flush_tx(conn: &mut Conn, stats: &mut FrontendStats) {
    while let Some(front) = conn.tx.front() {
        match conn.transport.send(front) {
            Ok(()) => {
                stats.frames_out += 1;
                conn.tx.pop_front();
            }
            Err(TransportError::Busy) => return,
            Err(_) => {
                stats.send_failures += 1;
                close_conn(conn, stats);
                return;
            }
        }
    }
}

/// Encode and send one frame, charging [`FRAME_ENCODE_OPS`]. A busy
/// transport defers the frame onto the connection's send queue (the
/// charge stands — the encode work happened); a fatal transport failure
/// closes the connection (counted once). Returns `false` only when the
/// frame is gone for good (connection closed).
fn send_frame(conn: &mut Conn, led: &mut Ledger, stats: &mut FrontendStats, frame: &Frame) -> bool {
    led.op(FRAME_ENCODE_OPS);
    if conn.closed {
        return false;
    }
    let bytes = encode_frame(frame);
    if !conn.tx.is_empty() {
        // Keep order: earlier deferred frames go first.
        conn.tx.push_back(bytes);
        return true;
    }
    match conn.transport.send(&bytes) {
        Ok(()) => {
            stats.frames_out += 1;
            true
        }
        Err(TransportError::Busy) => {
            conn.tx.push_back(bytes);
            true
        }
        Err(_) => {
            stats.send_failures += 1;
            close_conn(conn, stats);
            false
        }
    }
}

/// Send a typed [`Frame::Error`] for `corr` (`None`: for the frame that
/// triggered it).
fn send_error(
    conn: &mut Conn,
    led: &mut Ledger,
    stats: &mut FrontendStats,
    corr: Option<u64>,
    error: ServeError,
) {
    send_frame(conn, led, stats, &Frame::Error { corr, error });
}

/// One strike against a misbehaving connection; at the policy's limit
/// the connection is told `Goaway` (`Misbehavior`) and closed.
fn strike(conn: &mut Conn, led: &mut Ledger, stats: &mut FrontendStats, policy: &LifecyclePolicy) {
    conn.strikes += 1;
    if policy.max_strikes > 0 && conn.strikes >= policy.max_strikes && !conn.closed {
        send_frame(
            conn,
            led,
            stats,
            &Frame::Goaway {
                reason: GoawayReason::Misbehavior,
            },
        );
        stats.goaways_sent += 1;
        stats.strike_closed += 1;
        close_conn(conn, stats);
    }
}

/// The wire-protocol front end over a [`StreamingServer`].
///
/// ```
/// # use wec_asym::Ledger;
/// # use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
/// # use wec_graph::{gen, Priorities};
/// use wec_serve::{
///     encode_frame, loopback_pair, AdmissionPolicy, Frame, FrameBuf, Frontend, Query,
///     ShardedServer, StreamingServer, TenantId, Transport,
/// };
///
/// # let g = gen::grid(4, 4);
/// # let pri = Priorities::random(16, 1);
/// # let verts: Vec<u32> = (0..16).collect();
/// # let mut led = Ledger::new(16);
/// # let oracle = ConnectivityOracle::build(
/// #     &mut led, &g, &pri, &verts, 2, 1, OracleBuildOpts::default());
/// let server = StreamingServer::new(
///     ShardedServer::new(&oracle, 2),
///     AdmissionPolicy::builder().build(),
/// );
/// let mut fe = Frontend::new(server);
/// let (mut client, server_end) = loopback_pair();
/// fe.connect(Box::new(server_end));
///
/// // The client opens a session and writes a request frame; one pump
/// // ingests, dispatches, and writes the answer frame back.
/// let hello = Frame::Hello { tenant: TenantId::DEFAULT, credential: 0, session: 1 };
/// client.send(&encode_frame(&hello)).unwrap();
/// let q = Query::Connected(0, 15);
/// client.send(&encode_frame(&Frame::Request { corr: 7, query: q })).unwrap();
/// fe.pump(&mut led);
///
/// let mut rx = FrameBuf::default();
/// let mut buf = [0u8; 256];
/// let n = client.recv(&mut buf).unwrap();
/// rx.extend(&buf[..n]);
/// match rx.next_frame() {
///     Some(Ok(Frame::Answer { corr, answer })) => {
///         assert_eq!(corr, 7);
///         assert_eq!(answer.as_bool(), Some(true), "the grid is connected");
///     }
///     other => panic!("expected an answer frame, got {other:?}"),
/// }
/// ```
pub struct Frontend<C, B = NoBiconn> {
    server: StreamingServer<C, B>,
    conns: Vec<Conn>,
    /// Each in-flight ticket's `(session, corr)`.
    ticket_dest: FxHashMap<u64, (u64, u64)>,
    /// Sessions by client-chosen session id.
    sessions: FxHashMap<u64, Session>,
    window: usize,
    lifecycle: LifecyclePolicy,
    /// Model time: pump rounds so far.
    now: u64,
    /// `begin_shutdown` was called: fresh requests are rejected
    /// [`ServeError::ShuttingDown`], draining connections close.
    shutting_down: bool,
    stats: FrontendStats,
}

impl<C, B> Frontend<C, B>
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    /// Wrap `server`; the per-session window defaults to the
    /// admission policy's `max_queue`, the lifecycle policy to
    /// [`LifecyclePolicy::default`] (everything off).
    pub fn new(server: StreamingServer<C, B>) -> Self {
        let window = server.policy().max_queue;
        Frontend {
            server,
            conns: Vec::new(),
            ticket_dest: FxHashMap::default(),
            sessions: FxHashMap::default(),
            window: window.max(1),
            lifecycle: LifecyclePolicy::default(),
            now: 0,
            shutting_down: false,
            stats: FrontendStats::default(),
        }
    }

    /// Set the per-session in-flight window (clamped to at least 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Set the connection-lifecycle policy.
    pub fn with_lifecycle(mut self, lifecycle: LifecyclePolicy) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// The per-session in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The connection-lifecycle policy.
    pub fn lifecycle(&self) -> LifecyclePolicy {
        self.lifecycle
    }

    /// Model time: pump rounds completed.
    pub fn model_time(&self) -> u64 {
        self.now
    }

    /// Whether [`Frontend::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Attach a connection; it is served on every subsequent pump, in
    /// connection order.
    pub fn connect(&mut self, transport: Box<dyn Transport>) -> ConnId {
        self.conns.push(Conn {
            transport,
            rx: FrameBuf::default(),
            tx: VecDeque::new(),
            binding: Err(ServeError::MalformedFrame(WireFault::UnexpectedFrame)),
            last_rx: self.now,
            ping_sent: None,
            strikes: 0,
            draining: self.shutting_down,
            closed: false,
        });
        ConnId(self.conns.len() - 1)
    }

    /// Whether `conn`'s transport has failed or been retired.
    pub fn conn_closed(&self, conn: ConnId) -> bool {
        self.conns[conn.0].closed
    }

    /// Requests in flight for `session` (`None` for an unknown
    /// session id).
    pub fn session_in_flight(&self, session: u64) -> Option<usize> {
        self.sessions.get(&session).map(|s| s.in_flight)
    }

    /// The owned streaming server.
    pub fn server(&self) -> &StreamingServer<C, B> {
        &self.server
    }

    /// Mutable access to the owned streaming server (e.g. to apply
    /// [`GraphDelta`](crate::GraphDelta) mutations between pumps).
    pub fn server_mut(&mut self) -> &mut StreamingServer<C, B> {
        &mut self.server
    }

    /// Cumulative frontend counters.
    pub fn frontend_stats(&self) -> FrontendStats {
        self.stats
    }

    /// One service round: ingest every connection, dispatch at most one
    /// micro-batch, deliver every deliverable answer. Deterministic —
    /// connections are served in [`ConnId`] order and every charge lands
    /// on `led` in a fixed sequence, so wire-served costs are
    /// bit-identical across `WEC_THREADS`.
    pub fn pump(&mut self, led: &mut Ledger) -> PumpReport {
        self.now += 1;
        let mut report = PumpReport::default();
        let Frontend {
            server,
            conns,
            ticket_dest,
            sessions,
            window,
            lifecycle,
            now,
            shutting_down,
            stats,
        } = self;
        let now = *now;

        // 1. Ingest: deferred sends out, bytes → frames → handling, per
        //    connection.
        let mut buf = [0u8; 1024];
        for (ci, conn) in conns.iter_mut().enumerate() {
            flush_tx(conn, stats);
            if lifecycle.send_buffer > 0 && conn.tx.len() >= lifecycle.send_buffer {
                // Slow client: stop reading until its queue drains. Its
                // unread bytes wait in the transport — bounded memory
                // here, never a dropped byte.
                stats.backpressure_skips += 1;
                continue;
            }
            if !conn.closed {
                loop {
                    match conn.transport.recv(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => conn.rx.extend(&buf[..n]),
                        Err(TransportError::Busy) => break,
                        Err(_) => {
                            close_conn(conn, stats);
                            break;
                        }
                    }
                }
            }
            let mut rx_frames = 0u64;
            while let Some(decoded) = conn.rx.next_frame() {
                led.op(FRAME_DECODE_OPS);
                report.frames_in += 1;
                stats.frames_in += 1;
                rx_frames += 1;
                match decoded {
                    Ok(Frame::Hello {
                        tenant,
                        credential,
                        session,
                    }) => {
                        if conn.draining || *shutting_down {
                            stats.rejected_shutdown += 1;
                            send_error(conn, led, stats, None, ServeError::ShuttingDown);
                            continue;
                        }
                        if conn.binding.is_ok() {
                            stats.malformed_frames += 1;
                            let error = ServeError::MalformedFrame(WireFault::Rebind);
                            send_error(conn, led, stats, None, error);
                            strike(conn, led, stats, lifecycle);
                            continue;
                        }
                        if let Err(error) = hello_verdict(server, tenant, credential) {
                            stats.hellos_rejected += 1;
                            conn.binding = Err(error);
                            send_error(conn, led, stats, None, error);
                            continue;
                        }
                        led.op(SESSION_BIND_OPS);
                        conn.binding = Ok(Binding { tenant, session });
                        match sessions.entry(session) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                // Reconnect: the session (and its dedup
                                // window) follows the client to the new
                                // connection.
                                e.get_mut().conn = Some(ci);
                                stats.sessions_rebound += 1;
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(Session {
                                    conn: Some(ci),
                                    in_flight: 0,
                                    dedup: FxHashMap::default(),
                                    order: VecDeque::new(),
                                });
                                stats.sessions_bound += 1;
                            }
                        }
                        stats.hellos_accepted += 1;
                    }
                    Ok(Frame::Request { corr, query }) => {
                        // A binding always finds its session: `Hello`
                        // inserts it when it binds, and sessions are never
                        // removed. A miss is answered like an unbound
                        // connection's request.
                        let bound = conn.binding.and_then(|b| {
                            let unbound = ServeError::MalformedFrame(WireFault::UnexpectedFrame);
                            let sess = sessions.get_mut(&b.session).ok_or(unbound)?;
                            Ok((b.tenant, b.session, sess))
                        });
                        let (tenant, sid, sess) = match bound {
                            Ok(bound) => bound,
                            Err(error) => {
                                // Requests require a session; one without
                                // is a protocol violation, answered with
                                // why there is none.
                                stats.malformed_frames += 1;
                                send_error(conn, led, stats, Some(corr), error);
                                strike(conn, led, stats, lifecycle);
                                continue;
                            }
                        };
                        led.op(DEDUP_PROBE_OPS);
                        match sess.dedup.get(&corr) {
                            Some(DedupState::Pending) => {
                                // Already in flight: the one pending
                                // ticket will answer it. At-least-once in,
                                // exactly-once out.
                                stats.dup_requests_suppressed += 1;
                                continue;
                            }
                            Some(DedupState::Done(result)) => {
                                stats.dup_answers_replayed += 1;
                                let frame = answer_frame(corr, *result);
                                send_frame(conn, led, stats, &frame);
                                continue;
                            }
                            None => {}
                        }
                        if conn.draining || *shutting_down {
                            stats.rejected_shutdown += 1;
                            send_error(conn, led, stats, Some(corr), ServeError::ShuttingDown);
                            continue;
                        }
                        if sess.in_flight >= *window {
                            stats.rejected_window += 1;
                            let error = ServeError::Overloaded {
                                queue_len: sess.in_flight,
                                max_queue: *window,
                            };
                            send_error(conn, led, stats, Some(corr), error);
                            continue;
                        }
                        match server.submit_as(led, tenant, query) {
                            Ok(ticket) => {
                                ticket_dest.insert(ticket.id(), (sid, corr));
                                sess.in_flight += 1;
                                led.write(DEDUP_INSERT_WRITES);
                                sess.dedup.insert(corr, DedupState::Pending);
                                sess.order.push_back(corr);
                                // Evict beyond the window, oldest first;
                                // pending entries are immortal (they are
                                // bounded by the in-flight window).
                                while sess.order.len() > lifecycle.dedup_window.max(1) {
                                    let oldest = sess.order[0];
                                    if matches!(sess.dedup.get(&oldest), Some(DedupState::Pending))
                                    {
                                        break;
                                    }
                                    sess.order.pop_front();
                                    sess.dedup.remove(&oldest);
                                }
                                report.admitted += 1;
                                stats.admitted += 1;
                            }
                            Err(error) => {
                                stats.rejected_admission += 1;
                                send_error(conn, led, stats, Some(corr), error);
                            }
                        }
                    }
                    Ok(Frame::Ping { nonce }) => {
                        send_frame(conn, led, stats, &Frame::Pong { nonce });
                    }
                    Ok(Frame::Pong { .. }) => {
                        // Any frame clears the ping below; nothing else
                        // to do.
                    }
                    Ok(Frame::Goaway { .. }) => {
                        stats.goaways_received += 1;
                        conn.draining = true;
                    }
                    Ok(Frame::Answer { .. } | Frame::Error { .. }) => {
                        stats.malformed_frames += 1;
                        let error = ServeError::MalformedFrame(WireFault::UnexpectedFrame);
                        send_error(conn, led, stats, None, error);
                        strike(conn, led, stats, lifecycle);
                    }
                    Err(error) => {
                        stats.malformed_frames += 1;
                        send_error(conn, led, stats, None, error);
                        strike(conn, led, stats, lifecycle);
                    }
                }
            }

            // Lifecycle: keepalive and idle eviction in model time.
            if rx_frames > 0 {
                conn.last_rx = now;
                conn.ping_sent = None;
            } else if lifecycle.idle_deadline > 0 && !conn.closed {
                match conn.ping_sent {
                    None if now.saturating_sub(conn.last_rx) >= lifecycle.idle_deadline => {
                        stats.pings_sent += 1;
                        send_frame(conn, led, stats, &Frame::Ping { nonce: now });
                        conn.ping_sent = Some(now);
                    }
                    Some(pinged) if now.saturating_sub(pinged) >= lifecycle.ping_grace => {
                        stats.goaways_sent += 1;
                        stats.idle_closed += 1;
                        send_frame(
                            conn,
                            led,
                            stats,
                            &Frame::Goaway {
                                reason: GoawayReason::IdleTimeout,
                            },
                        );
                        close_conn(conn, stats);
                    }
                    _ => {}
                }
            }
        }

        // 2. Dispatch one micro-batch.
        if server.queue_len() > 0 {
            report.dispatched += server.flush(led);
        }

        // 3. Deliver everything deliverable.
        while let Some((ticket, result)) = server.try_next() {
            report.delivered += 1;
            // A ticket without a destination was submitted through the
            // in-process API on `server_mut()`; not ours to answer.
            let Some((session, corr)) = ticket_dest.remove(&ticket.id()) else {
                continue;
            };
            let Some(sess) = sessions.get_mut(&session) else {
                continue;
            };
            sess.in_flight = sess.in_flight.saturating_sub(1);
            // Record the outcome first: even if the connection is gone, a
            // resubmission replays it — the exactly-once contract does not
            // depend on this delivery landing.
            if let Some(state) = sess.dedup.get_mut(&corr) {
                *state = DedupState::Done(result);
            }
            let frame = answer_frame(corr, result);
            match sess.conn {
                Some(ci) if !conns[ci].closed => {
                    if send_frame(&mut conns[ci], led, stats, &frame) {
                        stats.answers_delivered += 1;
                    } else {
                        stats.answers_parked += 1;
                    }
                }
                _ => stats.answers_parked += 1,
            }
        }

        // 4. Close draining connections with nothing left to say.
        for conn in conns.iter_mut() {
            if conn.closed || !conn.draining || !conn.tx.is_empty() {
                continue;
            }
            let session_busy = conn
                .binding
                .as_ref()
                .is_ok_and(|b| sessions.get(&b.session).is_some_and(|s| s.in_flight > 0));
            if !session_busy {
                close_conn(conn, stats);
            }
        }
        report
    }

    /// Pump until the server is fully drained (empty queue, nothing
    /// ready) and a further round would be a no-op. Returns the merged
    /// report of every round.
    pub fn drain(&mut self, led: &mut Ledger) -> PumpReport {
        let mut total = PumpReport::default();
        loop {
            let round = self.pump(led);
            let done = self.server.queue_len() == 0 && self.server.ready_len() == 0;
            total.merge(round);
            if done && round.idle() {
                return total;
            }
        }
    }

    /// Announce graceful shutdown: every live connection is sent
    /// [`Frame::Goaway`] (`Shutdown`) and marked draining. Fresh
    /// requests from here on are answered with typed
    /// [`ServeError::ShuttingDown`] error frames; in-flight tickets
    /// keep draining through [`Frontend::pump`] / [`Frontend::drain`],
    /// and each connection closes once nothing remains in flight for
    /// it.
    pub fn begin_shutdown(&mut self, led: &mut Ledger) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        for conn in self.conns.iter_mut() {
            conn.draining = true;
            if conn.closed {
                continue;
            }
            self.stats.goaways_sent += 1;
            send_frame(
                conn,
                led,
                &mut self.stats,
                &Frame::Goaway {
                    reason: GoawayReason::Shutdown,
                },
            );
        }
    }

    /// The full graceful-shutdown sequence: announce
    /// ([`Frontend::begin_shutdown`]), drain every in-flight ticket,
    /// close every connection. No admitted request is abandoned and no
    /// buffered byte dropped: everything in flight is answered (or, for
    /// a session without a live connection, recorded for replay)
    /// before the close.
    pub fn shutdown(&mut self, led: &mut Ledger) -> PumpReport {
        self.begin_shutdown(led);
        let report = self.drain(led);
        for conn in self.conns.iter_mut() {
            if !conn.closed {
                flush_tx(conn, &mut self.stats);
                close_conn(conn, &mut self.stats);
            }
        }
        report
    }
}

/// Gate a `Hello` against the tenant registry: with tenancy inactive
/// everything binds; otherwise the tenant must exist and the credential
/// must match.
fn hello_verdict<C, B>(
    server: &StreamingServer<C, B>,
    tenant: TenantId,
    credential: u64,
) -> Result<(), ServeError>
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    if !server.tenancy_active() {
        return Ok(());
    }
    match server.policy().tenants.iter().find(|s| s.id == tenant) {
        None => Err(ServeError::UnknownTenant(tenant)),
        Some(spec) if spec.credential != credential => {
            Err(ServeError::MalformedFrame(WireFault::BadCredential))
        }
        Some(_) => Ok(()),
    }
}

/// The delivery frame for one recorded outcome.
fn answer_frame(corr: u64, result: ServeResult) -> Frame {
    match result {
        Ok(answer) => Frame::Answer { corr, answer },
        Err(error) => Frame::Error {
            corr: Some(corr),
            error,
        },
    }
}
