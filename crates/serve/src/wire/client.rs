//! The exactly-once retrying wire client.
//!
//! [`WireClient`] speaks the wire protocol against a
//! [`Frontend`](super::Frontend): every request carries a client-chosen
//! correlation id, the client belongs to a *session* that survives
//! reconnects, and the server keeps a per-session dedup window. Those
//! three pieces let the client deliver **at-least-once** on the wire
//! (resubmit anything unacknowledged after a reconnect or a response
//! deadline) while the application observes **exactly-once** answers:
//!
//! * the server suppresses a resubmitted correlation id that is still in
//!   flight and replays one that already completed, so recomputation
//!   never happens and each correlation id consumes at most one ticket;
//! * correlation ids are never reused, so an answer whose id is no longer
//!   pending — a duplicate from a faulty transport, or a replay racing
//!   the original delivery — is dropped; the client keeps no record of
//!   completed ids.
//!
//! Reconnection is *charged*: dial attempt `a` (since the last healthy
//! frame) costs `RECONNECT_BACKOFF_OPS << (a-1)` operations on the
//! client's ledger, capped by [`RetryPolicy::max_backoff_exp`] — the
//! model-cost analogue of exponential backoff, so a client hammering a
//! dead server pays for it in the same currency as everything else.
//! Frame traffic is priced like the server side: [`FRAME_ENCODE_OPS`]
//! per frame written, [`FRAME_DECODE_OPS`] per frame decoded.
//!
//! The client is tick-driven and non-blocking, like
//! [`Frontend::pump`](super::Frontend::pump): one [`WireClient::tick`]
//! flushes what can be sent, drains what has arrived, answers
//! keepalives, and returns the newly completed `(corr, result)` pairs.

use std::collections::BTreeMap;

use wec_asym::{Ledger, FRAME_DECODE_OPS, FRAME_ENCODE_OPS, RECONNECT_BACKOFF_OPS};

use super::codec::{encode_frame, Frame, FrameBuf};
use super::transport::{Connector, Transport, TransportError};
use crate::tenant::TenantId;
use crate::{Query, ServeError, ServeResult};

/// Retry knobs for [`WireClient`], clocked in client ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Cap on the backoff exponent: attempt `a` charges
    /// `RECONNECT_BACKOFF_OPS << min(a-1, max_backoff_exp)`.
    pub max_backoff_exp: u32,
    /// Ticks without a single inbound frame (while requests are
    /// outstanding) before the connection is presumed wedged and
    /// dropped for a reconnect-and-resubmit (0 disables the deadline).
    pub response_deadline: u64,
    /// Requests allowed on the wire unacknowledged; further submissions
    /// wait client-side (clamped to ≥ 1).
    pub window: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_backoff_exp: 6,
            response_deadline: 8,
            window: 8,
        }
    }
}

/// Cumulative client counters ([`WireClient::client_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful dials (the first connect and every reconnect).
    pub connects: u64,
    /// Successful dials after the first.
    pub reconnects: u64,
    /// Dial attempts that failed (each still charged backoff).
    pub dial_failures: u64,
    /// Request frames sent beyond the first per correlation id.
    pub resubmitted: u64,
    /// Final answers delivered to the caller (exactly one per
    /// correlation id, ever).
    pub answers: u64,
    /// Inbound answers dropped because their correlation id had already
    /// completed (duplicated delivery or a replay racing the original).
    pub duplicates_suppressed: u64,
    /// Typed retryable rejections ([`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`]) absorbed by marking the request
    /// for resubmission.
    pub retryable_errors: u64,
    /// `Goaway` frames received.
    pub goaways: u64,
    /// Keepalive pings answered with pongs.
    pub pings_answered: u64,
    /// Connections dropped for missing the response deadline.
    pub deadline_drops: u64,
}

/// One not-yet-completed request.
struct PendState {
    query: Query,
    /// On the wire on the current connection, awaiting an answer.
    sent: bool,
    /// Ever sent on any connection (for the resubmission counter).
    ever_sent: bool,
}

/// A wire client with reconnect, charged backoff, and idempotent
/// resubmission — exactly-once answers over at-least-once delivery (see
/// the [module docs](self)).
pub struct WireClient {
    connector: Box<dyn Connector>,
    tenant: TenantId,
    credential: u64,
    session: u64,
    policy: RetryPolicy,
    transport: Option<Box<dyn Transport>>,
    rx: FrameBuf,
    next_corr: u64,
    /// Correlation id → request, in id order (deterministic resubmission
    /// order). Ids are never reused, so membership here is the
    /// exactly-once gate.
    pending: BTreeMap<u64, PendState>,
    /// Consecutive dial attempts since the last inbound frame.
    attempt: u32,
    /// Ticks since the last inbound frame, while requests are pending.
    idle_ticks: u64,
    stats: ClientStats,
}

impl WireClient {
    /// A client for `session` (a client-chosen stable id: reconnects
    /// resume it server-side) dialing through `connector`, bound to the
    /// default tenant with a zero credential.
    pub fn new(connector: Box<dyn Connector>, session: u64) -> Self {
        WireClient {
            connector,
            tenant: TenantId::DEFAULT,
            credential: 0,
            session,
            policy: RetryPolicy::default(),
            transport: None,
            rx: FrameBuf::default(),
            next_corr: 0,
            pending: BTreeMap::new(),
            attempt: 0,
            idle_ticks: 0,
            stats: ClientStats::default(),
        }
    }

    /// Authenticate as `tenant` with `credential` (sent in the session
    /// `Hello` on every connect).
    pub fn with_identity(mut self, tenant: TenantId, credential: u64) -> Self {
        self.tenant = tenant;
        self.credential = credential;
        self
    }

    /// Set the retry policy.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The session id this client resumes on every reconnect.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Requests submitted but not yet completed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether everything submitted has been answered.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Cumulative client counters.
    pub fn client_stats(&self) -> ClientStats {
        self.stats
    }

    /// Queue a query; returns its correlation id. The request goes on
    /// the wire on a subsequent [`WireClient::tick`], window permitting,
    /// and completes exactly once — through however many reconnects and
    /// resubmissions it takes.
    pub fn submit(&mut self, query: Query) -> u64 {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.pending.insert(
            corr,
            PendState {
                query,
                sent: false,
                ever_sent: false,
            },
        );
        corr
    }

    /// Drop the connection (if any) and mark everything unacknowledged
    /// for resubmission on the next connect.
    fn disconnect(&mut self) {
        self.transport = None;
        self.rx = FrameBuf::default();
        for st in self.pending.values_mut() {
            st.sent = false;
        }
    }

    /// Dial (charging backed-off reconnect cost) and open the session.
    fn try_connect(&mut self, led: &mut Ledger) -> bool {
        self.attempt += 1;
        let exp = (self.attempt - 1).min(self.policy.max_backoff_exp);
        led.op(RECONNECT_BACKOFF_OPS << exp);
        match self.connector.dial() {
            Ok(transport) => {
                self.transport = Some(transport);
                self.stats.connects += 1;
                if self.stats.connects > 1 {
                    self.stats.reconnects += 1;
                }
                self.idle_ticks = 0;
                // Open (or resume) the session before anything else.
                self.send_frame(
                    led,
                    &Frame::Hello {
                        tenant: self.tenant,
                        credential: self.credential,
                        session: self.session,
                    },
                )
            }
            Err(_) => {
                self.stats.dial_failures += 1;
                false
            }
        }
    }

    /// Encode and write one frame, charging [`FRAME_ENCODE_OPS`]. A
    /// [`TransportError::Busy`] leaves the frame unsent (the caller
    /// retries next tick); any other failure drops the connection.
    /// Returns whether the frame went out.
    fn send_frame(&mut self, led: &mut Ledger, frame: &Frame) -> bool {
        led.op(FRAME_ENCODE_OPS);
        let Some(transport) = self.transport.as_mut() else {
            return false;
        };
        match transport.send(&encode_frame(frame)) {
            Ok(()) => true,
            Err(TransportError::Busy) => false,
            Err(_) => {
                self.disconnect();
                false
            }
        }
    }

    /// Complete `corr` with `result`, exactly once: an id that is not
    /// pending was completed before (or never issued).
    fn complete(&mut self, corr: u64, result: ServeResult, out: &mut Vec<(u64, ServeResult)>) {
        if self.pending.remove(&corr).is_none() {
            self.stats.duplicates_suppressed += 1;
            return;
        }
        self.stats.answers += 1;
        out.push((corr, result));
    }

    /// One non-blocking service round: connect if disconnected (charged
    /// backoff), put unacknowledged requests on the wire up to the
    /// window, drain and handle inbound frames, enforce the response
    /// deadline. Returns the requests that completed this tick, in
    /// arrival order.
    pub fn tick(&mut self, led: &mut Ledger) -> Vec<(u64, ServeResult)> {
        let mut out = Vec::new();
        if self.transport.is_none() && !self.try_connect(led) {
            return out;
        }

        // Send: unacknowledged requests in correlation order, up to the
        // window.
        let window = self.policy.window.max(1);
        let on_wire = self.pending.values().filter(|s| s.sent).count();
        let to_send: Vec<(u64, Query)> = self
            .pending
            .iter()
            .filter(|(_, s)| !s.sent)
            .map(|(&c, s)| (c, s.query))
            .take(window.saturating_sub(on_wire))
            .collect();
        for (corr, query) in to_send {
            if self.transport.is_none() || !self.send_frame(led, &Frame::Request { corr, query }) {
                break;
            }
            // Nothing in this loop removes a pending entry, so the lookup
            // always hits.
            if let Some(st) = self.pending.get_mut(&corr) {
                if st.ever_sent {
                    self.stats.resubmitted += 1;
                }
                st.sent = true;
                st.ever_sent = true;
            }
        }

        // Receive: drain the transport, decode, handle.
        let mut buf = [0u8; 1024];
        let mut inbound = 0u64;
        while let Some(transport) = self.transport.as_mut() {
            match transport.recv(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.rx.extend(&buf[..n]),
                Err(TransportError::Busy) => break,
                Err(_) => {
                    self.disconnect();
                    break;
                }
            }
        }
        while let Some(decoded) = self.rx.next_frame() {
            led.op(FRAME_DECODE_OPS);
            inbound += 1;
            match decoded {
                Ok(Frame::Answer { corr, answer }) => self.complete(corr, Ok(answer), &mut out),
                Ok(Frame::Error {
                    corr: Some(corr),
                    error,
                }) => match error {
                    ServeError::Overloaded { .. } | ServeError::ShuttingDown => {
                        // Retryable: no ticket was consumed server-side.
                        // Resubmit (here, or on a fresh connection).
                        self.stats.retryable_errors += 1;
                        if let Some(st) = self.pending.get_mut(&corr) {
                            st.sent = false;
                        }
                    }
                    _ => self.complete(corr, Err(error), &mut out),
                },
                Ok(Frame::Error { corr: None, error }) => {
                    // Connection-scoped rejection (e.g. a refused Hello
                    // while the server drains): the reconnect path will
                    // retry it. A Hello refused for its identity instead
                    // fails each request with the refusal's error.
                    if matches!(error, ServeError::ShuttingDown) {
                        self.stats.retryable_errors += 1;
                    }
                }
                Ok(Frame::Ping { nonce }) => {
                    self.stats.pings_answered += 1;
                    self.send_frame(led, &Frame::Pong { nonce });
                }
                Ok(Frame::Goaway { .. }) => {
                    // The server is done with this connection; dial a
                    // fresh one and resume the session there.
                    self.stats.goaways += 1;
                    self.disconnect();
                }
                Ok(_) => {
                    // Pong (keepalive answered — inbound counter already
                    // records the progress) or a frame only a server
                    // accepts: ignore.
                }
                Err(_) => {
                    // A frame that fails to decode means the stream is
                    // corrupt (chaos or a bug): resynchronize by
                    // reconnecting.
                    self.disconnect();
                }
            }
        }

        // Progress and deadline accounting.
        if inbound > 0 {
            self.attempt = 0;
            self.idle_ticks = 0;
        } else if self.transport.is_some()
            && self.policy.response_deadline > 0
            && self.pending.values().any(|s| s.sent)
        {
            self.idle_ticks += 1;
            if self.idle_ticks >= self.policy.response_deadline {
                // Presumed wedged (stalled transport, lost frames):
                // reconnect and resubmit next tick.
                self.stats.deadline_drops += 1;
                self.idle_ticks = 0;
                self.disconnect();
            }
        }
        out
    }
}
