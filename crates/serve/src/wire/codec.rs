//! Frame encoding and incremental decoding.
//!
//! All integers are little-endian. On top of the module-level frame
//! header (`u32` length, version byte, kind byte — see [`super`]), the
//! per-kind payloads are:
//!
//! | kind | name    | payload |
//! |------|---------|---------|
//! | 1    | Hello   | `tenant: u16`, `credential: u64`, `session: u64` |
//! | 2    | Request | `corr: u64`, `query kind: u8`, `u: u32`, `v: u32` |
//! | 3    | Answer  | `corr: u64`, `answer kind: u8`, answer body |
//! | 4    | Error   | `has_corr: u8`, `corr: u64` (if 1), error body |
//! | 5    | Ping    | `nonce: u64` |
//! | 6    | Pong    | `nonce: u64` |
//! | 7    | Goaway  | `reason: u8` |
//!
//! Query kinds: 1 `Connected(u, v)`, 2 `Component(v)` (second word 0),
//! 3 `TwoEdgeConnected(u, v)`, 4 `Biconnected(u, v)`. Answer bodies: the
//! three predicate kinds carry one `u8` boolean; `Component` carries a
//! `u8` [`ComponentId`] tag (0 labeled, 1 implicit) and a `u32`. Error
//! bodies mirror [`ServeError`] variant by variant (queue/quota bounds
//! saturate to `u32` on the wire).
//!
//! ## Version
//!
//! Every frame carries the version byte [`WIRE_VERSION`] (2). A request
//! carries a client-chosen correlation id, echoed on its answer — the
//! idempotence key for exactly-once retry — and `Hello` binds a session
//! id that survives reconnects. Any other version byte, the retired
//! version 1 included, is refused with a typed
//! [`ServeError::ProtocolVersion`].
//!
//! Decoding never panics and never silently skips: every outcome is a
//! [`Frame`] or a typed [`ServeError`] ([`ServeError::ProtocolVersion`]
//! for a bad version byte, [`ServeError::MalformedFrame`] with a
//! [`WireFault`] for everything else). A frame with a bad version or an
//! unknown kind is still *consumed* (its length is trusted), so one
//! confused frame doesn't desynchronize the stream; only an oversize
//! length prefix ([`WireFault::Oversize`]) is unrecoverable and resets
//! the buffer — the connection should be closed.

use wec_connectivity::ComponentId;

use crate::tenant::TenantId;
use crate::{Answer, Query, ServeError};

/// The protocol version every frame carries (see the module docs).
pub const WIRE_VERSION: u8 = 2;

/// Hard cap on a frame's post-prefix length. Every frame this protocol
/// defines is under 64 bytes; the cap bounds buffering against corrupt or
/// hostile length prefixes.
pub const MAX_FRAME_BYTES: usize = 4096;

const KIND_HELLO: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_ANSWER: u8 = 3;
const KIND_ERROR: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_GOAWAY: u8 = 7;

/// What exactly was wrong with a frame that failed to decode
/// ([`ServeError::MalformedFrame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFault {
    /// The frame kind byte is not one this protocol defines.
    UnknownKind(u8),
    /// A query kind byte inside the payload is undefined.
    UnknownQueryKind(u8),
    /// An answer kind byte inside the payload is undefined.
    UnknownAnswerKind(u8),
    /// An error kind byte inside the payload is undefined.
    UnknownErrorKind(u8),
    /// The payload is shorter than its kind demands.
    Truncated,
    /// The payload is longer than its kind demands.
    TrailingBytes,
    /// A payload field holds a value outside its domain (a boolean that
    /// is neither 0 nor 1, an undefined component-id tag, …).
    BadPayload,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`]; the stream cannot
    /// be resynchronized past it.
    Oversize {
        /// The length the prefix claimed.
        len: u32,
    },
    /// A `Hello` presented an unregistered tenant or the wrong
    /// credential.
    BadCredential,
    /// The peer sent a frame this side does not accept (e.g. an `Answer`
    /// frame arriving at the server, or a `Request` on a connection no
    /// `Hello` has bound).
    UnexpectedFrame,
    /// A `Hello` arrived on a connection that is already bound to a
    /// session. Rebinding a live connection is a protocol violation;
    /// reconnect-and-rebind uses a *new* connection with the same
    /// session id.
    Rebind,
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireFault::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireFault::UnknownQueryKind(k) => write!(f, "unknown query kind {k}"),
            WireFault::UnknownAnswerKind(k) => write!(f, "unknown answer kind {k}"),
            WireFault::UnknownErrorKind(k) => write!(f, "unknown error kind {k}"),
            WireFault::Truncated => write!(f, "truncated payload"),
            WireFault::TrailingBytes => write!(f, "trailing payload bytes"),
            WireFault::BadPayload => write!(f, "payload field out of domain"),
            WireFault::Oversize { len } => {
                write!(f, "length prefix {len} over cap {MAX_FRAME_BYTES}")
            }
            WireFault::BadCredential => write!(f, "unknown tenant or wrong credential"),
            WireFault::UnexpectedFrame => write!(f, "frame kind not accepted by this peer"),
            WireFault::Rebind => write!(f, "hello on an already-bound connection"),
        }
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// Bind the connection to a tenant *and* a client-chosen session.
    /// Must present the tenant's registered credential (0 when none is
    /// required). Reconnecting with the same session id rebinds the
    /// session (and its dedup window) to the new connection.
    Hello {
        /// The tenant to bind to.
        tenant: TenantId,
        /// The shared-secret credential.
        credential: u64,
        /// The client-chosen session id; survives reconnects.
        session: u64,
    },
    /// Submit one query under a client-chosen correlation id — the
    /// idempotence key the session's dedup window keys on.
    Request {
        /// The client-chosen correlation id (unique per session).
        corr: u64,
        /// The query.
        query: Query,
    },
    /// One answered request, correlated by the request's correlation id.
    Answer {
        /// The correlation id of the request being answered.
        corr: u64,
        /// The answer.
        answer: Answer,
    },
    /// A typed failure: of one correlation id, or of the frame that
    /// triggered it (`corr: None` — decode errors, refused `Hello`s,
    /// protocol violations).
    Error {
        /// The correlation id the error belongs to, when it has one.
        corr: Option<u64>,
        /// The error.
        error: ServeError,
    },
    /// Keepalive probe. The receiver answers with a [`Frame::Pong`]
    /// echoing the nonce.
    Ping {
        /// Echoed verbatim in the pong.
        nonce: u64,
    },
    /// Keepalive reply.
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
    /// The sender is done with this connection: it will finish what is
    /// in flight and then close. A server announces shutdown or a
    /// lifecycle eviction; a client announces intent to disconnect
    /// cleanly.
    Goaway {
        /// Why the connection is being retired.
        reason: GoawayReason,
    },
}

/// Why a peer announced [`Frame::Goaway`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GoawayReason {
    /// Graceful shutdown: in-flight work drains, then the connection
    /// closes.
    Shutdown,
    /// The connection sat idle past its deadline and did not answer the
    /// keepalive ping.
    IdleTimeout,
    /// The connection accumulated the strike limit of malformed or
    /// protocol-violating frames.
    Misbehavior,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_query(out: &mut Vec<u8>, q: Query) {
    let (k, u, v) = match q {
        Query::Connected(u, v) => (1u8, u, v),
        Query::Component(v) => (2, v, 0),
        Query::TwoEdgeConnected(u, v) => (3, u, v),
        Query::Biconnected(u, v) => (4, u, v),
    };
    out.push(k);
    put_u32(out, u);
    put_u32(out, v);
}

fn put_answer(out: &mut Vec<u8>, a: Answer) {
    match a {
        Answer::Connected(b) => {
            out.push(1);
            out.push(b as u8);
        }
        Answer::Component(id) => {
            out.push(2);
            match id {
                ComponentId::Labeled(l) => {
                    out.push(0);
                    put_u32(out, l);
                }
                ComponentId::Implicit(v) => {
                    out.push(1);
                    put_u32(out, v);
                }
            }
        }
        Answer::TwoEdgeConnected(b) => {
            out.push(3);
            out.push(b as u8);
        }
        Answer::Biconnected(b) => {
            out.push(4);
            out.push(b as u8);
        }
    }
}

fn put_error(out: &mut Vec<u8>, e: ServeError) {
    match e {
        ServeError::UnsupportedQuery(q) => {
            out.push(1);
            put_query(out, q);
        }
        ServeError::Overloaded {
            queue_len,
            max_queue,
        } => {
            out.push(2);
            // Queue bounds saturate to u32 on the wire; real queues are
            // nowhere near 2^32.
            put_u32(out, u32::try_from(queue_len).unwrap_or(u32::MAX));
            put_u32(out, u32::try_from(max_queue).unwrap_or(u32::MAX));
        }
        ServeError::UnknownTenant(t) => {
            out.push(3);
            put_u16(out, t.0);
        }
        ServeError::QuotaExceeded { tenant, quota } => {
            out.push(4);
            put_u16(out, tenant.0);
            put_u32(out, quota);
        }
        ServeError::MalformedFrame(fault) => {
            out.push(5);
            put_fault(out, fault);
        }
        ServeError::ProtocolVersion { got } => {
            out.push(6);
            out.push(got);
        }
        ServeError::ShuttingDown => out.push(7),
        ServeError::OracleFault(q) => {
            out.push(8);
            put_query(out, q);
        }
    }
}

fn put_fault(out: &mut Vec<u8>, fault: WireFault) {
    match fault {
        WireFault::UnknownKind(k) => {
            out.push(1);
            out.push(k);
        }
        WireFault::UnknownQueryKind(k) => {
            out.push(2);
            out.push(k);
        }
        WireFault::UnknownAnswerKind(k) => {
            out.push(3);
            out.push(k);
        }
        WireFault::UnknownErrorKind(k) => {
            out.push(4);
            out.push(k);
        }
        WireFault::Truncated => out.push(5),
        WireFault::TrailingBytes => out.push(6),
        WireFault::BadPayload => out.push(7),
        WireFault::Oversize { len } => {
            out.push(8);
            put_u32(out, len);
        }
        WireFault::BadCredential => out.push(9),
        WireFault::UnexpectedFrame => out.push(10),
        WireFault::Rebind => out.push(11),
    }
}

/// Encode one frame, length prefix included.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut body = vec![WIRE_VERSION];
    match *f {
        Frame::Hello {
            tenant,
            credential,
            session,
        } => {
            body.push(KIND_HELLO);
            put_u16(&mut body, tenant.0);
            put_u64(&mut body, credential);
            put_u64(&mut body, session);
        }
        Frame::Request { corr, query } => {
            body.push(KIND_REQUEST);
            put_u64(&mut body, corr);
            put_query(&mut body, query);
        }
        Frame::Answer { corr, answer } => {
            body.push(KIND_ANSWER);
            put_u64(&mut body, corr);
            put_answer(&mut body, answer);
        }
        Frame::Error { corr, error } => {
            body.push(KIND_ERROR);
            match corr {
                Some(c) => {
                    body.push(1);
                    put_u64(&mut body, c);
                }
                None => body.push(0),
            }
            put_error(&mut body, error);
        }
        Frame::Ping { nonce } => {
            body.push(KIND_PING);
            put_u64(&mut body, nonce);
        }
        Frame::Pong { nonce } => {
            body.push(KIND_PONG);
            put_u64(&mut body, nonce);
        }
        Frame::Goaway { reason } => {
            body.push(KIND_GOAWAY);
            body.push(match reason {
                GoawayReason::Shutdown => 1,
                GoawayReason::IdleTimeout => 2,
                GoawayReason::Misbehavior => 3,
            });
        }
    }
    debug_assert!(body.len() <= MAX_FRAME_BYTES, "frames are tiny by design");
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    out
}

/// A little cursor over one frame body; every getter fails typed instead
/// of panicking.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { rest: buf }
    }

    /// The next `N` bytes, or [`WireFault::Truncated`] when the body ends
    /// first.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireFault> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireFault::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, WireFault> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, WireFault> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireFault> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireFault> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bool(&mut self) -> Result<bool, WireFault> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireFault::BadPayload),
        }
    }

    fn finish(&self) -> Result<(), WireFault> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireFault::TrailingBytes)
        }
    }
}

fn get_query(c: &mut Cursor<'_>) -> Result<Query, WireFault> {
    let k = c.u8()?;
    let u = c.u32()?;
    let v = c.u32()?;
    match k {
        1 => Ok(Query::Connected(u, v)),
        2 => Ok(Query::Component(u)),
        3 => Ok(Query::TwoEdgeConnected(u, v)),
        4 => Ok(Query::Biconnected(u, v)),
        _ => Err(WireFault::UnknownQueryKind(k)),
    }
}

fn get_answer(c: &mut Cursor<'_>) -> Result<Answer, WireFault> {
    let k = c.u8()?;
    match k {
        1 => Ok(Answer::Connected(c.bool()?)),
        2 => {
            let tag = c.u8()?;
            let w = c.u32()?;
            match tag {
                0 => Ok(Answer::Component(ComponentId::Labeled(w))),
                1 => Ok(Answer::Component(ComponentId::Implicit(w))),
                _ => Err(WireFault::BadPayload),
            }
        }
        3 => Ok(Answer::TwoEdgeConnected(c.bool()?)),
        4 => Ok(Answer::Biconnected(c.bool()?)),
        _ => Err(WireFault::UnknownAnswerKind(k)),
    }
}

fn get_error(c: &mut Cursor<'_>) -> Result<ServeError, WireFault> {
    let k = c.u8()?;
    match k {
        1 => Ok(ServeError::UnsupportedQuery(get_query(c)?)),
        2 => Ok(ServeError::Overloaded {
            queue_len: c.u32()? as usize,
            max_queue: c.u32()? as usize,
        }),
        3 => Ok(ServeError::UnknownTenant(TenantId(c.u16()?))),
        4 => Ok(ServeError::QuotaExceeded {
            tenant: TenantId(c.u16()?),
            quota: c.u32()?,
        }),
        5 => Ok(ServeError::MalformedFrame(get_fault(c)?)),
        6 => Ok(ServeError::ProtocolVersion { got: c.u8()? }),
        7 => Ok(ServeError::ShuttingDown),
        8 => Ok(ServeError::OracleFault(get_query(c)?)),
        _ => Err(WireFault::UnknownErrorKind(k)),
    }
}

fn get_fault(c: &mut Cursor<'_>) -> Result<WireFault, WireFault> {
    let k = c.u8()?;
    match k {
        1 => Ok(WireFault::UnknownKind(c.u8()?)),
        2 => Ok(WireFault::UnknownQueryKind(c.u8()?)),
        3 => Ok(WireFault::UnknownAnswerKind(c.u8()?)),
        4 => Ok(WireFault::UnknownErrorKind(c.u8()?)),
        5 => Ok(WireFault::Truncated),
        6 => Ok(WireFault::TrailingBytes),
        7 => Ok(WireFault::BadPayload),
        8 => Ok(WireFault::Oversize { len: c.u32()? }),
        9 => Ok(WireFault::BadCredential),
        10 => Ok(WireFault::UnexpectedFrame),
        11 => Ok(WireFault::Rebind),
        _ => Err(WireFault::BadPayload),
    }
}

/// Decode one frame body (everything after the length prefix).
fn decode_body(body: &[u8]) -> Result<Frame, ServeError> {
    let mut c = Cursor::new(body);
    let version = c.u8().map_err(ServeError::MalformedFrame)?;
    if version != WIRE_VERSION {
        return Err(ServeError::ProtocolVersion { got: version });
    }
    decode_payload(&mut c).map_err(ServeError::MalformedFrame)
}

/// Decode the kind byte and its payload, which must fill the body
/// exactly.
fn decode_payload(c: &mut Cursor<'_>) -> Result<Frame, WireFault> {
    let frame = match c.u8()? {
        KIND_HELLO => Frame::Hello {
            tenant: TenantId(c.u16()?),
            credential: c.u64()?,
            session: c.u64()?,
        },
        KIND_REQUEST => Frame::Request {
            corr: c.u64()?,
            query: get_query(c)?,
        },
        KIND_ANSWER => Frame::Answer {
            corr: c.u64()?,
            answer: get_answer(c)?,
        },
        KIND_ERROR => Frame::Error {
            corr: if c.bool()? { Some(c.u64()?) } else { None },
            error: get_error(c)?,
        },
        KIND_PING => Frame::Ping { nonce: c.u64()? },
        KIND_PONG => Frame::Pong { nonce: c.u64()? },
        KIND_GOAWAY => Frame::Goaway {
            reason: match c.u8()? {
                1 => GoawayReason::Shutdown,
                2 => GoawayReason::IdleTimeout,
                3 => GoawayReason::Misbehavior,
                _ => return Err(WireFault::BadPayload),
            },
        },
        k => return Err(WireFault::UnknownKind(k)),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame decoder: feed bytes in with [`FrameBuf::extend`] in
/// whatever chunks the transport produces, pop complete frames with
/// [`FrameBuf::next_frame`]. Partial frames wait; malformed frames come
/// out as typed errors without desynchronizing the stream (except an
/// [`WireFault::Oversize`] prefix, which resets the buffer).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix; compacted periodically instead of per frame.
    pos: usize,
}

impl FrameBuf {
    /// Append raw transport bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pop the next complete frame: `None` when the buffered bytes end
    /// mid-frame (feed more), `Some(Err(..))` when a complete frame
    /// failed to decode (the frame is consumed; the stream continues).
    pub fn next_frame(&mut self) -> Option<Result<Frame, ServeError>> {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let avail = &self.buf[self.pos..];
        let len = u32::from_le_bytes(*avail.first_chunk::<4>()?);
        if len as usize > MAX_FRAME_BYTES {
            // The prefix cannot be trusted, so neither can anything after
            // it: drop the buffer and report. The caller should close the
            // connection.
            self.buf.clear();
            self.pos = 0;
            return Some(Err(ServeError::MalformedFrame(WireFault::Oversize { len })));
        }
        if avail.len() < 4 + len as usize {
            return None;
        }
        let body = &avail[4..4 + len as usize];
        let result = decode_body(body);
        self.pos += 4 + len as usize;
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_delivery_reassembles() {
        let frame = Frame::Request {
            corr: 9,
            query: Query::Connected(17, 4242),
        };
        let bytes = encode_frame(&frame);
        let mut fb = FrameBuf::default();
        for b in &bytes[..bytes.len() - 1] {
            fb.extend(&[*b]);
            assert!(fb.next_frame().is_none(), "partial frame must wait");
        }
        fb.extend(&bytes[bytes.len() - 1..]);
        assert_eq!(fb.next_frame(), Some(Ok(frame)));
        assert_eq!(fb.next_frame(), None);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversize_prefix_resets() {
        let mut fb = FrameBuf::default();
        fb.extend(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        fb.extend(&[0xAA; 16]);
        assert_eq!(
            fb.next_frame(),
            Some(Err(ServeError::MalformedFrame(WireFault::Oversize {
                len: MAX_FRAME_BYTES as u32 + 1
            })))
        );
        assert_eq!(fb.pending(), 0, "buffer resets after an oversize prefix");
    }
}
