//! The byte-protocol front end: a length-prefixed binary wire format for
//! queries, answers, typed errors, and tenant credentials, behind a
//! swappable [`Transport`] trait, with a [`Frontend`] that owns a
//! [`StreamingServer`](crate::StreamingServer) and serves connections,
//! a deterministic byte-level fault injector ([`chaos`]), and an
//! exactly-once retrying [`WireClient`].
//!
//! ## Frame layout
//!
//! Every frame is one length-prefixed record:
//!
//! ```text
//! ┌───────────┬──────────┬────────┬─────────────────────────┐
//! │ len: u32  │ ver: u8  │ kind   │ payload (len − 2 bytes) │
//! │ LE        │ 2        │ u8     │ kind-specific, LE ints  │
//! └───────────┴──────────┴────────┴─────────────────────────┘
//! ```
//!
//! `len` counts everything after the prefix (version + kind + payload)
//! and is capped at [`MAX_FRAME_BYTES`]. Every frame carries the one
//! protocol version, [`WIRE_VERSION`]; any other version byte is
//! refused with a typed [`ProtocolVersion`](crate::ServeError::ProtocolVersion)
//! error. Frame kinds: `Hello` (tenant id, credential and a
//! client-chosen session id — binds a connection to a tenant and a
//! session that survives reconnects), `Request` (a client-chosen
//! correlation id plus one [`Query`](crate::Query)), `Answer`
//! (correlation id plus [`Answer`](crate::Answer)), `Error` (optional
//! correlation id plus [`ServeError`](crate::ServeError)), and the
//! connection-lifecycle frames `Ping`/`Pong`/`Goaway`. Sessions and
//! correlation ids are the basis of reconnect-with-resume and idempotent
//! resubmission. The full per-kind payload layout is documented in
//! [`codec`].
//!
//! Decoding is *total*: any byte sequence either yields a frame or a
//! typed [`crate::ServeError::MalformedFrame`] /
//! [`crate::ServeError::ProtocolVersion`] — the server answers bad frames
//! with an error frame instead of dropping bytes or killing the parse
//! loop. An incomplete frame is simply not ready yet ([`FrameBuf`] waits
//! for more bytes).
//!
//! ## Transports
//!
//! [`Transport`] is the narrow byte-pipe contract ([`Transport::send`] /
//! [`Transport::recv`], both non-blocking). Two implementations ship:
//! [`LoopbackTransport`] (paired in-process byte channels — what tests,
//! benches, and CI use, so nothing here depends on sandbox networking)
//! and [`TcpTransport`] (a non-blocking `std::net::TcpStream`; compiled
//! always, exercised only where a real network exists — CI runs
//! loopback-only). [`Connector`] is the dial-side counterpart a
//! [`WireClient`] reconnects through; [`loopback_listener`] pairs a
//! [`LoopbackConnector`] with a [`LoopbackListener`] backlog.
//!
//! ## The frontend
//!
//! [`Frontend`] owns the [`StreamingServer`](crate::StreamingServer) and
//! any number of connections. Each [`Frontend::pump`] ingests every
//! connection's bytes, decodes and handles the frames (charging
//! [`wec_asym::FRAME_DECODE_OPS`] per frame on the pumping ledger),
//! dispatches at most one micro-batch, and writes out every deliverable
//! answer as a frame ([`wec_asym::FRAME_ENCODE_OPS`] each). Session
//! windows map per-session backpressure onto the admission queue: a
//! session with `window` requests in flight gets a typed `Overloaded`
//! error frame for the overflow request — never a dropped byte — while
//! other sessions keep submitting. [`LifecyclePolicy`] adds opt-in
//! idle deadlines with `Ping`/`Pong` keepalive, malformed-frame strike
//! escalation, bounded per-connection send buffers with slow-client
//! backpressure, and per-session dedup windows;
//! [`Frontend::begin_shutdown`] / [`Frontend::shutdown`] implement
//! `Goaway`-announced graceful drain. See [`frontend`] for the exact
//! charge and windowing contract.
//!
//! ## Chaos
//!
//! [`WireFaultPlan`] + [`ChaosTransport`] inject byte-level faults —
//! short reads/writes, mid-frame disconnects, stall ticks, duplicated
//! delivery — as pure functions of `(seed, connection, byte offset)`:
//! bit-reproducible across runs and thread counts, CI-matrixable like
//! the shard-level [`FaultPlan`](crate::FaultPlan). The zero-knob plan
//! injects nothing and is behavior-identical to the bare transport. See
//! [`chaos`].
pub mod chaos;
pub mod client;
pub mod codec;
pub mod frontend;
pub mod transport;

pub use chaos::{ChaosConnector, ChaosStats, ChaosTransport, WireFaultPlan};
pub use client::{ClientStats, RetryPolicy, WireClient};
pub use codec::{
    encode_frame, Frame, FrameBuf, GoawayReason, WireFault, MAX_FRAME_BYTES, WIRE_VERSION,
};
pub use frontend::{ConnId, Frontend, FrontendStats, LifecyclePolicy, PumpReport};
pub use transport::{
    loopback_listener, loopback_pair, Connector, LoopbackConnector, LoopbackListener,
    LoopbackTransport, TcpTransport, Transport, TransportError,
};
