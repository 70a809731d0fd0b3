//! Charge constants for the wire front end and multi-tenant admission.
//!
//! PR 8 gives the streaming server a byte protocol (`wec-serve`'s `wire`
//! module) and per-tenant fair-share admission. Both sit *in front of* the
//! dispatch path whose prices are pinned by `costs_golden.json`, so their
//! own work is charged through the same [`Ledger`](crate::Ledger)
//! discipline in units of the constants below — and only on the paths that
//! actually use them: a server with no tenants configured and no frontend
//! attached executes the exact pre-PR-8 charge sequence.
//!
//! As with the [`mutation`](crate::mutation) constants, every named step is
//! a single probe, table lookup, or bounded decode, so the constants are
//! all `1`; they are named rather than inlined so the replay tests and the
//! golden-cost tooling can point at a price when a formula drifts.

/// Unit operations charged per submission when tenancy is active: the
/// tenant-table lookup plus the quota check (one bounded probe of the
/// per-tenant admission record). Charged whether the submission is
/// admitted or rejected — the check *is* the work. Inactive tenancy (no
/// tenants configured, FIFO composition) charges nothing.
pub const TENANT_ADMIT_OPS: u64 = 1;

/// Unit operations charged per tenant queue the deficit-round-robin
/// composer visits while assembling one micro-batch (replenishing the
/// deficit and inspecting the queue head). The visit count is a pure
/// function of the submission sequence, so the composition bill is
/// bit-identical across `WEC_THREADS`.
pub const DRR_VISIT_OPS: u64 = 1;

/// Unit operations charged per wire frame the frontend decodes (header
/// validation plus the bounded payload parse).
pub const FRAME_DECODE_OPS: u64 = 1;

/// Unit operations charged per wire frame the frontend encodes (header
/// plus the bounded payload serialization).
pub const FRAME_ENCODE_OPS: u64 = 1;

/// Unit operations charged when a `Hello` binds or rebinds a session
/// (one session-table probe plus the connection pointer swap). A refused
/// `Hello` binds nothing and does not pay this.
pub const SESSION_BIND_OPS: u64 = 1;

/// Unit operations charged per `Request` on a bound session for probing
/// its dedup window (one bounded hash-table probe deciding fresh vs
/// suppressed vs replayed).
pub const DEDUP_PROBE_OPS: u64 = 1;

/// Asymmetric-memory writes charged per fresh dedup-window entry (the
/// correlation-id record that makes resubmission idempotent). Like the
/// serving layer's cache-insert charge it is a write, not an op: the
/// window survives reconnects, so it lives on the expensive side of the
/// asymmetry.
pub const DEDUP_INSERT_WRITES: u64 = 1;

/// Unit operations charged per reconnect attempt *unit* of the wire
/// client's exponential backoff: attempt `a` (1-based) charges
/// `RECONNECT_BACKOFF_OPS << (a − 1)` operations before redialing, so
/// the waiting is priced in model time exactly like the recovery
/// ladder's backoff in the serving layer.
pub const RECONNECT_BACKOFF_OPS: u64 = 1;
