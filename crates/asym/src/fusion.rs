//! Charge constants for the fused pass.
//!
//! `wec_prims::fused::flat_collect` filters or flat-maps `n` slots in
//! **one** charged pass, with asymmetric writes only for the items it
//! emits. Its cost contract is priced in units of the constants below,
//! mirroring how [`mutation`](crate::mutation) and [`wire`](crate::wire)
//! centralize their paths' prices: one place to audit the formulas, and
//! names the golden-cost tooling can point at when a charge drifts.
//!
//! The contract the constants encode:
//!
//! * per **slot**, [`FUSED_SLOT_OPS`] (evaluating the slot function) plus
//!   [`FUSED_STAGE_OPS`] (iterating what it returned) unit operations,
//!   plus whatever asymmetric reads the slot function itself charges
//!   (reading a charged array, probing a mask) — and **never** an
//!   asymmetric write: intermediate results exist only as values inside
//!   the pass, so there is nothing to write;
//! * per **emitted item**, [`FUSED_STAGE_OPS`] unit operations and
//!   [`FUSED_EMIT_WRITES`] asymmetric writes — the *only* writes of the
//!   pass;
//! * per accounting **chunk**, [`FUSED_CONCAT_OPS`] for the sequential
//!   concatenation of per-chunk outputs (the same price the BFS frontier
//!   concat pays per chunk).
//!
//! Compare with the materialized equivalent: the two-pass filter writes
//! one offset per block and runs the predicate once per pass. Fusing
//! removes both, which is literally the paper's objective (fewer
//! asymmetric writes) applied at the systems level.

/// Unit operations charged per slot the fused pass scans (index
/// arithmetic plus the slot function call).
pub const FUSED_SLOT_OPS: u64 = 1;

/// Unit operations charged once per slot for iterating what the slot
/// function returned, and once more per item that iteration yields.
pub const FUSED_STAGE_OPS: u64 = 1;

/// Asymmetric writes charged per item the pass emits into its output —
/// the only writes of a fused pass.
pub const FUSED_EMIT_WRITES: u64 = 1;

/// Unit operations charged per accounting chunk for the sequential
/// concatenation of per-chunk outputs (chunk order, so the output
/// ordering and the charge are both schedule-independent).
pub const FUSED_CONCAT_OPS: u64 = 1;
