//! # wec-asym — the Asymmetric RAM / Asymmetric NP cost-model substrate
//!
//! The paper ("Implicit Decomposition for Write-Efficient Connectivity
//! Algorithms", Ben-David et al., IPDPS 2018) states every result in two
//! machine models:
//!
//! * the **Asymmetric RAM** model: an infinitely large *asymmetric* memory in
//!   which a write costs `ω ≫ 1` and a read costs 1, plus a small *symmetric*
//!   memory (a cache of `O(ω log n)` words) whose operations cost 1; and
//! * the **Asymmetric NP** (nested-parallel) model: the same memory costs on
//!   a fork-join DAG of tasks, where **work** is the sum of all operation
//!   costs and **depth** is the cost of the most expensive root-to-leaf path.
//!
//! This crate *is* that machine. Algorithms thread a [`Ledger`] through their
//! control flow and charge `read`/`write`/`op` next to each memory access;
//! [`Ledger::fork`] realizes the NP model's `Fork` instruction (executing via
//! `rayon::join` on a parallel ledger) while accounting work as the sum and
//! depth as the max of the two branches. The resulting counts are
//! **structural**:
//! they are identical whether the program runs on one thread or many, which
//! is what lets the benchmark harness reproduce the paper's model-cost
//! tables deterministically.
//!
//! What lives where:
//!
//! * [`Costs`], [`CostReport`] — raw counters and serializable summaries.
//! * [`Ledger`] — per-task accounting: sequential charges, fork-join
//!   composition, symmetric-memory high-water tracking.
//! * [`LedgerScope`], [`Ledger::scoped_par`], [`Ledger::join_many`] —
//!   the split/merge architecture hot passes use: per-worker
//!   counter scopes merged deterministically (work sums, depth maxes) so
//!   parallel and sequential execution produce bit-identical costs. The
//!   full contract is documented in the [`ledger`] module.
//! * [`FxHashMap`]/[`FxHashSet`] — a local implementation of the FxHash
//!   function (Rust perf-book recommendation) so no extra dependency is
//!   needed for fast integer-keyed tables.
//! * [`scratch`] — the per-worker buffer pools every symmetric-memory
//!   kernel reuses across queries (wall-clock only; no charge).

pub mod cost;
pub mod fusion;
pub mod hash;
pub mod ledger;
pub mod mutation;
pub mod report;
pub mod scratch;
pub mod wire;

pub use cost::Costs;
pub use fusion::{FUSED_CONCAT_OPS, FUSED_EMIT_WRITES, FUSED_SLOT_OPS, FUSED_STAGE_OPS};
pub use hash::{stable_combine, stable_mix64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ledger::{Ledger, LedgerScope};
pub use mutation::{
    DELTA_EDGE_WORDS, EPOCH_INSTALL_OPS, INVALIDATE_ENTRY_WRITES, INVALIDATE_SCAN_OPS,
    OVERLAY_ENTRY_WRITES, OVERLAY_FIND_OPS, OVERLAY_INDEX_WRITES, OVERLAY_LOOKUP_READS,
    OVERLAY_UNION_OPS,
};
pub use report::CostReport;
pub use wire::{
    DEDUP_INSERT_WRITES, DEDUP_PROBE_OPS, DRR_VISIT_OPS, FRAME_DECODE_OPS, FRAME_ENCODE_OPS,
    RECONNECT_BACKOFF_OPS, SESSION_BIND_OPS, TENANT_ADMIT_OPS,
};

/// Default write-cost multiplier used by examples and tests when nothing
/// more specific is requested. Projections for PCM/ReRAM in the paper's
/// Appendix A put the read/write gap between one and two orders of
/// magnitude; 16 sits comfortably in that band and has an integer √ω.
pub const DEFAULT_OMEGA: u64 = 16;
