//! Charge constants for the dynamic-graph mutation path.
//!
//! PR 7 adds batched edge insertions (`GraphDelta` in `wec-connectivity`)
//! and epoch-snapshot serving (`wec-serve`). Every step of that path —
//! sampling endpoint components, unioning them, writing the changed
//! mappings into the versioned overlay store, and poisoning stale cache
//! entries at install — is
//! charged through the [`Ledger`](crate::Ledger) in units of the constants
//! below, exactly like the static build and the streaming cache charge
//! their own contracts. Centralizing them here keeps the mutation formulas
//! auditable from one place and lets the serving layer, the connectivity
//! crate, and the replay tests agree on prices without copying literals.
//!
//! The constants are all `1` (or `2` for the edge payload) by design: the
//! cost model counts *accesses*, and each named step is a single probe,
//! find, union, or table write. They are named rather than inlined so the
//! golden-cost tooling can point at a price when a formula drifts.

/// Words read per delta edge when the sample phase loads `(u, v)`.
pub const DELTA_EDGE_WORDS: u64 = 2;

/// Reads charged per component-id resolution at an epoch that remaps
/// anything, plus as much again per newer installed version a straggler
/// steps past; also per member word read from the reverse index while
/// staging. An identity epoch (epoch 0, or no merge yet) resolves for
/// free — which is what keeps the read-only serving path bit-identical
/// to its pre-mutation costs.
pub const OVERLAY_LOOKUP_READS: u64 = 1;

/// Operations charged per union-find `find` in the finish phase
/// (two per sampled delta edge: one per endpoint class).
pub const OVERLAY_FIND_OPS: u64 = 1;

/// Operations charged per *successful* union in the finish phase;
/// unions that discover an already-merged pair charge only their finds.
pub const OVERLAY_UNION_OPS: u64 = 1;

/// Asymmetric writes charged per version entry a delta writes into the
/// overlay store: one per base component id whose canonical id *this*
/// delta changes. With [`OVERLAY_INDEX_WRITES`] these are the only
/// asymmetric writes of staging, so the write bill is
/// `O(changed mappings)` — not `O(m)`, and not the cumulative remap
/// table: the write-efficiency story of the paper carried over to the
/// dynamic path.
pub const OVERLAY_ENTRY_WRITES: u64 = 1;

/// Asymmetric writes charged per class that loses its canonical id in a
/// delta: its old canonical id is appended to the winner's list in the
/// canonical → members reverse index.
pub const OVERLAY_INDEX_WRITES: u64 = 1;

/// Operations charged per resident cache slot scanned by the install-time
/// invalidation sweep (the staleness probe on the slot's cached id).
pub const INVALIDATE_SCAN_OPS: u64 = 1;

/// Asymmetric writes charged per cache entry actually removed by the
/// invalidation sweep (the slot teardown + index erase).
pub const INVALIDATE_ENTRY_WRITES: u64 = 1;

/// Operations charged for the epoch pointer swap itself when a staged
/// overlay is installed.
pub const EPOCH_INSTALL_OPS: u64 = 1;
