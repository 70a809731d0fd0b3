//! The oracle-handle abstraction the serving layer dispatches through.
//!
//! PR 3–6 hard-wired [`ShardedServer`](crate::ShardedServer) to the two
//! paper oracles' concrete handle types. This module replaces that with a
//! small trait, [`OracleHandle`]: a copyable, read-only query view that
//! can (a) derive a stable routing hash from a canonical cache key and
//! (b) produce a charged answer for a key. `ShardedServer` and
//! [`StreamingServer`](crate::StreamingServer) are generic over one
//! handle per query family — connectivity (`Key = Vertex`,
//! `Answer = ComponentId`) and biconnectivity-class predicates
//! (`Key = BiconnQueryKey`, `Answer = bool`) — so a future oracle family
//! (e.g. a `KeccOracle` for k-edge connectivity) drops in by implementing
//! the trait, without touching dispatch, routing, caching, or recovery.
//!
//! A server "without" a biconnectivity oracle is a server whose predicate
//! handle is [`NoBiconn`] — the vacant implementation that reports itself
//! unattached, so every serving path rejects a predicate query with a
//! typed [`ServeError::UnsupportedQuery`](crate::ServeError) before
//! charging anything and never asks it for an answer.
//!
//! Connectivity handles that additionally support the PR-7 mutation path
//! (folding a [`GraphDelta`] into an [`OverlayStore`]) implement
//! [`DeltaOracle`]; the epoch methods of `StreamingServer` are bounded on
//! it, so read-only oracle families still serve unchanged.

use std::hash::Hash;

use wec_asym::Ledger;
use wec_biconnectivity::{BiconnQueryHandle, BiconnQueryKey};
use wec_connectivity::{ComponentId, ConnQueryHandle, GraphDelta, OverlayStore, StarQueryHandle};
use wec_graph::{GraphView, Vertex};

/// A copyable, read-only oracle query view the serving layer can route
/// and cache: the unified surface over `ConnQueryHandle`,
/// `BiconnQueryHandle`, and any future oracle family.
///
/// Implementations must be cheap to copy (handles are passed by value
/// into every shard worker) and `Sync` (shards query concurrently against
/// shared oracle state). Answering must be read-only in the model —
/// queries never charge asymmetric writes — and `route_hash` must be
/// **pinned**: golden cost files record charges that depend on key
/// placement, so changing a hash is a cost-contract break, not a detail.
pub trait OracleHandle: Copy + Send + Sync {
    /// Canonical cache key: endpoint order normalized, `Eq + Hash` so
    /// result caches can index it.
    type Key: Copy + Eq + Hash + Send + Sync;
    /// The cached answer value.
    type Answer: Copy + Send + Sync;

    /// Stable routing hash of a canonical key (pure compute; the
    /// streaming layer charges its own per-query routing operation).
    fn route_hash(&self, key: Self::Key) -> u64;

    /// Charged answer for `key`, exactly what the underlying oracle
    /// charges for the same call — the miss path of result caches.
    /// Key types that preserve argument order (raw-constructed
    /// [`BiconnQueryKey`] variants) answer in that order, which is how
    /// the uncached paths keep their original-order charge sequences.
    fn answer_key(&self, led: &mut Ledger, key: Self::Key) -> Self::Answer;

    /// Whether a real oracle backs this handle. The vacant [`NoBiconn`]
    /// handle reports `false`, which is what turns a predicate query into
    /// a typed rejection on every serving path.
    fn attached(&self) -> bool {
        true
    }
}

impl<G: GraphView + Sync> OracleHandle for ConnQueryHandle<'_, '_, G> {
    type Key = Vertex;
    type Answer = ComponentId;

    #[inline]
    fn route_hash(&self, key: Vertex) -> u64 {
        ConnQueryHandle::route_hash(self, key)
    }

    fn answer_key(&self, led: &mut Ledger, key: Vertex) -> ComponentId {
        self.component(led, key)
    }
}

/// The star fast path serves through the same surface: dense-label reads
/// instead of `ρ` re-derivation, identical key/answer types and the same
/// pinned routing hash, so a [`StarOracle`](wec_connectivity::StarOracle)
/// drops into `ShardedServer`/`StreamingServer` without touching dispatch.
/// (It is read-only — no [`DeltaOracle`] impl — so the epoch mutation
/// methods simply don't compile for it, by the bound.)
impl OracleHandle for StarQueryHandle<'_> {
    type Key = Vertex;
    type Answer = ComponentId;

    #[inline]
    fn route_hash(&self, key: Vertex) -> u64 {
        StarQueryHandle::route_hash(self, key)
    }

    fn answer_key(&self, led: &mut Ledger, key: Vertex) -> ComponentId {
        self.component(led, key)
    }
}

impl<G: GraphView + Sync> OracleHandle for BiconnQueryHandle<'_, '_, G> {
    type Key = BiconnQueryKey;
    type Answer = bool;

    #[inline]
    fn route_hash(&self, key: BiconnQueryKey) -> u64 {
        key.route_hash()
    }

    fn answer_key(&self, led: &mut Ledger, key: BiconnQueryKey) -> bool {
        BiconnQueryHandle::answer_key(self, led, key)
    }
}

/// The vacant predicate handle: the type-level "no biconnectivity oracle
/// attached". Routing still works (the canonical key hashes itself, so
/// predicate queries keep a stable owner shard for shedding/rejection
/// accounting), but it has no answers: every serving path checks
/// [`OracleHandle::attached`] first and never calls
/// [`OracleHandle::answer_key`] on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoBiconn;

impl OracleHandle for NoBiconn {
    type Key = BiconnQueryKey;
    type Answer = bool;

    #[inline]
    fn route_hash(&self, key: BiconnQueryKey) -> u64 {
        key.route_hash()
    }

    fn answer_key(&self, _led: &mut Ledger, _key: BiconnQueryKey) -> bool {
        unreachable!("serving paths check `attached()` before answering a predicate")
    }

    fn attached(&self) -> bool {
        false
    }
}

/// A connectivity handle that supports the batched-insertion mutation
/// path: folding a [`GraphDelta`] into the staged epoch of an
/// [`OverlayStore`], writing only the mappings the delta changes. See
/// `wec_connectivity::delta` for the exact charge contract.
/// `StreamingServer`'s epoch methods are bounded on this trait, so
/// read-only oracle families need not implement it.
pub trait DeltaOracle: OracleHandle<Key = Vertex, Answer = ComponentId> {
    /// ConnectIt-style sample-then-finish fold; costs are bit-identical
    /// across `WEC_THREADS`.
    fn extend_overlay(&self, led: &mut Ledger, store: &mut OverlayStore, delta: &GraphDelta);
}

impl<G: GraphView + Sync> DeltaOracle for ConnQueryHandle<'_, '_, G> {
    fn extend_overlay(&self, led: &mut Ledger, store: &mut OverlayStore, delta: &GraphDelta) {
        ConnQueryHandle::extend_overlay(self, led, store, delta)
    }
}
