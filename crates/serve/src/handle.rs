//! The oracle-handle abstraction the serving layer dispatches through.
//!
//! [`OracleHandle`] is a copyable, read-only query view that produces a
//! charged answer for a canonical cache key.
//! [`ShardedServer`](crate::ShardedServer) and
//! [`StreamingServer`](crate::StreamingServer) are generic over one
//! handle per query family — connectivity (`Key = Vertex`,
//! `Answer = ComponentId`) and biconnectivity-class predicates
//! (`Key = BiconnQueryKey`, `Answer = bool`) — so a future oracle family
//! (e.g. a `KeccOracle` for k-edge connectivity) drops in by implementing
//! the trait, without touching dispatch, routing, caching, or recovery.
//!
//! The paper oracles implement it on plain shared borrows:
//! `&ConnectivityOracle`, `&StarOracle` and `&BiconnectivityOracle`.
//! Every query is a read-only function of the oracle's state, so a
//! borrow already is the copyable, `Sync`, one-word handle serving
//! needs. Routing belongs to the key, not to the oracle: see
//! [`StreamingServer::owner_shard`](crate::StreamingServer::owner_shard).
//!
//! A server "without" a biconnectivity oracle is a server whose predicate
//! handle is [`NoBiconn`] — the vacant implementation that reports itself
//! unattached, so every serving path rejects a predicate query with a
//! typed [`ServeError::UnsupportedQuery`](crate::ServeError) before
//! charging anything and never asks it for an answer.
//!
//! Connectivity handles that additionally support the mutation path
//! (folding a [`GraphDelta`] into an [`OverlayStore`]) implement
//! [`DeltaOracle`]; the epoch methods of `StreamingServer` are bounded on
//! it, so read-only oracle families still serve unchanged.

use std::hash::Hash;

use wec_asym::Ledger;
use wec_biconnectivity::{BiconnQueryKey, BiconnectivityOracle};
use wec_connectivity::{ComponentId, ConnectivityOracle, GraphDelta, OverlayStore, StarOracle};
use wec_graph::{GraphView, Vertex};

/// A copyable, read-only oracle query view the serving layer can route
/// and cache.
///
/// Implementations must be cheap to copy (handles are passed by value
/// into every shard worker) and `Sync` (shards query concurrently against
/// shared oracle state). Answering must be read-only in the model —
/// queries never charge asymmetric writes.
pub trait OracleHandle: Copy + Send + Sync {
    /// Canonical cache key: endpoint order normalized, `Eq + Hash` so
    /// result caches can index it.
    type Key: Copy + Eq + Hash + Send + Sync;
    /// The cached answer value.
    type Answer: Copy + Send + Sync;

    /// Charged answer for `key`, exactly what the underlying oracle
    /// charges for the same call — the miss path of result caches.
    /// Key types that preserve argument order (raw-constructed
    /// [`BiconnQueryKey`] variants) answer in that order, which is how
    /// the uncached paths keep their original-order charge sequences.
    fn answer_key(&self, led: &mut Ledger, key: Self::Key) -> Self::Answer;

    /// Whether `v` is a vertex of the graph this handle answers over: a
    /// pure bound check, charged nothing. Serving paths reject a query
    /// naming any other id before it reaches [`Self::answer_key`].
    fn is_vertex(&self, v: Vertex) -> bool;

    /// Whether a real oracle backs this handle. The vacant [`NoBiconn`]
    /// handle reports `false`, which is what turns a predicate query into
    /// a typed rejection on every serving path.
    fn attached(&self) -> bool {
        true
    }
}

impl<G: GraphView + Sync> OracleHandle for &ConnectivityOracle<'_, G> {
    type Key = Vertex;
    type Answer = ComponentId;

    fn answer_key(&self, led: &mut Ledger, key: Vertex) -> ComponentId {
        self.component(led, key)
    }

    fn is_vertex(&self, v: Vertex) -> bool {
        self.decomposition().graph().is_vertex(v)
    }
}

/// The star fast path serves through the same surface: dense-label reads
/// instead of `ρ` re-derivation and identical key/answer types, so a
/// [`StarOracle`] drops into `ShardedServer`/`StreamingServer` without
/// touching dispatch. (It is read-only — no [`DeltaOracle`] impl — so the
/// epoch mutation methods simply don't compile for it, by the bound.)
impl OracleHandle for &StarOracle {
    type Key = Vertex;
    type Answer = ComponentId;

    fn answer_key(&self, led: &mut Ledger, key: Vertex) -> ComponentId {
        self.component(led, key)
    }

    fn is_vertex(&self, v: Vertex) -> bool {
        (v as usize) < self.labels().len()
    }
}

impl<G: GraphView + Sync> OracleHandle for &BiconnectivityOracle<'_, G> {
    type Key = BiconnQueryKey;
    type Answer = bool;

    fn answer_key(&self, led: &mut Ledger, key: BiconnQueryKey) -> bool {
        BiconnectivityOracle::answer_key(self, led, key)
    }

    fn is_vertex(&self, v: Vertex) -> bool {
        self.decomposition().graph().is_vertex(v)
    }
}

/// The vacant predicate handle: the type-level "no biconnectivity oracle
/// attached". It has no graph and no answers: every serving path checks
/// [`OracleHandle::attached`] first and never calls
/// [`OracleHandle::answer_key`] on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoBiconn;

impl OracleHandle for NoBiconn {
    type Key = BiconnQueryKey;
    type Answer = bool;

    fn answer_key(&self, _led: &mut Ledger, _key: BiconnQueryKey) -> bool {
        unreachable!("serving paths check `attached()` before answering a predicate")
    }

    fn is_vertex(&self, _v: Vertex) -> bool {
        false
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

impl<G: GraphView + Sync> DeltaOracle for &ConnectivityOracle<'_, G> {
    fn extend_overlay(&self, led: &mut Ledger, store: &mut OverlayStore, delta: &GraphDelta) {
        ConnectivityOracle::extend_overlay(self, led, store, delta)
    }
}
