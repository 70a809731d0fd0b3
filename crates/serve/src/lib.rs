//! # wec-serve — sharded batch-query serving over the connectivity oracles
//!
//! The paper's asymmetry cuts one way: oracle *construction* is
//! write-expensive, but *queries* are read-only and cheap (`O(√ω)` or
//! `O(ω)` expected operations, **zero** asymmetric writes). That makes the
//! query path embarrassingly parallel — the natural serving architecture is
//! a batch front end that fans a query batch out across shards, answers
//! every shard concurrently against shared read-only oracle state, and
//! merges the accounting deterministically.
//!
//! [`ShardedServer`] is that front end. It is generic over the
//! [`OracleHandle`] trait — one handle per query family: connectivity
//! (`Key = Vertex`, `Answer = ComponentId`) and biconnectivity-class
//! predicates (`Key = BiconnQueryKey`, `Answer = bool`) — and serves
//! [`Query`] batches, returning one [`ServeResult`] per query **in input
//! order**. The paper oracles serve as plain shared borrows
//! (`&ConnectivityOracle`, `&StarOracle`, `&BiconnectivityOracle`
//! implement the trait); a server without a biconnectivity oracle
//! carries the vacant [`NoBiconn`] handle (the default type parameter),
//! and a future oracle family drops in by implementing [`OracleHandle`]
//! without touching dispatch. A query naming a vertex outside the graph
//! is rejected with [`ServeError::UnsupportedQuery`] on every path,
//! before any charge.
//! [`FullServer`] / [`FullStreamingServer`] name the fully-equipped
//! conn+biconn configuration.
//!
//! ## The shard/merge cost contract
//!
//! Serving rides on the split/merge ledger architecture (see the contract
//! in `wec_asym`'s `ledger` module): a batch of `n` queries over `s` shards
//! runs as one [`Ledger::scoped_par`] pass with chunk grain `⌈n/s⌉`, so
//! each shard charges its own detached [`wec_asym::LedgerScope`] and the
//! scopes merge in **shard index order** via `join_many` — never in
//! execution order. Consequently, for a fixed shard count the merged
//! `Costs`, depth, and symmetric-memory peak are **bit-identical** whether
//! the shards ran on one thread or many. (How many shards one forked task
//! serves back-to-back is `scoped_par`'s execution grain, sized from the
//! thread count — on a machine with fewer threads than shards the dispatch
//! does not fork one closure per shard — and is invisible to all of the
//! charges below by the split/merge contract.)
//!
//! Exactly three kinds of charges occur, all of them accounted:
//!
//! 1. each query's own oracle charges (identical to calling the oracle
//!    directly with the same ledger);
//! 2. [`QUERY_WORDS`] asymmetric reads per query for scanning the batch
//!    input, charged as one bulk read per shard;
//! 3. `scoped_par`'s documented scheduler bookkeeping:
//!    `chunks − 1` unit operations of work and `⌈log₂ chunks⌉` depth,
//!    where `chunks =` [`shard_chunks`]`(n, s)`.
//!
//! So batch serving with `s` shards charges exactly the `Costs` of
//! sequential one-by-one serving (shards = 1) plus the `chunks − 1`
//! bookkeeping operations — a delta that is a pure function of `(n, s)`.
//! `tests/serving.rs` at the workspace root enforces both equalities across
//! shard counts and thread counts.
//!
//! ## Streaming
//!
//! Point-query *streams* (rather than pre-formed batches) enter through
//! the [`streaming`] module: [`StreamingServer`] coalesces submissions
//! into micro-batches under an [`AdmissionPolicy`], routes each query to
//! its owner shard (a pinned hash of the canonical cache key, falling
//! back to a contiguous partition for batches skewed past
//! [`AdmissionPolicy::skew_factor`]), serves it against that shard's
//! result cache under deterministic CLOCK second-chance eviction, and
//! delivers answers in submission order. The exact
//! routing/hit/miss/eviction cost contract is documented in the
//! [`streaming`] module docs.
//!
//! ## Mutations: epoch-snapshot serving
//!
//! The graph can mutate *while serving*: a
//! [`GraphDelta`] of batched edge
//! insertions is folded (ConnectIt-style sample-then-finish, every
//! union/find charged) into the next **epoch** of one versioned
//! [`OverlayStore`], writing only the component-id mappings it changes,
//! while the current epoch keeps answering. Installing the
//! staged epoch is one charged pointer swap plus a priced
//! cache-invalidation sweep that poisons exactly the component memos
//! whose canonical id changed. Queries in flight across an install
//! resolve with their own epoch's answers. See the [`streaming`] and
//! [`epoch`] module docs for the lifecycle and the exact mutation cost
//! formulas.
//!
//! ## Robustness
//!
//! The streaming front end survives faults instead of crashing on them:
//! shard panics are isolated behind a `catch_unwind` boundary, the
//! panicking shard is quarantined (cache reset cold, poisoned lock
//! recovered) and its queries are recomputed through a degraded uncached
//! path with an exact charged recovery cost, a per-shard circuit breaker
//! ([`fault`] module) routes around repeat offenders, and queue overflow
//! can shed load with a typed [`ServeError::Overloaded`] instead of
//! growing without bound. Deterministic fault *injection* for tests and
//! benchmarks lives in [`fault::FaultPlan`]; see that module for the
//! fault model.

mod cache;
pub mod epoch;
pub mod fault;
pub mod handle;
pub mod streaming;
pub mod tenant;
pub mod wire;

pub use epoch::EpochStats;
pub use fault::{BreakerState, FaultPlan, RecoveryPolicy, RobustnessStats, ShardHealth};
pub use handle::{DeltaOracle, NoBiconn, OracleHandle};
pub use streaming::{
    AdmissionPolicy, AdmissionPolicyBuilder, CacheStats, Overflow, StreamingServer, Ticket,
    CACHE_INSERT_WRITES, CACHE_PROBE_READS, CLOCK_SWEEP_OPS, CLOCK_TOUCH_OPS, ROUTE_HASH_OPS,
};
pub use tenant::{FairShare, TenancyStats, TenantId, TenantSpec, TenantStats};
pub use wire::{
    encode_frame, loopback_listener, loopback_pair, ChaosConnector, ChaosStats, ChaosTransport,
    ClientStats, ConnId, Connector, Frame, FrameBuf, Frontend, FrontendStats, GoawayReason,
    LifecyclePolicy, LoopbackConnector, LoopbackListener, LoopbackTransport, PumpReport,
    RetryPolicy, TcpTransport, Transport, TransportError, WireClient, WireFault, WireFaultPlan,
    MAX_FRAME_BYTES, WIRE_VERSION,
};
// The mutation- and wire-path charge constants, re-exported beside the
// serving ones so replay tests and benches price everything from one
// import surface.
pub use wec_asym::{
    DEDUP_INSERT_WRITES, DEDUP_PROBE_OPS, DRR_VISIT_OPS, EPOCH_INSTALL_OPS, FRAME_DECODE_OPS,
    FRAME_ENCODE_OPS, INVALIDATE_ENTRY_WRITES, INVALIDATE_SCAN_OPS, RECONNECT_BACKOFF_OPS,
    SESSION_BIND_OPS, TENANT_ADMIT_OPS,
};
pub use wec_connectivity::{GraphDelta, OverlayStore, OverlayView};

use wec_asym::Ledger;
use wec_biconnectivity::{BiconnQueryKey, BiconnectivityOracle};
use wec_connectivity::{ComponentId, ConnectivityOracle};
use wec_graph::Vertex;

/// The fully-equipped sharded server over the two paper oracles.
pub type FullServer<'o, 'g, G> =
    ShardedServer<&'o ConnectivityOracle<'g, G>, &'o BiconnectivityOracle<'g, G>>;

/// The fully-equipped streaming front end over the two paper oracles.
pub type FullStreamingServer<'o, 'g, G> =
    StreamingServer<&'o ConnectivityOracle<'g, G>, &'o BiconnectivityOracle<'g, G>>;

/// Asymmetric-memory words charged for reading one [`Query`] out of a
/// batch: one word packs the discriminant with the first vertex, the
/// second holds the other vertex.
pub const QUERY_WORDS: u64 = 2;

/// A single point query against the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Are `u` and `v` in the same connected component?
    Connected(Vertex, Vertex),
    /// Which component is `v` in?
    Component(Vertex),
    /// Are `u` and `v` 2-edge-connected? Requires a biconnectivity oracle.
    TwoEdgeConnected(Vertex, Vertex),
    /// Do `u` and `v` share a biconnected component? Requires a
    /// biconnectivity oracle.
    Biconnected(Vertex, Vertex),
}

/// The answer to one [`Query`], same position in the output batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Answer {
    /// Answer to [`Query::Connected`].
    Connected(bool),
    /// Answer to [`Query::Component`].
    Component(ComponentId),
    /// Answer to [`Query::TwoEdgeConnected`].
    TwoEdgeConnected(bool),
    /// Answer to [`Query::Biconnected`].
    Biconnected(bool),
}

impl Answer {
    /// The boolean payload, for the three predicate query kinds.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Answer::Connected(b) | Answer::TwoEdgeConnected(b) | Answer::Biconnected(b) => Some(b),
            Answer::Component(_) => None,
        }
    }
}

/// Typed failure of one query or submission on the streaming path.
///
/// The streaming server never loses a ticket: a query that cannot be
/// answered is *delivered*, in submission order, as an `Err` of this type.
/// Only admission itself —
/// [`StreamingServer::submit`](streaming::StreamingServer::submit) under
/// [`Overflow::Shed`], or a tenant rejection
/// ([`ServeError::UnknownTenant`] / [`ServeError::QuotaExceeded`]) — can
/// fail before a ticket is issued. On the wire the same type travels as
/// the error-frame payload, so clients see one error surface end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeError {
    /// The query cannot be answered by this server: it names a vertex
    /// outside the served graph, or it is a biconnectivity-class query
    /// and no biconnectivity oracle is attached. Neither charges any
    /// oracle work. An out-of-range query is refused at admission
    /// ([`StreamingServer::submit`](streaming::StreamingServer::submit)
    /// consumes no ticket; on the wire the request gets an error frame)
    /// and in its result slot on the batch paths
    /// ([`ShardedServer::serve`], [`ShardedServer::try_answer_one`]). A
    /// predicate without an oracle is delivered in its result slot on
    /// every path, the streaming one through the normal answer stream.
    UnsupportedQuery(Query),
    /// The submission was shed: the queue sits at the policy's
    /// `max_queue` bound and the overflow policy is
    /// [`Overflow::Shed`] — or, on the wire, the connection's in-flight
    /// window is full. No ticket was consumed; resubmitting after
    /// draining is safe.
    Overloaded {
        /// Queue depth at rejection time.
        queue_len: usize,
        /// The bound that was hit.
        max_queue: usize,
    },
    /// The submission named a [`TenantId`] the admission policy does not
    /// register. Only possible with tenancy active; no ticket was
    /// consumed.
    UnknownTenant(TenantId),
    /// The tenant's queued submissions sit at its
    /// [`TenantSpec::quota`]; the submission was rejected before a
    /// ticket was issued. Resubmitting after the tenant's backlog drains
    /// is safe.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: TenantId,
        /// The quota that was hit.
        quota: u32,
    },
    /// A wire frame failed to decode (unknown kind, bad payload, rejected
    /// credential, …). The typed fault says what was wrong; the
    /// connection stays usable — a malformed frame is answered, never
    /// dropped.
    MalformedFrame(WireFault),
    /// A wire frame carried an unsupported protocol version (the retired
    /// version 1 included); the peer must speak [`WIRE_VERSION`].
    ProtocolVersion {
        /// The version byte the peer sent.
        got: u8,
    },
    /// The server announced `Goaway` and is draining: requests already
    /// in flight will still be answered, but no new request is admitted
    /// on this connection. Resubmitting on a fresh connection (or to
    /// another server) is safe — no ticket was consumed.
    ShuttingDown,
    /// The oracle panicked answering this query, and panicked again on the
    /// degraded uncached recompute that recovers a failed shard chunk. The
    /// query's slot fails with this error; the server and every other
    /// query in the chunk carry on. A deterministic fault fails the same
    /// query again if it is resubmitted.
    OracleFault(Query),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ServeError::UnsupportedQuery(q) => {
                write!(
                    f,
                    "unsupported query {q:?}: vertex out of range or no biconnectivity oracle attached"
                )
            }
            ServeError::Overloaded {
                queue_len,
                max_queue,
            } => write!(f, "overloaded: queue {queue_len} at max_queue {max_queue}"),
            ServeError::UnknownTenant(t) => write!(f, "unknown {t}"),
            ServeError::QuotaExceeded { tenant, quota } => {
                write!(f, "{tenant} over quota {quota}")
            }
            ServeError::MalformedFrame(fault) => write!(f, "malformed frame: {fault}"),
            ServeError::ProtocolVersion { got } => {
                write!(
                    f,
                    "protocol version {got} unsupported (speak {WIRE_VERSION})"
                )
            }
            ServeError::ShuttingDown => {
                write!(f, "server shutting down: connection is draining")
            }
            ServeError::OracleFault(q) => {
                write!(
                    f,
                    "oracle fault: answering {q:?} panicked, also on recovery"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One delivered streaming result: the answer, or the typed reason it
/// could not be produced.
pub type ServeResult = Result<Answer, ServeError>;

/// Number of `scoped_par` chunks a batch of `n` queries over `s` shards
/// produces: `⌈n / ⌈n/s⌉⌉` (0 for an empty batch). Exposed because the
/// serving cost contract's bookkeeping term (`chunks − 1` operations) is a
/// function of this value.
pub fn shard_chunks(n: usize, shards: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let grain = n.div_ceil(shards.max(1));
    n.div_ceil(grain)
}

/// A sharded batch-query server over shared read-only oracle state.
///
/// Construction is free: the server holds only copyable borrowed handles
/// and a shard count. See the module docs for the cost contract.
///
/// ```
/// # use wec_asym::Ledger;
/// # use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
/// # use wec_graph::{gen, Priorities};
/// use wec_serve::{shard_chunks, Answer, Query, ShardedServer, QUERY_WORDS};
///
/// # let g = gen::grid(6, 6);
/// # let pri = Priorities::random(36, 1);
/// # let verts: Vec<u32> = (0..36).collect();
/// # let mut led = Ledger::new(16);
/// # let oracle = ConnectivityOracle::build(
/// #     &mut led, &g, &pri, &verts, 4, 1, OracleBuildOpts::default());
/// let server = ShardedServer::new(&oracle, 3);
/// let batch = vec![Query::Connected(0, 35), Query::Component(7)];
///
/// // Sharded serving charges exactly the one-by-one costs plus the
/// // documented input-scan reads and split bookkeeping — and no writes.
/// let mut batch_led = Ledger::new(16);
/// let results = server.serve(&mut batch_led, &batch);
/// assert_eq!(results[0], Ok(Answer::Connected(true)), "grid is connected");
/// let mut one = Ledger::new(16);
/// for &q in &batch {
///     assert!(server.try_answer_one(&mut one, q).is_ok());
/// }
/// let expect_reads = one.costs().asym_reads + batch.len() as u64 * QUERY_WORDS;
/// let expect_ops = one.costs().sym_ops + shard_chunks(batch.len(), 3) as u64 - 1;
/// assert_eq!(batch_led.costs().asym_reads, expect_reads);
/// assert_eq!(batch_led.costs().sym_ops, expect_ops);
/// assert_eq!(batch_led.costs().asym_writes, 0, "queries never write");
/// ```
pub struct ShardedServer<C, B = NoBiconn> {
    conn: C,
    bicon: B,
    shards: usize,
}

impl<C> ShardedServer<C, NoBiconn>
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
{
    /// A server answering connectivity queries over `conn`, fanning each
    /// batch out over `shards` shards (at least 1). Predicate queries are
    /// unsupported until [`ShardedServer::with_biconnectivity`] attaches
    /// a handle for them.
    pub fn new(conn: C, shards: usize) -> Self {
        ShardedServer {
            conn,
            bicon: NoBiconn,
            shards: shards.max(1),
        }
    }
}

impl<C, B> ShardedServer<C, B>
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    /// Additionally serve [`Query::TwoEdgeConnected`] / [`Query::Biconnected`]
    /// from a predicate oracle over the same graph. Type-state: the
    /// predicate handle type changes, so the old server value is consumed.
    pub fn with_biconnectivity<B2>(self, bicon: B2) -> ShardedServer<C, B2>
    where
        B2: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
    {
        ShardedServer {
            conn: self.conn,
            bicon,
            shards: self.shards,
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The connectivity query handle this server dispatches to.
    pub fn conn_handle(&self) -> C {
        self.conn
    }

    /// The predicate query handle, when a real one is attached
    /// ([`OracleHandle::attached`]; `None` for [`NoBiconn`]).
    pub fn bicon_handle(&self) -> Option<B> {
        self.bicon.attached().then_some(self.bicon)
    }

    /// Whether every endpoint of `q` is a vertex of the served graph: one
    /// uncharged [`OracleHandle::is_vertex`] check per endpoint, through
    /// the connectivity handle (both handles serve the same graph).
    pub(crate) fn names_vertices(&self, q: Query) -> bool {
        match q {
            Query::Component(v) => self.conn.is_vertex(v),
            Query::Connected(u, v) | Query::TwoEdgeConnected(u, v) | Query::Biconnected(u, v) => {
                self.conn.is_vertex(u) && self.conn.is_vertex(v)
            }
        }
    }

    /// Answer one query exactly as a shard worker would, minus the batch
    /// input-scan read ([`QUERY_WORDS`]) and scheduler bookkeeping, or
    /// return [`ServeError::UnsupportedQuery`] when the query names a
    /// vertex outside the graph or a biconnectivity-class query reaches a
    /// server without a biconnectivity oracle. The rejection charges
    /// nothing: it is decided before any oracle work.
    ///
    /// Predicate keys are built with the **caller's** endpoint order (raw
    /// variants, not the canonicalizing constructors), so the charge
    /// sequence matches a direct oracle call with the same arguments —
    /// canonical-order answering belongs to the cache-miss path.
    pub fn try_answer_one(&self, led: &mut Ledger, q: Query) -> ServeResult {
        // The identity epoch resolves every id for free.
        self.try_answer_one_in(led, OverlayStore::new().view(0), q)
    }

    /// [`ShardedServer::try_answer_one`] against an epoch snapshot:
    /// connectivity answers resolve through `overlay` (charging
    /// [`OverlayView::canonical`]'s lookup per resolution; an identity
    /// epoch charges nothing, keeping the read-only path bit-identical).
    /// Predicate queries answer **base graph** semantics unchanged — the
    /// insertion-only mutation model does not re-derive biconnectivity, a
    /// documented limitation.
    pub fn try_answer_one_in(
        &self,
        led: &mut Ledger,
        overlay: OverlayView<'_>,
        q: Query,
    ) -> ServeResult {
        if !self.names_vertices(q) {
            return Err(ServeError::UnsupportedQuery(q));
        }
        Ok(match q {
            Query::Connected(u, v) => {
                // Two component resolutions; the comparison is free.
                let a = self.conn.answer_key(led, u);
                let a = overlay.canonical(led, a);
                let b = self.conn.answer_key(led, v);
                let b = overlay.canonical(led, b);
                Answer::Connected(a == b)
            }
            Query::Component(v) => {
                let id = self.conn.answer_key(led, v);
                Answer::Component(overlay.canonical(led, id))
            }
            Query::TwoEdgeConnected(..) | Query::Biconnected(..) if !self.bicon.attached() => {
                return Err(ServeError::UnsupportedQuery(q));
            }
            Query::TwoEdgeConnected(u, v) => Answer::TwoEdgeConnected(
                self.bicon
                    .answer_key(led, BiconnQueryKey::TwoEdgeConnected(u, v)),
            ),
            Query::Biconnected(u, v) => Answer::Biconnected(
                self.bicon
                    .answer_key(led, BiconnQueryKey::Biconnected(u, v)),
            ),
        })
    }

    /// Serve a batch: partition it into [`shard_chunks`]`(batch.len(),
    /// shards)` contiguous chunks, answer every chunk on its own ledger
    /// scope (in parallel when `led` is parallel; the scheduler may run
    /// several chunks per forked task on thread-starved machines without
    /// changing any charge), and return the results in input order. A
    /// query naming a vertex outside the graph, or a predicate query on a
    /// server without a biconnectivity oracle, yields
    /// [`ServeError::UnsupportedQuery`] and charges only its share of the
    /// input scan.
    pub fn serve(&self, led: &mut Ledger, batch: &[Query]) -> Vec<ServeResult> {
        if batch.is_empty() {
            return Vec::new();
        }
        let grain = batch.len().div_ceil(self.shards);
        let parts: Vec<Vec<ServeResult>> = led.scoped_par(batch.len(), grain, &|r, scope| {
            // The shard's input scan as one bulk charge.
            scope.read(r.len() as u64 * QUERY_WORDS);
            let mut out = Vec::with_capacity(r.len());
            for &q in &batch[r] {
                out.push(self.try_answer_one(scope.ledger(), q));
            }
            out
        });
        let mut answers = Vec::with_capacity(batch.len());
        for p in parts {
            answers.extend(p);
        }
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_asym::Costs;
    use wec_biconnectivity::oracle::build_biconnectivity_oracle;
    use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
    use wec_core::BuildOpts;
    use wec_graph::gen;
    use wec_graph::{Csr, Priorities};

    const OMEGA: u64 = 16;

    fn build_graph() -> Csr {
        gen::disjoint_union(&[
            &gen::bounded_degree_connected(300, 4, 60, 3),
            &gen::grid(5, 6),
        ])
    }

    fn serve_all(shards: usize, parallel: bool) -> (Vec<ServeResult>, Costs, u64) {
        let g = build_graph();
        let n = g.n();
        let pri = Priorities::random(n, 5);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new(OMEGA);
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 4, 9, OracleBuildOpts::default());
        let batch: Vec<Query> = (0..n as u32)
            .map(|v| {
                if v % 3 == 0 {
                    Query::Component(v)
                } else {
                    Query::Connected(v, (v * 7 + 1) % n as u32)
                }
            })
            .collect();
        let server = ShardedServer::new(&oracle, shards);
        let mut qled = if parallel {
            Ledger::new(OMEGA)
        } else {
            Ledger::sequential(OMEGA)
        };
        let answers = server.serve(&mut qled, &batch);
        (answers, qled.costs(), qled.depth())
    }

    #[test]
    fn answers_in_input_order_and_match_one_by_one() {
        let g = build_graph();
        let n = g.n();
        let pri = Priorities::random(n, 5);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new(OMEGA);
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 4, 9, OracleBuildOpts::default());
        let batch: Vec<Query> = (0..n as u32)
            .map(|v| Query::Connected(v, (v + 13) % n as u32))
            .collect();
        let server = ShardedServer::new(&oracle, 5);
        let mut qled = Ledger::new(OMEGA);
        let got = server.serve(&mut qled, &batch);
        assert_eq!(got.len(), batch.len());
        for (i, q) in batch.iter().enumerate() {
            let Query::Connected(u, v) = *q else {
                unreachable!()
            };
            let mut one = Ledger::new(OMEGA);
            assert_eq!(
                got[i],
                Ok(Answer::Connected(oracle.connected(&mut one, u, v))),
                "answer {i} out of order or wrong"
            );
        }
    }

    #[test]
    fn costs_bit_identical_parallel_vs_sequential() {
        for shards in [1usize, 3, 8] {
            let (a_ans, a_costs, a_depth) = serve_all(shards, true);
            let (b_ans, b_costs, b_depth) = serve_all(shards, false);
            assert_eq!(a_ans, b_ans, "answers differ (shards={shards})");
            assert_eq!(a_costs, b_costs, "costs differ (shards={shards})");
            assert_eq!(a_depth, b_depth, "depth differs (shards={shards})");
        }
    }

    #[test]
    fn shard_count_changes_costs_only_by_documented_bookkeeping() {
        let (base_ans, base_costs, _) = serve_all(1, true);
        let n = base_ans.len();
        for shards in [2usize, 7] {
            let (ans, costs, _) = serve_all(shards, true);
            assert_eq!(ans, base_ans, "answers differ (shards={shards})");
            let extra = shard_chunks(n, shards) as u64 - 1;
            let mut expect = base_costs;
            expect.sym_ops += extra;
            assert_eq!(
                costs, expect,
                "costs differ beyond split bookkeeping (shards={shards})"
            );
        }
    }

    #[test]
    fn empty_batch_charges_nothing() {
        let g = gen::grid(3, 3);
        let pri = Priorities::random(9, 1);
        let verts: Vec<Vertex> = (0..9).collect();
        let mut led = Ledger::new(OMEGA);
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 2, 1, OracleBuildOpts::default());
        let server = ShardedServer::new(&oracle, 4);
        let mut qled = Ledger::new(OMEGA);
        assert!(server.serve(&mut qled, &[]).is_empty());
        assert_eq!(qled.costs(), Costs::ZERO);
    }

    #[test]
    fn biconnectivity_queries_served_when_attached() {
        let g = gen::bounded_degree_connected(150, 4, 40, 8);
        let n = g.n();
        let pri = Priorities::random(n, 8);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new(OMEGA);
        let conn =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 4, 2, OracleBuildOpts::default());
        let bic =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 4, 2, BuildOpts::default());
        let server = ShardedServer::new(&conn, 3).with_biconnectivity(&bic);
        let batch: Vec<Query> = (0..60u32)
            .map(|i| match i % 4 {
                0 => Query::Connected(i, (i + 31) % n as u32),
                1 => Query::Component(i),
                2 => Query::TwoEdgeConnected(i, (i + 17) % n as u32),
                _ => Query::Biconnected(i, (i + 5) % n as u32),
            })
            .collect();
        let mut qled = Ledger::new(OMEGA);
        let answers = server.serve(&mut qled, &batch);
        let w0 = qled.costs().asym_writes;
        for (q, a) in batch.iter().zip(&answers) {
            let mut one = Ledger::new(OMEGA);
            assert_eq!(*a, server.try_answer_one(&mut one, *q));
            assert!(a.is_ok());
            assert_eq!(one.costs().asym_writes, 0, "queries must not write");
        }
        assert_eq!(qled.costs().asym_writes, w0, "serving must not write");
    }

    #[test]
    fn serve_types_predicates_without_an_oracle() {
        let g = gen::grid(3, 3);
        let pri = Priorities::random(9, 1);
        let verts: Vec<Vertex> = (0..9).collect();
        let mut led = Ledger::new(OMEGA);
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 2, 1, OracleBuildOpts::default());
        let server = ShardedServer::new(&oracle, 2);
        let batch = [
            Query::Biconnected(0, 5),
            Query::Connected(0, 8),
            Query::TwoEdgeConnected(1, 2),
            Query::Component(4),
        ];
        let mut qled = Ledger::new(OMEGA);
        let got = server.serve(&mut qled, &batch);
        let mut one = Ledger::new(OMEGA);
        for (&q, r) in batch.iter().zip(&got) {
            match q {
                Query::TwoEdgeConnected(..) | Query::Biconnected(..) => {
                    assert_eq!(*r, Err(ServeError::UnsupportedQuery(q)));
                }
                _ => {
                    assert!(r.is_ok(), "{q:?} still answers");
                    assert_eq!(*r, server.try_answer_one(&mut one, q));
                }
            }
        }
        // Rejections charge only their share of the input scan.
        let mut expect = one.costs();
        expect.asym_reads += batch.len() as u64 * QUERY_WORDS;
        expect.sym_ops += shard_chunks(batch.len(), 2) as u64 - 1;
        assert_eq!(qled.costs(), expect);
    }

    #[test]
    fn try_answer_one_types_the_missing_oracle() {
        let g = gen::grid(3, 3);
        let pri = Priorities::random(9, 1);
        let verts: Vec<Vertex> = (0..9).collect();
        let mut led = Ledger::new(OMEGA);
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 2, 1, OracleBuildOpts::default());
        let server = ShardedServer::new(&oracle, 2);
        let mut qled = Ledger::new(OMEGA);
        let q = Query::Biconnected(0, 5);
        assert_eq!(
            server.try_answer_one(&mut qled, q),
            Err(ServeError::UnsupportedQuery(q)),
            "typed rejection"
        );
        assert_eq!(qled.costs(), Costs::ZERO, "rejection charges nothing");
        assert_eq!(
            server.try_answer_one(&mut qled, Query::Connected(0, 8)),
            Ok(Answer::Connected(true)),
            "supported queries still answer"
        );
    }

    #[test]
    fn shard_chunks_formula() {
        assert_eq!(shard_chunks(0, 4), 0);
        assert_eq!(shard_chunks(10, 1), 1);
        assert_eq!(shard_chunks(10, 2), 2);
        assert_eq!(shard_chunks(10, 3), 3);
        assert_eq!(shard_chunks(10, 7), 5); // grain 2 -> 5 chunks
        assert_eq!(shard_chunks(3, 8), 3); // more shards than queries
    }
}
