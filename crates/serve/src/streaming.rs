//! Streaming admission front end with affinity-routed, eviction-managed
//! result caching.
//!
//! [`super::ShardedServer`] answers pre-formed batches; production traffic
//! arrives as a *stream* of point queries. [`StreamingServer`] closes that
//! gap: queries enter through a submission queue, an admission policy
//! coalesces them into micro-batches, each micro-batch dispatches through
//! the sharded path with per-shard result caches, and answers are
//! delivered strictly in submission order via ticketed response
//! reordering.
//!
//! ## Admission
//!
//! [`AdmissionPolicy`] is built with [`AdmissionPolicy::builder`] — the
//! builder is the *only* construction surface (the PR-7 deprecated
//! `new`/`with_*` shims are gone). It has two batching knobs:
//!
//! * `max_batch` — the largest micro-batch one dispatch may carry;
//! * `max_queue` — the queue depth that triggers automatic dispatch: when a
//!   [`StreamingServer::submit`] brings the queue to `max_queue`, the
//!   server flushes micro-batches (each at most `max_batch` queries) until
//!   the queue is below the threshold again.
//!
//! [`StreamingServer::flush`] and [`StreamingServer::drain`] dispatch
//! eagerly without waiting for the threshold; a drain's final micro-batch
//! simply carries whatever is left (possibly a single query).
//!
//! ## Tenancy and fair-share composition
//!
//! The server admits through one table: a slot per tenant registered on
//! the builder ([`AdmissionPolicyBuilder::tenant`]), in registration
//! order, or one implicit [`TenantId::DEFAULT`] slot when none is, so
//! submission, composition and delivery run one code path. Registering
//! tenants switches on the tenant-facing contract; with none, nothing of
//! it is charged or visible (pinned by `costs_golden.json`):
//!
//! * [`StreamingServer::submit_as`] names the submitting [`TenantId`]
//!   (plain [`StreamingServer::submit`] maps to [`TenantId::DEFAULT`]).
//!   Each submission charges [`TENANT_ADMIT_OPS`] unit operations for the
//!   tenant lookup + quota check; an unknown tenant is rejected with
//!   [`crate::ServeError::UnknownTenant`], a tenant whose *queued* count
//!   sits at its [`TenantSpec::quota`] with
//!   [`crate::ServeError::QuotaExceeded`] — both before a ticket is
//!   issued, so rejections never perturb delivery order.
//! * Per-tenant counters surface through [`StreamingServer::tenant_stats`]
//!   and the aggregate [`crate::TenancyStats`] snapshot; the implicit
//!   slot never does.
//!
//! [`FairShare`] picks only the order micro-batches are composed in:
//!
//! * [`FairShare::Fifo`] takes the oldest submissions across all slots,
//!   so a single slot is plain FIFO;
//! * under [`FairShare::DeficitRoundRobin`] every composition round
//!   credits each backlogged tenant `weight` deficit (visiting it charges
//!   [`DRR_VISIT_OPS`] unit operations on the flushing ledger) and takes
//!   its oldest queries while deficit lasts, so sustained dispatch
//!   divides proportionally to weight regardless of arrival skew. A
//!   tenant whose queue empties forfeits its remaining deficit. The
//!   visit sequence — and therefore every charge — is a pure function of
//!   the submission sequence, bit-identical across `WEC_THREADS`.
//!
//! In-order delivery is **per tenant**: [`StreamingServer::try_next`]
//! yields the smallest ready ticket that is its tenant's oldest
//! undelivered one, so each tenant observes its own submission order
//! while no tenant's backlog can block another tenant's answers. With
//! one slot this is exactly global submission order.
//!
//! ## Stats snapshots
//!
//! Every cumulative counter family the server keeps is exposed through
//! one idiom: a cheap copyable stats struct returned by a `*_stats(&self)`
//! method — [`CacheStats`] ([`StreamingServer::cache_stats`], per shard via
//! [`StreamingServer::shard_cache_stats`]), [`crate::RobustnessStats`],
//! [`crate::EpochStats`], and [`crate::TenancyStats`]. Snapshots are
//! read-only, poison-tolerant, and never charge the ledger.
//!
//! ## The per-shard result cache
//!
//! Each shard owns a result cache in asymmetric memory, keyed so that
//! connectivity answers resolve through **`ComponentId` pairs**:
//!
//! * connectivity-class queries go through a per-vertex memo
//!   `Vertex → ComponentId` (the oracle's `component` is the cacheable
//!   surface): a [`Query::Component`] probes one key, a
//!   [`Query::Connected`] probes both endpoints and derives its answer by
//!   comparing the memoized `ComponentId` pair — the comparison is free in
//!   the model, exactly as in the uncached query;
//! * biconnectivity-class predicates are keyed on their canonical
//!   [`wec_biconnectivity::BiconnQueryKey`] (the label-equivalent identity:
//!   endpoint order normalized, so `(u, v)` and `(v, u)` share an entry)
//!   with the boolean answer as the cached value.
//!
//! Both key spaces share one per-shard slot budget
//! (`AdmissionPolicy::cache_capacity`). Shards only ever touch their own
//! cache, so hit/miss/eviction patterns — and therefore every charge —
//! are a pure function of the submission sequence, never of thread
//! scheduling.
//!
//! ## Routing: which shard serves a query
//!
//! Each query is routed to a fixed **owner shard** derived from a pinned
//! hash of its canonical cache key, so a repeat key always lands on the
//! shard holding its entry and the hot key set is *partitioned* across
//! shards instead of duplicated:
//!
//! - [`Query::Component`]`(v)` routes by
//!   [`wec_asym::stable_mix64`]`(v)`;
//! - [`Query::Connected`]`(u, v)` routes by `stable_mix64(min(u, v))` —
//!   the canonical endpoint — so `(u, v)` and `(v, u)` co-locate. The
//!   non-canonical endpoint's memo is cached on (and only useful to)
//!   that owner shard: a vertex appearing as the larger endpoint of
//!   several different pairs may be memoized on several shards. Affinity
//!   guarantees *pair* repeats always hit; per-vertex dedup across
//!   differing pairs is best-effort;
//! - predicates route by [`wec_biconnectivity::BiconnQueryKey::route_hash`]
//!   on their canonical key.
//!
//! The owner shard is `hash % s`; the hash is [`wec_asym::stable_mix64`]-based
//! and **pinned** (golden cost files depend on the placement). Routing
//! preserves submission order within each shard's group.
//!
//! **The contiguous partition** splits a batch of `n` queries into
//! [`super::shard_chunks`]`(n, s)` contiguous chunks of grain `⌈n/s⌉`,
//! chunk `i` served by shard `i` against cache `i`. It serves three
//! cases:
//!
//! * **skew fallback** — affinity trades balance for locality, so a
//!   micro-batch whose keys are pathologically skewed (many repeats of
//!   one key in a single batch) would serialize on one shard. When the
//!   largest owner group exceeds
//!   [`AdmissionPolicy::skew_factor`]` × ⌈n/s⌉` entries, that micro-batch
//!   alone dispatches contiguously — the routing scan is already
//!   charged, and the per-query charges revert to the contiguous formula
//!   below. `skew_factor = 0` falls back on every non-empty batch; the
//!   default is 4, i.e. tolerate up to 4× the balanced share before
//!   rebalancing;
//! * **capacity 0** — with `cache_capacity == 0` there is nothing for
//!   affinity to hit, so every batch dispatches contiguously with no
//!   routing scan and the cache bypassed entirely — a dispatch then
//!   charges precisely what [`super::ShardedServer::serve`] charges for
//!   the same batch;
//! * **open breakers** — the degraded routing of the fault-recovery
//!   section below partitions contiguously over the surviving shards.
//!
//! Routing only chooses the `(shard, group)` pairs; one executor serves
//! every pair as one accounting chunk of a single `scoped_par` pass.
//!
//! ## Eviction: what happens when a cache is full
//!
//! Full caches evict by deterministic CLOCK (second-chance): every
//! resident entry carries one second-chance bit, set on each hit. A miss
//! at capacity advances the hand over the slot ring, clearing set bits,
//! and evicts the first entry whose bit is clear; the replacement record
//! overwrites the victim in place. New entries start with the bit clear,
//! and the hand rests one past the victim. The second-chance bits are a
//! `⌈capacity/64⌉`-word symmetric-memory sideband per shard (within the
//! model's `O(ω log n)` symmetric budget for the capacities benchmarked),
//! so touching them costs unit operations, never asymmetric traffic.
//!
//! ## The exact cost contract
//!
//! Dispatching a micro-batch of `n` queries over `s` shards with a
//! non-zero cache capacity charges **exactly** the following, enforced by
//! `tests/affinity.rs` (affinity groups) and `tests/streaming.rs` (the
//! contiguous partition, via `skew_factor = 0`) at the workspace root:
//!
//! 1. **routing**: [`ROUTE_HASH_OPS`] unit operations per query, charged
//!    on the dispatching ledger as one sequential routing scan (`n` ops,
//!    `n` depth) — also charged when the skew fallback reverts the batch
//!    to the contiguous partition;
//! 2. [`super::QUERY_WORDS`] asymmetric reads per query (batch input
//!    scan), charged by the serving shard — group-sized chunks under
//!    affinity, `⌈n/s⌉`-sized chunks under the contiguous partition; the
//!    total is `n · QUERY_WORDS` either way;
//! 3. [`CACHE_PROBE_READS`] asymmetric reads per probe — one probe for a
//!    [`Query::Component`] or a predicate, two (one per endpoint) for a
//!    [`Query::Connected`]. A **hit** additionally charges
//!    [`CLOCK_TOUCH_OPS`] unit operations (setting the second-chance
//!    bit);
//! 4. per **miss**, the full one-by-one cost of the canonical underlying
//!    query — `component(x)` for a missing endpoint memo, the
//!    canonical-order predicate for a missing key — charged by the oracle
//!    itself, identical to an uncached call;
//! 5. per **fill**: below capacity, [`CACHE_INSERT_WRITES`] asymmetric
//!    writes. At capacity, [`CLOCK_SWEEP_OPS`] unit operations per slot
//!    the hand inspects (victim included) **plus** the same single
//!    [`CACHE_INSERT_WRITES`] for the in-place overwrite. Cache fills are
//!    the *only* asymmetric writes the serving layer ever performs;
//! 6. scheduler bookkeeping: under affinity groups, exactly `s` chunks
//!    always run (empty groups charge nothing inside), so `s − 1` unit
//!    operations and `⌈log₂ s⌉` depth; under the contiguous partition,
//!    `shard_chunks(n, s) − 1` unit operations and `⌈log₂ chunks⌉`
//!    depth.
//!
//! The serving shard charges items 2–5 inline on its own chunk's ledger
//! scope as it scans, probes, answers and fills; the cache itself keeps
//! only its hit/miss/insert/eviction counters.
//!
//! Because routing, grouping, and the merge all run in deterministic
//! orders, the total `Costs`, depth, and symmetric-memory peak of any
//! submit/flush/drain sequence are **bit-identical across `WEC_THREADS`
//! settings**; CI pins this with the {1, 2, 8, 16} matrix.
//!
//! ## Fault isolation and recovery
//!
//! Every result is delivered as a [`crate::ServeResult`]; a query the
//! server cannot answer is still *delivered*, in submission order, as a
//! typed [`crate::ServeError`]. Three fault domains are handled:
//!
//! * **Shard panics.** Each dispatch chunk runs inside a `catch_unwind`
//!   isolation boundary. A panicking shard is *quarantined*: its cache
//!   lock is recovered if poisoned (`Mutex::clear_poison`), the cache is
//!   reset cold (cumulative counters are folded into a retired aggregate
//!   so [`StreamingServer::cache_stats`] stays monotone), and the shard's
//!   whole query group is recomputed through the **degraded path** below.
//!   Panics in *other* shards' chunks are unaffected — their answers
//!   land normally.
//! * **Repeat offenders.** Per-shard health drives a circuit breaker
//!   ([`crate::RecoveryPolicy::breaker_threshold`] consecutive failures
//!   trip it). While any breaker is open, routing abandons affinity and
//!   partitions each micro-batch contiguously over the **surviving**
//!   shards only. After [`crate::RecoveryPolicy::breaker_cooldown`]
//!   dispatches the shard is readmitted as a half-open probe: one
//!   successfully served non-empty group closes the breaker, another
//!   failure re-opens it.
//! * **Overload.** Under [`Overflow::Shed`] a submission that finds the
//!   queue at `max_queue` is rejected with
//!   [`crate::ServeError::Overloaded`] *before* a ticket is issued, so
//!   shed traffic never perturbs delivery order. (The default
//!   [`Overflow::DispatchInline`] keeps the PR-4 behaviour: the bound
//!   triggers inline dispatch and `submit` never fails.)
//!
//! ### The recovery cost contract
//!
//! A failed shard attempt charges **nothing**: injected faults fire
//! before the chunk's input scan and first probe, so the chunk has made
//! no charge when it unwinds. Recovery then charges, sequentially on the
//! dispatching ledger, exactly:
//!
//! 1. the backoff ladder — attempt `a` (1-based, at most
//!    `MAX_RETRIES` = 3) charges `RETRY_BACKOFF_OPS << (a − 1)` unit
//!    operations, with `RETRY_BACKOFF_OPS` = 8; injected retry failures
//!    are suppressed on the final attempt, so recovery always
//!    terminates;
//! 2. per affected query, [`super::QUERY_WORDS`] asymmetric reads (the
//!    re-scan) plus the full **uncached** one-by-one cost of
//!    [`super::ShardedServer::try_answer_one_in`] at the query's own
//!    epoch — the degraded path bypasses the (now cold) cache entirely.
//!
//! Deterministic fault *injection* ([`crate::FaultPlan`]) is carried as
//! an `Option` and consulted only when a plan with raised knobs is
//! installed: the fault-free path executes the identical charge sequence
//! as PR-5 (pinned by `costs_golden.json`). Everything the recovery
//! machinery does is counted in [`crate::RobustnessStats`].
//!
//! ## Epochs: serving through batched insertions
//!
//! PR-7 adds the mutation path: batched edge insertions
//! ([`wec_connectivity::GraphDelta`]) fold into epochs of one versioned
//! [`wec_connectivity::OverlayStore`] that install without ever blocking
//! a query. Every submission is tagged with the epoch current at submit
//! time; [`StreamingServer::stage_delta`] writes the mappings the delta
//! changes into the next epoch (queries keep serving — and caching —
//! against the current one), and [`StreamingServer::install_staged`]
//! makes it current for one [`wec_asym::EPOCH_INSTALL_OPS`] operation
//! plus the priced cache-invalidation sweep documented on that method:
//! per shard, `swept ·` [`wec_asym::INVALIDATE_SCAN_OPS`] operations
//! over the resident slots and `removed ·`
//! [`wec_asym::INVALIDATE_ENTRY_WRITES`] asymmetric writes for exactly
//! the connectivity memos whose cached [`ComponentId`] lost its canonical
//! role in the new epoch — predicate entries and untouched components
//! survive, so invalidation is `O(changed)` in asymmetric writes, never
//! `O(cache)`.
//!
//! After an install, connectivity misses resolve the oracle's base id
//! through the current epoch (one [`wec_asym::OVERLAY_LOOKUP_READS`]
//! read per resolution once anything is remapped) and cache the
//! *canonical* id; at epoch 0 the identity epoch charges nothing, so a
//! read-only workload's charge sequence is bit-identical to the
//! pre-epoch servers (pinned by `costs_golden.json`). Entries still in
//! flight across an install dispatch as *stragglers*: answered uncached
//! at their own epoch (retired once delivery passes the install
//! boundary; a straggler also reads past the newer versions of the ids
//! it resolves), so a ticket always resolves against the graph version it
//! was submitted to. Biconnectivity-class predicates keep **base graph**
//! semantics — the insertion-only model does not re-derive them — which
//! is a documented limitation of the mutation API. Everything the epoch
//! machinery does is counted in [`crate::EpochStats`], and
//! `tests/epochs.rs` pins both the semantics and the exact charges.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

use wec_asym::{
    stable_mix64, Ledger, LedgerScope, DRR_VISIT_OPS, EPOCH_INSTALL_OPS, INVALIDATE_ENTRY_WRITES,
    INVALIDATE_SCAN_OPS, TENANT_ADMIT_OPS,
};
use wec_biconnectivity::BiconnQueryKey;
use wec_connectivity::{ComponentId, GraphDelta, OverlayView};
use wec_graph::Vertex;

use crate::cache::{CacheKey, CacheVal, ShardCache};
use crate::epoch::{EpochStats, EpochTracker};
use crate::fault::{BreakerState, FaultPlan, RecoveryPolicy, RobustnessStats, ShardHealth};
use crate::handle::{DeltaOracle, NoBiconn, OracleHandle};
use crate::tenant::{FairShare, TenancyStats, TenantId, TenantSpec, TenantStats};
use crate::{Answer, Query, ServeError, ServeResult, ShardedServer, QUERY_WORDS};

/// Asymmetric reads charged per result-cache probe (hash the key, inspect
/// its bucket).
pub const CACHE_PROBE_READS: u64 = 1;

/// Asymmetric words written per result-cache fill (the packed key/value
/// record; an evicting fill overwrites the victim in place for the same
/// charge).
pub const CACHE_INSERT_WRITES: u64 = 1;

/// Unit operations charged per query by the affinity routing scan
/// (hashing the canonical key and bucketing the query to its owner
/// shard).
pub const ROUTE_HASH_OPS: u64 = 1;

/// Unit operations charged per CLOCK hit for setting the entry's
/// second-chance bit (a symmetric-memory sideband access).
pub const CLOCK_TOUCH_OPS: u64 = 1;

/// Unit operations charged per slot the CLOCK hand inspects while hunting
/// a victim (reading the second-chance bit and clearing it when set).
pub const CLOCK_SWEEP_OPS: u64 = 1;

/// Most recovery attempts for a failed shard group. Each attempt charges
/// a backoff before recomputing; injection is suppressed on the last
/// attempt so recovery always completes.
const MAX_RETRIES: u32 = 3;

/// Unit operations charged for the first retry backoff; attempt `a`
/// (1-based) charges `RETRY_BACKOFF_OPS << (a − 1)`.
const RETRY_BACKOFF_OPS: u64 = 8;

/// What [`StreamingServer::submit`] does when the queue sits at the
/// policy's `max_queue` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// The PR-4 behaviour (default): reaching the bound triggers inline
    /// dispatch until the queue is below it again; `submit` never fails.
    DispatchInline,
    /// Hard bound: the submission is rejected with
    /// [`crate::ServeError::Overloaded`] and **no ticket is consumed**, so
    /// shed traffic leaves ticketing and in-order delivery untouched. The
    /// caller flushes or drains on its own cadence.
    Shed,
}

/// When micro-batches form, when affinity routing falls back to the
/// contiguous partition, and how much each shard may cache. See the module
/// docs for the exact semantics of each knob.
///
/// ```
/// # use wec_asym::Ledger;
/// # use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
/// # use wec_graph::{gen, Priorities};
/// use wec_serve::{AdmissionPolicy, Query, ShardedServer, StreamingServer};
///
/// # let g = gen::grid(6, 6);
/// # let pri = Priorities::random(36, 1);
/// # let verts: Vec<u32> = (0..36).collect();
/// # let mut led = Ledger::new(16);
/// # let oracle = ConnectivityOracle::build(
/// #     &mut led, &g, &pri, &verts, 4, 1, OracleBuildOpts::default());
/// // Two-slot caches under CLOCK: a shifting hot set keeps hitting
/// // because stale entries are evicted instead of squatting forever.
/// let policy = AdmissionPolicy::builder()
///     .max_batch(8)
///     .max_queue(32)
///     .cache_capacity(2)
///     .skew_factor(4)
///     .build();
/// assert_eq!(policy.skew_factor, 4);
///
/// let sharded = ShardedServer::new(&oracle, 2);
/// let mut srv = StreamingServer::new(sharded, policy);
/// let mut qled = Ledger::new(16);
/// for phase in 0u32..4 {
///     for _ in 0..4 {
///         // hot key of this phase, then one-off churn
///         srv.submit(&mut qled, Query::Component(phase)).unwrap();
///         srv.submit(&mut qled, Query::Component(30 + phase)).unwrap();
///     }
/// }
/// srv.drain(&mut qled);
/// let stats = srv.cache_stats();
/// assert!(stats.evictions > 0, "churn past capacity must evict");
/// assert!(stats.hits > stats.misses, "per-phase hot keys keep hitting");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Largest micro-batch a single dispatch may carry (at least 1).
    pub max_batch: usize,
    /// Queue depth that triggers automatic dispatch on submit (at least 1;
    /// 1 means every submission dispatches immediately as a batch of one).
    pub max_queue: usize,
    /// Per-shard result-cache entry budget; 0 disables caching entirely
    /// (dispatches then cost exactly [`ShardedServer::serve`]).
    pub cache_capacity: usize,
    /// Skew tolerance of affinity routing (default 4): how many times the
    /// balanced per-shard share (`⌈n/s⌉`) one owner group may reach before
    /// the micro-batch is rebalanced onto the contiguous partition. `0`
    /// rebalances every non-empty batch.
    pub skew_factor: u32,
    /// What `submit` does at the `max_queue` bound (default: the PR-4
    /// inline dispatch; [`Overflow::Shed`] turns the bound into a typed
    /// rejection).
    pub overflow: Overflow,
    /// The order micro-batches are composed in across the admission
    /// table's slots (default: [`FairShare::Fifo`], oldest first).
    pub fair_share: FairShare,
    /// The registered tenants, in deterministic fair-share visit order.
    /// Empty (the default) means tenancy is inactive — unless a non-FIFO
    /// `fair_share` is selected, in which case [`StreamingServer::new`]
    /// auto-registers the [`TenantId::DEFAULT`] tenant.
    pub tenants: Vec<TenantSpec>,
}

impl AdmissionPolicy {
    /// Start building a policy from the defaults; finish with
    /// [`AdmissionPolicyBuilder::build`]. This is the one construction
    /// surface — every knob is a builder method of the same name as the
    /// field it sets.
    pub fn builder() -> AdmissionPolicyBuilder {
        AdmissionPolicyBuilder {
            policy: AdmissionPolicy::default(),
        }
    }
}

/// Builder for [`AdmissionPolicy`] ([`AdmissionPolicy::builder`]): starts
/// from [`AdmissionPolicy::default`], each method sets the knob of the
/// same name, [`AdmissionPolicyBuilder::build`] returns the finished
/// policy. Clamping (batching knobs at least 1) happens in the setters,
/// so a built policy is always valid.
///
/// ```
/// use wec_serve::{AdmissionPolicy, Overflow};
///
/// let p = AdmissionPolicy::builder()
///     .max_batch(16)
///     .cache_capacity(64)
///     .overflow(Overflow::Shed)
///     .build();
/// assert_eq!((p.max_batch, p.cache_capacity), (16, 64));
/// assert_eq!(p.skew_factor, 4, "untouched knobs keep defaults");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicyBuilder {
    policy: AdmissionPolicy,
}

impl AdmissionPolicyBuilder {
    /// Largest micro-batch a single dispatch may carry (clamped to at
    /// least 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.policy.max_batch = max_batch.max(1);
        self
    }

    /// Queue depth that triggers automatic dispatch on submit (clamped to
    /// at least 1).
    pub fn max_queue(mut self, max_queue: usize) -> Self {
        self.policy.max_queue = max_queue.max(1);
        self
    }

    /// Per-shard result-cache entry budget (0 disables caching).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.policy.cache_capacity = cache_capacity;
        self
    }

    /// Skew tolerance of affinity routing (0 rebalances every batch onto
    /// the contiguous partition).
    pub fn skew_factor(mut self, skew_factor: u32) -> Self {
        self.policy.skew_factor = skew_factor;
        self
    }

    /// What `submit` does at the `max_queue` bound.
    pub fn overflow(mut self, overflow: Overflow) -> Self {
        self.policy.overflow = overflow;
        self
    }

    /// How micro-batches are composed from admitted submissions.
    pub fn fair_share(mut self, fair_share: FairShare) -> Self {
        self.policy.fair_share = fair_share;
        self
    }

    /// Register one tenant. Registration order is the deterministic order
    /// fair-share composition visits tenants in.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.policy.tenants.push(spec);
        self
    }

    /// Register several tenants at once (appended in iteration order).
    pub fn tenants(mut self, specs: impl IntoIterator<Item = TenantSpec>) -> Self {
        self.policy.tenants.extend(specs);
        self
    }

    /// The finished policy.
    ///
    /// # Panics
    /// When two registered tenants share a [`TenantId`] — a programming
    /// error the admission table cannot represent.
    pub fn build(self) -> AdmissionPolicy {
        for (i, a) in self.policy.tenants.iter().enumerate() {
            for b in &self.policy.tenants[i + 1..] {
                assert!(a.id != b.id, "duplicate tenant id {}", a.id);
            }
        }
        self.policy
    }
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_batch: 256,
            max_queue: 1024,
            cache_capacity: 1 << 16,
            skew_factor: 4,
            overflow: Overflow::DispatchInline,
            fair_share: FairShare::Fifo,
            tenants: Vec::new(),
        }
    }
}

/// Receipt for one submitted [`Query`]: tickets are issued in submission
/// order and [`StreamingServer::try_next`] delivers answers in exactly
/// that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The submission sequence number.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Cumulative result-cache counters, per shard or aggregated
/// ([`StreamingServer::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found their key.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Cache fills performed (≤ misses; a fill-until-full cache at
    /// capacity stops filling, a CLOCK cache keeps filling by evicting).
    pub inserts: u64,
    /// Entries evicted by the CLOCK hand (0 under fill-until-full).
    pub evictions: u64,
    /// Entries removed by epoch-install invalidation sweeps (connectivity
    /// memos whose cached `ComponentId` the new overlay remaps; see
    /// [`StreamingServer::install_staged`]).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits over probes, 0.0 when nothing was probed.
    pub fn hit_ratio(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// The streaming admission front end over a [`ShardedServer`]. See the
/// module docs for the admission semantics and the exact cost contract.
///
/// ```
/// # use wec_asym::Ledger;
/// # use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
/// # use wec_graph::{gen, Priorities};
/// use wec_serve::{AdmissionPolicy, Query, ShardedServer, StreamingServer};
///
/// # let g = gen::grid(6, 6);
/// # let pri = Priorities::random(36, 1);
/// # let verts: Vec<u32> = (0..36).collect();
/// # let mut led = Ledger::new(16);
/// # let oracle = ConnectivityOracle::build(
/// #     &mut led, &g, &pri, &verts, 4, 1, OracleBuildOpts::default());
/// let sharded = ShardedServer::new(&oracle, 2);
/// let policy = AdmissionPolicy::builder().max_batch(8).max_queue(32).build();
/// let mut srv = StreamingServer::new(sharded, policy);
///
/// let mut qled = Ledger::new(16);
/// let t0 = srv.submit(&mut qled, Query::Connected(0, 35)).unwrap();
/// let t1 = srv.submit(&mut qled, Query::Component(7)).unwrap();
/// srv.drain(&mut qled);
/// let (first, _) = srv.try_next().unwrap();
/// let (second, _) = srv.try_next().unwrap();
/// assert_eq!((first, second), (t0, t1), "submission order");
/// ```
pub struct StreamingServer<C, B = NoBiconn> {
    server: ShardedServer<C, B>,
    policy: AdmissionPolicy,
    caches: Vec<Mutex<ShardCache>>,
    /// The admission table: one slot per registered tenant, parallel to
    /// `policy.tenants`, or one implicit [`TenantId::DEFAULT`] slot when
    /// none is registered.
    slots: Vec<Slot>,
    /// Cumulative DRR queue visits charged (`DRR_VISIT_OPS` each).
    drr_visits: u64,
    ready: BTreeMap<u64, ServeResult>,
    next_ticket: u64,
    fault: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    health: Vec<ShardHealth>,
    robust: RobustnessStats,
    /// Counters of caches retired by quarantine, so `cache_stats` stays
    /// cumulative across resets.
    retired: CacheStats,
    dispatch_seq: u64,
    epochs: EpochTracker,
}

/// One admitted submission: ticket, submission epoch, query.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ticket: u64,
    epoch: u64,
    q: Query,
}

/// One tenant's row of the admission table.
#[derive(Default)]
struct Slot {
    /// Admitted, undispatched submissions, oldest first.
    queue: VecDeque<Entry>,
    /// Issued, undelivered tickets, oldest first.
    pending: VecDeque<u64>,
    /// Deficit-round-robin credit.
    deficit: u64,
    stats: TenantStats,
}

impl<C, B> StreamingServer<C, B>
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    /// A streaming front end dispatching through `server` under `policy`.
    /// One empty result cache is created per shard.
    pub fn new(server: ShardedServer<C, B>, policy: AdmissionPolicy) -> Self {
        let mut policy = AdmissionPolicy {
            max_batch: policy.max_batch.max(1),
            max_queue: policy.max_queue.max(1),
            ..policy
        };
        // A fair-share policy with no registered tenants still needs a
        // tenant table: serve everything as the default tenant.
        if policy.fair_share != FairShare::Fifo && policy.tenants.is_empty() {
            policy.tenants.push(TenantSpec::new(TenantId::DEFAULT.0));
        }
        let slots = (0..policy.tenants.len().max(1))
            .map(|_| Slot::default())
            .collect();
        let shards = server.shards();
        let caches = (0..shards)
            .map(|_| Mutex::new(ShardCache::default()))
            .collect();
        StreamingServer {
            server,
            policy,
            caches,
            slots,
            drr_visits: 0,
            ready: BTreeMap::new(),
            next_ticket: 0,
            fault: None,
            recovery: RecoveryPolicy::default(),
            health: vec![ShardHealth::default(); shards],
            robust: RobustnessStats::default(),
            retired: CacheStats::default(),
            dispatch_seq: 0,
            epochs: EpochTracker::default(),
        }
    }

    /// The same server with a deterministic fault-injection plan
    /// installed. A plan whose knobs are all zero is equivalent to no
    /// plan: the dispatch path consults the plan only when something can
    /// actually inject, so the fault-free charge sequence is untouched.
    ///
    /// ```
    /// # use wec_asym::Ledger;
    /// # use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
    /// # use wec_graph::{gen, Priorities};
    /// use wec_serve::{AdmissionPolicy, FaultPlan, Query, ShardedServer, StreamingServer};
    ///
    /// # let g = gen::grid(6, 6);
    /// # let pri = Priorities::random(36, 1);
    /// # let verts: Vec<u32> = (0..36).collect();
    /// # let mut led = Ledger::new(16);
    /// # let oracle = ConnectivityOracle::build(
    /// #     &mut led, &g, &pri, &verts, 4, 1, OracleBuildOpts::default());
    /// # std::panic::set_hook(Box::new(|_| {})); // silence injected panics
    /// // Shard 0 panics on every dispatch; every query is still answered.
    /// let sharded = ShardedServer::new(&oracle, 2);
    /// let policy = AdmissionPolicy::builder().max_batch(8).max_queue(32).build();
    /// let mut srv = StreamingServer::new(sharded, policy)
    ///     .with_fault_plan(FaultPlan::seeded(1).with_panic_per_mille(1000).with_target_shard(0));
    /// let mut qled = Ledger::new(16);
    /// for v in 0..36u32 {
    ///     srv.submit(&mut qled, Query::Component(v)).unwrap();
    /// }
    /// srv.drain(&mut qled);
    /// assert_eq!(srv.take_ready().len(), 36, "no query is lost to a panic");
    /// let stats = srv.robustness_stats();
    /// assert!(stats.panics_caught > 0 && stats.degraded_answers > 0);
    /// ```
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The same server with the given breaker knobs.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The admission policy in force.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Whether multi-tenant admission is active (at least one tenant
    /// registered — possibly the default one auto-registered under a
    /// fair-share policy). Inactive tenancy is charge-free: the server
    /// then admits everything into one implicit slot.
    pub fn tenancy_active(&self) -> bool {
        !self.policy.tenants.is_empty()
    }

    /// One tenant's admission counters; `None` for an unregistered id.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        Some(self.slots[self.tenant_index(tenant)?].stats)
    }

    /// Aggregate tenancy counters across all registered tenants.
    pub fn tenancy_stats(&self) -> TenancyStats {
        let mut agg = TenancyStats {
            tenants: self.policy.tenants.len() as u64,
            drr_visits: self.drr_visits,
            ..TenancyStats::default()
        };
        // Registered slots only: the implicit slot never surfaces.
        for slot in &self.slots[..self.policy.tenants.len()] {
            let s = slot.stats;
            agg.submitted += s.submitted;
            agg.quota_rejections += s.quota_rejections;
            agg.dispatched += s.dispatched;
            agg.delivered += s.delivered;
        }
        agg
    }

    /// The position of `tenant` in the policy's registration-ordered
    /// table, if registered.
    fn tenant_index(&self, tenant: TenantId) -> Option<usize> {
        self.policy.tenants.iter().position(|s| s.id == tenant)
    }

    /// The breaker knobs in force.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Cumulative counters of everything the recovery machinery did.
    pub fn robustness_stats(&self) -> RobustnessStats {
        self.robust
    }

    /// The health record (breaker state, failure streak) of one shard.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.health[shard]
    }

    /// Micro-batches dispatched so far (the fault plan's dispatch
    /// coordinate).
    pub fn dispatches(&self) -> u64 {
        self.dispatch_seq
    }

    /// Queries admitted but not yet dispatched, summed across the
    /// admission table's slots.
    pub fn queue_len(&self) -> usize {
        self.slots.iter().map(|s| s.queue.len()).sum()
    }

    /// Answers computed but not yet delivered through [`Self::try_next`].
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Tickets issued whose results have not yet been delivered —
    /// queued, dispatched, or ready. This is the "anything still in
    /// flight?" predicate graceful shutdown drains to zero.
    pub fn undelivered(&self) -> u64 {
        self.slots.iter().map(|s| s.pending.len() as u64).sum()
    }

    /// The owner shard of `q` under affinity routing: the pinned stable
    /// hash of the query's canonical cache key, modulo the shard count.
    /// Vertex keys hash with [`stable_mix64`], predicate keys with
    /// [`BiconnQueryKey::route_hash`]; both mappings are a cost contract
    /// (golden cost files depend on the placement). Pure compute; the
    /// dispatch path charges [`ROUTE_HASH_OPS`] per query for the routing
    /// scan.
    pub fn owner_shard(&self, q: Query) -> usize {
        let h = match q {
            Query::Component(v) => stable_mix64(v as u64),
            Query::Connected(u, v) => stable_mix64(u.min(v) as u64),
            Query::TwoEdgeConnected(u, v) => BiconnQueryKey::two_edge_connected(u, v).route_hash(),
            Query::Biconnected(u, v) => BiconnQueryKey::biconnected(u, v).route_hash(),
        };
        (h % self.server.shards() as u64) as usize
    }

    /// Admit one query. Under [`Overflow::DispatchInline`] (the default)
    /// this never fails: bringing the queue to the policy's `max_queue`
    /// dispatches micro-batches (charging `led`) until the queue is below
    /// the threshold again. Under [`Overflow::Shed`] a queue already at
    /// `max_queue` rejects the submission with
    /// [`ServeError::Overloaded`] — no ticket is consumed, so accepted
    /// submissions keep consecutive tickets and in-order delivery. A query
    /// naming a vertex outside the graph is rejected the same way, with
    /// [`ServeError::UnsupportedQuery`], under every policy and before
    /// any charge.
    pub fn submit(&mut self, led: &mut Ledger, q: Query) -> Result<Ticket, ServeError> {
        self.submit_as(led, TenantId::DEFAULT, q)
    }

    /// Admit one query on behalf of `tenant`. With tenancy inactive this
    /// is exactly [`StreamingServer::submit`] (the tenant is ignored and
    /// nothing extra is charged). With tenancy active it first charges
    /// [`TENANT_ADMIT_OPS`] for the tenant lookup + quota check and may
    /// reject with [`ServeError::UnknownTenant`] or
    /// [`ServeError::QuotaExceeded`] — both before a ticket is issued.
    pub fn submit_as(
        &mut self,
        led: &mut Ledger,
        tenant: TenantId,
        q: Query,
    ) -> Result<Ticket, ServeError> {
        if !self.server.names_vertices(q) {
            return Err(ServeError::UnsupportedQuery(q));
        }
        let tidx = if self.tenancy_active() {
            led.op(TENANT_ADMIT_OPS);
            let Some(tidx) = self.tenant_index(tenant) else {
                return Err(ServeError::UnknownTenant(tenant));
            };
            let quota = self.policy.tenants[tidx].quota;
            if quota > 0 && self.slots[tidx].queue.len() >= quota as usize {
                self.slots[tidx].stats.quota_rejections += 1;
                return Err(ServeError::QuotaExceeded { tenant, quota });
            }
            tidx
        } else {
            0
        };
        let queued = self.queue_len();
        if self.policy.overflow == Overflow::Shed && queued >= self.policy.max_queue {
            self.robust.sheds += 1;
            return Err(ServeError::Overloaded {
                queue_len: queued,
                max_queue: self.policy.max_queue,
            });
        }
        let t = self.next_ticket;
        self.next_ticket += 1;
        let epoch = self.epochs.current();
        let slot = &mut self.slots[tidx];
        slot.queue.push_back(Entry {
            ticket: t,
            epoch,
            q,
        });
        slot.pending.push_back(t);
        slot.stats.submitted += 1;
        if self.policy.overflow == Overflow::DispatchInline {
            while self.queue_len() >= self.policy.max_queue {
                self.flush(led);
            }
        }
        Ok(Ticket(t))
    }

    /// Compose the next micro-batch of up to `max_batch` queued queries
    /// per the policy's [`FairShare`], counting each taken query as
    /// dispatched by its slot. FIFO takes the oldest submissions across
    /// slots a run at a time: the slot holding the oldest front gives up
    /// its entries older than every other slot's front (with one slot, a
    /// whole batch). Deficit round robin charges [`DRR_VISIT_OPS`] per
    /// slot visit on `led`.
    fn compose_batch(&mut self, led: &mut Ledger) -> Vec<Entry> {
        let max = self.policy.max_batch;
        let mut batch = Vec::new();
        if self.policy.fair_share == FairShare::Fifo {
            while batch.len() < max {
                let fronts = (self.slots.iter().enumerate())
                    .filter_map(|(i, s)| Some((s.queue.front()?.ticket, i)));
                let Some((_, oldest)) = fronts.clone().min() else {
                    break;
                };
                let bound = fronts.filter(|&(_, i)| i != oldest).min();
                let slot = &mut self.slots[oldest];
                let run = (slot.queue.iter().take(max - batch.len()))
                    .take_while(|e| bound.is_none_or(|(t, _)| e.ticket < t))
                    .count();
                slot.stats.dispatched += run as u64;
                batch.extend(slot.queue.drain(..run));
            }
            return batch;
        }
        let mut visits = 0u64;
        'compose: while batch.len() < max {
            let mut progressed = false;
            for (slot, spec) in self.slots.iter_mut().zip(&self.policy.tenants) {
                if slot.queue.is_empty() {
                    // An idle tenant forfeits its deficit: no banking
                    // credit while there is nothing to schedule.
                    slot.deficit = 0;
                    continue;
                }
                visits += 1;
                slot.deficit += u64::from(spec.weight.max(1));
                while slot.deficit > 0 {
                    let Some(e) = slot.queue.pop_front() else {
                        break;
                    };
                    slot.deficit -= 1;
                    slot.stats.dispatched += 1;
                    batch.push(e);
                    progressed = true;
                    if batch.len() == max {
                        break 'compose;
                    }
                }
                if slot.queue.is_empty() {
                    slot.deficit = 0;
                }
            }
            if !progressed {
                break;
            }
        }
        if visits > 0 {
            led.op(visits * DRR_VISIT_OPS);
            self.drr_visits += visits;
        }
        batch
    }

    /// Dispatch one micro-batch of up to `max_batch` queued queries (fewer
    /// if the queue drains first), composed per the policy's
    /// [`FairShare`]. Returns how many were dispatched.
    pub fn flush(&mut self, led: &mut Ledger) -> usize {
        let batch = self.compose_batch(led);
        if !batch.is_empty() {
            self.dispatch(led, &batch);
        }
        batch.len()
    }

    /// Dispatch micro-batches until the queue is empty. Returns how many
    /// queries were dispatched in total.
    pub fn drain(&mut self, led: &mut Ledger) -> usize {
        let mut total = 0;
        loop {
            let n = self.flush(led);
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    /// Deliver the next result in **per-tenant submission order**: the
    /// smallest computed ticket that is its slot's oldest undelivered
    /// one, so every tenant observes its own submission order and no
    /// tenant's backlog blocks another tenant's answers. With no tenant
    /// registered (one slot) this is exactly global submission order.
    /// Deterministic either way.
    pub fn try_next(&mut self) -> Option<(Ticket, ServeResult)> {
        let (t, i) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((*s.pending.front()?, i)))
            .filter(|(t, _)| self.ready.contains_key(t))
            .min()?;
        let a = self.ready.remove(&t)?;
        let slot = &mut self.slots[i];
        slot.pending.pop_front();
        slot.stats.delivered += 1;
        // Delivery advanced: epochs it has fully passed are unreachable
        // and can be retired.
        self.epochs.prune(self.delivery_floor());
        Some((Ticket(t), a))
    }

    /// The oldest ticket that can still demand an answer: everything
    /// below it has been delivered, so epochs entirely below the floor
    /// are unreachable.
    fn delivery_floor(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.pending.front().copied())
            .min()
            .unwrap_or(self.next_ticket)
    }

    /// Deliver every consecutively-ready result in submission order.
    pub fn take_ready(&mut self) -> Vec<(Ticket, ServeResult)> {
        let mut out = Vec::new();
        while let Some(pair) = self.try_next() {
            out.push(pair);
        }
        out
    }

    /// Cumulative cache counters summed across shards, including the
    /// history of caches retired by quarantine (`entries` counts only
    /// currently-resident entries).
    ///
    /// Read-only: a poisoned shard lock is peeked through without being
    /// recovered (poison recovery — and its accounting — happens on the
    /// dispatch path, which is the mutating one).
    pub fn cache_stats(&self) -> CacheStats {
        let mut agg = self.retired;
        for cache in &self.caches {
            let s = cache.lock().unwrap_or_else(PoisonError::into_inner).stats();
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.inserts += s.inserts;
            agg.evictions += s.evictions;
            agg.invalidations += s.invalidations;
            agg.entries += s.entries;
        }
        agg
    }

    /// Cumulative cache counters of one shard's *current* cache (a
    /// quarantine resets these; the retired history is aggregated in
    /// [`StreamingServer::cache_stats`]). Read-only, like `cache_stats`.
    pub fn shard_cache_stats(&self, shard: usize) -> CacheStats {
        self.caches[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Park one computed result in the reorder buffer.
    fn park(&mut self, t: u64, r: ServeResult) {
        if matches!(r, Err(ServeError::UnsupportedQuery(_))) {
            self.robust.unsupported_queries += 1;
        }
        self.ready.insert(t, r);
    }

    /// Record a shard chunk that served `served` queries without
    /// panicking: a non-empty success resets the failure streak and
    /// closes a half-open breaker.
    fn note_success(&mut self, shard: usize, served: usize) {
        if served == 0 {
            return;
        }
        let h = &mut self.health[shard];
        h.consecutive_failures = 0;
        if h.state == BreakerState::HalfOpen {
            h.state = BreakerState::Closed;
            self.robust.shards_restored += 1;
        }
    }

    /// Record a shard chunk failure at dispatch `seq`: extend the failure
    /// streak and trip the breaker at the policy threshold (a failed
    /// half-open probe re-trips immediately).
    fn note_failure(&mut self, seq: u64, shard: usize) {
        let threshold = self.recovery.breaker_threshold;
        let h = &mut self.health[shard];
        h.consecutive_failures += 1;
        if threshold > 0 && h.consecutive_failures >= threshold && h.state != BreakerState::Open {
            h.state = BreakerState::Open;
            h.opened_at = seq;
            h.trips += 1;
            self.robust.breaker_trips += 1;
        }
    }

    /// Quarantine a panicked shard: recover its lock (clearing poison if
    /// the panic held the guard), retire the cache's counters, and reset
    /// it cold.
    fn quarantine(&mut self, shard: usize) {
        let dead =
            lock_recovered(&self.caches[shard], &mut self.retired, &mut self.robust).reset_cold();
        fold_retired(&mut self.retired, dead);
        self.robust.shards_quarantined += 1;
    }

    /// Recover one failed shard group per the documented recovery cost
    /// contract: quarantine, health bookkeeping, the charged backoff
    /// ladder, then the degraded uncached recompute of every affected
    /// query, parked in the reorder buffer as usual.
    fn recover_group(&mut self, led: &mut Ledger, seq: u64, shard: usize, group: &[Entry]) {
        self.robust.panics_caught += 1;
        self.quarantine(shard);
        self.note_failure(seq, shard);
        let mut attempt = 1u32;
        loop {
            self.robust.retries += 1;
            led.op(RETRY_BACKOFF_OPS << (attempt - 1));
            let fails_again = attempt < MAX_RETRIES
                && self
                    .fault
                    .is_some_and(|f| f.retry_fails(seq, shard as u64, attempt));
            if !fails_again {
                break;
            }
            attempt += 1;
        }
        for e in group {
            led.read(QUERY_WORDS);
            // The degraded path answers at the entry's own epoch, like
            // the healthy path (the identity epoch 0 charges nothing,
            // keeping the recovery cost contract exact). It runs on the
            // caller's thread, so a query that panics deterministically in
            // the oracle is caught here too and fails only its own slot.
            let overlay = self.epochs.view(e.epoch);
            let r = catch_unwind(AssertUnwindSafe(|| {
                self.server.try_answer_one_in(led, overlay, e.q)
            }))
            .unwrap_or(Err(ServeError::OracleFault(e.q)));
            self.robust.degraded_answers += 1;
            self.park(e.ticket, r);
        }
    }

    /// Choose the `(shard, group)` pairs one micro-batch is served as.
    /// Affinity groups — exactly `s` of them, empty ones included, after
    /// the charged routing scan — when every breaker is closed and the
    /// cache is on. Otherwise `⌈n/|map|⌉`-sized contiguous chunks, chunk
    /// `i` served by `map[i]`: the identity map at cache capacity 0 or on
    /// the skew fallback (whose routing scan stays charged), the
    /// surviving shards while any breaker is open.
    fn route(&mut self, led: &mut Ledger, batch: &[Entry], seq: u64) -> Vec<(usize, Vec<Entry>)> {
        let n = batch.len();
        let s = self.server.shards();
        // Breaker maintenance: cooled-down shards re-enter as probes.
        if self.recovery.breaker_threshold > 0 {
            for h in &mut self.health {
                if h.state == BreakerState::Open
                    && seq.saturating_sub(h.opened_at) >= self.recovery.breaker_cooldown.max(1)
                {
                    h.state = BreakerState::HalfOpen;
                    self.robust.half_open_probes += 1;
                }
            }
        }
        let mut map: Vec<usize> = (0..s)
            .filter(|&i| self.health[i].state != BreakerState::Open)
            .collect();
        // Decided before the all-open promotion below, which routes
        // contiguously over the whole fleet.
        let affinity = map.len() == s && self.policy.cache_capacity > 0;
        if map.is_empty() {
            // Every breaker is open: rather than deadlock, probe the
            // whole fleet at once (recovery suppresses injection on
            // final retries, so progress is guaranteed regardless).
            for h in &mut self.health {
                h.state = BreakerState::HalfOpen;
                self.robust.half_open_probes += 1;
            }
            map = (0..s).collect();
        }
        if affinity {
            // The routing scan: hash every query's canonical key once.
            led.op(n as u64 * ROUTE_HASH_OPS);
            let mut groups: Vec<(usize, Vec<Entry>)> = (0..s).map(|i| (i, Vec::new())).collect();
            for &e in batch {
                groups[self.owner_shard(e.q)].1.push(e);
            }
            let max_group = groups.iter().map(|(_, g)| g.len()).max().unwrap_or(0);
            if max_group <= self.policy.skew_factor as usize * n.div_ceil(s) {
                return groups;
            }
            // Rebalancing fallback: this batch's keys are skewed past the
            // policy threshold, so affinity would serialize on one shard.
            // The routing ops above stay charged; everything else reverts
            // to the contiguous formula.
        }
        let grain = n.div_ceil(map.len());
        batch
            .chunks(grain)
            .zip(map)
            .map(|(chunk, shard)| (shard, chunk.to_vec()))
            .collect()
    }

    /// Serve one micro-batch, parking results in the reorder buffer: the
    /// groups [`StreamingServer::route`] chooses run as one accounting
    /// chunk each, every chunk behind a panic-isolation boundary; failed
    /// chunks are recovered through [`StreamingServer::recover_group`].
    fn dispatch(&mut self, led: &mut Ledger, batch: &[Entry]) {
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        // Entries submitted under an older epoch dispatch as stragglers:
        // answered at their own retained epoch, uncached.
        let current_epoch = self.epochs.current();
        self.epochs.stats.straggler_answers +=
            batch.iter().filter(|e| e.epoch != current_epoch).count() as u64;
        let groups = self.route(led, batch, seq);
        let (server, caches, epochs) = (&self.server, &self.caches, &self.epochs);
        let cap = self.policy.cache_capacity;
        let fault = self.fault.filter(|f| f.injects_anything());
        // One accounting chunk per group, served by its own shard against
        // its own cache: that worker is the only one touching the cache,
        // so the lock never contends and hit/miss patterns stay
        // schedule-independent. (Execution may batch several groups per
        // task on few-thread machines without changing any charge.)
        let parts: Vec<ChunkOutcome> = led.scoped_par(groups.len(), 1, &|r, scope| {
            let (shard, group) = &groups[r.start];
            run_chunk(
                server,
                scope,
                &caches[*shard],
                group,
                cap,
                fault,
                seq,
                *shard,
                epochs,
            )
        });
        for ((shard, group), outcome) in groups.into_iter().zip(parts) {
            match outcome {
                ChunkOutcome::Done(out) => {
                    let served = out.len();
                    for (t, r) in out {
                        self.park(t, r);
                    }
                    self.note_success(shard, served);
                }
                ChunkOutcome::Panicked => self.recover_group(led, seq, shard, &group),
            }
        }
    }

    /// The serving epoch: 0 until the first [`Self::install_staged`],
    /// incremented by each install.
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current()
    }

    /// Cumulative counters of everything the epoch machinery did.
    pub fn epoch_stats(&self) -> EpochStats {
        self.epochs.stats
    }

    /// Live epochs: the current epoch plus every older epoch retaining
    /// in-flight tickets.
    pub fn live_epochs(&self) -> Vec<u64> {
        self.epochs.live_epochs()
    }

    /// The component remap at the serving epoch (identity at epoch 0),
    /// read in place; lookups through it charge as documented on
    /// [`OverlayView`], and [`OverlayView::peek`] /
    /// [`OverlayView::remapped`] inspect it for free.
    pub fn current_view(&self) -> OverlayView<'_> {
        self.epochs.view(self.epochs.current())
    }
}

/// The mutation path: batched edge insertions as epoch-snapshot installs.
/// Only available when the connectivity handle supports delta folding
/// ([`DeltaOracle`]); read-only oracle families serve without it.
impl<C, B> StreamingServer<C, B>
where
    C: DeltaOracle,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    /// Fold a batch of edge insertions into the **staged** next epoch,
    /// leaving the serving epoch untouched: queries keep answering (and
    /// caching) against the current snapshot while the stage runs.
    /// Several batches may be staged before one install; each composes
    /// onto the previously staged ones.
    ///
    /// Charges exactly the [`DeltaOracle::extend_overlay`] contract
    /// (documented in `wec_connectivity::delta`) on `led` — sampling
    /// reads, union-find operations, reverse-index reads, and one write
    /// per mapping this delta changes plus one per losing class. The
    /// write bill is `O(changed mappings)` of this delta, never the
    /// cumulative remap table. Bit-identical across `WEC_THREADS`. An
    /// empty delta with nothing staged is a free no-op.
    pub fn stage_delta(&mut self, led: &mut Ledger, delta: &GraphDelta) {
        if delta.is_empty() && !self.epochs.has_staged() {
            return;
        }
        let store = self.epochs.stage(delta.len() as u64);
        self.server.conn_handle().extend_overlay(led, store, delta);
    }

    /// Install the staged epoch as the serving snapshot. Returns the new
    /// epoch number, or `None` when nothing is staged.
    ///
    /// No query ever blocks on an install: in-flight tickets (queued or
    /// dispatched under the old epoch) keep resolving with old-epoch
    /// answers through the retained epoch, and new submissions are
    /// tagged with the new epoch immediately.
    ///
    /// The install charges, in order, on `led`:
    ///
    /// 1. [`EPOCH_INSTALL_OPS`] unit operations — the snapshot pointer
    ///    swap;
    /// 2. per shard cache, `swept ·` [`INVALIDATE_SCAN_OPS`] unit
    ///    operations, where `swept` is the shard's resident slot count
    ///    (every slot's cached value is inspected once);
    /// 3. `removed ·` [`INVALIDATE_ENTRY_WRITES`] asymmetric writes,
    ///    where `removed` counts exactly the connectivity memos whose
    ///    cached [`ComponentId`] — a canonical id of the current epoch —
    ///    lost its canonical role in the staged epoch
    ///    (`staged.peek(id) != id`). Predicate entries and memos whose
    ///    component is untouched by the delta survive — invalidation is
    ///    priced by what actually changed, not by cache size.
    pub fn install_staged(&mut self, led: &mut Ledger) -> Option<u64> {
        if !self.epochs.has_staged() {
            return None;
        }
        led.op(EPOCH_INSTALL_OPS);
        let staged = self.epochs.staged_view();
        let (mut swept_total, mut removed_total) = (0u64, 0u64);
        for cache in &self.caches {
            let (swept, removed) = lock_recovered(cache, &mut self.retired, &mut self.robust)
                .invalidate_stale(|id| staged.peek(id) != id);
            led.op(swept * INVALIDATE_SCAN_OPS);
            led.write(removed * INVALIDATE_ENTRY_WRITES);
            swept_total += swept;
            removed_total += removed;
        }
        self.epochs.stats.invalidation_swept_slots += swept_total;
        self.epochs.stats.invalidated_entries += removed_total;
        let epoch = self.epochs.install(self.next_ticket, self.undelivered());
        self.epochs.prune(self.delivery_floor());
        Some(epoch)
    }

    /// [`Self::stage_delta`] followed by [`Self::install_staged`]: the
    /// one-call mutation API. Returns the serving epoch after the call
    /// (unchanged when `delta` is empty and nothing was staged).
    pub fn apply_delta(&mut self, led: &mut Ledger, delta: &GraphDelta) -> u64 {
        self.stage_delta(led, delta);
        self.install_staged(led)
            .unwrap_or_else(|| self.epochs.current())
    }
}

/// What one isolated shard chunk produced.
enum ChunkOutcome {
    /// The chunk completed; results in group order.
    Done(Vec<(u64, ServeResult)>),
    /// The chunk panicked (real or injected); its charges (if any made it
    /// to the scope before the unwind) merge as charged, its queries must
    /// be recovered.
    Panicked,
}

/// One shard's chunk of a dispatch, behind the panic-isolation boundary.
/// Injected faults fire **before any charge**: a pre-lock panic leaves
/// the mutex clean, a post-lock poison panic unwinds through the live
/// guard (genuinely poisoning it), and neither charges the scope — which
/// is what makes the documented recovery cost exact. The lock itself is
/// poison-tolerant so one old panic can never wedge later dispatches.
#[allow(clippy::too_many_arguments)]
fn run_chunk<C, B>(
    server: &ShardedServer<C, B>,
    scope: &mut LedgerScope,
    cache_mutex: &Mutex<ShardCache>,
    group: &[Entry],
    cap: usize,
    fault: Option<FaultPlan>,
    seq: u64,
    shard: usize,
    epochs: &EpochTracker,
) -> ChunkOutcome
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if let Some(f) = fault {
            if f.injects_panic(seq, shard as u64) {
                panic!("injected shard panic (dispatch {seq}, shard {shard})");
            }
        }
        let mut cache = cache_mutex.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = fault {
            if f.injects_poison(seq, shard as u64) {
                // Unwinds through the live guard: poisons the mutex.
                panic!("injected cache-lock poisoning (dispatch {seq}, shard {shard})");
            }
        }
        scope.read(group.len() as u64 * QUERY_WORDS);
        let current_epoch = epochs.current();
        let overlay = epochs.view(current_epoch);
        let mut out = Vec::with_capacity(group.len());
        for e in group {
            let r = if e.epoch != current_epoch {
                // Straggler: in flight across an install. Answer uncached
                // at its own retained epoch, so the ticket resolves
                // against the graph version it was submitted to.
                server.try_answer_one_in(scope.ledger(), epochs.view(e.epoch), e.q)
            } else if cap == 0 {
                server.try_answer_one_in(scope.ledger(), overlay, e.q)
            } else {
                answer_cached(server, scope.ledger(), &mut cache, cap, overlay, e.q)
            };
            out.push((e.ticket, r));
        }
        out
    }));
    match ran {
        Ok(out) => ChunkOutcome::Done(out),
        Err(_) => ChunkOutcome::Panicked,
    }
}

/// Fold a retired cache's counters into the cumulative aggregate. The
/// retired entries are gone (the cache is cold), so `entries` is *not*
/// folded — only the monotone counters survive.
fn fold_retired(agg: &mut CacheStats, dead: CacheStats) {
    agg.hits += dead.hits;
    agg.misses += dead.misses;
    agg.inserts += dead.inserts;
    agg.evictions += dead.evictions;
    agg.invalidations += dead.invalidations;
}

/// Lock one shard's cache, recovering a poisoned mutex (a panic escaped
/// while a guard was live): the poison is cleared, the cache is reset
/// cold with its counters folded into `retired`, and the recovery is
/// counted. Locking never wedges the server.
fn lock_recovered<'a>(
    cache: &'a Mutex<ShardCache>,
    retired: &mut CacheStats,
    robust: &mut RobustnessStats,
) -> MutexGuard<'a, ShardCache> {
    match cache.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            cache.clear_poison();
            let mut g = poisoned.into_inner();
            fold_retired(retired, g.reset_cold());
            robust.lock_poison_recoveries += 1;
            g
        }
    }
}

/// Answer one query through the shard's cache, charging exactly the
/// module-level hit/miss/eviction contract (items 3–5). A
/// biconnectivity-class query on a server without a biconnectivity oracle
/// is rejected with [`ServeError::UnsupportedQuery`] *before* probing, so
/// the rejection charges nothing and the cache never learns spurious
/// keys.
fn answer_cached<C, B>(
    server: &ShardedServer<C, B>,
    led: &mut Ledger,
    cache: &mut ShardCache,
    capacity: usize,
    overlay: OverlayView<'_>,
    q: Query,
) -> ServeResult
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    match q {
        Query::Component(v) => Ok(Answer::Component(memo_component(
            server.conn_handle(),
            led,
            cache,
            capacity,
            overlay,
            v,
        ))),
        Query::Connected(u, v) => {
            // The answer is derived from the memoized ComponentId pair; the
            // comparison is free, as in the oracle's `connected`.
            let a = memo_component(server.conn_handle(), led, cache, capacity, overlay, u);
            let b = memo_component(server.conn_handle(), led, cache, capacity, overlay, v);
            Ok(Answer::Connected(a == b))
        }
        Query::TwoEdgeConnected(u, v) => match server.bicon_handle() {
            Some(h) => Ok(Answer::TwoEdgeConnected(memo_pred(
                h,
                led,
                cache,
                capacity,
                BiconnQueryKey::two_edge_connected(u, v),
            ))),
            None => Err(ServeError::UnsupportedQuery(q)),
        },
        Query::Biconnected(u, v) => match server.bicon_handle() {
            Some(h) => Ok(Answer::Biconnected(memo_pred(
                h,
                led,
                cache,
                capacity,
                BiconnQueryKey::biconnected(u, v),
            ))),
            None => Err(ServeError::UnsupportedQuery(q)),
        },
    }
}

/// Memoized `Vertex → ComponentId` resolution. Cached ids are **epoch
/// canonical**: a miss resolves the oracle's base id at the current
/// epoch before filling, so hits need no overlay work and the
/// install-time staleness test (`staged.peek(id) != id`) is exact. At
/// epoch 0 the identity epoch adds nothing, so the charge sequence is
/// the pre-epoch one.
fn memo_component<C>(
    conn: C,
    led: &mut Ledger,
    cache: &mut ShardCache,
    capacity: usize,
    overlay: OverlayView<'_>,
    v: Vertex,
) -> ComponentId
where
    C: OracleHandle<Key = Vertex, Answer = ComponentId>,
{
    if let Some(hit) = cache.probe(led, CacheKey::Comp(v)) {
        let CacheVal::Comp(id) = hit else {
            unreachable!("component key holds a component value")
        };
        return id;
    }
    let id = conn.answer_key(led, v);
    let id = overlay.canonical(led, id);
    cache.fill(led, CacheKey::Comp(v), CacheVal::Comp(id), capacity);
    id
}

fn memo_pred<B>(
    bicon: B,
    led: &mut Ledger,
    cache: &mut ShardCache,
    capacity: usize,
    key: BiconnQueryKey,
) -> bool
where
    B: OracleHandle<Key = BiconnQueryKey, Answer = bool>,
{
    if let Some(hit) = cache.probe(led, CacheKey::Pred(key)) {
        let CacheVal::Pred(ans) = hit else {
            unreachable!("predicate key holds a predicate value")
        };
        return ans;
    }
    let ans = bicon.answer_key(led, key);
    cache.fill(led, CacheKey::Pred(key), CacheVal::Pred(ans), capacity);
    ans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob_and_clamps() {
        let p = AdmissionPolicy::builder()
            .max_batch(8)
            .max_queue(32)
            .cache_capacity(2)
            .skew_factor(0)
            .overflow(Overflow::Shed)
            .fair_share(FairShare::DeficitRoundRobin)
            .tenant(TenantSpec::new(1).weight(3).quota(10))
            .tenant(TenantSpec::new(2))
            .build();
        assert_eq!((p.max_batch, p.max_queue, p.cache_capacity), (8, 32, 2));
        assert_eq!(p.fair_share, FairShare::DeficitRoundRobin);
        assert_eq!(p.tenants.len(), 2);
        assert_eq!(p.tenants[0].weight, 3);
        // The batching knobs clamp to at least 1 in the setters.
        let clamped = AdmissionPolicy::builder().max_batch(0).max_queue(0).build();
        assert_eq!((clamped.max_batch, clamped.max_queue), (1, 1));
    }

    /// Every recovery attempt charges its backoff rung on the dispatching
    /// ledger and nothing else differs from the healthy path: with retries
    /// always failing, each failed dispatch charges exactly 8 + 16 + 32
    /// extra ops (and as much extra depth) over the same stream served
    /// without faults.
    #[test]
    fn backoff_ladder_doubles() {
        use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
        use wec_graph::{gen, Priorities};

        let g = gen::grid(6, 6);
        let pri = Priorities::random(36, 1);
        let verts: Vec<u32> = (0..36).collect();
        let oracle = ConnectivityOracle::build(
            &mut Ledger::new(16),
            &g,
            &pri,
            &verts,
            4,
            1,
            OracleBuildOpts::default(),
        );
        let run = |plan: Option<FaultPlan>| {
            let policy = AdmissionPolicy::builder()
                .max_batch(8)
                .max_queue(32)
                .cache_capacity(0)
                .build();
            let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 1), policy)
                .with_recovery(RecoveryPolicy::default().with_breaker_threshold(0));
            if let Some(plan) = plan {
                srv = srv.with_fault_plan(plan);
            }
            let mut led = Ledger::new(16);
            for v in 0..36u32 {
                srv.submit(&mut led, Query::Component(v)).unwrap();
            }
            srv.drain(&mut led);
            let answers = srv.take_ready();
            (answers, led.costs(), led.depth(), srv.robustness_stats())
        };
        let healthy = run(None);
        let faulty = run(Some(
            FaultPlan::seeded(1)
                .with_panic_per_mille(1000)
                .with_retry_fail_per_mille(1000),
        ));
        let failed = faulty.3.panics_caught;
        assert_eq!(failed, 5, "⌈36 / 8⌉ dispatches, every one failed");
        assert_eq!(faulty.3.retries, MAX_RETRIES as u64 * failed);
        assert_eq!(
            faulty.0, healthy.0,
            "recovery answers like the healthy path"
        );
        let ladder = 8 + 16 + 32;
        let expect = wec_asym::Costs {
            sym_ops: healthy.1.sym_ops + ladder * failed,
            ..healthy.1
        };
        assert_eq!(faulty.1, expect);
        assert_eq!(faulty.2, healthy.2 + ladder * failed);
    }

    /// A predicate handle over a real oracle that panics on every query
    /// naming `poison`. It first builds a local graph, so the unwind drops
    /// pooled buffers mid-query.
    #[derive(Clone, Copy)]
    struct PanicsOn<'o, 'g> {
        inner: &'o wec_biconnectivity::oracle::BiconnectivityOracle<'g, wec_graph::Csr>,
        poison: Vertex,
    }

    impl OracleHandle for PanicsOn<'_, '_> {
        type Key = BiconnQueryKey;
        type Answer = bool;

        fn answer_key(&self, led: &mut Ledger, key: BiconnQueryKey) -> bool {
            let (BiconnQueryKey::TwoEdgeConnected(u, v) | BiconnQueryKey::Biconnected(u, v)) = key;
            if u == self.poison || v == self.poison {
                let _held = self.inner.local_of(led, 0);
                panic!("oracle fault at vertex {}", self.poison);
            }
            self.inner.answer_key(led, key)
        }

        fn is_vertex(&self, v: Vertex) -> bool {
            wec_graph::GraphView::is_vertex(self.inner.decomposition().graph(), v)
        }
    }

    /// An oracle that panics deterministically panics again on the
    /// degraded recompute: that slot fails with a typed error, the rest of
    /// the chunk is answered, and the same server keeps answering later
    /// queries correctly.
    #[test]
    fn deterministic_oracle_panic_fails_only_its_slot() {
        use wec_biconnectivity::oracle::build_biconnectivity_oracle;
        use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
        use wec_core::BuildOpts;
        use wec_graph::{gen, Priorities};

        let g = gen::bounded_degree_connected(120, 4, 30, 3);
        let pri = Priorities::random(120, 3);
        let verts: Vec<u32> = (0..120).collect();
        let mut led = Ledger::new(16);
        let conn =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, 4, 1, OracleBuildOpts::default());
        let bicon =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 4, 1, BuildOpts::default());
        let poison = 7;
        let handle = PanicsOn {
            inner: &bicon,
            poison,
        };
        let policy = AdmissionPolicy::builder()
            .max_batch(8)
            .max_queue(256)
            .cache_capacity(4)
            .build();
        let mut srv = StreamingServer::new(
            ShardedServer::new(&conn, 2).with_biconnectivity(handle),
            policy,
        );
        let expect = |led: &mut Ledger, q: Query| -> ServeResult {
            match q {
                Query::Biconnected(u, v) if u == poison || v == poison => {
                    Err(ServeError::OracleFault(q))
                }
                Query::Biconnected(u, v) => Ok(Answer::Biconnected(bicon.biconnected(led, u, v))),
                Query::TwoEdgeConnected(u, v) => Ok(Answer::TwoEdgeConnected(
                    bicon.two_edge_connected(led, u, v),
                )),
                _ => unreachable!(),
            }
        };
        for round in 0..3u32 {
            let mut qs = Vec::new();
            for i in 0..24u32 {
                let pick = |x: u32| {
                    if x % 120 == poison {
                        poison + 1
                    } else {
                        x % 120
                    }
                };
                let (u, v) = (pick(i * 13 + round), pick(i * 29 + 5 * round + 1));
                qs.push(if i % 2 == 0 {
                    Query::Biconnected(u, v)
                } else {
                    Query::TwoEdgeConnected(u, v)
                });
            }
            if round < 2 {
                qs[3] = Query::Biconnected(poison, 40 + round);
            }
            let mut tickets = Vec::new();
            for &q in &qs {
                tickets.push(srv.submit(&mut led, q).unwrap());
            }
            srv.drain(&mut led);
            let got = srv.take_ready();
            assert_eq!(got.len(), qs.len());
            for ((t, r), (&want_t, &q)) in got.into_iter().zip(tickets.iter().zip(&qs)) {
                assert_eq!(t, want_t);
                assert_eq!(r, expect(&mut Ledger::new(16), q), "round {round}, {q:?}");
            }
        }
        assert_eq!(
            srv.robustness_stats().panics_caught,
            2,
            "one shard panic per poisoned round, none after"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn builder_rejects_duplicate_tenant_ids() {
        let _ = AdmissionPolicy::builder()
            .tenant(TenantSpec::new(7))
            .tenant(TenantSpec::new(7))
            .build();
    }
}
