//! Multi-tenant admission: tenant identities, quotas, weights, and the
//! fair-share micro-batch composition policy.
//!
//! A *tenant* is a billing/isolation identity attached to submissions.
//! Tenancy is configured entirely on the
//! [`AdmissionPolicy`](crate::AdmissionPolicy) builder
//! ([`AdmissionPolicyBuilder::tenant`](crate::AdmissionPolicyBuilder::tenant)
//! / [`fair_share`](crate::AdmissionPolicyBuilder::fair_share)) and is
//! **inactive by default**. Either way the
//! [`StreamingServer`](crate::StreamingServer) admits through one table of
//! per-tenant slots; with no tenant registered it holds one implicit
//! [`TenantId::DEFAULT`] slot that is neither charged nor visible in the
//! counters (the charge sequence is pinned by `costs_golden.json`).
//!
//! With tenancy active:
//!
//! * every submission names a [`TenantId`]
//!   ([`StreamingServer::submit_as`](crate::StreamingServer::submit_as);
//!   plain `submit` maps to [`TenantId::DEFAULT`]) and is checked against
//!   the tenant's [`TenantSpec::quota`] — a bound on that tenant's
//!   *queued* submissions, rejected with
//!   [`ServeError::QuotaExceeded`](crate::ServeError::QuotaExceeded)
//!   before a ticket is issued;
//! * micro-batches are composed per [`FairShare`]: oldest first across
//!   the tenants' queues, or [`FairShare::DeficitRoundRobin`] over them,
//!   so a hot tenant's backlog cannot starve the rest;
//! * in-order delivery becomes **per tenant**: each tenant's answers
//!   arrive in that tenant's submission order, and
//!   [`StreamingServer::try_next`](crate::StreamingServer::try_next)
//!   always yields the smallest deliverable ticket across tenants — a
//!   deterministic order, just no longer the global one (a fair scheduler
//!   that dispatched tenant B before tenant A's backlog must also be
//!   allowed to *deliver* B first).
//!
//! Every admission decision is charged on the submitting ledger
//! ([`wec_asym::TENANT_ADMIT_OPS`] per submission, [`wec_asym::DRR_VISIT_OPS`]
//! per queue visited during composition) and is a pure function of the
//! submission sequence — bit-identical across `WEC_THREADS`.

/// A tenant identity. `TenantId(0)` ([`TenantId::DEFAULT`]) is the
/// conventional single-tenant id used by
/// [`StreamingServer::submit`](crate::StreamingServer::submit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The id plain `submit` (no explicit tenant) submits under.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// One tenant's admission contract: identity, fair-share weight, queued
/// quota, and the wire credential. Registered on the policy builder with
/// [`AdmissionPolicyBuilder::tenant`](crate::AdmissionPolicyBuilder::tenant);
/// registration order is the deterministic order fair-share composition
/// visits the tenants in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant's identity on submissions and wire `Hello` frames.
    pub id: TenantId,
    /// Fair-share weight (clamped to at least 1 when used): under
    /// [`FairShare::DeficitRoundRobin`] a tenant's share of each
    /// micro-batch is proportional to its weight.
    pub weight: u32,
    /// Bound on the tenant's *queued* (admitted, not yet dispatched)
    /// submissions; `0` means unlimited. A submission over quota is
    /// rejected with
    /// [`ServeError::QuotaExceeded`](crate::ServeError::QuotaExceeded)
    /// before a ticket is issued.
    pub quota: u32,
    /// Shared-secret credential a wire `Hello` frame must present to bind
    /// a connection to this tenant; `0` means "no credential required".
    pub credential: u64,
}

impl TenantSpec {
    /// A spec with weight 1, no quota, and no credential.
    pub fn new(id: u16) -> Self {
        TenantSpec {
            id: TenantId(id),
            weight: 1,
            quota: 0,
            credential: 0,
        }
    }

    /// The same spec with the given fair-share weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// The same spec with the given queued-submission quota (0 =
    /// unlimited).
    pub fn quota(mut self, quota: u32) -> Self {
        self.quota = quota;
        self
    }

    /// The same spec with the given wire credential (0 = none required).
    pub fn credential(mut self, credential: u64) -> Self {
        self.credential = credential;
        self
    }
}

/// How micro-batches are composed from admitted submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairShare {
    /// Batches take the oldest submissions across all tenants first (the
    /// default). A hot tenant's backlog delays everyone behind it.
    Fifo,
    /// Deficit round-robin over per-tenant queues: each composition round
    /// credits every backlogged tenant `weight` deficit and takes queries
    /// (oldest first) while deficit lasts — strict weighted interleaving
    /// at single-query granularity — so sustained throughput divides
    /// proportionally to weight no matter how skewed the arrival rates
    /// are. A tenant whose queue empties forfeits its remaining deficit
    /// (no banking while idle).
    DeficitRoundRobin,
}

/// Per-tenant admission counters
/// ([`StreamingServer::tenant_stats`](crate::StreamingServer::tenant_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions admitted (ticket issued).
    pub submitted: u64,
    /// Submissions rejected over the tenant's quota (no ticket consumed).
    pub quota_rejections: u64,
    /// Admitted queries dispatched into a micro-batch so far.
    pub dispatched: u64,
    /// Answers delivered through `try_next`/`take_ready` so far.
    pub delivered: u64,
}

/// Aggregate tenancy counters across all tenants
/// ([`StreamingServer::tenancy_stats`](crate::StreamingServer::tenancy_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenancyStats {
    /// Tenants registered on the policy.
    pub tenants: u64,
    /// Total submissions admitted across tenants.
    pub submitted: u64,
    /// Total quota rejections across tenants.
    pub quota_rejections: u64,
    /// Total queries dispatched across tenants.
    pub dispatched: u64,
    /// Total answers delivered across tenants.
    pub delivered: u64,
    /// Deficit-round-robin tenant-queue visits charged so far
    /// (`DRR_VISIT_OPS` each).
    pub drr_visits: u64,
}
