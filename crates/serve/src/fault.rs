//! Deterministic fault injection and recovery for the streaming serving
//! layer.
//!
//! The serving stack (PRs 2–5) is fast when nothing breaks; this module is
//! how we prove it *survives* breaking. It contributes three pieces:
//!
//! * [`FaultPlan`] — a seeded, bit-reproducible schedule of injected
//!   faults (shard panics, cache-lock poisoning, retry failures). Every
//!   decision is a pure function of `(seed, dispatch sequence number,
//!   shard, attempt)` through [`wec_asym::stable_combine`], so a fault
//!   run replays identically across threads, machines, and reruns. The
//!   plan is carried as an `Option` on the server: `None` is the
//!   production configuration and costs nothing — not a branch is
//!   charged.
//! * [`RecoveryPolicy`] — the knobs of the *always-on* per-shard circuit
//!   breaker. The breaker, like the fixed retry-with-backoff ladder,
//!   applies to real panics exactly as to injected ones; fault injection
//!   is merely how the tests exercise them deterministically.
//! * [`RobustnessStats`] / [`ShardHealth`] — the observability surface:
//!   cumulative counters of everything the recovery machinery did, and
//!   the per-shard circuit-breaker state.
//!
//! ## The fault model
//!
//! Faults fire inside a shard's dispatch chunk **before any model charge
//! is made**, so a failed attempt charges nothing and the documented
//! recovery cost (see `StreamingServer`'s module docs) is exact:
//!
//! * a **panic** fault unwinds before the shard touches its cache lock —
//!   the mutex stays clean, the shard's whole query group is recovered;
//! * a **poison** fault unwinds *while holding* the cache lock, genuinely
//!   poisoning the `Mutex` — recovery must (and does) clear the poison
//!   and reset the cache cold;
//! * a **retry failure** makes a recovery attempt fail again, exercising
//!   the backoff ladder; the final attempt of a bounded retry sequence
//!   always runs with injection suppressed, so every query is answered.
//!
//! This module covers faults *inside* the serving stack. Its byte-level
//! counterpart for the wire layer — short reads/writes, mid-frame
//! disconnects, stalls, duplicated delivery, seeded the same way — is
//! [`crate::wire::chaos`].

use wec_asym::stable_combine;

/// Decision-kind salts: each fault family rolls an independent stream.
const KIND_PANIC: u64 = 0x01;
const KIND_POISON: u64 = 0x02;
const KIND_RETRY: u64 = 0x04;

/// A seeded, bit-reproducible fault-injection schedule. All probabilities
/// are expressed per mille (‰): `per_mille = 10` injects with probability
/// 1% per (dispatch, shard) pair. The zero plan ([`FaultPlan::seeded`]
/// with no knobs raised) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every decision stream.
    pub seed: u64,
    /// Per-(dispatch, shard) probability (‰) of a panic before the shard
    /// acquires its cache lock.
    pub panic_per_mille: u32,
    /// Per-(dispatch, shard) probability (‰) of a panic while *holding*
    /// the cache lock, poisoning the mutex.
    pub poison_per_mille: u32,
    /// Per-(dispatch, shard, attempt) probability (‰) that a recovery
    /// attempt fails again (the final bounded attempt is never failed).
    pub retry_fail_per_mille: u32,
    /// When set, panic/poison/retry faults only fire on this shard
    /// index — useful for deterministically tripping one circuit breaker.
    pub target_shard: Option<u32>,
}

impl FaultPlan {
    /// The zero plan under `seed`: nothing injects until knobs are raised.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_per_mille: 0,
            poison_per_mille: 0,
            retry_fail_per_mille: 0,
            target_shard: None,
        }
    }

    /// The same plan with the given pre-lock panic probability (‰).
    pub fn with_panic_per_mille(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille;
        self
    }

    /// The same plan with the given lock-poisoning probability (‰).
    pub fn with_poison_per_mille(mut self, per_mille: u32) -> Self {
        self.poison_per_mille = per_mille;
        self
    }

    /// The same plan with the given retry-failure probability (‰).
    pub fn with_retry_fail_per_mille(mut self, per_mille: u32) -> Self {
        self.retry_fail_per_mille = per_mille;
        self
    }

    /// The same plan with faults restricted to one shard index.
    pub fn with_target_shard(mut self, shard: u32) -> Self {
        self.target_shard = Some(shard);
        self
    }

    /// Whether any dispatch-path knob is raised. A plan that injects
    /// nothing is equivalent to no plan: the dispatch path charges and
    /// answers identically.
    pub fn injects_anything(&self) -> bool {
        (self.panic_per_mille | self.poison_per_mille | self.retry_fail_per_mille) > 0
    }

    fn targets(&self, shard: u64) -> bool {
        self.target_shard.is_none_or(|t| t as u64 == shard)
    }

    /// One decision roll: a pure function of the plan seed, the decision
    /// kind, and up to three coordinates.
    fn roll(&self, kind: u64, a: u64, b: u64, c: u64) -> u64 {
        stable_combine(self.seed ^ kind, stable_combine(a, stable_combine(b, c)))
    }

    fn hits(&self, per_mille: u32, kind: u64, a: u64, b: u64, c: u64) -> bool {
        per_mille > 0 && self.roll(kind, a, b, c) % 1000 < per_mille as u64
    }

    /// Does dispatch number `dispatch` panic on `shard` before the cache
    /// lock is taken?
    pub fn injects_panic(&self, dispatch: u64, shard: u64) -> bool {
        self.targets(shard) && self.hits(self.panic_per_mille, KIND_PANIC, dispatch, shard, 0)
    }

    /// Does dispatch number `dispatch` poison `shard`'s cache lock?
    pub fn injects_poison(&self, dispatch: u64, shard: u64) -> bool {
        self.targets(shard) && self.hits(self.poison_per_mille, KIND_POISON, dispatch, shard, 0)
    }

    /// Does recovery attempt `attempt` (1-based) for `shard` in dispatch
    /// `dispatch` fail again? Callers suppress this on the final bounded
    /// attempt so recovery always terminates with an answer.
    pub fn retry_fails(&self, dispatch: u64, shard: u64, attempt: u32) -> bool {
        self.targets(shard)
            && self.hits(
                self.retry_fail_per_mille,
                KIND_RETRY,
                dispatch,
                shard,
                attempt as u64,
            )
    }
}

/// Knobs of the always-on per-shard circuit breaker. The retry ladder
/// for quarantined shard groups is fixed; see the `StreamingServer`
/// module docs for the exact recovery cost contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Consecutive shard failures that trip the circuit breaker (0
    /// disables the breaker entirely).
    pub breaker_threshold: u32,
    /// Dispatches a tripped breaker stays open before a half-open probe
    /// readmits the shard.
    pub breaker_cooldown: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            breaker_threshold: 3,
            breaker_cooldown: 8,
        }
    }
}

impl RecoveryPolicy {
    /// The same policy with a breaker trip threshold (0 disables).
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold;
        self
    }

    /// The same policy with a breaker cooldown in dispatches.
    pub fn with_breaker_cooldown(mut self, dispatches: u64) -> Self {
        self.breaker_cooldown = dispatches;
        self
    }
}

/// Circuit-breaker state of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the shard serves its routed share.
    Closed,
    /// Tripped: routing excludes the shard until the cooldown elapses.
    Open,
    /// Probing: the shard is readmitted for one dispatch; success closes
    /// the breaker, failure re-opens it.
    HalfOpen,
}

/// Health record of one shard: breaker state plus failure bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct ShardHealth {
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive failed dispatches (reset by any success).
    pub consecutive_failures: u32,
    /// Dispatch sequence number at which the breaker last opened.
    pub opened_at: u64,
    /// Total times this shard's breaker tripped.
    pub trips: u64,
}

impl Default for ShardHealth {
    fn default() -> Self {
        ShardHealth {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
            trips: 0,
        }
    }
}

/// Cumulative counters of everything the recovery machinery did.
/// Snapshot via `StreamingServer::robustness_stats`; all counters only
/// ever increase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Shard-chunk panics caught by the dispatch isolation boundary.
    pub panics_caught: u64,
    /// Shard quarantines performed (cache reset cold after a panic).
    pub shards_quarantined: u64,
    /// Breakers restored to closed by a successful half-open probe.
    pub shards_restored: u64,
    /// Circuit-breaker trips (closed/half-open → open).
    pub breaker_trips: u64,
    /// Half-open probes attempted after a cooldown.
    pub half_open_probes: u64,
    /// Recovery attempts charged through the backoff ladder.
    pub retries: u64,
    /// Queries resolved through the degraded uncached recompute path
    /// (answered, or failed with a typed error).
    pub degraded_answers: u64,
    /// Submissions shed with `ServeError::Overloaded`.
    pub sheds: u64,
    /// Poisoned cache locks recovered (poison cleared, cache reset cold).
    pub lock_poison_recoveries: u64,
    /// Queries answered with `ServeError::UnsupportedQuery`.
    pub unsupported_queries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let p = FaultPlan::seeded(42);
        assert!(!p.injects_anything());
        for d in 0..200u64 {
            for s in 0..8u64 {
                assert!(!p.injects_panic(d, s));
                assert!(!p.injects_poison(d, s));
                assert!(!p.retry_fails(d, s, 1));
            }
        }
    }

    #[test]
    fn decisions_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).with_panic_per_mille(100);
        let b = FaultPlan::seeded(7).with_panic_per_mille(100);
        let c = FaultPlan::seeded(8).with_panic_per_mille(100);
        let hits = |p: &FaultPlan| (0..2000u64).filter(|&d| p.injects_panic(d, d % 5)).count();
        assert_eq!(hits(&a), hits(&b), "same seed, same schedule");
        let pattern_a: Vec<bool> = (0..2000u64).map(|d| a.injects_panic(d, d % 5)).collect();
        let pattern_c: Vec<bool> = (0..2000u64).map(|d| c.injects_panic(d, d % 5)).collect();
        assert_ne!(pattern_a, pattern_c, "different seed, different schedule");
    }

    #[test]
    fn rates_land_near_their_per_mille() {
        let p = FaultPlan::seeded(3).with_panic_per_mille(100); // 10%
        let n = 20_000u64;
        let hits = (0..n).filter(|&d| p.injects_panic(d, 0)).count() as f64;
        let rate = hits / n as f64;
        assert!(
            (0.08..=0.12).contains(&rate),
            "10% plan hit at {rate} over {n} rolls"
        );
    }

    #[test]
    fn fault_families_roll_independent_streams() {
        let p = FaultPlan::seeded(11)
            .with_panic_per_mille(500)
            .with_poison_per_mille(500);
        let panics: Vec<bool> = (0..512u64).map(|d| p.injects_panic(d, 1)).collect();
        let poisons: Vec<bool> = (0..512u64).map(|d| p.injects_poison(d, 1)).collect();
        assert_ne!(panics, poisons, "families must not alias");
    }

    #[test]
    fn target_shard_restricts_all_dispatch_faults() {
        let p = FaultPlan::seeded(5)
            .with_panic_per_mille(1000)
            .with_poison_per_mille(1000)
            .with_retry_fail_per_mille(1000)
            .with_target_shard(2);
        for d in 0..64u64 {
            assert!(p.injects_panic(d, 2));
            for s in [0u64, 1, 3, 7] {
                assert!(!p.injects_panic(d, s));
                assert!(!p.injects_poison(d, s));
                assert!(!p.retry_fails(d, s, 1));
            }
        }
    }
}
