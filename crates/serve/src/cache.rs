//! The per-shard result-cache engine: one unified slot store for both
//! cacheable key spaces, evicting by deterministic CLOCK.
//!
//! The streaming module documents the externally-visible cost contract;
//! this module is the deterministic machine that enforces it. Everything
//! here is a pure function of the probe/fill sequence the owning shard
//! executes — there is no clock time, no randomness, and no thread
//! dependence, which is what makes the charges bit-identical across
//! `WEC_THREADS` settings.

use wec_asym::{FxHashMap, Ledger};
use wec_biconnectivity::BiconnQueryKey;
use wec_connectivity::ComponentId;
use wec_graph::Vertex;

#[cfg(doc)]
use wec_asym::{INVALIDATE_ENTRY_WRITES, INVALIDATE_SCAN_OPS};

use crate::streaming::{
    CacheStats, CACHE_INSERT_WRITES, CACHE_PROBE_READS, CLOCK_SWEEP_OPS, CLOCK_TOUCH_OPS,
};

/// Unified key of one shard-cache entry. The two cacheable key spaces
/// (per-vertex component memos, canonical biconnectivity predicates) share
/// one slot budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// `Vertex → ComponentId` memo entry.
    Comp(Vertex),
    /// Canonical predicate entry.
    Pred(BiconnQueryKey),
}

/// The cached value for a [`CacheKey`] (same variant, always).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CacheVal {
    /// Memoized component id.
    Comp(ComponentId),
    /// Memoized predicate answer.
    Pred(bool),
}

/// One resident entry: the packed key/value record plus the CLOCK
/// second-chance bit.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    val: CacheVal,
    referenced: bool,
}

/// One shard's result cache: the slot store, its hash index, the CLOCK
/// hand, and its cumulative counters. Only the owning shard's worker
/// ever touches it, and only for the duration of its own chunk, charging
/// that chunk's ledger at each call.
///
/// Cache-line padded: the shards' caches sit side by side in one `Vec`,
/// and workers serving neighbouring shards write their counters, CLOCK
/// hands and index headers concurrently. Unpadded, which fields share a line depends on the
/// heap offset the `Vec` happens to get, so the false sharing (and the
/// serving latency) changed from one process to the next.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct ShardCache {
    index: FxHashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    hand: usize,
    // Cumulative counters, folded into the retired aggregate on
    // quarantine. `invalidations` counts entries removed by epoch-install
    // sweeps.
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    invalidations: u64,
}

impl ShardCache {
    /// Entries currently resident.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Probe for `key`, charging [`CACHE_PROBE_READS`] to `led` either
    /// way. A hit additionally sets the entry's second-chance bit and
    /// charges [`CLOCK_TOUCH_OPS`].
    pub(crate) fn probe(&mut self, led: &mut Ledger, key: CacheKey) -> Option<CacheVal> {
        led.read(CACHE_PROBE_READS);
        match self.index.get(&key) {
            Some(&i) => {
                self.hits += 1;
                self.slots[i].referenced = true;
                led.op(CLOCK_TOUCH_OPS);
                Some(self.slots[i].val)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Fill after a miss. Below `capacity` the entry is appended for
    /// [`CACHE_INSERT_WRITES`]. At capacity the hand sweeps for a victim —
    /// charging [`CLOCK_SWEEP_OPS`] per inspected slot and clearing set
    /// second-chance bits on the way — then overwrites the victim in place
    /// for the same single [`CACHE_INSERT_WRITES`]. New entries start with
    /// the second-chance bit clear, and the hand rests one past the victim.
    ///
    /// Callers must not invoke this with `capacity == 0`: the dispatch path
    /// bypasses the cache entirely in that configuration.
    pub(crate) fn fill(&mut self, led: &mut Ledger, key: CacheKey, val: CacheVal, capacity: usize) {
        debug_assert!(capacity > 0, "capacity-0 dispatch bypasses the cache");
        self.inserts += 1;
        led.write(CACHE_INSERT_WRITES);
        if self.slots.len() < capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(Slot {
                key,
                val,
                referenced: false,
            });
            return;
        }
        let mut swept = 0u64;
        let victim = loop {
            swept += 1;
            let h = self.hand;
            self.hand = (self.hand + 1) % capacity;
            if self.slots[h].referenced {
                self.slots[h].referenced = false;
            } else {
                break h;
            }
        };
        self.evictions += 1;
        led.op(swept * CLOCK_SWEEP_OPS);
        self.index.remove(&self.slots[victim].key);
        self.index.insert(key, victim);
        self.slots[victim] = Slot {
            key,
            val,
            referenced: false,
        };
    }

    /// Epoch-install invalidation sweep: scan every resident slot and
    /// remove exactly the component memos whose cached [`ComponentId`]
    /// `stale` reports no longer canonical under the incoming overlay.
    /// Predicate entries are never removed — they cache *base-graph*
    /// biconnectivity semantics, which mutations do not change (the
    /// documented limitation of the insertion-only mutation model).
    ///
    /// Survivors keep their second-chance bits and their relative
    /// residency order; the slot store is compacted, the index rebuilt,
    /// and the CLOCK hand reset to 0 — all deterministic, so post-install
    /// hit/miss/eviction patterns remain a pure function of the
    /// submission/mutation sequence.
    ///
    /// Returns `(swept, removed)`: slots scanned and entries removed. The
    /// caller prices the sweep ([`INVALIDATE_SCAN_OPS`] per swept slot,
    /// [`INVALIDATE_ENTRY_WRITES`] per removed entry) on its own ledger,
    /// because the sweep belongs to the mutation's charge sequence, not to
    /// any dispatch.
    pub(crate) fn invalidate_stale(&mut self, stale: impl Fn(ComponentId) -> bool) -> (u64, u64) {
        let swept = self.slots.len() as u64;
        let before = self.slots.len();
        self.slots.retain(|s| match s.val {
            CacheVal::Comp(id) => !stale(id),
            CacheVal::Pred(_) => true,
        });
        let removed = (before - self.slots.len()) as u64;
        if removed > 0 {
            self.index.clear();
            for (i, s) in self.slots.iter().enumerate() {
                self.index.insert(s.key, i);
            }
            self.hand = 0;
            self.invalidations += removed;
        }
        (swept, removed)
    }

    /// Quarantine reset: drop every resident entry and the CLOCK hand,
    /// returning the cumulative counters the cache had accrued so the
    /// owner can fold them into a retired aggregate (keeping
    /// `cache_stats()` monotone across quarantines).
    pub(crate) fn reset_cold(&mut self) -> CacheStats {
        let stats = self.stats();
        *self = ShardCache::default();
        stats
    }

    /// Cumulative counters snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
            evictions: self.evictions,
            invalidations: self.invalidations,
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_asym::Costs;

    fn k(v: u32) -> CacheKey {
        CacheKey::Comp(v)
    }

    fn val() -> CacheVal {
        CacheVal::Pred(true)
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let mut c = ShardCache::default();
        let mut led = Ledger::new(16);
        for v in 0..3u32 {
            c.probe(&mut led, k(v));
            c.fill(&mut led, k(v), val(), 3);
        }
        // Reference 0 and 2; 1 stays clear.
        c.probe(&mut led, k(0));
        c.probe(&mut led, k(2));
        // Miss at capacity: hand starts at slot 0 (referenced — cleared),
        // slot 1 is clear → victim. Sweep inspected 2 slots.
        c.probe(&mut led, k(9));
        c.fill(&mut led, k(9), val(), 3);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.probe(&mut led, k(1)).is_none(), "1 was evicted");
        assert!(c.probe(&mut led, k(0)).is_some(), "0 survived");
        assert!(c.probe(&mut led, k(2)).is_some(), "2 survived");
        assert!(c.probe(&mut led, k(9)).is_some(), "9 resident");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn clock_charges_exactly_probe_touch_sweep_insert() {
        let mut c = ShardCache::default();
        let mut led = Ledger::new(16);
        // Two cold fills below capacity 2: 2 probes, 2 inserts.
        for v in 0..2u32 {
            c.probe(&mut led, k(v));
            c.fill(&mut led, k(v), val(), 2);
        }
        // One hit (probe + touch), then an eviction that must sweep past
        // the referenced slot 0: clears it (1 op), takes slot 1 (1 op).
        c.probe(&mut led, k(0));
        c.probe(&mut led, k(7));
        c.fill(&mut led, k(7), val(), 2);
        assert_eq!(
            led.costs(),
            Costs {
                asym_reads: 4 * CACHE_PROBE_READS,
                asym_writes: 3 * CACHE_INSERT_WRITES,
                sym_ops: CLOCK_TOUCH_OPS + 2 * CLOCK_SWEEP_OPS,
            },
            "exact per-probe / per-touch / per-evict charges"
        );
        let spent = led.costs();
        assert_eq!(
            led.depth(),
            spent.asym_reads + 16 * spent.asym_writes + spent.sym_ops,
            "charged sequentially at the call"
        );
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reset_cold_returns_history_and_empties_the_cache() {
        let mut c = ShardCache::default();
        let mut led = Ledger::new(16);
        for v in 0..4u32 {
            c.probe(&mut led, k(v));
            c.fill(&mut led, k(v), val(), 8);
        }
        c.probe(&mut led, k(1)); // one hit
        let retired = c.reset_cold();
        assert_eq!((retired.hits, retired.misses), (1, 4));
        assert_eq!((retired.inserts, retired.entries), (4, 4));
        assert_eq!(c.len(), 0, "cold after reset");
        assert!(
            c.probe(&mut led, k(1)).is_none(),
            "quarantined entries are gone"
        );
        assert_eq!(c.stats().misses, 1, "counters restart from zero");
    }

    #[test]
    fn invalidate_stale_removes_exactly_stale_comp_entries() {
        let mut c = ShardCache::default();
        let mut led = Ledger::new(16);
        for v in 0..3u32 {
            c.probe(&mut led, k(v));
            c.fill(&mut led, k(v), CacheVal::Comp(ComponentId::Labeled(v)), 8);
        }
        let pkey = CacheKey::Pred(BiconnQueryKey::two_edge_connected(1, 2));
        c.probe(&mut led, pkey);
        c.fill(&mut led, pkey, CacheVal::Pred(true), 8);
        let (swept, removed) = c.invalidate_stale(|id| id == ComponentId::Labeled(1));
        assert_eq!((swept, removed), (4, 1), "scan all slots, remove one");
        assert!(c.probe(&mut led, k(1)).is_none(), "stale memo gone");
        assert!(c.probe(&mut led, k(0)).is_some());
        assert!(c.probe(&mut led, k(2)).is_some());
        assert!(
            c.probe(&mut led, pkey).is_some(),
            "predicate entries keep base-graph semantics and survive"
        );
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.len(), 3);
        // A sweep with nothing stale is charge- and state-free.
        let (swept2, removed2) = c.invalidate_stale(|_| false);
        assert_eq!((swept2, removed2), (3, 0));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn clock_capacity_one_churns_in_place() {
        let mut c = ShardCache::default();
        let mut led = Ledger::new(16);
        for v in 0..10u32 {
            assert!(
                c.probe(&mut led, k(v)).is_none(),
                "all-distinct churn never hits"
            );
            c.fill(&mut led, k(v), val(), 1);
            assert_eq!(c.len(), 1);
        }
        // First fill is an append; the other 9 each evict the lone
        // (never-referenced) entry with a single-slot sweep.
        assert_eq!((c.stats().inserts, c.stats().evictions), (10, 9));
        assert_eq!(led.costs().sym_ops, 9 * CLOCK_SWEEP_OPS);
        assert!(c.probe(&mut led, k(9)).is_some(), "last key resident");
    }
}
