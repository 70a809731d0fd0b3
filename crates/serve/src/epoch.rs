//! Epoch-snapshot state for serving through mutations.
//!
//! The streaming server answers every query against a *snapshot* of the
//! mutated graph's connectivity: one epoch of the versioned
//! [`OverlayStore`], read through an [`OverlayView`] (epoch 0 is the
//! identity — the unmutated base graph). Mutations are double-buffered:
//! the next epoch's changed mappings are staged (and charged) into the
//! store while epoch `N` keeps serving, then installed with a single
//! charged epoch bump plus the priced cache-invalidation sweep. No query
//! ever waits for a stage or an install.
//!
//! Queries are tagged with the epoch current at *submission* time; the
//! reorder queue can therefore span an install. Entries from the current
//! epoch serve through the shard caches as usual. *Stragglers* — entries
//! submitted under an older epoch that dispatch after an install — are
//! answered uncached through a view at their own epoch, so a ticket
//! always resolves with the answer of the graph version it was submitted
//! against. An old epoch is retired once delivery has passed its last
//! ticket (`EpochTracker::prune`), and the store drops the version
//! entries only it could see.
//!
//! This module owns the bookkeeping (`EpochTracker`) and the
//! externally-visible counters ([`EpochStats`]); the charged entry points
//! (`stage_delta` / `install_staged` / `apply_delta`) live on
//! [`StreamingServer`](crate::StreamingServer), which also documents the
//! install-time invalidation contract.

use std::collections::VecDeque;

use wec_connectivity::{OverlayStore, OverlayView};

/// Cumulative counters of everything the epoch machinery did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Mutation batches staged (`stage_delta` calls with a non-empty
    /// delta composition).
    pub staged_batches: u64,
    /// Delta edges sampled across all staged batches.
    pub staged_edges: u64,
    /// Staged epochs installed (epoch advances).
    pub installs: u64,
    /// Cache entries removed by install-time invalidation sweeps.
    pub invalidated_entries: u64,
    /// Resident cache slots scanned by invalidation sweeps.
    pub invalidation_swept_slots: u64,
    /// Queries answered at a retained older epoch (in flight across an
    /// install, served uncached).
    pub straggler_answers: u64,
    /// Undelivered tickets outstanding at install time, summed over
    /// installs — the in-flight work that kept serving instead of
    /// blocking on the epoch swap.
    pub in_flight_at_install: u64,
    /// Old epochs retired after delivery passed their last ticket.
    pub retired_overlays: u64,
}

/// Double-buffered epoch state: the versioned overlay store (current
/// epoch, retained older epochs still referenced by in-flight tickets,
/// and the staged next epoch) plus the ticket boundaries that retire old
/// epochs. Plain bookkeeping — every model charge is made by the
/// `StreamingServer` methods driving it.
#[derive(Debug, Default)]
pub(crate) struct EpochTracker {
    store: OverlayStore,
    /// Whether a stage is waiting to be installed.
    staged: bool,
    /// For each retained older epoch, oldest first: the first ticket
    /// *not* submitted under it (its install boundary). Once delivery
    /// reaches it, the epoch is unreachable and retires.
    ends: VecDeque<u64>,
    pub(crate) stats: EpochStats,
}

impl EpochTracker {
    /// The serving epoch.
    pub(crate) fn current(&self) -> u64 {
        self.store.current()
    }

    /// The store at a live epoch. Only epochs with undelivered tickets
    /// (or the current one) are ever asked for — the tracker retires an
    /// epoch only once delivery has passed all of its tickets; the store
    /// checks this in debug builds.
    pub(crate) fn view(&self, epoch: u64) -> OverlayView<'_> {
        self.store.view(epoch)
    }

    /// The store at the staged epoch (the current one when nothing is
    /// staged).
    pub(crate) fn staged_view(&self) -> OverlayView<'_> {
        self.store.view(self.current() + 1)
    }

    /// Record a stage of `delta_edges` edges and hand out the store to
    /// fold it into; several stages compose into one epoch.
    pub(crate) fn stage(&mut self, delta_edges: u64) -> &mut OverlayStore {
        self.staged = true;
        self.stats.staged_batches += 1;
        self.stats.staged_edges += delta_edges;
        &mut self.store
    }

    /// Whether a stage is waiting to be installed.
    pub(crate) fn has_staged(&self) -> bool {
        self.staged
    }

    /// Advance to the staged epoch (callers check [`Self::has_staged`]):
    /// the previous epoch is retained for its in-flight tickets (every
    /// ticket below `next_ticket`). Returns the new epoch number.
    pub(crate) fn install(&mut self, next_ticket: u64, in_flight: u64) -> u64 {
        debug_assert!(self.staged, "install without a stage");
        self.staged = false;
        self.ends.push_back(next_ticket);
        self.stats.installs += 1;
        self.stats.in_flight_at_install += in_flight;
        self.store.install()
    }

    /// Retire the old epochs delivery has fully passed: the oldest
    /// retained epoch retires once the delivery `floor` (the oldest
    /// undelivered ticket) reaches its boundary.
    pub(crate) fn prune(&mut self, floor: u64) {
        while self.ends.front().is_some_and(|&end| floor >= end) {
            self.ends.pop_front();
            self.store.retire_oldest();
            self.stats.retired_overlays += 1;
        }
    }

    /// Live epochs (retained older ones plus the current one), for tests
    /// and diagnostics.
    pub(crate) fn live_epochs(&self) -> Vec<u64> {
        (self.store.oldest()..=self.current()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retirement_follows_delivery() {
        let mut t = EpochTracker::default();
        assert_eq!(t.current(), 0);
        // Install epoch 1 at ticket 10 with 4 tickets in flight.
        t.stage(0);
        assert_eq!(t.install(10, 4), 1);
        assert_eq!(t.live_epochs(), vec![0, 1]);
        // Delivery at 9: epoch 0 still has an in-flight ticket.
        t.prune(9);
        assert_eq!(t.live_epochs(), vec![0, 1]);
        // Delivery reaches the boundary: epoch 0 retires.
        t.prune(10);
        assert_eq!(t.live_epochs(), vec![1]);
        assert_eq!(t.stats.retired_overlays, 1);
    }

    #[test]
    fn staging_composes_until_install() {
        let mut t = EpochTracker::default();
        assert!(!t.has_staged());
        t.stage(3);
        t.stage(2);
        assert!(t.has_staged());
        assert_eq!(t.current(), 0, "staging leaves the serving epoch");
        assert_eq!((t.stats.staged_batches, t.stats.staged_edges), (2, 5));
        assert_eq!(t.install(0, 0), 1);
        assert!(!t.has_staged());
    }
}
