//! Batched edge insertions over a built oracle — the dynamic-graph path.
//!
//! The oracle of §4.3 is build-once: it stores one label per center and
//! answers queries in `O(√ω)` expected operations with no writes. This
//! module adds the ConnectIt-style incremental layer on top: batches of
//! edge insertions ([`GraphDelta`]) are folded into one versioned
//! [`OverlayStore`] that remaps *base* component ids to their
//! post-insertion canonical ids, epoch by epoch, without ever rebuilding
//! the decomposition. Connectivity under insertions only ever merges
//! components, so a remap over [`ComponentId`]s is a complete
//! representation of the mutated graph's connectivity.
//!
//! ## The versioned store
//!
//! Every remapped base id keeps a short list of *versions* — its
//! canonical id, tagged with the epoch that set it. Staging writes
//! version entries tagged with the next epoch (`current + 1`) in place;
//! installing is a counter bump that makes them visible; readers look an
//! id up through an [`OverlayView`] — the store at one epoch — which
//! resolves to the newest version tagged at or below its epoch. The
//! canonical id of a merged class is always its minimum [`ComponentId`],
//! so every epoch's answers are exactly those of a union-find over the
//! base graph plus the deltas installed so far.
//!
//! A canonical → members **reverse index** finds the ids a merge
//! remaps without scanning anything else. It is a merge forest: when a
//! class loses its canonical id, its old canonical id is appended to the
//! winner's list (one word), so a class's members are its canonical id's
//! list, recursively. Retiring an epoch
//! ([`OverlayStore::retire_oldest`]) drops exactly the version entries
//! no live epoch can see any more.
//!
//! ## Charge contract
//!
//! For a delta of `m > 0` edges where the sample phase sees `d` distinct
//! endpoint classes, the finish phase performs `u` successful unions, `ℓ`
//! classes lose their canonical id and `c` base ids change canonical id
//! in total (each losing class's old canonical id and all its members),
//! [`ConnectivityOracle::extend_overlay`] charges exactly:
//!
//! * sample — `⌈m/G⌉ − 1` ops + `⌈log₂⌈m/G⌉⌉` depth of `scoped_par`
//!   bookkeeping (`G =` [`DELTA_SAMPLE_GRAIN`]), and per chunk:
//!   [`DELTA_EDGE_WORDS`]`·len` reads for the edge payloads plus, per
//!   endpoint, the oracle's `component` charge and — iff the staged state
//!   remaps anything — [`OVERLAY_LOOKUP_READS`] reads;
//! * finish — `2m·`[`OVERLAY_FIND_OPS`] plus `u·`[`OVERLAY_UNION_OPS`]
//!   plus `d·`[`OVERLAY_FIND_OPS`] ops (two finds per pair, one op per
//!   successful union, one find per distinct class to resolve its
//!   canonical representative);
//! * remap (skipped when `u = 0`) — `(c − ℓ)·`[`OVERLAY_LOOKUP_READS`]
//!   reads walking the losing classes' reverse-index lists, and
//!   `c·`[`OVERLAY_ENTRY_WRITES`]` + ℓ·`[`OVERLAY_INDEX_WRITES`]
//!   **asymmetric writes**: one version entry per changed mapping and
//!   one reverse-index move per losing class.
//!
//! Those are the only asymmetric writes of a mutation, and `c` counts the
//! mappings *this* delta changes — not the cumulative remap table — so
//! the write bill is `O(changed mappings)`, the paper's write-efficiency
//! discipline carried over to the dynamic path. A delta that merges
//! nothing (`u = 0`) writes nothing.
//!
//! Lookups through an [`OverlayView`] at epoch `e` cost nothing when no
//! version is visible at `e` (epoch 0, or no merge yet), so the read-only
//! path stays bit-identical to its pre-mutation costs. Otherwise a lookup
//! charges one [`OVERLAY_LOOKUP_READS`] probe plus one more per installed
//! version of the id newer than `e` — zero for the current epoch, so only
//! stragglers pay for the history they step past.
//!
//! Deletions are a designed extension, not implemented: the decremental
//! structure of Aamand et al. would slot in as a second overlay kind
//! behind the same `canonical` interface, which is why lookups go through
//! the view rather than comparing raw ids at call sites.

use wec_asym::FxHashMap;
use wec_asym::{
    Ledger, DELTA_EDGE_WORDS, OVERLAY_ENTRY_WRITES, OVERLAY_FIND_OPS, OVERLAY_INDEX_WRITES,
    OVERLAY_LOOKUP_READS, OVERLAY_UNION_OPS,
};
use wec_baseline::UnionFind;
use wec_graph::{GraphView, Vertex};

use crate::oracle::{ComponentId, ConnectivityOracle};

/// Accounting grain of the sample phase: one [`wec_asym::LedgerScope`]
/// chunk per `DELTA_SAMPLE_GRAIN` delta edges. Part of the charge
/// contract (it fixes the `scoped_par` bookkeeping term), so it is pinned
/// like the serving-layer constants.
pub const DELTA_SAMPLE_GRAIN: usize = 16;

/// A batch of edge insertions to fold into the connectivity oracle.
///
/// Deltas are plain data — building one charges nothing; the fold
/// ([`ConnectivityOracle::extend_overlay`]) charges for reading the edges.
/// Duplicate edges and edges within one component are legal and simply
/// produce no-op unions.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch over pre-collected edges.
    pub fn from_edges(edges: Vec<(Vertex, Vertex)>) -> Self {
        GraphDelta { edges }
    }

    /// Append one edge insertion.
    pub fn insert(&mut self, u: Vertex, v: Vertex) {
        self.edges.push((u, v));
    }

    /// The batched insertions, in submission order.
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        &self.edges
    }

    /// Number of batched insertions.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// The versioned remap of base [`ComponentId`]s to canonical ids, for
/// every live epoch at once (see the [module docs](self)).
///
/// Epochs `oldest()..=current()` are readable; epoch `current() + 1` is
/// the staged one, written by [`ConnectivityOracle::extend_overlay`] and
/// made current by [`OverlayStore::install`]. The store itself charges
/// nothing: staging charges through `extend_overlay`, lookups through
/// [`OverlayView::canonical`], and the caller prices the install.
#[derive(Debug, Default)]
pub struct OverlayStore {
    /// Remapped base id → its canonical ids by epoch tag, oldest first.
    versions: FxHashMap<ComponentId, Vec<(u64, ComponentId)>>,
    /// The reverse index as a merge forest: canonical id → the canonical
    /// ids of the classes merged into it (each with its own list).
    merged: FxHashMap<ComponentId, Vec<ComponentId>>,
    /// Ids given a version per epoch tag (all above `oldest`), consumed
    /// by retirement.
    written: FxHashMap<u64, Vec<ComponentId>>,
    current: u64,
    oldest: u64,
    /// The tag of the first version ever written: earlier epochs are the
    /// identity.
    first: Option<u64>,
}

impl OverlayStore {
    /// The identity store at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The installed (serving) epoch.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The oldest epoch still readable.
    pub fn oldest(&self) -> u64 {
        self.oldest
    }

    /// The store as seen by epoch `epoch`.
    ///
    /// Only live epochs (`oldest()..=current()`) and the staged epoch
    /// `current() + 1` may be viewed: retirement has dropped versions a
    /// retired epoch would need. Callers retire an epoch only once no
    /// reader of it remains, so this is an invariant, checked in debug
    /// builds.
    pub fn view(&self, epoch: u64) -> OverlayView<'_> {
        debug_assert!(
            (self.oldest..=self.current + 1).contains(&epoch),
            "overlay view at epoch {epoch} outside the live range {}..={}",
            self.oldest,
            self.current + 1
        );
        OverlayView { store: self, epoch }
    }

    /// Make the staged epoch current; returns the new epoch. Its versions
    /// were written at stage time, so this moves nothing.
    pub fn install(&mut self) -> u64 {
        self.current += 1;
        self.current
    }

    /// Retire the oldest epoch (which must be older than the current
    /// one), dropping the version entries only it could see: those
    /// superseded by the versions the next epoch wrote.
    pub fn retire_oldest(&mut self) {
        debug_assert!(
            self.oldest < self.current,
            "the current epoch cannot retire"
        );
        self.oldest += 1;
        let oldest = self.oldest;
        for k in self.written.remove(&oldest).unwrap_or_default() {
            if let Some(vs) = self.versions.get_mut(&k) {
                let visible = vs.partition_point(|&(t, _)| t <= oldest);
                vs.drain(..visible - 1);
            }
        }
    }

    /// Version entries held, over all ids — what retirement bounds.
    pub fn version_count(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// Point `k` at `c` from epoch `tag` on: a new version, or an
    /// overwrite of one staged earlier in the same epoch.
    fn remap(&mut self, tag: u64, k: ComponentId, c: ComponentId) {
        let vs = self.versions.entry(k).or_default();
        match vs.last_mut() {
            Some(last) if last.0 == tag => last.1 = c,
            _ => {
                vs.push((tag, c));
                self.written.entry(tag).or_default().push(k);
            }
        }
        self.first.get_or_insert(tag);
    }
}

/// An [`OverlayStore`] read at one epoch — what query paths resolve
/// component ids through. Cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct OverlayView<'a> {
    store: &'a OverlayStore,
    epoch: u64,
}

impl OverlayView<'_> {
    /// Whether this epoch is the identity (no merge visible yet).
    pub fn is_empty(&self) -> bool {
        self.store.first.is_none_or(|f| f > self.epoch)
    }

    /// Resolve `id` to its canonical id at this epoch, charging per the
    /// [module docs](self): free on an identity epoch, otherwise
    /// [`OVERLAY_LOOKUP_READS`] for the probe plus as much again per
    /// installed version newer than this epoch. This is the charged form
    /// used on query paths; use [`OverlayView::peek`] for model-free
    /// inspection.
    #[inline]
    pub fn canonical(&self, led: &mut Ledger, id: ComponentId) -> ComponentId {
        if self.is_empty() {
            return id;
        }
        let (c, stepped) = self.resolve(id);
        led.read(OVERLAY_LOOKUP_READS * (1 + stepped));
        c
    }

    /// Resolve `id` without charging — for staleness probes whose cost is
    /// priced by the caller (the install-time invalidation sweep) and for
    /// tests.
    #[inline]
    pub fn peek(&self, id: ComponentId) -> ComponentId {
        self.resolve(id).0
    }

    /// The canonical id of `id` at this epoch, and how many installed
    /// versions newer than this epoch a reader steps past to find it.
    fn resolve(&self, id: ComponentId) -> (ComponentId, u64) {
        let Some(vs) = self.store.versions.get(&id) else {
            return (id, 0);
        };
        let visible = vs.partition_point(|&(t, _)| t <= self.epoch);
        let stepped = vs[visible..]
            .iter()
            .take_while(|&&(t, _)| t <= self.store.current)
            .count();
        let c = visible.checked_sub(1).map_or(id, |i| vs[i].1);
        (c, stepped as u64)
    }

    /// This epoch's remap: every base id whose canonical id differs from
    /// its own, with that canonical id (a fixed point), in no particular
    /// order. Reads the store in place; for tests and diagnostics, not
    /// charged.
    pub fn remapped(&self) -> impl Iterator<Item = (ComponentId, ComponentId)> + '_ {
        (self.store.versions.keys())
            .map(|&k| (k, self.peek(k)))
            .filter(|&(k, c)| k != c)
    }
}

impl<G: GraphView + Sync> ConnectivityOracle<'_, G> {
    /// Fold a batch of edge insertions into `store`'s staged epoch
    /// (`current() + 1`), composing with anything staged there already.
    /// ConnectIt-style sample-then-finish, writing only the mappings this
    /// delta changes; see the [module docs](self) for the exact charge
    /// contract.
    ///
    /// The costs are structural — bit-identical across `WEC_THREADS` —
    /// because the parallel sample runs under [`Ledger::scoped_par`] and
    /// everything else is sequential.
    pub fn extend_overlay(&self, led: &mut Ledger, store: &mut OverlayStore, delta: &GraphDelta) {
        if delta.is_empty() {
            return;
        }
        let edges = delta.edges();
        let tag = store.current + 1;

        // Sample: resolve every endpoint to its staged canonical id.
        let base = store.view(tag);
        let sampled: Vec<Vec<(ComponentId, ComponentId)>> =
            led.scoped_par(edges.len(), DELTA_SAMPLE_GRAIN, &|range, scope| {
                scope.read(DELTA_EDGE_WORDS * range.len() as u64);
                let mut out = Vec::with_capacity(range.len());
                for &(u, v) in &edges[range] {
                    let a = self.component(scope.ledger(), u);
                    let a = base.canonical(scope.ledger(), a);
                    let b = self.component(scope.ledger(), v);
                    let b = base.canonical(scope.ledger(), b);
                    out.push((a, b));
                }
                out
            });

        // Finish: index the distinct classes in first-appearance order and
        // union the sampled pairs sequentially.
        let mut ids: Vec<ComponentId> = Vec::new();
        let mut index: FxHashMap<ComponentId, u32> = FxHashMap::default();
        let mut intern = |id: ComponentId, ids: &mut Vec<ComponentId>| -> u32 {
            *index.entry(id).or_insert_with(|| {
                ids.push(id);
                (ids.len() - 1) as u32
            })
        };
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for (a, b) in sampled.into_iter().flatten() {
            let ia = intern(a, &mut ids);
            let ib = intern(b, &mut ids);
            pairs.push((ia, ib));
        }
        let mut uf = UnionFind::new(ids.len());
        let mut unions = 0u64;
        for &(ia, ib) in &pairs {
            led.op(2 * OVERLAY_FIND_OPS);
            if uf.union(ia, ib) {
                led.op(OVERLAY_UNION_OPS);
                unions += 1;
            }
        }
        if unions == 0 {
            return;
        }

        // Canonical representative of each merged class: the minimum id.
        led.op(ids.len() as u64 * OVERLAY_FIND_OPS);
        let roots: Vec<u32> = (0..ids.len() as u32).map(|i| uf.find(i)).collect();
        let mut canon: Vec<ComponentId> = ids.clone();
        for (i, &id) in ids.iter().enumerate() {
            let r = roots[i] as usize;
            if id < canon[r] {
                canon[r] = id;
            }
        }

        // Remap: every losing class — its old canonical id and, through
        // the reverse index, all its members — moves to the winner.
        let (mut changed, mut losers) = (0u64, 0u64);
        let mut stack: Vec<ComponentId> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let c = canon[roots[i] as usize];
            if c == id {
                continue;
            }
            stack.push(id);
            while let Some(k) = stack.pop() {
                if let Some(sub) = store.merged.get(&k) {
                    stack.extend_from_slice(sub);
                }
                store.remap(tag, k, c);
                changed += 1;
            }
            store.merged.entry(c).or_default().push(id);
            losers += 1;
        }
        led.read(OVERLAY_LOOKUP_READS * (changed - losers));
        led.write(OVERLAY_ENTRY_WRITES * changed + OVERLAY_INDEX_WRITES * losers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleBuildOpts;
    use std::collections::BTreeMap;
    use wec_graph::gen::{disjoint_union, path};
    use wec_graph::{Csr, Priorities};

    fn build<'a>(led: &mut Ledger, g: &'a Csr, pri: &'a Priorities) -> ConnectivityOracle<'a, Csr> {
        let verts: Vec<Vertex> = (0..g.n() as Vertex).collect();
        ConnectivityOracle::build(led, g, pri, &verts, 4, 0x5eed, OracleBuildOpts::default())
    }

    /// The remap at `view`'s epoch, ordered for comparison.
    fn table(view: OverlayView<'_>) -> BTreeMap<ComponentId, ComponentId> {
        view.remapped().collect()
    }

    /// Whether `u` and `v` are connected at `view`'s epoch.
    fn connected_in(
        oracle: &ConnectivityOracle<'_, Csr>,
        led: &mut Ledger,
        view: OverlayView<'_>,
        u: Vertex,
        v: Vertex,
    ) -> bool {
        let a = oracle.component(led, u);
        let b = oracle.component(led, v);
        view.canonical(led, a) == view.canonical(led, b)
    }

    /// Two path components merged by one delta edge: both sides resolve
    /// to one canonical id once installed, the staged epoch is invisible
    /// to the current one, and exactly the losing id is remapped.
    #[test]
    fn merge_two_components() {
        let g = disjoint_union(&[&path(8), &path(8)]);
        let pri = Priorities::identity(g.n());
        let mut led = Ledger::new(wec_asym::DEFAULT_OMEGA);
        let oracle = build(&mut led, &g, &pri);
        let mut store = OverlayStore::new();

        oracle.extend_overlay(&mut led, &mut store, &GraphDelta::from_edges(vec![(3, 12)]));
        assert!(
            !connected_in(&oracle, &mut led, store.view(0), 0, 8),
            "staged only"
        );
        assert_eq!(store.install(), 1);
        let ov = store.view(1);
        assert_eq!(ov.remapped().count(), 1);
        assert!(connected_in(&oracle, &mut led, store.view(1), 0, 8));
        assert!(connected_in(&oracle, &mut led, store.view(1), 7, 15));
        assert!(!connected_in(&oracle, &mut led, store.view(0), 0, 8));
        for (_, v) in ov.remapped() {
            assert_eq!(ov.peek(v), v, "values are fixed points");
        }
    }

    /// Composition across epochs equals one big batch, and retiring the
    /// older epochs keeps the newest answers while dropping superseded
    /// versions.
    #[test]
    fn composition_matches_one_shot_and_retirement_prunes() {
        let g = disjoint_union(&[&path(6), &path(6), &path(6), &path(6)]);
        let pri = Priorities::identity(g.n());
        let mut led = Ledger::new(wec_asym::DEFAULT_OMEGA);
        let oracle = build(&mut led, &g, &pri);

        let d1 = GraphDelta::from_edges(vec![(0, 6), (12, 18)]);
        let d2 = GraphDelta::from_edges(vec![(5, 13)]);
        let mut store = OverlayStore::new();
        oracle.extend_overlay(&mut led, &mut store, &d1);
        store.install();
        oracle.extend_overlay(&mut led, &mut store, &d2);
        store.install();

        let mut big = GraphDelta::new();
        for &(u, v) in d1.edges().iter().chain(d2.edges()) {
            big.insert(u, v);
        }
        let mut one = OverlayStore::new();
        oracle.extend_overlay(&mut led, &mut one, &big);
        one.install();
        assert_eq!(table(store.view(2)), table(one.view(1)));

        let before = store.version_count();
        store.retire_oldest();
        store.retire_oldest();
        assert!(store.version_count() < before, "a superseded version went");
        assert_eq!(table(store.view(2)), table(one.view(1)));
        for u in 0..24u32 {
            assert!(connected_in(&oracle, &mut led, store.view(2), 0, u));
        }
    }

    /// A straggler pays one extra read per installed version it steps
    /// past; a current-epoch lookup pays one probe.
    #[test]
    fn stragglers_pay_for_newer_versions() {
        let g = disjoint_union(&[&path(4), &path(4), &path(4)]);
        let pri = Priorities::identity(g.n());
        let mut led = Ledger::new(wec_asym::DEFAULT_OMEGA);
        let oracle = build(&mut led, &g, &pri);
        // Merge the two largest ids, then the smallest in: the largest id
        // loses in epoch 1 and, as a member, is remapped again in epoch 2.
        let mut blocks: Vec<(ComponentId, Vertex)> = [0, 4, 8]
            .map(|v| (oracle.component(&mut led, v), v))
            .to_vec();
        blocks.sort();
        let [(_, lo), (_, mid), (id, hi)] = blocks[..] else {
            unreachable!("three blocks")
        };
        let mut store = OverlayStore::new();
        for d in [(mid, hi), (lo, mid)] {
            oracle.extend_overlay(&mut led, &mut store, &GraphDelta::from_edges(vec![d]));
            store.install();
        }
        let reads = |epoch: u64| {
            let mut probe = Ledger::new(wec_asym::DEFAULT_OMEGA);
            store.view(epoch).canonical(&mut probe, id);
            probe.costs().asym_reads
        };
        assert_eq!(reads(0), 0, "identity epoch is free");
        assert_eq!(reads(1), 2 * OVERLAY_LOOKUP_READS);
        assert_eq!(reads(2), OVERLAY_LOOKUP_READS);
    }

    /// A delta that merges nothing writes nothing; an empty delta charges
    /// nothing at all.
    #[test]
    fn no_op_delta_writes_nothing() {
        let g = path(16);
        let pri = Priorities::identity(g.n());
        let mut build_led = Ledger::new(wec_asym::DEFAULT_OMEGA);
        let oracle = build(&mut build_led, &g, &pri);
        let mut led = Ledger::new(wec_asym::DEFAULT_OMEGA);
        let mut store = OverlayStore::new();
        // Same component already.
        oracle.extend_overlay(&mut led, &mut store, &GraphDelta::from_edges(vec![(2, 9)]));
        assert!(store.view(1).is_empty());
        assert_eq!(led.costs().asym_writes, 0);
        let before = led.costs();
        oracle.extend_overlay(&mut led, &mut store, &GraphDelta::new());
        assert_eq!(led.costs(), before);
    }

    /// The stage charge is structural: parallel and sequential ledgers
    /// agree bit-for-bit.
    #[test]
    fn extend_overlay_costs_are_thread_invariant() {
        let g = disjoint_union(&[&path(10), &path(10), &path(10)]);
        let pri = Priorities::identity(g.n());
        let mut delta = GraphDelta::new();
        for i in 0..40u32 {
            delta.insert(i % 30, (i * 7 + 3) % 30);
        }

        let run = |parallel: bool| {
            let mut build_led = Ledger::new(wec_asym::DEFAULT_OMEGA);
            let oracle = build(&mut build_led, &g, &pri);
            let mut led = if parallel {
                Ledger::new(wec_asym::DEFAULT_OMEGA)
            } else {
                Ledger::sequential(wec_asym::DEFAULT_OMEGA)
            };
            let mut store = OverlayStore::new();
            oracle.extend_overlay(&mut led, &mut store, &delta);
            (led.costs(), led.depth(), table(store.view(1)))
        };
        assert_eq!(run(true), run(false));
    }
}
