//! §5.3: the biconnectivity oracle in sublinear writes.
//!
//! Construction (Algorithm 2) on top of an implicit √ω-decomposition:
//!
//! 1. a level-synchronous BFS over the implicit clusters graph (each
//!    frontier's edge listings run in parallel) → a rooted **clusters
//!    spanning forest** whose tree edges carry witness G-edges; each
//!    non-root cluster's *cluster root* is the witness endpoint inside it;
//! 2. low/high + critical edges + **BC labeling of the clusters graph**
//!    (auxiliary union-find over cluster nodes, all adjacency produced
//!    implicitly at O(k²) per cluster);
//! 3. one pass over the clusters building each **local graph**
//!    (Definition 4) in symmetric memory, recording per cluster-tree edge:
//!    the 1-bit *root biconnectivity* (`pass_up`, Definition 5), whether
//!    the witness edge is a bridge, whether any bridge lies on the
//!    intra-parent tree segment from the witness to the parent's root, the
//!    kind of the witness edge's local BCC (extends upward vs. grounded
//!    here), and the count of BCCs whose top cluster this is;
//! 4. prefix sums over those counts (globally unique BCC ids) and top-down
//!    rootfixes: each cluster root's BCC label and the depth of the
//!    nearest *blocked* cluster (vertex-cut and edge-cut variants) on the
//!    way to the root.
//!
//! Queries re-derive `ρ`, rebuild at most three local graphs, and combine
//! them with the precomputed per-cluster bits: `O(k²) = O(ω)` expected
//! operations, no writes (Theorem 5.3). Vertex biconnectivity decomposes
//! over the cluster path (local same-BCC checks + transit bits);
//! 2-edge-connectivity uses the exact characterization "no bridge on the
//! spanning-tree path", with bridges determined by the local multigraphs
//! (Lemma 5.5).

pub mod build;
pub mod local;

use wec_asym::{FxHashMap, Ledger};
use wec_core::{Center, ImplicitDecomposition};
use wec_graph::{GraphView, Vertex};
use wec_prims::{lca::child_toward, EulerTour, LcaIndex, RootedForest};

use local::{
    analyze_local, build_component_graph, build_local_graph, intra_path_bridge_free, ClusterCtx,
    LocalBcc, LocalGraph,
};

/// A globally unique biconnected-component identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BccId {
    /// BCC of a centered component: `offset[top cluster] + internal rank`.
    Main(u64),
    /// BCC inside a small center-less component: (component minimum
    /// vertex, Hopcroft–Tarjan index within the component).
    Small(Vertex, u32),
}

/// The sublinear-write biconnectivity oracle.
pub struct BiconnectivityOracle<'a, G: GraphView> {
    /// The decomposition; its ascending center list maps dense id → center.
    pub(crate) d: ImplicitDecomposition<'a, G>,
    /// Center → dense id.
    pub(crate) idx: FxHashMap<Vertex, u32>,
    /// Clusters forest over dense ids.
    pub(crate) forest: RootedForest,
    /// Preorder of the clusters forest.
    pub(crate) tour: EulerTour,
    /// LCA/routing index over the clusters forest.
    pub(crate) lca: LcaIndex,
    /// Witness endpoint inside each non-root cluster (its cluster root).
    pub(crate) witness_inner: Vec<Vertex>,
    /// Witness endpoint inside the parent (`w_P`), per non-root cluster.
    pub(crate) witness_outer: Vec<Vertex>,
    /// Clusters-graph BC label per dense id (NO_LABEL for roots).
    pub(crate) cg_label: Vec<u32>,
    /// Depth of the deepest vertex-blocked cluster among ancestors-or-self
    /// (`u32::MAX` if none).
    pub(crate) blocked_v_depth: Vec<u32>,
    /// Whether each non-root cluster's witness tree edge is a bridge.
    pub(crate) bridge_wit: Vec<bool>,
    /// Edge-cut analogue of `blocked_v_depth`: deepest ancestor-or-self
    /// whose upward step (witness edge or intra-parent segment to the
    /// parent's root) crosses a bridge.
    pub(crate) blocked_e_depth: Vec<u32>,
    /// Global BCC label of each non-root cluster's witness tree edge.
    pub(crate) root_label: Vec<u64>,
    /// Base of the globally-unique id range per cluster.
    pub(crate) offset: Vec<u64>,
    /// Total BCCs across centered components.
    pub(crate) num_main_bcc: u64,
}

impl<'a, G: GraphView> BiconnectivityOracle<'a, G> {
    /// The serving view: the oracle itself, borrowed. Queries re-derive
    /// `ρ` and rebuild at most three local graphs in symmetric memory —
    /// they never write asymmetric memory — so one shared borrow serves
    /// any number of shard workers concurrently, each charging its own
    /// [`Ledger`] / [`wec_asym::LedgerScope`].
    pub fn query_handle(&self) -> BiconnQueryHandle<'_, 'a, G> {
        self
    }

    /// The underlying decomposition.
    pub fn decomposition(&self) -> &ImplicitDecomposition<'a, G> {
        &self.d
    }

    /// Number of biconnected components in centered components.
    pub fn num_main_bcc(&self) -> u64 {
        self.num_main_bcc
    }

    /// Asymmetric-memory footprint in words: the decomposition
    /// (`⌈n/32⌉ + n_c`), every per-cluster array (two words per `idx` entry), the clusters
    /// forest, its tour and the LCA index.
    pub fn storage_words(&self) -> usize {
        let per_cluster = [
            2 * self.idx.len(),
            self.witness_inner.len(),
            self.witness_outer.len(),
            self.cg_label.len(),
            self.blocked_v_depth.len(),
            self.bridge_wit.len(),
            self.blocked_e_depth.len(),
            self.root_label.len(),
            self.offset.len(),
        ];
        self.d.storage_words()
            + per_cluster.iter().sum::<usize>()
            + self.forest.words()
            + self.tour.words()
            + self.lca.words()
    }

    pub(crate) fn ctx(&self) -> ClusterCtx<'_> {
        ClusterCtx {
            centers: self.d.centers(),
            idx: &self.idx,
            forest: &self.forest,
            tour: &self.tour,
            witness_inner: &self.witness_inner,
            witness_outer: &self.witness_outer,
            cg_label: &self.cg_label,
        }
    }

    /// LCA of two clusters in the clusters forest (`None` across trees).
    fn cluster_lca(&self, led: &mut Ledger, a: u32, b: u32) -> Option<u32> {
        self.lca.lca(led, &self.forest, &self.tour, a, b)
    }

    /// The child of cluster `c` toward its strict descendant `d`.
    fn child_toward(&self, led: &mut Ledger, c: u32, d: u32) -> Option<u32> {
        child_toward(led, &self.forest, &self.tour, c, d)
    }

    /// Build and analyze the local graph of a cluster (query-path tool,
    /// exposed for the figure harnesses and tests).
    pub fn local_of(&self, led: &mut Ledger, ci: u32) -> (LocalGraph, LocalBcc) {
        let lg = build_local_graph(led, &self.d, &self.ctx(), ci);
        let bcc = analyze_local(led, &lg);
        (lg, bcc)
    }

    /// Resolve a vertex to its cluster (dense id) or small component.
    fn cluster_of(&self, led: &mut Ledger, v: Vertex) -> Resolved {
        match self.d.rho(led, v).center {
            Center::Stored(c) => Resolved::Cluster(self.idx[&c]),
            Center::ImplicitMin(c) => Resolved::Small(c),
        }
    }

    /// Build and analyze the local graph of a small center-less
    /// component (< k vertices), named by its minimum vertex.
    fn small_local(&self, led: &mut Ledger, min_vertex: Vertex) -> (LocalGraph, LocalBcc) {
        let lg = build_component_graph(led, &self.d, min_vertex);
        let bcc = analyze_local(led, &lg);
        (lg, bcc)
    }

    /// Whether `u` and `v` are connected (same component).
    pub fn connected(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return true;
        }
        match (self.cluster_of(led, u), self.cluster_of(led, v)) {
            (Resolved::Small(a), Resolved::Small(b)) => a == b,
            (Resolved::Cluster(a), Resolved::Cluster(b)) => {
                a == b || self.cluster_lca(led, a, b).is_some()
            }
            _ => false,
        }
    }

    /// Whether `u` and `v` lie in a common biconnected component.
    /// O(ω) expected operations, no writes.
    pub fn biconnected(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return true;
        }
        match (self.cluster_of(led, u), self.cluster_of(led, v)) {
            (Resolved::Small(a), Resolved::Small(b)) => {
                if a != b {
                    return false;
                }
                let (lg, bcc) = self.small_local(led, a);
                bcc.same_bcc(led, lg.index[&u], lg.index[&v])
            }
            (Resolved::Cluster(cu), Resolved::Cluster(cv)) => {
                if cu == cv {
                    let (lg, bcc) = self.local_of(led, cu);
                    return bcc.same_bcc(led, lg.index[&u], lg.index[&v]);
                }
                let Some(lcad) = self.cluster_lca(led, cu, cv) else {
                    return false;
                };
                let lca_depth = self.tour.depth[lcad as usize];
                // Transit checks strictly between endpoint clusters and LCA.
                for side in [cu, cv] {
                    if side == lcad {
                        continue;
                    }
                    led.read(2);
                    let bd = self.blocked_v_depth[side as usize];
                    if bd != u32::MAX && bd >= lca_depth + 2 {
                        return false;
                    }
                }
                // Endpoint-cluster exit checks (toward the parent).
                for (side, x) in [(cu, u), (cv, v)] {
                    if side == lcad {
                        continue;
                    }
                    let (lg, bcc) = self.local_of(led, side);
                    let po = lg.parent_outside.expect("non-LCA cluster has a parent");
                    if !bcc.same_bcc(led, lg.index[&x], po) {
                        return false;
                    }
                }
                // Turning check inside the LCA cluster.
                let (lg, bcc) = self.local_of(led, lcad);
                let entry = |led: &mut Ledger, side: u32, x: Vertex| -> u32 {
                    if side == lcad {
                        lg.index[&x]
                    } else {
                        let ch = self
                            .child_toward(led, lcad, side)
                            .expect("endpoint cluster descends from the LCA cluster");
                        lg.child_outside(ch).expect("child outside vertex present")
                    }
                };
                let a = entry(led, cu, u);
                let b = entry(led, cv, v);
                bcc.same_bcc(led, a, b)
            }
            _ => false,
        }
    }

    /// Whether `u` and `v` are 2-edge-connected: connected with no bridge
    /// on their spanning-tree path. O(ω) expected operations, no writes.
    pub fn two_edge_connected(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return true;
        }
        match (self.cluster_of(led, u), self.cluster_of(led, v)) {
            (Resolved::Small(a), Resolved::Small(b)) => {
                if a != b {
                    return false;
                }
                let (lg, bcc) = self.small_local(led, a);
                bcc.same_tecc(led, lg.index[&u], lg.index[&v])
            }
            (Resolved::Cluster(cu), Resolved::Cluster(cv)) => {
                if cu == cv {
                    let (lg, bcc) = self.local_of(led, cu);
                    return intra_path_bridge_free(led, &lg, &bcc, u, v);
                }
                let Some(lcad) = self.cluster_lca(led, cu, cv) else {
                    return false;
                };
                let lca_depth = self.tour.depth[lcad as usize];
                // Transit checks: witness edges + intra-parent segments of
                // all strict intermediates, plus the final witness into the
                // LCA cluster.
                for side in [cu, cv] {
                    if side == lcad {
                        continue;
                    }
                    led.read(2);
                    let bd = self.blocked_e_depth[side as usize];
                    if bd != u32::MAX && bd >= lca_depth + 2 {
                        return false;
                    }
                    let top_child = self
                        .child_toward(led, lcad, side)
                        .expect("endpoint cluster descends from the LCA cluster");
                    led.read(1);
                    if self.bridge_wit[top_child as usize] {
                        return false;
                    }
                }
                // Endpoint segments: from the vertex up to its cluster root.
                for (side, x) in [(cu, u), (cv, v)] {
                    if side == lcad {
                        continue;
                    }
                    let (lg, bcc) = self.local_of(led, side);
                    let root = self.witness_inner[side as usize];
                    if !intra_path_bridge_free(led, &lg, &bcc, x, root) {
                        return false;
                    }
                }
                // LCA segment between the two entry points.
                let (lg, bcc) = self.local_of(led, lcad);
                let entry = |led: &mut Ledger, side: u32, x: Vertex| -> Vertex {
                    if side == lcad {
                        x
                    } else {
                        let ch = self
                            .child_toward(led, lcad, side)
                            .expect("endpoint cluster descends from the LCA cluster");
                        self.witness_outer[ch as usize]
                    }
                };
                let a = entry(led, cu, u);
                let b = entry(led, cv, v);
                intra_path_bridge_free(led, &lg, &bcc, a, b)
            }
            _ => false,
        }
    }

    /// Answer a predicate query by its canonical [`BiconnQueryKey`]:
    /// charges exactly what the corresponding direct call with the
    /// canonicalized argument order would charge. This is the miss path of
    /// key-addressed result caches.
    pub fn answer_key(&self, led: &mut Ledger, key: BiconnQueryKey) -> bool {
        match key {
            BiconnQueryKey::TwoEdgeConnected(u, v) => self.two_edge_connected(led, u, v),
            BiconnQueryKey::Biconnected(u, v) => self.biconnected(led, u, v),
        }
    }

    /// Whether `v` is an articulation point of the graph. O(ω) expected
    /// operations, no writes.
    pub fn is_articulation(&self, led: &mut Ledger, v: Vertex) -> bool {
        match self.cluster_of(led, v) {
            Resolved::Cluster(ci) => {
                let (lg, bcc) = self.local_of(led, ci);
                bcc.articulation[lg.index[&v] as usize]
            }
            Resolved::Small(c) => {
                let (lg, bcc) = self.small_local(led, c);
                bcc.articulation[lg.index[&v] as usize]
            }
        }
    }

    /// Whether existing edge `{u, v}` is a bridge. O(ω) expected
    /// operations, no writes.
    pub fn is_bridge(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> bool {
        match (self.cluster_of(led, u), self.cluster_of(led, v)) {
            (Resolved::Small(a), Resolved::Small(_b)) => {
                let (lg, bcc) = self.small_local(led, a);
                bcc.edge_is_bridge(led, &lg.csr, lg.index[&u], lg.index[&v])
            }
            (Resolved::Cluster(a), Resolved::Cluster(b)) => {
                if a == b {
                    let (lg, bcc) = self.local_of(led, a);
                    return bcc.edge_is_bridge(led, &lg.csr, lg.index[&u], lg.index[&v]);
                }
                // Cross-cluster: only the witness tree edge can be a bridge.
                led.read(4);
                let child = if self.forest.parent(a) == b {
                    a
                } else if self.forest.parent(b) == a {
                    b
                } else {
                    return false; // non-tree cluster edge: always on a cycle
                };
                let wi = self.witness_inner[child as usize];
                let wo = self.witness_outer[child as usize];
                if !((wi == u && wo == v) || (wi == v && wo == u)) {
                    return false; // a parallel bundle edge: not a bridge
                }
                self.bridge_wit[child as usize]
            }
            _ => unreachable!("an edge cannot join different components"),
        }
    }

    /// Globally unique biconnected-component id of existing edge `{u, v}`.
    /// O(ω) expected operations, no writes.
    pub fn edge_bcc(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> BccId {
        match (self.cluster_of(led, u), self.cluster_of(led, v)) {
            (Resolved::Small(a), Resolved::Small(_)) => {
                let (lg, bcc) = self.small_local(led, a);
                let iu = lg.index[&u];
                let iv = lg.index[&v];
                let pos = lg.csr.arc_position(iu, iv).expect("edge must exist");
                BccId::Small(a, bcc.edge_bcc[lg.csr.neighbor_edge_ids(iu)[pos] as usize])
            }
            (Resolved::Cluster(a), Resolved::Cluster(b)) => {
                if a == b {
                    let (lg, bcc) = self.local_of(led, a);
                    let (iu, iv) = (lg.index[&u], lg.index[&v]);
                    let pos = lg.csr.arc_position(iu, iv).expect("edge must exist");
                    let lb = bcc.edge_bcc[lg.csr.neighbor_edge_ids(iu)[pos] as usize];
                    return BccId::Main(self.resolve(led, a, lb, &bcc));
                }
                // Witness edges were resolved at build time; other cross
                // edges are evaluated via their routed image.
                led.read(4);
                let child = if self.forest.parent(a) == b {
                    Some(a)
                } else if self.forest.parent(b) == a {
                    Some(b)
                } else {
                    None
                };
                if let Some(child) = child {
                    let wi = self.witness_inner[child as usize];
                    let wo = self.witness_outer[child as usize];
                    if (wi == u && wo == v) || (wi == v && wo == u) {
                        return BccId::Main(self.root_label[child as usize]);
                    }
                }
                let (host, hostx, far) = if self.tour.is_ancestor(a, b) {
                    (a, u, b)
                } else if self.tour.is_ancestor(b, a) {
                    (b, v, a)
                } else {
                    (a, u, b)
                };
                let (lg, bcc) = self.local_of(led, host);
                let vo = if self.tour.is_ancestor(host, far) && host != far {
                    let ch = self
                        .child_toward(led, host, far)
                        .expect("descendant routing");
                    lg.child_outside(ch).expect("child outside present")
                } else {
                    lg.parent_outside
                        .expect("unrelated edge needs parent direction")
                };
                let ix = lg.index[&hostx];
                let pos = lg
                    .csr
                    .arc_position(ix, vo)
                    .expect("routed image of a cross edge exists in the local graph");
                let lb = bcc.edge_bcc[lg.csr.neighbor_edge_ids(ix)[pos] as usize];
                BccId::Main(self.resolve(led, host, lb, &bcc))
            }
            _ => unreachable!("an edge cannot join different components"),
        }
    }

    /// Resolve a local BCC of cluster `ci` to its global id: if it extends
    /// upward (touches the parent-direction outside vertex) it is the BCC
    /// of this cluster's witness edge, whose label was resolved top-down
    /// at build time; otherwise this cluster is its top cluster and the id
    /// is grounded here via the compact internal rank.
    fn resolve(&self, led: &mut Ledger, ci: u32, local_bcc: u32, bcc: &LocalBcc) -> u64 {
        led.read(2);
        if bcc.bcc_touches_parent[local_bcc as usize] {
            self.root_label[ci as usize]
        } else {
            self.offset[ci as usize] + bcc.internal_rank[local_bcc as usize] as u64
        }
    }
}

/// Canonical, hashable identity of a biconnectivity-class predicate query,
/// for result caches (see `wec-serve`'s streaming front end).
///
/// Both predicates are symmetric in their endpoints, so the constructors
/// normalize the pair to `(min, max)`: `two_edge_connected(u, v)` and
/// `two_edge_connected(v, u)` share one key (and therefore one cache
/// entry). Canonicalization is pure compute on values already in hand and
/// charges nothing; a cache miss re-runs the query **in canonical order**,
/// so the miss cost is the one-by-one cost of the canonicalized query (the
/// oracle's short-circuit order can make `(u, v)` and `(v, u)` charge
/// slightly differently — the key pins down which of the two is charged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiconnQueryKey {
    /// `two_edge_connected(u, v)` with `u <= v`.
    TwoEdgeConnected(Vertex, Vertex),
    /// `biconnected(u, v)` with `u <= v`.
    Biconnected(Vertex, Vertex),
}

impl BiconnQueryKey {
    /// Canonical key for a 2-edge-connectivity query.
    pub fn two_edge_connected(u: Vertex, v: Vertex) -> Self {
        BiconnQueryKey::TwoEdgeConnected(u.min(v), u.max(v))
    }

    /// Canonical key for a biconnectivity query.
    pub fn biconnected(u: Vertex, v: Vertex) -> Self {
        BiconnQueryKey::Biconnected(u.min(v), u.max(v))
    }

    /// Stable routing hash of this key — the affinity surface predicate
    /// result caches shard on (see `wec-serve`'s streaming front end).
    ///
    /// The owner shard under `s` shards is `route_hash() % s`. Built from
    /// [`wec_asym::stable_mix64`] over the packed canonical endpoint pair,
    /// salted per predicate kind so the two predicate key spaces spread
    /// independently; pinned across runs, platforms, and versions (golden
    /// cost files depend on the placement). Because the constructors
    /// canonicalize endpoint order, `(u, v)` and `(v, u)` always route to
    /// the same shard. Hashing is pure compute on values already in hand;
    /// the serving layer charges its own per-query routing operation.
    #[inline]
    pub fn route_hash(self) -> u64 {
        let (salt, u, v) = match self {
            BiconnQueryKey::TwoEdgeConnected(u, v) => (0x2EC0_u64, u, v),
            BiconnQueryKey::Biconnected(u, v) => (0xB1C0_u64, u, v),
        };
        wec_asym::stable_mix64(((u as u64) << 32 | v as u64) ^ salt.rotate_left(48))
    }
}

/// The serving view of a [`BiconnectivityOracle`]: a shared borrow, `Copy`
/// and one word wide. The name is kept for callers that spell the type.
pub type BiconnQueryHandle<'o, 'g, G> = &'o BiconnectivityOracle<'g, G>;

#[derive(Debug, Clone, Copy)]
enum Resolved {
    Cluster(u32),
    Small(Vertex),
}

pub use build::build_biconnectivity_oracle;

#[cfg(test)]
mod tests;
