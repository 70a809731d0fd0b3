//! The **local graph** of a cluster (Definition 4) and its biconnectivity
//! analysis.
//!
//! For a cluster `C` the local graph has vertices `Vi ∪ Vo` — the members
//! plus one *outside vertex* per incident cluster-tree edge — and edges:
//!
//! 1. the G-edges internal to `C`, plus the witness edges of the incident
//!    cluster-tree edges;
//! 2. a chain over the outside vertices of tree-neighbor clusters that
//!    share a clusters-graph BC label (an external detour around `C`
//!    exists between them);
//! 3. every other G-edge leaving `C` redirected to the outside vertex in
//!    whose cluster-tree direction its far endpoint lies.
//!
//! The local graph is a **multigraph**: distinct G-edges that category 3
//! routes onto the same local pair stay parallel — collapsing them would
//! erase exactly the redundancy that keeps pairs 2-edge-connected and
//! bridges on cycles (the witness tree edge itself is added once).
//!
//! The graph has O(k) vertices and edges and fits in symmetric memory; its
//! Hopcroft–Tarjan analysis is charged as unit operations
//! ([`wec_asym::Ledger::sym_compute`]). Construction itself pays real
//! asymmetric reads: cluster enumeration, which evaluates one `ρ` per
//! boundary vertex and memoizes its center, and a rescan of member
//! adjacency that routes each external edge by a lookup in that memo —
//! O(k²) expected operations, **no writes** (Lemma 5.4).
//!
//! That symmetric memory is the paper's scratchpad, reused from query to
//! query: the kernel runs in per-worker pooled buffers
//! ([`wec_asym::scratch`]). A [`LocalGraph`] (its CSR included) and a
//! [`LocalBcc`] take their vectors from their thread's pool and give them
//! back when dropped; construction, Hopcroft–Tarjan and the path checks
//! borrow their working arrays from it for the duration of the call. Once
//! the pools are warm a query allocates nothing. The pool is wall-clock
//! plumbing only: every charge above is made explicitly, so reuse changes
//! no `Costs`.

use std::cell::RefCell;
use std::mem::take;
use wec_asym::scratch::{self, Pool};
use wec_asym::{FxHashMap, Ledger};
use wec_baseline::{hopcroft_tarjan_into, HtResult, HtScratch};
use wec_core::ImplicitDecomposition;
use wec_graph::{Csr, GraphView, Vertex};
use wec_prims::lca::child_toward;
use wec_prims::{EulerTour, RootedForest};

use crate::labeling::NO_LABEL;

/// Direction an outside vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutsideDir {
    /// Toward the cluster's parent (the vertex is `w_P`, in the parent
    /// cluster).
    Parent,
    /// Toward a child cluster (dense id); the vertex is that child's
    /// cluster root.
    Child(u32),
}

/// A materialized (symmetric-memory) local graph. Its storage returns to
/// this thread's pool when it is dropped.
pub struct LocalGraph {
    /// Global ids: members in canonical order, then outside vertices.
    pub verts: Vec<Vertex>,
    /// Global → local index.
    pub index: FxHashMap<Vertex, u32>,
    /// Number of member vertices (prefix of `verts`).
    pub n_members: usize,
    /// Local-id multigraph CSR.
    pub csr: Csr,
    /// Direction of each outside vertex, parallel to `verts[n_members..]`.
    pub dirs: Vec<OutsideDir>,
    /// Local id of the parent-direction outside vertex, if any.
    pub parent_outside: Option<u32>,
    /// Cluster-tree parent (global id) per member, parallel to the member
    /// prefix of `verts` — the intra-cluster piece of the global spanning
    /// tree T_G (center maps to itself).
    pub tree_parent: Vec<Vertex>,
}

/// The storage of a [`LocalGraph`], pooled while no local graph holds it.
#[derive(Default)]
struct GraphBufs {
    verts: Vec<Vertex>,
    index: FxHashMap<Vertex, u32>,
    csr: Csr,
    dirs: Vec<OutsideDir>,
    tree_parent: Vec<Vertex>,
}

wec_asym::recycle_fields!(GraphBufs {
    verts,
    index,
    csr,
    dirs,
    tree_parent
});

/// The storage of a [`LocalBcc`], pooled while no analysis holds it.
#[derive(Default)]
struct BccBufs {
    ht: HtResult,
    tecc: Vec<u32>,
    bcc_touches_parent: Vec<bool>,
    internal_rank: Vec<u32>,
    bcc_offsets: Vec<u32>,
    bcc_lists: Vec<u32>,
}

wec_asym::recycle_fields!(BccBufs {
    ht,
    tecc,
    bcc_touches_parent,
    internal_rank,
    bcc_offsets,
    bcc_lists
});

/// The working arrays of one kernel call (a build, an analysis or a path
/// check), each call using the ones it needs.
#[derive(Default)]
struct KernelScratch {
    /// Local edges as they are listed.
    edges: Vec<(u32, u32)>,
    /// One member's neighbors.
    nbrs: Vec<Vertex>,
    /// `(clusters-graph label, local id)` of the labeled outside vertices.
    labeled: Vec<(u32, u32)>,
    /// One chain of equal labels: a `start..end` range of `labeled`.
    chains: Vec<(u32, u32)>,
    /// Hopcroft–Tarjan's working arrays.
    ht: HtScratch,
    /// DFS stack of the 2-edge-connected-component sweep.
    stack: Vec<u32>,
    /// One vertex's BCCs while they are deduplicated.
    bccs: Vec<u32>,
    /// One vertex's ancestor chain in the cluster tree.
    ancestors: Vec<Vertex>,
}

wec_asym::recycle_fields!(KernelScratch {
    edges,
    nbrs,
    labeled,
    chains,
    ht,
    stack,
    bccs,
    ancestors
});

thread_local! {
    static GRAPHS: Pool<GraphBufs> = const { RefCell::new(Vec::new()) };
    static BCCS: Pool<BccBufs> = const { RefCell::new(Vec::new()) };
    static SCRATCH: Pool<KernelScratch> = const { RefCell::new(Vec::new()) };
}

/// The largest buffer capacity held by this thread's local-graph pools,
/// for the pool-hygiene tests.
#[cfg(test)]
pub(super) fn largest_pooled_capacity() -> usize {
    fn largest<T: scratch::Recycle>(pool: &'static std::thread::LocalKey<Pool<T>>) -> usize {
        pool.with(|p| p.borrow().iter().map(T::largest_capacity).max())
            .unwrap_or(0)
    }
    largest(&GRAPHS).max(largest(&BCCS)).max(largest(&SCRATCH))
}

impl Drop for LocalGraph {
    fn drop(&mut self) {
        let bufs = GraphBufs {
            verts: take(&mut self.verts),
            index: take(&mut self.index),
            csr: take(&mut self.csr),
            dirs: take(&mut self.dirs),
            tree_parent: take(&mut self.tree_parent),
        };
        scratch::give(&GRAPHS, bufs);
    }
}

impl LocalGraph {
    /// An empty local graph over pooled storage.
    fn pooled() -> LocalGraph {
        let GraphBufs {
            verts,
            index,
            csr,
            dirs,
            tree_parent,
        } = scratch::take(&GRAPHS);
        LocalGraph {
            verts,
            index,
            n_members: 0,
            csr,
            dirs,
            parent_outside: None,
            tree_parent,
        }
    }

    /// Local id of a global vertex, if present.
    pub fn local(&self, v: Vertex) -> Option<u32> {
        self.index.get(&v).copied()
    }

    /// Local id of the outside vertex toward dense child `d`.
    pub fn child_outside(&self, d: u32) -> Option<u32> {
        self.dirs.iter().enumerate().find_map(|(i, &dir)| {
            (dir == OutsideDir::Child(d)).then_some((self.n_members + i) as u32)
        })
    }

    /// Cluster-tree parent (global id) of a member, by global id.
    pub fn parent_of(&self, v: Vertex) -> Vertex {
        let i = self.index[&v] as usize;
        debug_assert!(i < self.n_members, "parent_of on an outside vertex");
        self.tree_parent[i]
    }
}

/// Whether the intra-cluster spanning-tree path between members `a` and
/// `b` of `lg`'s cluster is bridge-free under the local multigraph's
/// bridge flags (Lemma 5.5). O(k log k) operations.
pub(super) fn intra_path_bridge_free(
    led: &mut Ledger,
    lg: &LocalGraph,
    bcc: &LocalBcc,
    a: Vertex,
    b: Vertex,
) -> bool {
    if a == b {
        return true;
    }
    let mut tmp = scratch::take(&SCRATCH);
    let seen = &mut tmp.ancestors;
    let free = 'walk: {
        // Collect a's ancestor chain (toward the cluster center).
        let mut cur = a;
        seen.push(a);
        led.op(1);
        loop {
            let p = lg.parent_of(cur);
            if p == cur {
                break;
            }
            seen.push(p);
            led.op(1);
            cur = p;
        }
        // Walk b upward to the meeting point, checking bridges on the way.
        let mut meet = b;
        while !seen.contains(&meet) {
            let p = lg.parent_of(meet);
            if bcc.edge_is_bridge(led, &lg.csr, lg.index[&meet], lg.index[&p]) {
                break 'walk false;
            }
            meet = p;
        }
        // Walk a upward to the meeting point, checking its side.
        let mut cur = a;
        while cur != meet {
            let p = lg.parent_of(cur);
            if bcc.edge_is_bridge(led, &lg.csr, lg.index[&cur], lg.index[&p]) {
                break 'walk false;
            }
            cur = p;
        }
        true
    };
    scratch::give(&SCRATCH, tmp);
    free
}

/// Everything about the clusters forest the local-graph builder needs.
pub struct ClusterCtx<'a> {
    /// Dense id → center vertex.
    pub centers: &'a [Vertex],
    /// Center vertex → dense id.
    pub idx: &'a FxHashMap<Vertex, u32>,
    /// Clusters forest over dense ids.
    pub forest: &'a RootedForest,
    /// Preorder of the clusters forest.
    pub tour: &'a EulerTour,
    /// Witness endpoint inside each cluster (its cluster root).
    pub witness_inner: &'a [Vertex],
    /// Witness endpoint inside each cluster's parent (`w_P`).
    pub witness_outer: &'a [Vertex],
    /// Clusters-graph BC label per dense id ([`NO_LABEL`] for roots).
    pub cg_label: &'a [u32],
}

/// Build the local graph of the cluster with dense id `ci`.
pub fn build_local_graph<G: GraphView>(
    led: &mut Ledger,
    d: &ImplicitDecomposition<G>,
    ctx: &ClusterCtx,
    ci: u32,
) -> LocalGraph {
    let center = ctx.centers[ci as usize];
    let cluster = d.cluster(led, center);
    let members = &cluster.members;
    let mut lg = LocalGraph::pooled();
    let mut tmp = scratch::take(&SCRATCH);
    let LocalGraph {
        verts,
        index,
        n_members,
        csr,
        dirs,
        parent_outside,
        tree_parent,
    } = &mut lg;
    let KernelScratch {
        edges,
        nbrs,
        labeled,
        chains,
        ..
    } = &mut tmp;
    verts.extend_from_slice(members);
    tree_parent.extend_from_slice(&cluster.parents);
    let is_root = ctx.forest.is_root(ci);
    if !is_root {
        *parent_outside = Some(verts.len() as u32);
        verts.push(ctx.witness_outer[ci as usize]);
        dirs.push(OutsideDir::Parent);
    }
    let children = ctx.forest.children(ci);
    for &cj in children {
        verts.push(ctx.witness_inner[cj as usize]);
        dirs.push(OutsideDir::Child(cj));
    }
    *n_members = members.len();
    let n_members = *n_members;
    for (i, &v) in verts.iter().enumerate() {
        index.insert(v, i as u32);
    }
    led.op(verts.len() as u64);

    // Category 1b: witness tree edges (each exactly once).
    if let Some(po) = *parent_outside {
        edges.push((index[&ctx.witness_inner[ci as usize]], po));
    }
    for &cj in children {
        edges.push((
            index[&ctx.witness_outer[cj as usize]],
            index[&ctx.witness_inner[cj as usize]],
        ));
    }
    // Categories 1a + 3: scan member adjacency. `index` answers
    // membership: members hold the local ids below `n_members`.
    led.op(n_members as u64);
    for &v in members {
        nbrs.clear();
        d.graph().neighbors_into(led, v, nbrs);
        let iv = index[&v];
        for &w in nbrs.iter() {
            led.op(1);
            if let Some(&iw) = index.get(&w).filter(|&&iw| (iw as usize) < n_members) {
                if v < w {
                    edges.push((iv, iw));
                }
                continue;
            }
            // Skip the witness edges themselves — already added by 1b; a
            // duplicate here would fabricate a parallel pair.
            if !is_root
                && v == ctx.witness_inner[ci as usize]
                && w == ctx.witness_outer[ci as usize]
            {
                continue;
            }
            // External edge: route to the outside vertex toward w's
            // cluster, whose center the enumeration's boundary memo holds.
            let wc = cluster
                .boundary_center(w)
                .expect("a non-member neighbor is a boundary vertex");
            led.op(1);
            let wd = ctx.idx[&wc];
            debug_assert_ne!(wd, ci);
            let vo = if ctx.tour.is_ancestor(ci, wd) {
                let ch = child_toward(led, ctx.forest, ctx.tour, ci, wd)
                    .expect("descendant routing must find a child");
                if v == ctx.witness_outer[ch as usize] && w == ctx.witness_inner[ch as usize] {
                    continue; // the child witness edge, already added
                }
                index[&ctx.witness_inner[ch as usize]]
            } else {
                parent_outside.expect("non-descendant external edge requires a parent direction")
            };
            edges.push((iv, vo));
        }
    }
    // Category 2: chain outside vertices of tree neighbors sharing a
    // clusters-graph BC label. Each chain runs in local-id order and the
    // chains are ordered by their smallest local id, so local edge ids are
    // deterministic.
    for (j, &dir) in dirs.iter().enumerate() {
        let label = match dir {
            OutsideDir::Parent => ctx.cg_label[ci as usize],
            OutsideDir::Child(cj) => ctx.cg_label[cj as usize],
        };
        led.op(1);
        if label != NO_LABEL {
            labeled.push((label, (n_members + j) as u32));
        }
    }
    labeled.sort_unstable();
    let mut start = 0;
    for run in labeled.chunk_by(|a, b| a.0 == b.0) {
        chains.push((start, start + run.len() as u32));
        start += run.len() as u32;
    }
    chains.sort_unstable_by_key(|&(lo, _)| labeled[lo as usize].1);
    for &(lo, hi) in chains.iter() {
        for pair in labeled[lo as usize..hi as usize].windows(2) {
            edges.push((pair[0].1, pair[1].1));
        }
    }
    led.op(edges.len() as u64);

    csr.refill_multigraph(verts.len(), edges);
    led.op(2 * edges.len() as u64);
    scratch::give(&SCRATCH, tmp);
    lg
}

/// Build the local graph of a small center-less component (< k vertices,
/// enumerated from its minimum vertex): its members and the G-edges among
/// them, as the simple graph [`Csr::from_edges`] would build, with no
/// outside vertices.
pub(super) fn build_component_graph<G: GraphView>(
    led: &mut Ledger,
    d: &ImplicitDecomposition<G>,
    min_vertex: Vertex,
) -> LocalGraph {
    let cluster = d.cluster(led, min_vertex);
    let mut lg = LocalGraph::pooled();
    let mut tmp = scratch::take(&SCRATCH);
    let KernelScratch { edges, nbrs, .. } = &mut tmp;
    let n = cluster.members.len();
    lg.verts.extend_from_slice(&cluster.members);
    lg.tree_parent.extend_from_slice(&cluster.parents);
    lg.n_members = n;
    for (i, &v) in cluster.members.iter().enumerate() {
        lg.index.insert(v, i as u32);
    }
    for &v in &cluster.members {
        nbrs.clear();
        d.graph().neighbors_into(led, v, nbrs);
        for &w in nbrs.iter() {
            led.op(1);
            if v < w {
                let (a, b) = (lg.index[&v], lg.index[&w]);
                edges.push((a.min(b), a.max(b)));
            }
        }
    }
    led.op(2 * edges.len() as u64 + n as u64);
    edges.sort_unstable();
    edges.dedup();
    lg.csr.refill_multigraph(n, edges);
    scratch::give(&SCRATCH, tmp);
    lg
}

/// Biconnectivity analysis of a local graph, computed in symmetric memory.
/// Its storage returns to this thread's pool when it is dropped.
pub struct LocalBcc {
    /// Per-local-edge BCC labels (Hopcroft–Tarjan).
    pub edge_bcc: Vec<u32>,
    /// Articulation flags per local vertex.
    pub articulation: Vec<bool>,
    /// Bridge flags per local edge.
    pub bridge: Vec<bool>,
    /// Number of local BCCs.
    pub num_bcc: usize,
    /// 2-edge-connected-component label per local vertex (exact only when
    /// the graph has no synthetic chain edges, i.e. for small components).
    pub tecc: Vec<u32>,
    /// Per-BCC: touches the parent-direction outside vertex.
    pub bcc_touches_parent: Vec<bool>,
    /// Per-BCC: compact rank among the BCCs *not* touching the parent
    /// direction (`u32::MAX` for those that do). This is the index used
    /// for globally unique ids, so it must not count upward-extending
    /// components.
    pub internal_rank: Vec<u32>,
    /// Offsets into [`Self::bcc_lists`], one per local vertex plus one.
    pub bcc_offsets: Vec<u32>,
    /// Per-local-vertex sorted lists of the BCCs it belongs to,
    /// concatenated; see [`LocalBcc::vertex_bccs`].
    pub bcc_lists: Vec<u32>,
}

impl Drop for LocalBcc {
    fn drop(&mut self) {
        let bufs = BccBufs {
            ht: HtResult {
                articulation: take(&mut self.articulation),
                bridge: take(&mut self.bridge),
                edge_bcc: take(&mut self.edge_bcc),
                num_bcc: 0,
            },
            tecc: take(&mut self.tecc),
            bcc_touches_parent: take(&mut self.bcc_touches_parent),
            internal_rank: take(&mut self.internal_rank),
            bcc_offsets: take(&mut self.bcc_offsets),
            bcc_lists: take(&mut self.bcc_lists),
        };
        scratch::give(&BCCS, bufs);
    }
}

/// Analyze a local graph. All charged as symmetric-memory operations.
pub fn analyze_local(led: &mut Ledger, lg: &LocalGraph) -> LocalBcc {
    let n = lg.csr.n();
    let m = lg.csr.m();
    let BccBufs {
        mut ht,
        mut tecc,
        mut bcc_touches_parent,
        mut internal_rank,
        mut bcc_offsets,
        mut bcc_lists,
    } = scratch::take(&BCCS);
    let mut tmp = scratch::take(&SCRATCH);
    led.sym_compute((4 * (n + m) + 8) as u64, |sc| {
        let KernelScratch {
            ht: ht_scratch,
            stack,
            bccs,
            ..
        } = &mut tmp;
        hopcroft_tarjan_into(sc, &lg.csr, &mut ht, ht_scratch);
        // 2ecc: components after removing bridges.
        tecc.resize(n, u32::MAX);
        let mut next = 0u32;
        for s in 0..n as u32 {
            if tecc[s as usize] != u32::MAX {
                continue;
            }
            tecc[s as usize] = next;
            stack.push(s);
            while let Some(v) = stack.pop() {
                sc.op(1);
                for (&w, &e) in lg.csr.neighbors(v).iter().zip(lg.csr.neighbor_edge_ids(v)) {
                    if !ht.bridge[e as usize] && tecc[w as usize] == u32::MAX {
                        tecc[w as usize] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        // Which BCCs touch the parent-direction outside vertex.
        bcc_touches_parent.resize(ht.num_bcc, false);
        if let Some(po) = lg.parent_outside {
            for &e in lg.csr.neighbor_edge_ids(po) {
                bcc_touches_parent[ht.edge_bcc[e as usize] as usize] = true;
            }
        }
        let mut next_rank = 0u32;
        for &up in bcc_touches_parent.iter() {
            if up {
                internal_rank.push(u32::MAX);
            } else {
                internal_rank.push(next_rank);
                next_rank += 1;
            }
        }
        // Per-vertex BCC membership.
        bcc_offsets.push(0);
        for v in 0..n as u32 {
            bccs.clear();
            bccs.extend(
                lg.csr
                    .neighbor_edge_ids(v)
                    .iter()
                    .map(|&e| ht.edge_bcc[e as usize]),
            );
            bccs.sort_unstable();
            bccs.dedup();
            sc.op(bccs.len() as u64 + 1);
            bcc_lists.extend_from_slice(bccs);
            bcc_offsets.push(bcc_lists.len() as u32);
        }
    });
    scratch::give(&SCRATCH, tmp);
    LocalBcc {
        edge_bcc: take(&mut ht.edge_bcc),
        articulation: take(&mut ht.articulation),
        bridge: take(&mut ht.bridge),
        num_bcc: ht.num_bcc,
        tecc,
        bcc_touches_parent,
        internal_rank,
        bcc_offsets,
        bcc_lists,
    }
}

impl LocalBcc {
    /// Sorted BCCs of local vertex `v`.
    pub fn vertex_bccs(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.bcc_lists[self.bcc_offsets[v] as usize..self.bcc_offsets[v + 1] as usize]
    }

    /// Whether two local vertices share a biconnected component.
    pub fn same_bcc(&self, led: &mut Ledger, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        let (x, y) = (self.vertex_bccs(a), self.vertex_bccs(b));
        led.op((x.len() + y.len()) as u64 + 1);
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }

    /// Whether two local vertices are 2-edge-connected *within the local
    /// model* (exact for chain-free graphs; small components only).
    pub fn same_tecc(&self, led: &mut Ledger, a: u32, b: u32) -> bool {
        led.op(2);
        self.tecc[a as usize] == self.tecc[b as usize]
    }

    /// Whether the local edge joining local vertices `a` and `b` is a
    /// bridge (any parallel copy; parallel copies are never bridges).
    pub fn edge_is_bridge(&self, led: &mut Ledger, csr: &Csr, a: u32, b: u32) -> bool {
        let pos = csr.arc_position(a, b).expect("local edge must exist");
        led.op(2);
        self.bridge[csr.neighbor_edge_ids(a)[pos] as usize]
    }
}
