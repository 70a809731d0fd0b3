//! The implicit clusters graph (Definition 1 + Lemma 4.3).
//!
//! Vertices are the stored centers; an edge joins two centers whenever some
//! `G`-edge crosses between their clusters. Nothing is materialized:
//! enumerating the centers adjacent to `x` enumerates `x`'s cluster, whose
//! boundary memo already holds every boundary neighbor's center, then
//! rescans member adjacency and looks each crossing edge's far center up
//! in that memo — one `ρ` per boundary vertex, O(k²) expected operations,
//! no writes (Lemma 4.3).
//!
//! [`ClustersGraph::spanning_forest`] is the one traversal both oracles run
//! over it: a level-parallel BFS whose trees are the connected components
//! the §4.3 connectivity oracle labels, and whose parents and discovering
//! edges are Step 1 of the §5.3 biconnectivity oracle (Algorithm 2).
//!
//! Center-less small components have no stored center and therefore no
//! clusters-graph vertex; the connectivity/biconnectivity oracles resolve
//! their queries entirely at query time (the component fits in symmetric
//! memory).

use crate::decomp::ImplicitDecomposition;
use wec_asym::{FxHashMap, FxHashSet, Ledger};
use wec_graph::{GraphView, Vertex};

/// Implicit clusters-graph view over a decomposition.
pub struct ClustersGraph<'a, G: GraphView> {
    d: &'a ImplicitDecomposition<'a, G>,
}

/// A clusters-graph edge with its witness `G`-edge: `inner` lies in the
/// source cluster, `outer` in the neighbor cluster. The §5.3 machinery
/// needs the witnesses; plain connectivity only needs `center`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterEdge {
    /// The neighboring cluster's center.
    pub center: Vertex,
    /// Endpoint of the witness edge inside the source cluster.
    pub inner: Vertex,
    /// Endpoint of the witness edge inside the neighbor cluster.
    pub outer: Vertex,
}

impl<'a, G: GraphView> ClustersGraph<'a, G> {
    /// Wrap a decomposition.
    pub fn new(d: &'a ImplicitDecomposition<'a, G>) -> Self {
        ClustersGraph { d }
    }

    /// The decomposition.
    pub fn decomposition(&self) -> &'a ImplicitDecomposition<'a, G> {
        self.d
    }

    /// Neighboring centers of `x` with one witness edge each (first in the
    /// canonical enumeration order), deduplicated by neighbor center.
    /// O(k²) expected operations, no writes.
    pub fn neighbor_edges(&self, led: &mut Ledger, x: Vertex) -> Vec<ClusterEdge> {
        let cluster = self.d.cluster(led, x);
        // The cluster and its boundary memo stay in symmetric memory while
        // member adjacency is rescanned.
        let held = 2 * (cluster.members.len() + cluster.boundary.len()) as u64;
        led.sym_alloc(held);
        let mut seen: FxHashSet<Vertex> = FxHashSet::default();
        let mut edges = Vec::new();
        let mut nbrs = Vec::new();
        for &v in &cluster.members {
            nbrs.clear();
            self.d.graph().neighbors_into(led, v, &mut nbrs);
            for &w in &nbrs {
                led.op(1);
                // A member's neighbor outside the memo is a member.
                let Some(c) = cluster.boundary_center(w) else {
                    continue;
                };
                led.op(1);
                debug_assert_ne!(c, x);
                if seen.insert(c) {
                    edges.push(ClusterEdge {
                        center: c,
                        inner: v,
                        outer: w,
                    });
                    led.op(1);
                }
            }
        }
        led.sym_free(held);
        edges
    }

    /// BFS spanning forest of the clusters graph, one tree per connected
    /// component. Trees start at the undiscovered centers in `centers`
    /// order and are numbered in that order, so tree `t` holds the
    /// `t`-th component by first appearance in `centers`; `index` maps each
    /// center to its position there. Returns the parent array (a root is
    /// its own parent) and the number of trees.
    ///
    /// The forest is built level by level: a frontier's O(k²) edge listings
    /// are independent, so they fan out over worker scopes, one accounting
    /// chunk per listing (a level's depth is its longest listing). Parents
    /// are then assigned in frontier order, which gives exactly the forest
    /// of a FIFO queue. `discover(led, child, parent, edge, tree)` runs once
    /// per center in discovery order: with `edge = None` and
    /// `parent == child` when the center starts a tree, and with the
    /// listing of `parent` that found it otherwise.
    ///
    /// Charges `n_c` writes to initialize the parent array, one write per
    /// non-root parent, and one read per start and per listed edge, on top
    /// of the listings and whatever `discover` charges.
    pub fn spanning_forest(
        &self,
        led: &mut Ledger,
        centers: &[Vertex],
        index: &FxHashMap<Vertex, u32>,
        mut discover: impl FnMut(&mut Ledger, u32, u32, Option<ClusterEdge>, u32),
    ) -> (Vec<u32>, usize) {
        let nc = centers.len();
        let mut parent = vec![u32::MAX; nc];
        led.write(nc as u64);
        let mut trees = 0u32;
        let mut frontier: Vec<u32> = Vec::new();
        for start in 0..nc as u32 {
            led.read(1);
            if parent[start as usize] != u32::MAX {
                continue;
            }
            parent[start as usize] = start;
            discover(led, start, start, None, trees);
            frontier.push(start);
            while !frontier.is_empty() {
                let frontier_ref = &frontier;
                let lists = led.scoped_par_map(frontier.len(), 1, &|i, s| {
                    self.neighbor_edges(s.ledger(), centers[frontier_ref[i] as usize])
                });
                let mut next = Vec::new();
                for (&x, edges) in frontier.iter().zip(lists) {
                    for e in edges {
                        let y = index[&e.center];
                        led.read(1);
                        if parent[y as usize] == u32::MAX {
                            parent[y as usize] = x;
                            led.write(1);
                            discover(led, y, x, Some(e), trees);
                            next.push(y);
                        }
                    }
                }
                frontier = next;
            }
            trees += 1;
        }
        (parent, trees as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{BuildOpts, ImplicitDecomposition};
    use wec_baseline::unionfind::same_partition;
    use wec_graph::gen::{bounded_degree_connected, grid, path};
    use wec_graph::{Priorities, Vertex};

    fn build<'a>(
        led: &mut Ledger,
        g: &'a wec_graph::Csr,
        pri: &'a Priorities,
        k: usize,
        seed: u64,
    ) -> ImplicitDecomposition<'a, wec_graph::Csr> {
        let verts: Vec<Vertex> = (0..g.n() as u32).collect();
        ImplicitDecomposition::build(led, g, pri, &verts, k, seed, BuildOpts::default())
    }

    #[test]
    fn neighbor_edges_are_real_boundaries() {
        let g = grid(8, 8);
        let pri = Priorities::random(64, 3);
        let mut led = Ledger::new(8);
        let d = build(&mut led, &g, &pri, 5, 1);
        let cg = ClustersGraph::new(&d);
        for &c in d.centers() {
            for e in cg.neighbor_edges(&mut led, c) {
                assert!(g.neighbors(e.inner).contains(&e.outer));
                assert_eq!(d.rho(&mut led, e.inner).center.vertex(), c);
                assert_eq!(d.rho(&mut led, e.outer).center.vertex(), e.center);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = bounded_degree_connected(120, 4, 40, 9);
        let pri = Priorities::random(120, 9);
        let mut led = Ledger::new(8);
        let d = build(&mut led, &g, &pri, 6, 2);
        let cg = ClustersGraph::new(&d);
        for &c in d.centers() {
            for e in cg.neighbor_edges(&mut led, c) {
                let back = cg.neighbor_edges(&mut led, e.center);
                assert!(
                    back.iter().any(|b| b.center == c),
                    "edge {c} -> {} has no reverse",
                    e.center
                );
            }
        }
    }

    #[test]
    fn bfs_over_clusters_graph_matches_component_structure() {
        // The spanning forest's trees are G's connected components projected
        // onto centers: two centers share a tree iff they share a component.
        let g = wec_graph::gen::disjoint_union(&[&grid(6, 6), &grid(5, 5)]);
        let n = g.n();
        let pri = Priorities::random(n, 4);
        let mut led = Ledger::new(8);
        let d = build(&mut led, &g, &pri, 4, 7);
        let cg = ClustersGraph::new(&d);
        let centers = d.centers().to_vec();
        assert!(!centers.is_empty());
        let index: FxHashMap<Vertex, u32> = centers
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let mut tree = vec![u32::MAX; centers.len()];
        let (parent, trees) = cg.spanning_forest(&mut led, &centers, &index, |_, i, _, _, t| {
            assert_eq!(tree[i as usize], u32::MAX, "center #{i} discovered twice");
            tree[i as usize] = t;
        });
        let (comp, _) = wec_graph::props::components(&g);
        assert_eq!(trees, 2);
        for a in 0..centers.len() {
            let p = parent[a] as usize;
            assert_eq!(tree[p], tree[a], "center {} leaves its tree", centers[a]);
            for b in 0..centers.len() {
                assert_eq!(
                    tree[a] == tree[b],
                    comp[centers[a] as usize] == comp[centers[b] as usize],
                    "centers {} and {}",
                    centers[a],
                    centers[b]
                );
            }
        }
    }

    #[test]
    fn labels_from_clusters_graph_match_ground_truth() {
        // Union the implicit clusters-graph edges; the projected partition
        // must equal G's connected components.
        let g = bounded_degree_connected(150, 4, 30, 3);
        let pri = Priorities::random(150, 5);
        let mut led = Ledger::new(8);
        let d = build(&mut led, &g, &pri, 5, 8);
        let cg = ClustersGraph::new(&d);
        let mut uf = wec_baseline::UnionFind::new(150);
        for &c in d.centers() {
            for e in cg.neighbor_edges(&mut led, c) {
                uf.union(c, e.center);
            }
        }
        let labels: Vec<u32> = (0..150u32)
            .map(|v| {
                let c = d.rho(&mut led, v).center.vertex();
                uf.find(c)
            })
            .collect();
        let truth = wec_baseline::unionfind::uf_labels(&g);
        assert!(same_partition(&labels, &truth));
    }

    #[test]
    fn listing_cost_is_k_squared_ish_and_write_free() {
        let g = bounded_degree_connected(400, 4, 100, 1);
        let pri = Priorities::random(400, 1);
        let mut led = Ledger::new(8);
        let d = build(&mut led, &g, &pri, 8, 4);
        let cg = ClustersGraph::new(&d);
        let w0 = led.costs().asym_writes;
        let before = led.costs();
        let mut listed = 0u64;
        for &c in d.centers() {
            listed += 1;
            let _ = cg.neighbor_edges(&mut led, c);
        }
        let per = led.costs().since(&before).operations() / listed;
        assert_eq!(led.costs().asym_writes, w0, "listing must not write");
        // O(k²) with constants: k=8 -> generous cap
        assert!(per <= 400 * 8 * 8, "per-listing ops {per}");
    }

    /// Reference listing: one fresh `ρ` per external edge.
    fn rho_per_edge_listing(
        led: &mut Ledger,
        d: &ImplicitDecomposition<wec_graph::Csr>,
        x: Vertex,
    ) -> Vec<ClusterEdge> {
        let cluster = d.cluster(led, x);
        let members: FxHashSet<Vertex> = cluster.members.iter().copied().collect();
        let mut seen: FxHashSet<Vertex> = FxHashSet::default();
        let mut edges = Vec::new();
        for &v in &cluster.members {
            for &w in d.graph().neighbors(v) {
                if members.contains(&w) {
                    continue;
                }
                let c = d.rho(led, w).center.vertex();
                if seen.insert(c) {
                    edges.push(ClusterEdge {
                        center: c,
                        inner: v,
                        outer: w,
                    });
                }
            }
        }
        edges
    }

    #[test]
    fn boundary_memo_is_exact_and_listings_never_recompute_rho() {
        let with_small = wec_graph::gen::disjoint_union(&[
            &grid(7, 7),
            &path(2),
            &path(3),
            &bounded_degree_connected(60, 4, 20, 2),
        ]);
        let cases = [
            (grid(9, 9), 5, 1u64),
            (bounded_degree_connected(200, 4, 50, 7), 6, 3),
            (with_small, 6, 4),
        ];
        for (gi, (g, k, seed)) in cases.iter().enumerate() {
            let pri = Priorities::random(g.n(), *seed);
            let mut led = Ledger::new(8);
            let d = build(&mut led, g, &pri, *k, *seed);
            let cg = ClustersGraph::new(&d);
            // Every center, stored or the implicit minimum of a center-less
            // component.
            let mut centers: Vec<Vertex> = (0..g.n() as u32)
                .map(|v| d.rho(&mut led, v).center.vertex())
                .collect();
            centers.sort_unstable();
            centers.dedup();
            let implicit = centers
                .iter()
                .filter(|&&c| d.center_label(&mut led, c).is_none())
                .count();
            assert_eq!(implicit > 0, gi == 2, "graph {gi}: center-less components");
            for &c in &centers {
                let cluster = d.cluster(&mut led, c);
                assert!(!cluster.truncated);
                let mut expect: Vec<(Vertex, Vertex)> = Vec::new();
                for &v in &cluster.members {
                    for &w in g.neighbors(v) {
                        if !cluster.members.contains(&w) {
                            expect.push((w, d.rho(&mut led, w).center.vertex()));
                        }
                    }
                }
                expect.sort_unstable();
                expect.dedup();
                assert_eq!(cluster.boundary, expect, "graph {gi}, center {c}");

                // The listing equals the ρ-per-edge listing, in order, and
                // charges only the enumeration plus one adjacency rescan.
                let mut l = Ledger::sequential(8);
                let listed = cg.neighbor_edges(&mut l, c);
                assert_eq!(listed, rho_per_edge_listing(&mut led, &d, c));
                let mut e = Ledger::sequential(8);
                let _ = d.cluster(&mut e, c);
                let rescan: u64 = cluster
                    .members
                    .iter()
                    .map(|&v| g.neighbors(v).len() as u64 + 1)
                    .sum();
                assert_eq!(
                    l.costs().asym_reads,
                    e.costs().asym_reads + rescan,
                    "graph {gi}, center {c}: the listing evaluated ρ"
                );
            }
        }
    }

    #[test]
    fn path_graph_clusters_chain() {
        let g = path(30);
        let pri = Priorities::identity(30);
        let mut led = Ledger::new(8);
        let d = build(&mut led, &g, &pri, 5, 12);
        let cg = ClustersGraph::new(&d);
        // every cluster on a path has ≤ 2 neighbors
        for &c in d.centers() {
            assert!(cg.neighbor_edges(&mut led, c).len() <= 2);
        }
    }
}
