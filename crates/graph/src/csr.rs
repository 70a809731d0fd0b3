//! Compressed-sparse-row storage for undirected graphs.

use crate::{EdgeId, Vertex};
use std::cell::RefCell;
use wec_asym::scratch::{self, Pool};

/// An undirected graph in CSR form.
///
/// Each undirected edge `{u, v}` is stored as two directed arcs (`u→v` and
/// `v→u`) tagged with a shared [`EdgeId`]; a self-loop is stored as a single
/// arc. Adjacency lists are sorted by target, so per-arc positions can be
/// recovered by binary search — which is what the Section 6 bounded-degree
/// transformation relies on ("the edge lists are presorted and the label can
/// be binary searched").
///
/// A graph is immutable once built, except that
/// [`Csr::refill_multigraph`] rebuilds one in place: the §5.3 local graphs
/// are rebuilt query after query in pooled storage
/// ([`wec_asym::scratch`]). `Csr::default()` is the empty graph.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    n: usize,
    offsets: Vec<u32>,
    targets: Vec<Vertex>,
    edge_ids: Vec<EdgeId>,
    /// Canonical undirected edge list, `edges[eid] = (min, max)` endpoints
    /// except multigraph duplicates which keep insertion order.
    edges: Vec<(Vertex, Vertex)>,
}

thread_local! {
    /// One adjacency list's `(target, edge id)` pairs while it is sorted.
    static SORT: Pool<Vec<(Vertex, EdgeId)>> = const { RefCell::new(Vec::new()) };
}

wec_asym::recycle_fields!(Csr { offsets, targets, edge_ids, edges } reset { n });

impl Csr {
    /// Build a canonical **simple** graph: self-loops dropped, parallel
    /// edges deduplicated, endpoints normalized. This is the builder every
    /// generator uses.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Csr {
        let mut canon: Vec<(Vertex, Vertex)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        let mut g = Csr {
            edges: canon,
            ..Csr::default()
        };
        g.fill(n);
        g
    }

    /// Build preserving parallel edges (self-loops still dropped). Intended
    /// for connectivity-only workloads; biconnectivity requires simple
    /// graphs (see crate docs).
    pub fn from_edges_multigraph(n: usize, edges: &[(Vertex, Vertex)]) -> Csr {
        let mut g = Csr::default();
        g.refill_multigraph(n, edges);
        g
    }

    /// Rebuild `self` in place as [`Csr::from_edges_multigraph`]`(n,
    /// edges)` would build it, reusing its storage.
    pub fn refill_multigraph(&mut self, n: usize, edges: &[(Vertex, Vertex)]) {
        self.edges.clear();
        self.edges.extend(
            edges
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| (u.min(v), u.max(v))),
        );
        self.fill(n);
    }

    /// Lay out the arcs of `self.edges` over `n` vertices.
    fn fill(&mut self, n: usize) {
        for &(u, v) in &self.edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
        }
        self.n = n;
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[n] as usize;
        self.targets.clear();
        self.targets.resize(total, 0);
        self.edge_ids.clear();
        self.edge_ids.resize(total, 0);
        // `offsets[v]` serves as v's cursor, ending at v's list end (the
        // next list's start); shifting by one restores the offsets.
        for (eid, &(u, v)) in self.edges.iter().enumerate() {
            let cu = offsets[u as usize] as usize;
            self.targets[cu] = v;
            self.edge_ids[cu] = eid as EdgeId;
            offsets[u as usize] += 1;
            let cv = offsets[v as usize] as usize;
            self.targets[cv] = u;
            self.edge_ids[cv] = eid as EdgeId;
            offsets[v as usize] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort each adjacency list by (target, edge id) so positions are
        // binary-searchable and iteration order is deterministic; one
        // pooled buffer serves every list.
        let mut pairs = scratch::take(&SORT);
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            pairs.clear();
            pairs.extend((lo..hi).map(|i| (self.targets[i], self.edge_ids[i])));
            pairs.sort_unstable();
            for (j, &(t, e)) in pairs.iter().enumerate() {
                self.targets[lo + j] = t;
                self.edge_ids[lo + j] = e;
            }
        }
        scratch::give(&SORT, pairs);
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v` (parallel edges counted with multiplicity).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .map(|v| self.degree(v as Vertex))
            .max()
            .unwrap_or(0)
    }

    /// Neighbors of `v` in sorted order (uncharged; model code should go
    /// through [`crate::view::GraphView`]).
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let (lo, hi) = (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        );
        &self.targets[lo..hi]
    }

    /// Parallel slice of undirected edge ids for [`Csr::neighbors`].
    #[inline]
    pub fn neighbor_edge_ids(&self, v: Vertex) -> &[EdgeId] {
        let (lo, hi) = (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        );
        &self.edge_ids[lo..hi]
    }

    /// The canonical undirected edge list; `edge(eid) = (u, v)` with `u ≤ v`.
    #[inline]
    pub fn edge(&self, eid: EdgeId) -> (Vertex, Vertex) {
        self.edges[eid as usize]
    }

    /// All canonical undirected edges.
    #[inline]
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        &self.edges
    }

    /// Position of the arc `v → target` within `v`'s sorted adjacency list,
    /// if present (first match for multigraphs).
    pub fn arc_position(&self, v: Vertex, target: Vertex) -> Option<usize> {
        let adj = self.neighbors(v);
        let i = adj.partition_point(|&t| t < target);
        (i < adj.len() && adj[i] == target).then_some(i)
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.arc_position(u, v).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn multigraph_preserves_parallel_edges() {
        let g = Csr::from_edges_multigraph(2, &[(0, 1), (1, 0), (0, 0)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn refill_matches_a_fresh_build() {
        let layout = |g: &Csr| {
            let lists: Vec<_> = (0..g.n() as Vertex)
                .map(|v| (g.neighbors(v).to_vec(), g.neighbor_edge_ids(v).to_vec()))
                .collect();
            (g.n(), g.edges().to_vec(), lists)
        };
        let mut g = Csr::from_edges_multigraph(6, &[(0, 5), (5, 1), (1, 0), (2, 3), (3, 2)]);
        let cases: [(usize, &[(Vertex, Vertex)]); 4] = [
            (3, &[(2, 0), (0, 1), (1, 0)]),
            (8, &[(6, 0), (3, 4), (4, 3), (0, 6), (5, 5), (7, 1), (1, 7)]),
            (0, &[]),
            (2, &[(1, 0), (0, 1), (0, 0)]),
        ];
        for (n, edges) in cases {
            g.refill_multigraph(n, edges);
            assert_eq!(layout(&g), layout(&Csr::from_edges_multigraph(n, edges)));
        }
    }

    #[test]
    fn edge_ids_are_shared_between_arcs() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        for v in 0..4u32 {
            for (i, &t) in g.neighbors(v).iter().enumerate() {
                let eid = g.neighbor_edge_ids(v)[i];
                let (a, b) = g.edge(eid);
                assert!((a, b) == (v.min(t), v.max(t)));
            }
        }
    }

    #[test]
    fn arc_position_finds_sorted_slot() {
        let g = Csr::from_edges(5, &[(2, 0), (2, 4), (2, 3)]);
        assert_eq!(g.neighbors(2), &[0, 3, 4]);
        assert_eq!(g.arc_position(2, 3), Some(1));
        assert_eq!(g.arc_position(2, 1), None);
        assert!(g.has_edge(2, 4));
        assert!(!g.has_edge(0, 4));
    }

    #[test]
    fn empty_and_isolated() {
        let g = Csr::from_edges(4, &[]);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.neighbors(3).is_empty());
        let g0 = Csr::from_edges(0, &[]);
        assert_eq!(g0.n(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Csr::from_edges(2, &[(0, 2)]);
    }
}
