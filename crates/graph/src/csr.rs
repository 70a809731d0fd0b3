//! Compressed-sparse-row storage for undirected graphs.

use crate::{EdgeId, Vertex};

/// An immutable undirected graph in CSR form.
///
/// Each undirected edge `{u, v}` is stored as two directed arcs (`u→v` and
/// `v→u`) tagged with a shared [`EdgeId`]; a self-loop is stored as a single
/// arc. Adjacency lists are sorted by target, so per-arc positions can be
/// recovered by binary search — which is what the Section 6 bounded-degree
/// transformation relies on ("the edge lists are presorted and the label can
/// be binary searched").
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    offsets: Vec<u32>,
    targets: Vec<Vertex>,
    edge_ids: Vec<EdgeId>,
    /// Canonical undirected edge list, `edges[eid] = (min, max)` endpoints
    /// except multigraph duplicates which keep insertion order.
    edges: Vec<(Vertex, Vertex)>,
}

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
        Csr::from_canonical(n, canon)
    }

    /// Build preserving parallel edges (self-loops still dropped). Intended
    /// for connectivity-only workloads; biconnectivity requires simple
    /// graphs (see crate docs).
    pub fn from_edges_multigraph(n: usize, edges: &[(Vertex, Vertex)]) -> Csr {
        let canon: Vec<(Vertex, Vertex)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        Csr::from_canonical(n, canon)
    }

    fn from_canonical(n: usize, canon: Vec<(Vertex, Vertex)>) -> Csr {
        for &(u, v) in &canon {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
        }
        let mut deg = vec![0u32; n];
        for &(u, v) in &canon {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let total = offsets[n] as usize;
        let mut targets = vec![0 as Vertex; total];
        let mut edge_ids = vec![0 as EdgeId; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (eid, &(u, v)) in canon.iter().enumerate() {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            edge_ids[cu] = eid as EdgeId;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            edge_ids[cv] = eid as EdgeId;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency list by (target, edge id) so positions are
        // binary-searchable and iteration order is deterministic; one
        // buffer is reused across all lists.
        let mut pairs: Vec<(Vertex, EdgeId)> = Vec::new();
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            pairs.clear();
            pairs.extend((lo..hi).map(|i| (targets[i], edge_ids[i])));
            pairs.sort_unstable();
            for (j, &(t, e)) in pairs.iter().enumerate() {
                targets[lo + j] = t;
                edge_ids[lo + j] = e;
            }
        }
        Csr {
            n,
            offsets,
            targets,
            edge_ids,
            edges: canon,
        }
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
