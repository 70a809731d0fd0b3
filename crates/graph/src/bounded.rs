//! The Section 6 transformation: an **implicit bounded-degree view** `G'`
//! of an arbitrary graph.
//!
//! Every vertex whose degree exceeds the cap is given an implicit binary
//! tree of *virtual nodes*, each representing a contiguous range of its
//! sorted edge list; edges incident to the vertex are redirected to the leaf
//! covering their slot. Nothing is materialized: neighbor queries descend
//! the implicit trees and binary-search the CSR ("the edge lists are
//! presorted and the label can be binary searched" — paper §6), costing
//! `O(log n)` reads per edge lookup and **no writes**.
//!
//! Guarantees (verified by differential tests):
//!
//! * connectivity of original vertices is preserved (each virtual tree is a
//!   connected subgraph contracted onto its owner);
//! * an original edge is a bridge in `G` iff its image is a bridge in `G'`,
//!   and 1-edge-connectivity of original vertices is preserved (contracting
//!   connected subgraphs preserves the edge-cut structure).
//!
//! **Known limitation (documented departure from the paper's sketch):**
//! vertex biconnectivity is *not* preserved in general. Two biconnected
//! components meeting at a high-degree articulation point can merge in `G'`
//! when their edge slots interleave across different leaves, because the
//! virtual tree then offers a bypass around the (now split) articulation
//! point. `tests/section6.rs::vertex_biconnectivity_counterexample_is_real`
//! exhibits a 5-vertex counterexample. Consumers use `G'` for
//! connectivity/spanning-forest/bridge/1-edge-connectivity work, and fall
//! back to the dense `O(m + ωn)` algorithms for vertex-biconnectivity on
//! unbounded-degree inputs.

use crate::csr::Csr;
use crate::view::GraphView;
use crate::Vertex;
use wec_asym::Ledger;

/// Implicit bounded-degree view over a simple CSR graph.
///
/// Vertex ids: originals keep `0..n`; virtual nodes of vertex `v` occupy a
/// contiguous id block, addressed by heap index within `v`'s implicit
/// segment tree (root = heap index 1 = `v` itself; ids are allocated from
/// heap index 2 upward). The id space may contain holes — use
/// [`GraphView::is_vertex`].
#[derive(Debug, Clone)]
pub struct BoundedDegreeView<'a> {
    g: &'a Csr,
    /// Degree cap for the view; leaves cover up to `cap − 1` slots so that
    /// leaf degree = slots + parent ≤ cap. Internal nodes have degree 3.
    cap: usize,
    /// High-degree vertices, sorted (for id decoding).
    hi: Vec<Vertex>,
    /// Block start id (in the virtual space) per high-degree vertex, plus a
    /// final sentinel = total virtual span.
    block: Vec<u64>,
}

impl<'a> BoundedDegreeView<'a> {
    /// Wrap `g` with degree cap `cap ≥ 3`. Construction only scans degrees
    /// (free: input preprocessing, like storing the graph itself).
    pub fn new(g: &'a Csr, cap: usize) -> Self {
        assert!(
            cap >= 3,
            "cap must be at least 3 (internal nodes have degree 3)"
        );
        let mut hi = Vec::new();
        let mut block = vec![0u64];
        let mut acc = 0u64;
        for v in 0..g.n() as u32 {
            let d = g.degree(v);
            if d > cap {
                hi.push(v);
                acc += Self::heap_span(d, cap);
                block.push(acc);
            }
        }
        BoundedDegreeView { g, cap, hi, block }
    }

    /// Leaf width: number of edge slots a leaf covers.
    #[inline]
    fn leaf_width(&self) -> usize {
        self.cap - 1
    }

    /// Upper bound on heap indices needed for a tree over `d` slots: the
    /// tree splits ranges in half until length ≤ `cap − 1`, so its height is
    /// `ceil(log2(d / (cap−1)))` and heap indices stay below `2^(height+1)`.
    /// We allocate that power of two (minus the root, which is the original
    /// vertex).
    fn heap_span(d: usize, cap: usize) -> u64 {
        let lw = cap - 1;
        let mut levels = 0u32;
        let mut len = d;
        while len > lw {
            len = len.div_ceil(2);
            levels += 1;
        }
        (1u64 << (levels + 1)) - 2 // heap indices 2 ..= 2^(levels+1) - 1
    }

    /// Number of original vertices.
    pub fn original_n(&self) -> usize {
        self.g.n()
    }

    /// Underlying graph.
    pub fn graph(&self) -> &Csr {
        self.g
    }

    /// Degree cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Decode a view id into `(owner vertex, heap index)`; heap index 1
    /// means the original vertex itself.
    fn decode(&self, id: Vertex) -> (Vertex, u64) {
        let n = self.g.n() as u64;
        if (id as u64) < n {
            return (id, 1);
        }
        let off = id as u64 - n;
        let bi = self.block.partition_point(|&b| b <= off) - 1;
        (self.hi[bi], off - self.block[bi] + 2)
    }

    /// Encode `(owner, heap index)` into a view id.
    fn encode(&self, v: Vertex, h: u64) -> Vertex {
        if h == 1 {
            return v;
        }
        let bi = self
            .hi
            .binary_search(&v)
            .expect("encode: not a high-degree vertex");
        (self.g.n() as u64 + self.block[bi] + h - 2) as Vertex
    }

    /// The slot range `[lo, hi)` of heap node `h` of vertex `v`, or `None`
    /// if the node does not exist (subtree terminated earlier). Charges the
    /// descent as unit ops.
    fn node_range(&self, led: &mut Ledger, v: Vertex, h: u64) -> Option<(usize, usize)> {
        let d = self.g.degree(v);
        let lw = self.leaf_width();
        if h == 1 {
            return Some((0, d));
        }
        // Follow h's bit path from the root.
        let bits = 63 - h.leading_zeros();
        let (mut lo, mut hi) = (0usize, d);
        for i in (0..bits).rev() {
            if hi - lo <= lw {
                return None; // reached a leaf before consuming the path
            }
            led.op(1);
            let mid = lo + (hi - lo) / 2;
            if (h >> i) & 1 == 0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (lo < hi).then_some((lo, hi))
    }

    /// Heap index of the leaf of `v`'s tree covering slot `j` (1 if `v` is
    /// low-degree and has no tree).
    fn leaf_covering(&self, led: &mut Ledger, v: Vertex, j: usize) -> u64 {
        let d = self.g.degree(v);
        let lw = self.leaf_width();
        let (mut lo, mut hi, mut h) = (0usize, d, 1u64);
        while hi - lo > lw {
            led.op(1);
            let mid = lo + (hi - lo) / 2;
            if j < mid {
                hi = mid;
                h *= 2;
            } else {
                lo = mid;
                h = 2 * h + 1;
            }
        }
        h
    }

    /// The `G'` endpoint of arc slot `i` of vertex `v`: the opposite
    /// endpoint `w` if low-degree, otherwise the leaf of `w`'s tree covering
    /// the reverse arc's slot (found by binary search in `w`'s sorted list).
    fn arc_endpoint(&self, led: &mut Ledger, v: Vertex, i: usize) -> Vertex {
        let w = self.g.neighbors(v)[i];
        led.read(1);
        if self.g.degree(w) <= self.cap {
            return w;
        }
        let j = self
            .g
            .arc_position(w, v)
            .expect("simple graph: reverse arc exists");
        led.read((usize::BITS - self.g.degree(w).leading_zeros()) as u64);
        let h = self.leaf_covering(led, w, j);
        self.encode(w, h)
    }

    /// The `G'` image of original edge `{u, w}`: the pair of (possibly
    /// virtual) endpoints its redirected edge connects. Used to translate
    /// edge queries (bridge, 1-edge-connectivity) into the view.
    pub fn edge_image(&self, led: &mut Ledger, u: Vertex, w: Vertex) -> (Vertex, Vertex) {
        let iu = self.g.arc_position(u, w).expect("edge must exist");
        let iw = self.g.arc_position(w, u).expect("edge must exist");
        led.read(2 * (usize::BITS - self.g.degree(u).leading_zeros().min(31)) as u64);
        let a = if self.g.degree(u) <= self.cap {
            u
        } else {
            let h = self.leaf_covering(led, u, iu);
            self.encode(u, h)
        };
        let b = if self.g.degree(w) <= self.cap {
            w
        } else {
            let h = self.leaf_covering(led, w, iw);
            self.encode(w, h)
        };
        (a, b)
    }

    /// Owner of a view id (identity for original vertices). Lets consumers
    /// project component labels back onto `G`.
    pub fn owner(&self, id: Vertex) -> Vertex {
        self.decode(id).0
    }

    /// Whether the id denotes a virtual node.
    pub fn is_virtual(&self, id: Vertex) -> bool {
        id as usize >= self.g.n()
    }
}

impl GraphView for BoundedDegreeView<'_> {
    fn n(&self) -> usize {
        self.g.n() + *self.block.last().unwrap() as usize
    }

    fn is_vertex(&self, id: Vertex) -> bool {
        if (id as usize) < self.g.n() {
            return true;
        }
        if (id as usize) >= self.n() {
            return false;
        }
        let (v, h) = self.decode(id);
        let mut scratch = Ledger::sequential(1);
        self.node_range(&mut scratch, v, h).is_some()
    }

    fn neighbors_into(&self, led: &mut Ledger, id: Vertex, out: &mut Vec<Vertex>) {
        let (v, h) = self.decode(id);
        led.op(1);
        let d = self.g.degree(v);
        if h == 1 && d <= self.cap {
            for i in 0..d {
                out.push(self.arc_endpoint(led, v, i));
            }
            return;
        }
        let (lo, hi) = self.node_range(led, v, h).expect("neighbors of a hole id");
        if h > 1 {
            out.push(self.encode(v, h / 2)); // parent (root = v itself)
        }
        if hi - lo > self.leaf_width() {
            // Internal node: two children.
            out.push(self.encode(v, 2 * h));
            out.push(self.encode(v, 2 * h + 1));
        } else {
            // Leaf: redirected endpoints of the covered slots.
            for i in lo..hi {
                out.push(self.arc_endpoint(led, v, i));
            }
        }
    }

    fn degree_hint(&self, _id: Vertex) -> usize {
        self.cap.max(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{complete, star};
    use crate::props;
    use std::collections::VecDeque;
    use wec_asym::FxHashMap;

    /// Materialize the view into an explicit edge list (test-only).
    fn materialize(view: &BoundedDegreeView) -> Vec<(Vertex, Vertex)> {
        let mut led = Ledger::sequential(1);
        let mut edges = Vec::new();
        for id in 0..view.n() as u32 {
            if !view.is_vertex(id) {
                continue;
            }
            for w in view.neighbors_vec(&mut led, id) {
                if id < w {
                    edges.push((id, w));
                }
            }
        }
        edges
    }

    /// Check the neighbor relation is symmetric.
    fn check_symmetry(view: &BoundedDegreeView) {
        let mut led = Ledger::sequential(1);
        let mut adj: FxHashMap<Vertex, Vec<Vertex>> = Default::default();
        for id in 0..view.n() as u32 {
            if view.is_vertex(id) {
                adj.insert(id, view.neighbors_vec(&mut led, id));
            }
        }
        for (&v, nbrs) in &adj {
            for w in nbrs {
                assert!(adj[w].contains(&v), "asymmetric arc {v}->{w}");
            }
        }
    }

    #[test]
    fn low_degree_graph_is_identity() {
        let g = crate::gen::cycle(8);
        let view = BoundedDegreeView::new(&g, 4);
        assert_eq!(view.n(), 8);
        let mut led = Ledger::sequential(1);
        assert_eq!(view.neighbors_vec(&mut led, 0), g.neighbors(0).to_vec());
        assert_eq!(led.costs().asym_writes, 0);
    }

    #[test]
    fn star_view_has_bounded_degree() {
        let g = star(50);
        let view = BoundedDegreeView::new(&g, 4);
        let mut led = Ledger::sequential(1);
        let mut max_deg = 0;
        for id in 0..view.n() as u32 {
            if view.is_vertex(id) {
                max_deg = max_deg.max(view.neighbors_vec(&mut led, id).len());
            }
        }
        assert!(max_deg <= 4, "degree {max_deg} exceeds cap");
        assert_eq!(
            led.costs().asym_writes,
            0,
            "view queries must be write-free"
        );
    }

    #[test]
    fn view_preserves_connectivity_of_originals() {
        for (g, name) in [
            (star(40), "star"),
            (complete(12), "complete"),
            (crate::gen::gnm(30, 120, 5), "gnm"),
        ] {
            let view = BoundedDegreeView::new(&g, 4);
            check_symmetry(&view);
            // BFS over the view from vertex 0, collect reached originals.
            let mut led = Ledger::sequential(1);
            let mut seen: wec_asym::FxHashSet<Vertex> = Default::default();
            let mut queue = VecDeque::new();
            seen.insert(0);
            queue.push_back(0u32);
            while let Some(v) = queue.pop_front() {
                for w in view.neighbors_vec(&mut led, v) {
                    if seen.insert(w) {
                        queue.push_back(w);
                    }
                }
            }
            let originals: Vec<_> = seen
                .iter()
                .filter(|&&v| (v as usize) < g.n())
                .copied()
                .collect();
            let (comp, _) = props::components(&g);
            let expected = (0..g.n() as u32)
                .filter(|&v| comp[v as usize] == comp[0])
                .count();
            assert_eq!(originals.len(), expected, "{name}: originals reached");
        }
    }

    #[test]
    fn virtual_trees_touch_every_slot_once() {
        let g = star(33);
        let view = BoundedDegreeView::new(&g, 4);
        let edges = materialize(&view);
        // 32 redirected star edges + virtual tree edges; each leaf vertex
        // (degree 1 in G) keeps exactly one incident edge.
        let mut leaf_deg = vec![0usize; 33];
        for &(a, b) in &edges {
            for x in [a, b] {
                if (1..33).contains(&(x as usize)) {
                    leaf_deg[x as usize] += 1;
                }
            }
        }
        assert!((1..33).all(|v| leaf_deg[v] == 1));
    }

    #[test]
    fn edge_image_endpoints_are_adjacent_in_view() {
        let g = complete(10);
        let view = BoundedDegreeView::new(&g, 3);
        let mut led = Ledger::sequential(1);
        for &(u, w) in g.edges() {
            let (a, b) = view.edge_image(&mut led, u, w);
            let nbrs = view.neighbors_vec(&mut led, a);
            assert!(
                nbrs.contains(&b),
                "edge image ({u},{w}) -> ({a},{b}) not adjacent"
            );
            assert_eq!(view.owner(a), u);
            assert_eq!(view.owner(b), w);
        }
    }

    #[test]
    fn heap_span_is_generous_enough() {
        // Exhaustively check id encode/decode round-trips for various degrees.
        for d in 5..60usize {
            let edges: Vec<_> = (1..=d as u32).map(|v| (0, v)).collect();
            let g = Csr::from_edges(d + 1, &edges);
            let view = BoundedDegreeView::new(&g, 4);
            let mut led = Ledger::sequential(1);
            for id in 0..view.n() as u32 {
                if !view.is_vertex(id) {
                    continue;
                }
                let (v, h) = view.decode(id);
                assert_eq!(view.encode(v, h), id);
                // every existing node has a valid range
                assert!(view.node_range(&mut led, v, h).is_some());
            }
        }
    }
}
