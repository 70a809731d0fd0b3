//! §5.2: the **BC labeling** — biconnectivity output in O(n) space,
//! O(n + m/ω) writes.
//!
//! Identify each tree edge with its child endpoint. The paper's "remove
//! all critical edges and run connectivity on the remaining edges" is
//! connectivity over the Tarjan–Vishkin-style *auxiliary graph* on those
//! tree-edge nodes (the paper proves its labeling equivalent to
//! Tarjan–Vishkin; the auxiliary form is what makes that equivalence
//! literal):
//!
//! * a **non-critical tree edge** `(v = parent, w)` with `v` non-root
//!   links nodes `v` and `w` — the escape that makes it non-critical
//!   witnesses a cycle through both tree edges;
//! * a **non-tree edge** `{x, y}` with neither endpoint an ancestor of the
//!   other links `x` and `y` (the cycle through their LCA);
//! * ancestor-type non-tree edges need no explicit link: they already make
//!   every tree edge strictly below the ancestor non-critical, which
//!   chains the path.
//!
//! Components of the auxiliary graph are exactly the biconnected
//! components; the vertex label `l(v)` is the component of node `v`, and
//! the component head `r(c)` is the parent of the component's unique
//! shallowest member. Queries (bridge / articulation point / same-BCC /
//! per-edge BCC label) are O(1) reads.
//!
//! The auxiliary graph is never materialized: the §4.2 connectivity runs
//! over an implicit [`GraphView`] of it, so writes stay `O(n + βm)`.

use crate::lowhigh::{low_high, LowHigh};
use wec_asym::Ledger;
use wec_connectivity::{connectivity_csr, connectivity_general};
use wec_graph::{Csr, EdgeId, GraphView, Vertex};

/// Marker for "no label" (roots of the spanning forest, out-of-forest ids).
pub const NO_LABEL: u32 = u32::MAX;

/// The BC labeling of a graph (all components at once; the paper assumes
/// connected inputs, we root one tree per component).
pub struct BcLabeling {
    /// Spanning structure + low/high + critical flags.
    pub lh: LowHigh,
    /// `l(v)`: biconnected-component label of the tree edge
    /// `(parent(v), v)`; [`NO_LABEL`] for roots.
    pub label: Vec<u32>,
    /// `r(c)`: head vertex of component `c`.
    pub head: Vec<Vertex>,
    /// Number of tree-edge nodes in each component (1 ⇔ bridge).
    pub comp_size: Vec<u32>,
    /// How many components each vertex heads.
    pub head_count: Vec<u32>,
    /// Number of biconnected components.
    pub num_bcc: usize,
}

/// The implicit auxiliary graph on tree-edge nodes.
struct AuxView<'a> {
    g: &'a Csr,
    lh: &'a LowHigh,
}

impl AuxView<'_> {
    /// The aux link of edge slot `i`, if any.
    fn link_at(&self, led: &mut Ledger, i: usize) -> Option<(Vertex, Vertex)> {
        led.read(2);
        let (a, b) = self.g.edge(i as EdgeId);
        if self.lh.is_tree_edge[i] {
            if self.lh.critical[i] {
                return None;
            }
            let (p, c) = if self.lh.forest.parent(b) == a {
                (a, b)
            } else {
                (b, a)
            };
            (!self.lh.forest.is_root(p)).then_some((p, c))
        } else {
            self.lh.unrelated(a, b).then_some((a, b))
        }
    }
}

impl GraphView for AuxView<'_> {
    fn n(&self) -> usize {
        self.g.n()
    }

    fn is_vertex(&self, v: Vertex) -> bool {
        self.lh.forest.in_forest(v) && !self.lh.forest.is_root(v)
    }

    fn neighbors_into(&self, led: &mut Ledger, v: Vertex, out: &mut Vec<Vertex>) {
        let adj = self.g.neighbors(v);
        let eids = self.g.neighbor_edge_ids(v);
        led.read(adj.len() as u64 + 1);
        for (&u, &eid) in adj.iter().zip(eids) {
            led.read(2);
            if self.lh.is_tree_edge[eid as usize] {
                if self.lh.critical[eid as usize] {
                    continue;
                }
                // v-side role: parent of u, or child of u.
                if self.lh.forest.parent(u) == v {
                    // v = parent: link exists iff v is non-root (it is: v is
                    // an aux node).
                    out.push(u);
                } else if !self.lh.forest.is_root(u) {
                    out.push(u);
                }
            } else if self.lh.unrelated(v, u) {
                out.push(u);
            }
        }
    }

    fn degree_hint(&self, v: Vertex) -> usize {
        self.g.degree(v)
    }
}

/// Full §5.2 pipeline: §4.2 connectivity → rooted spanning forest →
/// low/high → auxiliary connectivity → labels/heads. `beta` is forwarded
/// to both connectivity passes (use `1/ω`).
///
/// The rooted forest is §4.2's own: the LDD's per-part BFS trees, re-rooted
/// in place along the lifted cross edges ([`wec_connectivity::ConnResult::reroot`]),
/// so each tree is rooted at an LDD center. When every component is one
/// part, that costs nothing.
pub fn bc_labeling(led: &mut Ledger, g: &Csr, beta: f64, seed: u64) -> BcLabeling {
    let mut conn = connectivity_csr(led, g, beta, seed);
    conn.reroot(led, &|i, l| {
        l.read(1);
        Some(g.edge(i as EdgeId))
    });
    bc_labeling_with_forest(led, g, conn.parent, beta, seed)
}

/// §5.2 with a caller-provided rooted spanning forest (parent array).
pub fn bc_labeling_with_forest(
    led: &mut Ledger,
    g: &Csr,
    parent: Vec<Vertex>,
    beta: f64,
    seed: u64,
) -> BcLabeling {
    let n = g.n();
    let lh = low_high(led, g, parent);
    let aux = AuxView { g, lh: &lh };
    let aux_vertices: Vec<Vertex> = (0..n as u32)
        .filter(|&v| lh.forest.in_forest(v) && !lh.forest.is_root(v))
        .collect();
    led.read(n as u64);
    let aux_ref = &aux;
    let conn = connectivity_general(
        led,
        aux_ref,
        &aux_vertices,
        g.m(),
        &|i, l| aux_ref.link_at(l, i),
        beta,
        seed ^ 0xb1c0,
    );
    let label = conn.labels;
    let num_bcc = conn.num_components;

    // Heads: parent of the unique shallowest member per component.
    let mut min_depth: Vec<(u32, Vertex)> = vec![(u32::MAX, 0); num_bcc];
    let mut comp_size = vec![0u32; num_bcc];
    led.write(2 * num_bcc as u64);
    for &v in &aux_vertices {
        let c = label[v as usize] as usize;
        let d = lh.tour.depth[v as usize];
        led.read(2);
        comp_size[c] += 1;
        if (d, v) < min_depth[c] {
            min_depth[c] = (d, v);
        }
        led.write(1);
    }
    let mut head = vec![0 as Vertex; num_bcc];
    let mut head_count = vec![0u32; n];
    led.write(num_bcc as u64 + n as u64);
    for c in 0..num_bcc {
        let top = min_depth[c].1;
        let h = lh.forest.parent(top);
        head[c] = h;
        head_count[h as usize] += 1;
        led.read(1);
        led.write(2);
    }
    BcLabeling {
        lh,
        label,
        head,
        comp_size,
        head_count,
        num_bcc,
    }
}

impl BcLabeling {
    /// Whether edge `eid` is a bridge: a tree edge whose child-side node is
    /// alone in its component. O(1) reads, no writes.
    pub fn is_bridge(&self, led: &mut Ledger, eid: EdgeId, g: &Csr) -> bool {
        led.read(3);
        if !self.lh.is_tree_edge[eid as usize] {
            return false;
        }
        let (a, b) = g.edge(eid);
        let c = if self.lh.forest.parent(b) == a { b } else { a };
        self.comp_size[self.label[c as usize] as usize] == 1
    }

    /// Whether `v` is an articulation point. O(1) reads, no writes.
    pub fn is_articulation(&self, led: &mut Ledger, v: Vertex) -> bool {
        led.read(2);
        if !self.lh.forest.in_forest(v) {
            return false;
        }
        if self.lh.forest.is_root(v) {
            self.head_count[v as usize] >= 2
        } else {
            self.head_count[v as usize] >= 1
        }
    }

    /// Whether `u` and `v` share a biconnected component. O(1) reads.
    pub fn same_bcc(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return true;
        }
        led.read(4);
        let (lu, lv) = (self.label[u as usize], self.label[v as usize]);
        if lu != NO_LABEL && lu == lv {
            return true;
        }
        (lv != NO_LABEL && self.head[lv as usize] == u)
            || (lu != NO_LABEL && self.head[lu as usize] == v)
    }

    /// The biconnected component of an edge: the label of its deeper
    /// endpoint (the paper's O(1) reconstruction of the standard output).
    pub fn edge_bcc(&self, led: &mut Ledger, eid: EdgeId, g: &Csr) -> u32 {
        led.read(4);
        let (a, b) = g.edge(eid);
        if self.lh.is_tree_edge[eid as usize] {
            let c = if self.lh.forest.parent(b) == a { b } else { a };
            return self.label[c as usize];
        }
        let deeper = if self.lh.tour.depth[a as usize] >= self.lh.tour.depth[b as usize] {
            a
        } else {
            b
        };
        self.label[deeper as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_baseline::hopcroft_tarjan;
    use wec_baseline::unionfind::same_partition;
    use wec_graph::gen::{
        bounded_degree_connected, caterpillar, cycle, gnm, grid, ladder, path, star,
    };

    fn check_against_ht(g: &Csr, seed: u64) {
        let mut led = Ledger::new(16);
        let bc = bc_labeling(&mut led, g, 0.25, seed);
        let mut led2 = Ledger::new(16);
        let ht = hopcroft_tarjan(&mut led2, g);
        // articulation points
        for v in 0..g.n() as u32 {
            assert_eq!(
                bc.is_articulation(&mut led, v),
                ht.articulation[v as usize],
                "articulation({v}) mismatch (seed {seed})"
            );
        }
        // bridges
        for eid in 0..g.m() as u32 {
            assert_eq!(
                bc.is_bridge(&mut led, eid, g),
                ht.bridge[eid as usize],
                "bridge({eid}) mismatch (seed {seed})"
            );
        }
        // per-edge BCC partition
        let ours: Vec<u32> = (0..g.m() as u32)
            .map(|e| bc.edge_bcc(&mut led, e, g))
            .collect();
        assert!(
            same_partition(&ours, &ht.edge_bcc),
            "edge BCC partition mismatch (seed {seed})"
        );
        assert_eq!(bc.num_bcc, ht.num_bcc, "BCC count (seed {seed})");
        // vertex-pair same-BCC on small graphs
        if g.n() <= 40 {
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    assert_eq!(
                        bc.same_bcc(&mut led, u, v),
                        ht.same_bcc_vertices(g, u, v),
                        "same_bcc({u},{v}) mismatch (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_families_match_ht() {
        check_against_ht(&path(9), 1);
        check_against_ht(&cycle(8), 2);
        check_against_ht(&star(7), 3);
        check_against_ht(&ladder(5), 4);
        check_against_ht(&grid(4, 5), 5);
        check_against_ht(&caterpillar(5, 2), 6);
    }

    #[test]
    fn shared_articulation_triangles() {
        // the case that breaks naive "remove critical edges + vertex
        // connectivity": two triangles sharing a vertex
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        check_against_ht(&g, 7);
        // and sharing a *non-root* vertex: hang the pair off a path
        let g2 = Csr::from_edges(
            7,
            &[
                (5, 6),
                (6, 0),
                (0, 1),
                (1, 2),
                (2, 0),
                (0, 3),
                (3, 4),
                (4, 0),
            ],
        );
        check_against_ht(&g2, 8);
    }

    #[test]
    fn random_sparse_graphs_match_ht() {
        for seed in 0..10u64 {
            let g = gnm(24, 30, seed);
            check_against_ht(&g, seed);
        }
    }

    #[test]
    fn random_bounded_degree_graphs_match_ht() {
        for seed in 0..8u64 {
            let g = bounded_degree_connected(30, 4, 10, seed);
            check_against_ht(&g, 100 + seed);
        }
    }

    #[test]
    fn random_denser_graphs_match_ht() {
        for seed in 0..6u64 {
            let g = gnm(18, 60, seed);
            check_against_ht(&g, 200 + seed);
        }
    }

    #[test]
    fn disconnected_graphs_match_ht() {
        for seed in 0..6u64 {
            let g = wec_graph::gen::disjoint_union(&[
                &gnm(12, 16, seed),
                &path(5),
                &cycle(4),
                &Csr::from_edges(2, &[]),
            ]);
            check_against_ht(&g, 300 + seed);
        }
    }

    #[test]
    fn labeling_writes_are_write_efficient() {
        let n = 600usize;
        let g = gnm(n, 40_000, 9);
        let omega = 64u64;
        let mut led = Ledger::new(omega);
        let _bc = bc_labeling(&mut led, &g, 1.0 / omega as f64, 4);
        let w = led.costs().asym_writes;
        let m = g.m() as u64;
        // O(n + m/ω + m-bit bitmaps): far below m once m ≫ n
        let bound = 42 * n as u64 + 10 * m / omega + 4 * m / 64 + 400;
        assert!(
            w <= bound,
            "BC labeling writes {w} > bound {bound} (m = {m})"
        );
        assert!(w < m, "must beat the Θ(m) standard output");
    }

    #[test]
    fn queries_do_not_write() {
        let g = gnm(40, 80, 5);
        let mut led = Ledger::new(8);
        let bc = bc_labeling(&mut led, &g, 0.25, 1);
        let w0 = led.costs().asym_writes;
        for v in 0..40u32 {
            let _ = bc.is_articulation(&mut led, v);
        }
        for e in 0..g.m() as u32 {
            let _ = bc.is_bridge(&mut led, e, &g);
            let _ = bc.edge_bcc(&mut led, e, &g);
        }
        let _ = bc.same_bcc(&mut led, 0, 39);
        assert_eq!(led.costs().asym_writes, w0);
    }
}
