//! Reproductions of the paper's worked figures.
//!
//! * **Figure 1**: an implicit 4-decomposition of a 12-vertex
//!   bounded-degree graph — we rebuild the figure's graph (vertices a..l →
//!   0..11, edges read off the drawing) and check the decomposition
//!   invariants the figure illustrates, including the "first center on the
//!   shortest path to the nearest primary center" rule.
//! * **Figure 2**: the BC labeling example — a 9-vertex graph with
//!   biconnected components {1,2,3,4,6,7}, {2,5}, {6,8,9} (1-indexed),
//!   bridge (2,5) and articulation points {2,6}. The paper's l/r arrays
//!   depend on its specific spanning tree; we check the
//!   representation-independent content: the BCC partition, heads,
//!   bridges, and articulation points.

use wec::asym::Ledger;
use wec::biconnectivity::bc_labeling;
use wec::core::{BuildOpts, Center, ImplicitDecomposition};
use wec::graph::{Csr, Priorities, Vertex};

/// Figure 1's graph: 12 vertices a..l = 0..11. Edges transcribed from the
/// drawing: clusters {d,h,l}, {i,j,b}, {e,f}, {a,c,g,k} connected as shown
/// (d−h, h−l, h−j, j−i, i−c... ). The exact drawing is reproduced in
/// `wec-bench`'s `fig1_decomposition` binary; here we need a connected
/// bounded-degree 12-vertex graph consistent with it.
fn fig1_graph() -> Csr {
    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    const D: u32 = 3;
    const E: u32 = 4;
    const F: u32 = 5;
    const G: u32 = 6;
    const H: u32 = 7;
    const I: u32 = 8;
    const J: u32 = 9;
    const K: u32 = 10;
    const L: u32 = 11;
    Csr::from_edges(
        12,
        &[
            (D, H),
            (H, L),
            (H, J),
            (J, I),
            (J, B),
            (I, C),
            (B, E),
            (E, F),
            (F, K),
            (C, G),
            (C, K),
            (G, K),
            (G, A),
        ],
    )
}

#[test]
fn figure1_decomposition_invariants() {
    let g = fig1_graph();
    let pri = Priorities::identity(12); // "lower letters have higher priorities"
    let verts: Vec<Vertex> = (0..12).collect();
    for seed in 0..10u64 {
        let mut led = Ledger::new(16);
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, 4, seed, BuildOpts::default());
        // Theorem 3.1 structure: partition into connected clusters ≤ 4.
        let mut sizes: std::collections::HashMap<Vertex, usize> = Default::default();
        for v in 0..12u32 {
            let a = d.rho(&mut led, v);
            *sizes.entry(a.center.vertex()).or_default() += 1;
            // the parent hop is the second vertex of SP(v, ρ(v))
            if a.dist > 0 {
                assert!(g.neighbors(v).contains(&a.parent_hop));
            }
        }
        assert_eq!(sizes.values().sum::<usize>(), 12);
        for (&c, &sz) in &sizes {
            assert!(sz <= 4, "cluster {c} has {sz} > k = 4 (seed {seed})");
            let cl = d.cluster(&mut led, c);
            assert_eq!(cl.members.len(), sz);
            assert!(wec::graph::props::induced_connected(&g, &cl.members));
        }
        // 1-bit labels: every stored center is either primary or secondary.
        assert!(d
            .centers()
            .iter()
            .all(|&c| d.center_label(&mut led, c).is_some()));
    }
}

#[test]
fn figure1_secondary_center_rule() {
    // The figure's key subtlety: a vertex keeps its *primary* cluster even
    // when a secondary center of another cluster is closer, because ρ only
    // considers centers on the path to the nearest primary. Reproduce the
    // shape with explicit centers on a path: p=0 primary, s=3 secondary.
    use wec::core::{CenterLabel, CenterSet};
    let g = wec::graph::gen::path(7);
    let pri = Priorities::identity(7);
    let mut led = Ledger::new(16);
    let mut cs = CenterSet::new(&mut led, g.n());
    cs.insert(&mut led, 0, CenterLabel::Primary);
    cs.insert(&mut led, 3, CenterLabel::Secondary);
    // vertex 2: path to primary 0 = [2,1,0]; the nearer secondary 3 is NOT
    // on that path, so ρ(2) = 0.
    let a = wec::core::rho::rho(&mut led, &g, &pri, &cs, 2);
    assert_eq!(a.center, Center::Stored(0));
    // vertex 5: path to 0 passes 3 first, so ρ(5) = 3.
    let b = wec::core::rho::rho(&mut led, &g, &pri, &cs, 5);
    assert_eq!(b.center, Center::Stored(3));
}

/// Figure 2's structure: BCCs {1,2,3,4,6,7}, {2,5}, {6,8,9} (1-indexed).
fn fig2_graph() -> Csr {
    // 0-indexed: big BCC on {0,1,2,3,5,6}: cycle 0-1-2-3-5-6-0 + chord 1-5;
    // bridge (1,4); triangle {5,7,8}.
    Csr::from_edges(
        9,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (5, 6),
            (6, 0),
            (1, 5),
            (1, 4),
            (5, 7),
            (7, 8),
            (8, 5),
        ],
    )
}

#[test]
fn figure2_bc_labeling_content() {
    let g = fig2_graph();
    let mut led = Ledger::new(16);
    let bc = bc_labeling(&mut led, &g, 0.25, 3);
    // three biconnected components
    assert_eq!(bc.num_bcc, 3);
    // bridges: exactly (1,4)  [paper: (2,5) 1-indexed]
    let bridges: Vec<(Vertex, Vertex)> = (0..g.m() as u32)
        .filter(|&e| bc.is_bridge(&mut led, e, &g))
        .map(|e| g.edge(e))
        .collect();
    assert_eq!(bridges, vec![(1, 4)]);
    // articulation points: exactly {1, 5}  [paper: {2, 6}]
    let artic: Vec<Vertex> = (0..9u32)
        .filter(|&v| bc.is_articulation(&mut led, v))
        .collect();
    assert_eq!(artic, vec![1, 5]);
    // BCC vertex sets via same-BCC equivalence
    let big = [0u32, 1, 2, 3, 5, 6];
    for &u in &big {
        for &v in &big {
            assert!(
                bc.same_bcc(&mut led, u, v),
                "({u},{v}) in the big component"
            );
        }
    }
    for &(u, v) in &[(1u32, 4u32), (5, 7), (5, 8), (7, 8)] {
        assert!(bc.same_bcc(&mut led, u, v));
    }
    assert!(!bc.same_bcc(&mut led, 4, 0));
    assert!(!bc.same_bcc(&mut led, 7, 1));
    assert!(!bc.same_bcc(&mut led, 4, 7));
    // the paper's "implicit standard output": per-edge labels in O(1)
    let l_edge: Vec<u32> = (0..g.m() as u32)
        .map(|e| bc.edge_bcc(&mut led, e, &g))
        .collect();
    let bridge_eid = g.edges().iter().position(|&e| e == (1, 4)).unwrap();
    assert!(l_edge.iter().filter(|&&l| l == l_edge[bridge_eid]).count() == 1);
}

#[test]
fn figure3_local_graph_shape() {
    // Figure 3 illustrates a cluster's local graph: internal edges, tree
    // edges to neighbor clusters, same-label neighbors chained, external
    // non-tree edges redirected. We reproduce the *shape* on a concrete
    // decomposition and check Definition 4's properties.
    use wec::biconnectivity::oracle::build_biconnectivity_oracle;
    let g = wec::graph::gen::bounded_degree_connected(60, 4, 20, 5);
    let pri = Priorities::random(60, 5);
    let verts: Vec<Vertex> = (0..60).collect();
    let mut led = Ledger::new(16);
    let oracle =
        build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 4, 9, BuildOpts::default());
    // Every local graph: members + one outside vertex per incident cluster
    // tree edge; connected; no asymmetric writes to build.
    let w0 = led.costs().asym_writes;
    for ci in 0..oracle.decomposition().num_centers() as u32 {
        let (lg, _bcc) = oracle.local_of(&mut led, ci);
        assert!(lg.n_members >= 1);
        assert!(wec::graph::props::is_connected(
            &wec::graph::Csr::from_edges(lg.csr.n(), lg.csr.edges())
        ));
    }
    assert_eq!(
        led.costs().asym_writes,
        w0,
        "local graphs are query-time, write-free"
    );
}
