//! Section 6: sublinear-write algorithms on unbounded-degree graphs via
//! the implicit bounded-degree view `G'`.
//!
//! What the transformation provably preserves — and what it does not —
//! is documented in `wec-graph/src/bounded.rs`: connectivity
//! and the edge-cut structure (bridges / 2-edge-connectivity) carry over
//! exactly; vertex biconnectivity does not in general (this file contains
//! the counterexample, kept as a *documented-limitation* test).

use wec::asym::Ledger;
use wec::baseline::brute;
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::graph::{gen, BoundedDegreeView, Csr, GraphView, Priorities, Vertex};

fn view_vertices(view: &BoundedDegreeView) -> Vec<Vertex> {
    (0..view.n() as u32)
        .filter(|&v| view.is_vertex(v))
        .collect()
}

#[test]
fn connectivity_oracle_over_the_view_matches_original() {
    for (g, seed) in [
        (gen::star(80), 1u64),
        (gen::chung_lu(150, 400, 2.3, 5), 2),
        (
            gen::disjoint_union(&[&gen::complete(12), &gen::star(30), &gen::path(9)]),
            3,
        ),
    ] {
        let view = BoundedDegreeView::new(&g, 4);
        let verts = view_vertices(&view);
        let pri = Priorities::random(view.n(), seed);
        let mut led = Ledger::new(16);
        let oracle = ConnectivityOracle::build(
            &mut led,
            &view,
            &pri,
            &verts,
            4,
            seed,
            OracleBuildOpts::default(),
        );
        // original-vertex queries agree with ground truth on G
        let (comp, _) = wec::graph::props::components(&g);
        for u in (0..g.n() as u32).step_by(3) {
            for v in (0..g.n() as u32).step_by(7) {
                assert_eq!(
                    oracle.connected(&mut led, u, v),
                    comp[u as usize] == comp[v as usize],
                    "connected({u},{v}) via G' (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn view_queries_stay_write_free_and_bounded() {
    let g = gen::star(500);
    let view = BoundedDegreeView::new(&g, 4);
    let mut led = Ledger::new(16);
    // neighbor enumeration over the view never writes
    let mut out = Vec::new();
    for v in (0..view.n() as u32)
        .filter(|&v| view.is_vertex(v))
        .take(600)
    {
        out.clear();
        view.neighbors_into(&mut led, v, &mut out);
        assert!(out.len() <= 4, "degree cap violated at {v}");
    }
    assert_eq!(led.costs().asym_writes, 0);
}

#[test]
fn bridges_preserved_through_the_view() {
    // Bridge structure carries over exactly: an original edge is a bridge
    // in G iff its image is a bridge in G'. Check via brute force on the
    // materialized view (small inputs).
    for (g, seed) in [
        (gen::star(24), 4u64),
        (gen::caterpillar(4, 5), 5),
        (gen::add_random_edges(&gen::star(20), 8, 9), 6),
    ] {
        let view = BoundedDegreeView::new(&g, 4);
        let mut led = Ledger::new(8);
        // materialize G' for the brute-force comparison
        let mut edges = Vec::new();
        let mut nbrs = Vec::new();
        for v in 0..view.n() as u32 {
            if !view.is_vertex(v) {
                continue;
            }
            nbrs.clear();
            view.neighbors_into(&mut led, v, &mut nbrs);
            for &w in &nbrs {
                if v < w {
                    edges.push((v, w));
                }
            }
        }
        let gp = Csr::from_edges(view.n(), &edges);
        let bridges_g = brute::bridges(&g);
        for (eid, &(u, v)) in g.edges().iter().enumerate() {
            let (a, b) = view.edge_image(&mut led, u, v);
            let img_eid =
                gp.neighbor_edge_ids(a)[gp.arc_position(a, b).expect("image edge exists")] as usize;
            let img_bridge = brute::bridges(&gp)[img_eid];
            assert_eq!(
                bridges_g[eid], img_bridge,
                "bridge({u},{v}) vs image ({a},{b}) seed {seed}"
            );
        }
    }
}

/// Pairwise 2-edge-connectivity survives the view **one way only**: two
/// edge-disjoint paths in `G'` contract to two edge-disjoint paths in `G`,
/// so `2ec(G', u, v) ⇒ 2ec(G, u, v)` for original vertices. The converse is
/// *false* in general — two edge-disjoint `G`-paths through a high-degree
/// vertex can collide on a shared virtual-tree edge in `G'` when their slots
/// sit under the same subtree (same mechanism as the vertex-biconnectivity
/// limitation below). Per-edge *bridge* status is still preserved exactly
/// (previous test).
#[test]
fn two_edge_connectivity_view_implies_original() {
    let mut false_negatives = 0usize;
    let mut pairs = 0usize;
    for seed in 0..4u64 {
        let g = gen::add_random_edges(&gen::star(16), 6, seed);
        let view = BoundedDegreeView::new(&g, 4);
        let mut led = Ledger::new(8);
        let mut edges = Vec::new();
        let mut nbrs = Vec::new();
        for v in 0..view.n() as u32 {
            if view.is_vertex(v) {
                nbrs.clear();
                view.neighbors_into(&mut led, v, &mut nbrs);
                for &w in &nbrs {
                    if v < w {
                        edges.push((v, w));
                    }
                }
            }
        }
        let gp = Csr::from_edges(view.n(), &edges);
        for u in 0..g.n() as u32 {
            for v in (u + 1)..g.n() as u32 {
                pairs += 1;
                let in_g = brute::two_edge_connected(&g, u, v);
                let in_view = brute::two_edge_connected(&gp, u, v);
                assert!(
                    !in_view || in_g,
                    "view must never invent 2ec: ({u},{v}) seed {seed}"
                );
                false_negatives += usize::from(in_g && !in_view);
            }
        }
    }
    // The lossy direction exists — star-plus-chords graphs interleave slots
    // through the high-degree center often — but a gross regression of the
    // transformation (e.g. disconnecting trees) would lose far more.
    assert!(
        false_negatives * 4 <= pairs,
        "view lost 2ec on {false_negatives}/{pairs} pairs — transformation regressed"
    );
}

/// **Documented limitation** (`bounded.rs` docs): the §6
/// virtual-tree sketch does *not* preserve vertex biconnectivity in
/// general — when two biconnected components meet at a high-degree
/// articulation point whose edge slots interleave across different leaves,
/// the virtual tree offers a bypass. This test pins the concrete
/// counterexample so the behavior is tracked, not hidden.
#[test]
fn vertex_biconnectivity_counterexample_is_real() {
    // v = 4 with sorted neighbors {0,1,2,3} and side edges (0,2), (1,3):
    // the two BCCs {4,0,2} and {4,1,3} interleave across 4's edge slots,
    // so the virtual tree's leaves {0,1} and {2,3} each straddle both.
    let g = Csr::from_edges(5, &[(4, 0), (4, 1), (4, 2), (4, 3), (0, 2), (1, 3)]);
    assert!(
        !brute::same_bcc(&g, 0, 1),
        "ground truth: 0 and 1 are not biconnected in G"
    );
    let view = BoundedDegreeView::new(&g, 3);
    let mut led = Ledger::new(8);
    let mut edges = Vec::new();
    let mut nbrs = Vec::new();
    for v in 0..view.n() as u32 {
        if view.is_vertex(v) {
            nbrs.clear();
            view.neighbors_into(&mut led, v, &mut nbrs);
            for &w in &nbrs {
                if v < w {
                    edges.push((v, w));
                }
            }
        }
    }
    let gp = Csr::from_edges(view.n(), &edges);
    // In G', the two leaves of 4's virtual tree provide a bypass
    // (0 − leaf₁ − 1 and 0 − 2 − leaf₂ − 3 − 1 are vertex-disjoint): 0 and
    // 1 become biconnected. If this assertion ever starts failing, the
    // transformation changed and the docs must be updated.
    assert!(
        brute::same_bcc(&gp, 0, 1),
        "expected the documented counterexample to reproduce"
    );
}
