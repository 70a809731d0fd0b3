//! End-to-end cross-crate pipelines on medium graphs: every public oracle
//! and algorithm run on the same inputs, answers cross-checked against
//! each other and against ground truth, and the paper's cost orderings
//! asserted (the Table-1 "shape" as a test).

use wec::asym::Ledger;
use wec::baseline::{
    hopcroft_tarjan, seq_connectivity, seq_spanning_forest, shun_connectivity, unionfind,
};
use wec::biconnectivity::{bc_labeling, oracle::build_biconnectivity_oracle, tecc};
use wec::connectivity::{connectivity_csr, ConnectivityOracle, OracleBuildOpts};
use wec::core::BuildOpts;
use wec::graph::{gen, Priorities, Vertex};

#[test]
fn all_connectivity_paths_agree_on_medium_graph() {
    let n = 2500usize;
    let g = gen::disjoint_union(&[
        &gen::bounded_degree_connected(n, 4, n / 3, 11),
        &gen::grid(12, 12),
        &gen::cycle(17),
    ]);
    let n = g.n();
    let truth = unionfind::uf_labels(&g);
    let omega = 64u64;

    let mut led = Ledger::new(omega);
    let (seq_labels, _) = seq_connectivity(&mut led, &g);
    assert!(unionfind::same_partition(&seq_labels, &truth));

    let shun_labels = shun_connectivity(&mut led, &g, 5);
    assert!(unionfind::same_partition(&shun_labels, &truth));

    let r42 = connectivity_csr(&mut led, &g, 1.0 / omega as f64, 5);
    assert!(unionfind::same_partition(&r42.labels, &truth));

    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, 8, 5, OracleBuildOpts::default());
    for step in [37usize, 113] {
        for u in (0..n).step_by(step) {
            for v in (0..n).step_by(step * 2 + 1) {
                assert_eq!(
                    oracle.connected(&mut led, u as u32, v as u32),
                    truth[u] == truth[v],
                    "oracle vs truth at ({u},{v})"
                );
            }
        }
    }
}

#[test]
fn biconnectivity_representations_agree_on_medium_graph() {
    let n = 900usize;
    let g = gen::bounded_degree_connected(n, 4, n / 5, 23);
    let omega = 64u64;
    let mut led = Ledger::new(omega);
    let ht = hopcroft_tarjan(&mut led, &g);
    let bc = bc_labeling(&mut led, &g, 1.0 / omega as f64, 2);
    let pri = Priorities::random(n, 23);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let oracle =
        build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 8, 2, BuildOpts::default());

    // three-way agreement on articulation points & bridges
    for v in 0..n as u32 {
        let expect = ht.articulation[v as usize];
        assert_eq!(
            bc.is_articulation(&mut led, v),
            expect,
            "labeling artic({v})"
        );
        assert_eq!(
            oracle.is_articulation(&mut led, v),
            expect,
            "oracle artic({v})"
        );
    }
    for (eid, &(u, v)) in g.edges().iter().enumerate() {
        let expect = ht.bridge[eid];
        assert_eq!(
            bc.is_bridge(&mut led, eid as u32, &g),
            expect,
            "labeling bridge({u},{v})"
        );
        assert_eq!(
            oracle.is_bridge(&mut led, u, v),
            expect,
            "oracle bridge({u},{v})"
        );
    }
    // edge-BCC partitions all equivalent
    let ours_bc: Vec<u32> = (0..g.m() as u32)
        .map(|e| bc.edge_bcc(&mut led, e, &g))
        .collect();
    assert!(unionfind::same_partition(&ours_bc, &ht.edge_bcc));
    use std::collections::HashMap;
    let mut map: HashMap<wec::biconnectivity::oracle::BccId, u32> = HashMap::new();
    for (eid, &(u, v)) in g.edges().iter().enumerate() {
        let id = oracle.edge_bcc(&mut led, u, v);
        let prev = map.insert(id, ht.edge_bcc[eid]);
        if let Some(p) = prev {
            assert_eq!(
                p, ht.edge_bcc[eid],
                "oracle BCC id split/merge at edge ({u},{v})"
            );
        }
    }
    assert_eq!(
        map.len(),
        ht.num_bcc,
        "oracle must name exactly the ground-truth number of BCCs"
    );

    // pairwise queries: labeling vs oracle on a sample
    for u in (0..n as u32).step_by(29) {
        for v in (0..n as u32).step_by(41) {
            assert_eq!(
                bc.same_bcc(&mut led, u, v),
                oracle.biconnected(&mut led, u, v),
                "same_bcc({u},{v}): labeling vs oracle"
            );
        }
    }

    // 2-edge-connectivity: dense labels vs oracle
    let t = tecc::two_edge_connectivity(&mut led, &g, &bc, 0.25, 3);
    for u in (0..n as u32).step_by(31) {
        for v in (0..n as u32).step_by(53) {
            assert_eq!(
                t.two_edge_connected(&mut led, u, v),
                oracle.two_edge_connected(&mut led, u, v),
                "2ec({u},{v}): labels vs oracle"
            );
        }
    }
}

#[test]
fn table1_write_ordering_holds_as_a_test() {
    // The Table-1 "shape" assertion: on a dense graph, §4.2 writes far less
    // than both prior parallel baselines, and the §4.3 oracle writes less
    // than any per-vertex labeling once k is past its constant.
    let n = 2000usize;
    let g = gen::gnm(n, 30 * n, 1);
    let omega = 1024u64;
    let mut led_shun = Ledger::new(omega);
    let _ = shun_connectivity(&mut led_shun, &g, 1);
    let mut led_42 = Ledger::new(omega);
    let _ = connectivity_csr(&mut led_42, &g, 1.0 / omega as f64, 1);
    assert!(
        led_42.costs().asym_writes * 4 < led_shun.costs().asym_writes,
        "§4.2 must write ≥4x less than the contracting baseline: {} vs {}",
        led_42.costs().asym_writes,
        led_shun.costs().asym_writes
    );
    let sparse = gen::bounded_degree_connected(n, 4, n / 4, 2);
    let pri = Priorities::random(n, 2);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut led_oracle = Ledger::new(omega);
    let _ = ConnectivityOracle::build(
        &mut led_oracle,
        &sparse,
        &pri,
        &verts,
        32,
        1,
        OracleBuildOpts::default(),
    );
    assert!(
        led_oracle.costs().asym_writes < n as u64,
        "§4.3 at k=32 must be sublinear: {} vs n = {n}",
        led_oracle.costs().asym_writes
    );
}

#[test]
fn forest_rooting_composes_with_labeling() {
    // The labeling must accept any valid spanning forest: §4.2's own,
    // re-rooted along its lifted edges at LDD centers, and a sequential BFS
    // forest rooted at the lowest id of each component.
    let g = gen::add_random_edges(&gen::grid(15, 15), 60, 9);
    let mut led = Ledger::new(16);
    let mut conn = connectivity_csr(&mut led, &g, 0.5, 4);
    assert!(
        !conn.lifted.is_empty(),
        "the re-root must have parts to join"
    );
    conn.reroot(&mut led, &|i, l| {
        l.read(1);
        Some(g.edge(i as u32))
    });
    let lowest = seq_spanning_forest(&mut led, &g);
    assert_eq!(lowest[0], 0);
    let ht = hopcroft_tarjan(&mut led, &g);
    for parent in [conn.parent, lowest] {
        let bc = wec::biconnectivity::bc_labeling_with_forest(&mut led, &g, parent, 0.125, 4);
        for v in 0..g.n() as u32 {
            assert_eq!(bc.is_articulation(&mut led, v), ht.articulation[v as usize]);
        }
        assert_eq!(bc.num_bcc, ht.num_bcc);
    }
}
