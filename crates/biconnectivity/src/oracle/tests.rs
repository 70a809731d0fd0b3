//! Differential tests for the §5.3 oracle: every answer is checked against
//! the deletion-based brute force and Hopcroft–Tarjan on seeded graph
//! families. These are the tests that give the oracle its credibility —
//! the paper's query logic has many corner cases (shared articulation
//! clusters, parallel cluster bundles, turning at the LCA cluster, small
//! center-less components).

use super::build::build_biconnectivity_oracle;
use super::local::{
    intra_path_bridge_free, largest_pooled_capacity, LocalBcc, LocalGraph, OutsideDir,
};
use super::{BiconnectivityOracle, Resolved};
use wec_asym::scratch::SCRATCH_CAP;
use wec_asym::{Costs, FxHashMap, Ledger};
use wec_baseline::{brute, hopcroft_tarjan};
use wec_core::{BuildOpts, ClustersGraph, ImplicitDecomposition};
use wec_graph::gen::{
    bounded_degree_connected, caterpillar, cycle, disjoint_union, grid, ladder, path,
    random_regular,
};
use wec_graph::{Csr, Priorities, Vertex};
use wec_prims::{EulerTour, LcaIndex, RootedForest};

fn check_oracle(g: &Csr, k: usize, seed: u64) {
    let n = g.n();
    let pri = Priorities::random(n, seed ^ 0x77);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut led = Ledger::new((k * k) as u64);
    let oracle =
        build_biconnectivity_oracle(&mut led, g, &pri, &verts, k, seed, BuildOpts::default());
    let mut led2 = Ledger::new(4);
    let ht = hopcroft_tarjan(&mut led2, g);

    // articulation points
    for v in 0..n as u32 {
        assert_eq!(
            oracle.is_articulation(&mut led, v),
            ht.articulation[v as usize],
            "articulation({v}) k={k} seed={seed}"
        );
    }
    // bridges + per-edge BCC ids
    let mut id_map: FxHashMap<super::BccId, u32> = FxHashMap::default();
    for (eid, &(u, v)) in g.edges().iter().enumerate() {
        assert_eq!(
            oracle.is_bridge(&mut led, u, v),
            ht.bridge[eid],
            "bridge({u},{v}) k={k} seed={seed}"
        );
        let ours = oracle.edge_bcc(&mut led, u, v);
        let theirs = ht.edge_bcc[eid];
        match id_map.entry(ours) {
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(
                    *e.get(),
                    theirs,
                    "edge ({u},{v}) BCC id {ours:?} previously mapped differently (k={k} seed={seed})"
                );
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(theirs);
            }
        }
    }
    // the map must also be injective (distinct ids ↦ distinct HT labels)
    let distinct: std::collections::HashSet<u32> = id_map.values().copied().collect();
    assert_eq!(
        distinct.len(),
        id_map.len(),
        "BCC id conflation (k={k} seed={seed})"
    );

    // pairwise biconnected / 2-edge-connected
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            assert_eq!(
                oracle.biconnected(&mut led, u, v),
                brute::same_bcc(g, u, v),
                "biconnected({u},{v}) k={k} seed={seed}"
            );
            assert_eq!(
                oracle.two_edge_connected(&mut led, u, v),
                brute::two_edge_connected(g, u, v),
                "2ec({u},{v}) k={k} seed={seed}"
            );
            assert_eq!(
                oracle.connected(&mut led, u, v),
                brute::connected(g, u, v),
                "connected({u},{v}) k={k} seed={seed}"
            );
        }
    }
}

#[test]
fn structured_families() {
    check_oracle(&path(13), 3, 1);
    check_oracle(&cycle(11), 3, 2);
    check_oracle(&ladder(6), 4, 3);
    check_oracle(&grid(4, 5), 4, 4);
    check_oracle(&caterpillar(5, 2), 3, 5);
}

#[test]
fn barbell_and_shared_articulations() {
    let barbell = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
    check_oracle(&barbell, 2, 1);
    check_oracle(&barbell, 3, 2);
    // two triangles sharing one vertex
    let shared = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
    check_oracle(&shared, 2, 3);
    check_oracle(&shared, 3, 4);
    // chain of triangles through articulation points
    let chain = Csr::from_edges(
        9,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 2),
            (4, 5),
            (5, 6),
            (6, 4),
            (6, 7),
            (7, 8),
            (8, 6),
        ],
    );
    check_oracle(&chain, 3, 5);
}

#[test]
fn random_bounded_degree_small() {
    for seed in 0..6u64 {
        let g = bounded_degree_connected(20, 4, 6, seed);
        check_oracle(&g, 3, seed);
    }
}

#[test]
fn random_bounded_degree_medium() {
    for seed in 0..4u64 {
        let g = bounded_degree_connected(34, 4, 10, 50 + seed);
        check_oracle(&g, 4, seed);
    }
}

#[test]
fn random_regular_graphs() {
    for seed in 0..3u64 {
        let g = random_regular(24, 4, seed);
        check_oracle(&g, 3, 70 + seed);
    }
}

#[test]
fn disconnected_with_small_components() {
    for seed in 0..4u64 {
        let g = disjoint_union(&[
            &bounded_degree_connected(18, 4, 5, seed),
            &path(3),
            &cycle(4),
            &Csr::from_edges(1, &[]),
        ]);
        check_oracle(&g, 4, 90 + seed);
    }
}

#[test]
fn trees_are_all_bridges() {
    let g = wec_graph::gen::random_tree_bounded(25, 3, 9);
    check_oracle(&g, 3, 11);
}

#[test]
fn varying_k_same_answers() {
    let g = bounded_degree_connected(26, 4, 8, 33);
    for k in [2usize, 3, 5, 8] {
        check_oracle(&g, k, 200 + k as u64);
    }
}

#[test]
fn build_writes_scale_inversely_with_k_and_queries_write_free() {
    // The oracle's writes follow the paper's O(n/k): an absolute bound
    // with implementation constants, and clean inverse scaling in k.
    let n = 3000usize;
    let g = bounded_degree_connected(n, 4, 700, 3);
    let pri = Priorities::random(n, 5);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut writes = Vec::new();
    for &k in &[12usize, 48] {
        let mut led = Ledger::new((k * k) as u64);
        let oracle =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 7, BuildOpts::default());
        let w = led.costs().asym_writes;
        writes.push(w);
        let bound = 150 * (n / k) as u64;
        assert!(
            w <= bound,
            "oracle build writes {w} > O(n/k) bound {bound} (k={k})"
        );
        if k == 48 {
            // query-write-freedom checked on the final oracle
            let w0 = led.costs().asym_writes;
            for v in (0..n as u32).step_by(37) {
                let _ = oracle.is_articulation(&mut led, v);
            }
            let _ = oracle.biconnected(&mut led, 0, (n - 1) as u32);
            let _ = oracle.two_edge_connected(&mut led, 1, (n / 2) as u32);
            assert_eq!(led.costs().asym_writes, w0, "queries must not write");
        }
    }
    // 4× larger k should cut writes by ~4× (allowing constant slack).
    assert!(
        writes[1] * 28 <= writes[0] * 10,
        "writes should scale ~1/k: k=12 -> {}, k=48 -> {}",
        writes[0],
        writes[1]
    );
}

#[test]
fn query_cost_is_k_squared_not_n() {
    let mut per_query = Vec::new();
    for &n in &[800usize, 3200] {
        let g = bounded_degree_connected(n, 4, n / 5, 2);
        let pri = Priorities::random(n, 3);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new(64);
        let oracle =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 8, 9, BuildOpts::default());
        let before = led.costs();
        let mut q = 0u64;
        for v in (0..n as u32).step_by(41) {
            let _ = oracle.biconnected(&mut led, v, (v + 13) % n as u32);
            q += 1;
        }
        per_query.push(led.costs().since(&before).operations() / q);
    }
    assert!(
        per_query[1] <= 3 * per_query[0] + 100,
        "per-query ops should not scale with n: {per_query:?}"
    );
}

/// Step 1 as a FIFO queue over the implicit clusters graph, started from
/// each unvisited cluster in dense-id order: `(parent, witness_inner,
/// witness_outer)` per dense id.
fn fifo_clusters_forest(
    oracle: &super::BiconnectivityOracle<Csr>,
) -> (Vec<u32>, Vec<Vertex>, Vec<Vertex>) {
    let cg = ClustersGraph::new(oracle.decomposition());
    let nc = oracle.d.centers().len();
    let mut parent = vec![u32::MAX; nc];
    let mut inner = vec![0 as Vertex; nc];
    let mut outer = vec![0 as Vertex; nc];
    let mut led = Ledger::sequential(1);
    let mut queue = std::collections::VecDeque::new();
    for start in 0..nc as u32 {
        if parent[start as usize] != u32::MAX {
            continue;
        }
        parent[start as usize] = start;
        queue.push_back(start);
        while let Some(x) = queue.pop_front() {
            for e in cg.neighbor_edges(&mut led, oracle.d.centers()[x as usize]) {
                let y = oracle.idx[&e.center] as usize;
                if parent[y] == u32::MAX {
                    parent[y] = x;
                    inner[y] = e.outer;
                    outer[y] = e.inner;
                    queue.push_back(y as u32);
                }
            }
        }
    }
    (parent, inner, outer)
}

#[test]
fn step1_forest_matches_a_fifo_bfs_under_both_ledgers() {
    let cases = [
        (bounded_degree_connected(400, 4, 80, 5), false),
        (grid(14, 14), false),
        (
            disjoint_union(&[
                &grid(9, 9),
                &path(2),
                &cycle(5),
                &bounded_degree_connected(120, 4, 30, 3),
            ]),
            true,
        ),
    ];
    let k = 4;
    for (gi, (g, disconnected)) in cases.iter().enumerate() {
        let n = g.n();
        let pri = Priorities::random(n, gi as u64);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let build = |mut led: Ledger| {
            let o = build_biconnectivity_oracle(
                &mut led,
                g,
                &pri,
                &verts,
                k,
                gi as u64 + 1,
                BuildOpts::default(),
            );
            (o, led.costs(), led.depth())
        };
        let (par, par_costs, par_depth) = build(Ledger::new(16));
        let (seq, seq_costs, seq_depth) = build(Ledger::sequential(16));
        assert_eq!(par_costs, seq_costs, "graph {gi}: costs");
        assert_eq!(par_depth, seq_depth, "graph {gi}: depth");
        for oracle in [&par, &seq] {
            let (parent, inner, outer) = fifo_clusters_forest(oracle);
            let built: Vec<u32> = (0..parent.len() as u32)
                .map(|c| oracle.forest.parent(c))
                .collect();
            assert_eq!(built, parent, "graph {gi}: forest");
            assert_eq!(oracle.witness_inner, inner, "graph {gi}: witness_inner");
            assert_eq!(oracle.witness_outer, outer, "graph {gi}: witness_outer");
            assert_eq!(
                oracle.forest.roots().len() > 1,
                *disconnected,
                "graph {gi}: forest roots"
            );
        }
    }
}

#[test]
fn storage_words_is_o_n_over_k() {
    // The footprint sums the real per-cluster arrays, the clusters forest,
    // its tour and the LCA index on top of the decomposition: O(n/k) with
    // implementation constants, and o(n) once k outgrows them.
    let n = 4000usize;
    let g = bounded_degree_connected(n, 4, 1000, 2);
    let pri = Priorities::random(n, 2);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    for &k in &[4usize, 16, 48] {
        let mut led = Ledger::new((k * k) as u64);
        let oracle =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 4, BuildOpts::default());
        let words = oracle.storage_words();
        assert!(words <= 56 * n / k, "storage {words} not O(n/k) for k={k}");
        assert!(
            words > oracle.decomposition().storage_words() + oracle.lca.words(),
            "storage {words} must count the per-cluster arrays"
        );
        if k >= 48 {
            assert!(words < n, "storage {words} must be o(n) once k ≫ constants");
        }
    }
}

#[test]
fn build_writes_each_oracle_word_once() {
    // Beyond the decomposition, the clusters forest, its tour and its LCA
    // index, the build charges an exact count. With n_c clusters, r roots,
    // c = n_c − r tree children, P non-tree pairs and U successful unions:
    //   forest parents n_c + c, witnesses 2·n_c,
    //   Step 2: w_low/w_high 2·n_c + P, two leaffix passes 2·n_c,
    //     critical bits n_c/64 + 1, union-find n_c + U, cg_label n_c,
    //   Step 3 records: n_c + 4·c,
    //   Step 4: offsets n_c + 1, labels, blocked depths, bridge bits 4·n_c.
    // A second pass over any per-cluster array breaks the equality.
    let g = disjoint_union(&[
        &bounded_degree_connected(300, 4, 70, 8),
        &grid(8, 9),
        &cycle(12),
        &path(3),
        &bounded_degree_connected(90, 4, 20, 9),
    ]);
    let n = g.n();
    let pri = Priorities::random(n, 6);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let k = 4;
    for opts in [BuildOpts::default(), BuildOpts { parallel: true }] {
        let mut led = Ledger::new(16);
        let oracle = build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 3, opts);
        let total = led.costs().asym_writes;

        let mut l = Ledger::new(16);
        ImplicitDecomposition::build(&mut l, &g, &pri, &verts, k, 3, opts);
        let decomp = l.costs().asym_writes;
        let nc = oracle.d.centers().len() as u64;
        let parents = (0..nc as u32).map(|c| oracle.forest.parent(c)).collect();
        let mut l = Ledger::new(16);
        let forest = RootedForest::from_parents(&mut l, parents);
        let tour = EulerTour::new(&mut l, &forest);
        LcaIndex::new(&mut l, &forest, &tour);
        let shared = l.costs().asym_writes;

        let roots = oracle.forest.roots().len() as u64;
        assert!(
            roots >= 3,
            "several centered components expected, got {roots}"
        );
        let children = nc - roots;
        let cg = ClustersGraph::new(oracle.decomposition());
        let mut pairs = 0u64;
        for ci in 0..nc as u32 {
            for e in cg.neighbor_edges(&mut l, oracle.d.centers()[ci as usize]) {
                let yd = oracle.idx[&e.center];
                let tree = oracle.forest.parent(yd) == ci || oracle.forest.parent(ci) == yd;
                let unrelated =
                    !oracle.tour.is_ancestor(ci, yd) && !oracle.tour.is_ancestor(yd, ci);
                pairs += u64::from(!tree && ci < yd && unrelated);
            }
        }
        // Roots stay singletons, so the union-find ends with r sets plus one
        // per distinct label among the children.
        let labels: std::collections::HashSet<u32> = (0..nc as usize)
            .filter(|&ci| !oracle.forest.is_root(ci as u32))
            .map(|ci| oracle.cg_label[ci])
            .collect();
        let unions = children - labels.len() as u64;

        let expected = 15 * nc + 5 * children + pairs + unions + nc / 64 + 2;
        assert_eq!(
            total - decomp - shared,
            expected,
            "{opts:?}: n_c {nc}, roots {roots}, pairs {pairs}, unions {unions}"
        );
    }
}

/// Every field of a built and analyzed local graph, comparable.
type LocalPrint = (
    (
        Vec<Vertex>,
        Vec<(Vertex, u32)>,
        usize,
        Vec<(Vertex, Vertex)>,
        Vec<(Vec<Vertex>, Vec<u32>)>,
        Vec<OutsideDir>,
        Option<u32>,
        Vec<Vertex>,
    ),
    (
        Vec<u32>,
        Vec<bool>,
        Vec<bool>,
        usize,
        Vec<u32>,
        Vec<bool>,
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
    ),
);

fn local_print(lg: &LocalGraph, bcc: &LocalBcc) -> LocalPrint {
    let mut index: Vec<(Vertex, u32)> = lg.index.iter().map(|(&v, &i)| (v, i)).collect();
    index.sort_unstable();
    let lists = (0..lg.csr.n() as u32)
        .map(|v| {
            (
                lg.csr.neighbors(v).to_vec(),
                lg.csr.neighbor_edge_ids(v).to_vec(),
            )
        })
        .collect();
    (
        (
            lg.verts.clone(),
            index,
            lg.n_members,
            lg.csr.edges().to_vec(),
            lists,
            lg.dirs.clone(),
            lg.parent_outside,
            lg.tree_parent.clone(),
        ),
        (
            bcc.edge_bcc.clone(),
            bcc.articulation.clone(),
            bcc.bridge.clone(),
            bcc.num_bcc,
            bcc.tecc.clone(),
            bcc.bcc_touches_parent.clone(),
            bcc.internal_rank.clone(),
            bcc.bcc_offsets.clone(),
            bcc.bcc_lists.clone(),
        ),
    )
}

/// Build and analyze the local graph `r` names on a fresh ledger.
fn local_run(oracle: &BiconnectivityOracle<Csr>, r: Resolved) -> (LocalPrint, Costs, u64, u64) {
    let mut led = Ledger::new(64);
    let (lg, bcc) = match r {
        Resolved::Cluster(ci) => oracle.local_of(&mut led, ci),
        Resolved::Small(c) => oracle.small_local(&mut led, c),
    };
    (
        local_print(&lg, &bcc),
        led.costs(),
        led.depth(),
        led.sym_peak(),
    )
}

#[test]
fn interleaved_local_graphs_match_runs_on_a_fresh_thread() {
    let graphs = [
        bounded_degree_connected(160, 4, 40, 3),
        grid(9, 7),
        disjoint_union(&[
            &bounded_degree_connected(60, 4, 15, 8),
            &path(3),
            &cycle(4),
            &ladder(2),
            &path(2),
            &cycle(3),
            &path(3),
        ]),
    ];
    let ks = [4usize, 3, 8];
    let pris: Vec<Priorities> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| Priorities::random(g.n(), 40 + i as u64))
        .collect();
    let mut led = Ledger::new(64);
    let oracles: Vec<BiconnectivityOracle<Csr>> = graphs
        .iter()
        .zip(&pris)
        .zip(ks)
        .map(|((g, pri), k)| {
            let verts: Vec<Vertex> = (0..g.n() as u32).collect();
            build_biconnectivity_oracle(&mut led, g, pri, &verts, k, 5, BuildOpts::default())
        })
        .collect();
    // Every cluster and every small component of every oracle, visited
    // round-robin so consecutive builds reuse buffers sized by another
    // graph.
    let mut per_oracle: Vec<Vec<Resolved>> = Vec::new();
    for (o, g) in oracles.iter().zip(&graphs) {
        let mut calls: Vec<Resolved> = (0..o.decomposition().num_centers() as u32)
            .map(Resolved::Cluster)
            .collect();
        for v in 0..g.n() as u32 {
            if let Resolved::Small(c) = o.cluster_of(&mut led, v) {
                if c == v {
                    calls.push(Resolved::Small(c));
                }
            }
        }
        per_oracle.push(calls);
    }
    assert!(per_oracle[2]
        .iter()
        .any(|r| matches!(r, Resolved::Small(_))));
    let longest = per_oracle.iter().map(Vec::len).max().unwrap();
    for round in 0..2 {
        for j in 0..longest {
            for (i, calls) in per_oracle.iter().enumerate() {
                let r = calls[(j * 7 + round) % calls.len()];
                let o = &oracles[i];
                let fresh = std::thread::scope(|t| t.spawn(|| local_run(o, r)).join().unwrap());
                assert_eq!(local_run(o, r), fresh, "oracle {i}, {r:?}");
            }
        }
    }
}

#[test]
fn a_huge_local_graph_leaves_the_pools_capped() {
    // k exceeds n, so the whole grid is one local graph — a cluster or a
    // center-less component — with far more arcs than a pooled buffer
    // keeps.
    let g = grid(50, 50);
    let n = g.n();
    let pri = Priorities::random(n, 2);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut led = Ledger::new(64);
    let oracle = build_biconnectivity_oracle(
        &mut led,
        &g,
        &pri,
        &verts,
        2 * SCRATCH_CAP,
        3,
        BuildOpts::default(),
    );
    let (lg, bcc) = match oracle.cluster_of(&mut led, 0) {
        Resolved::Cluster(ci) => oracle.local_of(&mut led, ci),
        Resolved::Small(c) => oracle.small_local(&mut led, c),
    };
    assert!(2 * lg.csr.m() > SCRATCH_CAP && lg.n_members == n);
    // The grid has no bridge; the walk from a far corner climbs a deep
    // cluster tree through the pooled ancestor chain.
    let far = lg.verts[n - 1];
    assert!(intra_path_bridge_free(
        &mut led,
        &lg,
        &bcc,
        far,
        lg.verts[0]
    ));
    drop((lg, bcc));
    let cap = largest_pooled_capacity();
    assert!(cap <= SCRATCH_CAP, "a pooled buffer kept capacity {cap}");
}
