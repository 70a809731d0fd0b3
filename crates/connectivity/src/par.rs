//! §4.2: parallel connectivity and spanning forest in `O(n + βm)` writes.
//!
//! The four steps of the paper:
//!
//! 1. one low-diameter decomposition with parameter β; a part is named by
//!    its center's vertex id, so the only per-vertex words it writes are
//!    the BFS records;
//! 2. spanning trees per part — already produced by the LDD's internal
//!    write-efficient BFS (its parent array);
//! 3. write-efficient **filter** of the cross-part edges into a compacted
//!    array (writes proportional to the `O(βm)` output);
//! 4. any linear-work spanning-forest/connectivity pass on the contracted
//!    graph (size `O(n/1 + βm)`), here union-find over dense part ids.
//!
//! With `β = 1/ω`: `O(n + m/ω)` expected writes, `O(m + ωn)` expected work
//! (Theorem 4.2).

use wec_asym::Ledger;
use wec_baseline::UnionFind;
use wec_graph::{Csr, GraphView, Vertex};
use wec_prims::{flat_collect, low_diameter_decomposition};

/// Output of §4.2 connectivity.
#[derive(Debug, Clone)]
pub struct ConnResult {
    /// Dense component label per vertex (`u32::MAX` for ids outside
    /// `vertices`).
    pub labels: Vec<u32>,
    /// Number of connected components (among `vertices`).
    pub num_components: usize,
    /// Spanning forest as an edge list: LDD tree edges plus the lifted
    /// cross edges chosen on the contracted graph.
    pub forest_edges: Vec<(Vertex, Vertex)>,
    /// Number of LDD parts.
    pub num_parts: usize,
}

/// Connectivity over any [`GraphView`] plus an undirected edge enumerator.
///
/// `edge_at(i, led)` returns the `i`-th undirected edge or `None` for a
/// masked-out slot (how §5.2 removes critical edges without rebuilding the
/// graph). Step 3 calls it exactly once per slot, so it must be
/// deterministic.
pub fn connectivity_general(
    led: &mut Ledger,
    view: &impl GraphView,
    vertices: &[Vertex],
    num_edge_slots: usize,
    edge_at: &(impl Fn(usize, &mut Ledger) -> Option<(Vertex, Vertex)> + Sync),
    beta: f64,
    seed: u64,
) -> ConnResult {
    let n_ids = view.n();
    // Step 1 + 2: decompose; parents of the LDD BFS are per-part trees.
    let ldd = low_diameter_decomposition(led, view, vertices, beta, seed);
    let num_parts = ldd.num_parts();
    let source_of = &ldd.bfs.source_of;

    // Step 3: pack cross-part edges in one fused pass: `edge_at` and the
    // comparison of the endpoints' centers run once per slot, only the
    // surviving cross edges read their parts' dense ids, and the only
    // asymmetric writes are those survivors.
    let center_id = &ldd.center_id;
    let cross: Vec<(u32, u32, u32)> = flat_collect(led, num_edge_slots, |i, l| {
        let (u, v) = edge_at(i, l)?;
        l.read(2);
        let (cu, cv) = (source_of[u as usize], source_of[v as usize]);
        (cu != cv).then(|| {
            l.read(2);
            (center_id[cu as usize], center_id[cv as usize], i as u32)
        })
    });

    // Step 4: linear-work pass on the contracted graph (union-find). The
    // union sweep is inherently sequential; its reads are a known count and
    // its writes are one per accepted tree edge, both charged in bulk.
    let mut uf = UnionFind::new(num_parts);
    led.write(num_parts as u64);
    let mut lifted: Vec<u32> = Vec::new();
    led.read(2 * cross.len() as u64);
    for &(pu, pv, slot) in &cross {
        if uf.union(pu, pv) {
            lifted.push(slot);
        }
    }
    led.write(lifted.len() as u64);
    let num_components = uf.components();

    // Each part's component label overwrites its center's dense id, so the
    // center table now maps a center straight to its component.
    let mut center_label = ldd.center_id;
    led.read(num_parts as u64);
    led.write(num_parts as u64);
    for (&c, label) in ldd.centers.iter().zip(uf.labels()) {
        center_label[c as usize] = label;
    }

    // Project labels to vertices through their centers (O(n) writes —
    // allowed at this tier). Lookup convention: each vertex is charged one
    // read for a two-word lookup (its `source_of` word, then its center's
    // table slot); the second word goes uncharged, as in the Shun baseline's
    // projection. Charging it would add one read per vertex.
    let mut labels = vec![u32::MAX; n_ids];
    led.read(vertices.len() as u64);
    led.write(vertices.len() as u64);
    for &v in vertices {
        labels[v as usize] = center_label[source_of[v as usize] as usize];
    }

    // Spanning forest: LDD tree edges + lifted cross edges, with the edge
    // writes charged in bulk once the counts are known.
    let mut forest_edges = Vec::with_capacity(vertices.len());
    led.read(vertices.len() as u64);
    for &v in vertices {
        let p = ldd.bfs.parent[v as usize];
        if p != v && p != wec_prims::UNREACHED {
            forest_edges.push((v, p));
        }
    }
    led.write(forest_edges.len() as u64);
    led.write(lifted.len() as u64);
    for slot in lifted {
        let (u, v) = edge_at(slot as usize, led).expect("lifted slot must exist");
        forest_edges.push((u, v));
    }

    ConnResult {
        labels,
        num_components,
        forest_edges,
        num_parts,
    }
}

/// §4.2 on an explicit CSR graph. `beta = 1/ω` reproduces Theorem 4.2's
/// headline bounds.
pub fn connectivity_csr(led: &mut Ledger, g: &Csr, beta: f64, seed: u64) -> ConnResult {
    let vertices: Vec<Vertex> = (0..g.n() as u32).collect();
    let edges = g.edges();
    connectivity_general(
        led,
        g,
        &vertices,
        edges.len(),
        &|i, l| {
            l.read(1);
            Some(edges[i])
        },
        beta,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_baseline::unionfind::{same_partition, uf_labels};
    use wec_graph::gen::{disjoint_union, gnm, grid, path, random_regular, torus};

    fn check_forest(g: &Csr, r: &ConnResult) {
        let all: Vec<Vertex> = (0..g.n() as u32).collect();
        check_forest_on(g, r, &all);
    }

    /// Forest edges are real edges, acyclic, and span each component of
    /// `vertices`; ids outside `vertices` stay untouched singletons.
    fn check_forest_on(g: &Csr, r: &ConnResult, vertices: &[Vertex]) {
        let mut uf = UnionFind::new(g.n());
        for &(u, v) in &r.forest_edges {
            assert!(
                g.neighbors(u).contains(&v),
                "forest edge ({u},{v}) not in graph"
            );
            assert!(uf.union(u, v), "cycle in forest at ({u},{v})");
        }
        let holes = g.n() - vertices.len();
        assert_eq!(uf.components(), r.num_components + holes);
        let forest = uf.labels();
        let (want, got): (Vec<u32>, Vec<u32>) = vertices
            .iter()
            .map(|&v| (forest[v as usize], r.labels[v as usize]))
            .unzip();
        assert!(same_partition(&want, &got));
    }

    #[test]
    fn matches_ground_truth_on_families() {
        for (i, g) in [
            gnm(400, 1000, 1),
            gnm(300, 100, 2),
            disjoint_union(&[&grid(7, 7), &torus(4, 5), &path(13)]),
            random_regular(200, 4, 3),
        ]
        .iter()
        .enumerate()
        {
            let mut led = Ledger::new(16);
            let r = connectivity_csr(&mut led, g, 1.0 / 16.0, i as u64);
            assert!(same_partition(&r.labels, &uf_labels(g)), "graph {i}");
            check_forest(g, &r);
        }
    }

    #[test]
    fn writes_scale_as_n_plus_beta_m() {
        // Dense graph: writes must be far below m.
        let g = gnm(1000, 40_000, 7);
        let omega = 64u64;
        let mut led = Ledger::new(omega);
        let r = connectivity_csr(&mut led, &g, 1.0 / omega as f64, 5);
        assert_eq!(r.num_components, 1);
        let w = led.costs().asym_writes;
        // per vertex: bucket slot + 4 BFS words + label + forest edge
        let bound = 7 * 1000 + 4 * (40_000 / omega) + 40_000 / 1024 + 64;
        assert!(w <= bound, "writes {w} > O(n + βm) bound {bound}");
        // the Shun et al. baseline pays ≥ m writes on the same input
        let mut led2 = Ledger::new(omega);
        let _ = wec_baseline::shun_connectivity(&mut led2, &g, 5);
        assert!(led2.costs().asym_writes > w, "baseline should write more");
    }

    #[test]
    fn beta_sweep_trades_writes_for_parts() {
        // β controls LDD granularity in expectation; any single seed can
        // collapse to one part on a dense graph (large top shift gap), so
        // compare part counts summed over several seeds.
        let g = gnm(800, 12_000, 3);
        let mut cut_sizes = Vec::new();
        for beta in [0.5, 0.125, 1.0 / 32.0] {
            let mut total_parts = 0usize;
            for seed in 11..19 {
                let mut led = Ledger::new(16);
                let r = connectivity_csr(&mut led, &g, beta, seed);
                assert!(same_partition(&r.labels, &uf_labels(&g)));
                total_parts += r.num_parts;
            }
            cut_sizes.push(total_parts);
        }
        assert!(
            cut_sizes[0] > cut_sizes[1] && cut_sizes[1] >= cut_sizes[2],
            "parts should shrink as β does: {cut_sizes:?}"
        );
    }

    #[test]
    fn masked_edges_are_ignored() {
        // connectivity over a masked view: drop the bridge of a barbell and
        // the two triangles must become separate components.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let bridge_slot = g.edges().iter().position(|&e| e == (2, 3)).unwrap() as u32;
        let vertices: Vec<Vertex> = (0..6).collect();
        let mut led = Ledger::new(8);
        let mut masked = wec_graph::MaskedCsr::new(&mut led, &g);
        masked.ban(&mut led, bridge_slot);
        let mref = &masked;
        let r = connectivity_general(
            &mut led,
            mref,
            &vertices,
            g.m(),
            &|i, l| mref.edge_at(l, i),
            0.25,
            3,
        );
        assert_eq!(r.num_components, 2);
        assert_eq!(r.labels[0], r.labels[2]);
        assert_eq!(r.labels[3], r.labels[5]);
        assert_ne!(r.labels[0], r.labels[3]);
        check_forest(&g, &r);
    }

    #[test]
    fn view_with_holes_labels_only_its_vertices() {
        // Odd ids are holes, as the BC labeling's auxiliary view leaves its
        // forest roots out: edges join even ids only, and the odd ids never
        // appear in `vertices`.
        let base = disjoint_union(&[&gnm(150, 220, 6), &grid(6, 5), &path(20)]);
        let n = base.n();
        let spread: Vec<(Vertex, Vertex)> =
            base.edges().iter().map(|&(u, v)| (2 * u, 2 * v)).collect();
        let g = Csr::from_edges(2 * n, &spread);
        let vertices: Vec<Vertex> = (0..n as u32).map(|v| 2 * v).collect();
        let edges = g.edges();
        let (beta, seed) = (0.2, 8);
        let run = |mut led: Ledger| {
            let r = connectivity_general(
                &mut led,
                &g,
                &vertices,
                edges.len(),
                &|i, l| {
                    l.read(1);
                    Some(edges[i])
                },
                beta,
                seed,
            );
            (r, led.costs())
        };
        let (r, costs) = run(Ledger::new(16));
        let (r_seq, costs_seq) = run(Ledger::sequential(16));
        assert_eq!(costs, costs_seq);
        assert_eq!(r.labels, r_seq.labels);
        assert_eq!(r.forest_edges, r_seq.forest_edges);
        let truth = uf_labels(&base);
        for res in [&r, &r_seq] {
            assert!((1..2 * n).step_by(2).all(|v| res.labels[v] == u32::MAX));
            let got: Vec<u32> = vertices.iter().map(|&v| res.labels[v as usize]).collect();
            assert!(same_partition(&truth, &got));
            check_forest_on(&g, res, &vertices);
        }
        // The same decomposition names each part by its center: a vertex's
        // dense part id is its center's position in `centers`.
        let mut led = Ledger::new(16);
        let ldd = low_diameter_decomposition(&mut led, &g, &vertices, beta, seed);
        assert_eq!(ldd.num_parts(), r.num_parts);
        for v in 0..2 * n as u32 {
            let s = ldd.bfs.source_of[v as usize];
            if v % 2 == 1 {
                assert_eq!((s, ldd.part(v)), (u32::MAX, u32::MAX));
                continue;
            }
            let pos = ldd.centers.iter().position(|&c| c == s).unwrap();
            assert_eq!(ldd.part(v), pos as u32, "part of {v}");
        }
    }

    #[test]
    fn deterministic_costs_and_labels() {
        let g = gnm(500, 2000, 9);
        let run = |mut led: Ledger| {
            let r = connectivity_csr(&mut led, &g, 0.1, 4);
            (r.labels, r.num_components, led.costs())
        };
        let a = run(Ledger::new(16));
        let b = run(Ledger::sequential(16));
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert!(same_partition(&a.0, &b.0));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = Csr::from_edges(0, &[]);
        let mut led = Ledger::new(8);
        let r = connectivity_csr(&mut led, &g, 0.5, 1);
        assert_eq!(r.num_components, 0);
        let g1 = Csr::from_edges(3, &[]);
        let r1 = connectivity_csr(&mut led, &g1, 0.5, 1);
        assert_eq!(r1.num_components, 3);
        assert!(r1.forest_edges.is_empty());
    }
}
