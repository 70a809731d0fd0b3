//! §4.2: parallel connectivity and spanning forest in `O(n + βm)` writes.
//!
//! The four steps of the paper:
//!
//! 1. one low-diameter decomposition with parameter β; a part is named by
//!    its center's vertex id, so the only per-vertex words it writes are
//!    the BFS records;
//! 2. spanning trees per part — already produced by the LDD's internal
//!    write-efficient BFS: its parent array is returned as is, each part a
//!    tree rooted at its center, and the cross edges step 4 lifts join the
//!    parts ([`ConnResult::reroot`] turns both into one rooted forest);
//! 3. write-efficient **filter** of the cross-part edges into a compacted
//!    array (writes proportional to the `O(βm)` output);
//! 4. any linear-work spanning-forest/connectivity pass on the contracted
//!    graph (size `O(n/1 + βm)`), here union-find over dense part ids.
//!
//! With `β = 1/ω`: `O(n + m/ω)` expected writes, `O(m + ωn)` expected work
//! (Theorem 4.2).

use wec_asym::Ledger;
use wec_baseline::{seq_spanning_forest, UnionFind};
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
    /// The LDD's BFS parent array, moved out uncopied: a spanning tree of
    /// each part, rooted at its center (`parent[c] = c`), and
    /// [`UNREACHED`](wec_prims::UNREACHED) for ids outside `vertices`. With
    /// `lifted` it spans every component.
    pub parent: Vec<Vertex>,
    /// The cross edges the contracted pass lifted into the forest, one per
    /// merge of two parts: `(part of u, part of v, slot)` with dense part
    /// ids and `edge_at(slot) = (u, v)`. Empty iff every component is one
    /// part, in which case `parent` already is a rooted spanning forest.
    pub lifted: Vec<(u32, u32, u32)>,
    /// Number of LDD parts.
    pub num_parts: usize,
}

impl ConnResult {
    /// Re-root the per-part trees in place into one rooted spanning forest,
    /// the format §5.2 consumes. Afterwards `parent` is a spanning tree of
    /// each component, rooted at the center of its lowest-numbered part, and
    /// `lifted` is empty. `edge_at` must be the enumerator §4.2 ran with.
    ///
    /// The lifted edges join the parts into a forest on `num_parts` nodes; a
    /// BFS over it from each component's lowest-numbered part orients it.
    /// Every other part is entered through the lifted edge to its parent
    /// part: reversing the parent path from the entry endpoint up to the
    /// part's center and hanging the entry under the other endpoint re-roots
    /// it there. Parts are disjoint, so each parent word flips at most once:
    /// the entry's depth per non-root part (at most `n − parts` in all) plus
    /// one hang per lifted edge. Rooting the part forest writes
    /// `2·parts + 2·lifted` words. With no lifted edges this charges nothing.
    pub fn reroot(
        &mut self,
        led: &mut Ledger,
        edge_at: &impl Fn(usize, &mut Ledger) -> Option<(Vertex, Vertex)>,
    ) {
        if self.lifted.is_empty() {
            return;
        }
        let lifted = std::mem::take(&mut self.lifted);
        // The lifted edges are a forest on the parts, so its BFS forest
        // uses every one of them: each joins a part to its parent part.
        let pairs: Vec<(Vertex, Vertex)> = lifted.iter().map(|&(a, b, _)| (a, b)).collect();
        let parts = Csr::from_edges(self.num_parts, &pairs);
        led.read(lifted.len() as u64);
        led.write(2 * lifted.len() as u64 + self.num_parts as u64);
        let part_parent = seq_spanning_forest(led, &parts);
        led.read(2 * lifted.len() as u64);
        for (pu, pv, slot) in lifted {
            let (u, v) = edge_at(slot as usize, led).expect("lifted slot must exist");
            let (mut x, mut prev) = if part_parent[pu as usize] == pv {
                (u, v)
            } else {
                (v, u)
            };
            loop {
                let next = self.parent[x as usize];
                self.parent[x as usize] = prev;
                led.read(1);
                led.write(1);
                if next == x {
                    break;
                }
                (prev, x) = (x, next);
            }
        }
    }
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
    // Step 1 + 2: decompose; parents of the LDD BFS are per-part trees,
    // returned as they are.
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
    let mut lifted = Vec::new();
    led.read(2 * cross.len() as u64);
    for &(pu, pv, slot) in &cross {
        if uf.union(pu, pv) {
            lifted.push((pu, pv, slot));
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

    ConnResult {
        labels,
        num_components,
        parent: ldd.bfs.parent,
        lifted,
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
    use wec_graph::gen::{cycle, disjoint_union, gnm, grid, path, random_regular, torus};
    use wec_prims::UNREACHED;

    /// `connectivity_csr`'s edge enumerator, for [`ConnResult::reroot`].
    fn csr_edge(g: &Csr) -> impl Fn(usize, &mut Ledger) -> Option<(Vertex, Vertex)> + '_ {
        move |i, l| {
            l.read(1);
            Some(g.edge(i as u32))
        }
    }

    /// §4.2 on `g`, re-rooted into one rooted spanning forest.
    fn rooted(led: &mut Ledger, g: &Csr, beta: f64, seed: u64) -> ConnResult {
        let mut r = connectivity_csr(led, g, beta, seed);
        r.reroot(led, &csr_edge(g));
        r
    }

    fn check_forest(g: &Csr, r: &ConnResult) {
        let all: Vec<Vertex> = (0..g.n() as u32).collect();
        check_forest_on(g, r, &all);
    }

    /// `r.parent` is a rooted spanning forest of `vertices`: every non-root
    /// parent edge is a graph edge, every chain reaches a root `x` with
    /// `parent[x] = x`, each component has exactly one root, the trees
    /// partition `vertices` as the labels do, and ids outside `vertices`
    /// stay `UNREACHED`.
    fn check_forest_on(g: &Csr, r: &ConnResult, vertices: &[Vertex]) {
        assert!(r.lifted.is_empty(), "forest not re-rooted");
        let parent = &r.parent;
        let mut inside = vec![false; g.n()];
        for &v in vertices {
            inside[v as usize] = true;
        }
        for v in 0..g.n() {
            assert!(inside[v] || parent[v] == UNREACHED, "hole {v} has a parent");
        }
        let mut roots_per_label = vec![0usize; r.num_components];
        let mut root = vec![UNREACHED; g.n()];
        let mut chain = Vec::new();
        for &v in vertices {
            let p = parent[v as usize];
            if p == v {
                roots_per_label[r.labels[v as usize] as usize] += 1;
            } else {
                assert!(inside[p as usize], "parent {p} of {v} is a hole");
                assert!(g.has_edge(v, p), "parent edge ({v},{p}) not in graph");
            }
            // Walk up to a root, or to a vertex whose root is known.
            let mut x = v;
            while root[x as usize] == UNREACHED && parent[x as usize] != x {
                chain.push(x);
                assert!(chain.len() <= vertices.len(), "cycle above {v}");
                x = parent[x as usize];
            }
            let top = if parent[x as usize] == x {
                x
            } else {
                root[x as usize]
            };
            root[x as usize] = top;
            for y in chain.drain(..) {
                root[y as usize] = top;
            }
        }
        assert!(
            roots_per_label.iter().all(|&c| c == 1),
            "roots per component: {roots_per_label:?}"
        );
        let (trees, labels): (Vec<u32>, Vec<u32>) = vertices
            .iter()
            .map(|&v| (root[v as usize], r.labels[v as usize]))
            .unzip();
        assert!(same_partition(&trees, &labels));
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
            let r = rooted(&mut led, g, 1.0 / 16.0, i as u64);
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
        // per vertex: bucket slot + 4 BFS words + label
        let bound = 6 * 1000 + 4 * (40_000 / omega) + 40_000 / 1024 + 64;
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
        let edge_at = |i, l: &mut Ledger| mref.edge_at(l, i);
        let mut r = connectivity_general(&mut led, mref, &vertices, g.m(), &edge_at, 0.25, 3);
        r.reroot(&mut led, &edge_at);
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
        let (beta, seed) = (0.2, 8);
        let run = |mut led: Ledger| {
            let edge_at = csr_edge(&g);
            let mut r = connectivity_general(&mut led, &g, &vertices, g.m(), &edge_at, beta, seed);
            r.reroot(&mut led, &edge_at);
            (r, led.costs())
        };
        let (r, costs) = run(Ledger::new(16));
        let (r_seq, costs_seq) = run(Ledger::sequential(16));
        assert_eq!(costs, costs_seq);
        assert_eq!(r.labels, r_seq.labels);
        assert_eq!(r.parent, r_seq.parent);
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
        assert!(r1.lifted.is_empty());
        assert_eq!(r1.parent, vec![0, 1, 2]);
    }

    #[test]
    fn reroot_flips_each_word_at_most_once_on_many_parts() {
        // A large β shreds a path and a grid into many parts per component,
        // so every non-root part is re-rooted at its entry endpoint.
        for (g, beta) in [(path(10_000), 0.5), (grid(300, 300), 0.1)] {
            let run = |mut led: Ledger| {
                let mut r = connectivity_csr(&mut led, &g, beta, 3);
                let before = (r.parent.clone(), r.lifted.len() as u64, led.costs());
                r.reroot(&mut led, &csr_edge(&g));
                (r, before, led.costs())
            };
            let (r, (ldd_parent, lifted, c0), c1) = run(Ledger::new(16));
            let (r_seq, _, c1_seq) = run(Ledger::sequential(16));
            assert_eq!(r.parent, r_seq.parent);
            assert_eq!(c1, c1_seq);
            assert_eq!(r.num_components, 1);
            assert_eq!(lifted, r.num_parts as u64 - 1);
            assert!(r.num_parts > 100, "only {} parts", r.num_parts);
            check_forest(&g, &r);
            // Every written parent word changes, so the flipped words are
            // the charged ones beyond the part forest's bookkeeping; less
            // one hang per lifted edge, they are the reversed entry paths.
            let (n, parts) = (g.n() as u64, r.num_parts as u64);
            let flipped = ldd_parent
                .iter()
                .zip(&r.parent)
                .filter(|(a, b)| a != b)
                .count() as u64;
            assert_eq!(
                c1.asym_writes - c0.asym_writes,
                flipped + 2 * parts + 2 * lifted
            );
            assert!(
                flipped - lifted <= n - parts,
                "{} path flips > n - parts = {}",
                flipped - lifted,
                n - parts
            );
        }
    }

    #[test]
    fn one_part_reroot_charges_nothing() {
        let g = gnm(1000, 40_000, 7);
        let mut led = Ledger::new(64);
        let mut r = connectivity_csr(&mut led, &g, 1.0 / 64.0, 5);
        assert_eq!((r.num_parts, r.num_components), (1, 1));
        let (parent, costs, depth) = (r.parent.clone(), led.costs(), led.depth());
        r.reroot(&mut led, &csr_edge(&g));
        assert_eq!((led.costs(), led.depth()), (costs, depth));
        assert_eq!(r.parent, parent);
        check_forest(&g, &r);
    }

    #[test]
    fn roots_are_centers_of_first_parts() {
        // Each component is rooted at the center of its lowest-numbered
        // part, and the dense part ids follow the LDD's `centers` order.
        let g = disjoint_union(&[&path(40), &grid(6, 6), &cycle(9), &Csr::from_edges(2, &[])]);
        let (beta, seed) = (0.5, 2);
        let mut led = Ledger::new(8);
        let r = rooted(&mut led, &g, beta, seed);
        assert!(r.num_parts > r.num_components);
        check_forest(&g, &r);
        let all: Vec<Vertex> = (0..g.n() as u32).collect();
        let ldd = low_diameter_decomposition(&mut led, &g, &all, beta, seed);
        let mut want = vec![UNREACHED; r.num_components];
        for &c in &ldd.centers {
            let label = r.labels[c as usize] as usize;
            if want[label] == UNREACHED {
                want[label] = c;
            }
        }
        let mut got: Vec<Vertex> = all
            .iter()
            .copied()
            .filter(|&v| r.parent[v as usize] == v)
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn isolated_vertices_root_themselves() {
        let g = Csr::from_edges(4, &[(0, 1)]);
        let mut led = Ledger::new(8);
        let r = rooted(&mut led, &g, 0.5, 1);
        assert_eq!((r.parent[2], r.parent[3]), (2, 3));
        let (a, b) = (r.parent[0], r.parent[1]);
        assert!(
            (a, b) == (0, 0) || (a, b) == (1, 1),
            "edge (0,1) rooted as {a}, {b}"
        );
        check_forest(&g, &r);
    }

    #[test]
    fn rooted_forest_of_connectivity_output_is_consistent() {
        let g = disjoint_union(&[&grid(5, 5), &path(6), &gnm(30, 60, 2)]);
        let mut led = Ledger::new(8);
        let r = rooted(&mut led, &g, 0.2, 9);
        // walking up from any vertex reaches a root within its component
        for v in 0..g.n() as u32 {
            let mut cur = v;
            let mut steps = 0;
            while r.parent[cur as usize] != cur {
                cur = r.parent[cur as usize];
                steps += 1;
                assert!(steps <= g.n(), "cycle while walking up from {v}");
            }
            assert_eq!(r.labels[cur as usize], r.labels[v as usize]);
        }
    }
}
