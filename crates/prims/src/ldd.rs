//! Miller–Peng–Xu low-diameter decomposition (paper §4.1 / Appendix C).
//!
//! Each vertex draws an exponential shift `δ_v ~ Exp(β)`; on iteration `i`,
//! BFS's start from still-unexplored vertices with `δ_v ∈ [i, i+1)`, and all
//! live frontiers advance one level. Vertices claimed by the same source
//! form one part, and a part is named by its center's vertex id (as in
//! parlaylib's `ldd_connectivity` and ConnectIt), so no per-vertex label is
//! written. Properties (Theorem 4.1, verified statistically in
//! tests/benches):
//!
//! * parts have (strong) diameter `O(log n / β)` whp;
//! * at most `βm` edges cross parts in expectation;
//! * O(n) writes — exactly `|vertices|` bucket slots, 4 per vertex the
//!   write-efficient BFS claims top-down or as a source, 3 per vertex it
//!   claims bottom-up, and one dense id per center:
//!   `|V| + 4·(visited − bottom_up_claims) + 3·bottom_up_claims + parts` —
//!   and O(m + ωn) work.
//!
//! The BFS is direction-optimizing (see [`crate::bfs`]): a round goes
//! bottom-up iff `|V| + n_u + 2·m_u < |F| + 2·m_f`, i.e. iff the worst case
//! of a scan of the unvisited vertices reads less than the frontier's arcs
//! would. On a dense graph the covering rounds, whose arcs mostly point at
//! visited vertices, go bottom-up.
//!
//! The graph is any [`GraphView`]; the caller supplies the actual vertex
//! list (for views whose id space has holes, pass the real vertices). The
//! BFS's bottom-up rounds scan only that list, so holes are never claimed.

use crate::bfs::{bfs_with_injection, BfsResult, Injection, UNREACHED};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec_asym::Ledger;
use wec_graph::{GraphView, Vertex};

/// Result of the decomposition.
#[derive(Debug, Clone)]
pub struct LddResult {
    /// Underlying multi-source BFS: `source_of[v]` is the center whose part
    /// owns `v`, which names the part; `parent` is a spanning tree of each
    /// part rooted at its center.
    pub bfs: BfsResult,
    /// Center vertex of each part, indexed by dense part id.
    pub centers: Vec<Vertex>,
    /// Center → dense part id: `center_id[c]` is `c`'s index in `centers`.
    /// Written only at the centers; every other slot holds [`UNREACHED`].
    pub center_id: Vec<u32>,
}

impl LddResult {
    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.centers.len()
    }

    /// Dense part id of `v` (`u32::MAX` for vertices outside `vertices`).
    /// Uncharged: for tests, stats bins and baselines; a charged caller
    /// reads `bfs.source_of` and `center_id` itself.
    pub fn part(&self, v: Vertex) -> u32 {
        match self.bfs.source_of[v as usize] {
            UNREACHED => UNREACHED,
            s => self.center_id[s as usize],
        }
    }
}

/// Run the decomposition with parameter `0 < beta ≤ 1` over `vertices`.
pub fn low_diameter_decomposition(
    led: &mut Ledger,
    g: &impl GraphView,
    vertices: &[Vertex],
    beta: f64,
    seed: u64,
) -> LddResult {
    assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c6464);
    // δ_v ~ Exp(beta) by inverse transform. Vertex v's BFS starts at time
    // δ_max − δ_v (LARGEST shift first): memorylessness at the top of the
    // exponential race is what bounds the cut probability of each edge by
    // 1 − e^{-β} ≤ β. (Starting smallest-first would make boundary gaps
    // order-statistic-sized, ~1/(nβ), and shred the graph.)
    let deltas: Vec<f64> = vertices
        .iter()
        .map(|_| -(1.0 - rng.gen::<f64>()).ln() / beta)
        .collect();
    let delta_max = deltas.iter().cloned().fold(0.0f64, f64::max);
    // Bucketing is a known-count pass: 2 ops (draw + bucket index) and one
    // bucket-slot write per vertex, charged in bulk (the shift draws
    // themselves must stay on the sequential rng stream).
    led.op(2 * vertices.len() as u64);
    led.write(vertices.len() as u64);
    let mut buckets: Vec<Vec<Vertex>> = Vec::new();
    for (&v, &d) in vertices.iter().zip(&deltas) {
        let b = (delta_max - d) as usize;
        if b >= buckets.len() {
            buckets.resize(b + 1, Vec::new());
        }
        buckets[b].push(v);
    }
    let last_bucket = buckets.len();
    let mut bucket_iter = buckets.into_iter();
    let bfs = bfs_with_injection(led, g, vertices, &mut |round, _| {
        let sources = bucket_iter.next().unwrap_or_default();
        Injection {
            sources,
            done: round + 1 >= last_bucket,
        }
    });
    // Dense ids for the centers that actually started, written only at the
    // centers. A center is a vertex that claimed itself as its own BFS root.
    let mut center_id = vec![UNREACHED; g.n()];
    let mut centers = Vec::new();
    led.read(vertices.len() as u64);
    for &v in vertices {
        if bfs.parent[v as usize] == v {
            center_id[v as usize] = centers.len() as u32;
            centers.push(v);
        }
    }
    led.write(centers.len() as u64);
    LddResult {
        bfs,
        centers,
        center_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_graph::gen::{gnm, grid, random_regular};
    use wec_graph::props;
    use wec_graph::Csr;

    fn all_vertices(g: &Csr) -> Vec<Vertex> {
        (0..g.n() as u32).collect()
    }

    fn check_partition(g: &Csr, r: &LddResult) {
        // every vertex assigned, every part connected, centers consistent
        assert!((0..g.n() as u32).all(|v| r.part(v) != u32::MAX));
        for (pid, &c) in r.centers.iter().enumerate() {
            assert_eq!(r.part(c), pid as u32);
            assert_eq!(r.bfs.source_of[c as usize], c);
        }
        for pid in 0..r.num_parts() {
            let members: Vec<Vertex> = (0..g.n() as u32)
                .filter(|&v| r.part(v) == pid as u32)
                .collect();
            assert!(
                props::induced_connected(g, &members),
                "part {pid} disconnected"
            );
        }
    }

    #[test]
    fn partitions_grid_validly() {
        let g = grid(20, 20);
        let mut led = Ledger::new(8);
        let r = low_diameter_decomposition(&mut led, &g, &all_vertices(&g), 0.2, 1);
        check_partition(&g, &r);
        assert!(r.num_parts() >= 2, "β=0.2 on 400 vertices should split");
    }

    #[test]
    fn cut_edges_bounded_by_beta_m() {
        // Average over seeds: expected cut fraction ≤ β.
        let g = random_regular(600, 6, 3);
        let m = g.m() as f64;
        for beta in [0.1, 0.3] {
            let mut total_cut = 0usize;
            let seeds = 8;
            for seed in 0..seeds {
                let mut led = Ledger::new(8);
                let r = low_diameter_decomposition(&mut led, &g, &all_vertices(&g), beta, seed);
                check_partition(&g, &r);
                total_cut += g
                    .edges()
                    .iter()
                    .filter(|&&(u, v)| r.part(u) != r.part(v))
                    .count();
            }
            let avg = total_cut as f64 / seeds as f64;
            assert!(
                avg <= 2.0 * beta * m + 10.0,
                "β={beta}: avg cut {avg} should be ≲ βm = {}",
                beta * m
            );
        }
    }

    #[test]
    fn radius_bounded_by_log_over_beta() {
        let g = gnm(2000, 6000, 7);
        let beta = 0.1;
        let mut led = Ledger::new(8);
        let r = low_diameter_decomposition(&mut led, &g, &all_vertices(&g), beta, 5);
        // every vertex is reached, so each has a parent chain to its center
        let radius = (0..g.n() as u32).map(|v| r.bfs.depth(v)).max().unwrap();
        let bound = (4.0 * (g.n() as f64).ln() / beta) as u32;
        assert!(radius <= bound, "radius {radius} > bound {bound}");
    }

    #[test]
    fn beta_one_fragments_heavily() {
        let g = grid(15, 15);
        let mut led = Ledger::new(8);
        let r = low_diameter_decomposition(&mut led, &g, &all_vertices(&g), 1.0, 2);
        check_partition(&g, &r);
        assert!(r.num_parts() > 20, "β=1 should shatter the grid");
    }

    #[test]
    fn writes_linear_in_n_not_m() {
        let g = gnm(1000, 20_000, 11);
        let mut led = Ledger::new(16);
        let r = low_diameter_decomposition(&mut led, &g, &all_vertices(&g), 0.125, 3);
        // bucket slots + 4 per top-down or injected BFS winner + 3 per
        // bottom-up winner + one dense id per center: nothing proportional
        // to m = 20k
        let bottom_up = r.bfs.bottom_up_claims;
        let expected = 1000 + 4 * (r.bfs.visited - bottom_up) + 3 * bottom_up + r.num_parts();
        assert_eq!(r.bfs.visited, 1000);
        assert!(bottom_up > 0, "the covering rounds go bottom-up");
        assert_eq!(led.costs().asym_writes, expected as u64);
    }

    #[test]
    fn disconnected_graph_gets_all_parts() {
        let g = wec_graph::gen::disjoint_union(&[&grid(5, 5), &grid(4, 4)]);
        let mut led = Ledger::new(8);
        let r = low_diameter_decomposition(&mut led, &g, &all_vertices(&g), 0.3, 9);
        check_partition(&g, &r);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = grid(10, 10);
        let run = |seed| {
            let mut led = Ledger::sequential(8);
            low_diameter_decomposition(&mut led, &g, &all_vertices(&g), 0.2, seed)
                .bfs
                .source_of
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }
}
