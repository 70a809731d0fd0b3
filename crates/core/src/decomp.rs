//! The implicit k-decomposition object (Theorem 3.1): construction and
//! queries.

use crate::centers::{CenterLabel, CenterLookup, CenterSet};
use crate::cluster::{enumerate_cluster, Cluster};
use crate::detbfs::DetSearch;
use crate::rho::{rho, RhoAnswer};
use crate::secondary::{secondary_centers_overlay, secondary_centers_seq};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec_asym::Ledger;
use wec_graph::{GraphView, Priorities, Vertex};

/// Vertices per worker chunk in the center-less-component scan: each probe
/// is O(k) expected work, so a few hundred per task amortizes scheduling
/// while keeping the pass load-balanced.
const COMPONENT_SCAN_GRAIN: usize = 256;

/// Construction statistics (for the decomposition-scaling experiments).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Sampled primary centers.
    pub sampled_primaries: usize,
    /// Primaries added for large center-less components.
    pub component_primaries: usize,
    /// Secondary centers.
    pub secondaries: usize,
}

/// Options for [`ImplicitDecomposition::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildOpts {
    /// Use the parallel `SECONDARYCENTERS` variant (Lemma 3.7).
    pub parallel: bool,
}

/// An implicit k-decomposition: the oracle state is exactly the center set
/// (two bits per vertex id, `⌈n/32⌉` words) and the list of its `n_c`
/// centers in ascending order, plus borrowed read-only inputs.
pub struct ImplicitDecomposition<'a, G: GraphView> {
    g: &'a G,
    pri: &'a Priorities,
    k: usize,
    centers: CenterSet,
    /// Materialized center list in ascending order (`n_c` words), for
    /// algorithms that iterate over clusters-graph vertices.
    center_list: Vec<Vertex>,
    stats: BuildStats,
}

impl<'a, G: GraphView> ImplicitDecomposition<'a, G> {
    /// Algorithm 1: sample primaries with probability `1/k`, fix up
    /// center-less components, then plant secondary centers.
    ///
    /// `vertices` is the actual vertex list of `g` (for implicit views
    /// whose id space has holes). Charges O(kn) operations in expectation
    /// and `⌈g.n()/32⌉ + inserts + n_c` writes: the center set, one write
    /// per insert, and the center list. The parallel variant adds one write
    /// per secondary its overlays plant before the merge.
    pub fn build(
        led: &mut Ledger,
        g: &'a G,
        pri: &'a Priorities,
        vertices: &[Vertex],
        k: usize,
        seed: u64,
        opts: BuildOpts,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let mut centers = CenterSet::new(led, g.n());
        let mut stats = BuildStats {
            sampled_primaries: sample_primaries(led, vertices, k, seed, &mut centers),
            ..BuildStats::default()
        };
        // Unconnected extension: mark the minimum-priority vertex of every
        // center-less component of size ≥ k as primary; the few winners are
        // inserted after the scan.
        for v in component_minima(led, g, pri, vertices, k, &centers) {
            centers.insert(led, v, CenterLabel::Primary);
            stats.component_primaries += 1;
        }
        // Lines 3–4: SECONDARYCENTERS per primary.
        let primaries: Vec<Vertex> = centers
            .iter_uncharged()
            .filter(|&(_, l)| l == CenterLabel::Primary)
            .map(|(v, _)| v)
            .collect();
        led.read(primaries.len() as u64);
        if opts.parallel {
            // Lemma 3.7: distinct primaries plant their secondaries against
            // thread-local overlays of the shared base set — one heavy
            // O(k²)-ish task per primary, so the accounting grain is one
            // (cluster sizes vary; scoped_par forks several tasks per
            // worker, so work stealing rebalances the stragglers).
            let base = &centers;
            let locals: Vec<Vec<Vertex>> = led.scoped_par_map(primaries.len(), 1, &|i, scope| {
                secondary_centers_overlay(scope.ledger(), g, pri, base, primaries[i], k)
            });
            for local in locals {
                for u in local {
                    stats.secondaries += 1;
                    centers.insert(led, u, CenterLabel::Secondary);
                }
            }
        } else {
            for &p in &primaries {
                stats.secondaries += secondary_centers_seq(led, g, pri, &mut centers, p, k);
            }
        }
        let center_list = centers.to_vec(led);
        led.write(center_list.len() as u64);
        ImplicitDecomposition {
            g,
            pri,
            k,
            centers,
            center_list,
            stats,
        }
    }

    /// The cluster-size parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying graph view.
    pub fn graph(&self) -> &'a G {
        self.g
    }

    /// The vertex priorities in force.
    pub fn priorities(&self) -> &'a Priorities {
        self.pri
    }

    /// All stored centers, in ascending id order.
    pub fn centers(&self) -> &[Vertex] {
        &self.center_list
    }

    /// Number of stored centers.
    pub fn num_centers(&self) -> usize {
        self.center_list.len()
    }

    /// Construction statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Asymmetric-memory footprint of the oracle state, in words:
    /// `⌈n/32⌉ + n_c` for the center set and the center list.
    pub fn storage_words(&self) -> usize {
        self.centers.storage_words() + self.center_list.len()
    }

    /// `ρ(v)` — O(k) expected operations, no writes (Lemma 3.2).
    pub fn rho(&self, led: &mut Ledger, v: Vertex) -> RhoAnswer {
        rho(led, self.g, self.pri, &self.centers, v)
    }

    /// `C(s)` — O(k²) expected operations, no writes (Lemma 3.5). `s` must
    /// be a center (stored or implicit minimum).
    pub fn cluster(&self, led: &mut Ledger, s: Vertex) -> Cluster {
        enumerate_cluster(led, self.g, self.pri, &self.centers, s, usize::MAX)
    }

    /// Whether `v` is a stored center, with its label.
    pub fn center_label(&self, led: &mut Ledger, v: Vertex) -> Option<CenterLabel> {
        self.centers.lookup(led, v)
    }
}

/// Line 1: sample `S0`, each vertex a primary with probability `1/k`.
/// The coin flips stay on one sequential rng stream; the per-vertex unit op
/// is a known count, charged in bulk. Returns the number sampled.
fn sample_primaries(
    led: &mut Ledger,
    vertices: &[Vertex],
    k: usize,
    seed: u64,
    centers: &mut CenterSet,
) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdec0);
    led.op(vertices.len() as u64);
    let mut sampled = 0;
    for &v in vertices {
        if rng.gen_range(0..k) == 0 {
            centers.insert(led, v, CenterLabel::Primary);
            sampled += 1;
        }
    }
    sampled
}

/// The minimum-priority vertex of every component of size ≥ `k` that holds
/// no primary of `base`, in `vertices` order.
///
/// Every vertex probes the snapshot independently (the winner set does not
/// depend on probe order), so the searches run as one flat parallel pass
/// with per-worker ledger scopes. Only a component's minimum can win, so a
/// vertex with a higher-priority neighbour skips its search: the neighbour
/// test costs the adjacency prefix it scans plus one op for the compare.
fn component_minima<G: GraphView>(
    led: &mut Ledger,
    g: &G,
    pri: &Priorities,
    vertices: &[Vertex],
    k: usize,
    base: &CenterSet,
) -> Vec<Vertex> {
    let winners: Vec<Vec<Vertex>> =
        led.scoped_par(vertices.len(), COMPONENT_SCAN_GRAIN, &|range, scope| {
            let l = scope.ledger();
            let mut found_mins = Vec::new();
            for &v in &vertices[range] {
                l.op(1);
                let rv = pri.rank(v);
                if g.find_neighbor(l, v, &mut |w| pri.rank(w) < rv).is_some() {
                    continue;
                }
                let mut s = DetSearch::new(l, g, pri, v);
                let found = s
                    .advance_until(l, |l, u| base.lookup(l, u) == Some(CenterLabel::Primary))
                    .is_some();
                if !found && s.visited() >= k && s.min_priority_visited(l) == v {
                    found_mins.push(v);
                }
                s.release(l);
            }
            found_mins
        });
    winners.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_asym::FxHashMap;
    use wec_graph::gen::{
        bounded_degree_connected, caterpillar, disjoint_union, grid, path, random_regular, torus,
    };
    use wec_graph::{props, Csr};

    /// Full validation of Theorem 3.1's structural guarantees on a CSR
    /// graph: partition, size ≤ k, connected clusters, spanning-tree
    /// property of parent hops.
    fn validate(g: &Csr, d: &ImplicitDecomposition<Csr>, k: usize) {
        let mut led = Ledger::new(8);
        let n = g.n();
        let mut clusters: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
        for v in 0..n as u32 {
            let a = d.rho(&mut led, v);
            clusters.entry(a.center.vertex()).or_default().push(v);
            // parent hop is a real edge (or self)
            if a.dist > 0 {
                assert!(g.neighbors(v).contains(&a.parent_hop));
            } else {
                assert_eq!(a.parent_hop, v);
                assert_eq!(a.center.vertex(), v);
            }
        }
        let total: usize = clusters.values().map(|c| c.len()).sum();
        assert_eq!(total, n, "every vertex in exactly one cluster");
        for (&c, members) in &clusters {
            assert!(
                members.len() <= k,
                "cluster {c} has {} > k={k}",
                members.len()
            );
            assert!(
                props::induced_connected(g, members),
                "cluster {c} not connected"
            );
            assert!(
                members.contains(&c),
                "center {c} must live in its own cluster"
            );
        }
        // cluster() enumeration agrees with rho()-grouping
        for (&c, members) in &clusters {
            let enumerated = d.cluster(&mut led, c);
            let mut a = enumerated.members.clone();
            let mut b = members.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "cluster({c}) enumeration mismatch");
        }
    }

    /// The center-less-component scan without the neighbour prefilter or
    /// the early stop: one level-at-a-time search from every vertex.
    fn unfiltered_minima(
        g: &Csr,
        pri: &Priorities,
        vertices: &[Vertex],
        k: usize,
        base: &CenterSet,
    ) -> Vec<Vertex> {
        let mut led = Ledger::sequential(8);
        let l = &mut led;
        let mut out = Vec::new();
        for &v in vertices {
            let mut s = DetSearch::new(l, g, pri, v);
            let found = loop {
                let hit = s
                    .frontier()
                    .iter()
                    .any(|&u| base.lookup(l, u) == Some(CenterLabel::Primary));
                if hit || !s.advance(l) {
                    break hit;
                }
            };
            if !found && s.visited() >= k && s.min_priority_visited(l) == v {
                out.push(v);
            }
            s.release(l);
        }
        out
    }

    #[test]
    fn prefilter_keeps_the_component_winners() {
        let k = 8;
        // Components below k (paths of 3 and 5) and above it.
        let g = disjoint_union(&[
            &grid(6, 6),
            &path(3),
            &path(12),
            &caterpillar(5, 2),
            &path(5),
            &path(10),
            &bounded_degree_connected(200, 4, 50, 2),
            &path(9),
        ]);
        let n = g.n();
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut winners = 0;
        for seed in 0..6u64 {
            let pri = Priorities::random(n, seed);
            let mut s0_led = Ledger::sequential(8);
            let mut s0 = CenterSet::new(&mut s0_led, n);
            sample_primaries(&mut s0_led, &verts, k, seed, &mut s0);
            let want = unfiltered_minima(&g, &pri, &verts, k, &s0);
            winners += want.len();
            let mut center_sets = [Vec::new(), Vec::new()];
            for mut led in [Ledger::new(8), Ledger::sequential(8)] {
                let got = component_minima(&mut led, &g, &pri, &verts, k, &s0);
                assert_eq!(got, want, "seed {seed}");
                for parallel in [false, true] {
                    let d = ImplicitDecomposition::build(
                        &mut led,
                        &g,
                        &pri,
                        &verts,
                        k,
                        seed,
                        BuildOpts { parallel },
                    );
                    let primaries: Vec<Vertex> = d
                        .centers
                        .iter_uncharged()
                        .filter(|&(_, l)| l == CenterLabel::Primary)
                        .map(|(v, _)| v)
                        .collect();
                    let mut expect: Vec<Vertex> = s0
                        .iter_uncharged()
                        .map(|(v, _)| v)
                        .chain(want.clone())
                        .collect();
                    expect.sort_unstable();
                    assert_eq!(primaries, expect, "seed {seed}, parallel {parallel}");
                    assert_eq!(d.stats().component_primaries, want.len());
                    center_sets[parallel as usize].push(d.centers().to_vec());
                }
            }
            // Secondaries included, each variant plants one set under both
            // ledgers. The variants differ from each other by design: the
            // parallel one also marks each call root's cluster-tree children.
            for (parallel, sets) in center_sets.iter().enumerate() {
                assert_eq!(sets[0], sets[1], "seed {seed}, parallel {parallel}");
            }
        }
        assert!(winners > 0, "no seed left a large component center-less");
    }

    #[test]
    fn build_writes_follow_the_exact_formula() {
        let g = disjoint_union(&[
            &bounded_degree_connected(700, 4, 200, 3),
            &grid(9, 9),
            &path(5),
        ]);
        let n = g.n();
        let pri = Priorities::random(n, 3);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        for parallel in [false, true] {
            for mut led in [Ledger::new(8), Ledger::sequential(8)] {
                let d = ImplicitDecomposition::build(
                    &mut led,
                    &g,
                    &pri,
                    &verts,
                    6,
                    7,
                    BuildOpts { parallel },
                );
                let s = d.stats();
                let nc = d.num_centers();
                let inserted = s.sampled_primaries + s.component_primaries + s.secondaries;
                assert_eq!(inserted, nc, "each center is inserted once");
                // The parallel overlays write each secondary once more
                // before the merge inserts it.
                let overlay = if parallel { s.secondaries } else { 0 };
                let words = n.div_ceil(32);
                assert_eq!(
                    led.costs().asym_writes as usize,
                    words + inserted + overlay + nc,
                    "parallel {parallel}"
                );
                assert_eq!(d.storage_words(), words + nc);
            }
        }
    }

    #[test]
    fn grid_decomposition_valid() {
        let g = grid(12, 12);
        let pri = Priorities::random(144, 5);
        let mut led = Ledger::new(8);
        let verts: Vec<Vertex> = (0..144).collect();
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, 6, 42, BuildOpts::default());
        validate(&g, &d, 6);
    }

    #[test]
    fn regular_graph_decomposition_valid_multiple_seeds() {
        for seed in 0..4u64 {
            let g = random_regular(150, 4, seed);
            let pri = Priorities::random(150, seed);
            let mut led = Ledger::new(8);
            let verts: Vec<Vertex> = (0..150).collect();
            let d = ImplicitDecomposition::build(
                &mut led,
                &g,
                &pri,
                &verts,
                5,
                seed,
                BuildOpts::default(),
            );
            validate(&g, &d, 5);
        }
    }

    #[test]
    fn parallel_build_also_valid() {
        let g = torus(10, 10);
        let pri = Priorities::random(100, 7);
        let mut led = Ledger::new(8);
        let verts: Vec<Vertex> = (0..100).collect();
        let d = ImplicitDecomposition::build(
            &mut led,
            &g,
            &pri,
            &verts,
            5,
            3,
            BuildOpts { parallel: true },
        );
        validate(&g, &d, 5);
    }

    #[test]
    fn disconnected_components_are_covered() {
        let g = disjoint_union(&[&grid(6, 6), &path(3), &caterpillar(5, 2)]);
        let n = g.n();
        let pri = Priorities::random(n, 2);
        let mut led = Ledger::new(8);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let d = ImplicitDecomposition::build(
            &mut led,
            &g,
            &pri,
            &verts,
            4,
            2, // seed chosen arbitrarily; component pass must fix gaps
            BuildOpts::default(),
        );
        validate(&g, &d, 4);
    }

    #[test]
    fn center_count_is_order_n_over_k() {
        let n = 1000;
        let k = 10;
        let g = bounded_degree_connected(n, 4, 300, 8);
        let pri = Priorities::random(n, 8);
        let mut led = Ledger::new(8);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, k, 1, BuildOpts::default());
        let c = d.num_centers();
        assert!(c >= n / (4 * k), "too few centers: {c}");
        assert!(c <= 8 * n / k, "too many centers: {c} (n/k = {})", n / k);
        assert!(
            d.storage_words() <= 64 * n / k,
            "storage {} words",
            d.storage_words()
        );
    }

    #[test]
    fn construction_write_bound() {
        let n = 800;
        let k = 8;
        let g = bounded_degree_connected(n, 4, 200, 4);
        let pri = Priorities::random(n, 4);
        let mut led = Ledger::new(16);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, k, 9, BuildOpts::default());
        let writes = led.costs().asym_writes;
        // writes ~ O(n/k) plus the center set's n/32 words
        assert!(
            writes <= 40 * (n as u64) / (k as u64) + 100,
            "construction writes {writes} not O(n/k)"
        );
        // and ops ~ O(kn)
        let ops = led.costs().operations();
        assert!(
            ops <= 600 * (k as u64) * (n as u64),
            "construction ops {ops} not O(kn)"
        );
        let _ = d;
    }

    #[test]
    fn rho_query_cost_scales_with_k() {
        let n = 600;
        let g = bounded_degree_connected(n, 4, 150, 6);
        let pri = Priorities::random(n, 6);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut avg_ops = Vec::new();
        for &k in &[4usize, 16] {
            let mut led = Ledger::new(8);
            let d = ImplicitDecomposition::build(
                &mut led,
                &g,
                &pri,
                &verts,
                k,
                5,
                BuildOpts::default(),
            );
            let before = led.costs();
            for v in 0..n as u32 {
                let _ = d.rho(&mut led, v);
            }
            let ops = led.costs().since(&before).operations() as f64 / n as f64;
            avg_ops.push(ops);
        }
        // 4x larger k should cost noticeably more per query (roughly linear)
        assert!(
            avg_ops[1] > 1.5 * avg_ops[0],
            "expected query cost to grow with k: {avg_ops:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(8, 8);
        let pri = Priorities::random(64, 1);
        let verts: Vec<Vertex> = (0..64).collect();
        let build = |seed| {
            let mut led = Ledger::sequential(8);
            let d = ImplicitDecomposition::build(
                &mut led,
                &g,
                &pri,
                &verts,
                4,
                seed,
                BuildOpts::default(),
            );
            let mut c = d.centers().to_vec();
            c.sort_unstable();
            c
        };
        assert_eq!(build(3), build(3));
        assert_ne!(build(3), build(4));
    }

    #[test]
    fn k_one_makes_every_vertex_a_center() {
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let verts: Vec<Vertex> = (0..10).collect();
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, 1, 0, BuildOpts::default());
        assert_eq!(d.num_centers(), 10);
        validate(&g, &d, 1);
    }

    #[test]
    fn k_larger_than_n_single_cluster_per_component() {
        let g = path(6);
        let pri = Priorities::identity(6);
        let mut led = Ledger::new(8);
        let verts: Vec<Vertex> = (0..6).collect();
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, 64, 11, BuildOpts::default());
        // with k > n, sampling may pick nobody; component pass only fires
        // for components ≥ k; queries still resolve via implicit minimum.
        validate(&g, &d, 64);
    }
}
