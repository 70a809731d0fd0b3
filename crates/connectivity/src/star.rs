//! Sample-and-skip star connectivity — the fused fast path.
//!
//! ConnectIt (Dhulipala, Hong & Shun) observes that on non-sparse graphs a
//! tiny sample of the edges already connects almost everything: hook every
//! vertex to a couple of its neighbors, find the largest sampled component
//! `L`, and only the edges of vertices *outside* `L` are left to resolve.
//! This module is that pipeline on the charged substrate, finished with the
//! parlaylib exemplar's randomized **star contraction**, with its passes
//! fused through [`wec_prims::flat_collect`]:
//!
//! 1. **sample** — each vertex unions itself with its first 2 CSR
//!    neighbors (`SAMPLE_K`) through a charged union-find (smaller
//!    root wins, full path compression), then every vertex is compressed
//!    onto its root so one read resolves its sampled component;
//! 2. **largest component** — `L` is the most frequent root among at most
//!    1,024 vertices (`MAX_PROBES`) probed at a fixed stride (reads only);
//! 3. **finish** — one fused `flat_collect` pass over the vertices: a
//!    vertex in `L` costs one label read, a vertex outside `L` reads its
//!    adjacency and emits only the root pairs that cross sampled
//!    components, so only those pairs are written. An edge between `L`
//!    and the rest is seen from its outside end, an edge between two
//!    outside vertices from its lower end, so each crossing edge is
//!    written at most once;
//! 4. **contraction** — star-contraction rounds on the root multigraph:
//!    each root flips a deterministic coin (hashed from `(seed, round,
//!    root)`); every tails-root with a heads neighbor links to its
//!    **minimum** heads neighbor, then the pair list is relabeled and
//!    self-loops drop out through another fused pass. Each root links at
//!    most once ever, so link writes are bounded by the sampled component
//!    count.
//!
//! Every step is deterministic and charged in a fixed order, so labels,
//! `Costs` and depth are identical across thread counts. When the sample
//! covers the graph (dense inputs: `gnm(250k, 4M)` lands entirely in `L`)
//! the finish writes nothing and no contraction round runs; the build then
//! writes exactly `n` (union-find init) + links + compress rewrites + `n`
//! (labels) + one dense id per component. Many-component inputs, and
//! inputs where each endpoint's first two neighbors miss a link, leave
//! vertices outside `L`, and the finish and contraction do the work.
//!
//! Compared to the paper-faithful §4.2 build (which keeps its low-diameter
//! decomposition) this never materializes a spanning forest, so its build
//! writes sit strictly below §4.2's. The price is losing the forest
//! output: [`StarOracle`] answers component queries only, which is exactly
//! the serving stack's contract (its `component`/`connected` mirror
//! [`ConnectivityOracle`](crate::ConnectivityOracle)'s, so it drops into
//! `wec-serve`'s sharded front end unchanged). Prefer the star path
//! when only component labels are needed and writes are at a premium;
//! prefer §4.2 when the spanning forest matters (biconnectivity needs it).

use crate::oracle::ComponentId;
use wec_asym::{stable_combine, FxHashMap, Ledger};
use wec_graph::{Csr, Vertex};
use wec_prims::flat_collect;

/// Edges each vertex contributes to the sample: its first `SAMPLE_K`
/// neighbors in CSR (ascending id) order.
const SAMPLE_K: usize = 2;

/// Most vertices probed when picking the largest sampled component.
const MAX_PROBES: usize = 1024;

/// Safety cap on contraction rounds; if the coin flips are pathological
/// enough to exhaust it (never observed — expected rounds are
/// `O(log parts)`), the remaining edges fall back to a sequential
/// link-and-compress sweep so the result is always exact.
const MAX_ROUNDS: usize = 64;

/// Component labeling produced by the star fast path. Owns its (dense)
/// per-vertex labels — there is no decomposition to keep alive, so the
/// struct borrows nothing.
#[derive(Debug, Clone)]
pub struct StarOracle {
    /// Dense component label per vertex id.
    labels: Vec<u32>,
    num_components: usize,
    num_parts: usize,
    rounds: usize,
}

impl StarOracle {
    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Number of sampled components — the roots contraction started from
    /// (diagnostics).
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Star-contraction rounds used (diagnostics).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Dense labels, indexed by vertex id (tests / diagnostics).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The serving view: the oracle itself, borrowed — same shape as
    /// [`ConnectivityOracle::query_handle`](crate::ConnectivityOracle::query_handle).
    pub fn query_handle(&self) -> StarQueryHandle<'_> {
        self
    }

    /// Component of `v`: one charged label read, **no writes**.
    pub fn component(&self, led: &mut Ledger, v: Vertex) -> ComponentId {
        led.read(1);
        ComponentId::Labeled(self.labels[v as usize])
    }

    /// Whether `u` and `v` are connected.
    pub fn connected(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> bool {
        self.component(led, u) == self.component(led, v)
    }
}

/// The serving view of a [`StarOracle`]: a shared borrow, `Copy` and one
/// word wide. Queries are read-only — one charged label read per vertex,
/// no `ρ` re-derivation (the labels are dense).
pub type StarQueryHandle<'o> = &'o StarOracle;

/// Deterministic coin for `(seed, round, node)`: `true` = heads. Pure
/// compute from the pinned stable hash, so contraction is reproducible
/// across runs, platforms, and thread counts.
#[inline]
fn heads(seed: u64, round: usize, node: u32) -> bool {
    stable_combine(seed, ((round as u64) << 32) ^ node as u64) & 1 == 1
}

/// Star connectivity on a CSR graph.
///
/// `_beta` is ignored: the build samples instead of decomposing, so there
/// is no LDD parameter to set. It stays in the signature for existing
/// callers. `seed` drives the contraction coins.
pub fn star_connectivity(led: &mut Ledger, g: &Csr, _beta: f64, seed: u64) -> StarOracle {
    build(led, g, seed, MAX_ROUNDS)
}

/// The star build with at most `max_rounds` contraction rounds before the
/// fallback sweep.
fn build(led: &mut Ledger, g: &Csr, seed: u64, max_rounds: usize) -> StarOracle {
    let n = g.n();
    if n == 0 {
        return StarOracle {
            labels: Vec::new(),
            num_components: 0,
            num_parts: 0,
            rounds: 0,
        };
    }

    let (mut p, num_parts) = sample(led, g);
    let big = largest_root(led, &p);
    let mut edges = cross_pairs(led, g, &p, big);

    // Star contraction on the root multigraph. `p` keeps serving as the
    // parent pointer: roots are self-parented, and a root links at most
    // once ever (once linked it is relabeled out of the pair list), so
    // link writes ≤ num_parts total.
    let mut rounds = 0usize;
    while !edges.is_empty() && rounds < max_rounds {
        // Link pass: tails hook onto their minimum heads neighbor. Charges:
        // two coin evaluations + the min-merge op per edge (endpoints are
        // already in hand from the fused relabel pass), one write per root
        // that actually links.
        led.op(3 * edges.len() as u64);
        let mut linked = 0u64;
        for &(u, v) in &edges {
            let (hu, hv) = (heads(seed, rounds, u), heads(seed, rounds, v));
            if !hu && hv {
                link_min(&mut p, u, v, &mut linked);
            }
            if !hv && hu {
                link_min(&mut p, v, u, &mut linked);
            }
        }
        led.write(linked);

        // Relabel + drop self-loops, fused: tails just linked directly to
        // heads (which stayed roots this round), so a single jump through
        // `p` lands every endpoint on a live root.
        let prev = std::mem::take(&mut edges);
        let prev_ref = &prev;
        let p_ref = &p;
        edges = flat_collect(led, prev_ref.len(), |i, l| {
            l.read(2);
            let (u, v) = prev_ref[i];
            let (ru, rv) = (p_ref[u as usize], p_ref[v as usize]);
            (ru != rv).then_some((ru, rv))
        });
        rounds += 1;
    }

    // Fallback sweep (exactness guarantee if max_rounds ran out): link the
    // remaining edges' roots sequentially, smaller root wins.
    if !edges.is_empty() {
        led.read(2 * edges.len() as u64);
        for &(u, v) in &edges {
            let (ru, rv) = (root_compress(led, &mut p, u), root_compress(led, &mut p, v));
            if ru != rv {
                p[ru.max(rv) as usize] = ru.min(rv);
                led.write(1);
            }
        }
    }

    // Dense relabel: every vertex already points at its sampled root, so
    // compressing from that root rewrites only roots that contraction
    // linked (each at most once); the surviving roots become dense
    // component labels, one write each, and every vertex gets its label —
    // the same O(n) labeling tier §4.2 pays.
    let mut dense: FxHashMap<u32, u32> = FxHashMap::default();
    let mut labels = vec![0u32; n];
    led.read(n as u64);
    for (v, label) in labels.iter_mut().enumerate() {
        let sampled_root = p[v];
        let r = root_compress(led, &mut p, sampled_root);
        let next = dense.len() as u32;
        *label = *dense.entry(r).or_insert_with(|| {
            led.write(1);
            next
        });
    }
    led.op(n as u64);
    led.write(n as u64);

    StarOracle {
        labels,
        num_components: dense.len(),
        num_parts,
        rounds,
    }
}

/// Step 1: the 2-out sample. Each vertex unions itself with its first
/// [`SAMPLE_K`] neighbors (smaller root wins), then a compress pass points
/// every vertex straight at its root. Charges `n` init writes, one write
/// per successful link and one per pointer a compression rewrites; reads
/// are one offset plus up to `SAMPLE_K` neighbors per vertex, plus the
/// find hops. Returns the parent array and the sampled component count.
fn sample(led: &mut Ledger, g: &Csr) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut p: Vec<u32> = (0..n as u32).collect();
    led.write(n as u64);
    let mut links = 0u64;
    for v in 0..n as u32 {
        let nbrs = g.neighbors(v);
        let picked = &nbrs[..nbrs.len().min(SAMPLE_K)];
        led.read(1 + picked.len() as u64);
        led.op(picked.len() as u64);
        if picked.is_empty() {
            continue;
        }
        let mut rv = root_compress(led, &mut p, v);
        for &w in picked {
            let rw = root_compress(led, &mut p, w);
            if rv != rw {
                let (lo, hi) = (rv.min(rw), rv.max(rw));
                p[hi as usize] = lo;
                links += 1;
                rv = lo;
            }
        }
    }
    led.write(links);
    let mut roots = 0usize;
    for v in 0..n as u32 {
        if root_compress(led, &mut p, v) == v {
            roots += 1;
        }
    }
    (p, roots)
}

/// Step 2: the root of the largest sampled component, estimated as the
/// most frequent root among at most [`MAX_PROBES`] vertices at a fixed
/// stride (ties go to the smaller root). `p` is fully compressed, so each
/// probe is one read and nothing is written.
fn largest_root(led: &mut Ledger, p: &[u32]) -> u32 {
    let stride = p.len().div_ceil(MAX_PROBES);
    let mut tally: FxHashMap<u32, u32> = FxHashMap::default();
    let mut probes = 0u64;
    for &r in p.iter().step_by(stride) {
        *tally.entry(r).or_default() += 1;
        probes += 1;
    }
    led.read(probes);
    tally
        .into_iter()
        .max_by_key(|&(r, c)| (c, std::cmp::Reverse(r)))
        .map_or(0, |(r, _)| r)
}

/// Step 3 (fused): the root pairs of the edges that cross sampled
/// components, skipping everything inside `big`. A vertex in `big` costs
/// one label read; any other vertex reads its offset, its neighbors and
/// their labels. Writes only the emitted pairs.
fn cross_pairs(led: &mut Ledger, g: &Csr, p: &[u32], big: u32) -> Vec<(u32, u32)> {
    flat_collect(led, g.n(), |i, l| {
        l.read(1);
        let (v, rv) = (i as u32, p[i]);
        let nbrs: &[Vertex] = if rv == big {
            &[]
        } else {
            let nbrs = g.neighbors(v);
            l.read(1 + 2 * nbrs.len() as u64);
            nbrs
        };
        nbrs.iter().filter_map(move |&w| {
            let rw = p[w as usize];
            (rw != rv && (rw == big || v < w)).then_some((rv, rw))
        })
    })
}

/// Hook tail `t` onto head `h`, keeping the minimum head if `t` already
/// linked this round. Counts the first link (the only real write; later
/// min-merges overwrite a value still in symmetric memory this round).
#[inline]
fn link_min(p: &mut [u32], t: u32, h: u32, linked: &mut u64) {
    let cur = p[t as usize];
    if cur == t {
        p[t as usize] = h;
        *linked += 1;
    } else if h < cur {
        p[t as usize] = h;
    }
}

/// Root of `v` with full path compression, charging one read per hop and
/// one write per pointer actually rewritten.
fn root_compress(led: &mut Ledger, p: &mut [u32], v: u32) -> u32 {
    let mut r = v;
    let mut hops = 0u64;
    while p[r as usize] != r {
        r = p[r as usize];
        hops += 1;
    }
    led.read(hops + 1);
    let mut cur = v;
    let mut rewrites = 0u64;
    while p[cur as usize] != r {
        let next = p[cur as usize];
        p[cur as usize] = r;
        cur = next;
        rewrites += 1;
    }
    led.write(rewrites);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::connectivity_csr;
    use wec_baseline::unionfind::{same_partition, uf_labels};
    use wec_graph::gen::{complete, disjoint_union, gnm, grid, path, random_regular, star, torus};

    /// Builds `g` under the parallel and the sequential ledger, asserts the
    /// two agree on labels, `Costs` and depth and that the labels match
    /// union-find ground truth, and returns the oracle.
    fn checked_build(g: &Csr) -> StarOracle {
        checked(g, &|led| star_connectivity(led, g, 1.0 / 16.0, 3))
    }

    /// [`checked_build`] over any build of `g`.
    fn checked(g: &Csr, build: &dyn Fn(&mut Ledger) -> StarOracle) -> StarOracle {
        let run = |mut led: Ledger| {
            let o = build(&mut led);
            (o, led.costs(), led.depth())
        };
        let (par, par_costs, par_depth) = run(Ledger::new(16));
        let (seq, seq_costs, seq_depth) = run(Ledger::sequential(16));
        assert_eq!(
            par.labels(),
            seq.labels(),
            "labels differ across parallelism"
        );
        assert_eq!(par_costs, seq_costs, "costs differ across parallelism");
        assert_eq!(par_depth, seq_depth, "depth differs across parallelism");
        let mut truth = uf_labels(g);
        assert!(same_partition(par.labels(), &truth));
        truth.sort_unstable();
        truth.dedup();
        assert_eq!(par.num_components(), truth.len());
        par
    }

    /// Two interleaved `k`-cliques (even ids, odd ids) joined only by the
    /// edge between their highest-id vertices. Each endpoint's first two
    /// neighbors are lower ids of its own clique, so the sample misses the
    /// join and leaves two components for the finish.
    fn two_cliques(k: usize) -> Csr {
        let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
        for &(u, v) in complete(k).edges() {
            edges.push((2 * u, 2 * v));
            edges.push((2 * u + 1, 2 * v + 1));
        }
        edges.push((2 * k as u32 - 2, 2 * k as u32 - 1));
        Csr::from_edges(2 * k, &edges)
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
            let o = star_connectivity(&mut led, g, 1.0 / 16.0, i as u64);
            assert!(same_partition(o.labels(), &uf_labels(g)), "graph {i}");
        }
    }

    #[test]
    fn agrees_with_paper_faithful_path() {
        for seed in 0..6u64 {
            let g = gnm(500, 3000, seed);
            let mut led_a = Ledger::new(16);
            let star = star_connectivity(&mut led_a, &g, 1.0 / 16.0, seed);
            let mut led_b = Ledger::new(16);
            let paper = connectivity_csr(&mut led_b, &g, 1.0 / 16.0, seed);
            assert!(
                same_partition(star.labels(), &paper.labels),
                "seed {seed}: star and §4.2 disagree"
            );
            assert_eq!(star.num_components(), paper.num_components);
        }
    }

    #[test]
    fn star_writes_below_paper_faithful() {
        let g = gnm(1000, 40_000, 7);
        let omega = 64u64;
        let beta = 1.0 / omega as f64;
        let mut led_star = Ledger::new(omega);
        let o = star_connectivity(&mut led_star, &g, beta, 5);
        assert_eq!(o.num_components(), 1);
        let mut led_paper = Ledger::new(omega);
        let r = connectivity_csr(&mut led_paper, &g, beta, 5);
        assert_eq!(r.num_components, 1);
        assert!(
            led_star.costs().asym_writes < led_paper.costs().asym_writes,
            "star {} !< paper-faithful {}",
            led_star.costs().asym_writes,
            led_paper.costs().asym_writes
        );
    }

    #[test]
    fn deterministic_costs_and_labels() {
        let g = gnm(500, 2000, 9);
        let run = |mut led: Ledger| {
            let o = star_connectivity(&mut led, &g, 0.1, 4);
            (o.labels().to_vec(), o.num_components(), led.costs())
        };
        assert_eq!(run(Ledger::new(16)), run(Ledger::sequential(16)));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let mut led = Ledger::new(8);
        let o = star_connectivity(&mut led, &Csr::from_edges(0, &[]), 0.5, 1);
        assert_eq!(o.num_components(), 0);
        let o1 = star_connectivity(&mut led, &Csr::from_edges(3, &[]), 0.5, 1);
        assert_eq!(o1.num_components(), 3);
        assert!(!o1.connected(&mut led, 0, 2));
        assert!(o1.connected(&mut led, 1, 1));
    }

    #[test]
    fn queries_do_not_write() {
        let g = grid(12, 12);
        let mut led = Ledger::new(8);
        let o = star_connectivity(&mut led, &g, 0.25, 2);
        let w0 = led.costs().asym_writes;
        for v in 0..g.n() as u32 {
            let _ = o.component(&mut led, v);
        }
        assert_eq!(led.costs().asym_writes, w0);
    }

    #[test]
    fn many_small_components_and_isolated_vertices() {
        // L is one small sampled component out of more than a thousand;
        // every joined clique pair outside it reaches the finish as a
        // crossing pair.
        let joined = two_cliques(5);
        let gnm_parts: Vec<Csr> = (0..40).map(|s| gnm(12, 10, s)).collect();
        let mut parts: Vec<&Csr> = vec![&joined; 300];
        parts.extend(gnm_parts.iter());
        let isolated = Csr::from_edges(500, &[]);
        parts.push(&isolated);
        let g = disjoint_union(&parts);
        let mut led = Ledger::new(16);
        let (p, num_parts) = sample(&mut led, &g);
        let big = largest_root(&mut led, &p);
        let pairs = cross_pairs(&mut led, &g, &p, big);
        assert!(pairs.len() >= 299, "{} crossing pairs", pairs.len());
        let o = checked_build(&g);
        assert_eq!(o.num_parts(), num_parts);
        assert!(o.num_parts() > o.num_components());
        assert!(o.rounds() > 0);
    }

    #[test]
    fn cliques_joined_beyond_the_sample() {
        for k in [4usize, 9, 40] {
            let g = two_cliques(k);
            let o = checked_build(&g);
            assert_eq!(o.num_parts(), 2, "k = {k}: the sample misses the join");
            assert_eq!(o.num_components(), 1);
            assert!(o.rounds() > 0, "k = {k}");
        }
    }

    /// Capping contraction at 0 or 1 rounds leaves crossing pairs for the
    /// fallback sweep, which must still produce the exact partition with
    /// the same `Costs` and depth under either ledger.
    #[test]
    fn fallback_sweep_finishes_capped_contraction() {
        let joined = two_cliques(5);
        let many = disjoint_union(&[&joined; 50]);
        for g in [many, two_cliques(4), two_cliques(9), two_cliques(40)] {
            for cap in [0usize, 1] {
                let o = checked(&g, &|led| build(led, &g, 3, cap));
                assert!(o.rounds() <= cap);
                assert!(o.num_parts() > o.num_components(), "cap {cap}");
            }
        }
    }

    #[test]
    fn covered_families_need_no_contraction() {
        for g in [
            path(1),
            path(2),
            path(3000),
            star(2500),
            Csr::from_edges(0, &[]),
        ] {
            let o = checked_build(&g);
            assert_eq!(o.num_parts(), o.num_components());
            assert_eq!(o.rounds(), 0);
        }
    }

    /// The write contract when the sample puts every vertex in `L`: the
    /// finish emits nothing, no contraction round runs, and the build
    /// writes exactly
    ///
    /// `n` (init) + links + compress rewrites + `n` (labels) + components,
    ///
    /// with links = `n` − components. The small graph's single rewrite is
    /// traced by hand: 0–3 and 1–2 link first, 2's scan of 3 links root 1
    /// under root 0, and 3's scan of 2 compresses 2 → 1 → 0 (one rewrite).
    /// A path links every vertex straight to 0, so it rewrites nothing.
    #[test]
    fn full_coverage_write_contract() {
        let small = Csr::from_edges(4, &[(0, 3), (1, 2), (2, 3)]);
        for (g, rewrites) in [(small, 1u64), (path(5000), 0)] {
            let n = g.n() as u64;
            let mut led = Ledger::new(16);
            let (p, num_parts) = sample(&mut led, &g);
            assert_eq!(num_parts, 1);
            assert_eq!(led.costs().asym_writes, n + (n - 1) + rewrites);
            let before = led.costs().asym_writes;
            let big = largest_root(&mut led, &p);
            let pairs = cross_pairs(&mut led, &g, &p, big);
            assert!(pairs.is_empty());
            assert_eq!(led.costs().asym_writes, before, "empty finish writes");

            let mut led = Ledger::new(16);
            let o = star_connectivity(&mut led, &g, 1.0 / 16.0, 1);
            assert_eq!(o.rounds(), 0);
            assert_eq!(led.costs().asym_writes, n + (n - 1) + rewrites + n + 1);
        }

        // Dense: the sample's own writes (init + links + rewrites) plus
        // `n` labels and one dense id are the whole build.
        let g = gnm(2000, 32_000, 5);
        let mut led = Ledger::new(16);
        let (_, num_parts) = sample(&mut led, &g);
        assert_eq!(num_parts, 1);
        let sample_writes = led.costs().asym_writes;
        let mut led = Ledger::new(16);
        let o = star_connectivity(&mut led, &g, 1.0 / 16.0, 1);
        assert_eq!(o.rounds(), 0);
        assert_eq!(led.costs().asym_writes, sample_writes + 2000 + 1);
    }
}
