//! Property-based tests over random graph structures: the decomposition
//! invariants and both oracles against brute force, under arbitrary seeds,
//! sizes, densities, and k.
//!
//! The offline build has no proptest, so cases are driven by a seeded
//! [`rand::rngs::SmallRng`] loop: every case prints enough context in its
//! assertion message to replay (`case` index + derived seed), which is the
//! shrinking-free equivalent of what the original proptest harness gave us.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec::asym::Ledger;
use wec::baseline::{brute, unionfind};
use wec::biconnectivity::{bc_labeling, oracle::build_biconnectivity_oracle};
use wec::connectivity::{connectivity_csr, ConnectivityOracle, OracleBuildOpts};
use wec::core::{BuildOpts, ImplicitDecomposition};
use wec::graph::{Csr, Priorities, Vertex};
use wec::prims::flat_collect;

const CASES: usize = 48;

/// A random graph with n in [2, 28] and a random (possibly degenerate)
/// edge list — self-loops and duplicates are exercised on purpose; the
/// builder canonicalizes them.
fn random_graph(rng: &mut SmallRng) -> (Csr, u64) {
    let n = rng.gen_range(2usize..28);
    let max_m = (n * (n - 1) / 2).min(40);
    let m = rng.gen_range(0usize..=max_m);
    let edges: Vec<(Vertex, Vertex)> = (0..m)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    (Csr::from_edges(n, &edges), rng.gen::<u64>())
}

#[test]
fn decomposition_is_a_valid_partition() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_0001);
    for case in 0..CASES {
        let (g, seed) = random_graph(&mut rng);
        let k = rng.gen_range(1usize..8);
        let n = g.n();
        let pri = Priorities::random(n, seed);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new(16);
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, k, seed, BuildOpts::default());
        let mut count = 0usize;
        let mut by_center: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for v in 0..n as u32 {
            let a = d.rho(&mut led, v);
            by_center.entry(a.center.vertex()).or_default().push(v);
            count += 1;
        }
        assert_eq!(count, n, "case {case} seed {seed}");
        for (c, members) in by_center {
            assert!(
                members.len() <= k,
                "case {case} seed {seed} k {k}: cluster {c} size {}",
                members.len()
            );
            assert!(
                wec::graph::props::induced_connected(&g, &members),
                "case {case} seed {seed}: cluster {c} disconnected"
            );
        }
    }
}

#[test]
fn section42_connectivity_matches_union_find() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_0002);
    for case in 0..CASES {
        let (g, seed) = random_graph(&mut rng);
        let beta_inv = rng.gen_range(1u64..32);
        let mut led = Ledger::new(16);
        let r = connectivity_csr(&mut led, &g, 1.0 / beta_inv as f64, seed);
        assert!(
            unionfind::same_partition(&r.labels, &unionfind::uf_labels(&g)),
            "case {case} seed {seed} beta 1/{beta_inv}"
        );
    }
}

#[test]
fn connectivity_oracle_matches_brute() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_0003);
    for case in 0..CASES {
        let (g, seed) = random_graph(&mut rng);
        let k = rng.gen_range(2usize..6);
        let n = g.n();
        let pri = Priorities::random(n, seed ^ 1);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new((k * k) as u64);
        let oracle = ConnectivityOracle::build(
            &mut led,
            &g,
            &pri,
            &verts,
            k,
            seed,
            OracleBuildOpts::default(),
        );
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert_eq!(
                    oracle.connected(&mut led, u, v),
                    brute::connected(&g, u, v),
                    "case {case} seed {seed} k {k}: connected({u},{v})"
                );
            }
        }
    }
}

#[test]
fn bc_labeling_matches_brute() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_0004);
    for case in 0..CASES {
        let (g, seed) = random_graph(&mut rng);
        let mut led = Ledger::new(16);
        let bc = bc_labeling(&mut led, &g, 0.25, seed);
        let artic = brute::articulation_points(&g);
        let bridges = brute::bridges(&g);
        for v in 0..g.n() as u32 {
            assert_eq!(
                bc.is_articulation(&mut led, v),
                artic[v as usize],
                "case {case} seed {seed}: artic {v}"
            );
        }
        for e in 0..g.m() as u32 {
            assert_eq!(
                bc.is_bridge(&mut led, e, &g),
                bridges[e as usize],
                "case {case} seed {seed}: bridge {e}"
            );
        }
    }
}

/// One randomly drawn stage of a fused composition chain.
#[derive(Clone, Copy, Debug)]
enum Stage {
    /// `x ↦ x ⊕ c` (one output per input).
    Map(u64),
    /// keep `x` iff `x % k == 0` (zero or one output per input).
    Filter(u64),
    /// `x ↦ x, x+1, …` with `x % c` outputs (fan-out).
    Flat(u64),
}

impl Stage {
    fn random(rng: &mut SmallRng) -> Stage {
        match rng.gen_range(0u32..3) {
            0 => Stage::Map(rng.gen::<u64>() | 1),
            1 => Stage::Filter(rng.gen_range(2u64..7)),
            _ => Stage::Flat(rng.gen_range(2u64..4)),
        }
    }

    /// The stage's semantics as a plain (uncharged) expansion — the
    /// reference interpreter.
    fn expand(self, x: u64) -> Vec<u64> {
        match self {
            Stage::Map(c) => vec![x ^ c],
            Stage::Filter(k) => {
                if x.is_multiple_of(k) {
                    vec![x]
                } else {
                    Vec::new()
                }
            }
            Stage::Flat(c) => (0..x % c).map(|j| x + j).collect(),
        }
    }
}

/// Evaluate a composition chain fused: the whole chain runs inside one
/// slot closure, so each slot's items flow through every stage without
/// touching the ledger, and only the chain's final output is written.
fn run_fused(led: &mut Ledger, n: usize, stages: &[Stage]) -> Vec<u64> {
    flat_collect(led, n, |i, l| {
        l.read(1);
        stages.iter().fold(vec![i as u64], |xs, st| {
            xs.into_iter().flat_map(|x| st.expand(x)).collect()
        })
    })
}

/// The eager, uncharged reference: materialize every stage boundary with
/// plain iterators.
fn run_reference(n: usize, stages: &[Stage]) -> Vec<u64> {
    let mut cur: Vec<u64> = (0..n as u64).collect();
    for &st in stages {
        cur = cur.into_iter().flat_map(|x| st.expand(x)).collect();
    }
    cur
}

#[test]
fn fused_composition_trees_match_reference_with_invariant_costs() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_0006);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..600);
        let depth = rng.gen_range(0usize..=4);
        let stages: Vec<Stage> = (0..depth).map(|_| Stage::random(&mut rng)).collect();

        let expected = run_reference(n, &stages);
        let run = |mut led: Ledger| {
            let out = run_fused(&mut led, n, &stages);
            (out, led.costs(), led.depth(), led.sym_peak())
        };
        let par = run(Ledger::new(16));
        let seq = run(Ledger::sequential(16));
        assert_eq!(
            par.0, expected,
            "case {case} n {n} stages {stages:?}: fused output != reference"
        );
        // Bit-identical costs on one thread vs the pool; CI re-runs this
        // file at WEC_THREADS ∈ {1, 2, 8, 16}, so the same assertion also
        // pins the costs across process-level thread counts.
        assert_eq!(
            par, seq,
            "case {case} n {n} stages {stages:?}: costs not thread-invariant"
        );
        // Fusion's write contract: writes == emitted elements, no matter
        // how the chain is shaped.
        assert_eq!(
            par.1.asym_writes,
            expected.len() as u64,
            "case {case} n {n} stages {stages:?}: writes must equal output size"
        );
    }
}

#[test]
fn biconnectivity_oracle_matches_brute() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_0005);
    for case in 0..CASES {
        let (g, seed) = random_graph(&mut rng);
        let k = rng.gen_range(2usize..6);
        let n = g.n();
        let pri = Priorities::random(n, seed ^ 2);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new((k * k) as u64);
        let oracle =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, seed, BuildOpts::default());
        for v in 0..n as u32 {
            assert_eq!(
                oracle.is_articulation(&mut led, v),
                brute::articulation_points(&g)[v as usize],
                "case {case} seed {seed} k {k}: articulation({v})"
            );
        }
        for u in (0..n as u32).step_by(2) {
            for v in (1..n as u32).step_by(3) {
                assert_eq!(
                    oracle.biconnected(&mut led, u, v),
                    brute::same_bcc(&g, u, v),
                    "case {case} seed {seed} k {k}: biconnected({u},{v})"
                );
                assert_eq!(
                    oracle.two_edge_connected(&mut led, u, v),
                    brute::two_edge_connected(&g, u, v),
                    "case {case} seed {seed} k {k}: 2ec({u},{v})"
                );
            }
        }
    }
}
