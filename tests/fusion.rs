//! Differential lockdown of the fused pass and the star fast path.
//!
//! Three families of properties, all replayable from the printed case
//! context (seeded `SmallRng`, no proptest dependency):
//!
//! 1. **Labeling equivalence** — on randomized graphs and seeds, the
//!    sample-and-finish star builder (2-out sample, fused finish over the
//!    vertices outside the largest sampled component, star contraction)
//!    produces a component partition isomorphic to the paper-faithful
//!    §4.2 path's and to union-find ground truth; the star handle also
//!    drops into the sharded serving stack and answers exactly like its
//!    own one-by-one queries.
//! 2. **Fusion output equivalence** — `flat_collect` (including empty
//!    inputs and all-pass/all-fail filters) is element-identical to the
//!    materialized `filter_map_collect`.
//! 3. **Cost replays** — pinned exact `Costs` for a fixed fused pass and
//!    its materialized counterpart (any drift in the fusion charge
//!    contract fails the literals), fused writes strictly below
//!    materialized writes, star build writes/edge strictly below fused
//!    §4.2 on seeded bounded-degree and dense graphs at ω = 64, and
//!    bit-identical costs under `Ledger::sequential` vs the rayon pool —
//!    CI runs this file at `WEC_THREADS ∈ {1, 2, 8, 16}`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec::asym::{Costs, Ledger};
use wec::baseline::unionfind::{same_partition, uf_labels};
use wec::connectivity::{connectivity_csr, star_connectivity, StarOracle};
use wec::graph::{gen, Csr, Vertex};
use wec::prims::filter::filter_map_collect;
use wec::prims::flat_collect;
use wec::serve::{Answer, Query, ShardedServer};

const CASES: usize = 32;
const OMEGA: u64 = 16;

/// Same random-graph recipe as `tests/proptests.rs`: degenerate edges
/// (self-loops, duplicates) on purpose.
fn random_graph(rng: &mut SmallRng) -> (Csr, u64) {
    let n = rng.gen_range(2usize..48);
    let max_m = (n * (n - 1) / 2).min(80);
    let m = rng.gen_range(0usize..=max_m);
    let edges: Vec<(Vertex, Vertex)> = (0..m)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    (Csr::from_edges(n, &edges), rng.gen::<u64>())
}

#[test]
fn star_labeling_isomorphic_to_paper_faithful_and_ground_truth() {
    let mut rng = SmallRng::seed_from_u64(0xf0_5109);
    for case in 0..CASES {
        let (g, seed) = random_graph(&mut rng);
        let beta_inv = rng.gen_range(1u64..32);
        let beta = 1.0 / beta_inv as f64;
        let mut led_star = Ledger::new(OMEGA);
        let star = star_connectivity(&mut led_star, &g, beta, seed);
        let mut led_paper = Ledger::new(OMEGA);
        let paper = connectivity_csr(&mut led_paper, &g, beta, seed);
        assert!(
            same_partition(star.labels(), &paper.labels),
            "case {case} seed {seed} beta 1/{beta_inv}: star vs §4.2"
        );
        assert!(
            same_partition(star.labels(), &uf_labels(&g)),
            "case {case} seed {seed} beta 1/{beta_inv}: star vs ground truth"
        );
        assert_eq!(
            star.num_components(),
            paper.num_components,
            "case {case} seed {seed}: component counts"
        );
    }
}

/// A labeled predicate shape for the pipeline-equivalence sweep.
type Shape = (&'static str, fn(usize) -> bool);

#[test]
fn fused_pipelines_match_materialized_counterparts() {
    // A charged filter-map over every slot-count edge of the accounting
    // block, including the degenerate shapes: empty input, all-pass
    // filter, all-fail filter.
    let shapes: [Shape; 3] = [
        ("mod7", |i| i % 7 == 0),
        ("all-pass", |_| true),
        ("all-fail", |_| false),
    ];
    for n in [0usize, 1, 1023, 1024, 1025, 9000] {
        for (label, keep) in shapes {
            let f = |i: usize, l: &mut Ledger| {
                l.read(1);
                keep(i).then_some((i as u32) ^ 0x55aa)
            };
            let mut fused_led = Ledger::new(OMEGA);
            let fused = flat_collect(&mut fused_led, n, f);
            let materialized = filter_map_collect(&mut Ledger::new(OMEGA), n, &f);
            assert_eq!(fused, materialized, "n={n} {label}: filter-map");
            assert_eq!(
                fused_led.costs().asym_writes,
                fused.len() as u64,
                "n={n} {label}: fused writes only its survivors"
            );
        }
    }
}

/// Pinned exact cost replay for one representative pass at n = 2500,
/// ω = 16: `flat_collect` of a slot function that reads once and keeps
/// `i % 3 == 0`, against the materialized `filter_map_collect` on the same
/// slot function. The literals encode the fusion charge contract — if any
/// charge drifts, this fails before anything subtler does.
#[test]
fn pinned_cost_replay_fused_below_materialized() {
    let n = 2500usize;
    let survivors = 834u64; // ⌈2500 / 3⌉
    let chunks = 3u64; // ⌈2500 / 1024⌉

    let f = |i: usize, l: &mut Ledger| {
        l.read(1);
        i.is_multiple_of(3).then_some(i as u32)
    };
    let mut fused_led = Ledger::new(OMEGA);
    let fused = flat_collect(&mut fused_led, n, f);
    assert_eq!(fused.len() as u64, survivors);

    // Fused contract: 1 read/slot (user); ops = slot op + stage op per
    // slot, + 1 stage op per survivor, + 1 concat op per chunk +
    // (chunks − 1) split ops; writes = emitted elements only.
    let expect_fused = Costs {
        asym_reads: n as u64,
        asym_writes: survivors,
        sym_ops: 2 * n as u64 + survivors + chunks + (chunks - 1),
    };
    assert_eq!(fused_led.costs(), expect_fused, "fused pipeline drifted");

    let mut mat_led = Ledger::new(OMEGA);
    let materialized = filter_map_collect(&mut mat_led, n, &f);
    assert_eq!(materialized.len() as u64, survivors);

    // Materialized two-pass filter: the predicate (and its read) runs
    // twice; block offsets pay chunks + 1 writes and a scan pass; both
    // passes pay (chunks − 1) split ops.
    let expect_mat = Costs {
        asym_reads: 2 * n as u64,
        asym_writes: survivors + chunks + 1,
        sym_ops: chunks + 2 * (chunks - 1),
    };
    assert_eq!(mat_led.costs(), expect_mat, "materialized filter drifted");

    assert!(
        fused_led.costs().asym_writes < mat_led.costs().asym_writes,
        "fused writes must sit strictly below materialized"
    );
    assert!(
        fused_led.costs().asym_reads < mat_led.costs().asym_reads,
        "fused runs the charged predicate once, not twice"
    );
}

#[test]
fn star_handle_drops_into_sharded_serving() {
    let g = gen::disjoint_union(&[
        &gen::bounded_degree_connected(300, 4, 80, 11),
        &gen::grid(6, 7),
        &Csr::from_edges(5, &[]),
    ]);
    let n = g.n() as u32;
    let mut led = Ledger::new(OMEGA);
    let star: StarOracle = star_connectivity(&mut led, &g, 1.0 / OMEGA as f64, 11);

    let mut rng = SmallRng::seed_from_u64(0x57a2);
    let batch: Vec<Query> = (0..200)
        .map(|_| {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if rng.gen_bool(0.5) {
                Query::Connected(u, v)
            } else {
                Query::Component(u)
            }
        })
        .collect();

    for shards in [1usize, 2, 7] {
        let run = |mut led: Ledger| {
            let server = ShardedServer::new(&star, shards);
            let answers = server.serve(&mut led, &batch);
            (answers, led.costs(), led.depth())
        };
        let par = run(Ledger::new(OMEGA));
        let seq = run(Ledger::sequential(OMEGA));
        assert_eq!(par, seq, "star serving not bit-identical (shards={shards})");

        // Answers must equal the star handle's own one-by-one queries and
        // agree with ground-truth connectivity.
        let truth = uf_labels(&g);
        for (q, a) in batch.iter().zip(&par.0) {
            match (*q, *a) {
                (Query::Connected(u, v), Ok(Answer::Connected(c))) => {
                    assert_eq!(
                        c,
                        truth[u as usize] == truth[v as usize],
                        "connected({u},{v}) shards={shards}"
                    );
                }
                (Query::Component(u), Ok(Answer::Component(id))) => {
                    let mut one = Ledger::new(OMEGA);
                    assert_eq!(id, star.component(&mut one, u), "component({u})");
                }
                _ => panic!("answer kind mismatch for {q:?}"),
            }
        }
    }
}

#[test]
fn star_build_costs_invariant_under_parallelism() {
    let n = 2000;
    let g = gen::bounded_degree_connected(n, 4, n / 4, 7);
    let run = |mut led: Ledger| {
        let star = star_connectivity(&mut led, &g, 1.0 / 64.0, 7);
        (
            star.labels().to_vec(),
            star.rounds(),
            led.costs(),
            led.depth(),
            led.sym_peak(),
        )
    };
    assert_eq!(
        run(Ledger::new(64)),
        run(Ledger::sequential(64)),
        "star build not bit-identical across parallelism"
    );
}

/// Star build writes/edge must sit strictly below fused §4.2's at ω = 64
/// — on the bounded-degree graphs the `conn_writes` A/B measures (its
/// smoke and full sizes) and on a dense `gnm`, where the sample covers the
/// graph and the finish writes nothing.
#[test]
fn star_writes_per_edge_below_fused_section42() {
    const OMEGA_AB: u64 = 64;
    let beta = 1.0 / OMEGA_AB as f64;
    let seed = 9;
    for (label, g) in [
        (
            "bounded 4k",
            gen::bounded_degree_connected(4000, 4, 1000, 42),
        ),
        (
            "bounded 60k",
            gen::bounded_degree_connected(60_000, 4, 15_000, 42),
        ),
        ("gnm 20k/320k", gen::gnm(20_000, 320_000, 42)),
    ] {
        let per_edge = |led: &Ledger| led.costs().asym_writes as f64 / g.m() as f64;
        let mut led_star = Ledger::new(OMEGA_AB);
        let star = star_connectivity(&mut led_star, &g, beta, seed);
        let mut led_fused = Ledger::new(OMEGA_AB);
        let fused = connectivity_csr(&mut led_fused, &g, beta, seed);
        assert!(same_partition(star.labels(), &fused.labels), "{label}");
        assert!(
            per_edge(&led_star) < per_edge(&led_fused),
            "{label}: star {:.4} !< fused §4.2 {:.4} writes/edge",
            per_edge(&led_star),
            per_edge(&led_fused)
        );
    }
}
