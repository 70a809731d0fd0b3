//! Accounting invariance: the split/merge ledger contract promises
//! **bit-identical** `Costs`, depth, and symmetric-memory peak whether a
//! pipeline executes on one thread ([`Ledger::sequential`]) or on the rayon
//! pool ([`Ledger::new`]) — and, of course, the same answers.
//!
//! These tests run the real pipelines end to end (decomposition build,
//! §4.2 connectivity, both oracles) under both ledgers and compare
//! everything. A regression here means some pass made its charges depend
//! on execution order — the exact bug class the split/merge architecture
//! exists to rule out.

use wec::asym::{Costs, Ledger, LedgerScope};
use wec::biconnectivity::oracle::build_biconnectivity_oracle;
use wec::connectivity::{connectivity_csr, ConnectivityOracle, OracleBuildOpts};
use wec::core::{BuildOpts, ImplicitDecomposition};
use wec::graph::{gen, Priorities, Vertex};

const OMEGA: u64 = 64;

fn snapshot(led: &Ledger) -> (Costs, u64, u64) {
    (led.costs(), led.depth(), led.sym_peak())
}

#[test]
fn decomposition_build_costs_invariant_under_parallelism() {
    let n = 3000;
    let g = gen::bounded_degree_connected(n, 4, n / 4, 7);
    let pri = Priorities::random(n, 7);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    for parallel_variant in [false, true] {
        let run = |mut led: Ledger| {
            let d = ImplicitDecomposition::build(
                &mut led,
                &g,
                &pri,
                &verts,
                8,
                3,
                BuildOpts {
                    parallel: parallel_variant,
                },
            );
            let mut centers = d.centers().to_vec();
            centers.sort_unstable();
            (centers, snapshot(&led))
        };
        let (centers_par, acc_par) = run(Ledger::new(OMEGA));
        let (centers_seq, acc_seq) = run(Ledger::sequential(OMEGA));
        assert_eq!(
            centers_par, centers_seq,
            "center set differs (variant={parallel_variant})"
        );
        assert_eq!(
            acc_par, acc_seq,
            "accounting differs (variant={parallel_variant})"
        );
    }
}

#[test]
fn section42_connectivity_costs_invariant_under_parallelism() {
    let g = gen::gnm(2500, 20_000, 5);
    let run = |mut led: Ledger| {
        let r = connectivity_csr(&mut led, &g, 1.0 / OMEGA as f64, 9);
        (r.labels, r.num_components, r.parent, snapshot(&led))
    };
    let a = run(Ledger::new(OMEGA));
    let b = run(Ledger::sequential(OMEGA));
    assert_eq!(a.0, b.0, "component labels differ");
    assert_eq!(a.1, b.1, "component count differs");
    assert_eq!(a.2, b.2, "LDD parent arrays differ");
    assert_eq!(a.3, b.3, "accounting differs");
}

#[test]
fn connectivity_oracle_build_and_query_costs_invariant() {
    let n = 2000;
    let g = gen::disjoint_union(&[
        &gen::bounded_degree_connected(n, 4, n / 4, 2),
        &gen::grid(9, 9),
    ]);
    let n = g.n();
    let pri = Priorities::random(n, 2);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    for parallel in [false, true] {
        let run = |mut led: Ledger| {
            let k = led.sqrt_omega();
            let oracle = ConnectivityOracle::build(
                &mut led,
                &g,
                &pri,
                &verts,
                k,
                4,
                OracleBuildOpts {
                    decomp: BuildOpts { parallel },
                },
            );
            let build_acc = snapshot(&led);
            let answers: Vec<_> = (0..n as u32)
                .step_by(17)
                .map(|v| oracle.component(&mut led, v))
                .collect();
            (build_acc, snapshot(&led), answers)
        };
        let a = run(Ledger::new(OMEGA));
        let b = run(Ledger::sequential(OMEGA));
        assert_eq!(
            a.0, b.0,
            "build accounting differs (parallel decomposition={parallel})"
        );
        assert_eq!(
            a.1, b.1,
            "query accounting differs (parallel decomposition={parallel})"
        );
        assert_eq!(
            a.2, b.2,
            "query answers differ (parallel decomposition={parallel})"
        );
    }
}

#[test]
fn grain_policy_invariant_under_parallelism_and_thread_count() {
    // `scoped_par` batches accounting chunks per forked task using the
    // *runtime thread count* — so this test, run across the CI WEC_THREADS
    // matrix (1/2/8/16), proves the batching cannot leak into the accounted
    // costs: parallel and sequential execution must agree bit-for-bit, and
    // the absolute numbers are pinned so different matrix legs cannot
    // silently diverge from each other. Tasks hold
    // `max(64, n / (threads × 8))` elements, so n = 500 (≤ 64 × 8) keeps
    // one chunk per task at every thread count, and n = 50_000
    // (> 64 × 8 × 16) batches chunks at every leg of the matrix.
    let body = |r: std::ops::Range<usize>, s: &mut LedgerScope| {
        s.read(r.len() as u64);
        if r.start.is_multiple_of(7 * 64) {
            s.write(1);
        }
        r.len() as u64
    };
    // (n, pinned Costs, pinned depth). Chunks of 64 write when their start
    // is a multiple of 7 · 64; `chunks − 1` split-tree ops; depth =
    // ⌈log₂ chunks⌉ + max chunk depth (64 reads + ω for chunks that write).
    let cases = [
        // 8 chunks: writes at chunks 0 and 7.
        (
            500,
            Costs {
                asym_reads: 500,
                asym_writes: 2,
                sym_ops: 7,
            },
            3 + 64 + OMEGA,
        ),
        // 782 chunks: 112 writes (every 7th chunk).
        (
            50_000,
            Costs {
                asym_reads: 50_000,
                asym_writes: 112,
                sym_ops: 781,
            },
            10 + 64 + OMEGA,
        ),
    ];
    for (n, costs, depth) in cases {
        let run = |mut led: Ledger| {
            let out = led.scoped_par(n, 64, &body);
            (out, led.costs(), led.depth(), led.sym_peak())
        };
        let par = run(Ledger::new(OMEGA));
        assert_eq!(par, run(Ledger::sequential(OMEGA)), "n = {n}");
        assert_eq!(par.0.iter().sum::<u64>(), n as u64);
        assert_eq!((par.1, par.2), (costs, depth), "n = {n}");
    }
}

#[test]
fn biconnectivity_oracle_build_costs_invariant() {
    let n = 1200;
    let g = gen::bounded_degree_connected(n, 4, n / 3, 6);
    let pri = Priorities::random(n, 6);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let run = |mut led: Ledger| {
        let oracle =
            build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 6, 8, BuildOpts::default());
        let build_acc = snapshot(&led);
        let artic: Vec<bool> = (0..n as u32)
            .step_by(11)
            .map(|v| oracle.is_articulation(&mut led, v))
            .collect();
        (build_acc, snapshot(&led), artic)
    };
    let a = run(Ledger::new(OMEGA));
    let b = run(Ledger::sequential(OMEGA));
    assert_eq!(a.0, b.0, "build accounting differs");
    assert_eq!(a.1, b.1, "query accounting differs");
    assert_eq!(a.2, b.2, "articulation answers differ");
}
