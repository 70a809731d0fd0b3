//! Batch-vs-sequential serving equivalence: the `wec-serve` shard/merge
//! contract promises that
//!
//! 1. batch answers are identical to one-by-one oracle queries,
//! 2. for a fixed shard count, the merged `Costs`/depth/sym-peak are
//!    **bit-identical** whether the shards ran on one thread
//!    ([`Ledger::sequential`]) or many ([`Ledger::new`]), and
//! 3. the shard count changes `Costs` only by the documented scheduler
//!    bookkeeping (`shard_chunks(n, s) − 1` unit operations), so sharded
//!    serving accounts exactly like sequential serving plus a pure function
//!    of `(n, s)`.
//!
//! CI runs this file under `WEC_THREADS ∈ {1, 2, 8}` alongside
//! `tests/invariance.rs`, so the promises hold at every parallelism level.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec::asym::Ledger;
use wec::biconnectivity::oracle::build_biconnectivity_oracle;
use wec::biconnectivity::BiconnectivityOracle;
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::core::BuildOpts;
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::serve::{shard_chunks, Answer, Query, ServeResult, ShardedServer, QUERY_WORDS};

const OMEGA: u64 = 64;
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn test_graph() -> Csr {
    gen::disjoint_union(&[
        &gen::bounded_degree_connected(700, 4, 150, 11),
        &gen::grid(8, 9),
        &gen::path(13),
        &Csr::from_edges(4, &[]),
    ])
}

fn build_oracles<'g>(
    g: &'g Csr,
    pri: &'g Priorities,
    verts: &'g [Vertex],
) -> (ConnectivityOracle<'g, Csr>, BiconnectivityOracle<'g, Csr>) {
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let conn = ConnectivityOracle::build(&mut led, g, pri, verts, k, 5, OracleBuildOpts::default());
    let bicon = build_biconnectivity_oracle(&mut led, g, pri, verts, k, 5, BuildOpts::default());
    (conn, bicon)
}

/// A randomized batch mixing all four query kinds over vertices of `n`.
fn random_batch(rng: &mut SmallRng, n: u32, len: usize) -> Vec<Query> {
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            match rng.gen_range(0u32..4) {
                0 => Query::Connected(u, v),
                1 => Query::Component(u),
                2 => Query::TwoEdgeConnected(u, v),
                _ => Query::Biconnected(u, v),
            }
        })
        .collect()
}

#[test]
fn randomized_batches_equal_one_by_one_answers_and_sequential_costs() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0xB47C);
    for round in 0..4 {
        let len = rng.gen_range(1usize..160);
        let batch = random_batch(&mut rng, n as u32, len);

        // Ground truth: one query at a time on a plain ledger, summing the
        // per-query charges.
        let server1 = ShardedServer::new(&conn, 1).with_biconnectivity(&bicon);
        let mut one_led = Ledger::new(OMEGA);
        let expected: Vec<ServeResult> = batch
            .iter()
            .map(|&q| server1.try_answer_one(&mut one_led, q))
            .collect();
        assert!(
            expected.iter().all(Result::is_ok),
            "every kind is supported"
        );
        let one_by_one = one_led.costs();

        for shards in SHARD_COUNTS {
            let server = ShardedServer::new(&conn, shards).with_biconnectivity(&bicon);
            let mut led = Ledger::new(OMEGA);
            let answers = server.serve(&mut led, &batch);
            assert_eq!(
                answers, expected,
                "batch answers differ from one-by-one (round={round}, shards={shards})"
            );
            // Exact cost contract: per-query charges + the batch input scan
            // + the documented split bookkeeping. Nothing else.
            let mut expect_costs = one_by_one;
            expect_costs.asym_reads += batch.len() as u64 * QUERY_WORDS;
            expect_costs.sym_ops += shard_chunks(batch.len(), shards) as u64 - 1;
            assert_eq!(
                led.costs(),
                expect_costs,
                "merged batch costs differ from sequential serving \
                 (round={round}, shards={shards})"
            );
            assert_eq!(led.costs().asym_writes, 0, "serving must never write");
        }
    }
}

#[test]
fn batch_serving_costs_invariant_under_parallelism() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0x5E2E);
    let batch = random_batch(&mut rng, n as u32, 300);

    for shards in SHARD_COUNTS {
        let run = |mut led: Ledger| {
            let server = ShardedServer::new(&conn, shards).with_biconnectivity(&bicon);
            let answers = server.serve(&mut led, &batch);
            (answers, led.costs(), led.depth(), led.sym_peak())
        };
        let par = run(Ledger::new(OMEGA));
        let seq = run(Ledger::sequential(OMEGA));
        assert_eq!(
            par, seq,
            "batch serving not bit-identical across parallelism (shards={shards})"
        );
    }
}

#[test]
fn component_ids_consistent_between_serving_and_oracle() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, _bicon) = build_oracles(&g, &pri, &verts);

    let batch: Vec<Query> = (0..n as u32).map(Query::Component).collect();
    let server = ShardedServer::new(&conn, 7);
    let mut led = Ledger::new(OMEGA);
    let answers = server.serve(&mut led, &batch);
    for v in 0..n as u32 {
        let mut one = Ledger::new(OMEGA);
        assert_eq!(
            answers[v as usize],
            Ok(Answer::Component(conn.component(&mut one, v))),
            "component of {v}"
        );
    }
}
