//! The streaming front end's contracts, exactly:
//!
//! 1. answers are delivered strictly in submission order and equal
//!    one-by-one oracle queries (under the default affinity + CLOCK
//!    policy);
//! 2. the documented hit/miss cost formula of the **contiguous
//!    partition** (`skew_factor = 0`, so every batch takes the skew
//!    fallback) holds **exactly**: a dispatch charges the routing scan +
//!    the batch input scan + cache probes + one CLOCK touch per hit + the
//!    full one-by-one cost of every miss (canonical order) + one write
//!    per cache fill + the `shard_chunks − 1` scheduler bookkeeping, and
//!    nothing else — verified cold (misses) and warmed (all hits) against
//!    an independent replay of the admission/partition logic. The
//!    affinity-group formula is enforced the same way by
//!    `tests/affinity.rs`;
//! 3. every charge is **bit-identical** between parallel and sequential
//!    ledgers; CI additionally runs this file under `WEC_THREADS ∈
//!    {1, 2, 8, 16}`, so the totals are pinned at every parallelism level;
//! 4. admission edge cases behave: `max_batch = 1` dispatches every
//!    submission immediately, and a drain whose queue runs out mid-flush
//!    ships a final short micro-batch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec::asym::{Costs, Ledger};
use wec::biconnectivity::oracle::build_biconnectivity_oracle;
use wec::biconnectivity::{BiconnQueryKey, BiconnectivityOracle};
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::core::BuildOpts;
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::serve::{
    shard_chunks, AdmissionPolicy, Answer, FullServer, FullStreamingServer, Query, ShardedServer,
    StreamingServer, CACHE_INSERT_WRITES, CACHE_PROBE_READS, CLOCK_TOUCH_OPS, QUERY_WORDS,
    ROUTE_HASH_OPS,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 3;

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

/// A randomized stream mixing all four query kinds, with enough repetition
/// (small vertex range) that caches see hits even cold.
fn random_stream(rng: &mut SmallRng, n: u32, len: usize) -> Vec<Query> {
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            match rng.gen_range(0u32..6) {
                0 | 1 => Query::Connected(u, v),
                2 | 3 => Query::Component(u),
                4 => Query::TwoEdgeConnected(u, v),
                _ => Query::Biconnected(u, v),
            }
        })
        .collect()
}

fn streaming_server<'o, 'g>(
    conn: &'o ConnectivityOracle<'g, Csr>,
    bicon: &'o BiconnectivityOracle<'g, Csr>,
    policy: AdmissionPolicy,
) -> FullStreamingServer<'o, 'g, Csr> {
    let sharded = ShardedServer::new(conn, SHARDS).with_biconnectivity(bicon);
    StreamingServer::new(sharded, policy)
}

/// Independent replay of the documented contiguous-partition cost
/// contract: partition the stream into micro-batches exactly as a
/// no-auto-flush drain would (consecutive `max_batch`-sized chunks), map
/// each query to its shard (`position / grain`), track per-shard key
/// sets, and sum the formula — `ROUTE_HASH_OPS` + `QUERY_WORDS` per
/// query, `CACHE_PROBE_READS` per probe, `CLOCK_TOUCH_OPS` per hit, each
/// miss's canonical one-by-one cost on a fresh ledger,
/// `CACHE_INSERT_WRITES` per fill, and `shard_chunks − 1` ops per
/// dispatch. The replay asserts the caches never reach `capacity` (it
/// does not model eviction). `sets` carries per-shard key sets in and
/// out, so a second replay over the same sets prices the warmed pass.
#[allow(clippy::type_complexity)]
fn replay_expected_costs(
    server1: &FullServer<'_, '_, Csr>,
    stream: &[Query],
    max_batch: usize,
    capacity: usize,
    sets: &mut [(
        std::collections::HashSet<Vertex>,
        std::collections::HashSet<BiconnQueryKey>,
    )],
) -> Costs {
    let mut expect = Costs::ZERO;
    for batch in stream.chunks(max_batch) {
        let grain = batch.len().div_ceil(SHARDS);
        expect.sym_ops += batch.len() as u64 * ROUTE_HASH_OPS;
        expect.asym_reads += batch.len() as u64 * QUERY_WORDS;
        expect.sym_ops += shard_chunks(batch.len(), SHARDS) as u64 - 1;
        for (j, &q) in batch.iter().enumerate() {
            let (comp, pred) = &mut sets[j / grain];
            let mut led = Ledger::new(OMEGA);
            // One probe: a hit touches its second-chance bit, a miss pays
            // the query and fills below capacity.
            let mut probe = |hit: bool, resident: usize| {
                expect.asym_reads += CACHE_PROBE_READS;
                if hit {
                    expect.sym_ops += CLOCK_TOUCH_OPS;
                } else {
                    assert!(resident < capacity, "replay does not model eviction");
                    expect.asym_writes += CACHE_INSERT_WRITES;
                }
            };
            match q {
                Query::Component(v) => {
                    probe(comp.contains(&v), comp.len() + pred.len());
                    if comp.insert(v) {
                        server1.conn_handle().component(&mut led, v);
                    }
                }
                Query::Connected(u, v) => {
                    for x in [u, v] {
                        probe(comp.contains(&x), comp.len() + pred.len());
                        if comp.insert(x) {
                            server1.conn_handle().component(&mut led, x);
                        }
                    }
                }
                Query::TwoEdgeConnected(u, v) | Query::Biconnected(u, v) => {
                    let key = if matches!(q, Query::TwoEdgeConnected(..)) {
                        BiconnQueryKey::two_edge_connected(u, v)
                    } else {
                        BiconnQueryKey::biconnected(u, v)
                    };
                    probe(pred.contains(&key), comp.len() + pred.len());
                    if pred.insert(key) {
                        server1.bicon_handle().unwrap().answer_key(&mut led, key);
                    }
                }
            }
            expect += led.costs();
        }
    }
    expect
}

#[test]
fn answers_in_submission_order_and_match_one_by_one() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0x57AE);
    let stream = random_stream(&mut rng, n as u32, 230);
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(48)
            .max_queue(96)
            .cache_capacity(1 << 12)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    let tickets: Vec<_> = stream
        .iter()
        .map(|&q| srv.submit(&mut led, q).unwrap())
        .collect();
    srv.drain(&mut led);
    let delivered = srv.take_ready();
    assert_eq!(delivered.len(), stream.len());

    let server1 = ShardedServer::new(&conn, 1).with_biconnectivity(&bicon);
    for (i, (t, a)) in delivered.iter().enumerate() {
        assert_eq!(*t, tickets[i], "delivery out of submission order at {i}");
        let mut one = Ledger::new(OMEGA);
        assert_eq!(
            a.unwrap(),
            server1.try_answer_one(&mut one, stream[i]).unwrap(),
            "cached answer differs from the oracle at {i} ({:?})",
            stream[i]
        );
    }
    assert!(srv.try_next().is_none(), "nothing left after full delivery");
}

#[test]
fn hit_miss_cost_contract_exact_cold_then_warm() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0xCAC4E);
    // Narrow vertex range => repetition => cold-pass hits too.
    let stream = random_stream(&mut rng, 120, 260);
    let (max_batch, capacity) = (64usize, 1usize << 12);
    // max_queue above the stream length: no auto-flush, so micro-batches
    // are exactly the drain's consecutive max_batch-sized chunks — the
    // partition the replay below assumes. skew_factor 0 sends every batch
    // through the contiguous fallback this replay prices; tests/affinity.rs
    // replays the affinity-group contract.
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(max_batch)
            .max_queue(10_000)
            .cache_capacity(capacity)
            .skew_factor(0)
            .build(),
    );
    let server1 = ShardedServer::new(&conn, 1).with_biconnectivity(&bicon);

    // Cold pass.
    let mut cold = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut cold, q).unwrap();
    }
    srv.drain(&mut cold);
    assert_eq!(srv.take_ready().len(), stream.len());

    let mut sets = vec![Default::default(); SHARDS];
    let expect_cold = replay_expected_costs(&server1, &stream, max_batch, capacity, &mut sets);
    assert_eq!(cold.costs(), expect_cold, "cold-pass formula mismatch");

    let stats = srv.cache_stats();
    assert!(stats.hits > 0, "repetitive stream must hit even cold");
    assert!(stats.misses > 0);
    assert_eq!(
        cold.costs().asym_writes,
        stats.inserts * CACHE_INSERT_WRITES,
        "cache fills are the only writes"
    );

    // Warm pass: same stream, same partition, same per-shard key sets —
    // every probe hits, so the replay adds no miss costs and no fills.
    let mut warm = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut warm, q).unwrap();
    }
    srv.drain(&mut warm);
    assert_eq!(srv.take_ready().len(), stream.len());

    let expect_warm = replay_expected_costs(&server1, &stream, max_batch, capacity, &mut sets);
    assert_eq!(warm.costs(), expect_warm, "warm-pass formula mismatch");
    assert_eq!(
        warm.costs().asym_writes,
        0,
        "a fully warmed pass never writes"
    );
    let warm_stats = srv.cache_stats();
    assert_eq!(
        warm_stats.misses, stats.misses,
        "warmed pass must add zero misses"
    );
    // The warm pass is pure probes: input scan + one probe per endpoint.
    let probes = warm_stats.hits - stats.hits;
    assert_eq!(
        warm.costs().asym_reads,
        stream.len() as u64 * QUERY_WORDS + probes * CACHE_PROBE_READS,
        "hits charge only the cache-probe reads"
    );
}

#[test]
fn costs_bit_identical_across_parallelism() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0xD15C);
    let stream = random_stream(&mut rng, n as u32, 300);
    let run = |mut led: Ledger| {
        let mut srv = streaming_server(
            &conn,
            &bicon,
            AdmissionPolicy::builder()
                .max_batch(32)
                .max_queue(64)
                .cache_capacity(1 << 10)
                .build(),
        );
        for &q in &stream {
            srv.submit(&mut led, q).unwrap();
        }
        srv.drain(&mut led);
        let answers: Vec<(u64, Answer)> = srv
            .take_ready()
            .into_iter()
            .map(|(t, a)| (t.id(), a.unwrap()))
            .collect();
        let stats = srv.cache_stats();
        (
            answers,
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            led.costs(),
            led.depth(),
            led.sym_peak(),
        )
    };
    let par = run(Ledger::new(OMEGA));
    let seq = run(Ledger::sequential(OMEGA));
    assert_eq!(par, seq, "streaming not bit-identical across parallelism");
}

#[test]
fn batch_size_one_dispatches_every_submission() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder().max_batch(1).max_queue(1).build(),
    );
    let mut led = Ledger::new(OMEGA);
    for (i, q) in [
        Query::Connected(0, 5),
        Query::Component(3),
        Query::TwoEdgeConnected(1, 2),
    ]
    .into_iter()
    .enumerate()
    {
        let t = srv.submit(&mut led, q).unwrap();
        assert_eq!(srv.queue_len(), 0, "batch size 1 dispatches immediately");
        let (got, _) = srv.try_next().expect("answer ready right after submit");
        assert_eq!(got, t);
        assert_eq!(t.id(), i as u64);
    }
}

#[test]
fn drain_ships_short_final_batch_when_queue_runs_out() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0x0DD);
    let stream = random_stream(&mut rng, n as u32, 300);
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(128)
            .max_queue(10_000)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    assert_eq!(
        srv.queue_len(),
        300,
        "below max_queue: nothing auto-flushed"
    );
    // The queue drains mid-flush: two full micro-batches, then a short one.
    assert_eq!(srv.flush(&mut led), 128);
    assert_eq!(srv.flush(&mut led), 128);
    assert_eq!(srv.flush(&mut led), 44, "final short batch");
    assert_eq!(srv.flush(&mut led), 0, "empty queue flushes nothing");
    assert_eq!(srv.take_ready().len(), 300);
}

#[test]
fn capacity_zero_charges_exactly_the_sharded_batch_path() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let stream = random_stream(&mut rng, n as u32, 150);
    let max_batch = 50usize;
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(max_batch)
            .max_queue(10_000)
            .cache_capacity(0)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), stream.len());
    let stats = srv.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 0, 0));

    // The same micro-batches through the plain sharded path.
    let sharded = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);
    let mut expect = Ledger::new(OMEGA);
    for chunk in stream.chunks(max_batch) {
        sharded.serve(&mut expect, chunk);
    }
    assert_eq!(
        led.costs(),
        expect.costs(),
        "capacity 0 must bypass the cache"
    );
    assert_eq!(led.depth(), expect.depth());
}

#[test]
fn tiny_capacity_bounds_fills_but_not_correctness() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let mut rng = SmallRng::seed_from_u64(0x71C9);
    let stream = random_stream(&mut rng, n as u32, 200);
    let capacity = 4usize;
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(32)
            .max_queue(64)
            .cache_capacity(capacity)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    let delivered = srv.take_ready();
    assert_eq!(delivered.len(), stream.len());

    for shard in 0..SHARDS {
        let s = srv.shard_cache_stats(shard);
        assert!(
            s.entries <= capacity as u64,
            "shard {shard} holds {} > capacity {capacity}",
            s.entries
        );
        assert!(s.inserts <= s.misses, "fills cannot exceed misses");
    }
    let server1 = ShardedServer::new(&conn, 1).with_biconnectivity(&bicon);
    for (i, (_, a)) in delivered.iter().enumerate() {
        let mut one = Ledger::new(OMEGA);
        assert_eq!(
            a.unwrap(),
            server1.try_answer_one(&mut one, stream[i]).unwrap(),
            "answer {i}"
        );
    }
}
