//! The affinity-routing + CLOCK-eviction contracts, exactly:
//!
//! 1. the documented affinity + CLOCK cost formula holds **exactly** —
//!    routing scan ops + per-shard input scan + probes + CLOCK touch ops
//!    on hits + full canonical miss costs + insert writes + per-evict
//!    sweep ops + the `s − 1` bookkeeping — verified cold and warm
//!    against an independent replay that re-implements the owner-shard
//!    hash and the CLOCK machine from the documented formulas alone;
//! 2. every charge is **bit-identical** between parallel and sequential
//!    ledgers; CI runs this file under `WEC_THREADS ∈ {1, 2, 8, 16}`;
//! 3. eviction edge cases behave: capacity 0 bypasses the cache and
//!    charges exactly the sharded batch path, capacity 1 churns in place,
//!    and an adversarial all-distinct key stream pins hit rate 0 with
//!    exact counter identities;
//! 4. the skew fallback is exact: a pathologically skewed stream charges
//!    the replayed contiguous dispatch plus the already-spent routing
//!    scan.

use wec::asym::{stable_mix64, Costs, Ledger};
use wec::biconnectivity::oracle::build_biconnectivity_oracle;
use wec::biconnectivity::{BiconnQueryKey, BiconnectivityOracle};
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::core::BuildOpts;
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::serve::{
    shard_chunks, AdmissionPolicy, FullServer, FullStreamingServer, Query, ShardedServer,
    StreamingServer, CACHE_INSERT_WRITES, CACHE_PROBE_READS, CLOCK_SWEEP_OPS, CLOCK_TOUCH_OPS,
    QUERY_WORDS, ROUTE_HASH_OPS,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;

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

fn streaming_server<'o, 'g>(
    conn: &'o ConnectivityOracle<'g, Csr>,
    bicon: &'o BiconnectivityOracle<'g, Csr>,
    policy: AdmissionPolicy,
) -> FullStreamingServer<'o, 'g, Csr> {
    let sharded = ShardedServer::new(conn, SHARDS).with_biconnectivity(bicon);
    StreamingServer::new(sharded, policy)
}

/// A deterministic mixed stream over a narrow vertex range (repetition =>
/// hits) — same generator family as the other serving tests.
fn mixed_stream(range: u32, len: usize, salt: u32) -> Vec<Query> {
    let mut v = salt;
    let mut step = move || {
        v = v.wrapping_mul(2654435761).wrapping_add(12345);
        v
    };
    (0..len)
        .map(|_| {
            let r = step();
            let a = step() % range;
            let b = (step() >> 7) % range;
            match r % 6 {
                0 | 1 => Query::Connected(a, b),
                2 | 3 => Query::Component(a),
                4 => Query::TwoEdgeConnected(a, b),
                _ => Query::Biconnected(a, b),
            }
        })
        .collect()
}

/// The documented owner-shard map, re-derived from the formulas in the
/// module docs (NOT by calling `StreamingServer::owner_shard`): the pinned
/// stable mix of the canonical cache key, modulo the shard count.
fn replay_owner(q: Query) -> usize {
    let h = match q {
        Query::Component(v) => stable_mix64(v as u64),
        Query::Connected(u, v) => stable_mix64(u.min(v) as u64),
        Query::TwoEdgeConnected(u, v) => {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            stable_mix64((a << 32 | b) ^ 0x2EC0_u64.rotate_left(48))
        }
        Query::Biconnected(u, v) => {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            stable_mix64((a << 32 | b) ^ 0xB1C0_u64.rotate_left(48))
        }
    };
    (h % SHARDS as u64) as usize
}

/// One simulated cache key (mirror of the serving layer's unified keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimKey {
    Comp(Vertex),
    Pred(BiconnQueryKey),
}

/// Independent CLOCK machine: a slot ring with second-chance bits and a
/// hand, re-implemented from the documented policy alone.
#[derive(Default)]
struct SimClock {
    slots: Vec<(SimKey, bool)>,
    hand: usize,
}

impl SimClock {
    /// Probe; on hit set the second-chance bit.
    fn probe(&mut self, key: SimKey) -> bool {
        if let Some(i) = self.slots.iter().position(|&(k, _)| k == key) {
            self.slots[i].1 = true;
            return true;
        }
        false
    }

    /// Fill after a miss, returning the sweep length (0 = appended below
    /// capacity).
    fn fill(&mut self, key: SimKey, capacity: usize) -> u64 {
        if self.slots.len() < capacity {
            self.slots.push((key, false));
            return 0;
        }
        let mut swept = 0u64;
        loop {
            swept += 1;
            let h = self.hand;
            self.hand = (self.hand + 1) % capacity;
            if self.slots[h].1 {
                self.slots[h].1 = false;
            } else {
                self.slots[h] = (key, false);
                return swept;
            }
        }
    }
}

/// Replay the affinity + CLOCK cost formula over one pass of the stream:
/// consecutive `max_batch`-sized micro-batches, owner-shard grouping — or,
/// for a batch whose largest group exceeds `skew_factor × ⌈n/s⌉`, the
/// contiguous fallback partition (query `j` on shard `j / ⌈n/s⌉`) —
/// per-shard CLOCK simulation, and the miss costs priced by one-by-one
/// canonical queries on fresh ledgers. `sims` carries per-shard CLOCK
/// state in and out so a second call prices the warmed pass.
fn replay_affinity_clock(
    server1: &FullServer<'_, '_, Csr>,
    stream: &[Query],
    max_batch: usize,
    capacity: usize,
    skew_factor: u32,
    sims: &mut [SimClock],
) -> Costs {
    let mut expect = Costs::ZERO;
    for batch in stream.chunks(max_batch) {
        let n = batch.len();
        let grain = n.div_ceil(SHARDS);
        expect.sym_ops += n as u64 * ROUTE_HASH_OPS; // routing scan
        expect.asym_reads += n as u64 * QUERY_WORDS; // per-shard input scans
        let mut group_sizes = [0usize; SHARDS];
        for &q in batch {
            group_sizes[replay_owner(q)] += 1;
        }
        let fallback = *group_sizes.iter().max().unwrap() > skew_factor as usize * grain;
        // Split bookkeeping: s chunks under affinity, one per grain-sized
        // slice under the contiguous fallback.
        let chunks = if fallback {
            shard_chunks(n, SHARDS)
        } else {
            SHARDS
        };
        expect.sym_ops += chunks as u64 - 1;
        for (j, &q) in batch.iter().enumerate() {
            let sim = &mut sims[if fallback { j / grain } else { replay_owner(q) }];
            let mut led = Ledger::new(OMEGA);
            let mut memo = |sim: &mut SimClock, led: &mut Ledger, key: SimKey| {
                expect.asym_reads += CACHE_PROBE_READS;
                if sim.probe(key) {
                    expect.sym_ops += CLOCK_TOUCH_OPS;
                    return;
                }
                match key {
                    SimKey::Comp(x) => {
                        server1.conn_handle().component(led, x);
                    }
                    SimKey::Pred(k) => {
                        server1.bicon_handle().unwrap().answer_key(led, k);
                    }
                }
                let swept = sim.fill(key, capacity);
                expect.sym_ops += swept * CLOCK_SWEEP_OPS;
                expect.asym_writes += CACHE_INSERT_WRITES;
            };
            match q {
                Query::Component(v) => memo(sim, &mut led, SimKey::Comp(v)),
                Query::Connected(u, v) => {
                    memo(sim, &mut led, SimKey::Comp(u));
                    memo(sim, &mut led, SimKey::Comp(v));
                }
                Query::TwoEdgeConnected(u, v) => memo(
                    sim,
                    &mut led,
                    SimKey::Pred(BiconnQueryKey::two_edge_connected(u, v)),
                ),
                Query::Biconnected(u, v) => memo(
                    sim,
                    &mut led,
                    SimKey::Pred(BiconnQueryKey::biconnected(u, v)),
                ),
            }
            expect += led.costs();
        }
    }
    expect
}

#[test]
fn affinity_clock_contract_exact_cold_then_warm() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    // Narrow range => repetition; small capacity => real evictions.
    let stream = mixed_stream(120, 260, 0xAF1);
    let (max_batch, capacity, skew) = (64usize, 24usize, 4u32);
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(max_batch)
            .max_queue(10_000)
            .cache_capacity(capacity)
            .skew_factor(skew)
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

    let mut sims: Vec<SimClock> = (0..SHARDS).map(|_| SimClock::default()).collect();
    let expect_cold =
        replay_affinity_clock(&server1, &stream, max_batch, capacity, skew, &mut sims);
    assert_eq!(cold.costs(), expect_cold, "cold-pass formula mismatch");

    let stats = srv.cache_stats();
    assert!(stats.hits > 0, "repetitive stream must hit even cold");
    assert!(stats.evictions > 0, "capacity pressure must evict");
    assert_eq!(
        cold.costs().asym_writes,
        stats.inserts * CACHE_INSERT_WRITES,
        "cache fills are the only writes, evictions included"
    );

    // Warm pass over the same stream and surviving CLOCK state.
    let mut warm = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut warm, q).unwrap();
    }
    srv.drain(&mut warm);
    assert_eq!(srv.take_ready().len(), stream.len());

    let expect_warm =
        replay_affinity_clock(&server1, &stream, max_batch, capacity, skew, &mut sims);
    assert_eq!(warm.costs(), expect_warm, "warm-pass formula mismatch");
    let warm_stats = srv.cache_stats();
    assert!(
        warm_stats.hits > stats.hits,
        "warm pass must add hits on surviving entries"
    );
}

#[test]
fn affinity_clock_bit_identical_across_parallelism() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let stream = mixed_stream(n as u32, 300, 0xD1CE);
    let run = |mut led: Ledger| {
        let mut srv = streaming_server(
            &conn,
            &bicon,
            AdmissionPolicy::builder()
                .max_batch(32)
                .max_queue(64)
                .cache_capacity(16) // small: evictions exercised
                .skew_factor(4)
                .build(),
        );
        for &q in &stream {
            srv.submit(&mut led, q).unwrap();
        }
        srv.drain(&mut led);
        let answers: Vec<(u64, _)> = srv
            .take_ready()
            .into_iter()
            .map(|(t, a)| (t.id(), a))
            .collect();
        let s = srv.cache_stats();
        (
            answers,
            (s.hits, s.misses, s.inserts, s.evictions, s.entries),
            led.costs(),
            led.depth(),
            led.sym_peak(),
        )
    };
    let par = run(Ledger::new(OMEGA));
    let seq = run(Ledger::sequential(OMEGA));
    assert_eq!(
        par, seq,
        "affinity+CLOCK not bit-identical across parallelism"
    );
}

#[test]
fn capacity_zero_bypasses_cache_even_under_affinity_clock() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let stream = mixed_stream(n as u32, 120, 0xCAFE);
    let max_batch = 40usize;
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(max_batch)
            .max_queue(10_000)
            .cache_capacity(0)
            .skew_factor(4)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), stream.len());
    let stats = srv.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.inserts, stats.evictions),
        (0, 0, 0, 0),
        "capacity 0 must not touch any cache machinery"
    );

    // Nothing to hit => routing is forced contiguous and the dispatch
    // charges exactly the plain sharded batch path.
    let sharded = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);
    let mut expect = Ledger::new(OMEGA);
    for chunk in stream.chunks(max_batch) {
        sharded.serve(&mut expect, chunk);
    }
    assert_eq!(led.costs(), expect.costs());
    assert_eq!(led.depth(), expect.depth());
}

#[test]
fn capacity_one_churns_in_place_and_stays_correct() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let stream = mixed_stream(60, 200, 0x01E);
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(32)
            .max_queue(64)
            .cache_capacity(1)
            .skew_factor(4)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    let delivered = srv.take_ready();
    assert_eq!(delivered.len(), stream.len());

    let mut total_entries = 0;
    for shard in 0..SHARDS {
        let s = srv.shard_cache_stats(shard);
        assert!(s.entries <= 1, "shard {shard} exceeds capacity 1");
        assert_eq!(
            s.evictions,
            s.inserts - s.entries,
            "every fill past the first evicts the lone entry (shard {shard})"
        );
        total_entries += s.entries;
    }
    assert!(total_entries > 0, "something must be resident");

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

#[test]
fn adversarial_churn_all_distinct_keys_hit_rate_zero() {
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    // Every key distinct: one Component query per vertex, no repeats.
    let stream: Vec<Query> = (0..n).map(Query::Component).collect();
    let capacity = 8usize;
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(64)
            .max_queue(10_000)
            .cache_capacity(capacity)
            .skew_factor(4)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), stream.len());

    let stats = srv.cache_stats();
    assert_eq!(stats.hits, 0, "all-distinct churn can never hit");
    assert_eq!(stats.hit_ratio(), 0.0);
    assert_eq!(stats.misses, n as u64);
    assert_eq!(stats.inserts, n as u64, "CLOCK fills on every miss");
    assert_eq!(
        stats.evictions,
        stats.inserts - stats.entries,
        "every fill past residency evicts exactly one entry"
    );
    // Never-referenced entries fall to a single-slot sweep, so the cache's
    // whole symmetric-op bill is one sweep op per eviction (plus nothing
    // for touches: there are no hits).
    assert_eq!(
        led.costs().asym_writes,
        stats.inserts * CACHE_INSERT_WRITES,
        "fills are the only writes under churn too"
    );
}

#[test]
fn skew_fallback_charges_contiguous_plus_routing_scan() {
    let g = test_graph();
    let n = g.n();
    let pri = Priorities::random(n, 11);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    // Every query shares one routing key => one owner group holds the
    // whole batch => skew_factor 1 trips the fallback on every batch.
    let stream: Vec<Query> = (0..150).map(|_| Query::Component(7)).collect();
    let (max_batch, capacity, skew) = (50usize, 64usize, 1u32);
    let mut srv = streaming_server(
        &conn,
        &bicon,
        AdmissionPolicy::builder()
            .max_batch(max_batch)
            .max_queue(10_000)
            .cache_capacity(capacity)
            .skew_factor(skew)
            .build(),
    );
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), stream.len());

    let server1 = ShardedServer::new(&conn, 1).with_biconnectivity(&bicon);
    let mut sims: Vec<SimClock> = (0..SHARDS).map(|_| SimClock::default()).collect();
    let expect = replay_affinity_clock(&server1, &stream, max_batch, capacity, skew, &mut sims);
    assert_eq!(
        led.costs(),
        expect,
        "fallback must charge contiguous dispatch + the routing scan"
    );
    // Contiguous chunks of one key: every shard misses once, then hits.
    let stats = srv.cache_stats();
    assert_eq!(
        (stats.misses, stats.inserts),
        (SHARDS as u64, SHARDS as u64)
    );
    assert!(
        led.depth() >= stream.len() as u64 * ROUTE_HASH_OPS,
        "the routing scan is sequential depth"
    );
}
