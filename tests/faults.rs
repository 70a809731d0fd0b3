//! The fault-injection, panic-isolation, and recovery contracts of PR 6:
//!
//! 1. **the acceptance claim** — a seeded 1%-per-shard panic plan on the
//!    94%-hot streaming workload still answers 100% of submitted queries,
//!    delivers tickets in submission order, and charges bit-identical
//!    costs on repeated runs (the plan is a pure function of the seed),
//!    while a crash-on-first-fault server replaying the same plan would
//!    answer strictly less than 100%;
//! 2. a fault plan with every knob at zero charges **bit-identically** to
//!    no plan at all — the hook is free when disabled;
//! 3. the circuit breaker lifecycle: a shard that panics on every
//!    dispatch trips after the threshold, is excluded from routing while
//!    open, re-enters as a half-open probe after the cooldown, and
//!    re-trips on probe failure — while every query is still answered;
//! 4. an intermittently-failing shard is eventually *restored*: a
//!    successful half-open probe closes the breaker again;
//! 5. cache-lock poisoning (a panic thrown while holding the shard-cache
//!    mutex) is recovered — poison cleared, cache reset cold, counter
//!    incremented — instead of cascading `PoisonError` panics;
//! 6. `Overflow::Shed` rejects at the `max_queue` bound with a typed
//!    `ServeError::Overloaded` *before* a ticket is issued, so shed
//!    traffic leaves ticketing dense and delivery in order;
//! 7. a randomized interleaving of submits, partial flushes, early
//!    consumption, and fault plans never reorders or drops a ticket, and
//!    every delivered answer matches the fault-free reference;
//! 8. the breaker-degraded route is priced exactly: with one breaker
//!    open, a dispatch over the surviving shards answers and charges
//!    exactly what a survivors-count `ShardedServer::serve` of the same
//!    batch does — same answers, `Costs` and depth;
//! 9. a query naming a vertex outside the graph — any endpoint, any
//!    kind — is a typed `ServeError::UnsupportedQuery`, never a panic:
//!    admission refuses it before a ticket is issued, and the batch path
//!    fails its slot only.
//!
//! CI runs this file under `WEC_THREADS ∈ {1, 2, 8, 16}`: every charge
//! and every fault decision must be schedule-independent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wec::asym::{Costs, Ledger};
use wec::biconnectivity::oracle::build_biconnectivity_oracle;
use wec::biconnectivity::BiconnectivityOracle;
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::core::BuildOpts;
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::serve::{
    shard_chunks, AdmissionPolicy, BreakerState, FaultPlan, FullStreamingServer, Overflow, Query,
    RecoveryPolicy, RobustnessStats, ServeError, ServeResult, ShardedServer, StreamingServer,
    Ticket, QUERY_WORDS,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;

/// Injected panics are expected here; keep `cargo test` output readable
/// while still reporting genuine (assertion) panics.
fn silence_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected"));
            if !injected {
                default(info);
            }
        }));
    });
}

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

/// The PR-4 acceptance workload: ~94.1% of queries hit a 64-key hot set,
/// the rest are one-shot junk spread over the remaining vertices.
fn hot_stream(n: u32, len: usize) -> Vec<Query> {
    const HOT: u32 = 64;
    let mut v = 0x94u32;
    let mut step = move || {
        v = v.wrapping_mul(2654435761).wrapping_add(12345);
        v
    };
    (0..len)
        .map(|_| {
            let r = step();
            let x = step();
            if r % 256 < 241 {
                Query::Component(x % HOT)
            } else {
                Query::Component(HOT + x % (n - HOT))
            }
        })
        .collect()
}

/// Deterministic mixed stream over a narrow range — same generator family
/// as the other serving tests.
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

/// Run `stream` through a streaming server configured by `policy`,
/// `plan`, and `recovery`; return the delivered `(ticket, result)` pairs
/// (in delivery order), the total charged costs, and the robustness
/// counters.
fn run_stream(
    conn: &ConnectivityOracle<'_, Csr>,
    bicon: &BiconnectivityOracle<'_, Csr>,
    policy: AdmissionPolicy,
    plan: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    stream: &[Query],
) -> (Vec<(Ticket, ServeResult)>, Costs, RobustnessStats) {
    let mut srv = streaming_server(conn, bicon, policy).with_recovery(recovery);
    if let Some(p) = plan {
        srv = srv.with_fault_plan(p);
    }
    let mut led = Ledger::new(OMEGA);
    for &q in stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    let out = srv.take_ready();
    (out, led.costs(), srv.robustness_stats())
}

/// Delivered tickets must be exactly `0, 1, 2, …` — dense and in
/// submission order — and every slot must carry a result.
fn assert_in_order(out: &[(Ticket, ServeResult)], expect_len: usize) {
    assert_eq!(out.len(), expect_len, "every submitted query is delivered");
    for (i, (t, _)) in out.iter().enumerate() {
        assert_eq!(t.id(), i as u64, "tickets delivered in submission order");
    }
}

/// **Acceptance criterion of PR 6**: a seeded 1% per-(dispatch, shard)
/// panic plan — with retry-ladder failures layered on top — on the
/// 94%-hot workload answers **100%** of queries, in ticket order, with
/// every delivered answer equal to the fault-free reference, and charges
/// bit-identical costs when the identical run is repeated.
#[test]
fn seeded_panic_plan_answers_everything_in_order() {
    silence_panics();
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let stream = hot_stream(n, 4000);

    let policy = || {
        AdmissionPolicy::builder()
            .max_batch(64)
            .max_queue(64)
            .cache_capacity(32)
            .skew_factor(4)
            .build()
    };
    let plan = FaultPlan::seeded(0xF417)
        .with_panic_per_mille(10)
        .with_retry_fail_per_mille(250);

    let run = || {
        run_stream(
            &conn,
            &bicon,
            policy(),
            Some(plan),
            RecoveryPolicy::default(),
            &stream,
        )
    };
    let (out, costs, stats) = run();
    assert_in_order(&out, stream.len());

    // The plan actually fired — otherwise this test proves nothing.
    assert!(stats.panics_caught > 0, "1% plan must hit a 63-batch run");
    assert_eq!(stats.shards_quarantined, stats.panics_caught);
    assert!(
        stats.degraded_answers > 0,
        "recovered queries were recomputed"
    );
    assert!(
        stats.retries >= stats.panics_caught,
        "every recovery charges at least one backoff rung"
    );

    // The crash baseline: a crash-on-first-fault server answers only the
    // batches dispatched before the first firing (dispatch, shard)
    // decision. Batches are exactly `max_batch` wide (`max_queue ==
    // max_batch` under inline dispatch), so dispatch `d` covers queries
    // from `(d − 1) · 64`; the first panic landing before the last
    // dispatch ends makes that server answer strictly less than 1.0.
    let dispatches = stream.len().div_ceil(64) as u64;
    let first_fault = (1..=dispatches)
        .find(|&d| (0..SHARDS as u64).any(|s| plan.injects_panic(d, s)))
        .expect("the 10‰ plan fires within the run");
    let crash_answered = (first_fault - 1) as usize * 64;
    assert!(
        crash_answered < stream.len(),
        "crash-on-first-fault completeness {crash_answered}/{} must be < 1.0",
        stream.len()
    );

    // Every delivered answer matches the fault-free reference server.
    let reference = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);
    let mut scratch = Ledger::new(OMEGA);
    for (i, (_, r)) in out.iter().enumerate() {
        let want = reference.try_answer_one(&mut scratch, stream[i]);
        assert_eq!(*r, want, "query {i} answered correctly despite faults");
    }

    // Determinism: the identical seeded run charges bit-identical costs
    // and reproduces the exact same fault history.
    let (out2, costs2, stats2) = run();
    assert_eq!(costs, costs2, "seeded fault runs are bit-reproducible");
    assert_eq!(stats, stats2, "fault history is a pure function of seed");
    assert_eq!(out, out2, "delivered stream is identical");
}

/// A plan with every knob at zero — and no plan at all — charge
/// bit-identically: the fault hook costs nothing when disabled.
#[test]
fn zero_knob_plan_charges_identically_to_no_plan() {
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let stream = mixed_stream(n, 900, 0xBEEF);

    let policy = || {
        AdmissionPolicy::builder()
            .max_batch(48)
            .max_queue(48)
            .cache_capacity(64)
            .skew_factor(4)
            .build()
    };
    let quiet = FaultPlan::seeded(123);
    assert!(!quiet.injects_anything());

    let recovery = RecoveryPolicy::default();
    let (out_none, costs_none, stats_none) =
        run_stream(&conn, &bicon, policy(), None, recovery, &stream);
    let (out_quiet, costs_quiet, stats_quiet) =
        run_stream(&conn, &bicon, policy(), Some(quiet), recovery, &stream);

    assert_eq!(costs_none, costs_quiet, "disabled plan is cost-free");
    assert_eq!(out_none, out_quiet, "and answer-identical");
    assert_eq!(stats_none, RobustnessStats::default(), "nothing happened");
    assert_eq!(stats_quiet, RobustnessStats::default());
}

/// Breaker lifecycle against a shard that panics on **every** dispatch:
/// trips at the threshold, is excluded while open (surviving shards keep
/// answering), re-enters as a half-open probe after the cooldown, and
/// re-trips when the probe fails — with 100% of queries still answered
/// in order.
#[test]
fn breaker_trips_excludes_and_reprobes_a_dead_shard() {
    silence_panics();
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let stream = hot_stream(n, 1200);

    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(16)
        .cache_capacity(32)
        .skew_factor(4)
        .build();
    let recovery = RecoveryPolicy::default()
        .with_breaker_threshold(2)
        .with_breaker_cooldown(3);
    // Shard 0 dies on every dispatch it participates in; other shards
    // never fault.
    let plan = FaultPlan::seeded(7)
        .with_panic_per_mille(1000)
        .with_target_shard(0);

    let mut srv = streaming_server(&conn, &bicon, policy)
        .with_recovery(recovery)
        .with_fault_plan(plan);
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    let out = srv.take_ready();
    assert_in_order(&out, stream.len());
    assert!(
        out.iter().all(|(_, r)| r.is_ok()),
        "component queries all answerable"
    );

    let stats = srv.robustness_stats();
    let h0 = srv.shard_health(0);
    assert!(
        h0.trips >= 2,
        "tripped, probed, re-tripped (got {})",
        h0.trips
    );
    assert!(
        matches!(h0.state, BreakerState::Open | BreakerState::HalfOpen),
        "a 100%-dead shard never closes again"
    );
    assert!(stats.half_open_probes >= 1, "cooldown re-probed the shard");
    assert_eq!(stats.breaker_trips, h0.trips, "only shard 0 ever trips");
    assert_eq!(stats.shards_restored, 0, "probe failure never restores");
    for s in 1..SHARDS {
        let h = srv.shard_health(s);
        assert_eq!(h.state, BreakerState::Closed, "shard {s} stays healthy");
        assert_eq!(h.trips, 0);
    }
    // While the breaker was open the batch partitioned over the three
    // survivors; the quarantine count bounds how often shard 0 actually
    // ran (and died). Far fewer than the dispatch count ⇒ exclusion
    // worked.
    assert!(
        stats.shards_quarantined < srv.dispatches(),
        "open breaker keeps the dead shard out of most dispatches \
         ({} quarantines over {} dispatches)",
        stats.shards_quarantined,
        srv.dispatches()
    );
}

/// The degraded route partitions contiguously over the survivors: at
/// capacity 0, with shard 0's breaker open, a 4-shard dispatch must equal
/// a 3-shard `serve` of the same batch. Size 4 yields 2 chunks of grain 2
/// for 3 survivors, so a router emitting one chunk per survivor shows up
/// as one extra bookkeeping op.
#[test]
fn breaker_degraded_route_charges_a_survivors_serve() {
    silence_panics();
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    for len in [4usize, 29] {
        // All four query kinds, round-robin.
        let batch: Vec<Query> = (0..len as u32)
            .map(|i| {
                let (a, b) = ((i * 7919) % n, (i * 104_729 + 13) % n);
                match i % 4 {
                    0 => Query::Connected(a, b),
                    1 => Query::Component(a),
                    2 => Query::TwoEdgeConnected(a, b),
                    _ => Query::Biconnected(a, b),
                }
            })
            .collect();
        let policy = AdmissionPolicy::builder()
            .max_batch(len)
            .max_queue(len + 1)
            .cache_capacity(0)
            .build();
        let recovery = RecoveryPolicy::default()
            .with_breaker_threshold(1)
            .with_breaker_cooldown(1_000);
        let plan = FaultPlan::seeded(7)
            .with_panic_per_mille(1000)
            .with_target_shard(0);
        let mut srv = streaming_server(&conn, &bicon, policy)
            .with_recovery(recovery)
            .with_fault_plan(plan);

        // Dispatch 1 trips shard 0's breaker.
        let mut led = Ledger::new(OMEGA);
        for &q in &batch {
            srv.submit(&mut led, q).unwrap();
        }
        srv.drain(&mut led);
        assert_in_order(&srv.take_ready(), len);
        assert_eq!(srv.shard_health(0).state, BreakerState::Open, "len {len}");

        // Dispatch 2 routes around it, on a fresh ledger.
        let mut led = Ledger::new(OMEGA);
        for &q in &batch {
            srv.submit(&mut led, q).unwrap();
        }
        srv.drain(&mut led);
        let got: Vec<ServeResult> = srv.take_ready().into_iter().map(|(_, r)| r).collect();
        assert_eq!(srv.robustness_stats().shards_quarantined, 1, "len {len}");

        let survivors = ShardedServer::new(&conn, SHARDS - 1).with_biconnectivity(&bicon);
        let mut expect = Ledger::new(OMEGA);
        let want = survivors.serve(&mut expect, &batch);
        assert!(want.iter().all(Result::is_ok));
        assert_eq!(got, want, "answers (len {len})");
        assert_eq!(led.costs(), expect.costs(), "costs (len {len})");
        assert_eq!(led.depth(), expect.depth(), "depth (len {len})");
    }
}

/// An intermittently-failing shard is eventually restored: some half-open
/// probe lands on a dispatch where the plan does not fire, the probe
/// serves its chunk, and the breaker closes again.
#[test]
fn half_open_probe_success_restores_the_shard() {
    silence_panics();
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let stream = hot_stream(n, 2000);

    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(16)
        .cache_capacity(32)
        .skew_factor(4)
        .build();
    let recovery = RecoveryPolicy::default()
        .with_breaker_threshold(2)
        .with_breaker_cooldown(2);
    // Shard 0 fails roughly a third of its dispatches: streaks trip the
    // breaker, and quiet stretches let probes succeed.
    let plan = FaultPlan::seeded(21)
        .with_panic_per_mille(350)
        .with_target_shard(0);

    let mut srv = streaming_server(&conn, &bicon, policy)
        .with_recovery(recovery)
        .with_fault_plan(plan);
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_in_order(&srv.take_ready(), stream.len());

    let stats = srv.robustness_stats();
    assert!(stats.breaker_trips >= 1, "35% failure must streak past 2");
    assert!(
        stats.shards_restored >= 1,
        "a quiet probe must close the breaker again \
         (trips {}, probes {}, restored {})",
        stats.breaker_trips,
        stats.half_open_probes,
        stats.shards_restored
    );
}

/// A panic thrown while holding the shard-cache mutex genuinely poisons
/// the lock; quarantine must clear the poison, reset the cache cold, and
/// count the recovery — never propagate a `PoisonError`.
#[test]
fn poisoned_cache_lock_is_cleared_and_counted() {
    silence_panics();
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let stream = hot_stream(n, 600);

    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(16)
        .cache_capacity(32)
        .skew_factor(4)
        .build();
    let plan = FaultPlan::seeded(5)
        .with_poison_per_mille(120)
        .with_target_shard(1);

    let mut srv = streaming_server(&conn, &bicon, policy)
        .with_recovery(RecoveryPolicy::default().with_breaker_threshold(0))
        .with_fault_plan(plan);
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_in_order(&srv.take_ready(), stream.len());

    let stats = srv.robustness_stats();
    assert!(stats.panics_caught >= 1, "poison plan fired");
    assert_eq!(
        stats.lock_poison_recoveries, stats.panics_caught,
        "every poison panic held the guard, so every quarantine cleared poison"
    );
    // Exact accounting across quarantines: a poison fault fires before
    // any probe, so the retired-plus-current cache history holds exactly
    // one probe per query served through the cached path — everything
    // except the degraded recomputes.
    let total = srv.cache_stats();
    assert_eq!(
        total.hits + total.misses,
        stream.len() as u64 - stats.degraded_answers,
        "cache counters stay monotone and exact across quarantines"
    );
    // And the recovered lock is usable: this would wedge on poison.
    let _ = srv.shard_cache_stats(1);
}

/// **Satellite 3**: `Overflow::Shed` rejects at the bound with a typed
/// error and *no ticket*, so the accepted tickets stay dense `0..k` and
/// delivery order is untouched by any amount of shed traffic.
#[test]
fn shed_overflow_rejects_without_consuming_tickets() {
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);

    let policy = AdmissionPolicy::builder()
        .max_batch(64)
        .max_queue(4)
        .overflow(Overflow::Shed)
        .build();
    let mut srv = streaming_server(&conn, &bicon, policy);
    let mut led = Ledger::new(OMEGA);

    let stream = mixed_stream(n, 24, 0x0517);
    let mut accepted: Vec<(Ticket, Query)> = Vec::new();
    let mut shed = 0usize;
    for (i, &q) in stream.iter().enumerate() {
        match srv.submit(&mut led, q) {
            Ok(t) => accepted.push((t, q)),
            Err(e) => {
                assert_eq!(
                    e,
                    ServeError::Overloaded {
                        queue_len: 4,
                        max_queue: 4
                    },
                    "typed rejection carries the observed depth and bound"
                );
                shed += 1;
            }
        }
        // Drain every 7th submission so acceptance resumes mid-stream.
        if i % 7 == 6 {
            srv.drain(&mut led);
        }
    }
    assert!(shed > 0, "the bound was actually hit");
    assert_eq!(srv.robustness_stats().sheds, shed as u64);

    srv.drain(&mut led);
    let out = srv.take_ready();
    assert_eq!(
        out.len(),
        accepted.len(),
        "exactly the accepted set delivers"
    );
    let reference = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);
    let mut scratch = Ledger::new(OMEGA);
    for (i, ((t, r), (t_acc, q))) in out.iter().zip(&accepted).enumerate() {
        assert_eq!(t.id(), i as u64, "accepted tickets are dense from 0");
        assert_eq!(t.id(), t_acc.id(), "delivery order = acceptance order");
        assert_eq!(*r, reference.try_answer_one(&mut scratch, *q));
    }
}

/// **Satellite 4**: randomized interleavings of submits, partial flushes,
/// early consumption (`try_next`/`take_ready`), shed overflow, and seeded
/// fault plans — across many RNG seeds — never break the ticket
/// contract: delivered ids are exactly `0..accepted`, strictly in order,
/// and every answer equals the fault-free reference.
#[test]
fn ticket_order_survives_random_interleavings_of_faults() {
    silence_panics();
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let reference = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);

    for case in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0xFA171E ^ case);
        let overflow = if rng.gen_bool(0.5) {
            Overflow::Shed
        } else {
            Overflow::DispatchInline
        };
        let policy = AdmissionPolicy::builder()
            .max_batch(rng.gen_range(1..24))
            .max_queue(rng.gen_range(2..32))
            .cache_capacity([0, 8, 64][rng.gen_range(0..3)])
            .skew_factor([0, 4][rng.gen_range(0..2)])
            .overflow(overflow)
            .build();
        let plan = FaultPlan::seeded(rng.gen::<u64>())
            .with_panic_per_mille(rng.gen_range(0..80))
            .with_poison_per_mille(rng.gen_range(0..40))
            .with_retry_fail_per_mille(rng.gen_range(0..500));
        let recovery = RecoveryPolicy::default()
            .with_breaker_threshold(rng.gen_range(0..4))
            .with_breaker_cooldown(rng.gen_range(1..6));

        let mut srv = streaming_server(&conn, &bicon, policy)
            .with_recovery(recovery)
            .with_fault_plan(plan);
        let mut led = Ledger::new(OMEGA);
        let stream = mixed_stream(n, 300, 0x600D + case as u32);
        let mut accepted: Vec<Query> = Vec::new();
        let mut delivered: Vec<(Ticket, ServeResult)> = Vec::new();
        for &q in &stream {
            if let Ok(_t) = srv.submit(&mut led, q) {
                accepted.push(q);
            }
            match rng.gen_range(0..8u32) {
                0 => {
                    srv.flush(&mut led);
                }
                1 => delivered.extend(srv.take_ready()),
                2 => delivered.extend(srv.try_next()),
                3 => {
                    srv.drain(&mut led);
                }
                _ => {}
            }
        }
        srv.drain(&mut led);
        delivered.extend(srv.take_ready());

        assert_eq!(
            delivered.len(),
            accepted.len(),
            "case {case}: every accepted query is delivered exactly once"
        );
        let mut scratch = Ledger::new(OMEGA);
        for (i, (t, r)) in delivered.iter().enumerate() {
            assert_eq!(t.id(), i as u64, "case {case}: strict ticket order");
            let want = reference.try_answer_one(&mut scratch, accepted[i]);
            assert_eq!(*r, want, "case {case}: answer matches reference");
        }
    }
}

/// The batch path types an out-of-range vertex instead of indexing past
/// the graph: every slot naming one — any endpoint, all four kinds —
/// holds `Err(UnsupportedQuery)`, the rest of the batch answers as one
/// by one, and the rejected slots charge only their share of the input
/// scan.
#[test]
fn out_of_range_vertices_fail_their_batch_slot_only() {
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let server = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);

    // (query, whether every vertex it names is in range)
    let cases = [
        (Query::Component(0), true),
        (Query::Component(n), false),
        (Query::Connected(1, n + 3), false),
        (Query::Connected(2, 9), true),
        (Query::TwoEdgeConnected(u32::MAX, 4), false),
        (Query::Biconnected(5, n), false),
        (Query::Biconnected(6, 7), true),
        (Query::TwoEdgeConnected(8, 10), true),
    ];
    let batch: Vec<Query> = cases.iter().map(|&(q, _)| q).collect();
    let mut led = Ledger::new(OMEGA);
    let got = server.serve(&mut led, &batch);
    let mut one = Ledger::new(OMEGA);
    for (&(q, in_range), r) in cases.iter().zip(&got) {
        let before = one.costs();
        assert_eq!(*r, server.try_answer_one(&mut one, q), "{q:?}");
        if in_range {
            assert!(r.is_ok(), "{q:?} still answers");
        } else {
            assert_eq!(*r, Err(ServeError::UnsupportedQuery(q)), "{q:?}");
            assert_eq!(one.costs(), before, "{q:?}: rejection charges nothing");
        }
    }
    let mut expect = one.costs();
    expect.asym_reads += batch.len() as u64 * QUERY_WORDS;
    expect.sym_ops += shard_chunks(batch.len(), SHARDS) as u64 - 1;
    assert_eq!(led.costs(), expect);
}

/// Admission refuses a query naming a vertex outside the graph before a
/// ticket is issued, like a shed: nothing is charged, nothing is queued,
/// and the next accepted submission takes the next consecutive ticket.
/// A predicate with one bad endpoint is refused the same way.
#[test]
fn out_of_range_submissions_are_rejected_without_consuming_tickets() {
    let g = test_graph();
    let n = g.n() as u32;
    let pri = Priorities::random(n as usize, 11);
    let verts: Vec<Vertex> = (0..n).collect();
    let (conn, bicon) = build_oracles(&g, &pri, &verts);
    let mut srv = streaming_server(&conn, &bicon, AdmissionPolicy::builder().build());
    let mut led = Ledger::new(OMEGA);

    let good = [
        Query::Component(3),
        Query::Connected(0, n - 1),
        Query::Biconnected(1, 2),
    ];
    let bad = [
        Query::Component(n),
        Query::Connected(n + 1, 0),
        Query::TwoEdgeConnected(4, u32::MAX),
        Query::Biconnected(n, 5),
    ];
    let mut accepted = Vec::new();
    for (i, &q) in good.iter().enumerate() {
        let t = srv.submit(&mut led, q).expect("in-range query admits");
        assert_eq!(t.id(), i as u64, "tickets stay consecutive");
        accepted.push(q);
        if let Some(&b) = bad.get(i) {
            let before = (led.costs(), srv.queue_len(), srv.undelivered());
            assert_eq!(
                srv.submit(&mut led, b),
                Err(ServeError::UnsupportedQuery(b))
            );
            assert_eq!(
                (led.costs(), srv.queue_len(), srv.undelivered()),
                before,
                "{b:?}: refused before any charge or ticket"
            );
        }
    }
    let last = bad[good.len()];
    assert_eq!(
        srv.submit(&mut led, last),
        Err(ServeError::UnsupportedQuery(last))
    );

    srv.drain(&mut led);
    let out = srv.take_ready();
    assert_eq!(
        out.len(),
        accepted.len(),
        "exactly the accepted set delivers"
    );
    let reference = ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon);
    let mut scratch = Ledger::new(OMEGA);
    for (i, ((t, r), &q)) in out.iter().zip(&accepted).enumerate() {
        assert_eq!(t.id(), i as u64);
        assert_eq!(*r, reference.try_answer_one(&mut scratch, q));
    }
}
