//! Epoch-snapshot serving: the PR-7 mutation contract, exactly:
//!
//! 1. **submission-epoch semantics** — a ticket always resolves with the
//!    answer of the graph version it was submitted against: entries in
//!    flight across an install dispatch as stragglers through their own
//!    epoch's retained overlay, and old overlays retire only once
//!    delivery passes the install boundary;
//! 2. **dynamic correctness** — across several insertion batches, every
//!    connectivity answer matches an independent union-find reference
//!    over base edges plus the applied deltas;
//! 3. **priced invalidation** — an install charges exactly
//!    `EPOCH_INSTALL_OPS` plus `swept · INVALIDATE_SCAN_OPS` operations
//!    and `removed · INVALIDATE_ENTRY_WRITES` asymmetric writes, where
//!    `removed` is hand-computed from the new overlay (stale = cached
//!    component id remapped), and the warm replay after an install hits
//!    exactly the surviving entries;
//! 4. **thread invariance** — a full submit/stage/install/drain sequence
//!    charges bit-identical `Costs`, depth, and symmetric peak on
//!    parallel and sequential ledgers (CI re-runs this file across the
//!    `WEC_THREADS` matrix);
//! 5. **composition** — several staged batches fold into one install, and
//!    an empty delta is a free no-op;
//! 6. **base-graph predicates** — biconnectivity-class queries keep base
//!    graph semantics across installs (the documented limitation of the
//!    insertion-only mutation model).
//! 7. **versioned store** — under random interleavings of stage, install
//!    and retirement, every live epoch of the `OverlayStore` resolves
//!    exactly like a per-epoch min-id union-find, each stage writes
//!    exactly the mappings it changes plus one reverse-index move per
//!    losing class, retirement keeps only visible versions, and the
//!    charges are thread-invariant;
//! 8. **installs never block** — in an auto-dispatching stream with
//!    deltas staged mid-stream and installed with tickets still queued,
//!    epochs install, answers flow while a delta is staged, and every
//!    ticket is delivered in order with its submission epoch's answer.

use std::collections::BTreeMap;
use wec::asym::{
    Costs, Ledger, EPOCH_INSTALL_OPS, INVALIDATE_ENTRY_WRITES, INVALIDATE_SCAN_OPS,
    OVERLAY_ENTRY_WRITES, OVERLAY_INDEX_WRITES, OVERLAY_LOOKUP_READS,
};
use wec::baseline::UnionFind;
use wec::biconnectivity::oracle::build_biconnectivity_oracle;

use wec::connectivity::{
    ComponentId, ConnectivityOracle, GraphDelta, OracleBuildOpts, OverlayStore,
};
use wec::core::BuildOpts;
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::serve::{AdmissionPolicy, Answer, Query, ShardedServer, StreamingServer};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;

/// Three disjoint paths: components [0, 20), [20, 40), [40, 60). Deltas
/// merge them in controlled steps.
const BLOCK: u32 = 20;
const BLOCKS: u32 = 3;
const N: u32 = BLOCK * BLOCKS;

fn test_graph() -> Csr {
    gen::disjoint_union(&[
        &gen::path(BLOCK as usize),
        &gen::path(BLOCK as usize),
        &gen::path(BLOCK as usize),
    ])
}

/// The same base graph as an edge list, for the union-find reference.
fn base_edges() -> Vec<(u32, u32)> {
    let mut e = Vec::new();
    for b in 0..BLOCKS {
        for i in 0..BLOCK - 1 {
            e.push((b * BLOCK + i, b * BLOCK + i + 1));
        }
    }
    e
}

fn build_conn<'g>(
    g: &'g Csr,
    pri: &'g Priorities,
    verts: &'g [Vertex],
) -> ConnectivityOracle<'g, Csr> {
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    ConnectivityOracle::build(&mut led, g, pri, verts, k, 5, OracleBuildOpts::default())
}

/// A no-auto-dispatch policy: batches move only on explicit flush/drain,
/// so tests control exactly which tickets are in flight at an install.
fn manual_policy(cache_capacity: usize) -> AdmissionPolicy {
    AdmissionPolicy::builder()
        .max_batch(256)
        .max_queue(100_000)
        .cache_capacity(cache_capacity)
        .build()
}

fn unwrap_connected(r: &Result<Answer, wec::serve::ServeError>) -> bool {
    match r {
        Ok(Answer::Connected(b)) => *b,
        other => panic!("expected a Connected answer, got {other:?}"),
    }
}

fn unwrap_component(r: &Result<Answer, wec::serve::ServeError>) -> ComponentId {
    match r {
        Ok(Answer::Component(id)) => *id,
        other => panic!("expected a Component answer, got {other:?}"),
    }
}

#[test]
fn stragglers_resolve_with_submission_epoch_answers() {
    let g = test_graph();
    let pri = Priorities::random(g.n(), 7);
    let verts: Vec<Vertex> = (0..N).collect();
    let conn = build_conn(&g, &pri, &verts);
    let mut srv = StreamingServer::new(ShardedServer::new(&conn, SHARDS), manual_policy(1 << 12));
    let mut led = Ledger::new(OMEGA);

    // Ticket 0 submitted under epoch 0, left undispatched across the
    // install: blocks 0 and 1 are separate components at submission time.
    let t0 = srv.submit(&mut led, Query::Connected(0, BLOCK)).unwrap();
    assert_eq!(srv.current_epoch(), 0);

    // Stage and install the bridge while t0 is still queued. Neither step
    // touches the queue: no query ever blocks on an install.
    srv.stage_delta(&mut led, &GraphDelta::from_edges(vec![(BLOCK - 1, BLOCK)]));
    assert_eq!(srv.current_epoch(), 0, "staging leaves the serving epoch");
    assert_eq!(srv.install_staged(&mut led), Some(1));
    assert_eq!(srv.current_epoch(), 1);

    // Ticket 1 asks the same question under epoch 1.
    let t1 = srv.submit(&mut led, Query::Connected(0, BLOCK)).unwrap();
    srv.drain(&mut led);

    let out = srv.take_ready();
    assert_eq!((out[0].0, out[1].0), (t0, t1));
    assert!(
        !unwrap_connected(&out[0].1),
        "epoch-0 straggler answers with epoch-0 connectivity"
    );
    assert!(
        unwrap_connected(&out[1].1),
        "epoch-1 submission sees the inserted bridge"
    );

    let stats = srv.epoch_stats();
    assert_eq!(stats.installs, 1);
    assert_eq!(stats.staged_batches, 1);
    assert_eq!(stats.staged_edges, 1);
    assert_eq!(stats.straggler_answers, 1);
    assert_eq!(
        stats.in_flight_at_install, 1,
        "ticket 0 was outstanding at the install"
    );
    assert_eq!(
        srv.live_epochs(),
        vec![1],
        "delivery passed the boundary, epoch 0 retired"
    );
    assert_eq!(srv.epoch_stats().retired_overlays, 1);
}

#[test]
fn mutated_answers_match_dynamic_union_find_reference() {
    let g = test_graph();
    let pri = Priorities::random(g.n(), 11);
    let verts: Vec<Vertex> = (0..N).collect();
    let conn = build_conn(&g, &pri, &verts);
    let mut srv = StreamingServer::new(ShardedServer::new(&conn, SHARDS), manual_policy(1 << 12));
    let mut led = Ledger::new(OMEGA);

    let mut reference = UnionFind::new(N as usize);
    for &(u, v) in &base_edges() {
        reference.union(u, v);
    }

    // Deterministic pair sample spread across all blocks.
    let pairs: Vec<(u32, u32)> = (0..N)
        .map(|i| (i, (i.wrapping_mul(17).wrapping_add(5)) % N))
        .collect();

    let batches: Vec<Vec<(u32, u32)>> = vec![
        vec![(3, BLOCK + 3)],                      // merge blocks 0 and 1
        vec![(BLOCK + 7, 2 * BLOCK + 1), (0, 5)],  // merge in block 2; redundant edge
        vec![(1, 2 * BLOCK + 9), (4, BLOCK + 18)], // already merged: all redundant
    ];

    for batch in batches {
        // Queries submitted *before* the install must answer pre-install
        // connectivity even though they dispatch after it.
        let pre: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| {
                let expect = reference.find(u) == reference.find(v);
                (
                    srv.submit(&mut led, Query::Connected(u, v)).unwrap(),
                    expect,
                )
            })
            .collect();

        let delta = GraphDelta::from_edges(batch.clone());
        srv.apply_delta(&mut led, &delta);
        for &(u, v) in &batch {
            reference.union(u, v);
        }
        srv.drain(&mut led);
        let mut ready = srv.take_ready().into_iter();
        for (t, expect) in pre {
            let (got_t, r) = ready.next().unwrap();
            assert_eq!(got_t, t);
            assert_eq!(unwrap_connected(&r), expect, "pre-install pair {t:?}");
        }

        // Post-install: pair answers and the whole Component partition
        // must match the mutated reference.
        for &(u, v) in &pairs {
            let t = srv.submit(&mut led, Query::Connected(u, v)).unwrap();
            srv.drain(&mut led);
            let (got_t, r) = srv.take_ready().pop().unwrap();
            assert_eq!(got_t, t);
            assert_eq!(
                unwrap_connected(&r),
                reference.find(u) == reference.find(v),
                "post-install pair ({u}, {v})"
            );
        }
        let ids: Vec<ComponentId> = (0..N)
            .map(|v| {
                srv.submit(&mut led, Query::Component(v)).unwrap();
                srv.drain(&mut led);
                unwrap_component(&srv.take_ready().pop().unwrap().1)
            })
            .collect();
        for u in 0..N {
            for v in u + 1..N {
                assert_eq!(
                    ids[u as usize] == ids[v as usize],
                    reference.find(u) == reference.find(v),
                    "partition mismatch at ({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn install_charges_exactly_the_priced_invalidation_sweep() {
    let g = test_graph();
    let pri = Priorities::random(g.n(), 13);
    let verts: Vec<Vertex> = (0..N).collect();
    let conn = build_conn(&g, &pri, &verts);
    let mut srv = StreamingServer::new(ShardedServer::new(&conn, SHARDS), manual_policy(1 << 12));
    let mut led = Ledger::new(OMEGA);

    // Cold pass: memoize every vertex. Capacity is ample, so entries ==
    // distinct vertices and nothing evicts.
    for v in 0..N {
        srv.submit(&mut led, Query::Component(v)).unwrap();
    }
    srv.drain(&mut led);
    srv.take_ready();
    let cold = srv.cache_stats();
    assert_eq!(cold.entries, N as u64);
    assert_eq!(cold.misses, N as u64);

    // Stage on its own ledger (the stage bill is the extend_overlay
    // contract, pinned by the connectivity crate's own tests), then
    // install on a fresh ledger so the sweep bill is isolated.
    let mut stage_led = Ledger::new(OMEGA);
    srv.stage_delta(
        &mut stage_led,
        &GraphDelta::from_edges(vec![(3, BLOCK + 3)]),
    );
    let mut install_led = Ledger::new(OMEGA);
    assert_eq!(srv.install_staged(&mut install_led), Some(1));

    // Hand-compute `removed`: a cached id (epoch-0 canonical, i.e. the
    // oracle's base id) is stale iff the new overlay remaps it.
    let overlay = srv.current_view();
    let mut probe_led = Ledger::new(OMEGA);
    let stale: Vec<bool> = (0..N)
        .map(|v| {
            let id = conn.component(&mut probe_led, v);
            overlay.peek(id) != id
        })
        .collect();
    let removed = stale.iter().filter(|&&s| s).count() as u64;
    assert!(removed > 0, "the merge must remap someone");
    assert!(
        removed < N as u64,
        "the merge must not remap everyone (block 2 is untouched)"
    );

    let swept = cold.entries; // every resident slot is inspected once
    let costs = install_led.costs();
    assert_eq!(
        costs,
        Costs {
            asym_reads: 0,
            asym_writes: removed * INVALIDATE_ENTRY_WRITES,
            sym_ops: EPOCH_INSTALL_OPS + swept * INVALIDATE_SCAN_OPS,
        },
        "install bill = pointer swap + priced sweep, nothing else"
    );

    let stats = srv.epoch_stats();
    assert_eq!(stats.invalidation_swept_slots, swept);
    assert_eq!(stats.invalidated_entries, removed);
    let after = srv.cache_stats();
    assert_eq!(after.invalidations, removed);
    assert_eq!(after.entries, N as u64 - removed);

    // Warm replay: survivors hit, exactly the invalidated vertices miss
    // and refill — each refill resolves through the (non-empty) overlay,
    // charging one extra OVERLAY_LOOKUP_READS on top of the miss cost.
    let mut warm_led = Ledger::new(OMEGA);
    for v in 0..N {
        srv.submit(&mut warm_led, Query::Component(v)).unwrap();
    }
    srv.drain(&mut warm_led);
    srv.take_ready();
    let warm = srv.cache_stats();
    assert_eq!(warm.hits - after.hits, N as u64 - removed, "survivors hit");
    assert_eq!(warm.misses - after.misses, removed, "stale entries refill");
    assert_eq!(warm.entries, N as u64, "cache is whole again");

    // Price the overlay resolutions: re-run the same warm pass on the
    // now-fully-warm cache (all hits), and diff against a pure-hit pass.
    // The difference between the two passes is exactly the `removed`
    // misses' one-by-one costs plus one overlay lookup each; checking the
    // lookup reads alone keeps this robust to per-vertex query costs.
    let mut miss_reads = 0u64;
    for v in (0..N).filter(|&v| stale[v as usize]) {
        let mut one = Ledger::new(OMEGA);
        conn.component(&mut one, v);
        miss_reads += one.costs().asym_reads + OVERLAY_LOOKUP_READS;
    }
    let warm_reads = warm_led.costs().asym_reads;
    // warm pass reads = per-query input scan + per-query probe + miss
    // recompute reads (with their overlay lookups).
    let scan_and_probe = N as u64 * (wec::serve::QUERY_WORDS + wec::serve::CACHE_PROBE_READS);
    assert_eq!(
        warm_reads,
        scan_and_probe + miss_reads,
        "refill reads = miss recompute + one overlay lookup each"
    );
}

#[test]
fn mutation_costs_bit_identical_across_parallelism() {
    let g = test_graph();
    let pri = Priorities::random(g.n(), 17);
    let verts: Vec<Vertex> = (0..N).collect();
    let conn = build_conn(&g, &pri, &verts);

    let run = |mut led: Ledger| {
        let mut srv = StreamingServer::new(ShardedServer::new(&conn, SHARDS), manual_policy(64));
        for v in 0..N {
            srv.submit(&mut led, Query::Component(v)).unwrap();
        }
        srv.flush(&mut led);
        srv.stage_delta(&mut led, &GraphDelta::from_edges(vec![(3, BLOCK + 3)]));
        // Submissions during the staged window serve the old epoch.
        for v in 0..N / 2 {
            srv.submit(&mut led, Query::Connected(v, N - 1 - v))
                .unwrap();
        }
        srv.install_staged(&mut led);
        for v in 0..N / 2 {
            srv.submit(&mut led, Query::Connected(v, N - 1 - v))
                .unwrap();
        }
        srv.drain(&mut led);
        let answers: Vec<(u64, _)> = srv
            .take_ready()
            .into_iter()
            .map(|(t, a)| (t.id(), a))
            .collect();
        let s = srv.cache_stats();
        let e = srv.epoch_stats();
        (
            answers,
            (s.hits, s.misses, s.inserts, s.evictions, s.invalidations),
            e,
            led.costs(),
            led.depth(),
            led.sym_peak(),
        )
    };
    let par = run(Ledger::new(OMEGA));
    let seq = run(Ledger::sequential(OMEGA));
    assert_eq!(
        par, seq,
        "mutation path not bit-identical across parallelism"
    );
}

#[test]
fn staged_batches_compose_and_empty_delta_is_free() {
    let g = test_graph();
    let pri = Priorities::random(g.n(), 19);
    let verts: Vec<Vertex> = (0..N).collect();
    let conn = build_conn(&g, &pri, &verts);
    let mut srv = StreamingServer::new(ShardedServer::new(&conn, SHARDS), manual_policy(1 << 10));
    let mut led = Ledger::new(OMEGA);

    // Two staged batches, one install: both merges land in epoch 1.
    srv.stage_delta(&mut led, &GraphDelta::from_edges(vec![(0, BLOCK)]));
    srv.stage_delta(&mut led, &GraphDelta::from_edges(vec![(BLOCK, 2 * BLOCK)]));
    assert_eq!(srv.install_staged(&mut led), Some(1));
    assert_eq!(srv.epoch_stats().staged_batches, 2);
    assert_eq!(srv.epoch_stats().installs, 1);

    let t = srv
        .submit(&mut led, Query::Connected(0, 2 * BLOCK + 5))
        .unwrap();
    srv.drain(&mut led);
    let (got, r) = srv.take_ready().pop().unwrap();
    assert_eq!(got, t);
    assert!(unwrap_connected(&r), "both staged merges are in epoch 1");

    // An empty delta with nothing staged: no charge, no epoch change.
    let mut free = Ledger::new(OMEGA);
    assert_eq!(srv.apply_delta(&mut free, &GraphDelta::new()), 1);
    assert_eq!(free.costs(), Costs::ZERO);
    assert_eq!(srv.epoch_stats().installs, 1);

    // install with nothing staged is None and also free.
    assert_eq!(srv.install_staged(&mut free), None);
    assert_eq!(free.costs(), Costs::ZERO);
}

#[test]
fn predicates_keep_base_graph_semantics_across_installs() {
    let g = test_graph();
    let pri = Priorities::random(g.n(), 23);
    let verts: Vec<Vertex> = (0..N).collect();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let conn =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 5, OracleBuildOpts::default());
    let bicon = build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 5, BuildOpts::default());
    let mut srv = StreamingServer::new(
        ShardedServer::new(&conn, SHARDS).with_biconnectivity(&bicon),
        manual_policy(1 << 10),
    );

    let ask = |srv: &mut wec::serve::FullStreamingServer<'_, '_, Csr>, led: &mut Ledger| {
        let t2 = srv.submit(led, Query::TwoEdgeConnected(0, BLOCK)).unwrap();
        let tc = srv.submit(led, Query::Connected(0, BLOCK)).unwrap();
        srv.drain(led);
        let out = srv.take_ready();
        assert_eq!((out[0].0, out[1].0), (t2, tc));
        let two_edge = match out[0].1 {
            Ok(Answer::TwoEdgeConnected(b)) => b,
            ref other => panic!("expected TwoEdgeConnected, got {other:?}"),
        };
        (two_edge, unwrap_connected(&out[1].1))
    };

    let (two_edge_before, conn_before) = ask(&mut srv, &mut led);
    assert!(!two_edge_before && !conn_before);

    srv.apply_delta(&mut led, &GraphDelta::from_edges(vec![(BLOCK - 1, BLOCK)]));

    let (two_edge_after, conn_after) = ask(&mut srv, &mut led);
    assert!(
        conn_after,
        "connectivity answers see the mutation through the overlay"
    );
    assert!(
        !two_edge_after,
        "predicates answer the base graph: the insertion-only model \
         does not re-derive biconnectivity (documented limitation)"
    );
}

/// Canonical id of every base id at one epoch.
type Canon = BTreeMap<ComponentId, ComponentId>;

/// Many small components, so random deltas merge classes of every size:
/// 40 paths of 5 vertices.
const SMALL_BLOCKS: usize = 40;
const SMALL_N: u32 = 5 * SMALL_BLOCKS as u32;

fn many_blocks() -> Csr {
    let p = gen::path(5);
    gen::disjoint_union(&vec![&p; SMALL_BLOCKS])
}

/// The reference for the versioned store: a min-id union-find over base
/// component ids, applied edge by edge.
fn reference_merge(canon: &mut Canon, base: &[ComponentId], delta: &GraphDelta) {
    for &(u, v) in delta.edges() {
        let (a, b) = (canon[&base[u as usize]], canon[&base[v as usize]]);
        let (win, lose) = (a.min(b), a.max(b));
        for c in canon.values_mut() {
            if *c == lose {
                *c = win;
            }
        }
    }
}

/// Ids remapped at one epoch.
fn remapped(canon: &Canon) -> usize {
    canon.iter().filter(|&(k, c)| k != c).count()
}

/// What a versioned-store run observed.
#[derive(Debug, PartialEq)]
struct StoreRun {
    costs: Costs,
    depth: u64,
    stage_writes: u64,
    /// What the same stages would have written as refrozen cumulative
    /// tables: every id remapped at the staged epoch, per merging stage.
    cumulative_table_writes: u64,
    installs: u64,
}

/// Drive a fresh store through `steps` seeded operations — stage, install
/// and retire the oldest epoch with weights 2:1:2, or with
/// `install_every_stage` a stage then an install per step — checking
/// every stage's writes and every live and staged epoch against the
/// reference after each step.
fn versioned_store_run(
    h: &ConnectivityOracle<'_, Csr>,
    mut led: Ledger,
    seed: u64,
    steps: usize,
    install_every_stage: bool,
) -> StoreRun {
    let n = SMALL_N;
    let mut scratch = Ledger::new(OMEGA);
    let base: Vec<ComponentId> = (0..n).map(|v| h.component(&mut scratch, v)).collect();
    let identity: Canon = base.iter().map(|&id| (id, id)).collect();
    let mut epochs: BTreeMap<u64, Canon> = BTreeMap::from([(0, identity.clone())]);
    let mut staged = identity;
    let mut store = OverlayStore::new();
    let mut rng = Lcg(seed);
    let mut run = StoreRun {
        costs: Costs::ZERO,
        depth: 0,
        stage_writes: 0,
        cumulative_table_writes: 0,
        installs: 0,
    };
    for step in 0..steps {
        let op = if install_every_stage { 5 } else { rng.below(5) };
        if op < 2 || op == 5 {
            let len = 1 + rng.below(4) as usize;
            let delta = GraphDelta::from_edges(
                (0..len)
                    .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
                    .collect(),
            );
            let before = staged.clone();
            reference_merge(&mut staged, &base, &delta);
            let changed = staged.iter().filter(|&(k, c)| before[k] != *c).count() as u64;
            let losers = before
                .iter()
                .filter(|&(k, c)| k == c && staged[k] != *k)
                .count() as u64;
            let w = led.costs().asym_writes;
            h.extend_overlay(&mut led, &mut store, &delta);
            let wrote = led.costs().asym_writes - w;
            assert_eq!(
                wrote,
                changed * OVERLAY_ENTRY_WRITES + losers * OVERLAY_INDEX_WRITES,
                "step {step}: stage writes = changed mappings + reverse-index moves"
            );
            run.stage_writes += wrote;
            if changed > 0 {
                run.cumulative_table_writes += remapped(&staged) as u64 * OVERLAY_ENTRY_WRITES;
            }
        }
        if op == 2 || op == 5 {
            epochs.insert(store.install(), staged.clone());
            run.installs += 1;
        }
        if (3..5).contains(&op) && store.oldest() < store.current() {
            epochs.remove(&store.oldest());
            store.retire_oldest();
            if store.oldest() == store.current() {
                // Only the current epoch is live: one version per id it
                // remaps, plus the versions staged on top.
                let current = &epochs[&store.current()];
                let on_top = staged.iter().filter(|&(k, c)| current[k] != *c).count();
                assert!(
                    store.version_count() <= remapped(current) + on_top,
                    "step {step}: retirement keeps only visible versions"
                );
            }
        }
        assert_eq!(
            (store.oldest()..=store.current()).collect::<Vec<_>>(),
            epochs.keys().copied().collect::<Vec<_>>()
        );
        for (&e, canon) in epochs.iter().chain([(&(store.current() + 1), &staged)]) {
            let view = store.view(e);
            for (&k, &c) in canon {
                assert_eq!(view.peek(k), c, "step {step}: epoch {e}, id {k:?}");
            }
        }
    }
    run.costs = led.costs();
    run.depth = led.depth();
    run
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

#[test]
fn versioned_store_matches_per_epoch_union_find() {
    let g = many_blocks();
    let pri = Priorities::random(g.n(), 29);
    let verts: Vec<Vertex> = (0..g.n() as Vertex).collect();
    let conn = build_conn(&g, &pri, &verts);
    for seed in [1u64, 2, 3, 0xfeed] {
        let par = versioned_store_run(&conn, Ledger::new(OMEGA), seed, 160, false);
        let seq = versioned_store_run(&conn, Ledger::sequential(OMEGA), seed, 160, false);
        assert_eq!(par, seq, "seed {seed}: store charges differ across ledgers");
        assert!(par.installs > 0 && par.stage_writes > 0);
    }
}

#[test]
fn versioned_store_writes_below_the_cumulative_table_on_64_installs() {
    let g = many_blocks();
    let pri = Priorities::random(g.n(), 31);
    let verts: Vec<Vertex> = (0..g.n() as Vertex).collect();
    let conn = build_conn(&g, &pri, &verts);
    let run = versioned_store_run(&conn, Ledger::new(OMEGA), 64, 64, true);
    assert_eq!(run.installs, 64);
    assert!(
        run.stage_writes < run.cumulative_table_writes,
        "stage writes {} not below the cumulative-table count {}",
        run.stage_writes,
        run.cumulative_table_writes
    );
}

/// The mutating serving loop at test size: a 40-block base graph, a
/// `Connected` stream with auto-dispatch (`max_queue == max_batch`), and
/// edge insertions arriving every `UPDATE_EVERY` queries, batched into
/// `DELTA_BATCH`-edge deltas. Each delta is staged mid-stream, the stream
/// keeps submitting and delivering for `STAGE_WINDOW` queries while the
/// next epoch exists only as staged state, and then the epoch installs
/// with tickets still queued. Every ticket must be delivered, in order,
/// with the answer of the graph version it was submitted against — so no
/// query ever waits on an install.
#[test]
fn staged_window_keeps_answering_and_installs_never_block() {
    const MAX_BATCH: usize = 32;
    // 1.5 × MAX_BATCH: every window holds at least one inline dispatch.
    const STAGE_WINDOW: usize = MAX_BATCH + MAX_BATCH / 2;
    const UPDATE_EVERY: usize = 20;
    const DELTA_BATCH: usize = 4;
    const STREAM: usize = 3000;

    let g = many_blocks();
    let n = g.n() as u32;
    let pri = Priorities::random(g.n(), 37);
    let verts: Vec<Vertex> = (0..n).collect();
    let conn = build_conn(&g, &pri, &verts);
    let mut srv = StreamingServer::new(
        ShardedServer::new(&conn, SHARDS),
        AdmissionPolicy::builder()
            .max_batch(MAX_BATCH)
            .max_queue(MAX_BATCH)
            .cache_capacity(64)
            .build(),
    );
    let mut reference = UnionFind::new(n as usize);
    for b in 0..SMALL_BLOCKS as u32 {
        for i in 0..4 {
            reference.union(5 * b + i, 5 * b + i + 1);
        }
    }

    let mut rng = Lcg(0xE7);
    let mut led = Ledger::new(OMEGA);
    // Expected answer per ticket, fixed at submission from the installed
    // graph; staged edges join the reference only at their install.
    let mut expected: Vec<bool> = Vec::with_capacity(STREAM);
    let mut next_ticket = 0u64;
    let mut answered_during_stage = 0u64;
    let mut pending: Vec<(Vertex, Vertex)> = Vec::new();
    let mut staged: Vec<(Vertex, Vertex)> = Vec::new();
    let mut install_at: Option<usize> = None;
    for i in 0..STREAM {
        let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        expected.push(reference.find(u) == reference.find(v));
        srv.submit(&mut led, Query::Connected(u, v)).unwrap();
        let got = deliver_in_order(&mut srv, &expected, &mut next_ticket);
        if install_at.is_some() {
            answered_during_stage += got;
        }
        // Install once the window has passed, always with tickets queued
        // (they dispatch after the install, as stragglers).
        if install_at.is_some_and(|at| i >= at) && srv.queue_len() > 0 {
            srv.install_staged(&mut led);
            for (a, b) in staged.drain(..) {
                reference.union(a, b);
            }
            install_at = None;
        }
        if (i + 1) % UPDATE_EVERY == 0 {
            let (a, b) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
            pending.push((a, b));
            if pending.len() >= DELTA_BATCH && install_at.is_none() {
                staged = std::mem::take(&mut pending);
                srv.stage_delta(&mut led, &GraphDelta::from_edges(staged.clone()));
                install_at = Some(i + STAGE_WINDOW);
            }
        }
    }
    srv.drain(&mut led);
    deliver_in_order(&mut srv, &expected, &mut next_ticket);

    let stats = srv.epoch_stats();
    assert!(stats.installs > 0, "the mutating stream installed epochs");
    assert!(
        answered_during_stage > 0,
        "answers flow while a delta is staged"
    );
    assert!(stats.in_flight_at_install > 0 && stats.straggler_answers > 0);
    assert!(
        expected.contains(&true) && expected.contains(&false),
        "the stream asks both merged and separate pairs"
    );
    // blocked_on_install: submitted tickets never delivered.
    assert_eq!(
        STREAM as u64 - next_ticket,
        0,
        "no query waits on an install"
    );
}

/// Deliver every ready answer, checking ticket order and each answer
/// against `expected[ticket]`; returns how many were delivered.
fn deliver_in_order(
    srv: &mut StreamingServer<&ConnectivityOracle<'_, Csr>>,
    expected: &[bool],
    next_ticket: &mut u64,
) -> u64 {
    let mut got = 0;
    while let Some((t, r)) = srv.try_next() {
        assert_eq!(t.id(), *next_ticket, "tickets delivered in order");
        assert_eq!(
            unwrap_connected(&r),
            expected[t.id() as usize],
            "ticket {t:?} answers its submission epoch"
        );
        *next_ticket += 1;
        got += 1;
    }
    got
}
