//! The serving workloads, both closed loops driven from this one thread:
//!
//! * `query_cold` — 64 logical callers submit uniform-random queries of
//!   all four kinds straight into a `StreamingServer` whose working set
//!   dwarfs its caches, so the oracle query path does the work;
//! * `wire_hot` — two v2 `WireClient`s over loopback into a `Frontend`
//!   with the 94%-hot connectivity mix, while `apply_delta` installs a
//!   16-edge insertion batch every 16 pumps (cache, wire and epoch layers
//!   do the work).
//!
//! Each answer is checked against `wec_baseline` as it is delivered: on
//! `query_cold` against references precomputed at set-up, on `wire_hot`
//! against a union-find replay that advances as epochs install. Neither
//! loop keeps a per-query record, so the process's peak memory is the
//! serving stack's however long the loop runs. Charged costs come from the
//! ledgers passed in here.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use wec::asym::{Costs, Ledger};
use wec::baseline::UnionFind;
use wec::biconnectivity::BiconnectivityOracle;
use wec::connectivity::{ConnectivityOracle, GraphDelta};
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::serve::{
    loopback_listener, AdmissionPolicy, LoopbackListener, Query, RetryPolicy, ServeResult,
    ShardedServer, StreamingServer, WireClient,
};

use crate::build::{build_pair, oracle_graph, overhead_pct, BICONN_CHECK_PAIRS, ORACLE_N};
use crate::layers::{counters, timed, Fe, PoolDelta, Srv, Stack};
use crate::refs::{code, PartitionCheck, Refs};
use crate::report::{
    fast, fastest_quarter, median, ns_since, peak_rss_mb, quantile, quantile_ns_us, Marks, Outcome,
    Reservoir, Segment, SEGMENTS,
};
use crate::{Cfg, OMEGA};

/// Shards behind every streaming server.
const SHARDS: usize = 4;
/// Largest micro-batch one dispatch carries.
const MAX_BATCH: usize = 64;
/// Result-cache slots per shard (4 × 256 = 1,024 in all).
const CACHE_CAPACITY: usize = 256;
/// Logical callers of `query_cold`, one query outstanding each.
const CALLERS: usize = 64;
/// `query_cold` serves one fixed graph; `--seed` draws the query stream.
/// Mean reads per cold biconnectivity query range from about 1,000 to
/// 1,500 across random graphs of this size, which would swamp the bounds.
const DATASET_SEED: u64 = 0x5eed;
/// `wire_hot`: clients, and requests each keeps in flight.
const CLIENTS: usize = 2;
const WINDOW: usize = 32;
/// `wire_hot`: the hot key domain (vertices `0..64`) and its share of
/// queries (241/256 ≈ 94%).
const HOT_KEYS: u64 = 64;
const HOT_PER_256: u64 = 241;
/// `wire_hot`: base components, vertices in each, and the insertion
/// batches.
const PARTS: usize = 24_000;
const PART: usize = 4;
const DELTA_EDGES: usize = 16;
const DELTA_EVERY: u64 = 16;

fn policy() -> AdmissionPolicy {
    AdmissionPolicy::builder()
        .max_batch(MAX_BATCH)
        .cache_capacity(CACHE_CAPACITY)
        .build()
}

fn server<'o, 'g>(
    conn: &'o ConnectivityOracle<'g, Csr>,
    bic: &'o BiconnectivityOracle<'g, Csr>,
) -> Srv<'o, 'g> {
    let sharded =
        ShardedServer::new(conn.query_handle(), SHARDS).with_biconnectivity(bic.query_handle());
    StreamingServer::new(sharded, policy())
}

/// Set-up wall times, one entry per set-up.
#[derive(Default)]
struct Timings {
    gen: Vec<f64>,
    build: Vec<f64>,
}

impl Timings {
    fn setup(&self) -> Vec<f64> {
        self.gen
            .iter()
            .zip(&self.build)
            .map(|(g, b)| g + b)
            .collect()
    }
}

/// The serving workloads' set-up, repeated: generate the graph and
/// priorities, build both oracles. The last set-up's oracles serve.
struct Served<'g> {
    conn: ConnectivityOracle<'g, Csr>,
    bic: BiconnectivityOracle<'g, Csr>,
    /// The serving build's ledger.
    build: Ledger,
    build_ok: bool,
}

fn inputs(make: &impl Fn() -> Csr, seed: u64) -> (Csr, Priorities, Vec<Vertex>) {
    let g = make();
    let pri = Priorities::random(g.n(), seed);
    let verts = (0..g.n() as Vertex).collect();
    (g, pri, verts)
}

/// The first `setups - 1` set-ups, then the last one's inputs; the caller
/// builds the serving oracles with [`serve_oracles`].
fn prepare(
    setups: usize,
    make: impl Fn() -> Csr,
    seed: u64,
) -> ((Csr, Priorities, Vec<Vertex>), Timings) {
    let mut t = Timings::default();
    for _ in 1..setups {
        let (g, pri, verts) = timed(&mut t.gen, || inputs(&make, seed));
        timed(&mut t.build, || {
            build_pair(&mut Ledger::new(OMEGA), &g, &pri, &verts, seed, None);
        });
    }
    (timed(&mut t.gen, || inputs(&make, seed)), t)
}

fn serve_oracles<'g>(
    (g, pri, verts): &'g (Csr, Priorities, Vec<Vertex>),
    refs: &Refs<'_>,
    t: &mut Timings,
    seed: u64,
) -> Served<'g> {
    let mut build = Ledger::new(OMEGA);
    let (conn, bic) = timed(&mut t.build, || {
        build_pair(&mut build, g, pri, verts, seed, None)
    });
    let build_ok = refs.conn_build_ok(conn.query_handle())
        && refs.biconn_build_ok(bic.query_handle(), BICONN_CHECK_PAIRS, seed);
    Served {
        conn,
        bic,
        build,
        build_ok,
    }
}

/// The end-to-end metrics shared by both serving workloads: `attempted`
/// queries charged `server` on the server ledger, answered at `qps` with
/// latency quantiles `p50_us` and `p99_us`.
fn serving_values(
    t: &Timings,
    served: &Served<'_>,
    m: usize,
    attempted: usize,
    server: Costs,
    qps: f64,
    (p50_us, p99_us): (f64, f64),
) -> Vec<(&'static str, f64)> {
    let q = attempted.max(1) as f64;
    let b = served.build.costs();
    vec![
        ("setup_s", median(&fast(&t.setup()))),
        ("build_s", median(&fast(&t.build))),
        ("writes_per_edge", b.asym_writes as f64 / m as f64),
        ("work_per_edge", b.work(OMEGA) as f64 / m as f64),
        ("qps", qps),
        ("latency_p50_us", p50_us),
        ("latency_p99_us", p99_us),
        ("reads_per_query", server.asym_reads as f64 / q),
        ("writes_per_query", server.asym_writes as f64 / q),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// One timed `query_cold` loop's record.
struct LoopRun {
    /// Wrong, refused or unanswered queries.
    failed: u64,
    /// The loop's equal-count segments (see [`Marks`]).
    segments: Vec<Segment>,
    /// Whole-loop wall time.
    secs: f64,
    /// Charged on the server ledger.
    server: Costs,
}

impl LoopRun {
    /// The end-to-end metrics over `attempted` queries. The segments are
    /// equal work, so throughput is over the fastest quarter of them and
    /// each latency quantile is the median of theirs.
    fn values(
        &self,
        attempted: usize,
        t: &Timings,
        served: &Served<'_>,
        m: usize,
    ) -> Vec<(&'static str, f64)> {
        let cost: Vec<f64> = self
            .segments
            .iter()
            .map(|g| g.secs / g.answers as f64)
            .collect();
        let chosen: Vec<&Segment> = fastest_quarter(&cost)
            .into_iter()
            .map(|i| &self.segments[i])
            .collect();
        let answers: usize = chosen.iter().map(|g| g.answers).sum();
        let secs: f64 = chosen.iter().map(|g| g.secs).sum();
        let lat =
            |f: fn(&Segment) -> f64| median(&chosen.iter().map(|&g| f(g)).collect::<Vec<_>>());
        let quantiles = (lat(|g| g.p50_us), lat(|g| g.p99_us));
        serving_values(
            t,
            served,
            m,
            attempted,
            self.server,
            answers as f64 / secs,
            quantiles,
        )
    }

    /// Whole-loop throughput and median segment quantiles, for context.
    fn whole(&self) -> String {
        let answers: usize = self.segments.iter().map(|g| g.answers).sum();
        let lat = |f: fn(&Segment) -> f64| median(&self.segments.iter().map(f).collect::<Vec<_>>());
        format!(
            "whole loop: {:.0} queries/s, p50 {:.1} us, p99 {:.1} us (medians over \
             {} segments of {} answers)",
            answers as f64 / self.secs,
            lat(|g| g.p50_us),
            lat(|g| g.p99_us),
            self.segments.len(),
            self.segments.first().map_or(0, |g| g.answers)
        )
    }
}

/// Uniform-random queries, a quarter of each kind, drawn from one seed.
struct ColdQueries {
    rng: SmallRng,
    n: usize,
}

impl ColdQueries {
    fn new(n: usize, seed: u64) -> Self {
        ColdQueries {
            rng: SmallRng::seed_from_u64(seed ^ 0xc01d),
            n,
        }
    }
}

impl Iterator for ColdQueries {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let u = self.rng.gen_range(0..self.n) as Vertex;
        let v = self.rng.gen_range(0..self.n) as Vertex;
        Some(match self.rng.gen_range(0..4u8) {
            0 => Query::Connected(u, v),
            1 => Query::Component(u),
            2 => Query::TwoEdgeConnected(u, v),
            _ => Query::Biconnected(u, v),
        })
    }
}

/// `query_cold`'s traced-run timers.
#[derive(Default)]
struct ColdTrace {
    submit: Vec<f64>,
    flush: Vec<f64>,
    batch: Vec<f64>,
    pool: PoolDelta,
}

/// The logical callers' shared state: the queries left to submit, the
/// accepted submissions in ticket order, and the answer check.
struct Callers<'r> {
    queries: ColdQueries,
    left: usize,
    in_flight: VecDeque<(Query, Instant)>,
    refs: &'r Refs<'r>,
    part: PartitionCheck,
    failed: u64,
}

impl Callers<'_> {
    /// One caller submits the next query, if any is left.
    fn submit(&mut self, srv: &mut Srv<'_, '_>, led: &mut Ledger, trace: Option<&mut ColdTrace>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let q = self.queries.next().expect("an endless stream");
        let t = Instant::now();
        let r = srv.submit(led, q);
        if let Some(tr) = trace {
            tr.submit.push(t.elapsed().as_secs_f64());
        }
        match r {
            Ok(_) => self.in_flight.push_back((q, t)),
            Err(_) => self.failed += 1,
        }
    }

    /// Check a delivered answer; returns its submission time.
    fn deliver(&mut self, r: &ServeResult) -> Instant {
        let (q, t) = self
            .in_flight
            .pop_front()
            .expect("one submission per ticket");
        self.failed += u64::from(!self.refs.check(&mut self.part, q, code(r)));
        t
    }
}

/// Closed loop of [`CALLERS`] callers over `count` queries of `seed`'s
/// stream: each caller submits its next query as soon as its previous
/// answer is delivered; the loop dispatches one micro-batch per step.
fn cold_loop(
    srv: &mut Srv<'_, '_>,
    refs: &Refs<'_>,
    (n, count, seed): (usize, usize, u64),
    mut trace: Option<&mut ColdTrace>,
) -> LoopRun {
    let mut led = Ledger::new(OMEGA);
    let mut callers = Callers {
        queries: ColdQueries::new(n, seed),
        left: count,
        in_flight: VecDeque::new(),
        refs,
        part: PartitionCheck::default(),
        failed: 0,
    };
    let mut marks = Marks::start(count);
    for _ in 0..CALLERS {
        callers.submit(srv, &mut led, trace.as_deref_mut());
    }
    while !callers.in_flight.is_empty() || callers.left > 0 {
        match trace.as_deref_mut() {
            None => {
                srv.flush(&mut led);
            }
            Some(tr) => {
                let before = counters(Stack::Pool);
                let d = timed(&mut tr.flush, || srv.flush(&mut led));
                tr.pool.add(&before, &counters(Stack::Pool));
                tr.batch.push(d as f64);
            }
        }
        let now = Instant::now();
        let mut delivered = 0;
        while let Some((_, r)) = srv.try_next() {
            marks.record(ns_since(callers.deliver(&r), now));
            delivered += 1;
        }
        marks.note();
        // Each caller whose answer arrived submits its next query; with
        // nothing in flight (every submission refused), one submits on.
        for _ in 0..delivered.max(usize::from(callers.in_flight.is_empty())) {
            callers.submit(srv, &mut led, trace.as_deref_mut());
        }
    }
    let (segments, secs) = marks.finish();
    LoopRun {
        failed: callers.failed,
        segments,
        secs,
        server: led.costs(),
    }
}

/// `query_cold`: see the module docs.
pub fn query_cold(cfg: &Cfg) -> Outcome {
    let n = ORACLE_N;
    // 7 set-ups at `--seconds 20`.
    let setups = cfg.quota(0.35, 1) as usize;
    let (input, mut t) = prepare(setups, || oracle_graph(n, DATASET_SEED), DATASET_SEED);
    let g = &input.0;
    let refs = Refs::new(g);
    let served = serve_oracles(&input, &refs, &mut t, DATASET_SEED);
    let count = cfg.quota(25_000.0, 4 * CALLERS as u64) as usize;
    let mut notes = vec![format!(
        "n = {n}, m = {}; {count} queries, {CALLERS} callers closed loop, {SHARDS} shards × \
         {CACHE_CAPACITY} cache slots, max_batch {MAX_BATCH}",
        g.m(),
    )];
    let build_failed = u64::from(!served.build_ok);

    if !cfg.trace {
        let srv = &mut server(&served.conn, &served.bic);
        let run = cold_loop(srv, &refs, (n, count, cfg.seed), None);
        notes.push(format!(
            "{}; {} set-ups; timings are over the fastest quarter of {SEGMENTS} segments \
             and of set-ups",
            run.whole(),
            t.gen.len()
        ));
        return Outcome {
            attempted: count as u64,
            failed: build_failed + run.failed,
            values: run.values(count, &t, &served, g.m()),
            notes,
        };
    }

    // ABBA quarters: untraced, traced, traced, untraced, each on a fresh
    // server over the same queries, so every quarter does identical work.
    let quarter = count / 4;
    let mut tr = ColdTrace::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut c = None;
    let mut failed = build_failed;
    for trace in [false, true, true, false] {
        let mut srv = server(&served.conn, &served.bic);
        let run = cold_loop(
            &mut srv,
            &refs,
            (n, quarter, cfg.seed),
            trace.then_some(&mut tr),
        );
        failed += run.failed;
        if trace {
            c = Some(counters(Stack::Server(&srv)));
            traced.push(run);
        } else {
            plain.push(run);
        }
    }
    let c = c.expect("two traced quarters ran");
    failed += plain
        .iter()
        .chain(&traced)
        .filter(|r| r.server != plain[0].server)
        .count() as u64;
    let secs = |runs: &[LoopRun]| runs.iter().map(|r| r.secs).collect::<Vec<_>>();

    // The same queries as direct handle calls, one oracle family each.
    let (ch, bh) = (served.conn.query_handle(), served.bic.query_handle());
    let (mut conn_s, mut bic_s) = (Vec::new(), Vec::new());
    let (mut conn_led, mut bic_led) = (Ledger::new(OMEGA), Ledger::new(OMEGA));
    for q in ColdQueries::new(n, cfg.seed).take(quarter) {
        match q {
            Query::Connected(u, v) => {
                timed(&mut conn_s, || ch.connected(&mut conn_led, u, v));
            }
            Query::Component(v) => {
                timed(&mut conn_s, || ch.component(&mut conn_led, v));
            }
            Query::TwoEdgeConnected(u, v) => {
                timed(&mut bic_s, || bh.two_edge_connected(&mut bic_led, u, v));
            }
            Query::Biconnected(u, v) => {
                timed(&mut bic_s, || bh.biconnected(&mut bic_led, u, v));
            }
        }
    }
    let oracle_total: f64 = conn_s.iter().chain(&bic_s).sum();
    // Both traced quarters flushed the quarter once each.
    let flush_total: f64 = tr.flush.iter().sum::<f64>() / 2.0;
    let per = |x: u64, calls: usize| x as f64 / calls.max(1) as f64;

    let mut values = vec![
        ("graph.gen_s", median(&t.gen)),
        ("connectivity.query_us", 1e6 * median(&conn_s)),
        (
            "connectivity.query_reads",
            per(conn_led.costs().asym_reads, conn_s.len()),
        ),
        ("biconnectivity.query_us", 1e6 * median(&bic_s)),
        (
            "biconnectivity.query_reads",
            per(bic_led.costs().asym_reads, bic_s.len()),
        ),
        ("serve.flush_us", 1e6 * median(&tr.flush)),
        ("serve.submit_us", 1e6 * median(&tr.submit)),
        ("serve.batch_size", median(&tr.batch)),
        ("serve.oracle_share", oracle_total / flush_total),
        ("serve.cache.hit_ratio", c.cache.hit_ratio()),
        (
            "serve.cache.evictions_per_query",
            per(c.cache.evictions, quarter),
        ),
        (
            "trace.overhead_pct",
            overhead_pct(&secs(&plain), &secs(&traced)),
        ),
    ];
    values.extend(tr.pool.values());
    notes.push(format!(
        "traced run: the same {} queries untraced, traced, traced, untraced (fresh server \
         each), then as direct handle calls; {} traced dispatches",
        quarter,
        tr.flush.len()
    ));
    Outcome {
        attempted: 4 * quarter as u64,
        failed,
        values,
        notes,
    }
}

/// One `wire_hot` query: 94% over the hot vertices, a third `Connected`.
fn hot_query(rng: &mut SmallRng, n: u64) -> Query {
    let r = rng.next_u64();
    let domain = if r % 256 < HOT_PER_256 {
        HOT_KEYS.min(n)
    } else {
        n
    };
    let a = rng.gen_range(0..domain) as Vertex;
    let b = rng.gen_range(0..domain) as Vertex;
    if (r >> 8).is_multiple_of(3) {
        Query::Connected(a, b)
    } else {
        Query::Component(a)
    }
}

/// The query stream of client `i`.
fn client_rng(seed: u64, i: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0xc11e_0000 ^ (i as u64) << 40)
}

/// The insertion batches, in install order.
struct Deltas(SmallRng, u64);

impl Deltas {
    fn new(seed: u64, n: usize) -> Self {
        Deltas(SmallRng::seed_from_u64(seed ^ 0xde17a), n as u64)
    }

    fn next(&mut self) -> GraphDelta {
        let Deltas(rng, n) = self;
        GraphDelta::from_edges(
            (0..DELTA_EDGES)
                .map(|_| {
                    (
                        rng.gen_range(0..*n) as Vertex,
                        rng.gen_range(0..*n) as Vertex,
                    )
                })
                .collect(),
        )
    }
}

/// `wire_hot`'s answer check: a union-find over the base graph plus the
/// deltas installed before epoch `epoch`. The loop advances it to the
/// oldest pending query's epoch; an answer from a later epoch is held
/// until the replay gets there.
struct Replay {
    uf: UnionFind,
    deltas: Deltas,
    epoch: u64,
    /// Component-id pairings of the current epoch.
    part: PartitionCheck,
    held: Vec<(u64, Query, u64)>,
    /// Wrong or refused answers so far.
    failed: u64,
}

impl Replay {
    fn new(g: &Csr, seed: u64) -> Self {
        let mut uf = UnionFind::new(g.n());
        for &(u, v) in g.edges() {
            uf.union(u, v);
        }
        Replay {
            uf,
            deltas: Deltas::new(seed, g.n()),
            epoch: 0,
            part: PartitionCheck::default(),
            held: Vec::new(),
            failed: 0,
        }
    }

    /// Check answer code `got` to `q`, submitted in `epoch`.
    fn check(&mut self, epoch: u64, q: Query, got: u64) {
        if epoch > self.epoch {
            self.held.push((epoch, q, got));
            return;
        }
        let ok = epoch == self.epoch
            && match q {
                Query::Connected(a, b) => got == u64::from(self.uf.same(a, b)),
                Query::Component(v) => self.part.agrees(self.uf.find(v), got),
                _ => false,
            };
        self.failed += u64::from(!ok);
    }

    /// Install the deltas up to `epoch`, checking held answers on the way.
    fn advance(&mut self, epoch: u64) {
        while self.epoch < epoch {
            for &(u, v) in self.deltas.next().edges() {
                self.uf.union(u, v);
            }
            self.epoch += 1;
            self.part.clear();
            for (e, q, got) in std::mem::take(&mut self.held) {
                self.check(e, q, got);
            }
        }
    }
}

/// A submitted, not yet answered `wire_hot` query.
struct Pending {
    query: Query,
    epoch: u64,
    submitted: Instant,
    model_time: u64,
}

/// One client's pending queries, by correlation id from `base` on (a
/// client numbers its submissions 0, 1, 2, ...).
#[derive(Default)]
struct Window {
    base: u64,
    slots: VecDeque<Option<Pending>>,
}

impl Window {
    fn push(&mut self, corr: u64, p: Pending) {
        debug_assert_eq!(corr, self.base + self.slots.len() as u64);
        self.slots.push_back(Some(p));
    }

    fn take(&mut self, corr: u64) -> Pending {
        let p = self.slots[(corr - self.base) as usize]
            .take()
            .expect("answers complete pending requests");
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        p
    }

    /// The oldest pending query's epoch.
    fn oldest_epoch(&self) -> Option<u64> {
        self.slots.front().and_then(|s| s.as_ref()).map(|p| p.epoch)
    }

    /// Queries submitted so far.
    fn submitted(&self) -> u64 {
        self.base + self.slots.len() as u64
    }
}

/// `wire_hot`'s traced-run timers.
#[derive(Default)]
struct WireTrace {
    pump: Vec<f64>,
    tick: Vec<f64>,
    apply: Vec<f64>,
    apply_writes: u64,
    batch: Vec<f64>,
    pool: PoolDelta,
    rounds: Vec<f64>,
}

/// One `wire_hot` loop's record.
struct WireRun {
    answered: u64,
    /// Wrong, refused or unanswered queries.
    failed: u64,
    /// Epochs installed.
    installs: u64,
    /// A uniform sample of submit-to-delivery wall times.
    latency: Reservoir,
    /// Whole-loop wall time.
    secs: f64,
    /// Charged on the server and on the clients' ledger.
    server: Costs,
    client: Costs,
}

fn wire_stack<'o, 'g>(
    conn: &'o ConnectivityOracle<'g, Csr>,
    bic: &'o BiconnectivityOracle<'g, Csr>,
) -> (Fe<'o, 'g>, LoopbackListener, Vec<WireClient>) {
    let (connector, listener) = loopback_listener();
    let clients = (0..CLIENTS)
        .map(|i| {
            WireClient::new(Box::new(connector.clone()), 0x5e55_0000 + i as u64).with_retry(
                RetryPolicy {
                    window: WINDOW,
                    ..RetryPolicy::default()
                },
            )
        })
        .collect();
    (Fe::new(server(conn, bic)), listener, clients)
}

/// One client tick, timed in the traced run.
fn tick(
    c: &mut WireClient,
    led: &mut Ledger,
    trace: Option<&mut WireTrace>,
) -> Vec<(u64, ServeResult)> {
    match trace {
        None => c.tick(led),
        Some(tr) => timed(&mut tr.tick, || c.tick(led)),
    }
}

/// Closed loop of [`CLIENTS`] clients, `per_client` queries each, over
/// `g`: a client submits only while fewer than [`WINDOW`] of its requests
/// are pending. Each step ticks every client, then pumps the frontend
/// once; every [`DELTA_EVERY`] pumps one insertion batch is installed.
fn wire_loop(
    (fe, listener, clients): &mut (Fe<'_, '_>, LoopbackListener, Vec<WireClient>),
    g: &Csr,
    per_client: u64,
    seed: u64,
    mut trace: Option<&mut WireTrace>,
) -> WireRun {
    let n = g.n() as u64;
    let (mut sled, mut cled) = (Ledger::new(OMEGA), Ledger::new(OMEGA));
    let mut rngs: Vec<SmallRng> = (0..CLIENTS).map(|i| client_rng(seed, i)).collect();
    let mut deltas = Deltas::new(seed, g.n());
    let mut replay = Replay::new(g, seed);
    let mut windows: Vec<Window> = (0..CLIENTS).map(|_| Window::default()).collect();
    let mut latency = Reservoir::new(seed);
    let mut answered = 0;
    let start = Instant::now();
    let mut pumps = 0u64;
    loop {
        let mut idle = true;
        for (i, c) in clients.iter_mut().enumerate() {
            // Receive what the last pump answered, refill the window, and
            // send: two ticks, so every pump sees every client's window.
            let done = tick(c, &mut cled, trace.as_deref_mut());
            let now = Instant::now();
            let w = &mut windows[i];
            for (corr, r) in done {
                let p = w.take(corr);
                latency.push(ns_since(p.submitted, now));
                if let Some(tr) = trace.as_deref_mut() {
                    tr.rounds.push((fe.model_time() - p.model_time) as f64);
                }
                replay.check(p.epoch, p.query, code(&r));
                answered += 1;
            }
            while c.pending_len() < WINDOW && w.submitted() < per_client {
                let query = hot_query(&mut rngs[i], n);
                let corr = c.submit(query);
                w.push(
                    corr,
                    Pending {
                        query,
                        epoch: fe.server().current_epoch(),
                        submitted: Instant::now(),
                        model_time: fe.model_time(),
                    },
                );
            }
            tick(c, &mut cled, trace.as_deref_mut());
            idle &= c.is_idle() && w.submitted() == per_client;
        }
        let oldest = windows.iter().filter_map(Window::oldest_epoch).min();
        replay.advance(oldest.unwrap_or_else(|| fe.server().current_epoch()));
        if idle {
            break;
        }
        while let Some(t) = listener.accept() {
            fe.connect(Box::new(t));
        }
        match trace.as_deref_mut() {
            None => {
                fe.pump(&mut sled);
            }
            Some(tr) => {
                let before = counters(Stack::Pool);
                let report = timed(&mut tr.pump, || fe.pump(&mut sled));
                if report.dispatched > 0 {
                    tr.pool.add(&before, &counters(Stack::Pool));
                    tr.batch.push(report.dispatched as f64);
                }
            }
        }
        pumps += 1;
        if pumps.is_multiple_of(DELTA_EVERY) {
            let delta = deltas.next();
            match trace.as_deref_mut() {
                None => {
                    fe.server_mut().apply_delta(&mut sled, &delta);
                }
                Some(tr) => {
                    let w = sled.costs().asym_writes;
                    timed(&mut tr.apply, || {
                        fe.server_mut().apply_delta(&mut sled, &delta)
                    });
                    tr.apply_writes += sled.costs().asym_writes - w;
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let unanswered = windows.iter().map(|w| w.slots.len()).sum::<usize>() + replay.held.len();
    WireRun {
        answered,
        failed: replay.failed + unanswered as u64,
        installs: fe.server().current_epoch(),
        latency,
        secs,
        server: sled.costs(),
        client: cled.costs(),
    }
}

/// `wire_hot`: see the module docs.
pub fn wire_hot(cfg: &Cfg) -> Outcome {
    let make = || {
        let pieces: Vec<Csr> = (0..PARTS as u64)
            .map(|i| gen::bounded_degree_connected(PART, 4, 1, cfg.seed ^ i << 20))
            .collect();
        let refs: Vec<&Csr> = pieces.iter().collect();
        gen::shuffle_labels(&gen::disjoint_union(&refs), cfg.seed).0
    };
    // 15 set-ups at `--seconds 20`.
    let (input, mut t) = prepare(cfg.quota(0.75, 1) as usize, make, cfg.seed);
    let g = &input.0;
    let n = g.n();
    let served = serve_oracles(&input, &Refs::new(g), &mut t, cfg.seed);
    let per_client = cfg.quota(300_000.0, 4 * WINDOW as u64) / CLIENTS as u64;
    let mut notes = vec![format!(
        "n = {n} in {PARTS} components of {PART}; {CLIENTS} v2 clients × {per_client} queries, \
         window {WINDOW}, closed loop; {SHARDS} shards × {CACHE_CAPACITY} cache slots; \
         {DELTA_EDGES}-edge delta every {DELTA_EVERY} pumps"
    )];
    let build_failed = u64::from(!served.build_ok);

    if !cfg.trace {
        let mut w = wire_loop(
            &mut wire_stack(&served.conn, &served.bic),
            g,
            per_client,
            cfg.seed,
            None,
        );
        let attempted = CLIENTS * per_client as usize;
        // The epochs grow and merge overlays, so the loop's stretches are
        // not equal work: throughput and latency cover the whole loop.
        let qps = w.answered as f64 / w.secs;
        let lat = &mut w.latency.ns;
        let quantiles = (quantile_ns_us(lat, 0.5), quantile_ns_us(lat, 0.99));
        let values = serving_values(&t, &served, g.m(), attempted, w.server, qps, quantiles);
        notes.push(format!(
            "whole loop: {} latency samples (a uniform sample of {} answers); {} epochs \
             installed; {} set-ups; set-up timings are over the fastest quarter",
            lat.len(),
            w.answered,
            w.installs,
            t.gen.len()
        ));
        return Outcome {
            attempted: attempted as u64,
            failed: build_failed + w.failed,
            values,
            notes,
        };
    }

    // ABBA quarters, as in `query_cold`.
    let quarter = (per_client / 4).max(WINDOW as u64);
    let mut tr = WireTrace::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut c = None;
    let mut failed = build_failed;
    for trace in [false, true, true, false] {
        let mut stack = wire_stack(&served.conn, &served.bic);
        let w = wire_loop(&mut stack, g, quarter, cfg.seed, trace.then_some(&mut tr));
        failed += w.failed;
        if trace {
            c = Some(counters(Stack::Wire(&stack.0, &stack.2)));
            traced.push(w);
        } else {
            plain.push(w);
        }
    }
    let c = c.expect("two traced quarters ran");
    let first = plain[0].server;
    failed += plain
        .iter()
        .chain(&traced)
        .filter(|w| w.server != first)
        .count() as u64;
    let secs = |runs: &[WireRun]| runs.iter().map(|w| w.secs).collect::<Vec<_>>();
    let last = traced.last().expect("two traced quarters ran");
    let answered = last.answered.max(1) as f64;
    let installs = c.epoch.installs.max(1) as f64;

    let mut values = vec![
        ("graph.gen_s", median(&t.gen)),
        ("serve.batch_size", median(&tr.batch)),
        ("serve.cache.hit_ratio", c.cache.hit_ratio()),
        (
            "serve.cache.evictions_per_query",
            c.cache.evictions as f64 / answered,
        ),
        ("serve.epoch.apply_us", 1e6 * median(&tr.apply)),
        (
            "serve.epoch.writes_per_install",
            tr.apply_writes as f64 / (2.0 * installs),
        ),
        (
            "serve.epoch.invalidated_per_install",
            c.epoch.invalidated_entries as f64 / installs,
        ),
        ("serve.epoch.installs", c.epoch.installs as f64),
        ("serve.wire.pump_us", 1e6 * median(&tr.pump)),
        ("serve.wire.tick_us", 1e6 * median(&tr.tick)),
        (
            "serve.wire.frames_per_query",
            (c.frontend.frames_in + c.frontend.frames_out) as f64 / answered,
        ),
        (
            "serve.wire.ops_per_query",
            (last.server.sym_ops + last.client.sym_ops) as f64 / answered,
        ),
        ("serve.wire.rounds_p99", quantile(&tr.rounds, 0.99)),
        (
            "trace.overhead_pct",
            overhead_pct(&secs(&plain), &secs(&traced)),
        ),
    ];
    values.extend(tr.pool.values());
    notes.push(format!(
        "traced run: the same {CLIENTS} × {quarter} queries untraced, traced, traced, \
         untraced (fresh frontend each); {} traced pumps, {} client resubmissions, {} deadline \
         drops",
        tr.pump.len(),
        c.client.resubmitted,
        c.client.deadline_drops
    ));
    Outcome {
        attempted: 4 * CLIENTS as u64 * quarter,
        failed,
        values,
        notes,
    }
}
