//! The build workloads: `oracle_build` (decomposition, clusters graph and
//! BC labeling — the paper's headline path) and `cc_dense` (§4.2 and star
//! contraction on a dense graph larger than L2, decomposition bypassed).
//!
//! One request is one build round on a fresh ledger. Every round charges
//! the same `Costs` (a differing round counts as failed), and every round's
//! output is checked against `wec_baseline` outside the timed region.

use std::time::Instant;

use wec::asym::{Costs, Ledger};
use wec::baseline::unionfind::{same_partition, uf_labels};
use wec::biconnectivity::oracle::build_biconnectivity_oracle;
use wec::biconnectivity::BiconnectivityOracle;
use wec::connectivity::{connectivity_csr, star_connectivity, ConnectivityOracle, OracleBuildOpts};
use wec::core::{BuildOpts, ImplicitDecomposition};
use wec::graph::{gen, Csr, Priorities, Vertex};
use wec::prims::low_diameter_decomposition;

use crate::layers::{counters, timed, PoolDelta, Stack};
use crate::refs::Refs;
use crate::report::{fast, median, peak_rss_mb, quantile, Outcome};
use crate::{Cfg, OMEGA};

/// §4.2's β (Theorem 4.2's headline setting, 1/ω).
const BETA: f64 = 1.0 / OMEGA as f64;
/// Predicate pairs (of each kind) checked per biconnectivity build.
pub const BICONN_CHECK_PAIRS: usize = 200;
/// Extra set-ups the traced run times for `graph.gen_s`.
const TRACE_SETUPS: u64 = 4;
/// Most calls a traced run times per standalone layer probe.
const PROBE_CALLS: u64 = 5;
/// Vertices of the oracle workloads' graph.
pub const ORACLE_N: usize = 30_000;
/// Vertices of `cc_dense`'s graph (16 edges each).
const DENSE_N: usize = 250_000;

/// The oracle workloads' graph: bounded degree 4, connected, `n/4`
/// non-tree edges.
pub fn oracle_graph(n: usize, seed: u64) -> Csr {
    gen::bounded_degree_connected(n, 4, n / 4, seed)
}

/// The decomposition options every oracle build uses: the parallel
/// secondary-center pass (Lemma 3.7), so builds use the pool.
pub fn decomp_opts() -> BuildOpts {
    BuildOpts {
        parallel: true,
        ..BuildOpts::default()
    }
}

/// Connectivity-oracle options over [`decomp_opts`].
pub fn conn_opts() -> OracleBuildOpts {
    OracleBuildOpts {
        decomp: decomp_opts(),
        ..OracleBuildOpts::default()
    }
}

/// A build workload's set-up: graph generation, timed once before the
/// first round and again every `every` rounds. Spreading the repeats over
/// the run keeps `setup_s` (their median) from sampling a single moment of
/// a host whose speed drifts.
struct Setup<F> {
    make: F,
    every: u64,
    secs: Vec<f64>,
}

impl<F: Fn() -> Csr> Setup<F> {
    /// Generate the graph, planning `repeats` more timed set-ups over
    /// `rounds` rounds.
    fn new(make: F, rounds: u64, repeats: u64) -> (Csr, Self) {
        let mut secs = Vec::new();
        let g = timed(&mut secs, &make);
        let every = (rounds / repeats.max(1)).max(1);
        (g, Setup { make, every, secs })
    }

    /// Time one more set-up after round `r` when one is due (always, when
    /// `r` is `None`).
    fn again(&mut self, r: Option<u64>) {
        if r.is_none_or(|r| (r + 1) % self.every == 0) {
            timed(&mut self.secs, &self.make);
        }
    }
}

/// Per-round bookkeeping shared by both build workloads.
#[derive(Default)]
struct Rounds {
    secs: Vec<f64>,
    costs: Option<Costs>,
    failed: u64,
}

impl Rounds {
    /// Record one round: its wall time, its ledger (which must charge what
    /// every earlier round charged), and whether its output checked out.
    fn record(&mut self, secs: f64, led: &Ledger, ok: bool) {
        self.secs.push(secs);
        let c = led.costs();
        let same = *self.costs.get_or_insert(c) == c;
        self.failed += u64::from(!ok || !same);
    }

    /// The end-to-end metrics: one request is one round, and the timings
    /// are taken over the fastest quarter of rounds and of set-ups.
    fn outcome(self, m: usize, setup: &[f64], mut notes: Vec<String>) -> Outcome {
        let c = self.costs.unwrap_or(Costs::ZERO);
        let m = m.max(1) as f64;
        let rounds = fast(&self.secs);
        notes.push(format!(
            "{} build rounds (min {:.3} s, median {:.3} s, max {:.3} s), {} set-ups; timings \
             are over the fastest quarter of rounds",
            self.secs.len(),
            quantile(&self.secs, 0.0),
            median(&self.secs),
            quantile(&self.secs, 1.0),
            setup.len()
        ));
        Outcome {
            attempted: self.secs.len() as u64,
            failed: self.failed,
            values: vec![
                ("setup_s", median(&fast(setup))),
                ("build_s", median(&rounds)),
                ("writes_per_edge", c.asym_writes as f64 / m),
                ("work_per_edge", c.work(OMEGA) as f64 / m),
                ("qps", rounds.len() as f64 / rounds.iter().sum::<f64>()),
                ("latency_p50_us", 1e6 * median(&rounds)),
                ("latency_p99_us", 1e6 * quantile(&rounds, 0.99)),
                ("reads_per_query", c.asym_reads as f64),
                ("writes_per_query", c.asym_writes as f64),
                ("peak_rss_mb", peak_rss_mb()),
            ],
            notes,
        }
    }
}

/// Time `calls` (at most [`PROBE_CALLS`]) runs of `body` on fresh ledgers
/// (`parallel` picks `Ledger::new` or `Ledger::sequential`); returns the
/// median seconds and the last ledger.
fn probe(calls: u64, parallel: bool, mut body: impl FnMut(&mut Ledger)) -> (f64, Ledger) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..calls.clamp(1, PROBE_CALLS) {
        let mut led = if parallel {
            Ledger::new(OMEGA)
        } else {
            Ledger::sequential(OMEGA)
        };
        timed(&mut secs, || body(&mut led));
        last = Some(led);
    }
    (median(&secs), last.expect("at least one call"))
}

/// `ConnectivityOracle::build` then `build_biconnectivity_oracle` on
/// [`oracle_graph`].
pub fn oracle_build(cfg: &Cfg) -> Outcome {
    let n = ORACLE_N;
    let rounds = cfg.quota(1.0, 4);
    let (g, mut setup) = Setup::new(|| oracle_graph(n, cfg.seed), rounds, rounds);
    let pri = Priorities::random(n, cfg.seed);
    let verts: Vec<Vertex> = (0..n as Vertex).collect();
    let refs = Refs::new(&g);
    let k = Ledger::new(OMEGA).sqrt_omega();
    let notes = vec![format!("n = {n}, m = {}, k = {k}", g.m())];

    // One round: the timed builds, then the untimed checks.
    let round = |led: &mut Ledger, trace: Option<&mut Layers>| -> (f64, bool) {
        let t = Instant::now();
        let (conn, bic) = build_pair(led, &g, &pri, &verts, cfg.seed, trace);
        let secs = t.elapsed().as_secs_f64();
        let ok = refs.conn_build_ok(conn.query_handle())
            && refs.biconn_build_ok(bic.query_handle(), BICONN_CHECK_PAIRS, cfg.seed);
        (secs, ok)
    };

    if !cfg.trace {
        return untraced(rounds, &mut setup, |led| round(led, None)).outcome(
            g.m(),
            &setup.secs,
            notes,
        );
    }

    let half = (rounds / 2).max(1);
    for _ in 0..TRACE_SETUPS {
        setup.again(None);
    }
    let gen_secs = setup.secs;
    let mut layers = Layers::default();
    let (plain, traced) = overhead_rounds(half, |t| {
        let mut led = Ledger::new(OMEGA);
        round(&mut led, t.then_some(&mut layers))
    });
    let (decomp_s, decomp_led) = probe(half, true, |led| {
        ImplicitDecomposition::build(led, &g, &pri, &verts, k, cfg.seed, decomp_opts());
    });
    let (decomp_seq_s, _) = probe(half, false, |led| {
        ImplicitDecomposition::build(led, &g, &pri, &verts, k, cfg.seed, decomp_opts());
    });
    let conn_build = |led: &mut Ledger| {
        ConnectivityOracle::build(led, &g, &pri, &verts, k, cfg.seed, conn_opts());
    };
    let (conn_seq_s, _) = probe(half, false, conn_build);
    let (_, conn_led) = probe(1, true, conn_build);
    let bic_build = |led: &mut Ledger| {
        build_biconnectivity_oracle(led, &g, &pri, &verts, k, cfg.seed, decomp_opts());
    };
    let (bic_seq_s, _) = probe(half, false, bic_build);
    let (_, bic_led) = probe(1, true, bic_build);

    let mut values = vec![
        ("graph.gen_s", median(&gen_secs)),
        ("core.decomp_build_s", decomp_s),
        ("core.decomp_build_seq_s", decomp_seq_s),
        ("core.decomp_writes", decomp_led.costs().asym_writes as f64),
        ("connectivity.oracle_build_s", median(&layers.first)),
        ("connectivity.oracle_build_seq_s", conn_seq_s),
        (
            "connectivity.oracle_writes",
            conn_led.costs().asym_writes as f64,
        ),
        ("connectivity.oracle_depth", conn_led.depth() as f64),
        ("biconnectivity.oracle_build_s", median(&layers.second)),
        ("biconnectivity.oracle_build_seq_s", bic_seq_s),
        (
            "biconnectivity.oracle_writes",
            bic_led.costs().asym_writes as f64,
        ),
        ("biconnectivity.oracle_depth", bic_led.depth() as f64),
        (
            "trace.overhead_pct",
            overhead_pct(&plain.secs, &traced.secs),
        ),
    ];
    values.extend(layers.pool.values());
    traced_outcome(plain, traced, values, notes)
}

/// `connectivity_csr` (§4.2, fused pass) then `star_connectivity` on
/// `gen::gnm(n, 16n)`.
pub fn cc_dense(cfg: &Cfg) -> Outcome {
    let n = DENSE_N;
    let rounds = cfg.quota(4.0, 4);
    let (g, mut setup) = Setup::new(|| gen::gnm(n, 16 * n, cfg.seed), rounds, 4);
    let reference = uf_labels(&g);
    let notes = vec![format!(
        "n = {n}, m = {}, CSR ≈ {:.0} MB, beta = 1/{OMEGA}",
        g.m(),
        (8 * g.m() + 4 * n) as f64 / 1e6
    )];

    let round = |led: &mut Ledger, trace: Option<&mut Layers>| -> (f64, bool) {
        let t = Instant::now();
        let (labels, star) = pair(
            led,
            trace,
            |l| connectivity_csr(l, &g, BETA, cfg.seed).labels,
            |l| star_connectivity(l, &g, BETA, cfg.seed),
        );
        let secs = t.elapsed().as_secs_f64();
        let ok = same_partition(&reference, &labels) && same_partition(&reference, star.labels());
        (secs, ok)
    };

    if !cfg.trace {
        return untraced(rounds, &mut setup, |led| round(led, None)).outcome(
            g.m(),
            &setup.secs,
            notes,
        );
    }

    let half = (rounds / 2).max(1);
    for _ in 0..TRACE_SETUPS {
        setup.again(None);
    }
    let gen_secs = setup.secs;
    let mut layers = Layers::default();
    let (plain, traced) = overhead_rounds(half, |t| {
        let mut led = Ledger::new(OMEGA);
        round(&mut led, t.then_some(&mut layers))
    });
    let sec42 = |led: &mut Ledger| {
        connectivity_csr(led, &g, BETA, cfg.seed);
    };
    let star = |led: &mut Ledger| {
        star_connectivity(led, &g, BETA, cfg.seed);
    };
    let (sec42_seq_s, _) = probe(half, false, sec42);
    let (_, sec42_led) = probe(1, true, sec42);
    let (star_seq_s, _) = probe(half, false, star);
    let (_, star_led) = probe(1, true, star);
    let verts: Vec<Vertex> = (0..n as Vertex).collect();
    let (ldd_s, ldd_led) = probe(half, true, |led| {
        low_diameter_decomposition(led, &g, &verts, BETA, cfg.seed);
    });

    let mut values = vec![
        ("graph.gen_s", median(&gen_secs)),
        ("connectivity.sec42_s", median(&layers.first)),
        ("connectivity.sec42_seq_s", sec42_seq_s),
        (
            "connectivity.sec42_writes",
            sec42_led.costs().asym_writes as f64,
        ),
        ("connectivity.star_s", median(&layers.second)),
        ("connectivity.star_seq_s", star_seq_s),
        (
            "connectivity.star_writes",
            star_led.costs().asym_writes as f64,
        ),
        ("prims.ldd_s", ldd_s),
        ("prims.ldd_writes", ldd_led.costs().asym_writes as f64),
        (
            "trace.overhead_pct",
            overhead_pct(&plain.secs, &traced.secs),
        ),
    ];
    values.extend(layers.pool.values());
    traced_outcome(plain, traced, values, notes)
}

/// Per-call timings of a round's two builds (first and second call), and
/// the rounds' scheduler deltas.
#[derive(Default)]
pub struct Layers {
    pub first: Vec<f64>,
    pub second: Vec<f64>,
    pub pool: PoolDelta,
}

/// The oracle pair every oracle workload builds: `ConnectivityOracle::build`
/// then `build_biconnectivity_oracle`, both with `k = √ω`, on one ledger.
pub fn build_pair<'a>(
    led: &mut Ledger,
    g: &'a Csr,
    pri: &'a Priorities,
    verts: &[Vertex],
    seed: u64,
    trace: Option<&mut Layers>,
) -> (ConnectivityOracle<'a, Csr>, BiconnectivityOracle<'a, Csr>) {
    let k = led.sqrt_omega();
    pair(
        led,
        trace,
        |l| ConnectivityOracle::build(l, g, pri, verts, k, seed, conn_opts()),
        |l| build_biconnectivity_oracle(l, g, pri, verts, k, seed, decomp_opts()),
    )
}

/// A round's two build calls on one ledger. `trace` times each call and
/// folds in the pair's scheduler delta.
fn pair<A, B>(
    led: &mut Ledger,
    trace: Option<&mut Layers>,
    first: impl FnOnce(&mut Ledger) -> A,
    second: impl FnOnce(&mut Ledger) -> B,
) -> (A, B) {
    let Some(t) = trace else {
        return (first(led), second(led));
    };
    let before = counters(Stack::Pool);
    let out = (
        timed(&mut t.first, || first(led)),
        timed(&mut t.second, || second(led)),
    );
    t.pool.add(&before, &counters(Stack::Pool));
    out
}

/// The untraced run: `rounds` rounds on fresh ledgers (`round` returns a
/// round's build seconds and whether its output checked out), with the
/// set-up repeats due between them.
fn untraced<F: Fn() -> Csr>(
    rounds: u64,
    setup: &mut Setup<F>,
    round: impl Fn(&mut Ledger) -> (f64, bool),
) -> Rounds {
    let mut r = Rounds::default();
    for i in 0..rounds {
        let mut led = Ledger::new(OMEGA);
        let (secs, ok) = round(&mut led);
        r.record(secs, &led, ok);
        setup.again(Some(i));
    }
    r
}

/// Alternate `half` untraced and `half` traced rounds (`round(traced)`
/// returns the round's build seconds and whether its output checked out);
/// returns both sides.
fn overhead_rounds(half: u64, mut round: impl FnMut(bool) -> (f64, bool)) -> (Rounds, Rounds) {
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    for r in 0..half {
        // ABBA order, so a drifting machine favours neither side.
        let order = if r % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for trace in order {
            let side = if trace { &mut traced } else { &mut plain };
            let (secs, ok) = round(trace);
            side.secs.push(secs);
            side.failed += u64::from(!ok);
        }
    }
    (plain, traced)
}

/// Traced-run overhead: how much longer the traced rounds took, in % of
/// the untraced ones.
pub fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    100.0 * (median(traced) / median(plain) - 1.0)
}

fn traced_outcome(
    plain: Rounds,
    traced: Rounds,
    values: Vec<(&'static str, f64)>,
    mut notes: Vec<String>,
) -> Outcome {
    notes.push(format!(
        "traced run: {} untraced + {} traced rounds, per-layer *_s are medians over them",
        plain.secs.len(),
        traced.secs.len()
    ));
    Outcome {
        attempted: (plain.secs.len() + traced.secs.len()) as u64,
        failed: plain.failed + traced.failed,
        values,
        notes,
    }
}
