//! Multi-tenant wire serving under skewed load: fair-share vs FIFO batch
//! composition, measured through the full `Frontend` + loopback stack.
//!
//! Builds the connectivity oracle, then attaches thousands of loopback
//! wire clients (10 000 on the committed full run) split across four
//! tenants with a 10:1 arrival skew — client counts are the arrival-rate
//! knob; every client submits closed-loop, one request per pump round
//! per open window slot, so hot tenants arrive ~10× faster than cold
//! ones. Three legs drive the identical population:
//!
//! * **fifo** — single shared queue (the pre-tenancy composition):
//!   delivered share tracks arrival share, so the cold tenant starves
//!   down to its arrival fraction;
//! * **fair** — equal-weight deficit round robin: every backlogged
//!   tenant gets the same slice of each micro-batch regardless of
//!   arrival rate;
//! * **weighted** — 4:2:1:1 DRR weights: delivered share tracks weight
//!   share.
//!
//! Fairness is deterministic, not statistical: the leg asserts the max
//! per-tenant deviation from the promised share is within the ±10%
//! acceptance bound on both DRR legs. After arrivals stop, each leg
//! drains fully and asserts quota-free completeness — every tenant's
//! `delivered == submitted`, exactly. p99 ticket latency is measured in
//! pump rounds over loaded-phase deliveries (the model-time latency
//! unit; wall-clock per round depends on host load).
//!
//! Writes the machine-readable `BENCH_PR8.json` (override the path with
//! `WEC_TENANT_BENCH_OUT`) whose `query_throughput_per_sec` /
//! `fifo_throughput_per_sec` / `fair_vs_fifo_throughput_pct` /
//! `fairness_max_dev_pct` / `weighted_fairness_max_dev_pct` /
//! `min_tenant_completeness` keys CI's bench guard validates. Pass
//! `--smoke` for the CI-sized run.

use wec_asym::Ledger;
use wec_bench::{time, TenantLane, TenantLeg, TenantSnapshot};
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_graph::gen;
use wec_serve::{
    encode_frame, loopback_pair, AdmissionPolicy, FairShare, Frame, FrameBuf, Frontend,
    LoopbackTransport, Query, ShardedServer, StreamingServer, TenantId, TenantSpec, Transport,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;
const MAX_BATCH: usize = 256;
const HOT_KEYS: u32 = 64;
/// Per-client in-flight window (closed-loop self-limiting).
const WINDOW: usize = 8;
const TENANTS: usize = 4;

/// One simulated wire client.
struct Client {
    transport: LoopbackTransport,
    rx: FrameBuf,
    tenant: usize,
    /// Requests sent whose answer has not arrived.
    outstanding: usize,
    rng: u32,
}

impl Client {
    fn step(&mut self) -> u32 {
        self.rng = self.rng.wrapping_mul(2654435761).wrapping_add(12345);
        self.rng
    }

    /// The 94%-hot query mix the serving benches share.
    fn next_query(&mut self, n: u32) -> Query {
        let r = self.step();
        let domain = if r % 256 < 241 { HOT_KEYS.min(n) } else { n };
        let a = self.step() % domain;
        let b = (self.step() >> 7) % domain;
        if r.is_multiple_of(3) {
            Query::Connected(a, b)
        } else {
            Query::Component(a)
        }
    }
}

/// What one leg observed.
struct LegOut {
    submitted: [u64; TENANTS],
    delivered_loaded: [u64; TENANTS],
    delivered_total: [u64; TENANTS],
    /// Loaded-phase latencies (pump rounds), per tenant.
    latencies: Vec<Vec<u64>>,
    rounds_loaded: u64,
}

fn p99(sorted: &mut [u64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * 99 / 100] as f64
}

/// Drain every client's inbound bytes, crediting answers to tenants and
/// (during the loaded phase) recording ticket latency in rounds.
fn collect(clients: &mut [Client], out: &mut LegOut, round: u64, loaded: bool) -> u64 {
    let mut delivered = 0;
    let mut buf = [0u8; 4096];
    for c in clients.iter_mut() {
        loop {
            match c.transport.recv(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => c.rx.extend(&buf[..n]),
            }
        }
        while let Some(f) = c.rx.next_frame() {
            match f.expect("server frames are well-formed") {
                Frame::Answer { corr: sent, .. } => {
                    // A client sends at most one request per round, so the
                    // submission round is the correlation id.
                    c.outstanding -= 1;
                    delivered += 1;
                    out.delivered_total[c.tenant] += 1;
                    if loaded {
                        out.delivered_loaded[c.tenant] += 1;
                        out.latencies[c.tenant].push(round - sent);
                    }
                }
                Frame::Error { corr, error } => {
                    panic!("unexpected error frame (corr {corr:?}): {error}")
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    delivered
}

#[allow(clippy::too_many_arguments)]
fn run_leg(
    fe: &mut Frontend<
        impl wec_serve::OracleHandle<Key = u32, Answer = wec_connectivity::ComponentId>,
    >,
    clients: &mut [Client],
    led: &mut Ledger,
    n: u32,
    rounds: u64,
) -> LegOut {
    let mut out = LegOut {
        submitted: [0; TENANTS],
        delivered_loaded: [0; TENANTS],
        delivered_total: [0; TENANTS],
        latencies: vec![Vec::new(); TENANTS],
        rounds_loaded: rounds,
    };
    // Bind every connection to its tenant and a session of its own.
    for (session, c) in clients.iter_mut().enumerate() {
        c.transport
            .send(&encode_frame(&Frame::Hello {
                tenant: TenantId(c.tenant as u16),
                credential: 0,
                session: session as u64,
            }))
            .unwrap();
    }
    fe.pump(led);

    // Loaded phase: closed-loop arrivals, one pump per round.
    for round in 0..rounds {
        for c in clients.iter_mut() {
            if c.outstanding < WINDOW {
                let query = c.next_query(n);
                c.transport
                    .send(&encode_frame(&Frame::Request { corr: round, query }))
                    .unwrap();
                c.outstanding += 1;
                out.submitted[c.tenant] += 1;
            }
        }
        fe.pump(led);
        collect(clients, &mut out, round, true);
    }

    // Drain: arrivals stop; pump until every window is empty.
    let mut round = rounds;
    while clients.iter().any(|c| c.outstanding > 0) {
        fe.pump(led);
        let got = collect(clients, &mut out, round, false);
        round += 1;
        assert!(
            got > 0 || round < rounds + 4,
            "drain stalled at round {round}"
        );
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Client counts are the arrival-rate knob: 10:3:1.5:1 skew.
    let (client_counts, rounds): ([usize; TENANTS], u64) = if smoke {
        ([646, 194, 97, 64], 12)
    } else {
        ([6452, 1935, 968, 645], 60)
    };
    let clients_total: usize = client_counts.iter().sum();
    let n: usize = 4000;

    println!(
        "=== wec-serve multi-tenant wire sweep (threads = {}, ω = {OMEGA}, n = {n}, \
         clients = {clients_total} @ 10:3:1.5:1, rounds = {rounds}, shards = {SHARDS}, \
         batch = {MAX_BATCH}, window = {WINDOW}) ===",
        rayon::current_num_threads()
    );
    let g = gen::bounded_degree_connected(n, 4, n / 4, 42);
    let pri = wec_graph::Priorities::random(n, 42);
    let verts: Vec<u32> = (0..n as u32).collect();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let conn =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());

    let make_clients = || -> Vec<(Client, LoopbackTransport)> {
        let mut v = Vec::with_capacity(clients_total);
        for (t, &count) in client_counts.iter().enumerate() {
            for i in 0..count {
                let (client_end, server_end) = loopback_pair();
                v.push((
                    Client {
                        transport: client_end,
                        rx: FrameBuf::default(),
                        tenant: t,
                        outstanding: 0,
                        rng: (t as u32) << 20 | i as u32 | 1,
                    },
                    server_end,
                ));
            }
        }
        v
    };
    let arrival_share: Vec<f64> = client_counts
        .iter()
        .map(|&c| 100.0 * c as f64 / clients_total as f64)
        .collect();

    let legs_spec: [(&str, FairShare, [u32; TENANTS]); 3] = [
        ("fifo", FairShare::Fifo, [1, 1, 1, 1]),
        ("fair", FairShare::DRR, [1, 1, 1, 1]),
        ("weighted", FairShare::DRR, [4, 2, 1, 1]),
    ];

    let mut legs = Vec::new();
    println!(
        "{:>9} {:>7} {:>9} {:>9} {:>11} {:>11} {:>8} {:>14}",
        "mode", "tenant", "share%", "expect%", "dev%", "p99(rounds)", "compl", "queries/s"
    );
    for (mode, fair_share, weights) in legs_spec {
        let policy = AdmissionPolicy::builder()
            .max_batch(MAX_BATCH)
            .max_queue(1 << 20)
            .cache_capacity(256)
            .fair_share(fair_share)
            .tenants(
                weights
                    .iter()
                    .enumerate()
                    .map(|(t, &w)| TenantSpec::new(t as u16).weight(w)),
            )
            .build();
        let srv = StreamingServer::new(ShardedServer::new(conn.query_handle(), SHARDS), policy);
        let mut fe = Frontend::new(srv);
        let mut population = make_clients();
        let mut clients: Vec<Client> = Vec::with_capacity(clients_total);
        for (c, server_end) in population.drain(..) {
            fe.connect(Box::new(server_end));
            clients.push(c);
        }
        let mut qled = Ledger::new(OMEGA);
        let (secs, out) = time(|| run_leg(&mut fe, &mut clients, &mut qled, n as u32, rounds));

        let loaded_total: u64 = out.delivered_loaded.iter().sum();
        let weight_total: u32 = weights.iter().sum();
        let mut lanes = Vec::new();
        let mut max_dev = 0.0f64;
        let mut all_lat: Vec<u64> = Vec::new();
        for t in 0..TENANTS {
            let share = 100.0 * out.delivered_loaded[t] as f64 / loaded_total.max(1) as f64;
            let expected = match mode {
                "fifo" => arrival_share[t],
                _ => 100.0 * weights[t] as f64 / weight_total as f64,
            };
            let completeness = out.delivered_total[t] as f64 / out.submitted[t].max(1) as f64;
            let mut lat = out.latencies[t].clone();
            all_lat.extend_from_slice(&lat);
            let lane = TenantLane {
                tenant: t as u64,
                weight: weights[t] as u64,
                clients: client_counts[t] as u64,
                submitted: out.submitted[t],
                delivered_loaded: out.delivered_loaded[t],
                share_pct: share,
                expected_share_pct: expected,
                p99_latency_rounds: p99(&mut lat),
                completeness,
            };
            let dev = 100.0 * (share - expected).abs() / expected.max(f64::EPSILON);
            if mode != "fifo" {
                max_dev = max_dev.max(dev);
            }
            assert_eq!(
                out.delivered_total[t], out.submitted[t],
                "{mode}: tenant {t} must drain to completeness 1.0"
            );
            println!(
                "{:>9} {:>7} {:>9.2} {:>9.2} {:>11.2} {:>11.0} {:>8.3} {:>14.0}",
                mode,
                t,
                lane.share_pct,
                lane.expected_share_pct,
                dev,
                lane.p99_latency_rounds,
                lane.completeness,
                out.delivered_total.iter().sum::<u64>() as f64 / secs.max(1e-9)
            );
            lanes.push(lane);
        }
        if mode != "fifo" {
            assert!(
                max_dev <= 10.0,
                "{mode}: fair-share deviation {max_dev:.2}% exceeds the ±10% acceptance bound"
            );
        }
        let delivered_total: u64 = out.delivered_total.iter().sum();
        legs.push(TenantLeg {
            mode: mode.to_string(),
            rounds: out.rounds_loaded,
            lanes,
            fairness_max_dev_pct: max_dev,
            p99_latency_rounds: p99(&mut all_lat),
            seconds: secs,
            query_throughput_per_sec: delivered_total as f64 / secs.max(1e-9),
        });
    }

    let snap = TenantSnapshot {
        pr: 8,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        shards: SHARDS as u64,
        clients: clients_total as u64,
        legs,
    };
    println!(
        "acceptance: fair dev {:.2}% / weighted dev {:.2}% (≤ 10), fair throughput {:.1}% of \
         fifo, min completeness {}",
        snap.legs
            .iter()
            .find(|l| l.mode == "fair")
            .map_or(f64::NAN, |l| l.fairness_max_dev_pct),
        snap.legs
            .iter()
            .find(|l| l.mode == "weighted")
            .map_or(f64::NAN, |l| l.fairness_max_dev_pct),
        snap.fair_vs_fifo_throughput_pct(),
        snap.min_tenant_completeness()
    );
    match snap.write("BENCH_PR8.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR8.json: {e}"),
    }
}
