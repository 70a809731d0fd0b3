//! Wire serving under deterministic byte-level chaos: exactly-once
//! retrying clients vs a fire-once baseline, measured through the full
//! `WireClient` + `ChaosTransport` + `Frontend` stack.
//!
//! Builds the connectivity oracle, then drives the 94%-hot wire workload
//! through byte-fault-injected loopback connections at fault rates
//! {0‰, 1‰, 10‰} applied to every fault family (short reads/writes,
//! mid-frame disconnects, stall ticks, duplicated delivery — each
//! decision a pure function of `(seed, connection, byte offset)`, so
//! every leg replays bit-identically). Two client populations drive each
//! rate:
//!
//! * **retry** — `WireClient`s: session `Hello` on every (re)connect,
//!   charged exponential backoff, resubmission of unacknowledged
//!   correlation ids into the server's per-session dedup window. The
//!   acceptance bar: completeness exactly 1.0 at every fault rate —
//!   at-least-once delivery, exactly-once answers.
//! * **noretry** — fire-once clients that open one session, send each
//!   request once, and never reconnect or resubmit: what the same faults
//!   cost an unhardened stack. At 10‰ this baseline visibly loses
//!   answers.
//!
//! Writes the machine-readable `BENCH_PR10.json` (override the path with
//! `WEC_CHAOS_BENCH_OUT`) whose `completeness_at_10pm` (must be 1.0),
//! `noretry_completeness_at_10pm`, `duplicates_suppressed_total`, and
//! `throughput_retained_pct_at_10pm` keys CI's bench guard validates.
//! Pass `--smoke` for the CI-sized run.

use std::collections::BTreeSet;

use wec_asym::Ledger;
use wec_bench::{time, ChaosLeg, ChaosSnapshot};
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_graph::gen;
use wec_serve::{
    encode_frame, loopback_listener, AdmissionPolicy, ChaosConnector, Connector, Frame, FrameBuf,
    Frontend, LifecyclePolicy, Query, RetryPolicy, ShardedServer, StreamingServer, TenantId,
    Transport, WireClient, WireFaultPlan, FRAME_DECODE_OPS, FRAME_ENCODE_OPS,
};

const OMEGA: u64 = 64;
const SHARDS: usize = 4;
const MAX_BATCH: usize = 64;
const HOT_KEYS: u32 = 64;
const WINDOW: usize = 8;
const SEED: u64 = 0xc4a0_5bec;

/// The 94%-hot query mix the serving benches share.
fn next_query(rng: &mut u32, n: u32) -> Query {
    let mut step = || {
        *rng = rng.wrapping_mul(2654435761).wrapping_add(12345);
        *rng
    };
    let r = step();
    let domain = if r % 256 < 241 { HOT_KEYS.min(n) } else { n };
    let a = step() % domain;
    let b = (step() >> 7) % domain;
    if r.is_multiple_of(3) {
        Query::Connected(a, b)
    } else {
        Query::Component(a)
    }
}

/// A fire-once client: opens one session, submits each query at most
/// once over a chaos transport, never reconnects, never resubmits. The
/// unhardened baseline.
struct NoRetryClient {
    transport: Option<Box<dyn Transport>>,
    rx: FrameBuf,
    rng: u32,
    queries_left: u64,
    /// Correlation ids sent and not yet answered.
    outstanding: BTreeSet<u64>,
    submitted: u64,
    answered: u64,
}

impl NoRetryClient {
    /// Dial once and open session `session`; a failed dial or `Hello`
    /// leaves a client that is finished before it starts.
    fn open(connector: &mut dyn Connector, session: u64, rng: u32, queries: u64) -> Self {
        let mut transport = connector.dial().ok();
        let hello = Frame::Hello {
            tenant: TenantId::DEFAULT,
            credential: 0,
            session,
        };
        if let Some(t) = transport.as_mut() {
            if t.send(&encode_frame(&hello)).is_err() {
                transport = None;
            }
        }
        NoRetryClient {
            transport,
            rx: FrameBuf::default(),
            rng,
            queries_left: queries,
            outstanding: BTreeSet::new(),
            submitted: 0,
            answered: 0,
        }
    }

    fn finished(&self) -> bool {
        self.transport.is_none() || (self.queries_left == 0 && self.outstanding.is_empty())
    }

    /// One round: fill the window, drain answers. Any transport failure
    /// ends the client — outstanding answers are simply lost.
    fn tick(&mut self, led: &mut Ledger, n: u32) -> u64 {
        let Some(transport) = self.transport.as_mut() else {
            return 0;
        };
        while self.queries_left > 0 && self.outstanding.len() < WINDOW {
            let query = next_query(&mut self.rng, n);
            let corr = self.submitted;
            led.op(FRAME_ENCODE_OPS);
            match transport.send(&encode_frame(&Frame::Request { corr, query })) {
                Ok(()) => {
                    self.queries_left -= 1;
                    self.outstanding.insert(corr);
                    self.submitted += 1;
                }
                Err(_) => {
                    self.transport = None;
                    return 0;
                }
            }
        }
        let mut buf = [0u8; 1024];
        loop {
            let Some(transport) = self.transport.as_mut() else {
                return 0;
            };
            match transport.recv(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.rx.extend(&buf[..n]),
                Err(_) => {
                    self.transport = None;
                    break;
                }
            }
        }
        let mut got = 0;
        while let Some(f) = self.rx.next_frame() {
            led.op(FRAME_DECODE_OPS);
            if let Ok(Frame::Answer { corr, .. }) = f {
                if self.outstanding.remove(&corr) {
                    self.answered += 1;
                    got += 1;
                }
            }
        }
        got
    }
}

struct LegOut {
    submitted: u64,
    answered: u64,
    duplicates_suppressed: u64,
    reconnects: u64,
    resubmitted: u64,
    conns_closed: u64,
    ops: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_leg(
    conn: &ConnectivityOracle<'_, wec_graph::Csr>,
    n: u32,
    per_mille: u16,
    retry: bool,
    clients: usize,
    per_client: u64,
) -> LegOut {
    let policy = AdmissionPolicy::builder()
        .max_batch(MAX_BATCH)
        .max_queue(1 << 20)
        .cache_capacity(256)
        .build();
    let srv = StreamingServer::new(ShardedServer::new(conn.query_handle(), SHARDS), policy);
    let mut fe = Frontend::new(srv)
        .with_window(WINDOW)
        .with_lifecycle(LifecyclePolicy {
            max_strikes: 8,
            ..LifecyclePolicy::default()
        });
    let (connector, listener) = loopback_listener();
    let mut sled = Ledger::new(OMEGA);
    let mut cled = Ledger::new(OMEGA);

    let mut answered = 0u64;
    let mut submitted = 0u64;
    let mut duplicates = 0u64;
    let mut reconnects = 0u64;
    let mut resubmitted = 0u64;

    if retry {
        let mut workers: Vec<WireClient> = (0..clients)
            .map(|i| {
                let plan = WireFaultPlan::seeded(SEED ^ ((i as u64) << 32)).with_all(per_mille);
                let mut c = WireClient::new(
                    Box::new(ChaosConnector::new(connector.clone(), plan)),
                    0xbe0_0000 + i as u64,
                )
                .with_retry(RetryPolicy {
                    window: WINDOW,
                    response_deadline: 6,
                    ..RetryPolicy::default()
                });
                let mut rng = (i as u32) << 8 | 1;
                for _ in 0..per_client {
                    c.submit(next_query(&mut rng, n));
                }
                c
            })
            .collect();
        submitted = (clients as u64) * per_client;
        for _round in 0..2_000_000u64 {
            while let Some(t) = listener.accept() {
                fe.connect(Box::new(t));
            }
            for c in workers.iter_mut() {
                answered += c.tick(&mut cled).len() as u64;
            }
            fe.pump(&mut sled);
            if workers.iter().all(|c| c.is_idle()) {
                break;
            }
        }
        for c in &workers {
            let s = c.client_stats();
            duplicates += s.duplicates_suppressed;
            reconnects += s.reconnects;
            resubmitted += s.resubmitted;
        }
    } else {
        let mut chaos = ChaosConnector::new(
            connector.clone(),
            WireFaultPlan::seeded(SEED).with_all(per_mille),
        );
        let mut workers: Vec<NoRetryClient> = (0..clients)
            .map(|i| {
                NoRetryClient::open(
                    &mut chaos,
                    0xf1e_0000 + i as u64,
                    (i as u32) << 8 | 1,
                    per_client,
                )
            })
            .collect();
        // Run until every client is finished or wedged (a torn frame can
        // leave a client waiting forever — bounded patience, then the
        // answers count as lost, which is the point of this baseline).
        let mut stale = 0u32;
        while !workers.iter().all(NoRetryClient::finished) && stale < 300 {
            while let Some(t) = listener.accept() {
                fe.connect(Box::new(t));
            }
            let mut progress = 0u64;
            for c in workers.iter_mut() {
                progress += c.tick(&mut cled, n);
            }
            fe.pump(&mut sled);
            stale = if progress == 0 { stale + 1 } else { 0 };
        }
        for c in &workers {
            submitted += c.submitted;
            answered += c.answered;
        }
    }

    let fstats = fe.frontend_stats();
    duplicates += fstats.dup_requests_suppressed + fstats.dup_answers_replayed;
    LegOut {
        submitted,
        answered,
        duplicates_suppressed: duplicates,
        reconnects,
        resubmitted,
        conns_closed: fstats.conns_closed,
        ops: sled.costs().sym_ops + cled.costs().sym_ops,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, per_client): (usize, u64) = if smoke { (8, 40) } else { (32, 250) };
    let n: usize = 4000;

    println!(
        "=== wec-serve wire-chaos sweep (threads = {}, ω = {OMEGA}, n = {n}, clients = \
         {clients} × {per_client} queries, shards = {SHARDS}, batch = {MAX_BATCH}, window = \
         {WINDOW}, seed = {SEED:#x}) ===",
        rayon::current_num_threads()
    );
    let g = gen::bounded_degree_connected(n, 4, n / 4, 42);
    let pri = wec_graph::Priorities::random(n, 42);
    let verts: Vec<u32> = (0..n as u32).collect();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let conn =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());

    let mut legs = Vec::new();
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8} {:>12} {:>10}",
        "rate‰", "mode", "compl", "dups", "reconnect", "resubmit", "closed", "queries/s", "ops/q"
    );
    for per_mille in [0u16, 1, 10] {
        for retry in [true, false] {
            let mode = if retry { "retry" } else { "noretry" };
            let (secs, out) =
                time(|| run_leg(&conn, n as u32, per_mille, retry, clients, per_client));
            let completeness = out.answered as f64 / out.submitted.max(1) as f64;
            if retry {
                assert_eq!(
                    out.answered, out.submitted,
                    "retry leg at {per_mille}‰ must reach completeness 1.0"
                );
            }
            let leg = ChaosLeg {
                fault_per_mille: per_mille as u64,
                mode: mode.to_string(),
                completeness,
                duplicates_suppressed: out.duplicates_suppressed,
                reconnects: out.reconnects,
                resubmitted: out.resubmitted,
                conns_closed: out.conns_closed,
                seconds_per_stream: secs,
                query_throughput_per_sec: out.answered as f64 / secs.max(1e-9),
                ops_per_query: out.ops as f64 / out.submitted.max(1) as f64,
            };
            println!(
                "{:>6} {:>8} {:>8.4} {:>8} {:>10} {:>10} {:>8} {:>12.0} {:>10.1}",
                per_mille,
                mode,
                leg.completeness,
                leg.duplicates_suppressed,
                leg.reconnects,
                leg.resubmitted,
                leg.conns_closed,
                leg.query_throughput_per_sec,
                leg.ops_per_query
            );
            legs.push(leg);
        }
    }

    let snap = ChaosSnapshot {
        pr: 10,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        shards: SHARDS as u64,
        clients: clients as u64,
        per_client,
        seed: SEED,
        legs,
    };
    println!(
        "acceptance: retry completeness at 10‰ = {} (must be 1.0), noretry baseline = {:.4}, \
         throughput retained {:.1}%, {} duplicates suppressed",
        snap.retry_completeness(10),
        snap.noretry_completeness(10),
        snap.throughput_retained_pct(10),
        snap.duplicates_suppressed_total()
    );
    match snap.write("BENCH_PR10.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR10.json: {e}"),
    }
}
