//! The chaos-hardened wire contracts, exactly:
//!
//! 1. **exactly-once under byte faults** — a seeded 10‰ byte-fault plan
//!    (short reads/writes, mid-frame disconnects, stalls, duplicated
//!    delivery) over 1200+ wire queries from retrying clients completes
//!    every request with exactly one answer per correlation id (while
//!    fire-once clients over the same plan lose answers), and the
//!    whole run — costs, frontend stats, client stats, every delivered
//!    answer — is bit-reproducible across reruns (CI also pins it across
//!    `WEC_THREADS ∈ {1, 2, 8, 16}` and in the fault matrix);
//! 2. **zero-knob transparency** — wrapping every connection in a
//!    `ChaosTransport` with no knobs raised leaves a wire workload's
//!    costs and stats bit-identical to bare transports;
//! 3. **connection lifecycle** — keepalive pings keep a quiet-but-alive
//!    client connected, a truly idle one is told `Goaway(IdleTimeout)`
//!    and closed, repeated malformed frames escalate through typed
//!    errors to `Goaway(Misbehavior)`, and a slow client backpressures
//!    into a bounded send queue without ever losing a frame.
//! 4. **client dedup** — a replayed answer for a completed request is
//!    suppressed and counted, never delivered twice.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wec::asym::{Costs, Ledger};
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::graph::{gen, Csr, Priorities};
use wec::serve::{
    encode_frame, loopback_listener, loopback_pair, AdmissionPolicy, Answer, ChaosConnector,
    ChaosTransport, ClientStats, Connector, Frame, FrameBuf, Frontend, FrontendStats, GoawayReason,
    LifecyclePolicy, Query, RetryPolicy, ServeError, ShardedServer, StreamingServer, TenantId,
    Transport, TransportError, WireClient, WireFault, WireFaultPlan,
};

const OMEGA: u64 = 64;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(2654435761).wrapping_add(12345);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The session `Hello` every raw-frame client opens with.
const HELLO: Frame = Frame::Hello {
    tenant: TenantId::DEFAULT,
    credential: 0,
    session: 1,
};

fn oracle_fixture() -> (Csr, Priorities, Vec<u32>) {
    let g = gen::bounded_degree_connected(300, 4, 60, 7);
    let pri = Priorities::random(g.n(), 3);
    let verts: Vec<u32> = (0..g.n() as u32).collect();
    (g, pri, verts)
}

/// One full chaos run: `clients` retrying clients submit `per_client`
/// queries each through byte-fault-injected connections into one
/// frontend; returns everything observable so reruns can be compared
/// bit-for-bit.
#[allow(clippy::type_complexity)]
fn chaos_run(
    seed: u64,
    per_mille: u16,
    clients: usize,
    per_client: usize,
) -> (
    Costs,
    FrontendStats,
    Vec<(ClientStats, Costs)>,
    Vec<(usize, u64, bool)>,
) {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 20)
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv).with_lifecycle(LifecyclePolicy {
        max_strikes: 8,
        ..LifecyclePolicy::default()
    });

    let (connector, listener) = loopback_listener();
    let mut workers: Vec<(WireClient, Ledger)> = (0..clients)
        .map(|i| {
            // Distinct seeds per client: diverse fault streams, still
            // fully deterministic.
            let plan = WireFaultPlan::seeded(seed ^ (i as u64) << 32).with_all(per_mille);
            let client = WireClient::new(
                Box::new(ChaosConnector::new(connector.clone(), plan)),
                0xc11e_0000 + i as u64,
            )
            .with_retry(RetryPolicy {
                window: 8,
                response_deadline: 6,
                ..RetryPolicy::default()
            });
            (client, Ledger::new(OMEGA))
        })
        .collect();

    let mut r = Lcg(seed | 1);
    for (client, _) in workers.iter_mut() {
        for _ in 0..per_client {
            let (u, v) = (r.below(g.n() as u64) as u32, r.below(g.n() as u64) as u32);
            client.submit(Query::Connected(u, v));
        }
    }

    let mut serve_led = Ledger::new(OMEGA);
    let mut outcomes: Vec<(usize, u64, bool)> = Vec::new();
    for _round in 0..200_000 {
        while let Some(t) = listener.accept() {
            fe.connect(Box::new(t));
        }
        for (i, (client, cled)) in workers.iter_mut().enumerate() {
            for (corr, result) in client.tick(cled) {
                let connected = result
                    .expect("queries are answerable")
                    .as_bool()
                    .expect("Connected answers carry a bool");
                outcomes.push((i, corr, connected));
            }
        }
        fe.pump(&mut serve_led);
        if workers.iter().all(|(c, _)| c.is_idle()) {
            break;
        }
    }

    let client_obs = workers
        .iter()
        .map(|(c, l)| (c.client_stats(), l.costs()))
        .collect();
    (serve_led.costs(), fe.frontend_stats(), client_obs, outcomes)
}

/// The fire-once baseline over the same plans and queries as
/// [`chaos_run`]: each client dials once, opens one session, sends each
/// request as a raw frame exactly once and never reconnects or resubmits,
/// so a fault that tears its connection loses every answer still in
/// flight. A client that stops making progress for 300 rounds has lost
/// its answers. Returns `(submitted, answered)`.
fn fire_once_run(seed: u64, per_mille: u16, clients: usize, per_client: usize) -> (u64, u64) {
    struct FireOnce {
        transport: Option<Box<dyn Transport>>,
        rx: FrameBuf,
        queries: Vec<Query>,
        next: usize,
        /// Correlation ids sent and not yet answered.
        in_flight: std::collections::BTreeSet<u64>,
        answered: u64,
    }
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 20)
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv).with_lifecycle(LifecyclePolicy {
        max_strikes: 8,
        ..LifecyclePolicy::default()
    });
    let (connector, listener) = loopback_listener();
    let mut r = Lcg(seed | 1);
    let mut workers: Vec<FireOnce> = (0..clients)
        .map(|i| {
            let plan = WireFaultPlan::seeded(seed ^ (i as u64) << 32).with_all(per_mille);
            let mut transport = ChaosConnector::new(connector.clone(), plan).dial().ok();
            let hello = Frame::Hello {
                tenant: TenantId::DEFAULT,
                credential: 0,
                session: 0xf1e_0000 + i as u64,
            };
            if transport
                .as_mut()
                .is_some_and(|t| t.send(&encode_frame(&hello)).is_err())
            {
                transport = None;
            }
            let queries = (0..per_client)
                .map(|_| {
                    Query::Connected(r.below(g.n() as u64) as u32, r.below(g.n() as u64) as u32)
                })
                .collect();
            FireOnce {
                transport,
                rx: FrameBuf::default(),
                queries,
                next: 0,
                in_flight: Default::default(),
                answered: 0,
            }
        })
        .collect();

    let mut serve_led = Ledger::new(OMEGA);
    let mut stale = 0;
    while stale < 300 {
        while let Some(t) = listener.accept() {
            fe.connect(Box::new(t));
        }
        let mut progress = 0;
        for w in workers.iter_mut() {
            let Some(t) = w.transport.as_mut() else {
                continue;
            };
            let mut alive = true;
            while alive && w.next < w.queries.len() && w.in_flight.len() < 8 {
                let corr = w.next as u64;
                let frame = Frame::Request {
                    corr,
                    query: w.queries[w.next],
                };
                alive = t.send(&encode_frame(&frame)).is_ok();
                w.next += 1;
                w.in_flight.insert(corr);
            }
            let mut buf = [0u8; 512];
            while alive {
                match t.recv(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => w.rx.extend(&buf[..n]),
                    Err(_) => alive = false,
                }
            }
            while let Some(f) = w.rx.next_frame() {
                // A duplicated answer frame counts once.
                if let Ok(Frame::Answer { corr, .. }) = f {
                    if w.in_flight.remove(&corr) {
                        w.answered += 1;
                        progress += 1;
                    }
                }
            }
            if !alive {
                w.transport = None;
            }
        }
        fe.pump(&mut serve_led);
        let done = workers.iter().all(|w| {
            w.transport.is_none() || (w.next == w.queries.len() && w.in_flight.is_empty())
        });
        if done {
            break;
        }
        stale = if progress == 0 { stale + 1 } else { 0 };
    }
    let answered = workers.iter().map(|w| w.answered).sum();
    ((clients * per_client) as u64, answered)
}

/// The tentpole acceptance: 4 retrying clients × 320 queries under a
/// seeded 10‰ byte-fault plan. Every client observes exactly-once
/// answers — completeness 1.0, zero duplicate deliveries to the
/// application — and the entire run is bit-reproducible.
#[test]
fn chaos_ten_per_mille_exactly_once_and_reproducible() {
    let (costs, fstats, cstats, outcomes) = chaos_run(0xc4a05, 10, 4, 320);

    // Completeness 1.0: every submitted correlation id answered.
    assert_eq!(outcomes.len(), 4 * 320, "completeness 1.0 under chaos");
    let mut seen = std::collections::HashSet::new();
    for &(client, corr, _) in &outcomes {
        assert!(seen.insert((client, corr)), "exactly one answer per corr");
    }
    for (stats, _) in &cstats {
        assert_eq!(stats.answers, 320);
    }

    // The plan actually injected: the run survived real faults, it
    // didn't dodge them.
    let reconnects: u64 = cstats.iter().map(|(s, _)| s.reconnects).sum();
    let resubmitted: u64 = cstats.iter().map(|(s, _)| s.resubmitted).sum();
    assert!(
        reconnects > 0,
        "10‰ disconnects must fire across ~4×320 frames"
    );
    assert!(resubmitted > 0, "reconnects resubmit unacknowledged work");
    assert!(
        fstats.sessions_rebound > 0,
        "sessions survive reconnects server-side"
    );
    assert!(
        fstats.dup_requests_suppressed + fstats.dup_answers_replayed > 0,
        "the dedup window did real work"
    );

    // The fire-once baseline over the same 10‰ plans visibly loses
    // answers: retries and the dedup window are what make it 1.0.
    let (submitted, answered) = fire_once_run(0xc4a05, 10, 4, 320);
    assert!(
        answered < submitted,
        "fire-once completeness {answered}/{submitted} must be < 1.0 at 10‰"
    );
    assert_eq!(
        fire_once_run(0xc4a05, 10, 4, 320),
        (submitted, answered),
        "the fire-once leg is reproducible"
    );

    // Bit-reproducible: an identical rerun observes identical
    // everything.
    let rerun = chaos_run(0xc4a05, 10, 4, 320);
    assert_eq!(rerun.0, costs, "server costs reproduce");
    assert_eq!(rerun.1, fstats, "frontend stats reproduce");
    assert_eq!(rerun.2, cstats, "client stats and costs reproduce");
    assert_eq!(rerun.3, outcomes, "every delivered answer reproduces");

    // A different seed is a different (but internally consistent) run.
    let other = chaos_run(0x5eed, 10, 4, 320);
    assert_eq!(other.3.len(), 4 * 320);
    assert_ne!(
        (other.0, other.1),
        (costs, fstats),
        "seeds matter — this is injection, not a no-op"
    );
}

/// Zero-knob transparency: the same wire workload served through
/// `ChaosTransport`-wrapped connections with no knobs raised has
/// bit-identical costs and stats to bare transports — chaos off is
/// exactly the production path.
#[test]
fn zero_knob_chaos_run_is_bit_identical_to_bare_transports() {
    let run = |wrap: bool| -> (Costs, FrontendStats) {
        let (g, pri, verts) = oracle_fixture();
        let mut led = Ledger::new(OMEGA);
        let k = led.sqrt_omega();
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
        let policy = AdmissionPolicy::builder()
            .max_batch(8)
            .max_queue(1 << 20)
            .build();
        let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
        let mut fe = Frontend::new(srv);
        let (mut client, server_end) = loopback_pair();
        if wrap {
            fe.connect(Box::new(ChaosTransport::new(
                server_end,
                WireFaultPlan::seeded(42),
                0,
            )));
        } else {
            fe.connect(Box::new(server_end));
        }

        let mut wire_led = Ledger::new(OMEGA);
        let mut r = Lcg(7);
        client.send(&encode_frame(&HELLO)).unwrap();
        for corr in 0..100 {
            let query = Query::Connected(r.below(300) as u32, r.below(300) as u32);
            client
                .send(&encode_frame(&Frame::Request { corr, query }))
                .unwrap();
        }
        fe.drain(&mut wire_led);
        let mut buf = [0u8; 512];
        let mut rx = FrameBuf::default();
        let mut answers = 0;
        loop {
            match client.recv(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => rx.extend(&buf[..n]),
            }
        }
        while let Some(f) = rx.next_frame() {
            assert!(matches!(f, Ok(Frame::Answer { .. })));
            answers += 1;
        }
        assert_eq!(answers, 100);
        (wire_led.costs(), fe.frontend_stats())
    };
    assert_eq!(run(true), run(false), "zero-knob chaos is invisible");
}

/// Keepalive: a connection with nothing to say stays open as long as it
/// answers pings; the client-side `WireClient` answers them as part of
/// its tick.
#[test]
fn keepalive_pings_hold_a_quiet_connection_open() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let srv = StreamingServer::new(
        ShardedServer::new(&oracle, 2),
        AdmissionPolicy::builder().build(),
    );
    let mut fe = Frontend::new(srv).with_lifecycle(LifecyclePolicy {
        idle_deadline: 2,
        ping_grace: 3,
        ..LifecyclePolicy::default()
    });

    let (connector, listener) = loopback_listener();
    let mut client = WireClient::new(Box::new(connector), 1);
    let mut cled = Ledger::new(OMEGA);

    // Connect and complete one query, then go quiet (but keep ticking).
    client.submit(Query::Connected(0, 1));
    let mut done = false;
    for _ in 0..40 {
        while let Some(t) = listener.accept() {
            fe.connect(Box::new(t));
        }
        done |= !client.tick(&mut cled).is_empty();
        fe.pump(&mut led);
    }
    assert!(done, "the query completed");
    let fstats = fe.frontend_stats();
    assert!(fstats.pings_sent > 0, "idle deadline pinged the connection");
    assert_eq!(fstats.idle_closed, 0, "answered pings keep it open");
    assert_eq!(fstats.conns_closed, 0);
    assert!(client.client_stats().pings_answered > 0);
    assert_eq!(client.client_stats().reconnects, 0, "never kicked off");
}

/// Idle eviction: a connection that answers nothing — not even the ping
/// — is told `Goaway(IdleTimeout)` and closed, in bounded model time.
#[test]
fn idle_connection_is_pinged_then_goaway_closed() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let srv = StreamingServer::new(
        ShardedServer::new(&oracle, 2),
        AdmissionPolicy::builder().build(),
    );
    let mut fe = Frontend::new(srv).with_lifecycle(LifecyclePolicy {
        idle_deadline: 3,
        ping_grace: 2,
        ..LifecyclePolicy::default()
    });
    let (mut silent, server_end) = loopback_pair();
    let conn = fe.connect(Box::new(server_end));

    for _ in 0..10 {
        fe.pump(&mut led);
    }
    assert!(fe.conn_closed(conn), "idle connection evicted");
    let fstats = fe.frontend_stats();
    assert_eq!(fstats.pings_sent, 1);
    assert_eq!(fstats.idle_closed, 1);

    // The silent peer was told why, in order: ping, then goaway.
    let mut rx = FrameBuf::default();
    let mut buf = [0u8; 256];
    loop {
        match silent.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => rx.extend(&buf[..n]),
        }
    }
    let mut frames = Vec::new();
    while let Some(f) = rx.next_frame() {
        frames.push(f.unwrap());
    }
    assert!(matches!(frames[0], Frame::Ping { .. }));
    assert!(matches!(
        frames[1],
        Frame::Goaway {
            reason: GoawayReason::IdleTimeout
        }
    ));
}

/// Strike escalation: every malformed frame is answered with a typed
/// error, and at `max_strikes` the connection is told
/// `Goaway(Misbehavior)` and closed — loud degradation, never a panic or
/// a silent drop.
#[test]
fn malformed_frame_strikes_escalate_to_goaway() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let srv = StreamingServer::new(
        ShardedServer::new(&oracle, 2),
        AdmissionPolicy::builder().build(),
    );
    let mut fe = Frontend::new(srv).with_lifecycle(LifecyclePolicy {
        max_strikes: 2,
        ..LifecyclePolicy::default()
    });
    let (mut abuser, server_end) = loopback_pair();
    let conn = fe.connect(Box::new(server_end));

    // An unknown-kind frame: [len=2][ver=2][kind=99].
    let garbage = [2u8, 0, 0, 0, 2, 99];
    abuser.send(&garbage).unwrap();
    fe.pump(&mut led);
    assert!(!fe.conn_closed(conn), "one strike is tolerated");
    abuser.send(&garbage).unwrap();
    fe.pump(&mut led);
    assert!(fe.conn_closed(conn), "second strike closes");
    let fstats = fe.frontend_stats();
    assert_eq!(fstats.malformed_frames, 2);
    assert_eq!(fstats.strike_closed, 1);

    let mut rx = FrameBuf::default();
    let mut buf = [0u8; 256];
    loop {
        match abuser.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => rx.extend(&buf[..n]),
        }
    }
    let mut frames = Vec::new();
    while let Some(f) = rx.next_frame() {
        frames.push(f.unwrap());
    }
    assert_eq!(
        frames[0],
        Frame::Error {
            corr: None,
            error: ServeError::MalformedFrame(WireFault::UnknownKind(99)),
        },
        "strike one: typed error, not a drop"
    );
    assert_eq!(frames[1], frames[0], "strike two answered too");
    assert_eq!(
        frames[2],
        Frame::Goaway {
            reason: GoawayReason::Misbehavior
        }
    );
}

/// A transport that can be switched into refusing sends with `Busy`,
/// modelling a reader too slow to drain its socket.
struct SlowReader<T> {
    inner: T,
    busy: Arc<AtomicBool>,
}

impl<T: Transport> Transport for SlowReader<T> {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if self.busy.load(Ordering::Relaxed) {
            return Err(TransportError::Busy);
        }
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        self.inner.recv(buf)
    }
}

/// Slow-client backpressure: while the transport refuses sends, answer
/// frames queue in the connection's bounded send buffer and the frontend
/// stops ingesting that connection; when the client recovers, every
/// queued frame arrives in order — bounded memory, zero dropped bytes.
#[test]
fn slow_client_backpressures_without_losing_frames() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let srv = StreamingServer::new(
        ShardedServer::new(&oracle, 2),
        AdmissionPolicy::builder().max_batch(8).build(),
    );
    let mut fe = Frontend::new(srv)
        .with_window(8)
        .with_lifecycle(LifecyclePolicy {
            send_buffer: 2,
            ..LifecyclePolicy::default()
        });
    let busy = Arc::new(AtomicBool::new(true));
    let (mut client, server_end) = loopback_pair();
    let conn = fe.connect(Box::new(SlowReader {
        inner: server_end,
        busy: Arc::clone(&busy),
    }));

    // Five requests land while the client cannot absorb answers.
    client.send(&encode_frame(&HELLO)).unwrap();
    for u in 0..5u32 {
        client
            .send(&encode_frame(&Frame::Request {
                corr: u as u64,
                query: Query::Connected(u, u + 1),
            }))
            .unwrap();
    }
    for _ in 0..4 {
        fe.pump(&mut led);
    }
    let fstats = fe.frontend_stats();
    assert!(
        fstats.backpressure_skips > 0,
        "the full send queue stopped ingest"
    );
    assert!(!fe.conn_closed(conn), "Busy is not a failure");

    // A sixth request sits unread in the transport until the queue
    // drains — submitted now, served after recovery.
    client
        .send(&encode_frame(&Frame::Request {
            corr: 5,
            query: Query::Connected(5, 6),
        }))
        .unwrap();
    busy.store(false, Ordering::Relaxed);
    fe.drain(&mut led);

    let mut rx = FrameBuf::default();
    let mut buf = [0u8; 512];
    loop {
        match client.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => rx.extend(&buf[..n]),
        }
    }
    let mut corrs = Vec::new();
    while let Some(f) = rx.next_frame() {
        match f.unwrap() {
            Frame::Answer { corr, .. } => corrs.push(corr),
            other => panic!("expected answers only, got {other:?}"),
        }
    }
    assert_eq!(corrs, vec![0, 1, 2, 3, 4, 5], "in order, none dropped");
    assert_eq!(fe.frontend_stats().send_failures, 0);
}

/// Exactly-once without a completed-id record: correlation ids are never
/// reused, so a replayed answer for a request that already completed is
/// counted in `duplicates_suppressed` and never delivered a second time,
/// and an answer for an id never issued is dropped the same way.
#[test]
fn replayed_answer_for_a_completed_request_is_suppressed() {
    let (connector, listener) = loopback_listener();
    let mut client = WireClient::new(Box::new(connector), 7);
    let mut cled = Ledger::new(OMEGA);
    let corr = client.submit(Query::Component(3));
    assert!(client.tick(&mut cled).is_empty(), "sent, not yet answered");

    // A scripted server end: read the Hello and the request, then answer
    // the request twice (the second is a replay) and an unknown id once.
    let mut server = listener.accept().expect("the client dialed");
    let mut rx = FrameBuf::default();
    let mut buf = [0u8; 256];
    let n = server.recv(&mut buf).unwrap();
    rx.extend(&buf[..n]);
    assert!(matches!(rx.next_frame(), Some(Ok(Frame::Hello { .. }))));
    assert!(matches!(
        rx.next_frame(),
        Some(Ok(Frame::Request { corr: c, .. })) if c == corr
    ));
    let answer = |corr| {
        encode_frame(&Frame::Answer {
            corr,
            answer: Answer::Connected(true),
        })
    };
    server.send(&answer(corr)).unwrap();
    let first = client.tick(&mut cled);
    assert_eq!(first.len(), 1, "delivered once");
    assert_eq!(first[0].0, corr);
    assert!(client.is_idle());

    server.send(&answer(corr)).unwrap();
    server.send(&answer(corr + 100)).unwrap();
    assert!(client.tick(&mut cled).is_empty(), "never delivered again");
    let stats = client.client_stats();
    assert_eq!(stats.answers, 1);
    assert_eq!(stats.duplicates_suppressed, 2);
}
