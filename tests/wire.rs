//! The wire protocol and tenancy contracts, exactly:
//!
//! 1. the codec is **total and lossless**: every frame round-trips
//!    bit-identically through `encode_frame` → `FrameBuf` (including
//!    byte-at-a-time delivery, and — exhaustively — every frame kind
//!    split at every byte boundary across two deliveries, with and
//!    without duplicated frames prepended), truncated frames wait
//!    instead of erroring, bad version / unknown kind bytes are rejected
//!    as *typed* errors with the stream staying synchronized (the
//!    retired version 1 included), and arbitrary garbage never panics
//!    the decoder;
//! 2. deficit-round-robin fair share holds **exactly**: under a 10:1
//!    submission skew with equal weights, both tenants' dispatched counts
//!    advance in lockstep while both are backlogged, and a 3:1 weighting
//!    splits every contended micro-batch 3:1 — deterministic counts, not
//!    statistical bounds. Through the wire, loopback clients at a 10:1
//!    per-tenant arrival skew receive within ±10% of their weighted fair
//!    share (equal and 4:2:1:1 weights) and every tenant's completeness is
//!    exactly 1.0. FIFO composition with tenants registered dispatches
//!    and delivers in global submission order;
//! 3. the loopback frontend serves end to end: hello credentials gate
//!    session binding, a refused hello fails each later request with the
//!    refusal's error, per-session windows reject the overflow request
//!    with a typed `Overloaded` error frame (never a dropped byte), quota
//!    rejections travel as error frames, each session's answers arrive
//!    in its own submission order, retired v1 frames are refused typed,
//!    and a request naming a vertex outside the graph gets a typed
//!    `UnsupportedQuery` error frame on a connection that keeps serving;
//! 4. wire-served costs are **bit-identical** to the in-process path plus
//!    exactly the priced wire work: `FRAME_DECODE_OPS` per inbound frame,
//!    `FRAME_ENCODE_OPS` per outbound frame, `SESSION_BIND_OPS` per
//!    session, `DEDUP_PROBE_OPS` per request and `DEDUP_INSERT_WRITES`
//!    per admitted request. CI runs this file under
//!    `WEC_THREADS ∈ {1, 2, 8, 16}`, pinning the equality at every
//!    parallelism level.

use wec::asym::{Costs, Ledger};
use wec::connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec::graph::{gen, Csr, Priorities};
use wec::serve::{
    encode_frame, loopback_listener, loopback_pair, AdmissionPolicy, Answer, FairShare, Frame,
    FrameBuf, Frontend, GoawayReason, LifecyclePolicy, LoopbackTransport, Overflow, Query,
    ServeError, ShardedServer, StreamingServer, TcpTransport, TenancyStats, TenantId, TenantSpec,
    Transport, WireClient, WireFault, DEDUP_INSERT_WRITES, DEDUP_PROBE_OPS, FRAME_DECODE_OPS,
    FRAME_ENCODE_OPS, MAX_FRAME_BYTES, SESSION_BIND_OPS,
};

const OMEGA: u64 = 64;

/// Deterministic Weyl/LCG stream, the repo's bench idiom.
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

fn arb_query(r: &mut Lcg) -> Query {
    let u = r.below(1 << 20) as u32;
    let v = r.below(1 << 20) as u32;
    match r.below(4) {
        0 => Query::Connected(u, v),
        1 => Query::Component(u),
        2 => Query::TwoEdgeConnected(u, v),
        _ => Query::Biconnected(u, v),
    }
}

fn arb_answer(r: &mut Lcg) -> Answer {
    match r.below(5) {
        0 => Answer::Connected(r.below(2) == 0),
        1 => Answer::Component(wec::connectivity::ComponentId::Labeled(
            r.below(1 << 30) as u32
        )),
        2 => Answer::Component(wec::connectivity::ComponentId::Implicit(
            r.below(1 << 30) as u32
        )),
        3 => Answer::TwoEdgeConnected(r.below(2) == 0),
        _ => Answer::Biconnected(r.below(2) == 0),
    }
}

fn arb_fault(r: &mut Lcg) -> WireFault {
    match r.below(11) {
        0 => WireFault::UnknownKind(r.below(256) as u8),
        1 => WireFault::UnknownQueryKind(r.below(256) as u8),
        2 => WireFault::UnknownAnswerKind(r.below(256) as u8),
        3 => WireFault::UnknownErrorKind(r.below(256) as u8),
        4 => WireFault::Truncated,
        5 => WireFault::TrailingBytes,
        6 => WireFault::BadPayload,
        7 => WireFault::Oversize {
            len: r.below(1 << 31) as u32,
        },
        8 => WireFault::BadCredential,
        9 => WireFault::Rebind,
        _ => WireFault::UnexpectedFrame,
    }
}

fn arb_error(r: &mut Lcg) -> ServeError {
    match r.below(8) {
        0 => ServeError::UnsupportedQuery(arb_query(r)),
        1 => ServeError::Overloaded {
            queue_len: r.below(1 << 20) as usize,
            max_queue: r.below(1 << 20) as usize,
        },
        2 => ServeError::UnknownTenant(TenantId(r.below(1 << 16) as u16)),
        3 => ServeError::QuotaExceeded {
            tenant: TenantId(r.below(1 << 16) as u16),
            quota: r.below(1 << 30) as u32,
        },
        4 => ServeError::MalformedFrame(arb_fault(r)),
        5 => ServeError::ProtocolVersion {
            got: r.below(256) as u8,
        },
        6 => ServeError::OracleFault(arb_query(r)),
        _ => ServeError::ShuttingDown,
    }
}

fn arb_reason(r: &mut Lcg) -> GoawayReason {
    match r.below(3) {
        0 => GoawayReason::Shutdown,
        1 => GoawayReason::IdleTimeout,
        _ => GoawayReason::Misbehavior,
    }
}

fn arb_frame(r: &mut Lcg) -> Frame {
    match r.below(7) {
        0 => Frame::Hello {
            tenant: TenantId(r.below(1 << 16) as u16),
            credential: r.next(),
            session: r.next(),
        },
        1 => Frame::Request {
            corr: r.next(),
            query: arb_query(r),
        },
        2 => Frame::Answer {
            corr: r.next(),
            answer: arb_answer(r),
        },
        3 => Frame::Error {
            corr: if r.below(2) == 0 {
                Some(r.next())
            } else {
                None
            },
            error: arb_error(r),
        },
        4 => Frame::Ping { nonce: r.next() },
        5 => Frame::Pong { nonce: r.next() },
        _ => Frame::Goaway {
            reason: arb_reason(r),
        },
    }
}

/// One representative frame per wire kind — the exhaustive boundary
/// sweep covers every encoder branch through these.
fn representative_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            tenant: TenantId(7),
            credential: 0xfeed_beef_dead_cafe,
            session: 0x0102_0304_0506_0708,
        },
        Frame::Request {
            corr: 0xaaaa_bbbb_cccc_dddd,
            query: Query::TwoEdgeConnected(123_456, 654_321),
        },
        Frame::Request {
            corr: 0,
            query: Query::Biconnected(1, 2),
        },
        Frame::Answer {
            corr: u64::MAX - 3,
            answer: Answer::Component(wec::connectivity::ComponentId::Implicit(0x1234_5678)),
        },
        Frame::Answer {
            corr: 3,
            answer: Answer::Connected(true),
        },
        Frame::Error {
            corr: Some(42),
            error: ServeError::QuotaExceeded {
                tenant: TenantId(9),
                quota: 17,
            },
        },
        Frame::Error {
            corr: Some(u64::MAX),
            error: ServeError::ShuttingDown,
        },
        Frame::Error {
            corr: None,
            error: ServeError::MalformedFrame(WireFault::Oversize { len: 1 << 30 }),
        },
        Frame::Error {
            corr: None,
            error: ServeError::MalformedFrame(WireFault::Rebind),
        },
        Frame::Ping { nonce: 0x55aa },
        Frame::Pong { nonce: !0x55aa },
        Frame::Goaway {
            reason: GoawayReason::Shutdown,
        },
        Frame::Goaway {
            reason: GoawayReason::IdleTimeout,
        },
        Frame::Goaway {
            reason: GoawayReason::Misbehavior,
        },
    ]
}

/// Satellite sweep: every frame kind, split at **every** byte boundary
/// across two deliveries, decodes to exactly the original frame — no
/// desync, no phantom frame. The same holds with a duplicated copy of
/// the frame prepended (duplicated delivery must yield two identical
/// frames, not a parse error), again at every split point.
#[test]
fn codec_decodes_every_kind_at_every_split_boundary() {
    for frame in representative_frames() {
        let bytes = encode_frame(&frame);

        // Plain split: prefix waits, suffix completes.
        for cut in 0..=bytes.len() {
            let mut fb = FrameBuf::default();
            fb.extend(&bytes[..cut]);
            if cut < bytes.len() {
                assert_eq!(fb.next_frame(), None, "{frame:?} prefix {cut} must wait");
            }
            fb.extend(&bytes[cut..]);
            assert_eq!(fb.next_frame(), Some(Ok(frame)), "{frame:?} split at {cut}");
            assert_eq!(fb.next_frame(), None, "no phantom frame after {frame:?}");
            assert_eq!(fb.pending(), 0);
        }

        // Duplicated delivery: the doubled stream, split at every
        // boundary, decodes to exactly two copies.
        let doubled: Vec<u8> = bytes.iter().chain(bytes.iter()).copied().collect();
        for cut in 0..=doubled.len() {
            let mut fb = FrameBuf::default();
            fb.extend(&doubled[..cut]);
            let mut got = Vec::new();
            while let Some(f) = fb.next_frame() {
                got.push(f);
            }
            fb.extend(&doubled[cut..]);
            while let Some(f) = fb.next_frame() {
                got.push(f);
            }
            assert_eq!(
                got,
                vec![Ok(frame), Ok(frame)],
                "{frame:?} duplicated, split at {cut}"
            );
            assert_eq!(fb.pending(), 0);
        }
    }
}

/// Property sweep: 2000 arbitrary frames round-trip bit-identically, both
/// in one contiguous buffer and delivered one byte at a time, and every
/// encoding respects the frame cap.
#[test]
fn codec_round_trips_arbitrary_frames() {
    let mut r = Lcg(0x5eed);
    let frames: Vec<Frame> = (0..2000).map(|_| arb_frame(&mut r)).collect();

    // One contiguous stream.
    let mut fb = FrameBuf::default();
    for f in &frames {
        let bytes = encode_frame(f);
        assert!(bytes.len() - 4 <= MAX_FRAME_BYTES, "cap respected");
        fb.extend(&bytes);
    }
    for f in &frames {
        assert_eq!(fb.next_frame(), Some(Ok(*f)));
    }
    assert_eq!(fb.next_frame(), None);
    assert_eq!(fb.pending(), 0);

    // Byte-at-a-time delivery of a sample must produce the same frames.
    let mut fb = FrameBuf::default();
    for f in frames.iter().take(50) {
        for b in encode_frame(f) {
            fb.extend(&[b]);
        }
        assert_eq!(fb.next_frame(), Some(Ok(*f)));
        assert_eq!(fb.next_frame(), None, "no phantom frame");
    }
}

/// A truncated frame waits for more bytes; a bad version (the retired
/// version 1 included) or unknown kind is consumed as a typed error and
/// the *next* frame still decodes — the stream never desynchronizes.
#[test]
fn codec_rejects_bad_version_and_kind_without_losing_sync() {
    let good = Frame::Request {
        corr: 5,
        query: Query::Connected(1, 2),
    };
    let bytes = encode_frame(&good);

    // Truncation: every proper prefix decodes to "not yet".
    for cut in 0..bytes.len() {
        let mut fb = FrameBuf::default();
        fb.extend(&bytes[..cut]);
        assert_eq!(fb.next_frame(), None, "prefix of {cut} bytes must wait");
    }

    // Bad version byte — an undefined one, and the retired version 1 —
    // then a good frame.
    for version in [99u8, 1] {
        let mut bad = bytes.clone();
        bad[4] = version;
        let mut fb = FrameBuf::default();
        fb.extend(&bad);
        fb.extend(&bytes);
        assert_eq!(
            fb.next_frame(),
            Some(Err(ServeError::ProtocolVersion { got: version }))
        );
        assert_eq!(fb.next_frame(), Some(Ok(good)), "stream stays in sync");
    }

    // Unknown kind byte, then a good frame.
    let mut bad = bytes.clone();
    bad[5] = 99;
    let mut fb = FrameBuf::default();
    fb.extend(&bad);
    fb.extend(&bytes);
    assert_eq!(
        fb.next_frame(),
        Some(Err(ServeError::MalformedFrame(WireFault::UnknownKind(99))))
    );
    assert_eq!(fb.next_frame(), Some(Ok(good)));
}

/// Arbitrary garbage never panics the decoder: every outcome is a frame,
/// a typed error, or "feed more bytes".
#[test]
fn codec_survives_garbage() {
    let mut r = Lcg(0xbad5eed);
    for _ in 0..200 {
        let mut fb = FrameBuf::default();
        let n = 1 + r.below(300) as usize;
        let junk: Vec<u8> = (0..n).map(|_| r.below(256) as u8).collect();
        fb.extend(&junk);
        // Drain until the buffer demands more bytes; each step must be
        // total (this would panic or hang if decoding weren't).
        for _ in 0..n + 4 {
            if fb.next_frame().is_none() {
                break;
            }
        }
    }
}

fn oracle_fixture() -> (Csr, Priorities, Vec<u32>) {
    let g = gen::bounded_degree_connected(300, 4, 60, 7);
    let pri = Priorities::random(g.n(), 3);
    let verts: Vec<u32> = (0..g.n() as u32).collect();
    (g, pri, verts)
}

/// Under a 10:1 submission skew with equal weights, DRR keeps both
/// tenants' dispatched counts in lockstep while both are backlogged
/// (the ±10% acceptance bound is met with exact equality), and the
/// slow tenant is never starved.
#[test]
fn fair_share_splits_contended_batches_equally() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let hot = TenantId(1);
    let cold = TenantId(2);
    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(1 << 20)
        .fair_share(FairShare::DeficitRoundRobin)
        .tenants([TenantSpec::new(1), TenantSpec::new(2)])
        .build();
    let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);

    // 10:1 interleaved arrivals: 400 hot, 40 cold.
    let mut r = Lcg(7);
    for i in 0..440u32 {
        let t = if i % 11 == 10 { cold } else { hot };
        let v = r.below(g.n() as u64) as u32;
        srv.submit_as(&mut led, t, Query::Component(v)).unwrap();
    }

    // While the cold tenant is backlogged, every flush must advance both
    // tenants identically: 16-query batches split 8/8.
    let mut flushes = 0;
    while srv.tenant_stats(cold).unwrap().dispatched < 40 {
        assert_eq!(srv.flush(&mut led), 16);
        flushes += 1;
        let h = srv.tenant_stats(hot).unwrap().dispatched;
        let c = srv.tenant_stats(cold).unwrap().dispatched;
        assert_eq!(h, c, "equal weights ⇒ lockstep under contention");
    }
    assert_eq!(flushes, 5, "40 cold queries at 8 per contended batch");

    // Once the cold queue drains, the hot tenant gets full batches.
    while srv.queue_len() > 0 {
        srv.flush(&mut led);
    }
    let stats: TenancyStats = srv.tenancy_stats();
    assert_eq!(stats.dispatched, 440);
    assert_eq!(stats.quota_rejections, 0);

    // Everything is delivered, each tenant in its own submission order.
    let mut last = [None::<u64>; 3];
    let mut delivered = 0;
    while let Some((t, r)) = srv.try_next() {
        assert!(r.is_ok());
        delivered += 1;
        let ti = if t.id() % 11 == 10 { 2 } else { 1 };
        assert!(last[ti].is_none_or(|p| p < t.id()), "per-tenant order");
        last[ti] = Some(t.id());
    }
    assert_eq!(delivered, 440);
    assert_eq!(srv.tenant_stats(hot).unwrap().delivered, 400);
    assert_eq!(srv.tenant_stats(cold).unwrap().delivered, 40);
}

/// A 3:1 weight ratio splits every contended micro-batch exactly 12/4.
#[test]
fn weighted_fair_share_honors_weights() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(1 << 20)
        .fair_share(FairShare::DeficitRoundRobin)
        .tenant(TenantSpec::new(1).weight(3))
        .tenant(TenantSpec::new(2).weight(1))
        .build();
    let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);

    for i in 0..160u32 {
        let t = TenantId(1 + (i % 2) as u16);
        srv.submit_as(&mut led, t, Query::Component(i % g.n() as u32))
            .unwrap();
    }
    assert_eq!(srv.flush(&mut led), 16);
    let a = srv.tenant_stats(TenantId(1)).unwrap().dispatched;
    let b = srv.tenant_stats(TenantId(2)).unwrap().dispatched;
    assert_eq!((a, b), (12, 4), "weight 3:1 ⇒ 12/4 in a contended batch");
}

/// FIFO composition with tenants registered takes the oldest submissions
/// across tenants: under a 10:1 skew every flush dispatches exactly the
/// next 16 tickets, so each tenant's dispatched count equals its share of
/// the submission prefix and delivery follows global submission order.
/// With no tenant registered the implicit admission slot never surfaces
/// in the tenancy counters.
#[test]
fn fifo_with_tenants_dispatches_in_submission_order() {
    const N: u64 = 440;
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let (hot, cold) = (TenantId(1), TenantId(2));
    let tenant_of = |i: u64| if i % 11 == 10 { cold } else { hot };
    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(1 << 20)
        .tenants([TenantSpec::new(1), TenantSpec::new(2)])
        .build();
    assert_eq!(policy.fair_share, FairShare::Fifo);
    let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);

    let mut r = Lcg(11);
    for i in 0..N {
        let v = r.below(g.n() as u64) as u32;
        srv.submit_as(&mut led, tenant_of(i), Query::Component(v))
            .unwrap();
    }
    let mut flushes = 0u64;
    let mut delivered = Vec::new();
    while srv.flush(&mut led) > 0 {
        flushes += 1;
        let prefix = (16 * flushes).min(N);
        let cold_share = (0..prefix).filter(|&i| tenant_of(i) == cold).count() as u64;
        assert_eq!(
            srv.tenant_stats(cold).unwrap().dispatched,
            cold_share,
            "flush {flushes}: cold tenant's share of the first {prefix} tickets"
        );
        assert_eq!(
            srv.tenant_stats(hot).unwrap().dispatched,
            prefix - cold_share,
            "flush {flushes}: hot tenant's share of the first {prefix} tickets"
        );
        delivered.extend(srv.take_ready().into_iter().map(|(t, _)| t.id()));
    }
    assert_eq!(flushes, N.div_ceil(16));
    assert_eq!(delivered, (0..N).collect::<Vec<_>>(), "submission order");

    // No tenant registered: the implicit slot stays invisible.
    let policy = AdmissionPolicy::builder()
        .max_batch(16)
        .max_queue(1 << 20)
        .build();
    let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    for v in 0..64u32 {
        srv.submit(&mut led, Query::Component(v)).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), 64);
    assert_eq!(srv.undelivered(), 0);
    assert_eq!(srv.tenant_stats(TenantId::DEFAULT), None);
    assert_eq!(srv.tenancy_stats(), TenancyStats::default());
}

/// DRR fair share through the wire: loopback clients split over four
/// tenants at a 10:3:1.5:1 arrival skew (client counts are the arrival
/// rate; each client keeps up to 8 requests in flight and sends one per
/// pump round) drive one `Frontend`. Over the contended rounds every
/// tenant's delivered share sits within ±10% of its weighted fair share —
/// for equal weights and for 4:2:1:1 — and after arrivals stop every
/// tenant drains to completeness exactly 1.0.
#[test]
fn wire_drr_delivers_weighted_fair_share_under_arrival_skew() {
    const CLIENTS: [usize; 4] = [40, 12, 6, 4];
    const WINDOW: usize = 8;
    const ROUNDS: u64 = 12;
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());

    for weights in [[1u32, 1, 1, 1], [4, 2, 1, 1]] {
        let policy = AdmissionPolicy::builder()
            // One batch per pump: the coldest tenant's arrivals (4 per
            // round) cover its share of 16 under both weightings.
            .max_batch(16)
            .max_queue(1 << 20)
            .fair_share(FairShare::DeficitRoundRobin)
            .tenants((0..4).map(|t| TenantSpec::new(t as u16).weight(weights[t])))
            .build();
        let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
        let mut fe = Frontend::new(srv);
        // (transport, inbound frames, tenant, requests in flight)
        let mut clients: Vec<(LoopbackTransport, FrameBuf, usize, usize)> = Vec::new();
        for (tenant, &count) in CLIENTS.iter().enumerate() {
            for _ in 0..count {
                let (mut client, server_end) = loopback_pair();
                fe.connect(Box::new(server_end));
                client
                    .send(&encode_frame(&Frame::Hello {
                        tenant: TenantId(tenant as u16),
                        credential: 0,
                        session: clients.len() as u64,
                    }))
                    .unwrap();
                clients.push((client, FrameBuf::default(), tenant, 0));
            }
        }
        fe.pump(&mut led);

        let mut r = Lcg(0x7e4a);
        let mut submitted = [0u64; 4];
        let mut delivered = [0u64; 4];
        let mut delivered_contended = [0u64; 4];
        let mut round = 0u64;
        while round < ROUNDS || clients.iter().any(|c| c.3 > 0) {
            let contended = round < ROUNDS;
            for (client, _, tenant, in_flight) in clients.iter_mut() {
                if contended && *in_flight < WINDOW {
                    let query = Query::Component(r.below(g.n() as u64) as u32);
                    client
                        .send(&encode_frame(&Frame::Request { corr: round, query }))
                        .unwrap();
                    *in_flight += 1;
                    submitted[*tenant] += 1;
                }
            }
            fe.pump(&mut led);
            let mut buf = [0u8; 1024];
            for (client, rx, tenant, in_flight) in clients.iter_mut() {
                while let Ok(n @ 1..) = client.recv(&mut buf) {
                    rx.extend(&buf[..n]);
                }
                while let Some(f) = rx.next_frame() {
                    assert!(matches!(f, Ok(Frame::Answer { .. })), "{f:?}");
                    *in_flight -= 1;
                    delivered[*tenant] += 1;
                    if contended {
                        delivered_contended[*tenant] += 1;
                    }
                }
            }
            round += 1;
            assert!(round < ROUNDS + 1000, "drain stalled");
        }

        let total: u64 = delivered_contended.iter().sum();
        let weight_total: u32 = weights.iter().sum();
        for t in 0..4 {
            let share = delivered_contended[t] as f64 / total as f64;
            let fair = weights[t] as f64 / weight_total as f64;
            assert!(
                (share - fair).abs() <= 0.10 * fair,
                "weights {weights:?}: tenant {t} delivered share {share:.4} vs fair {fair:.4}"
            );
            assert_eq!(
                delivered[t], submitted[t],
                "weights {weights:?}: tenant {t} completeness must be exactly 1.0"
            );
        }
    }
}

/// Quotas bound *queued* submissions: the rejection is typed, consumes no
/// ticket, and clears as soon as the backlog drains.
#[test]
fn quotas_bound_queued_submissions() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(4)
        .max_queue(1 << 20)
        .overflow(Overflow::Shed)
        .tenant(TenantSpec::new(1).quota(3))
        .build();
    let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);

    let t = TenantId(1);
    for _ in 0..3 {
        srv.submit_as(&mut led, t, Query::Component(5)).unwrap();
    }
    assert_eq!(
        srv.submit_as(&mut led, t, Query::Component(5)),
        Err(ServeError::QuotaExceeded {
            tenant: t,
            quota: 3
        })
    );
    assert_eq!(
        srv.submit_as(&mut led, TenantId(9), Query::Component(5)),
        Err(ServeError::UnknownTenant(TenantId(9)))
    );
    srv.flush(&mut led);
    srv.submit_as(&mut led, t, Query::Component(6))
        .expect("drained backlog frees quota");
    assert_eq!(srv.tenant_stats(t).unwrap().quota_rejections, 1);
}

fn client_send(client: &mut LoopbackTransport, f: &Frame) {
    client.send(&encode_frame(f)).unwrap();
}

fn client_recv_all(client: &mut LoopbackTransport, rx: &mut FrameBuf) -> Vec<Frame> {
    let mut buf = [0u8; 512];
    loop {
        match client.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => rx.extend(&buf[..n]),
        }
    }
    let mut out = Vec::new();
    while let Some(f) = rx.next_frame() {
        out.push(f.expect("server frames are well-formed"));
    }
    out
}

fn hello(tenant: u16, credential: u64, session: u64) -> Frame {
    Frame::Hello {
        tenant: TenantId(tenant),
        credential,
        session,
    }
}

/// End-to-end over loopback: hello credentials gate binding, windows
/// reject overflow with a typed error frame, answers return per session in
/// submission order, and a second connection is unaffected throughout.
#[test]
fn frontend_serves_loopback_connections() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 20)
        .fair_share(FairShare::DeficitRoundRobin)
        .tenant(TenantSpec::new(1).credential(0xfeed))
        .tenant(TenantSpec::new(2))
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv).with_window(4);

    let (mut alice, fe_a) = loopback_pair();
    let (mut bob, fe_b) = loopback_pair();
    let ca = fe.connect(Box::new(fe_a));
    let cb = fe.connect(Box::new(fe_b));
    let (mut rx_a, mut rx_b) = (FrameBuf::default(), FrameBuf::default());

    // A wrong credential is rejected in-band; the right one binds.
    client_send(&mut alice, &hello(1, 0xdead, 10));
    fe.pump(&mut led);
    assert_eq!(
        client_recv_all(&mut alice, &mut rx_a),
        vec![Frame::Error {
            corr: None,
            error: ServeError::MalformedFrame(WireFault::BadCredential),
        }]
    );
    client_send(&mut alice, &hello(1, 0xfeed, 10));
    client_send(&mut bob, &hello(2, 0, 20));

    // Alice sends 6 requests against a window of 4: the last two get
    // typed Overloaded error frames; Bob's single request is unaffected.
    for i in 0..6u32 {
        client_send(
            &mut alice,
            &Frame::Request {
                corr: i as u64,
                query: Query::Component(i),
            },
        );
    }
    client_send(
        &mut bob,
        &Frame::Request {
            corr: 0,
            query: Query::Connected(0, 299),
        },
    );
    fe.pump(&mut led);
    let stats = fe.frontend_stats();
    assert_eq!(stats.hellos_accepted, 2);
    assert_eq!(stats.hellos_rejected, 1);
    assert_eq!(stats.sessions_bound, 2);
    assert_eq!(stats.rejected_window, 2);
    assert_eq!(stats.admitted, 5);

    let to_alice = client_recv_all(&mut alice, &mut rx_a);
    let overloaded: Vec<u64> = to_alice
        .iter()
        .filter_map(|f| match f {
            Frame::Error {
                corr: Some(corr),
                error:
                    ServeError::Overloaded {
                        queue_len: 4,
                        max_queue: 4,
                    },
            } => Some(*corr),
            _ => None,
        })
        .collect();
    assert_eq!(overloaded, vec![4, 5], "window overflow is answered, typed");
    let answers: Vec<u64> = to_alice
        .iter()
        .filter_map(|f| match f {
            Frame::Answer { corr, .. } => Some(*corr),
            _ => None,
        })
        .collect();
    assert_eq!(answers, vec![0, 1, 2, 3], "in submission order");
    assert_eq!(fe.session_in_flight(10), Some(0));

    let to_bob = client_recv_all(&mut bob, &mut rx_b);
    assert_eq!(to_bob.len(), 1);
    match to_bob[0] {
        Frame::Answer { corr: 0, answer } => {
            assert_eq!(answer.as_bool(), Some(true), "fixture graph is connected")
        }
        ref other => panic!("expected bob's answer, got {other:?}"),
    }
    assert_eq!(fe.session_in_flight(20), Some(0));
    assert!(!fe.conn_closed(ca) && !fe.conn_closed(cb));

    // An inbound answer frame is a protocol violation — answered, typed.
    client_send(
        &mut bob,
        &Frame::Answer {
            corr: 0,
            answer: Answer::Connected(true),
        },
    );
    fe.pump(&mut led);
    assert_eq!(
        client_recv_all(&mut bob, &mut rx_b),
        vec![Frame::Error {
            corr: None,
            error: ServeError::MalformedFrame(WireFault::UnexpectedFrame),
        }]
    );
}

/// A request on a connection without a session fails with the reason
/// there is none: the refusal of its `Hello` (a wrong credential, an
/// unknown tenant), or `UnexpectedFrame` when no `Hello` was sent. A
/// `WireClient` with a bad identity therefore sees every request fail
/// with the real reason.
#[test]
fn refused_hello_fails_requests_with_the_refusal_reason() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 10)
        .tenant(TenantSpec::new(1).credential(0xfeed))
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv);

    let (connector, listener) = loopback_listener();
    let identities = [
        (
            TenantId(1),
            0xbad,
            Err(ServeError::MalformedFrame(WireFault::BadCredential)),
        ),
        (TenantId(9), 0, Err(ServeError::UnknownTenant(TenantId(9)))),
        (TenantId(1), 0xfeed, Ok(Answer::Connected(true))),
    ];
    let mut clients: Vec<(WireClient, Ledger)> = identities
        .iter()
        .enumerate()
        .map(|(i, &(tenant, credential, _))| {
            let mut c = WireClient::new(Box::new(connector.clone()), 100 + i as u64)
                .with_identity(tenant, credential);
            c.submit(Query::Connected(0, 1));
            c.submit(Query::Connected(2, 3));
            (c, Ledger::new(OMEGA))
        })
        .collect();
    let mut results = vec![Vec::new(); clients.len()];
    for _ in 0..50 {
        while let Some(t) = listener.accept() {
            fe.connect(Box::new(t));
        }
        for (i, (c, cled)) in clients.iter_mut().enumerate() {
            results[i].extend(c.tick(cled).into_iter().map(|(_, r)| r));
        }
        fe.pump(&mut led);
        if clients.iter().all(|(c, _)| c.is_idle()) {
            break;
        }
    }
    for ((_, _, expect), got) in identities.iter().zip(&results) {
        assert_eq!(
            got,
            &vec![*expect; 2],
            "each request fails with the real reason"
        );
    }
    assert_eq!(fe.frontend_stats().hellos_rejected, 2);

    // No Hello at all: the request is refused as unexpected.
    let (mut raw, server_end) = loopback_pair();
    fe.connect(Box::new(server_end));
    let mut rx = FrameBuf::default();
    client_send(
        &mut raw,
        &Frame::Request {
            corr: 3,
            query: Query::Connected(0, 1),
        },
    );
    fe.pump(&mut led);
    assert_eq!(
        client_recv_all(&mut raw, &mut rx),
        vec![Frame::Error {
            corr: Some(3),
            error: ServeError::MalformedFrame(WireFault::UnexpectedFrame),
        }]
    );
}

/// Retired protocol-v1 frames are refused with a typed `ProtocolVersion`
/// error — never a panic, a silent drop or a misparse — and each counts
/// as a strike.
#[test]
fn frontend_refuses_retired_v1_frames_typed() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let srv = StreamingServer::new(
        ShardedServer::new(&oracle, 3),
        AdmissionPolicy::builder().build(),
    );
    let mut fe = Frontend::new(srv).with_lifecycle(LifecyclePolicy {
        max_strikes: 2,
        ..LifecyclePolicy::default()
    });
    let (mut old, server_end) = loopback_pair();
    let conn = fe.connect(Box::new(server_end));
    let mut rx = FrameBuf::default();

    // v1 Hello: [len=12][ver=1][kind=1][tenant u16][credential u64].
    let mut v1_hello = vec![12, 0, 0, 0, 1, 1, 1, 0];
    v1_hello.extend_from_slice(&0u64.to_le_bytes());
    // v1 Request: [len=11][ver=1][kind=2][Connected][u u32][v u32].
    let mut v1_request = vec![11, 0, 0, 0, 1, 2, 1];
    v1_request.extend_from_slice(&0u32.to_le_bytes());
    v1_request.extend_from_slice(&1u32.to_le_bytes());

    old.send(&v1_hello).unwrap();
    fe.pump(&mut led);
    assert!(!fe.conn_closed(conn), "one strike is tolerated");
    old.send(&v1_request).unwrap();
    fe.pump(&mut led);
    assert!(fe.conn_closed(conn), "the second strike closes");

    let refusal = Frame::Error {
        corr: None,
        error: ServeError::ProtocolVersion { got: 1 },
    };
    assert_eq!(
        client_recv_all(&mut old, &mut rx),
        vec![
            refusal,
            refusal,
            Frame::Goaway {
                reason: GoawayReason::Misbehavior
            }
        ]
    );
    let stats = fe.frontend_stats();
    assert_eq!(stats.malformed_frames, 2);
    assert_eq!(stats.strike_closed, 1);
    assert_eq!((stats.hellos_accepted, stats.admitted), (0, 0));
}

/// A second `Hello` on an already-bound connection is a typed in-band
/// `Rebind` error, never a panic or a silent drop, and the connection
/// keeps serving afterwards.
#[test]
fn frontend_answers_double_hello_with_typed_rebind() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 10)
        .tenants([TenantSpec::new(1), TenantSpec::new(2)])
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv);

    let (mut client, server_end) = loopback_pair();
    let conn = fe.connect(Box::new(server_end));
    let mut rx = FrameBuf::default();
    client_send(&mut client, &hello(2, 0, 77));
    fe.pump(&mut led);
    client_send(&mut client, &hello(2, 0, 77));
    fe.pump(&mut led);
    assert_eq!(
        client_recv_all(&mut client, &mut rx),
        vec![Frame::Error {
            corr: None,
            error: ServeError::MalformedFrame(WireFault::Rebind),
        }]
    );
    assert_eq!(fe.frontend_stats().malformed_frames, 1);
    assert_eq!(fe.frontend_stats().sessions_bound, 1);

    // The connection still serves.
    client_send(
        &mut client,
        &Frame::Request {
            corr: 5,
            query: Query::Connected(0, 1),
        },
    );
    fe.drain(&mut led);
    assert!(matches!(
        client_recv_all(&mut client, &mut rx).as_slice(),
        [Frame::Answer { corr: 5, .. }]
    ));
    assert!(!fe.conn_closed(conn));
}

/// A request naming a vertex outside the graph is answered with a typed
/// `UnsupportedQuery` error frame for its `corr` — admission refuses it,
/// nothing panics — and the connection stays bound and answers the next
/// request.
#[test]
fn frontend_answers_out_of_range_vertices_with_an_error_frame() {
    let (g, pri, verts) = oracle_fixture();
    let n = g.n() as u32;
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 10)
        .tenants([TenantSpec::new(1)])
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv);

    let (mut client, server_end) = loopback_pair();
    let conn = fe.connect(Box::new(server_end));
    let mut rx = FrameBuf::default();
    client_send(&mut client, &hello(1, 0, 5));
    let bad = [Query::Component(n), Query::Connected(0, n + 40)];
    for (corr, &query) in bad.iter().enumerate() {
        client_send(
            &mut client,
            &Frame::Request {
                corr: corr as u64,
                query,
            },
        );
    }
    fe.pump(&mut led);
    let expect: Vec<Frame> = (bad.iter().enumerate())
        .map(|(corr, &q)| Frame::Error {
            corr: Some(corr as u64),
            error: ServeError::UnsupportedQuery(q),
        })
        .collect();
    assert_eq!(client_recv_all(&mut client, &mut rx), expect);
    assert_eq!(fe.frontend_stats().rejected_admission, bad.len() as u64);
    assert_eq!(fe.frontend_stats().admitted, 0);

    // Still bound: the next request is admitted and answered.
    client_send(
        &mut client,
        &Frame::Request {
            corr: 9,
            query: Query::Connected(0, n - 1),
        },
    );
    fe.drain(&mut led);
    assert_eq!(
        client_recv_all(&mut client, &mut rx),
        vec![Frame::Answer {
            corr: 9,
            answer: Answer::Connected(true),
        }]
    );
    assert_eq!(fe.frontend_stats().sessions_bound, 1);
    assert!(!fe.conn_closed(conn));
}

/// Graceful shutdown: `begin_shutdown` announces `Goaway` on every live
/// connection, everything already admitted drains to a delivered answer,
/// and any frame submitted after the announcement — request or hello —
/// is answered with a typed `ShuttingDown` error, never a panic or a
/// silent drop. Once the drain completes the connection closes.
#[test]
fn frontend_goaway_drains_in_flight_and_rejects_new_work() {
    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    // max_batch(1): one query dispatched per pump, so work stays in
    // flight across the shutdown announcement.
    let policy = AdmissionPolicy::builder()
        .max_batch(1)
        .max_queue(1 << 10)
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv);
    let (mut client, s) = loopback_pair();
    let conn = fe.connect(Box::new(s));
    let mut rx = FrameBuf::default();

    client_send(&mut client, &hello(0, 0, 1));
    for u in 0..3u32 {
        client_send(
            &mut client,
            &Frame::Request {
                corr: u as u64,
                query: Query::Connected(u, u + 1),
            },
        );
    }
    fe.pump(&mut led);
    assert_eq!(fe.frontend_stats().admitted, 3);
    assert!(
        fe.session_in_flight(1).unwrap() > 0,
        "work in flight at shutdown"
    );

    fe.begin_shutdown(&mut led);
    assert!(fe.is_shutting_down());

    // Post-announcement submissions are rejected, typed.
    client_send(
        &mut client,
        &Frame::Request {
            corr: 3,
            query: Query::Connected(0, 1),
        },
    );
    client_send(&mut client, &hello(0, 0, 2));
    let report = fe.shutdown(&mut led);
    assert_eq!(report.admitted, 0, "nothing new admitted while draining");

    let frames = client_recv_all(&mut client, &mut rx);
    let answers = frames
        .iter()
        .filter(|f| matches!(f, Frame::Answer { .. }))
        .count();
    let shutdown_errors: Vec<Option<u64>> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Error {
                corr,
                error: ServeError::ShuttingDown,
            } => Some(*corr),
            _ => None,
        })
        .collect();
    assert_eq!(answers, 3, "every in-flight ticket drained to an answer");
    assert_eq!(
        shutdown_errors,
        vec![Some(3), None],
        "request and hello both rejected typed"
    );
    assert!(
        frames.iter().any(|f| matches!(
            f,
            Frame::Goaway {
                reason: GoawayReason::Shutdown
            }
        )),
        "shutdown was announced"
    );
    assert!(fe.conn_closed(conn), "drained connection closed");
    assert_eq!(fe.frontend_stats().rejected_shutdown, 2);
    assert_eq!(fe.server().undelivered(), 0, "nothing abandoned");
}

/// Serving through the wire charges exactly the in-process costs plus the
/// priced wire work — one `FRAME_DECODE_OPS` per inbound frame, one
/// `FRAME_ENCODE_OPS` per outbound frame, one `SESSION_BIND_OPS` per
/// session, one `DEDUP_PROBE_OPS` per request and one
/// `DEDUP_INSERT_WRITES` per admitted request — and nothing else. Run
/// under the `WEC_THREADS` matrix this pins wire-served costs
/// bit-identical at every parallelism level.
#[test]
fn wire_costs_equal_in_process_costs_plus_frame_ops() {
    let (g, pri, verts) = oracle_fixture();
    let mut build_led = Ledger::new(OMEGA);
    let k = build_led.sqrt_omega();
    let oracle = ConnectivityOracle::build(
        &mut build_led,
        &g,
        &pri,
        &verts,
        k,
        1,
        OracleBuildOpts::default(),
    );
    let policy = || {
        AdmissionPolicy::builder()
            .max_batch(8)
            .max_queue(1 << 20)
            .fair_share(FairShare::DeficitRoundRobin)
            .tenants([TenantSpec::new(1), TenantSpec::new(2)])
            .build()
    };
    let mut r = Lcg(99);
    let script: Vec<(TenantId, Query)> = (0..120)
        .map(|i| {
            (
                TenantId(1 + (i % 3 == 0) as u16),
                Query::Component(r.below(g.n() as u64) as u32),
            )
        })
        .collect();

    // Wire path: two authenticated sessions, drained to completion.
    let mut wire_led = Ledger::new(OMEGA);
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy());
    let mut fe = Frontend::new(srv);
    let (mut c1, s1) = loopback_pair();
    let (mut c2, s2) = loopback_pair();
    fe.connect(Box::new(s1));
    fe.connect(Box::new(s2));
    client_send(&mut c1, &hello(1, 0, 1));
    client_send(&mut c2, &hello(2, 0, 2));
    for (corr, &(t, q)) in script.iter().enumerate() {
        let client = if t == TenantId(1) { &mut c1 } else { &mut c2 };
        client_send(
            client,
            &Frame::Request {
                corr: corr as u64,
                query: q,
            },
        );
    }
    fe.drain(&mut wire_led);
    let fs = fe.frontend_stats();
    let requests = script.len() as u64;
    assert_eq!(fs.sessions_bound, 2);
    assert_eq!(fs.admitted, requests);
    assert_eq!(fs.answers_delivered, requests);
    assert_eq!(fs.frames_in, 2 + requests, "2 hellos + 120 requests");
    assert_eq!(fs.frames_out, requests);

    // In-process replay: same submissions in the same order (the pump
    // ingests connection 1 fully, then connection 2), same flush cadence.
    let mut direct_led = Ledger::new(OMEGA);
    let mut srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy());
    for &(t, q) in script.iter().filter(|(t, _)| *t == TenantId(1)) {
        srv.submit_as(&mut direct_led, t, q).unwrap();
    }
    for &(t, q) in script.iter().filter(|(t, _)| *t == TenantId(2)) {
        srv.submit_as(&mut direct_led, t, q).unwrap();
    }
    let mut delivered = 0;
    while srv.queue_len() > 0 {
        srv.flush(&mut direct_led);
        delivered += srv.take_ready().len();
    }
    assert_eq!(delivered, 120);

    let direct = direct_led.costs();
    let expect = Costs {
        asym_reads: direct.asym_reads,
        asym_writes: direct.asym_writes + fs.admitted * DEDUP_INSERT_WRITES,
        sym_ops: direct.sym_ops
            + fs.frames_in * FRAME_DECODE_OPS
            + fs.frames_out * FRAME_ENCODE_OPS
            + fs.sessions_bound * SESSION_BIND_OPS
            + requests * DEDUP_PROBE_OPS,
    };
    assert_eq!(wire_led.costs(), expect, "wire = in-process + wire work");
}

/// End-to-end over a real TCP socket: the same `Frontend`, a
/// `TcpTransport` on each side. Off by default — CI sandboxes need not
/// grant networking — run with `WEC_WIRE_TCP=1 cargo test --test wire`.
#[test]
fn frontend_serves_tcp_connections_when_enabled() {
    if std::env::var("WEC_WIRE_TCP").as_deref() != Ok("1") {
        eprintln!("skipping the TCP leg (set WEC_WIRE_TCP=1 to enable)");
        return;
    }
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let mut client = TcpTransport::connect(addr).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    let accepted = TcpTransport::from_stream(accepted).expect("wrap");

    let (g, pri, verts) = oracle_fixture();
    let mut led = Ledger::new(OMEGA);
    let k = led.sqrt_omega();
    let oracle =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default());
    let policy = AdmissionPolicy::builder()
        .max_batch(8)
        .max_queue(1 << 10)
        .build();
    let srv = StreamingServer::new(ShardedServer::new(&oracle, 3), policy);
    let mut fe = Frontend::new(srv).with_window(8);
    fe.connect(Box::new(accepted));

    const QUERIES: usize = 8;
    client.send(&encode_frame(&hello(0, 0, 1))).unwrap();
    for u in 0..QUERIES as u32 {
        client
            .send(&encode_frame(&Frame::Request {
                corr: u as u64,
                query: Query::Connected(u, u + 1),
            }))
            .unwrap();
    }

    // TCP delivery is asynchronous: keep pumping until every answer lands
    // (bounded so a broken stack fails instead of hanging).
    let mut rx = FrameBuf::default();
    let mut answers = Vec::new();
    for _ in 0..100_000 {
        fe.pump(&mut led);
        let mut buf = [0u8; 512];
        loop {
            match client.recv(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => rx.extend(&buf[..n]),
            }
        }
        while let Some(f) = rx.next_frame() {
            answers.push(f.expect("server frames are well-formed"));
        }
        if answers.len() == QUERIES {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(answers.len(), QUERIES, "all TCP answers delivered");
    for (i, f) in answers.iter().enumerate() {
        match f {
            Frame::Answer { corr, answer } => {
                assert_eq!(*corr, i as u64, "answers in submission order");
                assert_eq!(
                    answer.as_bool(),
                    Some(true),
                    "the fixture graph is connected"
                );
            }
            other => panic!("expected an answer frame, got {other:?}"),
        }
    }
}
