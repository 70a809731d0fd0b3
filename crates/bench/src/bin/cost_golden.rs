//! Regenerates `costs_golden.json` — the exact-cost golden file behind
//! CI's `cost-regression` gate.
//!
//! Each scenario runs a fixed build or serving workload (fixed graph,
//! seeds, ω, and knobs) and records the **exact** ledger counters
//! (`asym_reads` / `asym_writes` / `sym_ops` / `depth`). The split/merge
//! ledger contract makes these bit-identical across thread counts, so the
//! file is reproducible on any machine; any drift is a real accounting
//! change. CI regenerates the file and diffs it against the committed
//! copy, failing hard on any write-count increase (the paper's guarded
//! resource) and on any other drift (which requires a regenerated commit).
//!
//! Intentional changes: regenerate and commit with
//!
//! ```text
//! cargo run --release -p wec-bench --bin cost_golden
//! ```
//!
//! (writes `costs_golden.json` in the working directory; override the path
//! with `WEC_GOLDEN_OUT`).

use wec_asym::report::json;
use wec_asym::{Costs, Ledger};
use wec_biconnectivity::bc_labeling;
use wec_biconnectivity::oracle::build_biconnectivity_oracle;
use wec_biconnectivity::tecc::two_edge_connectivity;
use wec_connectivity::{connectivity_csr, star_connectivity, ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Csr, Priorities, Vertex};
use wec_serve::{AdmissionPolicy, Query, ShardedServer, StreamingServer};

const OMEGA: u64 = 16;

struct Scenario {
    name: &'static str,
    costs: Costs,
    depth: u64,
}

fn record(name: &'static str, led: &Ledger) -> Scenario {
    Scenario {
        name,
        costs: led.costs(),
        depth: led.depth(),
    }
}

fn golden_graph() -> Csr {
    gen::disjoint_union(&[
        &gen::bounded_degree_connected(400, 4, 90, 3),
        &gen::grid(6, 7),
        &gen::path(11),
    ])
}

/// Fixed mixed query stream over the golden graph.
fn golden_stream(n: u32, len: usize) -> Vec<Query> {
    let mut v = 0x5EEDu32;
    let mut step = move || {
        v = v.wrapping_mul(2654435761).wrapping_add(12345);
        v
    };
    (0..len)
        .map(|_| {
            let r = step();
            let a = step() % n;
            let b = (step() >> 9) % n;
            match r % 6 {
                0 | 1 => Query::Connected(a, b),
                2 | 3 => Query::Component(a),
                4 => Query::TwoEdgeConnected(a, b),
                _ => Query::Biconnected(a, b),
            }
        })
        .collect()
}

fn main() {
    let g = golden_graph();
    let n = g.n();
    let pri = Priorities::random(n, 7);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let k = 4usize;
    let mut scenarios = Vec::new();

    // 1. Connectivity-oracle construction.
    let mut led = Ledger::new(OMEGA);
    let conn =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 9, OracleBuildOpts::default());
    scenarios.push(record("conn_oracle_build", &led));

    // 2. Biconnectivity-oracle construction.
    let mut led = Ledger::new(OMEGA);
    let bicon = build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 9, BuildOpts::default());
    scenarios.push(record("biconn_oracle_build", &led));

    // 1b–2b. The same builds on the parallel decomposition path (Lemma 3.7
    // secondaries), the one every `wecbench` workload runs.
    let par = BuildOpts { parallel: true };
    let mut led = Ledger::new(OMEGA);
    let opts = OracleBuildOpts { decomp: par };
    ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 9, opts);
    scenarios.push(record("conn_oracle_build_par", &led));
    let mut led = Ledger::new(OMEGA);
    build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 9, par);
    scenarios.push(record("biconn_oracle_build_par", &led));

    // 3. Sharded batch serving of a fixed mixed batch.
    let stream = golden_stream(n as u32, 200);
    let sharded = ShardedServer::new(&conn, 3).with_biconnectivity(&bicon);
    let mut led = Ledger::new(OMEGA);
    let answers = sharded.serve(&mut led, &stream[..120]);
    assert_eq!(answers.len(), 120);
    assert!(answers.iter().all(Result::is_ok));
    scenarios.push(record("sharded_serve_mixed_120x3", &led));

    // 4. Streaming dispatch, cache-cold, under the default policy
    // (affinity routing + CLOCK eviction — so the golden file also pins
    // the routing scan, owner-shard placement, and eviction charges):
    // submissions auto-flush at the queue threshold, the tail drains
    // explicitly.
    let make_streaming = || {
        let sharded = ShardedServer::new(&conn, 3).with_biconnectivity(&bicon);
        StreamingServer::new(
            sharded,
            AdmissionPolicy::builder()
                .max_batch(32)
                .max_queue(64)
                .cache_capacity(1 << 12)
                .build(),
        )
    };
    let mut srv = make_streaming();
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), stream.len());
    scenarios.push(record("streaming_cold_200", &led));

    // 5. Same stream through the now-warm caches: the hit-path costs.
    let mut led = Ledger::new(OMEGA);
    for &q in &stream {
        srv.submit(&mut led, q).unwrap();
    }
    srv.drain(&mut led);
    assert_eq!(srv.take_ready().len(), stream.len());
    scenarios.push(record("streaming_warm_200", &led));

    // 6–10. The standalone builds the oracles never reach, each of which
    // runs the fused pass: §4.2 step 3's cross-edge pack, the star build's
    // finish and relabel passes, BC labeling (which starts with §4.2), and
    // 2-edge-connectivity from that labeling (bridge masking, then §4.2).
    let beta = 1.0 / OMEGA as f64;
    let mut led = Ledger::new(OMEGA);
    connectivity_csr(&mut led, &g, beta, 9);
    scenarios.push(record("sec42_connectivity", &led));
    let mut led = Ledger::new(OMEGA);
    star_connectivity(&mut led, &g, beta, 9);
    scenarios.push(record("star_connectivity", &led));
    let mut led = Ledger::new(OMEGA);
    bc_labeling(&mut led, &g, beta, 9);
    scenarios.push(record("bc_labeling", &led));
    let mut led = Ledger::new(OMEGA);
    let bc = bc_labeling(&mut led, &g, beta, 9);
    two_edge_connectivity(&mut led, &g, &bc, beta, 9);
    scenarios.push(record("tecc", &led));

    // 10. §4.2 on a dense graph (average degree 64): the LDD's covering
    // rounds meet frontiers whose arcs mostly point at visited vertices.
    let dense = gen::gnm(2000, 64_000, 9);
    let mut led = Ledger::new(OMEGA);
    connectivity_csr(&mut led, &dense, beta, 9);
    scenarios.push(record("sec42_dense", &led));

    let doc = json::Obj::new()
        .num("omega", OMEGA)
        .raw(
            "scenarios",
            &json::array(scenarios.iter().map(|s| {
                json::Obj::new()
                    .str("name", s.name)
                    .num("asym_reads", s.costs.asym_reads)
                    .num("asym_writes", s.costs.asym_writes)
                    .num("sym_ops", s.costs.sym_ops)
                    .num("depth", s.depth)
                    .finish()
            })),
        )
        .finish()
        + "\n";

    for s in &scenarios {
        println!(
            "{:<28} reads={:<10} writes={:<8} ops={:<10} depth={}",
            s.name, s.costs.asym_reads, s.costs.asym_writes, s.costs.sym_ops, s.depth
        );
    }
    let path = std::env::var("WEC_GOLDEN_OUT").unwrap_or_else(|_| "costs_golden.json".to_string());
    match std::fs::write(&path, &doc) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}
