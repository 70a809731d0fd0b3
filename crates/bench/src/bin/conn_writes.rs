//! **Theorem 4.2** — §4.2 connectivity writes O(n + βm) as β sweeps, the
//! crossover against the prior-work contraction algorithm, and the PR-1
//! wall-clock snapshot.
//!
//! Besides the model-cost table, this binary wall-clocks the oracle build
//! phases under [`Ledger::new`] (rayon pool) vs [`Ledger::sequential`] and
//! the oracle's query throughput, then writes the machine-readable
//! `BENCH_PR1.json` (override the path with `WEC_BENCH_OUT`) so later PRs
//! have a perf trajectory to beat. The PR-9 A/B legs run on the same
//! wall-clock graph — §4.2 with the materialized two-pass cross-edge
//! filter vs the fused delayed-sequence pass vs the sample-and-finish
//! star-contraction fast path — and write `BENCH_PR9.json` (override with
//! `WEC_FUSION_BENCH_OUT`). Pass `--smoke` for the CI-sized run.

use wec_asym::Ledger;
use wec_baseline::shun_connectivity;
use wec_bench::{time, time_median, BenchSnapshot, FusionSnapshot, PhaseTiming};
use wec_connectivity::{
    connectivity_csr, connectivity_csr_with, star_connectivity, ConnectivityOracle, CrossEdgePass,
    OracleBuildOpts,
};
use wec_core::{BuildOpts, ImplicitDecomposition};
use wec_graph::{gen, Csr, Priorities, Vertex};

const OMEGA: u64 = 64;

fn theorem42_table(n: usize) {
    println!("=== Theorem 4.2: §4.2 connectivity writes = O(n + βm) ===");
    for m_per_n in [4usize, 16, 64] {
        let g = gen::gnm(n, n * m_per_n, 1);
        let m = g.m();
        let mut led0 = Ledger::new(OMEGA);
        let _ = shun_connectivity(&mut led0, &g, 1);
        println!(
            "\nn = {n}, m = {m}; prior-work (contracting) writes = {}",
            led0.costs().asym_writes
        );
        println!(
            "{:>10} {:>12} {:>14} {:>16}",
            "β", "writes", "n + βm", "writes/(n+βm)"
        );
        for beta_inv in [2u64, 8, 32, 128, 512] {
            let beta = 1.0 / beta_inv as f64;
            let mut led = Ledger::new(OMEGA);
            let _ = connectivity_csr(&mut led, &g, beta, 3);
            let w = led.costs().asym_writes;
            let model = n as f64 + beta * m as f64;
            println!(
                "{:>10.5} {:>12} {:>14.0} {:>16.2}",
                beta,
                w,
                model,
                w as f64 / model
            );
        }
    }
    println!("\nexpected shape: as m grows 16x, our writes stay ~c·n + βm (c ≈ 8 array constants)");
    println!("while the contracting prior work scales linearly with m.");
}

fn phase(label: &str, iters: usize, mut body: impl FnMut(Ledger)) -> PhaseTiming {
    let seconds_seq = time_median(iters, || body(Ledger::sequential(OMEGA)));
    let seconds_par = time_median(iters, || body(Ledger::new(OMEGA)));
    let t = PhaseTiming {
        label: label.to_string(),
        seconds_seq,
        seconds_par,
    };
    println!(
        "{label:<28} seq {:>9.2}ms   par {:>9.2}ms   speedup {:.2}x",
        1e3 * t.seconds_seq,
        1e3 * t.seconds_par,
        t.speedup()
    );
    t
}

fn wallclock_snapshot(n: usize, iters: usize) {
    println!(
        "\n=== PR-1 wall-clock snapshot (threads = {}) ===",
        rayon::current_num_threads()
    );
    let g = gen::bounded_degree_connected(n, 4, n / 4, 42);
    let pri = Priorities::random(n, 42);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let k = 8usize;
    let build_opts = BuildOpts {
        parallel: true,
        ..Default::default()
    };
    let oracle_opts = OracleBuildOpts {
        decomp: build_opts,
        ..Default::default()
    };

    let phases = vec![
        phase("decomp/build", iters, |mut led| {
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, k, 1, build_opts);
        }),
        phase("conn-oracle/build", iters, |mut led| {
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, oracle_opts);
        }),
        phase("connectivity/sec4.2", iters, |mut led| {
            connectivity_csr(&mut led, &g, 1.0 / OMEGA as f64, 1);
        }),
    ];

    // Query throughput + the model costs of the (parallel-ledger) build.
    let mut led = Ledger::new(OMEGA);
    let oracle = ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, oracle_opts);
    let build_costs = led.report("conn-oracle/build");
    let queries = 200_000.min(50 * n);
    let (q_secs, hits) = time(|| {
        let mut ql = Ledger::new(OMEGA);
        let mut acc = 0usize;
        let mut i = 1u32;
        for _ in 0..queries {
            i = i.wrapping_mul(2654435761).wrapping_add(1) % n as u32;
            acc += usize::from(oracle.connected(&mut ql, i, (i + 17) % n as u32));
        }
        acc
    });
    let throughput = queries as f64 / q_secs;
    println!("query throughput: {throughput:.0}/s over {queries} queries ({hits} connected pairs)");

    let snap = BenchSnapshot {
        pr: 1,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        m: g.m() as u64,
        phases,
        query_throughput_per_sec: throughput,
        build_costs,
    };
    match snap.write("BENCH_PR1.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR1.json: {e}"),
    }
}

fn fusion_ab_snapshot(n: usize, iters: usize) {
    println!("\n=== PR-9 fusion A/B: build writes/edge, three paths ===");
    let g = gen::bounded_degree_connected(n, 4, n / 4, 42);
    let m = g.m();
    let beta = 1.0 / OMEGA as f64;
    let seed = 9u64;

    let charged = |f: &dyn Fn(&mut Ledger, &Csr)| {
        let mut led = Ledger::new(OMEGA);
        f(&mut led, &g);
        led.costs().asym_writes as f64 / m as f64
    };
    let writes_per_edge_materialized = charged(&|led, g| {
        connectivity_csr_with(led, g, beta, seed, CrossEdgePass::Materialized);
    });
    let writes_per_edge_fused = charged(&|led, g| {
        connectivity_csr_with(led, g, beta, seed, CrossEdgePass::Fused);
    });
    let writes_per_edge_star = charged(&|led, g| {
        star_connectivity(led, g, beta, seed);
    });

    let build_seconds_materialized = time_median(iters, || {
        connectivity_csr_with(
            &mut Ledger::new(OMEGA),
            &g,
            beta,
            seed,
            CrossEdgePass::Materialized,
        );
    });
    let build_seconds_fused = time_median(iters, || {
        connectivity_csr_with(
            &mut Ledger::new(OMEGA),
            &g,
            beta,
            seed,
            CrossEdgePass::Fused,
        );
    });
    let build_seconds_star = time_median(iters, || {
        star_connectivity(&mut Ledger::new(OMEGA), &g, beta, seed);
    });

    let snap = FusionSnapshot {
        pr: 9,
        threads: rayon::current_num_threads() as u64,
        omega: OMEGA,
        n: n as u64,
        m: m as u64,
        writes_per_edge_materialized,
        writes_per_edge_fused,
        writes_per_edge_star,
        build_seconds_materialized,
        build_seconds_fused,
        build_seconds_star,
    };
    println!("{:<28} {:>14} {:>12}", "leg", "writes/edge", "build ms");
    for (label, wpe, secs) in [
        (
            "sec4.2 materialized",
            writes_per_edge_materialized,
            build_seconds_materialized,
        ),
        ("sec4.2 fused", writes_per_edge_fused, build_seconds_fused),
        (
            "sample+star fused",
            writes_per_edge_star,
            build_seconds_star,
        ),
    ] {
        println!("{label:<28} {wpe:>14.4} {:>12.2}", 1e3 * secs);
    }
    println!(
        "fused reduction {:.1}%, star reduction {:.1}% (vs materialized)",
        snap.fused_write_reduction_pct(),
        snap.star_write_reduction_pct()
    );
    match snap.write("BENCH_PR9.json") {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_PR9.json: {e}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (table_n, wall_n, iters) = if smoke {
        (1000, 4000, 1)
    } else {
        (5000, 60_000, 3)
    };
    theorem42_table(table_n);
    wallclock_snapshot(wall_n, iters);
    fusion_ab_snapshot(wall_n, iters);
}
