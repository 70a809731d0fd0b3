//! Wall-clock benches (`cargo bench -p wec-bench`): real time alongside the
//! model costs the harness binaries report. One group per paper artifact
//! family.
//!
//! The offline build has no criterion, so this is a self-contained harness:
//! each case is warmed up once, then run for a fixed number of iterations
//! with the median and min/max per-iteration time reported. Pass a substring
//! filter as the first CLI argument to run a subset, or `--smoke` to run
//! one cheap iteration of every case (used by CI to keep the bench code
//! honest).

use wec_asym::Ledger;
use wec_baseline::{hopcroft_tarjan, seq_connectivity, shun_connectivity};
use wec_biconnectivity::{bc_labeling, oracle::build_biconnectivity_oracle};
use wec_connectivity::{connectivity_csr, ConnectivityOracle, OracleBuildOpts};
use wec_core::{BuildOpts, ImplicitDecomposition};
use wec_graph::{gen, Priorities, Vertex};

const OMEGA: u64 = 64;

struct Harness {
    filter: Option<String>,
    smoke: bool,
}

impl Harness {
    fn from_args() -> Self {
        let mut filter = None;
        let mut smoke = false;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--smoke" => smoke = true,
                "--bench" => {} // passed by `cargo bench`
                flag if flag.starts_with('-') => {
                    eprintln!("unknown flag {flag}; supported: --smoke, <name substring>");
                    std::process::exit(2);
                }
                name => filter = Some(name.to_string()),
            }
        }
        Harness { filter, smoke }
    }

    fn case<R>(&self, name: &str, iters: usize, mut body: impl FnMut() -> R) {
        if let Some(f) = &self.filter {
            if !name.contains(f.as_str()) {
                return;
            }
        }
        let iters = if self.smoke { 1 } else { iters.max(1) };
        // Shared measurement protocol (warm-up + sorted samples).
        let samples = wec_bench::time_samples(iters, || {
            std::hint::black_box(body());
        });
        println!(
            "{name:<44} {:>12} {:>12} {:>12}   ({iters} iters)",
            format_time(samples[samples.len() / 2]),
            format_time(samples[0]),
            format_time(samples[samples.len() - 1]),
        );
    }
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.3}s", secs)
    }
}

fn bench_connectivity_construction(h: &Harness) {
    let n = if h.smoke { 2000 } else { 20_000 };
    let g = gen::gnm(n, 4 * n, 1);
    h.case("table1/connectivity-construction/prior/seq-bfs", 10, || {
        let mut led = Ledger::new(OMEGA);
        seq_connectivity(&mut led, &g)
    });
    h.case("table1/connectivity-construction/prior/shun", 10, || {
        let mut led = Ledger::new(OMEGA);
        shun_connectivity(&mut led, &g, 1)
    });
    h.case("table1/connectivity-construction/ours/sec4.2", 10, || {
        let mut led = Ledger::new(OMEGA);
        connectivity_csr(&mut led, &g, 1.0 / OMEGA as f64, 1)
    });
}

fn bench_oracles(h: &Harness) {
    let n = if h.smoke { 1500 } else { 6000 };
    let g = gen::bounded_degree_connected(n, 4, n / 4, 3);
    let pri = Priorities::random(n, 3);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let k = 8;
    h.case("table1/oracle-construction/conn-oracle/build", 10, || {
        let mut led = Ledger::new(OMEGA);
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 1, OracleBuildOpts::default())
    });
    h.case("table1/oracle-construction/bicc-oracle/build", 10, || {
        let mut led = Ledger::new(OMEGA);
        build_biconnectivity_oracle(&mut led, &g, &pri, &verts, k, 1, BuildOpts::default())
    });
    h.case("table1/oracle-construction/bicc-labeling/build", 10, || {
        let mut led = Ledger::new(OMEGA);
        bc_labeling(&mut led, &g, 1.0 / OMEGA as f64, 1)
    });
    h.case(
        "table1/oracle-construction/prior/hopcroft-tarjan",
        10,
        || {
            let mut led = Ledger::new(OMEGA);
            hopcroft_tarjan(&mut led, &g)
        },
    );
}

fn bench_queries(h: &Harness) {
    let n = if h.smoke { 1500 } else { 6000 };
    let g = gen::bounded_degree_connected(n, 4, n / 4, 3);
    let pri = Priorities::random(n, 3);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let mut led = Ledger::new(OMEGA);
    let conn =
        ConnectivityOracle::build(&mut led, &g, &pri, &verts, 8, 1, OracleBuildOpts::default());
    let bicc = build_biconnectivity_oracle(&mut led, &g, &pri, &verts, 8, 1, BuildOpts::default());
    let mut l = Ledger::new(OMEGA);
    let mut i = 0u32;
    let home = conn.component(&mut l, 0);
    h.case("table1/queries/conn-oracle/component", 5, || {
        let mut acc = 0usize;
        for _ in 0..1000 {
            i = (i.wrapping_mul(2654435761)).wrapping_add(1) % n as u32;
            acc += usize::from(conn.component(&mut l, i) == home);
        }
        acc
    });
    h.case("table1/queries/bicc-oracle/articulation", 5, || {
        let mut acc = 0usize;
        for _ in 0..1000 {
            i = (i.wrapping_mul(2654435761)).wrapping_add(1) % n as u32;
            acc += usize::from(bicc.is_articulation(&mut l, i));
        }
        acc
    });
    h.case("table1/queries/bicc-oracle/biconnected", 5, || {
        let mut acc = 0usize;
        for _ in 0..1000 {
            i = (i.wrapping_mul(2654435761)).wrapping_add(1) % n as u32;
            acc += usize::from(bicc.biconnected(&mut l, i, (i + 31) % n as u32));
        }
        acc
    });
    h.case("table1/queries/bicc-oracle/two_edge_connected", 5, || {
        let mut acc = 0usize;
        for _ in 0..1000 {
            i = (i.wrapping_mul(2654435761)).wrapping_add(1) % n as u32;
            acc += usize::from(bicc.two_edge_connected(&mut l, i, (i + 31) % n as u32));
        }
        acc
    });
}

fn bench_decomposition(h: &Harness) {
    let n = if h.smoke { 2000 } else { 20_000 };
    let g = gen::bounded_degree_connected(n, 4, n / 4, 5);
    let pri = Priorities::random(n, 5);
    let verts: Vec<Vertex> = (0..n as u32).collect();
    for &k in &[4usize, 16] {
        h.case(&format!("thm3.1/decomposition/build/k={k}"), 10, || {
            let mut led = Ledger::new((k * k) as u64);
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, k, 9, BuildOpts::default())
        });
    }
}

fn main() {
    let h = Harness::from_args();
    println!(
        "{:<44} {:>12} {:>12} {:>12}",
        "bench (threads=".to_owned() + &rayon::current_num_threads().to_string() + ")",
        "median",
        "min",
        "max"
    );
    bench_connectivity_construction(&h);
    bench_oracles(&h);
    bench_queries(&h);
    bench_decomposition(&h);
}
