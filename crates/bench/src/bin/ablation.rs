//! **Ablations** over two design choices:
//!
//! 1. sequential vs parallel `SECONDARYCENTERS` (Lemma 3.6 vs 3.7): the
//!    parallel variant marks the call root's children too — more centers,
//!    bounded recursion depth;
//! 2. the β knob of §4.2 connectivity against query-side costs of §4.3
//!    (construction writes vs per-query operations as k varies).

use wec_asym::Ledger;
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_core::{BuildOpts, ImplicitDecomposition};
use wec_graph::{gen, Priorities, Vertex};

fn main() {
    let n = 10_000usize;
    let g = gen::bounded_degree_connected(n, 4, n / 4, 6);
    let pri = Priorities::random(n, 6);
    let verts: Vec<Vertex> = (0..n as u32).collect();

    println!("=== ablation 1: sequential vs parallel Algorithm 1 (k = 8) ===");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>14}",
        "variant", "centers", "secondaries", "writes", "ops"
    );
    for parallel in [false, true] {
        let mut led = Ledger::new(64);
        let d =
            ImplicitDecomposition::build(&mut led, &g, &pri, &verts, 8, 3, BuildOpts { parallel });
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>14}",
            if parallel { "parallel" } else { "seq" },
            d.num_centers(),
            d.stats().secondaries,
            led.costs().asym_writes,
            led.costs().operations()
        );
    }

    println!("\n=== ablation 2: k — construction writes vs query cost (§4.3 oracle) ===");
    println!(
        "{:>4} {:>12} {:>14} {:>12}",
        "k", "build writes", "build ops", "ops/query"
    );
    for k in [2usize, 4, 8, 16, 32] {
        let mut led = Ledger::new((k * k) as u64);
        let oracle =
            ConnectivityOracle::build(&mut led, &g, &pri, &verts, k, 2, OracleBuildOpts::default());
        let build = led.costs();
        let before = led.costs();
        let q = 2000u64;
        for i in 0..q {
            let _ = oracle.component(&mut led, ((i * 2654435761) % n as u64) as u32);
        }
        let per = led.costs().since(&before).operations() / q;
        println!(
            "{k:>4} {:>12} {:>14} {:>12}",
            build.asym_writes,
            build.operations(),
            per
        );
    }
    println!("\nexpected shape: writes fall ~1/k while query ops rise ~k — the paper's read/write tradeoff dial.");
}
