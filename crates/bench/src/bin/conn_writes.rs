//! **Theorem 4.2** — §4.2 connectivity writes O(n + βm) as β sweeps, and
//! the crossover against the prior-work contraction algorithm. Pass
//! `--smoke` for the CI-sized run.

use wec_asym::Ledger;
use wec_baseline::shun_connectivity;
use wec_connectivity::connectivity_csr;
use wec_graph::gen;

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
    println!("\nexpected shape: as m grows 16x, our writes stay ~c·n + βm (c ≈ 7 words/vertex)");
    println!("while the contracting prior work scales linearly with m.");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    theorem42_table(if smoke { 1000 } else { 5000 });
}
