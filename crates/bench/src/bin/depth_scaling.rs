//! **Theorems 1.1 / 4.1 / 4.2** — Asymmetric NP depth (ledger critical
//! path). The fork-join phases (LDD with its write-efficient BFS, the
//! cross-edge filter) have polylog-in-n depth at fixed ω; the full §4.2
//! pipeline in this implementation finishes with a *sequential*
//! linear-work pass over the contracted graph (size O(n/ω + βm)), so its
//! measured depth has an additional small linear term.

use wec_asym::Ledger;
use wec_connectivity::connectivity_csr;
use wec_graph::{gen, Vertex};
use wec_prims::low_diameter_decomposition;

fn main() {
    let omega = 16u64;
    println!("=== Asymmetric NP depth, ω = {omega}, m = 4n ===");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>12} {:>14}",
        "n", "LDD work", "LDD depth", "pipeline depth", "LDD d/log²n", "pipe d/n"
    );
    for n in [2000usize, 8000, 32000, 128_000] {
        let g = gen::gnm(n, 4 * n, 2);
        let verts: Vec<Vertex> = (0..n as u32).collect();
        let mut led = Ledger::new(omega);
        let _ = low_diameter_decomposition(&mut led, &g, &verts, 1.0 / omega as f64, 1);
        let (ldd_work, ldd_depth) = (led.work(), led.depth());
        let mut led2 = Ledger::new(omega);
        let _ = connectivity_csr(&mut led2, &g, 1.0 / omega as f64, 1);
        let log2 = (n as f64).log2();
        println!(
            "{n:>8} {ldd_work:>14} {ldd_depth:>14} {:>14} {:>12.1} {:>14.2}",
            led2.depth(),
            ldd_depth as f64 / (log2 * log2),
            led2.depth() as f64 / n as f64
        );
    }
    println!("\nexpected shape: LDD depth/log²n grows only with ω·log n factors (flat-ish),");
    println!("far below work; the pipeline column shows the documented sequential tail.");
}
