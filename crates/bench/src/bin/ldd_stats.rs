//! **Theorem 4.1** — the (β, O(log n/β)) low-diameter decomposition:
//! writes O(n), cut edges ≤ βm expected, radius O(log n / β). Also shows
//! how many BFS rounds ran bottom-up and how many vertices they claimed.

use wec_asym::Ledger;
use wec_graph::{gen, Vertex};
use wec_prims::low_diameter_decomposition;

fn main() {
    let n = 20_000usize;
    let g = gen::random_regular(n, 8, 3);
    let m = g.m();
    let verts: Vec<Vertex> = (0..n as u32).collect();
    let seeds = 25u64;
    println!("=== Theorem 4.1: MPX low-diameter decomposition, n = {n}, m = {m} (8-regular) ===");
    println!(
        "{:>8} {:>8} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "β", "parts", "cut edges", "cut/m", "≤β?", "max radius", "writes", "bu rounds", "bu claims"
    );
    for beta in [
        0.5f64,
        0.25,
        0.125,
        1.0 / 16.0,
        1.0 / 32.0,
        1.0 / 64.0,
        1.0 / 128.0,
    ] {
        let mut cut_total = 0usize;
        let mut parts_total = 0usize;
        let mut radius_max = 0u32;
        let mut writes = 0u64;
        let (mut bu_rounds, mut bu_claims) = (0usize, 0usize);
        for seed in 0..seeds {
            let mut led = Ledger::new(16);
            let r = low_diameter_decomposition(&mut led, &g, &verts, beta, seed);
            writes = led.costs().asym_writes;
            bu_rounds += r.bfs.bottom_up_rounds;
            bu_claims += r.bfs.bottom_up_claims;
            parts_total += r.num_parts();
            cut_total += g
                .edges()
                .iter()
                .filter(|&&(u, v)| r.bfs.source_of[u as usize] != r.bfs.source_of[v as usize])
                .count();
            // uncharged parent-chain depth: the BFS records no distances
            radius_max = radius_max.max((0..n as u32).map(|v| r.bfs.depth(v)).max().unwrap());
        }
        let cut = cut_total as f64 / seeds as f64;
        println!(
            "{beta:>8.4} {:>8} {:>12.0} {:>10.4} {:>10} {:>12} {:>12} {:>10.1} {:>10.0}",
            parts_total / seeds as usize,
            cut,
            cut / m as f64,
            if cut / (m as f64) <= beta {
                "yes"
            } else {
                "NO"
            },
            radius_max,
            writes,
            bu_rounds as f64 / seeds as f64,
            bu_claims as f64 / seeds as f64
        );
    }
    println!(
        "\nexpected shape: cut/m ≤ β (in expectation; the race is one global sample per seed, so"
    );
    println!(
        "rows with β below ~1/diameter carry large seed-to-seed variance); radius ≤ O(log n/β)"
    );
    println!(
        "saturates at the graph diameter; writes ~ c·n, independent of β. The last two columns"
    );
    println!("are per-seed means: a bottom-up claim writes 3 words instead of 4.");
}
