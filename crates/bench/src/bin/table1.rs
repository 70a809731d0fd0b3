//! **Table 1** — construction costs of connectivity and biconnectivity
//! oracles: prior work vs. this paper, across graph density and ω.
//!
//! Paper's claims (n nodes, m edges, ω = write cost):
//!
//! | | connectivity | biconnectivity |
//! |---|---|---|
//! | prior work | O(m + ωn) seq / O(ωm) par | O(ωm) |
//! | ours §4.2/§5.2 | O(m + ωn) | O(m + ωn) |
//! | ours §4.3/§5.3 | O(√ω·m) | O(√ω·m) |
//! | best choice | §4.2 when m ∈ Ω(√ω·n), §4.3 when m ∈ o(√ω·n) | same |
//!
//! We print measured writes/operations/work/depth for all six algorithms
//! on a density sweep at each ω and mark the measured winner. Two constant
//! factors shift the crossovers relative to the asymptotics: our ρ
//! implementation costs ~90 unit operations per visited vertex (hash-map
//! deterministic BFS), so the √ω·m oracles win on *work* only once
//! ω ≳ 10⁴, while they win on *writes* — the actual NVM resource — already
//! at ω = 16; and the §5.2 labeling carries ~35n writes of array
//! constants, so it overtakes Θ(m)-output prior work at m ≳ 16n.

use wec_baseline::{hopcroft_tarjan, seq_connectivity, shun_connectivity};
use wec_bench::measure;
use wec_biconnectivity::classic::classic_biconnectivity_standard_output;
use wec_biconnectivity::{bc_labeling, oracle::build_biconnectivity_oracle};
use wec_connectivity::{connectivity_csr, ConnectivityOracle, OracleBuildOpts};
use wec_core::BuildOpts;
use wec_graph::{gen, Priorities, Vertex};

fn header(title: &str) -> String {
    format!(
        "{title:<34} {:>12} {:>12} {:>14} {:>14}",
        "writes", "operations", "work", "depth"
    )
}

fn render(r: &wec_asym::CostReport) -> String {
    format!(
        "{:<34} {:>12} {:>12} {:>14} {:>14}",
        r.label, r.asym_writes, r.operations, r.work, r.depth
    )
}

fn main() {
    let n = 6000usize;
    println!("=== Table 1: construction costs (n = {n}) ===\n");
    for omega in [16u64, 64, 1024, 16384] {
        let k = (omega as f64).sqrt() as usize;
        let densities: &[usize] = if omega <= 64 { &[3, 16, 48] } else { &[3] };
        for &avg_deg in densities {
            let sqrt_omega = (omega as f64).sqrt();
            let sparse_regime = (avg_deg as f64) < sqrt_omega;
            let g = if avg_deg <= 4 {
                gen::bounded_degree_connected(n, 4, n / 4, 7)
            } else {
                gen::gnm(n, n * avg_deg / 2, 7)
            };
            let m = g.m();
            let pri = Priorities::random(n, 7);
            let verts: Vec<Vertex> = (0..n as u32).collect();
            println!(
                "--- ω = {omega} (√ω = {k}), m = {m} (m/n = {:.1}) — paper predicts {} ---",
                m as f64 / n as f64,
                if sparse_regime {
                    "the √ω·m oracles (§4.3/§5.3) win"
                } else {
                    "the m + ωn algorithms (§4.2/§5.2) win"
                }
            );
            println!("{}", header("connectivity"));
            let (r1, _) = measure("prior: sequential BFS", omega, |led| {
                seq_connectivity(led, &g)
            });
            println!("{}", render(&r1));
            let (r2, _) = measure("prior: Shun et al. (contracting)", omega, |led| {
                shun_connectivity(led, &g, 1)
            });
            println!("{}", render(&r2));
            let (r3, _) = measure("ours §4.2 (β = 1/ω)", omega, |led| {
                connectivity_csr(led, &g, 1.0 / omega as f64, 1)
            });
            println!("{}", render(&r3));
            let (r4, _) = measure("ours §4.3 oracle (k = √ω)", omega, |led| {
                ConnectivityOracle::build(led, &g, &pri, &verts, k, 1, OracleBuildOpts::default())
            });
            println!("{}", render(&r4));

            println!("{}", header("biconnectivity"));
            let (r5, _) = measure("prior: Hopcroft–Tarjan (std out)", omega, |led| {
                hopcroft_tarjan(led, &g)
            });
            println!("{}", render(&r5));
            let (r6, _) = measure("prior: parallel TV-style (std out)", omega, |led| {
                classic_biconnectivity_standard_output(led, &g, 1)
            });
            println!("{}", render(&r6));
            let (r7, _) = measure("ours §5.2 BC labeling", omega, |led| {
                bc_labeling(led, &g, 1.0 / omega as f64, 1)
            });
            println!("{}", render(&r7));
            let (r8, _) = measure("ours §5.3 oracle (k = √ω)", omega, |led| {
                build_biconnectivity_oracle(led, &g, &pri, &verts, k, 1, BuildOpts::default())
            });
            println!("{}", render(&r8));
            let conn_work = [
                ("seqBFS", r1.work),
                ("Shun", r2.work),
                ("§4.2", r3.work),
                ("§4.3", r4.work),
            ];
            let conn_writes = [
                ("seqBFS", r1.asym_writes),
                ("Shun", r2.asym_writes),
                ("§4.2", r3.asym_writes),
                ("§4.3", r4.asym_writes),
            ];
            let bicc_work = [
                ("HT", r5.work),
                ("TV", r6.work),
                ("§5.2", r7.work),
                ("§5.3", r8.work),
            ];
            let bicc_writes = [
                ("HT", r5.asym_writes),
                ("TV", r6.asym_writes),
                ("§5.2", r7.asym_writes),
                ("§5.3", r8.asym_writes),
            ];
            fn min<'a>(xs: &[(&'a str, u64)]) -> &'a str {
                xs.iter().min_by_key(|&&(_, w)| w).map(|&(s, _)| s).unwrap()
            }
            println!(
                "measured best — connectivity: work {} / writes {};  biconnectivity: work {} / writes {}\n",
                min(&conn_work),
                min(&conn_writes),
                min(&bicc_work),
                min(&bicc_writes)
            );
        }
    }
}
