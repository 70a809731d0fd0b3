//! **Section 6** — oracles on unbounded-degree graphs through the
//! implicit bounded-degree view: skewed (power-law / star-heavy) inputs,
//! write counts, and original-vertex query agreement.

use wec_asym::Ledger;
use wec_connectivity::{ConnectivityOracle, OracleBuildOpts};
use wec_graph::{gen, BoundedDegreeView, GraphView, Priorities, Vertex};

fn main() {
    println!("=== Section 6: connectivity oracle through the bounded-degree view ===\n");
    for (name, g) in [
        ("star(5000)", gen::star(5000)),
        (
            "chung_lu(8000, m≈20000, γ=2.2)",
            gen::chung_lu(8000, 20_000, 2.2, 4),
        ),
        ("gnm(3000, 30000)", gen::gnm(3000, 30_000, 9)),
    ] {
        let view = BoundedDegreeView::new(&g, 4);
        let verts: Vec<Vertex> = (0..view.n() as u32)
            .filter(|&v| view.is_vertex(v))
            .collect();
        let pri = Priorities::random(view.n(), 2);
        let mut led = Ledger::new(64);
        let oracle = ConnectivityOracle::build(
            &mut led,
            &view,
            &pri,
            &verts,
            8,
            1,
            OracleBuildOpts::default(),
        );
        let build_writes = led.costs().asym_writes;
        // agreement with ground truth on a vertex sample
        let (comp, ncomp) = wec_graph::props::components(&g);
        let mut checked = 0;
        for u in (0..g.n() as u32).step_by(97) {
            for v in (1..g.n() as u32).step_by(131) {
                assert_eq!(
                    oracle.connected(&mut led, u, v),
                    comp[u as usize] == comp[v as usize]
                );
                checked += 1;
            }
        }
        println!(
            "{name:<32} max deg {:>5} → view ids {:>6} (virtual {:>5});  build writes {:>7};  {} components; {checked} queries agree",
            g.max_degree(),
            view.n(),
            view.n() - g.n(),
            build_writes,
            ncomp,
        );
    }
    println!("\nVertex-biconnectivity through the view is NOT exact in general —");
    println!(
        "see tests/section6.rs::vertex_biconnectivity_counterexample_is_real and the \
         wec-graph bounded-view docs."
    );
}
