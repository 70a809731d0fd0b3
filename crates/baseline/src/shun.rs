//! Prior-work parallel connectivity (Shun, Dhulipala, Blelloch 2014 style):
//! recursive low-diameter decomposition with **explicit contraction**.
//!
//! Each level materializes the contracted graph — `Θ(edges remaining)`
//! writes per level — which is exactly the write-inefficiency the paper's
//! §4.2 removes by decomposing *once* with a small β and never contracting
//! again. In the asymmetric model this baseline costs `Θ(ωm)` work; it is
//! Table 1's "prior work, parallel" connectivity row.

use wec_asym::Ledger;
use wec_graph::{Csr, Vertex};
use wec_prims::low_diameter_decomposition;

/// β used at every level of the recursion (the original algorithm fixes a
/// constant β < 1).
pub const SHUN_BETA: f64 = 0.2;

/// Component labels (dense) via recursive LDD + contraction.
pub fn shun_connectivity(led: &mut Ledger, g: &Csr, seed: u64) -> Vec<u32> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let vertices: Vec<Vertex> = (0..n as u32).collect();
    recurse(led, g.n(), g.edges(), &vertices, seed, 0)
}

fn recurse(
    led: &mut Ledger,
    n: usize,
    edges: &[(Vertex, Vertex)],
    vertices: &[Vertex],
    seed: u64,
    level: usize,
) -> Vec<u32> {
    if edges.is_empty() {
        // every vertex its own component
        led.write(n as u64);
        return (0..n as u32).collect();
    }
    // The contracted graph may be a multigraph; the LDD/BFS machinery only
    // needs adjacency, so rebuild CSR each level — those writes are the
    // point of this baseline and are charged.
    let g = Csr::from_edges_multigraph(n, edges);
    led.write(4 * edges.len() as u64 + n as u64); // materialize CSR arrays
    let ldd = low_diameter_decomposition(led, &g, vertices, SHUN_BETA, seed ^ level as u64);
    let parts = ldd.num_parts();
    // The contraction relabels every vertex with its dense part id, read
    // through the LDD's center table; that array is this baseline's own.
    // Lookup convention: one read per vertex for a two-word lookup (its
    // `source_of` word, then its center's table slot; below, `part[v]`
    // then `sub[part]`), matching §4.2's projection. Charging the second
    // word would add one read per vertex.
    led.read(n as u64);
    led.write(n as u64);
    let part: Vec<u32> = (0..n as u32).map(|v| ldd.part(v)).collect();
    // Relabel surviving cross-part edges into the contracted id space.
    let mut next_edges = Vec::new();
    led.read(2 * edges.len() as u64);
    for &(u, v) in edges {
        let (pu, pv) = (part[u as usize], part[v as usize]);
        if pu != pv {
            next_edges.push((pu, pv));
            led.write(1);
        }
    }
    if parts == n && !next_edges.is_empty() {
        // No progress (vanishingly rare for β=0.2); fall back to sequential
        // labeling to guarantee termination.
        let (labels, _) = crate::seq::seq_connectivity(led, &g);
        return labels;
    }
    let sub_vertices: Vec<Vertex> = (0..parts as u32).collect();
    let sub = recurse(
        led,
        parts,
        &next_edges,
        &sub_vertices,
        seed.wrapping_add(1),
        level + 1,
    );
    // Project labels back through the partition map.
    led.read(n as u64);
    led.write(n as u64);
    (0..n as u32)
        .map(|v| sub[part[v as usize] as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_connectivity;
    use crate::unionfind::{same_partition, uf_labels};
    use wec_graph::gen::{disjoint_union, gnm, grid, path, torus};

    #[test]
    fn matches_union_find_on_families() {
        for g in [
            disjoint_union(&[&grid(6, 6), &path(9), &torus(4, 4)]),
            gnm(300, 500, 3),
            gnm(200, 80, 4), // mostly singletons
        ] {
            let mut led = Ledger::new(8);
            let labels = shun_connectivity(&mut led, &g, 7);
            assert!(same_partition(&labels, &uf_labels(&g)));
        }
    }

    #[test]
    fn writes_scale_with_m_unlike_ours() {
        // The whole point of this baseline: writes Ω(m).
        let g = gnm(500, 8000, 5);
        let mut led = Ledger::new(16);
        let _ = shun_connectivity(&mut led, &g, 3);
        let w = led.costs().asym_writes;
        assert!(
            w >= g.m() as u64,
            "contraction baseline writes {w} ≥ m = {}",
            g.m()
        );
        // sanity: the sequential baseline beats it by ~m/n in writes
        let mut led2 = Ledger::new(16);
        let _ = seq_connectivity(&mut led2, &g);
        assert!(led2.costs().asym_writes * 4 < w);
    }

    #[test]
    fn empty_and_edgeless() {
        let mut led = Ledger::new(8);
        assert!(shun_connectivity(&mut led, &Csr::from_edges(0, &[]), 1).is_empty());
        let labels = shun_connectivity(&mut led, &Csr::from_edges(5, &[]), 1);
        assert_eq!(labels.len(), 5);
        assert!(same_partition(&labels, &[0, 1, 2, 3, 4]));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gnm(200, 400, 9);
        let run = |seed| {
            let mut led = Ledger::sequential(8);
            shun_connectivity(&mut led, &g, seed)
        };
        assert_eq!(run(5), run(5));
    }
}
