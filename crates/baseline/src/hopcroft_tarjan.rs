//! Hopcroft–Tarjan sequential biconnectivity (lowpoint DFS).
//!
//! This is the classic algorithm with the *standard output*: an array of
//! size `m` assigning each edge its biconnected component — exactly the
//! representation whose `Θ(m)` writes the paper's BC labeling (§5.2)
//! replaces. It serves two roles here: the Table-1 "prior work" sequential
//! biconnectivity comparator (`Θ(ωm)` work in the asymmetric model), and
//! the ground truth for every differential biconnectivity test.
//!
//! Requires a simple graph (the canonical [`Csr::from_edges`] builder).

use wec_asym::Ledger;
use wec_graph::{Csr, EdgeId};

/// Full biconnectivity information with the standard per-edge output.
#[derive(Debug, Clone, Default)]
pub struct HtResult {
    /// Per-vertex articulation flag.
    pub articulation: Vec<bool>,
    /// Per-edge bridge flag (indexed by [`EdgeId`]).
    pub bridge: Vec<bool>,
    /// Per-edge biconnected-component label (dense `0..num_bcc`).
    pub edge_bcc: Vec<u32>,
    /// Number of biconnected components.
    pub num_bcc: usize,
}

impl HtResult {
    /// Whether two vertices share a biconnected component: they do iff some
    /// edge-BCC touches both, which for ground truth we answer by scanning
    /// (test-only helper, O(m)).
    pub fn same_bcc_vertices(&self, g: &Csr, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        use wec_asym::FxHashSet;
        let mut bu: FxHashSet<u32> = FxHashSet::default();
        for (eid, &(a, b)) in g.edges().iter().enumerate() {
            if a == u || b == u {
                bu.insert(self.edge_bcc[eid]);
            }
        }
        g.edges()
            .iter()
            .enumerate()
            .any(|(eid, &(a, b))| (a == v || b == v) && bu.contains(&self.edge_bcc[eid]))
    }
}

wec_asym::recycle_fields!(HtResult { articulation, bridge, edge_bcc } reset { num_bcc });

const UNSET: u32 = u32::MAX;

/// The working arrays of one run, reusable across runs (see
/// [`hopcroft_tarjan_into`]).
#[derive(Debug, Default)]
pub struct HtScratch {
    disc: Vec<u32>,
    low: Vec<u32>,
    edge_stack: Vec<EdgeId>,
    /// Frame: (vertex, adjacency cursor, parent edge id or UNSET).
    frames: Vec<(u32, usize, u32)>,
}

wec_asym::recycle_fields!(HtScratch {
    disc,
    low,
    edge_stack,
    frames
});

/// Run Hopcroft–Tarjan. Charges `O(m)` reads and `Θ(n + m)` writes
/// (disc/low arrays, the edge stack, and the per-edge output array).
pub fn hopcroft_tarjan(led: &mut Ledger, g: &Csr) -> HtResult {
    let mut out = HtResult::default();
    hopcroft_tarjan_into(led, g, &mut out, &mut HtScratch::default());
    out
}

/// [`hopcroft_tarjan`] into caller-owned storage: `out` is overwritten
/// and `scratch` holds the working arrays, so a caller that keeps both
/// allocates nothing once they are large enough. Charges exactly what
/// [`hopcroft_tarjan`] charges.
pub fn hopcroft_tarjan_into(
    led: &mut Ledger,
    g: &Csr,
    out: &mut HtResult,
    scratch: &mut HtScratch,
) {
    let n = g.n();
    let m = g.m();
    let HtResult {
        articulation,
        bridge,
        edge_bcc,
        num_bcc: out_bcc,
    } = out;
    let HtScratch {
        disc,
        low,
        edge_stack,
        frames,
    } = scratch;
    disc.clear();
    disc.resize(n, UNSET);
    low.clear();
    low.resize(n, UNSET);
    edge_bcc.clear();
    edge_bcc.resize(m, UNSET);
    articulation.clear();
    articulation.resize(n, false);
    bridge.clear();
    bridge.resize(m, false);
    edge_stack.clear();
    frames.clear();
    let mut num_bcc = 0u32;
    let mut timer = 0u32;

    for s in 0..n as u32 {
        led.read(1);
        if disc[s as usize] != UNSET {
            continue;
        }
        disc[s as usize] = timer;
        low[s as usize] = timer;
        timer += 1;
        led.write(2);
        let mut root_children = 0usize;
        frames.push((s, 0, UNSET));
        while let Some(&mut (v, ref mut cursor, parent_eid)) = frames.last_mut() {
            let adj = g.neighbors(v);
            let eids = g.neighbor_edge_ids(v);
            if *cursor < adj.len() {
                let w = adj[*cursor];
                let eid = eids[*cursor];
                *cursor += 1;
                led.read(2);
                if eid == parent_eid {
                    continue;
                }
                led.read(1); // disc[w]
                if disc[w as usize] == UNSET {
                    // Tree edge.
                    if v == s {
                        root_children += 1;
                    }
                    disc[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    led.write(2);
                    edge_stack.push(eid);
                    led.write(1);
                    frames.push((w, 0, eid));
                } else if disc[w as usize] < disc[v as usize] {
                    // Back edge to an ancestor.
                    edge_stack.push(eid);
                    led.write(1);
                    if disc[w as usize] < low[v as usize] {
                        low[v as usize] = disc[w as usize];
                        led.write(1);
                    }
                }
                continue;
            }
            // Retreat.
            frames.pop();
            if let Some(&(p, _, _)) = frames.last() {
                led.read(2);
                if low[v as usize] < low[p as usize] {
                    low[p as usize] = low[v as usize];
                    led.write(1);
                }
                if low[v as usize] >= disc[p as usize] {
                    // p separates v's subtree: flush one biconnected component.
                    let tree_eid = parent_eid;
                    if p != s || root_children > 1 {
                        articulation[p as usize] = true;
                        led.write(1);
                    }
                    let mut popped_any = false;
                    while let Some(e) = edge_stack.pop() {
                        edge_bcc[e as usize] = num_bcc;
                        led.write(1);
                        popped_any = true;
                        if e == tree_eid {
                            break;
                        }
                    }
                    debug_assert!(popped_any);
                    if low[v as usize] > disc[p as usize] {
                        bridge[tree_eid as usize] = true;
                        led.write(1);
                    }
                    num_bcc += 1;
                }
            }
        }
    }
    debug_assert!(edge_stack.is_empty());
    debug_assert!(edge_bcc.iter().all(|&b| b != UNSET));
    *out_bcc = num_bcc as usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_graph::gen::{cycle, disjoint_union, grid, ladder, path, star};
    use wec_graph::Csr;

    #[test]
    fn path_is_all_bridges() {
        let g = path(5);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert!(r.bridge.iter().all(|&b| b));
        assert_eq!(r.num_bcc, 4);
        assert_eq!(r.articulation, vec![false, true, true, true, false]);
    }

    #[test]
    fn cycle_is_one_component() {
        let g = cycle(6);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert_eq!(r.num_bcc, 1);
        assert!(r.bridge.iter().all(|&b| !b));
        assert!(r.articulation.iter().all(|&a| !a));
    }

    #[test]
    fn star_center_is_articulation() {
        let g = star(6);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert!(r.articulation[0]);
        assert!((1..6).all(|v| !r.articulation[v]));
        assert_eq!(r.num_bcc, 5);
        assert!(r.bridge.iter().all(|&b| b));
    }

    #[test]
    fn barbell_structure() {
        // two triangles joined by a bridge: 0-1-2-0, 3-4-5-3, bridge 2-3
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert_eq!(r.num_bcc, 3);
        let bridge_eid = g.edges().iter().position(|&e| e == (2, 3)).unwrap();
        assert!(r.bridge[bridge_eid]);
        assert_eq!(r.bridge.iter().filter(|&&b| b).count(), 1);
        assert_eq!(r.articulation, vec![false, false, true, true, false, false]);
        // triangle edges share labels within, differ across
        let l = |a: u32, b: u32| {
            r.edge_bcc[g
                .edges()
                .iter()
                .position(|&e| e == (a.min(b), a.max(b)))
                .unwrap()]
        };
        assert_eq!(l(0, 1), l(1, 2));
        assert_eq!(l(0, 1), l(0, 2));
        assert_ne!(l(0, 1), l(3, 4));
        assert_ne!(l(0, 1), l(2, 3));
    }

    #[test]
    fn ladder_is_biconnected() {
        let g = ladder(6);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert_eq!(r.num_bcc, 1);
        assert!(r.articulation.iter().all(|&a| !a));
    }

    #[test]
    fn disconnected_graphs_handled_per_component() {
        let g = disjoint_union(&[&cycle(4), &path(3)]);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert_eq!(r.num_bcc, 1 + 2);
    }

    #[test]
    fn same_bcc_vertices_helper() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert!(r.same_bcc_vertices(&g, 0, 2));
        assert!(r.same_bcc_vertices(&g, 2, 3)); // bridge endpoints share the bridge BCC
        assert!(!r.same_bcc_vertices(&g, 0, 4));
        assert!(r.same_bcc_vertices(&g, 1, 1));
    }

    #[test]
    fn grid_has_single_bcc() {
        let g = grid(4, 5);
        let mut led = Ledger::new(8);
        let r = hopcroft_tarjan(&mut led, &g);
        assert_eq!(r.num_bcc, 1);
    }

    #[test]
    fn reused_storage_matches_fresh_runs() {
        let graphs = [
            grid(6, 7),
            path(3),
            disjoint_union(&[&cycle(5), &star(4), &path(2)]),
            Csr::from_edges(0, &[]),
            ladder(9),
        ];
        let mut out = HtResult::default();
        let mut scratch = HtScratch::default();
        for g in graphs.iter().chain(graphs.iter().rev()) {
            let mut fresh_led = Ledger::new(8);
            let fresh = hopcroft_tarjan(&mut fresh_led, g);
            let mut led = Ledger::new(8);
            hopcroft_tarjan_into(&mut led, g, &mut out, &mut scratch);
            assert_eq!(out.articulation, fresh.articulation);
            assert_eq!(out.bridge, fresh.bridge);
            assert_eq!(out.edge_bcc, fresh.edge_bcc);
            assert_eq!(out.num_bcc, fresh.num_bcc);
            assert_eq!(led.costs(), fresh_led.costs());
        }
    }

    #[test]
    fn writes_are_theta_m() {
        let g = grid(30, 30);
        let mut led = Ledger::new(16);
        let _ = hopcroft_tarjan(&mut led, &g);
        let w = led.costs().asym_writes;
        let m = g.m() as u64;
        assert!(w >= m, "must write at least the output array: {w} < {m}");
        assert!(w <= 4 * m + 4 * 900, "writes {w} should be Θ(n + m)");
    }
}
