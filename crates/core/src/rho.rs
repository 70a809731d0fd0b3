//! The mapping `ρ(v)`: a vertex's center, computed on the fly (Lemma 3.2).
//!
//! `ρ0(v)` is the first *primary* center in the deterministic search order
//! from `v`; `ρ(v)` is the center (primary or secondary) on the canonical
//! path `v → ρ0(v)` closest to `v`. O(k) expected operations, **no
//! asymmetric writes**, O(k log n) symmetric memory whp.
//!
//! If the search exhausts `v`'s component without meeting a primary center
//! (possible only for components smaller than `k` after construction), the
//! component's minimum-priority vertex acts as an *implicit* center that is
//! never written anywhere — the paper's unconnected-graph extension.

use crate::centers::{CenterLabel, CenterLookup};
use crate::detbfs::DetSearch;
use wec_asym::Ledger;
use wec_graph::{GraphView, Priorities, Vertex};

/// The resolved center of a vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Center {
    /// A stored center (member of `S`).
    Stored(Vertex),
    /// The minimum-priority vertex of a small center-less component.
    ImplicitMin(Vertex),
}

impl Center {
    /// The center's vertex id, whichever kind it is.
    pub fn vertex(&self) -> Vertex {
        match *self {
            Center::Stored(v) | Center::ImplicitMin(v) => v,
        }
    }

    /// Whether this is an implicit (unstored) center.
    pub fn is_implicit(&self) -> bool {
        matches!(self, Center::ImplicitMin(_))
    }
}

/// Answer of a `ρ` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RhoAnswer {
    /// `ρ(v)`.
    pub center: Center,
    /// The second vertex on `SP(v, ρ(v))` — `v`'s parent in the cluster
    /// tree (Lemma 3.3); equals `v` when `v` is its own center.
    pub parent_hop: Vertex,
    /// Hop distance `v → ρ(v)`.
    pub dist: u32,
}

/// Compute `ρ(v)` with full detail. See module docs for costs.
pub fn rho<G: GraphView>(
    led: &mut Ledger,
    g: &G,
    pri: &Priorities,
    centers: &impl CenterLookup,
    v: Vertex,
) -> RhoAnswer {
    let mut s = DetSearch::new(led, g, pri, v);
    // Find ρ0(v): scan levels in canonical order for the first primary.
    let rho0 = loop {
        if let Some(u) = s.first_in_frontier(led, centers, CenterLabel::Primary) {
            break Some(u);
        }
        if !s.advance(led) {
            break None;
        }
    };
    let answer = match rho0 {
        Some(p0) => {
            // Canonical path v → p0; the S-member closest to v on it is ρ(v).
            let path = s.path_from_start(led, p0); // [v, ..., p0]
            debug_assert_eq!(path[0], v);
            let mut center = p0;
            let mut dist = (path.len() - 1) as u32;
            for (i, &u) in path.iter().enumerate() {
                if centers.lookup(led, u).is_some() {
                    center = u;
                    dist = i as u32;
                    break;
                }
            }
            let parent_hop = if dist == 0 { v } else { path[1] };
            RhoAnswer {
                center: Center::Stored(center),
                parent_hop,
                dist,
            }
        }
        None => {
            // Component exhausted: implicit minimum-priority center.
            let min = s.min_priority_visited(led);
            if min == v {
                RhoAnswer {
                    center: Center::ImplicitMin(v),
                    parent_hop: v,
                    dist: 0,
                }
            } else {
                // Path v → min under the *same* canonical order: the search
                // from v already has canonical parents for min.
                let path = s.path_from_start(led, min);
                let dist = (path.len() - 1) as u32;
                RhoAnswer {
                    center: Center::ImplicitMin(min),
                    parent_hop: path[1],
                    dist,
                }
            }
        }
    };
    s.release(led);
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::CenterSet;
    use wec_graph::gen::{cycle, grid, path};
    use wec_graph::Csr;

    fn centers_of(led: &mut Ledger, prim: &[Vertex], sec: &[Vertex]) -> CenterSet {
        let ids = prim.iter().chain(sec).max().map_or(0, |&m| m as usize + 1);
        let mut s = CenterSet::new(led, ids);
        for &p in prim {
            s.insert(led, p, CenterLabel::Primary);
        }
        for &x in sec {
            s.insert(led, x, CenterLabel::Secondary);
        }
        s
    }

    #[test]
    fn nearest_primary_on_path_graph() {
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0, 9], &[]);
        let a = rho(&mut led, &g, &pri, &cs, 2);
        assert_eq!(a.center, Center::Stored(0));
        assert_eq!(a.dist, 2);
        assert_eq!(a.parent_hop, 1);
        let b = rho(&mut led, &g, &pri, &cs, 7);
        assert_eq!(b.center, Center::Stored(9));
        assert!(led.costs().asym_writes > 0); // only center-set setup wrote
    }

    #[test]
    fn secondary_on_path_intercepts() {
        // primary at 0; secondary at 3; vertex 5's path to 0 passes 3.
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0], &[3]);
        let a = rho(&mut led, &g, &pri, &cs, 5);
        assert_eq!(a.center, Center::Stored(3));
        assert_eq!(a.dist, 2);
        assert_eq!(a.parent_hop, 4);
        // vertex 2 is between 0 and 3: its primary path [2,1,0] misses 3.
        let b = rho(&mut led, &g, &pri, &cs, 2);
        assert_eq!(b.center, Center::Stored(0));
    }

    #[test]
    fn center_is_its_own_center() {
        let g = cycle(8);
        let pri = Priorities::identity(8);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[4], &[6]);
        let a = rho(&mut led, &g, &pri, &cs, 4);
        assert_eq!(a.center, Center::Stored(4));
        assert_eq!(a.dist, 0);
        assert_eq!(a.parent_hop, 4);
        // a secondary center is also its own center
        let b = rho(&mut led, &g, &pri, &cs, 6);
        assert_eq!(b.center, Center::Stored(6));
        assert_eq!(b.dist, 0);
    }

    #[test]
    fn secondary_not_on_primary_path_is_ignored() {
        // The paper's figure-1 point: c picks its primary even when a
        // secondary is closer but off the canonical path.
        // Grid row: secondary placed on a different branch.
        //   0 - 1 - 2 - 3 - 4(primary)
        //           |
        //           5(secondary)
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]);
        let pri = Priorities::identity(6);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[4], &[5]);
        // vertex 1: path to 4 is [1,2,3,4]; 5 is at distance 2 but NOT on
        // the path, so it must not capture 1.
        let a = rho(&mut led, &g, &pri, &cs, 1);
        assert_eq!(a.center, Center::Stored(4));
        assert_eq!(a.dist, 3);
        // vertex 5 itself is a stored (secondary) center.
        let b = rho(&mut led, &g, &pri, &cs, 5);
        assert_eq!(b.center, Center::Stored(5));
    }

    #[test]
    fn implicit_center_for_centerless_component() {
        let g = wec_graph::gen::disjoint_union(&[&path(4), &cycle(5)]);
        let pri = Priorities::identity(9);
        let mut led = Ledger::new(8);
        // centers only in the cycle component (vertices 4..9)
        let cs = centers_of(&mut led, &[6], &[]);
        let a = rho(&mut led, &g, &pri, &cs, 2);
        assert_eq!(a.center, Center::ImplicitMin(0));
        assert!(a.center.is_implicit());
        assert_eq!(a.dist, 2);
        assert_eq!(a.parent_hop, 1);
        let b = rho(&mut led, &g, &pri, &cs, 0);
        assert_eq!(b.center, Center::ImplicitMin(0));
        assert_eq!(b.dist, 0);
    }

    #[test]
    fn rho_does_not_write() {
        let g = grid(8, 8);
        let pri = Priorities::random(64, 3);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[0, 37, 51], &[12]);
        let w0 = led.costs().asym_writes;
        for v in 0..64u32 {
            let _ = rho(&mut led, &g, &pri, &cs, v);
        }
        assert_eq!(
            led.costs().asym_writes,
            w0,
            "ρ must perform no asymmetric writes"
        );
        assert_eq!(led.sym_live(), 0, "all symmetric memory released");
    }

    #[test]
    fn tie_break_consistency_with_figure_semantics() {
        // Two primaries equidistant: the one whose canonical path wins the
        // priority comparison is chosen, deterministically.
        let g = cycle(6); // vertex 3 is equidistant from 0 via [3,2,1,0]... both dirs
        let pri = Priorities::identity(6);
        let mut led = Ledger::new(8);
        let cs = centers_of(&mut led, &[1, 5], &[]);
        // From 3: level-1 = {2, 4} (2 first by priority); level-2 in order:
        // parent 2 -> 1, parent 4 -> 5; so ρ0(3) = 1.
        let a = rho(&mut led, &g, &pri, &cs, 3);
        assert_eq!(a.center, Center::Stored(1));
        assert_eq!(a.parent_hop, 2);
    }

    #[test]
    fn interleaved_calls_match_runs_on_a_fresh_thread() {
        // ρ calls on different graphs, centers and starts share one
        // thread's pooled scratch; each must charge and answer exactly as
        // on a fresh thread, whose pool is empty.
        let graphs = [
            path(10),
            grid(8, 8),
            wec_graph::gen::disjoint_union(&[&path(4), &cycle(5)]),
            grid(20, 20),
        ];
        let pris = [
            Priorities::identity(10),
            Priorities::random(64, 3),
            Priorities::identity(9),
            Priorities::random(400, 8),
        ];
        let mut led = Ledger::new(8);
        let centers = [
            centers_of(&mut led, &[0, 9], &[]),
            centers_of(&mut led, &[0, 37, 51], &[12]),
            centers_of(&mut led, &[6], &[]),
            centers_of(&mut led, &[399], &[150, 210]),
        ];
        let run = |i: usize, v: Vertex| {
            let mut led = Ledger::new(8);
            let a = rho(&mut led, &graphs[i], &pris[i], &centers[i], v);
            (a, led.costs(), led.depth(), led.sym_peak())
        };
        let calls: Vec<(usize, Vertex)> = (0..40u32)
            .flat_map(|j| (0..4).map(move |i| (i, (j * 7 + i as u32) % [10, 64, 9, 400][i])))
            .collect();
        for &(i, v) in &calls {
            let fresh = std::thread::scope(|t| t.spawn(|| run(i, v)).join().unwrap());
            assert_eq!(run(i, v), fresh, "graph {i}, start {v}");
        }
    }
}
