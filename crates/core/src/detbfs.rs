//! The deterministic tie-breaking BFS of Section 3.
//!
//! The paper orders paths of equal hop-length by comparing, at the first
//! position where they diverge, the *priority* of the vertices there
//! (higher priority = "shorter"). Under that order, subpaths of shortest
//! paths are themselves unique shortest paths, so the search from a vertex
//! enumerates the graph in a canonical order `L(SP(v, ·))` that is
//! **independent of which vertices happen to be centers** — the property
//! Lemma 3.2's expectation argument needs.
//!
//! Realization: process the search level by level, one parent block at a
//! time. Within level `d+1`, the canonical parent of `u` is its level-`d`
//! neighbor whose own rank is minimal, and vertices are ranked by
//! `(parent's rank, own priority)`: two canonical paths to different
//! level-`(d+1)` vertices either diverge before level `d` (compare parent
//! ranks) or at level `d+1` itself (same parent — compare own priorities).
//! Scanning level `d` in rank order and letting the first parent that sees
//! a vertex claim it makes the vertices the rank-`r` parent claims exactly
//! the next level's `r`-th block: once that parent's list is read, no
//! later parent adds to the block. So each block is sorted by priority as
//! it closes, and a search for the first vertex with some property
//! ([`DetSearch::advance_until`]) stops at the first block holding one,
//! without reading the rest of the level. A level finished in full costs
//! one sort per block, `Σ b log b ≤ f log f` for a level of `f`.
//!
//! Everything lives in **symmetric memory** and is charged against the
//! ledger's high-water mark: the search performs no asymmetric writes,
//! which is the whole point. The memory itself is a reused per-worker
//! scratchpad ([`wec_asym::scratch`]): a search takes a `SearchScratch`
//! (visited map, frontier, neighbor, next-level and path buffers) from its
//! thread's pool and hands it back when dropped, so a steady stream of
//! searches allocates nothing. The `sym_alloc`/`sym_free` charges follow
//! the model's words per visited vertex, not the allocator.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use wec_asym::scratch::{self, Pool};
use wec_asym::{FxHashMap, Ledger};
use wec_graph::{GraphView, Priorities, Vertex};

/// Per-visited-vertex record (symmetric memory).
#[derive(Debug, Clone, Copy)]
pub struct NodeInfo {
    /// Canonical parent (toward the search start; start's parent = itself).
    pub parent: Vertex,
    /// Hop distance from the start.
    pub level: u32,
}

/// Words of symmetric memory charged per visited vertex: key, parent,
/// level, and rank within the level (kept as the vertex's position in the
/// frontier rather than in the record).
const WORDS_PER_NODE: u64 = 4;

/// The reusable buffers of one search.
#[derive(Default)]
struct SearchScratch {
    /// Visited records.
    info: FxHashMap<Vertex, NodeInfo>,
    /// Current level in canonical rank order.
    frontier: Vec<Vertex>,
    /// One frontier vertex's neighbors.
    nbrs: Vec<Vertex>,
    /// The next level, one parent block after another, each keyed by
    /// `(own priority rank, vertex)` for its sort.
    next: Vec<(u32, Vertex)>,
    /// The last path reconstructed by `path_from_start`.
    path: Vec<Vertex>,
}

wec_asym::recycle_fields!(SearchScratch {
    info,
    frontier,
    nbrs,
    next,
    path
});

thread_local! {
    static POOL: Pool<SearchScratch> = const { RefCell::new(Vec::new()) };
}

/// A running deterministic search.
pub struct DetSearch<'a, G: GraphView> {
    g: &'a G,
    pri: &'a Priorities,
    buf: SearchScratch,
    level: u32,
    sym_words: u64,
}

impl<'a, G: GraphView> DetSearch<'a, G> {
    /// Start a search at `start` (level 0).
    pub fn new(led: &mut Ledger, g: &'a G, pri: &'a Priorities, start: Vertex) -> Self {
        let mut buf = scratch::take(&POOL);
        buf.info.insert(
            start,
            NodeInfo {
                parent: start,
                level: 0,
            },
        );
        buf.frontier.push(start);
        led.op(1);
        led.sym_alloc(WORDS_PER_NODE);
        DetSearch {
            g,
            pri,
            buf,
            level: 0,
            sym_words: WORDS_PER_NODE,
        }
    }

    /// Number of vertices visited so far.
    pub fn visited(&self) -> usize {
        self.buf.info.len()
    }

    /// The record of a visited vertex, `None` if not visited yet.
    pub fn node(&self, v: Vertex) -> Option<NodeInfo> {
        self.buf.info.get(&v).copied()
    }

    /// The minimum-priority visited vertex — the implicit center of a
    /// center-less component once the search has exhausted it. Charges
    /// one op per visited vertex.
    pub fn min_priority_visited(&self, led: &mut Ledger) -> Vertex {
        led.op(self.visited() as u64);
        self.buf
            .info
            .keys()
            .copied()
            .min_by_key(|&u| self.pri.rank(u))
            .expect("search visited at least its start")
    }

    /// Test `pred` on the search's vertices in canonical order — the start,
    /// then level by level — and return the first that passes, or `None`
    /// once the component is exhausted without one.
    ///
    /// Each level is expanded one parent block at a time and its blocks are
    /// tested as they close, so a pass ends the search inside its level:
    /// the later parents' adjacency is never read. A search runs this once;
    /// afterwards `node` and `path_from_start` serve every vertex visited,
    /// and `min_priority_visited` names the component's minimum when the
    /// search returned `None`.
    pub fn advance_until(
        &mut self,
        led: &mut Ledger,
        mut pred: impl FnMut(&mut Ledger, Vertex) -> bool,
    ) -> Option<Vertex> {
        let SearchScratch {
            info,
            frontier,
            nbrs,
            next,
            ..
        } = &mut self.buf;
        let start = frontier[0];
        if pred(led, start) {
            return Some(start);
        }
        while !frontier.is_empty() {
            // Scan the frontier in rank order. The first time an unvisited
            // neighbor is seen its parent has minimal rank — the canonical
            // parent — and recording it right away makes later sightings in
            // this level skip it.
            next.clear();
            self.level += 1;
            let mut hit = None;
            for &v in frontier.iter() {
                let block_start = next.len();
                nbrs.clear();
                self.g.neighbors_into(led, v, nbrs);
                for &w in nbrs.iter() {
                    led.op(1);
                    if let Entry::Vacant(e) = info.entry(w) {
                        e.insert(NodeInfo {
                            parent: v,
                            level: self.level,
                        });
                        next.push((self.pri.rank(w), w));
                    }
                }
                // `v`'s block is closed: canonical order within it is own
                // priority.
                let block = &mut next[block_start..];
                block.sort_unstable();
                led.op(sort_cost(block.len()));
                hit = block.iter().map(|&(_, w)| w).find(|&w| pred(led, w));
                if hit.is_some() {
                    break;
                }
            }
            let f = next.len() as u64;
            led.sym_alloc(f * WORDS_PER_NODE);
            self.sym_words += f * WORDS_PER_NODE;
            if hit.is_some() {
                return hit;
            }
            frontier.clear();
            frontier.extend(next.iter().map(|&(_, w)| w));
            led.op(f);
        }
        None
    }

    /// The canonical path `start → v` (inclusive of both endpoints),
    /// reconstructed from parent pointers into a reused buffer. `v` must be
    /// visited.
    pub fn path_from_start(&mut self, led: &mut Ledger, v: Vertex) -> &[Vertex] {
        let SearchScratch { info, path, .. } = &mut self.buf;
        path.clear();
        path.push(v);
        let mut cur = v;
        loop {
            let node = info[&cur];
            led.op(1);
            if node.parent == cur {
                break;
            }
            cur = node.parent;
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Release the symmetric memory this search charged; its buffers go
    /// back to the thread's pool.
    pub fn release(self, led: &mut Ledger) {
        led.sym_free(self.sym_words);
    }
}

/// Unit ops charged for sorting `f` keys: `f` times the bit length of `f`.
fn sort_cost(f: usize) -> u64 {
    let f = f as u64;
    f * (64 - f.leading_zeros() as u64)
}

/// The level-at-a-time reference the tests hold `advance_until` to:
/// `advance` reads every parent's adjacency, then sorts the whole level by
/// `(parent's rank, own priority)` and charges that one sort.
#[cfg(test)]
impl<G: GraphView> DetSearch<'_, G> {
    /// Current level's vertices in canonical rank order.
    pub(crate) fn frontier(&self) -> &[Vertex] {
        &self.buf.frontier
    }

    /// Expand the whole next level. Returns `false` when the component is
    /// exhausted (frontier became empty).
    pub(crate) fn advance(&mut self, led: &mut Ledger) -> bool {
        let SearchScratch {
            info,
            frontier,
            nbrs,
            ..
        } = &mut self.buf;
        // `(parent's rank, own priority rank, vertex)`, sorted level-wide.
        let mut next = Vec::new();
        let level = self.level + 1;
        for (rank, &v) in frontier.iter().enumerate() {
            nbrs.clear();
            self.g.neighbors_into(led, v, nbrs);
            for &w in nbrs.iter() {
                led.op(1);
                if let Entry::Vacant(e) = info.entry(w) {
                    e.insert(NodeInfo { parent: v, level });
                    next.push((rank as u32, self.pri.rank(w), w));
                }
            }
        }
        if next.is_empty() {
            frontier.clear();
            return false;
        }
        next.sort_unstable();
        let f = next.len();
        led.op(sort_cost(f));
        self.level = level;
        frontier.clear();
        frontier.extend(next.iter().map(|&(_, _, w)| w));
        led.op(f as u64);
        led.sym_alloc(f as u64 * WORDS_PER_NODE);
        self.sym_words += f as u64 * WORDS_PER_NODE;
        true
    }
}

impl<G: GraphView> Drop for DetSearch<'_, G> {
    fn drop(&mut self) {
        scratch::give(&POOL, std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centers::CenterSet;
    use wec_asym::scratch::{Recycle, SCRATCH_CAP};
    use wec_graph::gen::{cycle, gnm, grid, path};
    use wec_graph::Csr;

    /// The search order from `start`: every vertex, tested by a predicate
    /// that never passes.
    fn collect_order(g: &Csr, pri: &Priorities, start: Vertex) -> Vec<Vertex> {
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, g, pri, start);
        let mut order = Vec::new();
        let none = s.advance_until(&mut led, |_, u| {
            order.push(u);
            false
        });
        assert_eq!(none, None);
        s.release(&mut led);
        assert_eq!(led.sym_live(), 0);
        order
    }

    /// The same order from the level-at-a-time reference.
    fn reference_order(g: &Csr, pri: &Priorities, start: Vertex) -> Vec<Vertex> {
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, g, pri, start);
        let mut order = s.frontier().to_vec();
        while s.advance(&mut led) {
            order.extend_from_slice(s.frontier());
        }
        s.release(&mut led);
        order
    }

    /// Exhaust the component from `start` and return the search.
    fn exhaust<'a>(
        led: &mut Ledger,
        g: &'a Csr,
        pri: &'a Priorities,
        start: Vertex,
    ) -> DetSearch<'a, Csr> {
        let mut s = DetSearch::new(led, g, pri, start);
        assert_eq!(s.advance_until(led, |_, _| false), None);
        s
    }

    #[test]
    fn levels_are_bfs_distances() {
        let g = grid(5, 5);
        let pri = Priorities::identity(25);
        let mut led = Ledger::new(8);
        let s = exhaust(&mut led, &g, &pri, 0);
        let dist = wec_graph::props::bfs_distances(&g, 0);
        for v in 0..25u32 {
            assert_eq!(s.node(v).unwrap().level, dist[v as usize], "level of {v}");
        }
        s.release(&mut led);
    }

    #[test]
    fn priority_breaks_ties_within_level() {
        // Star-of-two: 0 adjacent to 1 and 2; identity priorities => 1 ranks
        // before 2.
        let g = Csr::from_edges(3, &[(0, 1), (0, 2)]);
        let pri = Priorities::identity(3);
        let order = collect_order(&g, &pri, 0);
        assert_eq!(order, vec![0, 1, 2]);
        // Reversed priorities flip the tie.
        let pri2 = Priorities::from_ranks(vec![0, 2, 1]);
        let order2 = collect_order(&g, &pri2, 0);
        assert_eq!(order2, vec![0, 2, 1]);
    }

    #[test]
    fn parent_rank_dominates_own_priority() {
        // 0 - 1, 0 - 2 ; 1 - 3, 2 - 4. With identity priorities, level-1
        // order is [1, 2]; level-2 order must be [3, 4] because 3's parent
        // (1) outranks 4's parent (2), regardless of 3/4's own priorities.
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        let pri = Priorities::from_ranks(vec![0, 1, 2, 4, 3]); // 4 beats 3
        let order = collect_order(&g, &pri, 0);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn canonical_parent_is_min_rank_neighbor() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. 3's parents could be 1 or 2; the
        // canonical parent is the one ranked first in level 1.
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        for (ranks, parent) in [(vec![0, 1, 2, 3], 1), (vec![0, 2, 1, 3], 2)] {
            let pri = Priorities::from_ranks(ranks);
            let mut led = Ledger::new(8);
            let mut s = DetSearch::new(&mut led, &g, &pri, 0);
            assert_eq!(s.advance_until(&mut led, |_, u| u == 3), Some(3));
            assert_eq!(s.node(3).unwrap().parent, parent);
            assert_eq!(s.path_from_start(&mut led, 3), vec![0, parent, 3]);
            s.release(&mut led);
        }
    }

    #[test]
    fn search_does_no_asymmetric_writes() {
        let g = grid(6, 6);
        let pri = Priorities::random(36, 1);
        let mut led = Ledger::new(8);
        let s = exhaust(&mut led, &g, &pri, 17);
        assert_eq!(led.costs().asym_writes, 0);
        assert!(led.sym_peak() >= 36 * WORDS_PER_NODE);
        s.release(&mut led);
    }

    #[test]
    fn block_order_matches_the_level_at_a_time_reference() {
        let graphs = [
            grid(9, 9),
            gnm(120, 400, 3),
            wec_graph::gen::bounded_degree_connected(150, 4, 30, 4),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let pri = Priorities::random(g.n(), i as u64);
            for start in [0, 40, g.n() as Vertex - 1] {
                assert_eq!(
                    collect_order(g, &pri, start),
                    reference_order(g, &pri, start),
                    "graph {i}, start {start}"
                );
            }
        }
    }

    #[test]
    fn advance_until_stops_at_the_first_pass() {
        let g = grid(9, 9);
        let pri = Priorities::random(81, 4);
        let want = collect_order(&g, &pri, 40);
        // A pass at the i-th vertex tests exactly the order's prefix, and
        // the canonical path to it is already recorded.
        for i in [0, 1, 5, 30, 80] {
            let mut led = Ledger::new(8);
            let mut s = DetSearch::new(&mut led, &g, &pri, 40);
            let mut tested = 0;
            let hit = s.advance_until(&mut led, |_, u| {
                tested += 1;
                u == want[i]
            });
            assert_eq!(hit, Some(want[i]));
            assert_eq!(tested, i + 1);
            let level = s.node(want[i]).unwrap().level;
            let path = s.path_from_start(&mut led, want[i]);
            assert_eq!(path.len() as u32, level + 1);
            s.release(&mut led);
            assert_eq!(led.sym_live(), 0);
        }
    }

    #[test]
    fn exhaustion_on_cycle() {
        let g = cycle(7);
        let pri = Priorities::identity(7);
        let order = collect_order(&g, &pri, 3);
        assert_eq!(order.len(), 7);
        assert_eq!(order[0], 3);
    }

    #[test]
    fn path_from_start_is_shortest() {
        let g = path(10);
        let pri = Priorities::identity(10);
        let mut led = Ledger::new(8);
        let mut s = exhaust(&mut led, &g, &pri, 0);
        assert_eq!(s.path_from_start(&mut led, 4), vec![0, 1, 2, 3, 4]);
        s.release(&mut led);
    }

    #[test]
    fn order_independent_of_start_time_of_centers() {
        // The search order must be a pure function of (graph, priorities):
        // the same from any fixed start regardless of external state.
        let g = grid(4, 4);
        let pri = Priorities::random(16, 9);
        let o1 = collect_order(&g, &pri, 5);
        let o2 = collect_order(&g, &pri, 5);
        assert_eq!(o1, o2);
    }

    #[test]
    fn live_searches_match_searches_run_one_after_the_other() {
        let g1 = grid(7, 9);
        let pri1 = Priorities::random(63, 5);
        let g2 = cycle(11);
        let pri2 = Priorities::random(11, 6);
        let want1 = collect_order(&g1, &pri1, 30);
        let want2 = collect_order(&g2, &pri2, 4);
        // Both searches hold pooled buffers at once: `b` runs to exhaustion
        // inside `a`'s predicate.
        let mut led = Ledger::new(8);
        let mut a = DetSearch::new(&mut led, &g1, &pri1, 30);
        let mut b = DetSearch::new(&mut led, &g2, &pri2, 4);
        let (mut got1, mut got2) = (Vec::new(), Vec::new());
        a.advance_until(&mut led, |l, u| {
            if got1.is_empty() {
                b.advance_until(l, |_, w| {
                    got2.push(w);
                    false
                });
            }
            got1.push(u);
            false
        });
        b.release(&mut led);
        a.release(&mut led);
        assert_eq!(led.sym_live(), 0);
        assert_eq!(got1, want1);
        assert_eq!(got2, want2);
        // The buffers the nested pair returned serve later searches too.
        assert_eq!(collect_order(&g2, &pri2, 4), want2);
        assert_eq!(collect_order(&g1, &pri1, 30), want1);
    }

    #[test]
    fn exhausting_a_huge_component_leaves_the_pool_capped() {
        let g = grid(128, 128);
        let pri = Priorities::random(128 * 128, 3);
        let mut led = Ledger::new(8);
        let none = CenterSet::new(&mut led, g.n());
        let a = crate::rho::rho(&mut led, &g, &pri, &none, 0);
        assert!(a.center.is_implicit());
        POOL.with(|p| {
            let p = p.borrow();
            assert!(!p.is_empty(), "the search returned its buffers");
            for b in p.iter() {
                let cap = b.largest_capacity();
                assert!(cap <= SCRATCH_CAP, "capacity {cap}");
            }
        });
    }
}
