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
//! Realization: process the search level by level. Within level `d+1`,
//! the canonical parent of `u` is its level-`d` neighbor whose own rank is
//! minimal, and vertices are ranked by `(parent's rank, own priority)`:
//! two canonical paths to different level-`(d+1)` vertices either diverge
//! before level `d` (compare parent ranks) or at level `d+1` itself
//! (same parent — compare own priorities).
//!
//! Everything lives in **symmetric memory** and is charged against the
//! ledger's high-water mark: the search performs no asymmetric writes,
//! which is the whole point. The memory itself is a reused per-worker
//! scratchpad (`scratch.rs`): a search takes a `SearchScratch`
//! (visited map, frontier, neighbor, next-level and path buffers) from its
//! thread's pool and hands it back when dropped, so a steady stream of
//! searches allocates nothing. The `sym_alloc`/`sym_free` charges follow
//! the model's words per visited vertex, not the allocator.

use crate::centers::{CenterLabel, CenterLookup};
use crate::scratch::{self, Pool, Recycle};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
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
    /// The next level keyed for the canonical sort:
    /// `(parent's rank, own priority rank, vertex)`.
    next: Vec<(u32, u32, Vertex)>,
    /// The last path reconstructed by `path_from_start`.
    path: Vec<Vertex>,
}

impl Recycle for SearchScratch {
    fn clear_capped(&mut self) {
        self.info.clear_capped();
        self.frontier.clear_capped();
        self.nbrs.clear_capped();
        self.next.clear_capped();
        self.path.clear_capped();
    }
}

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

    /// Current level's vertices in canonical rank order.
    pub fn frontier(&self) -> &[Vertex] {
        &self.buf.frontier
    }

    /// Current level number.
    pub fn level(&self) -> u32 {
        self.level
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

    /// Expand to the next level. Returns `false` when the component is
    /// exhausted (frontier became empty).
    pub fn advance(&mut self, led: &mut Ledger) -> bool {
        let SearchScratch {
            info,
            frontier,
            nbrs,
            next,
            ..
        } = &mut self.buf;
        // Scan the frontier in rank order. The first time an unvisited
        // neighbor is seen its parent has minimal rank — the canonical
        // parent — and recording it right away makes later sightings in
        // this level skip it.
        next.clear();
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
        // Canonical order within the new level.
        next.sort_unstable();
        let f = next.len() as u64;
        led.op(f * (64 - f.leading_zeros() as u64).max(1)); // sort cost
        self.level = level;
        frontier.clear();
        frontier.extend(next.iter().map(|&(_, _, w)| w));
        led.op(f);
        led.sym_alloc(f * WORDS_PER_NODE);
        self.sym_words += f * WORDS_PER_NODE;
        true
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

    /// Scan the current frontier in canonical order for the first center
    /// with the given label, charging lookups.
    pub fn first_in_frontier(
        &self,
        led: &mut Ledger,
        centers: &impl CenterLookup,
        want: CenterLabel,
    ) -> Option<Vertex> {
        self.buf
            .frontier
            .iter()
            .copied()
            .find(|&u| centers.lookup(led, u) == Some(want))
    }

    /// Release the symmetric memory this search charged; its buffers go
    /// back to the thread's pool.
    pub fn release(self, led: &mut Ledger) {
        led.sym_free(self.sym_words);
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
    use crate::scratch::SCRATCH_CAP;
    use wec_graph::gen::{cycle, grid, path};
    use wec_graph::Csr;

    fn collect_order(g: &Csr, pri: &Priorities, start: Vertex) -> Vec<Vertex> {
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, g, pri, start);
        let mut order = s.frontier().to_vec();
        while s.advance(&mut led) {
            order.extend_from_slice(s.frontier());
        }
        s.release(&mut led);
        assert_eq!(led.sym_live(), 0);
        order
    }

    #[test]
    fn levels_are_bfs_distances() {
        let g = grid(5, 5);
        let pri = Priorities::identity(25);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        while s.advance(&mut led) {}
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
        let pri = Priorities::identity(4);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        s.advance(&mut led);
        s.advance(&mut led);
        assert_eq!(s.node(3).unwrap().parent, 1);
        let path = s.path_from_start(&mut led, 3);
        assert_eq!(path, vec![0, 1, 3]);
        s.release(&mut led);
        // flip priorities of 1 and 2
        let pri2 = Priorities::from_ranks(vec![0, 2, 1, 3]);
        let mut led2 = Ledger::new(8);
        let mut s2 = DetSearch::new(&mut led2, &g, &pri2, 0);
        s2.advance(&mut led2);
        s2.advance(&mut led2);
        assert_eq!(s2.node(3).unwrap().parent, 2);
        s2.release(&mut led2);
    }

    #[test]
    fn search_does_no_asymmetric_writes() {
        let g = grid(6, 6);
        let pri = Priorities::random(36, 1);
        let mut led = Ledger::new(8);
        let mut s = DetSearch::new(&mut led, &g, &pri, 17);
        while s.advance(&mut led) {}
        assert_eq!(led.costs().asym_writes, 0);
        assert!(led.sym_peak() >= 36 * WORDS_PER_NODE);
        s.release(&mut led);
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
        let mut s = DetSearch::new(&mut led, &g, &pri, 0);
        while s.advance(&mut led) {}
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
        // Both searches hold pooled buffers at once and advance in turn.
        let mut led = Ledger::new(8);
        let mut a = DetSearch::new(&mut led, &g1, &pri1, 30);
        let mut b = DetSearch::new(&mut led, &g2, &pri2, 4);
        let (mut got1, mut got2) = (a.frontier().to_vec(), b.frontier().to_vec());
        let (mut live_a, mut live_b) = (true, true);
        while live_a || live_b {
            if live_a && a.advance(&mut led) {
                got1.extend_from_slice(a.frontier());
            } else {
                live_a = false;
            }
            if live_b && b.advance(&mut led) {
                got2.extend_from_slice(b.frontier());
            } else {
                live_b = false;
            }
        }
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
                assert!(
                    b.info.capacity() <= SCRATCH_CAP,
                    "info {}",
                    b.info.capacity()
                );
                for cap in [
                    b.frontier.capacity(),
                    b.nbrs.capacity(),
                    b.next.capacity(),
                    b.path.capacity(),
                ] {
                    assert!(cap <= SCRATCH_CAP, "capacity {cap}");
                }
            }
        });
    }
}
