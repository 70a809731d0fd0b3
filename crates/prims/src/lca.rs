//! O(1)-query LCA over a rooted forest's preorder, with O(n)-word
//! preprocessing, plus the "child of `c` toward descendant `d`" query the
//! §5.3 local graphs need.
//!
//! For `pre[u] < pre[v]` with `u` not an ancestor of `v`, every position in
//! `(pre[u], pre[v]]` is a strict descendant of `w = lca(u, v)`, and the
//! child of `w` toward `v` lies in that range; so the minimum-depth vertices
//! of the range are children of `w`, and the answer is their parent. The
//! range minimum runs over keys `(depth, parent)` packed into one word:
//! the minimum key's low half is the answer, with no position to dereference.
//!
//! The index stores, over blocks of `B = ⌈log₂ n⌉` preorder positions, an
//! in-block prefix minimum and suffix minimum per position (2n words) and a
//! sparse table over the block minima only ((n/B)·log(n/B) words), so
//! preprocessing is O(n) words — the bound of the linear-preprocessing LCA
//! structures the paper cites [11, 42]. A query that spans blocks reads one
//! suffix entry, one prefix entry and at most two table entries; a query
//! inside one block scans at most `B` positions. The forest and its tour
//! are borrowed at query time, not copied: the index holds only the range-
//! minimum arrays.

use crate::bfs::UNREACHED;
use crate::euler::{EulerTour, RootedForest};
use wec_asym::Ledger;
use wec_graph::Vertex;

/// Range-minimum index answering LCA queries over a [`RootedForest`] and
/// its [`EulerTour`]; every query borrows the same forest and tour the
/// index was built from.
#[derive(Debug, Clone)]
pub struct LcaIndex {
    /// Block width `B = ⌈log₂ n⌉` (at least 1), in preorder positions.
    block: usize,
    /// `prefix[i]`: minimum key over positions from `i`'s block start to `i`.
    prefix: Vec<u64>,
    /// `suffix[i]`: minimum key over positions from `i` to its block end.
    suffix: Vec<u64>,
    /// `table[j][b]`: minimum key over blocks `b .. b + 2^j`.
    table: Vec<Vec<u64>>,
}

/// Range-minimum key of in-forest vertex `x`: depth in the high half, parent
/// in the low half. Charged as 3 reads (`order` slot, depth, parent) by the
/// callers, which read `x` from the preorder sequence.
#[inline]
fn key(forest: &RootedForest, tour: &EulerTour, x: Vertex) -> u64 {
    (tour.depth[x as usize] as u64) << 32 | forest.parent(x) as u64
}

impl LcaIndex {
    /// Build from a forest and its tour. Charges 3 reads per position for
    /// its key, 2 writes per position (prefix and suffix minima), and the
    /// block-minimum sparse table: at most `2n + (n/B)·(log₂(n/B) + 1)`
    /// writes.
    pub fn new(led: &mut Ledger, forest: &RootedForest, tour: &EulerTour) -> Self {
        let n = tour.len();
        let block = (n.next_power_of_two().ilog2() as usize).max(1);
        let mut prefix = Vec::with_capacity(n);
        let mut suffix = vec![0u64; n];
        let mut mins = Vec::with_capacity(n.div_ceil(block));
        let mut keys = Vec::with_capacity(block);
        for (b, chunk) in tour.order.chunks(block).enumerate() {
            keys.clear();
            keys.extend(chunk.iter().map(|&x| key(forest, tour, x)));
            led.read(3 * chunk.len() as u64);
            let mut run = u64::MAX;
            prefix.extend(keys.iter().map(|&k| {
                run = run.min(k);
                run
            }));
            let mut run = u64::MAX;
            for (slot, &k) in suffix[b * block..].iter_mut().zip(&keys).rev() {
                run = run.min(k);
                *slot = run;
            }
            mins.push(run);
            led.write(2 * chunk.len() as u64 + 1);
        }
        let mut table = vec![mins];
        let mut width = 1;
        while 2 * width <= table[0].len() {
            let prev = table.last().expect("level 0 is present");
            let row: Vec<u64> = (0..prev.len() - width)
                .map(|b| prev[b].min(prev[b + width]))
                .collect();
            led.read(2 * row.len() as u64);
            led.write(row.len() as u64);
            table.push(row);
            width *= 2;
        }
        LcaIndex {
            block,
            prefix,
            suffix,
            table,
        }
    }

    /// Words of storage the index holds.
    pub fn words(&self) -> usize {
        self.prefix.len() + self.suffix.len() + self.table.iter().map(Vec::len).sum::<usize>()
    }

    /// LCA of `u` and `v` (`None` if either is outside the forest or they
    /// are in different trees). O(1) reads across blocks, at most `3B`
    /// inside one block; charged as read.
    pub fn lca(
        &self,
        led: &mut Ledger,
        forest: &RootedForest,
        tour: &EulerTour,
        u: Vertex,
        v: Vertex,
    ) -> Option<Vertex> {
        led.read(2);
        let (pu, pv) = (tour.pre[u as usize], tour.pre[v as usize]);
        if pu == UNREACHED || pv == UNREACHED {
            return None;
        }
        let (a, lo, hi) = if pu <= pv { (u, pu, pv) } else { (v, pv, pu) };
        led.read(1);
        if hi < lo + tour.size[a as usize] {
            return Some(a);
        }
        let cand = self.range_min(led, forest, tour, lo as usize + 1, hi as usize) as Vertex;
        // Different trees: the range holds a later tree's root, whose
        // "parent" is itself and an ancestor of neither endpoint.
        led.read(2);
        (tour.is_ancestor(cand, u) && tour.is_ancestor(cand, v)).then_some(cand)
    }

    /// Minimum key over preorder positions `l..=r`.
    fn range_min(
        &self,
        led: &mut Ledger,
        forest: &RootedForest,
        tour: &EulerTour,
        l: usize,
        r: usize,
    ) -> u64 {
        let (bl, br) = (l / self.block, r / self.block);
        if bl == br {
            led.read(3 * (r - l + 1) as u64);
            return tour.order[l..=r]
                .iter()
                .map(|&x| key(forest, tour, x))
                .min()
                .expect("a non-empty range");
        }
        led.read(2);
        let mut m = self.suffix[l].min(self.prefix[r]);
        if br > bl + 1 {
            let (lo, hi) = (bl + 1, br - 1);
            let j = (hi - lo + 1).ilog2() as usize;
            let far = hi + 1 - (1 << j);
            led.read(1 + u64::from(far != lo));
            m = m.min(self.table[j][lo]).min(self.table[j][far]);
        }
        m
    }
}

/// The child of `c` whose subtree contains the strict descendant `d`.
/// `O(log deg(c))` via binary search over `c`'s children, which
/// [`EulerTour::new`] numbers in list order — the "constant cost after
/// Euler-tour preprocessing" routing step of Definition 4(3).
pub fn child_toward(
    led: &mut Ledger,
    forest: &RootedForest,
    tour: &EulerTour,
    c: Vertex,
    d: Vertex,
) -> Option<Vertex> {
    if c == d || !tour.is_ancestor(c, d) {
        return None;
    }
    let kids = forest.children(c);
    debug_assert!(
        kids.windows(2)
            .all(|w| tour.pre[w[0] as usize] < tour.pre[w[1] as usize]),
        "children of {c} are not in preorder"
    );
    led.read((usize::BITS - kids.len().leading_zeros()) as u64 + 1);
    let dp = tour.pre[d as usize];
    let i = kids.partition_point(|&k| tour.pre[k as usize] <= dp);
    let k = kids[i - 1];
    debug_assert!(tour.is_ancestor(k, d));
    Some(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A forest, its tour and its index, built on one ledger.
    struct Fixture {
        parent: Vec<Vertex>,
        forest: RootedForest,
        tour: EulerTour,
        idx: LcaIndex,
        led: Ledger,
    }

    impl Fixture {
        fn new(parent: Vec<Vertex>) -> Self {
            let mut led = Ledger::new(8);
            let forest = RootedForest::from_parents(&mut led, parent.clone());
            let tour = EulerTour::new(&mut led, &forest);
            let idx = LcaIndex::new(&mut led, &forest, &tour);
            Fixture {
                parent,
                forest,
                tour,
                idx,
                led,
            }
        }

        fn lca(&mut self, u: Vertex, v: Vertex) -> Option<Vertex> {
            self.idx.lca(&mut self.led, &self.forest, &self.tour, u, v)
        }

        fn child_toward(&mut self, c: Vertex, d: Vertex) -> Option<Vertex> {
            child_toward(&mut self.led, &self.forest, &self.tour, c, d)
        }

        /// LCA by marking `u`'s ancestors and walking up from `v`.
        fn brute(&self, mut u: Vertex, mut v: Vertex) -> Option<Vertex> {
            let mut marked = vec![false; self.parent.len()];
            loop {
                marked[u as usize] = true;
                if self.parent[u as usize] == u {
                    break;
                }
                u = self.parent[u as usize];
            }
            loop {
                if marked[v as usize] {
                    return Some(v);
                }
                if self.parent[v as usize] == v {
                    return None;
                }
                v = self.parent[v as usize];
            }
        }

        /// Check every ordered pair against brute force; returns how many
        /// pairs fell in the same block, adjacent blocks and farther apart.
        fn check_all_pairs(&mut self) -> [usize; 3] {
            let n = self.parent.len() as u32;
            let mut spans = [0usize; 3];
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(self.lca(u, v), self.brute(u, v), "lca({u},{v}) n={n}");
                    let gap = (self.tour.pre[u as usize] as usize / self.idx.block)
                        .abs_diff(self.tour.pre[v as usize] as usize / self.idx.block);
                    spans[gap.min(2)] += 1;
                }
            }
            spans
        }
    }

    /// Parent array of a random forest on `n` vertices: each vertex joins
    /// a random earlier vertex, or starts a new tree with probability
    /// `1/roots_every`.
    fn random_forest(n: usize, roots_every: u32, seed: u64) -> Vec<Vertex> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u32)
            .map(|v| {
                if v == 0 || rng.gen_range(0..roots_every) == 0 {
                    v
                } else {
                    rng.gen_range(0..v)
                }
            })
            .collect()
    }

    ///        0
    ///      / | \
    ///     1  2  3
    ///    / \     \
    ///   4   5     6
    ///   |
    ///   7
    fn small() -> Fixture {
        Fixture::new(vec![0, 0, 0, 0, 1, 1, 3, 4])
    }

    #[test]
    fn lca_pairs() {
        let mut f = small();
        assert_eq!(f.lca(4, 5), Some(1));
        assert_eq!(f.lca(7, 5), Some(1));
        assert_eq!(f.lca(7, 6), Some(0));
        assert_eq!(f.lca(2, 2), Some(2));
        assert_eq!(f.lca(1, 7), Some(1)); // ancestor case
    }

    #[test]
    fn lca_across_trees_is_none() {
        let mut f = Fixture::new(vec![0, 0, 2, 2]);
        assert_eq!(f.lca(1, 3), None);
        assert_eq!(f.lca(0, 1), Some(0));
    }

    #[test]
    fn lca_outside_the_forest_is_none() {
        let mut f = Fixture::new(vec![0, 0, UNREACHED, 1]);
        assert_eq!(f.lca(2, 3), None);
        assert_eq!(f.lca(3, 2), None);
        assert_eq!(f.lca(3, 1), Some(1));
    }

    #[test]
    fn child_toward_routes_correctly() {
        let mut f = small();
        assert_eq!(f.child_toward(0, 7), Some(1));
        assert_eq!(f.child_toward(0, 6), Some(3));
        assert_eq!(f.child_toward(1, 7), Some(4));
        assert_eq!(f.child_toward(0, 0), None);
        assert_eq!(f.child_toward(3, 5), None); // not a descendant
    }

    #[test]
    fn lca_against_brute_force_on_random_tree() {
        let mut f = Fixture::new(random_forest(200, u32::MAX, 99));
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..300 {
            let u = rng.gen_range(0..200u32);
            let v = rng.gen_range(0..200u32);
            assert_eq!(f.lca(u, v), f.brute(u, v), "lca({u},{v})");
        }
    }

    #[test]
    fn every_size_up_to_70_crosses_every_block_boundary() {
        let mut seen = [0usize; 3];
        for n in 1..=70usize {
            for (seed, roots_every) in [(n as u64, u32::MAX), (1000 + n as u64, 5)] {
                let spans = Fixture::new(random_forest(n, roots_every, seed)).check_all_pairs();
                for (s, c) in seen.iter_mut().zip(spans) {
                    *s += c;
                }
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "spans exercised: {seen:?}");
    }

    #[test]
    fn multi_root_forests_match_brute_force() {
        for seed in 0..4 {
            let spans = Fixture::new(random_forest(150, 8, seed)).check_all_pairs();
            assert!(spans.iter().all(|&c| c > 0), "spans exercised: {spans:?}");
        }
    }

    #[test]
    fn path_queries_cross_many_blocks() {
        let n = 300u32;
        let mut f = Fixture::new((0..n).map(|v| v.saturating_sub(1)).collect());
        // On a path every pair is ancestor-related: the lower id wins.
        for u in (0..n).step_by(7) {
            for v in 0..n {
                assert_eq!(f.lca(u, v), Some(u.min(v)));
            }
        }
        // A path hanging off a second root keeps the range walk honest.
        let mut parent: Vec<Vertex> = (0..n).map(|v| v.saturating_sub(1)).collect();
        parent.extend((n..n + 90).map(|v| if v == n { v } else { v - 1 }));
        parent.push(n + 40);
        let mut f = Fixture::new(parent);
        let spans = f.check_all_pairs();
        assert!(spans.iter().all(|&c| c > 0), "spans exercised: {spans:?}");
    }

    #[test]
    fn star_leaves_meet_at_the_center() {
        let n = 257u32;
        let mut f = Fixture::new(vec![0; n as usize]);
        for u in 1..n {
            for v in (1..n).step_by(11) {
                let want = if u == v { u } else { 0 };
                assert_eq!(f.lca(u, v), Some(want), "lca({u},{v})");
            }
        }
        assert_eq!(f.child_toward(0, 200), Some(200));
    }

    #[test]
    fn single_vertex_forest() {
        let mut f = Fixture::new(vec![0]);
        assert_eq!(f.lca(0, 0), Some(0));
    }

    #[test]
    fn build_writes_are_linear() {
        let n = 1usize << 14;
        let parent = random_forest(n, u32::MAX, 14);
        let mut led = Ledger::new(8);
        let forest = RootedForest::from_parents(&mut led, parent);
        let tour = EulerTour::new(&mut led, &forest);
        let w0 = led.costs().asym_writes;
        let idx = LcaIndex::new(&mut led, &forest, &tour);
        let w = led.costs().asym_writes - w0;
        assert!(w <= 3 * n as u64 + 64, "LcaIndex::new wrote {w} > 3n + 64");
        assert_eq!(idx.words() as u64, w, "one write per stored word");
    }
}
