//! O(1)-query LCA via Euler tour + sparse table, plus the
//! "child of `c` toward descendant `d`" query the §5.3 local graphs need.
//!
//! Substitution note: the paper cites O(n)-word LCA
//! preprocessing [11, 42]; we use the textbook sparse table, which costs
//! `O(n log n)` words of preprocessing but keeps the O(1) query. The oracle
//! only builds this on the *clusters graph* (`O(n/k)` vertices), so the
//! extra log factor never touches a headline bound.

use crate::euler::{EulerTour, RootedForest};
use wec_asym::Ledger;
use wec_graph::Vertex;

/// LCA index over a rooted forest.
#[derive(Debug, Clone)]
pub struct LcaIndex {
    /// Euler walk (with revisits), as (depth, vertex).
    walk: Vec<(u32, Vertex)>,
    /// First occurrence of each vertex in the walk (`u32::MAX` if absent).
    first_occ: Vec<u32>,
    /// Sparse table: `table[j][i]` = index of min-depth entry in
    /// `walk[i .. i + 2^j]`.
    table: Vec<Vec<u32>>,
    /// Children of each vertex sorted by preorder, for `child_toward`.
    kids_by_pre: Vec<Vec<Vertex>>,
    pre: Vec<u32>,
    size: Vec<u32>,
}

impl LcaIndex {
    /// Build from a forest and its tour. Charges the Euler walk (O(n)
    /// writes) and the sparse table (O(n log n) writes).
    pub fn new(led: &mut Ledger, forest: &RootedForest, tour: &EulerTour) -> Self {
        let n = forest.n();
        let mut walk: Vec<(u32, Vertex)> = Vec::with_capacity(2 * n);
        let mut first_occ = vec![u32::MAX; n];
        // Iterative Euler walk with revisits on return edges.
        for &r in forest.roots() {
            let mut stack: Vec<(Vertex, usize)> = vec![(r, 0)];
            first_occ[r as usize] = walk.len() as u32;
            walk.push((0, r));
            led.write(2);
            while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
                let kids = forest.children(v);
                led.read(1);
                if *ci < kids.len() {
                    let c = kids[*ci];
                    *ci += 1;
                    first_occ[c as usize] = walk.len() as u32;
                    walk.push((tour.depth[c as usize], c));
                    led.write(2);
                    stack.push((c, 0));
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        walk.push((tour.depth[p as usize], p));
                        led.write(1);
                    }
                }
            }
        }
        // Sparse table of argmin depth.
        let m = walk.len();
        let levels = if m <= 1 {
            1
        } else {
            (usize::BITS - (m - 1).leading_zeros()) as usize + 1
        };
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        table.push((0..m as u32).collect());
        led.write(m as u64);
        for j in 1..levels {
            let half = 1usize << (j - 1);
            let prev = &table[j - 1];
            let width = m.saturating_sub((1 << j) - 1);
            let mut row = Vec::with_capacity(width);
            for i in 0..width {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if walk[a as usize].0 <= walk[b as usize].0 {
                    a
                } else {
                    b
                });
            }
            led.read(2 * width as u64);
            led.write(width as u64);
            table.push(row);
        }
        // Children sorted by preorder for descendant routing.
        let mut kids_by_pre: Vec<Vec<Vertex>> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut ks = forest.children(v).to_vec();
            ks.sort_unstable_by_key(|&c| tour.pre[c as usize]);
            led.op(ks.len() as u64 + 1);
            kids_by_pre.push(ks);
        }
        LcaIndex {
            walk,
            first_occ,
            table,
            kids_by_pre,
            pre: tour.pre.clone(),
            size: tour.size.clone(),
        }
    }

    /// LCA of `u` and `v` (`None` if either is outside the forest or they
    /// are in different trees). O(1) operations, charged as 4 reads.
    pub fn lca(&self, led: &mut Ledger, u: Vertex, v: Vertex) -> Option<Vertex> {
        led.read(4);
        let (fu, fv) = (self.first_occ[u as usize], self.first_occ[v as usize]);
        if fu == u32::MAX || fv == u32::MAX {
            return None;
        }
        let (lo, hi) = (fu.min(fv) as usize, fu.max(fv) as usize);
        let len = hi - lo + 1;
        let j = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let a = self.table[j][lo];
        let b = self.table[j][hi + 1 - (1 << j)];
        let best = if self.walk[a as usize].0 <= self.walk[b as usize].0 {
            a
        } else {
            b
        };
        let cand = self.walk[best as usize].1;
        // Different trees: candidate must actually be an ancestor of both.
        (self.is_ancestor(cand, u) && self.is_ancestor(cand, v)).then_some(cand)
    }

    /// Whether `anc`'s subtree contains `v` (reflexive).
    #[inline]
    pub fn is_ancestor(&self, anc: Vertex, v: Vertex) -> bool {
        let (p, q) = (self.pre[anc as usize], self.pre[v as usize]);
        p != u32::MAX && q != u32::MAX && p <= q && q < p + self.size[anc as usize]
    }

    /// The child of `c` whose subtree contains the strict descendant `d`.
    /// `O(log deg(c))` via binary search over preorder-sorted children —
    /// the "constant cost after Euler-tour preprocessing" routing step of
    /// Definition 4(3).
    pub fn child_toward(&self, led: &mut Ledger, c: Vertex, d: Vertex) -> Option<Vertex> {
        if c == d || !self.is_ancestor(c, d) {
            return None;
        }
        let kids = &self.kids_by_pre[c as usize];
        led.read((usize::BITS - kids.len().leading_zeros()) as u64 + 1);
        let dp = self.pre[d as usize];
        let i = kids.partition_point(|&k| self.pre[k as usize] <= dp);
        let k = kids[i - 1];
        debug_assert!(self.is_ancestor(k, d));
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::EulerTour;

    ///        0
    ///      / | \
    ///     1  2  3
    ///    / \     \
    ///   4   5     6
    ///   |
    ///   7
    fn build() -> (RootedForest, EulerTour, LcaIndex, Ledger) {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, vec![0, 0, 0, 0, 1, 1, 3, 4]);
        let t = EulerTour::new(&mut led, &f);
        let idx = LcaIndex::new(&mut led, &f, &t);
        (f, t, idx, led)
    }

    #[test]
    fn lca_pairs() {
        let (_f, _t, idx, mut led) = build();
        assert_eq!(idx.lca(&mut led, 4, 5), Some(1));
        assert_eq!(idx.lca(&mut led, 7, 5), Some(1));
        assert_eq!(idx.lca(&mut led, 7, 6), Some(0));
        assert_eq!(idx.lca(&mut led, 2, 2), Some(2));
        assert_eq!(idx.lca(&mut led, 1, 7), Some(1)); // ancestor case
    }

    #[test]
    fn lca_across_trees_is_none() {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, vec![0, 0, 2, 2]);
        let t = EulerTour::new(&mut led, &f);
        let idx = LcaIndex::new(&mut led, &f, &t);
        assert_eq!(idx.lca(&mut led, 1, 3), None);
        assert_eq!(idx.lca(&mut led, 0, 1), Some(0));
    }

    #[test]
    fn child_toward_routes_correctly() {
        let (_f, _t, idx, mut led) = build();
        assert_eq!(idx.child_toward(&mut led, 0, 7), Some(1));
        assert_eq!(idx.child_toward(&mut led, 0, 6), Some(3));
        assert_eq!(idx.child_toward(&mut led, 1, 7), Some(4));
        assert_eq!(idx.child_toward(&mut led, 0, 0), None);
        assert_eq!(idx.child_toward(&mut led, 3, 5), None); // not a descendant
    }

    #[test]
    fn lca_against_brute_force_on_random_tree() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let n = 200usize;
        let mut rng = SmallRng::seed_from_u64(99);
        let mut parent = vec![0u32; n];
        for (v, slot) in parent.iter_mut().enumerate().skip(1) {
            *slot = rng.gen_range(0..v) as u32;
        }
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, parent.clone());
        let t = EulerTour::new(&mut led, &f);
        let idx = LcaIndex::new(&mut led, &f, &t);
        let ancestors = |mut v: u32| {
            let mut set = vec![v];
            while parent[v as usize] != v {
                v = parent[v as usize];
                set.push(v);
            }
            set
        };
        for _ in 0..300 {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            let au = ancestors(u);
            let expect = ancestors(v).into_iter().find(|a| au.contains(a));
            assert_eq!(idx.lca(&mut led, u, v), expect, "lca({u},{v})");
        }
    }

    #[test]
    fn single_vertex_forest() {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, vec![0]);
        let t = EulerTour::new(&mut led, &f);
        let idx = LcaIndex::new(&mut led, &f, &t);
        assert_eq!(idx.lca(&mut led, 0, 0), Some(0));
    }
}
