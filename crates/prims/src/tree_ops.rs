//! Leaffix tree computations over preorder numberings.
//!
//! "Leaffix" in the paper (footnote 4): an aggregate computed from the
//! leaves toward the root. It is realized as a children-first fold in
//! reverse preorder. Every vertex comes after all of its descendants in
//! that order, so when the sweep reaches `v` each child's aggregate is
//! final, and `v`'s slot is written once as `combine(init[v], agg[c₁],
//! agg[c₂], …)` over its children in `children` order. No slot is filled
//! first and overwritten later.

use crate::euler::{EulerTour, RootedForest};
use wec_asym::Ledger;

/// Leaffix: `agg[v] = combine over subtree(v) of init`, folded children
/// first, so `combine` must be associative and commutative (min, max, +).
/// Out-of-forest slots get `init`. Charges one write per slot, one read
/// per slot and one read per non-root in-forest vertex.
///
/// The output starts as `T::default()` (a zeroed allocation for the integer
/// aggregates used here), and every slot is then written once.
pub fn leaffix<T: Copy + Default>(
    led: &mut Ledger,
    forest: &RootedForest,
    tour: &EulerTour,
    init: &[T],
    combine: impl Fn(T, T) -> T,
) -> Vec<T> {
    let n = init.len();
    assert_eq!(n, forest.n());
    let mut agg = vec![T::default(); n];
    for &v in tour.order.iter().rev() {
        let kids = forest.children(v);
        led.read(1 + kids.len() as u64);
        agg[v as usize] = kids
            .iter()
            .fold(init[v as usize], |a, &c| combine(a, agg[c as usize]));
    }
    let mut outside = 0u64;
    for v in 0..n as u32 {
        if !forest.in_forest(v) {
            agg[v as usize] = init[v as usize];
            outside += 1;
        }
    }
    led.read(outside);
    led.write(n as u64);
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    ///        0
    ///      / | \
    ///     1  2  3
    ///    / \     \
    ///   4   5     6
    fn tree() -> (RootedForest, EulerTour, Ledger) {
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, vec![0, 0, 0, 0, 1, 1, 3]);
        let t = EulerTour::new(&mut led, &f);
        (f, t, led)
    }

    #[test]
    fn leaffix_min_is_subtree_min() {
        let (f, t, mut led) = tree();
        let w = vec![9u32, 5, 7, 4, 1, 6, 2];
        let low = leaffix(&mut led, &f, &t, &w, |a, b| a.min(b));
        assert_eq!(low[0], 1); // whole tree
        assert_eq!(low[1], 1); // subtree {1,4,5}
        assert_eq!(low[3], 2); // subtree {3,6}
        assert_eq!(low[4], 1);
        assert_eq!(low[2], 7);
    }

    #[test]
    fn leaffix_sum_counts_subtree() {
        let (f, t, mut led) = tree();
        let ones = vec![1u32; 7];
        let cnt = leaffix(&mut led, &f, &t, &ones, |a, b| a + b);
        assert_eq!(cnt[0], 7);
        assert_eq!(cnt[1], 3);
        assert_eq!(cnt[6], 1);
    }

    /// Subtree fold by brute force: `init[v]` combined with `init[u]` for
    /// every `u` whose parent chain passes through `v`.
    fn naive<T: Copy>(f: &RootedForest, init: &[T], combine: impl Fn(T, T) -> T) -> Vec<T> {
        let below = |mut u: u32, v: u32| loop {
            if u == v {
                return true;
            }
            if f.is_root(u) {
                return false;
            }
            u = f.parent(u);
        };
        (0..f.n() as u32)
            .map(|v| {
                let mut acc = init[v as usize];
                if f.in_forest(v) {
                    for u in (0..f.n() as u32).filter(|&u| u != v && f.in_forest(u)) {
                        if below(u, v) {
                            acc = combine(acc, init[u as usize]);
                        }
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn leaffix_multi_root_forest_with_outside_slots() {
        use crate::bfs::UNREACHED;
        // Trees rooted at 5 {5, 7, 6, 2} and 8 {8, 0, 4, 1}; slots 3 and 9
        // lie outside the forest.
        //      5         8
        //     / \       / \
        //    2   7     0   4
        //        |         |
        //        6         1
        let parent = vec![8, 4, 5, UNREACHED, 8, 5, 7, 5, 8, UNREACHED];
        let mut led = Ledger::new(8);
        let f = RootedForest::from_parents(&mut led, parent);
        let t = EulerTour::new(&mut led, &f);
        assert_eq!(f.roots(), &[5, 8]);
        let n = f.n() as u64;
        let non_roots = (t.len() - f.roots().len()) as u64;
        let w = vec![9u32, 5, 7, 4, 11, 6, 2, 8, 3, 1];
        let min = |a: u32, b: u32| a.min(b);
        let sum = |a: u32, b: u32| a + b;
        for (name, combine) in [("min", &min as &dyn Fn(u32, u32) -> u32), ("sum", &sum)] {
            let before = led.costs();
            let agg = leaffix(&mut led, &f, &t, &w, combine);
            let spent = led.costs().since(&before);
            assert_eq!(agg, naive(&f, &w, combine), "{name}");
            assert_eq!(spent.asym_writes, n, "{name}: one write per slot");
            assert_eq!(spent.asym_reads, n + non_roots, "{name}: reads");
        }
        // Outside slots carry `init` through untouched.
        let agg = leaffix(&mut led, &f, &t, &w, sum);
        assert_eq!((agg[3], agg[9]), (4, 1));
        assert_eq!((agg[5], agg[8]), (6 + 7 + 8 + 2, 3 + 9 + 11 + 5));
    }
}
