//! Leaffix tree computations over preorder numberings.
//!
//! "Leaffix" in the paper (footnote 4): an aggregate computed from the
//! leaves toward the root — here realized as a reverse-preorder sweep, which
//! touches each vertex once (O(n) reads/writes).

use crate::euler::{EulerTour, RootedForest};
use wec_asym::Ledger;

/// Leaffix: combine `init[v]` with the aggregates of `v`'s children, bottom
/// up. Returns `agg` with `agg[v] = combine over subtree(v) of init`.
/// Out-of-forest slots keep `init` untouched.
pub fn leaffix<T: Copy>(
    led: &mut Ledger,
    forest: &RootedForest,
    tour: &EulerTour,
    init: &[T],
    combine: impl Fn(T, T) -> T,
) -> Vec<T> {
    assert_eq!(init.len(), forest.n());
    let mut agg = init.to_vec();
    led.read(init.len() as u64);
    led.write(init.len() as u64);
    for &v in tour.order.iter().rev() {
        if !forest.is_root(v) {
            let p = forest.parent(v);
            led.read(2);
            led.write(1);
            agg[p as usize] = combine(agg[p as usize], agg[v as usize]);
        }
    }
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
}
