//! Write-efficient filter ("ordered filter" / pack of Ben-David et al.).
//!
//! The crucial property: the number of asymmetric-memory **writes** is
//! proportional to the *output* size plus one write per block, not to the
//! input size. Reads remain linear in the input. This is what makes
//! `O(n + βm)` write bounds possible when only `βm` elements survive.
//!
//! The production passes (§4.2 step 3, the star build) use the fused
//! [`flat_collect`](crate::fused::flat_collect) instead — one predicate
//! pass, writes only for the survivors, no block-offset writes. This
//! two-pass materialized pack is the reference the tests compare the
//! fused pass against.

use crate::scan::block_offsets;
use wec_asym::Ledger;

/// Default block size for the two-pass filter. This is the **accounting**
/// block (it sets the per-block write charge and the split-tree
/// bookkeeping); `scoped_par` batches blocks per task by the pool's thread
/// count, so a large input does not fork one closure per 1024 elements.
pub const FILTER_BLOCK: usize = 1024;

/// Write-efficient filter-map: collect `f(i)` for `i ∈ 0..n` where `f`
/// returns `Some`, in index order. `f` must be deterministic. Charges:
/// `f`'s own costs twice (count + emit pass — the emit pass is skipped
/// entirely when nothing survived), one write per emitted element, one
/// write per block (the block offsets).
pub fn filter_map_collect<T: Send + Copy>(
    led: &mut Ledger,
    n: usize,
    f: &(impl Fn(usize, &mut Ledger) -> Option<T> + Sync),
) -> Vec<T> {
    let offsets = block_offsets(led, n, FILTER_BLOCK, &|lo, hi, l| {
        let mut cnt = 0u64;
        for i in lo..hi {
            if f(i, l).is_some() {
                cnt += 1;
            }
        }
        cnt
    });
    let total = *offsets.last().unwrap() as usize;
    if total == 0 {
        return Vec::new();
    }
    // Emit pass: one worker scope per block (split/merge ledger); the
    // surviving elements of a block are written with one bulk charge.
    let offsets_ref = &offsets;
    let parts: Vec<Vec<T>> = led.scoped_par(n, FILTER_BLOCK, &|r, s| {
        let b = r.start / FILTER_BLOCK;
        let expect = (offsets_ref[b + 1] - offsets_ref[b]) as usize;
        let mut out = Vec::with_capacity(expect);
        for i in r {
            if let Some(v) = f(i, s.ledger()) {
                out.push(v);
            }
        }
        s.write(out.len() as u64);
        out
    });
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_keeps_matching_indices_in_order() {
        let mut led = Ledger::new(8);
        let kept = filter_map_collect(&mut led, 10_000, &|i, l| {
            l.read(1);
            i.is_multiple_of(7).then_some(i)
        });
        assert_eq!(kept.len(), 10_000 / 7 + 1);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        assert!(kept.iter().all(|&i| i % 7 == 0));
    }

    #[test]
    fn writes_scale_with_output_not_input() {
        let n = 100_000;
        let mut led = Ledger::new(8);
        let kept = filter_map_collect(&mut led, n, &|i, l| {
            l.read(1);
            i.is_multiple_of(1000).then_some(i)
        });
        assert_eq!(kept.len(), 100);
        let writes = led.costs().asym_writes;
        let blocks = n.div_ceil(FILTER_BLOCK) as u64;
        assert!(
            writes <= 100 + blocks + 2,
            "writes {writes} should be ~output+blocks ({blocks})"
        );
        assert_eq!(led.costs().asym_reads, 2 * n as u64); // two pred passes
    }

    #[test]
    fn filter_map_transforms() {
        let mut led = Ledger::new(8);
        let vals = filter_map_collect(&mut led, 100, &|i, _| (i % 2 == 0).then_some(i * 10));
        assert_eq!(vals.len(), 50);
        assert_eq!(vals[3], 60);
    }

    #[test]
    fn empty_input_and_empty_output() {
        let mut led = Ledger::new(8);
        assert!(filter_map_collect(&mut led, 0, &|i, _| Some(i)).is_empty());
        assert!(filter_map_collect(&mut led, 500, &|_, _| None::<usize>).is_empty());
    }

    #[test]
    fn costs_deterministic_under_parallelism() {
        let run = |mut led: Ledger| {
            let kept = filter_map_collect(&mut led, 30_000, &|i, l| {
                l.read(1);
                ((i * 2654435761) % 5 == 0).then_some(i)
            });
            (kept, led.costs(), led.depth())
        };
        assert_eq!(run(Ledger::new(8)), run(Ledger::sequential(8)));
    }
}
