//! The fused pass — one charged sweep that writes only its survivors.
//!
//! The materialized primitives in this crate ([`filter`](crate::filter),
//! [`scan`](crate::scan)) count survivors in one pass, write per-block
//! offsets, and re-run the predicate in a second pass to emit. Parlaylib
//! fuses all of that by flattening a lazily generated sequence, and
//! [`flat_collect`] is that one shape: it evaluates `f(i)` once per slot
//! and writes only the items it yields, so a filter-map over `n` slots
//! pays asymmetric writes for the survivors alone. `f` returns any
//! [`IntoIterator`]; an `Option` makes the pass a filter-map, an iterator
//! a flat-map.
//!
//! The cost contract (constants live in [`wec_asym::fusion`]):
//!
//! * per slot, [`FUSED_SLOT_OPS`] + [`FUSED_STAGE_OPS`] unit operations,
//!   plus whatever `f` charges itself (reads of charged arrays etc.) —
//!   `f` must never charge an asymmetric write;
//! * per emitted item, [`FUSED_STAGE_OPS`] unit operations and
//!   [`FUSED_EMIT_WRITES`] asymmetric writes — the only writes of the pass;
//! * per [`FUSED_BLOCK`]-slot chunk, [`FUSED_CONCAT_OPS`] for the ordered
//!   concatenation, plus [`Ledger::scoped_par`]'s split tree.
//!
//! The per-slot and per-item charges are made in bulk at the end of each
//! chunk. A scope's charges add, so the bulk charge leaves `Costs` and
//! depth exactly where per-slot charging would. Like the rest of the
//! crate, the *accounting* grain is fixed ([`FUSED_BLOCK`]) while the
//! *execution* grain follows the pool's thread count: costs and output
//! are bit-identical across thread counts by the `scoped_par` contract.
//!
//! # Example
//!
//! ```
//! use wec_asym::Ledger;
//! use wec_prims::fused::flat_collect;
//!
//! let mut led = Ledger::new(8);
//! let out = flat_collect(&mut led, 10, |i, _led| (i % 2 == 0).then_some(i as u32 * 10));
//! assert_eq!(out, vec![0, 20, 40, 60, 80]);
//! // Only the 5 emitted elements were written.
//! assert_eq!(led.costs().asym_writes, 5);
//! ```

use wec_asym::{Ledger, FUSED_CONCAT_OPS, FUSED_EMIT_WRITES, FUSED_SLOT_OPS, FUSED_STAGE_OPS};

/// Accounting block of [`flat_collect`]: the slot space is split into
/// chunks of this many slots, each charged in its own ledger scope. Same
/// block size as the materialized filter's [`crate::filter::FILTER_BLOCK`]
/// so fused-vs-materialized cost comparisons line up chunk for chunk.
/// Execution batches chunks per task by the pool's thread count.
pub const FUSED_BLOCK: usize = 1024;

/// Collect the items of `f(i, ledger)` for `i ∈ 0..n`, in slot order, in
/// one fused pass. `f` runs exactly once per slot, must be deterministic,
/// and may charge reads and ops but no writes (asserted in debug builds).
/// See the module docs for the charges.
pub fn flat_collect<I, F>(led: &mut Ledger, n: usize, f: F) -> Vec<I::Item>
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(usize, &mut Ledger) -> I + Sync,
{
    let parts: Vec<Vec<I::Item>> = led.scoped_par(n, FUSED_BLOCK, &|range, scope| {
        let writes_before = scope.costs().asym_writes;
        let slots = range.len() as u64;
        let mut out = Vec::new();
        for i in range {
            out.extend(f(i, scope.ledger()));
        }
        debug_assert_eq!(
            scope.costs().asym_writes,
            writes_before,
            "a fused slot function must not charge asymmetric writes; \
             only the emitted items are written"
        );
        let items = out.len() as u64;
        scope.op((FUSED_SLOT_OPS + FUSED_STAGE_OPS) * slots + FUSED_STAGE_OPS * items);
        scope.write(FUSED_EMIT_WRITES * items);
        out
    });
    led.op(FUSED_CONCAT_OPS * parts.len() as u64);
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::filter_map_collect;

    #[test]
    fn fused_matches_materialized_filter_map() {
        let n = 10_000;
        let f = |i: usize, l: &mut Ledger| {
            l.read(1);
            i.is_multiple_of(7).then_some(i as u32 * 3)
        };
        let fused = flat_collect(&mut Ledger::new(8), n, f);
        let materialized = filter_map_collect(&mut Ledger::new(8), n, &f);
        assert_eq!(fused, materialized);
    }

    #[test]
    fn writes_only_at_terminal() {
        let n = 50_000;
        let mut led = Ledger::new(8);
        let out = flat_collect(&mut led, n, |i, _| {
            i.is_multiple_of(500).then_some(i as u32)
        });
        assert_eq!(out.len(), 100);
        assert_eq!(led.costs().asym_writes, 100);
        // One predicate pass, not two: slot + stage ops per slot, one stage
        // op per item, concat + split bookkeeping; no reads were charged.
        assert_eq!(led.costs().asym_reads, 0);
    }

    #[test]
    fn fused_writes_below_materialized_writes() {
        let n = 100_000;
        let f = |i: usize, l: &mut Ledger| {
            l.read(1);
            i.is_multiple_of(1000).then_some(i as u32)
        };
        let mut fused_led = Ledger::new(8);
        let fused = flat_collect(&mut fused_led, n, f);
        let mut mat_led = Ledger::new(8);
        let materialized = filter_map_collect(&mut mat_led, n, &f);
        assert_eq!(fused, materialized);
        assert!(
            fused_led.costs().asym_writes < mat_led.costs().asym_writes,
            "fused {} !< materialized {}",
            fused_led.costs().asym_writes,
            mat_led.costs().asym_writes
        );
        // Fused also halves the predicate-driven reads (one pass, not two).
        assert_eq!(fused_led.costs().asym_reads * 2, mat_led.costs().asym_reads);
    }

    #[test]
    fn flatten_expands_in_order() {
        let mut led = Ledger::new(8);
        let out = flat_collect(&mut led, 4, |i, _| {
            (0..i as u32).map(move |j| (i as u32, j))
        });
        assert_eq!(out, vec![(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]);
        assert_eq!(led.costs().asym_writes, 6);
    }

    #[test]
    fn empty_and_degenerate_filters() {
        let mut led = Ledger::new(8);
        assert!(flat_collect(&mut led, 0, |i, _| Some(i)).is_empty());
        assert_eq!(led.costs(), wec_asym::Costs::default());
        assert!(flat_collect(&mut led, 900, |_, _| None::<usize>).is_empty());
        let all = flat_collect(&mut led, 900, |i, _| Some(i));
        assert_eq!(all.len(), 900);
    }

    #[test]
    fn costs_deterministic_under_parallelism() {
        let run = |mut led: Ledger| {
            let out = flat_collect(&mut led, 30_000, |i, l| {
                l.read(1);
                (i * 2654435761)
                    .is_multiple_of(5)
                    .then_some(i as u32 ^ 0xabcd)
            });
            (out, led.costs(), led.depth())
        };
        assert_eq!(run(Ledger::new(8)), run(Ledger::sequential(8)));
    }
}
