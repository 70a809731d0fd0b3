//! Charged delayed sequences — iterator fusion for the asymmetric model.
//!
//! The materialized primitives in this crate ([`filter`](crate::filter),
//! [`scan`](crate::scan)) write their outputs between pipeline stages, so a
//! composition like "tabulate the edge slots, map to partition pairs, keep
//! the cross pairs" pays intermediate writes at every boundary plus a
//! second predicate pass for the two-pass pack. Parlaylib-style *delayed
//! sequences* remove all of that: a [`Delayed`] value is a lazy view whose
//! stages (`map`/`filter`/`flatten`) never run until a terminal
//! ([`Delayed::collect`] / [`Delayed::pack_index`]) drives one fused pass
//! over the slot space, and the only asymmetric writes of the whole
//! pipeline are the terminal's per-emitted-element charges.
//!
//! The fusion cost contract (constants live in [`wec_asym::fusion`]):
//!
//! * source: [`FUSED_SLOT_OPS`] per slot scanned, plus whatever the user's
//!   slot function charges itself (reads of charged arrays etc.);
//! * each lazy stage: [`FUSED_STAGE_OPS`] per element it processes —
//!   **never** an asymmetric write;
//! * terminal: [`FUSED_EMIT_WRITES`] per emitted element (the only writes)
//!   and [`FUSED_CONCAT_OPS`] per accounting chunk for the sequential
//!   concatenation of per-chunk outputs.
//!
//! Like the rest of the crate, the *accounting* grain is fixed
//! ([`FUSED_BLOCK`]-slot chunks define the split/merge tree and the
//! per-chunk charges) while the *execution* grain follows the pool's
//! thread count: costs and output are bit-identical across thread counts
//! by the `scoped_par` contract.
//!
//! # Example
//!
//! ```
//! use wec_asym::Ledger;
//! use wec_prims::delayed::{tabulate, Delayed};
//!
//! let mut led = Ledger::new(8);
//! let out = tabulate(10, |i, _led| i as u32)
//!     .filter(|&x, _led| x % 2 == 0)
//!     .map(|x, _led| x * 10)
//!     .collect(&mut led);
//! assert_eq!(out, vec![0, 20, 40, 60, 80]);
//! // Only the 5 emitted elements were written; every intermediate value
//! // lived purely in the fused sink chain.
//! assert_eq!(led.costs().asym_writes, 5);
//! ```

use std::marker::PhantomData;
use wec_asym::{Ledger, FUSED_CONCAT_OPS, FUSED_EMIT_WRITES, FUSED_SLOT_OPS, FUSED_STAGE_OPS};

/// Accounting block for fused terminals: the slot space is split into
/// chunks of this many slots, each charged in its own ledger scope. Same
/// block size as the materialized filter's [`crate::filter::FILTER_BLOCK`]
/// so fused-vs-materialized cost comparisons line up chunk for chunk.
/// Execution batches chunks per task by the pool's thread count.
pub const FUSED_BLOCK: usize = 1024;

/// A charged lazy sequence: `slots()` virtual positions, each of which
/// [`produce`](Delayed::produce)s zero or more items into a sink when a
/// terminal drives it. Stages compose by wrapping the sink; nothing runs
/// and nothing is written until a terminal is called.
///
/// The ledger is threaded through the sink chain so that *every* layer —
/// the user's slot function, stage closures, the terminal — charges the
/// same per-chunk scope, keeping costs bit-identical across thread counts.
pub trait Delayed: Sync + Sized {
    /// Element type this view yields.
    type Item: Send;

    /// Number of virtual slots in the underlying source.
    fn slots(&self) -> usize;

    /// Evaluate one slot, feeding each surviving item (with the ledger) to
    /// `sink`. Implementations charge their stage costs here; they must
    /// never charge asymmetric writes (terminals assert this in debug
    /// builds).
    fn produce(&self, slot: usize, led: &mut Ledger, sink: &mut dyn FnMut(&mut Ledger, Self::Item));

    /// Lazy map: applies `f` to each element. Charges [`FUSED_STAGE_OPS`]
    /// per element plus whatever `f` charges itself.
    fn map<U, F>(self, f: F) -> Map<Self, F, U>
    where
        U: Send,
        F: Fn(Self::Item, &mut Ledger) -> U + Sync,
    {
        Map {
            inner: self,
            f,
            _out: PhantomData,
        }
    }

    /// Lazy filter: keeps elements where `pred` holds. Charges
    /// [`FUSED_STAGE_OPS`] per *tested* element (the predicate runs once —
    /// compare the materialized two-pass filter, which runs it twice).
    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item, &mut Ledger) -> bool + Sync,
    {
        Filter { inner: self, pred }
    }

    /// Lazy flatten: each element is an iterable whose items are emitted
    /// in order. Charges [`FUSED_STAGE_OPS`] per input element plus
    /// [`FUSED_STAGE_OPS`] per produced inner item. `Option<T>` is an
    /// iterable, so `tabulate(n, f).flatten()` is the fused analogue of
    /// the materialized `filter_map_collect`.
    fn flatten(self) -> Flatten<Self>
    where
        Self::Item: IntoIterator,
        <Self::Item as IntoIterator>::Item: Send,
    {
        Flatten { inner: self }
    }

    /// `map` then `flatten` in one call.
    fn flat_map<I, F>(self, f: F) -> Flatten<Map<Self, F, I>>
    where
        I: IntoIterator + Send,
        I::Item: Send,
        F: Fn(Self::Item, &mut Ledger) -> I + Sync,
    {
        self.map(f).flatten()
    }

    /// Terminal: run the fused pass and materialize the surviving elements
    /// in slot order. Writes [`FUSED_EMIT_WRITES`] per emitted element —
    /// the only asymmetric writes of the pipeline — plus
    /// [`FUSED_CONCAT_OPS`] per accounting chunk.
    fn collect(&self, led: &mut Ledger) -> Vec<Self::Item> {
        let n = self.slots();
        let parts: Vec<Vec<Self::Item>> = led.scoped_par(n, FUSED_BLOCK, &|range, scope| {
            let writes_before = scope.costs().asym_writes;
            let mut out = Vec::new();
            for slot in range {
                self.produce(slot, scope.ledger(), &mut |_l, item| out.push(item));
            }
            debug_assert_eq!(
                scope.costs().asym_writes,
                writes_before,
                "fused stages must not charge asymmetric writes; \
                     writes happen only at the terminal"
            );
            scope.write(FUSED_EMIT_WRITES * out.len() as u64);
            out
        });
        if parts.is_empty() {
            return Vec::new();
        }
        led.op(FUSED_CONCAT_OPS * parts.len() as u64);
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }

    /// Terminal for boolean views: the indices (slots, in increasing
    /// order) whose element is `true` — parlaylib's `pack_index`. Same
    /// charge structure as [`Delayed::collect`]: writes only for the
    /// emitted indices.
    fn pack_index(&self, led: &mut Ledger) -> Vec<u32>
    where
        Self: Delayed<Item = bool>,
    {
        let n = self.slots();
        let parts: Vec<Vec<u32>> = led.scoped_par(n, FUSED_BLOCK, &|range, scope| {
            let writes_before = scope.costs().asym_writes;
            let mut out = Vec::new();
            for slot in range {
                self.produce(slot, scope.ledger(), &mut |_l, keep| {
                    if keep {
                        out.push(slot as u32);
                    }
                });
            }
            debug_assert_eq!(
                scope.costs().asym_writes,
                writes_before,
                "fused stages must not charge asymmetric writes; \
                 writes happen only at the terminal"
            );
            scope.write(FUSED_EMIT_WRITES * out.len() as u64);
            out
        });
        if parts.is_empty() {
            return Vec::new();
        }
        led.op(FUSED_CONCAT_OPS * parts.len() as u64);
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

/// The fused source: `n` slots, element `i` computed by `f(i, ledger)`.
/// Charges [`FUSED_SLOT_OPS`] per slot evaluated, plus whatever `f`
/// charges itself (e.g. `led.read(..)` for charged-array accesses).
pub fn tabulate<T, F>(n: usize, f: F) -> Tabulate<F, T>
where
    T: Send,
    F: Fn(usize, &mut Ledger) -> T + Sync,
{
    Tabulate {
        n,
        f,
        _out: PhantomData,
    }
}

/// See [`tabulate`].
pub struct Tabulate<F, T> {
    n: usize,
    f: F,
    _out: PhantomData<fn() -> T>,
}

impl<T, F> Delayed for Tabulate<F, T>
where
    T: Send,
    F: Fn(usize, &mut Ledger) -> T + Sync,
{
    type Item = T;

    fn slots(&self) -> usize {
        self.n
    }

    fn produce(&self, slot: usize, led: &mut Ledger, sink: &mut dyn FnMut(&mut Ledger, T)) {
        led.op(FUSED_SLOT_OPS);
        let v = (self.f)(slot, led);
        sink(led, v);
    }
}

/// See [`Delayed::map`].
pub struct Map<S, F, U> {
    inner: S,
    f: F,
    _out: PhantomData<fn() -> U>,
}

impl<S, F, U> Delayed for Map<S, F, U>
where
    S: Delayed,
    U: Send,
    F: Fn(S::Item, &mut Ledger) -> U + Sync,
{
    type Item = U;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn produce(&self, slot: usize, led: &mut Ledger, sink: &mut dyn FnMut(&mut Ledger, U)) {
        let f = &self.f;
        self.inner.produce(slot, led, &mut |l, x| {
            l.op(FUSED_STAGE_OPS);
            let y = f(x, l);
            sink(l, y);
        });
    }
}

/// See [`Delayed::filter`].
pub struct Filter<S, P> {
    inner: S,
    pred: P,
}

impl<S, P> Delayed for Filter<S, P>
where
    S: Delayed,
    P: Fn(&S::Item, &mut Ledger) -> bool + Sync,
{
    type Item = S::Item;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn produce(&self, slot: usize, led: &mut Ledger, sink: &mut dyn FnMut(&mut Ledger, S::Item)) {
        let pred = &self.pred;
        self.inner.produce(slot, led, &mut |l, x| {
            l.op(FUSED_STAGE_OPS);
            if pred(&x, l) {
                sink(l, x);
            }
        });
    }
}

/// See [`Delayed::flatten`].
pub struct Flatten<S> {
    inner: S,
}

impl<S> Delayed for Flatten<S>
where
    S: Delayed,
    S::Item: IntoIterator,
    <S::Item as IntoIterator>::Item: Send,
{
    type Item = <S::Item as IntoIterator>::Item;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn produce(
        &self,
        slot: usize,
        led: &mut Ledger,
        sink: &mut dyn FnMut(&mut Ledger, Self::Item),
    ) {
        self.inner.produce(slot, led, &mut |l, xs| {
            l.op(FUSED_STAGE_OPS);
            for x in xs {
                l.op(FUSED_STAGE_OPS);
                sink(l, x);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{filter_indices, filter_map_collect};

    #[test]
    fn fused_matches_materialized_filter_map() {
        let n = 10_000;
        let fused = {
            let mut led = Ledger::new(8);
            tabulate(n, |i, l| {
                l.read(1);
                i as u32
            })
            .filter(|&x, _| x % 7 == 0)
            .map(|x, _| x * 3)
            .collect(&mut led)
        };
        let materialized = {
            let mut led = Ledger::new(8);
            filter_map_collect(&mut led, n, &|i, l| {
                l.read(1);
                (i % 7 == 0).then_some(i as u32 * 3)
            })
        };
        assert_eq!(fused, materialized);
    }

    #[test]
    fn writes_only_at_terminal() {
        let n = 50_000;
        let mut led = Ledger::new(8);
        let out = tabulate(n, |i, _| i as u32)
            .filter(|&x, _| x % 500 == 0)
            .collect(&mut led);
        assert_eq!(out.len(), 100);
        assert_eq!(led.costs().asym_writes, 100);
        // One predicate pass, not two: n slot ops + n filter-stage ops +
        // concat + split bookkeeping; no reads were charged at all.
        assert_eq!(led.costs().asym_reads, 0);
    }

    #[test]
    fn fused_writes_below_materialized_writes() {
        let n = 100_000;
        let mut fused_led = Ledger::new(8);
        let fused = tabulate(n, |i, l| {
            l.read(1);
            i as u32
        })
        .filter(|&x, _| x % 1000 == 0)
        .collect(&mut fused_led);
        let mut mat_led = Ledger::new(8);
        let materialized = filter_indices(&mut mat_led, n, &|i, l| {
            l.read(1);
            i % 1000 == 0
        });
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
        let out = tabulate(4, |i, _| i)
            .flat_map(|i, _| {
                (0..i as u32)
                    .map(move |j| (i as u32, j))
                    .collect::<Vec<_>>()
            })
            .collect(&mut led);
        assert_eq!(out, vec![(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]);
    }

    #[test]
    fn option_flatten_is_fused_filter_map() {
        let n = 5_000;
        let fused = {
            let mut led = Ledger::new(8);
            tabulate(n, |i, _| (i % 3 == 1).then_some(i as u32))
                .flatten()
                .collect(&mut led)
        };
        let materialized = {
            let mut led = Ledger::new(8);
            filter_map_collect(&mut led, n, &|i, _| (i % 3 == 1).then_some(i as u32))
        };
        assert_eq!(fused, materialized);
    }

    #[test]
    fn pack_index_matches_filter_indices() {
        let n = 20_000;
        let fused = {
            let mut led = Ledger::new(8);
            tabulate(n, |i, l| {
                l.read(1);
                (i * 2654435761) % 5 == 0
            })
            .pack_index(&mut led)
        };
        let materialized = {
            let mut led = Ledger::new(8);
            filter_indices(&mut led, n, &|i, l| {
                l.read(1);
                (i * 2654435761) % 5 == 0
            })
        };
        assert_eq!(fused, materialized);
    }

    #[test]
    fn empty_and_degenerate_filters() {
        let mut led = Ledger::new(8);
        assert!(tabulate(0, |i, _| i).collect(&mut led).is_empty());
        assert_eq!(led.costs(), wec_asym::Costs::default());
        assert!(tabulate(900, |i, _| i)
            .filter(|_, _| false)
            .collect(&mut led)
            .is_empty());
        let all = tabulate(900, |i, _| i)
            .filter(|_, _| true)
            .collect(&mut led);
        assert_eq!(all.len(), 900);
    }

    #[test]
    fn costs_deterministic_under_parallelism() {
        let run = |mut led: Ledger| {
            let out = tabulate(30_000, |i, l| {
                l.read(1);
                i as u32
            })
            .filter(|&x, _| (x as usize * 2654435761).is_multiple_of(5))
            .map(|x, _| x ^ 0xabcd)
            .collect(&mut led);
            (out, led.costs(), led.depth())
        };
        assert_eq!(run(Ledger::new(8)), run(Ledger::sequential(8)));
    }
}
