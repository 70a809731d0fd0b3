//! Per-task cost accounting with fork-join composition and split/merge
//! parallel passes.
//!
//! A [`Ledger`] is the handle an algorithm threads through its control flow
//! to charge model costs. Sequential charges accumulate into both *work*
//! counters and *depth*; [`Ledger::fork`] splits the task in two exactly like
//! the `Fork` instruction of the Asymmetric NP model: the children's work is
//! summed into the parent while the depth grows only by the larger child's
//! depth. On a parallel ledger the two branches really run in parallel on
//! the rayon pool — the accounted numbers do not change either way.
//!
//! # The split/merge ledger contract
//!
//! Hot passes do not thread one `&mut Ledger` through a sequential loop;
//! they split the ledger N ways, hand each worker its own [`LedgerScope`]
//! (plain counters, no parallelism decisions), and merge at the end:
//!
//! * **split** — [`Ledger::scope`] detaches a zeroed child scope (same `ω`,
//!   symmetric-memory level inherited);
//! * **merge** — [`Ledger::join_many`] absorbs children exactly like a
//!   balanced tree of binary `Fork`s: every work counter **sums**, depth
//!   grows by the **max** child depth, the symmetric-memory peak is the max
//!   across children;
//! * **determinism** — the merge is computed from the collected scopes in
//!   *chunk index order*, never from execution order, so the accounted
//!   `Costs`/depth are **bit-identical** whether the chunks ran on one
//!   thread ([`Ledger::sequential`]) or many ([`Ledger::new`]);
//! * **bookkeeping** — [`Ledger::scoped_par`] additionally charges the
//!   scheduler's split tree: `chunks − 1` unit operations of work and
//!   `⌈log₂ chunks⌉` units of depth, one per binary split of that tree.
//!
//! # Accounting grain vs. execution grain
//!
//! `scoped_par`'s `grain` parameter is the **accounting grain**: it fixes
//! the chunk structure — how many [`LedgerScope`]s exist, what each one
//! charges, and therefore every number above. The **execution grain** — how
//! many of those accounting chunks one forked task runs back-to-back — is
//! one private, cost-invisible rule: tasks of
//! `max(grain, n / (threads × 8))` elements, rounded up to whole chunks, so
//! a pass over a huge array forks `O(threads)` tasks instead of one per tiny
//! chunk, and the work-stealing pool keeps spare tasks to rebalance skewed
//! chunk bodies. Because every accounting chunk still runs on its own
//! zeroed scope and the merge stays in chunk index order, the accounted
//! `Costs`/depth are bit-identical across thread counts — only wall-clock
//! fork overhead changes.
//!
//! Loops whose per-element charges are known in advance should not charge
//! inside the loop at all: one `read(n)`/`write(n)`/`op(n)` at the point
//! where the count is known charges exactly what `n` unit calls would.

use crate::cost::Costs;
use crate::report::CostReport;
use std::sync::Mutex;

/// Forked tasks per pool thread in [`Ledger::scoped_par`]'s execution
/// grain. Greater than 1 so the work-stealing scheduler can rebalance
/// uneven chunk bodies; small enough that fork overhead stays `O(threads)`
/// per pass.
const TASKS_PER_WORKER: usize = 8;

/// Accounting chunks one forked task of [`Ledger::scoped_par`] runs
/// back-to-back, for an input of `n` elements at accounting grain `grain`
/// (≥ 1): tasks of `max(grain, n / (threads × TASKS_PER_WORKER))` elements.
fn chunks_per_task(n: usize, grain: usize) -> usize {
    let tasks = rayon::current_num_threads().max(1) * TASKS_PER_WORKER;
    (n / tasks).max(grain).div_ceil(grain)
}

/// Per-task cost accounting for the Asymmetric RAM / NP models.
///
/// See the crate docs for the model. Typical use:
///
/// ```
/// use wec_asym::Ledger;
/// let mut led = Ledger::new(16);
/// led.read(2);           // two asymmetric reads
/// led.write(1);          // one asymmetric write (depth +16)
/// let (a, b) = led.fork(|l| { l.op(5); 1 }, |l| { l.op(7); 2 });
/// assert_eq!(a + b, 3);
/// assert_eq!(led.costs().sym_ops, 12);   // work adds
/// assert_eq!(led.depth(), 2 + 16 + 7);   // depth takes the max branch
/// ```
#[derive(Debug)]
pub struct Ledger {
    omega: u64,
    costs: Costs,
    depth: u64,
    sym_cur: u64,
    sym_peak: u64,
    parallel: bool,
}

impl Ledger {
    /// A fresh root task with write cost `omega`, executing forks on the
    /// rayon pool when they are large enough.
    pub fn new(omega: u64) -> Self {
        Self::with_parallelism(omega, true)
    }

    /// A root task that always executes forks sequentially (accounting is
    /// unchanged). Useful for debugging and for measuring scheduler overhead.
    pub fn sequential(omega: u64) -> Self {
        Self::with_parallelism(omega, false)
    }

    fn with_parallelism(omega: u64, parallel: bool) -> Self {
        assert!(omega >= 1, "omega must be at least 1");
        Ledger {
            omega,
            costs: Costs::ZERO,
            depth: 0,
            sym_cur: 0,
            sym_peak: 0,
            parallel,
        }
    }

    /// The write-cost multiplier `ω`.
    #[inline]
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// `k = ⌊√ω⌋`, the cluster-size parameter the paper uses for both
    /// sublinear-write oracles (at least 1). Integer square root: the
    /// previous `f64::sqrt().floor()` implementation can round `√(k²−1)` up
    /// to `k` once ω exceeds 2⁵² (53-bit mantissa), silently inflating the
    /// cluster parameter.
    #[inline]
    pub fn sqrt_omega(&self) -> usize {
        (self.omega.isqrt() as usize).max(1)
    }

    /// Charge `n` asymmetric-memory reads.
    #[inline]
    pub fn read(&mut self, n: u64) {
        self.costs.asym_reads += n;
        self.depth += n;
    }

    /// Charge `n` asymmetric-memory writes (each costs `ω`).
    #[inline]
    pub fn write(&mut self, n: u64) {
        self.costs.asym_writes += n;
        self.depth += n * self.omega;
    }

    /// Charge `n` unit-cost operations (compute / symmetric-memory traffic).
    #[inline]
    pub fn op(&mut self, n: u64) {
        self.costs.sym_ops += n;
        self.depth += n;
    }

    /// Current counters.
    #[inline]
    pub fn costs(&self) -> Costs {
        self.costs
    }

    /// Critical-path cost so far.
    #[inline]
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Total work so far (`reads + sym_ops + ω·writes`).
    #[inline]
    pub fn work(&self) -> u64 {
        self.costs.work(self.omega)
    }

    /// Reserve `words` of symmetric memory (cache) for the current task.
    /// Tracked against a high-water mark so tests can check the paper's
    /// `O(ω log n)` / `O(k log n)` symmetric-memory claims.
    #[inline]
    pub fn sym_alloc(&mut self, words: u64) {
        self.sym_cur += words;
        self.sym_peak = self.sym_peak.max(self.sym_cur);
    }

    /// Release `words` of symmetric memory.
    #[inline]
    pub fn sym_free(&mut self, words: u64) {
        debug_assert!(self.sym_cur >= words, "sym_free exceeds live allocation");
        self.sym_cur = self.sym_cur.saturating_sub(words);
    }

    /// High-water mark of symmetric-memory words over this task and all
    /// completed children.
    #[inline]
    pub fn sym_peak(&self) -> u64 {
        self.sym_peak
    }

    /// Live symmetric-memory words.
    #[inline]
    pub fn sym_live(&self) -> u64 {
        self.sym_cur
    }

    fn child(&self) -> Ledger {
        Ledger {
            omega: self.omega,
            costs: Costs::ZERO,
            depth: 0,
            // The NP model gives children access to ancestors' symmetric
            // memory, so a child's live footprint starts at the parent's.
            sym_cur: self.sym_cur,
            sym_peak: self.sym_cur,
            parallel: self.parallel,
        }
    }

    fn absorb_pair(&mut self, a: Ledger, b: Ledger) {
        self.costs += a.costs;
        self.costs += b.costs;
        self.depth += a.depth.max(b.depth);
        self.sym_peak = self.sym_peak.max(a.sym_peak).max(b.sym_peak);
    }

    /// Fork two child tasks and join them: the NP model's `Fork`.
    ///
    /// Work (all counters) adds; depth grows by the *max* of the two branch
    /// depths; the symmetric-memory peak is the max across branches. The
    /// branches run through `rayon::join` when this ledger is parallel.
    pub fn fork<RA, RB>(
        &mut self,
        fa: impl FnOnce(&mut Ledger) -> RA + Send,
        fb: impl FnOnce(&mut Ledger) -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let mut la = self.child();
        let mut lb = self.child();
        let ((ra, la), (rb, lb)) = if self.parallel {
            rayon::join(move || (fa(&mut la), la), move || (fb(&mut lb), lb))
        } else {
            ((fa(&mut la), la), (fb(&mut lb), lb))
        };
        self.absorb_pair(la, lb);
        (ra, rb)
    }

    /// Run `body` against a scratch ledger whose *entire* activity is then
    /// re-charged to this ledger as unit-cost symmetric-memory operations,
    /// with `sym_words` reserved for the duration.
    ///
    /// This is how the §5.3 oracle analyzes per-cluster **local graphs**:
    /// the local graph fits in the `O(k log n)`-word symmetric memory, so
    /// running an ordinary algorithm (Hopcroft–Tarjan, BFS, ...) over it
    /// must cost unit operations, not asymmetric writes. Reads the body
    /// performs against real asymmetric inputs must be charged *outside*
    /// this scope.
    pub fn sym_compute<R>(&mut self, sym_words: u64, body: impl FnOnce(&mut Ledger) -> R) -> R {
        self.sym_alloc(sym_words);
        let mut scratch = Ledger::sequential(1);
        let r = body(&mut scratch);
        let c = scratch.costs();
        self.op(c.asym_reads + c.asym_writes + c.sym_ops);
        self.sym_free(sym_words);
        r
    }

    /// Snapshot the counters into a serializable report.
    pub fn report(&self, label: impl Into<String>) -> CostReport {
        CostReport::from_ledger(label.into(), self)
    }

    /// Detach a zeroed per-worker [`LedgerScope`] (the **split** half of the
    /// split/merge contract in the module docs). The scope carries the same
    /// `ω` and inherits the live symmetric-memory level; its counters start
    /// at zero so the eventual merge sees exactly what the worker charged.
    pub fn scope(&self) -> LedgerScope {
        LedgerScope {
            inner: Ledger {
                parallel: false,
                ..self.child()
            },
        }
    }

    /// Merge child scopes (the **merge** half of the split/merge contract):
    /// work counters sum in iteration order, depth grows by the maximum
    /// child depth, and the symmetric-memory peak takes the max — the
    /// N-way generalization of a balanced tree of binary [`Ledger::fork`]s.
    /// No scheduler bookkeeping is charged here; [`Ledger::scoped_par`]
    /// charges its own split tree.
    pub fn join_many(&mut self, children: impl IntoIterator<Item = LedgerScope>) {
        let mut max_depth = 0u64;
        for child in children {
            let c = child.inner;
            self.costs += c.costs;
            max_depth = max_depth.max(c.depth);
            self.sym_peak = self.sym_peak.max(c.sym_peak);
        }
        self.depth += max_depth;
    }

    /// Split `0..n` into `⌈n/grain⌉` chunks, run `body` on each chunk with
    /// its own [`LedgerScope`] — in parallel on the rayon pool when this
    /// ledger is parallel and more than one chunk exists — and merge the
    /// scopes deterministically. Returns the per-chunk results in chunk
    /// order. Execution batches chunks per task by the thread count (see
    /// "Accounting grain vs. execution grain" in the module docs).
    ///
    /// Accounting (see module docs): chunk costs sum, depth takes
    /// `⌈log₂ chunks⌉ + max(chunk depth)`, plus `chunks − 1` unit
    /// operations for the scheduler's split tree — bit-identical between
    /// parallel and sequential execution and across thread counts.
    pub fn scoped_par<T: Send>(
        &mut self,
        n: usize,
        grain: usize,
        body: &(impl Fn(std::ops::Range<usize>, &mut LedgerScope) -> T + Sync),
    ) -> Vec<T> {
        let grain = grain.max(1);
        if n == 0 {
            return Vec::new();
        }
        let chunks = n.div_ceil(grain);
        let chunks_per_task = if self.parallel {
            chunks_per_task(n, grain)
        } else {
            chunks
        };
        let mut slots: Vec<Option<(T, LedgerScope)>> = Vec::new();
        slots.resize_with(chunks, || None);
        let proto = self.scope();
        run_chunks(&proto, &mut slots, 0, grain, n, chunks_per_task, body);
        // Deterministic merge in chunk order, independent of execution
        // interleaving: exactly join_many, plus the split-tree bookkeeping.
        let mut out = Vec::with_capacity(chunks);
        self.join_many(slots.into_iter().map(|slot| {
            let (val, scope) = slot.expect("every chunk ran");
            out.push(val);
            scope
        }));
        let split_levels = usize::BITS - (chunks - 1).leading_zeros(); // ⌈log₂ chunks⌉
        self.costs.sym_ops += chunks as u64 - 1;
        self.depth += split_levels as u64;
        out
    }

    /// Per-element convenience over [`Ledger::scoped_par`]: `map` runs once
    /// per index, results are returned in index order. Same accounting.
    ///
    /// Each chunk writes its results straight into its own slice of one
    /// `n`-slot output, so no result is ever held twice; the final unwrap
    /// collects in place.
    pub fn scoped_par_map<T: Send>(
        &mut self,
        n: usize,
        grain: usize,
        map: &(impl Fn(usize, &mut LedgerScope) -> T + Sync),
    ) -> Vec<T> {
        let grain = grain.max(1);
        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(n, || None);
        {
            // One uncontended lock per chunk: it only hands the chunk's
            // slice to whichever worker runs that chunk.
            let slices: Vec<Mutex<&mut [Option<T>]>> =
                out.chunks_mut(grain).map(Mutex::new).collect();
            self.scoped_par(n, grain, &|range, scope| {
                let mut slice = slices[range.start / grain]
                    .lock()
                    .expect("only this chunk locks its slice");
                for (slot, i) in slice.iter_mut().zip(range) {
                    *slot = Some(map(i, scope));
                }
            });
        }
        out.into_iter()
            .map(|r| r.expect("every index ran"))
            .collect()
    }
}

/// Execute chunk `body`s over the slot array, recursively splitting with
/// `rayon::join` down to tasks of `chunks_per_task` accounting chunks (run
/// sequentially within a task, each on its own fresh scope). Only the
/// *execution* is shaped by `chunks_per_task`; all accounting is derived
/// from the filled slots afterwards.
fn run_chunks<T: Send>(
    proto: &LedgerScope,
    slots: &mut [Option<(T, LedgerScope)>],
    first_chunk: usize,
    grain: usize,
    n: usize,
    chunks_per_task: usize,
    body: &(impl Fn(std::ops::Range<usize>, &mut LedgerScope) -> T + Sync),
) {
    if slots.len() <= chunks_per_task {
        for (offset, slot) in slots.iter_mut().enumerate() {
            let chunk = first_chunk + offset;
            let lo = chunk * grain;
            let hi = ((chunk + 1) * grain).min(n);
            let mut scope = proto.fresh();
            let val = body(lo..hi, &mut scope);
            *slot = Some((val, scope));
        }
        return;
    }
    let mid = slots.len() / 2;
    let (left, right) = slots.split_at_mut(mid);
    rayon::join(
        || run_chunks(proto, left, first_chunk, grain, n, chunks_per_task, body),
        || {
            run_chunks(
                proto,
                right,
                first_chunk + mid,
                grain,
                n,
                chunks_per_task,
                body,
            )
        },
    );
}

/// A detached per-worker accounting scope: plain counters with no
/// parallelism decisions, cheap enough for any rayon worker to own. Created
/// by [`Ledger::scope`] / handed out by [`Ledger::scoped_par`]; absorbed by
/// [`Ledger::join_many`].
///
/// A scope exposes the same charge surface as a ledger (`read`/`write`/
/// `op`, plus [`LedgerScope::ledger`] for code written against
/// `&mut Ledger`), but its internal ledger is always sequential: forks
/// inside a worker run inline and only ever touch the worker's own
/// counters.
#[derive(Debug)]
pub struct LedgerScope {
    inner: Ledger,
}

impl LedgerScope {
    /// A zeroed clone of this scope's shape (same ω, same inherited
    /// symmetric-memory level).
    fn fresh(&self) -> LedgerScope {
        self.inner.scope()
    }

    /// The scope as a full (sequential) [`Ledger`], for the deep query
    /// machinery whose signatures take `&mut Ledger`.
    #[inline]
    pub fn ledger(&mut self) -> &mut Ledger {
        &mut self.inner
    }

    /// The write-cost multiplier `ω`.
    #[inline]
    pub fn omega(&self) -> u64 {
        self.inner.omega
    }

    /// Charge `n` asymmetric-memory reads.
    #[inline]
    pub fn read(&mut self, n: u64) {
        self.inner.read(n);
    }

    /// Charge `n` asymmetric-memory writes (each costs `ω`).
    #[inline]
    pub fn write(&mut self, n: u64) {
        self.inner.write(n);
    }

    /// Charge `n` unit-cost operations.
    #[inline]
    pub fn op(&mut self, n: u64) {
        self.inner.op(n);
    }

    /// Counters charged to this scope so far.
    #[inline]
    pub fn costs(&self) -> Costs {
        self.inner.costs()
    }

    /// Critical-path cost charged to this scope so far.
    #[inline]
    pub fn depth(&self) -> u64 {
        self.inner.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_charges_accumulate_depth() {
        let mut l = Ledger::new(10);
        l.read(3);
        l.op(4);
        l.write(2);
        assert_eq!(l.costs().asym_reads, 3);
        assert_eq!(l.costs().sym_ops, 4);
        assert_eq!(l.costs().asym_writes, 2);
        assert_eq!(l.work(), 3 + 4 + 20);
        assert_eq!(l.depth(), 3 + 4 + 20);
    }

    #[test]
    fn fork_depth_takes_max_branch() {
        let mut l = Ledger::new(4);
        l.fork(|a| a.op(100), |b| b.write(1));
        // branch depths: 100 vs 4 -> 100
        assert_eq!(l.depth(), 100);
        assert_eq!(l.work(), 100 + 4);
    }

    #[test]
    fn fork_results_returned_in_order() {
        let mut l = Ledger::new(2);
        let (a, b) = l.fork(|_| "left", |_| "right");
        assert_eq!((a, b), ("left", "right"));
    }

    #[test]
    fn nested_forks_accumulate_structurally() {
        // Same computation, sequential vs parallel execution: identical costs.
        fn run(mut l: Ledger) -> (Costs, u64) {
            l.fork(
                |a| {
                    a.read(5);
                    a.fork(|x| x.write(1), |y| y.op(9));
                },
                |b| b.op(2),
            );
            (l.costs(), l.depth())
        }
        let (c1, d1) = run(Ledger::new(8));
        let (c2, d2) = run(Ledger::sequential(8));
        assert_eq!(c1, c2);
        assert_eq!(d1, d2);
        // depth: left = 5 + max(8, 9) = 14; right = 2 -> 14
        assert_eq!(d1, 14);
    }

    #[test]
    fn sym_memory_high_water() {
        let mut l = Ledger::new(2);
        l.sym_alloc(10);
        l.sym_alloc(5);
        assert_eq!(l.sym_live(), 15);
        l.sym_free(5);
        assert_eq!(l.sym_live(), 10);
        assert_eq!(l.sym_peak(), 15);
        l.sym_free(10);
        assert_eq!(l.sym_live(), 0);
        assert_eq!(l.sym_peak(), 15);
    }

    #[test]
    fn children_inherit_live_symmetric_memory() {
        let mut l = Ledger::new(2);
        l.sym_alloc(8);
        l.fork(
            |a| a.sym_alloc(4),
            |b| {
                b.sym_alloc(100);
                b.sym_free(100);
            },
        );
        // child peaks: 12 and 108; parent live stays 8
        assert_eq!(l.sym_peak(), 108);
        assert_eq!(l.sym_live(), 8);
    }

    #[test]
    fn sqrt_omega_floors() {
        assert_eq!(Ledger::new(1).sqrt_omega(), 1);
        assert_eq!(Ledger::new(16).sqrt_omega(), 4);
        assert_eq!(Ledger::new(17).sqrt_omega(), 4);
        assert_eq!(Ledger::new(100).sqrt_omega(), 10);
    }

    #[test]
    fn sqrt_omega_exact_at_boundaries() {
        // k² and k² − 1 must land on k and k − 1 for every magnitude,
        // including values where f64's 53-bit mantissa rounds k² − 1 up to
        // k² (the bug the integer square root fixes).
        for k in [
            2u64,
            3,
            1 << 16,
            (1 << 26) + 1,
            (1 << 31) - 1,
            1 << 31,
            u32::MAX as u64,
        ] {
            let sq = k * k;
            assert_eq!(Ledger::new(sq).sqrt_omega() as u64, k, "√{sq}");
            assert_eq!(Ledger::new(sq - 1).sqrt_omega() as u64, k - 1, "√({sq}−1)");
            assert_eq!(Ledger::new(sq + 1).sqrt_omega() as u64, k, "√({sq}+1)");
        }
        // Largest representable ω: ⌊√(2⁶⁴−1)⌋ = 2³² − 1.
        assert_eq!(Ledger::new(u64::MAX).sqrt_omega() as u64, u32::MAX as u64);
        // Direct regression for the f64 misround: (2³²−1)² − 1 rounds to
        // (2³²−1)² in f64, so the old code answered 2³²−1 instead of 2³²−2.
        let k = (1u64 << 32) - 1;
        let bad = k * k - 1;
        assert_eq!(
            (bad as f64).sqrt().floor() as u64,
            k,
            "f64 sqrt misrounds here"
        );
        assert_eq!(Ledger::new(bad).sqrt_omega() as u64, k - 1);
    }

    #[test]
    fn scope_join_many_sums_work_and_maxes_depth() {
        let mut l = Ledger::new(4);
        l.op(1); // pre-existing depth 1
        let mut a = l.scope();
        let mut b = l.scope();
        let mut c = l.scope();
        a.read(5); // depth 5
        b.write(2); // depth 8
        c.op(3); // depth 3
        l.join_many([a, b, c]);
        assert_eq!(
            l.costs(),
            Costs {
                asym_reads: 5,
                asym_writes: 2,
                sym_ops: 4
            }
        );
        assert_eq!(l.depth(), 1 + 8, "depth adds only the max child");
    }

    #[test]
    fn join_many_matches_balanced_binary_forks() {
        // join_many over 4 children ≡ a balanced tree of binary forks.
        let forked = {
            let mut l = Ledger::sequential(8);
            l.fork(
                |x| {
                    x.fork(|p| p.read(10), |q| q.write(1));
                },
                |y| {
                    y.fork(|p| p.op(7), |q| q.read(2));
                },
            );
            (l.costs(), l.depth())
        };
        let joined = {
            let mut l = Ledger::sequential(8);
            let mut scopes: Vec<LedgerScope> = (0..4).map(|_| l.scope()).collect();
            scopes[0].read(10);
            scopes[1].write(1);
            scopes[2].op(7);
            scopes[3].read(2);
            l.join_many(scopes);
            (l.costs(), l.depth())
        };
        assert_eq!(forked, joined);
    }

    #[test]
    fn scoped_par_results_in_chunk_order() {
        let mut l = Ledger::new(2);
        let ranges = l.scoped_par(10, 3, &|r, _| (r.start, r.end));
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        let vals = l.scoped_par_map(100, 7, &|i, _| i * 2);
        assert!(vals.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn scoped_par_accounting_matches_contract() {
        let mut l = Ledger::sequential(4);
        // 4 chunks of 8: each charges 8 reads and 1 write.
        l.scoped_par(32, 8, &|r, s| {
            s.read(r.len() as u64);
            s.write(1);
        });
        let c = l.costs();
        assert_eq!(c.asym_reads, 32);
        assert_eq!(c.asym_writes, 4);
        assert_eq!(c.sym_ops, 3, "chunks − 1 split ops");
        // depth = ⌈log₂ 4⌉ + max chunk depth (8 reads + ω·1 write)
        assert_eq!(l.depth(), 2 + 8 + 4);
    }

    #[test]
    fn scoped_par_bit_identical_across_parallelism() {
        let run = |mut l: Ledger| {
            let out = l.scoped_par(10_000, 64, &|r, s| {
                let mut acc = 0u64;
                for i in r {
                    s.read(1);
                    if i % 5 == 0 {
                        s.write(1);
                    }
                    acc += i as u64;
                }
                acc
            });
            (out, l.costs(), l.depth(), l.sym_peak())
        };
        assert_eq!(run(Ledger::new(16)), run(Ledger::sequential(16)));
        let run_map = |mut l: Ledger| {
            let out = l.scoped_par_map(997, 16, &|i, s| {
                s.op(1);
                i * 3
            });
            (out, l.costs(), l.depth())
        };
        assert_eq!(run_map(Ledger::new(8)), run_map(Ledger::sequential(8)));
    }

    #[test]
    fn execution_grain_batches_large_inputs_and_spares_small_ones() {
        // chunks_per_task is an execution detail, but its arithmetic is the
        // contract the call sites rely on: small inputs keep one chunk per
        // task (full fan-out), huge inputs converge to ≈ threads ×
        // TASKS_PER_WORKER tasks, and tasks are whole chunks.
        let tasks = rayon::current_num_threads().max(1) * TASKS_PER_WORKER;
        assert_eq!(chunks_per_task(tasks, 1), 1);
        let n = 1 << 20;
        assert_eq!(chunks_per_task(n, 64), (n / tasks).max(64).div_ceil(64));
        assert_eq!(chunks_per_task(100, 1000), 1);
    }

    #[test]
    fn scoped_par_empty_input_charges_nothing() {
        let mut l = Ledger::new(8);
        let out: Vec<()> = l.scoped_par(0, 16, &|_, s| s.write(99));
        assert!(out.is_empty());
        assert_eq!(l.costs(), Costs::ZERO);
        assert_eq!(l.depth(), 0);
    }

    #[test]
    fn scopes_inherit_live_symmetric_memory() {
        let mut l = Ledger::new(2);
        l.sym_alloc(8);
        let mut s = l.scope();
        s.ledger().sym_alloc(100);
        s.ledger().sym_free(100);
        l.join_many([s]);
        assert_eq!(l.sym_peak(), 108);
        assert_eq!(l.sym_live(), 8);
    }

    #[test]
    #[should_panic(expected = "omega must be at least 1")]
    fn zero_omega_rejected() {
        let _ = Ledger::new(0);
    }
}
