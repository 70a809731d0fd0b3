//! Offline stand-in for the subset of `rayon` this workspace uses:
//! [`join`] and [`current_num_threads`] — now backed by a real
//! **work-stealing runtime** instead of a single mutex-guarded job queue.
//!
//! # Architecture
//!
//! The pool spawns `threads − 1` persistent workers. Each worker owns a
//! fixed-capacity **Chase–Lev deque** of type-erased job pointers:
//!
//! * the owner pushes and pops at the **bottom** (LIFO, plain loads/stores
//!   plus one fence — no locks, no CAS on the fast path);
//! * thieves steal from the **top** (FIFO — the oldest, usually largest,
//!   task) with a single compare-exchange;
//! * the buffer is circular with a power-of-two capacity
//!   ([`DEQUE_CAPACITY`]); indices grow monotonically and wrap through a
//!   mask, and a full deque rejects the push rather than reallocating.
//!
//! [`join`] publishes its **right** branch: a worker thread pushes it onto
//! its own deque (the lock-free fork path); a non-worker thread — or any
//! thread whose deque is full — falls back to the **injector**, the old
//! shared `Mutex<VecDeque>` which survives only as the overflow /
//! external-submission channel. The caller then runs the left branch
//! inline and settles the published job:
//!
//! * **reclaim** — if nobody took the job, a deque `pop` (or an injector
//!   scan) removes it and the caller runs it inline. The LIFO discipline
//!   guarantees the bottom of the caller's deque is its own most recent
//!   unsettled job, so the pop can only ever return that job;
//! * **wait** — if a thief got there first, the caller spins briefly and
//!   then parks; the executing thread unparks it when the result lands.
//!
//! Idle workers look for work in a fixed order — own deque, injector, then
//! **steal attempts against randomly probed victims** (xorshift-seeded per
//! worker) with exponentially growing spin backoff between rounds — and
//! finally park on a condvar. Publishing notifies sleepers only when the
//! sleeper count is nonzero; the sequentially consistent publish → counter
//! handshake (plus the sleeper's pre-park rescan under the sleep lock)
//! rules out lost wakeups, and a long defensive park timeout keeps an idle
//! pool essentially free of CPU burn while still bounding the damage of
//! any platform condvar quirk.
//!
//! Either way a published job's stack frame outlives every reference to it
//! (the joiner settles the job — reclaimed, or executed remotely and
//! awaited — before its frame unwinds, panics included), which is what
//! makes the raw-pointer hand-off sound. Panics from a stolen job are
//! caught by the job itself, shipped back through the result slot, and
//! re-thrown at the joiner; workers survive them.
//!
//! Thread count resolution: the `WEC_THREADS` environment variable if set
//! (**must** be a positive integer — `0` or garbage aborts with a clear
//! message instead of silently falling back), otherwise
//! [`std::thread::available_parallelism`]. With one thread the pool spawns
//! no workers and every `join` runs inline.
//!
//! Scheduler observability: [`scheduler_stats`] exposes monotonic counters
//! (publishes by channel, steals, reclaims, blocked joins, parks) for
//! steal-rate reporting and the scheduler tests.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Capacity of each worker's deque (power of two). 256 outstanding forks
/// per worker is far beyond the `O(log n)` a balanced fork tree keeps live;
/// deeper left-leaning recursions overflow gracefully into the injector.
pub const DEQUE_CAPACITY: usize = 256;

/// The number of threads `join` may use in total (including the calling
/// thread): `WEC_THREADS` if set, else the machine's available parallelism.
///
/// # Panics
/// If `WEC_THREADS` is set to zero or to anything that does not parse as a
/// positive integer.
///
/// ```
/// assert!(rayon::current_num_threads() >= 1);
/// ```
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| match std::env::var("WEC_THREADS") {
        Ok(raw) => parse_wec_threads(&raw),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// Parse a `WEC_THREADS` value, rejecting zero and garbage loudly: a typo'd
/// thread count silently degrading to `available_parallelism` produced
/// benchmarks that measured the wrong machine.
fn parse_wec_threads(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => panic!(
            "WEC_THREADS must be a positive integer (e.g. WEC_THREADS=8), got {raw:?}; \
             unset it to use the machine's available parallelism"
        ),
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// A type-erased pointer to a [`StackJob`] on some caller's stack. The
/// publishing `join` guarantees the frame stays alive until the job is
/// either reclaimed or marked done, so shipping the raw pointer through a
/// deque or the injector is sound.
#[derive(Clone, Copy, Debug)]
struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// Safety: the pointee is a StackJob executed exactly once by whichever
// party removed the job from its queue (deque pop/steal are linearizable,
// the injector is mutex-guarded); completion is published through an
// Acquire/Release flag.
unsafe impl Send for JobRef {}

/// The right branch of a [`join`], living on the joiner's stack while a
/// worker (or the joiner itself, on reclaim) executes it.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    done: AtomicBool,
    owner: thread::Thread,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            owner: thread::current(),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            exec: Self::execute,
        }
    }

    /// Run the job and publish its result. Called exactly once, by whoever
    /// ended up owning the job (a thief or the reclaiming joiner).
    unsafe fn execute(data: *const ()) {
        let job = &*(data as *const Self);
        let func = (*job.func.get()).take().expect("job executed twice");
        let result = panic::catch_unwind(AssertUnwindSafe(func));
        if result.is_err() {
            // The worker survives; the panic ships back through the result
            // slot and re-raises in the joiner (`into_result`).
            stats().caught_panics.fetch_add(1, Ordering::Relaxed);
        }
        *job.result.get() = Some(result);
        // The joiner may observe `done` and tear down the frame immediately
        // (its wait loop polls the flag), so the store must be the last
        // touch of the job's memory: unpark through a clone of the handle.
        let owner = job.owner.clone();
        job.done.store(true, Ordering::Release);
        owner.unpark();
    }

    /// Block until a thief finishes the job: brief spin, then park (the
    /// executor unparks the owner after setting the flag; the timeout only
    /// guards against unpark races with unrelated wakeups).
    fn wait_done(&self) {
        let mut spins = 0u32;
        while !self.done.load(Ordering::Acquire) {
            if spins < 128 {
                std::hint::spin_loop();
                spins += 1;
            } else {
                thread::park_timeout(Duration::from_micros(100));
            }
        }
    }

    /// The published result; propagates the job's panic. Only valid after
    /// `execute` happened-before this call.
    fn into_result(self) -> R {
        match self.result.into_inner() {
            Some(Ok(r)) => r,
            Some(Err(payload)) => panic::resume_unwind(payload),
            None => unreachable!("job settled without a result"),
        }
    }
}

// ---------------------------------------------------------------------------
// Chase–Lev deque
// ---------------------------------------------------------------------------

/// One circular-buffer slot. A `JobRef` is two words, stored as two
/// independent relaxed atomics: a thief's speculative read of a slot that
/// the owner is concurrently recycling (possible only after other thieves
/// advanced `top` past it, i.e. only when the thief's subsequent `top` CAS
/// is guaranteed to fail and the value is discarded) is then an ordinary
/// atomic race, not UB. A *successful* CAS proves `top` never moved between
/// the reads and the claim, so no recycling push (which requires `top` to
/// have advanced to reuse the aliased index) can have interleaved: the two
/// words are consistent and belong to the claimed job.
struct Slot {
    data: AtomicPtr<()>,
    exec: AtomicPtr<()>,
}

/// A fixed-capacity Chase–Lev work-stealing deque (Chase & Lev, SPAA'05;
/// orderings after Lê et al., PPoPP'13). The owner pushes/pops at `bottom`;
/// thieves CAS `top` upward. Indices grow monotonically and are reduced
/// into the circular buffer by a power-of-two mask, so "wraparound" is pure
/// index arithmetic — slot `i` and slot `i + DEQUE_CAPACITY` alias, which
/// the `bottom − top ≤ capacity` invariant makes safe.
struct Deque {
    bottom: AtomicIsize,
    top: AtomicIsize,
    slots: Box<[Slot]>,
}

impl Deque {
    fn new() -> Self {
        Deque {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            slots: (0..DEQUE_CAPACITY)
                .map(|_| Slot {
                    data: AtomicPtr::new(std::ptr::null_mut()),
                    exec: AtomicPtr::new(std::ptr::null_mut()),
                })
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, i: isize) -> &Slot {
        &self.slots[(i as usize) & (DEQUE_CAPACITY - 1)]
    }

    #[inline]
    fn write_slot(&self, i: isize, job: JobRef) {
        let s = self.slot(i);
        s.data.store(job.data.cast_mut(), Ordering::Relaxed);
        s.exec
            .store(job.exec as usize as *mut (), Ordering::Relaxed);
    }

    #[inline]
    fn read_slot(&self, i: isize) -> JobRef {
        let s = self.slot(i);
        let data = s.data.load(Ordering::Relaxed) as *const ();
        let exec_raw = s.exec.load(Ordering::Relaxed);
        // Safety: every non-null value stored in `exec` came from an
        // `unsafe fn(*const ())` pointer in `write_slot`; callers only use
        // the result after the index claim (pop / successful steal CAS)
        // proves the pair is a valid published job.
        let exec = unsafe { std::mem::transmute::<*mut (), unsafe fn(*const ())>(exec_raw) };
        JobRef { data, exec }
    }

    /// Owner-only: push at the bottom. Fails (returning the job) when the
    /// deque holds `DEQUE_CAPACITY` unsettled jobs.
    fn push(&self, job: JobRef) -> Result<(), JobRef> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b.wrapping_sub(t) >= DEQUE_CAPACITY as isize {
            return Err(job);
        }
        self.write_slot(b, job);
        // SeqCst publish: pairs with the SeqCst fences in pop/steal and
        // with the sleeper protocol's sequentially consistent handshake.
        self.bottom.store(b.wrapping_add(1), Ordering::SeqCst);
        Ok(())
    }

    /// Owner-only: pop at the bottom (the most recently pushed job).
    fn pop(&self) -> Option<JobRef> {
        let b = self.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let job = self.read_slot(b);
            if t == b {
                // Last element: race the thieves for it.
                let won = self
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                won.then_some(job)
            } else {
                Some(job)
            }
        } else {
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            None
        }
    }

    /// Any thread: steal from the top (the oldest job). Returns `None` both
    /// when empty and when it lost a race — callers treat either as a
    /// failed probe and move on. The slot read is speculative (see [`Slot`]);
    /// the CAS validates it.
    fn steal(&self) -> Option<JobRef> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            let job = self.read_slot(t);
            if self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(job);
            }
        }
        None
    }

    /// Racy emptiness hint for the sleeper's pre-park scan.
    fn maybe_nonempty(&self) -> bool {
        self.top.load(Ordering::SeqCst) < self.bottom.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Scheduler statistics
// ---------------------------------------------------------------------------

/// Monotonic scheduler counters since process start, for steal-rate
/// reporting and scheduler tests. Snapshot via
/// [`scheduler_stats`]; subtract two snapshots for a per-phase delta.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs pushed onto a worker's own deque (the lock-free fork path).
    pub published_deque: u64,
    /// Jobs pushed onto the shared injector (external threads or
    /// overflow).
    pub published_injector: u64,
    /// Deque pushes rejected at capacity and rerouted to the injector.
    pub deque_overflows: u64,
    /// Successful steals from another worker's deque.
    pub steals: u64,
    /// Published jobs reclaimed by their joiner via deque pop.
    pub pop_reclaims: u64,
    /// Published jobs reclaimed by their joiner out of the injector.
    pub injector_reclaims: u64,
    /// Joins that had to block on a remotely executing branch.
    pub blocked_joins: u64,
    /// Times an idle worker gave up stealing and parked.
    pub parks: u64,
    /// Panics caught at a scheduler isolation boundary (a job body or an
    /// inline join branch) and held for re-raise in the joiner — the
    /// worker itself always survives.
    pub caught_panics: u64,
}

impl SchedulerStats {
    /// Counter-wise difference `self − earlier` (both from
    /// [`scheduler_stats`], `self` taken later).
    pub fn since(&self, earlier: &SchedulerStats) -> SchedulerStats {
        SchedulerStats {
            published_deque: self.published_deque - earlier.published_deque,
            published_injector: self.published_injector - earlier.published_injector,
            deque_overflows: self.deque_overflows - earlier.deque_overflows,
            steals: self.steals - earlier.steals,
            pop_reclaims: self.pop_reclaims - earlier.pop_reclaims,
            injector_reclaims: self.injector_reclaims - earlier.injector_reclaims,
            blocked_joins: self.blocked_joins - earlier.blocked_joins,
            parks: self.parks - earlier.parks,
            caught_panics: self.caught_panics - earlier.caught_panics,
        }
    }
}

/// Counter cells, cache-line padded so stripes never share a line: stats
/// bumps sit on the lock-free fork fast path and must not reintroduce the
/// cross-core cacheline ping-pong the deques removed.
#[repr(align(128))]
struct StatCells {
    published_deque: AtomicU64,
    published_injector: AtomicU64,
    deque_overflows: AtomicU64,
    steals: AtomicU64,
    pop_reclaims: AtomicU64,
    injector_reclaims: AtomicU64,
    blocked_joins: AtomicU64,
    parks: AtomicU64,
    caught_panics: AtomicU64,
}

/// Stripes: workers hash onto 1..STAT_STRIPES by index, external threads
/// share stripe 0 (they publish through the injector mutex anyway, so one
/// more shared line is not the bottleneck there).
const STAT_STRIPES: usize = 16;

#[allow(clippy::declare_interior_mutable_const)] // template for the static array below
const STAT_CELLS_ZERO: StatCells = StatCells {
    published_deque: AtomicU64::new(0),
    published_injector: AtomicU64::new(0),
    deque_overflows: AtomicU64::new(0),
    steals: AtomicU64::new(0),
    pop_reclaims: AtomicU64::new(0),
    injector_reclaims: AtomicU64::new(0),
    blocked_joins: AtomicU64::new(0),
    parks: AtomicU64::new(0),
    caught_panics: AtomicU64::new(0),
};

static STATS: [StatCells; STAT_STRIPES] = [STAT_CELLS_ZERO; STAT_STRIPES];

/// This thread's counter stripe.
#[inline]
fn stats() -> &'static StatCells {
    let idx = WORKER
        .with(Cell::get)
        .map_or(0, |w| w % (STAT_STRIPES - 1) + 1);
    &STATS[idx]
}

/// Snapshot the process-wide scheduler counters (sum over all stripes).
pub fn scheduler_stats() -> SchedulerStats {
    let mut s = SchedulerStats::default();
    for cell in &STATS {
        s.published_deque += cell.published_deque.load(Ordering::Relaxed);
        s.published_injector += cell.published_injector.load(Ordering::Relaxed);
        s.deque_overflows += cell.deque_overflows.load(Ordering::Relaxed);
        s.steals += cell.steals.load(Ordering::Relaxed);
        s.pop_reclaims += cell.pop_reclaims.load(Ordering::Relaxed);
        s.injector_reclaims += cell.injector_reclaims.load(Ordering::Relaxed);
        s.blocked_joins += cell.blocked_joins.load(Ordering::Relaxed);
        s.parks += cell.parks.load(Ordering::Relaxed);
        s.caught_panics += cell.caught_panics.load(Ordering::Relaxed);
    }
    s
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Where a `join` parked its right branch, so settle knows where to look.
enum Placement {
    Deque(usize),
    Injector,
}

struct Pool {
    /// One Chase–Lev deque per worker; `deques[i]` is owned by worker `i`.
    deques: Box<[Deque]>,
    /// Overflow / external-submission channel.
    injector: Mutex<VecDeque<JobRef>>,
    /// Sleeper handshake: `sleepers` counts workers inside the pre-park
    /// window; publishers lock `sleep` and signal `wake` only when it is
    /// nonzero, and the sleeper holds `sleep` from its final queue scan
    /// through the wait, so a concurrent notify cannot slip between them.
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
}

thread_local! {
    /// This thread's worker index, when it is a pool worker.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Pool {
    /// Publish a job: caller's own deque when the caller is a worker (the
    /// lock-free path), the injector otherwise — or on overflow.
    fn publish(&self, job: JobRef) -> Placement {
        if let Some(w) = WORKER.with(Cell::get) {
            match self.deques[w].push(job) {
                Ok(()) => {
                    stats().published_deque.fetch_add(1, Ordering::Relaxed);
                    self.notify();
                    return Placement::Deque(w);
                }
                Err(_) => {
                    stats().deque_overflows.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.injector.lock().unwrap().push_back(job);
        stats().published_injector.fetch_add(1, Ordering::Relaxed);
        self.notify();
        Placement::Injector
    }

    /// Wake one parked worker if any might be parked.
    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_one();
        }
    }

    fn pop_injector(&self) -> Option<JobRef> {
        self.injector.lock().unwrap().pop_front()
    }

    /// Remove `data`'s job from the injector if no worker has taken it yet.
    fn try_reclaim_injector(&self, data: *const ()) -> bool {
        let mut q = self.injector.lock().unwrap();
        if let Some(pos) = q.iter().position(|j| std::ptr::eq(j.data, data)) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// One full work-finding pass for worker `me`: own deque (LIFO), then
    /// the injector, then several rounds of random-victim steal probes with
    /// exponentially growing spin backoff between rounds.
    fn find_work(&self, me: usize, rng: &mut Xorshift) -> Option<JobRef> {
        if let Some(job) = self.deques[me].pop() {
            return Some(job);
        }
        if let Some(job) = self.pop_injector() {
            return Some(job);
        }
        let n = self.deques.len();
        let mut backoff_spins = 32u32;
        for _round in 0..4 {
            for _probe in 0..(2 * n) {
                let victim = (rng.next() as usize) % n;
                if victim != me {
                    if let Some(job) = self.deques[victim].steal() {
                        stats().steals.fetch_add(1, Ordering::Relaxed);
                        return Some(job);
                    }
                }
            }
            if let Some(job) = self.pop_injector() {
                return Some(job);
            }
            for _ in 0..backoff_spins {
                std::hint::spin_loop();
            }
            backoff_spins = (backoff_spins * 2).min(4096);
        }
        None
    }

    /// Racy scan used by the sleeper just before parking.
    fn work_might_exist(&self) -> bool {
        self.deques.iter().any(Deque::maybe_nonempty) || !self.injector.lock().unwrap().is_empty()
    }

    /// Park until notified. The publish/park handshake (see module docs)
    /// makes the wakeup reliable; the long timeout is purely defensive and
    /// keeps idle workers at ~10 wakeups/s instead of busy-polling.
    fn sleep(&self) {
        let guard = self.sleep.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.work_might_exist() {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        stats().parks.fetch_add(1, Ordering::Relaxed);
        let (guard, _) = self
            .wake
            .wait_timeout(guard, Duration::from_millis(100))
            .unwrap();
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn worker_loop(&self, me: usize) {
        WORKER.with(|w| w.set(Some(me)));
        let mut rng = Xorshift::new(0x9e37_79b9 ^ (me as u64 + 1));
        loop {
            match self.find_work(me, &mut rng) {
                // The job catches its own panics, so the worker survives.
                Some(job) => unsafe { (job.exec)(job.data) },
                None => self.sleep(),
            }
        }
    }
}

/// Deterministically seeded xorshift64* for steal-victim probing. Victim
/// choice only perturbs execution order, never accounting, so a fixed seed
/// per worker is fine (and keeps runs reproducible-ish for debugging).
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The process-wide pool: `threads − 1` detached workers, spawned on first
/// use. `None` when the configuration is single-threaded.
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = current_num_threads().saturating_sub(1);
        if workers == 0 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            deques: (0..workers).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }));
        for i in 0..workers {
            thread::Builder::new()
                .name(format!("wec-rayon-{i}"))
                .spawn(move || pool.worker_loop(i))
                .expect("spawning pool worker");
        }
        Some(pool)
    })
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// Run both closures, potentially in parallel, and return both results.
///
/// Matches `rayon::join`'s contract: `oper_a` and `oper_b` may run on
/// different threads; panics propagate to the caller. The right branch is
/// the one published for stealing (pushed onto the calling worker's deque,
/// or the injector from non-worker threads); the left branch runs inline.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let Some(pool) = pool() else {
        return (oper_a(), oper_b());
    };
    let job = StackJob::new(oper_b);
    let job_ref = job.as_job_ref();
    let placement = pool.publish(job_ref);
    // Run the left branch inline; even if it panics, the published job must
    // be settled (reclaimed or awaited) before this frame unwinds, because
    // a thief may hold a pointer into it.
    let ra = panic::catch_unwind(AssertUnwindSafe(oper_a));
    if ra.is_err() {
        stats().caught_panics.fetch_add(1, Ordering::Relaxed);
    }
    let reclaimed = match placement {
        Placement::Deque(w) => match pool.deques[w].pop() {
            Some(popped) => {
                // Every job this thread pushed after ours was settled by
                // its own (nested, already returned) join, so the bottom of
                // our deque can only be our job.
                assert!(
                    std::ptr::eq(popped.data, job_ref.data),
                    "deque LIFO discipline violated: reclaimed a foreign job"
                );
                stats().pop_reclaims.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        },
        Placement::Injector => {
            let got = pool.try_reclaim_injector(job_ref.data);
            if got {
                stats().injector_reclaims.fetch_add(1, Ordering::Relaxed);
            }
            got
        }
    };
    if reclaimed {
        match ra {
            // Nobody else references the job: run it inline.
            Ok(ra) => {
                unsafe { StackJob::<B, RB>::execute(job_ref.data) };
                (ra, job.into_result())
            }
            // The left branch panicked; drop the never-run right branch.
            Err(payload) => panic::resume_unwind(payload),
        }
    } else {
        stats().blocked_joins.fetch_add(1, Ordering::Relaxed);
        job.wait_done();
        match ra {
            Ok(ra) => (ra, job.into_result()),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// Every test forces an 8-thread pool *before* first pool use, so the
    /// scheduler tests exercise real workers and steals even on a 1-core
    /// CI container. (Thread-count resolution is process-wide and
    /// latched on first use; the unit-test binary is its own process.)
    fn setup() {
        static INIT: std::sync::Once = std::sync::Once::new();
        INIT.call_once(|| std::env::set_var("WEC_THREADS", "8"));
        assert_eq!(current_num_threads(), 8, "another init won the race");
    }

    /// Serializes the tests that assert on the process-global scheduler
    /// counters: run concurrently they would perturb each other's stat
    /// deltas (the counters are global).
    static STATS_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn stats_test_guard() -> std::sync::MutexGuard<'static, ()> {
        STATS_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // -- WEC_THREADS parsing -------------------------------------------------

    #[test]
    fn wec_threads_parses_positive_integers() {
        assert_eq!(parse_wec_threads("1"), 1);
        assert_eq!(parse_wec_threads(" 16 "), 16);
    }

    #[test]
    #[should_panic(expected = "WEC_THREADS must be a positive integer")]
    fn wec_threads_rejects_zero() {
        parse_wec_threads("0");
    }

    #[test]
    #[should_panic(expected = "WEC_THREADS must be a positive integer")]
    fn wec_threads_rejects_garbage() {
        parse_wec_threads("eight");
    }

    #[test]
    #[should_panic(expected = "WEC_THREADS must be a positive integer")]
    fn wec_threads_rejects_negative() {
        parse_wec_threads("-2");
    }

    // -- deque unit tests ----------------------------------------------------

    fn dummy_job(tag: usize) -> JobRef {
        unsafe fn never_run(_: *const ()) {
            unreachable!("dummy job executed");
        }
        JobRef {
            data: tag as *const (),
            exec: never_run,
        }
    }

    #[test]
    fn deque_rejects_push_at_capacity_and_recovers() {
        let d = Deque::new();
        for i in 0..DEQUE_CAPACITY {
            assert!(d.push(dummy_job(i + 1)).is_ok(), "push {i}");
        }
        assert!(d.push(dummy_job(999)).is_err(), "capacity must reject");
        // Draining one slot makes room again.
        assert!(d.pop().is_some());
        assert!(d.push(dummy_job(1000)).is_ok());
    }

    #[test]
    fn deque_pop_is_lifo_and_steal_is_fifo() {
        let d = Deque::new();
        for i in 1..=4 {
            d.push(dummy_job(i)).unwrap();
        }
        assert_eq!(d.steal().unwrap().data as usize, 1, "steal takes oldest");
        assert_eq!(d.pop().unwrap().data as usize, 4, "pop takes newest");
        assert_eq!(d.steal().unwrap().data as usize, 2);
        assert_eq!(d.pop().unwrap().data as usize, 3);
        assert!(d.pop().is_none());
        assert!(d.steal().is_none());
    }

    #[test]
    fn deque_indices_wrap_around_capacity_many_times() {
        // Drive bottom/top 16 capacities past the buffer length so every
        // slot is reused through the mask, alternating pop- and steal-side
        // drains to move both indices.
        let d = Deque::new();
        let mut next_tag = 1usize;
        for round in 0..16 * DEQUE_CAPACITY {
            d.push(dummy_job(next_tag)).unwrap();
            d.push(dummy_job(next_tag + 1)).unwrap();
            if round % 2 == 0 {
                assert_eq!(d.pop().unwrap().data as usize, next_tag + 1);
                assert_eq!(d.steal().unwrap().data as usize, next_tag);
            } else {
                assert_eq!(d.steal().unwrap().data as usize, next_tag);
                assert_eq!(d.steal().unwrap().data as usize, next_tag + 1);
            }
            next_tag += 2;
        }
        assert!(d.pop().is_none());
    }

    #[test]
    fn deque_concurrent_owner_and_thieves_partition_the_jobs() {
        // One owner pushes/pops while two thieves steal; every pushed tag
        // must be consumed by exactly one party.
        const PER_ROUND: usize = 64;
        const ROUNDS: usize = 200;
        let d = Deque::new();
        let stolen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let stop = AtomicBool::new(false);
        let mut owned: Vec<usize> = Vec::new();
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Acquire) {
                        if let Some(j) = d.steal() {
                            stolen.lock().unwrap().push(j.data as usize);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let mut tag = 1usize;
            for _ in 0..ROUNDS {
                for _ in 0..PER_ROUND {
                    // Tags are never 0, so `data as usize` is unambiguous.
                    d.push(dummy_job(tag)).unwrap();
                    tag += 1;
                }
                while let Some(j) = d.pop() {
                    owned.push(j.data as usize);
                }
            }
            stop.store(true, Ordering::Release);
        });
        let mut all = owned;
        all.extend(stolen.into_inner().unwrap());
        all.sort_unstable();
        let expect: Vec<usize> = (1..=PER_ROUND * ROUNDS).collect();
        assert_eq!(all, expect, "every job consumed exactly once");
    }

    // -- join behavior -------------------------------------------------------

    #[test]
    fn join_returns_both_results_in_order() {
        setup();
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn deep_nesting_does_not_explode() {
        setup();
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
            a + b
        }
        assert_eq!(sum(0, 100_000), 100_000 * 99_999 / 2);
    }

    #[test]
    fn left_leaning_recursion_overflows_into_injector() {
        setup();
        // Each frame publishes a tiny right branch and recurses in the
        // left, keeping ~DEPTH jobs outstanding at once — far past
        // DEQUE_CAPACITY. To make the overflow deterministic the 6 other
        // workers are pinned in spin jobs first (idle thieves would drain
        // the tiny jobs as fast as the chain pushes them), and the chain
        // starts only once all 6 spinners run on pool workers, so the
        // chain's worker must reroute the excess to the injector.
        const DEPTH: usize = 3 * DEQUE_CAPACITY;
        const WORKERS: usize = 7; // WEC_THREADS(8) − 1
        fn chain(depth: usize, acc: &AtomicUsize) {
            if depth == 0 {
                return;
            }
            join(
                || chain(depth - 1, acc),
                || {
                    acc.fetch_add(1, Ordering::Relaxed);
                },
            );
        }
        /// join whose published branch provably starts before the inline
        /// branch returns (or a 5 s timeout passes), forcing remote
        /// execution on an otherwise-idle pool.
        fn run_remote(body: impl FnOnce() + Send) {
            let started = AtomicBool::new(false);
            join(
                || {
                    let t0 = Instant::now();
                    while !started.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(5)
                    {
                        thread::yield_now();
                    }
                },
                || {
                    started.store(true, Ordering::Release);
                    body();
                },
            );
        }
        fn on_pool_worker() -> bool {
            thread::current()
                .name()
                .unwrap_or("")
                .starts_with("wec-rayon-")
        }
        let _serial = stats_test_guard();
        let release = AtomicBool::new(false);
        let pinned = AtomicUsize::new(0);
        let on_worker = AtomicBool::new(false);
        let acc = AtomicUsize::new(0);
        let before = scheduler_stats();
        thread::scope(|s| {
            for _ in 0..WORKERS - 1 {
                s.spawn(|| {
                    run_remote(|| {
                        if on_pool_worker() {
                            pinned.fetch_add(1, Ordering::AcqRel);
                        }
                        while !release.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                    });
                });
            }
            let t0 = Instant::now();
            while pinned.load(Ordering::Acquire) < WORKERS - 1 {
                if t0.elapsed() > Duration::from_secs(5) {
                    release.store(true, Ordering::Release);
                    panic!(
                        "only {} of {} spinners pinned on pool workers within 5 s",
                        pinned.load(Ordering::Acquire),
                        WORKERS - 1
                    );
                }
                thread::yield_now();
            }
            run_remote(|| {
                if on_pool_worker() {
                    on_worker.store(true, Ordering::Release);
                }
                chain(DEPTH, &acc);
                release.store(true, Ordering::Release);
            });
            // If the chain fell back to inline execution (timeout path),
            // unpin the spinners ourselves.
            release.store(true, Ordering::Release);
        });
        assert_eq!(acc.load(Ordering::Relaxed), DEPTH);
        if on_worker.load(Ordering::Acquire) {
            let delta = scheduler_stats().since(&before);
            assert!(
                delta.deque_overflows > 0,
                "a {DEPTH}-deep left-leaning chain on a worker with no \
                 active thieves must overflow its {DEQUE_CAPACITY}-slot \
                 deque (delta: {delta:?})"
            );
        }
    }

    #[test]
    fn forced_contention_many_tiny_joins_stays_correct() {
        setup();
        // Satellite requirement: steal correctness under forced contention —
        // several external threads each drive bursts of tiny fan-out trees
        // through the 8-thread pool concurrently, so deques, the injector,
        // steals, and reclaims all interleave. Every leaf must be counted
        // exactly once.
        fn fan(lo: u64, hi: u64, hits: &AtomicUsize) -> u64 {
            if hi - lo <= 2 {
                hits.fetch_add((hi - lo) as usize, Ordering::Relaxed);
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| fan(lo, mid, hits), || fan(mid, hi, hits));
            a + b
        }
        let hits = AtomicUsize::new(0);
        let total = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        total.fetch_add(fan(0, 512, &hits), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4 * 50 * 512);
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * (511 * 512 / 2));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate_from_left_branch() {
        setup();
        let _ = join(|| panic!("boom"), || 0);
    }

    #[test]
    #[should_panic(expected = "right boom")]
    fn panics_propagate_from_published_branch() {
        setup();
        let _ = join(|| 7, || panic!("right boom"));
    }

    #[test]
    fn caught_panics_counter_observes_isolation_boundary() {
        setup();
        let before = scheduler_stats();
        // Panics in either branch are caught at the scheduler boundary
        // (and re-raised to this caller); the pool must both survive and
        // count them.
        for i in 0..4u32 {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                join(
                    || {
                        if i % 2 == 0 {
                            panic!("left fault")
                        }
                    },
                    || {
                        if i % 2 == 1 {
                            panic!("right fault")
                        }
                    },
                )
            }));
            assert!(result.is_err(), "branch panic must re-raise at the join");
        }
        let delta = scheduler_stats().since(&before);
        assert!(
            delta.caught_panics >= 4,
            "4 faulted joins must be counted, saw {}",
            delta.caught_panics
        );
        // The pool still schedules normally afterwards.
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn panic_from_remotely_executed_job_propagates() {
        setup();
        // Force the published (right) branch to run on another thread: the
        // left branch refuses to finish until the right one has started,
        // so reclaim cannot win unless the wait times out (in which case
        // the panic still must propagate — just via the inline path).
        let mut remote_observed = false;
        for _ in 0..20 {
            let started = AtomicBool::new(false);
            let remote = AtomicBool::new(false);
            let caller = thread::current().id();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                join(
                    || {
                        let t0 = Instant::now();
                        while !started.load(Ordering::Acquire)
                            && t0.elapsed() < Duration::from_secs(2)
                        {
                            thread::yield_now();
                        }
                    },
                    || {
                        if thread::current().id() != caller {
                            remote.store(true, Ordering::Release);
                        }
                        started.store(true, Ordering::Release);
                        panic!("stolen boom");
                    },
                )
            }));
            let payload = result.expect_err("the published branch panicked");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "stolen boom", "panic payload must round-trip");
            remote_observed |= remote.load(Ordering::Acquire);
        }
        assert!(
            remote_observed,
            "in 20 attempts on an 8-thread pool, at least one published \
             branch should have executed remotely"
        );
    }

    #[test]
    fn nested_join_reentrancy_on_workers() {
        setup();
        // Joins nested three deep, re-entered from whatever thread executes
        // each published branch (workers included): results must compose in
        // order at every level.
        let out: Vec<(u32, u32)> = (0..64u32)
            .map(|i| {
                let ((a, b), (c, d)) = join(
                    || join(|| i, || i + 1),
                    || join(|| i + 2, || join(|| i + 3, || i + 4).0 + 1),
                );
                assert_eq!((a, b, c), (i, i + 1, i + 2));
                (a + b, c + d)
            })
            .collect();
        for (i, &(ab, cd)) in out.iter().enumerate() {
            let i = i as u32;
            assert_eq!(ab, 2 * i + 1);
            assert_eq!(cd, 2 * i + 6);
        }
    }

    #[test]
    fn steals_and_deque_publishes_actually_happen() {
        setup();
        // A long-running saturating workload on an 8-thread pool must
        // exercise the work-stealing fast path: jobs published to worker
        // deques and at least one successful steal. (External submissions
        // from this test thread go through the injector; the nested splits
        // running on workers use their deques.)
        let _serial = stats_test_guard();
        let before = scheduler_stats();
        fn busy(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 8 {
                // enough per-leaf work that thieves have time to engage
                return (lo..hi).map(|x| x.wrapping_mul(x) % 1023).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| busy(lo, mid), || busy(mid, hi));
            a + b
        }
        let mut acc = 0u64;
        for _ in 0..20 {
            acc = acc.wrapping_add(busy(0, 4096));
        }
        assert!(acc > 0);
        let delta = scheduler_stats().since(&before);
        assert!(
            delta.published_deque > 0,
            "worker-side joins must publish to deques: {delta:?}"
        );
        assert!(
            delta.steals + delta.blocked_joins > 0,
            "a saturating workload must show cross-thread activity: {delta:?}"
        );
    }

    #[test]
    fn branches_run_only_inline_or_on_pool_workers() {
        setup();
        // A published right branch must execute either on the joining
        // thread itself (inline / reclaimed) or on one of the named
        // persistent workers — never on an ad-hoc spawned thread.
        let caller = thread::current().id();
        for _ in 0..256 {
            let ((), (id, name)) = join(std::thread::yield_now, || {
                let t = thread::current();
                (t.id(), t.name().unwrap_or("").to_string())
            });
            assert!(
                id == caller || name.starts_with("wec-rayon-"),
                "right branch ran on unexpected thread {name:?}"
            );
        }
    }
}
