//! Per-worker pools of reusable symmetric-memory buffers.
//!
//! The paper's queries run in one small symmetric scratchpad that is
//! reused from query to query. Here that scratchpad is a set of hash maps
//! and vectors, kept in a thread-local stack per buffer-set type: [`take`]
//! pops a set (or makes an empty one), [`give`] clears it and pushes it
//! back. A stack, not a single slot, so users may nest — a ρ evaluation
//! inside cluster enumeration, a search over an implicit graph whose
//! neighbor queries run searches of their own, or the two local graphs a
//! §5.3 query holds at once.
//!
//! Every kernel that works in symmetric memory draws from here: the ρ
//! search and cluster enumeration (`wec-core`), the §5.3 local-graph
//! kernel — local graphs, their CSR, Hopcroft–Tarjan and the BCC analysis
//! (`wec-biconnectivity`) — and the adjacency sort inside `Csr`'s builders
//! (`wec-graph`). Types whose values are handed to callers give their
//! buffers back in `Drop`, so a steady stream of queries allocates
//! nothing once the pools are warm.
//!
//! The pool is wall-clock plumbing only. Charged costs come from the
//! model's explicit `op`/`sym_alloc` calls and never from allocator
//! behavior, so reuse changes no [`crate::Costs`] and no `sym_peak`.
//!
//! A pool grows only when more sets are live at once than it holds, so a
//! thread that drops the values it makes never pools more sets than it had
//! live; and a buffer whose capacity exceeds [`SCRATCH_CAP`] elements is
//! dropped rather than pooled: otherwise one query over a huge component
//! would make every later `clear` of a hash map O(capacity), and the pools
//! would pin its memory for the thread's lifetime.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::thread::LocalKey;

/// Largest element capacity a pooled buffer may keep.
pub const SCRATCH_CAP: usize = 1 << 12;

/// A thread-local stack of buffer sets.
pub type Pool<T> = RefCell<Vec<T>>;

/// A buffer that can be emptied for reuse.
pub trait Recycle {
    /// Empty the buffer, dropping its storage if it grew past
    /// [`SCRATCH_CAP`].
    fn clear_capped(&mut self);

    /// The largest element capacity among the storage held: at most
    /// [`SCRATCH_CAP`] once [`Recycle::clear_capped`] has run.
    fn largest_capacity(&self) -> usize;
}

impl<T> Recycle for Vec<T> {
    fn clear_capped(&mut self) {
        if self.capacity() > SCRATCH_CAP {
            *self = Vec::new();
        } else {
            self.clear();
        }
    }

    fn largest_capacity(&self) -> usize {
        self.capacity()
    }
}

impl<K, V, S: BuildHasher + Default> Recycle for HashMap<K, V, S> {
    fn clear_capped(&mut self) {
        if self.capacity() > SCRATCH_CAP {
            *self = HashMap::default();
        } else {
            self.clear();
        }
    }

    fn largest_capacity(&self) -> usize {
        self.capacity()
    }
}

impl<T, S: BuildHasher + Default> Recycle for HashSet<T, S> {
    fn clear_capped(&mut self) {
        if self.capacity() > SCRATCH_CAP {
            *self = HashSet::default();
        } else {
            self.clear();
        }
    }

    fn largest_capacity(&self) -> usize {
        self.capacity()
    }
}

/// Implement [`Recycle`] for a struct whose listed fields are all
/// [`Recycle`]: each is emptied and capped, and the scalars after `reset`
/// go back to their defaults.
///
/// ```
/// # use wec_asym::recycle_fields;
/// #[derive(Default)]
/// struct Buffers {
///     stack: Vec<u32>,
///     seen: wec_asym::FxHashSet<u32>,
///     depth: usize,
/// }
/// recycle_fields!(Buffers { stack, seen } reset { depth });
/// ```
#[macro_export]
macro_rules! recycle_fields {
    ($t:ty { $($f:ident),+ $(,)? } $(reset { $($s:ident),+ $(,)? })?) => {
        impl $crate::scratch::Recycle for $t {
            fn clear_capped(&mut self) {
                $($crate::scratch::Recycle::clear_capped(&mut self.$f);)+
                $($(self.$s = Default::default();)+)?
            }

            fn largest_capacity(&self) -> usize {
                0 $(.max($crate::scratch::Recycle::largest_capacity(&self.$f)))+
            }
        }
    };
}

/// Pop an empty buffer set from this thread's pool, or make a new one.
/// The pool's borrow ends before this returns, so nothing is borrowed
/// while the caller works (queries run under `catch_unwind` in the
/// serving layer).
pub fn take<T: Default>(pool: &'static LocalKey<Pool<T>>) -> T {
    pool.try_with(|p| p.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Empty `set` and return it to this thread's pool. During thread
/// teardown the set is simply dropped.
pub fn give<T: Recycle>(pool: &'static LocalKey<Pool<T>>, mut set: T) {
    set.clear_capped();
    let _ = pool.try_with(|p| p.borrow_mut().push(set));
}
