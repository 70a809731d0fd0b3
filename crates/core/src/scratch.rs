//! Per-worker pools of reusable search buffers.
//!
//! The paper's `ρ` evaluation runs in one small symmetric scratchpad that
//! is reused from query to query. Here that scratchpad is a set of hash
//! maps and vectors, kept in a thread-local stack per buffer-set type:
//! [`take`] pops a set (or makes an empty one), [`give`] clears it and
//! pushes it back. A stack, not a single slot, so searches may nest — a
//! ρ evaluation inside cluster enumeration, or a search over an implicit
//! graph whose neighbor queries run searches of their own.
//!
//! The pool is wall-clock plumbing only. Charged costs come from the
//! model's explicit `op`/`sym_alloc` calls and never from allocator
//! behavior, so reuse changes no `Costs` and no `sym_peak`.
//!
//! A thread's pool never holds more sets than it had searches live at
//! once, and a buffer whose capacity exceeds [`SCRATCH_CAP`] elements is
//! dropped rather than pooled: otherwise one search that exhausts a huge
//! component would make every later `clear` of a hash map O(capacity).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::thread::LocalKey;

/// Largest element capacity a pooled buffer may keep.
pub(crate) const SCRATCH_CAP: usize = 1 << 12;

/// A thread-local stack of buffer sets.
pub(crate) type Pool<T> = RefCell<Vec<T>>;

/// A buffer that can be emptied for reuse.
pub(crate) trait Recycle {
    /// Empty the buffer, dropping its storage if it grew past
    /// [`SCRATCH_CAP`].
    fn clear_capped(&mut self);
}

impl<T> Recycle for Vec<T> {
    fn clear_capped(&mut self) {
        if self.capacity() > SCRATCH_CAP {
            *self = Vec::new();
        } else {
            self.clear();
        }
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
}

impl<T, S: BuildHasher + Default> Recycle for HashSet<T, S> {
    fn clear_capped(&mut self) {
        if self.capacity() > SCRATCH_CAP {
            *self = HashSet::default();
        } else {
            self.clear();
        }
    }
}

/// Pop an empty buffer set from this thread's pool, or make a new one.
/// The pool's borrow ends before this returns, so nothing is borrowed
/// while the caller searches (searches run under `catch_unwind` in the
/// serving layer).
pub(crate) fn take<T: Default>(pool: &'static LocalKey<Pool<T>>) -> T {
    pool.try_with(|p| p.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Empty `set` and return it to this thread's pool. During thread
/// teardown the set is simply dropped.
pub(crate) fn give<T: Recycle>(pool: &'static LocalKey<Pool<T>>, mut set: T) {
    set.clear_capped();
    let _ = pool.try_with(|p| p.borrow_mut().push(set));
}
