//! First-class operations for the batched-execution API.
//!
//! Every method on [`ConcurrentIndex`] describes a
//! *single* trip into the index: one traversal, one epoch pin, one lock
//! protocol run.  Some callers hold *many* operations at once — a network
//! server draining a pipelined connection window (`bskip-net` folds each
//! run of point requests between a window's scans into one batch), and
//! `ShardedIndex`, which splits such a batch per shard — and hand them
//! over in one call, so that an index can share per-call work, such as
//! the B-skiplist's epoch pin, across them.  This module defines the
//! vocabulary for that bulk path:
//!
//! * [`Op`] — one dictionary operation (`Get`, `Insert`, `Remove`)
//!   carrying its own [`OpResult`] slot, so a batch is just
//!   `&mut [Op<K, V>]` and results come back in place;
//! * [`OpResult`] — `Pending` until executed, then `Value(previous)` or
//!   [`OpResult::Missing`] with the same meaning the point methods give
//!   `Option<V>`;
//! * [`with_scratch`] — per-batch scratch that stays on the stack for
//!   batches of up to [`STACK_SCRATCH`] operations.
//!
//! # Semantics
//!
//! A batch executed through `execute` is **observationally equivalent to
//! applying its operations in slot order**, one linearizable point
//! operation each; it is *not* atomic as a whole (operations from
//! concurrent threads may interleave between — never inside — the batch's
//! operations).  Implementations may reorder operations on *distinct* keys
//! (dictionary operations on different keys commute), but must preserve
//! the relative order of operations on the *same* key.  Reordering alone
//! buys nothing: the same point methods called in key order measured
//! slower than in slot order on the tree baselines and no better overall
//! on the skiplists, so every index here applies its batches in slot
//! order.
//!
//! `Insert` is an upsert returning the previous value — the same semantics
//! as [`ConcurrentIndex::insert`].

use crate::{ConcurrentIndex, IndexKey, IndexValue};

/// Outcome slot of one [`Op`]: unexecuted, or the `Option<V>` the
/// corresponding point method would have returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpResult<V> {
    /// The operation has not been executed yet.
    #[default]
    Pending,
    /// The operation observed this value: the current value for a get, the
    /// displaced previous value for an insert, the removed value for a
    /// remove.
    Value(V),
    /// The key was absent: a miss for a get/remove, a fresh insertion for
    /// an insert.
    Missing,
}

impl<V: Copy> OpResult<V> {
    /// The executed result as the `Option<V>` the point method would have
    /// returned; `None` also for [`OpResult::Pending`] (use
    /// [`OpResult::is_executed`] to distinguish).
    pub fn value(&self) -> Option<V> {
        match self {
            OpResult::Value(value) => Some(*value),
            OpResult::Pending | OpResult::Missing => None,
        }
    }

    /// Whether the operation has been executed.
    pub fn is_executed(&self) -> bool {
        !matches!(self, OpResult::Pending)
    }
}

impl<V> From<Option<V>> for OpResult<V> {
    fn from(value: Option<V>) -> Self {
        match value {
            Some(value) => OpResult::Value(value),
            None => OpResult::Missing,
        }
    }
}

/// One dictionary operation of a batch, with an in-place result slot.
///
/// Construct with [`Op::get`], [`Op::insert`] or [`Op::remove`]; execute
/// through [`ConcurrentIndex::execute`]; read the outcome back with
/// [`Op::result`].
///
/// ```
/// use bskip_index::{ConcurrentIndex, Op, OpResult};
/// # use std::collections::BTreeMap;
/// # use std::sync::Mutex;
/// # struct Map(Mutex<BTreeMap<u64, u64>>);
/// # impl ConcurrentIndex<u64, u64> for Map {
/// #     fn insert(&self, k: u64, v: u64) -> Option<u64> { self.0.lock().unwrap().insert(k, v) }
/// #     fn get(&self, k: &u64) -> Option<u64> { self.0.lock().unwrap().get(k).copied() }
/// #     fn remove(&self, k: &u64) -> Option<u64> { self.0.lock().unwrap().remove(k) }
/// #     fn len(&self) -> usize { self.0.lock().unwrap().len() }
/// #     fn name(&self) -> &'static str { "map" }
/// #     fn scan_bounds(
/// #         &self,
/// #         lo: std::ops::Bound<u64>,
/// #         hi: std::ops::Bound<u64>,
/// #     ) -> bskip_index::Cursor<'_, u64, u64> {
/// #         bskip_index::Cursor::new(bskip_index::BatchCursor::new(
/// #             lo,
/// #             hi,
/// #             8,
/// #             Box::new(move |from, max, out| {
/// #                 out.extend(
/// #                     self.0.lock().unwrap()
/// #                         .range((from, std::ops::Bound::Unbounded))
/// #                         .take(max)
/// #                         .map(|(k, v)| (*k, *v)),
/// #                 )
/// #             }),
/// #         ))
/// #     }
/// # }
/// # let index = Map(Mutex::new(BTreeMap::new()));
/// let mut batch = vec![Op::insert(1, 10), Op::insert(2, 20), Op::get(1), Op::remove(2)];
/// index.execute(&mut batch);
/// assert_eq!(batch[2].result().value(), Some(10));
/// assert_eq!(batch[3].result().value(), Some(20));
/// assert_eq!(*batch[0].result(), OpResult::Missing); // freshly inserted
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<K, V> {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: K,
        /// Result slot.
        result: OpResult<V>,
    },
    /// Upsert of a (possibly new) record.
    Insert {
        /// Key to insert.
        key: K,
        /// Value to store.
        value: V,
        /// Result slot (the displaced previous value, if any).
        result: OpResult<V>,
    },
    /// Removal.
    Remove {
        /// Key to remove.
        key: K,
        /// Result slot (the removed value, if any).
        result: OpResult<V>,
    },
}

impl<K: IndexKey, V: IndexValue> Op<K, V> {
    /// A pending point lookup of `key`.
    pub fn get(key: K) -> Self {
        Op::Get {
            key,
            result: OpResult::Pending,
        }
    }

    /// A pending upsert of `key → value`.
    pub fn insert(key: K, value: V) -> Self {
        Op::Insert {
            key,
            value,
            result: OpResult::Pending,
        }
    }

    /// A pending removal of `key`.
    pub fn remove(key: K) -> Self {
        Op::Remove {
            key,
            result: OpResult::Pending,
        }
    }

    /// The key this operation targets.
    pub fn key(&self) -> &K {
        match self {
            Op::Get { key, .. } | Op::Insert { key, .. } | Op::Remove { key, .. } => key,
        }
    }

    /// The operation's result slot.
    pub fn result(&self) -> &OpResult<V> {
        match self {
            Op::Get { result, .. } | Op::Insert { result, .. } | Op::Remove { result, .. } => {
                result
            }
        }
    }

    /// Executes this operation through the index's point methods, storing
    /// the outcome in the result slot: the building block of the provided
    /// [`ConcurrentIndex::execute`] default.
    pub fn apply_point<I>(&mut self, index: &I)
    where
        I: ConcurrentIndex<K, V> + ?Sized,
    {
        match self {
            Op::Get { key, result } => *result = index.get(key).into(),
            Op::Insert { key, value, result } => *result = index.insert(*key, *value).into(),
            Op::Remove { key, result } => *result = index.remove(key).into(),
        }
    }
}

/// Batches of at most this many operations keep their per-batch scratch
/// on the stack (see [`with_scratch`]): it covers a network server's
/// 32-request windows.
pub const STACK_SCRATCH: usize = 64;

/// Runs `work` over `len` copies of `fill` — a stack array when `len` is
/// at most [`STACK_SCRATCH`], a `Vec` above that — so that a batch path
/// sizes its scratch per call without a heap allocation for the batches
/// it usually sees.
pub fn with_scratch<T: Copy, R>(len: usize, fill: T, work: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= STACK_SCRATCH {
        work(&mut [fill; STACK_SCRATCH][..len])
    } else {
        work(&mut vec![fill; len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_start_pending() {
        let ops: [Op<u64, u64>; 4] = [
            Op::get(1),
            Op::insert(2, 20),
            Op::insert(3, 30),
            Op::remove(4),
        ];
        for op in &ops {
            assert_eq!(*op.result(), OpResult::Pending);
            assert!(!op.result().is_executed());
            assert_eq!(op.result().value(), None);
        }
        assert_eq!(*ops[0].key(), 1);
        assert_eq!(*ops[3].key(), 4);
    }

    #[test]
    fn op_result_from_option() {
        assert_eq!(OpResult::from(Some(7u64)), OpResult::Value(7));
        assert_eq!(OpResult::<u64>::from(None), OpResult::Missing);
        assert_eq!(OpResult::Value(7u64).value(), Some(7));
        assert_eq!(OpResult::<u64>::Missing.value(), None);
        assert!(OpResult::<u64>::Missing.is_executed());
    }

    #[test]
    fn scratch_has_the_asked_length_on_both_sides_of_the_stack_bound() {
        for len in [0, 1, STACK_SCRATCH, STACK_SCRATCH + 1, 300] {
            let sum = with_scratch(len, 2u32, |scratch| {
                assert_eq!(scratch.len(), len);
                scratch.iter().sum::<u32>()
            });
            assert_eq!(sum, 2 * len as u32);
        }
    }
}
