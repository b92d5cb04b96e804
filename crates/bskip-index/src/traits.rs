//! The concurrent ordered-map interface every index implements.

use std::ops::{Bound, RangeBounds};

use crate::cursor::{clone_bound, Cursor};
use crate::ops::Op;
use crate::{IndexKey, IndexStats, IndexValue};

/// A concurrent ordered key-value dictionary.
///
/// This is the operation set of Section 2 of the paper — exactly the
/// operations that the YCSB workloads exercise:
///
/// * `find(k)` → [`ConcurrentIndex::get`]
/// * `insert(k, v)` → [`ConcurrentIndex::insert`]
/// * `range(k, f, length)` → [`ConcurrentIndex::scan`] (cursors), with
///   [`ConcurrentIndex::range`] kept as a compatibility shim
///
/// plus `remove`, which the paper describes as symmetric to insert.  All
/// methods take `&self` and must be safe to call from many threads
/// simultaneously; implementations provide their own concurrency control
/// (version-validated optimistic descents plus write locks only at the
/// levels an operation modifies for the B-skiplist, CAS for the lock-free
/// skiplist, OCC for the B+-tree, ...).
///
/// # Batched execution
///
/// [`ConcurrentIndex::execute`] is the bulk entry point: it applies a whole
/// slice of [`Op`]s (`Get`/`Insert`/`Remove`, each carrying its own
/// result slot) in one call.  The provided default simply loops over
/// the point methods, so every implementation supports batches out of the
/// box; the B-skiplist overrides it only to pin its epoch collector
/// **once** around the same point operations, and the baselines keep the
/// default.  See [`crate::ops`] for the equivalence contract batches must
/// satisfy.
///
/// # Scanning
///
/// Range scans are expressed through **forward cursors**: the one required
/// scan primitive is [`ConcurrentIndex::scan_bounds`], which opens a
/// [`Cursor`] over an explicit pair of [`Bound`]s.  Everything else is
/// provided on top of it:
///
/// * [`ConcurrentIndex::scan`] accepts any [`RangeBounds`] expression
///   (`a..b`, `a..=b`, `a..`, `..`), so `index.scan(10..20)` just works;
/// * [`ConcurrentIndex::range`] — the paper's callback operation — is a
///   provided method that drives a cursor; implementations no longer
///   override it.
///
/// Implementations that can pause mid-traversal (the B-skiplist walks leaf
/// nodes and snapshots one locked node at a time) provide native cursors;
/// the others adapt their traversal with [`crate::BatchCursor`].  See
/// [`crate::cursor`] for the consistency contract cursors provide under
/// concurrent mutation.
pub trait ConcurrentIndex<K: IndexKey, V: IndexValue>: Send + Sync {
    /// Inserts `key → value`.  Returns the previous value if the key was
    /// already present (in which case the value is overwritten, matching the
    /// YCSB "insert/update" semantics).
    fn insert(&self, key: K, value: V) -> Option<V>;

    /// Point lookup: returns the value associated with `key`, if any.
    fn get(&self, key: &K) -> Option<V>;

    /// Whether `key` is present.
    ///
    /// Provided on top of [`ConcurrentIndex::get`]; indices with a cheaper
    /// existence check may override it.
    fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Executes a batch of operations, writing each outcome into the
    /// operation's own [`crate::OpResult`] slot.
    ///
    /// The batch behaves exactly as if its operations were applied in slot
    /// order, one linearizable point operation each (operations from other
    /// threads may interleave *between* them — the batch is a throughput
    /// construct, not a transaction).  The provided default does literally
    /// that; overrides may share per-call work such as an epoch pin, and
    /// may reorder operations on distinct keys but must preserve the
    /// relative order of operations on the same key (see [`crate::ops`]).
    fn execute(&self, ops: &mut [Op<K, V>]) {
        for op in ops.iter_mut() {
            op.apply_point(self);
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// The YCSB core workloads used in the paper (Load, A, B, C, E) never
    /// delete, but the workspace's delete-churn workloads (D, churn) do —
    /// so removal must be *physical*: every index unlinks removed nodes
    /// and retires them to an epoch-based collector
    /// ([`bskip_sync::EbrCollector`]) — the skiplists per emptied node or
    /// tower, the tree indices through underflow rebalancing (sibling
    /// borrow/merge and root collapse) — keeping steady-state memory
    /// bounded under any mix.  Indices surface the collector's counters
    /// and their live structural node count (`live_nodes`) through
    /// [`ConcurrentIndex::stats`] (see [`crate::ReclamationStats`]).
    fn remove(&self, key: &K) -> Option<V>;

    /// Opens a [`Cursor`] over the entries whose keys lie between `lo` and
    /// `hi`.  This is the one scan primitive an index must implement;
    /// prefer the [`ConcurrentIndex::scan`] sugar at call sites.
    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V>;

    /// Opens a [`Cursor`] over `range` (any [`RangeBounds`] expression).
    ///
    /// ```ignore
    /// let page: Vec<(K, V)> = index.scan(start..).take(100).collect();
    /// let window: Vec<(K, V)> = index.scan(lo..=hi).collect();
    /// ```
    fn scan<R: RangeBounds<K>>(&self, range: R) -> Cursor<'_, K, V>
    where
        Self: Sized,
    {
        self.scan_bounds(
            clone_bound(range.start_bound()),
            clone_bound(range.end_bound()),
        )
    }

    /// Short range scan: applies `visit` to the `len` smallest key-value
    /// pairs whose key is `>= start`, in ascending key order.  Returns the
    /// number of pairs visited (which is less than `len` only if the index
    /// ran out of keys).
    ///
    /// **Deprecated-style compatibility shim.**  This was the paper's
    /// `range(k, f, length)` operation and the workspace's original scan
    /// API; it is now a provided method driving a cursor.  New code should
    /// call [`ConcurrentIndex::scan`] (or [`ConcurrentIndex::scan_bounds`]
    /// through `dyn` references) directly — cursors also express bounded
    /// ranges and early termination, which this callback form cannot.
    fn range(&self, start: &K, len: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        let mut cursor = self.scan_bounds(Bound::Included(*start), Bound::Unbounded);
        let mut visited = 0;
        while visited < len {
            match cursor.next() {
                Some((key, value)) => {
                    visit(&key, &value);
                    visited += 1;
                }
                None => break,
            }
        }
        visited
    }

    /// Attempts one step of deferred-memory reclamation — typically an
    /// epoch advancement on the index's collector — and returns the
    /// number of objects freed.  Maintenance code (a memtable flush, a
    /// test harness) calls this at known-quiescent points to drain the
    /// retired backlog; with no operation in flight, a handful of calls
    /// empties every deferred-drop bag.  (For the NHS skiplist a call
    /// also publishes a fresh index snapshot, which is what moves its
    /// unlinked nodes out of limbo and into the collector.)
    ///
    /// The provided default does nothing, for indices without deferred
    /// reclamation; every reclaiming index overrides it.
    fn try_reclaim(&self) -> usize {
        0
    }

    /// Approximate number of keys currently stored.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short, stable display name used in experiment output tables
    /// (e.g. `"B-skiplist"`, `"OCC B+-tree"`).
    fn name(&self) -> &'static str;

    /// Whether the index has entered a sticky degraded (read-only) state
    /// after an unrecoverable backend failure — reads keep working, but
    /// mutations are rejected or dropped.  In-memory indices never
    /// degrade (the provided default); durable backends like the LSM
    /// engine override this, and services drain traffic away from a
    /// degraded node.
    fn degraded(&self) -> bool {
        false
    }

    /// Snapshot of the index's structural statistics counters.
    ///
    /// The default implementation reports nothing; indices that instrument
    /// themselves (root write locks, horizontal steps, ...) override this.
    fn stats(&self) -> IndexStats {
        IndexStats::new()
    }

    /// Resets all statistics counters (called between benchmark phases).
    fn reset_stats(&self) {}
}

/// Forwards every `ConcurrentIndex` method through one level of
/// indirection; used by the `&I`, `Arc<I>` and `Box<I>` blanket
/// implementations below so the driver can accept any of them.
macro_rules! forward_concurrent_index {
    () => {
        fn insert(&self, key: K, value: V) -> Option<V> {
            (**self).insert(key, value)
        }
        fn get(&self, key: &K) -> Option<V> {
            (**self).get(key)
        }
        fn contains_key(&self, key: &K) -> bool {
            (**self).contains_key(key)
        }
        fn execute(&self, ops: &mut [Op<K, V>]) {
            (**self).execute(ops)
        }
        fn remove(&self, key: &K) -> Option<V> {
            (**self).remove(key)
        }
        fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
            (**self).scan_bounds(lo, hi)
        }
        fn range(&self, start: &K, len: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
            (**self).range(start, len, visit)
        }
        fn try_reclaim(&self) -> usize {
            (**self).try_reclaim()
        }
        fn len(&self) -> usize {
            (**self).len()
        }
        fn name(&self) -> &'static str {
            (**self).name()
        }
        fn degraded(&self) -> bool {
            (**self).degraded()
        }
        fn stats(&self) -> IndexStats {
            (**self).stats()
        }
        fn reset_stats(&self) {
            (**self).reset_stats()
        }
    };
}

impl<K, V, I> ConcurrentIndex<K, V> for &I
where
    K: IndexKey,
    V: IndexValue,
    I: ConcurrentIndex<K, V> + ?Sized,
{
    forward_concurrent_index!();
}

impl<K, V, I> ConcurrentIndex<K, V> for std::sync::Arc<I>
where
    K: IndexKey,
    V: IndexValue,
    I: ConcurrentIndex<K, V> + ?Sized,
{
    forward_concurrent_index!();
}

impl<K, V, I> ConcurrentIndex<K, V> for Box<I>
where
    K: IndexKey,
    V: IndexValue,
    I: ConcurrentIndex<K, V> + ?Sized,
{
    forward_concurrent_index!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::BatchCursor;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// A trivially correct reference implementation used to validate the
    /// trait's contract and to serve as the oracle in differential tests of
    /// other crates.
    struct MutexBTreeMap {
        inner: Mutex<BTreeMap<u64, u64>>,
    }

    impl MutexBTreeMap {
        fn new() -> Self {
            MutexBTreeMap {
                inner: Mutex::new(BTreeMap::new()),
            }
        }
    }

    impl ConcurrentIndex<u64, u64> for MutexBTreeMap {
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            self.inner.lock().unwrap().insert(key, value)
        }
        fn get(&self, key: &u64) -> Option<u64> {
            self.inner.lock().unwrap().get(key).copied()
        }
        fn remove(&self, key: &u64) -> Option<u64> {
            self.inner.lock().unwrap().remove(key)
        }
        fn scan_bounds(&self, lo: Bound<u64>, hi: Bound<u64>) -> Cursor<'_, u64, u64> {
            Cursor::new(BatchCursor::new(
                lo,
                hi,
                32,
                Box::new(move |from, max, out| {
                    let guard = self.inner.lock().unwrap();
                    out.extend(
                        guard
                            .range((from, Bound::Unbounded))
                            .take(max)
                            .map(|(k, v)| (*k, *v)),
                    );
                }),
            ))
        }
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "mutex-btreemap"
        }
    }

    #[test]
    fn reference_impl_satisfies_contract() {
        let index = MutexBTreeMap::new();
        assert!(index.is_empty());
        assert_eq!(index.insert(1, 10), None);
        assert_eq!(index.insert(1, 11), Some(10));
        assert_eq!(index.get(&1), Some(11));
        assert_eq!(index.get(&2), None);
        assert_eq!(index.len(), 1);
        assert_eq!(index.remove(&1), Some(11));
        assert!(index.is_empty());
    }

    #[test]
    fn provided_execute_applies_ops_in_slot_order() {
        use crate::ops::{Op, OpResult};
        let index = MutexBTreeMap::new();
        index.insert(1, 10);
        let mut batch = vec![
            Op::get(1),
            Op::insert(1, 11),
            Op::insert(2, 20),
            Op::get(2),
            Op::remove(1),
            Op::remove(3),
        ];
        index.execute(&mut batch);
        assert_eq!(*batch[0].result(), OpResult::Value(10));
        assert_eq!(*batch[1].result(), OpResult::Value(10));
        assert_eq!(*batch[2].result(), OpResult::Missing);
        assert_eq!(*batch[3].result(), OpResult::Value(20));
        assert_eq!(*batch[4].result(), OpResult::Value(11));
        assert_eq!(*batch[5].result(), OpResult::Missing);
        assert_eq!(index.len(), 1);
        assert!(index.contains_key(&2));
        assert!(!index.contains_key(&1));

        // Batches flow through `dyn` references and the blanket impls.
        let by_ref: &dyn ConcurrentIndex<u64, u64> = &index;
        let mut batch = vec![Op::insert(9, 90), Op::get(9)];
        by_ref.execute(&mut batch);
        assert_eq!(batch[1].result().value(), Some(90));
        assert!(by_ref.contains_key(&9));
        let boxed: Box<dyn ConcurrentIndex<u64, u64>> = Box::new(MutexBTreeMap::new());
        let mut batch = vec![Op::insert(4, 40), Op::remove(4)];
        boxed.execute(&mut batch);
        assert_eq!(batch[1].result().value(), Some(40));
        assert!(!boxed.contains_key(&4));
    }

    #[test]
    fn range_visits_in_order() {
        let index = MutexBTreeMap::new();
        for key in [5u64, 1, 9, 3, 7] {
            index.insert(key, key * 10);
        }
        let mut seen = Vec::new();
        let visited = index.range(&3, 3, &mut |k, v| seen.push((*k, *v)));
        assert_eq!(visited, 3);
        assert_eq!(seen, vec![(3, 30), (5, 50), (7, 70)]);
    }

    #[test]
    fn range_stops_at_end_of_index() {
        let index = MutexBTreeMap::new();
        index.insert(1, 1);
        index.insert(2, 2);
        let mut seen = Vec::new();
        let visited = index.range(&0, 10, &mut |k, _| seen.push(*k));
        assert_eq!(visited, 2);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn scan_accepts_every_range_shape() {
        let index = MutexBTreeMap::new();
        for key in 0..10u64 {
            index.insert(key, key);
        }
        let all: Vec<u64> = index.scan(..).map(|(k, _)| k).collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        let half_open: Vec<u64> = index.scan(3..7).map(|(k, _)| k).collect();
        assert_eq!(half_open, vec![3, 4, 5, 6]);
        let inclusive: Vec<u64> = index.scan(3..=7).map(|(k, _)| k).collect();
        assert_eq!(inclusive, vec![3, 4, 5, 6, 7]);
        let from: Vec<u64> = index.scan(8..).map(|(k, _)| k).collect();
        assert_eq!(from, vec![8, 9]);
        // A reversed range is empty, not an error.
        let empty: Vec<u64> = index
            .scan_bounds(Bound::Included(7), Bound::Excluded(3))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(empty, Vec::<u64>::new());
    }

    #[test]
    fn scan_opens_between_keys_and_terminates_early() {
        let index = MutexBTreeMap::new();
        for key in (0..100u64).step_by(10) {
            index.insert(key, key);
        }
        let mut cursor = index.scan(35..);
        assert_eq!(cursor.next(), Some((40, 40)));
        assert_eq!(cursor.next(), Some((50, 50)));
        // Early termination is just dropping the cursor.
        drop(cursor);
        let page: Vec<u64> = index.scan(..).take(3).map(|(k, _)| k).collect();
        assert_eq!(page, vec![0, 10, 20]);
    }

    #[test]
    fn trait_objects_and_references_delegate() {
        let index = MutexBTreeMap::new();
        index.insert(1, 2);
        let by_ref: &dyn ConcurrentIndex<u64, u64> = &index;
        assert_eq!(by_ref.get(&1), Some(2));
        assert_eq!(by_ref.name(), "mutex-btreemap");
        assert!(by_ref.stats().is_empty());
        by_ref.reset_stats();
        // `dyn` callers reach cursors through the object-safe primitive.
        let mut cursor = by_ref.scan_bounds(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(cursor.next(), Some((1, 2)));

        let arc = std::sync::Arc::new(MutexBTreeMap::new());
        arc.insert(3, 4);
        assert_eq!(ConcurrentIndex::get(&arc, &3), Some(4));
    }

    /// Regression test: the documentation always promised `Arc<I>`,
    /// `Box<I>` **and** `&I` blanket implementations, but `Box<I>` was
    /// missing until the cursor redesign.
    #[test]
    fn boxed_indices_implement_the_trait() {
        fn exercise<I: ConcurrentIndex<u64, u64>>(index: I) {
            index.insert(1, 10);
            index.insert(2, 20);
            assert_eq!(index.get(&1), Some(10));
            assert_eq!(index.len(), 2);
            let window: Vec<u64> = index.scan(..).map(|(k, _)| k).collect();
            assert_eq!(window, vec![1, 2]);
            assert_eq!(index.remove(&2), Some(20));
        }

        exercise(Box::new(MutexBTreeMap::new()));
        let boxed_dyn: Box<dyn ConcurrentIndex<u64, u64>> = Box::new(MutexBTreeMap::new());
        exercise(boxed_dyn);
        exercise(std::sync::Arc::new(MutexBTreeMap::new()));
        // The borrow is the point: `&I` is the third promised blanket impl.
        #[allow(clippy::needless_borrows_for_generic_args)]
        exercise(&MutexBTreeMap::new());
    }
}
