//! Forward cursors over concurrent ordered indices.
//!
//! The callback-based [`crate::ConcurrentIndex::range`] operation of the
//! paper can express exactly one scan shape: "visit the `len` smallest
//! entries at or above `start`".  Real consumers of an ordered index —
//! memtable flush and compaction, pagination, prefix scans, merge joins —
//! need bounded scans and early termination.  This module provides the
//! cursor abstraction those consumers program against.  A cursor is
//! opened at its range's lower bound and only ever goes forward from
//! there; a scan that wants to start elsewhere opens a new cursor.
//!
//! * [`IndexCursor`] — the raw traversal-state interface an index
//!   implements (`next`);
//! * [`Cursor`] — the public, type-erased handle returned by
//!   [`crate::ConcurrentIndex::scan`]; it implements [`Iterator`] so the
//!   common forward-scan case is a plain `for` loop;
//! * [`BatchCursor`] — a fallback adapter that turns a "fetch the next
//!   batch of entries at or above a key" primitive into a full cursor, for
//!   indices that cannot pause mid-traversal (lock-free structures have no
//!   way to hold a position without pinning memory);
//! * [`MergeCursor`] — the workspace's one K-way merge: sorted sources in
//!   priority order composed into a single cursor (the shards of a
//!   [`crate::ShardedIndex`], the layers of the LSM engine).
//!
//! # Consistency contract
//!
//! Cursors over a concurrent index are **not snapshots**.  The contract
//! every implementation in this workspace provides is:
//!
//! * every entry whose key is in range and which is present for the entire
//!   lifetime of the traversal is yielded exactly once;
//! * entries inserted or removed while the cursor is open may or may not be
//!   observed;
//! * yielded keys are strictly ascending, so a cursor never yields
//!   duplicates even when the index is restructured underneath it;
//! * each yielded `(key, value)` pair is internally consistent (values are
//!   read under the same lock/validation protocol as point lookups).

use std::marker::PhantomData;
use std::ops::Bound;

use crate::{IndexKey, IndexValue};

/// Converts a borrowed [`Bound`] (as produced by
/// [`std::ops::RangeBounds::start_bound`]) into an owned one.  Index keys
/// are `Copy`, so this is free.
#[inline]
pub fn clone_bound<K: Copy>(bound: Bound<&K>) -> Bound<K> {
    match bound {
        Bound::Included(key) => Bound::Included(*key),
        Bound::Excluded(key) => Bound::Excluded(*key),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Whether `key` satisfies the lower bound `lo`.
#[inline]
pub fn above_lower<K: Ord>(key: &K, lo: &Bound<K>) -> bool {
    match lo {
        Bound::Included(bound) => key >= bound,
        Bound::Excluded(bound) => key > bound,
        Bound::Unbounded => true,
    }
}

/// Whether `key` satisfies the upper bound `hi`.
#[inline]
pub fn below_upper<K: Ord>(key: &K, hi: &Bound<K>) -> bool {
    match hi {
        Bound::Included(bound) => key <= bound,
        Bound::Excluded(bound) => key < bound,
        Bound::Unbounded => true,
    }
}

/// The traversal-state interface behind a [`Cursor`].
///
/// Implementations own their position (typically: the key last yielded plus
/// whatever structure-specific resume state makes the next step cheap) and
/// are constructed by [`crate::ConcurrentIndex::scan_bounds`] with the
/// range bounds already applied.  Once `next` has returned `None` it keeps
/// returning `None`.
///
/// Keys and values are `Copy` (see [`IndexKey`] / [`IndexValue`]), so
/// entries are yielded by value; nothing borrowed from the index escapes a
/// lock region.
pub trait IndexCursor<K: IndexKey, V: IndexValue> {
    /// Advances to and returns the next entry in ascending key order, or
    /// `None` when the range is exhausted.
    fn next(&mut self) -> Option<(K, V)>;
}

/// A forward cursor over a range of a concurrent ordered index.
///
/// Created by [`crate::ConcurrentIndex::scan`] /
/// [`crate::ConcurrentIndex::scan_bounds`].  `Cursor` implements
/// [`Iterator`], so ordinary forward scans compose with the standard
/// iterator adapters:
///
/// ```
/// use bskip_index::ConcurrentIndex;
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
/// for key in [5u64, 1, 9, 3] {
///     index.insert(key, key * 10);
/// }
/// let window: Vec<(u64, u64)> = index.scan(2..=5).collect();
/// assert_eq!(window, vec![(3, 30), (5, 50)]);
///
/// let mut cursor = index.scan(4..);
/// assert_eq!(cursor.next(), Some((5, 50)));
/// assert_eq!(cursor.next(), Some((9, 90)));
/// assert_eq!(cursor.next(), None);
/// ```
pub struct Cursor<'a, K: IndexKey, V: IndexValue> {
    raw: Box<dyn IndexCursor<K, V> + 'a>,
}

impl<'a, K: IndexKey, V: IndexValue> Cursor<'a, K, V> {
    /// Wraps a raw cursor implementation.
    pub fn new<C: IndexCursor<K, V> + 'a>(raw: C) -> Self {
        Cursor { raw: Box::new(raw) }
    }

    /// Advances to and returns the next entry (ascending key order).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(K, V)> {
        self.raw.next()
    }
}

/// A [`Cursor`] is itself a raw cursor, so heterogeneous cursors (native
/// index cursors, adapters, external-table cursors) compose — a K-way
/// merging cursor can hold `Box<dyn IndexCursor>` sources built from any
/// mix of them.
impl<K: IndexKey, V: IndexValue> IndexCursor<K, V> for Cursor<'_, K, V> {
    fn next(&mut self) -> Option<(K, V)> {
        Cursor::next(self)
    }
}

impl<K: IndexKey, V: IndexValue> Iterator for Cursor<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        Cursor::next(self)
    }
}

/// The batch-fetch primitive driving a [`BatchCursor`]: append up to `max`
/// entries, in ascending key order, starting from the first entry at or
/// after `from`'s key (from the smallest entry for `Bound::Unbounded`), to
/// `out`.  Appending fewer than `max` entries signals that the index holds
/// nothing further.  The adapter enforces the bounds: a primitive may
/// return the boundary key itself for an `Excluded` bound, and upper-bound
/// trimming is the adapter's job, not the primitive's.
pub type FetchBatch<'a, K, V> = Box<dyn FnMut(Bound<K>, usize, &mut Vec<(K, V)>) + 'a>;

/// Fallback cursor for indices that cannot pause mid-traversal.
///
/// Lock-free and optimistic structures cannot hold a stable position inside
/// the structure while the caller is away (nodes may be retired, snapshots
/// invalidated).  `BatchCursor` instead re-enters the index once per batch:
/// it asks the [`FetchBatch`] primitive for the next `batch_size` entries
/// above the last key it served, buffers them, and serves `next` from the
/// buffer.  The batch size bounds how much work each re-entry repeats.
pub struct BatchCursor<'a, K: IndexKey, V: IndexValue> {
    fetch: FetchBatch<'a, K, V>,
    /// Lower bound of the next refill: the range's `lo` until an entry is
    /// emitted, then `Excluded(last emitted key)`.
    from: Bound<K>,
    hi: Bound<K>,
    batch: Vec<(K, V)>,
    pos: usize,
    /// Set when a fetch returned a short batch (index exhausted) and the
    /// buffer has been drained, or when an entry beyond `hi` was seen.
    finished: bool,
    /// Set when the last fetch returned fewer entries than requested.
    source_drained: bool,
    batch_size: usize,
}

impl<'a, K: IndexKey, V: IndexValue> BatchCursor<'a, K, V> {
    /// Creates a batch cursor over `[lo, hi]` fetching `batch_size` entries
    /// per re-entry into the index.
    pub fn new(lo: Bound<K>, hi: Bound<K>, batch_size: usize, fetch: FetchBatch<'a, K, V>) -> Self {
        BatchCursor {
            fetch,
            from: lo,
            hi,
            batch: Vec::new(),
            pos: 0,
            finished: false,
            source_drained: false,
            batch_size: batch_size.max(1),
        }
    }

    fn refill(&mut self) {
        let from = self.from;
        self.batch.clear();
        self.pos = 0;
        // The primitive may return the boundary key itself for an exclusive
        // bound; request one extra entry so dropping it below cannot turn a
        // full batch into a short one.
        let request = self.batch_size + usize::from(matches!(from, Bound::Excluded(_)));
        // Sized once: primitives fill it from iterators of unknown length.
        self.batch.reserve(request);
        (self.fetch)(from, request, &mut self.batch);
        self.source_drained = self.batch.len() < request;
        // Enforce the lower bound here so fetch primitives only need
        // "first entry at or after the key" semantics; with ascending
        // output only leading entries can fail the bound.
        self.batch.retain(|(key, _)| above_lower(key, &from));
        debug_assert!(
            self.batch.windows(2).all(|w| w[0].0 < w[1].0),
            "fetch primitive must produce strictly ascending keys"
        );
    }
}

impl<K: IndexKey, V: IndexValue> IndexCursor<K, V> for BatchCursor<'_, K, V> {
    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if self.pos < self.batch.len() {
                let entry = self.batch[self.pos];
                self.pos += 1;
                if !below_upper(&entry.0, &self.hi) {
                    self.finished = true;
                    return None;
                }
                self.from = Bound::Excluded(entry.0);
                return Some(entry);
            }
            if self.finished || self.source_drained {
                // Buffer drained and the source reported exhaustion.
                self.finished = true;
                return None;
            }
            self.refill();
            if self.batch.is_empty() {
                self.finished = true;
                return None;
            }
        }
    }
}

/// One merge input: a source cursor with its cached frontier entry kept
/// inline, so a merge owns a single allocation however many sources it has.
struct MergeSource<K: IndexKey, T: IndexValue, S> {
    cursor: S,
    /// The source's next unconsumed entry (strictly above the merge's
    /// position) once the merge is primed.
    head: Option<(K, T)>,
}

/// K-way merging cursor over sorted sources given in **priority order**.
///
/// The merged stream holds every key any source holds, once: when several
/// sources are at the same key, the *lowest-indexed* source supplies the
/// entry and every tied source steps past the key.  That single rule
/// serves both users:
///
/// * hash shards of a [`crate::ShardedIndex`] never tie (each key routes
///   to exactly one shard), so the merge is a plain interleave;
/// * the LSM engine orders its layers newest first, so the rule is
///   *newest wins*: the merged `(K, Slot<V>)` stream is the raw view
///   compaction writes out (tombstones included, shadowed versions gone),
///   and filtering the tombstones out of it is the live view scans serve.
///
/// Every step consumes the minimum head and refills only the sources that
/// were at it, so the steady state costs one source step per tied source
/// plus an O(sources) scan of the heads.
///
/// The sources are boxed [`Cursor`]s unless the caller names a concrete
/// source type `S` (the LSM engine merges an enum of its two cursor kinds,
/// so its merges box nothing).
pub struct MergeCursor<'a, K: IndexKey, T: IndexValue, S = Cursor<'a, K, T>> {
    sources: Vec<MergeSource<K, T, S>>,
    /// Whether every source's `head` has been filled (by the first `next`).
    primed: bool,
    _sources: PhantomData<&'a ()>,
}

impl<K: IndexKey, T: IndexValue, S: IndexCursor<K, T>> MergeCursor<'_, K, T, S> {
    /// Builds a merge over `sources`, highest priority first: index 0
    /// shadows index 1 shadows index 2 …  The one vector is sized from the
    /// iterator's upper size hint, so a filtered source list still
    /// allocates once.
    pub fn new(sources: impl IntoIterator<Item = S>) -> Self {
        let sources = sources.into_iter();
        let (lower, upper) = sources.size_hint();
        let mut merged = Vec::with_capacity(upper.unwrap_or(lower));
        merged.extend(sources.map(|cursor| MergeSource { cursor, head: None }));
        MergeCursor {
            sources: merged,
            primed: false,
            _sources: PhantomData,
        }
    }

    /// Consumes the winning head: the minimum key, taken from the
    /// lowest-indexed source holding it.  Every source at that key is
    /// stepped past it.
    fn take_winner(&mut self) -> Option<(K, T)> {
        let mut winner: Option<(K, T)> = None;
        for source in &self.sources {
            if let Some(head) = source.head {
                // Strict comparison: an equal key later in priority order
                // never displaces the earlier source.
                if winner.is_none_or(|(best, _)| head.0 < best) {
                    winner = Some(head);
                }
            }
        }
        let (key, _) = winner?;
        for source in &mut self.sources {
            if source.head.is_some_and(|(k, _)| k == key) {
                source.head = source.cursor.next();
            }
        }
        winner
    }
}

impl<K: IndexKey, T: IndexValue, S: IndexCursor<K, T>> IndexCursor<K, T>
    for MergeCursor<'_, K, T, S>
{
    fn next(&mut self) -> Option<(K, T)> {
        if !self.primed {
            for source in &mut self.sources {
                source.head = source.cursor.next();
            }
            self.primed = true;
        }
        self.take_winner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cursor_over(
        entries: &BTreeMap<u64, u64>,
        lo: Bound<u64>,
        hi: Bound<u64>,
        batch: usize,
    ) -> BatchCursor<'_, u64, u64> {
        BatchCursor::new(
            lo,
            hi,
            batch,
            Box::new(move |from, max, out| {
                out.extend(
                    entries
                        .range((from, Bound::Unbounded))
                        .take(max)
                        .map(|(k, v)| (*k, *v)),
                );
            }),
        )
    }

    fn sample() -> BTreeMap<u64, u64> {
        (0..10u64).map(|i| (i * 10, i)).collect()
    }

    #[test]
    fn forward_iteration_spans_batches() {
        let entries = sample();
        let mut cursor = cursor_over(&entries, Bound::Unbounded, Bound::Unbounded, 3);
        let mut seen = Vec::new();
        while let Some((k, _)) = cursor.next() {
            seen.push(k);
        }
        assert_eq!(seen, (0..10u64).map(|i| i * 10).collect::<Vec<_>>());
        // Exhausted cursors stay exhausted.
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn bounds_are_respected() {
        let entries = sample();
        let mut cursor = cursor_over(&entries, Bound::Included(25), Bound::Excluded(60), 2);
        let seen: Vec<u64> = std::iter::from_fn(|| cursor.next())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(seen, vec![30, 40, 50]);

        let mut empty = cursor_over(&entries, Bound::Excluded(40), Bound::Included(40), 2);
        assert_eq!(empty.next(), None);
    }

    #[test]
    fn bound_helpers() {
        assert!(above_lower(&5, &Bound::Included(5)));
        assert!(!above_lower(&5, &Bound::Excluded(5)));
        assert!(above_lower(&5, &Bound::Unbounded));
        assert!(below_upper(&5, &Bound::Included(5)));
        assert!(!below_upper(&5, &Bound::Excluded(5)));
        assert!(below_upper(&5, &Bound::Unbounded));
        assert_eq!(clone_bound(Bound::Included(&7u64)), Bound::Included(7));
        assert_eq!(clone_bound::<u64>(Bound::Unbounded), Bound::Unbounded);
    }
}
