//! The B-skiplist's native cursor.
//!
//! A [`LeafCursor`] walks the leaf level of the list forward from the
//! range's lower bound, copying one read-locked node's in-range slots at a
//! time into a batch buffer and then serving entries from the buffer with
//! **no locks held**.  This keeps the lock hold time of a scan bounded by a
//! single node — the same property the paper's `range` operation has
//! (Section 4, "concurrent finds and range queries") — while adding what
//! the callback API could not express: bounded ranges and early
//! termination.
//!
//! # Traversal scheme
//!
//! The initial position comes from the list's one positioning entry
//! (`leaf.rs`, `lock_covering`, in shared mode): an optimistic (lock-free,
//! version-validated) descent to the leaf covering the lower bound; the
//! leaf itself is then read-locked for the snapshot and its version
//! re-checked under that lock, with the classic hand-over-hand read-locked
//! descent as the contention fallback.  While snapshotting a leaf, the
//! cursor captures the leaf's `next` pointer under the same lock; the
//! following refill locks that neighbour directly, so steady-state scans
//! cost one lock acquisition per node, not one descent per node.  A
//! neighbour found empty — unlinked since — sends the cursor back through
//! the positioning descent instead (see *Consistency*).
//!
//! # Why the paused pointer walk is memory-safe
//!
//! Between refills the cursor holds a parked raw pointer (`next_leaf`) to
//! a node it is *not* locking — and a concurrent `remove` may unlink
//! exactly that node and retire it to the list's epoch-based collector.
//! The cursor is safe because it holds a **[`Pin`]** for its entire
//! lifetime, created *before* any pointer is captured: the collector
//! never frees a node retired after the pin was taken, so every pointer
//! the cursor captured since stays dereferenceable — long enough to lock
//! the node and find it empty — until the cursor drops.  A node handle
//! cannot be stored next to the pin it borrows, so the refill re-wraps the
//! parked pointer under the cursor's own pin (`Pin::unpark`), the one
//! `unsafe` step of the walk.
//!
//! The flip side: a cursor parked for a long time holds its epoch pinned
//! and lets the retired-node backlog grow; dropping the cursor releases
//! the epoch.
//!
//! # Consistency
//!
//! Between refills the cursor holds no locks, so concurrent writers
//! proceed freely.  Monotonicity of emitted keys is guaranteed by filtering
//! every snapshot against the last emitted key; headers are strictly
//! ascending along the leaf level, so entries that split into a new right
//! sibling after being snapshotted are never seen twice.
//!
//! Entries also move *left*: a header removal folds a leaf's survivors
//! into its left neighbour and unlinks the emptied leaf (`remove.rs`).
//! If that neighbour is the leaf the cursor last snapshotted, the folded
//! keys now sit behind the captured `next_leaf`, which is exactly the
//! leaf that was emptied.  So the rule is: **a refill that locks an empty
//! leaf re-positions** through the optimistic descent at `from`
//! (`Excluded(last emitted key)`), which lands in the leaf now holding the
//! folded keys.  A fold always empties the leaf it folds, and a non-head
//! leaf is empty only once unlinked, so the cursor cannot miss one.  This
//! yields the workspace-wide cursor contract documented in
//! [`bskip_index::cursor`].

use std::ops::Bound;
use std::ptr;

use bskip_index::cursor::{above_lower, below_upper, Window};
use bskip_index::trace::{NoTrace, Tracer};
use bskip_index::{IndexCursor, IndexKey, IndexValue};
use bskip_sync::Racy;

use super::BSkipList;
use crate::guard::{NodeRef, Pin, ReadGuard};
use crate::node::{prefetch_node, Node, NodeSearch};
use crate::stats::BSkipStats;

/// The native cursor over a [`BSkipList`], returned by
/// [`BSkipList::scan`], [`BSkipList::scan_bounds`] and [`BSkipList::iter`]:
/// an [`Iterator`] over the range's entries in ascending key order.  It is
/// boxed only where [`bskip_index::ConcurrentIndex::scan_bounds`] erases
/// its type; its batch buffer is a [`Window`] on loan from the calling
/// thread, so a warm scan through the inherent API allocates nothing.
pub struct LeafCursor<'a, K, V, const B: usize = 128, T = NoTrace>
where
    K: IndexKey + Racy,
    V: IndexValue + Racy,
    T: Tracer,
{
    /// Epoch pin held for the cursor's lifetime: every descent runs under
    /// it, and it keeps every node the cursor captured a pointer to
    /// (notably `next_leaf`) from being freed; see the module docs.
    pin: Pin<'a, K, V, B, T>,
    /// What a snapshot writes: a field of its own, so that a snapshot can
    /// borrow it while its leaf's guard borrows the pin.
    walk: Walk<'a, K, V, B>,
    /// Whether the first `next` has positioned the cursor yet.
    started: bool,
}

struct Walk<'a, K: 'static, V: 'static, const B: usize> {
    /// Lower bound of the next refill: the range's `lo` until an entry
    /// is emitted, then `Excluded(last emitted key)`.
    from: Bound<K>,
    hi: Bound<K>,
    /// Slots copied out of the most recently visited leaf, ascending and
    /// all within `hi`.
    batch: Window<(K, V)>,
    /// Next unconsumed index into `batch`.
    pos: usize,
    /// Right neighbour of the last snapshotted leaf, captured under its
    /// lock and parked as a pointer; null once positioned means the walk
    /// is over (the end of the leaf level, or a key beyond `hi`, was
    /// reached).
    next_leaf: *mut Node<K, V, B>,
    /// The statistics block when leaf snapshots feed `range_leaf_nodes`:
    /// for range queries (`scan`) on a list that collects, not for full
    /// iterations (`iter`), which would otherwise skew the paper's "leaf
    /// nodes per range query" ratio.
    stats: Option<&'a BSkipStats>,
}

impl<'a, K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer>
    LeafCursor<'a, K, V, B, T>
{
    pub(crate) fn new(
        list: &'a BSkipList<K, V, B, T>,
        lo: Bound<K>,
        hi: Bound<K>,
        record_stats: bool,
    ) -> Self {
        LeafCursor {
            pin: list.pin(),
            walk: Walk {
                from: lo,
                hi,
                batch: Window::take(B),
                pos: 0,
                next_leaf: ptr::null_mut(),
                stats: list.stats_enabled().filter(|_| record_stats),
            },
            started: false,
        }
    }

    /// Descends to the leaf covering `from` and snapshots it.
    fn descend_and_snapshot(&mut self) {
        let leaf = match &self.walk.from {
            Bound::Unbounded => self.pin.head(0).lock(),
            Bound::Included(key) | Bound::Excluded(key) => self.pin.lock_covering(key, 0),
        };
        self.walk.snapshot(leaf, self.pin.tracer());
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize> Walk<'_, K, V, B> {
    /// Copies the slots of the read-locked `leaf` that satisfy `from` and
    /// the upper bound into the batch, parks the leaf's `next` pointer and
    /// drops the guard; reports the header and the slots it read to
    /// `tracer`.
    fn snapshot(&mut self, leaf: ReadGuard<'_, K, V, B>, tracer: &impl Tracer) {
        self.batch.clear();
        self.pos = 0;
        let bound = &self.from;
        // Read-locked, so `len <= B`; saying so lets the copy loop below
        // drop its per-slot bounds checks.
        let len = leaf.len().min(B);
        // Find the first qualifying slot by binary search where possible.
        let start = match bound {
            Bound::Unbounded => {
                leaf.trace_prefix(tracer, 0);
                0
            }
            Bound::Included(key) | Bound::Excluded(key) => match leaf.search(key, tracer) {
                NodeSearch::Found(idx) => {
                    if matches!(bound, Bound::Included(_)) {
                        idx
                    } else {
                        idx + 1
                    }
                }
                NodeSearch::Pred(idx) => idx + 1,
                NodeSearch::Before => 0,
            },
        };
        let mut clamped = false;
        for slot in start..len {
            let key = leaf.key_at(slot);
            debug_assert!(above_lower(&key, bound), "leaf slots must be sorted");
            if !below_upper(&key, &self.hi) {
                // Nothing at or after this slot can be in range; stop
                // copying and end the walk so the cursor never touches
                // the leaves beyond the upper bound.
                clamped = true;
                break;
            }
            self.batch.push((key, leaf.value_at(slot)));
        }
        let copied = start..start + self.batch.len();
        leaf.trace_keys(tracer, copied.start..copied.end + usize::from(clamped));
        leaf.trace_payload(tracer, copied);
        let next = if clamped { None } else { leaf.next() };
        self.next_leaf = next.map_or(ptr::null_mut(), NodeRef::as_ptr);
        if let Some(next) = next {
            // The whole buffered batch is served before the neighbour is
            // touched again — ample distance for the line fill, so the
            // next refill's lock acquisition starts warm.
            prefetch_node(next.as_ptr());
        }
        drop(leaf);
        if let Some(stats) = self.stats {
            stats.range_leaf_nodes.incr();
        }
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> Iterator
    for LeafCursor<'_, K, V, B, T>
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            let walk = &mut self.walk;
            if let Some(&entry) = walk.batch.get(walk.pos) {
                walk.pos += 1;
                walk.from = Bound::Excluded(entry.0);
                return Some(entry);
            }
            if !self.started {
                self.started = true;
                self.descend_and_snapshot();
                continue;
            }
            // Steady-state walk: follow the parked neighbour.
            // SAFETY: `next_leaf` was read from a locked node after
            // `self.pin` pinned, so even if a concurrent remove has since
            // unlinked and retired it, the collector cannot free it while
            // the pin is alive — the module docs' argument, and the parent
            // module's "Why racing structure changes is safe".
            let leaf: ReadGuard<'_, K, V, B> = unsafe { self.pin.unpark(walk.next_leaf) }?.lock();
            if leaf.is_empty() {
                // Unlinked: its keys may have folded into a leaf
                // behind the cursor (module docs, *Consistency*).
                drop(leaf);
                self.descend_and_snapshot();
            } else {
                walk.snapshot(leaf, self.pin.tracer());
            }
        }
    }
}

/// A cursor as the trait's [`IndexCursor`], for the box
/// [`bskip_index::ConcurrentIndex::scan_bounds`] returns.  A wrapper, not
/// a second impl on [`LeafCursor`]: with both, `list.scan(..).next()`
/// would be ambiguous.
pub(super) struct Erased<C>(pub(super) C);

impl<K: IndexKey, V: IndexValue, C: Iterator<Item = (K, V)>> IndexCursor<K, V> for Erased<C> {
    fn next(&mut self) -> Option<(K, V)> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BSkipConfig;
    use bskip_index::ConcurrentIndex;

    type List = BSkipList<u64, u64, 4>;

    fn listing(keys: impl IntoIterator<Item = u64>) -> List {
        let list = List::with_config(BSkipConfig::default().with_max_height(4));
        for key in keys {
            list.insert(key, key * 10);
        }
        list
    }

    #[test]
    fn forward_scan_crosses_node_boundaries() {
        let list = listing(0..100);
        let keys: Vec<u64> = list.scan(..).map(|(k, _)| k).collect();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_scans_trim_both_ends() {
        let list = listing((0..50).map(|i| i * 2));
        let window: Vec<u64> = list.scan(10..21).map(|(k, _)| k).collect();
        assert_eq!(window, vec![10, 12, 14, 16, 18, 20]);
        let inclusive: Vec<u64> = list.scan(10..=20).map(|(k, _)| k).collect();
        assert_eq!(inclusive, vec![10, 12, 14, 16, 18, 20]);
        let odd_bounds: Vec<u64> = list.scan(11..=19).map(|(k, _)| k).collect();
        assert_eq!(odd_bounds, vec![12, 14, 16, 18]);
        assert!(list.scan(30..30).next().is_none());
        // A reversed range (hi below lo) is empty, not an error.
        assert!(list
            .scan_bounds(Bound::Included(98), Bound::Excluded(2))
            .next()
            .is_none());
        assert!(list.scan(1000..).next().is_none());
    }

    /// Forty keys over three levels (a tower of height 1 every 8 keys, of
    /// height 2 every 16), values ten times the keys, statistics on.
    fn tall_listing() -> std::sync::Arc<List> {
        let list = List::with_config(BSkipConfig::default().with_max_height(4).with_stats(true));
        for key in 0..40u64 {
            let height = usize::from(key % 8 == 0) + usize::from(key % 16 == 0);
            list.insert_with_height(key, key * 10, height);
        }
        assert!(list.level_shape()[2].1 > 0, "test needs three levels");
        std::sync::Arc::new(list)
    }

    #[test]
    fn contended_positioning_falls_back_to_the_locked_descent() {
        use crate::list::leaf::tests::{assert_unlocked, interfere};
        use crate::list::OPTIMISTIC_ATTEMPTS;

        // The leaf the descent reaches changes before every attempt to
        // lock it, so the positioning gives up validating and goes down
        // under hand-over-hand shared locks — from the first key, a key
        // inside a leaf and the last key.
        let list = tall_listing();
        let stats = BSkipList::stats(&list);
        for first in [0u64, 20, 39] {
            stats.reset();
            let mut cursor = list.scan_bounds(Bound::Included(first), Bound::Unbounded);
            interfere(&list, first, OPTIMISTIC_ATTEMPTS);
            assert_eq!(cursor.next(), Some((first, 1)), "the last overwrite");
            assert_eq!(stats.locked_fallbacks.get(), 1, "from {first}");
            assert_eq!(stats.optimistic_restarts.get(), OPTIMISTIC_ATTEMPTS as u64);
            let rest: Vec<u64> = std::iter::from_fn(|| cursor.next())
                .map(|(key, _)| key)
                .collect();
            assert_eq!(rest, (first + 1..40).collect::<Vec<_>>(), "from {first}");
            assert_eq!(stats.locked_fallbacks.get(), 1);
            drop(cursor);
            assert_unlocked(&list);
        }
    }

    #[test]
    fn a_cursor_dropped_mid_leaf_leaves_nothing_for_the_next_one() {
        // Leaves of four: the first cursor stops inside `{0, 1, 2, 3}`
        // with three entries still buffered; its window is parked and the
        // next cursor on this thread takes it back.
        let list = listing(0..40);
        let mut first = list.scan(..);
        assert_eq!(first.next(), Some((0, 0)));
        drop(first);
        let second: Vec<u64> = list.scan(20..30).map(|(k, _)| k).collect();
        assert_eq!(second, (20..30).collect::<Vec<_>>());
        // The same with an empty second range: nothing at all.
        let mut third = list.scan(..);
        assert_eq!(third.nth(5), Some((5, 50)));
        drop(third);
        assert_eq!(list.scan(100..).next(), None);
    }

    #[test]
    fn a_thread_parks_at_most_its_cap_of_windows() {
        use bskip_index::cursor::{parked_buffers, PARKED_BUFFERS};

        let list = listing(0..40);
        // Tests may share a thread, so this one starts from whatever its
        // thread has parked already.
        let mut cursors: Vec<_> = (0..2 * PARKED_BUFFERS as u64)
            .map(|from| list.scan(from..))
            .collect();
        for (from, cursor) in (0u64..).zip(&mut cursors) {
            assert_eq!(cursor.next(), Some((from, from * 10)));
        }
        assert!(parked_buffers() <= PARKED_BUFFERS);
        drop(cursors);
        assert_eq!(parked_buffers(), PARKED_BUFFERS);
        // Every open cursor held a window of its own: all of them stream
        // their own ranges side by side.
        let mut pair = (list.scan(10..14), list.scan(30..34));
        let interleaved: Vec<(u64, u64)> =
            std::iter::from_fn(|| Some((pair.0.next()?.0, pair.1.next()?.0))).collect();
        assert_eq!(interleaved, vec![(10, 30), (11, 31), (12, 32), (13, 33)]);
        drop(pair);
        assert_eq!(parked_buffers(), PARKED_BUFFERS);
    }

    #[test]
    fn empty_list_yields_nothing() {
        let list = listing(std::iter::empty());
        assert_eq!(list.scan(..).next(), None);
        let mut cursor = list.scan(5..);
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn cursor_skips_keys_removed_between_batches() {
        let list = listing(0..16);
        let mut cursor = list.scan(..);
        // Drain the first leaf's batch.
        let first = cursor.next().unwrap().0;
        assert_eq!(first, 0);
        // Remove a key far ahead; when the cursor reaches that region the
        // key must not be produced.
        assert_eq!(list.remove(&12), Some(120));
        let rest: Vec<u64> = std::iter::from_fn(|| cursor.next())
            .map(|(k, _)| k)
            .collect();
        assert!(!rest.contains(&12));
        assert_eq!(rest.last(), Some(&15));
    }

    #[test]
    fn a_parked_cursor_yields_keys_folded_behind_it_exactly_once() {
        use crate::list::leaf::tests::{assert_unlocked, interleave};
        use std::cell::Cell;
        use std::rc::Rc;

        // `head{5} → {10, 11} → {20, 21, 22}`, 10 and 20 of height 1.
        let list = std::sync::Arc::new(listing(std::iter::empty()));
        for (key, height) in [(5, 0), (10, 1), (11, 0), (20, 1), (21, 0), (22, 0)] {
            list.insert_with_height(key, key * 10, height);
        }
        assert_eq!(list.level_shape()[0], (3, 6));
        // The cursor snapshots `{10, 11}` and parks with `{20, 21, 22}`
        // as its next leaf.  Removing 20 folds 21 and 22 into `{10, 11}`,
        // behind the cursor, and unlinks the leaf it was about to lock.
        let mut cursor = list.scan(10..);
        assert_eq!(cursor.next(), Some((10, 100)));
        assert_eq!(list.remove(&20), Some(200));
        assert_eq!(list.level_shape()[0], (2, 5));
        // Runs inside the next positioning descent: the refill that finds
        // its leaf empty goes back down instead of following the dead
        // leaf's frozen `next`, which would end the scan here.
        let seen = Rc::new(Cell::new(false));
        let flag = Rc::clone(&seen);
        interleave(0, move || flag.set(true));
        let rest: Vec<u64> = std::iter::from_fn(|| cursor.next())
            .map(|(key, _)| key)
            .collect();
        assert_eq!(rest, vec![11, 21, 22], "each folded key, once, in order");
        assert!(seen.get(), "the refill did not re-position");
        drop(cursor);
        assert_unlocked(&list);
        list.validate().expect("structure");
    }

    #[test]
    fn cursor_observes_strictly_ascending_keys_under_concurrent_inserts() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let list = std::sync::Arc::new(BSkipList::<u64, u64, 16>::new());
        for key in (0..10_000u64).step_by(2) {
            list.insert(key, key);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer_list = std::sync::Arc::clone(&list);
            let stop_ref = &stop;
            scope.spawn(move || {
                let mut key = 1u64;
                while !stop_ref.load(Ordering::Relaxed) {
                    writer_list.insert(key % 10_000, key % 10_000);
                    key += 2;
                }
            });
            for _ in 0..50 {
                let mut previous = None;
                for (k, v) in list.scan(2_000..8_000u64) {
                    assert_eq!(k, v, "torn entry");
                    if let Some(p) = previous {
                        assert!(p < k, "cursor went backwards: {p} then {k}");
                    }
                    previous = Some(k);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn range_leaf_node_stats_count_snapshots() {
        // Full leaves `{8i, …, 8i + 7}`: every eighth key heads its own
        // leaf, behind the head leaf that key 0's promotion emptied.
        let list = BSkipList::<u64, u64, 8>::with_config(
            BSkipConfig::default().with_max_height(4).with_stats(true),
        );
        for key in 0..96u64 {
            let height = usize::from(key % 8 == 0) + usize::from(key % 32 == 0);
            list.insert_with_height(key, key, height);
        }
        assert_eq!(list.level_shape()[0], (13, 96));
        list.reset_stats();
        let collected: Vec<u64> = list.scan(..).map(|(k, _)| k).collect();
        assert_eq!(collected, (0..96).collect::<Vec<_>>());
        let stats = ConcurrentIndex::stats(&list);
        assert_eq!(stats.get("ranges"), Some(1));
        assert_eq!(stats.get("range_leaf_nodes"), Some(13));

        // One descent positions the scan, then it takes one lock per leaf
        // — here the ten leaves from `{16, …, 23}` on — and none above.
        list.reset_stats();
        let collected: Vec<u64> = list.scan(20..).map(|(k, _)| k).collect();
        assert_eq!(collected, (20..96).collect::<Vec<_>>());
        let stats = ConcurrentIndex::stats(&list);
        assert_eq!(
            stats.get("levels_visited"),
            Some(list.max_height() as u64 - 1)
        );
        assert_eq!(stats.get("range_leaf_nodes"), Some((96 - 16) / 8));

        // Full iterations are not range queries: they must not pollute
        // either side of the "leaf nodes per range query" ratio.
        list.reset_stats();
        assert_eq!(list.iter().count(), 96);
        assert_eq!(list.to_vec().len(), 96);
        let stats = ConcurrentIndex::stats(&list);
        assert_eq!(stats.get("ranges"), Some(0));
        assert_eq!(stats.get("range_leaf_nodes"), Some(0));
    }

    #[test]
    fn bounded_snapshots_stop_at_the_upper_bound() {
        let list = BSkipList::<u64, u64, 8>::with_config(
            BSkipConfig::default().with_max_height(4).with_stats(true),
        );
        for key in 0..640u64 {
            list.insert(key, key);
        }
        list.reset_stats();
        // A narrow window must touch a handful of leaves, never the ~80
        // leaves to the right of the upper bound.
        let window: Vec<u64> = list.scan(100..=105).map(|(k, _)| k).collect();
        assert_eq!(window, (100..=105).collect::<Vec<_>>());
        let touched = ConcurrentIndex::stats(&list)
            .get("range_leaf_nodes")
            .unwrap();
        // Heights are randomly sampled, so the 6-key window can straddle a
        // promoted header per key in the worst draw; the bound only has to
        // rule out walking the ~80 leaves beyond the upper bound.
        assert!(touched <= 8, "bounded scan touched {touched} leaves");
    }
}
