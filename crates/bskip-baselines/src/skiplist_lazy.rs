//! An optimistic, lock-based concurrent skiplist ("lazy skiplist").
//!
//! This follows the design of Herlihy, Lev, Luchangco and Shavit's *simple
//! optimistic skiplist* — the algorithm family behind Folly's
//! `ConcurrentSkipList`: traversals never take locks; insertions find the
//! predecessors of the new tower at every level, lock those predecessors,
//! *validate* that the snapshot is still accurate, and only then link the
//! new tower.  A `fully_linked` flag makes a tower visible atomically and a
//! `marked` flag implements logical deletion.
//!
//! Like the other unblocked skiplist baselines, every element lives in its
//! own heap node and its tower of forward pointers in a second allocation,
//! the boxed `next` array, so a traversal touches two cache lines per
//! visited element (the node's, for its key, and the line of `next`
//! holding the pointer it follows) — the behaviour the B-skiplist is
//! designed to avoid.
//!
//! # Removal and reclamation
//!
//! `remove` is the *full* lazy-skiplist deletion: the victim is locked,
//! logically deleted (`marked`), then its predecessors at every level of
//! its tower are locked and validated and the tower is physically
//! unlinked — all while the victim's own lock is held, so no insertion can
//! link behind it mid-unlink.  Lock acquisition is globally ordered by
//! descending key (victim first, then its strictly smaller predecessors,
//! bottom-up), so the scheme stays deadlock-free.  Unlinked towers are
//! retired to the list's epoch-based collector
//! ([`bskip_sync::EbrCollector`]): the optimistic traversals never take
//! locks, so a reader may still hold a pointer to a just-unlinked tower,
//! and every operation therefore pins the collector for its duration.
//! The retired-but-unfreed backlog stays bounded by amortized epoch
//! advancement instead of growing with the delete count.
//!
//! # Tracing
//!
//! The last type parameter is a [`Tracer`], the cache simulator's view of
//! the list (Table 1).  A tower is announced as two nodes, each with its
//! address as id and its size as footprint: the element and its `next`
//! array; the constructor announces the head's array.  Every forward
//! pointer loaded or stored through `slot` reports its bytes of the array,
//! and so do the key of every node `find` compares against (`peek`), the
//! value `get` reads or `insert` replaces, and the key and value of each
//! element `fetch_batch` copies, at their offsets in `LazyNode`.  Locks
//! and flags share the element's line and report nothing.  The default,
//! [`NoTrace`], is zero-sized and compiles to nothing.

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use bskip_index::trace::{NoTrace, Tracer};
use bskip_index::{
    BatchCursor, ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue, StatKind,
};
use bskip_sync::{Backoff, EbrCollector, EbrGuard, RawRwSpinLock, RwSpinLock, StripedCounter};

use crate::handle::{NodeRef, WriteGuard};
use crate::tower::{sample_tower_height, MAX_LEVELS};

/// Entries fetched per cursor re-entry (one element per node, as for the
/// lock-free skiplist).
const SCAN_BATCH: usize = 64;

struct LazyNode<K, V> {
    key: K,
    value: RwSpinLock<V>,
    /// Per-node mutex taken (exclusively) while this node's forward
    /// pointers are being changed by an insertion that uses it as a
    /// predecessor.
    lock: RawRwSpinLock,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    next: Box<[AtomicPtr<LazyNode<K, V>>]>,
}

/// A tower reached under a pin; as a predecessor, `None` is the head.
type Tower<'g, K, V> = Option<NodeRef<'g, LazyNode<K, V>>>;

/// One tower per level, as `find` leaves them.
type Lanes<'g, K, V> = [Tower<'g, K, V>; MAX_LEVELS];

/// What `find` returns: the tower holding the key, then the predecessors
/// and successors at every level.
type Found<'g, K, V> = (Tower<'g, K, V>, Lanes<'g, K, V>, Lanes<'g, K, V>);

impl<K, V> LazyNode<K, V> {
    fn height(&self) -> usize {
        self.next.len()
    }

    fn new(key: K, value: V, height: usize) -> Box<Self> {
        Box::new(LazyNode {
            key,
            value: RwSpinLock::new(value),
            lock: RawRwSpinLock::new(),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            next: (0..height)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        })
    }
}

/// Whether `tower` is the head or a tower not logically deleted.
fn unmarked<K, V>(tower: Tower<'_, K, V>) -> bool {
    tower.is_none_or(|tower| !tower.marked.load(Ordering::Acquire))
}

/// An optimistic lock-based concurrent skiplist with one element per node.
///
/// # Example
///
/// ```
/// use bskip_baselines::LazySkipList;
/// use bskip_index::ConcurrentIndex;
///
/// let list: LazySkipList<u64, u64> = LazySkipList::new();
/// list.insert(5, 50);
/// assert_eq!(list.get(&5), Some(50));
/// ```
pub struct LazySkipList<K, V, T: Tracer = NoTrace> {
    head: Box<[AtomicPtr<LazyNode<K, V>>]>,
    /// Lock standing in for the head sentinel's per-node lock (used when a
    /// new tower's predecessor at some level is the head itself).
    head_lock: RawRwSpinLock,
    len: StripedCounter,
    /// Epoch-based collector for towers unlinked by `remove`.
    collector: EbrCollector,
    /// Towers ever linked into the list; minus the collector's retired
    /// count this is the live structural node count.
    towers_published: StripedCounter,
    /// Observer of the nodes and pointers operations touch (module docs).
    tracer: T,
}

// SAFETY: nodes are mutated only through atomics, the per-node locks and
// the value lock.  A node is freed by the collector after `remove` retired
// it, once every pin that could still reach it is dropped (`handle.rs`'s
// pin argument), or by the list's drop.  The tracer moves with the list.
unsafe impl<K: IndexKey, V: IndexValue, T: Tracer + Send> Send for LazySkipList<K, V, T> {}
// SAFETY: as for `Send`: shared access goes through the same atomics and
// locks, and the tracer is only shared as `&T`.
unsafe impl<K: IndexKey, V: IndexValue, T: Tracer + Sync> Sync for LazySkipList<K, V, T> {}

impl<K: IndexKey, V: IndexValue> Default for LazySkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue> LazySkipList<K, V> {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self::with_tracer(NoTrace)
    }
}

impl<K: IndexKey, V: IndexValue, T: Tracer> LazySkipList<K, V, T> {
    /// [`LazySkipList::new`], reporting to `tracer` from the allocation of
    /// the head's forward pointers on.
    pub fn with_tracer(tracer: T) -> Self {
        let head: Box<[_]> = (0..MAX_LEVELS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        tracer.node_allocated(head.as_ptr().addr(), size_of_val(&*head));
        LazySkipList {
            head,
            head_lock: RawRwSpinLock::new(),
            len: StripedCounter::new(),
            collector: EbrCollector::new(),
            towers_published: StripedCounter::new(),
            tracer,
        }
    }

    /// The tracer the list reports to.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Forward pointer `level` of `pred`, or of the head for `None`,
    /// reported used.
    fn slot<'g>(&'g self, pred: Tower<'g, K, V>, level: usize) -> &'g AtomicPtr<LazyNode<K, V>> {
        let links = pred.map_or(&*self.head, |pred| &*pred.get().next);
        let width = size_of::<AtomicPtr<LazyNode<K, V>>>();
        self.tracer
            .touched(links.as_ptr().addr(), level * width, width);
        &links[level]
    }

    /// The key of `node`, reported peeked.
    fn peek(&self, node: NodeRef<'_, LazyNode<K, V>>) -> K {
        let offset = std::mem::offset_of!(LazyNode<K, V>, key);
        self.tracer
            .touched(node.as_ptr().addr(), offset, size_of::<K>());
        node.key
    }

    /// Reports the value of `node` read or written.
    fn value_used(&self, node: NodeRef<'_, LazyNode<K, V>>) {
        let offset = std::mem::offset_of!(LazyNode<K, V>, value);
        self.tracer
            .touched(node.as_ptr().addr(), offset, size_of::<RwSpinLock<V>>());
    }

    /// The lock of `pred`, or the head's for `None`.
    fn lock_of<'g>(&'g self, pred: Tower<'g, K, V>) -> &'g RawRwSpinLock {
        pred.map_or(&self.head_lock, |pred| &pred.get().lock)
    }

    /// Optimistic (lock-free) search for the predecessors and successors of
    /// `key` at every level; the tower holding the key is the one found at
    /// the highest level.
    fn find<'g>(&'g self, key: &K, pin: &'g EbrGuard<'_>) -> Found<'g, K, V> {
        let (mut preds, mut succs) = ([None; MAX_LEVELS], [None; MAX_LEVELS]);
        let mut found = None;
        let mut pred = None;
        for level in (0..MAX_LEVELS).rev() {
            let mut curr = NodeRef::load(self.slot(pred, level), Ordering::Acquire, pin);
            while let Some(node) = curr.filter(|&node| self.peek(node) < *key) {
                pred = Some(node);
                curr = NodeRef::load(self.slot(pred, level), Ordering::Acquire, pin);
            }
            if found.is_none() {
                found = curr.filter(|node| node.key == *key);
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        (found, preds, succs)
    }

    /// Locks the distinct predecessors `preds[..height]` bottom-up, checking
    /// each level with `valid` under its lock; the held locks, or `None`,
    /// holding nothing, once a level fails.
    fn lock_preds<'g>(
        &'g self,
        preds: &Lanes<'g, K, V>,
        height: usize,
        valid: impl Fn(usize, Tower<'g, K, V>) -> bool,
    ) -> Option<Vec<WriteGuard<'g, RawRwSpinLock>>> {
        let mut locked: Vec<WriteGuard<'g, RawRwSpinLock>> = Vec::with_capacity(height);
        for (level, &pred) in preds.iter().enumerate().take(height) {
            let lock = self.lock_of(pred);
            if !locked.iter().any(|held| std::ptr::eq(held.target(), lock)) {
                locked.push(WriteGuard::lock(lock));
            }
            if !valid(level, pred) {
                return None;
            }
        }
        Some(locked)
    }

    /// Cursor batch-fetch primitive: appends up to `max` live, fully
    /// linked entries at or after `from`'s key in ascending order (the
    /// adapter enforces exclusive bounds).
    ///
    /// The optimistic traversal cannot pause mid-walk (a parked position
    /// could be invalidated by a concurrent validate-and-link), so cursors
    /// re-enter through [`LazySkipList::find`] once per batch, pinned for
    /// the batch.
    fn fetch_batch(&self, from: Bound<K>, max: usize, out: &mut Vec<(K, V)>) {
        let pin = self.collector.pin();
        let mut curr = match &from {
            Bound::Unbounded => NodeRef::load(self.slot(None, 0), Ordering::Acquire, &pin),
            Bound::Included(key) | Bound::Excluded(key) => self.find(key, &pin).2[0],
        };
        while let Some(node) = curr.filter(|_| out.len() < max) {
            if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire) {
                self.value_used(node);
                out.push((self.peek(node), *node.value.read()));
            }
            curr = NodeRef::load(self.slot(curr, 0), Ordering::Acquire, &pin);
        }
    }
}

impl<K, V, T: Tracer> Drop for LazySkipList<K, V, T> {
    fn drop(&mut self) {
        let mut curr = *self.head[0].get_mut();
        while !curr.is_null() {
            // SAFETY: exclusive access; every still-linked tower appears on
            // the bottom level exactly once.  Removed towers were unlinked
            // from every level and retired, so the collector (dropped right
            // after this body) frees them: nothing is freed twice.
            let mut node = unsafe { Box::from_raw(curr) };
            curr = *node.next[0].get_mut();
        }
    }
}

impl<K: IndexKey, V: IndexValue, T: Tracer + Send + Sync> ConcurrentIndex<K, V>
    for LazySkipList<K, V, T>
{
    fn get(&self, key: &K) -> Option<V> {
        let pin = self.collector.pin();
        let node = self.find(key, &pin).0?;
        if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire) {
            self.value_used(node);
            Some(*node.value.read())
        } else {
            None
        }
    }

    /// Inserts `key → value` with upsert semantics.
    fn insert(&self, key: K, value: V) -> Option<V> {
        let height = sample_tower_height();
        let mut backoff = Backoff::new();
        let pin = self.collector.pin();
        loop {
            let (found, preds, succs) = self.find(&key, &pin);
            if let Some(node) = found {
                if node.marked.load(Ordering::Acquire) {
                    // A remover is physically unlinking this tower; wait it
                    // out, then insert a fresh tower (deleted towers are
                    // never revived — their remover owns them up to
                    // retirement).
                    backoff.snooze();
                    continue;
                }
                if !node.fully_linked.load(Ordering::Acquire) {
                    // Another insert of the same key is in flight: wait for
                    // it to become visible, then update.
                    backoff.snooze();
                    continue;
                }
                let mut value_guard = node.value.write();
                // Re-validate under the value lock: `remove` reads the
                // victim's value (through this same lock) only *after*
                // setting `marked`, so seeing it still clear here means a
                // racing remove will observe — and report — this update
                // rather than silently discarding it.
                if node.marked.load(Ordering::Acquire) {
                    drop(value_guard);
                    backoff.snooze();
                    continue; // Lost to a remove: wait, then re-insert.
                }
                let old = std::mem::replace(&mut *value_guard, value);
                self.value_used(node);
                return Some(old);
            }

            // Lock the predecessors bottom-up, skipping duplicates, and
            // validate the snapshot.
            let Some(locked) = self.lock_preds(&preds, height, |level, pred| {
                let succ = succs[level];
                let (pred_ok, succ_ok) = (unmarked(pred), unmarked(succ));
                pred_ok
                    && succ_ok
                    && self.slot(pred, level).load(Ordering::Acquire) == NodeRef::or_null(succ)
            }) else {
                backoff.snooze();
                continue;
            };

            let node = NodeRef::alloc(LazyNode::new(key, value, height), &pin);
            let next = &*node.get().next;
            self.tracer
                .node_allocated(node.as_ptr().addr(), size_of::<LazyNode<K, V>>());
            self.tracer
                .node_allocated(next.as_ptr().addr(), size_of_val(next));
            for (level, &succ) in succs.iter().enumerate().take(height) {
                self.slot(Some(node), level)
                    .store(NodeRef::or_null(succ), Ordering::Relaxed);
            }
            for (level, &pred) in preds.iter().enumerate().take(height) {
                self.slot(pred, level)
                    .store(node.as_ptr(), Ordering::Release);
            }
            node.fully_linked.store(true, Ordering::Release);
            drop(locked);
            self.len.add(1);
            self.towers_published.add(1);
            return None;
        }
    }

    /// Removes `key`: logical deletion (`marked`) followed by physical
    /// unlinking at every level and retirement to the epoch collector.
    fn remove(&self, key: &K) -> Option<V> {
        let mut backoff = Backoff::new();
        let pin = self.collector.pin();
        loop {
            let node = self.find(key, &pin).0?;
            if node.marked.load(Ordering::Acquire) {
                // Another remover owns this tower.
                return None;
            }
            if !node.fully_linked.load(Ordering::Acquire) {
                // The inserting thread has not finished linking; wait so
                // the unlink below sees a complete tower.
                backoff.snooze();
                continue;
            }
            // Commit the logical delete under the victim's own lock;
            // holding it for the rest of the removal keeps the victim's
            // forward pointers frozen (inserts that would link behind the
            // victim must lock it as a predecessor).
            let victim = WriteGuard::lock(&node.lock);
            if node.marked.load(Ordering::Acquire) {
                return None;
            }
            node.marked.store(true, Ordering::Release);
            let value = *node.value.read();
            let height = node.height();

            // Physically unlink: lock the predecessors bottom-up
            // (descending key order, consistent with insert), validate that
            // each still points at the victim, and splice it out top-down.
            loop {
                let (_, unlink_preds, _) = self.find(key, &pin);
                let locked = self.lock_preds(&unlink_preds, height, |level, pred| {
                    unmarked(pred)
                        && self.slot(pred, level).load(Ordering::Acquire) == node.as_ptr()
                });
                if locked.is_some() {
                    for level in (0..height).rev() {
                        let next = node.next[level].load(Ordering::Relaxed);
                        self.slot(unlink_preds[level], level)
                            .store(next, Ordering::Release);
                    }
                    break;
                }
                backoff.snooze();
            }
            drop(victim);
            self.len.add(-1);
            // SAFETY: the tower is unlinked from every level (no new
            // traversal can reach it), this thread won the `marked` race, so
            // it is retired exactly once, and it was allocated by
            // `NodeRef::alloc`, a `Box`.
            unsafe { pin.retire_box(node.as_ptr()) };
            return Some(value);
        }
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        Cursor::new(BatchCursor::new(
            lo,
            hi,
            SCAN_BATCH,
            Box::new(move |from, max, out| self.fetch_batch(from, max, out)),
        ))
    }
    fn len(&self) -> usize {
        self.len.sum().max(0) as usize
    }
    /// Attempts one epoch advancement (see
    /// [`bskip_sync::EbrCollector::try_collect`]); returns the number of
    /// towers freed.
    fn try_reclaim(&self) -> usize {
        self.collector.try_collect()
    }
    fn name(&self) -> &'static str {
        "lazy skiplist"
    }
    /// `live_nodes` counts towers linked in minus towers retired.
    fn stats(&self) -> IndexStats {
        let reclamation = self.collector.stats();
        let published = self.towers_published.sum() as u64;
        IndexStats::new()
            .with_kind("keys", StatKind::Gauge, self.len() as u64)
            .with_kind(
                "live_nodes",
                StatKind::Gauge,
                published.saturating_sub(reclamation.retired),
            )
            .with_reclamation(reclamation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_update_remove() {
        let list: LazySkipList<u64, u64> = LazySkipList::new();
        assert_eq!(list.insert(1, 10), None);
        assert_eq!(list.insert(1, 11), Some(10));
        assert_eq!(list.get(&1), Some(11));
        assert_eq!(list.remove(&1), Some(11));
        assert_eq!(list.get(&1), None);
        assert_eq!(list.remove(&1), None);
        assert_eq!(list.len(), 0);
        assert_eq!(list.insert(1, 12), None);
        assert_eq!(list.get(&1), Some(12));
    }

    #[test]
    fn bulk_insert_matches_reference() {
        let list: LazySkipList<u64, u64> = LazySkipList::new();
        let mut reference = BTreeMap::new();
        for i in 0..3000u64 {
            let key = (i * 2654435761) % 50_000;
            assert_eq!(list.insert(key, i), reference.insert(key, i));
        }
        for (key, value) in &reference {
            assert_eq!(list.get(key), Some(*value));
        }
        let mut scanned = Vec::new();
        scanned.extend(list.scan(..));
        assert_eq!(scanned, reference.into_iter().collect::<Vec<_>>());
    }

    /// One random insert / get / scan / remove stream applied to `list`,
    /// its towers as tall as in every other run; returns every result and
    /// the final statistics.
    fn observe<T: Tracer + Send + Sync>(
        list: &LazySkipList<u64, u64, T>,
    ) -> (Vec<Option<u64>>, IndexStats) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        crate::tower::reseed_tower_rng(5);
        let mut rng = StdRng::seed_from_u64(29);
        let mut results = Vec::new();
        for _ in 0..6000 {
            let key = rng.gen_range(0..1500u64);
            match rng.gen_range(0..10) {
                0..=4 => results.push(list.insert(key, rng.gen())),
                5..=6 => results.push(list.get(&key)),
                7 => results.extend(list.scan(key..).take(20).map(|(k, v)| Some(k ^ v))),
                _ => results.push(list.remove(&key)),
            }
        }
        (results, list.stats())
    }

    #[test]
    fn tracing_changes_nothing_and_sees_every_kind_of_event() {
        let traced = LazySkipList::with_tracer(crate::Recording::default());
        assert_eq!(observe(&LazySkipList::new()), observe(&traced));
        // Every touch lay inside an announced node (`Recording` checks).
        assert!(!traced.tracer().touched.lock().unwrap().is_empty());
        // The head's array, then every tower ever linked as two nodes.
        let stats = traced.stats();
        let towers = stats.get("live_nodes").unwrap() + stats.reclamation().unwrap().retired;
        let allocations = traced.tracer().allocations.load(Ordering::Relaxed);
        assert_eq!(allocations, 1 + 2 * towers);
    }

    #[test]
    fn a_panic_under_the_link_locks_releases_them() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let list = LazySkipList::with_tracer(crate::Tripwire::default());
        for key in 0..100u64 {
            list.insert(key * 2, key);
        }
        // The new tower's `node_allocated` arms the tripwire, and its first
        // link store fires it, with every predecessor locked.
        list.tracer().arm_on_alloc.store(true, Ordering::Relaxed);
        let inserted = catch_unwind(AssertUnwindSafe(|| list.insert(51, 0)));
        assert!(inserted.is_err(), "the tripwire fired");
        // Read every lock before taking any, so a leaked one fails here.
        assert!(!list.head_lock.is_locked(), "head lock");
        let pin = list.collector.pin();
        let mut curr = NodeRef::load(&list.head[0], Ordering::Acquire, &pin);
        while let Some(node) = curr {
            assert!(!node.lock.is_locked(), "the lock of {}", node.key);
            curr = NodeRef::load(&node.next[0], Ordering::Acquire, &pin);
        }
        drop(pin);
        assert_eq!(list.insert(51, 5), None);
        assert_eq!(list.get(&51), Some(5));
    }

    #[test]
    fn concurrent_inserts_from_many_threads() {
        let list = Arc::new(LazySkipList::<u64, u64>::new());
        let threads = 8u64;
        let per_thread = 3000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Interleaved key space so threads contend on the
                        // same regions.
                        list.insert(i * threads + t, t);
                    }
                });
            }
        });
        assert_eq!(list.len() as u64, threads * per_thread);
        let mut previous = None;
        let mut count = 0u64;
        for (k, _) in list.scan(..) {
            if let Some(p) = previous {
                assert!(p < k);
            }
            previous = Some(k);
            count += 1;
        }
        assert_eq!(count, threads * per_thread);
    }

    #[test]
    fn removal_is_physical_and_backlog_drains() {
        let list: LazySkipList<u64, u64> = LazySkipList::new();
        for round in 0..20u64 {
            for key in 0..200u64 {
                list.insert(key, key + round);
            }
            for key in 0..200u64 {
                assert_eq!(list.remove(&key), Some(key + round), "round {round}");
            }
        }
        assert_eq!(list.len(), 0);
        let stats = list.stats().reclamation().unwrap();
        assert_eq!(stats.retired, 20 * 200, "every removed tower is retired");
        assert!(
            stats.backlog < stats.retired / 2,
            "amortized collection keeps the backlog bounded (backlog {})",
            stats.backlog
        );
        for _ in 0..4 {
            list.try_reclaim();
        }
        assert_eq!(list.stats().reclamation().unwrap().backlog, 0);
        // Keys are re-insertable after physical removal.
        assert_eq!(list.insert(7, 70), None);
        assert_eq!(list.get(&7), Some(70));
    }

    #[test]
    fn concurrent_insert_remove_churn_stays_consistent() {
        let list = Arc::new(LazySkipList::<u64, u64>::new());
        let threads = 4u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    // Each thread owns a disjoint key range, so every
                    // insert/remove outcome is deterministic.
                    let base = t * 10_000;
                    for round in 0..40u64 {
                        for key in base..base + 250 {
                            assert_eq!(list.insert(key, round), None);
                        }
                        for key in base..base + 250 {
                            assert_eq!(list.remove(&key), Some(round));
                        }
                    }
                });
            }
        });
        assert_eq!(list.len(), 0);
        let stats = list.stats().reclamation().unwrap();
        assert_eq!(stats.retired, threads * 40 * 250);
        for _ in 0..4 {
            list.try_reclaim();
        }
        assert_eq!(list.stats().reclamation().unwrap().backlog, 0);
    }

    #[test]
    fn concurrent_mixed_read_write() {
        let list = Arc::new(LazySkipList::<u64, u64>::new());
        for key in 0..1000u64 {
            list.insert(key, key);
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for i in 0..5000u64 {
                        let key = (i * 31 + t * 7) % 2000;
                        if key % 3 == 0 {
                            list.insert(key, key + 1);
                        } else {
                            let _ = list.get(&key);
                        }
                    }
                });
            }
        });
        // Everything originally inserted is still reachable.
        for key in (0..1000u64).filter(|k| k % 3 != 0) {
            assert_eq!(list.get(&key), Some(key));
        }
    }
}
