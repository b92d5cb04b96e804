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
use bskip_sync::{Backoff, EbrCollector, RawRwSpinLock, RwSpinLock, StripedCounter};

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
// the value lock; nodes are never freed while the list is shared.  The
// tracer moves with the list.
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

    /// Forward pointer `level` of `pred`, or of the head for a null
    /// `pred`, reported used.
    ///
    /// # Safety: `pred`, when non-null, must point to a live node of
    /// sufficient height.
    unsafe fn slot(&self, pred: *mut LazyNode<K, V>, level: usize) -> &AtomicPtr<LazyNode<K, V>> {
        let links = if pred.is_null() {
            &self.head
        } else {
            // SAFETY: per this function's contract `pred` is live.
            unsafe { &(*pred).next }
        };
        let width = size_of::<AtomicPtr<LazyNode<K, V>>>();
        self.tracer
            .touched(links.as_ptr().addr(), level * width, width);
        &links[level]
    }

    /// The key of the live node `node`, reported peeked.
    ///
    /// # Safety: `node` must point to a live node.
    unsafe fn peek(&self, node: *mut LazyNode<K, V>) -> K {
        let offset = std::mem::offset_of!(LazyNode<K, V>, key);
        self.tracer.touched(node.addr(), offset, size_of::<K>());
        // SAFETY: per this function's contract `node` is live.
        unsafe { (*node).key }
    }

    /// Reports the value of `node` read or written.
    fn value_used(&self, node: *mut LazyNode<K, V>) {
        let offset = std::mem::offset_of!(LazyNode<K, V>, value);
        self.tracer
            .touched(node.addr(), offset, size_of::<RwSpinLock<V>>());
    }

    unsafe fn lock_of(&self, pred: *mut LazyNode<K, V>) -> &RawRwSpinLock {
        if pred.is_null() {
            &self.head_lock
        } else {
            // SAFETY: the caller passes null or a live node.
            unsafe { &(*pred).lock }
        }
    }

    /// Optimistic (lock-free) search for the predecessors and successors of
    /// `key` at every level.  Returns the highest level at which the key was
    /// found, if any.
    ///
    /// # Safety: nodes are never freed while the list is shared.
    unsafe fn find(
        &self,
        key: &K,
        preds: &mut [*mut LazyNode<K, V>; MAX_LEVELS],
        succs: &mut [*mut LazyNode<K, V>; MAX_LEVELS],
    ) -> Option<usize> {
        let mut found = None;
        let mut pred: *mut LazyNode<K, V> = std::ptr::null_mut();
        for level in (0..MAX_LEVELS).rev() {
            // SAFETY: nodes are never freed while the list is shared (this
            // function's contract), so `pred` and every `curr` loaded from a
            // link at `level` are live nodes at least `level + 1` tall.
            let curr = unsafe {
                let mut curr = self.slot(pred, level).load(Ordering::Acquire);
                while !curr.is_null() && self.peek(curr) < *key {
                    pred = curr;
                    curr = self.slot(curr, level).load(Ordering::Acquire);
                }
                if found.is_none() && !curr.is_null() && (*curr).key == *key {
                    found = Some(level);
                }
                curr
            };
            preds[level] = pred;
            succs[level] = curr;
        }
        found
    }

    /// Cursor batch-fetch primitive: appends up to `max` live, fully
    /// linked entries at or after `from`'s key in ascending order (the
    /// adapter enforces exclusive bounds).
    ///
    /// The optimistic traversal cannot pause mid-walk (a parked position
    /// could be invalidated by a concurrent validate-and-link), so cursors
    /// re-enter through [`LazySkipList::find`] once per batch.
    fn fetch_batch(&self, from: Bound<K>, max: usize, out: &mut Vec<(K, V)>) {
        let mut preds = [std::ptr::null_mut(); MAX_LEVELS];
        let mut succs = [std::ptr::null_mut(); MAX_LEVELS];
        let _guard = self.collector.pin();
        // SAFETY: optimistic traversal; the guard pins the epoch for the
        // duration of the batch, so concurrently unlinked towers (whose
        // forward pointers stay intact) remain dereferenceable.
        unsafe {
            let mut curr = match &from {
                Bound::Unbounded => self.slot(std::ptr::null_mut(), 0).load(Ordering::Acquire),
                Bound::Included(key) | Bound::Excluded(key) => {
                    self.find(key, &mut preds, &mut succs);
                    succs[0]
                }
            };
            while !curr.is_null() && out.len() < max {
                if (*curr).fully_linked.load(Ordering::Acquire)
                    && !(*curr).marked.load(Ordering::Acquire)
                {
                    self.value_used(curr);
                    out.push((self.peek(curr), *(*curr).value.read()));
                }
                curr = self.slot(curr, 0).load(Ordering::Acquire);
            }
        }
    }
}

impl<K, V, T: Tracer> Drop for LazySkipList<K, V, T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; every still-linked tower appears on the
        // bottom level exactly once.  Removed towers were unlinked from
        // every level and retired, so the collector (dropped right after
        // this body) frees them — nothing is freed twice.
        unsafe {
            let mut curr = self.head[0].load(Ordering::Relaxed);
            while !curr.is_null() {
                let next = (*curr).next[0].load(Ordering::Relaxed);
                drop(Box::from_raw(curr));
                curr = next;
            }
        }
    }
}

impl<K: IndexKey, V: IndexValue, T: Tracer + Send + Sync> ConcurrentIndex<K, V>
    for LazySkipList<K, V, T>
{
    fn get(&self, key: &K) -> Option<V> {
        let mut preds = [std::ptr::null_mut(); MAX_LEVELS];
        let mut succs = [std::ptr::null_mut(); MAX_LEVELS];
        let _guard = self.collector.pin();
        // SAFETY: optimistic traversal; the pinned guard keeps every tower
        // the walk can reach alive even if concurrently unlinked.
        unsafe {
            let found = self.find(key, &mut preds, &mut succs)?;
            let node = succs[found];
            if (*node).fully_linked.load(Ordering::Acquire)
                && !(*node).marked.load(Ordering::Acquire)
            {
                self.value_used(node);
                Some(*(*node).value.read())
            } else {
                None
            }
        }
    }

    /// Inserts `key → value` with upsert semantics.
    fn insert(&self, key: K, value: V) -> Option<V> {
        let height = sample_tower_height();
        let mut preds = [std::ptr::null_mut(); MAX_LEVELS];
        let mut succs = [std::ptr::null_mut(); MAX_LEVELS];
        let mut backoff = Backoff::new();
        let _guard = self.collector.pin();
        // SAFETY: lazy-skiplist protocol — predecessors are locked and
        // validated before any pointer is written; the pinned guard keeps
        // every traversed tower alive.
        unsafe {
            loop {
                if let Some(found) = self.find(&key, &mut preds, &mut succs) {
                    let node = succs[found];
                    if (*node).marked.load(Ordering::Acquire) {
                        // A remover is physically unlinking this tower;
                        // wait it out, then insert a fresh tower (deleted
                        // towers are never revived — their remover owns
                        // them up to retirement).
                        backoff.snooze();
                        continue;
                    }
                    if !(*node).fully_linked.load(Ordering::Acquire) {
                        // Another insert of the same key is in flight: wait
                        // for it to become visible, then update.
                        backoff.snooze();
                        continue;
                    }
                    let mut value_guard = (*node).value.write();
                    // Re-validate under the value lock: `remove` reads the
                    // victim's value (through this same lock) only *after*
                    // setting `marked`, so seeing it still clear here means
                    // a racing remove will observe — and report — this
                    // update rather than silently discarding it.
                    if (*node).marked.load(Ordering::Acquire) {
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
                let mut locked: Vec<*mut LazyNode<K, V>> = Vec::with_capacity(height);
                let mut valid = true;
                for level in 0..height {
                    let pred = preds[level];
                    if !locked.contains(&pred) {
                        self.lock_of(pred).lock_exclusive();
                        locked.push(pred);
                    }
                    let succ = succs[level];
                    let pred_ok = pred.is_null() || !(*pred).marked.load(Ordering::Acquire);
                    let succ_ok = succ.is_null() || !(*succ).marked.load(Ordering::Acquire);
                    if !(pred_ok
                        && succ_ok
                        && self.slot(pred, level).load(Ordering::Acquire) == succ)
                    {
                        valid = false;
                        break;
                    }
                }
                if !valid {
                    for pred in locked {
                        self.lock_of(pred).unlock_exclusive();
                    }
                    backoff.snooze();
                    continue;
                }

                let node = Box::into_raw(LazyNode::new(key, value, height));
                let next = &*(*node).next;
                self.tracer
                    .node_allocated(node.addr(), size_of::<LazyNode<K, V>>());
                self.tracer
                    .node_allocated(next.as_ptr().addr(), size_of_val(next));
                for (level, &succ) in succs.iter().enumerate().take(height) {
                    self.slot(node, level).store(succ, Ordering::Relaxed);
                }
                for (level, &pred) in preds.iter().enumerate().take(height) {
                    self.slot(pred, level).store(node, Ordering::Release);
                }
                (*node).fully_linked.store(true, Ordering::Release);
                for pred in locked {
                    self.lock_of(pred).unlock_exclusive();
                }
                self.len.add(1);
                self.towers_published.add(1);
                return None;
            }
        }
    }

    /// Removes `key`: logical deletion (`marked`) followed by physical
    /// unlinking at every level and retirement to the epoch collector.
    fn remove(&self, key: &K) -> Option<V> {
        let mut preds = [std::ptr::null_mut(); MAX_LEVELS];
        let mut succs = [std::ptr::null_mut(); MAX_LEVELS];
        let mut backoff = Backoff::new();
        let epoch_guard = self.collector.pin();
        // SAFETY: the full lazy-skiplist removal protocol described in the
        // module docs; the pinned guard keeps traversed towers alive.
        unsafe {
            loop {
                let found = self.find(key, &mut preds, &mut succs)?;
                let node = succs[found];
                if (*node).marked.load(Ordering::Acquire) {
                    // Another remover owns this tower.
                    return None;
                }
                if !(*node).fully_linked.load(Ordering::Acquire) {
                    // The inserting thread has not finished linking; wait
                    // so the unlink below sees a complete tower.
                    backoff.snooze();
                    continue;
                }
                // Commit the logical delete under the victim's own lock;
                // holding it for the rest of the removal keeps the
                // victim's forward pointers frozen (inserts that would
                // link behind the victim must lock it as a predecessor).
                (*node).lock.lock_exclusive();
                if (*node).marked.load(Ordering::Acquire) {
                    (*node).lock.unlock_exclusive();
                    return None;
                }
                (*node).marked.store(true, Ordering::Release);
                let value = *(*node).value.read();
                let height = (*node).height();

                // Physically unlink: lock the predecessors bottom-up
                // (descending key order, consistent with insert), validate
                // that each still points at the victim, and splice it out
                // top-down.
                loop {
                    let mut unlink_preds = [std::ptr::null_mut(); MAX_LEVELS];
                    let mut unlink_succs = [std::ptr::null_mut(); MAX_LEVELS];
                    self.find(key, &mut unlink_preds, &mut unlink_succs);
                    let mut locked: Vec<*mut LazyNode<K, V>> = Vec::with_capacity(height);
                    let mut valid = true;
                    for (level, &pred) in unlink_preds.iter().enumerate().take(height) {
                        if !locked.contains(&pred) {
                            self.lock_of(pred).lock_exclusive();
                            locked.push(pred);
                        }
                        let pred_ok = pred.is_null() || !(*pred).marked.load(Ordering::Acquire);
                        if !(pred_ok && self.slot(pred, level).load(Ordering::Acquire) == node) {
                            valid = false;
                            break;
                        }
                    }
                    if valid {
                        for level in (0..height).rev() {
                            let next = (*node).next[level].load(Ordering::Relaxed);
                            self.slot(unlink_preds[level], level)
                                .store(next, Ordering::Release);
                        }
                        for pred in locked {
                            self.lock_of(pred).unlock_exclusive();
                        }
                        break;
                    }
                    for pred in locked {
                        self.lock_of(pred).unlock_exclusive();
                    }
                    backoff.snooze();
                }
                (*node).lock.unlock_exclusive();
                self.len.add(-1);
                // SAFETY: the tower is unlinked from every level (no new
                // traversal can reach it) and this thread won the `marked`
                // race, so it is retired exactly once.
                epoch_guard.retire_box(node);
                return Some(value);
            }
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
