//! A classic lock-free concurrent skiplist: one element per node.
//!
//! This is the stand-in for Java's `ConcurrentSkipListMap`, which is
//! lock-free too (Folly's `ConcurrentSkipList` locks per node and is
//! [`crate::LazySkipList`]'s original): every element gets its
//! own *tower* node with one atomic `next` pointer per level, towers are
//! linked bottom-up with compare-and-swap, and readers traverse without any
//! locks.  It is exactly the design whose cache behaviour the paper
//! criticizes — the pointers live in a second allocation, the boxed `next`
//! array, so a point lookup touches two cache lines per visited element
//! (the node's key and the line of `next` it follows) — which is what the
//! Figure 1 experiment needs to reproduce (Table 1 traces the lazy list,
//! laid out the same way).
//!
//! Scope notes:
//!
//! * Insertions and lookups are lock-free.  Values are updated in place
//!   under a tiny per-node spinlock so `insert` can return the previous
//!   value with upsert semantics.
//! * `remove` performs **physical deletion**: the winner of the logical
//!   `deleted` race freezes the tower by CAS-setting a *mark bit* on each
//!   of its `next` pointers (Harris-style pointer marking, top level
//!   down), unlinks the tower from every level, and retires it to the
//!   list's epoch-based collector ([`bskip_sync::EbrCollector`]).
//!   Traversals help unlink marked towers they encounter.  Because
//!   readers hold no locks, a retired tower may still be referenced by a
//!   concurrent traversal — every operation therefore pins the collector,
//!   and the tower's memory is freed only after the grace period.
//!
//! # Why the unlink is race-free
//!
//! Two hazards make naive physical deletion of a CAS-linked skiplist
//! unsound, and two mechanisms close them:
//!
//! * **Lost insert after the victim.**  An insert whose predecessor at
//!   some level is the victim CASes the victim's `next` pointer.  The
//!   remover's mark bit makes that CAS fail (the expected unmarked value
//!   no longer matches), so after a level is marked nothing can be linked
//!   behind the victim at that level, and the unlink CAS — which moves the
//!   predecessor's pointer to the victim's *frozen* successor — cannot
//!   strand a new node.
//! * **Unlink racing the victim's own level raising.**  A tower is linked
//!   bottom-up; unlinking a half-raised tower could miss levels linked
//!   afterwards.  Each tower therefore carries a `link_done` flag set by
//!   the inserting thread once raising finishes; `remove` waits for it
//!   before winning the `deleted` race, so marking and unlinking always
//!   see the complete tower and no new level can appear afterwards.
//!
//! Retirement happens only after the remover has confirmed the tower is
//! unlinked from **every** level, so a tower that is reachable by a new
//! traversal is never handed to the collector.

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use bskip_index::{
    BatchCursor, ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue, StatKind,
};
use bskip_sync::{Backoff, EbrCollector, EbrGuard, RwSpinLock, StripedCounter};

use crate::handle::NodeRef;
use crate::tower::{is_marked, marked, sample_tower_height, unmark, MAX_LEVELS};

/// Entries fetched per cursor re-entry; one tower per entry means one cache
/// line per entry, so there is no node-granularity to align with.
const SCAN_BATCH: usize = 64;

/// A tower reached under a pin; as a predecessor, `None` is the head.
type TowerRef<'g, K, V> = Option<NodeRef<'g, Tower<K, V>>>;

/// Per-level predecessor/successor arrays produced by `find_preds`.
type TowerLanes<'g, K, V> = [TowerRef<'g, K, V>; MAX_LEVELS];

/// One element of the skiplist: a key, its value, and a tower of atomic
/// forward pointers.
struct Tower<K, V> {
    key: K,
    value: RwSpinLock<V>,
    /// Logical-deletion flag; the winning `swap(true)` owns the physical
    /// unlink and the retirement.
    deleted: AtomicBool,
    /// Set by the inserting thread once every level of the tower is
    /// linked; `remove` waits for it so unlinking sees the full tower.
    link_done: AtomicBool,
    next: Box<[AtomicPtr<Tower<K, V>>]>,
}

impl<K, V> Tower<K, V> {
    fn new(key: K, value: V, height: usize) -> Box<Self> {
        let next = (0..height)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Tower {
            key,
            value: RwSpinLock::new(value),
            deleted: AtomicBool::new(false),
            link_done: AtomicBool::new(false),
            next,
        })
    }

    fn height(&self) -> usize {
        self.next.len()
    }
}

/// A lock-free concurrent skiplist with one element per node.
///
/// # Example
///
/// ```
/// use bskip_baselines::LockFreeSkipList;
/// use bskip_index::ConcurrentIndex;
///
/// let list: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
/// list.insert(3, 30);
/// list.insert(1, 10);
/// assert_eq!(list.get(&3), Some(30));
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.remove(&3), Some(30));
/// assert_eq!(list.len(), 1);
/// ```
pub struct LockFreeSkipList<K, V> {
    /// Head forward pointers, one per level (`null` = end of level).
    head: Box<[AtomicPtr<Tower<K, V>>]>,
    len: StripedCounter,
    /// Epoch-based collector for towers unlinked by `remove`.
    collector: EbrCollector,
    /// Towers ever linked into the list; minus the collector's retired
    /// count this is the live structural node count.
    towers_published: StripedCounter,
}

// SAFETY: towers are only mutated through atomics and the per-node value
// lock; unlinked towers are retired to the epoch collector and freed only
// after every traversal that could reach them has unpinned.
unsafe impl<K: IndexKey, V: IndexValue> Send for LockFreeSkipList<K, V> {}
// SAFETY: as for `Send`: shared access goes through the same atomics and lock.
unsafe impl<K: IndexKey, V: IndexValue> Sync for LockFreeSkipList<K, V> {}

impl<K: IndexKey, V: IndexValue> Default for LockFreeSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue> LockFreeSkipList<K, V> {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        let head = (0..MAX_LEVELS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockFreeSkipList {
            head,
            len: StripedCounter::new(),
            collector: EbrCollector::new(),
            towers_published: StripedCounter::new(),
        }
    }

    /// The forward-pointer slot following `pred` at `level` (`None`
    /// addresses the head).
    fn slot<'g>(&'g self, pred: TowerRef<'g, K, V>, level: usize) -> &'g AtomicPtr<Tower<K, V>> {
        pred.map_or(&self.head[level], |pred| &pred.get().next[level])
    }

    /// Swings `pred`'s link at `level` from `node` to `next`, unlinking
    /// `node` there; false if the link no longer points at `node`.
    fn swing(
        &self,
        pred: TowerRef<'_, K, V>,
        level: usize,
        node: NodeRef<'_, Tower<K, V>>,
        next: TowerRef<'_, K, V>,
    ) -> bool {
        self.slot(pred, level)
            .compare_exchange(
                node.as_ptr(),
                NodeRef::or_null(next),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Computes, for every level, the last tower with key `< key` (`None`
    /// meaning the head) and its successor at that level, **helping to
    /// unlink** any marked (deleted) tower encountered on the way.
    fn find_preds<'g>(
        &'g self,
        key: &K,
        pin: &'g EbrGuard<'_>,
    ) -> (TowerLanes<'g, K, V>, TowerLanes<'g, K, V>) {
        'retry: loop {
            let mut preds = [None; MAX_LEVELS];
            let mut succs = [None; MAX_LEVELS];
            let mut pred = None;
            for level in (0..MAX_LEVELS).rev() {
                let mut curr = NodeRef::load(self.slot(pred, level), Ordering::Acquire, pin);
                while let Some(node) = curr {
                    let (next, deleted) =
                        NodeRef::load_marked(&node.next[level], Ordering::Acquire, pin);
                    if deleted {
                        // `node` is deleted at this level: help unlink it so
                        // marked towers never serve as predecessors.
                        if !self.swing(pred, level, node, next) {
                            // The predecessor changed under us (possibly
                            // marked itself): recompute from the top.
                            continue 'retry;
                        }
                        curr = next;
                        continue;
                    }
                    if node.key < *key {
                        pred = curr;
                        curr = next;
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
            }
            return (preds, succs);
        }
    }

    /// Ensures `node` (whose `next[level]` is already marked) is no longer
    /// linked at `level`, performing the unlink CAS if necessary.
    ///
    /// The walk searches by **pointer identity** and keeps going through
    /// towers with a key equal to the victim's, because a fresh tower for
    /// the same key may already be linked in front of it.  `node` must
    /// have all levels marked and `link_done` set (no concurrent raising).
    fn unlink_level(&self, node: NodeRef<'_, Tower<K, V>>, level: usize, pin: &EbrGuard<'_>) {
        let key = &node.get().key;
        'restart: loop {
            // Position near the key with a full descent (which also helps
            // unlink the victim wherever it is directly reachable), so the
            // identity walk below only crosses the few equal-key towers
            // that may shadow the victim — not the whole level.
            let (preds, _) = self.find_preds(key, pin);
            let mut pred = preds[level];
            let mut curr = NodeRef::load(self.slot(pred, level), Ordering::Acquire, pin);
            while let Some(tower) = curr {
                if tower.as_ptr() == node.as_ptr() {
                    let next = NodeRef::load(&node.next[level], Ordering::Acquire, pin);
                    if self.swing(pred, level, node, next) {
                        return;
                    }
                    // The predecessor moved (or is itself marked): retry.
                    continue 'restart;
                }
                if tower.key > *key {
                    return; // Walked past the victim's position: unlinked.
                }
                let (next, deleted) =
                    NodeRef::load_marked(&tower.next[level], Ordering::Acquire, pin);
                if deleted {
                    // Another deleted tower blocks the walk: help unlink it
                    // so a marked predecessor cannot stall us.
                    if !self.swing(pred, level, tower, next) {
                        continue 'restart;
                    }
                    curr = next;
                    continue;
                }
                pred = curr;
                curr = next;
            }
            return; // End of level: not (or no longer) linked.
        }
    }

    /// Cursor batch-fetch primitive: appends up to `max` live entries at
    /// or after `from`'s key, in ascending order, walking the bottom lane
    /// from the tower the search locates (the adapter enforces exclusive
    /// bounds).
    ///
    /// The lock-free list cannot pause mid-traversal (a parked cursor
    /// would pin its epoch indefinitely and stall reclamation), so scans
    /// re-enter through [`LockFreeSkipList::find_preds`] once per batch,
    /// pinning only for the batch's duration.
    fn fetch_batch(&self, from: Bound<K>, max: usize, out: &mut Vec<(K, V)>) {
        let pin = self.collector.pin();
        let mut curr = match &from {
            Bound::Unbounded => NodeRef::load(&self.head[0], Ordering::Acquire, &pin),
            Bound::Included(key) | Bound::Excluded(key) => self.find_preds(key, &pin).1[0],
        };
        while let Some(node) = curr.filter(|_| out.len() < max) {
            if !node.deleted.load(Ordering::Acquire) {
                out.push((node.key, *node.value.read()));
            }
            curr = NodeRef::load(&node.next[0], Ordering::Acquire, &pin);
        }
    }
}

impl<K, V> Drop for LockFreeSkipList<K, V> {
    fn drop(&mut self) {
        let mut curr = unmark(*self.head[0].get_mut());
        while !curr.is_null() {
            // SAFETY: `&mut self` means no concurrent accessors remain;
            // every still-linked tower is reachable from the bottom level
            // exactly once.  Removed towers were unlinked from every level
            // and retired, so the collector (dropped right after this body)
            // frees them: nothing is freed twice.
            let mut tower = unsafe { Box::from_raw(curr) };
            curr = unmark(*tower.next[0].get_mut());
        }
    }
}

impl<K: IndexKey, V: IndexValue> ConcurrentIndex<K, V> for LockFreeSkipList<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        let pin = self.collector.pin();
        let mut pred = None;
        for level in (0..MAX_LEVELS).rev() {
            let mut curr = NodeRef::load(self.slot(pred, level), Ordering::Acquire, &pin);
            while let Some(node) = curr.filter(|node| node.key < *key) {
                pred = curr;
                curr = NodeRef::load(&node.next[level], Ordering::Acquire, &pin);
            }
            // On a key match, report the value only if the tower is live.
            // A *deleted* match must not end the search: a fresh live tower
            // for the same key may exist in front of it at lower levels
            // (inserts link new same-key towers before mid-unlink old
            // ones), so keep descending.
            if let Some(node) =
                curr.filter(|node| node.key == *key && !node.deleted.load(Ordering::Acquire))
            {
                return Some(*node.value.read());
            }
        }
        None
    }

    /// Inserts `key → value`, returning the previous value when the key was
    /// already present (upsert semantics).
    fn insert(&self, key: K, value: V) -> Option<V> {
        let pin = self.collector.pin();
        loop {
            let (mut preds, mut succs) = self.find_preds(&key, &pin);
            // Key already present and live: update the value in place.  (A
            // deleted same-key tower may still be mid-unlink; the fresh
            // tower below is simply linked in front of it.)
            if let Some(node) =
                succs[0].filter(|node| node.key == key && !node.deleted.load(Ordering::Acquire))
            {
                let mut value_guard = node.value.write();
                // Re-validate under the value lock: `remove` reads the
                // victim's value (through this same lock) only *after*
                // setting `deleted`, so seeing it still clear here means a
                // racing remove will observe — and report — this update
                // rather than silently discarding it.
                if node.deleted.load(Ordering::Acquire) {
                    drop(value_guard);
                    continue; // Lost to a remove: insert a fresh tower.
                }
                let old = std::mem::replace(&mut *value_guard, value);
                return Some(old);
            }

            let height = sample_tower_height();
            let tower = Tower::new(key, value, height);
            let succ = NodeRef::or_null(succs[0]);
            tower.next[0].store(succ, Ordering::Relaxed);
            let link = self.slot(preds[0], 0);
            let Ok(node) = NodeRef::publish(
                link,
                succ,
                tower,
                Ordering::Release,
                Ordering::Relaxed,
                &pin,
            ) else {
                // Lost the race at the bottom level: the tower, handed
                // back unshared, is freed here; retry.
                continue;
            };

            // Linked at the bottom level; now raise the upper levels.  Only
            // this thread writes `node.next[level]` until the level is
            // linked (a marked predecessor makes the slot CAS fail, never
            // this tower's own pointers: `remove` waits for `link_done`
            // before touching them).
            for level in 1..height {
                loop {
                    let succ = NodeRef::or_null(succs[level]);
                    node.next[level].store(succ, Ordering::Relaxed);
                    if self
                        .slot(preds[level], level)
                        .compare_exchange(succ, node.as_ptr(), Ordering::Release, Ordering::Relaxed)
                        .is_ok()
                    {
                        break;
                    }
                    // The neighbourhood changed: recompute it.
                    (preds, succs) = self.find_preds(&key, &pin);
                    if NodeRef::or_null(succs[level]) == node.as_ptr() {
                        // Another retry already linked this level (cannot
                        // happen for distinct keys, but keeps the loop
                        // robust).
                        break;
                    }
                }
            }
            node.link_done.store(true, Ordering::Release);
            self.len.add(1);
            self.towers_published.add(1);
            return None;
        }
    }

    /// Removes `key`: logical deletion, pointer marking, physical unlink
    /// from every level, and retirement to the epoch collector.
    fn remove(&self, key: &K) -> Option<V> {
        let pin = self.collector.pin();
        let node = self.find_preds(key, &pin).1[0].filter(|node| node.key == *key)?;
        // Wait for the inserting thread to finish raising the tower, so
        // marking and unlinking below see every level.
        let mut backoff = Backoff::new();
        while !node.link_done.load(Ordering::Acquire) {
            backoff.snooze();
        }
        if node.deleted.swap(true, Ordering::AcqRel) {
            return None; // Another remover owns this tower.
        }
        let value = *node.value.read();
        self.len.add(-1);

        // Freeze the tower: mark every `next` pointer, top level down.  Each
        // mark CAS races only with inserts using this tower as a
        // predecessor; once set, no such insert can succeed.
        let height = node.height();
        for level in (0..height).rev() {
            loop {
                let current = node.next[level].load(Ordering::Acquire);
                if is_marked(current) {
                    break;
                }
                if node.next[level]
                    .compare_exchange(
                        current,
                        marked(current),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }
        // Physically unlink from every level (traversals may help).
        for level in (0..height).rev() {
            self.unlink_level(node, level, &pin);
        }
        // SAFETY: the tower is confirmed unlinked from every level, this
        // thread won the `deleted` race, so it is retired exactly once, and
        // it was allocated by `NodeRef::alloc`, a `Box`.
        unsafe { pin.retire_box(node.as_ptr()) };
        Some(value)
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        Cursor::new(BatchCursor::new(
            lo,
            hi,
            SCAN_BATCH,
            Box::new(move |from, max, out| self.fetch_batch(from, max, out)),
        ))
    }
    /// Attempts one epoch advancement (see
    /// [`bskip_sync::EbrCollector::try_collect`]); returns the number of
    /// towers freed.
    fn try_reclaim(&self) -> usize {
        self.collector.try_collect()
    }
    fn len(&self) -> usize {
        self.len.sum().max(0) as usize
    }
    fn name(&self) -> &'static str {
        "lock-free skiplist"
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
        let list: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        assert_eq!(list.get(&1), None);
        assert_eq!(list.insert(1, 10), None);
        assert_eq!(list.insert(2, 20), None);
        assert_eq!(list.insert(1, 11), Some(10));
        assert_eq!(list.get(&1), Some(11));
        assert_eq!(list.len(), 2);
        assert_eq!(list.remove(&1), Some(11));
        assert_eq!(list.get(&1), None);
        assert_eq!(list.remove(&1), None);
        assert_eq!(list.len(), 1);
        // Re-inserting a removed key creates a fresh tower.
        assert_eq!(list.insert(1, 12), None);
        assert_eq!(list.get(&1), Some(12));
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn sorted_scan_matches_reference() {
        let list: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        let mut reference = BTreeMap::new();
        for i in 0..2000u64 {
            let key = (i * 7919) % 10_000;
            list.insert(key, i);
            reference.insert(key, i);
        }
        let mut scanned = Vec::new();
        scanned.extend(list.scan(..));
        let count = scanned.len();
        assert_eq!(count, reference.len());
        assert_eq!(scanned, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn range_skips_deleted_and_respects_len() {
        let list: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        for key in 0..20u64 {
            list.insert(key, key);
        }
        list.remove(&3);
        list.remove(&4);
        let mut seen = Vec::new();
        seen.extend(list.scan(2..).take(4).map(|(k, _)| k));
        let count = seen.len();
        assert_eq!(count, 4);
        assert_eq!(seen, vec![2, 5, 6, 7]);
    }

    #[test]
    fn removal_is_physical_and_backlog_drains() {
        let list: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
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
        assert_eq!(list.insert(7, 70), None);
        assert_eq!(list.get(&7), Some(70));
    }

    #[test]
    fn concurrent_disjoint_inserts_are_all_present() {
        let list = Arc::new(LockFreeSkipList::<u64, u64>::new());
        let threads = 8u64;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        list.insert(t * per_thread + i, i);
                    }
                });
            }
        });
        assert_eq!(list.len() as u64, threads * per_thread);
        for t in 0..threads {
            for i in (0..per_thread).step_by(97) {
                assert_eq!(list.get(&(t * per_thread + i)), Some(i));
            }
        }
        // The bottom level must be fully sorted.
        let mut previous = None;
        for (k, _) in list.scan(..) {
            if let Some(p) = previous {
                assert!(p < k);
            }
            previous = Some(k);
        }
    }

    #[test]
    fn concurrent_same_key_upserts_keep_one_entry() {
        let list = Arc::new(LockFreeSkipList::<u64, u64>::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        list.insert(42, t);
                    }
                });
            }
        });
        assert_eq!(list.len(), 1);
        assert!(list.contains_key(&42));
        let mut seen = Vec::new();
        seen.extend(list.scan(0..).take(10).map(|(k, _)| k));
        assert_eq!(seen, vec![42]);
    }

    #[test]
    fn concurrent_insert_remove_churn_stays_consistent() {
        let list = Arc::new(LockFreeSkipList::<u64, u64>::new());
        let threads = 4u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    // Disjoint key ranges: every outcome is deterministic.
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
        assert_eq!(list.scan(..).count(), 0);
    }

    #[test]
    fn contended_same_key_insert_remove_races() {
        // Threads race insert/remove on a tiny shared key space; the test
        // asserts no crashes, no lost structure and exact retirement
        // accounting (every winning remove retires exactly one tower).
        let list = Arc::new(LockFreeSkipList::<u64, u64>::new());
        let threads = 8u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        let key = (i + t) % 16;
                        if (i + t) % 3 == 0 {
                            list.remove(&key);
                        } else {
                            list.insert(key, t);
                        }
                    }
                });
            }
        });
        let stats = list.stats().reclamation().unwrap();
        // Quiesce, then verify the live structure agrees with `len` and
        // that the backlog drains fully.
        for _ in 0..4 {
            list.try_reclaim();
        }
        assert_eq!(list.stats().reclamation().unwrap().backlog, 0);
        let mut live = 0usize;
        let mut previous = None;
        for (k, _) in list.scan(..) {
            if let Some(p) = previous {
                assert!(p < k, "bottom level out of order");
            }
            previous = Some(k);
            live += 1;
        }
        assert_eq!(live, list.len(), "len must match the live bottom level");
        assert_eq!(stats.retired, list.stats().reclamation().unwrap().freed);
    }
}
