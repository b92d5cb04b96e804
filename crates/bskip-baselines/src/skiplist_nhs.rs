//! A "No Hot Spot"-style skiplist: lock-free bottom lane plus a background
//! adaptation thread that rebuilds the index lanes.
//!
//! The No Hot Spot skiplist (Crain, Gramoli, Raynal, ICDCS'13) removes the
//! insertion hot spot at the top of the skiplist by letting foreground
//! threads modify *only the bottom level*; a background thread periodically
//! rebuilds the upper index so searches stay logarithmic.  This module
//! reproduces that architecture:
//!
//! * the bottom lane is a lock-free sorted linked list (CAS insertion,
//!   Harris-style mark-then-unlink deletion);
//! * the index is an immutable snapshot of evenly spaced "guard" entries,
//!   swapped in by a background thread at a `sleep_time` cadence (the same
//!   parameter the paper tunes: small during the load phase, large during
//!   the run phase).  The cadence is **adaptive**: the worker counts
//!   structural mutations since the last publication and skips the O(n)
//!   rebuild walk entirely when nothing changed, backing its interval off
//!   toward a cap while the list is idle and snapping back to `sleep_time`
//!   the moment write traffic resumes.  A fixed cadence re-walked the
//!   whole lane every 100µs even on an idle list, which starved foreground
//!   threads on single-core hosts;
//! * searches consult the current index snapshot to find a starting guard
//!   and then walk the bottom lane.
//!
//! Between rebuilds the index lags behind the data, so freshly inserted
//! regions require long bottom-lane walks — exactly the behaviour that
//! makes NHS slow on insert-heavy YCSB phases in the paper's evaluation.
//!
//! # Removal and reclamation
//!
//! Removal is **physical**: `remove` marks the victim's `next` pointer
//! (the low tag bit, freezing its successor), unlinks it from the bottom
//! lane with the usual Harris helping protocol, and hands it to the
//! list's epoch-based collector ([`bskip_sync::EbrCollector`]) — but not
//! immediately.  Unlike the other baselines, an unlinked NHS node can
//! still be *reachable*: the current index snapshot (and, because the
//! snapshot is `Arc`-shared, any clone a concurrent reader holds) may
//! carry a guard pointer to it, and a snapshot whose rebuild walk was in
//! flight when the node was marked may even be published *after* the
//! unlink.  Retirement is therefore deferred through a **limbo list**
//! stamped with the snapshot generation:
//!
//! * `remove` marks + unlinks the node and pushes it onto the limbo list
//!   stamped with the current generation `g`;
//! * every snapshot publication bumps the generation; when it reaches
//!   `g + 2` the node can no longer be referenced by any *current*
//!   snapshot — the only snapshots that may have sampled it are `g` and
//!   `g + 1` (the in-flight walk), both since replaced — and it is
//!   retired to the collector;
//! * the collector's own grace period then covers readers still holding a
//!   clone of a replaced snapshot: every operation pins the collector for
//!   its whole duration and snapshot clones never outlive the pin, so a
//!   reader that can still reach the node through an old clone is pinned
//!   and blocks the epoch from advancing past it.
//!
//! Rebuilds are serialized (a mutex) so that generation order matches
//! walk order, and the lane CAS/load operations on the rebuild path use
//! `SeqCst` so a walk that starts after a publication observes every
//! unlink stamped before it.

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bskip_index::{
    BatchCursor, ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue, StatKind,
};
use bskip_sync::{EbrCollector, EbrGuard, RwSpinLock, StripedCounter};

use crate::handle::NodeRef;
use crate::tower::{is_marked, marked, unmark};

/// Every `INDEX_STRIDE`-th bottom-lane node becomes a guard in the index.
const INDEX_STRIDE: usize = 16;

/// Entries fetched per cursor re-entry; aligned with the guard stride so a
/// refill typically pays one guard lookup plus one stride of lane walking.
const SCAN_BATCH: usize = INDEX_STRIDE * 4;

struct NhsNode<K, V> {
    key: K,
    value: RwSpinLock<V>,
    /// Successor pointer, tagged with the deletion mark (`marked`).
    next: AtomicPtr<NhsNode<K, V>>,
}

/// A lane node reached under a pin; as a predecessor, `None` is the head.
type Lane<'g, K, V> = Option<NodeRef<'g, NhsNode<K, V>>>;

/// An immutable snapshot of index guards (key → bottom-lane node).
///
/// A guard is a link in `handle.rs`'s sense: a reader clones the snapshot
/// under its pin, and a node a snapshot names is retired only once no
/// snapshot a later clone can return names it (the module docs' limbo
/// argument), so the pin keeps the guard's node allocated.
struct IndexSnapshot<K, V> {
    guards: Vec<(K, AtomicPtr<NhsNode<K, V>>)>,
}

struct Inner<K, V> {
    head: AtomicPtr<NhsNode<K, V>>,
    index: RwSpinLock<Arc<IndexSnapshot<K, V>>>,
    len: StripedCounter,
    /// Set once, by the drop, to stop the background worker (`Release`
    /// store, `Acquire` load; the drop then joins the worker).
    stop: AtomicBool,
    rebuilds: AtomicUsize,
    /// Epoch-based collector for unlinked nodes (final stage of the
    /// two-stage retirement described in the module docs).
    collector: EbrCollector,
    /// Unlinked nodes awaiting a safe retirement generation, stamped with
    /// the snapshot generation at unlink time.
    limbo: Mutex<Vec<(u64, *mut NhsNode<K, V>)>>,
    /// Number of snapshot publications; see the module docs.
    generation: AtomicU64,
    /// Serializes rebuilds so generation order matches walk order.
    rebuild_lock: Mutex<()>,
    /// Structural mutations (fresh links + unlinks) since the last index
    /// publication; the background worker's signal that a rebuild would
    /// observe something new.  Reset at the start of every rebuild walk,
    /// so mutations racing the walk roll over into the next interval.
    mutations: AtomicU64,
}

// SAFETY: lane nodes are only mutated through atomics and the per-node
// value lock, and are freed only through the deferred retirement protocol
// in the module docs.
unsafe impl<K: IndexKey, V: IndexValue> Send for Inner<K, V> {}
// SAFETY: as for `Send`: shared access goes through the same atomics and lock.
unsafe impl<K: IndexKey, V: IndexValue> Sync for Inner<K, V> {}

impl<K: IndexKey, V: IndexValue> Inner<K, V> {
    fn new() -> Self {
        Inner {
            head: AtomicPtr::new(std::ptr::null_mut()),
            index: RwSpinLock::new(Arc::new(IndexSnapshot { guards: Vec::new() })),
            len: StripedCounter::new(),
            stop: AtomicBool::new(false),
            rebuilds: AtomicUsize::new(0),
            collector: EbrCollector::new(),
            limbo: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            rebuild_lock: Mutex::new(()),
            mutations: AtomicU64::new(0),
        }
    }

    /// Starting point for a bottom-lane walk towards `key`: the guard with
    /// the largest key **strictly below** `key`, or the list head.
    ///
    /// Strictly below, because [`Inner::find`] needs the start as a CAS
    /// *predecessor* and discards any guard with `guard.key >= key`
    /// (restarting from the head).  A `<=` floor here made every lookup
    /// that landed exactly on a guard key — one in `INDEX_STRIDE` of all
    /// hits — pay a full unindexed lane walk, which dominated the measured
    /// get latency at scale.
    ///
    /// The snapshot `Arc` clone is dropped before returning; `pin` keeps
    /// the returned node allocated (guards may point at marked or even
    /// unlinked nodes, whose frozen `next` chains remain walkable).
    fn start_for<'g>(&self, key: &K, pin: &'g EbrGuard<'_>) -> Lane<'g, K, V> {
        let snapshot = self.index.read().clone();
        let position = snapshot.guards.partition_point(|(guard, _)| guard < key);
        let (_, start) = snapshot.guards.get(position.checked_sub(1)?)?;
        NodeRef::load(start, Ordering::Relaxed, pin)
    }

    /// The link following `pred` (`None` addresses the head).
    fn slot<'g>(&'g self, pred: Lane<'g, K, V>) -> &'g AtomicPtr<NhsNode<K, V>> {
        pred.map_or(&self.head, |pred| &pred.get().next)
    }

    /// Swings `pred`'s link from `node` to `next`, unlinking `node`; false
    /// if the link no longer points at `node`.
    fn swing(
        &self,
        pred: Lane<'_, K, V>,
        node: *mut NhsNode<K, V>,
        next: *mut NhsNode<K, V>,
    ) -> bool {
        self.slot(pred)
            .compare_exchange(node, next, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Finds the last unmarked node with key `< key` (`None` = head
    /// position) and the first unmarked node with key `>= key`, **helping
    /// to unlink** every marked node encountered on the way
    /// (Harris-style).
    ///
    /// The first attempt starts from the index-provided guard; helping
    /// failures (a predecessor changed or was itself marked) restart from
    /// the head, which guarantees progress even when the guard is stale.
    fn find<'g>(&'g self, key: &K, pin: &'g EbrGuard<'_>) -> (Lane<'g, K, V>, Lane<'g, K, V>) {
        let mut attempt = 0usize;
        'retry: loop {
            let mut pred = if attempt == 0 {
                self.start_for(key, pin)
            } else {
                None
            };
            attempt += 1;
            // A guard at or past the key (or one already marked) cannot
            // serve as the CAS predecessor; fall back to the head.
            if pred
                .is_some_and(|pred| pred.key >= *key || is_marked(pred.next.load(Ordering::SeqCst)))
            {
                pred = None;
            }
            let mut curr = NodeRef::load(self.slot(pred), Ordering::SeqCst, pin);
            while let Some(node) = curr {
                let (next, marked) = NodeRef::load_marked(&node.next, Ordering::SeqCst, pin);
                if marked {
                    // Help unlink the marked node before moving past it.
                    if !self.swing(pred, node.as_ptr(), NodeRef::or_null(next)) {
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
            return (pred, curr);
        }
    }

    /// Rebuilds the index snapshot by sampling every `INDEX_STRIDE`-th
    /// live bottom-lane node, then advances the retirement generation and
    /// retires limbo nodes that have aged out (the background thread's
    /// job; see the module docs for the generation argument).  Returns
    /// the number of nodes freed by the collection attempt at the end.
    fn rebuild_index(&self) -> usize {
        let _serialize = self.rebuild_lock.lock().unwrap();
        self.mutations.store(0, Ordering::SeqCst);
        let pin = self.collector.pin();
        let mut guards = Vec::new();
        let mut curr = NodeRef::load(&self.head, Ordering::SeqCst, &pin);
        let mut position = 0usize;
        while let Some(node) = curr {
            let (next, marked) = NodeRef::load_marked(&node.next, Ordering::SeqCst, &pin);
            if !marked {
                if position.is_multiple_of(INDEX_STRIDE) {
                    guards.push((node.key, AtomicPtr::new(node.as_ptr())));
                }
                position += 1;
            }
            curr = next;
        }
        *self.index.write() = Arc::new(IndexSnapshot { guards });
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        // Retire limbo nodes unlinked at least two publications ago: no
        // current snapshot can reference them, and the collector's grace
        // period covers readers still pinned on an older snapshot clone.
        let mut limbo = self.limbo.lock().unwrap();
        limbo.retain(|&(stamp, node)| {
            if stamp + 2 <= generation {
                // SAFETY: `node` was unlinked from the lane by the remove
                // protocol, is referenced by no current snapshot per the
                // generation argument, and is retired exactly once (it
                // leaves the limbo list here); it is a `Box` allocation.
                unsafe { pin.retire_box(node) };
                false
            } else {
                true
            }
        });
        drop(limbo);
        drop(pin);
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.collector.try_collect()
    }
}

impl<K, V> Drop for Inner<K, V> {
    fn drop(&mut self) {
        for &(_, node) in self.limbo.get_mut().unwrap().iter() {
            // SAFETY: the background thread has been joined, so access is
            // exclusive; a limbo node is a `Box` listed once, unlinked from
            // the lane and not yet handed to the collector.
            drop(unsafe { Box::from_raw(node) });
        }
        let mut curr = *self.head.get_mut();
        while !curr.is_null() {
            // SAFETY: exclusive access, as above; each lane node is a `Box`
            // reached once from the head (nodes already retired are the
            // collector's to free, in its drop).
            let mut node = unsafe { Box::from_raw(curr) };
            curr = unmark(*node.next.get_mut());
        }
    }
}

/// A No-Hot-Spot-style skiplist with a background index-adaptation thread.
///
/// # Example
///
/// ```
/// use bskip_baselines::NhsSkipList;
/// use bskip_index::ConcurrentIndex;
/// use std::time::Duration;
///
/// let list: NhsSkipList<u64, u64> = NhsSkipList::with_sleep_time(Duration::from_micros(100));
/// list.insert(1, 10);
/// assert_eq!(list.get(&1), Some(10));
/// ```
pub struct NhsSkipList<K, V> {
    inner: Arc<Inner<K, V>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<K: IndexKey, V: IndexValue> Default for NhsSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue> NhsSkipList<K, V> {
    /// Creates a list whose background thread adapts the index every
    /// 100 microseconds (the paper's load-phase setting).
    pub fn new() -> Self {
        Self::with_sleep_time(Duration::from_micros(100))
    }

    /// Creates a list with an explicit base adaptation interval.
    ///
    /// `sleep_time` is the cadence under write load; the worker adapts it
    /// to the op count since the last rebuild.  A rebuild is an O(n) walk
    /// of the whole bottom lane, so an idle list must not pay it every
    /// 100µs forever — that starved foreground threads on single-core
    /// hosts (and made NHS a 100–1000x outlier in read-only `get`
    /// measurements, which ran against a busy-loop of full-lane walks);
    /// `idle_worker_skips_rebuilds_until_traffic_resumes` pins the fix.
    pub fn with_sleep_time(sleep_time: Duration) -> Self {
        let inner = Arc::new(Inner::new());
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::spawn(move || {
            let base = sleep_time.max(Duration::from_micros(50));
            let slice = Duration::from_millis(1).min(base);
            // Idle back-off cap: far above any useful cadence, far below
            // "never notices traffic resumed".
            let idle_cap = base.max(Duration::from_millis(50));
            let mut interval = base;
            let mut elapsed = Duration::ZERO;
            while !worker_inner.stop.load(Ordering::Acquire) {
                std::thread::sleep(slice);
                elapsed += slice;
                if elapsed < interval {
                    continue;
                }
                elapsed = Duration::ZERO;
                let mutations = worker_inner.mutations.load(Ordering::SeqCst);
                let limbo_waiting = !worker_inner.limbo.lock().unwrap().is_empty();
                if mutations == 0 && !limbo_waiting {
                    // Nothing a rebuild could observe: skip the O(n) walk
                    // and back off (limbo nodes still force publications,
                    // since retirement needs the generation to advance).
                    interval = (interval * 2).min(idle_cap);
                    continue;
                }
                worker_inner.rebuild_index();
                // Busy: resume the tuned cadence.  Trickling (less than
                // one guard stride of change): keep backing off — the
                // index barely lags, so staleness costs a short walk.
                interval = if mutations as usize >= INDEX_STRIDE {
                    base
                } else {
                    (interval * 2).min(idle_cap)
                };
            }
        });
        NhsSkipList {
            inner,
            worker: Some(worker),
        }
    }

    /// Cursor batch-fetch primitive: appends up to `max` live entries at
    /// or after `from`'s key in ascending order, starting the bottom-lane
    /// walk from the index-provided guard (the adapter enforces exclusive
    /// bounds).
    ///
    /// The lag between the bottom lane and the index snapshot only affects
    /// how far the walk starts from the target key, never which entries are
    /// produced, so cursors see the same contract as the other baselines.
    fn fetch_batch(&self, from: Bound<K>, max: usize, out: &mut Vec<(K, V)>) {
        let pin = self.inner.collector.pin();
        let mut curr = match &from {
            Bound::Unbounded => NodeRef::load(&self.inner.head, Ordering::SeqCst, &pin),
            Bound::Included(key) | Bound::Excluded(key) => self.inner.find(key, &pin).1,
        };
        // Marked nodes are skipped, but their frozen `next` pointers remain
        // walkable.
        while let Some(node) = curr.filter(|_| out.len() < max) {
            let (next, marked) = NodeRef::load_marked(&node.next, Ordering::SeqCst, &pin);
            if !marked {
                out.push((node.key, *node.value.read()));
            }
            curr = next;
        }
    }
}

impl<K, V> Drop for NhsSkipList<K, V> {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl<K: IndexKey, V: IndexValue> ConcurrentIndex<K, V> for NhsSkipList<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        let pin = self.inner.collector.pin();
        let (_, curr) = self.inner.find(key, &pin);
        curr.filter(|node| node.key == *key)
            .map(|node| *node.value.read())
    }

    /// Inserts `key → value` with upsert semantics (bottom lane only; the
    /// index catches up at the next adaptation).
    fn insert(&self, key: K, value: V) -> Option<V> {
        let pin = self.inner.collector.pin();
        loop {
            let (pred, curr) = self.inner.find(&key, &pin);
            if let Some(node) = curr.filter(|node| node.key == key) {
                // Upsert in place.  The value lock serializes us with a
                // racing remove (which marks while holding it): if the node
                // is marked by the time we hold the lock, the remove
                // linearized first and we must insert afresh.
                let mut slot = node.value.write();
                if is_marked(node.next.load(Ordering::SeqCst)) {
                    drop(slot);
                    continue;
                }
                return Some(std::mem::replace(&mut *slot, value));
            }
            let curr = NodeRef::or_null(curr);
            let node = Box::new(NhsNode {
                key,
                value: RwSpinLock::new(value),
                next: AtomicPtr::new(curr),
            });
            let link = self.inner.slot(pred);
            if NodeRef::publish(link, curr, node, Ordering::SeqCst, Ordering::SeqCst, &pin).is_ok()
            {
                self.inner.len.add(1);
                self.inner.mutations.fetch_add(1, Ordering::SeqCst);
                return None;
            }
            // The CAS failed: the node, handed back unshared, is freed here.
        }
    }

    /// Removes `key`: marks the node (freezing its successor), physically
    /// unlinks it from the bottom lane, and queues it for retirement (see
    /// the module docs for the deferral protocol).  Only the winning marker
    /// pushes the node to limbo, so it is pushed once.
    fn remove(&self, key: &K) -> Option<V> {
        let pin = self.inner.collector.pin();
        let (pred, curr) = self.inner.find(key, &pin);
        let node = curr.filter(|node| node.key == *key)?;
        // Mark while holding the value lock so racing upserts cannot write
        // into a node whose removal already linearized.
        let (value, successor) = {
            let slot = node.value.write();
            loop {
                let next = node.next.load(Ordering::SeqCst);
                if is_marked(next) {
                    return None; // another remover won
                }
                if node
                    .next
                    .compare_exchange(next, marked(next), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    break (*slot, next);
                }
                // An insert linked a new successor; retry the mark.
            }
        };
        self.inner.len.add(-1);
        self.inner.mutations.fetch_add(1, Ordering::SeqCst);
        // Physical unlink: the common case is one CAS on the predecessor
        // the lookup already found; if the neighbourhood changed (or `pred`
        // was itself marked) one helping traversal guarantees the node is
        // no longer lane-reachable on return.
        if !self.inner.swing(pred, node.as_ptr(), successor) {
            let _ = self.inner.find(key, &pin);
        }
        let generation = self.inner.generation.load(Ordering::SeqCst);
        self.inner
            .limbo
            .lock()
            .unwrap()
            .push((generation, node.as_ptr()));
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
    /// Publishes a fresh index snapshot (advancing the retirement
    /// generation, which moves limbo nodes into the collector) and
    /// attempts one epoch advancement; returns the number of nodes freed.
    /// This is also the rebuild the paper waits for between the load and
    /// run phases.
    fn try_reclaim(&self) -> usize {
        self.inner.rebuild_index()
    }
    fn len(&self) -> usize {
        self.inner.len.sum().max(0) as usize
    }
    fn name(&self) -> &'static str {
        "NHS skiplist"
    }
    /// `rebuilds` counts index snapshot publications, `live_nodes` the
    /// nodes in the bottom lane (one per key, so `keys`; a removal is
    /// counted when it marks its node), and `limbo` unlinked nodes still
    /// awaiting their retirement generation.
    fn stats(&self) -> IndexStats {
        let inner = &self.inner;
        let keys = self.len() as u64;
        let limbo = inner
            .limbo
            .lock()
            .expect("no thread panics while holding the limbo lock")
            .len();
        IndexStats::new()
            .with_kind("keys", StatKind::Gauge, keys)
            .with("rebuilds", inner.rebuilds.load(Ordering::Relaxed) as u64)
            .with_kind("live_nodes", StatKind::Gauge, keys)
            .with_kind("limbo", StatKind::Gauge, limbo as u64)
            .with_reclamation(inner.collector.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fast_list() -> NhsSkipList<u64, u64> {
        NhsSkipList::with_sleep_time(Duration::from_millis(1))
    }

    /// One statistic of `list`'s `stats()` snapshot.
    fn stat(list: &NhsSkipList<u64, u64>, name: &str) -> u64 {
        list.stats().get(name).unwrap()
    }

    #[test]
    fn insert_get_update_remove() {
        let list = fast_list();
        assert_eq!(list.insert(5, 50), None);
        assert_eq!(list.insert(5, 51), Some(50));
        assert_eq!(list.get(&5), Some(51));
        assert_eq!(list.remove(&5), Some(51));
        assert_eq!(list.get(&5), None);
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn remove_then_insert_creates_a_fresh_node() {
        let list = fast_list();
        assert_eq!(list.insert(7, 70), None);
        assert_eq!(list.remove(&7), Some(70));
        assert_eq!(list.remove(&7), None, "double remove must miss");
        // The key is re-insertable (a fresh node, not a resurrection).
        assert_eq!(list.insert(7, 71), None);
        assert_eq!(list.get(&7), Some(71));
        assert_eq!(stat(&list, "live_nodes"), 1);
    }

    #[test]
    fn removal_physically_unlinks_and_eventually_retires() {
        let list = fast_list();
        for key in 0..500u64 {
            list.insert(key, key);
        }
        assert_eq!(stat(&list, "live_nodes"), 500);
        for key in 0..450u64 {
            assert_eq!(list.remove(&key), Some(key));
        }
        assert_eq!(list.len(), 50);
        assert_eq!(
            stat(&list, "live_nodes"),
            50,
            "unlinked nodes leave the lane"
        );
        // Quiesce: rebuilds advance the retirement generation, then epoch
        // advances free the retired backlog.
        for _ in 0..8 {
            list.try_reclaim();
        }
        assert_eq!(stat(&list, "limbo"), 0, "limbo drains after two rebuilds");
        let stats = list.stats().reclamation().unwrap();
        assert_eq!(stats.retired, 450);
        assert_eq!(stats.backlog, 0, "backlog drains at quiescence");
        let mut scanned = Vec::new();
        scanned.extend(list.scan(..).map(|(k, _)| k));
        assert_eq!(scanned, (450..500).collect::<Vec<_>>());
    }

    #[test]
    fn index_rebuild_preserves_results() {
        let list = fast_list();
        let mut reference = BTreeMap::new();
        for i in 0..3000u64 {
            let key = (i * 48271) % 20_000;
            list.insert(key, i);
            reference.insert(key, i);
        }
        // Before any rebuild the index may be empty; results must not change
        // after an explicit rebuild.
        for (key, value) in reference.iter().take(100) {
            assert_eq!(list.get(key), Some(*value));
        }
        list.try_reclaim();
        assert!(stat(&list, "rebuilds") >= 1);
        for (key, value) in &reference {
            assert_eq!(list.get(key), Some(*value));
        }
        let mut scanned = Vec::new();
        scanned.extend(list.scan(..));
        assert_eq!(scanned, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_with_background_adaptation() {
        let list = std::sync::Arc::new(NhsSkipList::<u64, u64>::with_sleep_time(
            Duration::from_micros(200),
        ));
        let threads = 4u64;
        let per_thread = 2500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = std::sync::Arc::clone(&list);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        list.insert(i * threads + t, t);
                    }
                });
            }
        });
        assert_eq!(list.len() as u64, threads * per_thread);
        list.try_reclaim();
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
    fn concurrent_churn_with_rebuilds_stays_consistent() {
        let list = std::sync::Arc::new(NhsSkipList::<u64, u64>::with_sleep_time(
            Duration::from_micros(100),
        ));
        let threads = 4u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let list = std::sync::Arc::clone(&list);
                scope.spawn(move || {
                    let base = t * 100_000;
                    for round in 0..40u64 {
                        for key in base..base + 100 {
                            assert_eq!(list.insert(key, round), None, "key {key}");
                        }
                        for key in base..base + 100 {
                            assert_eq!(list.remove(&key), Some(round), "key {key}");
                        }
                    }
                });
            }
        });
        assert!(list.is_empty());
        for _ in 0..8 {
            list.try_reclaim();
        }
        assert_eq!(stat(&list, "live_nodes"), 0);
        assert_eq!(stat(&list, "limbo"), 0);
        let stats = list.stats().reclamation().unwrap();
        assert_eq!(stats.retired, threads * 40 * 100);
        assert_eq!(stats.backlog, 0);
    }

    #[test]
    fn idle_worker_skips_rebuilds_until_traffic_resumes() {
        let list = NhsSkipList::<u64, u64>::with_sleep_time(Duration::from_millis(1));
        // Idle from birth: no mutations and no limbo means the worker has
        // nothing to observe and must not burn O(n) walks.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            stat(&list, "rebuilds"),
            0,
            "an idle list must not rebuild in the background"
        );
        // Traffic resumes: the worker notices within its backed-off
        // interval (capped at 50ms) and publishes again.
        for key in 0..200u64 {
            list.insert(key, key);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while stat(&list, "rebuilds") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            stat(&list, "rebuilds") >= 1,
            "write traffic must wake the adaptive worker"
        );
        // Removals leave limbo nodes behind; even with no further inserts
        // the worker must keep publishing until retirement drains them.
        for key in 0..200u64 {
            list.remove(&key);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while stat(&list, "limbo") > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            stat(&list, "limbo"),
            0,
            "the worker must drain limbo without explicit rebuilds"
        );
    }

    #[test]
    fn background_thread_shuts_down_on_drop() {
        let list = NhsSkipList::<u64, u64>::with_sleep_time(Duration::from_millis(1));
        for key in 0..100u64 {
            list.insert(key, key);
        }
        for key in 0..50u64 {
            list.remove(&key);
        }
        // Dropping must join the worker without hanging and free limbo,
        // lane and retired nodes exactly once (asan/miri would catch a
        // double free here).
        drop(list);
    }
}
