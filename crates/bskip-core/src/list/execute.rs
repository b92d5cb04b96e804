//! The native batched-operation path.
//!
//! [`BSkipList::execute`] applies a whole batch of [`Op`]s in one call,
//! exploiting exactly the property the paper builds the structure around:
//! fat fixed-size leaves concentrate many neighbouring keys, so a batch
//! applied in key order repeatedly lands in the node it is already
//! holding.  Compared with looping over the point methods, the native path
//! amortizes three per-operation costs:
//!
//! 1. **Epoch pinning** — the collector is pinned *once* for the whole
//!    batch instead of once per operation;
//! 2. **Tower descent** — operations are applied in sorted key order
//!    behind a two-level **frontier**: the current leaf (write-locked)
//!    and its level-1 ancestor (read-locked), each with a captured upper
//!    bound of the key range it covers.  A run of operations landing in
//!    the held leaf costs nothing to position; the next run under the
//!    same level-1 region costs one child lookup and one leaf lock
//!    instead of a full descent; longer strides walk the level-1 list (a
//!    budgeted walk — each step skips a whole region of ~`B` leaves), and
//!    only a genuinely distant jump re-descends through the tower;
//! 3. **Leaf locking** — every operation of a run executes under a single
//!    write-lock acquisition of its leaf.
//!
//! The captured bounds stay valid for as long as the frontier's locks are
//! held: a leaf's covering range can only change through its own write
//! lock (splits), its predecessor's (unlinks), or — for the boundary key
//! itself, which is its successor's promoted header — through level-1
//! write locks the retained read lock excludes.  The frontier therefore
//! never needs re-validation, only repositioning when a key falls past a
//! bound.
//!
//! # Fast path and fallback
//!
//! Under the held leaf lock the path executes, per operation:
//!
//! * `Get` — a leaf binary search;
//! * `Insert`/`Update`/`Remove` — the **leaf kernel** (`leaf.rs`), the
//!   very function the point methods run on the leaf they lock: a present
//!   key's value is replaced in place, an absent key is inserted directly
//!   *iff* the promotion height drawn for it is 0 and the leaf has room,
//!   an absent key's removal is a no-op, and a present key that is not a
//!   node header (or lives in the head sentinel) is removed directly.
//!
//! Everything structural falls back mid-batch (releasing the frontier
//! first) to the point path's **write-locked passes**, called directly —
//! not to the point methods, whose leaf-first entry would only repeat the
//! check the kernel just made: promoted inserts and overflow splits run
//! `insert_structural` with the height the kernel drew, so batching does
//! not bias the height distribution, and removals of node headers, which
//! may own towers and may empty (and thus unlink and retire) nodes, run
//! `remove_inner`.  Both run under the batch's one epoch pin.  `leaf.rs`
//! has the invariant that makes the leaf-local cases complete.
//!
//! Ordering semantics are those of [`bskip_index::ops`]: the sorted
//! schedule ([`sorted_order`]) reorders only operations on distinct keys,
//! which commute, so the batch is observationally equivalent to slot-order
//! application.

use std::ptr;

use bskip_index::ops::{sorted_order, Op, OpResult};
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::{Backoff, EbrGuard};

use super::leaf::HeaderKey;
use super::{lock_node, unlock_node, BSkipList, Mode, Restart, OPTIMISTIC_ATTEMPTS};
use crate::node::{prefetch_node, Node, NodeSearch};

/// Level-1 right-walk budget between runs before the batch path gives up
/// and re-descends through the tower: one level-1 step skips a whole
/// region (~`B` leaves), so a short budget already covers every realistic
/// sorted-batch stride, while a distant jump is cheaper through the tower.
const L1_WALK_BUDGET: usize = 8;

/// The write-locked pass an operation needs when the leaf kernel could
/// not finish it under the held leaf lock.
enum Pass<V> {
    /// An absent key's insertion that is structural work, with the value
    /// and the promotion height drawn for it.
    Insert(V, usize),
    /// The removal of a non-head leaf's header key.
    RemoveHeader,
}

impl<K: IndexKey, V: IndexValue, const B: usize> BSkipList<K, V, B> {
    /// Executes a batch of operations, writing each outcome into the
    /// operation's own [`OpResult`] slot — the native override of
    /// [`bskip_index::ConcurrentIndex::execute`].
    ///
    /// The batch is applied in sorted key order (operations on the same
    /// key keep their relative order), pinning the epoch collector once
    /// and holding each leaf's write lock across every operation that
    /// lands in it.  Structural work — promoted inserts, splits, header
    /// removals — falls back to the point path's write-locked passes
    /// mid-batch, so every batch is exactly as correct as the point loop
    /// it replaces.
    ///
    /// ```
    /// use bskip_core::BSkipList;
    /// use bskip_index::{Op, OpResult};
    ///
    /// let list: BSkipList<u64, u64> = (0..100u64).map(|k| (k, k)).collect();
    /// let mut batch: Vec<Op<u64, u64>> =
    ///     (0..100u64).step_by(10).map(Op::get).collect();
    /// batch.push(Op::insert(200, 1));
    /// batch.push(Op::remove(55));
    /// list.execute(&mut batch);
    /// assert_eq!(batch[3].result().value(), Some(30));
    /// assert_eq!(*batch[10].result(), OpResult::Missing); // fresh insert
    /// assert_eq!(batch[11].result().value(), Some(55));
    /// ```
    pub fn execute(&self, ops: &mut [Op<K, V>]) {
        if ops.is_empty() {
            return;
        }
        if let Some(stats) = self.stats_enabled() {
            stats.batch_executes.incr();
            stats.batched_ops.add(ops.len() as u64);
        }
        let order = sorted_order(ops);
        // One pin for the whole batch: every traversal below (descents,
        // right-walks, lock spins on possibly-retired nodes) and every
        // structural fallback runs under this guard.
        let guard = self.collector().pin();
        // SAFETY: the body upholds the hand-over-hand protocol — guarded
        // node state is only read under a shared or exclusive lock and
        // only written under an exclusive lock, with the left-to-right /
        // top-to-bottom total lock order all traversals share.
        unsafe { self.execute_inner(ops, &order, &guard) }
    }

    unsafe fn execute_inner(&self, ops: &mut [Op<K, V>], order: &[usize], guard: &EbrGuard<'_>) {
        // The two-level frontier: the current write-locked leaf and (when
        // the list has internal levels) its read-locked level-1 ancestor,
        // each with the captured upper bound of the key range it covers
        // (`None` = unbounded).  Null pointers mean "not positioned".
        let mut leaf: *mut Node<K, V, B> = ptr::null_mut();
        let mut upper0: Option<K> = None;
        let mut l1: *mut Node<K, V, B> = ptr::null_mut();
        let mut upper1: Option<K> = None;

        fn covered<K: Ord>(upper: &Option<K>, key: &K) -> bool {
            match upper {
                Some(bound) => key < bound,
                None => true,
            }
        }

        let mut idx = 0usize;
        while idx < order.len() {
            let slot = order[idx];
            let key = *ops[slot].key();

            // ---- position the frontier over `key` ----
            if leaf.is_null() || !covered(&upper0, &key) {
                if !leaf.is_null() && (l1.is_null() || covered(&upper1, &key)) {
                    // Still inside the retained region (or the list has a
                    // single level).  If a level-1 separator lands
                    // strictly ahead of the held leaf, jump through it;
                    // otherwise walk right — keys ascend, so across the
                    // whole batch every leaf in the separator gaps is
                    // walked over at most once.
                    let jump = if l1.is_null() {
                        ptr::null_mut()
                    } else {
                        match (*l1).search(&key) {
                            NodeSearch::Found(slot) | NodeSearch::Pred(slot) => {
                                let separator = (*l1).key_at(slot);
                                if (*leaf).is_empty() || separator > (*leaf).header() {
                                    (*l1).child_at(slot)
                                } else {
                                    ptr::null_mut()
                                }
                            }
                            NodeSearch::Before => ptr::null_mut(),
                        }
                    };
                    let start = if jump.is_null() {
                        leaf
                    } else {
                        prefetch_node(jump);
                        unlock_node(leaf, Mode::Write);
                        lock_node(jump, Mode::Write);
                        if let Some(stats) = self.stats_enabled() {
                            stats.batch_leaf_locks.incr();
                        }
                        jump
                    };
                    let (node, upper, _) =
                        self.walk_right_capture(start, &key, Mode::Write, usize::MAX);
                    leaf = node;
                    upper0 = upper;
                } else {
                    // Left the region: reposition through level 1 (a
                    // budgeted walk — each step skips a whole region of
                    // ~B leaves) or, for genuinely distant jumps, a full
                    // descent.  Both paths below re-establish `leaf`.
                    if !leaf.is_null() {
                        unlock_node(leaf, Mode::Write);
                    }
                    if !l1.is_null() && !covered(&upper1, &key) {
                        let (node, upper, exhausted) =
                            self.walk_right_capture(l1, &key, Mode::Read, L1_WALK_BUDGET);
                        if exhausted {
                            unlock_node(node, Mode::Read);
                            l1 = ptr::null_mut();
                        } else {
                            l1 = node;
                            upper1 = upper;
                        }
                    }
                    if !l1.is_null() {
                        // Descend within the retained level-1 region.
                        let child = self.descend_pointer(l1, &key);
                        lock_node(child, Mode::Write);
                        if let Some(stats) = self.stats_enabled() {
                            stats.batch_leaf_locks.incr();
                        }
                        let (node, upper, _) =
                            self.walk_right_capture(child, &key, Mode::Write, usize::MAX);
                        leaf = node;
                        upper0 = upper;
                    } else {
                        let frontier = self.descend_frontier(&key);
                        l1 = frontier.0;
                        upper1 = frontier.1;
                        leaf = frontier.2;
                        upper0 = frontier.3;
                    }
                }
            }

            // ---- apply under the held leaf lock, or fall back ----
            if let Some(pass) = self.apply_op_in_leaf(leaf, &mut ops[slot]) {
                // The passes take their own locks top-down, so the whole
                // frontier must be released first.
                unlock_node(leaf, Mode::Write);
                leaf = ptr::null_mut();
                if !l1.is_null() {
                    unlock_node(l1, Mode::Read);
                    l1 = ptr::null_mut();
                }
                if let Some(stats) = self.stats_enabled() {
                    stats.batch_fallbacks.incr();
                }
                let previous = match pass {
                    Pass::Insert(value, height) => {
                        self.insert_structural(key, value, height, guard)
                    }
                    Pass::RemoveHeader => self.remove_inner(&key, guard),
                };
                let (Op::Get { result, .. }
                | Op::Insert { result, .. }
                | Op::Update { result, .. }
                | Op::Remove { result, .. }) = &mut ops[slot];
                *result = previous.into();
            }
            idx += 1;
        }
        if !leaf.is_null() {
            unlock_node(leaf, Mode::Write);
        }
        if !l1.is_null() {
            unlock_node(l1, Mode::Read);
        }
    }

    /// Walks right from `curr` (locked in `mode`) while the successor's
    /// header is `<= key`, up to `budget` steps, capturing the stopping
    /// successor's header — the first key *not* covered by the returned
    /// node — as the covering upper bound (`None` when the chain ends).
    ///
    /// Returns `(node, upper, exhausted)` with `node` locked in `mode`;
    /// `exhausted` means the budget ran out with the successor still
    /// qualifying, so the caller should release `node` and re-descend.
    ///
    /// # Safety
    ///
    /// `curr` must be locked in `mode` by this thread.
    unsafe fn walk_right_capture(
        &self,
        mut curr: *mut Node<K, V, B>,
        key: &K,
        mode: Mode,
        budget: usize,
    ) -> (*mut Node<K, V, B>, Option<K>, bool) {
        let mut steps = 0usize;
        loop {
            let next = (*curr).next();
            if next.is_null() {
                return (curr, None, false);
            }
            prefetch_node(next);
            lock_node(next, mode);
            let header = (*next).header();
            if header <= *key {
                if steps >= budget {
                    unlock_node(next, mode);
                    return (curr, Some(header), true);
                }
                unlock_node(curr, mode);
                curr = next;
                steps += 1;
                if let Some(stats) = self.stats_enabled() {
                    stats.horizontal_steps.incr();
                    if mode == Mode::Write {
                        stats.batch_leaf_locks.incr();
                    }
                }
            } else {
                unlock_node(next, mode);
                return (curr, Some(header), false);
            }
        }
    }

    /// Establishes the two-level frontier for `key`: the covering level-1
    /// node read-locked (null/`None` when the list has no internal level)
    /// and the covering leaf write-locked, each with its captured upper
    /// bound.
    ///
    /// The positioning above level 1 is read-mostly, so it goes
    /// **optimistic-first**: an OLC descent (the same machinery as the
    /// lock-free point reads) reaches the candidate level-1 node with
    /// zero lock acquisitions, which is then read-locked and
    /// version-validated; only the leaf's write lock and the level-1 read
    /// lock — the two locks the frontier retains anyway — are ever taken.
    /// After [`OPTIMISTIC_ATTEMPTS`] failed validations the descent falls
    /// back to the fully locked hand-over-hand walk
    /// ([`Self::descend_frontier_locked`]).  The
    /// `batch_optimistic_descents` / `batch_descent_fallbacks` counters
    /// record which path ran.
    ///
    /// # Safety
    ///
    /// The caller must hold an epoch pin across the call and must release
    /// both returned locks (leaf in write mode, level-1 node — when
    /// non-null — in read mode).
    #[allow(clippy::type_complexity)]
    unsafe fn descend_frontier(
        &self,
        key: &K,
    ) -> (*mut Node<K, V, B>, Option<K>, *mut Node<K, V, B>, Option<K>) {
        // The single-level layout has no read-mostly prefix to skip — the
        // first lock taken is the retained leaf write lock either way.
        if self.top_level() >= 1 {
            let mut backoff = Backoff::new();
            for _ in 0..OPTIMISTIC_ATTEMPTS {
                match self.try_descend_frontier_optimistic(key) {
                    Ok(frontier) => {
                        if let Some(stats) = self.stats_enabled() {
                            stats.batch_optimistic_descents.incr();
                        }
                        return frontier;
                    }
                    Err(Restart) => {
                        if let Some(stats) = self.stats_enabled() {
                            stats.optimistic_restarts.incr();
                        }
                        backoff.spin();
                    }
                }
            }
            if let Some(stats) = self.stats_enabled() {
                stats.batch_descent_fallbacks.incr();
            }
        }
        self.descend_frontier_locked(key)
    }

    /// One optimistic attempt at [`Self::descend_frontier`]: an OLC
    /// descent to level 1, then lock-validate and finish exactly like the
    /// locked path's final two steps.
    ///
    /// # Safety
    ///
    /// As [`Self::descend_frontier`]; the list must have a level 1
    /// (`top_level() >= 1`).
    #[allow(clippy::type_complexity)]
    unsafe fn try_descend_frontier_optimistic(
        &self,
        key: &K,
    ) -> Result<(*mut Node<K, V, B>, Option<K>, *mut Node<K, V, B>, Option<K>), Restart> {
        let (candidate, version) = self.try_descend_optimistic_to(key, 1)?;
        lock_node(candidate, Mode::Read);
        // An unchanged version means the node still covers `key` (its
        // content and next pointer can only change under its exclusive
        // lock, which would have bumped it); shared acquisitions do not
        // bump versions, so an untouched node validates under our lock.
        if !(*candidate).lock.validate_version(version) {
            unlock_node(candidate, Mode::Read);
            return Err(Restart);
        }
        // From here this is the locked path's tail: capture the level-1
        // upper bound under the held read lock (the successor's header is
        // re-read under its own lock, so a concurrently shifted boundary
        // is simply walked over), then descend to the write-locked leaf.
        let (l1, upper1, _) = self.walk_right_capture(candidate, key, Mode::Read, usize::MAX);
        let child = self.descend_pointer(l1, key);
        lock_node(child, Mode::Write);
        if let Some(stats) = self.stats_enabled() {
            stats.levels_visited.incr();
            stats.batch_leaf_locks.incr();
        }
        let (leaf, upper0, _) = self.walk_right_capture(child, key, Mode::Write, usize::MAX);
        Ok((l1, upper1, leaf, upper0))
    }

    /// Full hand-over-hand locked descent establishing the two-level
    /// frontier: the contention fallback behind
    /// [`Self::descend_frontier`], and the whole story for single-level
    /// lists.
    ///
    /// # Safety
    ///
    /// As [`Self::descend_frontier`].
    #[allow(clippy::type_complexity)]
    unsafe fn descend_frontier_locked(
        &self,
        key: &K,
    ) -> (*mut Node<K, V, B>, Option<K>, *mut Node<K, V, B>, Option<K>) {
        let top = self.top_level();
        if top == 0 {
            let head = self.head(0);
            lock_node(head, Mode::Write);
            if let Some(stats) = self.stats_enabled() {
                stats.batch_leaf_locks.incr();
            }
            let (leaf, upper0, _) = self.walk_right_capture(head, key, Mode::Write, usize::MAX);
            return (ptr::null_mut(), None, leaf, upper0);
        }
        let mut level = top;
        let mut curr = self.head(level);
        lock_node(curr, Mode::Read);
        let (l1, upper1) = loop {
            let (node, upper, _) = self.walk_right_capture(curr, key, Mode::Read, usize::MAX);
            curr = node;
            if level == 1 {
                break (node, upper);
            }
            let child = self.descend_pointer(curr, key);
            lock_node(child, Mode::Read);
            unlock_node(curr, Mode::Read);
            curr = child;
            level -= 1;
            if let Some(stats) = self.stats_enabled() {
                stats.levels_visited.incr();
            }
        };
        // Final step retains the level-1 lock while the leaf is acquired.
        let child = self.descend_pointer(l1, key);
        lock_node(child, Mode::Write);
        if let Some(stats) = self.stats_enabled() {
            stats.levels_visited.incr();
            stats.batch_leaf_locks.incr();
        }
        let (leaf, upper0, _) = self.walk_right_capture(child, key, Mode::Write, usize::MAX);
        (l1, upper1, leaf, upper0)
    }

    /// Applies one operation against the write-locked `leaf` covering its
    /// key — mutations through the leaf kernel the point path shares — or
    /// returns the write-locked pass it needs.
    ///
    /// # Safety
    ///
    /// As for the kernel ([`Self::upsert_in_leaf`]).
    unsafe fn apply_op_in_leaf(
        &self,
        leaf: *mut Node<K, V, B>,
        op: &mut Op<K, V>,
    ) -> Option<Pass<V>> {
        match op {
            Op::Get { key, result } => {
                if let Some(stats) = self.stats_enabled() {
                    stats.finds.incr();
                }
                *result = match (*leaf).search(key) {
                    NodeSearch::Found(slot) => OpResult::Value((*leaf).value_at(slot)),
                    NodeSearch::Pred(_) | NodeSearch::Before => OpResult::Missing,
                };
            }
            Op::Insert { key, value, result } | Op::Update { key, value, result } => {
                match self.upsert_in_leaf(leaf, *key, *value, None) {
                    Ok(previous) => *result = previous.into(),
                    Err(height) => return Some(Pass::Insert(*value, height)),
                }
            }
            Op::Remove { key, result } => match self.remove_in_leaf(leaf, key) {
                Ok(removed) => *result = removed.into(),
                Err(HeaderKey) => return Some(Pass::RemoveHeader),
            },
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use bskip_index::ops::{Op, OpResult};
    use bskip_index::ConcurrentIndex;

    use crate::config::BSkipConfig;
    use crate::BSkipList;

    type List = BSkipList<u64, u64, 8>;

    fn small_config() -> BSkipConfig {
        BSkipConfig::default()
            .with_max_height(4)
            .with_promotion_c(0.5)
    }

    #[test]
    fn batch_matches_point_semantics() {
        let list = List::with_config(small_config());
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for key in (0..200u64).step_by(2) {
            list.insert(key, key);
            oracle.insert(key, key);
        }
        let mut batch: Vec<Op<u64, u64>> = Vec::new();
        for key in 0..100u64 {
            batch.push(Op::get(key * 2));
            batch.push(Op::insert(key * 2 + 1, key));
            batch.push(Op::update(key * 2, key + 1000));
            if key % 3 == 0 {
                batch.push(Op::remove(key * 2 + 1));
            }
        }
        list.execute(&mut batch);
        // Replay sequentially against the oracle and compare every result.
        let mut expected = batch.clone();
        for op in expected.iter_mut() {
            match op {
                Op::Get { key, result } => *result = oracle.get(key).copied().into(),
                Op::Insert { key, value, result } | Op::Update { key, value, result } => {
                    *result = oracle.insert(*key, *value).into();
                }
                Op::Remove { key, result } => *result = oracle.remove(key).into(),
            }
        }
        // The batch was already in ascending key order per kind-group?  It
        // was not (interleaved kinds per key) — which is the point: the
        // sorted schedule must still produce slot-order results.
        assert_eq!(batch, expected);
        assert_eq!(list.len(), oracle.len());
        assert_eq!(list.to_vec(), oracle.into_iter().collect::<Vec<_>>());
        list.validate().expect("structure after batch");
    }

    #[test]
    fn same_key_sequences_keep_slot_order() {
        let list = List::with_config(small_config());
        let mut batch = vec![
            Op::insert(5, 1),
            Op::remove(5),
            Op::insert(5, 2),
            Op::get(5),
            Op::update(5, 3),
            Op::remove(5),
            Op::get(5),
        ];
        list.execute(&mut batch);
        assert_eq!(*batch[0].result(), OpResult::Missing);
        assert_eq!(*batch[1].result(), OpResult::Value(1));
        assert_eq!(*batch[2].result(), OpResult::Missing);
        assert_eq!(*batch[3].result(), OpResult::Value(2));
        assert_eq!(*batch[4].result(), OpResult::Value(2));
        assert_eq!(*batch[5].result(), OpResult::Value(3));
        assert_eq!(*batch[6].result(), OpResult::Missing);
        assert!(list.is_empty());
    }

    #[test]
    fn same_leaf_run_pins_once_and_locks_the_leaf_once() {
        let list = List::with_config(small_config().with_stats(true));
        // Six height-0 keys: a single leaf (B = 8), deterministically.
        for key in [10u64, 20, 30, 40, 50, 60] {
            list.insert_with_height(key, key, 0);
        }
        list.reset_stats();
        let pins_before = list.reclamation().pins;

        let mut batch = vec![
            Op::get(10),
            Op::update(20, 21),
            Op::get(25), // miss, same leaf
            Op::remove(30),
            Op::get(40),
            Op::remove(50),
            Op::update(60, 61),
        ];
        list.execute(&mut batch);

        let stats = ConcurrentIndex::stats(&list);
        assert_eq!(stats.get("batch_executes"), Some(1));
        assert_eq!(stats.get("batched_ops"), Some(7));
        assert_eq!(
            stats.get("batch_leaf_locks"),
            Some(1),
            "a same-leaf run must execute under one leaf lock acquisition"
        );
        assert_eq!(stats.get("batch_fallbacks"), Some(0));
        assert_eq!(
            list.reclamation().pins - pins_before,
            1,
            "the whole batch must pin the collector exactly once"
        );

        assert_eq!(batch[0].result().value(), Some(10));
        assert_eq!(batch[1].result().value(), Some(20));
        assert_eq!(*batch[2].result(), OpResult::Missing);
        assert_eq!(batch[3].result().value(), Some(30));
        assert_eq!(batch[5].result().value(), Some(50));
        assert_eq!(list.to_vec(), vec![(10, 10), (20, 21), (40, 40), (60, 61)]);
        list.validate().expect("structure after same-leaf batch");
    }

    #[test]
    fn multi_leaf_batch_amortizes_descents_via_right_walks() {
        let list = List::with_config(small_config().with_stats(true));
        for key in 0..64u64 {
            list.insert_with_height(key, key, 0);
        }
        list.reset_stats();
        let mut batch: Vec<Op<u64, u64>> = (0..64u64).map(Op::get).collect();
        list.execute(&mut batch);
        let stats = ConcurrentIndex::stats(&list);
        let leaf_locks = stats.get("batch_leaf_locks").unwrap();
        // 64 height-0 keys across B=8 leaves: the walk must touch each
        // leaf about once, far fewer than one lock per operation.
        assert!(
            (64 / 8..64).contains(&leaf_locks),
            "expected per-leaf locking, got {leaf_locks} acquisitions for 64 ops"
        );
        for (key, op) in batch.iter().enumerate() {
            assert_eq!(op.result().value(), Some(key as u64), "key {key}");
        }
    }

    #[test]
    fn frontier_positioning_goes_through_the_optimistic_descent() {
        let list = List::with_config(small_config().with_stats(true));
        // Promoted keys every 32 build a real tower (top level >= 1), so
        // frontier positioning has a read-mostly prefix to skip.
        for key in 0..256u64 {
            let height = usize::from(key % 32 == 0);
            list.insert_with_height(key, key, height);
        }
        assert!(list.top_level() >= 1, "test needs an internal level");
        list.reset_stats();

        let batches = 5u64;
        for round in 0..batches {
            let mut batch: Vec<Op<u64, u64>> = (0..32u64).map(|i| Op::get(round + 8 * i)).collect();
            list.execute(&mut batch);
            for op in &batch {
                assert_eq!(op.result().value(), Some(*op.key()));
            }
        }

        let stats = ConcurrentIndex::stats(&list);
        let optimistic = stats.get("batch_optimistic_descents").unwrap();
        assert!(
            optimistic >= batches,
            "every batch's first positioning must engage the OLC descent, \
             got {optimistic} for {batches} batches"
        );
        assert_eq!(
            stats.get("batch_descent_fallbacks"),
            Some(0),
            "single-threaded batches must never exhaust optimistic attempts"
        );
    }

    #[test]
    fn structural_operations_fall_back_and_stay_correct() {
        let list = List::with_config(small_config().with_stats(true));
        // A promoted key whose removal needs the tower...
        for key in 0..8u64 {
            list.insert_with_height(key * 10, key, 0);
        }
        list.insert_with_height(45, 45, 2);
        // ... and a guaranteed-full left leaf ([0..40] plus three fillers)
        // so the batch insert must overflow-split.
        for key in [1u64, 2, 3] {
            list.insert_with_height(key, key, 0);
        }
        list.reset_stats();
        let pins_before = list.reclamation().pins;

        let mut batch = vec![
            Op::insert(11, 11), // lands in the full leaf: overflow split
            Op::remove(45),     // header of a promoted tower
            Op::get(70),
        ];
        list.execute(&mut batch);
        let stats = ConcurrentIndex::stats(&list);
        assert!(
            stats.get("batch_fallbacks").unwrap() >= 2,
            "split and header removal must take the write-locked passes"
        );
        assert_eq!(
            stats.get("structural_writes"),
            stats.get("batch_fallbacks"),
            "a fallback enters its pass directly, once"
        );
        assert_eq!(
            list.reclamation().pins - pins_before,
            1,
            "the passes run under the batch's own pin"
        );
        assert_eq!(*batch[0].result(), OpResult::Missing);
        assert_eq!(batch[1].result().value(), Some(45));
        assert_eq!(batch[2].result().value(), Some(7));
        assert_eq!(list.get(&11), Some(11));
        assert_eq!(list.get(&45), None);
        list.validate().expect("structure after fallback batch");
    }

    #[test]
    fn random_batches_match_oracle_under_sampled_heights() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let list = List::with_config(small_config());
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for round in 0..40 {
            let mut batch: Vec<Op<u64, u64>> = (0..64)
                .map(|_| {
                    let key = rng.gen_range(0..300u64);
                    match rng.gen_range(0..4) {
                        0 => Op::get(key),
                        1 => Op::insert(key, rng.gen()),
                        2 => Op::update(key, rng.gen()),
                        _ => Op::remove(key),
                    }
                })
                .collect();
            let mut expected = batch.clone();
            list.execute(&mut batch);
            for op in expected.iter_mut() {
                match op {
                    Op::Get { key, result } => *result = oracle.get(key).copied().into(),
                    Op::Insert { key, value, result } | Op::Update { key, value, result } => {
                        *result = oracle.insert(*key, *value).into();
                    }
                    Op::Remove { key, result } => *result = oracle.remove(key).into(),
                }
            }
            assert_eq!(batch, expected, "round {round}");
            list.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert_eq!(list.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_batches_on_disjoint_stripes_are_exact() {
        let list = std::sync::Arc::new(BSkipList::<u64, u64, 16>::new());
        let threads = 4u64;
        let rounds = 50u64;
        std::thread::scope(|scope| {
            for thread_id in 0..threads {
                let list = std::sync::Arc::clone(&list);
                scope.spawn(move || {
                    for round in 0..rounds {
                        let base = thread_id + threads * 64 * round;
                        let mut batch: Vec<Op<u64, u64>> = (0..64)
                            .map(|i| Op::insert(base + threads * i, round))
                            .collect();
                        list.execute(&mut batch);
                        // Remove half of what this thread just inserted.
                        let mut removals: Vec<Op<u64, u64>> = (0..32)
                            .map(|i| Op::remove(base + threads * (2 * i)))
                            .collect();
                        list.execute(&mut removals);
                        for op in &removals {
                            assert_eq!(op.result().value(), Some(round));
                        }
                    }
                });
            }
        });
        assert_eq!(list.len(), (threads * rounds * 32) as usize);
        list.validate().expect("structure after concurrent batches");
    }
}
