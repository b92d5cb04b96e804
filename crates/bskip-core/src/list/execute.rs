//! The native batched-operation path.
//!
//! [`BSkipList::execute`] applies a whole batch of [`Op`]s in one call,
//! exploiting exactly the property the paper builds the structure around:
//! fat fixed-size leaves concentrate many neighbouring keys, so a batch
//! applied in key order repeatedly lands in the node it is already
//! holding.  The collector is pinned once for the batch, and between
//! operations the path keeps three things:
//!
//! * the **leaf** covering the last key, write-locked — every operation
//!   of a run that lands in it executes under that one acquisition;
//! * the leaf's upper **bound** — its successor's header, read once under
//!   the successor's shared lock.  It cannot move while the leaf's write
//!   lock is held: a node is linked in behind the leaf only by splitting
//!   it, and the successor is unlinked, folded into the leaf or re-headed
//!   by a removal only with its predecessor — this leaf — write-locked;
//! * a **position** — the level-1 node the last descent passed through
//!   and the version it validated there, with *no lock held*.
//!
//! A key at or past the bound releases the leaf and repositions through
//! the point writers' own entry, `lock_covering`: the one optimistic
//! descent, resumed from the position instead of the top-level head, then
//! `lock_exclusive_at` on the leaf it reaches.  A position that no longer
//! validates is dropped and the descent starts from the top (the parent
//! module's *write path* notes have the argument); after
//! `OPTIMISTIC_ATTEMPTS` failures `descend_locked` takes over, the only
//! place positioning locks anything above a leaf.
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
//! Everything structural falls back mid-batch (releasing the leaf first)
//! to the point path's **write-locked passes**, called directly —
//! not to the point methods, whose leaf-first entry would only repeat the
//! check the kernel just made: promoted inserts and overflow splits run
//! `insert_structural` with the height the kernel drew, so batching does
//! not bias the height distribution, and removals of node headers, which
//! may own towers and may empty (and thus unlink and retire) nodes, run
//! `remove_structural`.  Both run under the batch's one epoch pin and
//! enter at the key's own level.  `leaf.rs` has the invariant that makes
//! the leaf-local cases complete.
//!
//! Ordering semantics are those of [`bskip_index::ops`]: the sorted
//! schedule ([`sorted_order`]) reorders only operations on distinct keys,
//! which commute, so the batch is observationally equivalent to slot-order
//! application.

use std::ptr;

use bskip_index::ops::{sorted_order, with_scratch, Op, OpResult};
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::EbrGuard;

use super::leaf::HeaderKey;
use super::{lock_node, unlock_node, BSkipList, Mode};
use crate::node::{Node, NodeSearch};

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
    /// it replaces.  The sorted schedule sits on the stack for batches of
    /// up to [`bskip_index::ops::STACK_SCRATCH`] operations.
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
        with_scratch(ops.len(), 0, |order| {
            sorted_order(ops, order);
            // One pin for the whole batch: every descent below, the
            // position retained between them (a node that may be unlinked
            // meanwhile) and every structural fallback run under this
            // guard.
            let guard = self.collector().pin();
            // SAFETY: `guard` pins this list's collector for the whole
            // call; the body reads guarded node state only under a lock
            // it holds and writes it only under an exclusive one, and
            // holds at most the leaf and — to its right, as the lock
            // order has it — the leaf's successor.
            unsafe { self.execute_inner(ops, order, &guard) }
        })
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector; the caller holds no node
    /// lock.
    unsafe fn execute_inner(&self, ops: &mut [Op<K, V>], order: &[usize], guard: &EbrGuard<'_>) {
        // Leaf, bound and position (module docs): the write-locked leaf
        // (null = none held), the first key it does not cover (`None` =
        // it is the last leaf), and where the next descent resumes.
        let mut leaf: *mut Node<K, V, B> = ptr::null_mut();
        let mut upper: Option<K> = None;
        let mut position = None;

        for &slot in order {
            let key = *ops[slot].key();

            if leaf.is_null() || upper.is_some_and(|bound| key >= bound) {
                // Released first: the descent may come back to this leaf.
                if !leaf.is_null() {
                    unlock_node(leaf, Mode::Write);
                }
                leaf = self.lock_covering(&key, 0, Mode::Write, &mut position);
                if let Some(stats) = self.stats_enabled() {
                    stats.batch_leaf_locks.incr();
                }
                let next = (*leaf).next();
                upper = if next.is_null() {
                    None
                } else {
                    lock_node(next, Mode::Read);
                    let header = (*next).header();
                    unlock_node(next, Mode::Read);
                    Some(header)
                };
            }

            // ---- apply under the held leaf lock, or fall back ----
            if let Some(pass) = self.apply_op_in_leaf(leaf, &mut ops[slot]) {
                // The passes take their own locks top-down, so the leaf
                // goes first.  A promoted pass rewrites the level-1 node,
                // which would cost the next descent a failed attempt, so
                // that one starts from the top.
                unlock_node(leaf, Mode::Write);
                leaf = ptr::null_mut();
                position = None;
                if let Some(stats) = self.stats_enabled() {
                    stats.batch_fallbacks.incr();
                }
                let previous = match pass {
                    Pass::Insert(value, height) => {
                        self.insert_structural(key, value, height, guard)
                    }
                    Pass::RemoveHeader => self.remove_structural(&key, guard),
                };
                let (Op::Get { result, .. }
                | Op::Insert { result, .. }
                | Op::Update { result, .. }
                | Op::Remove { result, .. }) = &mut ops[slot];
                *result = previous.into();
            }
        }
        if !leaf.is_null() {
            unlock_node(leaf, Mode::Write);
        }
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
    fn repositioning_resumes_one_level_above_the_leaf() {
        let list = List::with_config(small_config().with_stats(true));
        // A tower of height 1 every 8 keys and of height 2 every 64:
        // three populated levels, eight level-1 nodes.
        for key in 0..512u64 {
            let height = usize::from(key % 8 == 0) + usize::from(key % 64 == 0);
            list.insert_with_height(key, key, height);
        }
        assert!(list.level_shape()[2].1 > 0, "test needs three levels");

        for round in 0..5u64 {
            list.reset_stats();
            let mut batch: Vec<Op<u64, u64>> =
                (0..32u64).map(|i| Op::get(round + 16 * i)).collect();
            list.execute(&mut batch);
            for op in &batch {
                assert_eq!(op.result().value(), Some(*op.key()));
            }
            let stats = list.stats();
            let leaf_locks = stats.batch_leaf_locks.get();
            assert_eq!(leaf_locks, 32, "every key of the batch is in its own leaf");
            // The first positioning descends from the top; every later
            // one resumes at level 1 — walking right there when the key
            // has left the retained node's range — and descends one level.
            assert_eq!(
                stats.levels_visited.get(),
                list.top_level() as u64 + leaf_locks - 1
            );
            assert_eq!(stats.optimistic_restarts.get(), 0);
            assert_eq!(stats.write_descent_fallbacks.get(), 0);
        }
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
