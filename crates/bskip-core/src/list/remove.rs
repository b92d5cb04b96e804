//! Removal: leaf first, then — for header keys only — the top-down pass.
//!
//! Like insertion, a removal enters at the covering leaf, reached through
//! the optimistic descent and locked first (`leaf.rs`, `lock_covering`).
//! An absent key is a miss; a key at slot `> 0` of its leaf, or anywhere
//! in the head leaf, has promotion height 0 (the leaf kernel's invariant)
//! and is removed under that one lock.
//!
//! What remains is the **header key of a non-head leaf** (about one key in
//! `B/2`).  Deletions are symmetric to insertions (paper, footnote 3): the
//! key is removed from every level it was promoted to, in one top-down
//! write-locked pass that, like a promoted insertion's, locks nothing
//! above the level it enters at.  A stored key's height is read off the
//! structure: the pass enters at the first level `1, 2, …` whose covering
//! node (`lock_covering`) does *not* hold the key as the header of a
//! non-head node.  By `validate()`'s invariant 3 — **a key present at
//! level `ℓ + 1` heads a non-head node at level `ℓ`** — the key is on no
//! level above that one; and the entry node is never emptied or unlinked,
//! so the pass needs no predecessor there and retains one on every level
//! below.  Only a key heading a non-head node *on the top level* has no
//! level above to enter at: its pass starts from the top head.
//!
//! When removing a key empties a non-head node, the node is unlinked from
//! its level.  Removing a leaf's *header* key additionally triggers the
//! sparse-deletion merge: if the survivor is at or below the configured
//! underflow threshold ([`crate::BSkipConfig::underflow_divisor`]) and its
//! right neighbour has room, its entries are folded into the front of that
//! neighbour and the emptied node is unlinked, so deletion churn shrinks
//! the structure instead of leaving near-empty fixed-size nodes behind.
//! The merge is gated on header removal because only then are the
//! survivor's keys provably unpromoted (no upper-level down pointer can
//! dangle at the unlinked node), and it merges *rightward* because the
//! cursor contract forbids entries migrating behind a paused scan.  The
//! predecessor needed for the unlink is available because the traversal
//! retains the previous node's lock at each level (the same "at most three
//! locks, two levels" discipline as insertion).  Unlinked
//! nodes are **retired to the list's epoch-based collector** under the
//! removal's pinned guard: their memory is freed once every traversal
//! that was in flight at unlink time (and could therefore still hold a
//! pointer to the node — e.g. a reader spinning on its lock, or a paused
//! cursor about to follow a frozen `next` pointer) has finished.  See the
//! crate-level documentation for the full reclamation discussion.

use std::ptr;

use bskip_index::{IndexKey, IndexValue};
use bskip_sync::EbrGuard;

use super::leaf::HeaderKey;
use super::{lock_node, unlock_node, AtMost, BSkipList, Mode};
use crate::node::{prefetch_node, Node, NodeSearch};

impl<K: IndexKey, V: IndexValue, const B: usize> BSkipList<K, V, B> {
    /// The one point-remove entry: leaf first (see the module docs).
    pub(super) fn remove_impl(&self, key: &K) -> Option<V> {
        // One pin for the whole operation: the descent needs epoch
        // protection (like any read path), and every node the pass unlinks
        // is retired under this guard.
        let guard = self.collector().pin();
        // SAFETY: the pin spans the descent; `lock_covering` returns the
        // covering leaf write-locked, which is the kernel's contract, and
        // the pass is entered with no lock held.
        unsafe {
            let leaf = self.lock_covering(AtMost(key), 0, Mode::Write, &mut None);
            let outcome = self.remove_in_leaf(leaf, key);
            unlock_node(leaf, Mode::Write);
            match outcome {
                Ok(removed) => {
                    if let Some(stats) = self.stats_enabled() {
                        stats.optimistic_writes.incr();
                    }
                    removed
                }
                Err(HeaderKey) => self.remove_structural(key, &guard),
            }
        }
    }

    /// Removes a key that the leaf kernel found heading a non-head leaf:
    /// finds the level the pass enters at (module docs) and runs it.  The
    /// key may be removed, re-inserted with another height or moved
    /// between any two probes; the pass handles whatever it meets.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's collector; the caller must hold no
    /// node lock.
    pub(super) unsafe fn remove_structural(&self, key: &K, guard: &EbrGuard<'_>) -> Option<V> {
        for level in 1..=self.top_level() {
            let entry = self.lock_covering(AtMost(key), level, Mode::Write, &mut None);
            if (*entry).is_head() || (*entry).header() != *key {
                return self.remove_inner(key, entry, guard);
            }
            unlock_node(entry, Mode::Write);
        }
        // Unlinking a top-level node needs its predecessor, which the
        // pass retains while it walks right from the head.
        let head = self.head(self.top_level());
        lock_node(head, Mode::Write);
        self.remove_inner(key, head, guard)
    }

    /// The write-locked removal pass, from `entry` down to the leaf.  Makes
    /// no assumption about `key` — it may be gone, or no longer a header,
    /// by the time the pass reaches its leaf.  Releases every lock it is
    /// handed or takes.
    ///
    /// # Safety
    ///
    /// `entry` must be write-locked by this thread, must not be a non-head
    /// node headed by `key`, and must cover `key` at its level or — the
    /// top head — lie to the left of the node that does; `guard` must pin
    /// this list's collector.
    unsafe fn remove_inner(
        &self,
        key: &K,
        entry: *mut Node<K, V, B>,
        guard: &EbrGuard<'_>,
    ) -> Option<V> {
        let mut level = usize::from((*entry).level());
        if let Some(stats) = self.stats_enabled() {
            stats.removes.incr();
            stats.structural_writes.incr();
            if level == self.top_level() {
                stats.top_level_write_locks.incr();
            }
        }
        let mut curr = entry;
        let mut prev: *mut Node<K, V, B> = ptr::null_mut();
        let mut removed: Option<V> = None;

        loop {
            // ---- horizontal traversal, retaining the predecessor ----
            loop {
                let next = (*curr).next();
                if next.is_null() {
                    break;
                }
                prefetch_node(next);
                lock_node(next, Mode::Write);
                if (*next).header_covers(key) {
                    if !prev.is_null() {
                        unlock_node(prev, Mode::Write);
                    }
                    prev = curr;
                    curr = next;
                    if let Some(stats) = self.stats_enabled() {
                        stats.horizontal_steps.incr();
                    }
                } else {
                    unlock_node(next, Mode::Write);
                    break;
                }
            }
            if let Some(stats) = self.stats_enabled() {
                stats.levels_visited.incr();
            }

            let mut descend_child: *mut Node<K, V, B> = ptr::null_mut();
            let mut unlinked: *mut Node<K, V, B> = ptr::null_mut();

            match (*curr).search(key) {
                NodeSearch::Found(idx) => {
                    let value = (*curr).remove_at(idx);
                    if level == 0 {
                        removed = value;
                    }
                    if idx == 0 && !(*curr).is_head() && !(*curr).is_empty() {
                        // The node's new header is a former interior key,
                        // and interior keys are never promoted.
                        (*curr).set_header_promoted(false);
                    }
                    if level > 0 {
                        // Descend from the predecessor of the removed key: if
                        // the key was not the first entry its predecessor is
                        // still in `curr`; otherwise it is the last entry of
                        // the retained previous node (or that node's implicit
                        // -infinity entry).
                        descend_child = if idx > 0 {
                            (*curr).child_at(idx - 1)
                        } else if (*curr).is_head() {
                            (*curr).head_child()
                        } else {
                            debug_assert!(
                                !prev.is_null(),
                                "removed the header of the first node after the head"
                            );
                            if (*prev).is_empty() {
                                debug_assert!((*prev).is_head());
                                (*prev).head_child()
                            } else {
                                (*prev).child_at((*prev).len() - 1)
                            }
                        };
                    }
                    // Leaf merge under sparse deletion: removing a node's
                    // *header* (idx == 0) leaves a node whose remaining
                    // keys are provably unpromoted — this same pass just
                    // removed the header's entries from every upper level,
                    // and non-header keys are never promoted — so no down
                    // pointer anywhere can target `curr`.  If it is now
                    // underflowing, fold it into the *right* neighbour
                    // (entries only ever migrate forward, preserving the
                    // cursor contract) and let the empty-node unlink
                    // below retire it.  The neighbour must be gated on
                    // `header_promoted`: folding into a node whose header
                    // still has upper-level entries would demote that
                    // header to an interior slot while a level-1 down
                    // pointer keeps targeting the neighbour — a later
                    // merge would then unlink it out from under that
                    // pointer.  All three nodes involved are write-locked,
                    // so every touched version is bumped.
                    if level == 0 && idx == 0 && !(*curr).is_head() && !(*curr).is_empty() {
                        let threshold = self.config().underflow_threshold(B);
                        if threshold > 0 && (*curr).len() <= threshold {
                            let next = (*curr).next();
                            if !next.is_null() {
                                lock_node(next, Mode::Write);
                                if !(*next).header_promoted() && (*curr).len() + (*next).len() <= B
                                {
                                    (*curr).merge_into_right(&*next);
                                    if let Some(stats) = self.stats_enabled() {
                                        stats.nodes_merged.incr();
                                    }
                                }
                                unlock_node(next, Mode::Write);
                            }
                        }
                    }
                    // Unlink the node if the removal (or the merge above)
                    // emptied it.
                    if (*curr).is_empty() && !(*curr).is_head() {
                        debug_assert!(!prev.is_null());
                        (*prev).set_next((*curr).next());
                        unlinked = curr;
                    }
                }
                NodeSearch::Pred(idx) => {
                    if level > 0 {
                        descend_child = (*curr).child_at(idx);
                    }
                }
                NodeSearch::Before => {
                    if level > 0 {
                        debug_assert!((*curr).is_head());
                        descend_child = (*curr).head_child();
                    }
                }
            }

            if level == 0 {
                if !prev.is_null() {
                    unlock_node(prev, Mode::Write);
                }
                unlock_node(curr, Mode::Write);
                if !unlinked.is_null() {
                    self.defer_free(guard, unlinked);
                }
                break;
            }
            debug_assert!(!descend_child.is_null());
            prefetch_node(descend_child);
            lock_node(descend_child, Mode::Write);
            if !prev.is_null() {
                unlock_node(prev, Mode::Write);
            }
            unlock_node(curr, Mode::Write);
            if !unlinked.is_null() {
                self.defer_free(guard, unlinked);
            }
            curr = descend_child;
            prev = ptr::null_mut();
            level -= 1;
        }

        if removed.is_some() {
            self.drop_len();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use crate::config::BSkipConfig;
    use crate::BSkipList;

    type List = BSkipList<u64, u64, 4>;

    fn list() -> List {
        List::with_config(BSkipConfig::default().with_max_height(4))
    }

    #[test]
    fn remove_missing_key_returns_none() {
        let list = list();
        assert_eq!(list.remove(&1), None);
        list.insert_with_height(2, 2, 0);
        assert_eq!(list.remove(&1), None);
        assert_eq!(list.remove(&3), None);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn remove_promoted_key_clears_every_level() {
        let list = list();
        for key in 0..16u64 {
            list.insert_with_height(key, key, 0);
        }
        // Promote key 8 to the top and then delete it.
        list.insert_with_height(100, 100, 3);
        list.insert_with_height(40, 40, 2);
        assert_eq!(list.remove(&100), Some(100));
        assert_eq!(list.get(&100), None);
        assert_eq!(list.remove(&40), Some(40));
        list.validate()
            .expect("structure after removing promoted keys");
        for key in 0..16u64 {
            assert_eq!(list.get(&key), Some(key));
        }
    }

    #[test]
    fn remove_header_key_merges_or_unlinks_nodes() {
        let list = list();
        // Build several nodes via promotions so that headers exist at
        // internal levels, then remove exactly those headers.
        for key in 0..8u64 {
            list.insert_with_height(key * 10, key, 0);
        }
        for key in [25u64, 45, 65] {
            list.insert_with_height(key, key, 2);
        }
        list.validate().expect("pre-removal structure");
        for key in [25u64, 45, 65] {
            assert_eq!(list.remove(&key), Some(key));
            list.validate()
                .unwrap_or_else(|e| panic!("after removing {key}: {e}"));
        }
        for key in 0..8u64 {
            assert_eq!(list.get(&(key * 10)), Some(key));
        }
        assert_eq!(list.len(), 8);
    }

    #[test]
    fn insert_remove_insert_same_key_sequentially() {
        let list = list();
        for round in 0..5u64 {
            for height in 0..4usize {
                let key = 77;
                assert_eq!(
                    list.insert_with_height(key, round * 10 + height as u64, height),
                    None
                );
                assert_eq!(list.get(&key), Some(round * 10 + height as u64));
                assert_eq!(list.remove(&key), Some(round * 10 + height as u64));
                assert_eq!(list.get(&key), None);
                list.validate().expect("cycle structure");
            }
        }
        assert!(list.is_empty());
    }

    /// Builds the canonical merge scenario on a `B = 4` list: the leaf
    /// chain ends up `head{10,11,12,13} → {20,21} → {22,23,24}` where the
    /// second leaf is headed by the promoted key 20 and the third was
    /// created by an overflow split (so its header 22 is *not* promoted —
    /// the precondition for merging into it).
    fn merge_scenario(divisor: usize) -> BSkipList<u64, u64, 4> {
        let list = BSkipList::<u64, u64, 4>::with_config(
            BSkipConfig::default()
                .with_max_height(4)
                .with_stats(true)
                .with_underflow_divisor(divisor),
        );
        for key in [10u64, 11, 12, 13] {
            list.insert_with_height(key, key * 10, 0);
        }
        list.insert_with_height(20, 200, 1); // promotion split: leaf {20}
        for key in [21u64, 22, 23] {
            list.insert_with_height(key, key * 10, 0); // fill it
        }
        list.insert_with_height(24, 240, 0); // overflow split: {20,21} | {22,23,24}
        list.validate().expect("scenario structure");
        list
    }

    #[test]
    fn header_removal_merges_underflowing_leaf_into_right_neighbour() {
        // B = 4, divisor 4 → threshold 1: removing header 20 leaves the
        // lone survivor 21, which must migrate right into {22,23,24}
        // instead of living alone in a fat node.
        let list = merge_scenario(4);
        assert_eq!(list.remove(&20), Some(200));
        assert_eq!(
            list.stats().nodes_merged.get(),
            1,
            "header removal of an underflowing leaf must merge it"
        );
        list.validate().expect("post-merge structure");
        for key in (10u64..14).chain(21..25) {
            assert_eq!(list.get(&key), Some(key * 10), "key {key} lost by merge");
        }
    }

    #[test]
    fn header_removals_write_lock_the_top_level_only_when_the_tower_reaches_it() {
        use std::cell::Cell;
        use std::rc::Rc;
        use std::sync::Arc;

        use crate::list::leaf::tests::{assert_unlocked, interleave};

        // `head{10,11,12,13} → {20,21} → {22,23,24} → {30} → {50,60,70}`:
        // 22 heads its leaf with height 0 (an overflow split), 20 with
        // height 1, 30 with the full height 3; 50 even heads a node *on*
        // the top level (`head{30, 40} → {50, 60, 70}` up there, 40 having
        // gone since) and has to be unlinked from it.
        let list = Arc::new(merge_scenario(0));
        for key in [30u64, 40, 50, 60, 70] {
            list.insert_with_height(key, key * 10, 3);
        }
        assert_eq!(list.remove(&40), Some(400));
        assert_eq!(list.level_shape()[3], (2, 4));
        let stats = list.stats();
        let top_locks = || stats.top_level_write_locks.get();

        // Height 0: the pass runs over levels 1 and 0, not all four.
        stats.reset();
        let (other, before_pass) = (Arc::clone(&list), Rc::new(Cell::new(0)));
        let seen = Rc::clone(&before_pass);
        // Runs once the level-1 probe has descended, before it locks.
        interleave(1, move || seen.set(other.stats().levels_visited.get()));
        assert_eq!(list.remove(&22), Some(220));
        assert_eq!(stats.levels_visited.get() - before_pass.get(), 2);
        assert_eq!(stats.structural_writes.get(), 1);
        assert_eq!(top_locks(), 0);

        // Height 1: entered at level 1, in the head node.
        assert_eq!(list.remove(&20), Some(200));
        assert_eq!(top_locks(), 0);

        // Height `top`, in the top level's head node: entered there.
        assert_eq!(list.remove(&30), Some(300));
        assert_eq!(top_locks(), 1);

        // Heading a non-head node on the top level: from the top head.
        assert_eq!(list.remove(&50), Some(500));
        assert_eq!(top_locks(), 2);
        assert_eq!(list.level_shape()[3], (2, 2));

        assert_eq!(stats.structural_writes.get(), 4);
        assert_eq!(stats.optimistic_restarts.get(), 0);
        assert_eq!(stats.write_descent_fallbacks.get(), 0);
        list.validate().expect("structure");
        assert_unlocked(&list);
    }

    #[test]
    fn merging_disabled_by_zero_divisor() {
        let list = merge_scenario(0);
        assert_eq!(list.remove(&20), Some(200));
        assert_eq!(list.stats().nodes_merged.get(), 0);
        list.validate().expect("structure without merging");
        for key in (10u64..14).chain(21..25) {
            assert_eq!(list.get(&key), Some(key * 10));
        }
    }

    #[test]
    fn merge_refuses_neighbour_with_promoted_header() {
        // Folding into a node whose header still has upper-level entries
        // would strand the upper level's down pointer; the gate must keep
        // the underflowing leaf alive instead.
        let list = BSkipList::<u64, u64, 4>::with_config(
            BSkipConfig::default().with_max_height(4).with_stats(true),
        );
        for key in [10u64, 11, 12, 13] {
            list.insert_with_height(key, key * 10, 0);
        }
        list.insert_with_height(20, 200, 1); // leaf {20}, header promoted
        list.insert_with_height(21, 210, 0); // leaf {20,21}
        list.insert_with_height(30, 300, 1); // leaf {30}, header promoted
        list.validate().expect("scenario structure");
        // Removing 20 underflows its leaf to {21}, but the right
        // neighbour's header 30 is promoted: no merge may happen.
        assert_eq!(list.remove(&20), Some(200));
        assert_eq!(list.stats().nodes_merged.get(), 0);
        list.validate().expect("post-remove structure");
        for key in [10u64, 11, 12, 13, 21, 30] {
            assert_eq!(list.get(&key), Some(key * 10));
        }
    }

    #[test]
    fn delete_churn_with_merging_keeps_live_nodes_bounded() {
        // Interleave inserts and removes so leaves repeatedly underflow;
        // the live structural node count must come back down instead of
        // ratcheting up with every churn round.
        let list = BSkipList::<u64, u64, 8>::with_config(
            BSkipConfig::default().with_max_height(4).with_stats(true),
        );
        for round in 0..20u64 {
            for key in 0..256u64 {
                list.insert(key, key + round);
            }
            for key in 0..256u64 {
                assert_eq!(list.remove(&key), Some(key + round));
            }
            list.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert!(list.is_empty());
        // Spine only (plus transient reclamation slack).
        let live = list.live_nodes();
        assert!(live <= 8, "live nodes after full churn: {live}");
    }

    #[test]
    fn random_insert_remove_mix_matches_btreemap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let mut rng = StdRng::seed_from_u64(99);
        let list = list();
        let mut oracle = BTreeMap::new();
        for _ in 0..5000 {
            let key = rng.gen_range(0..500u64);
            if rng.gen_bool(0.6) {
                let value = rng.gen::<u64>();
                let height = rng.gen_range(0..4);
                assert_eq!(
                    list.insert_with_height(key, value, height),
                    oracle.insert(key, value),
                    "insert mismatch for key {key}"
                );
            } else {
                assert_eq!(
                    list.remove(&key),
                    oracle.remove(&key),
                    "remove mismatch for {key}"
                );
            }
        }
        list.validate().expect("final structure");
        assert_eq!(list.len(), oracle.len());
        let collected: Vec<(u64, u64)> = list.to_vec();
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(collected, expected);
    }
}
