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
//! Removing a key that heads a non-head node `curr`, at any level, **undoes
//! the split** that made it a header: when `curr`'s survivors fit into its
//! left neighbour `prev`, they are appended there and `curr`, now empty,
//! is unlinked — so a promoted insert followed by the removal of the same
//! key leaves the level as it found it, instead of a demoted header over a
//! half-empty node.  The fold is legal because the survivors are interior
//! keys: nothing above points at them (the removed key's upper entries
//! went earlier in this same top-down pass), and `prev` keeps its own
//! header.  Entries thus move *left*, behind a paused forward cursor; the
//! cursor re-positions when the leaf it resumes on turns out to be empty
//! (`cursor.rs`, *Consistency*).  Survivors that do not fit stay where
//! they are, under a demoted header.  `prev` is at hand because the
//! traversal retains the previous node's lock at each level (the same
//! "at most three locks, two levels" discipline as insertion).  Unlinked
//! nodes are **retired to the list's epoch-based collector** under the
//! removal's pinned guard: their memory is freed once every traversal
//! that was in flight at unlink time (and could therefore still hold a
//! pointer to the node — e.g. a reader spinning on its lock, or a paused
//! cursor about to lock it and find it empty) has finished.  See the
//! crate-level documentation for the full reclamation discussion.

use bskip_index::trace::Tracer;
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::Racy;

use super::leaf::HeaderKey;
use crate::guard::{NodeRef, Pin, WriteGuard};
use crate::node::{prefetch_node, NodeSearch};

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> Pin<'_, K, V, B, T> {
    /// The one point-remove entry, under this pin: leaf first (see the
    /// module docs).  `lock_covering` returns the covering leaf
    /// write-locked, which is the kernel's contract, and the pass is
    /// entered with no lock held.
    pub(super) fn remove_pinned(&self, key: &K) -> Option<V> {
        let leaf = self.lock_covering(key, 0);
        let outcome = self.remove_in_leaf(&leaf, key);
        drop(leaf);
        match outcome {
            Ok(removed) => {
                if let Some(stats) = self.stats_enabled() {
                    stats.optimistic_writes.incr();
                }
                removed
            }
            Err(HeaderKey) => self.remove_structural(key),
        }
    }

    /// Removes a key that the leaf kernel found heading a non-head leaf:
    /// finds the level the pass enters at (module docs) and runs it.  The
    /// key may be removed, re-inserted with another height or moved
    /// between any two probes; the pass handles whatever it meets.
    pub(super) fn remove_structural(&self, key: &K) -> Option<V> {
        for level in 1..=self.top_level() {
            let entry: WriteGuard<'_, K, V, B> = self.lock_covering(key, level);
            if entry.is_head() || entry.header() != *key {
                return self.remove_inner(key, entry);
            }
        }
        // Unlinking a top-level node needs its predecessor, which the
        // pass retains while it walks right from the head.
        self.remove_inner(key, self.head(self.top_level()).lock())
    }

    /// The write-locked removal pass, from `entry` down to the leaf.  Makes
    /// no assumption about `key` — it may be gone, or no longer a header,
    /// by the time the pass reaches its leaf.  `entry` is not a non-head
    /// node headed by `key`, and covers `key` at its level or — the top
    /// head — lies to the left of the node that does.
    fn remove_inner<'p>(&'p self, key: &K, entry: WriteGuard<'p, K, V, B>) -> Option<V> {
        let mut level = usize::from(entry.level());
        if let Some(stats) = self.stats_enabled() {
            stats.removes.incr();
            stats.structural_writes.incr();
            if level == self.top_level() {
                stats.top_level_write_locks.incr();
            }
        }
        let mut level_start = entry;
        let mut removed: Option<V> = None;

        loop {
            let (prev, curr) = self.walk_right_keeping_prev(level_start, key);
            if let Some(stats) = self.stats_enabled() {
                stats.levels_visited.incr();
            }

            let mut descend_child: Option<NodeRef<'p, K, V, B>> = None;
            // `curr` lost its header and every survivor: it is unlinked,
            // and retired once its lock is dropped.
            let mut emptied = false;

            match curr.search(key, self.tracer()) {
                NodeSearch::Found(idx) => {
                    let value = curr.remove_at(idx, self.tracer());
                    if level == 0 {
                        removed = value;
                    }
                    let header = idx == 0 && !curr.is_head();
                    // Only a header's removal needs `prev`, and the walk
                    // to a non-head node always retains one.
                    let retained = || prev.as_ref().expect("a header has a locked predecessor");
                    if level > 0 {
                        // Descend from the predecessor of the removed key: if
                        // the key was not the first entry its predecessor is
                        // still in `curr`; otherwise it is the last entry of
                        // the retained previous node (or that node's implicit
                        // -infinity entry).
                        descend_child = if idx > 0 {
                            self.child_at(*curr, idx - 1)
                        } else if curr.is_head() {
                            curr.head_child()
                        } else if retained().is_empty() {
                            debug_assert!(retained().is_head());
                            retained().head_child()
                        } else {
                            self.child_at(**retained(), retained().len() - 1)
                        };
                    }
                    if header {
                        // Undo the split: the survivors fold back into
                        // the node they were split from when they fit.
                        // They are interior keys, so nothing above points
                        // at them (this pass already removed the header's
                        // upper entries); `prev` keeps its own header.
                        let prev = retained();
                        if !curr.is_empty() && prev.len() + curr.len() <= B {
                            curr.move_suffix_to(0, prev, self.tracer());
                            if let Some(stats) = self.stats_enabled() {
                                stats.nodes_merged.incr();
                            }
                        }
                        if curr.is_empty() {
                            prev.set_next(curr.next());
                            emptied = true;
                        }
                    }
                }
                NodeSearch::Pred(idx) => {
                    if level > 0 {
                        descend_child = self.child_at(*curr, idx);
                    }
                }
                NodeSearch::Before => {
                    if level > 0 {
                        debug_assert!(curr.is_head());
                        descend_child = curr.head_child();
                    }
                }
            }

            // ---- descend or finish: hand-over-hand, the child is locked
            // before this level's locks are dropped ----
            debug_assert_eq!(descend_child.is_some(), level > 0);
            let child = descend_child.map(|child| {
                prefetch_node(child.as_ptr());
                child.lock()
            });
            drop(prev);
            if emptied {
                self.defer_free(curr);
            } else {
                drop(curr);
            }
            let Some(child) = child else { break };
            level_start = child;
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

    fn stats_list() -> List {
        List::with_config(BSkipConfig::default().with_max_height(4).with_stats(true))
    }

    /// Builds `head{10,11,12,13} → {20,21} → {22,23,24}` on a `B = 4`
    /// list: the second leaf is headed by the promoted key 20, the third
    /// by 22, which an overflow split left there with height 0.
    fn full_head_scenario() -> List {
        let list = stats_list();
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
    fn header_removal_folds_the_survivors_into_the_left_neighbour() {
        // `head{10, 20, 30}`; the promoted insert of 15 splits it on
        // levels 0 and 1, and removing 15 again undoes exactly that: the
        // survivors 20 and 30 go back into the head leaf, the emptied
        // level-1 node is unlinked, and the shape is the one before.
        let list = stats_list();
        for key in [10u64, 20, 30] {
            list.insert_with_height(key, key * 10, 0);
        }
        let before = list.level_shape();
        list.insert_with_height(15, 150, 2);
        assert_eq!(list.level_shape()[..3], [(2, 4), (2, 1), (1, 1)]);
        assert_eq!(list.remove(&15), Some(150));
        assert_eq!(list.level_shape(), before);
        assert_eq!(list.stats().nodes_merged.get(), 1);
        list.validate().expect("post-fold structure");
        assert_eq!(list.to_vec(), vec![(10, 100), (20, 200), (30, 300)]);
    }

    #[test]
    fn header_removal_without_room_on_the_left_folds_nothing() {
        // Removing 20 leaves the survivor 21, which does not fit into the
        // full head leaf: it stays in its own leaf, under a demoted header.
        let list = full_head_scenario();
        assert_eq!(list.remove(&20), Some(200));
        assert_eq!(list.stats().nodes_merged.get(), 0);
        assert_eq!(list.level_shape()[0], (3, 8));
        list.validate().expect("structure without a fold");
        for key in (10u64..14).chain(21..25) {
            assert_eq!(list.get(&key), Some(key * 10));
        }
        // The next header removal finds room in the demoted leaf.
        assert_eq!(list.remove(&22), Some(220));
        assert_eq!(list.stats().nodes_merged.get(), 1);
        assert_eq!(list.level_shape()[0], (2, 7));
        list.validate().expect("post-fold structure");
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
        // gone since), whose survivors fold into the top head.
        let list = Arc::new(full_head_scenario());
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
        assert_eq!(list.level_shape()[3], (1, 2));

        assert_eq!(stats.structural_writes.get(), 4);
        assert_eq!(stats.optimistic_restarts.get(), 0);
        assert_eq!(stats.write_descent_fallbacks.get(), 0);
        list.validate().expect("structure");
        assert_unlocked(&list);
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
