//! The optimistic retry loop, the leaf-first write entry and the leaf
//! kernel.
//!
//! [`BSkipList::optimistically`] is the one retry loop around the
//! optimistic descent: a point read copies its value out inside it, and
//! every write, alone or in a batch, funnels through the two halves of
//! this module built on it:
//!
//! * [`BSkipList::lock_covering`] — reach the node that covers a key at a
//!   given level **without locking anything above it** and return it
//!   locked (exclusive: the writer half of optimistic lock coupling, whose
//!   sufficiency argument is in the parent module's *write path* notes;
//!   shared: the cursor's snapshot positioning);
//! * the **leaf kernel**, [`BSkipList::upsert_in_leaf`] and
//!   [`BSkipList::remove_in_leaf`] — apply one mutation under a held,
//!   covering leaf lock, or say that it needs structural work.  The point
//!   writers call it on the leaf `lock_covering` hands them.
//!
//! # Why header-less leaf mutations are complete
//!
//! The kernel relies on a structural invariant: **a key stored at slot
//! `> 0` of a leaf has promotion height 0** — it exists nowhere else in
//! the structure, so replacing or removing it leaf-locally is the whole
//! job.  Inductively: a key is promoted only by an insertion whose
//! promotion split makes it the *header* of its own pre-allocated leaf;
//! overflow splits and splices only move node *suffixes* (slots `≥ 1`,
//! height 0 by induction) into the non-header slots of their destination,
//! a fold moves a node's survivors — its slots `≥ 1` once its header is
//! gone — behind the entries of its left neighbour, and head-sentinel
//! leaves only ever receive height-0 keys (a
//! promoted insertion at the front of a head node moves the head's whole
//! content into the new key's node).  Removing a non-header slot also can
//! never empty a node, so the kernel never needs to unlink — the one
//! operation that requires the wider write-lock protocol.  Replacing a
//! value needs no such argument at all: values live only at the leaf
//! level, whatever the key's height.

use bskip_index::trace::Tracer;
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::{Backoff, Racy};

use super::{BSkipList, OPTIMISTIC_ATTEMPTS};
use crate::guard::{Locked, NodeRef, Pin, WriteGuard};
use crate::node::NodeSearch;

/// The key is the header of a non-head leaf: it may own a tower and its
/// removal may empty (and thus unlink and retire) nodes, which is work for
/// the write-locked removal pass.
pub(super) struct HeaderKey;

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> Pin<'_, K, V, B, T> {
    /// The one optimistic retry loop, behind every point read and every
    /// [`Self::lock_covering`]: up to [`OPTIMISTIC_ATTEMPTS`] passes of
    /// "descend optimistically to the node covering `key` at `level`, then
    /// `attempt` on it with the version the descent validated".  The first
    /// `Some` an attempt returns is the answer; a failed descent or a
    /// `None` counts one `optimistic_restarts` and backs off.  `None` after
    /// the last pass leaves the fallback, and its counter, to the caller.
    /// `level <= top_level()`.
    pub(super) fn optimistically<'p, R>(
        &'p self,
        key: &K,
        level: usize,
        mut attempt: impl FnMut(NodeRef<'p, K, V, B>, u64) -> Option<R>,
    ) -> Option<R> {
        let mut backoff = Backoff::new();
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            if let Ok((node, version)) = self.try_descend_optimistic_to(key, level) {
                #[cfg(test)]
                tests::run_interleaved(level);
                if let Some(result) = attempt(node, version) {
                    return Some(result);
                }
            }
            if let Some(stats) = self.stats_enabled() {
                stats.optimistic_restarts.incr();
            }
            backoff.spin();
        }
        None
    }

    /// Returns the node covering `key` at `level`, locked in `G`'s mode.
    ///
    /// The conflict-free path takes exactly that one lock: an optimistic
    /// descent reaches the node with its version, and the node is kept
    /// only if the version is still the validated one under the lock
    /// ([`Locked::lock_at`]: for a writer
    /// [`lock_exclusive_at`](bskip_sync::RawRwSpinLock::lock_exclusive_at),
    /// for a snapshot a shared lock, then `validate_version`).  After
    /// [`OPTIMISTIC_ATTEMPTS`] failed validations the descent falls back to
    /// hand-over-hand shared locks down to `level`, so no caller can
    /// livelock.  `level <= top_level()`.
    pub(super) fn lock_covering<'p, G: Locked<'p, K, V, B>>(&'p self, key: &K, level: usize) -> G {
        if let Some(node) = self.optimistically(key, level, G::lock_at) {
            return node;
        }
        if let Some(stats) = self.stats_enabled() {
            if G::EXCLUSIVE {
                stats.write_descent_fallbacks.incr();
            } else {
                stats.locked_fallbacks.incr();
            }
        }
        self.descend_locked(key, level)
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> BSkipList<K, V, B, T> {
    /// Upserts `key → value` in the write-locked `leaf`, whose key range
    /// covers `key` (its header is `<=` the key, or it is the head
    /// sentinel, and its successor's header — if any — is `>` the key):
    /// replaces the value of a present key (no height is drawn — an
    /// overwrite never reshapes the list), or inserts an absent one when
    /// that is leaf-local.
    ///
    /// `height` is the promotion height to use should the key turn out to
    /// be absent; `None` draws one, *after* the search.  An absent key
    /// that is promoted (`height > 0`) or meets a full leaf is structural
    /// work: `Err` carries the height so that it is drawn exactly once
    /// per inserted key, whichever path finishes the job.
    pub(super) fn upsert_in_leaf(
        &self,
        leaf: &WriteGuard<'_, K, V, B>,
        key: K,
        value: V,
        height: Option<usize>,
    ) -> Result<Option<V>, usize> {
        let position = match leaf.search(&key, self.tracer()) {
            NodeSearch::Found(slot) => {
                if let Some(stats) = self.stats_enabled() {
                    stats.inserts.incr();
                }
                return Ok(Some(leaf.replace_value_at(slot, value, self.tracer())));
            }
            NodeSearch::Pred(slot) => slot + 1,
            NodeSearch::Before => {
                debug_assert!(
                    leaf.is_head(),
                    "positioned a key below a non-head leaf's header"
                );
                0
            }
        };
        let height = height.unwrap_or_else(|| self.sample_height());
        if height > 0 || leaf.is_full() {
            return Err(height);
        }
        if let Some(stats) = self.stats_enabled() {
            stats.inserts.incr();
        }
        leaf.insert_leaf_at(position, key, value, self.tracer());
        self.bump_len();
        Ok(None)
    }

    /// Removes `key` from the write-locked, covering `leaf` (as for
    /// [`Self::upsert_in_leaf`]) unless it is the header of a non-head
    /// leaf (see [`HeaderKey`]); an absent key is `Ok(None)`.
    pub(super) fn remove_in_leaf(
        &self,
        leaf: &WriteGuard<'_, K, V, B>,
        key: &K,
    ) -> Result<Option<V>, HeaderKey> {
        let removed = match leaf.search(key, self.tracer()) {
            // Not a (non-head) node header, hence height 0 and present
            // only in this leaf; removing it cannot empty a non-head node.
            NodeSearch::Found(slot) if slot > 0 || leaf.is_head() => {
                self.drop_len();
                leaf.remove_at(slot, self.tracer())
            }
            NodeSearch::Found(_) => return Err(HeaderKey),
            NodeSearch::Pred(_) | NodeSearch::Before => None,
        };
        if let Some(stats) = self.stats_enabled() {
            stats.removes.incr();
        }
        Ok(removed)
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! The one new failure mode of the optimistic write path is a write
    //! landing in a node that was unlinked, or stopped covering the key,
    //! *between the descent and the lock*.  The window is a few
    //! instructions wide and only matters if a complete exclusive cycle
    //! of another writer fits into it, so a stress test meets it a
    //! handful of times per second at best; these tests force it instead,
    //! by running the interfering operation from a hook at exactly that
    //! point.  A batch's writes are these same point writes under the
    //! batch's one pin, and the hook meets them the same way.
    //!
    //! A header removal adds its probes: it reads the key's height off the
    //! structure one level at a time, with no lock held from one probe to
    //! the next, so the key may be removed, re-inserted taller or shorter,
    //! moved by a split or lose its node to a fold *between a probe's
    //! descent and its lock* — the hook at that probe's level.

    use std::cell::RefCell;
    use std::sync::Arc;

    use bskip_index::ops::{Op, OpResult};

    use crate::config::BSkipConfig;
    use crate::BSkipList;

    type List = BSkipList<u64, u64, 4>;
    type Interleaved = (usize, Box<dyn FnOnce()>);

    thread_local! {
        /// Runs once, on this thread, inside the next optimistic pass at
        /// the given level — a point read's or a `lock_covering`'s: after
        /// its descent validated, before it reads or locks the node.
        static INTERLEAVED: RefCell<Option<Interleaved>> = const { RefCell::new(None) };
    }

    pub(super) fn run_interleaved(level: usize) {
        let due = INTERLEAVED.with(|cell| {
            let mut slot = cell.borrow_mut();
            match &*slot {
                Some((at, _)) if *at == level => slot.take(),
                _ => None,
            }
        });
        // Taken out first: the operation re-enters the loop.
        if let Some((_, operation)) = due {
            operation();
        }
    }

    pub(in crate::list) fn interleave(level: usize, operation: impl FnOnce() + 'static) {
        INTERLEAVED.with(|cell| *cell.borrow_mut() = Some((level, Box::new(operation))));
    }

    /// Overwrites `key` before each of the next `times` level-0 optimistic
    /// passes: every one of them finds its leaf's version moved.
    pub(in crate::list) fn interfere(list: &Arc<List>, key: u64, times: usize) {
        if times > 0 {
            let list = Arc::clone(list);
            interleave(0, move || {
                list.insert(key, times as u64);
                interfere(&list, key, times - 1);
            });
        }
    }

    fn list() -> Arc<List> {
        Arc::new(List::with_config(
            BSkipConfig::default().with_max_height(4).with_stats(true),
        ))
    }

    /// Head leaf `{10, 20, 30, 40}`; the interleaved promoted insert of 25
    /// splits it into `{10, 20} → {25, 30, 40}`.
    fn split_scenario() -> Arc<List> {
        let list = list();
        for key in [10u64, 20, 30, 40] {
            list.insert_with_height(key, key * 10, 0);
        }
        let other = Arc::clone(&list);
        interleave(0, move || {
            assert_eq!(other.insert_with_height(25, 250, 1), None);
        });
        list
    }

    #[test]
    fn insert_follows_a_key_that_a_split_moved_away() {
        let list = split_scenario();
        // The descent reaches the head leaf, which holds 30; by the time
        // it is locked, 30 lives in the new leaf.  Writing into the old
        // one would insert a second 30 and report a fresh key.
        assert_eq!(list.insert(30, 301), Some(300));
        assert_eq!(list.stats().optimistic_restarts.get(), 1);
        assert_eq!(list.len(), 5);
        assert_eq!(list.get(&30), Some(301));
        list.validate().expect("structure");
    }

    #[test]
    fn remove_follows_a_key_that_a_split_moved_away() {
        let list = split_scenario();
        assert_eq!(list.remove(&30), Some(300), "looked in the stale leaf");
        assert_eq!(list.stats().optimistic_restarts.get(), 1);
        assert_eq!(
            list.to_vec(),
            vec![(10, 100), (20, 200), (25, 250), (40, 400)]
        );
        list.validate().expect("structure");
    }

    /// `head{10, 11} → {20, 21, 22}`, 20 of the given height: removing it
    /// folds the survivors 21 and 22 back into the head leaf.
    fn fold_scenario(height: usize) -> Arc<List> {
        let list = list();
        for key in [10u64, 11] {
            list.insert_with_height(key, key * 10, 0);
        }
        list.insert_with_height(20, 200, height);
        for key in [21u64, 22] {
            list.insert_with_height(key, key * 10, 0);
        }
        list
    }

    #[test]
    fn insert_never_lands_in_an_unlinked_leaf() {
        // The descent reaches `{20, 21, 22}`; before it is locked, 20 is
        // removed and the survivors fold left into the head leaf, which
        // unlinks their old leaf.  An update stored there would be lost.
        let list = fold_scenario(1);
        let other = Arc::clone(&list);
        interleave(0, move || {
            assert_eq!(other.remove(&20), Some(200));
            assert_eq!(other.stats().nodes_merged.get(), 1);
            assert_eq!(other.level_shape()[0], (1, 4));
        });
        assert_eq!(list.insert(21, 211), Some(210));
        assert_eq!(
            list.get(&21),
            Some(211),
            "the update went into the dead leaf"
        );
        assert_eq!(list.stats().optimistic_restarts.get(), 1);
        assert_eq!(list.level_shape()[0], (1, 4));
        list.validate().expect("structure");
    }

    #[test]
    fn header_removal_reenters_after_its_entry_node_folded_left() {
        // Level 1 is `head{10} → {20, 21, 22}`, every key the top of its
        // tower, 20 of height 2.  Removing 21 enters at level 1, in the
        // node 20 heads; before that node is locked, 20 is removed and
        // the level-1 survivors fold into the level-1 head.  The pass
        // restarts, enters at the head and removes 21 from the middle of
        // it, unlinking 21's leaf below.
        let list = list();
        list.insert_with_height(10, 100, 1);
        list.insert_with_height(20, 200, 2);
        for key in [21u64, 22] {
            list.insert_with_height(key, key * 10, 1);
        }
        assert_eq!(list.level_shape()[1], (2, 4));
        let other = Arc::clone(&list);
        interleave(1, move || {
            assert_eq!(other.remove(&20), Some(200));
            assert_eq!(other.level_shape()[1], (1, 3));
            other.validate().expect("structure after the level-1 fold");
        });
        check_header_removal(&list, 21, Some(210), 1);
        assert_eq!(list.level_shape()[..2], [(3, 2), (1, 2)]);
        assert_eq!(list.stats().nodes_merged.get(), 1);
    }

    #[test]
    fn promoted_insert_reenters_when_its_entry_node_was_split() {
        // Level 1 is `head{10, 20, 30}`.  A height-1 insert of 25 enters
        // the pass there; the interleaved height-2 insert of 15 splits
        // that node into `head{10} → {15, 20, 30}`, so the head no longer
        // covers 25 and writing it there would break the level's order.
        let list = list();
        for key in [10u64, 20, 30] {
            list.insert_with_height(key, key * 10, 1);
        }
        let other = Arc::clone(&list);
        interleave(1, move || {
            assert_eq!(other.insert_with_height(15, 150, 2), None);
        });
        assert_eq!(list.insert_with_height(25, 250, 1), None);
        list.validate().expect("structure");
        assert_eq!(list.level_shape()[1], (2, 5));
        assert_eq!(list.stats().optimistic_restarts.get(), 1);
        for key in [10u64, 15, 20, 25, 30] {
            assert_eq!(list.get(&key), Some(key * 10));
        }
    }

    #[test]
    fn exhausted_attempts_fall_back_to_the_locked_descent() {
        // An interfering write before *every* lock attempt: the writer
        // must give up validating after `OPTIMISTIC_ATTEMPTS` and still
        // finish, under hand-over-hand locks.
        let list = list();
        list.insert_with_height(1, 10, 0);
        interfere(&list, 1, super::OPTIMISTIC_ATTEMPTS);
        list.insert(2, 20);
        let stats = list.stats();
        assert_eq!(stats.write_descent_fallbacks.get(), 1);
        assert_eq!(
            stats.optimistic_restarts.get(),
            super::OPTIMISTIC_ATTEMPTS as u64
        );
        assert_eq!(list.get(&2), Some(20));
        list.validate().expect("structure");
        assert_unlocked(&list);
    }

    #[test]
    fn a_contended_get_falls_back_to_the_locked_descent() {
        // The leaf moves under every optimistic copy-out, so the read
        // gives up validating and copies the value out under the leaf's
        // read lock.
        let list = list();
        list.insert_with_height(1, 10, 0);
        interfere(&list, 1, super::OPTIMISTIC_ATTEMPTS);
        assert_eq!(list.get(&1), Some(1), "the last overwrite");
        let stats = list.stats();
        assert_eq!(
            stats.optimistic_restarts.get(),
            super::OPTIMISTIC_ATTEMPTS as u64
        );
        assert_eq!(stats.locked_fallbacks.get(), 1);
        assert_eq!(stats.optimistic_reads.get(), 0);
        assert_unlocked(&list);
    }

    /// No node of the list is locked in either mode (at quiescence).
    pub(in crate::list) fn assert_unlocked<const B: usize>(list: &BSkipList<u64, u64, B>) {
        let pin = list.pin();
        for level in 0..list.max_height() {
            let mut node = Some(pin.head(level));
            while let Some(curr) = node {
                assert!(!curr.lock.is_locked(), "a level-{level} node is locked");
                node = curr.next();
            }
        }
    }

    /// `head{10, 11, 12, 13} → {20, 21, 22}`, the second leaf headed by a
    /// key of the given height (`>= 1`) with two survivors behind it, so
    /// that removing it folds nothing (the head leaf is full).
    fn header_scenario(height: usize) -> Arc<List> {
        let list = list();
        for key in [10u64, 11, 12, 13] {
            list.insert_with_height(key, key * 10, 0);
        }
        list.insert_with_height(20, 200, height);
        for key in [21u64, 22] {
            list.insert_with_height(key, key * 10, 0);
        }
        list
    }

    /// Removes `key` — the interleaved operation runs inside — and checks
    /// the answer, that the key is gone, the structure, that no lock
    /// leaked, and how many descents had to be repeated.
    fn check_header_removal(list: &List, key: u64, removed: Option<u64>, restarts: u64) {
        assert_eq!(list.remove(&key), removed);
        assert_eq!(list.get(&key), None);
        list.validate().expect("structure");
        assert_unlocked(list);
        let stats = list.stats();
        assert_eq!(stats.optimistic_restarts.get(), restarts);
        assert_eq!(stats.write_descent_fallbacks.get(), 0);
        assert_eq!(stats.top_level_write_locks.get(), 0);
    }

    #[test]
    fn header_removal_follows_a_key_reinserted_taller() {
        // The level-1 probe reaches `head{20}`, the top of 20's tower.
        // Before it is locked 20 is removed and comes back with height 2:
        // the pass must enter at level 2, not at the stale level 1 —
        // which would leave 20 behind on level 2, above nothing.
        let list = header_scenario(1);
        let other = Arc::clone(&list);
        interleave(1, move || {
            assert_eq!(other.remove(&20), Some(200));
            assert_eq!(other.insert_with_height(20, 201, 2), None);
        });
        check_header_removal(&list, 20, Some(201), 1);
        assert_eq!(list.level_shape()[2], (1, 0));
    }

    #[test]
    fn header_removal_follows_a_key_reinserted_shorter() {
        // Level 1 says "20 heads its node, look higher"; before the
        // level-2 node is locked 20 comes back with height 1, and the
        // level-2 head no longer holds it.
        let list = header_scenario(2);
        let other = Arc::clone(&list);
        interleave(2, move || {
            assert_eq!(other.remove(&20), Some(200));
            assert_eq!(other.insert_with_height(20, 201, 1), None);
        });
        check_header_removal(&list, 20, Some(201), 1);
        assert_eq!(list.level_shape()[1], (1, 0));
    }

    #[test]
    fn header_removal_finds_a_key_that_stopped_being_a_header() {
        // `head{10, 11} → {12, 13, 14}`: 12 heads its leaf with height 0
        // (an overflow split), so the pass enters at level 1, where 12 is
        // absent.  Meanwhile 12 is removed — 13 and 14 fold into the head
        // leaf — and re-inserted, overflow-splitting the head leaf again.
        // The level-1 head is as empty as before (the interleaved pass
        // only locked it, which costs this one a repeated descent); the
        // pass makes no assumption about where the key is and finds it.
        let list = list();
        for key in [10u64, 11, 12, 13, 14] {
            list.insert_with_height(key, key * 10, 0);
        }
        assert_eq!(list.level_shape()[0], (2, 5));
        let other = Arc::clone(&list);
        interleave(1, move || {
            assert_eq!(other.remove(&12), Some(120));
            assert_eq!(other.insert_with_height(12, 121, 0), None);
        });
        check_header_removal(&list, 12, Some(121), 1);
    }

    #[test]
    fn header_removal_reenters_when_its_entry_node_was_split() {
        // Level 1 is `head{20, 30, 40, 50}`, the top of 30's tower.  The
        // interleaved height-2 insert of 25 splits that node into
        // `head{20} → {25, 30, 40, 50}`: the head no longer covers 30.
        let list = list();
        for key in [20u64, 30, 40, 50] {
            list.insert_with_height(key, key * 10, 1);
            list.insert_with_height(key + 1, key * 10 + 10, 0);
        }
        let other = Arc::clone(&list);
        interleave(1, move || {
            assert_eq!(other.insert_with_height(25, 250, 2), None);
            assert_eq!(other.level_shape()[1], (2, 5));
        });
        check_header_removal(&list, 30, Some(300), 1);
        assert_eq!(list.level_shape()[1], (2, 4));
        assert_eq!(list.len(), 8);
    }

    #[test]
    fn header_removal_misses_a_key_whose_leaf_was_unlinked() {
        // `head{10, 11} → {12, 13} → {14, 15, 16}`, all of height 0.  The
        // interleaved removal of 12 folds the survivor 13 into the head
        // leaf and unlinks its own — and changes no level-1 node, so the
        // pass is entered all the same and has to come back empty.
        let list = list();
        for key in 10u64..=17 {
            list.insert_with_height(key, key * 10, 0);
        }
        assert_eq!(list.remove(&17), Some(170));
        assert_eq!(list.level_shape()[0], (3, 7));
        let other = Arc::clone(&list);
        interleave(1, move || {
            assert_eq!(other.remove(&12), Some(120));
            assert_eq!(other.stats().nodes_merged.get(), 1);
            assert_eq!(other.level_shape()[0], (2, 6));
        });
        check_header_removal(&list, 12, None, 1);
        assert_eq!(list.len(), 6);
    }

    #[test]
    fn a_batch_write_follows_a_key_that_a_split_moved_away() {
        // Leaves `head{50}`, `{100, 110}`, `{200, 210, 220, 230}` (full),
        // `{300, 310}`, `{400, 410}`.  The update's descent reaches the
        // full leaf; the insert of 240 splits it into
        // `{200, 210} → {220, 230, 240}` before it is locked.  An update
        // stored in the stale leaf would report a fresh key and leave a
        // second 220 behind.
        let list = list();
        list.insert_with_height(50, 50, 0);
        for key in [100u64, 200, 300, 400] {
            list.insert_with_height(key, key, 1);
            list.insert_with_height(key + 10, key + 10, 0);
        }
        for key in [220u64, 230] {
            list.insert_with_height(key, key, 0);
        }
        // The leading get's pass meets the hook first; it re-arms it for
        // the update's.
        let other = Arc::clone(&list);
        interleave(0, move || {
            interleave(0, move || {
                assert_eq!(other.insert_with_height(240, 240, 0), None);
            });
        });
        let mut batch = vec![Op::get(110), Op::insert(220, 221), Op::get(230)];
        list.execute(&mut batch);
        assert_eq!(*batch[0].result(), OpResult::Value(110));
        assert_eq!(*batch[1].result(), OpResult::Value(220));
        assert_eq!(*batch[2].result(), OpResult::Value(230));
        assert_eq!(list.get(&220), Some(221));
        assert_eq!(list.len(), 12);
        assert_eq!(list.stats().optimistic_restarts.get(), 1);
        list.validate().expect("structure");
    }
}
