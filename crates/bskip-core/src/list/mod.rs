//! The concurrent B-skiplist.
//!
//! This module implements the data structure proposed by the paper: a
//! blocked skiplist with fixed-size nodes whose operations traverse the
//! structure exactly once, left-to-right within a level and top-to-bottom
//! across levels, acquiring reader/writer locks hand-over-hand.
//!
//! * Point queries ([`BSkipList::get`], and [`BSkipList::contains_key`]
//!   through it) use **optimistic lock coupling**: they acquire *no* locks
//!   at all on the conflict-free path, reading node versions instead and
//!   validating `version-read → node-read → version-recheck` at every step
//!   (see the protocol notes below).  After [`OPTIMISTIC_ATTEMPTS`] failed
//!   validations they fall back to the paper's hand-over-hand read-locked
//!   descent.
//! * Range queries ([`BSkipList::range`], cursors) take their per-leaf
//!   snapshots under read locks (Section 4, "concurrent finds and range
//!   queries"); the descent that positions a scan is optimistic.
//! * Inserts ([`BSkipList::insert`]) go **leaf first, height second**: an
//!   optimistic descent reaches the covering leaf, which is the first and
//!   usually the only node locked.  A present key has its value replaced
//!   and nothing else happens — no height is drawn, no node allocated, the
//!   structure is untouched.  Only an absent key draws its promotion
//!   height `h`; with `h = 0` (63 of 64 inserts at the paper's `p = 1/64`)
//!   it is finished under the leaf lock already held, otherwise the `h`
//!   new nodes are pre-allocated (and pre-locked) and the paper's single
//!   top-down pass runs from level `h` down with write locks — and with
//!   nothing locked above `h` at all (Section 3 and Algorithm 1).
//! * Removals ([`BSkipList::remove`]) enter the same way: a key that is
//!   absent, sits at slot `> 0` of its leaf or lives in the head leaf has
//!   height 0 and is removed under the leaf lock.  Only the header key of
//!   a non-head leaf — which may own a tower and whose removal may unlink
//!   nodes — takes the symmetric top-down pass with write locks, from the
//!   top of *its* tower down and with nothing locked above that, folding
//!   the survivors of every node it removes the header of back into the
//!   left neighbour where they fit — the inverse of the split.
//! * Batches ([`BSkipList::execute`]) are those point operations, in slot
//!   order, under one epoch pin.
//!
//! The lock order — left-to-right within a level, then top-to-bottom across
//! levels — is total, so the scheme is deadlock-free (Appendix B); a writer
//! that enters at level `h`, inserting or removing, simply starts further
//! down that order.
//!
//! **Two ways down.**  Only `try_descend_optimistic_to`, and
//! `descend_locked` behind it when validation keeps failing, walk down
//! from the top-level head; `optimistically` (`leaf.rs`) is the one retry
//! loop around the first, for every point read, every write and every
//! cursor positioning.  Every descent looks for the same thing: the node
//! holding the greatest key `<=` the one given.
//!
//! # The optimistic read protocol
//!
//! Every node's [`bskip_sync::RawRwSpinLock`] carries a version counter
//! that is bumped once per exclusive acquire/release cycle.  An optimistic
//! traversal never modifies the lock word; at each node it
//!
//! 1. reads the version (restarting if a writer holds the node),
//! 2. reads whatever it needs from the node through the node's accessors
//!    (`len`, `next`, `search`, `value_at`: relaxed-atomic loads, possibly
//!    observing torn or stale values — the same accessors a lock holder
//!    uses, exact only under the lock),
//! 3. re-checks the version before *acting* on what it read: before
//!    descending through a child pointer (the classic OLC/Masstree
//!    hand-over-hand: read child pointer from the parent, capture the
//!    child's version, then validate the parent), before advancing to a
//!    right neighbour, and before returning a value.
//!
//! If any validation fails — the version changed or a writer was active —
//! the whole descent restarts from the top-level head with exponential
//! backoff.  Conflicts are per-node and writers hold locks for O(B) work,
//! so restarts are rare and bounded retry suffices; the locked descent
//! remains as a strict fallback so a read can never livelock.
//!
//! ## Why racing structure changes is safe
//!
//! The traversal holds an epoch pin ([`bskip_sync::EbrGuard`]) from before
//! its first unvalidated pointer read until after its last: a concurrent
//! remove may *unlink* any node the reader stands on, but unlinked nodes
//! are retired to the collector and survive (readable, lock word intact)
//! through the grace period, so every pointer the reader follows —
//! including one loaded from a torn slot of a node that validation is
//! about to reject — stays dereferenceable.  Structure changes themselves
//! cannot go unnoticed: splits, merges, unlinks and in-place updates all
//! run under the affected nodes' exclusive locks, so they bump the
//! version of every node they touch, and the reader's step-3 validation
//! rejects any traversal step that overlapped one.  A node that validates
//! was therefore — at the validation instant — the genuine, reachable
//! node for the reader's key, which is the linearization argument.
//!
//! # The write path
//!
//! The paper's rule is that an insert with promotion height `h` *modifies*
//! only levels `<= h`.  The point writers therefore replace the locked
//! prefix of the top-down pass by the validation the readers use: descend
//! optimistically to the node covering the key at the entry level (the
//! leaf first; level `h` for a promoted insert), then acquire that node
//! with [`bskip_sync::RawRwSpinLock::lock_exclusive_at`], which succeeds
//! only if the node's version is still the one the descent validated
//! (`leaf.rs`, `lock_covering`).
//!
//! Why an unchanged version is sufficient — the same argument the
//! cursor's snapshot positioning makes under a shared lock: the descent
//! validated that the node was the reachable, covering node for the key
//! when its version was captured.  A node's content, its `next` pointer
//! and the lower end of its covering range
//! change only under its own exclusive lock (splits of it, folds into
//! it, its own unlink), and its range's upper end — its successor's
//! header — can only *grow* without it (a successor is only ever headed
//! by a smaller key through a split of this node).
//! Each of those bumps the version.  An unchanged version under the
//! exclusive hold therefore means the node still covers the key and is
//! still linked, so what the writer finds there — the key or its absence —
//! is the truth about the whole list, and the write-locked pass may start
//! from it exactly as if it had lock-coupled its way down.
//!
//! After [`OPTIMISTIC_ATTEMPTS`] failed validations the descent takes
//! hand-over-hand shared locks instead (`descend_locked`), the only place
//! a write — insert or removal, alone or in a batch — ever read-locks a
//! node above the one it changes, so a writer cannot livelock.

pub(crate) mod cursor;
mod execute;
mod insert;
mod leaf;
mod remove;
mod validate;

use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};
use std::ptr;

use bskip_index::cursor::clone_bound;
use bskip_index::{ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue, Op, StatKind};
use bskip_sync::{EbrCollector, EbrGuard, EbrStats, StripedCounter};

use self::cursor::LeafCursor;

use crate::config::BSkipConfig;
use crate::height::sample_height;
use crate::node::{prefetch_node, Node, NodeSearch};
use crate::stats::BSkipStats;

/// Bound on optimistic descent attempts before a read falls back to the
/// hand-over-hand locked descent.  Restarts are caused by a writer
/// overlapping one specific node of the traversal, so a handful of retries
/// (with [`Backoff`]) absorbs transient conflicts; the fallback only
/// triggers under sustained write pressure on the reader's path.
pub(crate) const OPTIMISTIC_ATTEMPTS: usize = 8;

/// Marker error: an optimistic traversal step failed version validation
/// and the whole descent must restart from the top-level head.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Restart;

/// Lock mode used during a traversal step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Shared (reader) mode.
    Read,
    /// Exclusive (writer) mode.
    Write,
}

/// Locks `node` in the given mode.
///
/// # Safety
///
/// `node` must point to a live node.
#[inline]
pub(crate) unsafe fn lock_node<K, V, const B: usize>(node: *mut Node<K, V, B>, mode: Mode)
where
    K: Copy + Ord,
    V: Copy,
{
    match mode {
        Mode::Read => (*node).lock.lock_shared(),
        Mode::Write => (*node).lock.lock_exclusive(),
    }
}

/// Unlocks `node` from the given mode.
///
/// # Safety
///
/// `node` must point to a live node currently locked in `mode` by this
/// thread.
#[inline]
pub(crate) unsafe fn unlock_node<K, V, const B: usize>(node: *mut Node<K, V, B>, mode: Mode)
where
    K: Copy + Ord,
    V: Copy,
{
    match mode {
        Mode::Read => (*node).lock.unlock_shared(),
        Mode::Write => (*node).lock.unlock_exclusive(),
    }
}

/// A concurrent, locality-optimized B-skiplist.
///
/// `B` is the number of key slots per node (the paper's "node size"; with
/// 8-byte keys and values, `B = 128` corresponds to the paper's 2048-byte
/// nodes).  See [`BSkipConfig`] for the runtime knobs.
///
/// # Example
///
/// ```
/// use bskip_core::BSkipList;
///
/// let list: BSkipList<u64, u64> = BSkipList::new();
/// list.insert(7, 70);
/// list.insert(3, 30);
/// assert_eq!(list.get(&7), Some(70));
/// let pairs: Vec<(u64, u64)> = list.scan(0..10).collect();
/// assert_eq!(pairs, vec![(3, 30), (7, 70)]);
/// ```
///
/// All operations take `&self` and may be called concurrently from any
/// number of threads (e.g. through an `Arc<BSkipList<_, _>>` or a scoped
/// thread borrow).
pub struct BSkipList<K, V, const B: usize = 128>
where
    K: IndexKey,
    V: IndexValue,
{
    /// Left sentinel ("head") node of every level; `heads[0]` is the leaf
    /// level, `heads[max_height - 1]` the top.
    heads: Box<[*mut Node<K, V, B>]>,
    /// Number of levels.
    max_height: usize,
    /// Promotion denominator: a key is promoted one further level with
    /// probability `1 / denominator`.
    denominator: u32,
    /// Copy of the construction-time configuration.
    config: BSkipConfig,
    /// Number of keys stored, counted per thread so that writers share
    /// no line for it.
    len: StripedCounter,
    /// Structural statistics (only updated when `config.collect_stats`).
    stats: BSkipStats,
    /// Epoch-based collector that reclaims nodes unlinked by `remove` (and
    /// by duplicate-key splices during `insert`) once no traversal can
    /// still reach them.  See the crate documentation for the reclamation
    /// discussion.
    collector: EbrCollector,
    /// Nodes ever linked into the structure (splits, promotions); together
    /// with the head spine and the collector's retired count this yields
    /// the live structural node count ([`BSkipList::live_nodes`]).
    nodes_linked: StripedCounter,
    _marker: PhantomData<(K, V)>,
}

// SAFETY: the list owns every node its raw pointers reach, and a node
// holds only keys and values, which `IndexKey` / `IndexValue` require to
// be `Send`; moving the list moves that ownership whole.
unsafe impl<K: IndexKey, V: IndexValue, const B: usize> Send for BSkipList<K, V, B> {}
// SAFETY: through `&self` the raw node pointers are only dereferenced
// under the per-node reader/writer locks, or read through the relaxed
// atomic accessors and validated against the node's version, and an
// unlinked node is freed only by the epoch collector once no thread can
// reach it; keys and values are `Sync` by the same trait bounds.
unsafe impl<K: IndexKey, V: IndexValue, const B: usize> Sync for BSkipList<K, V, B> {}

impl<K: IndexKey, V: IndexValue, const B: usize> Default for BSkipList<K, V, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue, const B: usize> BSkipList<K, V, B> {
    /// Creates an empty B-skiplist with the default configuration.
    pub fn new() -> Self {
        Self::with_config(BSkipConfig::default())
    }

    /// Creates an empty B-skiplist with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`BSkipConfig::validate`])
    /// or if `B < 2`.
    pub fn with_config(config: BSkipConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|err| panic!("invalid BSkipConfig: {err}"));
        assert!(B >= 2, "node capacity B must be at least 2");
        let max_height = config.max_height;
        // Build the spine of head (left-sentinel) nodes, one per level,
        // linked downward through their implicit -infinity entry.
        let mut heads = Vec::with_capacity(max_height);
        heads.push(Node::<K, V, B>::alloc_leaf(true));
        for level in 1..max_height {
            let head = Node::<K, V, B>::alloc_internal(level as u8, true);
            // SAFETY: the node was just allocated and is not yet shared.
            unsafe { (*head).set_head_child(heads[level - 1]) };
            heads.push(head);
        }
        BSkipList {
            heads: heads.into_boxed_slice(),
            max_height,
            denominator: config.promotion_denominator(B),
            config,
            len: StripedCounter::new(),
            stats: BSkipStats::new(),
            collector: EbrCollector::new(),
            nodes_linked: StripedCounter::new(),
            _marker: PhantomData,
        }
    }

    /// The configuration this list was created with.
    pub fn config(&self) -> &BSkipConfig {
        &self.config
    }

    /// Number of key slots per node (the const generic `B`).
    pub const fn node_capacity(&self) -> usize {
        B
    }

    /// The promotion denominator in effect (`≈ c·B`).
    pub fn promotion_denominator(&self) -> u32 {
        self.denominator
    }

    /// Number of levels (including the leaf level).
    pub fn max_height(&self) -> usize {
        self.max_height
    }

    /// Number of keys currently stored: exact once writers are quiescent,
    /// approximate while they run.
    pub fn len(&self) -> usize {
        self.len.sum().max(0) as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics (all zeros unless the list was configured with
    /// `collect_stats = true`).
    pub fn stats(&self) -> &BSkipStats {
        &self.stats
    }

    /// Returns the statistics block only when collection is enabled; used
    /// internally to keep the disabled path to a single branch.
    #[inline]
    pub(crate) fn stats_enabled(&self) -> Option<&BSkipStats> {
        if self.config.collect_stats {
            Some(&self.stats)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn head(&self, level: usize) -> *mut Node<K, V, B> {
        self.heads[level]
    }

    #[inline]
    pub(crate) fn top_level(&self) -> usize {
        self.max_height - 1
    }

    #[inline]
    pub(crate) fn bump_len(&self) {
        self.len.add(1);
    }

    #[inline]
    pub(crate) fn drop_len(&self) {
        self.len.add(-1);
    }

    /// The list's epoch-based collector; traversals pin it and unlinked
    /// nodes are retired to it.
    #[inline]
    pub(crate) fn collector(&self) -> &EbrCollector {
        &self.collector
    }

    /// Retires an unlinked node to the collector; its memory is freed once
    /// every traversal that could still reach it has finished.
    ///
    /// The caller must have physically unlinked `node` (no head-reachable
    /// pointer leads to it) while holding the write locks the unlink
    /// protocol requires, and must retire each node exactly once.
    pub(crate) fn defer_free(&self, guard: &EbrGuard<'_>, node: *mut Node<K, V, B>) {
        // SAFETY: per the contract above, `node` is unreachable for new
        // traversals and retired once; nodes are allocated by
        // `Box::into_raw` in `Node::alloc_*` and their keys/values are
        // `Copy` + `Send`, so the deferred drop may run on any thread.
        unsafe { guard.retire_box(node) };
    }

    /// Records that `count` freshly allocated nodes were linked into the
    /// structure (called from the insert pass; never for pre-allocations
    /// that were discarded unlinked).
    #[inline]
    pub(crate) fn note_nodes_linked(&self, count: usize) {
        if count > 0 {
            self.nodes_linked.add(count as i64);
        }
    }

    /// Live structural node count: the head spine plus every node linked
    /// in, minus every node unlinked and retired.  Under delete churn this
    /// is the quantity that must *not* grow monotonically.
    pub fn live_nodes(&self) -> u64 {
        // Saturating: with relaxed counters a racing link/retire pair may
        // transiently be observed in either order.
        (self.max_height as u64 + self.nodes_linked.sum() as u64)
            .saturating_sub(self.collector.stats().retired)
    }

    /// Epoch-reclamation counters: how many unlinked nodes were retired,
    /// how many have been freed, and the current backlog.
    pub fn reclamation(&self) -> EbrStats {
        self.collector.stats()
    }

    /// Attempts one epoch advancement, freeing the garbage that has aged
    /// out of its grace period; returns the number of nodes freed.
    ///
    /// Reclamation is already amortized into the mutation paths; this
    /// entry point lets maintenance code (e.g. a memtable flush) drain the
    /// backlog at a known-quiescent moment.
    pub fn try_reclaim(&self) -> usize {
        self.collector.try_collect()
    }

    /// Samples a promotion height for a new insertion.
    #[inline]
    pub(crate) fn sample_height(&self) -> usize {
        sample_height(self.denominator, self.max_height)
    }

    /// Point lookup (the paper's `find(k)`): a copy of the value stored
    /// under `key`, or `None` when the key is absent.
    ///
    /// The common case takes no lock: the optimistic descent reaches the
    /// covering leaf, the value is copied out of it with relaxed-atomic
    /// loads, and the copy counts only if the leaf's version still
    /// validates.  Copying is the right trade-off because index values
    /// are small `Copy` payloads: a copy costs a few relaxed loads, while
    /// even a read lock would put every reader back on the lock word's
    /// cache line (the cursor keeps the locked path for its multi-entry
    /// snapshots, where one lock amortizes over a whole node).  Only after
    /// 8 failed validations does the read lock hand-over-hand, holding at
    /// most two locks at a time, and copy the value out under the leaf's
    /// read lock.
    ///
    /// The epoch collector stays pinned for the whole call — including
    /// every optimistic attempt — which is what makes chasing possibly
    /// stale pointers safe (see the module-level protocol notes).
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = self.collector.pin();
        // SAFETY: `guard` pins this list's collector.
        unsafe { self.get_pinned(key, &guard) }
    }

    /// [`BSkipList::get`] under the caller's epoch pin.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's collector.
    unsafe fn get_pinned(&self, key: &K, _guard: &EbrGuard<'_>) -> Option<V> {
        if let Some(stats) = self.stats_enabled() {
            stats.finds.incr();
        }
        let lookup = |leaf: *mut Node<K, V, B>| match (*leaf).search(key) {
            NodeSearch::Found(slot) => Some((*leaf).value_at(slot)),
            _ => None,
        };
        // The copy-out is only real if no writer overlapped the search and
        // the copy: one final validation covers both.
        let read = self.optimistically(key, 0, |leaf, version| {
            let found = lookup(leaf);
            (*leaf).lock.validate_version(version).then_some(found)
        });
        if let Some(found) = read {
            if let Some(stats) = self.stats_enabled() {
                stats.optimistic_reads.incr();
            }
            return found;
        }
        if let Some(stats) = self.stats_enabled() {
            stats.locked_fallbacks.incr();
        }
        let leaf = self.descend_locked(key, 0, Mode::Read);
        let found = lookup(leaf);
        unlock_node(leaf, Mode::Read);
        found
    }

    /// Optimistic lock-coupled descent to the node whose range covers
    /// `key` at `stop_level`: the one holding the greatest key `<=` it.
    /// On success the returned node was — at the moment its parent
    /// validated — the reachable node for the key, and the returned
    /// version is the one the caller must re-validate after reading from
    /// it (or after locking it: `lock_covering`).
    ///
    /// Every internal step follows the OLC discipline (see the module
    /// docs): capture the child's or successor's version *before*
    /// validating the node the pointer was read from, so there is no
    /// window in which the traversal stands on unverified ground.
    ///
    /// # Safety
    ///
    /// The caller must hold an epoch pin across the call *and* across any
    /// subsequent use of the returned pointer; `stop_level <= top_level()`.
    unsafe fn try_descend_optimistic_to(
        &self,
        key: &K,
        stop_level: usize,
    ) -> Result<(*mut Node<K, V, B>, u64), Restart> {
        let mut level = self.top_level();
        let mut curr = self.head(level);
        let mut version = (*curr).lock.optimistic_version().ok_or(Restart)?;
        loop {
            // Walk right while the successor's header is `<=` the key.
            loop {
                let next = (*curr).next();
                if next.is_null() {
                    break;
                }
                prefetch_node(next);
                let next_version = (*next).lock.optimistic_version().ok_or(Restart)?;
                if (*next).is_empty() {
                    // A linked node is never left empty (removal empties
                    // and unlinks under one exclusive hold), so this is a
                    // stale/torn read; restart rather than guess.
                    return Err(Restart);
                }
                let covers = (*next).header() <= *key;
                // The `next` pointer and the successor's header were read
                // without locks: re-validate the node they were read from
                // before acting on them.
                if !(*curr).lock.validate_version(version) {
                    return Err(Restart);
                }
                if covers {
                    curr = next;
                    version = next_version;
                    if let Some(stats) = self.stats_enabled() {
                        stats.horizontal_steps.incr();
                    }
                } else {
                    // Not advancing: the header that justified stopping
                    // must itself be genuine.
                    if !(*next).lock.validate_version(next_version) {
                        return Err(Restart);
                    }
                    break;
                }
            }
            if level == stop_level {
                return Ok((curr, version));
            }
            let child = match (*curr).search(key) {
                NodeSearch::Found(idx) | NodeSearch::Pred(idx) => (*curr).child_at(idx),
                NodeSearch::Before => {
                    if !(*curr).is_head() {
                        // A non-head node whose header is above the key
                        // is a torn read (the locked walk can never stand
                        // here); restart.
                        return Err(Restart);
                    }
                    (*curr).head_child()
                }
            };
            if child.is_null() {
                return Err(Restart);
            }
            prefetch_node(child);
            let child_version = (*child).lock.optimistic_version().ok_or(Restart)?;
            // Classic OLC hand-over-hand: the child pointer is only
            // trustworthy if the parent did not change since we started
            // reading it — validate the parent *after* capturing the
            // child's version, *before* descending.
            if !(*curr).lock.validate_version(version) {
                return Err(Restart);
            }
            curr = child;
            version = child_version;
            level -= 1;
            if let Some(stats) = self.stats_enabled() {
                stats.levels_visited.incr();
            }
        }
    }

    /// Hand-over-hand locked descent to the node covering `key` at
    /// `stop_level`: the contention fallback behind every optimistic
    /// descent — point reads and cursor positioning (`stop_level` 0,
    /// `Mode::Read`) and the writers' entry (`Mode::Write` at the level
    /// they start modifying).  Levels above
    /// `stop_level` are read-locked; the returned node is locked in
    /// `mode`.
    ///
    /// # Safety
    ///
    /// The caller must release the returned node's lock;
    /// `stop_level <= top_level()`.
    pub(crate) unsafe fn descend_locked(
        &self,
        key: &K,
        stop_level: usize,
        mode: Mode,
    ) -> *mut Node<K, V, B> {
        let mode_at = |level: usize| {
            if level == stop_level {
                mode
            } else {
                Mode::Read
            }
        };
        let mut level = self.top_level();
        let mut curr = self.head(level);
        lock_node(curr, mode_at(level));
        loop {
            curr = self.walk_right(curr, key, mode_at(level));
            if level == stop_level {
                return curr;
            }
            let child = self.descend_pointer(curr, key);
            lock_node(child, mode_at(level - 1));
            unlock_node(curr, Mode::Read);
            curr = child;
            level -= 1;
            if let Some(stats) = self.stats_enabled() {
                stats.levels_visited.incr();
            }
        }
    }

    /// Whether `key` is present: [`BSkipList::get`] with the value dropped.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Opens a forward [`Cursor`] over the entries whose keys lie in
    /// `range` — the primary scan API.
    ///
    /// The cursor descends once to the range's lower bound, then walks the
    /// leaf level, snapshotting one read-locked node's slots at a time into
    /// a batch buffer, so lock hold time stays bounded by one node and the
    /// scan streams whole cache-resident nodes (Section 4 of the paper).
    /// See [`bskip_index::cursor`] for the consistency contract under
    /// concurrent mutation.
    ///
    /// ```
    /// use bskip_core::BSkipList;
    ///
    /// let list: BSkipList<u64, u64> = (0..10u64).map(|k| (k, k * 2)).collect();
    /// let window: Vec<(u64, u64)> = list.scan(3..6).collect();
    /// assert_eq!(window, vec![(3, 6), (4, 8), (5, 10)]);
    ///
    /// let mut cursor = list.scan(7..);
    /// assert_eq!(cursor.next(), Some((7, 14)));
    /// assert_eq!(cursor.next(), Some((8, 16)));
    /// ```
    pub fn scan<R: RangeBounds<K>>(&self, range: R) -> Cursor<'_, K, V> {
        self.scan_bounds(
            clone_bound(range.start_bound()),
            clone_bound(range.end_bound()),
        )
    }

    /// Opens a [`Cursor`] over an explicit pair of bounds (the object-safe
    /// form of [`BSkipList::scan`]).
    pub fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        if let Some(stats) = self.stats_enabled() {
            stats.ranges.incr();
        }
        Cursor::new(LeafCursor::new(self, lo, hi, true))
    }

    /// Iterates over every entry in ascending key order.
    ///
    /// Full iterations are not counted in the `ranges` statistic — only
    /// genuine range queries ([`BSkipList::scan`] / `scan_bounds`) feed
    /// the paper's "leaf nodes per range query" ratio.
    ///
    /// ```
    /// use bskip_core::BSkipList;
    ///
    /// let list: BSkipList<u64, u64> = [(2u64, 20u64), (1, 10)].into_iter().collect();
    /// assert_eq!(list.iter().collect::<Vec<_>>(), vec![(1, 10), (2, 20)]);
    /// ```
    pub fn iter(&self) -> Cursor<'_, K, V> {
        Cursor::new(LeafCursor::new(
            self,
            Bound::Unbounded,
            Bound::Unbounded,
            false,
        ))
    }

    /// Collects the whole contents into a sorted `Vec` (convenience wrapper
    /// around [`BSkipList::iter`]).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.  An overwrite replaces the value in place and
    /// changes nothing else; only a key that turns out to be absent draws
    /// a promotion height from the configured geometric distribution.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.insert_impl(key, value, None)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        // One pin for the whole operation: the descent needs epoch
        // protection (like any read path), and every node the pass unlinks
        // is retired under this guard.
        let guard = self.collector.pin();
        // SAFETY: `guard` pins this list's collector; no lock is held.
        unsafe { self.remove_pinned(key, &guard) }
    }

    /// Moves right along a level while the successor's header is `<=`
    /// `key`, maintaining HOH locks in `mode`.  Returns the final node,
    /// locked in `mode`.
    ///
    /// # Safety
    ///
    /// `curr` must be locked in `mode` by this thread.
    unsafe fn walk_right(
        &self,
        mut curr: *mut Node<K, V, B>,
        key: &K,
        mode: Mode,
    ) -> *mut Node<K, V, B> {
        loop {
            let next = (*curr).next();
            if next.is_null() {
                return curr;
            }
            prefetch_node(next);
            lock_node(next, mode);
            if (*next).header() <= *key {
                unlock_node(curr, mode);
                curr = next;
                if let Some(stats) = self.stats_enabled() {
                    stats.horizontal_steps.incr();
                }
            } else {
                unlock_node(next, mode);
                return curr;
            }
        }
    }

    /// The write-locked passes' walk along one level: moves right while
    /// the successor's header is `<=` `key`, keeping the node before the
    /// current one locked too, so that a node the pass empties can be
    /// unlinked from its predecessor at once.  Returns `(prev, curr)`, both
    /// write-locked, `prev` null if the walk did not move.
    ///
    /// # Safety
    ///
    /// `curr` must be write-locked by this thread.
    unsafe fn walk_right_keeping_prev(
        &self,
        mut curr: *mut Node<K, V, B>,
        key: &K,
    ) -> (*mut Node<K, V, B>, *mut Node<K, V, B>) {
        let mut prev = ptr::null_mut();
        loop {
            let next = (*curr).next();
            if next.is_null() {
                return (prev, curr);
            }
            prefetch_node(next);
            lock_node(next, Mode::Write);
            if (*next).header() > *key {
                unlock_node(next, Mode::Write);
                return (prev, curr);
            }
            if !prev.is_null() {
                unlock_node(prev, Mode::Write);
            }
            prev = curr;
            curr = next;
            if let Some(stats) = self.stats_enabled() {
                stats.horizontal_steps.incr();
            }
        }
    }

    /// Returns the child pointer to follow when descending from `curr` for
    /// `key`: the down pointer of the greatest key `<=` it, or the head
    /// child when there is none.
    ///
    /// # Safety
    ///
    /// `curr` must be locked by this thread and must be an internal node.
    pub(crate) unsafe fn descend_pointer(
        &self,
        curr: *mut Node<K, V, B>,
        key: &K,
    ) -> *mut Node<K, V, B> {
        let child = match (*curr).search(key) {
            NodeSearch::Found(idx) | NodeSearch::Pred(idx) => (*curr).child_at(idx),
            NodeSearch::Before => {
                debug_assert!(
                    (*curr).is_head(),
                    "descended into a non-head node whose header is above the key"
                );
                (*curr).head_child()
            }
        };
        // Start pulling the child's first line in while the caller is
        // still busy on this level (stat bumps, unlocking `curr`).
        prefetch_node(child);
        child
    }
}

impl<K: IndexKey, V: IndexValue, const B: usize> Drop for BSkipList<K, V, B> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees no concurrent accessors; every node
        // reachable from a head belongs to this list and is freed exactly
        // once.  Retired nodes were unlinked (and are therefore not
        // reachable from any head); the collector's own `Drop` drains them
        // right after this body runs.
        unsafe {
            for &head in self.heads.iter() {
                let mut node = head;
                while !node.is_null() {
                    let next = (*node).next();
                    Node::free(node);
                    node = next;
                }
            }
        }
    }
}

impl<K: IndexKey, V: IndexValue, const B: usize> ConcurrentIndex<K, V> for BSkipList<K, V, B> {
    fn insert(&self, key: K, value: V) -> Option<V> {
        BSkipList::insert(self, key, value)
    }

    fn get(&self, key: &K) -> Option<V> {
        BSkipList::get(self, key)
    }

    fn contains_key(&self, key: &K) -> bool {
        BSkipList::contains_key(self, key)
    }

    fn execute(&self, ops: &mut [Op<K, V>]) {
        BSkipList::execute(self, ops)
    }

    fn remove(&self, key: &K) -> Option<V> {
        BSkipList::remove(self, key)
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        BSkipList::scan_bounds(self, lo, hi)
    }

    fn try_reclaim(&self) -> usize {
        BSkipList::try_reclaim(self)
    }

    fn len(&self) -> usize {
        BSkipList::len(self)
    }

    fn name(&self) -> &'static str {
        "B-skiplist"
    }

    fn stats(&self) -> IndexStats {
        self.stats
            .snapshot()
            .with_kind("live_nodes", StatKind::Gauge, self.live_nodes())
            .with_reclamation(self.collector.stats())
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// Builds a B-skiplist from an iterator of entries (later duplicates of a
/// key overwrite earlier ones, as with [`BSkipList::insert`]).
///
/// ```
/// use bskip_core::BSkipList;
///
/// let list: BSkipList<u64, u64> = vec![(3u64, 30u64), (1, 10), (3, 31)].into_iter().collect();
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.get(&3), Some(31));
/// ```
impl<K: IndexKey, V: IndexValue, const B: usize> FromIterator<(K, V)> for BSkipList<K, V, B> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let list = BSkipList::new();
        for (key, value) in iter {
            list.insert(key, value);
        }
        list
    }
}

/// Inserts every entry of an iterator (upsert semantics).
///
/// `Extend` requires `&mut self` by signature, but insertion only needs
/// `&self`; concurrent writers can keep operating while one thread extends
/// through a unique reference.
///
/// ```
/// use bskip_core::BSkipList;
///
/// let mut list: BSkipList<u64, u64> = BSkipList::new();
/// list.extend([(1u64, 10u64), (2, 20)]);
/// list.extend([(2u64, 21u64)]);
/// assert_eq!(list.to_vec(), vec![(1, 10), (2, 21)]);
/// ```
impl<K: IndexKey, V: IndexValue, const B: usize> Extend<(K, V)> for BSkipList<K, V, B> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (key, value) in iter {
            self.insert(key, value);
        }
    }
}

/// `for (key, value) in &list` iterates in ascending key order.
///
/// ```
/// use bskip_core::BSkipList;
///
/// let list: BSkipList<u64, u64> = (0..3u64).map(|k| (k, k)).collect();
/// let mut seen = Vec::new();
/// for (key, _value) in &list {
///     seen.push(key);
/// }
/// assert_eq!(seen, vec![0, 1, 2]);
/// ```
impl<'a, K: IndexKey, V: IndexValue, const B: usize> IntoIterator for &'a BSkipList<K, V, B> {
    type Item = (K, V);
    type IntoIter = Cursor<'a, K, V>;

    fn into_iter(self) -> Cursor<'a, K, V> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type List = BSkipList<u64, u64, 8>;

    fn small_config() -> BSkipConfig {
        BSkipConfig::default()
            .with_max_height(4)
            .with_promotion_c(0.5)
    }

    #[test]
    fn new_list_is_empty() {
        let list = List::with_config(small_config());
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.get(&1), None);
        assert_eq!(list.to_vec(), vec![]);
        assert_eq!(list.node_capacity(), 8);
        assert_eq!(list.max_height(), 4);
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let list = List::with_config(small_config());
        assert_eq!(list.insert(5, 50), None);
        assert_eq!(list.insert(1, 10), None);
        assert_eq!(list.insert(9, 90), None);
        assert_eq!(list.len(), 3);
        assert_eq!(list.get(&1), Some(10));
        assert_eq!(list.get(&5), Some(50));
        assert_eq!(list.get(&9), Some(90));
        assert_eq!(list.get(&2), None);
        assert!(list.contains_key(&9));
        assert!(!list.contains_key(&8));
    }

    #[test]
    fn insert_existing_key_updates_value() {
        let list = List::with_config(small_config());
        assert_eq!(list.insert(42, 1), None);
        assert_eq!(list.insert(42, 2), Some(1));
        assert_eq!(list.get(&42), Some(2));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn many_sequential_inserts_preserve_sorted_order() {
        let list = List::with_config(small_config());
        for key in 0..1000u64 {
            list.insert(key, key * 2);
        }
        assert_eq!(list.len(), 1000);
        let pairs = list.to_vec();
        assert_eq!(pairs.len(), 1000);
        for (i, (k, v)) in pairs.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        let list = List::with_config(small_config());
        for key in (0..500u64).rev() {
            list.insert(key, key);
        }
        let keys: Vec<u64> = list.to_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn range_visits_requested_window() {
        let list = List::with_config(small_config());
        for key in (0..100u64).map(|i| i * 10) {
            list.insert(key, key + 1);
        }
        let mut seen = Vec::new();
        let count = list.range(&250, 5, &mut |k, v| seen.push((*k, *v)));
        assert_eq!(count, 5);
        assert_eq!(
            seen,
            vec![(250, 251), (260, 261), (270, 271), (280, 281), (290, 291)]
        );
    }

    #[test]
    fn range_from_between_keys_and_past_the_end() {
        let list = List::with_config(small_config());
        for key in [10u64, 20, 30] {
            list.insert(key, key);
        }
        let mut seen = Vec::new();
        assert_eq!(list.range(&15, 10, &mut |k, _| seen.push(*k)), 2);
        assert_eq!(seen, vec![20, 30]);
        assert_eq!(
            list.range(&31, 10, &mut |_, _| panic!("nothing to visit")),
            0
        );
        assert_eq!(list.range(&10, 0, &mut |_, _| panic!("len 0")), 0);
    }

    #[test]
    fn remove_returns_value_and_unlinks() {
        let list = List::with_config(small_config());
        for key in 0..200u64 {
            list.insert(key, key + 1000);
        }
        assert_eq!(list.remove(&50), Some(1050));
        assert_eq!(list.remove(&50), None);
        assert_eq!(list.get(&50), None);
        assert_eq!(list.len(), 199);
        // All other keys untouched.
        for key in (0..200u64).filter(|k| *k != 50) {
            assert_eq!(
                list.get(&key),
                Some(key + 1000),
                "key {key} lost after remove"
            );
        }
    }

    #[test]
    fn remove_everything_empties_the_list() {
        let list = List::with_config(small_config());
        for key in 0..300u64 {
            list.insert(key, key);
        }
        for key in 0..300u64 {
            assert_eq!(list.remove(&key), Some(key), "failed to remove {key}");
        }
        assert!(list.is_empty());
        assert_eq!(list.to_vec(), vec![]);
        // The structure is still usable afterwards.
        list.insert(7, 7);
        assert_eq!(list.get(&7), Some(7));
    }

    #[test]
    fn stats_are_collected_when_enabled() {
        let list = List::with_config(small_config().with_stats(true));
        for key in 0..100u64 {
            list.insert(key, key);
        }
        for key in 0..100u64 {
            list.get(&key);
        }
        list.range(&0, 50, &mut |_, _| {});
        let stats = ConcurrentIndex::stats(&list);
        assert_eq!(stats.get("finds"), Some(100));
        assert_eq!(stats.get("inserts"), Some(100));
        assert_eq!(stats.get("ranges"), Some(1));
        assert!(stats.get("levels_visited").unwrap() > 0);
        list.reset_stats();
        assert_eq!(ConcurrentIndex::stats(&list).get("finds"), Some(0));
    }

    #[test]
    fn removal_retires_nodes_and_epochs_drain_the_backlog() {
        let list = List::with_config(small_config());
        for round in 0..50u64 {
            for key in 0..100u64 {
                list.insert(key, key + round);
            }
            for key in 0..100u64 {
                assert_eq!(list.remove(&key), Some(key + round));
            }
        }
        let stats = list.reclamation();
        assert!(stats.retired > 0, "emptied nodes must be retired");
        assert_eq!(stats.backlog, stats.retired - stats.freed);
        // Amortized collection keeps the backlog far below the total
        // retirement count.
        assert!(
            stats.backlog < stats.retired / 2,
            "backlog {} vs retired {}",
            stats.backlog,
            stats.retired
        );
        // At a quiescent point, a few explicit collections drain it fully.
        for _ in 0..4 {
            list.try_reclaim();
        }
        assert_eq!(list.reclamation().backlog, 0);
        // Reclamation counters ride along on the uniform stats surface.
        let snapshot = ConcurrentIndex::stats(&list);
        let reclamation = snapshot.reclamation().expect("ebr stats exported");
        assert_eq!(reclamation.backlog, 0);
        assert_eq!(reclamation.retired, stats.retired);
        // The list stays fully usable afterwards.
        list.insert(1, 1);
        assert_eq!(list.get(&1), Some(1));
        list.validate().expect("structure after churn");
    }

    #[test]
    fn open_cursor_pins_retired_nodes_until_dropped() {
        let list = List::with_config(small_config());
        for key in 0..64u64 {
            list.insert(key, key);
        }
        let mut cursor = list.scan(..);
        assert_eq!(cursor.next(), Some((0, 0)));
        // Remove everything ahead of the cursor, emptying (and retiring)
        // nodes the cursor may still walk onto.
        for key in 1..64u64 {
            list.remove(&key);
        }
        let pinned_backlog = list.reclamation().backlog;
        assert!(pinned_backlog > 0, "unlinking must retire nodes");
        // The pinned cursor blocks the grace period: no amount of
        // collecting may free what it can still reach.
        for _ in 0..8 {
            list.try_reclaim();
        }
        assert_eq!(list.reclamation().freed, 0);
        // The cursor keeps walking safely over the churned region;
        // already-snapshotted entries may still be yielded, in ascending
        // order, and the walk terminates.
        let mut previous = 0u64;
        while let Some((key, _)) = cursor.next() {
            assert!(key > previous, "cursor went backwards after churn");
            previous = key;
        }
        drop(cursor);
        for _ in 0..4 {
            list.try_reclaim();
        }
        assert_eq!(list.reclamation().backlog, 0);
    }

    #[test]
    fn concurrent_index_trait_dispatch() {
        let list = List::with_config(small_config());
        let index: &dyn ConcurrentIndex<u64, u64> = &list;
        index.insert(1, 2);
        assert_eq!(index.get(&1), Some(2));
        assert_eq!(index.name(), "B-skiplist");
        assert_eq!(index.len(), 1);
        assert_eq!(index.remove(&1), Some(2));
        assert!(index.is_empty());
    }
}
