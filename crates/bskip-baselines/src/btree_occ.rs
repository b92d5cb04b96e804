//! A concurrent B+-tree with classical optimistic concurrency control.
//!
//! This is the stand-in for the tlx/BP-tree-based "concurrent B+-tree (OBT)"
//! of the paper's evaluation.  Its concurrency control is the classical OCC
//! scheme the paper describes in Section 5.2:
//!
//! * **Optimistic pass** (the common case): descend from the root holding
//!   reader locks hand-over-hand, take a *writer* lock only on the leaf, and
//!   insert there if it has room.
//! * **Pessimistic pass** (the retire): if the leaf is full the operation
//!   releases everything, goes back to the root — taking the tree-level
//!   lock in *write* mode, which is what blocks every other operation — and
//!   descends again with writer locks, splitting full nodes preemptively on
//!   the way down.
//!
//! The number of pessimistic retires is exported as the
//! `root_write_locks` statistic; the paper reports ~26 K of them for the
//! B+-tree during the YCSB load phase versus 7 for the B-skiplist, and they
//! are the reason for the B+-tree's worse tail latency (Figure 8).
//!
//! Leaves are chained left-to-right so range scans (YCSB workload E) can
//! stream across leaf nodes with hand-over-hand read locks.
//!
//! # Structural deletion
//!
//! Removals rebalance: when deleting from a leaf would drop it to the
//! underflow threshold of `F / 4` keys, the operation retires to the
//! root exactly like a splitting insert — tree-level write lock, then a
//! writer-latch-crabbing descent that **pre-balances** every child on the
//! way down: a child at the threshold either borrows entries from an
//! adjacent sibling (through the parent separator) or, when the combined
//! contents fit in one node, merges with it; a root drained to a single
//! child is collapsed away.  Freed nodes (merge victims, collapsed root
//! shells) are retired through an epoch-based collector
//! ([`bskip_sync::EbrCollector`]).
//!
//! Strictly speaking the lock protocol alone already guarantees
//! exclusivity at free time: every structural change holds exclusive
//! locks on the parent and both siblings, and readers never hold an
//! unlocked pointer to a node that is not still protected by a lock they
//! hold on its predecessor (hand-over-hand descent, leaf-chain scans) —
//! so nobody can reach an unlinked node.  Retirement through the
//! collector adds grace-period slack on top of that argument and exports
//! the uniform [`bskip_index::ReclamationStats`] surface the churn tests
//! (`tests/reclamation_churn.rs`, `tests/shrink_churn.rs`) rely on.
//!
//! Sibling pairs are always locked left-to-right, the same order as the
//! leaf chain, so rebalancing cannot deadlock against range scans.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Bound;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use bskip_index::{
    BatchCursor, ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue, StatKind,
};
use bskip_sync::{EbrCollector, RawRwSpinLock, RelaxedCounter, StripedCounter};

/// Masstree's node width: at most 15 keys per node.
const MASSTREE_FANOUT: usize = 15;

/// A Masstree-style index for 8-byte keys: a single-layer trie of 15-key
/// B+-tree nodes with optimistic concurrency control.
///
/// Masstree (Mao, Kohler, Morris, EuroSys'12) is a trie of B+-trees: each
/// trie layer indexes one 8-byte slice of the key with a B+-tree whose
/// nodes hold at most 15 keys (so a node spans a small number of cache
/// lines), using optimistic concurrency control for reads and per-node
/// locks for writes.
///
/// The paper's evaluation (and this repository's) uses fixed 8-byte keys,
/// for which Masstree degenerates to exactly **one** trie layer: a single
/// B+-tree with 15-key nodes and OCC.  This alias models it as such: the
/// OCC B+-tree with Masstree's narrow node geometry (15 keys ≈ 248 bytes
/// of key material per node versus the 1024-byte nodes of the `OccBTree`
/// default and the 2048-byte nodes of the B-skiplist).  The narrow nodes
/// make the tree deeper and its scans re-descend every 15 entries, which
/// reproduces Masstree's relative behaviour in the paper: competitive but
/// slightly slower point operations and much slower range scans than the
/// blocked indices.  The README's *Substitutions* section records this
/// one.
///
/// In full Masstree, deleting the last key of a lower trie layer retires
/// that entire layer's tree; with fixed 8-byte keys there is exactly one
/// layer, so "retiring an emptied layer" degenerates to the tree
/// collapsing back to a single empty root leaf — which is precisely what
/// the underflow machinery produces (3 keys is the threshold at this
/// width).
///
/// # Example
///
/// ```
/// use bskip_baselines::MasstreeLite;
/// use bskip_index::ConcurrentIndex;
///
/// let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
/// tree.insert(8, 80);
/// assert_eq!(tree.get(&8), Some(80));
/// assert_eq!(tree.name(), "Masstree-lite");
/// ```
pub type MasstreeLite<K, V> = OccBTree<K, V, MASSTREE_FANOUT>;

bskip_index::stat_block! {
    /// The tree's event counters: `stats()` exports and `reset_stats()`
    /// zeroes exactly this list.
    struct TreeCounters {
        /// Operations that retired to the root and took the tree-level
        /// lock in write mode (the statistic of Section 5.2).
        root_write_locks: RelaxedCounter => Counter "root_write_locks",
        /// Sibling pairs merged into one node (one victim retired each).
        nodes_merged: RelaxedCounter => Counter "nodes_merged",
        /// Sibling rebalances that redistributed entries instead of merging.
        nodes_borrowed: RelaxedCounter => Counter "nodes_borrowed",
        /// Single-child root shells collapsed away (one retired each).
        root_collapses: RelaxedCounter => Counter "root_collapses",
    }
}

/// Payload of a node: values in leaves, children in internal nodes.
enum Payload<K, V, const F: usize> {
    /// Values aligned with `keys`.
    Leaf([MaybeUninit<V>; F]),
    /// `first_child` covers keys below `keys[0]`; `children[i]` covers keys
    /// in `[keys[i], keys[i+1])`.
    Internal {
        first_child: *mut Node<K, V, F>,
        children: [*mut Node<K, V, F>; F],
    },
}

/// Guarded interior of a node.
struct Inner<K, V, const F: usize> {
    len: usize,
    keys: [MaybeUninit<K>; F],
    payload: Payload<K, V, F>,
    /// Right neighbour at the leaf level (null elsewhere / at the end).
    next_leaf: *mut Node<K, V, F>,
}

/// A B+-tree node with up to `F` keys.
#[repr(align(64))]
struct Node<K, V, const F: usize> {
    lock: RawRwSpinLock,
    is_leaf: bool,
    inner: UnsafeCell<Inner<K, V, F>>,
}

impl<K: Copy + Ord, V: Copy, const F: usize> Node<K, V, F> {
    fn alloc_leaf() -> *mut Self {
        Box::into_raw(Box::new(Node {
            lock: RawRwSpinLock::new(),
            is_leaf: true,
            inner: UnsafeCell::new(Inner {
                len: 0,
                keys: [const { MaybeUninit::uninit() }; F],
                payload: Payload::Leaf([const { MaybeUninit::uninit() }; F]),
                next_leaf: ptr::null_mut(),
            }),
        }))
    }

    fn alloc_internal(first_child: *mut Self) -> *mut Self {
        Box::into_raw(Box::new(Node {
            lock: RawRwSpinLock::new(),
            is_leaf: false,
            inner: UnsafeCell::new(Inner {
                len: 0,
                keys: [const { MaybeUninit::uninit() }; F],
                payload: Payload::Internal {
                    first_child,
                    children: [ptr::null_mut(); F],
                },
                next_leaf: ptr::null_mut(),
            }),
        }))
    }

    /// # Safety: caller must hold the node's lock (shared or exclusive).
    unsafe fn inner(&self) -> &Inner<K, V, F> {
        &*self.inner.get()
    }

    /// # Safety: caller must hold the node's lock exclusively.
    #[allow(clippy::mut_from_ref)]
    unsafe fn inner_mut(&self) -> &mut Inner<K, V, F> {
        &mut *self.inner.get()
    }

    /// Number of keys strictly less than `key`.
    ///
    /// # Safety: caller must hold the node's lock.
    unsafe fn lower_bound(&self, key: &K) -> usize {
        let inner = self.inner();
        let mut lo = 0;
        let mut hi = inner.len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if inner.keys[mid].assume_init_ref() < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Number of keys less than or equal to `key`.
    ///
    /// # Safety: caller must hold the node's lock.
    unsafe fn upper_bound(&self, key: &K) -> usize {
        let inner = self.inner();
        let mut lo = 0;
        let mut hi = inner.len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if inner.keys[mid].assume_init_ref() <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child to follow when searching for `key`.
    ///
    /// # Safety: caller must hold the node's lock; node must be internal.
    unsafe fn child_for(&self, key: &K) -> *mut Self {
        let slot = self.upper_bound(key);
        match &self.inner().payload {
            Payload::Internal {
                first_child,
                children,
            } => {
                if slot == 0 {
                    *first_child
                } else {
                    children[slot - 1]
                }
            }
            Payload::Leaf(_) => unreachable!("child_for on a leaf"),
        }
    }
}

/// A concurrent B+-tree with optimistic concurrency control.
///
/// `F` is the number of keys per node; the default of 64 matches the
/// paper's 1024-byte B+-tree nodes for 16-byte key-value pairs.
///
/// # Example
///
/// ```
/// use bskip_baselines::OccBTree;
/// use bskip_index::ConcurrentIndex;
///
/// let tree: OccBTree<u64, u64> = OccBTree::new();
/// tree.insert(10, 100);
/// assert_eq!(tree.get(&10), Some(100));
/// // No split has retired to the root yet.
/// assert_eq!(tree.stats().get("root_write_locks"), Some(0));
/// ```
pub struct OccBTree<K, V, const F: usize = 64> {
    /// Tree-level lock guarding the root pointer: readers hold it shared
    /// just long enough to lock the root node; pessimistic writers hold it
    /// exclusively ("the root write lock").
    tree_lock: RawRwSpinLock,
    root: AtomicPtr<Node<K, V, F>>,
    len: StripedCounter,
    counters: TreeCounters,
    /// Collector for merge victims and collapsed root shells.
    collector: EbrCollector,
    /// Nodes ever allocated (root, splits); `nodes_allocated - retired`
    /// is the live structural node count.
    nodes_allocated: RelaxedCounter,
}

// SAFETY: node state is only accessed under per-node locks (plus the tree
// lock for the root pointer), so sharing across threads is sound whenever
// keys and values are shareable.
unsafe impl<K: IndexKey, V: IndexValue, const F: usize> Send for OccBTree<K, V, F> {}
unsafe impl<K: IndexKey, V: IndexValue, const F: usize> Sync for OccBTree<K, V, F> {}

impl<K: IndexKey, V: IndexValue, const F: usize> Default for OccBTree<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue, const F: usize> OccBTree<K, V, F> {
    /// Underflow threshold: a node holding this many entries or fewer is
    /// rebalanced (borrow or merge) before a removal may shrink it
    /// further.  It lies in `1..=F / 2 - 1` for every `F >= 4`, so fresh
    /// split halves satisfy it and a rebalanced pair ends up strictly
    /// above it.
    const MIN_KEYS: usize = F / 4;

    /// Creates an empty tree.
    ///
    /// # Panics
    ///
    /// Panics if `F < 4`.
    pub fn new() -> Self {
        assert!(F >= 4, "fanout must be at least 4");
        let tree = OccBTree {
            tree_lock: RawRwSpinLock::new(),
            root: AtomicPtr::new(Node::alloc_leaf()),
            len: StripedCounter::new(),
            counters: TreeCounters::default(),
            collector: EbrCollector::new(),
            nodes_allocated: RelaxedCounter::new(),
        };
        tree.nodes_allocated.incr();
        tree
    }

    /// Retires an unlinked node through the collector.
    fn retire_node(&self, node: *mut Node<K, V, F>) {
        let guard = self.collector.pin();
        // SAFETY: the caller unlinked `node` while holding the exclusive
        // locks the rebalance protocol requires (so no traversal can reach
        // it any more) and retires it exactly once.
        unsafe { guard.retire_box(node) };
    }

    /// Locks the root node in shared mode and returns it (the tree lock is
    /// held only for the duration of the root acquisition).
    ///
    /// # Safety: internal; relies on nodes never being freed while shared.
    unsafe fn acquire_root_shared(&self) -> *mut Node<K, V, F> {
        self.tree_lock.lock_shared();
        let root = self.root.load(Ordering::Acquire);
        (*root).lock.lock_shared();
        self.tree_lock.unlock_shared();
        root
    }

    /// Cursor batch-fetch primitive: appends up to `max` entries with keys
    /// satisfying `from` in ascending order, descending with hand-over-hand
    /// read locks and then streaming along the leaf chain.
    ///
    /// The OCC scheme cannot park a cursor on a locked leaf (a pessimistic
    /// pass retiring to the root would deadlock against it), so cursors
    /// re-descend once per batch; a batch spans whole leaves, keeping the
    /// re-entry cost amortized at `F` entries per descent.
    fn fetch_batch(&self, from: Bound<K>, max: usize, out: &mut Vec<(K, V)>) {
        if max == 0 {
            return;
        }
        // SAFETY: HOH read locking down to the leaf and along the chain.
        unsafe {
            let mut node = self.acquire_root_shared();
            match &from {
                Bound::Unbounded => {
                    // Leftmost descent: follow the first child at every level.
                    while !(*node).is_leaf {
                        let child = match &(*node).inner().payload {
                            Payload::Internal { first_child, .. } => *first_child,
                            Payload::Leaf(_) => unreachable!(),
                        };
                        (*child).lock.lock_shared();
                        (*node).lock.unlock_shared();
                        node = child;
                    }
                }
                Bound::Included(key) | Bound::Excluded(key) => {
                    while !(*node).is_leaf {
                        let child = (*node).child_for(key);
                        (*child).lock.lock_shared();
                        (*node).lock.unlock_shared();
                        node = child;
                    }
                }
            }
            let mut slot = match &from {
                Bound::Unbounded => 0,
                Bound::Included(key) => (*node).lower_bound(key),
                Bound::Excluded(key) => (*node).upper_bound(key),
            };
            loop {
                let inner = (*node).inner();
                let values = match &inner.payload {
                    Payload::Leaf(values) => values,
                    Payload::Internal { .. } => unreachable!(),
                };
                while slot < inner.len && out.len() < max {
                    out.push((inner.keys[slot].assume_init(), values[slot].assume_init()));
                    slot += 1;
                }
                if out.len() == max {
                    break;
                }
                let next = inner.next_leaf;
                if next.is_null() {
                    break;
                }
                (*next).lock.lock_shared();
                (*node).lock.unlock_shared();
                node = next;
                slot = 0;
            }
            (*node).lock.unlock_shared();
        }
    }

    /// The pessimistic retry: take the tree lock in write mode and descend
    /// with writer locks, splitting full nodes preemptively.
    fn insert_pessimistic(&self, key: K, value: V) -> Option<V> {
        self.counters.root_write_locks.incr();
        // SAFETY: every node on the descent path is locked exclusively
        // before being read or modified; newly allocated nodes are private
        // until their parent (also exclusively locked) publishes them.
        unsafe {
            self.tree_lock.lock_exclusive();
            let mut root = self.root.load(Ordering::Acquire);
            (*root).lock.lock_exclusive();
            if (*root).inner().len == F {
                // Split the root: the old root becomes the left half.
                let (right, separator) = split_node(root);
                self.nodes_allocated.incr();
                let new_root = Node::alloc_internal(root);
                self.nodes_allocated.incr();
                {
                    let inner = (*new_root).inner_mut();
                    inner.keys[0] = MaybeUninit::new(separator);
                    match &mut inner.payload {
                        Payload::Internal { children, .. } => children[0] = right,
                        Payload::Leaf(_) => unreachable!(),
                    }
                    inner.len = 1;
                }
                self.root.store(new_root, Ordering::Release);
                (*new_root).lock.lock_exclusive();
                (*root).lock.unlock_exclusive();
                root = new_root;
            }
            self.tree_lock.unlock_exclusive();

            // Descend with writer latch crabbing; every full child is split
            // before we step into it, so parents always have room.
            let mut node = root;
            while !(*node).is_leaf {
                let child = (*node).child_for(&key);
                (*child).lock.lock_exclusive();
                let child = if (*child).inner().len == F {
                    let (right, separator) = split_node(child);
                    self.nodes_allocated.incr();
                    let position = (*node).lower_bound(&separator);
                    insert_child(&mut *(*node).inner_mut(), position, separator, right);
                    if key >= separator {
                        (*child).lock.unlock_exclusive();
                        (*right).lock.lock_exclusive();
                        right
                    } else {
                        child
                    }
                } else {
                    child
                };
                (*node).lock.unlock_exclusive();
                node = child;
            }
            // Leaf with room guaranteed.
            let slot = (*node).lower_bound(&key);
            let inner = (*node).inner_mut();
            let result = if slot < inner.len && inner.keys[slot].assume_init_ref() == &key {
                let values = match &mut inner.payload {
                    Payload::Leaf(values) => values,
                    Payload::Internal { .. } => unreachable!(),
                };
                let old = values[slot].assume_init();
                values[slot] = MaybeUninit::new(value);
                Some(old)
            } else {
                insert_into_leaf(inner, slot, key, value);
                self.len.add(1);
                None
            };
            (*node).lock.unlock_exclusive();
            result
        }
    }

    /// The pessimistic removal: take the tree lock in write mode, fix the
    /// root (collapse single-child shells), then descend with writer
    /// latch crabbing, pre-balancing every child at the underflow
    /// threshold before stepping into it — so the final leaf removal can
    /// never underflow a node.
    fn remove_pessimistic(&self, key: &K) -> Option<V> {
        self.counters.root_write_locks.incr();
        // SAFETY: every touched node is locked exclusively before being
        // read or modified; root-pointer changes happen under the
        // exclusive tree lock, which also excludes `acquire_root_shared`.
        unsafe {
            self.tree_lock.lock_exclusive();
            let mut node = self.root.load(Ordering::Acquire);
            (*node).lock.lock_exclusive();
            // Root fixes under the tree lock: collapse single-child
            // shells, including one produced by rebalancing the root's
            // own children just below.
            loop {
                if (*node).is_leaf {
                    break;
                }
                if (*node).inner().len == 0 {
                    let child = child_at(node, 0);
                    (*child).lock.lock_exclusive();
                    self.root.store(child, Ordering::Release);
                    (*node).lock.unlock_exclusive();
                    self.counters.root_collapses.incr();
                    self.retire_node(node);
                    node = child;
                    continue;
                }
                let child = self.lock_child_rebalanced(node, key);
                if (*node).inner().len == 0 {
                    // The rebalance merged the root's only two children.
                    debug_assert_eq!(child_at(node, 0), child);
                    self.root.store(child, Ordering::Release);
                    (*node).lock.unlock_exclusive();
                    self.counters.root_collapses.incr();
                    self.retire_node(node);
                    node = child;
                    continue;
                }
                (*node).lock.unlock_exclusive();
                node = child;
                break;
            }
            self.tree_lock.unlock_exclusive();

            // Crab down with writer locks, pre-balancing each child.
            while !(*node).is_leaf {
                let child = self.lock_child_rebalanced(node, key);
                (*node).lock.unlock_exclusive();
                node = child;
            }
            // The leaf is above the threshold (or it is the root leaf).
            let slot = (*node).lower_bound(key);
            let inner = (*node).inner_mut();
            let result = if slot < inner.len && inner.keys[slot].assume_init_ref() == key {
                let old = remove_from_leaf(inner, slot);
                self.len.add(-1);
                Some(old)
            } else {
                None
            };
            (*node).lock.unlock_exclusive();
            result
        }
    }

    /// Locks the child of `parent` covering `key`; if the child sits at
    /// the underflow threshold, rebalances it with an adjacent sibling
    /// first (borrow or merge) so one removal below cannot underflow it.
    /// Returns the (exclusively locked) child covering `key` after the
    /// fix; the parent stays exclusively locked and loses at most one
    /// separator.
    ///
    /// # Safety
    ///
    /// The caller holds `parent`'s exclusive lock; `parent` is internal
    /// with at least one key (so a sibling always exists).
    unsafe fn lock_child_rebalanced(
        &self,
        parent: *mut Node<K, V, F>,
        key: &K,
    ) -> *mut Node<K, V, F> {
        let slot = (*parent).upper_bound(key);
        let child = child_at(parent, slot);
        (*child).lock.lock_exclusive();
        if (*child).inner().len > Self::MIN_KEYS {
            return child;
        }
        // Pair the child with a neighbour under the same parent.  The
        // pair is always locked left-to-right — the leaf-chain order — so
        // rebalancing cannot deadlock against range scans.
        let (left, right, sep_idx) = if slot == 0 {
            let right = child_at(parent, 1);
            (*right).lock.lock_exclusive();
            (child, right, 0)
        } else {
            // The left sibling must be locked first; dropping the child's
            // lock is safe because the parent's exclusive lock keeps every
            // descent (and thus every child mutation) out.
            (*child).lock.unlock_exclusive();
            let left = child_at(parent, slot - 1);
            (*left).lock.lock_exclusive();
            (*child).lock.lock_exclusive();
            (left, child, slot - 1)
        };
        let sep_cost = usize::from(!(*left).is_leaf);
        if (*left).inner().len + (*right).inner().len + sep_cost <= F {
            self.merge_into_left(parent, left, right, sep_idx);
            left
        } else {
            self.rebalance_pair(parent, left, right, sep_idx);
            let separator = (*parent).inner().keys[sep_idx].assume_init();
            if &separator <= key {
                (*left).lock.unlock_exclusive();
                right
            } else {
                (*right).lock.unlock_exclusive();
                left
            }
        }
    }

    /// Merges `right` into `left` (adjacent children of `parent` separated
    /// by `parent.keys[sep_idx]`), removes the separator and `right`'s
    /// child slot from the parent, and retires `right`.
    ///
    /// # Safety
    ///
    /// The caller holds exclusive locks on all three nodes and the
    /// combined contents fit: `left.len + right.len + sep_cost <= F`.
    unsafe fn merge_into_left(
        &self,
        parent: *mut Node<K, V, F>,
        left: *mut Node<K, V, F>,
        right: *mut Node<K, V, F>,
        sep_idx: usize,
    ) {
        let parent_inner = (*parent).inner_mut();
        let left_inner = (*left).inner_mut();
        let right_inner = (*right).inner_mut();
        let left_len = left_inner.len;
        let right_len = right_inner.len;
        if (*left).is_leaf {
            for offset in 0..right_len {
                left_inner.keys[left_len + offset] =
                    MaybeUninit::new(right_inner.keys[offset].assume_init());
            }
            match (&mut left_inner.payload, &right_inner.payload) {
                (Payload::Leaf(dst), Payload::Leaf(src)) => {
                    for offset in 0..right_len {
                        dst[left_len + offset] = MaybeUninit::new(src[offset].assume_init());
                    }
                }
                _ => unreachable!(),
            }
            left_inner.len = left_len + right_len;
            left_inner.next_leaf = right_inner.next_leaf;
        } else {
            // Pull the separator down, then append right's keys/children.
            left_inner.keys[left_len] = MaybeUninit::new(parent_inner.keys[sep_idx].assume_init());
            for offset in 0..right_len {
                left_inner.keys[left_len + 1 + offset] =
                    MaybeUninit::new(right_inner.keys[offset].assume_init());
            }
            let (right_first, right_children) = match &right_inner.payload {
                Payload::Internal {
                    first_child,
                    children,
                } => (*first_child, children),
                Payload::Leaf(_) => unreachable!(),
            };
            match &mut left_inner.payload {
                Payload::Internal { children, .. } => {
                    children[left_len] = right_first;
                    children[left_len + 1..left_len + 1 + right_len]
                        .copy_from_slice(&right_children[..right_len]);
                }
                Payload::Leaf(_) => unreachable!(),
            }
            left_inner.len = left_len + 1 + right_len;
        }
        // Remove the separator and the right child's slot from the parent.
        let parent_len = parent_inner.len;
        let keys_ptr = parent_inner.keys.as_mut_ptr();
        ptr::copy(
            keys_ptr.add(sep_idx + 1),
            keys_ptr.add(sep_idx),
            parent_len - sep_idx - 1,
        );
        match &mut parent_inner.payload {
            Payload::Internal { children, .. } => {
                children.copy_within(sep_idx + 1..parent_len, sep_idx)
            }
            Payload::Leaf(_) => unreachable!(),
        }
        parent_inner.len = parent_len - 1;
        (*right).lock.unlock_exclusive();
        self.counters.nodes_merged.incr();
        self.retire_node(right);
    }

    /// Redistributes entries between adjacent siblings until both sit at
    /// roughly half of the combined total, updating the parent separator.
    ///
    /// # Safety
    ///
    /// The caller holds exclusive locks on all three nodes and the
    /// combined contents do **not** fit in one node (so both halves end up
    /// strictly above the underflow threshold).
    unsafe fn rebalance_pair(
        &self,
        parent: *mut Node<K, V, F>,
        left: *mut Node<K, V, F>,
        right: *mut Node<K, V, F>,
        sep_idx: usize,
    ) {
        let total = (*left).inner().len + (*right).inner().len;
        let target_left = total / 2;
        while (*left).inner().len > target_left {
            rotate_right(parent, left, right, sep_idx);
        }
        while (*left).inner().len < target_left {
            rotate_left(parent, left, right, sep_idx);
        }
        self.counters.nodes_borrowed.incr();
    }
}

/// Removes the entry at `slot` from a leaf, returning its value.
///
/// # Safety: the caller holds the leaf's exclusive lock and `slot < len`.
unsafe fn remove_from_leaf<K: Copy + Ord, V: Copy, const F: usize>(
    inner: &mut Inner<K, V, F>,
    slot: usize,
) -> V {
    let len = inner.len;
    let keys_ptr = inner.keys.as_mut_ptr();
    ptr::copy(keys_ptr.add(slot + 1), keys_ptr.add(slot), len - slot - 1);
    let values = match &mut inner.payload {
        Payload::Leaf(values) => values,
        Payload::Internal { .. } => unreachable!("remove_from_leaf on an internal node"),
    };
    let old = values[slot].assume_init();
    let values_ptr = values.as_mut_ptr();
    ptr::copy(
        values_ptr.add(slot + 1),
        values_ptr.add(slot),
        len - slot - 1,
    );
    inner.len -= 1;
    old
}

/// Child at position `pos` of an internal node (`0` is `first_child`,
/// `p >= 1` is `children[p - 1]`).
///
/// # Safety: the caller holds the node's lock; the node is internal and
/// `pos <= len`.
unsafe fn child_at<K: Copy + Ord, V: Copy, const F: usize>(
    node: *mut Node<K, V, F>,
    pos: usize,
) -> *mut Node<K, V, F> {
    match &(*node).inner().payload {
        Payload::Internal {
            first_child,
            children,
        } => {
            if pos == 0 {
                *first_child
            } else {
                children[pos - 1]
            }
        }
        Payload::Leaf(_) => unreachable!("child_at on a leaf"),
    }
}

/// Moves the last entry of `left` to the front of `right` through the
/// parent separator at `sep_idx` (one step of a borrow).
///
/// # Safety: the caller holds exclusive locks on all three nodes;
/// `left.len >= 1` and `right.len < F`.
unsafe fn rotate_right<K: Copy + Ord, V: Copy, const F: usize>(
    parent: *mut Node<K, V, F>,
    left: *mut Node<K, V, F>,
    right: *mut Node<K, V, F>,
    sep_idx: usize,
) {
    let parent_inner = (*parent).inner_mut();
    let left_inner = (*left).inner_mut();
    let right_inner = (*right).inner_mut();
    let left_len = left_inner.len;
    let right_len = right_inner.len;
    debug_assert!(left_len >= 1 && right_len < F);
    let keys_ptr = right_inner.keys.as_mut_ptr();
    ptr::copy(keys_ptr, keys_ptr.add(1), right_len);
    if (*left).is_leaf {
        right_inner.keys[0] = MaybeUninit::new(left_inner.keys[left_len - 1].assume_init());
        match (&mut left_inner.payload, &mut right_inner.payload) {
            (Payload::Leaf(src), Payload::Leaf(dst)) => {
                let values_ptr = dst.as_mut_ptr();
                ptr::copy(values_ptr, values_ptr.add(1), right_len);
                dst[0] = MaybeUninit::new(src[left_len - 1].assume_init());
            }
            _ => unreachable!(),
        }
        // The leaf separator convention is "right's first key".
        parent_inner.keys[sep_idx] = MaybeUninit::new(right_inner.keys[0].assume_init());
    } else {
        // The separator rotates down into `right`; left's last key
        // rotates up to replace it; left's last child leads `right`.
        right_inner.keys[0] = MaybeUninit::new(parent_inner.keys[sep_idx].assume_init());
        let moved_child = match &left_inner.payload {
            Payload::Internal { children, .. } => children[left_len - 1],
            Payload::Leaf(_) => unreachable!(),
        };
        match &mut right_inner.payload {
            Payload::Internal {
                first_child,
                children,
            } => {
                children.copy_within(0..right_len, 1);
                children[0] = *first_child;
                *first_child = moved_child;
            }
            Payload::Leaf(_) => unreachable!(),
        }
        parent_inner.keys[sep_idx] = MaybeUninit::new(left_inner.keys[left_len - 1].assume_init());
    }
    left_inner.len = left_len - 1;
    right_inner.len = right_len + 1;
}

/// Moves the first entry of `right` to the end of `left` through the
/// parent separator at `sep_idx` (one step of a borrow).
///
/// # Safety: the caller holds exclusive locks on all three nodes;
/// `right.len >= 2` (so a first key remains for the new separator) and
/// `left.len < F`.
unsafe fn rotate_left<K: Copy + Ord, V: Copy, const F: usize>(
    parent: *mut Node<K, V, F>,
    left: *mut Node<K, V, F>,
    right: *mut Node<K, V, F>,
    sep_idx: usize,
) {
    let parent_inner = (*parent).inner_mut();
    let left_inner = (*left).inner_mut();
    let right_inner = (*right).inner_mut();
    let left_len = left_inner.len;
    let right_len = right_inner.len;
    debug_assert!(right_len >= 2 && left_len < F);
    if (*left).is_leaf {
        left_inner.keys[left_len] = MaybeUninit::new(right_inner.keys[0].assume_init());
        match (&mut left_inner.payload, &mut right_inner.payload) {
            (Payload::Leaf(dst), Payload::Leaf(src)) => {
                dst[left_len] = MaybeUninit::new(src[0].assume_init());
                let values_ptr = src.as_mut_ptr();
                ptr::copy(values_ptr.add(1), values_ptr, right_len - 1);
            }
            _ => unreachable!(),
        }
        let keys_ptr = right_inner.keys.as_mut_ptr();
        ptr::copy(keys_ptr.add(1), keys_ptr, right_len - 1);
        parent_inner.keys[sep_idx] = MaybeUninit::new(right_inner.keys[0].assume_init());
    } else {
        // The separator rotates down into `left`; right's first key
        // rotates up to replace it; right's leading child joins `left`.
        left_inner.keys[left_len] = MaybeUninit::new(parent_inner.keys[sep_idx].assume_init());
        parent_inner.keys[sep_idx] = MaybeUninit::new(right_inner.keys[0].assume_init());
        let keys_ptr = right_inner.keys.as_mut_ptr();
        ptr::copy(keys_ptr.add(1), keys_ptr, right_len - 1);
        let moved_child = match &mut right_inner.payload {
            Payload::Internal {
                first_child,
                children,
            } => {
                let moved = *first_child;
                *first_child = children[0];
                children.copy_within(1..right_len, 0);
                moved
            }
            Payload::Leaf(_) => unreachable!(),
        };
        match &mut left_inner.payload {
            Payload::Internal { children, .. } => children[left_len] = moved_child,
            Payload::Leaf(_) => unreachable!(),
        }
    }
    left_inner.len = left_len + 1;
    right_inner.len = right_len - 1;
}

/// Inserts a key/value pair into a (non-full) leaf at `slot`.
///
/// # Safety: the caller holds the leaf's exclusive lock and `slot <= len < F`.
unsafe fn insert_into_leaf<K, V, const F: usize>(
    inner: &mut Inner<K, V, F>,
    slot: usize,
    key: K,
    value: V,
) {
    debug_assert!(inner.len < F);
    let len = inner.len;
    let keys_ptr = inner.keys.as_mut_ptr();
    ptr::copy(keys_ptr.add(slot), keys_ptr.add(slot + 1), len - slot);
    inner.keys[slot] = MaybeUninit::new(key);
    match &mut inner.payload {
        Payload::Leaf(values) => {
            let values_ptr = values.as_mut_ptr();
            ptr::copy(values_ptr.add(slot), values_ptr.add(slot + 1), len - slot);
            values[slot] = MaybeUninit::new(value);
        }
        Payload::Internal { .. } => unreachable!("insert_into_leaf on an internal node"),
    }
    inner.len += 1;
}

/// Inserts a separator key and right-child pointer into a (non-full)
/// internal node at key position `slot`.
///
/// # Safety: the caller holds the node's exclusive lock and `slot <= len < F`.
unsafe fn insert_child<K, V, const F: usize>(
    inner: &mut Inner<K, V, F>,
    slot: usize,
    separator: K,
    right: *mut Node<K, V, F>,
) {
    debug_assert!(inner.len < F);
    let len = inner.len;
    let keys_ptr = inner.keys.as_mut_ptr();
    ptr::copy(keys_ptr.add(slot), keys_ptr.add(slot + 1), len - slot);
    inner.keys[slot] = MaybeUninit::new(separator);
    match &mut inner.payload {
        Payload::Internal { children, .. } => {
            children.copy_within(slot..len, slot + 1);
            children[slot] = right;
        }
        Payload::Leaf(_) => unreachable!("insert_child on a leaf"),
    }
    inner.len += 1;
}

/// Splits a full node in half, returning the new right sibling and the
/// separator key that should be inserted into the parent.
///
/// # Safety: the caller holds the node's exclusive lock; the new sibling is
/// returned unlocked but is unreachable until the caller publishes it.
unsafe fn split_node<K: Copy + Ord, V: Copy, const F: usize>(
    node: *mut Node<K, V, F>,
) -> (*mut Node<K, V, F>, K) {
    let inner = (*node).inner_mut();
    debug_assert_eq!(inner.len, F);
    let half = F / 2;
    let moved = F - half;
    if (*node).is_leaf {
        let right = Node::<K, V, F>::alloc_leaf();
        let right_inner = (*right).inner_mut();
        for offset in 0..moved {
            right_inner.keys[offset] = MaybeUninit::new(inner.keys[half + offset].assume_init());
        }
        match (&mut inner.payload, &mut right_inner.payload) {
            (Payload::Leaf(src), Payload::Leaf(dst)) => {
                for offset in 0..moved {
                    dst[offset] = MaybeUninit::new(src[half + offset].assume_init());
                }
            }
            _ => unreachable!(),
        }
        right_inner.len = moved;
        inner.len = half;
        // Link the leaf chain.
        right_inner.next_leaf = inner.next_leaf;
        inner.next_leaf = right;
        let separator = right_inner.keys[0].assume_init();
        (right, separator)
    } else {
        // Internal split: the middle key moves up to the parent; its child
        // becomes the right node's first child.
        let separator = inner.keys[half].assume_init();
        let (first_child, moved_children) = match &inner.payload {
            Payload::Internal { children, .. } => (children[half], children[half + 1..F].to_vec()),
            Payload::Leaf(_) => unreachable!(),
        };
        let right = Node::<K, V, F>::alloc_internal(first_child);
        let right_inner = (*right).inner_mut();
        let moved_keys = F - half - 1;
        for offset in 0..moved_keys {
            right_inner.keys[offset] =
                MaybeUninit::new(inner.keys[half + 1 + offset].assume_init());
        }
        match &mut right_inner.payload {
            Payload::Internal { children, .. } => {
                children[..moved_keys].copy_from_slice(&moved_children);
            }
            Payload::Leaf(_) => unreachable!(),
        }
        right_inner.len = moved_keys;
        inner.len = half;
        (right, separator)
    }
}

impl<K, V, const F: usize> Drop for OccBTree<K, V, F> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no concurrent accessors; every node is
        // reachable from the root exactly once.
        unsafe {
            let mut stack = vec![self.root.load(Ordering::Relaxed)];
            while let Some(node) = stack.pop() {
                if !(*node).is_leaf {
                    let inner = &*(*node).inner.get();
                    match &inner.payload {
                        Payload::Internal {
                            first_child,
                            children,
                        } => {
                            stack.push(*first_child);
                            for &child in &children[..inner.len] {
                                stack.push(child);
                            }
                        }
                        Payload::Leaf(_) => unreachable!(),
                    }
                }
                drop(Box::from_raw(node));
            }
        }
    }
}

impl<K: IndexKey, V: IndexValue, const F: usize> ConcurrentIndex<K, V> for OccBTree<K, V, F> {
    /// Inserts `key → value` optimistically (reader locks down, writer
    /// lock on the leaf); a full leaf retires to the root and goes
    /// pessimistic.
    fn insert(&self, key: K, value: V) -> Option<V> {
        // SAFETY: HOH locking; leaf mutations only under its write lock.
        unsafe {
            self.tree_lock.lock_shared();
            let root = self.root.load(Ordering::Acquire);
            if (*root).is_leaf {
                (*root).lock.lock_exclusive();
            } else {
                (*root).lock.lock_shared();
            }
            self.tree_lock.unlock_shared();
            let mut node = root;
            while !(*node).is_leaf {
                let child = (*node).child_for(&key);
                if (*child).is_leaf {
                    (*child).lock.lock_exclusive();
                } else {
                    (*child).lock.lock_shared();
                }
                (*node).lock.unlock_shared();
                node = child;
            }
            // `node` is the leaf, write-locked.
            let slot = (*node).lower_bound(&key);
            let inner = (*node).inner_mut();
            if slot < inner.len && inner.keys[slot].assume_init_ref() == &key {
                let values = match &mut inner.payload {
                    Payload::Leaf(values) => values,
                    Payload::Internal { .. } => unreachable!(),
                };
                let old = values[slot].assume_init();
                values[slot] = MaybeUninit::new(value);
                (*node).lock.unlock_exclusive();
                return Some(old);
            }
            if inner.len < F {
                insert_into_leaf(inner, slot, key, value);
                (*node).lock.unlock_exclusive();
                self.len.add(1);
                return None;
            }
            // Leaf is full: retire to the root and go pessimistic.
            (*node).lock.unlock_exclusive();
        }
        self.insert_pessimistic(key, value)
    }

    fn get(&self, key: &K) -> Option<V> {
        // SAFETY: hand-over-hand read locking from the root to the leaf.
        unsafe {
            let mut node = self.acquire_root_shared();
            while !(*node).is_leaf {
                let child = (*node).child_for(key);
                (*child).lock.lock_shared();
                (*node).lock.unlock_shared();
                node = child;
            }
            let slot = (*node).lower_bound(key);
            let inner = (*node).inner();
            let result = if slot < inner.len && inner.keys[slot].assume_init_ref() == key {
                match &inner.payload {
                    Payload::Leaf(values) => Some(values[slot].assume_init()),
                    Payload::Internal { .. } => unreachable!(),
                }
            } else {
                None
            };
            (*node).lock.unlock_shared();
            result
        }
    }

    /// Removes `key`.  The common case is optimistic (reader locks down,
    /// exclusive lock on the leaf); a removal that would push the leaf to
    /// the underflow threshold retires to the root and rebalances on the
    /// way down (see the module docs).
    fn remove(&self, key: &K) -> Option<V> {
        // SAFETY: HOH locking with an exclusive lock on the leaf only.
        unsafe {
            self.tree_lock.lock_shared();
            let root = self.root.load(Ordering::Acquire);
            let root_is_leaf = (*root).is_leaf;
            if root_is_leaf {
                (*root).lock.lock_exclusive();
            } else {
                (*root).lock.lock_shared();
            }
            self.tree_lock.unlock_shared();
            let mut node = root;
            while !(*node).is_leaf {
                let child = (*node).child_for(key);
                if (*child).is_leaf {
                    (*child).lock.lock_exclusive();
                } else {
                    (*child).lock.lock_shared();
                }
                (*node).lock.unlock_shared();
                node = child;
            }
            let slot = (*node).lower_bound(key);
            let inner = (*node).inner_mut();
            if slot < inner.len && inner.keys[slot].assume_init_ref() == key {
                // A root leaf may shrink to empty; any other leaf must
                // stay above the threshold or rebalance pessimistically.
                if root_is_leaf || inner.len > Self::MIN_KEYS {
                    let old = remove_from_leaf(inner, slot);
                    (*node).lock.unlock_exclusive();
                    self.len.add(-1);
                    return Some(old);
                }
                (*node).lock.unlock_exclusive();
            } else {
                (*node).lock.unlock_exclusive();
                return None;
            }
        }
        self.remove_pessimistic(key)
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        // Batch granularity of one full leaf per re-descent.
        Cursor::new(BatchCursor::new(
            lo,
            hi,
            F,
            Box::new(move |from, max, out| self.fetch_batch(from, max, out)),
        ))
    }

    fn try_reclaim(&self) -> usize {
        self.collector.try_collect()
    }

    fn len(&self) -> usize {
        self.len.sum().max(0) as usize
    }

    fn name(&self) -> &'static str {
        if F == MASSTREE_FANOUT {
            "Masstree-lite"
        } else {
            "OCC B+-tree"
        }
    }

    fn stats(&self) -> IndexStats {
        let reclamation = self.collector.stats();
        let live_nodes = self
            .nodes_allocated
            .get()
            .saturating_sub(reclamation.retired);
        self.counters
            .snapshot()
            .with_kind("live_nodes", StatKind::Gauge, live_nodes)
            .with_reclamation(reclamation)
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    type SmallTree = OccBTree<u64, u64, 8>;

    /// One statistic of `tree`'s `stats()` snapshot.
    fn stat<const F: usize>(tree: &OccBTree<u64, u64, F>, name: &str) -> u64 {
        tree.stats().get(name).unwrap()
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = SmallTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.get(&5), None);
        assert_eq!(tree.remove(&5), None);
        assert_eq!(tree.range(&0, 10, &mut |_, _| panic!("empty")), 0);
    }

    #[test]
    fn insert_get_update_remove() {
        let tree = SmallTree::new();
        assert_eq!(tree.insert(1, 10), None);
        assert_eq!(tree.insert(2, 20), None);
        assert_eq!(tree.insert(1, 11), Some(10));
        assert_eq!(tree.get(&1), Some(11));
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.remove(&1), Some(11));
        assert_eq!(tree.get(&1), None);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn splits_propagate_and_everything_stays_reachable() {
        let tree = SmallTree::new();
        for key in 0..5000u64 {
            tree.insert(key, key * 2);
        }
        assert_eq!(tree.len(), 5000);
        assert!(
            stat(&tree, "root_write_locks") > 0,
            "splits must retire to the root"
        );
        for key in 0..5000u64 {
            assert_eq!(tree.get(&key), Some(key * 2), "missing {key}");
        }
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let tree = SmallTree::new();
        let mut keys: Vec<u64> = (0..3000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(3));
        for &key in &keys {
            tree.insert(key, !key);
        }
        for &key in &keys {
            assert_eq!(tree.get(&key), Some(!key));
        }
        let mut scanned = Vec::new();
        tree.range(&0, 5000, &mut |k, _| scanned.push(*k));
        assert_eq!(scanned, (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans_cross_leaf_boundaries() {
        let tree = SmallTree::new();
        for key in 0..200u64 {
            tree.insert(key * 2, key);
        }
        let mut seen = Vec::new();
        let count = tree.range(&101, 10, &mut |k, v| seen.push((*k, *v)));
        assert_eq!(count, 10);
        assert_eq!(seen[0], (102, 51));
        assert_eq!(seen[9], (120, 60));
    }

    #[test]
    fn differential_against_btreemap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let tree = SmallTree::new();
        let mut oracle = BTreeMap::new();
        for _ in 0..10_000 {
            let key = rng.gen_range(0..2000u64);
            match rng.gen_range(0..10) {
                0..=6 => {
                    let value = rng.gen::<u64>();
                    assert_eq!(tree.insert(key, value), oracle.insert(key, value));
                }
                7..=8 => assert_eq!(tree.remove(&key), oracle.remove(&key)),
                _ => assert_eq!(tree.get(&key), oracle.get(&key).copied()),
            }
        }
        assert_eq!(tree.len(), oracle.len());
        let mut scanned = Vec::new();
        tree.range(&0, usize::MAX - 1, &mut |k, v| scanned.push((*k, *v)));
        assert_eq!(scanned, oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let tree = Arc::new(OccBTree::<u64, u64, 16>::new());
        let threads = 8u64;
        let per_thread = 4000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let tree = Arc::clone(&tree);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = t * per_thread + i;
                        tree.insert(key, key);
                        // Read back a key inserted earlier by this thread.
                        assert_eq!(tree.get(&key), Some(key));
                    }
                });
            }
        });
        assert_eq!(tree.len() as u64, threads * per_thread);
        for key in (0..threads * per_thread).step_by(131) {
            assert_eq!(tree.get(&key), Some(key));
        }
        let mut previous = None;
        let mut count = 0usize;
        tree.range(&0, usize::MAX - 1, &mut |k, _| {
            if let Some(p) = previous {
                assert!(p < *k, "leaf chain out of order");
            }
            previous = Some(*k);
            count += 1;
        });
        assert_eq!(count as u64, threads * per_thread);
    }

    #[test]
    fn deleting_everything_shrinks_back_to_a_root_leaf() {
        let tree = SmallTree::new();
        for key in 0..5000u64 {
            tree.insert(key, key);
        }
        let grown = stat(&tree, "live_nodes");
        assert!(grown > 100, "5000 keys over 8-key nodes need many nodes");
        for key in 0..5000u64 {
            assert_eq!(tree.remove(&key), Some(key), "missing {key}");
        }
        assert!(tree.is_empty());
        assert!(stat(&tree, "nodes_merged") > 0, "merges must have happened");
        assert!(
            stat(&tree, "root_collapses") > 0,
            "the root must have collapsed"
        );
        assert_eq!(
            stat(&tree, "live_nodes"),
            1,
            "an empty tree is a single root leaf again"
        );
        // Quiesce: a few epoch advancements free the whole backlog.
        for _ in 0..8 {
            tree.try_reclaim();
        }
        let stats = tree.stats().reclamation().unwrap();
        assert_eq!(stats.backlog, 0);
        assert_eq!(stats.freed, stats.retired);
        // The tree stays fully usable after shrinking to nothing.
        assert_eq!(tree.insert(7, 70), None);
        assert_eq!(tree.get(&7), Some(70));
    }

    #[test]
    fn contiguous_deletion_merges_while_scans_continue() {
        let tree = Arc::new(OccBTree::<u64, u64, 8>::new());
        for key in 0..8000u64 {
            tree.insert(key, key);
        }
        let grown = stat(&tree, "live_nodes");
        std::thread::scope(|scope| {
            {
                let tree = Arc::clone(&tree);
                scope.spawn(move || {
                    for key in 0..7200u64 {
                        assert_eq!(tree.remove(&key), Some(key));
                    }
                });
            }
            for _ in 0..2 {
                let tree = Arc::clone(&tree);
                scope.spawn(move || {
                    for _ in 0..300 {
                        let mut previous = None;
                        tree.range(&0, 200, &mut |k, _| {
                            if let Some(p) = previous {
                                assert!(p < *k, "scan out of order under merges");
                            }
                            previous = Some(*k);
                        });
                    }
                });
            }
        });
        assert_eq!(tree.len(), 800);
        let live = stat(&tree, "live_nodes");
        assert!(
            live < grown / 4,
            "structural shrink: {live} live nodes after churn vs {grown} grown"
        );
        for key in 7200..8000u64 {
            assert_eq!(tree.get(&key), Some(key));
        }
        let mut scanned = Vec::new();
        tree.range(&0, usize::MAX - 1, &mut |k, _| scanned.push(*k));
        assert_eq!(scanned, (7200..8000).collect::<Vec<_>>());
    }

    #[test]
    fn differential_with_heavy_deletes_against_btreemap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let tree = SmallTree::new();
        let mut oracle = BTreeMap::new();
        for round in 0..6 {
            // Alternate grow-heavy and shrink-heavy phases so the tree
            // repeatedly crosses merge/collapse territory.
            let insert_weight = if round % 2 == 0 { 7 } else { 2 };
            for _ in 0..4000 {
                let key = rng.gen_range(0..1200u64);
                if rng.gen_range(0..10) < insert_weight {
                    let value = rng.gen::<u64>();
                    assert_eq!(tree.insert(key, value), oracle.insert(key, value));
                } else {
                    assert_eq!(tree.remove(&key), oracle.remove(&key));
                }
            }
            assert_eq!(tree.len(), oracle.len());
            let mut scanned = Vec::new();
            tree.range(&0, usize::MAX - 1, &mut |k, v| scanned.push((*k, *v)));
            assert_eq!(
                scanned,
                oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            );
        }
        assert!(stat(&tree, "nodes_merged") > 0);
    }

    #[test]
    fn reset_stats_zeroes_every_counter() {
        let tree = SmallTree::new();
        for key in 0..1000u64 {
            tree.insert(key, key);
        }
        for key in 0..900u64 {
            tree.remove(&key);
        }
        for name in ["root_write_locks", "nodes_merged", "root_collapses"] {
            assert!(stat(&tree, name) > 0, "{name} must move first");
        }
        let live = stat(&tree, "live_nodes");
        tree.reset_stats();
        // The collector's `ebr_*` block is cumulative by contract (the
        // churn tests compare `freed` with `retired`); every other counter
        // is the tree's own and starts over.  Gauges are levels, not
        // counts, and stay.
        for entry in tree.stats().iter() {
            if entry.kind == StatKind::Counter && !entry.name.starts_with("ebr_") {
                assert_eq!(entry.value, 0, "{} survived reset_stats", entry.name);
            }
        }
        assert_eq!(stat(&tree, "live_nodes"), live);
    }

    /// Masstree-lite is the same tree at 15 keys per node.
    mod masstree {
        use super::*;

        type Masstree = OccBTree<u64, u64, 15>;

        #[test]
        fn basic_operations() {
            let tree = Masstree::new();
            assert!(tree.is_empty());
            assert_eq!(tree.insert(1, 10), None);
            assert_eq!(tree.insert(1, 11), Some(10));
            assert_eq!(tree.get(&1), Some(11));
            assert_eq!(tree.remove(&1), Some(11));
            assert!(tree.is_empty());
        }

        #[test]
        fn narrow_nodes_split_often() {
            let tree = Masstree::new();
            for key in 0..5000u64 {
                tree.insert(key, key);
            }
            assert_eq!(tree.len(), 5000);
            // With 15-key nodes, a 5000-key build must have split many times.
            assert!(stat(&tree, "root_write_locks") > 100);
            for key in (0..5000u64).step_by(37) {
                assert_eq!(tree.get(&key), Some(key));
            }
        }

        #[test]
        fn differential_against_btreemap() {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(5);
            let tree = Masstree::new();
            let mut oracle = BTreeMap::new();
            for _ in 0..8000 {
                let key = rng.gen_range(0..1500u64);
                match rng.gen_range(0..10) {
                    0..=6 => {
                        let value = rng.gen::<u64>();
                        assert_eq!(tree.insert(key, value), oracle.insert(key, value));
                    }
                    7 => assert_eq!(tree.remove(&key), oracle.remove(&key)),
                    _ => assert_eq!(tree.get(&key), oracle.get(&key).copied()),
                }
            }
            let mut scanned = Vec::new();
            tree.range(&0, usize::MAX - 1, &mut |k, v| scanned.push((*k, *v)));
            assert_eq!(scanned, oracle.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn emptying_the_layer_retires_its_tree() {
            let tree = Masstree::new();
            for key in 0..4000u64 {
                tree.insert(key, key);
            }
            let grown = stat(&tree, "live_nodes");
            assert!(grown > 300, "15-key nodes over 4000 keys");
            for key in 0..4000u64 {
                assert_eq!(tree.remove(&key), Some(key));
            }
            // The emptied single trie layer degenerates to one root leaf —
            // the layered-Masstree equivalent of retiring the layer's tree.
            assert_eq!(stat(&tree, "live_nodes"), 1);
            assert!(stat(&tree, "nodes_merged") > 0);
            for _ in 0..8 {
                tree.try_reclaim();
            }
            let stats = tree.stats().reclamation().unwrap();
            assert_eq!(stats.backlog, 0);
            assert_eq!(stats.freed, stats.retired);
        }

        #[test]
        fn concurrent_inserts() {
            let tree = Arc::new(Masstree::new());
            std::thread::scope(|scope| {
                for t in 0..6u64 {
                    let tree = Arc::clone(&tree);
                    scope.spawn(move || {
                        for i in 0..3000u64 {
                            tree.insert(i * 6 + t, i);
                        }
                    });
                }
            });
            assert_eq!(tree.len(), 18_000);
            for key in (0..18_000u64).step_by(997) {
                assert!(tree.contains_key(&key));
            }
        }
    }
}
