//! Fixed-size B-skiplist nodes.
//!
//! A B-skiplist node stores up to `B` keys in sorted order, plus either `B`
//! values (leaf nodes, level 0) or `B` child pointers (internal nodes,
//! level > 0).  Each node also carries a `next` pointer to its right
//! neighbour at the same level and, for the left-sentinel ("head") nodes,
//! a `head_child` pointer standing in for the `-∞` entry's down pointer.
//!
//! Nodes are allocated with a fixed capacity of exactly `B` slots — the
//! paper's key practical design decision ("fixed-size physical nodes") that
//! bounds the number of element moves per insertion to `O(B)` instead of
//! `O(B log n)`.
//!
//! # Safety protocol
//!
//! Every node embeds a [`RawRwSpinLock`].  The guarded state (`len`,
//! `next`, `head_child`, keys, values, children) may only be **written**
//! while holding the node's lock in exclusive mode.  It is **read** one
//! way, through one accessor per field (`len`, `next`, `head_child`,
//! `key_at`, `value_at`, `child_at`, and `header` and `search` on top of
//! them), each a relaxed-atomic load.  What a read is worth depends on the
//! caller, not on the accessor: under the lock, shared or exclusive, it is
//! exact; without the lock it is provisional — possibly stale or *torn*
//! by an overlapping writer — until the caller validates the version it
//! captured before reading ([`RawRwSpinLock::optimistic_version`] /
//! [`RawRwSpinLock::validate_version`]).  An unlocked reader must also
//! hold an EBR guard pinned from before its first dereference: retired
//! nodes stay mapped through the grace period, so even a pointer read from
//! a torn slot is dereferenceable — just invalid, and rejected by
//! validation.
//!
//! To make those races defined behaviour, every store is a relaxed atomic
//! too: single-word fields (`len`, `next`, `head_child`, children) are
//! plain atomics, and the key/value arrays are read and written via
//! [`bskip_sync::racy`] (chunked relaxed-atomic loads and stores).  A
//! stored `len` is always `<= B`, so a slot index bounded by it stays in
//! the array even when it is stale.  The slot arrays are zero-initialized
//! at allocation so that loads never touch uninitialized bytes.  This
//! constrains `K` and `V` to types where any initialized bit pattern is a
//! valid value, which the index key/value traits' `Copy + 'static`
//! universe (integers, byte arrays) satisfies; it is documented as part of
//! the crate-level optimistic-read contract.
//!
//! The `level` and `is_head` fields are immutable after construction and
//! may be read freely in either mode.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use bskip_sync::{racy, RawRwSpinLock};

/// Outcome of searching for a key inside one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeSearch {
    /// The key is present at this index.
    Found(usize),
    /// The key is absent; the largest key smaller than it is at this index.
    Pred(usize),
    /// The key is absent and smaller than every key in the node.  Only
    /// meaningful for head (sentinel) nodes, whose implicit `-∞` entry is
    /// the predecessor.
    Before,
}

/// Per-level payload of a node: values at the leaf level, child pointers at
/// internal levels.
///
/// The discriminant is fixed at allocation (a node never changes kind), so
/// matching on it is safe in both read modes; the payloads themselves
/// follow the node's safety protocol.
pub(crate) enum Data<K, V, const B: usize> {
    /// Leaf payload: one value per key.
    Leaf(UnsafeCell<[MaybeUninit<V>; B]>),
    /// Internal payload: one down pointer per key; `children[i]` points to
    /// the node at the level below whose header key equals `keys[i]`.
    Internal([AtomicPtr<Node<K, V, B>>; B]),
}

/// A fixed-size B-skiplist node.
///
/// Aligned to a cache-line boundary so that the lock word, length and the
/// first few keys of a node share a line — the point of blocking the
/// skiplist is that a node scan touches `⌈B·sizeof(K)/64⌉` consecutive lines
/// instead of one line per element.
#[repr(align(64))]
pub(crate) struct Node<K, V, const B: usize> {
    /// Reader-writer lock (with optimistic version word) guarding the
    /// mutable state below.
    pub(crate) lock: RawRwSpinLock,
    /// Level of this node (0 = leaf).
    level: u8,
    /// Whether this node is the left sentinel of its level.
    is_head: bool,
    /// Number of occupied key slots.  A single word, so racy readers see a
    /// genuine (if possibly stale) length, never a torn one; every stored
    /// value is `<= B`, which keeps unvalidated slot indices in bounds.
    len: AtomicUsize,
    /// Right neighbour at the same level; null at the end of the level.
    next: AtomicPtr<Self>,
    /// Down pointer of the implicit `-∞` entry; only used by head nodes at
    /// levels greater than zero.
    head_child: AtomicPtr<Self>,
    /// Sorted keys; slots `0..len` are live, all `B` slots are initialized
    /// (zeroed at allocation) so racy loads are always defined.
    keys: UnsafeCell<[MaybeUninit<K>; B]>,
    /// Values (leaf) or children (internal) aligned with `keys`.
    data: Data<K, V, B>,
}

impl<K, V, const B: usize> Node<K, V, B>
where
    K: Copy + Ord,
    V: Copy,
{
    /// Allocates an empty leaf node and leaks it, returning the raw pointer.
    pub(crate) fn alloc_leaf(is_head: bool) -> *mut Self {
        Box::into_raw(Box::new(Node {
            lock: RawRwSpinLock::new(),
            level: 0,
            is_head,
            len: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            head_child: AtomicPtr::new(ptr::null_mut()),
            keys: UnsafeCell::new([const { MaybeUninit::zeroed() }; B]),
            data: Data::Leaf(UnsafeCell::new([const { MaybeUninit::zeroed() }; B])),
        }))
    }

    /// Allocates an empty internal node at `level > 0` and leaks it.
    pub(crate) fn alloc_internal(level: u8, is_head: bool) -> *mut Self {
        debug_assert!(level > 0, "internal nodes live at levels above zero");
        Box::into_raw(Box::new(Node {
            lock: RawRwSpinLock::new(),
            level,
            is_head,
            len: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            head_child: AtomicPtr::new(ptr::null_mut()),
            keys: UnsafeCell::new([const { MaybeUninit::zeroed() }; B]),
            data: Data::Internal([const { AtomicPtr::new(ptr::null_mut()) }; B]),
        }))
    }

    /// Frees a node previously allocated by [`Node::alloc_leaf`] or
    /// [`Node::alloc_internal`].
    ///
    /// # Safety
    ///
    /// `node` must be a valid pointer obtained from one of the allocation
    /// functions, must not be referenced by any other thread, and must not
    /// be freed twice.  Keys and values are `Copy`, so no per-element drop
    /// is required.
    pub(crate) unsafe fn free(node: *mut Self) {
        drop(Box::from_raw(node));
    }

    /// Level of the node (immutable, lock-free).
    #[inline]
    pub(crate) fn level(&self) -> u8 {
        self.level
    }

    /// Whether the node is a left sentinel (immutable, lock-free).
    #[inline]
    pub(crate) fn is_head(&self) -> bool {
        self.is_head
    }

    /// Base pointer of the key slot array.
    #[inline]
    fn keys_ptr(&self) -> *mut MaybeUninit<K> {
        self.keys.get() as *mut MaybeUninit<K>
    }

    /// Base pointer of the value slot array (leaf nodes only).
    #[inline]
    fn values_ptr(&self) -> *mut MaybeUninit<V> {
        match &self.data {
            Data::Leaf(values) => values.get() as *mut MaybeUninit<V>,
            Data::Internal(_) => unreachable!("values_ptr called on an internal node"),
        }
    }

    /// The child pointer slots (internal nodes only).
    #[inline]
    fn children(&self) -> &[AtomicPtr<Self>; B] {
        match &self.data {
            Data::Internal(children) => children,
            Data::Leaf(_) => unreachable!("children called on a leaf node"),
        }
    }

    /// Publishes a new length.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively and `len <= B`.
    #[inline]
    unsafe fn set_len(&self, len: usize) {
        debug_assert!(len <= B);
        self.len.store(len, Ordering::Relaxed);
    }

    /// Number of keys stored.
    ///
    /// # Safety
    ///
    /// The node's lock must be held (shared or exclusive) for an exact
    /// answer; optimistic readers may call it unlocked and treat the
    /// result as provisional until their version validates.  Either way
    /// the value is a genuine previously-published length (`<= B`), never
    /// a torn word.
    #[inline]
    pub(crate) unsafe fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the node holds no keys.
    ///
    /// # Safety
    ///
    /// As for [`Node::len`].
    #[inline]
    pub(crate) unsafe fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the node is full.
    ///
    /// # Safety
    ///
    /// As for [`Node::len`].
    #[inline]
    pub(crate) unsafe fn is_full(&self) -> bool {
        self.len() == B
    }

    /// Right neighbour at this level (null if none).
    ///
    /// # Safety
    ///
    /// As for [`Node::len`]: exact under the lock, provisional (but never
    /// torn — single word) for optimistic readers.
    #[inline]
    pub(crate) unsafe fn next(&self) -> *mut Self {
        self.next.load(Ordering::Relaxed)
    }

    /// Sets the right neighbour.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively.
    #[inline]
    pub(crate) unsafe fn set_next(&self, next: *mut Self) {
        self.next.store(next, Ordering::Relaxed);
    }

    /// Down pointer of the implicit `-∞` entry (head nodes only).
    ///
    /// # Safety
    ///
    /// As for [`Node::len`] (head nodes only).
    #[inline]
    pub(crate) unsafe fn head_child(&self) -> *mut Self {
        debug_assert!(self.is_head);
        self.head_child.load(Ordering::Relaxed)
    }

    /// Sets the `-∞` down pointer (head nodes only; done once at
    /// construction of the skiplist spine).
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively, or the node must not yet be
    /// shared with other threads.
    #[inline]
    pub(crate) unsafe fn set_head_child(&self, child: *mut Self) {
        debug_assert!(self.is_head);
        self.head_child.store(child, Ordering::Relaxed);
    }

    /// The header (smallest) key of the node: [`Node::key_at`] of slot 0.
    ///
    /// # Safety
    ///
    /// As for [`Node::key_at`]; the node must be non-empty for the answer
    /// to be a key (an empty node's slot 0 holds a stale or zeroed one).
    #[inline]
    pub(crate) unsafe fn header(&self) -> K {
        self.key_at(0)
    }

    /// Key at slot `index`: exact under the node's lock when
    /// `index < len()`, provisional without it (see the module docs).
    ///
    /// # Safety
    ///
    /// `index < B` (bounded by a length read through [`Node::len`]).
    #[inline]
    pub(crate) unsafe fn key_at(&self, index: usize) -> K {
        debug_assert!(index < B);
        racy::load(self.keys_ptr().add(index) as *const K)
    }

    /// Value at slot `index` (leaf nodes only); read like [`Node::key_at`].
    ///
    /// # Safety
    ///
    /// The node must be a leaf and `index < B`.
    #[inline]
    pub(crate) unsafe fn value_at(&self, index: usize) -> V {
        debug_assert!(index < B);
        racy::load(self.values_ptr().add(index) as *const V)
    }

    /// Overwrites the value at slot `index`, returning the previous value.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively, the node must be a leaf and
    /// `index < len()`.
    #[inline]
    pub(crate) unsafe fn replace_value_at(&self, index: usize, value: V) -> V {
        debug_assert!(index < self.len());
        let old = self.value_at(index);
        racy::store(self.values_ptr().add(index) as *mut V, value);
        old
    }

    /// Child pointer at slot `index` (internal nodes only).  One
    /// single-word atomic load, so it serves both read modes: under the
    /// node's lock it is the down pointer of `keys[index]`; read
    /// optimistically it is never torn — but possibly stale or belonging
    /// to a different separator key than the reader thinks, and only
    /// validation makes it meaningful.
    ///
    /// # Safety
    ///
    /// The node must be internal and `index < len()` under its lock,
    /// `index < B` without.
    #[inline]
    pub(crate) unsafe fn child_at(&self, index: usize) -> *mut Self {
        debug_assert!(index < B);
        self.children()[index].load(Ordering::Relaxed)
    }

    /// Overwrites the child pointer at slot `index` (internal nodes only).
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively, the node must be internal
    /// and `index < len()`.
    #[inline]
    pub(crate) unsafe fn set_child_at(&self, index: usize, child: *mut Self) {
        debug_assert!(index < self.len());
        self.children()[index].store(child, Ordering::Relaxed);
    }

    /// Number of the first `len` keys strictly less than `key`: the
    /// branchless in-node search core.
    ///
    /// Every node visit of every operation funnels through this, so it is
    /// written for the branch predictor rather than for the comparison
    /// count: a *branchless* binary search whose loop runs exactly
    /// `ceil(log2(len))` iterations for a given occupancy — the trip count
    /// depends on `len` alone, never on the probed key, and the interval
    /// update is a select over two precomputed values (`cmov` material for
    /// the backend) instead of the classic three-way `Ordering` ladder
    /// whose per-probe taken/not-taken pattern is exactly what a random
    /// key stream makes unpredictable.  Equality is resolved once by the
    /// caller ([`Node::search`]) after the loop, not per probe.  The result
    /// is in `0..=len` whatever the probes read.
    ///
    /// # Safety
    ///
    /// `len <= B`.
    #[inline]
    unsafe fn keys_below(&self, key: &K, mut len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut low = 0usize;
        while len > 1 {
            let half = len / 2;
            // Select, not branch: both operands are computed and `low`
            // picks one.  (A conditional jump here would mispredict every
            // other probe on uniform keys.)
            let probe = self.key_at(low + half - 1);
            low = if probe < *key { low + half } else { low };
            len -= half;
        }
        low + usize::from(self.key_at(low) < *key)
    }

    /// Binary-searches the node for `key`.
    ///
    /// Returns [`NodeSearch::Found`] with the slot when present, otherwise
    /// the predecessor slot ([`NodeSearch::Pred`]) or [`NodeSearch::Before`]
    /// when `key` is smaller than every stored key (which only happens for
    /// head nodes during correct traversals).  Built on the branchless
    /// [`Node::keys_below`] core with a single trailing equality check.
    /// Read like every other accessor: exact under the lock, provisional
    /// without it, and any slot it names is `< len() <= B` either way.
    ///
    /// # Safety
    ///
    /// None beyond the node being alive.
    #[inline]
    pub(crate) unsafe fn search(&self, key: &K) -> NodeSearch {
        let len = self.len();
        let below = self.keys_below(key, len);
        if below < len && self.key_at(below) == *key {
            NodeSearch::Found(below)
        } else if below == 0 {
            NodeSearch::Before
        } else {
            NodeSearch::Pred(below - 1)
        }
    }

    /// Inserts `key`/`value` at slot `index`, shifting later slots right.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively, the node must be a leaf,
    /// not full, and `index <= len()`.
    pub(crate) unsafe fn insert_leaf_at(&self, index: usize, key: K, value: V) {
        let len = self.len();
        debug_assert!(len < B);
        debug_assert!(index <= len);
        let keys = self.keys_ptr() as *mut K;
        racy::copy(keys.add(index), keys.add(index + 1), len - index);
        racy::store(keys.add(index), key);
        let values = self.values_ptr() as *mut V;
        racy::copy(values.add(index), values.add(index + 1), len - index);
        racy::store(values.add(index), value);
        self.set_len(len + 1);
    }

    /// Inserts `key` with down pointer `child` at slot `index`, shifting
    /// later slots right.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively, the node must be internal,
    /// not full, and `index <= len()`.
    pub(crate) unsafe fn insert_internal_at(&self, index: usize, key: K, child: *mut Self) {
        let len = self.len();
        debug_assert!(len < B);
        debug_assert!(index <= len);
        let keys = self.keys_ptr() as *mut K;
        racy::copy(keys.add(index), keys.add(index + 1), len - index);
        racy::store(keys.add(index), key);
        let children = self.children();
        for slot in (index..len).rev() {
            let moved = children[slot].load(Ordering::Relaxed);
            children[slot + 1].store(moved, Ordering::Relaxed);
        }
        children[index].store(child, Ordering::Relaxed);
        self.set_len(len + 1);
    }

    /// Removes the entry at slot `index`, shifting later slots left.
    /// Returns the removed value for leaf nodes and `None` for internal
    /// nodes.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively and `index < len()`.
    pub(crate) unsafe fn remove_at(&self, index: usize) -> Option<V> {
        let len = self.len();
        debug_assert!(index < len);
        let keys = self.keys_ptr() as *mut K;
        racy::copy(keys.add(index + 1), keys.add(index), len - index - 1);
        let removed = match &self.data {
            Data::Leaf(_) => {
                let values = self.values_ptr() as *mut V;
                let value = self.value_at(index);
                racy::copy(values.add(index + 1), values.add(index), len - index - 1);
                Some(value)
            }
            Data::Internal(children) => {
                for slot in index + 1..len {
                    let moved = children[slot].load(Ordering::Relaxed);
                    children[slot - 1].store(moved, Ordering::Relaxed);
                }
                None
            }
        };
        self.set_len(len - 1);
        removed
    }

    /// Moves all entries in slots `from..len()` of `self` into `dst`,
    /// appending them after `dst`'s current entries.  Used by overflow and
    /// promotion splits, which move a suffix into the new right node, and
    /// — with `from == 0` and `dst` the left neighbour — by the fold that
    /// undoes a split when a header removal leaves survivors that fit
    /// back into the node they were split from.
    ///
    /// # Safety
    ///
    /// Both nodes' locks must be held exclusively, both nodes must be at the
    /// same level and of the same kind (leaf/internal), `from <= self.len()`
    /// and `dst.len() + (self.len() - from) <= B`.
    pub(crate) unsafe fn move_suffix_to(&self, from: usize, dst: &Self) {
        let src_len = self.len();
        let dst_len = dst.len();
        let count = src_len - from;
        debug_assert!(dst_len + count <= B);
        let src_keys = self.keys_ptr() as *const K;
        let dst_keys = dst.keys_ptr() as *mut K;
        for offset in 0..count {
            // Plain read from `self` (exclusively locked: nothing races a
            // read), racy store into `dst` (optimistic readers may probe).
            racy::store(dst_keys.add(dst_len + offset), *src_keys.add(from + offset));
        }
        match (&self.data, &dst.data) {
            (Data::Leaf(_), Data::Leaf(_)) => {
                let src_values = self.values_ptr() as *const V;
                let dst_values = dst.values_ptr() as *mut V;
                for offset in 0..count {
                    racy::store(
                        dst_values.add(dst_len + offset),
                        *src_values.add(from + offset),
                    );
                }
            }
            (Data::Internal(src_children), Data::Internal(dst_children)) => {
                for offset in 0..count {
                    let moved = src_children[from + offset].load(Ordering::Relaxed);
                    dst_children[dst_len + offset].store(moved, Ordering::Relaxed);
                }
            }
            _ => unreachable!("move_suffix_to across node kinds"),
        }
        dst.set_len(dst_len + count);
        self.set_len(from);
    }

    /// Appends a single `key`/`value` pair to a leaf node.
    ///
    /// # Safety
    ///
    /// The node's lock must be held exclusively (or the node must be
    /// thread-private), the node must be a non-full leaf, and `key` must be
    /// greater than every key already stored.
    pub(crate) unsafe fn push_leaf(&self, key: K, value: V) {
        let len = self.len();
        self.insert_leaf_at(len, key, value);
    }

    /// Appends a single `key`/`child` pair to an internal node.
    ///
    /// # Safety
    ///
    /// As for [`Node::push_leaf`], but for internal nodes.
    pub(crate) unsafe fn push_internal(&self, key: K, child: *mut Self) {
        let len = self.len();
        self.insert_internal_at(len, key, child);
    }

    /// Copies the keys in slots `0..len()` into a `Vec` (test/validation
    /// helper).
    #[cfg_attr(not(test), allow(dead_code))]
    ///
    /// # Safety
    ///
    /// The node's lock must be held (shared or exclusive).
    pub(crate) unsafe fn keys_vec(&self) -> Vec<K> {
        (0..self.len()).map(|i| self.key_at(i)).collect()
    }
}

/// Best-effort prefetch of the first cache line of the node `ptr` points
/// at (lock word, level, `len`, `next` and the leading keys all share it —
/// see the `#[repr(align(64))]` layout note on [`Node`]).
///
/// Traversals call this as soon as a neighbour/child pointer is *known*
/// but before it is *locked*, overlapping the line fill with the work
/// still to do on the current node (header checks, stat bumps, unlocking).
/// A prefetch is a hint: it never faults, so no precondition is placed on
/// `ptr` beyond non-null, and on architectures without a stable prefetch
/// intrinsic it compiles to nothing.
#[inline(always)]
pub(crate) fn prefetch_node<K, V, const B: usize>(ptr: *mut Node<K, V, B>) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is architecturally incapable of faulting and
    // SSE is baseline on x86_64.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestNode = Node<u64, u64, 8>;

    #[test]
    fn node_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<TestNode>() % 64, 0);
    }

    #[test]
    fn leaf_insert_search_remove() {
        // SAFETY: the leaf is allocated here and never shared: no other
        // thread can reach it, so this thread's exclusive access stands in
        // for the locks the mutators require; every index is within its
        // length, and it is freed once, last.
        unsafe {
            let node = TestNode::alloc_leaf(false);
            let node_ref = &*node;
            assert!(node_ref.is_empty());
            node_ref.insert_leaf_at(0, 10, 100);
            node_ref.insert_leaf_at(1, 30, 300);
            node_ref.insert_leaf_at(1, 20, 200);
            assert_eq!(node_ref.len(), 3);
            assert_eq!(node_ref.keys_vec(), vec![10, 20, 30]);
            assert_eq!(node_ref.header(), 10);
            assert_eq!(node_ref.value_at(1), 200);

            assert_eq!(node_ref.search(&20), NodeSearch::Found(1));
            assert_eq!(node_ref.search(&25), NodeSearch::Pred(1));
            assert_eq!(node_ref.search(&5), NodeSearch::Before);
            assert_eq!(node_ref.search(&35), NodeSearch::Pred(2));

            assert_eq!(node_ref.remove_at(1), Some(200));
            assert_eq!(node_ref.keys_vec(), vec![10, 30]);
            assert_eq!(node_ref.value_at(1), 300);
            TestNode::free(node);
        }
    }

    #[test]
    fn replace_value_returns_old() {
        // SAFETY: the leaf is allocated here and never shared: no other
        // thread can reach it, so this thread's exclusive access stands in
        // for the locks the mutators require; slot 0 is occupied, and the
        // leaf is freed once, last.
        unsafe {
            let node = TestNode::alloc_leaf(false);
            (*node).insert_leaf_at(0, 1, 10);
            assert_eq!((*node).replace_value_at(0, 11), 10);
            assert_eq!((*node).value_at(0), 11);
            TestNode::free(node);
        }
    }

    #[test]
    fn internal_insert_and_children_track_keys() {
        // SAFETY: all four nodes are allocated here and never shared: no
        // other thread can reach them, so this thread's exclusive access
        // stands in for the locks the mutators require; the child accessors
        // run on the internal node within its length, and each node is
        // freed once, last.
        unsafe {
            let internal = TestNode::alloc_internal(1, false);
            let child_a = TestNode::alloc_leaf(false);
            let child_b = TestNode::alloc_leaf(false);
            (*internal).insert_internal_at(0, 5, child_a);
            (*internal).insert_internal_at(1, 9, child_b);
            assert_eq!((*internal).child_at(0), child_a);
            assert_eq!((*internal).child_at(1), child_b);
            // Insert in the middle shifts children along with keys.
            let child_c = TestNode::alloc_leaf(false);
            (*internal).insert_internal_at(1, 7, child_c);
            assert_eq!((*internal).keys_vec(), vec![5, 7, 9]);
            assert_eq!((*internal).child_at(1), child_c);
            assert_eq!((*internal).child_at(2), child_b);
            (*internal).remove_at(1);
            assert_eq!((*internal).child_at(1), child_b);
            TestNode::free(child_a);
            TestNode::free(child_b);
            TestNode::free(child_c);
            TestNode::free(internal);
        }
    }

    #[test]
    fn move_suffix_splits_leaf() {
        // SAFETY: both leaves are allocated here and never shared: no other
        // thread can reach them, so this thread's exclusive access stands
        // in for the locks the mutators require; the split point is within
        // the source's length, and each leaf is freed once, last.
        unsafe {
            let left = TestNode::alloc_leaf(false);
            let right = TestNode::alloc_leaf(false);
            for i in 0..6u64 {
                (*left).push_leaf(i, i * 10);
            }
            (*left).move_suffix_to(3, &*right);
            assert_eq!((*left).keys_vec(), vec![0, 1, 2]);
            assert_eq!((*right).keys_vec(), vec![3, 4, 5]);
            assert_eq!((*right).value_at(2), 50);
            TestNode::free(left);
            TestNode::free(right);
        }
    }

    #[test]
    fn move_suffix_appends_after_existing_entries() {
        // SAFETY: both leaves are allocated here and never shared: no other
        // thread can reach them, so this thread's exclusive access stands
        // in for the locks the mutators require; the moved entries fit the
        // destination, and each leaf is freed once, last.
        unsafe {
            let left = TestNode::alloc_leaf(false);
            let right = TestNode::alloc_leaf(false);
            for i in 0..4u64 {
                (*left).push_leaf(10 + i, i);
            }
            (*right).push_leaf(9, 999);
            (*left).move_suffix_to(2, &*right);
            assert_eq!((*right).keys_vec(), vec![9, 12, 13]);
            assert_eq!((*left).keys_vec(), vec![10, 11]);
            TestNode::free(left);
            TestNode::free(right);
        }
    }

    #[test]
    fn move_whole_prefix_empties_the_source() {
        // The fold: `from == 0` moves *everything* into the left
        // neighbour, leaving the source empty (ready for the unlink).
        // SAFETY: both leaves are allocated here and never shared: no other
        // thread can reach them, so this thread's exclusive access stands
        // in for the locks the mutators require; all six entries fit the
        // destination, and each leaf is freed once, last.
        unsafe {
            let left = TestNode::alloc_leaf(false);
            let right = TestNode::alloc_leaf(false);
            for i in 0..3u64 {
                (*left).push_leaf(i, i);
                (*right).push_leaf(100 + i, i);
            }
            (*right).move_suffix_to(0, &*left);
            assert!((*right).is_empty());
            assert_eq!((*left).keys_vec(), vec![0, 1, 2, 100, 101, 102]);
            assert_eq!((*left).value_at(5), 2);
            TestNode::free(left);
            TestNode::free(right);
        }
    }

    #[test]
    fn move_suffix_splits_internal_with_children() {
        // SAFETY: every node is allocated here and never shared: no other
        // thread can reach them, so this thread's exclusive access stands
        // in for the locks the mutators require; both sides are internal
        // nodes of one level, the moved entries fit, and each node is freed
        // once, last.
        unsafe {
            let left = TestNode::alloc_internal(2, false);
            let right = TestNode::alloc_internal(2, false);
            let mut children = Vec::new();
            for i in 0..5u64 {
                let child = TestNode::alloc_internal(1, false);
                children.push(child);
                (*left).push_internal(i, child);
            }
            (*left).move_suffix_to(2, &*right);
            assert_eq!((*left).keys_vec(), vec![0, 1]);
            assert_eq!((*right).keys_vec(), vec![2, 3, 4]);
            assert_eq!((*right).child_at(0), children[2]);
            assert_eq!((*right).child_at(2), children[4]);
            for child in children {
                TestNode::free(child);
            }
            TestNode::free(left);
            TestNode::free(right);
        }
    }

    #[test]
    fn keys_below_matches_a_linear_scan_for_every_occupancy() {
        // SAFETY: the leaf is allocated here and never shared, so every
        // read of it is exact; at most 8 entries are pushed into its 8
        // slots, and it is freed once, last.
        unsafe {
            let node = TestNode::alloc_leaf(false);
            for len in 0..=8usize {
                for probe in 0..90u64 {
                    let expected = (0..len).filter(|i| ((i + 1) as u64) * 10 < probe).count();
                    assert_eq!(
                        (*node).keys_below(&probe, (*node).len()),
                        expected,
                        "len {len} probe {probe}"
                    );
                    // And the full search agrees with the classic one.
                    let search = (*node).search(&probe);
                    let stored = (1..=len as u64).map(|i| i * 10).collect::<Vec<_>>();
                    match search {
                        NodeSearch::Found(idx) => assert_eq!(stored[idx], probe),
                        NodeSearch::Pred(idx) => {
                            assert!(stored[idx] < probe);
                            assert!(stored.get(idx + 1).is_none_or(|next| *next > probe));
                        }
                        NodeSearch::Before => assert!(stored.first().is_none_or(|k| *k > probe)),
                    }
                }
                if len < 8 {
                    (*node).push_leaf(((len + 1) as u64) * 10, 0);
                }
            }
            TestNode::free(node);
        }
    }

    #[test]
    fn prefetch_is_a_harmless_hint() {
        // SAFETY: the leaf is allocated here, never shared, and freed once.
        unsafe {
            let node = TestNode::alloc_leaf(false);
            prefetch_node(node);
            TestNode::free(node);
        }
        // Even a dangling-but-non-null pointer must not fault.
        prefetch_node(std::ptr::NonNull::<TestNode>::dangling().as_ptr());
    }

    #[test]
    fn search_on_empty_head_node_reports_before() {
        // SAFETY: the head node is allocated here, never shared, and freed
        // once after an unlocked search of it, which is exact while no
        // other thread can reach it.
        unsafe {
            let head = TestNode::alloc_leaf(true);
            assert!((*head).is_head());
            assert_eq!((*head).search(&42), NodeSearch::Before);
            TestNode::free(head);
        }
    }

    #[test]
    fn full_node_detection() {
        // SAFETY: the leaf is allocated here and never shared: no other
        // thread can reach it, so this thread's exclusive access stands in
        // for the locks the mutators require; exactly 8 entries fill its 8
        // slots, and it is freed once, last.
        unsafe {
            let node = TestNode::alloc_leaf(false);
            for i in 0..8u64 {
                (*node).push_leaf(i, i);
            }
            assert!((*node).is_full());
            TestNode::free(node);
        }
    }

    #[test]
    fn head_child_roundtrip() {
        // SAFETY: both head nodes are allocated here and never shared, so
        // the upper one is not yet visible to any other thread, as
        // `set_head_child` requires; each is freed once, last.
        unsafe {
            let upper = TestNode::alloc_internal(1, true);
            let lower = TestNode::alloc_leaf(true);
            (*upper).set_head_child(lower);
            assert_eq!((*upper).head_child(), lower);
            TestNode::free(upper);
            TestNode::free(lower);
        }
    }

    #[test]
    fn next_pointer_roundtrip() {
        // SAFETY: both leaves are allocated here and never shared: no other
        // thread can reach them, so this thread's exclusive access stands
        // in for the locks the mutators require; each is freed once, last.
        unsafe {
            let a = TestNode::alloc_leaf(false);
            let b = TestNode::alloc_leaf(false);
            assert!((*a).next().is_null());
            (*a).set_next(b);
            assert_eq!((*a).next(), b);
            TestNode::free(a);
            TestNode::free(b);
        }
    }
}
