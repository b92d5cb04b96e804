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
//! while holding the node's lock in exclusive mode, which is why every
//! mutator is a method of the lock's [`WriteGuard`] and of nothing else:
//! holding one is the proof (`guard.rs`).  It is **read** one way, through
//! one safe accessor per field (`len`, `next`, `head_child`, `key_at`,
//! `value_at`, `child_at`, and `header` and `search` on top of them), each
//! one atomic load.  What a read is worth depends on the caller, not
//! on the accessor: under the lock, shared or exclusive, it is exact;
//! without the lock it is provisional — possibly stale or *torn* by an
//! overlapping writer — until the caller validates the version it
//! captured before reading ([`RawRwSpinLock::optimistic_version`] /
//! [`RawRwSpinLock::validate_version`]).  Nodes are reached through
//! [`NodeRef`] handles, which exist only under an epoch pin taken before
//! the first dereference: retired nodes stay mapped through the grace
//! period, so even a pointer read from a torn slot is dereferenceable —
//! just invalid, and rejected by validation.
//!
//! Every field is a cell whose races are defined behaviour: single-word
//! fields (`len`, `next`, `head_child`, children) are plain atomics, and
//! keys and values are [`RacyCell`]s, which is why `K` and `V` are bound
//! by [`Racy`]: a torn key is still a key, so comparing it before
//! validation is harmless.  Slots start out holding [`Racy::ZERO`], and a
//! slot index is bounds-checked against `B`.
//!
//! Publication follows one rule: every mutator store that can make a slot
//! or a node visible — `len`, `next` and the child slots — is `Release`,
//! and every accessor load of those fields (`len`, `next_ptr`,
//! `child_ptr`, `head_child_ptr`) is `Acquire`.  So a reader that sees a
//! new `len` also sees the slots written before it, and a reader that
//! loads a pointer to a node also sees that node's initialisation and
//! every store made before the pointer was published — on any CPU, not
//! only on x86-64, where both are plain `mov`s.  Keys and values stay
//! relaxed: a stale or torn one is a value, and validation rejects it.
//! The mutators' own loads of child slots run under the exclusive lock,
//! which already orders them, and stay relaxed.
//!
//! The `level` and `is_head` fields are immutable after construction and
//! may be read freely in either mode.
//!
//! # Tracing
//!
//! What a node tells a [`Tracer`] are byte ranges of this type's own
//! layout, with the node's address as its id: the header and a prefix of
//! `keys` ([`Node::trace_prefix`], what a search or a walk-right peek
//! reads), runs of key and payload slots, and the node's footprint when
//! [`Node::alloc`] announces it.  [`Node::search`] and the mutators report
//! what they read or write themselves; the lock word, `len` and `next` sit
//! in the header that every search and peek reports, so their own writes
//! report nothing.

use std::mem;
use std::ops::Range;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use bskip_index::trace::Tracer;
use bskip_sync::{Racy, RacyCell, RawRwSpinLock};

use crate::guard::{NodeRef, WriteGuard};

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
    Leaf([RacyCell<V>; B]),
    /// Internal payload: one down pointer per key; `children[i]` points to
    /// the node at the level below whose header key equals `keys[i]`.
    Internal([AtomicPtr<Node<K, V, B>>; B]),
}

/// A fixed-size B-skiplist node.
///
/// Header first: `repr(C)` keeps the declaration order and the 64-byte
/// alignment starts it on a line, so the lock word, `level`, `is_head`,
/// `len`, `next`, `head_child` and the first three keys (at `K = u64`)
/// share line 0 — the line every lock acquire, walk-right peek and
/// [`prefetch_node`] touches first.  The keys follow contiguously, so an
/// in-node search touches only the consecutive lines of `keys[..len]`
/// (the point of blocking the skiplist), which [`Node::search`]
/// prefetches before its first probe; the payload comes last.
#[repr(C, align(64))]
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
    /// value is `<= B`.
    len: AtomicUsize,
    /// Right neighbour at the same level; null at the end of the level.
    next: AtomicPtr<Self>,
    /// Down pointer of the implicit `-∞` entry; only used by head nodes at
    /// levels greater than zero.
    head_child: AtomicPtr<Self>,
    /// Sorted keys; slots `0..len` are live.
    keys: [RacyCell<K>; B],
    /// Values (leaf) or children (internal) aligned with `keys`.
    data: Data<K, V, B>,
}

/// Moves `cells[..n - 1]` one slot right into `cells[1..]`, last first so
/// every cell is read before it is overwritten; `cells[0]` keeps its value.
fn shift_right<T: Racy>(cells: &[RacyCell<T>]) {
    for slot in (1..cells.len()).rev() {
        cells[slot].set(cells[slot - 1].get());
    }
}

/// Moves `cells[1..]` one slot left into `cells[..n - 1]`, first first;
/// the last cell keeps its value.
fn shift_left<T: Racy>(cells: &[RacyCell<T>]) {
    for slot in 1..cells.len() {
        cells[slot - 1].set(cells[slot].get());
    }
}

impl<K, V, const B: usize> Node<K, V, B>
where
    K: Racy + Ord,
    V: Racy,
{
    /// Allocates an empty node at `level`, leaks it and announces it to
    /// `tracer`: a leaf at level 0, an internal node above.  `head_child`
    /// is a head node's `-∞` down pointer, null otherwise; it is never
    /// changed afterwards.
    pub(crate) fn alloc(
        level: usize,
        is_head: bool,
        head_child: *mut Self,
        tracer: &impl Tracer,
    ) -> NonNull<Self> {
        let data = if level == 0 {
            Data::Leaf([const { RacyCell::new(V::ZERO) }; B])
        } else {
            Data::Internal([const { AtomicPtr::new(ptr::null_mut()) }; B])
        };
        let node = NonNull::from(Box::leak(Box::new(Node {
            lock: RawRwSpinLock::new(),
            level: level as u8,
            is_head,
            len: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            head_child: AtomicPtr::new(head_child),
            keys: [const { RacyCell::new(K::ZERO) }; B],
            data,
        })));
        tracer.node_allocated(node.as_ptr().addr(), mem::size_of::<Self>());
        node
    }

    /// Frees a node that was never published, consuming its write guard
    /// without unlocking it.
    ///
    /// # Safety
    ///
    /// No pointer to the node was ever stored where another thread can
    /// read it, and no other handle on it is used again.
    pub(crate) unsafe fn free(node: WriteGuard<'_, K, V, B>) {
        let ptr = node.as_ptr();
        mem::forget(node);
        // SAFETY: `Node::alloc` made the node with `Box::leak`, and per the
        // contract above nothing else can reach it; its keys and values are
        // `Copy`, so no per-element drop is owed.
        drop(unsafe { Box::from_raw(ptr) });
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

    /// The value slots (leaf nodes only).
    #[inline]
    fn values(&self) -> &[RacyCell<V>; B] {
        match &self.data {
            Data::Leaf(values) => values,
            Data::Internal(_) => unreachable!("values called on an internal node"),
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

    /// Publishes a new length (`<= B`); only the write guard's mutators
    /// call it.
    #[inline]
    fn set_len(&self, len: usize) {
        debug_assert!(len <= B);
        self.len.store(len, Ordering::Release);
    }

    /// Number of keys stored: exact under the node's lock, provisional
    /// without it, and never torn (a single word, `<= B`).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the node holds no keys; read like [`Node::len`].
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the node is full; read like [`Node::len`].
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.len() == B
    }

    /// Right neighbour at this level (null if none), read like
    /// [`Node::len`]; [`NodeRef::next`] is the handle form.
    #[inline]
    pub(crate) fn next_ptr(&self) -> *mut Self {
        self.next.load(Ordering::Acquire)
    }

    /// Down pointer of the implicit `-∞` entry (head nodes only), read
    /// like [`Node::len`]; [`NodeRef::head_child`] is the handle form.
    #[inline]
    pub(crate) fn head_child_ptr(&self) -> *mut Self {
        debug_assert!(self.is_head);
        self.head_child.load(Ordering::Acquire)
    }

    /// The header (smallest) key of the node: [`Node::key_at`] of slot 0,
    /// a key only if the node is non-empty (an empty node's slot 0 holds a
    /// stale or zero one).
    #[inline]
    pub(crate) fn header(&self) -> K {
        self.key_at(0)
    }

    /// Key at slot `index`: exact under the node's lock when
    /// `index < len()`, provisional without it (see the module docs).
    #[inline]
    pub(crate) fn key_at(&self, index: usize) -> K {
        self.keys[index].get()
    }

    /// Value at slot `index` (leaf nodes only); read like [`Node::key_at`].
    #[inline]
    pub(crate) fn value_at(&self, index: usize) -> V {
        self.values()[index].get()
    }

    /// Child pointer at slot `index` (internal nodes only).  One
    /// single-word atomic load, so it serves both read modes: under the
    /// node's lock it is the down pointer of `keys[index]`; read
    /// optimistically it is never torn — but possibly stale or belonging
    /// to a different separator key than the reader thinks, and only
    /// validation makes it meaningful.  [`NodeRef::child_at`] is the
    /// handle form.
    #[inline]
    pub(crate) fn child_ptr(&self, index: usize) -> *mut Self {
        self.children()[index].load(Ordering::Acquire)
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
    /// is in `0..=len` whatever the probes read; `len` must be `<= B`.
    #[inline]
    fn keys_below(&self, key: &K, mut len: usize) -> usize {
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
    /// Before the first probe it prefetches every line of `keys[..len]`
    /// (at most 17 at `B = 128`, `K = u64`), so a cold node's key lines
    /// arrive in one burst instead of one dependent miss per probe; it
    /// reports the header and that span to `tracer`.
    #[inline]
    pub(crate) fn search(&self, key: &K, tracer: &impl Tracer) -> NodeSearch {
        let len = self.len();
        prefetch_span(&self.keys[..len]);
        self.trace_prefix(tracer, len);
        let below = self.keys_below(key, len);
        if below < len && self.key_at(below) == *key {
            NodeSearch::Found(below)
        } else if below == 0 {
            NodeSearch::Before
        } else {
            NodeSearch::Pred(below - 1)
        }
    }
}

/// The byte ranges a node reports to a [`Tracer`] (module docs).
impl<K, V, const B: usize> Node<K, V, B> {
    /// Reports the header — lock word through `head_child` — and
    /// `keys[..count]`, which follow it on line 0 and beyond.
    #[inline]
    pub(crate) fn trace_prefix(&self, tracer: &impl Tracer, count: usize) {
        let bytes = mem::offset_of!(Self, keys) + count * mem::size_of::<RacyCell<K>>();
        tracer.touched(ptr::from_ref(self).addr(), 0, bytes);
    }

    /// Reports `keys[slots]`.
    #[inline]
    pub(crate) fn trace_keys(&self, tracer: &impl Tracer, slots: Range<usize>) {
        let width = mem::size_of::<RacyCell<K>>();
        let offset = mem::offset_of!(Self, keys) + slots.start * width;
        tracer.touched(ptr::from_ref(self).addr(), offset, slots.len() * width);
    }

    /// Reports the value (leaf) or child (internal) slots `slots`.
    #[inline]
    pub(crate) fn trace_payload(&self, tracer: &impl Tracer, slots: Range<usize>) {
        let (payload, width) = match &self.data {
            Data::Leaf(values) => (values.as_ptr().addr(), mem::size_of::<RacyCell<V>>()),
            Data::Internal(children) => {
                (children.as_ptr().addr(), mem::size_of::<AtomicPtr<Self>>())
            }
        };
        let node = ptr::from_ref(self).addr();
        let offset = payload - node + slots.start * width;
        tracer.touched(node, offset, slots.len() * width);
    }

    /// Reports the key and payload slots `slots`.
    #[inline]
    pub(crate) fn trace_slots(&self, tracer: &impl Tracer, slots: Range<usize>) {
        self.trace_keys(tracer, slots.clone());
        self.trace_payload(tracer, slots);
    }
}

/// The mutators: methods of the write guard alone, so that holding the
/// node's exclusive lock is a precondition the compiler checks.
impl<K: Racy + Ord, V: Racy, const B: usize> WriteGuard<'_, K, V, B> {
    /// Sets the right neighbour.
    #[inline]
    pub(crate) fn set_next(&self, next: Option<NodeRef<'_, K, V, B>>) {
        let next = next.map_or(ptr::null_mut(), NodeRef::as_ptr);
        self.next.store(next, Ordering::Release);
    }

    /// Overwrites the value at slot `index < len()` of a leaf, returning
    /// the previous value.
    #[inline]
    pub(crate) fn replace_value_at(&self, index: usize, value: V, tracer: &impl Tracer) -> V {
        debug_assert!(index < self.len());
        self.trace_payload(tracer, index..index + 1);
        let slot = &self.values()[index];
        let old = slot.get();
        slot.set(value);
        old
    }

    /// Overwrites the down pointer at slot `index < len()` of an internal
    /// node.
    #[inline]
    pub(crate) fn set_child_at(
        &self,
        index: usize,
        child: Option<NodeRef<'_, K, V, B>>,
        tracer: &impl Tracer,
    ) {
        debug_assert!(index < self.len());
        self.trace_payload(tracer, index..index + 1);
        let child = child.map_or(ptr::null_mut(), NodeRef::as_ptr);
        self.children()[index].store(child, Ordering::Release);
    }

    /// Inserts `key`/`value` at slot `index <= len()` of a non-full leaf,
    /// shifting later slots right.
    pub(crate) fn insert_leaf_at(&self, index: usize, key: K, value: V, tracer: &impl Tracer) {
        let len = self.len();
        debug_assert!(len < B);
        debug_assert!(index <= len);
        shift_right(&self.keys[index..=len]);
        self.keys[index].set(key);
        let values = self.values();
        shift_right(&values[index..=len]);
        values[index].set(value);
        self.set_len(len + 1);
        self.trace_slots(tracer, index..len + 1);
    }

    /// Inserts `key` with down pointer `child` at slot `index <= len()` of
    /// a non-full internal node, shifting later slots right.
    pub(crate) fn insert_internal_at(
        &self,
        index: usize,
        key: K,
        child: NodeRef<'_, K, V, B>,
        tracer: &impl Tracer,
    ) {
        let len = self.len();
        debug_assert!(len < B);
        debug_assert!(index <= len);
        shift_right(&self.keys[index..=len]);
        self.keys[index].set(key);
        let children = self.children();
        for slot in (index..len).rev() {
            let moved = children[slot].load(Ordering::Relaxed);
            children[slot + 1].store(moved, Ordering::Release);
        }
        children[index].store(child.as_ptr(), Ordering::Release);
        self.set_len(len + 1);
        self.trace_slots(tracer, index..len + 1);
    }

    /// Removes the entry at slot `index < len()`, shifting later slots
    /// left.  Returns the removed value for leaf nodes and `None` for
    /// internal nodes.
    pub(crate) fn remove_at(&self, index: usize, tracer: &impl Tracer) -> Option<V> {
        let len = self.len();
        debug_assert!(index < len);
        self.trace_slots(tracer, index..len);
        shift_left(&self.keys[index..len]);
        let removed = match &self.data {
            Data::Leaf(values) => {
                let value = values[index].get();
                shift_left(&values[index..len]);
                Some(value)
            }
            Data::Internal(children) => {
                for slot in index + 1..len {
                    let moved = children[slot].load(Ordering::Relaxed);
                    children[slot - 1].store(moved, Ordering::Release);
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
    /// Both nodes are at the same level, `from <= self.len()` and
    /// `dst.len() + (self.len() - from) <= B`.
    pub(crate) fn move_suffix_to(&self, from: usize, dst: &Self, tracer: &impl Tracer) {
        let src_len = self.len();
        let dst_len = dst.len();
        let count = src_len - from;
        debug_assert!(dst_len + count <= B);
        self.trace_slots(tracer, from..src_len);
        dst.trace_slots(tracer, dst_len..dst_len + count);
        for offset in 0..count {
            dst.keys[dst_len + offset].set(self.keys[from + offset].get());
        }
        match (&self.data, &dst.data) {
            (Data::Leaf(src_values), Data::Leaf(dst_values)) => {
                for offset in 0..count {
                    dst_values[dst_len + offset].set(src_values[from + offset].get());
                }
            }
            (Data::Internal(src_children), Data::Internal(dst_children)) => {
                for offset in 0..count {
                    let moved = src_children[from + offset].load(Ordering::Relaxed);
                    dst_children[dst_len + offset].store(moved, Ordering::Release);
                }
            }
            _ => unreachable!("move_suffix_to across node kinds"),
        }
        dst.set_len(dst_len + count);
        self.set_len(from);
    }

    /// Appends `key`/`value` to a non-full leaf; `key` is greater than
    /// every key already stored.
    pub(crate) fn push_leaf(&self, key: K, value: V, tracer: &impl Tracer) {
        self.insert_leaf_at(self.len(), key, value, tracer);
    }

    /// Appends `key`/`child` to a non-full internal node; `key` is greater
    /// than every key already stored.
    pub(crate) fn push_internal(&self, key: K, child: NodeRef<'_, K, V, B>, tracer: &impl Tracer) {
        self.insert_internal_at(self.len(), key, child, tracer);
    }
}

/// Best-effort prefetch of the first cache line of the node `ptr` points
/// at: its header (lock word, `level`, `is_head`, `len`, `next`,
/// `head_child`) and leading keys, which the `repr(C, align(64))` layout of
/// [`Node`] puts on that line.
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

/// Best-effort prefetch of every cache line `cells` occupies, from the line
/// holding its first byte to the one holding its last; [`Node::search`]'s
/// key-span prefetch.  A hint like [`prefetch_node`], and nothing off
/// x86-64.
#[inline(always)]
fn prefetch_span<T>(cells: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        let first = cells.as_ptr().cast::<i8>();
        let lead = first as usize % 64;
        let line = first.wrapping_sub(lead);
        let mut offset = 0;
        while offset < lead + mem::size_of_val(cells) {
            // SAFETY: as in `prefetch_node`: `_mm_prefetch` cannot fault,
            // whatever address it is given, and SSE is baseline on x86_64.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    line.wrapping_add(offset),
                );
            }
            offset += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = cells;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;
    use std::collections::{BTreeSet, HashMap};

    use bskip_index::trace::NoTrace;

    use super::*;
    use crate::config::BSkipConfig;
    use crate::list::BSkipList;

    type TestNode = Node<u64, u64, 8>;
    type List = BSkipList<u64, u64, 8>;

    /// A tracer that records every touched range, and checks that each
    /// one lies inside a node announced before it.
    #[derive(Default)]
    pub(crate) struct Recording {
        /// Footprint of every announced id.
        pub(crate) nodes: RefCell<HashMap<usize, usize>>,
        /// Every `touched` event, in order.
        pub(crate) touched: RefCell<Vec<(usize, usize, usize)>>,
    }

    impl Tracer for Recording {
        fn node_allocated(&self, id: usize, bytes: usize) {
            self.nodes.borrow_mut().insert(id, bytes);
        }

        fn touched(&self, id: usize, offset: usize, bytes: usize) {
            let footprint = self.nodes.borrow().get(&id).copied();
            let footprint = footprint.unwrap_or_else(|| panic!("unannounced node {id}"));
            assert!(
                offset + bytes <= footprint,
                "{offset} + {bytes} > {footprint}"
            );
            self.touched.borrow_mut().push((id, offset, bytes));
        }
    }

    #[test]
    fn a_get_reports_line_zero_the_key_span_and_one_payload_line() {
        const B: usize = 128;
        const LINE: usize = 64;
        let config = BSkipConfig::default().with_max_height(1);
        let list = BSkipList::<u64, u64, B, _>::with_tracer(config, Recording::default());
        for key in 0..B as u64 {
            list.insert(key, key * 10);
        }
        let pin = list.pin();
        let leaf = pin.head(0);
        assert!(leaf.is_full(), "one full leaf");
        list.tracer().touched.borrow_mut().clear();
        let slot = 77;
        assert_eq!(list.get(&(slot as u64)), Some(slot as u64 * 10));

        let lines = |offset: usize, bytes: usize| offset / LINE..(offset + bytes).div_ceil(LINE);
        let keys = mem::offset_of!(Node<u64, u64, B>, keys);
        let payload = leaf.values().as_ptr().addr() - leaf.as_ptr().addr();
        let mut expected: BTreeSet<usize> = lines(0, keys).collect();
        expected.extend(lines(keys, B * mem::size_of::<u64>()));
        let key_lines = expected.len();
        expected.extend(lines(
            payload + slot * mem::size_of::<u64>(),
            mem::size_of::<u64>(),
        ));
        assert_eq!(expected.len(), key_lines + 1, "one payload line");
        let touched = list.tracer().touched.borrow();
        let reported: BTreeSet<usize> = touched
            .iter()
            .flat_map(|&(id, offset, bytes)| {
                assert_eq!(id, leaf.as_ptr().addr(), "a node other than the leaf");
                lines(offset, bytes)
            })
            .collect();
        assert_eq!(reported, expected);
    }

    impl<K: Racy + Ord, V: Racy, const B: usize> Node<K, V, B> {
        /// Copies the keys in slots `0..len()` into a `Vec`; exact under
        /// the node's lock.
        fn keys_vec(&self) -> Vec<K> {
            self.keys[..self.len()].iter().map(RacyCell::get).collect()
        }
    }

    /// A list to pin, for write-locked nodes of its own allocation: each
    /// test's nodes are never linked in, and retired at the end.
    fn list() -> List {
        List::with_config(BSkipConfig::default().with_max_height(3))
    }

    #[test]
    fn node_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<TestNode>() % 64, 0);
    }

    #[test]
    fn leaf_insert_search_remove() {
        let list = list();
        let pin = list.pin();
        let node = pin.alloc(0);
        assert!(node.is_empty());
        node.insert_leaf_at(0, 10, 100, &NoTrace);
        node.insert_leaf_at(1, 30, 300, &NoTrace);
        node.insert_leaf_at(1, 20, 200, &NoTrace);
        assert_eq!(node.len(), 3);
        assert_eq!(node.keys_vec(), vec![10, 20, 30]);
        assert_eq!(node.header(), 10);
        assert_eq!(node.value_at(1), 200);

        assert_eq!(node.search(&20, &NoTrace), NodeSearch::Found(1));
        assert_eq!(node.search(&25, &NoTrace), NodeSearch::Pred(1));
        assert_eq!(node.search(&5, &NoTrace), NodeSearch::Before);
        assert_eq!(node.search(&35, &NoTrace), NodeSearch::Pred(2));

        assert_eq!(node.remove_at(1, &NoTrace), Some(200));
        assert_eq!(node.keys_vec(), vec![10, 30]);
        assert_eq!(node.value_at(1), 300);
        pin.defer_free(node);
    }

    #[test]
    fn replace_value_returns_old() {
        let list = list();
        let pin = list.pin();
        let node = pin.alloc(0);
        node.insert_leaf_at(0, 1, 10, &NoTrace);
        assert_eq!(node.replace_value_at(0, 11, &NoTrace), 10);
        assert_eq!(node.value_at(0), 11);
        pin.defer_free(node);
    }

    #[test]
    fn internal_insert_and_children_track_keys() {
        let list = list();
        let pin = list.pin();
        let internal = pin.alloc(1);
        let (child_a, child_b, child_c) = (pin.alloc(0), pin.alloc(0), pin.alloc(0));
        let child = |index| internal.child_at(index).map(NodeRef::as_ptr);
        internal.insert_internal_at(0, 5, *child_a, &NoTrace);
        internal.insert_internal_at(1, 9, *child_b, &NoTrace);
        assert_eq!(child(0), Some(child_a.as_ptr()));
        assert_eq!(child(1), Some(child_b.as_ptr()));
        // Insert in the middle shifts children along with keys.
        internal.insert_internal_at(1, 7, *child_c, &NoTrace);
        assert_eq!(internal.keys_vec(), vec![5, 7, 9]);
        assert_eq!(child(1), Some(child_c.as_ptr()));
        assert_eq!(child(2), Some(child_b.as_ptr()));
        internal.remove_at(1, &NoTrace);
        assert_eq!(child(1), Some(child_b.as_ptr()));
        internal.set_child_at(0, Some(*child_c), &NoTrace);
        assert_eq!(child(0), Some(child_c.as_ptr()));
        for node in [child_a, child_b, child_c, internal] {
            pin.defer_free(node);
        }
    }

    #[test]
    fn move_suffix_splits_leaf() {
        let list = list();
        let pin = list.pin();
        let (left, right) = (pin.alloc(0), pin.alloc(0));
        for i in 0..6u64 {
            left.push_leaf(i, i * 10, &NoTrace);
        }
        left.move_suffix_to(3, &right, &NoTrace);
        assert_eq!(left.keys_vec(), vec![0, 1, 2]);
        assert_eq!(right.keys_vec(), vec![3, 4, 5]);
        assert_eq!(right.value_at(2), 50);
        pin.defer_free(left);
        pin.defer_free(right);
    }

    #[test]
    fn move_suffix_appends_after_existing_entries() {
        let list = list();
        let pin = list.pin();
        let (left, right) = (pin.alloc(0), pin.alloc(0));
        for i in 0..4u64 {
            left.push_leaf(10 + i, i, &NoTrace);
        }
        right.push_leaf(9, 999, &NoTrace);
        left.move_suffix_to(2, &right, &NoTrace);
        assert_eq!(right.keys_vec(), vec![9, 12, 13]);
        assert_eq!(left.keys_vec(), vec![10, 11]);
        pin.defer_free(left);
        pin.defer_free(right);
    }

    #[test]
    fn move_whole_prefix_empties_the_source() {
        // The fold: `from == 0` moves *everything* into the left
        // neighbour, leaving the source empty (ready for the unlink).
        let list = list();
        let pin = list.pin();
        let (left, right) = (pin.alloc(0), pin.alloc(0));
        for i in 0..3u64 {
            left.push_leaf(i, i, &NoTrace);
            right.push_leaf(100 + i, i, &NoTrace);
        }
        right.move_suffix_to(0, &left, &NoTrace);
        assert!(right.is_empty());
        assert_eq!(left.keys_vec(), vec![0, 1, 2, 100, 101, 102]);
        assert_eq!(left.value_at(5), 2);
        pin.defer_free(left);
        pin.defer_free(right);
    }

    #[test]
    fn move_suffix_splits_internal_with_children() {
        let list = list();
        let pin = list.pin();
        let (left, right) = (pin.alloc(2), pin.alloc(2));
        let children: Vec<_> = (0..5).map(|_| pin.alloc(1)).collect();
        for (key, child) in (0..5u64).zip(&children) {
            left.push_internal(key, **child, &NoTrace);
        }
        left.move_suffix_to(2, &right, &NoTrace);
        assert_eq!(left.keys_vec(), vec![0, 1]);
        assert_eq!(right.keys_vec(), vec![2, 3, 4]);
        assert_eq!(
            right.child_at(0).map(NodeRef::as_ptr),
            Some(children[2].as_ptr())
        );
        assert_eq!(
            right.child_at(2).map(NodeRef::as_ptr),
            Some(children[4].as_ptr())
        );
        for node in children.into_iter().chain([left, right]) {
            pin.defer_free(node);
        }
    }

    /// Checks `keys_below` and `search` on a leaf holding `10, 20, …,
    /// 10·len` against a linear scan, for every occupancy `0..=B` and for
    /// probes below, between, equal to and above the stored keys.
    fn check_search_against_a_linear_scan<const B: usize>() {
        let list = BSkipList::<u64, u64, B>::with_config(BSkipConfig::default().with_max_height(3));
        let pin = list.pin();
        let node = pin.alloc(0);
        for len in 0..=B {
            let stored = (1..=len as u64).map(|i| i * 10).collect::<Vec<_>>();
            for probe in 0..(B as u64 + 1) * 10 {
                let expected = stored.iter().filter(|key| **key < probe).count();
                assert_eq!(
                    node.keys_below(&probe, node.len()),
                    expected,
                    "len {len} probe {probe}"
                );
                // And the full search agrees with the classic one.
                match node.search(&probe, &NoTrace) {
                    NodeSearch::Found(idx) => assert_eq!(stored[idx], probe),
                    NodeSearch::Pred(idx) => {
                        assert!(stored[idx] < probe);
                        assert!(stored.get(idx + 1).is_none_or(|next| *next > probe));
                    }
                    NodeSearch::Before => assert!(stored.first().is_none_or(|k| *k > probe)),
                }
            }
            if len < B {
                node.push_leaf(((len + 1) as u64) * 10, 0, &NoTrace);
            }
        }
        pin.defer_free(node);
    }

    #[test]
    fn keys_below_matches_a_linear_scan_for_every_occupancy() {
        check_search_against_a_linear_scan::<8>();
    }

    /// `B = 128` spans 17 key lines, so the key-span prefetch covers many
    /// lines and `len == B` fills the last one.
    #[test]
    fn keys_below_matches_a_linear_scan_for_every_occupancy_at_b128() {
        check_search_against_a_linear_scan::<128>();
    }

    #[test]
    fn header_fields_share_the_first_cache_line() {
        type Wide = Node<u64, u64, 128>;
        assert_eq!(mem::offset_of!(Wide, lock), 0);
        for offset in [
            mem::offset_of!(Wide, len),
            mem::offset_of!(Wide, next),
            mem::offset_of!(Wide, head_child),
            mem::offset_of!(Wide, keys),
        ] {
            assert!(offset < 64, "header field at {offset}");
        }
        // Node sizes are unchanged by the field order: the list's leaves
        // and the memtable's (16-byte values).
        assert_eq!(mem::size_of::<Wide>(), 2112);
        assert_eq!(mem::size_of::<Node<u64, [u64; 2], 128>>(), 3136);
    }

    #[test]
    fn prefetch_is_a_harmless_hint() {
        let list = list();
        prefetch_node(list.pin().head(0).as_ptr());
        // Even a dangling-but-non-null pointer must not fault.
        prefetch_node(std::ptr::NonNull::<TestNode>::dangling().as_ptr());
    }

    #[test]
    fn search_on_empty_head_node_reports_before() {
        let list = list();
        let pin = list.pin();
        let head = pin.head(0);
        assert!(head.is_head());
        assert_eq!(head.search(&42, &NoTrace), NodeSearch::Before);
    }

    #[test]
    fn full_node_detection() {
        let list = list();
        let pin = list.pin();
        let node = pin.alloc(0);
        for i in 0..8u64 {
            node.push_leaf(i, i, &NoTrace);
        }
        assert!(node.is_full());
        pin.defer_free(node);
    }

    #[test]
    fn head_child_links_the_spine() {
        let list = list();
        let pin = list.pin();
        for level in 1..3 {
            let child = pin.head(level).head_child().map(NodeRef::as_ptr);
            assert_eq!(child, Some(pin.head(level - 1).as_ptr()));
        }
    }

    #[test]
    fn next_pointer_roundtrip() {
        let list = list();
        let pin = list.pin();
        let (a, b) = (pin.alloc(0), pin.alloc(0));
        assert!(a.next().is_none());
        a.set_next(Some(*b));
        assert_eq!(a.next().map(NodeRef::as_ptr), Some(b.as_ptr()));
        a.set_next(None);
        assert!(a.next().is_none());
        pin.defer_free(a);
        pin.defer_free(b);
    }
}
