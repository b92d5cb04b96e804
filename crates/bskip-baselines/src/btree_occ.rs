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
//!
//! # Tracing
//!
//! The last type parameter is a [`Tracer`], the cache simulator's view of
//! the tree (Table 1); a node's id is its address and its footprint its
//! size, and every range it reports is at the offsets `Node` and `Inner`
//! ship with.  Every node a descent lands on reports the fields the visit
//! reads (lock word, `is_leaf`, `len`), and every search of a node's keys
//! reports each key its comparator is called on (`probe`); a descent also
//! reports the child slot it follows.  So do the read value of a `get`,
//! the replaced value or shifted suffix of an upsert, a separator insert,
//! both halves of a split and the run `fetch_batch` copies from each leaf.
//! A removal's leaf edit and rebalancing report nothing, because Table 1
//! deletes nothing.  The default, [`NoTrace`], is zero-sized and compiles
//! to nothing.
//!
//! # Node layout
//!
//! A node holds up to `F` keys, of which `keys[..len]` are live.  A leaf
//! holds the values aligned with them; an internal node holds `len + 1`
//! children, child `i` covering the keys in `[keys[i - 1], keys[i])`.
//! The `F + 1` child slots are one array: stable Rust cannot spell
//! `[_; F + 1]` for a const-generic `F`, so they are stored as a leading
//! pointer followed by `F` more and always read through one `F + 1` slice
//! view.  Entries move between and within nodes as `copy_from_slice` /
//! `copy_within` over the `MaybeUninit` slots, which are `Copy` because
//! keys and values are.
//!
//! # Safety
//!
//! Nodes are reached only through `handle.rs`'s guards: the root under
//! the tree lock, every other node from a locked parent or left neighbour,
//! locked before that lock is dropped.  `Node`'s `Latched` impl states why
//! that keeps every node a guard holds allocated.  The `unsafe` left here
//! is that impl, the tree's drop, the retire of an unlinked node, and three
//! layout views: the live key prefix as a `&[K]`, one live value, and the
//! child slots as one slice.  Each view rests on a documented invariant of
//! `Inner` or on `Children`'s `repr(C)` layout.

use std::cell::UnsafeCell;
use std::mem::{self, MaybeUninit};
use std::ops::{Bound, Range};
use std::ptr;
use std::slice;

use bskip_index::trace::{NoTrace, Tracer};
use bskip_index::{
    BatchCursor, ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue, StatKind,
};
use bskip_sync::{EbrCollector, RawRwSpinLock, RelaxedCounter, StripedCounter};

use crate::handle::{Guard, Latch, Latched, ReadGuard, Root, WriteGuard};

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

/// The `F + 1` child slots of an internal node, read as one slice through
/// [`Children::as_slice`] / [`Children::as_mut_slice`].
#[repr(C)]
struct Children<K, V, const F: usize> {
    first: *mut Node<K, V, F>,
    rest: [*mut Node<K, V, F>; F],
}

impl<K, V, const F: usize> Children<K, V, F> {
    fn as_slice(&self) -> &[*mut Node<K, V, F>] {
        // SAFETY: `repr(C)` lays `rest` out directly after `first`, and
        // both hold the same pointer type, so there is no padding: the
        // struct is `F + 1` consecutive initialised pointers.
        unsafe { slice::from_raw_parts(ptr::from_ref(self).cast(), F + 1) }
    }

    fn as_mut_slice(&mut self) -> &mut [*mut Node<K, V, F>] {
        // SAFETY: as in `as_slice`; `&mut self` makes the view exclusive.
        unsafe { slice::from_raw_parts_mut(ptr::from_mut(self).cast(), F + 1) }
    }
}

/// Payload of a node: values in leaves, children in internal nodes.
enum Payload<K, V, const F: usize> {
    /// Values aligned with `keys`.
    Leaf([MaybeUninit<V>; F]),
    /// Child `i` covers the keys in `[keys[i - 1], keys[i])`.
    Internal(Children<K, V, F>),
}

/// Guarded interior of a node.
///
/// Invariant: `len <= F`, `keys[..len]` is initialised, and so is a
/// leaf's `values[..len]`; an internal node's children `..=len` are live
/// nodes.
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

impl<K, V, const F: usize> Node<K, V, F> {
    /// Byte offsets of `inner`'s fields in the node, for the tracer:
    /// `UnsafeCell` is `repr(transparent)`, so a field of `Inner` sits at
    /// `inner`'s offset plus its own.
    const LEN: usize = mem::offset_of!(Self, inner) + mem::offset_of!(Inner<K, V, F>, len);
    const KEYS: usize = mem::offset_of!(Self, inner) + mem::offset_of!(Inner<K, V, F>, keys);
    const NEXT_LEAF: usize =
        mem::offset_of!(Self, inner) + mem::offset_of!(Inner<K, V, F>, next_leaf);

    /// A fresh, unlocked node holding `inner`.
    fn new(inner: Inner<K, V, F>) -> Box<Self> {
        Box::new(Node {
            lock: RawRwSpinLock::new(),
            is_leaf: inner.is_leaf(),
            inner: UnsafeCell::new(inner),
        })
    }
}

impl<K, V, const F: usize> Latch for Node<K, V, F> {
    fn latch(&self) -> &RawRwSpinLock {
        &self.lock
    }
}

// SAFETY: `inner` is reached only through this impl, so only under `lock`,
// or through the `&mut` of a node not yet or no longer shared (a fresh
// node's `Box`, the tree's drop).  `child` and `next` read the live child slots and the leaf link, which
// name linked nodes.  A node is unlinked only under the exclusive locks of
// every node linking it — a merge holds the parent and both siblings (the
// left one the victim's only leaf-chain predecessor), a root collapse the
// tree lock and the old root — and retired to the collector only after
// they are released; nothing else frees a node while the tree is shared.
unsafe impl<K, V, const F: usize> Latched for Node<K, V, F> {
    type Inner = Inner<K, V, F>;

    fn interior(&self) -> &UnsafeCell<Inner<K, V, F>> {
        &self.inner
    }

    fn child(inner: &Inner<K, V, F>, slot: usize) -> *mut Self {
        inner.children()[..=inner.len][slot]
    }

    fn next(inner: &Inner<K, V, F>) -> *mut Self {
        inner.next_leaf
    }
}

impl<K, V, const F: usize> Inner<K, V, F> {
    /// An empty leaf, or an empty internal node whose children are null.
    fn new(leaf: bool) -> Self {
        Inner {
            len: 0,
            keys: [const { MaybeUninit::uninit() }; F],
            payload: if leaf {
                Payload::Leaf([const { MaybeUninit::uninit() }; F])
            } else {
                Payload::Internal(Children {
                    first: ptr::null_mut(),
                    rest: [ptr::null_mut(); F],
                })
            },
            next_leaf: ptr::null_mut(),
        }
    }

    fn is_leaf(&self) -> bool {
        matches!(self.payload, Payload::Leaf(_))
    }

    /// Keys an entry move costs beyond the entries themselves: an
    /// internal node's entries move through the parent separator (1), a
    /// leaf's do not (0).
    fn sep_cost(&self) -> usize {
        usize::from(!self.is_leaf())
    }

    /// The live keys.
    fn keys(&self) -> &[K] {
        // SAFETY: `keys[..len]` is initialised (the struct invariant) and
        // `MaybeUninit<K>` has the layout of `K`.
        unsafe { slice::from_raw_parts(self.keys.as_ptr().cast(), self.len) }
    }

    /// A leaf's value slots.
    fn values(&self) -> &[MaybeUninit<V>; F] {
        match &self.payload {
            Payload::Leaf(values) => values,
            Payload::Internal(_) => unreachable!("values of an internal node"),
        }
    }

    fn values_mut(&mut self) -> &mut [MaybeUninit<V>; F] {
        match &mut self.payload {
            Payload::Leaf(values) => values,
            Payload::Internal(_) => unreachable!("values of an internal node"),
        }
    }

    /// An internal node's `F + 1` child slots.
    fn children(&self) -> &[*mut Node<K, V, F>] {
        match &self.payload {
            Payload::Internal(children) => children.as_slice(),
            Payload::Leaf(_) => unreachable!("children of a leaf"),
        }
    }

    fn children_mut(&mut self) -> &mut [*mut Node<K, V, F>] {
        match &mut self.payload {
            Payload::Internal(children) => children.as_mut_slice(),
            Payload::Leaf(_) => unreachable!("children of a leaf"),
        }
    }
}

impl<K: Copy + Ord, V: Copy, const F: usize> Inner<K, V, F> {
    /// Number of live keys below `key`; `probe` is shown each key the
    /// search compares.
    fn lower_bound(&self, key: &K, probe: impl Fn(&K)) -> usize {
        self.keys().partition_point(|k| {
            probe(k);
            k < key
        })
    }

    /// Number of live keys at or below `key`; `probe` as in `lower_bound`.
    fn upper_bound(&self, key: &K, probe: impl Fn(&K)) -> usize {
        self.keys().partition_point(|k| {
            probe(k);
            k <= key
        })
    }

    /// `binary_search` of the live keys; `probe` as in `lower_bound`.
    fn search(&self, key: &K, probe: impl Fn(&K)) -> Result<usize, usize> {
        self.keys().binary_search_by(|k| {
            probe(k);
            k.cmp(key)
        })
    }

    /// The value at `slot` of a leaf.
    fn value(&self, slot: usize) -> V {
        assert!(slot < self.len);
        // SAFETY: a leaf's `values[..len]` is initialised.
        unsafe { self.values()[slot].assume_init() }
    }

    /// Stores `key → value` in a leaf that has room for a new key and
    /// returns the value it replaced; `probe` is shown the keys its search
    /// compares, and `written` is told the key and payload slots written.
    fn upsert(
        &mut self,
        key: K,
        value: V,
        probe: impl Fn(&K),
        written: impl FnOnce(&Self, Range<usize>, Range<usize>),
    ) -> Option<V> {
        let len = self.len;
        match self.search(&key, probe) {
            Ok(slot) => {
                written(self, slot..slot, slot..slot + 1);
                let old = self.value(slot);
                self.values_mut()[slot] = MaybeUninit::new(value);
                Some(old)
            }
            Err(slot) => {
                written(self, slot..len + 1, slot..len + 1);
                insert_at(&mut self.keys[..=len], slot, MaybeUninit::new(key));
                insert_at(
                    &mut self.values_mut()[..=len],
                    slot,
                    MaybeUninit::new(value),
                );
                self.len += 1;
                None
            }
        }
    }

    /// Removes the entry at `slot` of a leaf and returns its value.
    fn remove_entry(&mut self, slot: usize) -> V {
        let (len, old) = (self.len, self.value(slot));
        remove_at(&mut self.keys[..len], slot);
        remove_at(&mut self.values_mut()[..len], slot);
        self.len -= 1;
        old
    }

    /// Inserts `separator` and the child to its right into an internal
    /// node that has room, and returns that child's slot; `probe` and
    /// `written` as in `upsert`, `written` told the key and child slots.
    fn insert_child(
        &mut self,
        separator: K,
        right: *mut Node<K, V, F>,
        probe: impl Fn(&K),
        written: impl FnOnce(&Self, Range<usize>, Range<usize>),
    ) -> usize {
        let (len, slot) = (self.len, self.lower_bound(&separator, probe));
        written(self, slot..len + 1, slot + 1..len + 2);
        insert_at(&mut self.keys[..=len], slot, MaybeUninit::new(separator));
        insert_at(&mut self.children_mut()[..len + 2], slot + 1, right);
        self.len += 1;
        slot + 1
    }

    /// Copies payload slots (values or children) `from..from + count` of
    /// `src`, a node of the same kind, to this node's slots from `to` on.
    fn copy_payload(&mut self, to: usize, src: &Self, from: usize, count: usize) {
        assert!(
            from + count <= src.len + src.sep_cost(),
            "copies a dead slot"
        );
        if self.is_leaf() {
            self.values_mut()[to..to + count].copy_from_slice(&src.values()[from..from + count]);
        } else {
            self.children_mut()[to..to + count]
                .copy_from_slice(&src.children()[from..from + count]);
        }
    }

    /// Moves this node's payload slots `range` to start at slot `to`.
    fn shift_payload(&mut self, range: Range<usize>, to: usize) {
        if self.is_leaf() {
            self.values_mut().copy_within(range, to);
        } else {
            self.children_mut().copy_within(range, to);
        }
    }

    /// Appends `right` to `left`, the children either side of this
    /// parent's separator `sep`, and drops the separator and `right`'s
    /// child slot.  The combined entries must fit in one node; the caller
    /// retires `right`.
    fn merge(&mut self, sep: usize, left: &mut Self, right: &mut Self) {
        let (ll, rl, c) = (left.len, right.len, left.sep_cost());
        if c == 1 {
            left.keys[ll] = MaybeUninit::new(self.keys()[sep]);
        }
        left.keys[ll + c..ll + c + rl].copy_from_slice(&right.keys[..rl]);
        left.copy_payload(ll + c, right, 0, rl + c);
        left.len = ll + c + rl;
        left.next_leaf = right.next_leaf;
        let len = self.len;
        remove_at(&mut self.keys[..len], sep);
        remove_at(&mut self.children_mut()[..=len], sep + 1);
        self.len -= 1;
    }

    /// Evens out `left` and `right`, the children either side of this
    /// parent's separator `sep`, whose entries do not fit in one node:
    /// `left` ends with half of them, rounded down.  Entries move through
    /// the separator, which is reset to bound `right`'s keys from below.
    fn rebalance(&mut self, sep: usize, left: &mut Self, right: &mut Self) {
        let (ll, rl, c) = (left.len, right.len, left.sep_cost());
        let target = (ll + rl) / 2;
        if ll > target {
            // Left's last `n` entries go to the front of `right`.
            let n = ll - target;
            right.keys.copy_within(..rl, n);
            if c == 1 {
                right.keys[n - 1] = MaybeUninit::new(self.keys()[sep]);
            }
            right.keys[..n - c].copy_from_slice(&left.keys[ll - n + c..ll]);
            right.shift_payload(0..rl + c, n);
            right.copy_payload(0, left, ll - n + c, n);
            self.keys[sep] = left.keys[ll - n];
        } else if ll < target {
            // Right's first `n` entries go to the end of `left`.
            let n = target - ll;
            if c == 1 {
                left.keys[ll] = MaybeUninit::new(self.keys()[sep]);
            }
            left.keys[ll + c..ll + n].copy_from_slice(&right.keys[..n - c]);
            left.copy_payload(ll + c, right, 0, n);
            self.keys[sep] = right.keys[n - c];
            right.keys.copy_within(n..rl, 0);
            right.shift_payload(n..rl + c, 0);
        }
        left.len = target;
        right.len = ll + rl - target;
    }
}

/// Inserts `item` at `at` of `slots`, the live slots plus one free slot at
/// the end, shifting the rest right.
fn insert_at<T: Copy>(slots: &mut [T], at: usize, item: T) {
    slots.copy_within(at..slots.len() - 1, at + 1);
    slots[at] = item;
}

/// Removes and returns the item at `at` of the live `slots`, shifting the
/// rest left.
fn remove_at<T: Copy>(slots: &mut [T], at: usize) -> T {
    let item = slots[at];
    slots.copy_within(at + 1.., at);
    item
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
pub struct OccBTree<K, V, const F: usize = 64, T: Tracer = NoTrace> {
    /// The root pointer and the tree-level lock guarding it: readers hold
    /// the lock shared just long enough to lock the root node; pessimistic
    /// writers hold it exclusively ("the root write lock").
    root: Root<Node<K, V, F>>,
    len: StripedCounter,
    counters: TreeCounters,
    /// Collector for merge victims and collapsed root shells.
    collector: EbrCollector,
    /// Nodes ever allocated (root, splits); `nodes_allocated - retired`
    /// is the live structural node count.
    nodes_allocated: RelaxedCounter,
    /// Observer of the nodes and slots operations touch (module docs).
    tracer: T,
}

// SAFETY: node state is only accessed under per-node locks (plus the tree
// lock for the root pointer), so moving the tree to another thread is
// sound whenever keys and values are shareable; the tracer moves with it.
unsafe impl<K: IndexKey, V: IndexValue, const F: usize, T: Tracer + Send> Send
    for OccBTree<K, V, F, T>
{
}
// SAFETY: as for `Send`: every shared access goes through those locks, and
// the tracer is only shared as `&T`.
unsafe impl<K: IndexKey, V: IndexValue, const F: usize, T: Tracer + Sync> Sync
    for OccBTree<K, V, F, T>
{
}

impl<K: IndexKey, V: IndexValue, const F: usize> Default for OccBTree<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue, const F: usize> OccBTree<K, V, F> {
    /// Creates an empty tree.
    ///
    /// # Panics
    ///
    /// Panics if `F < 4`.
    pub fn new() -> Self {
        Self::with_tracer(NoTrace)
    }
}

impl<K: IndexKey, V: IndexValue, const F: usize, T: Tracer> OccBTree<K, V, F, T> {
    /// Underflow threshold: a node holding this many entries or fewer is
    /// rebalanced (borrow or merge) before a removal may shrink it
    /// further.  It lies in `1..=F / 2 - 1` for every `F >= 4`, so fresh
    /// split halves satisfy it and a rebalanced pair ends up strictly
    /// above it.
    const MIN_KEYS: usize = F / 4;

    /// [`OccBTree::new`], reporting to `tracer` from the allocation of the
    /// root leaf on.
    pub fn with_tracer(tracer: T) -> Self {
        assert!(F >= 4, "fanout must be at least 4");
        let mut tree = OccBTree {
            root: Root::new(Node::new(Inner::new(true))),
            len: StripedCounter::new(),
            counters: TreeCounters::default(),
            collector: EbrCollector::new(),
            nodes_allocated: RelaxedCounter::new(),
            tracer,
        };
        let root = tree.root.as_mut_ptr();
        tree.announce(root.addr());
        tree
    }

    /// The tracer the tree reports to.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Counts and reports the allocation of the node at `id`.
    fn announce(&self, id: usize) {
        self.nodes_allocated.incr();
        self.tracer.node_allocated(id, size_of::<Node<K, V, F>>());
    }

    /// Boxes `inner` as a new, unlocked node, not yet linked anywhere.
    fn alloc(&self, inner: Inner<K, V, F>) -> Box<Node<K, V, F>> {
        let node = Node::new(inner);
        self.announce(ptr::from_ref(&*node).addr());
        node
    }

    /// Reports the fields every visit of node `id` reads: the lock word,
    /// `is_leaf` and `len`.
    fn visited(&self, id: usize) {
        let lock = mem::offset_of!(Node<K, V, F>, lock);
        self.tracer.touched(id, lock, size_of::<RawRwSpinLock>());
        let is_leaf = mem::offset_of!(Node<K, V, F>, is_leaf);
        self.tracer.touched(id, is_leaf, size_of::<bool>());
        self.tracer
            .touched(id, Node::<K, V, F>::LEN, size_of::<usize>());
    }

    /// The per-probe callback of a search of node `id`'s keys: reports
    /// each key compared, at its address minus the node's.
    fn probe(&self, id: usize) -> impl Fn(&K) + '_ {
        move |key| {
            let offset = ptr::from_ref(key).addr() - id;
            self.tracer.touched(id, offset, size_of::<K>());
        }
    }

    /// Reports key slots `keys` and payload slots `payload` of node `id`,
    /// whose interior is `inner`, read or written.
    fn slots(&self, id: usize, inner: &Inner<K, V, F>, keys: Range<usize>, payload: Range<usize>) {
        let key_bytes = size_of::<K>();
        let offset = Node::<K, V, F>::KEYS + keys.start * key_bytes;
        self.tracer.touched(id, offset, keys.len() * key_bytes);
        let (base, width) = match &inner.payload {
            Payload::Leaf(values) => (values.as_ptr().addr(), size_of::<V>()),
            Payload::Internal(children) => {
                let children = children.as_slice();
                (children.as_ptr().addr(), size_of_val(&children[0]))
            }
        };
        let offset = base - id + payload.start * width;
        self.tracer.touched(id, offset, payload.len() * width);
    }

    /// Reports the slots `Inner`'s mutators tell them they wrote to node
    /// `id`.
    fn written(&self, id: usize) -> impl FnOnce(&Inner<K, V, F>, Range<usize>, Range<usize>) + '_ {
        move |inner, keys, payload| self.slots(id, inner, keys, payload)
    }

    /// The slot of the child of the locked internal node `id`, whose
    /// interior is `node`, covering `key` (the first child for `None`);
    /// reports the probes of the search and the child slot read.
    fn child_slot(&self, id: usize, node: &Inner<K, V, F>, key: Option<&K>) -> usize {
        let slot = key.map_or(0, |key| node.upper_bound(key, self.probe(id)));
        self.slots(id, node, 0..0, slot..slot + 1);
        slot
    }

    /// Unlocks `node`, which the caller unlinked under the exclusive locks
    /// the rebalance protocol requires, and retires it through the
    /// collector.
    fn retire_node(&self, node: WriteGuard<'_, Node<K, V, F>>) {
        let ptr = node.as_ptr();
        drop(node);
        // SAFETY: no traversal can reach the node any more (`Latched`'s
        // impl), the caller retires it exactly once, and it was allocated
        // by `alloc` as a `Box`.
        unsafe { self.collector.pin().retire_box(ptr) };
    }

    /// Moves the upper half of the full node `node` into a new right
    /// sibling, returned unlocked and not yet in any parent together with
    /// the separator for the parent.  A leaf keeps the separator as the
    /// sibling's first key; an internal node moves it up.
    fn split(&self, node: &mut WriteGuard<'_, Node<K, V, F>>) -> (*mut Node<K, V, F>, K) {
        let id = node.addr();
        let left = &mut **node;
        assert_eq!(left.len, F);
        let (half, c) = (F / 2, left.sep_cost());
        let separator = left.keys()[half];
        let mut right = Inner::new(left.is_leaf());
        right.keys[..F - half - c].copy_from_slice(&left.keys[half + c..]);
        right.copy_payload(0, left, half + c, F - half);
        right.len = F - half - c;
        right.next_leaf = left.next_leaf;
        left.len = half;
        let mut right = self.alloc(right);
        self.slots(id, left, half + c..F, half + c..F + c);
        let right_id = ptr::from_ref(&*right).addr();
        let moved = right.inner.get_mut();
        self.slots(right_id, moved, 0..F - half - c, 0..F - half);
        let right = Box::into_raw(right);
        if left.is_leaf() {
            left.next_leaf = right;
        }
        (right, separator)
    }

    /// The optimistic descent: read locks hand over hand from the root to
    /// the leaf covering `key` (the leftmost leaf for `None`), which is
    /// locked exclusively if `W`.  Returns the leaf and whether it is the
    /// root.  Every node on the way reports its visit, and every internal
    /// one its search.
    fn lock_leaf<const W: bool>(&self, key: Option<&K>) -> (Guard<'_, Node<K, V, F>, W>, bool) {
        let tree = ReadGuard::lock(&self.root);
        if tree.root().is_leaf {
            let leaf = tree.lock_root();
            drop(tree);
            self.visited(leaf.addr());
            return (leaf, true);
        }
        let mut node: ReadGuard<'_, _> = tree.lock_root();
        drop(tree);
        loop {
            self.visited(node.addr());
            let slot = self.child_slot(node.addr(), &node, key);
            if node.child(slot).is_leaf {
                let leaf = node.lock_child(slot);
                drop(node);
                self.visited(leaf.addr());
                return (leaf, false);
            }
            node = node.lock_child(slot);
        }
    }

    /// Cursor batch-fetch primitive: appends up to `max` entries with keys
    /// satisfying `from` in ascending order, descending with hand-over-hand
    /// read locks and then streaming along the leaf chain hand over hand.
    ///
    /// The OCC scheme cannot park a cursor on a locked leaf (a pessimistic
    /// pass retiring to the root would deadlock against it), so cursors
    /// re-descend once per batch; a batch spans whole leaves, keeping the
    /// re-entry cost amortized at `F` entries per descent.
    fn fetch_batch(&self, from: Bound<K>, max: usize, out: &mut Vec<(K, V)>) {
        if max == 0 {
            return;
        }
        let (mut node, _) = self.lock_leaf::<false>(match &from {
            Bound::Unbounded => None,
            Bound::Included(key) | Bound::Excluded(key) => Some(key),
        });
        let mut slot = match &from {
            Bound::Unbounded => 0,
            Bound::Included(key) => node.lower_bound(key, self.probe(node.addr())),
            Bound::Excluded(key) => node.upper_bound(key, self.probe(node.addr())),
        };
        loop {
            let end = node.len.min(slot + max - out.len());
            self.slots(node.addr(), &node, slot..end, slot..end);
            out.extend((slot..end).map(|slot| (node.keys()[slot], node.value(slot))));
            let next_leaf = Node::<K, V, F>::NEXT_LEAF;
            self.tracer
                .touched(node.addr(), next_leaf, size_of::<usize>());
            if out.len() == max {
                break;
            }
            let Some(next) = node.lock_next() else { break };
            node = next;
            slot = 0;
            self.visited(node.addr());
        }
    }

    /// The pessimistic retry: take the tree lock in write mode and descend
    /// with writer locks, splitting full nodes preemptively.
    fn insert_pessimistic(&self, key: K, value: V) -> Option<V> {
        self.counters.root_write_locks.incr();
        let tree = WriteGuard::lock(&self.root);
        let mut node = tree.lock_root();
        if node.len == F {
            // Split the root: the old root becomes the left half of a new
            // root, which is published locked.
            let (right, separator) = self.split(&mut node);
            let mut top = self.alloc(Inner::new(false));
            let id = ptr::from_ref(&*top).addr();
            let inner = top.inner.get_mut();
            inner.children_mut()[0] = node.as_ptr();
            inner.insert_child(separator, right, self.probe(id), self.written(id));
            node = tree.install(top);
        }
        drop(tree);

        // Descend with writer latch crabbing; every full child is split
        // before we step into it, so parents always have room.
        while !node.target().is_leaf {
            let id = node.addr();
            self.visited(id);
            let slot = self.child_slot(id, &node, Some(&key));
            let mut child = node.lock_child(slot);
            if child.len == F {
                let (right, separator) = self.split(&mut child);
                let right_slot =
                    node.insert_child(separator, right, self.probe(id), self.written(id));
                if key >= separator {
                    drop(child);
                    child = node.lock_child(right_slot);
                }
            }
            node = child;
        }
        // Leaf with room guaranteed.
        let id = node.addr();
        self.visited(id);
        node.upsert(key, value, self.probe(id), self.written(id))
    }

    /// The pessimistic removal: take the tree lock in write mode, fix the
    /// root (collapse single-child shells), then descend with writer
    /// latch crabbing, pre-balancing every child at the underflow
    /// threshold before stepping into it — so the final leaf removal can
    /// never underflow a node.
    fn remove_pessimistic(&self, key: &K) -> Option<V> {
        self.counters.root_write_locks.incr();
        let tree = WriteGuard::lock(&self.root);
        let mut node = tree.lock_root();
        // Root fixes under the tree lock: collapse single-child shells,
        // including one produced by rebalancing the root's own children
        // just below.
        while !node.target().is_leaf {
            let child = if node.len == 0 {
                node.lock_child(0)
            } else {
                let child = self.lock_child_rebalanced(&mut node, key);
                if node.len > 0 {
                    node = child;
                    break;
                }
                // The rebalance merged the root's only two children.
                child
            };
            tree.replace(&child);
            self.counters.root_collapses.incr();
            self.retire_node(mem::replace(&mut node, child));
        }
        drop(tree);

        // Crab down with writer locks, pre-balancing each child.
        while !node.target().is_leaf {
            node = self.lock_child_rebalanced(&mut node, key);
        }
        // The leaf is above the threshold (or it is the root leaf).
        let slot = node.keys().binary_search(key).ok();
        slot.map(|slot| node.remove_entry(slot))
    }

    /// Locks the child of `parent`, an internal node with at least one key
    /// (so a sibling always exists), covering `key`; if the child sits at
    /// the underflow threshold, rebalances it with an adjacent sibling
    /// first (borrow or merge) so one removal below cannot underflow it.
    /// Returns the (exclusively locked) child covering `key` after the
    /// fix; the parent stays exclusively locked and loses at most one
    /// separator.
    fn lock_child_rebalanced<'t>(
        &self,
        parent: &mut WriteGuard<'t, Node<K, V, F>>,
        key: &K,
    ) -> WriteGuard<'t, Node<K, V, F>> {
        let slot = parent.upper_bound(key, |_| ());
        let child = parent.lock_child(slot);
        if child.len > Self::MIN_KEYS {
            return child;
        }
        // Pair the child with a neighbour under the same parent.  The
        // pair is always locked left-to-right — the leaf-chain order — so
        // rebalancing cannot deadlock against range scans.
        let (mut left, mut right, sep) = if slot == 0 {
            (child, parent.lock_child(1), 0)
        } else {
            // The left sibling must be locked first; dropping the child's
            // lock is safe because the parent's exclusive lock keeps every
            // descent (and thus every child mutation) out.
            drop(child);
            (
                parent.lock_child(slot - 1),
                parent.lock_child(slot),
                slot - 1,
            )
        };
        if left.len + right.len + left.sep_cost() <= F {
            parent.merge(sep, &mut left, &mut right);
            self.retire_node(right);
            self.counters.nodes_merged.incr();
            left
        } else {
            parent.rebalance(sep, &mut left, &mut right);
            self.counters.nodes_borrowed.incr();
            if parent.keys()[sep] <= *key {
                right
            } else {
                left
            }
        }
    }
}

impl<K, V, const F: usize, T: Tracer> Drop for OccBTree<K, V, F, T> {
    fn drop(&mut self) {
        let mut stack = vec![self.root.as_mut_ptr()];
        while let Some(node) = stack.pop() {
            // SAFETY: `&mut self` means no concurrent accessors, and every
            // node is reachable from the root exactly once.
            let mut node = unsafe { Box::from_raw(node) };
            let inner = node.inner.get_mut();
            if !inner.is_leaf() {
                stack.extend_from_slice(&inner.children()[..=inner.len]);
            }
        }
    }
}

impl<K: IndexKey, V: IndexValue, const F: usize, T: Tracer + Send + Sync> ConcurrentIndex<K, V>
    for OccBTree<K, V, F, T>
{
    /// Inserts `key → value` optimistically (reader locks down, writer
    /// lock on the leaf); a full leaf retires to the root and goes
    /// pessimistic.
    fn insert(&self, key: K, value: V) -> Option<V> {
        let (mut leaf, _) = self.lock_leaf::<true>(Some(&key));
        let id = leaf.addr();
        let full = leaf.len == F && leaf.search(&key, self.probe(id)).is_err();
        let result = (!full).then(|| leaf.upsert(key, value, self.probe(id), self.written(id)));
        drop(leaf);
        // A full leaf retires to the root and goes pessimistic.
        let old = result.unwrap_or_else(|| self.insert_pessimistic(key, value));
        if old.is_none() {
            self.len.add(1);
        }
        old
    }

    fn get(&self, key: &K) -> Option<V> {
        let (leaf, _) = self.lock_leaf::<false>(Some(key));
        let id = leaf.addr();
        let slot = leaf.search(key, self.probe(id)).ok();
        let slot = slot.inspect(|&slot| self.slots(id, &leaf, slot..slot, slot..slot + 1));
        slot.map(|slot| leaf.value(slot))
    }

    /// Removes `key`.  The common case is optimistic (reader locks down,
    /// exclusive lock on the leaf); a removal that would push the leaf to
    /// the underflow threshold retires to the root and rebalances on the
    /// way down (see the module docs).
    fn remove(&self, key: &K) -> Option<V> {
        let (mut leaf, is_root) = self.lock_leaf::<true>(Some(key));
        // `None`: the removal must retire to the root.
        let result = match leaf.keys().binary_search(key) {
            // A root leaf may shrink to empty; any other leaf must stay
            // above the threshold or rebalance pessimistically.
            Ok(slot) if is_root || leaf.len > Self::MIN_KEYS => Some(Some(leaf.remove_entry(slot))),
            Ok(_) => None,
            Err(_) => Some(None),
        };
        drop(leaf);
        let old = result.unwrap_or_else(|| self.remove_pessimistic(key));
        if old.is_some() {
            self.len.add(-1);
        }
        old
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
    fn stat<const F: usize, T: Tracer + Send + Sync>(
        tree: &OccBTree<u64, u64, F, T>,
        name: &str,
    ) -> u64 {
        tree.stats().get(name).unwrap()
    }

    /// Panics unless the quiescent `tree` is well-formed: keys ascend
    /// inside each node and lie within the node's separators, all leaves
    /// sit at one depth, the `next_leaf` chain is the in-order leaf
    /// sequence and ends in null, and every non-root node holds at least
    /// `MIN_KEYS` entries.  Returns the number of levels.
    fn check_invariants<const F: usize, T: Tracer + Send + Sync>(
        tree: &OccBTree<u64, u64, F, T>,
    ) -> usize {
        /// Checks the subtree at `node`, whose keys lie in `[lo, hi)`,
        /// appends its leaves in order and returns its height.
        fn walk<const F: usize>(
            node: &ReadGuard<'_, Node<u64, u64, F>>,
            (lo, hi): (Option<u64>, Option<u64>),
            is_root: bool,
            leaves: &mut Vec<usize>,
        ) -> usize {
            let (node_is_leaf, inner) = (node.target().is_leaf, &**node);
            let keys = inner.keys();
            assert_eq!(node_is_leaf, inner.is_leaf());
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
            assert!(
                keys.iter()
                    .all(|&k| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi)),
                "a key outside its separators"
            );
            if !is_root {
                assert!(
                    inner.len >= OccBTree::<u64, u64, F>::MIN_KEYS,
                    "underfull node"
                );
            }
            if inner.is_leaf() {
                leaves.push(node.addr());
                return 0;
            }
            let heights: Vec<usize> = (0..=inner.len)
                .map(|i| {
                    let lo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let hi = keys.get(i).copied().or(hi);
                    walk(&node.lock_child(i), (lo, hi), false, leaves)
                })
                .collect();
            assert!(
                heights.iter().all(|&h| h == heights[0]),
                "uneven leaf depths"
            );
            heights[0] + 1
        }
        let mut leaves = Vec::new();
        let height = walk(
            &ReadGuard::lock(&tree.root).lock_root(),
            (None, None),
            true,
            &mut leaves,
        );
        let mut leaf: ReadGuard<'_, _> = ReadGuard::lock(&tree.root).lock_root();
        while !leaf.is_leaf() {
            leaf = leaf.lock_child(0);
        }
        let (mut chain, mut entries) = (vec![leaf.addr()], leaf.len);
        while let Some(next) = leaf.lock_next() {
            chain.push(next.addr());
            entries += next.len;
            leaf = next;
        }
        assert!(chain == leaves, "the leaf chain is not the in-order leaves");
        assert_eq!(entries, tree.len());
        height + 1
    }

    /// Replays the operation stream of
    /// `differential_with_heavy_deletes_against_btreemap` on a fresh tree
    /// of fanout `F`.
    fn heavy_delete_stream<const F: usize>() -> OccBTree<u64, u64, F> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let tree = OccBTree::new();
        for round in 0..6 {
            let insert_weight = if round % 2 == 0 { 7 } else { 2 };
            for _ in 0..4000 {
                let key = rng.gen_range(0..1200u64);
                if rng.gen_range(0..10) < insert_weight {
                    tree.insert(key, rng.gen::<u64>());
                } else {
                    tree.remove(&key);
                }
            }
        }
        tree
    }

    /// Every split, merge, borrow and collapse decision shows in these
    /// counters, which Figure 8 and `stat_root_locks` print; the node
    /// sizes fix the layout.  Both are pinned at their measured values.
    #[test]
    fn heavy_delete_stream_keeps_the_parents_structure() {
        fn counters<const F: usize>() -> [u64; 6] {
            let tree = heavy_delete_stream::<F>();
            check_invariants(&tree);
            let names = [
                "root_write_locks",
                "nodes_merged",
                "nodes_borrowed",
                "root_collapses",
                "live_nodes",
            ];
            let [a, b, c, d, e] = names.map(|name| stat(&tree, name));
            [a, b, c, d, e, tree.len() as u64]
        }
        assert_eq!(counters::<4>(), [1663, 1042, 130, 19, 197, 261]);
        assert_eq!(counters::<8>(), [759, 381, 18, 0, 78, 261]);
        assert_eq!(counters::<15>(), [365, 167, 3, 0, 43, 261]);
        assert_eq!(counters::<64>(), [69, 31, 0, 0, 9, 261]);
        assert_eq!(size_of::<Node<u64, u64, 64>>(), 1088);
        assert_eq!(size_of::<Node<u64, u64, 15>>(), 320);
        assert_eq!(size_of::<Node<u64, u64, 8>>(), 192);
    }

    /// The shape holds throughout random churn and a full drain, at the
    /// narrowest fanout, an odd one and the shipped ones.
    #[test]
    fn shape_holds_through_churn_and_a_drain() {
        fn churn<const F: usize>() {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(F as u64);
            let tree = OccBTree::<u64, u64, F>::new();
            for op in 1..=40_000 {
                let key = rng.gen_range(0..3000u64);
                if rng.gen_bool(0.6) {
                    tree.insert(key, key);
                } else {
                    tree.remove(&key);
                }
                if op % 4000 == 0 {
                    check_invariants(&tree);
                }
            }
            for (drained, key) in (0..3000u64).enumerate() {
                tree.remove(&key);
                if drained % 300 == 0 {
                    check_invariants(&tree);
                }
            }
            check_invariants(&tree);
            assert_eq!(stat(&tree, "live_nodes"), 1);
        }
        churn::<4>();
        churn::<5>();
        churn::<8>();
        churn::<15>();
        churn::<64>();
    }

    /// One random insert / get / scan / remove stream applied to `tree`;
    /// returns every result and the final statistics.
    fn observe<T: Tracer + Send + Sync>(
        tree: &OccBTree<u64, u64, 8, T>,
    ) -> (Vec<Option<u64>>, IndexStats) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut results = Vec::new();
        for _ in 0..6000 {
            let key = rng.gen_range(0..1500u64);
            match rng.gen_range(0..10) {
                0..=4 => results.push(tree.insert(key, rng.gen())),
                5..=6 => results.push(tree.get(&key)),
                7 => results.extend(tree.scan(key..).take(20).map(|(k, v)| Some(k ^ v))),
                _ => results.push(tree.remove(&key)),
            }
        }
        check_invariants(tree);
        (results, tree.stats())
    }

    #[test]
    fn tracing_changes_nothing_and_sees_every_kind_of_event() {
        let traced = OccBTree::with_tracer(crate::Recording::default());
        assert_eq!(observe(&SmallTree::new()), observe(&traced));
        // Every touch lay inside an announced node (`Recording` checks).
        let announced = traced.tracer().nodes.lock().unwrap().len() as u64;
        let live_nodes = traced.stats().get("live_nodes").unwrap();
        assert!(announced >= live_nodes, "every node was announced");
        assert!(!traced.tracer().touched.lock().unwrap().is_empty());
        assert_eq!(size_of::<NoTrace>(), 0);
    }

    #[test]
    fn a_get_searches_one_node_per_level() {
        let tree = OccBTree::<u64, u64, 4, _>::with_tracer(crate::Recording::default());
        for key in 0..1000u64 {
            tree.insert(key, key);
        }
        let levels = check_invariants(&tree);
        assert!(levels >= 4, "{levels} levels");
        for key in [0, 499, 999, 1000] {
            let (leaf, values) = {
                let (leaf, _) = tree.lock_leaf::<false>(Some(&key));
                let values = leaf.values().as_ptr_range();
                let id = leaf.addr();
                (id, values.start.addr() - id..values.end.addr() - id)
            };
            tree.tracer().touched.lock().unwrap().clear();
            let found = tree.get(&key);
            let touched = tree.tracer().touched.lock().unwrap();
            let nodes: std::collections::HashSet<usize> =
                touched.iter().map(|&(id, ..)| id).collect();
            assert_eq!(nodes.len(), levels, "nodes touched for {key}");
            // A value slot is read exactly when the key is found.
            let value_reads = touched
                .iter()
                .filter(|&&(id, offset, _)| id == leaf && values.contains(&offset))
                .count();
            assert_eq!(value_reads, usize::from(found.is_some()), "{key}");
        }
    }

    /// A panic under the tree's locks releases them: a tracer panics at
    /// each event of one insert in turn, across a run of inserts into the
    /// rightmost leaf that includes a split retiring to the root.
    #[test]
    fn a_panic_under_a_lock_releases_it() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::Ordering::Relaxed;
        type Tree = OccBTree<u64, u64, 4, crate::Tripwire>;
        /// Reads every lock of `tree` before taking it, so a leaked lock
        /// fails here instead of hanging.
        fn assert_unlocked(tree: &Tree) {
            fn walk(node: &ReadGuard<'_, Node<u64, u64, 4>>) {
                for slot in (0..=node.len).filter(|_| !node.is_leaf()) {
                    assert!(!node.child(slot).lock.is_locked(), "a node lock");
                    walk(&node.lock_child(slot));
                }
            }
            assert!(!tree.root.latch().is_locked(), "the tree lock");
            let root = ReadGuard::lock(&tree.root);
            assert!(!root.root().lock.is_locked(), "the root's lock");
            walk(&root.lock_root());
        }
        let mut splits = 0;
        for probe in 0..4 {
            for fuse in 1.. {
                let tree = Tree::with_tracer(crate::Tripwire::default());
                for key in (0..200).chain(1000..1000 + probe) {
                    tree.insert(key, key);
                }
                let root_write_locks = stat(&tree, "root_write_locks");
                tree.tracer().fuse.store(fuse, Relaxed);
                let key = 1000 + probe;
                if catch_unwind(AssertUnwindSafe(|| tree.insert(key, key))).is_ok() {
                    splits += stat(&tree, "root_write_locks") - root_write_locks;
                    break;
                }
                assert_unlocked(&tree);
                assert_eq!(tree.insert(key, 7), None, "probe {probe}, fuse {fuse}");
                assert_eq!(tree.get(&key), Some(7), "probe {probe}, fuse {fuse}");
            }
        }
        assert!(splits > 0, "some probe retired to the root");
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = SmallTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.get(&5), None);
        assert_eq!(tree.remove(&5), None);
        assert_eq!(tree.scan(0..).take(10).count(), 0);
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
        scanned.extend(tree.scan(0..).take(5000).map(|(k, _)| k));
        assert_eq!(scanned, (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans_cross_leaf_boundaries() {
        let tree = SmallTree::new();
        for key in 0..200u64 {
            tree.insert(key * 2, key);
        }
        let mut seen = Vec::new();
        seen.extend(tree.scan(101..).take(10));
        let count = seen.len();
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
        scanned.extend(tree.scan(..));
        assert_eq!(scanned, oracle.into_iter().collect::<Vec<_>>());
        check_invariants(&tree);
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
        for (k, _) in tree.scan(..) {
            if let Some(p) = previous {
                assert!(p < k, "leaf chain out of order");
            }
            previous = Some(k);
            count += 1;
        }
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
        check_invariants(&tree);
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
                        for (k, _) in tree.scan(0..).take(200) {
                            if let Some(p) = previous {
                                assert!(p < k, "scan out of order under merges");
                            }
                            previous = Some(k);
                        }
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
        scanned.extend(tree.scan(..).map(|(k, _)| k));
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
            scanned.extend(tree.scan(..));
            assert_eq!(
                scanned,
                oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            );
            check_invariants(&tree);
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
            check_invariants(&tree);
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
            scanned.extend(tree.scan(..));
            assert_eq!(scanned, oracle.into_iter().collect::<Vec<_>>());
            check_invariants(&tree);
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
            check_invariants(&tree);
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
            check_invariants(&tree);
            for key in (0..18_000u64).step_by(997) {
                assert!(tree.contains_key(&key));
            }
        }
    }
}
