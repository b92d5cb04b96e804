//! Node handles and lock guards: every node dereference and every lock
//! release the four baselines make.
//!
//! * A [`NodeRef<'g, T>`](NodeRef) is a handle on a node that stays
//!   allocated while the borrow `'g` lives.  It is one word, `Copy`, and
//!   dereferences to the node.  The skiplists make handles by loading a
//!   link under an epoch pin ([`NodeRef::load`]), which brands the handle
//!   with the pin's borrow and strips `tower.rs`'s deletion mark; the
//!   B+-tree makes them from a locked parent ([`Guard::child`]).
//! * A [`Guard`] holds a [`RawRwSpinLock`], shared or exclusive, and
//!   releases it on drop.  Over a [`Latched`] node it dereferences to the
//!   node's interior and hands out the node's children and next leaf
//!   already locked, so a hand-over-hand step is "lock the child, drop the
//!   parent", and no unlock is written by hand.
//!
//! Handles and guards are one pointer wide and allocate nothing.  The
//! shape is crossbeam-epoch's guard-branded `Shared<'g, T>`; the
//! B-skiplist's own handles (`bskip-core`'s `guard.rs`) follow the same
//! rules but are branded by its list's pin and carry its node mutators.
//!
//! # The pin argument
//!
//! A link is an `AtomicPtr` a skiplist stores node addresses in: its head
//! array, a node's `next`, an index snapshot cloned under the pin.  Each
//! skiplist retires a node to its own collector only once no link a
//! traversal pinned later can load names it (each module's docs say how),
//! and the collector frees it only after every pin taken before the
//! retire is dropped.  So the node a link names when a pinned thread loads
//! it stays allocated while the pin lives, whatever happens to the link
//! afterwards.  This holds for a link loaded under a pin of the collector
//! its structure retires to.  The types do not check that pairing, nor
//! that an `AtomicPtr` passed to [`NodeRef::load`] is a link at all: the
//! crate keeps it as a rule, since each structure loads only its own links
//! and pins only its own collector.
//!
//! # The lock argument
//!
//! The B+-tree reads without pinning: a node stays allocated because it is
//! locked, or because a node linking it is (see [`Latched`]).

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, Ordering};

use bskip_sync::{EbrGuard, RawRwSpinLock};

use crate::tower::{is_marked, unmark};

/// A handle on a node that stays allocated while `'g` lives.
pub(crate) struct NodeRef<'g, T> {
    ptr: NonNull<T>,
    _brand: PhantomData<&'g T>,
}

impl<T> Clone for NodeRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for NodeRef<'_, T> {}

impl<T> Deref for NodeRef<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.get()
    }
}

impl<'g, T> NodeRef<'g, T> {
    fn new(ptr: NonNull<T>) -> Self {
        NodeRef {
            ptr,
            _brand: PhantomData,
        }
    }

    /// Loads `link` under `pin`: the node it names, if any, with the
    /// deletion mark stripped, and whether the mark was set.
    pub(crate) fn load_marked(
        link: &AtomicPtr<T>,
        order: Ordering,
        _pin: &'g EbrGuard<'_>,
    ) -> (Option<Self>, bool) {
        let ptr = link.load(order);
        (NonNull::new(unmark(ptr)).map(Self::new), is_marked(ptr))
    }

    /// [`NodeRef::load_marked`] without the mark.
    pub(crate) fn load(
        link: &AtomicPtr<T>,
        order: Ordering,
        pin: &'g EbrGuard<'_>,
    ) -> Option<Self> {
        Self::load_marked(link, order, pin).0
    }

    /// Moves `node` to the heap, where it stays until a retire or the
    /// structure's drop frees it.
    pub(crate) fn alloc(node: Box<T>, _pin: &'g EbrGuard<'_>) -> Self {
        Self::new(NonNull::from(Box::leak(node)))
    }

    /// Publishes `node` into `link` if the link still holds `current`,
    /// with `compare_exchange`'s orderings: the node's handle, or `node`
    /// handed back, never shared, if the link moved.
    pub(crate) fn publish(
        link: &AtomicPtr<T>,
        current: *mut T,
        node: Box<T>,
        success: Ordering,
        failure: Ordering,
        pin: &'g EbrGuard<'_>,
    ) -> Result<Self, Box<T>> {
        let node = Self::alloc(node, pin);
        match link.compare_exchange(current, node.as_ptr(), success, failure) {
            Ok(_) => Ok(node),
            // SAFETY: the exchange failed, so the node was never published
            // and this thread still owns the `Box` it came from.
            Err(_) => Err(unsafe { Box::from_raw(node.as_ptr()) }),
        }
    }

    /// The node, for as long as the handle's brand.
    pub(crate) fn get(self) -> &'g T {
        // SAFETY: a handle is made from a link loaded under a pin or from
        // an allocation under one (the pin argument), from a locked parent
        // (the lock argument), or for a guard's target, which its lock keeps
        // allocated and which never leaves the guard; in each case the node
        // stays allocated while `'g` lives.  Every path to a node
        // synchronizes with its publication (a `Release` store read by an
        // `Acquire` load, or a lock), and nodes are read only through
        // atomics, locks and fields fixed before publication, so a shared
        // reference is sound.
        unsafe { self.ptr.as_ref() }
    }

    /// The node's address: what a link stores, and the tracer's node id.
    pub(crate) fn as_ptr(self) -> *mut T {
        self.ptr.as_ptr()
    }

    /// The address of `node`, null for `None`.
    pub(crate) fn or_null(node: Option<Self>) -> *mut T {
        node.map_or(ptr::null_mut(), Self::as_ptr)
    }
}

/// Something a lock word guards: a bare lock, a tree root or a node.
pub(crate) trait Latch {
    /// The lock word.
    fn latch(&self) -> &RawRwSpinLock;
}

impl Latch for RawRwSpinLock {
    fn latch(&self) -> &RawRwSpinLock {
        self
    }
}

/// A node whose lock guards its interior, and whose interior links its
/// children and its next leaf.
///
/// # Safety
///
/// An implementor promises that `interior` is the cell `latch` guards,
/// reached by no other path; and that `child` and `next` return null or a
/// node linked from `inner`, which the structure unlinks only under the
/// exclusive locks of every node linking it and frees only after releasing
/// them, so it stays allocated while `inner`'s node is locked.
pub(crate) unsafe trait Latched: Latch + Sized {
    /// What the lock guards.
    type Inner;

    /// The guarded interior.
    fn interior(&self) -> &UnsafeCell<Self::Inner>;

    /// Child `slot` of an internal node.
    fn child(inner: &Self::Inner, slot: usize) -> *mut Self;

    /// A leaf's right neighbour.
    fn next(inner: &Self::Inner) -> *mut Self;
}

/// A lock held on `T`, exclusively if `EXCLUSIVE`, released on drop.
pub(crate) struct Guard<'a, T: Latch, const EXCLUSIVE: bool> {
    target: NodeRef<'a, T>,
}

/// A shared lock, released on drop.
pub(crate) type ReadGuard<'a, T> = Guard<'a, T, false>;

/// An exclusive lock, released on drop.
pub(crate) type WriteGuard<'a, T> = Guard<'a, T, true>;

impl<'a, T: Latch, const EXCLUSIVE: bool> Guard<'a, T, EXCLUSIVE> {
    /// Locks `target` in this mode, waiting for it.
    pub(crate) fn lock(target: &'a T) -> Self {
        Self::lock_at(NonNull::from(target))
    }

    /// Locks the target at `target`, which stays allocated while it is
    /// locked and `'a` lives: a reference's, or one a held lock keeps.
    fn lock_at(target: NonNull<T>) -> Self {
        let target = NodeRef::new(target);
        let latch = target.get().latch();
        if EXCLUSIVE {
            latch.lock_exclusive();
        } else {
            latch.lock_shared();
        }
        Guard { target }
    }

    /// The locked thing.
    pub(crate) fn target(&self) -> &T {
        self.target.get()
    }

    /// The locked thing's address: the tracer's node id, a retire's
    /// argument.
    pub(crate) fn as_ptr(&self) -> *mut T {
        self.target.as_ptr()
    }

    /// [`Guard::as_ptr`] as an integer.
    pub(crate) fn addr(&self) -> usize {
        self.as_ptr().addr()
    }
}

impl<T: Latch, const EXCLUSIVE: bool> Drop for Guard<'_, T, EXCLUSIVE> {
    fn drop(&mut self) {
        let latch = self.target().latch();
        if EXCLUSIVE {
            latch.unlock_exclusive();
        } else {
            latch.unlock_shared();
        }
    }
}

impl<T: Latched, const EXCLUSIVE: bool> Deref for Guard<'_, T, EXCLUSIVE> {
    type Target = T::Inner;

    fn deref(&self) -> &T::Inner {
        // SAFETY: the guard holds the latch that guards the cell
        // (`Latched`'s contract); `&mut` access needs an exclusive guard
        // borrowed mutably, which no other guard on the node can coexist
        // with.
        unsafe { &*self.target().interior().get() }
    }
}

impl<T: Latched> DerefMut for Guard<'_, T, true> {
    fn deref_mut(&mut self) -> &mut T::Inner {
        // SAFETY: as in `deref`; the lock is exclusive and the guard
        // borrowed mutably, so this is the cell's only reference.
        unsafe { &mut *self.target().interior().get() }
    }
}

impl<'t, N: Latched, const EXCLUSIVE: bool> Guard<'t, N, EXCLUSIVE> {
    /// Child `slot` of this internal node, allocated while this lock is
    /// held.
    pub(crate) fn child(&self, slot: usize) -> NodeRef<'_, N> {
        NodeRef::new(NonNull::new(N::child(self, slot)).expect("a live child slot"))
    }

    /// Child `slot`, locked exclusively if `C`; this node stays locked
    /// until its own guard drops.
    pub(crate) fn lock_child<const C: bool>(&self, slot: usize) -> Guard<'t, N, C> {
        Guard::lock_at(self.child(slot).ptr)
    }

    /// This leaf's right neighbour, locked exclusively if `C`; `None` at
    /// the end of the chain.
    pub(crate) fn lock_next<const C: bool>(&self) -> Option<Guard<'t, N, C>> {
        NonNull::new(N::next(self)).map(Guard::lock_at)
    }
}

/// A tree's root pointer, with the tree-level lock that guards it: a root
/// is replaced, and an old one retired, only under that lock held
/// exclusively.
pub(crate) struct Root<N> {
    lock: RawRwSpinLock,
    node: AtomicPtr<N>,
}

impl<N> Root<N> {
    /// A root holding `node`.
    pub(crate) fn new(node: Box<N>) -> Self {
        Root {
            lock: RawRwSpinLock::new(),
            node: AtomicPtr::new(Box::into_raw(node)),
        }
    }

    /// The root node's address, through exclusive access to the tree.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut N {
        *self.node.get_mut()
    }
}

impl<N> Latch for Root<N> {
    fn latch(&self) -> &RawRwSpinLock {
        &self.lock
    }
}

impl<'t, N: Latched, const EXCLUSIVE: bool> Guard<'t, Root<N>, EXCLUSIVE> {
    /// The root node, allocated while the tree lock is held.
    pub(crate) fn root(&self) -> NodeRef<'_, N> {
        let root = self.target().node.load(Ordering::Acquire);
        NodeRef::new(NonNull::new(root).expect("a tree has a root"))
    }

    /// The root node, locked exclusively if `C`.
    pub(crate) fn lock_root<const C: bool>(&self) -> Guard<'t, N, C> {
        Guard::lock_at(self.root().ptr)
    }
}

impl<'t, N: Latched> Guard<'t, Root<N>, true> {
    /// Makes `node`, a child this thread holds exclusively, the root.
    pub(crate) fn replace(&self, node: &Guard<'t, N, true>) {
        self.target().node.store(node.as_ptr(), Ordering::Release);
    }

    /// Makes the fresh `node` the root; it is returned locked exclusively,
    /// and was locked before it was published.
    pub(crate) fn install(&self, node: Box<N>) -> Guard<'t, N, true> {
        let node = Guard::lock_at(NonNull::from(Box::leak(node)));
        self.replace(&node);
        node
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    use super::*;
    use crate::tower::marked;

    /// A two-child node: the smallest `Latched` type.
    struct Pair {
        lock: RawRwSpinLock,
        inner: UnsafeCell<[*mut Pair; 2]>,
    }

    impl Latch for Pair {
        fn latch(&self) -> &RawRwSpinLock {
            &self.lock
        }
    }

    // SAFETY: the cell is reached only through `interior`; the test's nodes
    // outlive every guard on them.
    unsafe impl Latched for Pair {
        type Inner = [*mut Pair; 2];

        fn interior(&self) -> &UnsafeCell<[*mut Pair; 2]> {
            &self.inner
        }

        fn child(inner: &[*mut Pair; 2], slot: usize) -> *mut Pair {
            inner[slot]
        }

        fn next(inner: &[*mut Pair; 2]) -> *mut Pair {
            inner[1]
        }
    }

    fn pair(children: [*mut Pair; 2]) -> Pair {
        Pair {
            lock: RawRwSpinLock::new(),
            inner: UnsafeCell::new(children),
        }
    }

    #[test]
    fn handles_and_guards_are_one_pointer_wide() {
        let word = size_of::<usize>();
        assert_eq!(size_of::<NodeRef<'_, Pair>>(), word);
        assert_eq!(size_of::<Option<NodeRef<'_, Pair>>>(), word);
        assert_eq!(size_of::<ReadGuard<'_, RawRwSpinLock>>(), word);
        assert_eq!(size_of::<WriteGuard<'_, RawRwSpinLock>>(), word);
        assert_eq!(size_of::<ReadGuard<'_, Pair>>(), word);
        assert_eq!(size_of::<WriteGuard<'_, Pair>>(), word);
        assert_eq!(size_of::<WriteGuard<'_, Root<Pair>>>(), word);
    }

    #[test]
    fn guards_unlock_on_drop() {
        let lock = RawRwSpinLock::new();
        let (first, second) = (ReadGuard::lock(&lock), ReadGuard::lock(&lock));
        assert!(lock.is_locked());
        assert!(lock.optimistic_version().is_some(), "readers share");
        drop((first, second));
        assert!(!lock.is_locked());
        let writer = WriteGuard::lock(&lock);
        assert_eq!(lock.optimistic_version(), None);
        assert!(ptr::eq(writer.target(), &lock));
        drop(writer);
        assert!(!lock.is_locked());
    }

    #[test]
    fn an_exclusive_guard_bumps_the_version() {
        let lock = RawRwSpinLock::new();
        let version = lock.optimistic_version().expect("unlocked");
        drop(ReadGuard::lock(&lock));
        assert!(lock.validate_version(version), "a reader leaves it");
        drop(WriteGuard::lock(&lock));
        assert!(!lock.validate_version(version), "a write cycle bumps it");
    }

    #[test]
    fn a_locked_node_hands_out_its_children_locked() {
        let leaf = || Box::into_raw(Box::new(pair([ptr::null_mut(); 2])));
        let (left, right) = (leaf(), leaf());
        let mut root = Root::new(Box::new(pair([left, right])));
        let tree = ReadGuard::lock(&root);
        let parent: ReadGuard<'_, Pair> = tree.lock_root();
        drop(tree);
        let child: WriteGuard<'_, Pair> = parent.lock_child(0);
        let next: ReadGuard<'_, Pair> = parent.lock_next().expect("a right child");
        assert_eq!((child.as_ptr(), next.as_ptr()), (left, right));
        assert_eq!(parent.child(1).as_ptr(), right);
        let locks = [child.target().latch(), next.target().latch()].map(ptr::from_ref);
        drop((parent, child, next));
        // SAFETY: both nodes are still allocated; no guard is left.
        assert!(locks.iter().all(|&lock| !unsafe { &*lock }.is_locked()));
        for node in [left, right, root.as_mut_ptr()] {
            // SAFETY: each came from `Box::into_raw` and is freed once.
            drop(unsafe { Box::from_raw(node) });
        }
    }

    #[test]
    fn a_failed_publish_hands_the_node_back() {
        let collector = bskip_sync::EbrCollector::new();
        let pin = collector.pin();
        let link = AtomicPtr::default();
        let stale = NodeRef::alloc(Box::new(1u64), &pin).as_ptr();
        let (order, pin) = (Ordering::Relaxed, &pin);
        let node = NodeRef::publish(&link, ptr::null_mut(), Box::new(2u64), order, order, pin);
        let node = node.expect("the link held null");
        assert_eq!(link.load(order), node.as_ptr());
        let back = NodeRef::publish(&link, stale, Box::new(3u64), order, order, pin);
        assert_eq!(back.err().as_deref(), Some(&3), "the link moved");
        assert_eq!(NodeRef::load(&link, order, pin).map(|node| *node), Some(2));
        for node in [stale, node.as_ptr()] {
            // SAFETY: each came from `alloc` or `publish` and is freed once.
            drop(unsafe { Box::from_raw(node) });
        }
    }

    #[test]
    fn loading_a_link_strips_the_deletion_mark() {
        let collector = bskip_sync::EbrCollector::new();
        let pin = collector.pin();
        let node = NodeRef::alloc(Box::new(7u64), &pin);
        let link = AtomicPtr::new(node.as_ptr());
        let load = || NodeRef::load_marked(&link, Ordering::Relaxed, &pin);
        assert_eq!(load().0.map(NodeRef::as_ptr), Some(node.as_ptr()));
        assert!(!load().1);
        link.store(marked(node.as_ptr()), Ordering::Relaxed);
        assert_eq!(load().0.map(NodeRef::as_ptr), Some(node.as_ptr()));
        assert!(load().1);
        assert_eq!(load().0.map(|node| *node), Some(7));
        assert!(NodeRef::load(&AtomicPtr::<u64>::default(), Ordering::Relaxed, &pin).is_none());
        // SAFETY: `node` came from `alloc` and is freed once, here.
        drop(unsafe { Box::from_raw(node.as_ptr()) });
    }
}
