//! Pins, node handles and lock guards: the B-skiplist's locking protocol
//! (`list/mod.rs`) as types.
//!
//! * A [`Pin`] is an epoch pin on one list.  [`BSkipList::pin`] is the
//!   only way to make one, so "pinned on *this* list" holds by
//!   construction, and every operation that follows node pointers is a
//!   method of it.
//! * A [`NodeRef<'g>`](NodeRef) is a node handle that lives no longer than
//!   the pin borrow `'g` it was made under.  It is made only by the pin (a
//!   head, a fresh allocation) or by another handle (its `next`, a child),
//!   so it always points at a node reached under that pin.  Reading
//!   through one is safe: every node reader is one atomic load
//!   (`node.rs`), exact under the node's lock and provisional without it.
//! * [`NodeRef::lock`] returns a [`ReadGuard`] or a [`WriteGuard`], which
//!   unlock on drop.  The node mutators are methods of the write guard
//!   alone (`node.rs`), so hand-over-hand is "lock the child, drop the
//!   parent", and no unlock can be forgotten or doubled.
//!
//! Handles and guards are one pointer wide and allocate nothing.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};

use bskip_index::{IndexKey, IndexValue};
use bskip_sync::{EbrGuard, Racy};

use crate::list::BSkipList;
use crate::node::Node;

/// An epoch pin on one list; dereferences to the list.
pub(crate) struct Pin<'l, K: IndexKey + Racy, V: IndexValue + Racy, const B: usize> {
    list: &'l BSkipList<K, V, B>,
    guard: EbrGuard<'l>,
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize> BSkipList<K, V, B> {
    /// Pins this list's epoch collector: the only way to make a [`Pin`].
    pub(crate) fn pin(&self) -> Pin<'_, K, V, B> {
        Pin {
            list: self,
            guard: self.collector().pin(),
        }
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize> Deref for Pin<'_, K, V, B> {
    type Target = BSkipList<K, V, B>;

    fn deref(&self) -> &BSkipList<K, V, B> {
        self.list
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize> Pin<'_, K, V, B> {
    /// The head (left sentinel) of `level`.
    #[inline]
    pub(crate) fn head(&self, level: usize) -> NodeRef<'_, K, V, B> {
        NodeRef::new(self.list.head_ptr(level))
    }

    /// Allocates an empty node at `level`, write-locked: it is linked in
    /// under that lock, so a traversal that reaches it waits until the
    /// writer is done with it.  Freed either by the retire of a later
    /// unlink or, never linked in, by [`Node::free`].
    pub(crate) fn alloc(&self, level: usize) -> WriteGuard<'_, K, V, B> {
        NodeRef::new(Node::alloc(level, false, ptr::null_mut())).lock()
    }

    /// Unlocks a node and retires it to the collector; its memory is freed
    /// once every traversal that could still reach it has finished.
    ///
    /// The caller must have physically unlinked the node (no head-reachable
    /// pointer leads to it) under the write locks the unlink protocol
    /// requires, or never linked it in.  Its guard is taken by value, so it
    /// is retired once.
    pub(crate) fn defer_free(&self, node: WriteGuard<'_, K, V, B>) {
        let ptr = node.as_ptr();
        drop(node);
        // SAFETY: per the contract above the node is unreachable for new
        // traversals, and only a traversal pinned now can still hold it —
        // which the collector waits out, the module docs' "Why racing
        // structure changes is safe" argument.  It was allocated by
        // `Box::leak` in `Node::alloc`, its keys and values are `Copy` +
        // `Send`, so the deferred drop may run on any thread, and the guard
        // was consumed, so it is retired once.
        unsafe { self.guard.retire_box(ptr) };
    }

    /// Re-wraps a pointer that was taken out of a handle under this pin
    /// ([`NodeRef::as_ptr`]); null is `None`.
    ///
    /// # Safety
    ///
    /// `ptr` is null or was read out of a node reached under this pin.
    pub(crate) unsafe fn unpark(&self, ptr: *mut Node<K, V, B>) -> Option<NodeRef<'_, K, V, B>> {
        NodeRef::follow(ptr)
    }
}

/// A handle on a node reached under a pin, valid while the pin borrow
/// `'g` lives.  Dereferences to the node's readers; `Copy`.
pub(crate) struct NodeRef<'g, K, V, const B: usize> {
    ptr: NonNull<Node<K, V, B>>,
    _pin: PhantomData<&'g ()>,
}

impl<K, V, const B: usize> Clone for NodeRef<'_, K, V, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V, const B: usize> Copy for NodeRef<'_, K, V, B> {}

impl<K, V, const B: usize> Deref for NodeRef<'_, K, V, B> {
    type Target = Node<K, V, B>;

    #[inline]
    fn deref(&self) -> &Node<K, V, B> {
        // SAFETY: a handle is made only in this module, from a head of the
        // pinned list (freed only when the list drops, which the pin's
        // borrow rules out), from a node the pin allocated, or from a
        // pointer read out of a node reached under the same pin; `'g`
        // borrows that pin.  A node is freed only after it was unlinked and
        // retired, and then only once every pin that could have reached it
        // is dropped, so even a pointer read from a stale or torn slot
        // stays dereferenceable for `'g` — the module docs' "Why racing
        // structure changes is safe" argument.  Pointers are published by
        // `Release` stores and read by `Acquire` loads (`node.rs`'s
        // publication rule), so the node a loaded pointer names was
        // initialised before the load, and a slot below a loaded `len` was
        // written before it — on any CPU.  Every field is a cell whose
        // races are defined behaviour, so a shared reference is sound
        // while writers store through theirs.
        unsafe { self.ptr.as_ref() }
    }
}

impl<'g, K, V, const B: usize> NodeRef<'g, K, V, B> {
    #[inline]
    fn new(ptr: NonNull<Node<K, V, B>>) -> Self {
        NodeRef {
            ptr,
            _pin: PhantomData,
        }
    }

    #[inline]
    fn follow(ptr: *mut Node<K, V, B>) -> Option<Self> {
        NonNull::new(ptr).map(Self::new)
    }

    /// The node's address, for storing in a link or parking.
    #[inline]
    pub(crate) fn as_ptr(self) -> *mut Node<K, V, B> {
        self.ptr.as_ptr()
    }

    /// Locks the node in the guard's mode, waiting for it.
    #[inline]
    pub(crate) fn lock<G: Locked<'g, K, V, B>>(self) -> G {
        G::lock(self)
    }
}

impl<'g, K: Racy + Ord, V: Racy, const B: usize> NodeRef<'g, K, V, B> {
    /// Right neighbour at this level; read like [`Node::len`].
    #[inline]
    pub(crate) fn next(self) -> Option<Self> {
        Self::follow(self.next_ptr())
    }

    /// Down pointer at slot `index` (internal nodes only); read like
    /// [`Node::len`].
    #[inline]
    pub(crate) fn child_at(self, index: usize) -> Option<Self> {
        Self::follow(self.child_ptr(index))
    }

    /// Down pointer of the implicit `-∞` entry (head nodes only); read
    /// like [`Node::len`].
    #[inline]
    pub(crate) fn head_child(self) -> Option<Self> {
        Self::follow(self.head_child_ptr())
    }
}

/// A lock held on one node, in either mode; the descents that serve both
/// readers and writers (`descend_locked`, `lock_covering`) are generic
/// over it.
pub(crate) trait Locked<'g, K, V, const B: usize>:
    Deref<Target = NodeRef<'g, K, V, B>> + Sized
{
    /// Whether this is the exclusive (writer) mode.
    const EXCLUSIVE: bool;

    /// Locks `node` in this mode, waiting for it.
    fn lock(node: NodeRef<'g, K, V, B>) -> Self;

    /// Locks `node` in this mode only if its version is still `version`,
    /// the one an optimistic descent validated; `None`, holding nothing,
    /// if it moved.  An unchanged version under the hold means the node
    /// still covers what it covered and is still linked.
    fn lock_at(node: NodeRef<'g, K, V, B>, version: u64) -> Option<Self>;
}

/// A shared lock on one node, released on drop.
pub(crate) struct ReadGuard<'g, K, V, const B: usize>(NodeRef<'g, K, V, B>);

/// An exclusive lock on one node, released on drop.  The node's mutators
/// are its methods (`node.rs`).
pub(crate) struct WriteGuard<'g, K, V, const B: usize>(NodeRef<'g, K, V, B>);

impl<'g, K, V, const B: usize> Deref for ReadGuard<'g, K, V, B> {
    type Target = NodeRef<'g, K, V, B>;

    #[inline]
    fn deref(&self) -> &NodeRef<'g, K, V, B> {
        &self.0
    }
}

impl<'g, K, V, const B: usize> Deref for WriteGuard<'g, K, V, B> {
    type Target = NodeRef<'g, K, V, B>;

    #[inline]
    fn deref(&self) -> &NodeRef<'g, K, V, B> {
        &self.0
    }
}

impl<K, V, const B: usize> Drop for ReadGuard<'_, K, V, B> {
    #[inline]
    fn drop(&mut self) {
        self.0.lock.unlock_shared();
    }
}

impl<K, V, const B: usize> Drop for WriteGuard<'_, K, V, B> {
    #[inline]
    fn drop(&mut self) {
        self.0.lock.unlock_exclusive();
    }
}

impl<'g, K, V, const B: usize> Locked<'g, K, V, B> for ReadGuard<'g, K, V, B> {
    const EXCLUSIVE: bool = false;

    #[inline]
    fn lock(node: NodeRef<'g, K, V, B>) -> Self {
        node.lock.lock_shared();
        ReadGuard(node)
    }

    #[inline]
    fn lock_at(node: NodeRef<'g, K, V, B>, version: u64) -> Option<Self> {
        // A shared acquisition does not bump the version, so it is checked
        // under the hold (and the hold dropped if it moved).
        let guard = Self::lock(node);
        guard.lock.validate_version(version).then_some(guard)
    }
}

impl<'g, K, V, const B: usize> Locked<'g, K, V, B> for WriteGuard<'g, K, V, B> {
    const EXCLUSIVE: bool = true;

    #[inline]
    fn lock(node: NodeRef<'g, K, V, B>) -> Self {
        node.lock.lock_exclusive();
        WriteGuard(node)
    }

    #[inline]
    fn lock_at(node: NodeRef<'g, K, V, B>, version: u64) -> Option<Self> {
        // `then`, not `then_some`: a guard made on failure would unlock a
        // lock this thread does not hold when it drops.
        node.lock
            .lock_exclusive_at(version)
            .then(|| WriteGuard(node))
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    use super::*;
    use crate::config::BSkipConfig;

    type List = BSkipList<u64, u64, 4>;

    fn list() -> List {
        List::with_config(BSkipConfig::default().with_max_height(3))
    }

    #[test]
    fn handles_and_guards_are_one_pointer_wide() {
        let word = size_of::<usize>();
        assert_eq!(size_of::<NodeRef<'_, u64, u64, 4>>(), word);
        assert_eq!(size_of::<Option<NodeRef<'_, u64, u64, 4>>>(), word);
        assert_eq!(size_of::<ReadGuard<'_, u64, u64, 4>>(), word);
        assert_eq!(size_of::<WriteGuard<'_, u64, u64, 4>>(), word);
    }

    #[test]
    fn guards_unlock_on_drop() {
        let list = list();
        let pin = list.pin();
        let head = pin.head(0);
        let first: ReadGuard<'_, u64, u64, 4> = head.lock();
        let second: ReadGuard<'_, u64, u64, 4> = head.lock();
        assert!(head.lock.is_locked());
        assert!(head.lock.optimistic_version().is_some(), "readers share");
        drop((first, second));
        assert!(!head.lock.is_locked());
        let version = head.lock.optimistic_version().expect("unlocked");
        let writer: WriteGuard<'_, u64, u64, 4> = head.lock();
        assert_eq!(head.lock.optimistic_version(), None);
        drop(writer);
        assert!(!head.lock.is_locked());
        assert!(!head.lock.validate_version(version), "a write cycle bumps");
    }

    #[test]
    fn lock_at_takes_nothing_at_a_moved_version() {
        let list = list();
        let pin = list.pin();
        let head = pin.head(0);
        let stale = head.lock.optimistic_version().expect("unlocked");
        drop(head.lock::<WriteGuard<'_, u64, u64, 4>>());
        let current = head.lock.optimistic_version().expect("unlocked");
        assert!(ReadGuard::lock_at(head, stale).is_none());
        assert!(WriteGuard::lock_at(head, stale).is_none());
        assert!(!head.lock.is_locked());
        assert_eq!(head.lock.optimistic_version(), Some(current));
        let reader = ReadGuard::lock_at(head, current).expect("unchanged");
        drop(reader);
        let writer = WriteGuard::lock_at(head, current).expect("unchanged");
        drop(writer);
        assert!(!head.lock.validate_version(current));
    }

    #[test]
    fn handles_follow_the_links_they_were_made_from() {
        let list = list();
        let pin = list.pin();
        let (top, leaf_head) = (pin.head(2), pin.head(0));
        assert_eq!(
            top.head_child().map(NodeRef::as_ptr),
            Some(pin.head(1).as_ptr())
        );
        assert!(leaf_head.next().is_none());
        // Link a fresh leaf behind the head leaf, follow it, unlink it.
        let fresh = pin.alloc(0);
        fresh.push_leaf(7, 70);
        let head: WriteGuard<'_, u64, u64, 4> = leaf_head.lock();
        head.set_next(Some(*fresh));
        assert_eq!(head.next().map(NodeRef::as_ptr), Some(fresh.as_ptr()));
        assert_eq!(head.next().map(|next| next.header()), Some(7));
        head.set_next(None);
        drop(head);
        pin.defer_free(fresh);
        drop(pin);
        assert_eq!(list.reclamation().retired, 1);
        list.validate().expect("structure");
    }
}
