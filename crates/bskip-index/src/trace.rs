//! Observers of the memory an index operation touches.
//!
//! The cache simulator of Table 1 (`bskip-cachesim`) runs real indices —
//! `bskip-core`'s sequential reference B-skiplist and the baselines' OCC
//! B+-tree and Folly-style skiplist — and turns what they report to a
//! [`Tracer`] into cache touches.  The trait lives here, below all three,
//! so the baselines do not depend on the structure they are compared
//! against.

/// Observer of the memory an index operation touches.
///
/// A node id is any value unique among the live nodes (an arena index, an
/// address); [`Tracer::node_allocated`] announces it, with its footprint,
/// before any other event names it, and a freed node's id may be announced
/// again.  A node is anything allocated on its own: a tower skiplist
/// announces an element and its `next` array as two.  Slot `i` of a node
/// is its `i`-th key with the value or child pointer aligned with it;
/// `count` may be zero (an empty split half, a scan starting behind a
/// node's last key).  Each index documents which of its operations
/// report.  Removal reports next to nothing (the reference list has none,
/// the baselines only the descents and pointer accesses it shares with
/// the other operations), because Table 1 deletes nothing.
pub trait Tracer {
    /// Node `id`, `bytes` long, was allocated.
    #[inline]
    fn node_allocated(&self, _id: usize, _bytes: usize) {}
    /// A right-walk read successor `id`'s first key to decide on stepping.
    #[inline]
    fn header_peeked(&self, _id: usize) {}
    /// Node `id`'s header was read and its `len` keys binary-searched.
    #[inline]
    fn node_searched(&self, _id: usize, _len: usize) {}
    /// `count` slots of node `id` from slot `from` were read: the value of
    /// a `get`, the run a scan visits, the source of a split.
    #[inline]
    fn slots_read(&self, _id: usize, _from: usize, _count: usize) {}
    /// `count` slots of node `id` from slot `from` were written: a replaced
    /// value, the suffix an insert shifts (new entry included), the
    /// destination of a split, a pre-allocated tower's entry.
    #[inline]
    fn slots_written(&self, _id: usize, _from: usize, _count: usize) {}
    /// Pointer `index` of node `id`, an array of forward pointers (a
    /// tower's `next` array, a head's), was loaded or stored.
    #[inline]
    fn link_used(&self, _id: usize, _index: usize) {}
}

/// The default [`Tracer`]: zero-sized, observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {}
