//! Observers of the memory an index operation touches.
//!
//! The cache simulator of Table 1 (`bskip-cachesim`) runs the shipped
//! indices — `bskip-core`'s B-skiplist and the baselines' OCC B+-tree and
//! Folly-style skiplist — and turns what they report to a [`Tracer`] into
//! cache touches.  The trait lives here, below all three, so the baselines
//! do not depend on the structure they are compared against.
//!
//! The vocabulary is byte ranges of a node, so the layout is known only by
//! the node type it describes: each index computes every offset it reports
//! from its own node type (`mem::offset_of!`, `size_of`, the address of a
//! payload slice minus the node's), and an observer needs nothing but the
//! node's footprint to place it.

/// Observer of the memory an index operation touches.
///
/// A node id is any value unique among the live nodes (the indices use the
/// node's address); [`Tracer::node_allocated`] announces it, with its
/// footprint, before [`Tracer::touched`] names it, and a freed node's id
/// may be announced again.  A node is anything allocated on its own: a
/// tower skiplist announces an element and its `next` array as two.
/// Announcing charges nothing: the stores that initialise a fresh node are
/// not loads, and what an operation later reads or writes of it reports
/// itself.  Each index documents which of its operations report.
pub trait Tracer {
    /// Node `id`, `bytes` long, was allocated.
    #[inline]
    fn node_allocated(&self, _id: usize, _bytes: usize) {}
    /// Bytes `offset..offset + bytes` of node `id` were read or written;
    /// `bytes` may be zero (an empty key span, an empty split half).
    #[inline]
    fn touched(&self, _id: usize, _offset: usize, _bytes: usize) {}
}

/// The default [`Tracer`]: zero-sized, observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {}
