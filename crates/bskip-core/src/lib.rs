//! # bskip-core — a locality-optimized concurrent in-memory B-skiplist
//!
//! This crate is a from-scratch Rust implementation of the data structure
//! proposed in *"Bridging Cache-Friendliness and Concurrency: A
//! Locality-Optimized In-Memory B-Skiplist"* (ICPP '25): a **B-skiplist** —
//! a blocked skiplist that stores up to `B` keys per fixed-size,
//! cache-line-aligned node — together with the paper's two algorithmic
//! contributions:
//!
//! * a **top-down, single-pass insertion algorithm** that exploits the fact
//!   that a key's promotion height is drawn up front, independent of the
//!   current structure, so all nodes an insertion will create can be
//!   pre-allocated and the traversal never has to revisit a level; and
//! * a **top-down concurrency-control scheme** that takes write locks
//!   only at the levels an operation actually modifies — at and below the
//!   key's promotion height — hand-over-hand, holding a constant number
//!   of locks (≤ 3) on at most two adjacent levels at a time, with a
//!   total lock order (left-to-right, then top-to-bottom) that rules out
//!   deadlock.  Above those levels the paper takes read locks; this
//!   implementation takes none: reads and writes alike descend through
//!   version-validated optimistic lock coupling and fall back to the
//!   paper's read locks only after repeated conflicts.
//!
//! ## Quick start
//!
//! ```
//! use bskip_core::BSkipList;
//! use std::sync::Arc;
//!
//! // B = 128 keys per node (the paper's 2048-byte nodes for 16-byte pairs).
//! let index: Arc<BSkipList<u64, u64>> = Arc::new(BSkipList::new());
//!
//! // Concurrent inserts and lookups through `&self`.
//! std::thread::scope(|scope| {
//!     for thread in 0..4u64 {
//!         let index = Arc::clone(&index);
//!         scope.spawn(move || {
//!             for i in 0..1000u64 {
//!                 index.insert(thread * 1000 + i, i);
//!             }
//!         });
//!     }
//! });
//! assert_eq!(index.len(), 4000);
//! assert_eq!(index.get(&2500), Some(500));
//!
//! // Range scans use forward cursors (YCSB workload E takes the first
//! // `len` entries of a `scan`).
//! let window: Vec<(u64, u64)> = index.scan(10..).take(5).collect();
//! assert_eq!(window.len(), 5);
//! let mut cursor = index.scan(150..=200);
//! assert_eq!(cursor.next(), Some((150, 150 % 1000)));
//! assert_eq!(cursor.next(), Some((151, 151 % 1000)));
//!
//! // Bulk operations go through `execute`: the point operations in slot
//! // order, under one epoch pin per batch.
//! use bskip_index::Op;
//! let mut batch: Vec<Op<u64, u64>> = (0..64u64).map(|k| Op::get(k * 10)).collect();
//! index.execute(&mut batch);
//! assert_eq!(batch[1].result().value(), Some(10));
//! ```
//!
//! ## Node size
//!
//! The number of keys per node is the const generic `B`; the paper sweeps
//! node sizes from 512 B to 8192 B (32–512 two-word pairs) and settles on
//! 2048 B.  Aliases [`BSkipList32`] … [`BSkipList512`] mirror that sweep.
//!
//! ## Cursors
//!
//! [`BSkipList::scan`] returns a forward cursor ([`bskip_index::Cursor`])
//! over any `RangeBounds` expression; [`BSkipList::iter`] scans everything.
//! The cursor is implemented natively on the leaf level: it copies one
//! read-locked node's in-range slots at a time into a batch buffer and
//! serves entries from the buffer with no locks held, so a scan never
//! blocks writers for longer than one node and streams whole
//! cache-resident nodes (the property the paper's Section 4 range query
//! has).  One descent positions it at the range's lower bound; from
//! there, like the paper's leaf level, it moves forward only.
//!
//! **Consistency contract** (also documented in [`bskip_index::cursor`]):
//! a cursor over a concurrently mutated list yields every in-range entry
//! that is present for the cursor's entire lifetime exactly once, in
//! strictly ascending key order; entries concurrently inserted
//! or removed may or may not be observed; each yielded pair is copied
//! under the node's read lock, so it is never torn.  The cursor's
//! pause-and-resume pointer walk is memory-safe because every cursor
//! holds a pinned epoch guard for its lifetime (see *Memory reclamation*
//! below).
//!
//! ## Batched execution
//!
//! [`BSkipList::execute`] applies a whole `&mut [bskip_index::Op]` batch —
//! gets, upserts and removes with in-place result slots — in one call.
//! It runs the point operations in slot order under **one** epoch pin: a
//! batch's gets are the lock-free optimistic read, its writes the
//! leaf-first point writes, and nothing is sorted or held between them.
//! Its callers are the network server, which folds each run of pipelined
//! point requests into one batch, and `ShardedIndex`, which splits a batch
//! per shard; see [`bskip_index::ops`] for the semantics.
//!
//! ## Memory reclamation
//!
//! Removing a key can empty a node, which is then physically unlinked
//! from its level.  Its memory cannot be freed on the spot: a concurrent
//! traversal may be spinning on the node's lock, and a paused cursor may
//! be about to follow a pointer to it.  Every `BSkipList` therefore owns
//! an **epoch-based collector** ([`bskip_sync::EbrCollector`]): all
//! operations pin the collector for the duration of their traversal,
//! unlinked nodes are *retired* rather than freed, and a retired node's
//! deferred drop runs only once the global epoch has advanced past every
//! guard that could still reach it.  Epoch advancement is amortized into
//! the mutation paths, so under a sustained insert/remove mix the
//! retired-but-unfreed backlog stays bounded by a small constant — it
//! does not grow with the operation count, and steady-state memory is
//! bounded under any workload mix (including the delete-churn mixes the
//! paper never measured).  [`BSkipList::reclamation`] exposes the
//! collector's counters and [`BSkipList::try_reclaim`] lets maintenance
//! code drain the backlog at a quiescent point; dropping the list drains
//! everything unconditionally.
//!
//! ## Concurrency notes
//!
//! All operations are safe to invoke from any number of threads.  A point
//! write locks the leaf it changes and nothing else in the common case
//! (an overwrite, or an insert that draws height 0 — 63 of 64 at the
//! paper's `p = 1/64`); structural work makes a single top-down pass from
//! the key's promotion height — drawn by an insertion, read off the
//! structure by a removal — and never revisits a level, which is what
//! gives the B-skiplist its low tail latency compared to optimistic
//! B-trees (which retire to the root on structural modification).  The
//! lock-free descents in front of both restart on a version conflict, a
//! bounded number of times before they take locks instead.
//!
//! One documented limitation mirrors the paper's scope: concurrent
//! `insert` and `remove` racing **on the same key** may leave that key's
//! tower in a state where the key is unreachable even though the insert
//! "won".  The epoch scheme guarantees the race can never cause a
//! use-after-free: a node is retired only after it is unlinked, and freed
//! only after every potentially-overlapping traversal has finished.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod config;
pub mod height;
mod list;
mod node;
pub mod seq;
mod stats;

pub use config::BSkipConfig;
pub use list::BSkipList;
pub use stats::BSkipStats;

/// B-skiplist with 32 keys per node (512-byte nodes for 16-byte pairs).
pub type BSkipList32<K, V> = BSkipList<K, V, 32>;
/// B-skiplist with 64 keys per node (1024-byte nodes for 16-byte pairs).
pub type BSkipList64<K, V> = BSkipList<K, V, 64>;
/// B-skiplist with 128 keys per node (2048-byte nodes, the paper's default).
pub type BSkipList128<K, V> = BSkipList<K, V, 128>;
/// B-skiplist with 256 keys per node (4096-byte nodes for 16-byte pairs).
pub type BSkipList256<K, V> = BSkipList<K, V, 256>;
/// B-skiplist with 512 keys per node (8192-byte nodes for 16-byte pairs).
pub type BSkipList512<K, V> = BSkipList<K, V, 512>;
