//! Common abstractions shared by every index in the workspace.
//!
//! The paper evaluates six indices (the B-skiplist plus five comparison
//! systems) under one YCSB driver.  This crate defines the interface that
//! driver programs against:
//!
//! * [`IndexKey`] / [`IndexValue`] — marker traits for the key and value
//!   types an index can store (ordered, `Copy`, thread-safe).  The paper's
//!   evaluation uses 8-byte keys and 8-byte values; `u64` satisfies both.
//! * [`ConcurrentIndex`] — the key-value dictionary operations of Section 2
//!   (`find`, `insert`, scans) plus `remove`, usable concurrently from
//!   many threads through `&self`.
//! * [`Op`] / [`OpResult`] / [`ConcurrentIndex::execute`] — the **bulk
//!   path**: a batch of first-class operations applied in one call, with
//!   results written back in place.  A provided default loops over the
//!   point methods, so every index takes batches; the B-skiplist overrides
//!   it only to run the same point operations under one epoch pin, and
//!   the baselines keep the default.  See [`ops`] for the batch semantics.
//! * [`Cursor`] / [`IndexCursor`] — the forward-cursor scan interface:
//!   every index opens cursors via [`ConcurrentIndex::scan`] (any
//!   `RangeBounds` expression) or the object-safe
//!   [`ConcurrentIndex::scan_bounds`] at the range's lower bound, and the
//!   caller pulls `next` until the range ends or it stops.  [`BatchCursor`]
//!   adapts indices that cannot pause mid-traversal.  The paper's
//!   `range(k, f, length)` callback operation survives as a provided
//!   compatibility method implemented over cursors.
//! * [`ShardedIndex`] — a partitioned front-end combinator: hash-shard
//!   keys across N inner indices, route point operations, split batches
//!   per shard (applied shard after shard on the calling thread), and
//!   merge per-shard cursors into one globally ordered scan.  See
//!   [`sharded`].
//! * [`IndexStats`] — the one statistics model of the workspace: named
//!   values that each carry a [`StatKind`] (`Counter`, `Gauge`, `Max`),
//!   which is the only thing [`IndexStats::merge`] consults to aggregate
//!   per-shard or server + backend snapshots.  A layer declares its
//!   counters once with [`stat_block!`]; [`ReclamationStats`] (the
//!   collector's own `EbrStats`) is the epoch-reclamation block every
//!   index that retires nodes to an [`bskip_sync::EbrCollector`] exports
//!   under the uniform `ebr_*` names.
//! * [`cursor::MergeCursor`] — the one K-way merging cursor: sorted
//!   sources in priority order, lowest index wins a tie.  Hash shards and
//!   the LSM engine's layers (newest first) both merge through it.
//! * [`trace::Tracer`] — the observer the cache simulator of Table 1 hands
//!   to the indices it runs, told which node slots an operation touches.
//!
//! # Cursor consistency contract
//!
//! Cursors do not freeze a snapshot of a live, concurrently-mutated index.
//! The workspace-wide contract (see [`cursor`] for details) is: entries
//! present in-range for the cursor's whole lifetime are yielded exactly
//! once, in strictly ascending key order; concurrent inserts
//! and removes may or may not be observed; every yielded pair is read under
//! the index's own synchronization protocol, so values are never torn.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cursor;
mod key;
pub mod ops;
pub mod sharded;
mod stats;
pub mod trace;
mod traits;

pub use cursor::{BatchCursor, Cursor, IndexCursor, MergeCursor};
pub use key::{IndexKey, IndexValue};
pub use ops::{Op, OpResult};
pub use sharded::ShardedIndex;
pub use stats::{IndexStats, ReclamationStats, StatKind, StatValue};
pub use traits::ConcurrentIndex;
