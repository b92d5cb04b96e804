//! I/O-model cache simulation for the Table 1 experiment.
//!
//! The paper motivates the B-skiplist with hardware-counter measurements
//! (LLC load misses measured with `perf`, Table 1).  Hardware counters are
//! not portable across reproduction environments, so this crate provides
//! the substitution recorded in the README's *Substitutions* section: a
//! software **set-associative LRU cache simulator** ([`CacheSim`]) fed by
//! **structural traversal models** of the three indices compared in
//! Table 1:
//!
//! * [`TraceSkipList`] — a traditional skiplist, one element per node;
//! * [`TraceBTree`] — a B+-tree with multi-kilobyte nodes;
//! * [`TraceBSkipList`] — the B-skiplist with fixed-size blocked nodes.
//!
//! Each model maintains the real pointer/block structure of its index over
//! a synthetic address space (a bump allocator that mimics a memory
//! allocator laying nodes out in allocation order) and, for every
//! operation, *touches* exactly the bytes the real implementation would
//! read or write.  The cache simulator turns those touches into hits and
//! misses.  The absolute miss counts differ from the paper's Xeon (whose
//! LLC is 96 MiB and whose dataset is 100 M keys), but the *ratios* between
//! the three structures — the content of Table 1 — are preserved because
//! they are determined by the access patterns, not by the machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod models;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use models::{TraceBSkipList, TraceBTree, TraceIndexModel, TraceSkipList};
