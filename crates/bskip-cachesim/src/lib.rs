//! I/O-model cache simulation for the Table 1 experiment.
//!
//! The paper motivates the B-skiplist with hardware-counter measurements
//! (LLC load misses measured with `perf`, Table 1).  Hardware counters are
//! not portable across reproduction environments, so this crate provides
//! the substitution recorded in the README's *Substitutions* section: a
//! software **set-associative LRU cache simulator** ([`CacheSim`]) fed by
//! the three indices compared in Table 1, each the shipped structure its
//! figures measure ([`TracedIndex`]): the B-skiplist (`bskip-core`), the
//! OCC B+-tree with 1 KiB nodes and the Folly-style lazy skiplist (one
//! element per node, its forward pointers in a second allocation).
//!
//! Each index reports, through its `bskip_index::trace::Tracer`
//! parameter, the byte ranges its operations read or write at the offsets
//! of its own node type.  This crate adds only the cache and the placement
//! of nodes: each node at a synthetic address in allocation order, on a
//! fresh cache line.  The absolute miss counts differ from the paper's
//! Xeon (whose LLC is 96 MiB and whose dataset is 100 M keys), but the
//! *ratios* between the three structures — the content of Table 1 — are
//! determined by the access patterns, not by the machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cache;
mod models;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use models::TracedIndex;
