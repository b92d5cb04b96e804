//! I/O-model cache simulation for the Table 1 experiment.
//!
//! The paper motivates the B-skiplist with hardware-counter measurements
//! (LLC load misses measured with `perf`, Table 1).  Hardware counters are
//! not portable across reproduction environments, so this crate provides
//! the substitution recorded in the README's *Substitutions* section: a
//! software **set-associative LRU cache simulator** ([`CacheSim`]) fed by
//! the three indices compared in Table 1:
//!
//! * [`TraceSkipList`] — a structural traversal model of a traditional
//!   skiplist, one element per node;
//! * [`TracedBTree`] — the B+-tree of Figures 7 and 8 itself: the
//!   baselines' OCC B+-tree with 1 KiB nodes, reporting through its
//!   `Tracer` (`bskip_index::trace`);
//! * [`TracedBSkipList`] — the B-skiplist itself: `bskip-core`'s
//!   sequential reference list reporting through the same `Tracer`, so the
//!   structure and the algorithm are the code the differential tests verify.
//!
//! All three live in a synthetic address space (nodes laid out in
//! allocation order, one shared set of layout constants) and *touch* the
//! bytes each operation reads or writes; the cache simulator turns those
//! touches into hits and misses.  The absolute miss counts differ from the
//! paper's Xeon (whose LLC is 96 MiB and whose dataset is 100 M keys), but
//! the *ratios* between the three structures — the content of Table 1 — are
//! determined by the access patterns, not by the machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cache;
mod models;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use models::{TraceIndexModel, TraceSkipList, TracedBSkipList, TracedBTree};
