//! I/O-model cache simulation for the Table 1 experiment.
//!
//! The paper motivates the B-skiplist with hardware-counter measurements
//! (LLC load misses measured with `perf`, Table 1).  Hardware counters are
//! not portable across reproduction environments, so this crate provides
//! the substitution recorded in the README's *Substitutions* section: a
//! software **set-associative LRU cache simulator** ([`CacheSim`]) fed by
//! the three indices compared in Table 1:
//!
//! * [`TracedIndex`] — the two baselines, each the structure Figures 1
//!   and 6 or 7 and 8 measure: the Folly-style lazy skiplist (one element
//!   per node, its forward pointers in a second allocation) and the OCC
//!   B+-tree with 1 KiB nodes, reporting through their `Tracer`
//!   (`bskip_index::trace`);
//! * [`TracedBSkipList`] — the B-skiplist itself: `bskip-core`'s
//!   sequential reference list reporting through the same `Tracer`, so the
//!   structure and the algorithm are the code the differential tests verify.
//!
//! None is a hand-written model of a traversal.  All three live in a
//! synthetic address space (each node in allocation order on fresh cache
//! lines, as long as its index announced it, and one shared set of layout
//! constants) and *touch* the bytes each operation reads or writes; the
//! cache simulator turns those touches into hits and misses.  The absolute
//! miss counts differ from the paper's Xeon (whose LLC is 96 MiB and whose
//! dataset is 100 M keys), but the *ratios* between the three structures —
//! the content of Table 1 — are determined by the access patterns, not by
//! the machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cache;
mod models;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use models::{TraceIndexModel, TracedBSkipList, TracedIndex};
