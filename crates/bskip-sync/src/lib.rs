//! Synchronization primitives for the concurrent B-skiplist reproduction.
//!
//! The paper implements its concurrency-control scheme on top of an
//! open-source reader-writer lock library.  This crate provides the
//! equivalent building blocks from scratch:
//!
//! * [`RawRwSpinLock`] — a word-sized, writer-preferring reader/writer
//!   spinlock that can be embedded directly inside index nodes (no heap
//!   allocation, no poisoning), carrying a version counter in its state
//!   word so readers can *validate* instead of locking (optimistic lock
//!   coupling).  This is the lock used by every node of the B-skiplist and
//!   of the lock-based baselines.
//! * [`RacyCell`] — a cell whose chunked relaxed-atomic `get`/`set` make
//!   the optimistic readers' deliberately racy data accesses defined
//!   behaviour, for payloads whose [`Racy`] bound promises that a torn
//!   value is still a valid one (torn values are rejected by validation).
//! * [`RwSpinLock`] — an RAII wrapper around [`RawRwSpinLock`] guarding a
//!   value, used where a conventional `RwLock<T>`-style API is convenient.
//! * [`Backoff`] — bounded exponential backoff used while spinning.
//! * [`CachePadded`] — aligns a value to a 128-byte boundary so that hot
//!   shared counters and per-thread slots do not false-share.
//! * [`Histogram`] — a log-bucketed nanosecond latency histogram (16
//!   sub-buckets per power of two, within 1/16 of each value): a plain
//!   owned value each thread records into without allocating, merged
//!   bucket-wise when the threads join.
//! * [`RelaxedCounter`] — a monotonically increasing statistics counter with
//!   relaxed memory ordering, used for the paper's instrumentation
//!   (root-write-lock counts, horizontal steps per level, ...).
//! * [`StripedCounter`] — a signed count over 16 per-thread cache-padded
//!   cells, for a count every writer changes on its hot path, such as an
//!   index's size: an `add` touches only the caller's cell, so up to 16
//!   live writers share no line.  Use it instead of [`RelaxedCounter`]
//!   when many threads write the count and few read it; keep
//!   [`RelaxedCounter`] for statistics (one word, `reset`, high-water marks).
//! * [`EbrCollector`] / [`EbrGuard`] — epoch-based memory reclamation: the
//!   deferred-drop machinery that lets every index physically unlink and
//!   eventually free removed nodes while lock-free readers and paused
//!   cursors may still hold pointers to them.  A pin touches only the
//!   calling thread's own slot.  See [`ebr`] for the scheme.
//!
//! Both per-thread structures are plain arrays indexed by a small number
//! each live thread holds: claimed on its first use, returned when the
//! thread exits, and reused by later threads, so no two live threads share
//! one and the numbers stay below the peak count of live threads.
//!
//! All primitives are `no_std`-friendly in spirit (they only rely on
//! `core::sync::atomic` plus `std::thread::yield_now` for politeness under
//! oversubscription) and are deliberately simple: the goal of the paper's
//! CC scheme is *simplicity*, and the lock below is ~100 lines of obvious
//! atomics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Every index rests on this crate's `unsafe`: each operation inside an
// `unsafe fn` is its own block, and every block states why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod backoff;
mod counter;
pub mod ebr;
mod histogram;
mod padded;
pub mod racy;
mod rwlock;
mod thread_index;

pub use backoff::Backoff;
pub use counter::{RelaxedCounter, StripedCounter};
pub use ebr::{EbrCollector, EbrGuard, EbrStats};
pub use histogram::Histogram;
pub use padded::CachePadded;
pub use racy::{Racy, RacyCell};
pub use rwlock::{RawRwSpinLock, RwSpinLock, RwSpinLockReadGuard, RwSpinLockWriteGuard};
