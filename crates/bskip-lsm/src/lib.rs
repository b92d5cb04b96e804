//! A durable single-node LSM storage engine with the B-skiplist as its
//! memtable.
//!
//! The paper's structure is evaluated in-memory, but its design brief —
//! batch-friendly fat nodes, sequential leaf drains, sorted-run-shaped
//! ingest — is the job description of an LSM **memtable** (the role
//! skiplists famously play in LevelDB/RocksDB and in bLSM).  This crate
//! closes that loop: a log-structured merge engine whose write buffer is a
//! `BSkipList` of [`Slot`]s, layered as
//!
//! ```text
//! writes ──▶ WAL (group commit) ──▶ memtable ──▶ immutable memtables
//!                                                  │ flush (cursor drain)
//!                                                  ▼
//!                              level 0 SSTables (overlapping, newest first)
//!                                                  │ compaction (K-way merge)
//!                                                  ▼
//!                              levels 1+ (non-overlapping, size-tiered)
//! ```
//!
//! The engine ([`LsmEngine`]) implements the workspace's
//! [`bskip_index::ConcurrentIndex`] trait, so the YCSB driver, the
//! differential proptests, the benchmark harness and the `bskip-net`
//! socket service all run against it unchanged — the only observable
//! difference from the in-memory indices is that its contents survive a
//! kill.  Behind the network server the group-commit lane lines up end
//! to end: one pipelined client window becomes one `execute` batch
//! becomes one WAL record and one storage append (a copy into a mapped
//! extent for a small record over [`StdFs`] on 64-bit Linux, one
//! `pwrite` or `write(2)` otherwise).
//!
//! A point read hashes its key once and checks every layer's filter with
//! that hash before reading the layer: each memtable keeps a concurrent
//! whole-key bloom filter, one 64-bit word per key, beside its list, and
//! each table its on-disk bloom filter.  A read the tables answer walks no
//! memtable list.
//!
//! Module map: [`storage`] (the pluggable filesystem — [`StdFs`] in
//! production, the fault-injecting [`FaultFs`] in tests), [`wal`]
//! (framed, CRC-checked log with torn-tail recovery), [`memtable`] (the
//! B-skiplist write buffer and its key filter), [`sstable`]
//! (block-structured tables with prefix compression, bloom filters and
//! per-block CRC32), [`manifest`] (the durable table listing), [`engine`]
//! (the assembled engine), with [`codec`], [`crc`] and [`entry`]
//! underneath.  The newest-wins K-way merge behind scans and compaction
//! is the workspace's shared [`bskip_index::MergeCursor`] over the layers
//! in newest-first order:
//! one source per memtable and per level-0 table, and one per deeper
//! level — a sorted run of non-overlapping tables behind a single
//! [`TableCursor`] that opens the tables it reads and no others.  A scan
//! is one such merge over the immutable layer set (the *version*) that
//! was current when it opened, which it holds until it drops.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The crate's `unsafe` is in five places: the checksum kernel's dispatch
// (`crc.rs`), a scan's borrow of the version it owns (`engine.rs`), the
// read-only table mapping on 64-bit unix (`storage.rs`: `mmap`, `munmap`,
// the copy out, and its `Send` / `Sync`), the mapped append handle on
// 64-bit Linux (`storage.rs`: `posix_fallocate`, the offset into and the
// copy into the extent, `munmap`, and its `Send` / `Sync`), and the
// memtable's padding-free slot (`memtable.rs`: `Racy` for `Stored`).
// Whatever joins them has to argue its case the same way.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod bloom;
pub mod codec;
pub mod crc;
pub mod engine;
pub mod entry;
pub mod manifest;
pub mod memtable;
pub mod sstable;
pub mod storage;
pub mod wal;

pub use codec::Persist;
pub use engine::{LsmConfig, LsmEngine};
pub use entry::Slot;
pub use memtable::{Memtable, MemtableCursor};
pub use sstable::{Table, TableBuilder, TableCursor, TableOptions};
pub use storage::{FaultFs, StdFs, Storage, StorageFile};
pub use wal::{SyncPolicy, WalOp, WalWriter};
