//! Umbrella crate for the B-skiplist reproduction workspace.
//!
//! Re-exports the public API of every workspace crate so that the examples
//! and the workspace-level integration tests have a single import root.
//! Library users should normally depend on the individual crates
//! (`bskip-core` for the index itself).

#![warn(missing_docs)]

pub use bskip_baselines as baselines;
pub use bskip_cachesim as cachesim;
pub use bskip_core as core;
pub use bskip_index as index;
pub use bskip_lsm as lsm;
pub use bskip_net as net;
pub use bskip_sync as sync;
pub use bskip_ycsb as ycsb;

pub use bskip_baselines::{LazySkipList, LockFreeSkipList, MasstreeLite, NhsSkipList, OccBTree};
pub use bskip_core::{BSkipConfig, BSkipList, BSkipStats};
pub use bskip_index::{
    BatchCursor, ConcurrentIndex, Cursor, IndexCursor, IndexStats, Op, OpResult, ReclamationStats,
    ShardedIndex,
};
pub use bskip_lsm::{FaultFs, LsmConfig, LsmEngine, StdFs, Storage, StorageFile, SyncPolicy};
pub use bskip_net::{
    ClientOptions, Connection, KvServer, Request, Response, ServerConfig, SharedIndex,
};
pub use bskip_sync::{EbrCollector, EbrGuard, EbrStats};
