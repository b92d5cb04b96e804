//! The LSM engine: WAL + memtables + leveled SSTables behind the
//! workspace's [`ConcurrentIndex`] interface.
//!
//! # Write path
//!
//! Every mutation is (1) appended to the write-ahead log as one framed
//! record — a whole [`ConcurrentIndex::execute`] batch becomes a *single*
//! record, the group-commit unit — and (2) applied to the mutable
//! memtable, a B-skiplist of [`Slot`]s.  Applying a key hashes it once:
//! the hash sets the key's bits in the memtable's key filter before the
//! list sees the key, and, when the memtable held no version of it, serves
//! the previous-value lookup through the older layers' filters.  Writes
//! are acknowledged after the WAL append returns, so an acknowledged
//! write survives process death (and, with [`SyncPolicy::Always`], power
//! loss).  All mutations serialize on one writer mutex, which owns the
//! WAL and the segment ids; reads — point gets, scans and batches made
//! only of gets — never take it, and no flush or compaction runs under
//! it.
//!
//! # Rotation, flush, compaction
//!
//! When the memtable's ingested bytes cross
//! [`LsmConfig::memtable_bytes`], the writer seals it (pushed onto the
//! immutable list, still serving reads) and a fresh memtable + WAL segment
//! take over.  A *flush* drains the oldest immutable memtable through its
//! cursor into a level-0 SSTable, commits the manifest, and only then
//! deletes the WAL segments the memtable covered.  *Compaction* merges
//! level 0 into level 1 once enough L0 tables pile up, and spills
//! oversized deeper levels downward, dropping shadowed versions always and
//! tombstones once nothing below could still hold the key.
//!
//! Both change the table layout one way (`write_tables`, `install`): the
//! outputs are written, the *next* level set is built aside and its
//! manifest committed under the maintenance mutex, which owns the table
//! ids, the manifest and every change to the levels.  The layer set
//! itself is an immutable *version* — memtables and levels — behind an
//! `RwLock<Arc<_>>`: rotation and `install` each make a changed copy of
//! the current version and swap the `Arc` under the state write lock
//! (`commit_version`), so the exclusive state lock covers a copy of a few
//! pointers and never I/O, and no read waits for an fsync.
//!
//! With [`LsmConfig::auto_maintain`] (the default) every engine has one
//! maintenance worker thread, and each rotation hands it one *job*: flush
//! every sealed memtable, then compact while a trigger fires.  The writer
//! goes straight back to the WAL and the fresh memtable.  The hand-off
//! holds one job: a rotation — and each explicit [`LsmEngine::rotate`],
//! [`LsmEngine::flush`], [`LsmEngine::compact`] and [`LsmEngine::maintain`]
//! — first waits for the previous job to finish (the wait is counted in
//! `writer_stall_us`), so every job starts from the state an inline pump
//! at the same rotation would have started from, and the engine writes
//! the same tables, byte for byte, as one that maintained inline.  With it
//! off there is no thread: sealed memtables pile up until the caller
//! pumps the explicit entry points, which run on the caller's thread.
//!
//! # Read path
//!
//! A lookup consults the layers of the current version newest-first —
//! mutable memtable, immutable memtables, L0 tables by recency, then one
//! candidate table per deeper level — under the state read guard, and
//! resolves at the first layer that mentions the key (a
//! [`Slot::Tombstone`] answer means *deleted*, not *keep looking*).  It
//! encodes and hashes the key once, up front, and checks every layer's
//! filter with that one hash: a memtable whose key filter rules the key
//! out is skipped without a walk down its list (and without an epoch
//! pin), a table whose bloom filter does without a block read.  So a key
//! the tables answer costs the memtables a word load each.
//!
//! A range scan clones the current version's `Arc` once and opens one
//! K-way [`MergeCursor`] over its layers, newest first, so the merge's
//! lowest-index-wins rule is the same newest-wins rule; the scan pulls it
//! an entry at a time and drops the tombstones, and compaction writes the
//! same merged stream out as is.  Because the scan owns its version,
//! nothing under its merge changes shape: every data block in range is
//! read once, a bad block fails the scan once, and no lock is held
//! between entries.  The price of a parked scan is what it pins: its
//! version's memtables (sealed and flushed since, or not), the files of
//! tables compacted away since (unlinked but open), and an epoch pin on
//! each of its memtables, which keeps their retired nodes unfreed until
//! the cursor drops.
//!
//! A merge source is a memtable, a level-0 table, or a whole deeper level:
//! the tables of a level ≥ 1 do not overlap, so the level is one *sorted
//! run* behind one [`crate::TableCursor`], which finds its first table by
//! binary search and opens the next only when that one is exhausted.  A
//! scan therefore merges `1 + immutables + |L0| + non-empty deeper levels`
//! sources and positioning it reads one block per table source, however
//! many tables the levels hold; compaction merges its plan the same way
//! (the upper level's tables, then the output level's overlapping tables
//! as one run), and every source stops at the scan's upper bound.
//!
//! # Crash recovery
//!
//! There is no shutdown path at all — dropping the engine lets a job in
//! flight finish and flushes nothing more, so reopening *always* exercises
//! recovery: orphan tables from an uncommitted flush are deleted (their
//! WAL segments still exist), the manifest's tables are opened, and every
//! WAL segment replays its valid prefix into a fresh memtable.  A torn
//! final frame is truncated and the segment resumes appending.
//!
//! All file access goes through the [`Storage`] trait
//! ([`LsmEngine::open_with`]), so the whole stack — WAL, tables, manifest
//! commits — can run over the fault-injecting [`crate::FaultFs`] and be
//! crash-tested deterministically.
//!
//! # Errors and degraded mode
//!
//! Nothing in the engine panics on I/O failure.  The fallible surface —
//! [`LsmEngine::try_insert`], [`LsmEngine::try_remove`],
//! [`LsmEngine::try_get`], [`LsmEngine::try_execute`], and the explicit
//! maintenance entry points — returns `io::Result`.  The infallible
//! [`ConcurrentIndex`] methods delegate to it and degrade gracefully: a
//! failed read answers `None`, a failed mutation is dropped (and its
//! batch results left unset).
//!
//! The degradation contract:
//!
//! - A **foreground WAL append failure** means a mutation could not be
//!   made durable.  The engine bumps `write_failures`, flips the sticky
//!   `degraded` flag, and rejects all further mutations — reads, scans
//!   and read-only batches keep working off the recovered state.  Reopen
//!   the engine (typically after the operator fixes the disk) to clear
//!   the flag.
//! - A **table read failure** (I/O error or block checksum mismatch —
//!   every SSTable block carries a CRC32) bumps `io_errors` and surfaces
//!   as an error on the `try_*` path; it does not degrade the engine,
//!   since retrying or reading other keys may well succeed.
//! - **Maintenance** (rotate / flush / compaction / manifest commit)
//!   retries under [`bskip_sync::Backoff`] and, if an operation still
//!   fails, has never changed the in-memory state (a level set that did
//!   not commit is not swapped in), deletes any partial output files,
//!   counts one `io_error`, and leaves the engine serving — the WAL still
//!   covers everything, so durability is unaffected; only disk shape is
//!   behind.
//! - A maintenance job that **panics** on the worker is a bug, not an I/O
//!   failure: the worker catches it, counts it in `maint_panics`, frees
//!   the hand-off so the next rotation does not wait for it forever, and
//!   takes the next job.  Like a failed job it leaves the WAL covering
//!   everything, but files it had begun are left for the next open to
//!   remove.  An explicit pump runs on the caller's thread, so a panic
//!   there reaches the caller.
//!
//! The health indicators are exported through [`ConcurrentIndex::stats`]
//! as `io_errors`, `write_failures`, `maint_panics` and `degraded`.

use std::collections::HashSet;
use std::io;
use std::ops::Bound;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use bskip_index::{
    ConcurrentIndex, Cursor, IndexCursor, IndexKey, IndexStats, IndexValue, MergeCursor, Op,
    StatKind,
};
use bskip_sync::{Backoff, RelaxedCounter};

use crate::codec::Persist;
use crate::crc;
use crate::entry::Slot;
use crate::manifest::{
    scan_table_ids, scan_wal_ids, table_file, wal_file, Manifest, ManifestTable,
};
use crate::memtable::{Memtable, MemtableCursor};
use crate::sstable::{Table, TableBuilder, TableCursor, TableOptions};
use crate::storage::{StdFs, Storage};
use crate::wal::{decode_batch, read_segment, SyncPolicy, WalOp, WalWriter};

/// Maintenance attempts before an operation gives up for this rotation
/// point (it will be retried at the next one — the WAL keeps growing in
/// the meantime, so no data is at risk).
const MAINTENANCE_ATTEMPTS: u32 = 3;

/// Tuning knobs for an [`LsmEngine`].
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Ingested bytes after which the memtable rotates (default 4 MiB).
    pub memtable_bytes: u64,
    /// WAL durability policy (default: survive process death, not power
    /// loss).
    pub sync: SyncPolicy,
    /// SSTable block / restart / bloom parameters.
    pub table: TableOptions,
    /// Give the engine a maintenance worker thread and hand it a flush +
    /// compaction job at every rotation (default); a rotation waits only
    /// while the previous job is still running.  Off: no thread, and
    /// immutable memtables accumulate until [`LsmEngine::flush`] /
    /// [`LsmEngine::compact`] are pumped explicitly.
    pub auto_maintain: bool,
    /// Number of L0 tables that triggers an L0 → L1 compaction.
    pub l0_compaction_trigger: usize,
    /// Byte budget of level 1; level `n` gets
    /// `level_base_bytes · level_multiplier^(n-1)`.
    pub level_base_bytes: u64,
    /// Growth factor between consecutive level budgets.
    pub level_multiplier: u64,
    /// Compaction splits its output into tables of roughly this size.
    pub table_target_bytes: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 4 << 20,
            sync: SyncPolicy::Never,
            table: TableOptions::default(),
            auto_maintain: true,
            l0_compaction_trigger: 4,
            level_base_bytes: 8 << 20,
            level_multiplier: 10,
            table_target_bytes: 2 << 20,
        }
    }
}

impl LsmConfig {
    /// A configuration scaled down so rotation, flush and compaction all
    /// trigger within a few hundred operations — for tests and examples
    /// that must exercise every layer at small scale.
    pub fn small() -> Self {
        LsmConfig {
            memtable_bytes: 4 << 10,
            table: TableOptions {
                block_bytes: 512,
                restart_interval: 4,
                bloom_bits_per_key: 10,
            },
            l0_compaction_trigger: 3,
            level_base_bytes: 16 << 10,
            level_multiplier: 4,
            table_target_bytes: 8 << 10,
            ..LsmConfig::default()
        }
    }
}

/// What the writer mutex owns.
struct WriteState {
    wal: WalWriter,
    next_wal_id: u64,
}

/// What the maintenance mutex owns besides the manifest and every change
/// to the levels.
struct MaintState {
    next_table_id: u64,
}

/// The hand-off between rotations and the maintenance worker: one job at
/// most, queued or running.
#[derive(Default)]
struct JobSlot {
    queued: bool,
    running: bool,
    /// Set by the engine's `Drop`: the worker takes no further job.
    shutdown: bool,
    /// Keeps a queued job from being taken, so a test can act between a
    /// hand-off and the worker's take.
    #[cfg(test)]
    held: bool,
}

impl JobSlot {
    /// Whether the worker may take a job now.
    fn takeable(&self) -> bool {
        #[cfg(test)]
        if self.held {
            return false;
        }
        self.queued
    }
}

/// One layer set, immutable once shared: rotation, flush and compaction
/// build the next version aside and swap the engine's `Arc` to it
/// (`commit_version`), so a reader that cloned the `Arc` keeps every layer
/// it opened on for as long as it holds it.
#[derive(Clone)]
struct Version<K: IndexKey + Persist, V: IndexValue + Persist> {
    /// The memtable writes apply to.
    memtable: Arc<Memtable<K, V>>,
    /// Sealed memtables awaiting flush, newest first.
    immutables: Vec<Arc<Memtable<K, V>>>,
    /// `levels[0]` newest-first by table id (overlapping); `levels[n≥1]`
    /// sorted by `min_key` (non-overlapping within the level).
    levels: Vec<Vec<Arc<Table<K, V>>>>,
}

/// One merge source: a memtable's cursor, or a sorted run of tables.  An
/// enum, not a boxed [`Cursor`], over two unboxed cursors — the memtable's
/// is its list's own `LeafCursor` — so a merge allocates no box per
/// source, and no vector for them either while it keeps them all inline
/// (up to eight: see `bskip_index::cursor`).
enum Source<'a, K: IndexKey + Persist, V: IndexValue + Persist> {
    Memtable(MemtableCursor<'a, K, V>),
    Run(TableCursor<'a, K, V>),
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> IndexCursor<K, Slot<V>> for Source<'_, K, V> {
    fn next(&mut self) -> Option<(K, Slot<V>)> {
        match self {
            Source::Memtable(cursor) => cursor.next(),
            Source::Run(cursor) => cursor.next(),
        }
    }
}

/// A scan: one newest-wins merge over the version it opened on, pulled an
/// entry at a time, tombstones dropped.
///
/// The merge borrows the layers of the version the scan owns, so `merge`
/// is declared first: it drops first.
struct Scan<'a, K: IndexKey + Persist, V: IndexValue + Persist> {
    merge: MergeCursor<'a, K, Slot<V>, Source<'a, K, V>>,
    /// Never read: it keeps the merge's layers alive.
    _version: Arc<Version<K, V>>,
}

impl<'a, K: IndexKey + Persist, V: IndexValue + Persist> Scan<'a, K, V> {
    fn new(
        version: Arc<Version<K, V>>,
        lo: Bound<K>,
        hi: Bound<K>,
        errors: &'a RelaxedCounter,
    ) -> Self {
        // SAFETY: `layers` points into the `Arc`'s heap allocation, which
        // does not move when the `Arc` moves into the scan and stays alive
        // while the scan holds it — as long as the merge that borrows it:
        // `merge` is declared before `_version`, so it drops first, and no
        // field is replaced after construction.  A version is never mutated
        // once shared (`commit_version` swaps in a new one), so the shared
        // borrow aliases nothing mutable; the merge yields copies, so no
        // borrow of the layers leaves the scan.
        let layers: &'a Version<K, V> = unsafe { &*Arc::as_ptr(&version) };
        let memtables = std::iter::once(&layers.memtable).chain(&layers.immutables);
        let sources = Core::sources(memtables, &layers.levels, lo, hi, errors);
        Scan {
            merge: MergeCursor::new(sources),
            _version: version,
        }
    }
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> IndexCursor<K, V> for Scan<'_, K, V> {
    /// The next live entry: the merge already let the newest version of
    /// every key win, so a tombstone just means the key is deleted.
    fn next(&mut self) -> Option<(K, V)> {
        while let Some((key, slot)) = self.merge.next() {
            if let Some(value) = slot.value() {
                return Some((key, value));
            }
        }
        None
    }
}

bskip_index::stat_block! {
    /// The engine's event counters; `maint_panics` and the last two are
    /// the health indicators of the degraded-mode contract (see the
    /// module docs).
    struct Counters {
        wal_bytes: RelaxedCounter => Counter "wal_bytes",
        wal_records: RelaxedCounter => Counter "wal_records",
        rotations: RelaxedCounter => Counter "memtable_rotations",
        flushes: RelaxedCounter => Counter "sst_flushes",
        compactions: RelaxedCounter => Counter "compactions",
        /// Jobs the maintenance worker ran.
        maint_jobs: RelaxedCounter => Counter "maint_jobs",
        /// Microseconds rotations spent waiting for the previous job.
        writer_stall_us: RelaxedCounter => Counter "writer_stall_us",
        /// Worker jobs that panicked (each is also in `maint_jobs`).
        maint_panics: RelaxedCounter => Counter "maint_panics",
        /// Read-path and maintenance I/O failures (including checksum
        /// mismatches).  Table cursors count into it too.
        io_errors: RelaxedCounter => Counter "io_errors",
        /// Foreground WAL append failures — each one degrades the engine.
        write_failures: RelaxedCounter => Counter "write_failures",
    }
}

/// One compaction's inputs and placement, decided under a read lock.
struct CompactionPlan<K: IndexKey, V: IndexValue> {
    /// The input tables, shaped like a level set (see `sources`):
    /// `inputs[0]` are the upper level's — all of level 0, or the one
    /// victim of a deeper level — each a merge source of its own, newest
    /// first; `inputs[1]` are the output level's tables they overlap, one
    /// sorted run.
    inputs: [Vec<Arc<Table<K, V>>>; 2],
    output_level: usize,
    drop_tombstones: bool,
}

/// A durable LSM storage engine with the B-skiplist as its memtable.
///
/// Implements [`ConcurrentIndex`], so it drops into every driver, test
/// harness and benchmark in the workspace that an in-memory index fits —
/// the difference being that its contents survive `open` → kill → `open`.
///
/// ```
/// use bskip_index::ConcurrentIndex;
/// use bskip_lsm::{LsmConfig, LsmEngine};
///
/// let dir = std::env::temp_dir().join(format!("lsm-doc-{}", std::process::id()));
/// let engine: LsmEngine<u64, u64> = LsmEngine::open(&dir, LsmConfig::small()).unwrap();
/// engine.insert(1, 10);
/// engine.insert(2, 20);
/// engine.remove(&1);
/// assert_eq!(engine.get(&2), Some(20));
/// assert_eq!(engine.len(), 1);
/// drop(engine);
///
/// // Reopen: recovery replays the WAL; nothing acknowledged is lost.
/// let engine: LsmEngine<u64, u64> = LsmEngine::open(&dir, LsmConfig::small()).unwrap();
/// assert_eq!(engine.get(&1), None);
/// assert_eq!(engine.get(&2), Some(20));
/// # drop(engine);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct LsmEngine<K: IndexKey + Persist, V: IndexValue + Persist> {
    core: Arc<Core<K, V>>,
    /// The maintenance worker, with [`LsmConfig::auto_maintain`]; joined
    /// on drop.
    worker: Option<JoinHandle<()>>,
}

/// Everything the engine and its maintenance worker share.
struct Core<K: IndexKey + Persist, V: IndexValue + Persist> {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    config: LsmConfig,
    write: Mutex<WriteState>,
    maint: Mutex<MaintState>,
    job: Mutex<JobSlot>,
    /// Signalled whenever `job` changes.
    job_changed: Condvar,
    /// The current version.  Point reads look through the read guard;
    /// a scan clones the `Arc` and reads its version without the lock.
    state: RwLock<Arc<Version<K, V>>>,
    /// Exact number of live (non-deleted) keys across all layers;
    /// maintained from the previous-value of every mutation, so written
    /// only with the writer mutex held — and read without it: `len` and
    /// `stats` must answer while a rotation holds that mutex.
    live_keys: AtomicU64,
    counters: Counters,
    /// Sticky read-only flag; set on the first write failure, cleared
    /// only by reopening the engine.
    degraded: AtomicBool,
}

fn degraded_error() -> io::Error {
    io::Error::other("bskip-lsm: engine is degraded (read-only) after an I/O failure")
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> LsmEngine<K, V> {
    /// Opens (or creates) an engine directory on the real filesystem.
    /// Equivalent to [`LsmEngine::open_with`] over [`StdFs`].
    pub fn open(dir: impl AsRef<Path>, config: LsmConfig) -> io::Result<Self> {
        Self::open_with(Arc::new(StdFs), dir, config)
    }

    /// Opens (or creates) an engine directory over an arbitrary
    /// [`Storage`] backend, running full recovery: the manifest's tables
    /// are opened, orphan files are removed, and every WAL segment's
    /// valid prefix is replayed into a fresh memtable.  With
    /// [`LsmConfig::auto_maintain`] it then starts the maintenance worker;
    /// a failed thread spawn is an error here.
    pub fn open_with(
        storage: Arc<dyn Storage>,
        dir: impl AsRef<Path>,
        config: LsmConfig,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        storage.create_dir_all(&dir)?;
        let _ = storage.remove(&dir.join("MANIFEST.tmp"));
        let manifest = Manifest::load(storage.as_ref(), &dir)?;

        // Tables on disk but not in the manifest are leftovers of a flush
        // or compaction that never committed; their contents are still
        // covered by the WAL (or by the input tables), so drop them.
        let live_ids: HashSet<u64> = manifest.tables.iter().map(|t| t.id).collect();
        for id in scan_table_ids(storage.as_ref(), &dir)? {
            if !live_ids.contains(&id) {
                let _ = storage.remove(&table_file(&dir, id));
            }
        }

        let mut levels: Vec<Vec<Arc<Table<K, V>>>> = Vec::new();
        for entry in &manifest.tables {
            let table = Arc::new(Table::open(
                storage.as_ref(),
                &table_file(&dir, entry.id),
                entry.id,
            )?);
            if levels.len() <= entry.level {
                levels.resize_with(entry.level + 1, Vec::new);
            }
            levels[entry.level].push(table);
        }
        Core::sort_levels(&mut levels);
        let next_table_id = manifest.tables.iter().map(|t| t.id + 1).max().unwrap_or(0);

        // Replay every WAL segment, oldest first, into one fresh memtable;
        // later records overwrite earlier ones exactly as the original
        // applies did.
        let wal_ids = scan_wal_ids(storage.as_ref(), &dir)?;
        let backing = if wal_ids.is_empty() {
            vec![0]
        } else {
            wal_ids.clone()
        };
        let memtable: Arc<Memtable<K, V>> =
            Arc::new(Memtable::with_budget(backing, config.memtable_bytes));
        let mut newest_valid_len = 0u64;
        for (at, &id) in wal_ids.iter().enumerate() {
            let scan = read_segment(storage.as_ref(), &wal_file(&dir, id))?;
            for payload in &scan.records {
                let ops = decode_batch::<K, V>(payload).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "undecodable WAL record")
                })?;
                for op in ops {
                    match op {
                        WalOp::Put { key, value } => memtable.apply(key, Slot::Put(value)),
                        WalOp::Delete { key } => memtable.apply(key, Slot::Tombstone),
                    };
                }
            }
            if at + 1 == wal_ids.len() {
                newest_valid_len = scan.valid_len;
            }
        }
        let (wal, next_wal_id) = match wal_ids.last() {
            Some(&newest) => (
                WalWriter::open_for_append(
                    storage.as_ref(),
                    &wal_file(&dir, newest),
                    newest_valid_len,
                    config.sync,
                )?,
                newest + 1,
            ),
            None => (
                WalWriter::create(storage.as_ref(), &wal_file(&dir, 0), config.sync)?,
                1,
            ),
        };

        let mut engine = LsmEngine {
            core: Arc::new(Core {
                storage,
                dir,
                config,
                write: Mutex::new(WriteState { wal, next_wal_id }),
                maint: Mutex::new(MaintState { next_table_id }),
                job: Mutex::new(JobSlot::default()),
                job_changed: Condvar::new(),
                state: RwLock::new(Arc::new(Version {
                    memtable,
                    immutables: Vec::new(),
                    levels,
                })),
                live_keys: AtomicU64::new(0),
                counters: Counters::default(),
                degraded: AtomicBool::new(false),
            }),
            worker: None,
        };

        // Exact live-key count: one merged sweep over every layer.
        let live_keys = engine
            .scan_bounds(Bound::Unbounded, Bound::Unbounded)
            .count();
        engine
            .core
            .live_keys
            .store(live_keys as u64, Ordering::Relaxed);
        if config.auto_maintain {
            let core = Arc::clone(&engine.core);
            let worker = std::thread::Builder::new()
                .name("bskip-lsm-maint".into())
                .spawn(move || core.work())?;
            engine.worker = Some(worker);
        }
        Ok(engine)
    }

    /// Whether the engine is in sticky read-only mode after a foreground
    /// write failure.  Reads and scans keep working; mutations return
    /// errors (or are dropped on the infallible surface).  Cleared only
    /// by reopening the engine.
    pub fn degraded(&self) -> bool {
        self.core.degraded()
    }

    /// Read-path and maintenance I/O failures observed so far (including
    /// block checksum mismatches).
    pub fn io_errors(&self) -> u64 {
        self.core.counters.io_errors.get()
    }

    /// Foreground WAL append failures observed so far.
    pub fn write_failures(&self) -> u64 {
        self.core.counters.write_failures.get()
    }

    /// Number of tables at each level, `[l0, l1, …]`.
    pub fn tables_per_level(&self) -> Vec<usize> {
        self.core.read_state().levels.iter().map(Vec::len).collect()
    }

    /// Fallible insert: the previous value, or the error that prevented
    /// the write from being made durable (which also degrades the
    /// engine).
    pub fn try_insert(&self, key: K, value: V) -> io::Result<Option<V>> {
        self.core.put_slot(key, Slot::Put(value))
    }

    /// Fallible remove; see [`LsmEngine::try_insert`].
    pub fn try_remove(&self, key: &K) -> io::Result<Option<V>> {
        self.core.put_slot(*key, Slot::Tombstone)
    }

    /// Fallible lookup: `Err` on a table read or checksum failure
    /// (counted in `io_errors`) instead of silently answering `None`.
    pub fn try_get(&self, key: &K) -> io::Result<Option<V>> {
        let core = &self.core;
        let state = core.read_state();
        let hash = key.filter_hash();
        Ok(core.lookup(&state, key, hash, false)?.and_then(Slot::value))
    }

    /// The fallible group-commit lane behind [`ConcurrentIndex::execute`]:
    /// the batch's mutations become **one** WAL record (one storage
    /// append, one `fdatasync` under [`SyncPolicy::Always`]), then the
    /// operations apply in slot order.
    ///
    /// On `Err` nothing was applied and every result slot is untouched.
    /// A read-only batch takes neither the writer mutex nor the WAL — it
    /// never queues behind writers or rotations — and is served even on a
    /// degraded engine.
    pub fn try_execute(&self, ops: &mut [Op<K, V>]) -> io::Result<()> {
        self.core.execute(ops)
    }

    /// Seals the current memtable unconditionally (if non-empty), making
    /// its contents flushable.  Waits for a maintenance job in flight
    /// first.
    pub fn rotate(&self) -> io::Result<()> {
        let (mut write, _maint) = self.core.quiesce();
        self.core.rotate_if_non_empty(&mut write)
    }

    /// Flushes every sealed memtable to level-0 tables, oldest first, on
    /// the calling thread.  Returns the number of memtables drained.
    pub fn flush(&self) -> io::Result<usize> {
        let core = &self.core;
        let (_write, mut maint) = core.quiesce();
        let mut drained = 0;
        while core.count_failure(core.flush_locked(&mut maint))? {
            drained += 1;
        }
        Ok(drained)
    }

    /// Runs compactions until no trigger fires, on the calling thread.
    /// Returns the number of compactions performed.
    pub fn compact(&self) -> io::Result<usize> {
        let core = &self.core;
        let (_write, mut maint) = core.quiesce();
        let mut ran = 0;
        while core.count_failure(core.compact_locked(&mut maint))? {
            ran += 1;
        }
        Ok(ran)
    }

    /// Full maintenance pump: seal, flush everything, compact to
    /// quiescence — the job a rotation hands the worker, run on the
    /// calling thread.
    pub fn maintain(&self) -> io::Result<()> {
        let core = &self.core;
        let (mut write, mut maint) = core.quiesce();
        core.rotate_if_non_empty(&mut write)?;
        core.count_failure(core.maintain_locked(&mut maint))
    }
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> Drop for LsmEngine<K, V> {
    /// Stops the worker: a job in flight finishes, a queued one is left
    /// to the WAL, and nothing is flushed on the way out.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.core.job_lock().shutdown = true;
            self.core.job_changed.notify_all();
            let _ = worker.join();
        }
    }
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> Core<K, V> {
    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    // Lock acquisition recovers from poisoning: a panic elsewhere (e.g. a
    // caller's closure, or a maintenance job) must not cascade into panics
    // on the read path of an otherwise healthy — or deliberately degraded
    // — engine.  The guarded structures are kept consistent by
    // commit-point discipline, not by unwind-freedom, so the inner value
    // is safe to use.

    fn write_lock(&self) -> MutexGuard<'_, WriteState> {
        self.write.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn maint_lock(&self) -> MutexGuard<'_, MaintState> {
        self.maint.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn job_lock(&self) -> MutexGuard<'_, JobSlot> {
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read_state(&self) -> RwLockReadGuard<'_, Arc<Version<K, V>>> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    // ---- The hand-off to the maintenance worker ----

    /// The worker's loop: one job per hand-off until the engine drops.
    fn work(&self) {
        loop {
            {
                let mut slot = self.job_lock();
                while !slot.takeable() && !slot.shutdown {
                    slot = self.wait_job(slot);
                }
                if slot.shutdown {
                    return;
                }
                slot.queued = false;
                slot.running = true;
            }
            // A job that panics is counted and ends here: the slot is freed
            // below, so no rotation waits for it forever.
            let job = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut maint = self.maint_lock();
                let _ = self.retry_maintenance(|| self.maintain_locked(&mut maint));
            }));
            if job.is_err() {
                self.counters.maint_panics.incr();
            }
            self.counters.maint_jobs.incr();
            self.job_lock().running = false;
            self.job_changed.notify_all();
        }
    }

    fn wait_job<'a>(&self, slot: MutexGuard<'a, JobSlot>) -> MutexGuard<'a, JobSlot> {
        self.job_changed
            .wait(slot)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns once no job is queued or running, with the microseconds it
    /// waited.  Free when there is nothing to wait for.
    fn wait_for_job(&self) -> u64 {
        let mut slot = self.job_lock();
        if !slot.queued && !slot.running {
            return 0;
        }
        let start = Instant::now();
        while slot.queued || slot.running {
            slot = self.wait_job(slot);
        }
        start.elapsed().as_micros() as u64
    }

    /// Hands the worker the job at this rotation; the slot is free (every
    /// rotation waits for it first).
    fn hand_off_job(&self) {
        self.job_lock().queued = true;
        self.job_changed.notify_all();
    }

    /// What an explicit maintenance entry point runs under: the writer
    /// mutex, so no rotation hands off a job meanwhile; no job in flight;
    /// and the maintenance mutex.
    fn quiesce(&self) -> (MutexGuard<'_, WriteState>, MutexGuard<'_, MaintState>) {
        let write = self.write_lock();
        self.wait_for_job();
        (write, self.maint_lock())
    }

    // ---- Versions ----

    /// Makes a changed copy of the current version current.  The copy and
    /// the swap happen under the exclusive state lock — the writer's
    /// rotation and the maintenance mutex's holder both commit versions,
    /// so neither can lose the other's change — and `change` only moves
    /// pointers.  Readers that pinned the old version keep it; the last
    /// one to let go frees it.
    fn commit_version(&self, change: impl FnOnce(&mut Version<K, V>)) {
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let mut next = Version::clone(&state);
        change(&mut next);
        let old = std::mem::replace(&mut *state, Arc::new(next));
        drop(state);
        // Outside the lock: this may be the last reference to a memtable
        // or a table.
        drop(old);
    }

    fn sort_levels(levels: &mut [Vec<Arc<Table<K, V>>>]) {
        for (at, level) in levels.iter_mut().enumerate() {
            if at == 0 {
                level.sort_by_key(|table| std::cmp::Reverse(table.id));
            } else {
                level.sort_by_key(|table| table.min_key);
            }
        }
    }

    /// Merge sources over `[lo, hi]` in newest-first priority order: one
    /// per memtable, one per table of `levels[0]` (they overlap, newest
    /// first), then one per non-empty deeper level — a sorted run behind a
    /// single cursor that opens the tables it reads and no others.  Every
    /// merge the engine runs gets its sources here: a scan (and the open
    /// sweep, which is one) over its version, compaction over its plan and
    /// no memtables.  The table cursors count read failures into `errors`
    /// and end their stream early instead of panicking.
    fn sources<'a>(
        memtables: impl IntoIterator<Item = &'a Arc<Memtable<K, V>>>,
        levels: &'a [Vec<Arc<Table<K, V>>>],
        lo: Bound<K>,
        hi: Bound<K>,
        errors: &'a RelaxedCounter,
    ) -> impl Iterator<Item = Source<'a, K, V>> {
        let (overlapping, runs) = match levels {
            [level0, deeper @ ..] => (level0.as_slice(), deeper),
            [] => (&[][..], &[][..]),
        };
        let runs = overlapping
            .iter()
            .map(std::slice::from_ref)
            .chain(runs.iter().map(Vec::as_slice).filter(|run| !run.is_empty()))
            .map(move |run| Source::Run(Table::run_cursor(run, lo, hi, errors)));
        memtables
            .into_iter()
            .map(move |memtable| Source::Memtable(memtable.cursor(lo, hi)))
            .chain(runs)
    }

    // ---- The write path ----

    /// Newest-first lookup across every layer; a tombstone answer settles
    /// the key as deleted.  `hash` is the key's [`Persist::filter_hash`],
    /// computed once by the caller: every memtable's key filter and every
    /// probed table's bloom filter is checked with it, and a layer whose
    /// filter rules the key out is skipped without being read.
    /// `skip_memtable`
    /// serves the write path, which has already consulted the mutable
    /// memtable.
    fn lookup(
        &self,
        state: &Version<K, V>,
        key: &K,
        hash: u32,
        skip_memtable: bool,
    ) -> io::Result<Option<Slot<V>>> {
        let memtables = std::iter::once(&state.memtable).skip(usize::from(skip_memtable));
        for memtable in memtables.chain(&state.immutables) {
            if let Some(slot) = memtable.get_hashed(key, hash) {
                return Ok(Some(slot));
            }
        }
        for (at, level) in state.levels.iter().enumerate() {
            if at == 0 {
                for table in level {
                    if table.may_contain_hashed(key, hash) {
                        if let Some(slot) = self.table_get(table, key)? {
                            return Ok(Some(slot));
                        }
                    }
                }
            } else {
                // Non-overlapping: at most one candidate table.
                let candidate = level.partition_point(|table| table.max_key < *key);
                if let Some(table) = level.get(candidate) {
                    if table.may_contain_hashed(key, hash) {
                        if let Some(slot) = self.table_get(table, key)? {
                            return Ok(Some(slot));
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    fn table_get(&self, table: &Table<K, V>, key: &K) -> io::Result<Option<Slot<V>>> {
        table
            .get(key)
            .inspect_err(|_| self.counters.io_errors.incr())
    }

    /// Applies one slot to the mutable memtable and returns the live
    /// value it displaced — taken from the older layers when the memtable
    /// held no version of the key — keeping `live_keys` exact, which is
    /// why the callers hold the writer mutex across it.  The key's filter
    /// hash is computed once: the memtable sets its filter bits with it,
    /// and the previous-value lookup checks the older layers' filters.
    fn apply_slot(&self, state: &Version<K, V>, key: K, slot: Slot<V>) -> Option<V> {
        let hash = key.filter_hash();
        let previous = match state.memtable.apply_hashed(key, slot, hash) {
            Some(slot) => Some(slot),
            // A table-read failure here loses only the previous-value
            // answer (already counted in io_errors); the mutation itself
            // is durable and applied.  live_keys may drift until the next
            // reopen recounts it.
            None => self.lookup(state, &key, hash, true).unwrap_or(None),
        }
        .and_then(Slot::value);
        match (previous.is_some(), slot.is_tombstone()) {
            (false, false) => {
                self.live_keys.fetch_add(1, Ordering::Relaxed);
            }
            (true, true) => {
                self.live_keys.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
        previous
    }

    /// The serialized write path shared by the insert and remove lanes:
    /// degraded check, WAL append, memtable apply, rotation check.
    fn put_slot(&self, key: K, slot: Slot<V>) -> io::Result<Option<V>> {
        let mut write = self.write_lock();
        if self.degraded() {
            return Err(degraded_error());
        }
        let wal_op = match slot {
            Slot::Put(value) => WalOp::Put { key, value },
            Slot::Tombstone => WalOp::Delete { key },
        };
        self.wal_append(&mut write, std::iter::once(wal_op))?;
        let previous = self.apply_slot(&self.read_state(), key, slot);
        self.maybe_rotate(&mut write);
        Ok(previous)
    }

    /// [`LsmEngine::try_execute`].
    fn execute(&self, ops: &mut [Op<K, V>]) -> io::Result<()> {
        let get = |state: &Version<K, V>, key: &K| {
            self.lookup(state, key, key.filter_hash(), false)
                .unwrap_or(None)
                .and_then(Slot::value)
                .into()
        };
        if ops.iter().all(|op| matches!(op, Op::Get { .. })) {
            let state = self.read_state();
            for op in ops.iter_mut() {
                if let Op::Get { key, result } = op {
                    *result = get(&state, key);
                }
            }
            return Ok(());
        }
        let mut write = self.write_lock();
        if self.degraded() {
            return Err(degraded_error());
        }
        let wal_ops = ops.iter().filter_map(|op| match op {
            Op::Insert { key, value, .. } => Some(WalOp::Put {
                key: *key,
                value: *value,
            }),
            Op::Remove { key, .. } => Some(WalOp::Delete { key: *key }),
            Op::Get { .. } => None,
        });
        self.wal_append(&mut write, wal_ops)?;
        {
            let state = self.read_state();
            for op in ops.iter_mut() {
                match op {
                    Op::Get { key, result } => *result = get(&state, key),
                    Op::Insert { key, value, result } => {
                        *result = self.apply_slot(&state, *key, Slot::Put(*value)).into();
                    }
                    Op::Remove { key, result } => {
                        *result = self.apply_slot(&state, *key, Slot::Tombstone).into();
                    }
                }
            }
        }
        self.maybe_rotate(&mut write);
        Ok(())
    }

    /// Appends one record; on failure the mutation was not acknowledged,
    /// so the engine flips into sticky degraded mode.
    fn wal_append(
        &self,
        write: &mut WriteState,
        ops: impl Iterator<Item = WalOp<K, V>> + Clone,
    ) -> io::Result<()> {
        match write.wal.append_ops(ops) {
            Ok(frame) => {
                self.counters.wal_bytes.add(frame);
                self.counters.wal_records.incr();
                Ok(())
            }
            Err(error) => {
                self.counters.write_failures.incr();
                self.degraded.store(true, Ordering::Release);
                Err(error)
            }
        }
    }

    // ---- Maintenance ----

    /// The one place a failed maintenance operation is counted: once in
    /// `io_errors`, whether it was retried (rotation points and jobs) or
    /// called directly (`rotate` / `flush` / `compact` / `maintain`).
    fn count_failure<T>(&self, result: io::Result<T>) -> io::Result<T> {
        result.inspect_err(|_| self.counters.io_errors.incr())
    }

    /// Runs `step` up to [`MAINTENANCE_ATTEMPTS`] times under exponential
    /// backoff; a final failure counts one `io_error` and is returned.
    fn retry_maintenance(&self, mut step: impl FnMut() -> io::Result<()>) -> io::Result<()> {
        let mut backoff = Backoff::new();
        let mut last = None;
        for attempt in 0..MAINTENANCE_ATTEMPTS {
            if attempt > 0 {
                backoff.snooze();
            }
            match step() {
                Ok(()) => return Ok(()),
                Err(error) => last = Some(error),
            }
        }
        let last = last.unwrap_or_else(|| io::Error::other("bskip-lsm: maintenance failed"));
        self.count_failure(Err(last))
    }

    /// Seals the memtable if it has outgrown its budget — after waiting
    /// for the previous job, the writer's one stall — and (in
    /// auto-maintain mode) hands the worker the next job.  Failures are
    /// retried with backoff and then deferred to the next rotation point
    /// — never panicked on: the current WAL keeps the data safe while the
    /// memtable overshoots its budget.
    fn maybe_rotate(&self, write: &mut WriteState) {
        let over = {
            let state = self.read_state();
            state.memtable.bytes() >= self.config.memtable_bytes && !state.memtable.is_empty()
        };
        if !over {
            return;
        }
        self.counters.writer_stall_us.add(self.wait_for_job());
        if self
            .retry_maintenance(|| self.rotate_locked(write))
            .is_err()
        {
            return;
        }
        if self.config.auto_maintain {
            self.hand_off_job();
        }
    }

    fn rotate_if_non_empty(&self, write: &mut WriteState) -> io::Result<()> {
        let non_empty = !self.read_state().memtable.is_empty();
        if non_empty {
            self.count_failure(self.rotate_locked(write))?;
        }
        Ok(())
    }

    /// Seals the mutable memtable behind a fresh one and a fresh WAL
    /// segment: changes `memtable` and `immutables`, never `levels`.
    fn rotate_locked(&self, write: &mut WriteState) -> io::Result<()> {
        let new_id = write.next_wal_id;
        let new_wal = WalWriter::create(
            self.storage.as_ref(),
            &wal_file(&self.dir, new_id),
            self.config.sync,
        )?;
        write.next_wal_id = new_id + 1;
        write.wal = new_wal;
        let fresh = Arc::new(Memtable::with_budget(
            vec![new_id],
            self.config.memtable_bytes,
        ));
        self.commit_version(|next| {
            let sealed = std::mem::replace(&mut next.memtable, fresh);
            next.immutables.insert(0, sealed);
        });
        self.counters.rotations.incr();
        Ok(())
    }

    /// The job: flush every sealed memtable, then compact while a trigger
    /// fires.  The worker runs it at every hand-off, `maintain` on the
    /// caller's thread.
    fn maintain_locked(&self, maint: &mut MaintState) -> io::Result<()> {
        while self.flush_locked(maint)? {}
        while self.compact_locked(maint)? {}
        Ok(())
    }

    /// Flushes the oldest immutable memtable into an L0 table.  Returns
    /// whether an immutable memtable was drained.  On error nothing in
    /// memory has changed and partial output files are removed; the
    /// memtable stays sealed and flushable.
    fn flush_locked(&self, maint: &mut MaintState) -> io::Result<bool> {
        let Some(immutable) = self.read_state().immutables.last().cloned() else {
            return Ok(false);
        };
        // The oldest memtable, last in the newest-first list.
        let retire = |next: &mut Version<K, V>| {
            next.immutables.pop();
        };
        if immutable.is_empty() {
            self.commit_version(retire);
        } else {
            let entries = immutable.cursor(Bound::Unbounded, Bound::Unbounded);
            let outputs = self.write_tables(maint, entries, u64::MAX, || Ok(()))?;
            // The table becomes visible in the version that retires the
            // memtable it replaces.
            self.install(maint, &HashSet::new(), &outputs, 0, retire)?;
            self.counters.flushes.incr();
        }
        // The manifest now covers (or never needed) this memtable's data;
        // its WAL segments are done.
        for &id in immutable.wal_ids() {
            let _ = self.storage.remove(&wal_file(&self.dir, id));
        }
        // A flush is a quiescent point for the drained list: drain its
        // retirement backlog before the structure is dropped.
        while immutable.try_reclaim() > 0 {}
        Ok(true)
    }

    /// Runs one compaction if any trigger fires.  Returns whether work
    /// was done.  On any failure — an input read error, an output write
    /// error, a manifest commit error — the level set was never touched,
    /// partial outputs are deleted, and the inputs stay live.
    fn compact_locked(&self, maint: &mut MaintState) -> io::Result<bool> {
        let Some(plan) = self.plan_compaction() else {
            return Ok(false);
        };
        let read_errors = RelaxedCounter::new();
        let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
        let mut merge = MergeCursor::new(Self::sources([], &plan.inputs, lo, hi, &read_errors));
        let kept = std::iter::from_fn(|| merge.next())
            .filter(|(_, slot)| !(plan.drop_tombstones && slot.is_tombstone()));
        let outputs = self.write_tables(maint, kept, self.config.table_target_bytes, || {
            // An input cursor that hit a read error ended its stream
            // early; committing would silently drop the unread suffix.
            if read_errors.get() > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bskip-lsm: compaction input read failed; aborting to avoid data loss",
                ));
            }
            Ok(())
        })?;
        let input_ids: HashSet<u64> = plan.inputs.iter().flatten().map(|table| table.id).collect();
        self.install(maint, &input_ids, &outputs, plan.output_level, |_| {})?;
        for table in plan.inputs.iter().flatten() {
            let _ = self.storage.remove(table.path());
        }
        self.counters.compactions.incr();
        Ok(true)
    }

    /// Streams `entries` into new tables, starting a fresh one whenever the
    /// current one reaches `split_bytes`, runs `verify` once the stream has
    /// ended, and opens every output, so that `install` has nothing left
    /// that can fail but the manifest commit.  The only place maintenance
    /// allocates table ids; on any error the files written here are removed
    /// and the ids given back.
    fn write_tables(
        &self,
        maint: &mut MaintState,
        entries: impl Iterator<Item = (K, Slot<V>)>,
        split_bytes: u64,
        verify: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<Vec<Arc<Table<K, V>>>> {
        let first_id = maint.next_table_id;
        let build = |maint: &mut MaintState| -> io::Result<Vec<Arc<Table<K, V>>>> {
            let mut builder: Option<TableBuilder<K, V>> = None;
            let mut finished = Vec::new();
            for (key, slot) in entries {
                let active = match builder.as_mut() {
                    Some(active) => active,
                    None => {
                        let path = table_file(&self.dir, maint.next_table_id);
                        maint.next_table_id += 1;
                        let storage = self.storage.as_ref();
                        builder.insert(TableBuilder::create(storage, &path, self.config.table)?)
                    }
                };
                active.add(key, slot)?;
                if active.bytes_estimate() >= split_bytes {
                    let full = builder.take().expect("builder is active");
                    finished.push(full.finish()?.path);
                }
            }
            if let Some(rest) = builder {
                finished.push(rest.finish()?.path);
            }
            verify()?;
            // Every id handed out above names a finished table, in order.
            let open = |(path, id): (&PathBuf, u64)| {
                Table::open(self.storage.as_ref(), path, id).map(Arc::new)
            };
            finished.iter().zip(first_id..).map(open).collect()
        };
        build(maint).inspect_err(|_| self.discard_tables(maint, first_id))
    }

    /// Undoes a maintenance job that will not commit: removes the table
    /// files it wrote — ids `first_id` and up — and gives the ids back.
    fn discard_tables(&self, maint: &mut MaintState, first_id: u64) {
        for id in first_id..maint.next_table_id {
            let _ = self.storage.remove(&table_file(&self.dir, id));
        }
        maint.next_table_id = first_id;
    }

    /// The one commit path of the level set: builds the next `levels`
    /// aside — `inputs` out, `outputs` in at `level` — commits its manifest
    /// with no state lock held, and only then commits the version holding
    /// it, changed further by `retire`.  The maintenance mutex (`maint`)
    /// is what keeps `levels` from changing in between: its holder is the
    /// only thread that changes them.  Readers carry on over the old
    /// version until the swap, and scans opened on it after that.  A
    /// failed commit discards the outputs and swaps nothing.
    fn install(
        &self,
        maint: &mut MaintState,
        inputs: &HashSet<u64>,
        outputs: &[Arc<Table<K, V>>],
        level: usize,
        retire: impl FnOnce(&mut Version<K, V>),
    ) -> io::Result<()> {
        let mut levels = self.read_state().levels.clone();
        for tables in levels.iter_mut() {
            tables.retain(|table| !inputs.contains(&table.id));
        }
        if levels.len() <= level {
            levels.resize_with(level + 1, Vec::new);
        }
        levels[level].extend(outputs.iter().cloned());
        Self::sort_levels(&mut levels);
        if let Err(error) = self.persist_manifest(&levels) {
            // The outputs hold the newest ids: `write_tables` handed them out.
            self.discard_tables(maint, maint.next_table_id - outputs.len() as u64);
            return Err(error);
        }
        self.commit_version(|next| {
            next.levels = levels;
            retire(next);
        });
        Ok(())
    }

    fn plan_compaction(&self) -> Option<CompactionPlan<K, V>> {
        let state = self.read_state();
        // Merge `upper`, tables of the level above `output_level`, with
        // the run of `output_level`'s tables that overlap their key range.
        let plan = |upper: Vec<Arc<Table<K, V>>>, output_level: usize| {
            let lo = upper.iter().map(|t| t.min_key).min()?;
            let hi = upper.iter().map(|t| t.max_key).max()?;
            let overlapped = state.levels.get(output_level).map_or(Vec::new(), |level| {
                let overlaps = |t: &&Arc<Table<K, V>>| t.min_key <= hi && t.max_key >= lo;
                level.iter().filter(overlaps).cloned().collect()
            });
            Some(CompactionPlan {
                inputs: [upper, overlapped],
                output_level,
                drop_tombstones: state
                    .levels
                    .iter()
                    .skip(output_level + 1)
                    .all(Vec::is_empty),
            })
        };
        // L0 → L1: too many overlapping tables.
        let l0 = state.levels.first().map_or(0, Vec::len);
        if l0 >= self.config.l0_compaction_trigger {
            return plan(state.levels[0].clone(), 1);
        }
        // Deeper levels: spill one table down when over budget.
        for (at, level) in state.levels.iter().enumerate().skip(1) {
            let bytes: u64 = level.iter().map(|t| t.bytes).sum();
            let budget = self
                .config
                .level_base_bytes
                .saturating_mul(self.config.level_multiplier.saturating_pow(at as u32 - 1));
            if bytes <= budget || level.is_empty() {
                continue;
            }
            return plan(vec![Arc::clone(&level[0])], at + 1);
        }
        None
    }

    fn persist_manifest(&self, levels: &[Vec<Arc<Table<K, V>>>]) -> io::Result<()> {
        let mut tables = Vec::new();
        for (level, level_tables) in levels.iter().enumerate() {
            for table in level_tables {
                tables.push(ManifestTable {
                    level,
                    id: table.id,
                    entries: table.entries,
                    bytes: table.bytes,
                });
            }
        }
        Manifest { tables }.store(self.storage.as_ref(), &self.dir)
    }
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> ConcurrentIndex<K, V> for LsmEngine<K, V> {
    fn insert(&self, key: K, value: V) -> Option<V> {
        self.try_insert(key, value).unwrap_or_default()
    }

    fn get(&self, key: &K) -> Option<V> {
        self.try_get(key).unwrap_or_default()
    }

    fn remove(&self, key: &K) -> Option<V> {
        self.try_remove(key).unwrap_or_default()
    }

    /// The group-commit ingest lane; see [`LsmEngine::try_execute`].  On
    /// a degraded engine (or an I/O failure) a mutating batch is dropped
    /// and its result slots stay unset.
    fn execute(&self, ops: &mut [Op<K, V>]) {
        let _ = self.try_execute(ops);
    }

    /// A merged scan over the version current when it opens: one K-way
    /// merge of its sources — every memtable, every level-0 table, one run
    /// cursor per deeper level — from `lo` to `hi`, pulled an entry at a
    /// time and never yielding a shadowed or deleted version.  The cursor
    /// holds that version until it drops: it sees the writes that reach
    /// its memtable before the memtable rotates and none after, and it
    /// reads tables that a compaction has unlinked since.
    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        let version = Arc::clone(&self.core.read_state());
        Cursor::new(Scan::new(version, lo, hi, &self.core.counters.io_errors))
    }

    fn try_reclaim(&self) -> usize {
        self.core.read_state().memtable.try_reclaim()
    }

    fn len(&self) -> usize {
        self.core.live_keys.load(Ordering::Relaxed) as usize
    }

    fn name(&self) -> &'static str {
        "bskip-lsm"
    }

    fn degraded(&self) -> bool {
        self.core.degraded()
    }

    fn stats(&self) -> IndexStats {
        // The state read lock only: like `len`, this must answer while a
        // rotation holds the writer mutex or a job the maintenance mutex.
        let core = &self.core;
        let state = core.read_state();
        // Everything below the counters is a level read at snapshot time.
        let gauge = StatKind::Gauge;
        let mut stats = core
            .counters
            .snapshot()
            .with_kind("degraded", gauge, core.degraded() as u64)
            .with_kind("live_keys", gauge, core.live_keys.load(Ordering::Relaxed))
            .with_kind("memtable_bytes", gauge, state.memtable.bytes())
            .with_kind("memtable_live_nodes", gauge, state.memtable.live_nodes())
            // A fraction, so merged shards report the fullest filter
            // rather than a sum.
            .with_kind(
                "memtable_filter_fill_ppm",
                StatKind::Max,
                state.memtable.filter_fill_ppm(),
            )
            .with_kind("immutable_memtables", gauge, state.immutables.len() as u64)
            // Which checksum kernel this process runs: a property of the
            // CPU, so merged shards still read 0 or 1.
            .with_kind("crc_clmul", StatKind::Max, crc::accelerated() as u64);
        const LEVEL_NAMES: [&str; 7] = [
            "tables_l0",
            "tables_l1",
            "tables_l2",
            "tables_l3",
            "tables_l4",
            "tables_l5",
            "tables_l6",
        ];
        for (at, name) in LEVEL_NAMES.iter().enumerate() {
            let tables = state.levels.get(at).map_or(0, |l| l.len() as u64);
            stats.push(name, gauge, tables);
        }
        stats.with_reclamation(state.memtable.reclamation())
    }

    fn reset_stats(&self) {
        // The error counters reset too, but the sticky degraded flag does
        // not — only a reopen clears that.
        self.core.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultFs, StorageFile};
    use bskip_index::cursor::{above_lower, below_upper};
    use std::collections::BTreeMap;
    use std::fs;
    use std::sync::mpsc;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bskip-lsm-test-{}-{n}-{tag}", std::process::id()))
    }

    fn open_small(dir: &Path) -> LsmEngine<u64, u64> {
        LsmEngine::open(dir, LsmConfig::small()).unwrap()
    }

    #[test]
    fn point_operations_and_len() {
        let dir = temp_dir("point");
        let engine = open_small(&dir);
        assert!(engine.is_empty());
        assert_eq!(engine.insert(1, 10), None);
        assert_eq!(engine.insert(1, 11), Some(10));
        assert_eq!(engine.get(&1), Some(11));
        assert_eq!(engine.get(&2), None);
        assert_eq!(engine.remove(&1), Some(11));
        assert_eq!(engine.remove(&1), None);
        assert_eq!(engine.get(&1), None);
        assert_eq!(engine.len(), 0);
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn rotation_flush_compaction_preserve_contents() {
        let dir = temp_dir("layers");
        let engine = open_small(&dir);
        // Enough volume to drive several rotations, flushes and at least
        // one compaction through the small config.
        for key in 0..4_000u64 {
            engine.insert(key % 1_000, key);
        }
        for key in (0..1_000u64).step_by(3) {
            engine.remove(&key);
        }
        let stats = engine.stats();
        assert!(stats.get("memtable_rotations").unwrap() > 0, "{stats}");
        assert!(stats.get("sst_flushes").unwrap() > 0, "{stats}");
        assert!(stats.get("compactions").unwrap() > 0, "{stats}");
        for key in 0..1_000u64 {
            let expected = if key % 3 == 0 {
                None
            } else {
                Some(3_000 + key)
            };
            assert_eq!(engine.get(&key), expected, "key {key}");
        }
        let live: Vec<(u64, u64)> = engine.scan(..).collect();
        assert_eq!(live.len(), engine.len());
        assert!(live.windows(2).all(|w| w[0].0 < w[1].0));
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn reopen_recovers_everything() {
        let dir = temp_dir("reopen");
        let engine = open_small(&dir);
        for key in 0..2_000u64 {
            engine.insert(key, key * 7);
        }
        for key in (0..2_000u64).step_by(5) {
            engine.remove(&key);
        }
        let before: Vec<(u64, u64)> = engine.scan(..).collect();
        let len_before = engine.len();
        drop(engine);

        let engine = open_small(&dir);
        assert_eq!(engine.len(), len_before);
        let after: Vec<(u64, u64)> = engine.scan(..).collect();
        assert_eq!(after, before);
        // And the reopened engine keeps accepting writes.
        engine.insert(5_000, 1);
        assert_eq!(engine.get(&5_000), Some(1));
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn explicit_maintenance_pump() {
        let dir = temp_dir("manual");
        let mut config = LsmConfig::small();
        config.auto_maintain = false;
        let engine: LsmEngine<u64, u64> = LsmEngine::open(&dir, config).unwrap();
        for key in 0..3_000u64 {
            engine.insert(key, key);
        }
        // Nothing flushed yet; sealed memtables may have piled up.
        assert_eq!(engine.tables_per_level(), Vec::<usize>::new());
        engine.maintain().unwrap();
        let levels = engine.tables_per_level();
        assert!(levels.iter().sum::<usize>() > 0, "{levels:?}");
        for key in (0..3_000u64).step_by(97) {
            assert_eq!(engine.get(&key), Some(key));
        }
        assert_eq!(engine.len(), 3_000);
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_batches_group_commit() {
        let dir = temp_dir("batch");
        let engine = open_small(&dir);
        let mut batch = vec![
            Op::insert(1, 10),
            Op::insert(2, 20),
            Op::get(1),
            Op::remove(2),
            Op::get(2),
            Op::insert(1, 11),
        ];
        engine.execute(&mut batch);
        assert_eq!(batch[2].result().value(), Some(10));
        assert_eq!(batch[3].result().value(), Some(20));
        assert_eq!(batch[4].result().value(), None);
        assert_eq!(batch[5].result().value(), Some(10));
        // One record for the whole batch (group commit).
        let stats = engine.stats();
        assert_eq!(stats.get("wal_records"), Some(1));
        assert_eq!(stats.get("crc_clmul"), Some(crc::accelerated() as u64));
        assert_eq!(engine.len(), 1);
        // A read-only batch appends nothing.
        let mut reads = vec![Op::<u64, u64>::get(1)];
        engine.execute(&mut reads);
        assert_eq!(engine.stats().get("wal_records"), Some(1));
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn scans_observe_all_layers_with_bounds() {
        let dir = temp_dir("scan");
        let engine = open_small(&dir);
        for key in 0..1_500u64 {
            engine.insert(key * 2, key);
        }
        engine.maintain().unwrap();
        // Updates and deletes land in the memtable, above the tables.
        engine.insert(10, 999);
        engine.remove(&20);
        let window: Vec<(u64, u64)> = engine.scan(8..=24).collect();
        assert_eq!(
            window,
            vec![
                (8, 4),
                (10, 999),
                (12, 6),
                (14, 7),
                (16, 8),
                (18, 9),
                (22, 11),
                (24, 12)
            ]
        );
        {
            // Opened between keys, at the memtable's update and just
            // below its tombstone.
            let mut cursor = engine.scan(9..);
            assert_eq!(cursor.next(), Some((10, 999)));
            assert_eq!(cursor.next(), Some((12, 6)));
            let mut cursor = engine.scan(19..);
            assert_eq!(cursor.next(), Some((22, 11)), "20 is deleted");
        }
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn concurrent_readers_and_writer() {
        let dir = temp_dir("mt");
        let engine = Arc::new(open_small(&dir));
        let writer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for key in 0..3_000u64 {
                    engine.insert(key % 500, key);
                    if key % 7 == 0 {
                        engine.remove(&(key % 500));
                    }
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|seed| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for round in 0..2_000u64 {
                        let key = (round * 31 + seed) % 500;
                        let _ = engine.get(&key);
                        if round % 100 == 0 {
                            let page: Vec<_> = engine.scan(key..).take(20).collect();
                            assert!(page.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_failure_degrades_engine_but_reads_survive() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/db");
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(fs.clone()), &dir, LsmConfig::small()).unwrap();
        for key in 0..100u64 {
            engine.insert(key, key * 3);
        }
        assert!(!LsmEngine::degraded(&engine));

        // The next WAL append fails: the mutation must error, not panic,
        // and the engine must flip into sticky read-only mode.
        fs.fail_nth_write(1, io::ErrorKind::StorageFull);
        let error = engine.try_insert(200, 1).expect_err("write must fail");
        assert_eq!(error.kind(), io::ErrorKind::StorageFull);
        assert!(LsmEngine::degraded(&engine));
        assert_eq!(engine.write_failures(), 1);

        // Further mutations are rejected before touching storage.
        let writes_before = fs.write_count();
        assert!(engine.try_insert(201, 1).is_err());
        assert!(engine.try_remove(&0).is_err());
        assert_eq!(fs.write_count(), writes_before);
        // The infallible surface drops the mutation instead of panicking.
        assert_eq!(engine.insert(202, 1), None);
        assert_eq!(engine.get(&202), None);

        // Reads, scans and read-only batches keep working.
        assert_eq!(engine.get(&42), Some(126));
        assert_eq!(engine.try_get(&42).unwrap(), Some(126));
        assert_eq!(engine.scan(..).count(), 100);
        let mut reads = vec![Op::<u64, u64>::get(7)];
        engine.try_execute(&mut reads).expect("read-only batch ok");
        assert_eq!(reads[0].result().value(), Some(21));
        let mut mixed = vec![Op::get(7), Op::insert(300, 1)];
        assert!(engine.try_execute(&mut mixed).is_err());

        let stats = engine.stats();
        assert_eq!(stats.get("degraded"), Some(1), "{stats}");
        assert_eq!(stats.get("write_failures"), Some(1), "{stats}");
    }

    #[test]
    fn transient_maintenance_fault_recovers_via_retry() {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/db");
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(fs.clone()), &dir, LsmConfig::small()).unwrap();
        // One transient sync failure somewhere in the maintenance stream:
        // the retry loop must absorb it without degrading the engine.
        fs.fail_nth_sync(1, io::ErrorKind::Interrupted);
        for key in 0..2_000u64 {
            engine.insert(key, key);
        }
        assert!(!LsmEngine::degraded(&engine));
        assert!(engine.stats().get("sst_flushes").unwrap() > 0);
        for key in (0..2_000u64).step_by(193) {
            assert_eq!(engine.get(&key), Some(key));
        }
    }

    // ---- Sorted runs: what a merge opens, reads and writes ----

    /// [`LsmConfig::small`] pumped by hand, with budgets that leave several
    /// tables on each of two deeper levels.
    fn manual_config() -> LsmConfig {
        LsmConfig {
            auto_maintain: false,
            level_base_bytes: 24 << 10,
            table_target_bytes: 4 << 10,
            ..LsmConfig::small()
        }
    }

    /// A fixed history: rounds of 600 writes and deletes over one
    /// overlapping key range, each flushed to level 0, every second one
    /// compacted.  Returns what the engine must hold afterwards.
    fn load_rounds(engine: &LsmEngine<u64, u64>, rounds: u64) -> BTreeMap<u64, u64> {
        let mut oracle = BTreeMap::new();
        for round in 0..rounds {
            for i in 0..600u64 {
                let key = (i * 37 + round * 3) % 6_000;
                if (i + round) % 5 == 0 {
                    engine.remove(&key);
                    oracle.remove(&key);
                } else {
                    engine.insert(key, round << 32 | i);
                    oracle.insert(key, round << 32 | i);
                }
            }
            engine.rotate().unwrap();
            engine.flush().unwrap();
            if round % 2 == 1 {
                engine.compact().unwrap();
            }
        }
        oracle
    }

    fn open_manual(fs: &FaultFs) -> LsmEngine<u64, u64> {
        LsmEngine::open_with(Arc::new(fs.clone()), "/db", manual_config()).unwrap()
    }

    /// `(file name, length, whole-file CRC)` of every table file in `dir`.
    fn table_files(storage: &dyn Storage, dir: &Path) -> Vec<(String, usize, u32)> {
        let mut names = storage.read_dir(dir).unwrap();
        names.retain(|name| name.ends_with(".sst"));
        names.sort();
        let describe = |name: String| {
            let bytes = storage.read(&dir.join(&name)).unwrap();
            (name, bytes.len(), crc::crc32(&bytes))
        };
        names.into_iter().map(describe).collect()
    }

    #[test]
    fn compaction_outputs_are_byte_identical_to_the_pinned_files() {
        // Names, lengths and whole-file CRCs of the tables this history
        // leaves behind, captured from the engine as it stood when
        // compaction merged one cursor per input table.  Fourteen
        // compactions feed them: level 0 into four and five overlapping
        // level-1 tables, level-1 victims into up to four of level 2.
        let fs = FaultFs::new();
        let engine = open_manual(&fs);
        load_rounds(&engine, 12);
        assert_eq!(engine.tables_per_level(), [0, 5, 5]);
        assert_eq!(engine.stats().get("compactions"), Some(14));
        let golden = [
            ("tab-00000114.sst", 0x1210, 0x6774_6CC2u32),
            ("tab-00000115.sst", 0x1211, 0xF60A_3CD1),
            ("tab-00000116.sst", 0x120E, 0x36EA_680C),
            ("tab-00000117.sst", 0x1210, 0xF40D_094A),
            ("tab-00000118.sst", 0x0701, 0x448E_4AAE),
            ("tab-00000119.sst", 0x11F1, 0xBA6B_AF0D),
            ("tab-00000120.sst", 0x11F2, 0x7D0E_DFD8),
            ("tab-00000122.sst", 0x11F2, 0x3D98_4787),
            ("tab-00000123.sst", 0x0E62, 0xFD91_B28E),
            ("tab-00000124.sst", 0x10A7, 0xD427_7DCB),
        ];
        let written = table_files(&fs, Path::new("/db"));
        let written: Vec<_> = written
            .iter()
            .map(|(name, len, crc)| (name.as_str(), *len, *crc))
            .collect();
        assert_eq!(written, golden);
    }

    /// The history above, then more of it left where reads have to merge:
    /// six tables in level 0, a sealed memtable and a live one, each with
    /// overwrites and tombstones of keys the levels below still hold.
    fn layered(fs: &FaultFs) -> (LsmEngine<u64, u64>, BTreeMap<u64, u64>) {
        let engine = open_manual(fs);
        let mut oracle = load_rounds(&engine, 13);
        for i in 0..150u64 {
            let key = (i * 41 + 7) % 6_000;
            if i % 3 == 0 {
                engine.remove(&key);
                oracle.remove(&key);
            } else {
                engine.insert(key, i);
                oracle.insert(key, i);
            }
        }
        (engine, oracle)
    }

    #[test]
    fn a_scan_merges_one_source_per_sorted_run() {
        let fs = FaultFs::new();
        let (engine, _) = layered(&fs);
        let state = engine.core.read_state();
        let tables: Vec<usize> = state.levels.iter().map(Vec::len).collect();
        assert_eq!(tables, [6, 5, 5]);
        assert_eq!(state.immutables.len(), 1);
        let errors = RelaxedCounter::new();
        let count = |memtables: &[&Arc<Memtable<u64, u64>>], levels, lo, hi| {
            Core::sources(memtables.iter().copied(), levels, lo, hi, &errors).count()
        };
        let memtables = [&state.memtable, &state.immutables[0]];
        let (memtables, levels) = (&memtables[..], &state.levels[..]);
        let unbounded = Bound::Unbounded;
        // Memtable, sealed memtable, six level-0 tables, two runs.
        assert_eq!(
            count(memtables, levels, unbounded, unbounded),
            1 + 1 + 6 + 2
        );
        let reversed = (Bound::Included(5_999), Bound::Included(0));
        assert_eq!(count(memtables, levels, reversed.0, reversed.1), 10);
        // An empty level contributes none.
        let gappy = [state.levels[0].clone(), Vec::new(), state.levels[2].clone()];
        assert_eq!(
            (
                count(&[], &gappy, unbounded, unbounded),
                count(&[], &gappy[..1], unbounded, unbounded),
                count(&[], &[], unbounded, unbounded)
            ),
            (6 + 1, 6, 0)
        );
    }

    #[test]
    fn bounded_scans_match_a_btreemap_and_stop_in_the_sources() {
        let fs = FaultFs::new();
        let (engine, oracle) = layered(&fs);
        let check = |lo: Bound<u64>, hi: Bound<u64>| {
            let expected: Vec<(u64, u64)> = oracle
                .iter()
                .filter(|(key, _)| above_lower(*key, &lo) && below_upper(*key, &hi))
                .map(|(key, value)| (*key, *value))
                .collect();
            let got: Vec<(u64, u64)> = engine.scan_bounds(lo, hi).collect();
            assert_eq!(got, expected, "{lo:?}..{hi:?}");
        };
        let bound = |kind: u64, key: u64| match kind % 3 {
            0 => Bound::Included(key),
            1 => Bound::Excluded(key),
            _ => Bound::Unbounded,
        };
        // Windows that end (and begin) exactly on a table's last key ...
        let edges: Vec<u64> = {
            let state = engine.core.read_state();
            let tables = state.levels.iter().flatten();
            tables
                .flat_map(|table| [table.min_key, table.max_key])
                .collect()
        };
        for &edge in &edges {
            for kind in 0..2 {
                check(Bound::Included(edge.saturating_sub(40)), bound(kind, edge));
                check(bound(kind, edge), Bound::Included(edge + 40));
                check(bound(kind, edge), bound(kind, edge));
            }
        }
        // ... and pseudo-random ones: short, long, empty, reversed.
        let mut draw = 0x5EED_u64;
        let mut next = || {
            draw = draw.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            draw >> 33
        };
        for _ in 0..300 {
            let (lo, width) = (next() % 6_200, next() % 700);
            let hi = if next() % 8 == 0 {
                lo.saturating_sub(width)
            } else {
                lo + width / 7
            };
            check(bound(next(), lo), bound(next(), hi));
        }
        assert_eq!(engine.io_errors(), 0);

        // A three-key window costs no more block reads than positioning
        // each table source once.
        let state = engine.core.read_state();
        let sources = state.levels[0].len() + 2;
        drop(state);
        let before = fs.read_count();
        let window: Vec<(u64, u64)> = engine.scan(3_000..3_003).collect();
        assert_eq!(
            window,
            oracle
                .range(3_000..3_003)
                .map(|(k, v)| (*k, *v))
                .collect::<Vec<_>>()
        );
        let reads = fs.read_count() - before;
        assert!(reads <= sources as u64, "{reads} block reads");
    }

    /// Data blocks of every table `engine` holds.
    fn blocks_held(engine: &LsmEngine<u64, u64>) -> u64 {
        let state = engine.core.read_state();
        state
            .levels
            .iter()
            .flatten()
            .map(|table| table.blocks() as u64)
            .sum()
    }

    #[test]
    fn a_full_scan_reads_each_block_once() {
        let fs = FaultFs::new();
        let (engine, oracle) = layered(&fs);
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        // Six overlapping level-0 tables and two runs under two memtables,
        // then the same data settled by a full maintenance pump.
        for settle in [false, true] {
            if settle {
                engine.maintain().unwrap();
            }
            let before = fs.read_count();
            let scanned: Vec<(u64, u64)> = engine
                .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                .collect();
            assert_eq!(scanned, expected);
            let tables = engine.tables_per_level();
            assert_eq!(fs.read_count() - before, blocks_held(&engine), "{tables:?}");
        }
        assert_eq!(engine.io_errors(), 0);
    }

    /// A merge keeps eight sources inline and moves them all to the heap
    /// past that: a scan over two memtables and nineteen level-0 tables,
    /// and the one compaction that merges those tables into level 1,
    /// must both take the wide path and agree with a `BTreeMap`.
    #[test]
    fn a_merge_of_more_sources_than_it_keeps_inline_scans_and_compacts_exactly() {
        const TABLES: usize = 19;
        let fs = FaultFs::new();
        let dir = Path::new("/db");
        let open = |config: LsmConfig| -> LsmEngine<u64, u64> {
            LsmEngine::open_with(Arc::new(fs.clone()), dir, config).unwrap()
        };
        // Only explicit rotations, and level 1 holds everything; at
        // first, level 0 never triggers a compaction either.
        let roomy = LsmConfig {
            memtable_bytes: 1 << 20,
            level_base_bytes: 1 << 30,
            ..manual_config()
        };
        let engine = open(LsmConfig {
            l0_compaction_trigger: usize::MAX,
            ..roomy
        });
        let mut oracle = BTreeMap::new();
        let mut write = |engine: &LsmEngine<u64, u64>, round: u64| {
            for i in 0..150u64 {
                let key = (i * 37 + round * 11) % 1_500;
                if (i + round).is_multiple_of(5) {
                    engine.remove(&key);
                    oracle.remove(&key);
                } else {
                    engine.insert(key, round << 32 | i);
                    oracle.insert(key, round << 32 | i);
                }
            }
        };
        for round in 0..TABLES as u64 {
            write(&engine, round);
            engine.rotate().unwrap();
            engine.flush().unwrap();
        }
        assert_eq!(engine.tables_per_level(), [TABLES]);
        // A sealed memtable and a live one over the tables.
        write(&engine, TABLES as u64);
        engine.rotate().unwrap();
        write(&engine, TABLES as u64 + 1);
        let check = |engine: &LsmEngine<u64, u64>| {
            for (lo, hi) in [
                (Bound::Unbounded, Bound::Unbounded),
                (Bound::Included(300), Bound::Excluded(900)),
                (Bound::Excluded(1_111), Bound::Unbounded),
            ] {
                let expected: Vec<(u64, u64)> = oracle
                    .range((lo, hi))
                    .map(|(key, value)| (*key, *value))
                    .collect();
                let scanned: Vec<(u64, u64)> = engine.scan_bounds(lo, hi).collect();
                assert_eq!(scanned, expected, "{lo:?}..{hi:?}");
            }
        };
        check(&engine);
        // The sealed memtable goes to level 0 too; then one compaction,
        // under the usual trigger, merges all twenty tables.
        engine.flush().unwrap();
        drop(engine);
        let engine = open(roomy);
        check(&engine);
        assert_eq!(engine.compact().unwrap(), 1);
        let tables = engine.tables_per_level();
        assert!(tables[0] == 0 && tables[1] > 0, "{tables:?}");
        check(&engine);
        assert_eq!(engine.io_errors(), 0);
    }

    /// An engine whose whole content sits in one run: level 1, ten-odd
    /// tables of ~4 KiB.
    fn single_run(storage: Arc<dyn Storage>, dir: &Path) -> LsmEngine<u64, u64> {
        let config = LsmConfig {
            level_base_bytes: 1 << 20,
            ..manual_config()
        };
        let engine = LsmEngine::open_with(storage, dir, config).unwrap();
        for key in 0..3_000u64 {
            engine.insert(key * 2, key);
        }
        engine.maintain().unwrap();
        let tables = engine.tables_per_level();
        assert!(
            tables[0] == 0 && tables[1] >= 5 && tables.len() == 2,
            "{tables:?}"
        );
        engine
    }

    /// Flips a byte in the middle data block of `table`, in place (open
    /// handles see it); returns the keys `(after, up_to]` the block holds.
    fn corrupt_middle_block(table: &Table<u64, u64>) -> (u64, u64) {
        use std::os::unix::fs::FileExt;
        let victim = table.blocks() / 2;
        let (up_to, offset, len) = table.block_extent(victim);
        let (after, _, _) = table.block_extent(victim - 1);
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(table.path())
            .unwrap();
        let at = offset + u64::from(len) / 2;
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 0xFF], at).unwrap();
        (after, up_to)
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_corrupt_table_in_a_run_ends_the_scan_at_the_bad_block() {
        let dir = temp_dir("run-corrupt");
        let engine = single_run(Arc::new(StdFs), &dir);
        let (table_min, after, up_to) = {
            let state = engine.core.read_state();
            let middle = &state.levels[1][state.levels[1].len() / 2];
            let (after, up_to) = corrupt_middle_block(middle);
            (middle.min_key, after, up_to)
        };
        // The run is the scan's only non-empty source, so what the scan
        // yields is what the run cursor yields: everything below the bad
        // block and nothing above it — the cursor does not skip ahead to
        // the run's next table — at one `io_error` per scan.
        let below = |from: u64| (from..=after).step_by(2).map(|key| (key, key / 2));
        let scanned: Vec<(u64, u64)> = engine.scan(table_min..).collect();
        assert_eq!(scanned, below(table_min).collect::<Vec<_>>());
        assert_eq!(engine.io_errors(), 1);
        let scanned: Vec<(u64, u64)> = engine.scan(..).collect();
        assert_eq!(scanned, below(0).collect::<Vec<_>>());
        let failed = engine.io_errors();
        assert_eq!(failed, 2);
        // Behind the bad block the run reads on, other tables included.
        let scanned: Vec<(u64, u64)> = engine.scan(up_to + 1..).collect();
        let behind = (up_to + 2..6_000).step_by(2).map(|key| (key, key / 2));
        assert_eq!(scanned, behind.collect::<Vec<_>>());
        assert_eq!(engine.io_errors(), failed);
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn compaction_aborts_on_an_unreadable_input_and_leaves_everything_in_place() {
        let dir = temp_dir("compact-abort");
        let engine = single_run(Arc::new(StdFs), &dir);
        // Three level-0 tables across the whole key range: the next
        // compaction takes them and every level-1 table as its inputs.
        for round in 0..3u64 {
            for key in (round..3_000).step_by(40) {
                engine.insert(key * 2, round);
            }
            engine.rotate().unwrap();
            engine.flush().unwrap();
        }
        let tables_before = engine.tables_per_level();
        assert_eq!(tables_before[0], 3);
        let (after, up_to) = {
            let state = engine.core.read_state();
            corrupt_middle_block(&state.levels[1][state.levels[1].len() / 2])
        };
        let table_files = || table_files(&StdFs, &dir);
        let files_before = table_files();
        let compactions_before = engine.stats().get("compactions");

        let error = engine.compact().expect_err("an input cannot be read");
        assert!(error.to_string().contains("input read failed"), "{error}");
        assert_eq!(engine.io_errors(), 1, "one per failed `compact()`");
        assert_eq!(engine.tables_per_level(), tables_before);
        assert_eq!(table_files(), files_before, "no output, no input touched");
        assert_eq!(engine.stats().get("compactions"), compactions_before);
        // The inputs stay live: every key outside the bad block reads as
        // before, from whichever layer holds its newest version.
        for key in (0..3_000u64).map(|key| key * 2) {
            let newest = (0..3).rev().find(|round| (key / 2) % 40 == *round);
            if newest.is_none() && after < key && key <= up_to {
                assert!(
                    engine.try_get(&key).is_err(),
                    "key {key} is in the bad block"
                );
            } else {
                let expected = newest.unwrap_or(key / 2);
                assert_eq!(engine.try_get(&key).unwrap(), Some(expected), "key {key}");
            }
        }
        // And a second attempt fails the same way instead of wedging.
        assert!(engine.compact().is_err());
        assert_eq!(table_files(), files_before);
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A [`FaultFs`] that can be made to park inside a file's `append`
    /// (while `armed`), inside the `create` of a table file (while
    /// `create_armed`) or inside `rename` — the manifest's commit point —
    /// (while `rename_armed`): the call announces itself to `wait_parked`
    /// and then waits for `release`.  `rename_fails` fails the next rename,
    /// and `create_panics` panics the next table `create`.
    struct GateFs {
        inner: FaultFs,
        gate: Arc<Gate>,
    }

    struct Gate {
        armed: AtomicBool,
        create_armed: AtomicBool,
        create_panics: AtomicBool,
        rename_armed: AtomicBool,
        rename_fails: AtomicBool,
        entered: mpsc::Sender<()>,
        parked: Mutex<mpsc::Receiver<()>>,
        release: mpsc::Sender<()>,
        released: Mutex<mpsc::Receiver<()>>,
    }

    impl Gate {
        fn park_if(&self, armed: &AtomicBool) {
            if armed.load(Ordering::SeqCst) {
                self.entered.send(()).unwrap();
                self.released.lock().unwrap().recv().unwrap();
            }
        }

        /// Returns once a call is parked in the gate.
        fn wait_parked(&self) {
            self.parked.lock().unwrap().recv().unwrap();
        }

        /// Disarms the gate and lets the parked call go.
        fn release(&self) {
            self.armed.store(false, Ordering::SeqCst);
            self.create_armed.store(false, Ordering::SeqCst);
            self.rename_armed.store(false, Ordering::SeqCst);
            self.release.send(()).unwrap();
        }
    }

    /// A gated filesystem with nothing armed, and a handle on the
    /// [`FaultFs`] under it.
    fn gate_fs() -> (GateFs, FaultFs, Arc<Gate>) {
        let (entered, parked) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let gate = Arc::new(Gate {
            armed: AtomicBool::new(false),
            create_armed: AtomicBool::new(false),
            create_panics: AtomicBool::new(false),
            rename_armed: AtomicBool::new(false),
            rename_fails: AtomicBool::new(false),
            entered,
            parked: Mutex::new(parked),
            release,
            released: Mutex::new(released),
        });
        let inner = FaultFs::new();
        let storage = GateFs {
            inner: inner.clone(),
            gate: Arc::clone(&gate),
        };
        (storage, inner, gate)
    }

    struct GateFile {
        inner: Box<dyn StorageFile>,
        gate: Arc<Gate>,
    }

    impl GateFs {
        fn gated(&self, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
            Box::new(GateFile {
                inner,
                gate: Arc::clone(&self.gate),
            })
        }
    }

    impl Storage for GateFs {
        fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            if path.extension().is_some_and(|ext| ext == "sst") {
                self.gate.park_if(&self.gate.create_armed);
                if self.gate.create_panics.swap(false, Ordering::SeqCst) {
                    panic!("GateFs: injected panic in a table create");
                }
            }
            Ok(self.gated(self.inner.create(path)?))
        }
        fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
            Ok(self.gated(self.inner.open_append(path, valid_len)?))
        }
        fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            self.inner.open_read(path)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.gate.park_if(&self.gate.rename_armed);
            if self.gate.rename_fails.swap(false, Ordering::SeqCst) {
                return Err(io::Error::other("GateFs: injected rename failure"));
            }
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.remove(path)
        }
        fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.inner.read_dir(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.inner.sync_dir(dir)
        }
    }

    impl StorageFile for GateFile {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.gate.park_if(&self.gate.armed);
            self.inner.append(data)
        }
        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            self.inner.read_at(buf, offset)
        }
        fn sync_data(&self) -> io::Result<()> {
            self.inner.sync_data()
        }
        fn sync_all(&self) -> io::Result<()> {
            self.inner.sync_all()
        }
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
    }

    /// What the server's `Stats` handler asks for rides along: the
    /// request that should explain a stall must not wait for it to end.
    #[test]
    fn read_only_batch_and_health_probes_do_not_queue_behind_a_writer() {
        let (storage, _, gate) = gate_fs();
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(storage), "/db", LsmConfig::small()).unwrap();
        for key in 0..8u64 {
            engine.insert(key, key * 3);
        }

        gate.armed.store(true, Ordering::SeqCst);
        let engine = &engine;
        std::thread::scope(|scope| {
            scope.spawn(|| engine.insert(100, 1));
            // The writer now holds the writer mutex, parked in its WAL append.
            gate.wait_parked();
            let (done, batch_done) = mpsc::channel();
            let (probed, probes_done) = mpsc::channel();
            scope.spawn(move || {
                let mut reads: Vec<Op<u64, u64>> = (0..8).map(Op::get).collect();
                engine.execute(&mut reads);
                done.send(reads).unwrap();
                let live_keys = engine.stats().get("live_keys");
                probed
                    .send((engine.len(), live_keys, engine.degraded()))
                    .unwrap();
            });
            let reads = batch_done.recv_timeout(Duration::from_secs(5));
            let probes = probes_done.recv_timeout(Duration::from_secs(5));
            // Let the writer go whatever happened, so the scope can join.
            gate.release();
            let reads = reads.expect("a batch of gets must not wait for the writer mutex");
            for (key, op) in reads.iter().enumerate() {
                assert_eq!(op.result().value(), Some(key as u64 * 3));
            }
            // The parked insert is not applied yet.
            assert_eq!(
                probes.expect("len, stats and degraded must not wait for the writer mutex"),
                (8, Some(8), false)
            );
        });
        assert_eq!(engine.get(&100), Some(1));
    }

    // ---- The level set's one commit path ----

    /// `rounds` flushed level-0 tables of 100 overlapping keys each, then a
    /// sealed memtable of 100 more waiting for its flush.
    fn flushed_rounds(engine: &LsmEngine<u64, u64>, rounds: u64) {
        for round in 0..=rounds {
            for i in 0..100u64 {
                engine.insert(i * 3 + round, round << 16 | i);
            }
            engine.rotate().unwrap();
            if round < rounds {
                engine.flush().unwrap();
            }
        }
    }

    #[test]
    fn readers_do_not_wait_for_a_manifest_commit() {
        let (storage, _, gate) = gate_fs();
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(storage), "/db", manual_config()).unwrap();
        flushed_rounds(&engine, 2);
        let engine = &engine;
        // Runs `job` until its manifest commit parks in the rename, reads
        // the engine four ways from another thread, and lets the job go.
        let read_during = |job: &(dyn Fn() + Sync)| {
            gate.rename_armed.store(true, Ordering::SeqCst);
            std::thread::scope(|scope| {
                scope.spawn(job);
                gate.wait_parked();
                let (done, reads_done) = mpsc::channel();
                scope.spawn(move || {
                    let got = engine.get(&3);
                    let mut batch = vec![Op::<u64, u64>::get(3), Op::get(4)];
                    engine.execute(&mut batch);
                    let page = engine.scan(..).take(10).count();
                    let stats = engine.stats();
                    done.send((got, batch[1].result().value(), page, stats))
                        .unwrap();
                });
                let reads = reads_done.recv_timeout(Duration::from_secs(3));
                // Let the job go whatever happened, so the scope can join.
                gate.release();
                reads.expect("reads must not wait for a manifest commit")
            })
        };

        let (got, batched, page, stats) = read_during(&|| assert_eq!(engine.flush().unwrap(), 1));
        assert_eq!((got, batched, page), (Some(1), Some(1 << 16 | 1), 10));
        // The level set is not swapped before its manifest is committed.
        assert_eq!(stats.get("immutable_memtables"), Some(1), "{stats}");
        assert_eq!(stats.get("tables_l0"), Some(2), "{stats}");
        assert_eq!(engine.tables_per_level(), [3]);

        let (got, batched, page, stats) = read_during(&|| assert_eq!(engine.compact().unwrap(), 1));
        assert_eq!((got, batched, page), (Some(1), Some(1 << 16 | 1), 10));
        assert_eq!(stats.get("tables_l0"), Some(3), "{stats}");
        assert_eq!(engine.tables_per_level()[0], 0);
        assert_eq!(engine.get(&3), Some(1));
    }

    /// Every file name in the engine directory, sorted.
    fn dir_listing(fs: &FaultFs) -> Vec<String> {
        let mut names = fs.read_dir(Path::new("/db")).unwrap();
        names.sort();
        names
    }

    #[test]
    fn a_scan_outlives_the_version_it_opened_on() {
        scan_across_maintenance(Arc::new(FaultFs::new()), Path::new("/db"));
    }

    /// The same over real files: the tables the parked scan pinned are
    /// unlinked while it still reads them.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_parked_scan_reads_real_tables_a_compaction_unlinked() {
        let dir = temp_dir("parked-scan");
        scan_across_maintenance(Arc::new(StdFs), &dir);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Parks a scan, lets rotation, flush and a compaction replace and
    /// unlink what it pinned, then drains it against the oracle.
    fn scan_across_maintenance(storage: Arc<dyn Storage>, dir: &Path) {
        let listing = || {
            let mut names = storage.read_dir(dir).unwrap();
            names.sort();
            names
        };
        let engine = LsmEngine::open_with(Arc::clone(&storage), dir, manual_config()).unwrap();
        // Two level-0 tables and a sealed memtable, their keys interleaved.
        flushed_rounds(&engine, 2);
        let oracle: BTreeMap<u64, u64> = engine.scan(..).collect();
        let pinned: Vec<PathBuf> = engine.core.read_state().levels[0]
            .iter()
            .map(|table| table.path().to_path_buf())
            .collect();
        assert_eq!(pinned.len(), 2);
        let unlinked = || {
            let listing = listing();
            let listed = |path: &PathBuf| listing.iter().any(|name| path.ends_with(name));
            !pinned.iter().any(listed)
        };

        let mut cursor = engine.scan(..);
        let mut scanned: Vec<(u64, u64)> = cursor.by_ref().take(10).collect();
        // Deletes on both sides of the cursor, keys above everything, then
        // rotation, flush and a compaction of the tables the cursor reads.
        let removed = |key: &u64| key.is_multiple_of(7);
        for key in oracle.keys().filter(|key| removed(key)) {
            engine.remove(key);
        }
        let fresh = 1_000..1_100u64;
        for key in fresh.clone() {
            engine.insert(key, key);
        }
        let maintenance = || {
            let stats = engine.stats();
            ["memtable_rotations", "sst_flushes", "compactions"].map(|name| stats.get(name))
        };
        let before = maintenance();
        engine.maintain().unwrap();
        let after = maintenance();
        assert!(
            before.iter().zip(&after).all(|(b, a)| a > b),
            "{before:?} {after:?}"
        );
        assert!(unlinked(), "{:?}", listing());

        // The cursor drains its own version, unlinked tables included.
        scanned.extend(cursor.by_ref());
        assert!(scanned.windows(2).all(|pair| pair[0].0 < pair[1].0));
        let got: BTreeMap<u64, u64> = scanned.iter().copied().collect();
        for (key, value) in oracle.iter().filter(|(key, _)| !removed(key)) {
            assert_eq!(
                got.get(key),
                Some(value),
                "key {key} was present throughout"
            );
        }
        for (key, value) in &got {
            assert!(oracle.get(key) == Some(value) || (fresh.contains(key) && key == value));
        }
        assert_eq!(engine.io_errors(), 0);

        drop(cursor);
        let mut expected = oracle;
        expected.retain(|key, _| !removed(key));
        expected.extend(fresh.map(|key| (key, key)));
        let now: Vec<(u64, u64)> = engine.scan(..).collect();
        assert_eq!(now, expected.into_iter().collect::<Vec<_>>());
        assert!(unlinked(), "{:?}", listing());
    }

    /// What a failed commit must leave as it was.
    #[derive(Debug, PartialEq)]
    struct Observed {
        tables: Vec<usize>,
        sealed: Option<u64>,
        names: Vec<String>,
        contents: Vec<(u64, u64)>,
    }

    fn observe(engine: &LsmEngine<u64, u64>, fs: &FaultFs) -> Observed {
        let contents: Vec<(u64, u64)> = engine.scan(..).collect();
        for (key, value) in &contents {
            assert_eq!(engine.get(key), Some(*value));
        }
        Observed {
            tables: engine.tables_per_level(),
            sealed: engine.stats().get("immutable_memtables"),
            names: dir_listing(fs),
            contents,
        }
    }

    #[test]
    fn a_failed_manifest_commit_leaves_nothing_behind() {
        for (compaction, failing_rename, reopen) in [
            (false, false, false),
            (false, true, false),
            (true, false, false),
            (true, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            let case = format!("compaction {compaction}, rename {failing_rename}, reopen {reopen}");
            let job = |engine: &LsmEngine<u64, u64>| match compaction {
                true => engine.compact(),
                false => engine.flush(),
            };
            let rounds = if compaction { 3 } else { 1 };
            // The unfaulted run: what the job writes, and how many syncs in.
            let clean = FaultFs::new();
            let reference = open_manual(&clean);
            flushed_rounds(&reference, rounds);
            let syncs_before = clean.sync_count();
            assert_eq!(job(&reference).unwrap(), 1, "{case}");
            // A commit's last two syncs: the manifest's own, the directory's.
            let manifest_sync = clean.sync_count() - syncs_before - 1;

            let (storage, fs, gate) = gate_fs();
            let storage: Arc<dyn Storage> = Arc::new(storage);
            let engine: LsmEngine<u64, u64> =
                LsmEngine::open_with(Arc::clone(&storage), "/db", manual_config()).unwrap();
            flushed_rounds(&engine, rounds);
            let before = observe(&engine, &fs);
            if failing_rename {
                gate.rename_fails.store(true, Ordering::SeqCst);
            } else {
                fs.fail_nth_sync(manifest_sync, io::ErrorKind::Other);
            }
            job(&engine).expect_err(&case);
            assert_eq!(engine.io_errors(), 1, "{case}");
            // All a failed commit leaves is the temporary that recovery
            // deletes: no table, no sealed memtable lost, no value changed.
            let mut after = observe(&engine, &fs);
            assert!(after.names.contains(&"MANIFEST.tmp".to_string()), "{case}");
            after.names.retain(|name| name != "MANIFEST.tmp");
            assert_eq!(after, before, "{case}");

            if reopen {
                drop(engine);
                let engine: LsmEngine<u64, u64> =
                    LsmEngine::open_with(storage, "/db", manual_config()).unwrap();
                // Recovery replays the sealed memtable's WAL into the live one.
                let sealed = Some(0);
                assert_eq!(observe(&engine, &fs), Observed { sealed, ..before });
            } else {
                // The ids went back too: the retry writes the files the
                // unfaulted run wrote, byte for byte.
                assert_eq!(job(&engine).unwrap(), 1, "{case}");
                assert_eq!(engine.tables_per_level(), reference.tables_per_level());
                let db = Path::new("/db");
                assert_eq!(table_files(&fs, db), table_files(&clean, db), "{case}");
                assert_eq!(observe(&engine, &fs).contents, before.contents, "{case}");
            }
        }
    }

    #[test]
    fn flushing_an_empty_sealed_memtable_writes_nothing() {
        let fs = FaultFs::new();
        let engine = open_manual(&fs);
        // `rotate()` never seals an empty memtable; the step under it does.
        engine
            .core
            .rotate_locked(&mut engine.core.write_lock())
            .unwrap();
        assert_eq!(engine.stats().get("immutable_memtables"), Some(1));
        let (writes, syncs) = (fs.write_count(), fs.sync_count());
        assert_eq!(engine.flush().unwrap(), 1);
        assert_eq!((fs.write_count(), fs.sync_count()), (writes, syncs));
        assert_eq!(engine.stats().get("immutable_memtables"), Some(0));
        assert_eq!(engine.stats().get("sst_flushes"), Some(0));
        assert!(!dir_listing(&fs)
            .iter()
            .any(|name| name.contains("MANIFEST")));
    }

    // ---- Table geometry: the default block size and staged appends ----

    /// Pumped by hand, never rotating by size, tables of ~16 KiB on two
    /// deeper levels, each written with `table`.
    fn geometry_config(table: TableOptions) -> LsmConfig {
        LsmConfig {
            memtable_bytes: 64 << 20,
            auto_maintain: false,
            l0_compaction_trigger: 3,
            level_base_bytes: 48 << 10,
            level_multiplier: 4,
            table_target_bytes: 16 << 10,
            table,
            ..LsmConfig::default()
        }
    }

    /// Every key of `oracle` through `get`, and a full scan against it.
    fn check_oracle(engine: &LsmEngine<u64, u64>, oracle: &BTreeMap<u64, u64>) {
        for (key, value) in oracle {
            assert_eq!(engine.get(key), Some(*value), "key {key}");
        }
        let scanned: Vec<(u64, u64)> = engine.scan(..).collect();
        let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(scanned, expected);
        assert_eq!(engine.io_errors(), 0);
    }

    /// Data blocks per file byte over `tables`.
    fn blocks_per_byte<'a>(tables: impl IntoIterator<Item = &'a Arc<Table<u64, u64>>>) -> f64 {
        let (blocks, bytes) = tables.into_iter().fold((0, 0), |(blocks, bytes), table| {
            (blocks + table.blocks() as u64, bytes + table.bytes)
        });
        blocks as f64 / bytes as f64
    }

    #[test]
    fn a_directory_written_at_4_kib_blocks_reads_and_compacts_under_the_default() {
        let fs = FaultFs::new();
        let open = |table| -> LsmEngine<u64, u64> {
            LsmEngine::open_with(Arc::new(fs.clone()), "/db", geometry_config(table)).unwrap()
        };
        // 12 000 scattered keys of a 16 Ki key space, settled at 4 KiB.
        let four_kib = TableOptions {
            block_bytes: 4096,
            ..TableOptions::default()
        };
        let engine = open(four_kib);
        let mut oracle = BTreeMap::new();
        for i in 0..12_000u64 {
            let key = (i * 40_503) & 0x3FFF;
            engine.insert(key, i);
            oracle.insert(key, i);
            if i % 3_000 == 2_999 {
                engine.rotate().unwrap();
                engine.flush().unwrap();
            }
        }
        engine.maintain().unwrap();
        let (old_ids, old_density): (HashSet<u64>, f64) = {
            let state = engine.core.read_state();
            let tables = || state.levels.iter().flatten();
            (
                tables().map(|table| table.id).collect(),
                blocks_per_byte(tables()),
            )
        };
        let levels = engine.tables_per_level();
        assert!(
            levels.len() == 3 && levels[1] > 1 && levels[2] > 1,
            "{levels:?}"
        );
        drop(engine);

        // Reopened at the default: the 4 KiB tables answer, and the
        // compactions that take them as inputs write 1 KiB blocks.
        let engine = open(TableOptions::default());
        check_oracle(&engine, &oracle);
        let (mut both_at_once, mut compacted) = (false, false);
        for step in 0..6u64 {
            for j in 0..2_000u64 {
                let key = ((j * 13 + step * 577) * 40_503) & 0x3FFF;
                if j % 4 == 0 {
                    engine.remove(&key);
                    oracle.remove(&key);
                } else {
                    engine.insert(key, step << 32 | j);
                    oracle.insert(key, step << 32 | j);
                }
            }
            engine.rotate().unwrap();
            engine.flush().unwrap();
            engine.compact().unwrap();
            check_oracle(&engine, &oracle);
            // Flushes and compactions write 1 KiB blocks beside the 4 KiB
            // tables still live; the ones compactions wrote hold ≥ 3× the
            // blocks per byte.
            let state = engine.core.read_state();
            let fresh = |table: &&Arc<Table<u64, u64>>| !old_ids.contains(&table.id);
            let outputs: Vec<_> = state
                .levels
                .iter()
                .skip(1)
                .flatten()
                .filter(fresh)
                .collect();
            if !outputs.is_empty() {
                let density = blocks_per_byte(outputs);
                assert!(density >= 3.0 * old_density, "{density} vs {old_density}");
                compacted = true;
            }
            let written = state.levels.iter().flatten().filter(fresh).count();
            let tables = state.levels.iter().map(Vec::len).sum::<usize>();
            both_at_once |= written > 0 && written < tables;
        }
        assert!(both_at_once && compacted);
        let state = engine.core.read_state();
        let live: HashSet<u64> = state.levels.iter().flatten().map(|t| t.id).collect();
        assert!(
            old_ids.iter().any(|id| !live.contains(id)),
            "no 4 KiB input"
        );
        drop(state);
        drop(engine);
        check_oracle(&open(TableOptions::default()), &oracle);
    }

    #[test]
    fn a_flush_that_fails_a_staged_append_leaves_no_table_behind() {
        // The flush writes over 192 KiB of data blocks, so its first two
        // appends are staged ones, each made from inside an `add`.
        for nth in 1..=2 {
            let fs = FaultFs::new();
            let config = geometry_config(TableOptions::default());
            let engine: LsmEngine<u64, u64> =
                LsmEngine::open_with(Arc::new(fs.clone()), "/db", config).unwrap();
            for key in 0..20_000u64 {
                engine.insert(key * 5, key);
            }
            engine.rotate().unwrap();
            let before = observe(&engine, &fs);
            assert_eq!(before.sealed, Some(1));
            fs.fail_nth_write(nth, io::ErrorKind::StorageFull);
            let error = engine
                .flush()
                .expect_err("the flush meets the failed append");
            assert_eq!(error.kind(), io::ErrorKind::StorageFull, "append {nth}");
            // The memtable stays sealed, and no table file is left.
            assert_eq!(observe(&engine, &fs), before, "append {nth}");
            assert!(!before.names.iter().any(|name| name.ends_with(".sst")));
            // The next pump writes the table.
            assert_eq!(engine.flush().unwrap(), 1);
            assert_eq!(engine.tables_per_level(), [1]);
            let data = engine.core.read_state().levels[0][0].bytes;
            assert!(data > 3 * (64 << 10), "{data} bytes");
            assert_eq!(observe(&engine, &fs).contents, before.contents);
        }
    }

    // ---- The memtables' key filters ----

    /// An in-memory engine pumped by hand, its memtable big enough that
    /// nothing here rotates it unasked, holding generation 0 of keys
    /// `0..keys` — value `key` — in tables and nothing in a memtable.
    fn table_held(fs: &FaultFs, keys: u64) -> LsmEngine<u64, u64> {
        let config = LsmConfig {
            memtable_bytes: 1 << 20,
            auto_maintain: false,
            ..LsmConfig::small()
        };
        let engine = LsmEngine::open_with(Arc::new(fs.clone()), "/db", config).unwrap();
        for key in 0..keys {
            engine.insert(key, key);
        }
        engine.maintain().unwrap();
        assert!(engine.core.read_state().memtable.is_empty());
        assert!(!engine.tables_per_level().is_empty());
        engine
    }

    #[test]
    fn every_write_path_publishes_into_the_memtable_filter() {
        const KEYS: u64 = 200;
        let fs = FaultFs::new();
        let engine = table_held(&fs, KEYS);
        // Keys below 50: point puts; 50..100: point removes; 100..150 a
        // batch's puts and 150..200 its removes.  A write path that left a
        // key out of its memtable's filter would let the table's
        // generation-0 value through.
        let expected = |key: u64| match key {
            0..50 => Some(1_000 + key),
            100..150 => Some(2_000 + key),
            _ => None,
        };
        let check = |engine: &LsmEngine<u64, u64>, path: &str| {
            for key in 0..KEYS {
                assert_eq!(engine.get(&key), expected(key), "{path}: key {key}");
            }
        };
        for key in 0..50 {
            assert_eq!(engine.insert(key, 1_000 + key), Some(key));
        }
        for key in 50..100 {
            assert_eq!(engine.remove(&key), Some(key));
        }
        let mut batch: Vec<Op<u64, u64>> = (100..150)
            .map(|key| Op::insert(key, 2_000 + key))
            .chain((150..KEYS).map(Op::remove))
            .collect();
        engine.execute(&mut batch);
        check(&engine, "the mutable memtable");
        engine.rotate().unwrap();
        assert_eq!(engine.stats().get("immutable_memtables"), Some(1));
        check(&engine, "an immutable memtable");
        drop(engine);
        // Reopened under a 4 KiB budget: the replay overfills the
        // memtable's filter, which must still admit every key it holds.
        let engine = LsmEngine::open_with(Arc::new(fs.clone()), "/db", manual_config()).unwrap();
        assert!(
            !engine.core.read_state().memtable.is_empty(),
            "the WAL replayed"
        );
        check(&engine, "WAL replay");
    }

    #[test]
    fn table_answered_gets_never_enter_the_memtable_list() {
        const KEYS: u64 = 400;
        let fs = FaultFs::new();
        let engine = table_held(&fs, KEYS);
        for key in KEYS..KEYS + 50 {
            engine.insert(key, key);
        }
        // `ebr_pins` counts the mutable memtable's epoch pins, one per
        // list read.
        let pins = || engine.stats().get("ebr_pins").unwrap();
        let before = pins();
        for key in 0..KEYS {
            assert_eq!(engine.get(&key), Some(key));
        }
        for key in 10 * KEYS..11 * KEYS {
            assert_eq!(engine.get(&key), None);
        }
        assert_eq!(pins(), before, "gets of keys the memtable does not hold");
        for key in KEYS..KEYS + 50 {
            assert_eq!(engine.get(&key), Some(key));
        }
        assert_eq!(pins(), before + 50, "gets of keys the memtable holds");
    }

    #[test]
    fn the_filter_fill_gauge_reads_the_mutable_memtable() {
        let fs = FaultFs::new();
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(fs), "/db", manual_config()).unwrap();
        let fill = || engine.stats().get("memtable_filter_fill_ppm").unwrap();
        assert_eq!(fill(), 0, "a fresh engine");
        engine.insert(1, 10);
        let one = fill();
        assert!(one > 0, "one put");
        for key in 2..60 {
            engine.insert(key, key);
        }
        assert!(fill() > one && fill() <= 1_000_000, "{}", fill());
        engine.rotate().unwrap();
        assert_eq!(fill(), 0, "the fresh memtable after a rotation");
    }

    // One writer moves table-held keys through generations — each put to
    // a fresh memtable sets its filter bits first — while memtables
    // rotate, flush and compact under it; a reader that ever read a key's
    // newer generation must never read an older one.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn readers_never_see_a_key_go_back_a_generation() {
        const KEYS: u64 = 256;
        const GENERATIONS: u64 = 24;
        let dir = temp_dir("generations");
        let engine = open_small(&dir);
        for key in 0..KEYS {
            engine.insert(key, key);
        }
        engine.maintain().unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (engine, stop) = (&engine, &stop);
            scope.spawn(move || {
                for generation in 1..=GENERATIONS {
                    for key in 0..KEYS {
                        engine.insert(key, generation * KEYS + key);
                    }
                }
                stop.store(true, Ordering::Release);
            });
            for reader in 0..2u64 {
                scope.spawn(move || {
                    let mut seen = [0u64; KEYS as usize];
                    let mut step = reader;
                    while !stop.load(Ordering::Acquire) {
                        let key = step * 97 % KEYS;
                        step += 1;
                        let value = engine.get(&key).expect("no key is ever removed");
                        assert_eq!(value % KEYS, key, "read another key's value");
                        let generation = value / KEYS;
                        assert!(
                            generation >= seen[key as usize],
                            "key {key} went back from generation {} to {generation}",
                            seen[key as usize]
                        );
                        seen[key as usize] = generation;
                    }
                });
            }
        });
        let stats = engine.stats();
        assert!(stats.get("memtable_rotations").unwrap() > 10, "{stats}");
        assert!(stats.get("compactions").unwrap() > 0, "{stats}");
        drop(engine);
        fs::remove_dir_all(&dir).unwrap();
    }

    // ---- The maintenance worker ----

    #[test]
    fn the_engine_is_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<LsmEngine<u64, u64>>();
    }

    /// A fixed stream of `ops` calls over a 4 Ki key space: point puts,
    /// point removes (one call in seven) and 8-op batches of puts and
    /// removes (one call in seven).
    fn mixed_stream(engine: &LsmEngine<u64, u64>, ops: u64) {
        for i in 0..ops {
            let key = i.wrapping_mul(0x9E37_79B9) % 4_096;
            match i % 7 {
                3 => {
                    engine.remove(&key);
                }
                6 => {
                    let mut batch: Vec<Op<u64, u64>> = (0..8u64)
                        .map(|j| match (key + j * 131) % 4_096 {
                            other if j % 4 == 3 => Op::remove(other),
                            other => Op::insert(other, i << 8 | j),
                        })
                        .collect();
                    engine.execute(&mut batch);
                }
                _ => {
                    engine.insert(key, i);
                }
            }
        }
    }

    /// Every job starts from the state an inline pump at the same rotation
    /// started from, so the worker leaves the same tables behind.
    #[test]
    fn auto_maintenance_writes_the_inline_tables() {
        // Rotations, flushes and compactions, then the name, length and
        // whole-file CRC of every table, captured from the engine as it
        // stood when each rotation flushed and compacted inline on the
        // writer thread; one row per memtable budget in KiB.
        type Golden = (u64, [u64; 3], &'static [(&'static str, usize, u32)]);
        let golden: [Golden; 3] = [
            (
                1,
                [429, 429, 160],
                &[
                    ("tab-00000751.sst", 0x239B, 0x8452_C70A),
                    ("tab-00000752.sst", 0x239A, 0xB457_F492),
                    ("tab-00000753.sst", 0x239B, 0xDF58_3E23),
                    ("tab-00000754.sst", 0x239C, 0x42C0_DAB6),
                    ("tab-00000755.sst", 0x239A, 0xD78E_5098),
                    ("tab-00000756.sst", 0x138A, 0x1C77_FA15),
                    ("tab-00000761.sst", 0x00F3, 0xD390_21C4),
                    ("tab-00000775.sst", 0x23E2, 0x7113_C3B6),
                    ("tab-00000776.sst", 0x0CF1, 0x6C67_3D2B),
                ],
            ),
            (
                4,
                [108, 108, 53],
                &[
                    ("tab-00000266.sst", 0x1F76, 0xCD98_E4A5),
                    ("tab-00000267.sst", 0x239A, 0x8D84_8583),
                    ("tab-00000268.sst", 0x239B, 0xCE0F_7F3B),
                    ("tab-00000269.sst", 0x239A, 0xAEA8_71CB),
                    ("tab-00000270.sst", 0x239B, 0xC24A_D632),
                    ("tab-00000271.sst", 0x239A, 0x3CCA_4773),
                    ("tab-00000272.sst", 0x114C, 0xB1F1_E4D3),
                ],
            ),
            (
                16,
                [28, 28, 24],
                &[
                    ("tab-00000090.sst", 0x239B, 0xD41A_E283),
                    ("tab-00000091.sst", 0x239B, 0x5D9F_EF98),
                    ("tab-00000092.sst", 0x1289, 0xBE9C_7A22),
                    ("tab-00000097.sst", 0x23FA, 0x6FCA_D8A2),
                    ("tab-00000098.sst", 0x1B81, 0x4CBE_E77F),
                    ("tab-00000099.sst", 0x239B, 0x8452_C70A),
                    ("tab-00000100.sst", 0x239A, 0x9DFF_159D),
                    ("tab-00000101.sst", 0x239A, 0x9C03_DCC6),
                    ("tab-00000102.sst", 0x119B, 0xCF92_B586),
                ],
            ),
        ];
        for (budget, counters, files) in golden {
            let fs = FaultFs::new();
            let config = LsmConfig {
                memtable_bytes: budget << 10,
                ..LsmConfig::small()
            };
            let engine: LsmEngine<u64, u64> =
                LsmEngine::open_with(Arc::new(fs.clone()), "/db", config).unwrap();
            mixed_stream(&engine, 6_000);
            engine.maintain().unwrap();
            let stats = engine.stats();
            let ran = ["memtable_rotations", "sst_flushes", "compactions"]
                .map(|name| stats.get(name).unwrap());
            assert_eq!(ran, counters, "{budget} KiB");
            assert!(stats.get("maint_jobs").unwrap() > 0, "{budget} KiB");
            let written = table_files(&fs, Path::new("/db"));
            let written: Vec<_> = written
                .iter()
                .map(|(name, len, crc)| (name.as_str(), *len, *crc))
                .collect();
            assert_eq!(written, files, "{budget} KiB");
        }
    }

    #[test]
    fn the_worker_counters_read_zero_without_a_worker() {
        for auto_maintain in [false, true] {
            let config = LsmConfig {
                auto_maintain,
                ..LsmConfig::small()
            };
            let engine: LsmEngine<u64, u64> =
                LsmEngine::open_with(Arc::new(FaultFs::new()), "/db", config).unwrap();
            for key in 0..2_000u64 {
                engine.insert(key, key);
            }
            engine.maintain().unwrap();
            let stats = engine.stats();
            assert!(stats.get("memtable_rotations").unwrap() > 5, "{stats}");
            let (jobs, stalled) = (stats.get("maint_jobs"), stats.get("writer_stall_us"));
            if auto_maintain {
                assert!(jobs.unwrap() > 0, "{stats}");
            } else {
                assert_eq!((jobs, stalled), (Some(0), Some(0)), "{stats}");
            }
            assert_eq!(stats.get("maint_panics"), Some(0), "{stats}");
        }
    }

    #[test]
    fn a_rotation_hands_its_job_to_the_worker_and_the_next_one_waits() {
        let (storage, fs, gate) = gate_fs();
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(storage), "/db", LsmConfig::small()).unwrap();
        let stat = |name: &str| engine.stats().get(name).unwrap();
        // The first rotation's job parks in its table's `create`, holding
        // the maintenance mutex.
        gate.create_armed.store(true, Ordering::SeqCst);
        let mut sealed = 0u64;
        while stat("memtable_rotations") == 0 {
            engine.insert(sealed, sealed);
            sealed += 1;
        }
        gate.wait_parked();

        let (served, stalled, resumed) = std::thread::scope(|scope| {
            let engine = &engine;
            let (done, answered) = mpsc::channel();
            scope.spawn(move || {
                // Puts into the fresh memtable are acknowledged, and gets
                // and scans answered, the sealed memtable's keys included.
                for key in 10_000..10_020u64 {
                    engine.try_insert(key, key).unwrap();
                }
                let answers = (
                    engine.get(&10_007),
                    engine.get(&(sealed - 1)),
                    engine.scan(..).count(),
                );
                done.send(answers).unwrap();
            });
            let served = answered.recv_timeout(Duration::from_secs(5));
            // The next rotation waits for the parked job.
            let (rotated, rotation_done) = mpsc::channel();
            scope.spawn(move || {
                let mut key = 20_000u64;
                while engine.stats().get("memtable_rotations") == Some(1) {
                    engine.insert(key, key);
                    key += 1;
                }
                rotated.send(()).unwrap();
            });
            // Once the fresh memtable is over its budget, the insert that
            // filled it is in its rotation, waiting.
            let budget = LsmConfig::small().memtable_bytes;
            let deadline = Instant::now() + Duration::from_secs(5);
            while engine.stats().get("memtable_bytes") < Some(budget) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let stalled = rotation_done.recv_timeout(Duration::from_millis(100));
            // Let the job go whatever happened, so the scope can join.
            gate.release();
            let resumed = rotation_done.recv_timeout(Duration::from_secs(5));
            (served, stalled, resumed)
        });
        let answers = served.expect("puts, gets and scans must not wait for a flush");
        assert_eq!(
            answers,
            (Some(10_007), Some(sealed - 1), sealed as usize + 20)
        );
        assert!(
            stalled.is_err(),
            "a rotation must wait for the job before it"
        );
        resumed.expect("the rotation goes on once the job ends");
        assert_eq!(stat("memtable_rotations"), 2);
        // It waited from its insert to the release, 100 ms after.
        assert!(stat("writer_stall_us") >= 50_000, "{}", engine.stats());

        // Once the second job is done, a third parks; dropping the engine
        // lets it finish and then stops the storage traffic.
        while stat("maint_jobs") < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.create_armed.store(true, Ordering::SeqCst);
        let mut key = 30_000u64;
        while stat("memtable_rotations") == 2 {
            engine.insert(key, key);
            key += 1;
        }
        gate.wait_parked();
        let live = engine.len();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                gate.release();
            });
            drop(engine);
        });
        let ops = fs.op_count();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fs.op_count(), ops, "storage traffic after the drop");
        // The job flushed the sealed memtable: its WAL segment is gone.
        let listing = dir_listing(&fs);
        let segments = listing.iter().filter(|name| name.ends_with(".log"));
        assert_eq!(segments.count(), 1, "{listing:?}");
        let reopened = open_manual(&fs);
        assert_eq!(reopened.scan(..).count(), live);
    }

    #[test]
    fn a_job_that_panics_leaves_no_rotation_waiting() {
        let (storage, _, gate) = gate_fs();
        let engine: Arc<LsmEngine<u64, u64>> =
            Arc::new(LsmEngine::open_with(Arc::new(storage), "/db", LsmConfig::small()).unwrap());
        gate.create_panics.store(true, Ordering::SeqCst);
        let (done, finished) = mpsc::channel();
        // Detached: a writer that waited forever must fail the test, not
        // hang it.
        std::thread::spawn({
            let engine = Arc::clone(&engine);
            move || {
                for key in 0..2_000u64 {
                    engine.insert(key, key);
                }
                done.send(()).unwrap();
            }
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a rotation waited for a job that panicked");
        engine.maintain().unwrap();
        let stats = engine.stats();
        assert!(
            !gate.create_panics.load(Ordering::SeqCst),
            "the panic fired"
        );
        assert!(stats.get("maint_jobs").unwrap() > 1, "{stats}");
        assert_eq!(stats.get("maint_panics"), Some(1), "{stats}");
        assert!(stats.get("sst_flushes").unwrap() > 0, "{stats}");
        assert_eq!(stats.get("immutable_memtables"), Some(0), "{stats}");
        for key in (0..2_000u64).step_by(7) {
            assert_eq!(engine.get(&key), Some(key));
        }
    }

    /// An explicit pump called while a handed-off job is still queued —
    /// not yet taken by the worker, so the maintenance mutex is free —
    /// waits for that job too, and runs after it as it would inline.
    #[test]
    fn an_explicit_call_waits_for_a_job_the_worker_has_not_taken() {
        let engine: LsmEngine<u64, u64> =
            LsmEngine::open_with(Arc::new(FaultFs::new()), "/db", LsmConfig::small()).unwrap();
        let stat = |name: &str| engine.stats().get(name).unwrap();
        // Two level-0 tables, pumped by hand: one short of the trigger.
        let mut key = 0u64;
        for _ in 0..2 {
            for _ in 0..10 {
                engine.insert(key, key);
                key += 1;
            }
            engine.rotate().unwrap();
            engine.flush().unwrap();
        }
        assert_eq!(engine.tables_per_level(), [2]);

        // The next rotation queues its job, and the worker may not take it.
        engine.core.job_lock().held = true;
        while stat("memtable_rotations") == 2 {
            engine.insert(key, key);
            key += 1;
        }
        assert!(engine.core.job_lock().queued, "the rotation handed off");
        for _ in 0..10 {
            engine.insert(key, key);
            key += 1;
        }
        let (waited, maintained) = std::thread::scope(|scope| {
            let pump = scope.spawn(|| engine.maintain());
            std::thread::sleep(Duration::from_millis(200));
            let waited = !pump.is_finished();
            engine.core.job_lock().held = false;
            engine.core.job_changed.notify_all();
            (waited, pump.join().unwrap())
        });
        maintained.unwrap();
        assert!(waited, "`maintain` ran while a job was queued");
        // Inline, the rotation's flush made the third level-0 table and its
        // compaction moved all three to level 1; `maintain` then sealed
        // and flushed the last ten keys alone.  Run first, it would have
        // flushed both memtables and compacted all four tables.
        assert_eq!(engine.tables_per_level()[0], 1, "{}", engine.stats());
        assert_eq!((stat("sst_flushes"), stat("compactions")), (4, 1));
        assert_eq!(stat("maint_jobs"), 1);
        assert_eq!(engine.scan(..).count(), key as usize);
    }
}
