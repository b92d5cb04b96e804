//! The LSM engine: WAL + memtables + leveled SSTables behind the
//! workspace's [`ConcurrentIndex`] interface.
//!
//! # Write path
//!
//! Every mutation is (1) appended to the write-ahead log as one framed
//! record — a whole [`ConcurrentIndex::execute`] batch becomes a *single*
//! record, the group-commit unit — and (2) applied to the mutable
//! memtable, a `BSkipList<K, Slot<V>>`.  Writes are acknowledged after the
//! WAL append returns, so an acknowledged write survives process death
//! (and, with [`SyncPolicy::Always`], power loss).  All mutations and all
//! maintenance serialize on one writer mutex; reads — point gets, scans
//! and batches made only of gets — never take it.
//!
//! # Rotation, flush, compaction
//!
//! When the memtable's ingested bytes cross
//! [`LsmConfig::memtable_bytes`], it is sealed (pushed onto the immutable
//! list, still serving reads) and a fresh memtable + WAL segment take
//! over.  A *flush* drains the oldest immutable memtable through its
//! cursor into a level-0 SSTable, commits the manifest, and only then
//! deletes the WAL segments the memtable covered.  *Compaction* merges
//! level 0 into level 1 once enough L0 tables pile up, and spills
//! oversized deeper levels downward, dropping shadowed versions always and
//! tombstones once nothing below could still hold the key.
//!
//! Both change the table layout one way (`write_tables`, `install`): the
//! outputs are written, the *next* level set is built aside and its
//! manifest committed under the writer mutex alone.  The layer set itself
//! is an immutable *version* — memtables and levels — behind an
//! `RwLock<Arc<_>>`: rotation and `install` build the next version aside
//! and swap the `Arc` (`commit_version`), so the exclusive state lock
//! covers a pointer swap and never I/O, and no read waits for an fsync.
//!
//! With [`LsmConfig::auto_maintain`] (the default) flush and compaction
//! run inline on the writer thread at rotation points — the LevelDB-style
//! write stall, deterministic and sanitizer-friendly (no background
//! thread).  With it off, callers pump [`LsmEngine::flush`] /
//! [`LsmEngine::compact`] explicitly.
//!
//! # Read path
//!
//! A lookup consults the layers of the current version newest-first —
//! mutable memtable, immutable memtables, L0 tables by recency, then one
//! candidate table per deeper level — under the state read guard, and
//! resolves at the first layer that mentions the key (a
//! [`Slot::Tombstone`] answer means *deleted*, not *keep looking*).
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
//! There is no shutdown path at all — dropping the engine flushes nothing,
//! so reopening *always* exercises recovery: orphan tables from an
//! uncommitted flush are deleted (their WAL segments still exist), the
//! manifest's tables are opened, and every WAL segment replays its valid
//! prefix into a fresh memtable.  A torn final frame is truncated and the
//! segment resumes appending.
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
//!
//! The three health indicators are exported through
//! [`ConcurrentIndex::stats`] as `io_errors`, `write_failures` and
//! `degraded`.

use std::collections::HashSet;
use std::io;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

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
use crate::memtable::Memtable;
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
    /// Run flush + compaction inline at rotation points (default).  Off:
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

/// Everything the serialized write path owns.
struct WriteState {
    wal: WalWriter,
    next_wal_id: u64,
    next_table_id: u64,
}

/// One layer set, immutable once shared: rotation, flush and compaction
/// build the next version aside and swap the engine's `Arc` to it
/// (`commit_version`), so a reader that cloned the `Arc` keeps every layer
/// it opened on for as long as it holds it.
#[derive(Clone)]
struct Version<K: IndexKey, V: IndexValue> {
    /// The memtable writes apply to.
    memtable: Arc<Memtable<K, V>>,
    /// Sealed memtables awaiting flush, newest first.
    immutables: Vec<Arc<Memtable<K, V>>>,
    /// `levels[0]` newest-first by table id (overlapping); `levels[n≥1]`
    /// sorted by `min_key` (non-overlapping within the level).
    levels: Vec<Vec<Arc<Table<K, V>>>>,
}

/// One merge source: a memtable's cursor, or a sorted run of tables.  An
/// enum, not a boxed [`Cursor`], so a merge allocates no box per source.
enum Source<'a, K: IndexKey, V: IndexValue> {
    Memtable(Cursor<'a, K, Slot<V>>),
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
struct Scan<'a, K: IndexKey, V: IndexValue> {
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
        let sources = LsmEngine::sources(memtables, &layers.levels, lo, hi, errors);
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
    /// The engine's event counters; the last two are the I/O-health pair
    /// behind the degraded-mode contract (see the module docs).
    struct Counters {
        wal_bytes: RelaxedCounter => Counter "wal_bytes",
        wal_records: RelaxedCounter => Counter "wal_records",
        rotations: RelaxedCounter => Counter "memtable_rotations",
        flushes: RelaxedCounter => Counter "sst_flushes",
        compactions: RelaxedCounter => Counter "compactions",
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
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    config: LsmConfig,
    write: Mutex<WriteState>,
    /// The current version.  Point reads look through the read guard;
    /// a scan clones the `Arc` and reads its version without the lock.
    state: RwLock<Arc<Version<K, V>>>,
    /// Exact number of live (non-deleted) keys across all layers;
    /// maintained from the previous-value of every mutation, so written
    /// only with the writer mutex held — and read without it: `len` and
    /// `stats` must answer while a flush or compaction holds that mutex.
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
    /// valid prefix is replayed into a fresh memtable.
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
        Self::sort_levels(&mut levels);
        let next_table_id = manifest.tables.iter().map(|t| t.id + 1).max().unwrap_or(0);

        // Replay every WAL segment, oldest first, into one fresh memtable;
        // later records overwrite earlier ones exactly as the original
        // applies did.
        let wal_ids = scan_wal_ids(storage.as_ref(), &dir)?;
        let memtable: Arc<Memtable<K, V>> = Arc::new(Memtable::new(if wal_ids.is_empty() {
            vec![0]
        } else {
            wal_ids.clone()
        }));
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

        let engine = LsmEngine {
            storage,
            dir,
            config,
            write: Mutex::new(WriteState {
                wal,
                next_wal_id,
                next_table_id,
            }),
            state: RwLock::new(Arc::new(Version {
                memtable,
                immutables: Vec::new(),
                levels,
            })),
            live_keys: AtomicU64::new(0),
            counters: Counters::default(),
            degraded: AtomicBool::new(false),
        };

        // Exact live-key count: one merged sweep over every layer.
        let live_keys = engine
            .scan_bounds(Bound::Unbounded, Bound::Unbounded)
            .count();
        engine.live_keys.store(live_keys as u64, Ordering::Relaxed);
        Ok(engine)
    }

    /// The engine's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Whether the engine is in sticky read-only mode after a foreground
    /// write failure.  Reads and scans keep working; mutations return
    /// errors (or are dropped on the infallible surface).  Cleared only
    /// by reopening the engine.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Read-path and maintenance I/O failures observed so far (including
    /// block checksum mismatches).
    pub fn io_errors(&self) -> u64 {
        self.counters.io_errors.get()
    }

    /// Foreground WAL append failures observed so far.
    pub fn write_failures(&self) -> u64 {
        self.counters.write_failures.get()
    }

    /// Number of tables at each level, `[l0, l1, …]`.
    pub fn tables_per_level(&self) -> Vec<usize> {
        self.read_state().levels.iter().map(Vec::len).collect()
    }

    // Lock acquisition recovers from poisoning: a panic elsewhere (e.g. a
    // caller's closure) must not cascade into panics on the read path of
    // an otherwise healthy — or deliberately degraded — engine.  The
    // guarded structures are kept consistent by commit-point discipline,
    // not by unwind-freedom, so the inner value is safe to use.

    fn write_lock(&self) -> MutexGuard<'_, WriteState> {
        self.write.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read_state(&self) -> RwLockReadGuard<'_, Arc<Version<K, V>>> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes a changed copy of the current version current.  Only the
    /// holder of the writer mutex (`_write`) swaps versions, so the version
    /// copied here is still current at the swap, and the exclusive state
    /// lock covers the pointer swap alone.  Readers that pinned the old
    /// version keep it; the last one to let go frees it.
    fn commit_version(&self, _write: &mut WriteState, change: impl FnOnce(&mut Version<K, V>)) {
        let mut next = Version::clone(&self.read_state());
        change(&mut next);
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
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
            .map(move |run| Source::Run(Table::run_cursor(run, lo, hi).counted(errors)));
        memtables
            .into_iter()
            .map(move |memtable| Source::Memtable(memtable.cursor(lo, hi)))
            .chain(runs)
    }

    /// Newest-first lookup across every layer; a tombstone answer settles
    /// the key as deleted.  `skip_memtable` serves the write path, which
    /// has already consulted the mutable memtable.
    fn lookup(
        &self,
        state: &Version<K, V>,
        key: &K,
        skip_memtable: bool,
    ) -> io::Result<Option<Slot<V>>> {
        if !skip_memtable {
            if let Some(slot) = state.memtable.get(key) {
                return Ok(Some(slot));
            }
        }
        for immutable in &state.immutables {
            if let Some(slot) = immutable.get(key) {
                return Ok(Some(slot));
            }
        }
        for (at, level) in state.levels.iter().enumerate() {
            if at == 0 {
                for table in level {
                    if table.may_contain(key) {
                        if let Some(slot) = self.table_get(table, key)? {
                            return Ok(Some(slot));
                        }
                    }
                }
            } else {
                // Non-overlapping: at most one candidate table.
                let candidate = level.partition_point(|table| table.max_key < *key);
                if let Some(table) = level.get(candidate) {
                    if table.may_contain(key) {
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
    /// why the callers hold the writer mutex across it.
    fn apply_slot(&self, state: &Version<K, V>, key: K, slot: Slot<V>) -> Option<V> {
        let previous = match state.memtable.apply(key, slot) {
            Some(slot) => Some(slot),
            // A table-read failure here loses only the previous-value
            // answer (already counted in io_errors); the mutation itself
            // is durable and applied.  live_keys may drift until the next
            // reopen recounts it.
            None => self.lookup(state, &key, true).unwrap_or(None),
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
    fn try_put_slot(&self, key: K, slot: Slot<V>) -> io::Result<Option<V>> {
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

    /// Fallible insert: the previous value, or the error that prevented
    /// the write from being made durable (which also degrades the
    /// engine).
    pub fn try_insert(&self, key: K, value: V) -> io::Result<Option<V>> {
        self.try_put_slot(key, Slot::Put(value))
    }

    /// Fallible remove; see [`LsmEngine::try_insert`].
    pub fn try_remove(&self, key: &K) -> io::Result<Option<V>> {
        self.try_put_slot(*key, Slot::Tombstone)
    }

    /// Fallible lookup: `Err` on a table read or checksum failure
    /// (counted in `io_errors`) instead of silently answering `None`.
    pub fn try_get(&self, key: &K) -> io::Result<Option<V>> {
        let state = self.read_state();
        Ok(self.lookup(&state, key, false)?.and_then(Slot::value))
    }

    /// The fallible group-commit lane behind [`ConcurrentIndex::execute`]:
    /// the batch's mutations become **one** WAL record (one `write(2)`,
    /// one `fdatasync` under [`SyncPolicy::Always`]), then the operations
    /// apply in slot order.
    ///
    /// On `Err` nothing was applied and every result slot is untouched.
    /// A read-only batch takes neither the writer mutex nor the WAL — it
    /// never queues behind writers, flushes or compactions — and is
    /// served even on a degraded engine.
    pub fn try_execute(&self, ops: &mut [Op<K, V>]) -> io::Result<()> {
        let get = |state: &Version<K, V>, key: &K| {
            self.lookup(state, key, false)
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
            Op::Insert { key, value, .. } | Op::Update { key, value, .. } => Some(WalOp::Put {
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
                    Op::Insert { key, value, result } | Op::Update { key, value, result } => {
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

    /// The one place a failed maintenance operation is counted: once in
    /// `io_errors`, whether it was retried (rotation points) or called
    /// directly (`rotate` / `flush` / `compact` / `maintain`).
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

    /// Seals the memtable if it has outgrown its budget, then (in
    /// auto-maintain mode) flushes and compacts inline.  Failures are
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
        if self
            .retry_maintenance(|| self.rotate_locked(write))
            .is_err()
        {
            return;
        }
        if self.config.auto_maintain {
            let _ = self.retry_maintenance(|| self.maintain_locked(write));
        }
    }

    fn rotate_locked(&self, write: &mut WriteState) -> io::Result<()> {
        let new_id = write.next_wal_id;
        let new_wal = WalWriter::create(
            self.storage.as_ref(),
            &wal_file(&self.dir, new_id),
            self.config.sync,
        )?;
        write.next_wal_id = new_id + 1;
        write.wal = new_wal;
        let fresh = Arc::new(Memtable::new(vec![new_id]));
        self.commit_version(write, |next| {
            let sealed = std::mem::replace(&mut next.memtable, fresh);
            next.immutables.insert(0, sealed);
        });
        self.counters.rotations.incr();
        Ok(())
    }

    fn maintain_locked(&self, write: &mut WriteState) -> io::Result<()> {
        while self.flush_locked(write)? {}
        while self.compact_locked(write)? {}
        Ok(())
    }

    /// Flushes the oldest immutable memtable into an L0 table.  Returns
    /// whether an immutable memtable was drained.  On error nothing in
    /// memory has changed and partial output files are removed; the
    /// memtable stays sealed and flushable.
    fn flush_locked(&self, write: &mut WriteState) -> io::Result<bool> {
        let Some(immutable) = self.read_state().immutables.last().cloned() else {
            return Ok(false);
        };
        // The oldest memtable, last in the newest-first list.
        let retire = |next: &mut Version<K, V>| {
            next.immutables.pop();
        };
        if immutable.is_empty() {
            self.commit_version(write, retire);
        } else {
            let entries = immutable.cursor(Bound::Unbounded, Bound::Unbounded);
            let outputs = self.write_tables(write, entries, u64::MAX, || Ok(()))?;
            // The table becomes visible in the version that retires the
            // memtable it replaces.
            self.install(write, &HashSet::new(), &outputs, 0, retire)?;
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
    fn compact_locked(&self, write: &mut WriteState) -> io::Result<bool> {
        let Some(plan) = self.plan_compaction() else {
            return Ok(false);
        };
        let read_errors = RelaxedCounter::new();
        let (lo, hi) = (Bound::Unbounded, Bound::Unbounded);
        let mut merge = MergeCursor::new(Self::sources([], &plan.inputs, lo, hi, &read_errors));
        let kept = std::iter::from_fn(|| merge.next())
            .filter(|(_, slot)| !(plan.drop_tombstones && slot.is_tombstone()));
        let outputs = self.write_tables(write, kept, self.config.table_target_bytes, || {
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
        self.install(write, &input_ids, &outputs, plan.output_level, |_| {})?;
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
        write: &mut WriteState,
        entries: impl Iterator<Item = (K, Slot<V>)>,
        split_bytes: u64,
        verify: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<Vec<Arc<Table<K, V>>>> {
        let first_id = write.next_table_id;
        let build = |write: &mut WriteState| -> io::Result<Vec<Arc<Table<K, V>>>> {
            let mut builder: Option<TableBuilder<K, V>> = None;
            let mut finished = Vec::new();
            for (key, slot) in entries {
                let active = match builder.as_mut() {
                    Some(active) => active,
                    None => {
                        let path = table_file(&self.dir, write.next_table_id);
                        write.next_table_id += 1;
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
        build(write).inspect_err(|_| self.discard_tables(write, first_id))
    }

    /// Undoes a maintenance job that will not commit: removes the table
    /// files it wrote — ids `first_id` and up — and gives the ids back.
    fn discard_tables(&self, write: &mut WriteState, first_id: u64) {
        for id in first_id..write.next_table_id {
            let _ = self.storage.remove(&table_file(&self.dir, id));
        }
        write.next_table_id = first_id;
    }

    /// The one commit path of the level set: builds the next `levels`
    /// aside — `inputs` out, `outputs` in at `level` — commits its manifest
    /// with no state lock held, and only then commits the version holding
    /// it, changed further by `retire`.  The writer mutex (`write`) is what
    /// keeps `levels` from changing in between; readers carry on over the
    /// old version until the swap, and scans opened on it after that.  A
    /// failed commit discards the outputs and swaps nothing.
    fn install(
        &self,
        write: &mut WriteState,
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
            self.discard_tables(write, write.next_table_id - outputs.len() as u64);
            return Err(error);
        }
        self.commit_version(write, |next| {
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

    /// Seals the current memtable unconditionally (if non-empty), making
    /// its contents flushable.
    pub fn rotate(&self) -> io::Result<()> {
        let mut write = self.write_lock();
        let non_empty = !self.read_state().memtable.is_empty();
        if non_empty {
            self.count_failure(self.rotate_locked(&mut write))?;
        }
        Ok(())
    }

    /// Flushes every sealed memtable to level-0 tables, oldest first.
    /// Returns the number of memtables drained.
    pub fn flush(&self) -> io::Result<usize> {
        let mut write = self.write_lock();
        let mut drained = 0;
        while self.count_failure(self.flush_locked(&mut write))? {
            drained += 1;
        }
        Ok(drained)
    }

    /// Runs compactions until no trigger fires.  Returns the number of
    /// compactions performed.
    pub fn compact(&self) -> io::Result<usize> {
        let mut write = self.write_lock();
        let mut ran = 0;
        while self.count_failure(self.compact_locked(&mut write))? {
            ran += 1;
        }
        Ok(ran)
    }

    /// Full maintenance pump: seal, flush everything, compact to
    /// quiescence.  What auto-maintain mode does at rotation points, made
    /// explicit.
    pub fn maintain(&self) -> io::Result<()> {
        self.rotate()?;
        let mut write = self.write_lock();
        self.count_failure(self.maintain_locked(&mut write))
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
        let version = Arc::clone(&self.read_state());
        Cursor::new(Scan::new(version, lo, hi, &self.counters.io_errors))
    }

    fn try_reclaim(&self) -> usize {
        self.read_state().memtable.try_reclaim()
    }

    fn len(&self) -> usize {
        self.live_keys.load(Ordering::Relaxed) as usize
    }

    fn name(&self) -> &'static str {
        "bskip-lsm"
    }

    fn degraded(&self) -> bool {
        LsmEngine::degraded(self)
    }

    fn stats(&self) -> IndexStats {
        // The state read lock only: like `len`, this must answer while a
        // flush or compaction holds the writer mutex.
        let state = self.read_state();
        // Everything below the counters is a level read at snapshot time.
        let gauge = StatKind::Gauge;
        let mut stats = self
            .counters
            .snapshot()
            .with_kind("degraded", gauge, LsmEngine::degraded(self) as u64)
            .with_kind("live_keys", gauge, self.live_keys.load(Ordering::Relaxed))
            .with_kind("memtable_bytes", gauge, state.memtable.bytes())
            .with_kind("memtable_live_nodes", gauge, state.memtable.live_nodes())
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
        self.counters.reset();
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
        let state = engine.read_state();
        let tables: Vec<usize> = state.levels.iter().map(Vec::len).collect();
        assert_eq!(tables, [6, 5, 5]);
        assert_eq!(state.immutables.len(), 1);
        let errors = RelaxedCounter::new();
        let count = |memtables: &[&Arc<Memtable<u64, u64>>], levels, lo, hi| {
            let memtables = memtables.iter().copied();
            let sources = LsmEngine::sources(memtables, levels, lo, hi, &errors);
            // The merge sizes its one vector from the upper bound.
            let upper = sources.size_hint().1;
            let count = sources.count();
            assert!(upper.is_some_and(|upper| upper >= count), "{upper:?}");
            count
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
            let state = engine.read_state();
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
        let state = engine.read_state();
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
        let state = engine.read_state();
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
    fn a_corrupt_table_in_a_run_ends_the_scan_at_the_bad_block() {
        let dir = temp_dir("run-corrupt");
        let engine = single_run(Arc::new(StdFs), &dir);
        let (table_min, after, up_to) = {
            let state = engine.read_state();
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
            let state = engine.read_state();
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
    /// (while `armed`) or inside `rename` — the manifest's commit point —
    /// (while `rename_armed`): the call announces itself to `wait_parked`
    /// and then waits for `release`.  `rename_fails` fails the next rename.
    struct GateFs {
        inner: FaultFs,
        gate: Arc<Gate>,
    }

    struct Gate {
        armed: AtomicBool,
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
        let fs = FaultFs::new();
        let engine = open_manual(&fs);
        // Two level-0 tables and a sealed memtable, their keys interleaved.
        flushed_rounds(&engine, 2);
        let oracle: BTreeMap<u64, u64> = engine.scan(..).collect();
        let pinned: Vec<PathBuf> = engine.read_state().levels[0]
            .iter()
            .map(|table| table.path().to_path_buf())
            .collect();
        assert_eq!(pinned.len(), 2);
        let unlinked = || {
            let listing = dir_listing(&fs);
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
        assert!(unlinked(), "{:?}", dir_listing(&fs));

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
        assert!(unlinked(), "{:?}", dir_listing(&fs));
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
        engine.rotate_locked(&mut engine.write_lock()).unwrap();
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
}
