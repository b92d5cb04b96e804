//! Benchmark-side wrappers that sit on a layer boundary: they count what
//! crosses it and, in the traced pass, open a span around every call.
//! Both are in place in untraced runs too (counting is one relaxed add,
//! a closed span switch is one relaxed load), so the traced pass runs the
//! same program as the measured one.

use std::io;
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bskip_index::{ConcurrentIndex, Cursor, IndexStats, Op};
use bskip_lsm::{Storage, StorageFile};

use crate::harness::seed_heights;
use crate::trace::{span, Name};

/// Which boundary a [`SpanIndex`] sits on.
#[derive(Clone, Copy, Debug)]
pub enum Boundary {
    /// Between `KvServer` (or a worker) and its backend.
    Backend,
    /// Between `ShardedIndex` and one shard.
    Shard,
}

/// A `ConcurrentIndex` that forwards **every** method of the trait — the
/// provided ones too (`execute`, `contains_key`, `try_reclaim`,
/// `degraded`, `stats`), or the wrapped index would silently fall back to
/// the trait's point-loop defaults and the benchmark would measure a
/// different program.  It is also where threads the benchmark does not
/// spawn (the server's connection threads) get their promotion heights
/// seeded before their first insert.
pub struct SpanIndex<I> {
    inner: I,
    boundary: Boundary,
}

impl<I> SpanIndex<I> {
    pub fn new(inner: I, boundary: Boundary) -> Self {
        SpanIndex { inner, boundary }
    }

    fn name(&self, backend: Name, shard: Name) -> Name {
        match self.boundary {
            Boundary::Backend => backend,
            Boundary::Shard => shard,
        }
    }
}

impl<I: ConcurrentIndex<u64, u64>> ConcurrentIndex<u64, u64> for SpanIndex<I> {
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        seed_heights(None);
        let _span = span(self.name(Name::BackendInsert, Name::ShardInsert));
        self.inner.insert(key, value)
    }

    fn get(&self, key: &u64) -> Option<u64> {
        let _span = span(self.name(Name::BackendGet, Name::ShardGet));
        self.inner.get(key)
    }

    fn contains_key(&self, key: &u64) -> bool {
        let _span = span(self.name(Name::BackendGet, Name::ShardGet));
        self.inner.contains_key(key)
    }

    fn execute(&self, ops: &mut [Op<u64, u64>]) {
        seed_heights(None);
        let span = span(self.name(Name::BackendExecute, Name::ShardExecute));
        span.count(ops.len() as u64);
        self.inner.execute(ops)
    }

    fn remove(&self, key: &u64) -> Option<u64> {
        let _span = span(self.name(Name::BackendRemove, Name::ShardRemove));
        self.inner.remove(key)
    }

    /// The span covers opening the cursor; the entries are pulled by the
    /// caller afterwards, inside the caller's own span.
    fn scan_bounds(&self, lo: Bound<u64>, hi: Bound<u64>) -> Cursor<'_, u64, u64> {
        let _span = span(self.name(Name::BackendScan, Name::ShardScan));
        self.inner.scan_bounds(lo, hi)
    }

    fn range(&self, start: &u64, len: usize, visit: &mut dyn FnMut(&u64, &u64)) -> usize {
        let _span = span(self.name(Name::BackendScan, Name::ShardScan));
        self.inner.range(start, len, visit)
    }

    fn try_reclaim(&self) -> usize {
        self.inner.try_reclaim()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// What crossed the storage boundary so far.
#[derive(Debug, Default)]
pub struct StorageCounters {
    pub append_calls: AtomicU64,
    pub append_bytes: AtomicU64,
    pub read_calls: AtomicU64,
    pub read_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub meta_calls: AtomicU64,
}

/// A plain copy of [`StorageCounters`], for before/after deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageSnapshot {
    pub append_calls: u64,
    pub append_bytes: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub syncs: u64,
    pub meta_calls: u64,
}

impl StorageCounters {
    pub fn snapshot(&self) -> StorageSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StorageSnapshot {
            append_calls: read(&self.append_calls),
            append_bytes: read(&self.append_bytes),
            read_calls: read(&self.read_calls),
            read_bytes: read(&self.read_bytes),
            syncs: read(&self.syncs),
            meta_calls: read(&self.meta_calls),
        }
    }
}

impl StorageSnapshot {
    pub fn since(&self, earlier: &StorageSnapshot) -> StorageSnapshot {
        StorageSnapshot {
            append_calls: self.append_calls - earlier.append_calls,
            append_bytes: self.append_bytes - earlier.append_bytes,
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            syncs: self.syncs - earlier.syncs,
            meta_calls: self.meta_calls - earlier.meta_calls,
        }
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A [`Storage`] that counts (and, when tracing, spans) every call on its
/// way to the wrapped backend.
///
/// Syncs are counted and **not passed on**.  The engine syncs every
/// SSTable and every manifest commit whatever the WAL's policy (three
/// `fsync`s a flush), and an `fsync` here goes to a virtual disk shared
/// with the host's other tenants: 0.2 ms or 4 ms or more, by the hour.
/// That is the neighbours' latency, not the engine's, and it moved a
/// set-up of `lsm_ingest` from 0.22 s to 0.58 s between identical runs.
/// How often the engine asks for a sync is the engine's doing and stays
/// measured (`lsm.storage_syncs`); the benchmark never reboots, so nothing
/// depends on the data reaching the device.
pub struct CountingStorage<S> {
    inner: S,
    counters: Arc<StorageCounters>,
}

impl<S: Storage> CountingStorage<S> {
    pub fn new(inner: S) -> Self {
        CountingStorage {
            inner,
            counters: Arc::default(),
        }
    }

    pub fn counters(&self) -> Arc<StorageCounters> {
        Arc::clone(&self.counters)
    }

    fn wrap(&self, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(CountingFile {
            inner: file,
            counters: Arc::clone(&self.counters),
        })
    }

    fn meta<R>(&self, call: impl FnOnce(&S) -> R) -> R {
        let _span = span(Name::StorageMeta);
        bump(&self.counters.meta_calls, 1);
        call(&self.inner)
    }
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.meta(|fs| fs.create(path)).map(|file| self.wrap(file))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn StorageFile>> {
        self.meta(|fs| fs.open_append(path, valid_len))
            .map(|file| self.wrap(file))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.meta(|fs| fs.open_read(path))
            .map(|file| self.wrap(file))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let span = span(Name::StorageReadFile);
        let bytes = self.inner.read(path)?;
        bump(&self.counters.read_calls, 1);
        bump(&self.counters.read_bytes, bytes.len() as u64);
        span.count(bytes.len() as u64);
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.meta(|fs| fs.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.meta(|fs| fs.remove(path))
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.meta(|fs| fs.read_dir(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.meta(|fs| fs.create_dir_all(dir))
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let _span = span(Name::StorageSync);
        bump(&self.counters.syncs, 1);
        Ok(())
    }
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    counters: Arc<StorageCounters>,
}

impl StorageFile for CountingFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let span = span(Name::StorageAppend);
        span.count(data.len() as u64);
        bump(&self.counters.append_calls, 1);
        bump(&self.counters.append_bytes, data.len() as u64);
        self.inner.append(data)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let span = span(Name::StorageReadAt);
        span.count(buf.len() as u64);
        bump(&self.counters.read_calls, 1);
        bump(&self.counters.read_bytes, buf.len() as u64);
        self.inner.read_at(buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        let _span = span(Name::StorageSync);
        bump(&self.counters.syncs, 1);
        Ok(())
    }

    fn sync_all(&self) -> io::Result<()> {
        let _span = span(Name::StorageSync);
        bump(&self.counters.syncs, 1);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskip_core::{BSkipConfig, BSkipList};
    use bskip_lsm::FaultFs;

    #[test]
    fn span_index_forwards_the_native_batch_path() {
        let list: BSkipList<u64, u64> =
            BSkipList::with_config(BSkipConfig::paper_default().with_stats(true));
        let index = SpanIndex::new(list, Boundary::Backend);
        let mut batch: Vec<Op<u64, u64>> = (0..64).map(|k| Op::insert(k, k)).collect();
        index.execute(&mut batch);
        assert_eq!(index.len(), 64);
        assert!(index.contains_key(&7));
        // The wrapper reached the list's own `execute`, not the trait's
        // point-loop default.
        assert_eq!(index.stats().get("batch_executes"), Some(1));
        assert_eq!(index.stats().get("batched_ops"), Some(64));
    }

    #[test]
    fn counting_storage_counts_bytes_both_ways() {
        let fs = CountingStorage::new(FaultFs::new());
        let counters = fs.counters();
        let path = Path::new("/bench/file");
        let mut file = fs.create(path).unwrap();
        file.append(b"0123456789").unwrap();
        file.sync_data().unwrap();
        let reader = fs.open_read(path).unwrap();
        let mut buf = [0u8; 4];
        reader.read_at(&mut buf, 3).unwrap();
        assert_eq!(&buf, b"3456");
        assert_eq!(fs.read(path).unwrap().len(), 10);
        let seen = counters.snapshot();
        assert_eq!((seen.append_calls, seen.append_bytes), (1, 10));
        assert_eq!((seen.read_calls, seen.read_bytes), (2, 14));
        assert_eq!((seen.syncs, seen.meta_calls), (1, 2));
    }
}
