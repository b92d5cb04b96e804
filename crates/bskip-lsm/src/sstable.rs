//! The SSTable: an immutable, sorted, block-structured table file.
//!
//! # File format
//!
//! ```text
//! ┌─────────────┬─────────────┬───┬──────────────┬─────────────┬────────┐
//! │ data block 0│ data block 1│ … │ filter block │ index block │ footer │
//! └─────────────┴─────────────┴───┴──────────────┴─────────────┴────────┘
//! ```
//!
//! **Data blocks** hold ~4 KiB of entries with restart-point prefix
//! compression on the (order-preserving) encoded keys: every
//! `restart_interval`-th entry stores its full key, the entries in between
//! store only the suffix that differs from their predecessor:
//!
//! ```text
//! entry := shared: uvarint, unshared: uvarint, tag: u8,
//!          [value_len: uvarint,]  (puts only)
//!          unshared key bytes, [value bytes]
//! block := entry* , restart offsets (u32 LE each), restart count (u32 LE),
//!          crc: u32 LE over everything before it
//! ```
//!
//! Every data block ends in a CRC32 of its contents, so a corrupt or
//! bit-rotted block is a *detected* `InvalidData` error on read — never
//! garbage entries or a decoder panic.
//!
//! **Filter block**: the table's bloom filter ([`crate::bloom::Bloom`])
//! over every key in the table — point lookups check it before touching
//! any data block.
//!
//! **Index block**: the decoded-at-open block directory — for each data
//! block its *last* key plus its file offset and length — preceded by the
//! table-wide minimum key.  Lookups binary-search it for the one candidate
//! block.
//!
//! **Footer** (fixed 40 bytes at the end of the file):
//!
//! ```text
//! filter_offset: u64, filter_len: u32, index_offset: u64, index_len: u32,
//! entry_count: u64, magic: u64 (0x42534B4C_534D5431, "BSKLSMT1")
//! ```
//!
//! All multi-byte framing integers are little-endian; keys inside blocks
//! compare by their [`crate::codec::Persist`] (big-endian) encoding.
//!
//! # Reading
//!
//! [`Table::open`] reads the footer, index and filter once and keeps them
//! in memory (the per-table resident footprint is a few bytes per block
//! plus the filter); data blocks are read on demand with positioned reads,
//! so concurrent lookups and cursors share one file handle without a seek
//! lock.  [`TableCursor`] streams a bounded range block by block and plugs
//! into the same [`IndexCursor`] interface every in-memory index serves.
//! All file access goes through the [`Storage`] trait.

use std::io;
use std::marker::PhantomData;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bskip_index::cursor::{above_lower, below_upper};
use bskip_index::{IndexCursor, IndexKey, IndexValue};
use bskip_sync::RelaxedCounter;

use crate::bloom::{bloom_hash, Bloom};
use crate::codec::{get_uvarint, put_uvarint, shared_prefix, Persist};
use crate::crc::crc32;
use crate::entry::Slot;
use crate::storage::{Storage, StorageFile};

/// Footer magic: "BSKLSMT1".
const MAGIC: u64 = 0x4253_4B4C_534D_5431;

/// Footer size in bytes.
const FOOTER: usize = 8 + 4 + 8 + 4 + 8 + 8;

/// Trailing CRC32 appended to every data block.
const BLOCK_CRC: usize = 4;

/// Entry tag bytes.
const TAG_PUT: u8 = 0;
const TAG_TOMBSTONE: u8 = 1;

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt SSTable: {what}"),
    )
}

/// Build-time knobs for a table (shared with the engine's config).
#[derive(Debug, Clone, Copy)]
pub struct TableOptions {
    /// Data-block payload budget in bytes (a block closes once it crosses
    /// this); the classic page-sized default is 4096.
    pub block_bytes: usize,
    /// Entries between full-key restart points inside a block.
    pub restart_interval: usize,
    /// Bloom-filter budget in bits per key.
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_bytes: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
        }
    }
}

/// Block directory: one `(last key, file offset, length)` row per block.
type BlockIndex<K> = Vec<(K, u64, u32)>;

/// Streaming writer producing one table file from ascending-key entries.
pub struct TableBuilder<K, V> {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    options: TableOptions,
    /// Current data block under construction.
    block: Vec<u8>,
    block_entries: usize,
    restarts: Vec<u32>,
    /// Encoded form of the last key added (prefix-compression context).
    last_key: Vec<u8>,
    /// Block directory accumulated so far: (last key, offset, length).
    index: BlockIndex<K>,
    offset: u64,
    hashes: Vec<u32>,
    entries: u64,
    min_key: Option<K>,
    max_key: Option<K>,
    key_scratch: Vec<u8>,
    value_scratch: Vec<u8>,
    _values: PhantomData<V>,
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> TableBuilder<K, V> {
    /// Creates a builder writing to `path` (truncating any existing file).
    pub fn create(storage: &dyn Storage, path: &Path, options: TableOptions) -> io::Result<Self> {
        let file = storage.create(path)?;
        Ok(TableBuilder {
            file,
            path: path.to_path_buf(),
            options,
            block: Vec::with_capacity(options.block_bytes + 256),
            block_entries: 0,
            restarts: Vec::new(),
            last_key: Vec::new(),
            index: Vec::new(),
            offset: 0,
            hashes: Vec::new(),
            entries: 0,
            min_key: None,
            max_key: None,
            key_scratch: Vec::new(),
            value_scratch: Vec::new(),
            _values: PhantomData,
        })
    }

    /// Appends one entry; keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: K, slot: Slot<V>) -> io::Result<()> {
        debug_assert!(
            self.max_key.is_none_or(|last| last < key),
            "table entries must be strictly ascending"
        );
        self.key_scratch.clear();
        key.encode(&mut self.key_scratch);
        self.hashes.push(bloom_hash(&self.key_scratch));

        let shared = if self
            .block_entries
            .is_multiple_of(self.options.restart_interval)
        {
            self.restarts.push(self.block.len() as u32);
            0
        } else {
            shared_prefix(&self.last_key, &self.key_scratch)
        };
        let unshared = self.key_scratch.len() - shared;
        put_uvarint(&mut self.block, shared as u64);
        put_uvarint(&mut self.block, unshared as u64);
        match slot {
            Slot::Put(value) => {
                self.block.push(TAG_PUT);
                self.value_scratch.clear();
                value.encode(&mut self.value_scratch);
                put_uvarint(&mut self.block, self.value_scratch.len() as u64);
                self.block.extend_from_slice(&self.key_scratch[shared..]);
                self.block.extend_from_slice(&self.value_scratch);
            }
            Slot::Tombstone => {
                self.block.push(TAG_TOMBSTONE);
                self.block.extend_from_slice(&self.key_scratch[shared..]);
            }
        }
        std::mem::swap(&mut self.last_key, &mut self.key_scratch);
        self.block_entries += 1;
        self.entries += 1;
        self.min_key.get_or_insert(key);
        self.max_key = Some(key);
        if self.block.len() >= self.options.block_bytes {
            self.finish_block(key)?;
        }
        Ok(())
    }

    fn finish_block(&mut self, last_key: K) -> io::Result<()> {
        for restart in &self.restarts {
            self.block.extend_from_slice(&restart.to_le_bytes());
        }
        self.block
            .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        // Per-block checksum: a flipped bit anywhere in the block is a
        // detected read error, not silently decoded garbage.
        let crc = crc32(&self.block);
        self.block.extend_from_slice(&crc.to_le_bytes());
        self.file.append(&self.block)?;
        self.index
            .push((last_key, self.offset, self.block.len() as u32));
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_entries = 0;
        self.restarts.clear();
        self.last_key.clear();
        Ok(())
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Approximate bytes written plus buffered so far (used by compaction
    /// to split outputs at a target size).
    pub fn bytes_estimate(&self) -> u64 {
        self.offset + self.block.len() as u64
    }

    /// Flushes trailing state, writes filter, index and footer, and syncs
    /// the file to durable storage.  Panics if no entry was added (empty
    /// tables are never written; callers guard).
    pub fn finish(mut self) -> io::Result<TableMeta<K>> {
        let max_key = self.max_key.expect("cannot finish an empty table");
        let min_key = self.min_key.unwrap();
        if self.block_entries > 0 {
            self.finish_block(max_key)?;
        }
        // Filter block.
        let filter_offset = self.offset;
        let filter = Bloom::build(&self.hashes, self.options.bloom_bits_per_key).encode();
        self.file.append(&filter)?;
        self.offset += filter.len() as u64;
        // Index block: min key, then the block directory.
        let index_offset = self.offset;
        let mut index_block = Vec::new();
        let mut scratch = Vec::new();
        min_key.encode(&mut scratch);
        put_uvarint(&mut index_block, scratch.len() as u64);
        index_block.extend_from_slice(&scratch);
        put_uvarint(&mut index_block, self.index.len() as u64);
        for (last, offset, len) in &self.index {
            scratch.clear();
            last.encode(&mut scratch);
            put_uvarint(&mut index_block, scratch.len() as u64);
            index_block.extend_from_slice(&scratch);
            put_uvarint(&mut index_block, *offset);
            put_uvarint(&mut index_block, u64::from(*len));
        }
        self.file.append(&index_block)?;
        self.offset += index_block.len() as u64;
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER);
        footer.extend_from_slice(&filter_offset.to_le_bytes());
        footer.extend_from_slice(&(filter.len() as u32).to_le_bytes());
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&(index_block.len() as u32).to_le_bytes());
        footer.extend_from_slice(&self.entries.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        self.file.append(&footer)?;
        self.offset += footer.len() as u64;
        self.file.sync_all()?;
        Ok(TableMeta {
            path: self.path,
            entries: self.entries,
            bytes: self.offset,
            min_key,
            max_key,
        })
    }
}

/// What [`TableBuilder::finish`] reports about the written file.
#[derive(Debug, Clone)]
pub struct TableMeta<K> {
    /// The table file's path.
    pub path: PathBuf,
    /// Entries in the table (puts plus tombstones).
    pub entries: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Smallest key in the table.
    pub min_key: K,
    /// Largest key in the table.
    pub max_key: K,
}

/// An open, immutable table: resident index + filter, on-demand blocks.
pub struct Table<K, V> {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    /// Monotonic table number; larger ids hold strictly newer data within
    /// level 0 (levels ≥ 1 are non-overlapping, so age is irrelevant
    /// there).
    pub id: u64,
    /// Block directory: (last key of block, offset, length).
    index: BlockIndex<K>,
    filter: Bloom,
    /// Smallest key in the table.
    pub min_key: K,
    /// Largest key in the table.
    pub max_key: K,
    /// Entries in the table (puts plus tombstones).
    pub entries: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    _values: PhantomData<fn() -> V>,
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> Table<K, V> {
    /// Opens a table file, reading its footer, index and filter.
    pub fn open(storage: &dyn Storage, path: &Path, id: u64) -> io::Result<Self> {
        let file = storage.open_read(path)?;
        let bytes = file.len()?;
        if bytes < FOOTER as u64 {
            return Err(corrupt("file shorter than footer"));
        }
        let mut footer = [0u8; FOOTER];
        file.read_at(&mut footer, bytes - FOOTER as u64)?;
        let magic = u64::from_le_bytes(footer[32..40].try_into().unwrap());
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let filter_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let filter_len = u32::from_le_bytes(footer[8..12].try_into().unwrap());
        let index_offset = u64::from_le_bytes(footer[12..20].try_into().unwrap());
        let index_len = u32::from_le_bytes(footer[20..24].try_into().unwrap());
        let entries = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        if filter_offset + u64::from(filter_len) > bytes
            || index_offset + u64::from(index_len) > bytes
        {
            return Err(corrupt("footer offsets out of range"));
        }
        let mut filter_bytes = vec![0u8; filter_len as usize];
        file.read_at(&mut filter_bytes, filter_offset)?;
        let filter = Bloom::decode(&filter_bytes).ok_or_else(|| corrupt("bad filter block"))?;
        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_at(&mut index_bytes, index_offset)?;
        let (index, min_key) =
            Self::decode_index(&index_bytes).ok_or_else(|| corrupt("bad index block"))?;
        let max_key = index.last().ok_or_else(|| corrupt("empty index"))?.0;
        Ok(Table {
            file,
            path: path.to_path_buf(),
            id,
            index,
            filter,
            min_key,
            max_key,
            entries,
            bytes,
            _values: PhantomData,
        })
    }

    fn decode_index(bytes: &[u8]) -> Option<(BlockIndex<K>, K)> {
        let (min_len, used) = get_uvarint(bytes)?;
        let mut at = used;
        let min_key = K::decode(bytes.get(at..at + min_len as usize)?)?;
        at += min_len as usize;
        let (count, used) = get_uvarint(bytes.get(at..)?)?;
        at += used;
        let mut index = Vec::with_capacity(count.min(1 << 20) as usize);
        for _ in 0..count {
            let (key_len, used) = get_uvarint(bytes.get(at..)?)?;
            at += used;
            let key = K::decode(bytes.get(at..at + key_len as usize)?)?;
            at += key_len as usize;
            let (offset, used) = get_uvarint(bytes.get(at..)?)?;
            at += used;
            let (len, used) = get_uvarint(bytes.get(at..)?)?;
            at += used;
            index.push((key, offset, u32::try_from(len).ok()?));
        }
        (at == bytes.len()).then_some((index, min_key))
    }

    /// The table file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of data blocks.
    pub fn blocks(&self) -> usize {
        self.index.len()
    }

    /// Block-directory row for data block `block`: its last key, file
    /// offset and on-disk length (checksum included).  Test hook for
    /// targeted corruption sweeps.
    pub fn block_extent(&self, block: usize) -> (K, u64, u32) {
        self.index[block]
    }

    /// Whether `key` could be in this table: range check plus bloom probe.
    /// `false` means definitely absent (no IO was performed).
    pub fn may_contain(&self, key: &K) -> bool {
        if *key < self.min_key || *key > self.max_key {
            return false;
        }
        let mut scratch = Vec::new();
        key.encode(&mut scratch);
        self.filter.may_contain(bloom_hash(&scratch))
    }

    /// Point lookup.  The caller is expected to have consulted
    /// [`Table::may_contain`]; a miss here after a filter hit is the
    /// bloom's false-positive case.
    pub fn get(&self, key: &K) -> io::Result<Option<Slot<V>>> {
        let block = self.index.partition_point(|(last, _, _)| last < key);
        if block == self.index.len() {
            return Ok(None);
        }
        let entries = self.read_block(block)?;
        Ok(entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|at| entries[at].1))
    }

    /// Reads, checksum-verifies and fully decodes data block `block`.
    fn read_block(&self, block: usize) -> io::Result<Vec<(K, Slot<V>)>> {
        let (_, offset, len) = self.index[block];
        if (len as usize) < 4 + BLOCK_CRC {
            return Err(corrupt("data block shorter than its framing"));
        }
        let mut bytes = vec![0u8; len as usize];
        self.file.read_at(&mut bytes, offset)?;
        let (body, crc_bytes) = bytes.split_at(bytes.len() - BLOCK_CRC);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != stored {
            return Err(corrupt("data block checksum mismatch"));
        }
        Self::decode_block(body).ok_or_else(|| corrupt("bad data block"))
    }

    fn decode_block(bytes: &[u8]) -> Option<Vec<(K, Slot<V>)>> {
        if bytes.len() < 4 {
            return None;
        }
        let restart_count =
            u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap()) as usize;
        let restart_array = bytes.len().checked_sub(4 + restart_count * 4)?;
        let body = &bytes[..restart_array];
        let mut entries = Vec::new();
        let mut key = Vec::new();
        let mut at = 0usize;
        while at < body.len() {
            let (shared, used) = get_uvarint(body.get(at..)?)?;
            at += used;
            let (unshared, used) = get_uvarint(body.get(at..)?)?;
            at += used;
            let tag = *body.get(at)?;
            at += 1;
            let value_len = if tag == TAG_PUT {
                let (len, used) = get_uvarint(body.get(at..)?)?;
                at += used;
                len as usize
            } else if tag == TAG_TOMBSTONE {
                0
            } else {
                return None;
            };
            if shared as usize > key.len() {
                return None;
            }
            key.truncate(shared as usize);
            key.extend_from_slice(body.get(at..at + unshared as usize)?);
            at += unshared as usize;
            let decoded_key = K::decode(&key)?;
            let slot = if tag == TAG_PUT {
                let value = V::decode(body.get(at..at + value_len)?)?;
                at += value_len;
                Slot::Put(value)
            } else {
                Slot::Tombstone
            };
            entries.push((decoded_key, slot));
        }
        entries
            .windows(2)
            .all(|w| w[0].0 < w[1].0)
            .then_some(entries)
    }

    /// Opens a streaming cursor over `[lo, hi]`; the cursor shares the
    /// table through the `Arc` so it is `'static` (compaction and merged
    /// scans hold cursors across engine-state changes).
    pub fn cursor(self: &Arc<Self>, lo: Bound<K>, hi: Bound<K>) -> TableCursor<K, V> {
        TableCursor {
            table: Arc::clone(self),
            lo,
            hi,
            next_block: None,
            entries: Vec::new(),
            pos: 0,
            current: None,
            finished: false,
            io_error: false,
            error_counter: None,
        }
    }

    /// Like [`Table::cursor`], but read failures additionally increment
    /// `errors` — the engine plugs its `io_errors` health counter in here
    /// so degraded media shows up in stats rather than vanishing.
    pub fn cursor_counted(
        self: &Arc<Self>,
        lo: Bound<K>,
        hi: Bound<K>,
        errors: Arc<RelaxedCounter>,
    ) -> TableCursor<K, V> {
        let mut cursor = self.cursor(lo, hi);
        cursor.error_counter = Some(errors);
        cursor
    }

    /// First block that can contain a key satisfying `lo`.
    fn first_block_for(&self, lo: &Bound<K>) -> usize {
        match lo {
            Bound::Unbounded => 0,
            Bound::Included(key) => self.index.partition_point(|(last, _, _)| last < key),
            Bound::Excluded(key) => self.index.partition_point(|(last, _, _)| last <= key),
        }
    }
}

/// A seekable streaming cursor over one table (see [`Table::cursor`]).
///
/// Yields `(K, Slot<V>)` — tombstones included, because both consumers
/// (the merged read path and compaction) need to see them.  A disk or
/// checksum error mid-stream ends the cursor early instead of panicking;
/// [`TableCursor::had_io_error`] reports it, and cursors built with
/// [`Table::cursor_counted`] also bump the shared error counter, so
/// callers that cannot tolerate a silently short stream (compaction)
/// can detect and abort.
pub struct TableCursor<K: IndexKey, V: IndexValue> {
    table: Arc<Table<K, V>>,
    lo: Bound<K>,
    hi: Bound<K>,
    /// Next block to load; `None` before the initial position is resolved.
    next_block: Option<usize>,
    entries: Vec<(K, Slot<V>)>,
    pos: usize,
    current: Option<(K, Slot<V>)>,
    finished: bool,
    io_error: bool,
    error_counter: Option<Arc<RelaxedCounter>>,
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> TableCursor<K, V> {
    /// Whether any block read failed during this cursor's lifetime (the
    /// stream ended early at the failure point).
    pub fn had_io_error(&self) -> bool {
        self.io_error
    }

    fn load_block(&mut self, block: usize) {
        match self.table.read_block(block) {
            Ok(entries) => {
                self.entries = entries;
                self.pos = 0;
                self.next_block = Some(block + 1);
            }
            Err(_) => {
                // Degrade, don't panic: the stream ends here and the
                // failure is observable via had_io_error / the counter.
                self.entries.clear();
                self.pos = 0;
                self.next_block = Some(self.table.index.len());
                self.finished = true;
                self.io_error = true;
                if let Some(counter) = &self.error_counter {
                    counter.incr();
                }
            }
        }
    }

    /// Positions at the first entry satisfying `from` (and `self.lo`).
    fn position_at(&mut self, from: &Bound<K>) {
        self.finished = false;
        let block = self.table.first_block_for(from);
        if block >= self.table.index.len() {
            self.entries.clear();
            self.pos = 0;
            self.next_block = Some(block);
            self.finished = true;
            return;
        }
        self.load_block(block);
        self.pos = self
            .entries
            .partition_point(|(key, _)| !above_lower(key, from));
    }
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> IndexCursor<K, Slot<V>> for TableCursor<K, V> {
    fn next(&mut self) -> Option<(K, Slot<V>)> {
        if self.finished {
            return None;
        }
        if self.next_block.is_none() {
            let lo = self.lo;
            self.position_at(&lo);
            if self.finished {
                return None;
            }
        }
        loop {
            if self.pos < self.entries.len() {
                let entry = self.entries[self.pos];
                self.pos += 1;
                if !below_upper(&entry.0, &self.hi) {
                    self.finished = true;
                    return None;
                }
                self.current = Some(entry);
                return Some(entry);
            }
            if self.finished {
                return None;
            }
            let block = self.next_block.unwrap_or(0);
            if block >= self.table.index.len() {
                self.finished = true;
                return None;
            }
            self.load_block(block);
        }
    }

    fn seek(&mut self, key: &K) -> Option<(K, Slot<V>)> {
        // Seeking below the range's lower bound clamps to the bound.
        let from = if above_lower(key, &self.lo) {
            Bound::Included(*key)
        } else {
            self.lo
        };
        self.current = None;
        self.position_at(&from);
        self.next()
    }

    fn entry(&self) -> Option<(K, Slot<V>)> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StdFs;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bskip-sst-test-{}-{n}-{tag}.sst",
            std::process::id()
        ))
    }

    /// Small blocks so multi-block paths are exercised at test scale.
    fn small_options() -> TableOptions {
        TableOptions {
            block_bytes: 256,
            restart_interval: 4,
            bloom_bits_per_key: 10,
        }
    }

    fn build_table(
        path: &Path,
        entries: impl IntoIterator<Item = (u64, Slot<u64>)>,
    ) -> Arc<Table<u64, u64>> {
        let mut builder: TableBuilder<u64, u64> =
            TableBuilder::create(&StdFs, path, small_options()).unwrap();
        for (key, slot) in entries {
            builder.add(key, slot).unwrap();
        }
        let meta = builder.finish().unwrap();
        assert!(meta.bytes > 0);
        Arc::new(Table::open(&StdFs, path, 1).unwrap())
    }

    #[test]
    fn build_open_get_round_trip() {
        let path = temp_path("roundtrip");
        let table = build_table(
            &path,
            (0..1000u64).map(|k| {
                if k % 10 == 3 {
                    (k * 3, Slot::Tombstone)
                } else {
                    (k * 3, Slot::Put(k))
                }
            }),
        );
        assert_eq!(table.entries, 1000);
        assert_eq!(table.min_key, 0);
        assert_eq!(table.max_key, 2997);
        assert!(table.blocks() > 1, "test scale must span multiple blocks");
        for k in 0..1000u64 {
            let expected = if k % 10 == 3 {
                Some(Slot::Tombstone)
            } else {
                Some(Slot::Put(k))
            };
            assert_eq!(table.get(&(k * 3)).unwrap(), expected, "key {}", k * 3);
            assert!(table.may_contain(&(k * 3)));
        }
        // Keys between entries miss.
        assert_eq!(table.get(&1).unwrap(), None);
        assert_eq!(table.get(&2998).unwrap(), None);
        assert!(!table.may_contain(&3000), "outside the key range");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bloom_rejects_most_absent_keys_without_io() {
        let path = temp_path("bloom");
        let table = build_table(&path, (0..5_000u64).map(|k| (k * 2, Slot::Put(k))));
        // In-range odd keys are absent; the filter must reject the vast
        // majority before any block read.
        let admitted = (0..5_000u64)
            .map(|k| k * 2 + 1)
            .filter(|k| table.may_contain(k))
            .count();
        assert!(admitted < 300, "filter admitted {admitted}/5000 misses");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cursor_scans_ranges_and_seeks() {
        let path = temp_path("cursor");
        let table = build_table(&path, (0..500u64).map(|k| (k * 2, Slot::Put(k))));
        // Full scan.
        let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
        let all: Vec<u64> = std::iter::from_fn(|| cursor.next())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(all, (0..500u64).map(|k| k * 2).collect::<Vec<_>>());
        assert_eq!(cursor.next(), None, "exhausted cursors stay exhausted");

        // Bounded scan with both bounds mid-range, odd endpoints.
        let mut cursor = table.cursor(Bound::Included(101), Bound::Excluded(201));
        let window: Vec<u64> = std::iter::from_fn(|| cursor.next())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(window, (51..=100).map(|k| k * 2).collect::<Vec<_>>());

        // Seek forward, backward, past the end, and below the lower bound.
        let mut cursor = table.cursor(Bound::Included(100), Bound::Included(900));
        assert_eq!(cursor.seek(&500), Some((500, Slot::Put(250))));
        assert_eq!(cursor.next(), Some((502, Slot::Put(251))));
        assert_eq!(cursor.seek(&499), Some((500, Slot::Put(250))));
        assert_eq!(cursor.seek(&0), Some((100, Slot::Put(50))), "clamps to lo");
        assert_eq!(cursor.seek(&901), None);
        assert_eq!(cursor.seek(&2000), None);
        // Seek is a full reposition: the cursor recovers after a miss.
        assert_eq!(cursor.seek(&898), Some((898, Slot::Put(449))));
        assert_eq!(cursor.entry(), Some((898, Slot::Put(449))));
        assert!(!cursor.supports_prev());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstones_stream_through_cursors() {
        let path = temp_path("tombs");
        let table = build_table(
            &path,
            [(1, Slot::Put(10)), (2, Slot::Tombstone), (3, Slot::Put(30))],
        );
        let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(cursor.next(), Some((1, Slot::Put(10))));
        assert_eq!(cursor.next(), Some((2, Slot::Tombstone)));
        assert_eq!(cursor.next(), Some((3, Slot::Put(30))));
        assert_eq!(cursor.next(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_entry_table() {
        let path = temp_path("single");
        let table = build_table(&path, [(42, Slot::Put(7))]);
        assert_eq!(table.entries, 1);
        assert_eq!(table.min_key, 42);
        assert_eq!(table.max_key, 42);
        assert_eq!(table.get(&42).unwrap(), Some(Slot::Put(7)));
        assert_eq!(table.get(&41).unwrap(), None);
        let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(cursor.next(), Some((42, Slot::Put(7))));
        assert_eq!(cursor.next(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corruption() {
        let path = temp_path("badmagic");
        build_table(&path, [(1u64, Slot::Put(1u64))]);
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Table::<u64, u64>::open(&StdFs, &path, 1).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(Table::<u64, u64>::open(&StdFs, &path, 1).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_block_flip_is_a_detected_checksum_error() {
        // Flip one byte in *every* data block of a multi-block table; each
        // read targeting the corrupt block must return a checksum error
        // (InvalidData), and every other block must stay readable.
        let path = temp_path("flip-every-block");
        let clean = build_table(&path, (0..1_000u64).map(|k| (k * 2, Slot::Put(k))));
        let blocks = clean.blocks();
        assert!(blocks > 4, "sweep needs a multi-block table, got {blocks}");
        let extents: Vec<(u64, u64, u32)> = (0..blocks).map(|b| clean.block_extent(b)).collect();
        drop(clean);
        let pristine = std::fs::read(&path).unwrap();

        for (block, &(last_key, offset, len)) in extents.iter().enumerate() {
            let mut bytes = pristine.clone();
            // Flip a byte mid-body (not in the stored CRC, so the check is
            // content-vs-checksum, not checksum-vs-content).
            let victim = offset as usize + (len as usize - BLOCK_CRC) / 2;
            bytes[victim] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            let table: Arc<Table<u64, u64>> = Arc::new(Table::open(&StdFs, &path, 1).unwrap());
            // The block's own last key routes exactly to the flipped block.
            let err = table
                .get(&last_key)
                .expect_err("flipped block {block} must fail the checksum");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "block {block}: wrong error kind"
            );
            assert!(
                err.to_string().contains("checksum"),
                "block {block}: {err} is not a checksum error"
            );
            // Detection is per-block: a neighbouring block still reads.
            let (other_key, _, _) = extents[(block + 1) % blocks];
            assert_eq!(
                table.get(&other_key).unwrap(),
                Some(Slot::Put(other_key / 2)),
                "block {block}: corruption must not leak into other blocks"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn counted_cursor_survives_corrupt_block_and_counts_it() {
        let path = temp_path("cursor-corrupt");
        let clean = build_table(&path, (0..1_000u64).map(|k| (k * 2, Slot::Put(k))));
        let blocks = clean.blocks();
        assert!(blocks > 2);
        // Corrupt the middle block.
        let (_, offset, len) = clean.block_extent(blocks / 2);
        drop(clean);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize + (len as usize - BLOCK_CRC) / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let table: Arc<Table<u64, u64>> = Arc::new(Table::open(&StdFs, &path, 1).unwrap());
        let errors = Arc::new(RelaxedCounter::new());
        let mut cursor = table.cursor_counted(Bound::Unbounded, Bound::Unbounded, errors.clone());
        let streamed = std::iter::from_fn(|| cursor.next()).count();
        assert!(
            streamed < 1_000,
            "the stream must end at the corrupt block, not fabricate entries"
        );
        assert!(cursor.had_io_error());
        assert_eq!(errors.get(), 1, "one block, one error");
        assert_eq!(cursor.next(), None, "the cursor stays cleanly finished");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prefix_compression_shrinks_dense_keys() {
        // Dense ascending u64 keys share 7-byte prefixes within a restart
        // window; the on-disk size must reflect that.
        let path = temp_path("compress");
        let dense = build_table(&path, (0..2_000u64).map(|k| (k, Slot::Put(k))));
        let dense_bytes = dense.bytes;
        std::fs::remove_file(&path).unwrap();
        // Uncompressible keys (high-entropy spread) as a baseline.
        let path2 = temp_path("sparse");
        let mut keys: Vec<u64> = (0..2_000u64)
            .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let sparse = build_table(&path2, keys.into_iter().map(|k| (k, Slot::Put(k))));
        assert!(
            dense_bytes < sparse.bytes,
            "prefix compression should shrink dense tables ({dense_bytes} vs {})",
            sparse.bytes
        );
        std::fs::remove_file(&path2).unwrap();
    }
}
