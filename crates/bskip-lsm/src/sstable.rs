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
//! lock.  All file access goes through the [`Storage`] trait.
//!
//! Every reader goes through one decoder, `BlockIter`: a bounds-checked
//! entry-at-a-time walk over a block whose CRC has been verified, with a
//! `seek` that binary-searches the restart array (restart entries carry
//! full keys, and the codec is order-preserving, so probes compare encoded
//! bytes) and then walks at most `restart_interval` entries.  No block is
//! ever decoded as a whole.
//!
//! * [`Table::get`] seeks and stops.  It validates the block's checksum
//!   and framing, the restart entries its binary search probes, and every
//!   entry of the one restart window it walks (lengths in bounds, known
//!   tag, keys strictly ascending) — not the entries it never visits.
//!   Together with [`Table::may_contain`] it works out of one per-thread
//!   scratch (encoded probe key, block bytes, current entry key), so a
//!   point lookup allocates nothing once the thread is warm.
//! * [`TableCursor`] streams a bounded range block by block through the
//!   same decoder, and plugs into the same [`IndexCursor`] interface every
//!   in-memory index serves.  It validates every entry it yields, as it
//!   yields it: a malformed or out-of-order entry ends the stream there
//!   (entries before it have already been handed out) and reports an I/O
//!   error.  What it streams is a *sorted run* — ascending tables that do
//!   not overlap, such as a level ≥ 1 of the engine; one table is a run of
//!   one.  The run's first table is found by binary search on the resident
//!   `max_key`s, table `i + 1` is opened only when table `i` is exhausted,
//!   and one block is held at a time, so positioning a cursor costs one
//!   block read whatever the run's length.  Its decoder is borrowed from a
//!   per-thread free list of at most eight (64 KiB per scanning thread at
//!   the default block size), so a warm scan allocates no buffer.

use std::cell::RefCell;
use std::io;
use std::marker::PhantomData;
use std::ops::{Bound, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bskip_index::cursor::below_upper;
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

/// Reads the uvarint at `*at` and advances past it.
fn take_uvarint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let (value, used) = get_uvarint(bytes.get(*at..)?)?;
    *at += used;
    Some(value)
}

/// The `len` bytes at `*at`, advancing past them; `None` unless all of
/// them lie inside `bytes`.  `len` comes straight from disk: every
/// length-prefixed slice in this file is cut here, so that no untrusted
/// length is added to an offset unchecked.
fn take<'a>(bytes: &'a [u8], at: &mut usize, len: u64) -> Option<&'a [u8]> {
    let end = at.checked_add(usize::try_from(len).ok()?)?;
    let slice = bytes.get(*at..end)?;
    *at = end;
    Some(slice)
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

/// One entry as [`BlockIter`] hands it out: borrowed, still encoded.
struct Entry<'a> {
    /// The full encoded key, shared prefix restored.
    key: &'a [u8],
    /// The encoded value; `None` for a tombstone.
    value: Option<&'a [u8]>,
}

impl Entry<'_> {
    fn slot<V: Persist>(&self) -> Option<Slot<V>> {
        match self.value {
            Some(bytes) => V::decode(bytes).map(Slot::Put),
            None => Some(Slot::Tombstone),
        }
    }
}

/// The fields of one on-disk entry, as offsets into the entry region.
struct RawEntry {
    shared: usize,
    unshared: Range<usize>,
    value: Option<Range<usize>>,
    /// Offset of the entry that follows.
    next: usize,
}

fn parse_entry(entries: &[u8], mut at: usize) -> Option<RawEntry> {
    let shared = usize::try_from(take_uvarint(entries, &mut at)?).ok()?;
    let unshared_len = take_uvarint(entries, &mut at)?;
    let value_len = match take(entries, &mut at, 1)?[0] {
        TAG_PUT => Some(take_uvarint(entries, &mut at)?),
        TAG_TOMBSTONE => None,
        _ => return None,
    };
    let start = at;
    take(entries, &mut at, unshared_len)?;
    let unshared = start..at;
    let value = match value_len {
        Some(len) => {
            take(entries, &mut at, len)?;
            Some(unshared.end..at)
        }
        None => None,
    };
    Some(RawEntry {
        shared,
        unshared,
        value,
        next: at,
    })
}

/// The one data-block decoder: a bounds-checked, entry-at-a-time walk over
/// a block whose checksum [`BlockIter::load`] has verified, with a `seek`
/// through the restart array.  It owns the block's bytes and the current
/// key, and both buffers are reused from block to block: the per-thread
/// point-read scratch holds one, every [`TableCursor`] that has loaded a
/// block another, on loan from the thread's free list.
///
/// Nothing read from the block is trusted beyond its checksum: lengths
/// are cut with [`take`], tags are matched, and keys must ascend strictly
/// from one step to the next.  The buffers only ever hold bytes copied
/// out of the block, so no length in it can make them outgrow it.
struct BlockIter {
    /// The block as it sits in the file: entries, restart array, CRC.
    bytes: Vec<u8>,
    /// Where the entries end and the restart array begins.
    entries_end: usize,
    /// Number of restart points.
    restarts: usize,
    /// Offset of the next entry to decode.
    at: usize,
    /// Full encoded key of the current entry; the prefix-compression
    /// context of the next one.
    key: Vec<u8>,
    /// Where the current entry's value lies in `bytes` (`None`: tombstone).
    value: Option<Range<usize>>,
    /// Whether an entry is current, i.e. `key` is a predecessor the next
    /// entry has to sort above.
    valid: bool,
}

impl BlockIter {
    const fn new() -> Self {
        BlockIter {
            bytes: Vec::new(),
            entries_end: 0,
            restarts: 0,
            at: 0,
            key: Vec::new(),
            value: None,
            valid: false,
        }
    }

    /// Reads the `len`-byte block at `offset`, verifies its checksum and
    /// framing, and positions before its first entry.  On `Err` the
    /// iterator holds an empty block.
    fn load(&mut self, file: &dyn StorageFile, offset: u64, len: u32) -> io::Result<()> {
        self.entries_end = 0;
        self.restarts = 0;
        self.rewind(0);
        let len = len as usize;
        if self.bytes.capacity() < len {
            // Blocks of one geometry differ by the overshoot of their last
            // entry: round up, so that the first one sizes the buffer for
            // all of them.
            let rounded = len.checked_next_power_of_two().unwrap_or(len);
            self.bytes.reserve_exact(rounded - self.bytes.len());
        }
        self.bytes.resize(len, 0);
        file.read_at(&mut self.bytes, offset)?;
        let (body, stored) = self
            .bytes
            .split_last_chunk::<BLOCK_CRC>()
            .ok_or_else(|| corrupt("data block shorter than its framing"))?;
        if crc32(body) != u32::from_le_bytes(*stored) {
            return Err(corrupt("data block checksum mismatch"));
        }
        let (rest, count) = body
            .split_last_chunk::<4>()
            .ok_or_else(|| corrupt("data block shorter than its framing"))?;
        let restarts = u32::from_le_bytes(*count) as usize;
        // The writer opens every block with a restart point.
        self.entries_end = restarts
            .checked_mul(4)
            .and_then(|array| rest.len().checked_sub(array))
            .filter(|_| restarts > 0)
            .ok_or_else(|| corrupt("bad data block"))?;
        self.restarts = restarts;
        Ok(())
    }

    /// Positions before the entry at offset `at`, which must be a restart
    /// point (it may not lean on a predecessor's key).
    fn rewind(&mut self, at: usize) {
        self.at = at;
        self.key.clear();
        self.value = None;
        self.valid = false;
    }

    /// Entry offset stored in slot `restart` of the restart array.
    fn restart_offset(&self, restart: usize) -> usize {
        let slot = self.bytes[self.entries_end + 4 * restart..].first_chunk();
        u32::from_le_bytes(*slot.expect("`load` checked that the restart array fits")) as usize
    }

    /// Decodes the next entry and makes it current; `false` at the end of
    /// the block.
    fn advance(&mut self) -> io::Result<bool> {
        let entries = &self.bytes[..self.entries_end];
        if self.at == entries.len() {
            return Ok(false);
        }
        let raw = parse_entry(entries, self.at)
            .filter(|raw| {
                raw.shared <= self.key.len()
                    && (!self.valid || entries[raw.unshared.clone()] > self.key[raw.shared..])
            })
            .ok_or_else(|| corrupt("bad data block"))?;
        self.key.truncate(raw.shared);
        self.key.extend_from_slice(&entries[raw.unshared]);
        self.value = raw.value;
        self.at = raw.next;
        self.valid = true;
        Ok(true)
    }

    /// The current entry (only meaningful after `advance` returned `true`).
    fn entry(&self) -> Entry<'_> {
        Entry {
            key: &self.key,
            value: self.value.clone().map(|value| &self.bytes[value]),
        }
    }

    /// Steps to the next entry of the block, `None` at its end.
    fn step(&mut self) -> io::Result<Option<Entry<'_>>> {
        Ok(self.advance()?.then(|| self.entry()))
    }

    /// Steps to the first entry whose encoded key is `>= probe`; `None`
    /// if the block holds no such entry.
    fn seek(&mut self, probe: &[u8]) -> io::Result<Option<Entry<'_>>> {
        // Restart entries store full keys: binary-search them for the last
        // one at or below the probe, without copying a key.
        let entries = &self.bytes[..self.entries_end];
        let (mut lo, mut hi) = (0, self.restarts);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let raw = parse_entry(entries, self.restart_offset(mid))
                .filter(|raw| raw.shared == 0)
                .ok_or_else(|| corrupt("bad data block"))?;
            if &entries[raw.unshared] <= probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // ... then walk its window: at most `restart_interval` entries.
        self.rewind(self.restart_offset(lo.saturating_sub(1)));
        while self.advance()? {
            if self.key.as_slice() >= probe {
                return Ok(Some(self.entry()));
            }
        }
        Ok(None)
    }
}

/// Per-thread buffers of the read paths.
struct ReadScratch {
    /// Encoding of the key being looked up.
    probe: Vec<u8>,
    /// The point-read path's decoder.
    block: BlockIter,
    /// Decoders parked by dropped cursors, at most [`PARKED_DECODERS`].
    parked: Vec<BlockIter>,
}

/// How many decoders a thread keeps for its next cursors — a scan holds one
/// per merge source that has loaded a block, and past this many the extra
/// ones are freed on drop.  A decoder's buffers fit the largest block it
/// has streamed, rounded up to a power of two, plus one key: 8 KiB at the
/// default 4 KiB block size, so 64 KiB per thread that has scanned.
const PARKED_DECODERS: usize = 8;

thread_local! {
    static SCRATCH: RefCell<ReadScratch> = const {
        RefCell::new(ReadScratch {
            probe: Vec::new(),
            block: BlockIter::new(),
            parked: Vec::new(),
        })
    };
}

/// A decoder for a cursor's first block: a parked one, buffers warm, if the
/// thread has any.  Not to be called from inside [`with_scratch`].
fn take_decoder() -> BlockIter {
    SCRATCH
        .with(|scratch| scratch.borrow_mut().parked.pop())
        .unwrap_or(BlockIter::new())
}

/// Parks a dropped cursor's decoder for the thread's next one.  Runs in
/// `Drop`, so a thread-local already torn down, or borrowed, just frees it.
fn park_decoder(decoder: BlockIter) {
    let _ = SCRATCH.try_with(|scratch| {
        if let Ok(mut scratch) = scratch.try_borrow_mut() {
            if scratch.parked.len() < PARKED_DECODERS {
                scratch.parked.push(decoder);
            }
        }
    });
}

/// Runs `f` on the encoding of `key` and the calling thread's block
/// decoder.  The buffers keep their capacity between calls, so a warm
/// thread's point reads do not allocate.  `f` may not come back here.
fn with_scratch<K: Persist, R>(key: &K, f: impl FnOnce(&[u8], &mut BlockIter) -> R) -> R {
    SCRATCH.with(|scratch| {
        let ReadScratch { probe, block, .. } = &mut *scratch.borrow_mut();
        probe.clear();
        key.encode(probe);
        f(probe, block)
    })
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
        // Footer, index and filter carry no checksum: every offset in them
        // is untrusted until it has been checked against the file.
        let within = |offset: u64, len: u32, end: u64| {
            offset
                .checked_add(u64::from(len))
                .is_some_and(|extent_end| extent_end <= end)
        };
        if !within(filter_offset, filter_len, bytes) || !within(index_offset, index_len, bytes) {
            return Err(corrupt("footer offsets out of range"));
        }
        let mut filter_bytes = vec![0u8; filter_len as usize];
        file.read_at(&mut filter_bytes, filter_offset)?;
        let filter = Bloom::decode(&filter_bytes).ok_or_else(|| corrupt("bad filter block"))?;
        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_at(&mut index_bytes, index_offset)?;
        let (index, min_key) =
            Self::decode_index(&index_bytes).ok_or_else(|| corrupt("bad index block"))?;
        // Data blocks precede the filter block, which also bounds what a
        // block read may ask the allocator for.
        if !index
            .iter()
            .all(|&(_, offset, len)| within(offset, len, filter_offset))
        {
            return Err(corrupt("block extent out of range"));
        }
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
        let mut at = 0;
        let min_len = take_uvarint(bytes, &mut at)?;
        let min_key = K::decode(take(bytes, &mut at, min_len)?)?;
        let count = take_uvarint(bytes, &mut at)?;
        // A row is at least three bytes, so the block's own size bounds
        // the allocation whatever `count` claims.
        let mut index = Vec::with_capacity(count.min(bytes.len() as u64 / 3) as usize);
        for _ in 0..count {
            let key_len = take_uvarint(bytes, &mut at)?;
            let key = K::decode(take(bytes, &mut at, key_len)?)?;
            let offset = take_uvarint(bytes, &mut at)?;
            let len = take_uvarint(bytes, &mut at)?;
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
        with_scratch(key, |probe, _| self.filter.may_contain(bloom_hash(probe)))
    }

    /// Point lookup.  The caller is expected to have consulted
    /// [`Table::may_contain`]; a miss here after a filter hit is the
    /// bloom's false-positive case.
    pub fn get(&self, key: &K) -> io::Result<Option<Slot<V>>> {
        let block = self.index.partition_point(|(last, _, _)| last < key);
        if block == self.index.len() {
            return Ok(None);
        }
        with_scratch(key, |probe, iter| {
            self.read_block(block, iter)?;
            match iter.seek(probe)? {
                Some(entry) if entry.key == probe => entry
                    .slot()
                    .map(Some)
                    .ok_or_else(|| corrupt("bad data block")),
                _ => Ok(None),
            }
        })
    }

    /// Reads and checksum-verifies data block `block` into `iter`.
    fn read_block(&self, block: usize, iter: &mut BlockIter) -> io::Result<()> {
        let (_, offset, len) = self.index[block];
        iter.load(self.file.as_ref(), offset, len)
    }

    /// Opens a streaming cursor over `[lo, hi]` of this table: a sorted run
    /// of one (see [`Table::run_cursor`]).
    pub fn cursor(self: &Arc<Self>, lo: Bound<K>, hi: Bound<K>) -> TableCursor<'_, K, V> {
        Self::run_cursor(std::slice::from_ref(self), lo, hi)
    }

    /// Opens a streaming cursor over `[lo, hi]` of a *sorted run*: tables in
    /// ascending key order whose key ranges do not overlap — a level ≥ 1 of
    /// the engine, or any contiguous part of one.  The cursor finds its
    /// first table by binary search on the resident `max_key`s, opens the
    /// next one only when the one before it is exhausted, and holds one
    /// block at a time, so positioning it costs one block read however many
    /// tables the run has (none if the run ends below `lo` or begins above
    /// `hi`).
    pub fn run_cursor(run: &[Arc<Self>], lo: Bound<K>, hi: Bound<K>) -> TableCursor<'_, K, V> {
        debug_assert!(
            run.windows(2).all(|pair| pair[0].max_key < pair[1].min_key),
            "a run's tables must ascend without overlapping"
        );
        TableCursor {
            run,
            lo,
            hi,
            next_block: None,
            block: None,
            pending: None,
            finished: false,
            io_error: false,
            error_counter: None,
        }
    }

    /// First block that can contain a key satisfying `lo`.
    fn first_block_for(&self, lo: &Bound<K>) -> usize {
        first_reaching(&self.index, |(last, _, _)| last, lo)
    }
}

/// Index of the first of `parts` — ascending and disjoint, `last` giving
/// each one's largest key — that can hold a key satisfying `lo`: how a run
/// finds its table and a table its block, both from resident keys.
fn first_reaching<T, K: Ord>(parts: &[T], last: impl Fn(&T) -> &K, lo: &Bound<K>) -> usize {
    match lo {
        Bound::Unbounded => 0,
        Bound::Included(key) => parts.partition_point(|part| last(part) < key),
        Bound::Excluded(key) => parts.partition_point(|part| last(part) <= key),
    }
}

/// A forward streaming cursor over a sorted run of tables — one table
/// ([`Table::cursor`]) or a whole level ([`Table::run_cursor`]).
///
/// Yields `(K, Slot<V>)` — tombstones included, because both consumers
/// (the merged read path and compaction) need to see them.  A disk or
/// checksum error mid-stream ends the cursor early instead of panicking —
/// where it happened: the rest of the run is *not* streamed, so a consumer
/// never sees a run with a hole in it.  [`TableCursor::had_io_error`]
/// reports it, and cursors built with [`TableCursor::counted`] also bump a
/// shared error counter, so callers that cannot tolerate a silently short
/// stream (compaction) can detect and abort.
///
/// The block decoder comes from a small per-thread free list with the
/// first block the cursor loads and goes back when the cursor drops, so a
/// thread that has scanned before allocates no block or key buffer.
pub struct TableCursor<'a, K: IndexKey, V: IndexValue> {
    run: &'a [Arc<Table<K, V>>],
    lo: Bound<K>,
    hi: Bound<K>,
    /// `(table of the run, block in it)` to load next; `None` before the
    /// first `next` positions the cursor at `lo`.
    next_block: Option<(usize, usize)>,
    /// Decoder over the block being streamed, held from the first load on;
    /// its buffers are reused from block to block and cursor to cursor.
    block: Option<BlockIter>,
    /// The entry positioning landed on, not yet yielded.
    pending: Option<(K, Slot<V>)>,
    finished: bool,
    io_error: bool,
    error_counter: Option<&'a RelaxedCounter>,
}

fn typed<K: Persist, V: Persist>(entry: Entry<'_>) -> io::Result<(K, Slot<V>)> {
    K::decode(entry.key)
        .zip(entry.slot())
        .ok_or_else(|| corrupt("bad data block"))
}

impl<'a, K: IndexKey + Persist, V: IndexValue + Persist> TableCursor<'a, K, V> {
    /// Read failures additionally increment `errors` — the engine plugs its
    /// `io_errors` health counter in here so degraded media shows up in
    /// stats rather than vanishing.
    pub fn counted(mut self, errors: &'a RelaxedCounter) -> Self {
        self.error_counter = Some(errors);
        self
    }

    /// Whether any block read failed during this cursor's lifetime (the
    /// stream ended early at the failure point).
    pub fn had_io_error(&self) -> bool {
        self.io_error
    }

    /// Degrade, don't panic: the stream ends here and the failure is
    /// observable via had_io_error / the counter.
    fn fail(&mut self) {
        self.pending = None;
        self.finished = true;
        self.io_error = true;
        if let Some(counter) = self.error_counter {
            counter.incr();
        }
    }

    /// Loads block `block` of the run's table `table` and positions before
    /// its first entry.  `false`, with the stream ended: the run has no
    /// such table, the table lies wholly above `hi` (neither reads
    /// anything), or — after [`Self::fail`] — the block cannot be read.
    fn load_block(&mut self, table: usize, block: usize) -> bool {
        let source = self.run.get(table);
        let Some(source) = source.filter(|source| below_upper(&source.min_key, &self.hi)) else {
            self.next_block = Some((table, block));
            self.finished = true;
            return false;
        };
        self.next_block = Some(if block + 1 < source.index.len() {
            (table, block + 1)
        } else {
            (table + 1, 0)
        });
        let decoder = self.block.get_or_insert_with(take_decoder);
        let loaded = source.read_block(block, decoder).is_ok();
        if !loaded {
            self.fail();
        }
        loaded
    }

    /// The next entry of the loaded block; `None` at its end, and (after
    /// [`Self::fail`]) at a malformed entry.
    fn step(&mut self) -> Option<(K, Slot<V>)> {
        match self
            .block
            .as_mut()?
            .step()
            .and_then(|entry| entry.map(typed).transpose())
        {
            Ok(entry) => entry,
            Err(_) => {
                self.fail();
                None
            }
        }
    }

    /// Positions at the first entry satisfying `lo`; the first `next`
    /// runs it.
    fn position(&mut self) {
        let lo = self.lo;
        let table = first_reaching(self.run, |table| &table.max_key, &lo);
        let first_block = |table: &Arc<Table<K, V>>| table.first_block_for(&lo);
        let block = self.run.get(table).map_or(0, first_block);
        if !self.load_block(table, block) {
            return;
        }
        let (key, inclusive) = match &lo {
            Bound::Unbounded => return,
            Bound::Included(key) => (key, true),
            Bound::Excluded(key) => (key, false),
        };
        let decoder = self.block.as_mut().expect("`load_block` holds a decoder");
        let landed = with_scratch(key, |probe, _| {
            let entry = match decoder.seek(probe)? {
                Some(entry) if !inclusive && entry.key == probe => decoder.step()?,
                entry => entry,
            };
            entry.map(typed).transpose()
        });
        match landed {
            // `None`: the block ends below `lo`, the stream resumes in
            // the next one.
            Ok(entry) => self.pending = entry,
            Err(_) => self.fail(),
        }
    }
}

impl<K: IndexKey, V: IndexValue> Drop for TableCursor<'_, K, V> {
    fn drop(&mut self) {
        if let Some(decoder) = self.block.take() {
            park_decoder(decoder);
        }
    }
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> IndexCursor<K, Slot<V>>
    for TableCursor<'_, K, V>
{
    fn next(&mut self) -> Option<(K, Slot<V>)> {
        if self.next_block.is_none() {
            self.position();
        }
        while !self.finished {
            if let Some(entry) = self.pending.take().or_else(|| self.step()) {
                if !below_upper(&entry.0, &self.hi) {
                    self.finished = true;
                    return None;
                }
                return Some(entry);
            }
            // End of the block (or of the stream, if `step` failed); past
            // a table's last block the run's next table opens.
            match self.next_block {
                Some((table, block)) if !self.finished => {
                    self.load_block(table, block);
                }
                _ => self.finished = true,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultFs, StdFs};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

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
    fn cursor_scans_ranges_from_any_bound() {
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

        // Cursors opened between keys, at a key, past `hi` and past the
        // end of the table.
        let table = &table;
        let open = move |lo: u64| table.cursor(Bound::Included(lo), Bound::Included(900));
        let mut cursor = open(499);
        assert_eq!(cursor.next(), Some((500, Slot::Put(250))));
        assert_eq!(cursor.next(), Some((502, Slot::Put(251))));
        let mut cursor = open(898);
        assert_eq!(cursor.next(), Some((898, Slot::Put(449))));
        assert_eq!(cursor.next(), Some((900, Slot::Put(450))));
        assert_eq!(cursor.next(), None, "hi");
        assert_eq!(open(901).next(), None);
        assert_eq!(open(2000).next(), None);
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
        let errors = RelaxedCounter::new();
        let mut cursor = table
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .counted(&errors);
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

    // ---- In-memory fixtures for the format and decoder tests below ----

    fn mem_path() -> PathBuf {
        PathBuf::from("/t/table.sst")
    }

    /// Writes a table of `entries` to [`mem_path`] on `fs` and returns the
    /// file's bytes.
    fn write_table(
        fs: &FaultFs,
        options: TableOptions,
        entries: impl IntoIterator<Item = (u64, Slot<u64>)>,
    ) -> Vec<u8> {
        let mut builder: TableBuilder<u64, u64> =
            TableBuilder::create(fs, &mem_path(), options).unwrap();
        for (key, slot) in entries {
            builder.add(key, slot).unwrap();
        }
        builder.finish().unwrap();
        fs.live_contents(&mem_path()).unwrap()
    }

    /// Replaces the file at [`mem_path`] with `bytes` and opens it.
    fn open_bytes(fs: &FaultFs, bytes: &[u8]) -> io::Result<Arc<Table<u64, u64>>> {
        fs.create(&mem_path()).unwrap().append(bytes).unwrap();
        Table::open(fs, &mem_path(), 1).map(Arc::new)
    }

    fn drain(cursor: &mut TableCursor<'_, u64, u64>) -> Vec<(u64, Slot<u64>)> {
        std::iter::from_fn(|| cursor.next()).collect()
    }

    #[test]
    fn table_files_are_byte_identical_to_the_pinned_format() {
        // Length and whole-file CRC of the file a fixed input produces,
        // captured from the writer as it stood before the read path was
        // rebuilt around `BlockIter` and `crc32` went word-at-a-time.  A
        // directory written by any earlier build opens, scans and
        // point-reads under this one exactly as long as these hold.
        let entries = || {
            (0..3_000u64).map(|k| {
                let key = k * 7 + k % 5;
                if k % 11 == 0 {
                    (key, Slot::Tombstone)
                } else {
                    (key, Slot::Put(k ^ 0x5555_AAAA))
                }
            })
        };
        for (options, len, crc) in [
            (TableOptions::default(), 42_781, 0xCD22_D517u32),
            (small_options(), 52_708, 0xEE87_D245),
        ] {
            let bytes = write_table(&FaultFs::new(), options, entries());
            assert_eq!((bytes.len(), crc32(&bytes)), (len, crc), "{options:?}");
        }
    }

    /// `file` with its index block replaced by `index` (and the footer's
    /// index length to match).
    fn with_index(file: &[u8], index: &[u8]) -> Vec<u8> {
        let footer = &file[file.len() - FOOTER..];
        let index_offset = u64::from_le_bytes(footer[12..20].try_into().unwrap()) as usize;
        let mut out = file[..index_offset].to_vec();
        out.extend_from_slice(index);
        out.extend_from_slice(&footer[..20]);
        out.extend_from_slice(&(index.len() as u32).to_le_bytes());
        out.extend_from_slice(&footer[24..]);
        out
    }

    #[test]
    fn open_rejects_untrusted_lengths_without_overflowing() {
        // Index, filter and footer carry no checksum, so any length in
        // them can be anything: each must come back as InvalidData, never
        // as an arithmetic overflow or an allocation of that size.
        let fs = FaultFs::new();
        let file = write_table(&fs, small_options(), (0..100u64).map(|k| (k, Slot::Put(k))));
        let rejected = |bytes: &[u8], what: &str| {
            let error = open_bytes(&fs, bytes)
                .err()
                .unwrap_or_else(|| panic!("{what} opened"));
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{what}: {error}");
        };

        let mut huge_min_key = Vec::new();
        put_uvarint(&mut huge_min_key, u64::MAX);
        huge_min_key.extend_from_slice(&[0; 8]);
        rejected(&with_index(&file, &huge_min_key), "min-key length u64::MAX");

        let mut huge_row_key = Vec::new();
        put_uvarint(&mut huge_row_key, 8);
        huge_row_key.extend_from_slice(&[0; 8]);
        put_uvarint(&mut huge_row_key, 1);
        put_uvarint(&mut huge_row_key, u64::MAX);
        huge_row_key.extend_from_slice(&[0; 8]);
        rejected(&with_index(&file, &huge_row_key), "row key length u64::MAX");

        // A row whose extent runs past the data region (here: 4 GiB long).
        let mut huge_block = Vec::new();
        put_uvarint(&mut huge_block, 8);
        huge_block.extend_from_slice(&[0; 8]);
        put_uvarint(&mut huge_block, 1);
        put_uvarint(&mut huge_block, 8);
        huge_block.extend_from_slice(&99u64.to_be_bytes());
        put_uvarint(&mut huge_block, 0);
        put_uvarint(&mut huge_block, u64::from(u32::MAX));
        rejected(
            &with_index(&file, &huge_block),
            "block extent past the data",
        );

        let mut footer_overflow = file.clone();
        let footer = footer_overflow.len() - FOOTER;
        footer_overflow[footer..footer + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        rejected(&footer_overflow, "filter offset u64::MAX");
    }

    /// Buffer capacity the thread's point-read scratch holds.
    fn scratch_footprint() -> usize {
        SCRATCH.with(|scratch| scratch.borrow().block.footprint())
    }

    impl BlockIter {
        fn footprint(&self) -> usize {
            self.bytes.capacity() + self.key.capacity()
        }
    }

    #[test]
    fn corrupt_block_with_a_valid_checksum_never_panics_or_balloons() {
        // Flip every byte of one data block and *recompute the block's
        // CRC*, so the parser — not the checksum — is what stands between
        // the garbage and the caller.  Lookups and scans may fail, end
        // early or answer; they may not panic, loop, or grow a buffer
        // beyond a small multiple of the block.
        let fs = FaultFs::new();
        let entries: Vec<(u64, Slot<u64>)> = (0..400u64)
            .map(|k| match k % 6 {
                0 => (k * 300, Slot::Tombstone),
                _ => (k * 300, Slot::Put(k)),
            })
            .collect();
        let pristine = write_table(&fs, small_options(), entries.iter().copied());
        let clean = open_bytes(&fs, &pristine).unwrap();
        let victim = clean.blocks() / 2;
        let (last, offset, len) = clean.block_extent(victim);
        let (first, _, _) = clean.block_extent(victim - 1);
        let largest = (0..clean.blocks())
            .map(|block| clean.block_extent(block).2 as usize)
            .max()
            .unwrap();
        drop(clean);
        let keys: Vec<u64> = entries
            .iter()
            .map(|&(key, _)| key)
            .filter(|key| (first..=last).contains(key))
            .collect();
        assert!(keys.len() > 8, "the victim block must hold several windows");

        let body = offset as usize..(offset as usize + len as usize - BLOCK_CRC);
        for at in body.clone() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bytes = pristine.clone();
                bytes[at] ^= mask;
                let crc = crc32(&bytes[body.clone()]);
                bytes[body.end..body.end + BLOCK_CRC].copy_from_slice(&crc.to_le_bytes());
                let table = open_bytes(&fs, &bytes).unwrap();
                for key in &keys {
                    // Err, a miss or an answer: all acceptable.
                    let _ = table.get(key);
                    let _ = table.get(&(key + 1));
                }
                let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
                let streamed = drain(&mut cursor).len();
                assert!(streamed <= entries.len() + len as usize);
                let mut early = table.cursor(Bound::Excluded(keys[3]), Bound::Unbounded);
                let _ = early.next();
                let late_key = Bound::Included(keys[keys.len() - 2]);
                let mut late = table.cursor(late_key, Bound::Unbounded);
                let _ = late.next();
                for footprint in [
                    scratch_footprint(),
                    cursor.block.as_ref().map_or(0, BlockIter::footprint),
                    early.block.as_ref().map_or(0, BlockIter::footprint),
                    late.block.as_ref().map_or(0, BlockIter::footprint),
                ] {
                    assert!(
                        footprint <= 4 * largest,
                        "byte {at} ^ {mask:#x}: {footprint}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_order_entries_are_detected_as_they_are_stepped_over() {
        // One block of dense keys, restart interval 4: entries 1 and 2 of
        // the first window are both `shared 7, unshared 1` and 13 bytes
        // long, behind a 20-byte restart entry.  Swap them and re-seal the
        // block, so that it reads 0, 2, 1, 3 under a valid checksum.
        let fs = FaultFs::new();
        let options = TableOptions {
            restart_interval: 4,
            ..TableOptions::default()
        };
        let mut bytes = write_table(&fs, options, (0..16u64).map(|k| (k, Slot::Put(k))));
        let (_, offset, len) = open_bytes(&fs, &bytes).unwrap().block_extent(0);
        assert_eq!(offset, 0);
        let (first, second) = bytes[20..46].split_at_mut(13);
        first.swap_with_slice(second);
        let body = len as usize - BLOCK_CRC;
        let crc = crc32(&bytes[..body]);
        bytes[body..body + BLOCK_CRC].copy_from_slice(&crc.to_le_bytes());

        let table = open_bytes(&fs, &bytes).unwrap();
        // A lookup validates what it walks over, and only that.
        assert_eq!(table.get(&0).unwrap(), Some(Slot::Put(0)));
        assert_eq!(table.get(&9).unwrap(), Some(Slot::Put(9)));
        let error = table.get(&3).expect_err("walks over the swapped pair");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        // A cursor hands out what precedes the violation and stops there.
        let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(drain(&mut cursor), [(0, Slot::Put(0)), (2, Slot::Put(2))]);
        assert!(cursor.had_io_error());
    }

    // ---- Sorted runs: one cursor over several tables ----

    fn run_path(table: usize) -> PathBuf {
        PathBuf::from(format!("/t/run-{table}.sst"))
    }

    /// Writes one table per entry list to `fs` and opens them as a run.
    fn build_run(
        fs: &FaultFs,
        options: TableOptions,
        tables: &[Vec<(u64, Slot<u64>)>],
    ) -> Vec<Arc<Table<u64, u64>>> {
        let open = |(at, entries): (usize, &Vec<(u64, Slot<u64>)>)| {
            let mut builder: TableBuilder<u64, u64> =
                TableBuilder::create(fs, &run_path(at), options).unwrap();
            for &(key, slot) in entries {
                builder.add(key, slot).unwrap();
            }
            builder.finish().unwrap();
            Arc::new(Table::open(fs, &run_path(at), at as u64).unwrap())
        };
        tables.iter().enumerate().map(open).collect()
    }

    /// Four tables of 200 even keys each — `[0, 398]`, `[1000, 1398]`,
    /// `[2000, 2398]`, `[3000, 3398]` — a dozen blocks apiece.
    fn spaced_run(fs: &FaultFs) -> Vec<Arc<Table<u64, u64>>> {
        let table = |base: u64| (0..200).map(|k| (base + 2 * k, Slot::Put(k))).collect();
        let tables: Vec<Vec<_>> = [0, 1000, 2000, 3000].into_iter().map(table).collect();
        let run = build_run(fs, small_options(), &tables);
        assert!(run.iter().all(|table| table.blocks() > 4));
        run
    }

    #[test]
    fn run_cursor_opens_only_the_tables_it_reads() {
        let fs = FaultFs::new();
        let run = spaced_run(&fs);
        // What `next` yields first from `[lo, hi]`, and the block reads
        // that took.
        let first = |lo: Bound<u64>, hi: Bound<u64>| {
            let before = fs.read_count();
            let entry = Table::run_cursor(&run, lo, hi).next();
            (entry.map(|(key, _)| key), fs.read_count() - before)
        };
        let (unbounded, at, after) = (Bound::Unbounded, Bound::Included, Bound::Excluded);
        // One block positions the cursor wherever the start key falls:
        // inside a table, in the gap between two, on a table's last key.
        assert_eq!(first(unbounded, unbounded), (Some(0), 1));
        assert_eq!(first(at(2100), unbounded), (Some(2100), 1));
        assert_eq!(first(at(500), unbounded), (Some(1000), 1), "in a gap");
        assert_eq!(first(at(399), unbounded), (Some(1000), 1));
        assert_eq!(first(at(398), unbounded), (Some(398), 1));
        assert_eq!(first(after(398), unbounded), (Some(1000), 1), "max_key");
        assert_eq!(first(after(1396), unbounded), (Some(1398), 1));
        // Beyond the last table, or wholly above `hi`: nothing is read.
        assert_eq!(first(at(3399), unbounded), (None, 0));
        assert_eq!(first(after(3398), unbounded), (None, 0));
        assert_eq!(first(unbounded, after(0)), (None, 0));
        assert_eq!(first(at(400), at(999)), (None, 0), "a gap holds nothing");
        assert_eq!(first(at(400), at(1000)), (Some(1000), 1));
        assert_eq!(
            Table::run_cursor(&run[..0], unbounded, unbounded).next(),
            None
        );

        // A window ending on a table's last key, or in the gap behind it,
        // never opens the next table; one that crosses the gap does.
        let tail_blocks = run[0].blocks() - run[0].first_block_for(&at(390));
        for (hi, last, reads) in [
            (at(398), 398, tail_blocks),
            (at(700), 398, tail_blocks),
            (after(1000), 398, tail_blocks),
            (at(1000), 1000, tail_blocks + 1),
        ] {
            let before = fs.read_count();
            let mut cursor = Table::run_cursor(&run, at(390), hi);
            let window = drain(&mut cursor);
            assert_eq!(window.first().map(|entry| entry.0), Some(390));
            assert_eq!(window.last().map(|entry| entry.0), Some(last), "{hi:?}");
            assert_eq!(fs.read_count() - before, reads as u64, "{hi:?}");
        }

        // A full drain reads every block once and crosses every boundary.
        let before = fs.read_count();
        let mut cursor = Table::run_cursor(&run, unbounded, unbounded);
        let all: Vec<u64> = drain(&mut cursor).into_iter().map(|(key, _)| key).collect();
        let expected: Vec<u64> = [0, 1000, 2000, 3000]
            .into_iter()
            .flat_map(|base| (0..200).map(move |k| base + 2 * k))
            .collect();
        assert_eq!(all, expected);
        let blocks: usize = run.iter().map(|table| table.blocks()).sum();
        assert_eq!(fs.read_count() - before, blocks as u64);
        assert!(!cursor.had_io_error());
    }

    #[test]
    fn run_cursor_opens_across_table_boundaries() {
        let fs = FaultFs::new();
        let run = spaced_run(&fs);
        let run = &run[..];
        let open =
            move |lo: u64| Table::run_cursor(run, Bound::Included(lo), Bound::Included(3300));
        let mut cursor = open(2100);
        assert_eq!(cursor.next(), Some((2100, Slot::Put(50))));
        assert_eq!(cursor.next(), Some((2102, Slot::Put(51))));
        // At a table's tail, then on into the next table; over a gap.
        let mut cursor = open(396);
        assert_eq!(cursor.next(), Some((396, Slot::Put(198))));
        assert_eq!(cursor.next(), Some((398, Slot::Put(199))));
        assert_eq!(cursor.next(), Some((1000, Slot::Put(0))), "next table");
        assert_eq!(open(1399).next(), Some((2000, Slot::Put(0))), "over a gap");
        assert_eq!(open(1001).next(), Some((1002, Slot::Put(1))));
        // Past `hi` and past the run.
        let before = fs.read_count();
        let mut cursor = open(3302);
        assert_eq!(cursor.next(), None);
        assert_eq!(cursor.next(), None);
        assert_eq!(open(9000).next(), None);
        assert_eq!(fs.read_count() - before, 1, "only 3302 lies in a table");
        let mut cursor = open(3299);
        assert_eq!(cursor.next(), Some((3300, Slot::Put(150))));
        assert_eq!(cursor.next(), None, "hi");
    }

    #[test]
    fn a_failed_block_ends_the_run_where_it_happened() {
        let fs = FaultFs::new();
        let run = spaced_run(&fs);
        // Flip a byte in a middle block of the second table.  Open handles
        // keep the file they opened, so the table is opened again.
        let victim = run[1].blocks() / 2;
        let (_, offset, len) = run[1].block_extent(victim);
        let (last_good, _, _) = run[1].block_extent(victim - 1);
        let mut bytes = fs.live_contents(&run_path(1)).unwrap();
        bytes[offset as usize + (len as usize - BLOCK_CRC) / 2] ^= 0xFF;
        fs.create(&run_path(1)).unwrap().append(&bytes).unwrap();
        let reopened = Arc::new(Table::open(&fs, &run_path(1), 1).unwrap());
        let run = [run[0].clone(), reopened, run[2].clone(), run[3].clone()];

        let errors = RelaxedCounter::new();
        let mut cursor =
            Table::run_cursor(&run, Bound::Unbounded, Bound::Unbounded).counted(&errors);
        let streamed: Vec<u64> = drain(&mut cursor).into_iter().map(|(key, _)| key).collect();
        // Everything below the bad block, nothing of the run above it: the
        // cursor does not skip ahead to the third table.
        let expected: Vec<u64> = (0..200)
            .map(|k| 2 * k)
            .chain(
                (0..200)
                    .map(|k| 1000 + 2 * k)
                    .filter(|&key| key <= last_good),
            )
            .collect();
        assert_eq!(streamed, expected);
        assert!(cursor.had_io_error());
        assert_eq!(cursor.next(), None, "the cursor stays cleanly finished");
        assert_eq!(errors.get(), 1, "one failed load, one error");

        // Positioning straight into the bad block fails the same way, and
        // a cursor that starts behind it never meets it.
        let (bad_last, _, _) = run[1].block_extent(victim);
        let mut into =
            Table::run_cursor(&run, Bound::Included(bad_last), Bound::Unbounded).counted(&errors);
        assert_eq!((into.next(), errors.get()), (None, 2));
        let mut behind =
            Table::run_cursor(&run, Bound::Excluded(bad_last), Bound::Unbounded).counted(&errors);
        assert_eq!(
            drain(&mut behind).len(),
            200 - (bad_last - 1000) as usize / 2 - 1 + 400
        );
        assert_eq!(errors.get(), 2);
    }

    #[test]
    fn dropped_cursors_park_a_bounded_number_of_decoders() {
        let fs = FaultFs::new();
        let run = spaced_run(&fs);
        let parked = || SCRATCH.with(|scratch| scratch.borrow().parked.len());
        // Tests share threads: start from whatever is parked already.
        let mut cursors: Vec<_> = (0..2 * PARKED_DECODERS)
            .map(|_| Table::run_cursor(&run, Bound::Unbounded, Bound::Unbounded))
            .collect();
        for cursor in &mut cursors {
            assert_eq!(cursor.next(), Some((0, Slot::Put(0))));
        }
        assert_eq!(parked(), 0, "every parked decoder is on loan");
        // One that never loaded a block holds no decoder to give back.
        drop(Table::run_cursor(
            &run,
            Bound::Included(9_000),
            Bound::Unbounded,
        ));
        assert_eq!(parked(), 0);
        drop(cursors);
        assert_eq!(parked(), PARKED_DECODERS);
        // The next cursor streams through a parked decoder's buffers.
        let warm = SCRATCH.with(|scratch| scratch.borrow().parked.last().unwrap().footprint());
        let mut cursor = Table::run_cursor(&run, Bound::Unbounded, Bound::Unbounded);
        assert_eq!(drain(&mut cursor).len(), 800);
        assert_eq!(parked(), PARKED_DECODERS - 1);
        assert_eq!(cursor.block.as_ref().map(BlockIter::footprint), Some(warm));
    }

    /// Every `get` and every cursor stream of `table` against the oracle.
    fn check_against_oracle(
        table: &Arc<Table<u64, u64>>,
        oracle: &BTreeMap<u64, Slot<u64>>,
        interval: usize,
    ) -> Result<(), TestCaseError> {
        // Probe every present key, both neighbours of each (gap keys, and
        // below-min / above-max at the ends) ...
        let mut probes: Vec<u64> = oracle
            .keys()
            .flat_map(|&key| [key.saturating_sub(1), key, key.saturating_add(1)])
            .chain([0, u64::MAX])
            .collect();
        probes.dedup();
        for key in &probes {
            prop_assert_eq!(
                table.get(key).unwrap(),
                oracle.get(key).copied(),
                "get {}",
                key
            );
        }
        // ... and pick out the keys where the decoder changes gear: the
        // first and last entry of every block, and every restart point.
        let mut edges = Vec::new();
        let mut block_start = 0;
        for block in 0..table.blocks() {
            let (last, _, _) = table.block_extent(block);
            let in_block: Vec<u64> = oracle.range(block_start..=last).map(|(k, _)| *k).collect();
            edges.extend(in_block.iter().step_by(interval));
            edges.push(last);
            block_start = last + 1;
        }
        edges.sort_unstable();
        edges.dedup();

        let mut full = table.cursor(Bound::Unbounded, Bound::Unbounded);
        let all: Vec<(u64, Slot<u64>)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(drain(&mut full), all);

        for &edge in &edges {
            for key in [edge.saturating_sub(1), edge, edge.saturating_add(1)] {
                // Cursors opened at the key, bounded a few restarts on.
                let hi = key.saturating_add(5 * interval as u64);
                for (lo, hi) in [
                    (Bound::Included(key), Bound::Excluded(hi)),
                    (Bound::Excluded(key), Bound::Included(hi)),
                ] {
                    let expected: Vec<_> = oracle.range((lo, hi)).map(|(k, v)| (*k, *v)).collect();
                    let mut cursor = table.cursor(lo, hi);
                    prop_assert_eq!(drain(&mut cursor), expected, "range {:?}..{:?}", lo, hi);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `get` and cursors opened at every block edge agree with a
        /// `BTreeMap` for every restart interval and across block
        /// boundaries.
        #[test]
        fn block_iterator_agrees_with_a_btreemap(
            raw_keys in proptest::collection::btree_set(1u64..3_000, 1..300),
            stride in prop_oneof![0u64..1, 8u64..9, 33u64..34],
            interval in prop_oneof![1usize..2, 2usize..3, 4usize..5, 16usize..17],
            block_bytes in 24usize..400,
            salt in any::<u64>(),
        ) {
            // Strides spread the keys so that neighbours share anything
            // from seven encoded bytes down to three.
            let oracle: BTreeMap<u64, Slot<u64>> = raw_keys
                .iter()
                .map(|&raw| {
                    let slot = match (raw ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 {
                        0 => Slot::Tombstone,
                        _ => Slot::Put(raw ^ salt),
                    };
                    (raw << stride, slot)
                })
                .collect();
            let options = TableOptions {
                block_bytes,
                restart_interval: interval,
                bloom_bits_per_key: 10,
            };
            let fs = FaultFs::new();
            let bytes = write_table(&fs, options, oracle.iter().map(|(k, v)| (*k, *v)));
            let table = open_bytes(&fs, &bytes).unwrap();
            check_against_oracle(&table, &oracle, interval)?;
        }

        /// A run cursor over the same entries cut into several tables
        /// agrees with a `BTreeMap`: drains, windows with either kind of
        /// bound on either end at every table's first and last key ± 1.
        #[test]
        fn run_cursor_agrees_with_a_btreemap(
            raw_keys in proptest::collection::btree_set(1u64..3_000, 1..300),
            cuts in proptest::collection::vec(1usize..300, 0..5),
            block_bytes in 24usize..400,
            salt in any::<u64>(),
        ) {
            let oracle: BTreeMap<u64, Slot<u64>> = raw_keys
                .iter()
                .map(|&raw| {
                    let slot = match (raw ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 {
                        0 => Slot::Tombstone,
                        _ => Slot::Put(raw ^ salt),
                    };
                    (raw * 2, slot)
                })
                .collect();
            let entries: Vec<(u64, Slot<u64>)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().filter(|&cut| cut < entries.len()).collect();
            cuts.extend([0, entries.len()]);
            cuts.sort_unstable();
            cuts.dedup();
            let tables: Vec<Vec<_>> = cuts.windows(2).map(|cut| entries[cut[0]..cut[1]].to_vec()).collect();
            let options = TableOptions { block_bytes, restart_interval: 4, bloom_bits_per_key: 10 };
            let fs = FaultFs::new();
            let run = build_run(&fs, options, &tables);

            let mut full = Table::run_cursor(&run, Bound::Unbounded, Bound::Unbounded);
            prop_assert_eq!(drain(&mut full), entries);
            for edge in run.iter().flat_map(|table| [table.min_key, table.max_key]) {
                for key in [edge - 1, edge, edge + 1] {
                    for (lo, hi) in [
                        (Bound::Included(key), Bound::Unbounded),
                        (Bound::Excluded(key), Bound::Unbounded),
                        (Bound::Unbounded, Bound::Included(key)),
                        (Bound::Unbounded, Bound::Excluded(key)),
                        (Bound::Excluded(key), Bound::Included(key + 90)),
                        (Bound::Included(key.saturating_sub(90)), Bound::Excluded(key)),
                    ] {
                        let expected: Vec<_> = oracle.range((lo, hi)).map(|(k, v)| (*k, *v)).collect();
                        let mut cursor = Table::run_cursor(&run, lo, hi);
                        prop_assert_eq!(drain(&mut cursor), expected, "range {:?}..{:?}", lo, hi);
                    }
                }
            }
        }
    }
}
