//! The write-ahead log: length+CRC-framed record batches with
//! replay-on-open and torn-tail recovery.
//!
//! # Format
//!
//! A WAL segment is a flat sequence of frames:
//!
//! ```text
//! ┌──────────┬──────────┬────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len B)│   … repeated
//! └──────────┴──────────┴────────────────┘
//! ```
//!
//! `len` and `crc` are little-endian; `crc` is the [`crate::crc::crc32`] of
//! the payload.  A payload is one **write batch** — the group-commit unit:
//!
//! ```text
//! count: uvarint, then per operation:
//!   tag: u8 (0 = put, 1 = tombstone)
//!   key_len: uvarint, key bytes
//!   [value_len: uvarint, value bytes]   (puts only)
//! ```
//!
//! # Durability contract
//!
//! [`WalWriter::append`] hands the whole frame to one
//! [`StorageFile::append`] before the operation is acknowledged, so an
//! acknowledged write survives process death — and with
//! [`SyncPolicy::Always`] also power loss (`fdatasync` per append).  Over
//! [`crate::StdFs`] on 64-bit Linux that append is a copy into a shared
//! mapping of a reserved extent of the segment, which is the kernel page
//! cache just as a `write(2)` would be; elsewhere it is one `write(2)`.
//!
//! A segment written through a mapping runs on into up to 64 KiB of
//! zeros past its last frame until the writer syncs or drops, so after
//! process death a live segment can end in zeros.  No frame starts with
//! eight zero bytes — a payload is never empty, and [`WalWriter`] refuses
//! one — so recovery ([`read_segment`]) reads frames up to the first
//! all-zero frame header, or to the first torn or corrupt frame — a short
//! header, a length running past EOF, or a CRC mismatch — and reports the
//! byte length of the valid prefix.  Zeros to the end of the file are a
//! clean end; anything else after the valid prefix is a torn tail.  The
//! engine truncates the segment there and resumes appending, which is
//! exactly the "lose nothing acknowledged, tolerate a torn tail"
//! guarantee the crash tests assert.
//!
//! All file access goes through the [`Storage`] trait, so the same code
//! runs over the real filesystem ([`crate::StdFs`]) and the
//! fault-injecting in-memory one ([`crate::FaultFs`]).

use std::borrow::Borrow;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec::{get_uvarint, put_uvarint, Persist};
use crate::crc::crc32;
use crate::storage::{Storage, StorageFile};

/// Frame header size: `len: u32` + `crc: u32`.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single record payload (a defence against interpreting
/// garbage as a gigantic length and allocating for it).
const MAX_RECORD: u32 = 1 << 30;

/// One logical operation inside a WAL batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp<K, V> {
    /// An upsert of `key → value`.
    Put {
        /// Key written.
        key: K,
        /// Value written.
        value: V,
    },
    /// A deletion marker for `key`.
    Delete {
        /// Key deleted.
        key: K,
    },
}

/// Serializes a batch of operations into a WAL payload.
pub fn encode_batch<K: Persist, V: Persist>(ops: &[WalOp<K, V>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 20 + 4);
    encode_batch_into(&mut out, ops.iter());
    out
}

/// Appends the payload of the batch `ops` to `out`, allocating nothing
/// once `out` has the capacity.  The iterator is walked twice: a payload
/// leads with its operation count.
fn encode_batch_into<K: Persist, V: Persist>(
    out: &mut Vec<u8>,
    ops: impl Iterator<Item = impl Borrow<WalOp<K, V>>> + Clone,
) {
    // A length prefix precedes the bytes it counts, and `encoded_len` is
    // a constant for the fixed-width types; the recovery path depends on
    // the two agreeing, so a `Persist` impl that breaks its contract stops
    // here and not at replay.
    fn put_field<T: Persist>(out: &mut Vec<u8>, field: &T) {
        let len = field.encoded_len();
        put_uvarint(out, len as u64);
        let start = out.len();
        field.encode(out);
        assert_eq!(out.len() - start, len, "Persist::encoded_len disagrees");
    }
    put_uvarint(out, ops.clone().count() as u64);
    for op in ops {
        match op.borrow() {
            WalOp::Put { key, value } => {
                out.push(0);
                put_field(out, key);
                put_field(out, value);
            }
            WalOp::Delete { key } => {
                out.push(1);
                put_field(out, key);
            }
        }
    }
}

/// Deserializes a WAL payload back into its operations; `None` on any
/// malformation (recovery treats the record as corrupt).
pub fn decode_batch<K: Persist, V: Persist>(payload: &[u8]) -> Option<Vec<WalOp<K, V>>> {
    let (count, mut at) = get_uvarint(payload)?;
    let mut ops = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let tag = *payload.get(at)?;
        at += 1;
        let (key_len, used) = get_uvarint(payload.get(at..)?)?;
        at += used;
        let key_bytes = payload.get(at..at + key_len as usize)?;
        at += key_len as usize;
        let key = K::decode(key_bytes)?;
        match tag {
            0 => {
                let (value_len, used) = get_uvarint(payload.get(at..)?)?;
                at += used;
                let value_bytes = payload.get(at..at + value_len as usize)?;
                at += value_len as usize;
                ops.push(WalOp::Put {
                    key,
                    value: V::decode(value_bytes)?,
                });
            }
            1 => ops.push(WalOp::Delete { key }),
            _ => return None,
        }
    }
    // Trailing garbage means the payload was not produced by encode_batch.
    (at == payload.len()).then_some(ops)
}

/// When the WAL forces its appends to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never `fdatasync`: acknowledged writes survive process crashes (the
    /// kernel holds them) but not power loss.  The benchmark default.
    #[default]
    Never,
    /// `fdatasync` after every append: acknowledged writes survive power
    /// loss at the cost of a device flush per group commit.
    Always,
}

/// Appending writer over one WAL segment.
pub struct WalWriter {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    bytes: u64,
    records: u64,
    sync: SyncPolicy,
    frame: Vec<u8>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .field("records", &self.records)
            .field("sync", &self.sync)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Creates a fresh segment at `path` (truncating any existing file).
    pub fn create(storage: &dyn Storage, path: &Path, sync: SyncPolicy) -> io::Result<Self> {
        let file = storage.create(path)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            bytes: 0,
            records: 0,
            sync,
            frame: Vec::new(),
        })
    }

    /// Opens an existing segment for appending after recovery: the file is
    /// truncated to `valid_len` (dropping a torn tail) and appends resume
    /// from there.
    pub fn open_for_append(
        storage: &dyn Storage,
        path: &Path,
        valid_len: u64,
        sync: SyncPolicy,
    ) -> io::Result<Self> {
        let file = storage.open_append(path, valid_len)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            bytes: valid_len,
            records: 0,
            sync,
            frame: Vec::new(),
        })
    }

    /// Appends one framed record; the operation is acknowledged when this
    /// returns.  Returns the frame size in bytes.  An empty `payload` is
    /// an [`io::ErrorKind::InvalidInput`] error: its frame would be eight
    /// zero bytes, which replay reads as the end of the segment.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.append_with(|frame| frame.extend_from_slice(payload))
    }

    /// [`WalWriter::append`] of the batch `ops`, encoded straight into
    /// the writer's frame buffer: a warm writer allocates nothing.
    pub fn append_ops<K: Persist, V: Persist>(
        &mut self,
        ops: impl Iterator<Item = impl Borrow<WalOp<K, V>>> + Clone,
    ) -> io::Result<u64> {
        self.append_with(|frame| encode_batch_into(frame, ops))
    }

    /// Frames whatever `payload` appends to the (reused) frame buffer
    /// behind a header that is back-filled, and writes the frame out.
    fn append_with(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        self.frame.clear();
        self.frame.extend_from_slice(&[0; FRAME_HEADER]);
        payload(&mut self.frame);
        let (header, payload) = self.frame.split_at_mut(FRAME_HEADER);
        if payload.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty WAL record",
            ));
        }
        assert!(
            payload.len() as u64 <= MAX_RECORD as u64,
            "oversized record"
        );
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        // One append per frame: a crash can tear the tail frame but can
        // never interleave two frames.
        self.file.append(&self.frame)?;
        if self.sync == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        self.bytes += self.frame.len() as u64;
        self.records += 1;
        Ok(self.frame.len() as u64)
    }

    /// Total bytes in the segment (including recovered ones).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended through this writer (excluding recovered ones).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The result of scanning one WAL segment.
#[derive(Debug)]
pub struct SegmentScan {
    /// Every record payload in the valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (truncate the file here to drop a
    /// torn tail).
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was detected after the valid prefix
    /// (zeros to the end of the file are not one).
    pub torn_tail: bool,
}

/// Reads a segment, stopping at the first all-zero frame header or the
/// first torn or corrupt frame.
pub fn read_segment(storage: &dyn Storage, path: &Path) -> io::Result<SegmentScan> {
    let bytes = storage.read(path)?;
    let mut records = Vec::new();
    let mut at = 0usize;
    let torn_tail = loop {
        let rest = &bytes[at..];
        if rest[..rest.len().min(FRAME_HEADER)].iter().all(|&b| b == 0) {
            // The end of the file, or of the frames: what follows is the
            // zero tail of a reserved extent, torn only if not all zero.
            break rest.iter().any(|&b| b != 0);
        }
        if rest.len() < FRAME_HEADER {
            break true;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..FRAME_HEADER].try_into().unwrap());
        if len > MAX_RECORD || rest.len() - FRAME_HEADER < len as usize {
            break true;
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len as usize];
        if crc32(payload) != crc {
            break true;
        }
        records.push(payload.to_vec());
        at += FRAME_HEADER + len as usize;
    };
    Ok(SegmentScan {
        records,
        valid_len: at as u64,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultFs, StdFs};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bskip-wal-test-{}-{n}-{tag}.log",
            std::process::id()
        ))
    }

    #[test]
    fn batch_round_trips() {
        let ops: Vec<WalOp<u64, u64>> = vec![
            WalOp::Put { key: 1, value: 10 },
            WalOp::Delete { key: 2 },
            WalOp::Put {
                key: u64::MAX,
                value: 0,
            },
        ];
        let payload = encode_batch(&ops);
        assert_eq!(decode_batch::<u64, u64>(&payload), Some(ops));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert_eq!(decode_batch::<u64, u64>(&[]), None);
        let payload = encode_batch::<u64, u64>(&[WalOp::Put { key: 1, value: 2 }]);
        // Truncations at every length must fail, not panic.
        for cut in 1..payload.len() {
            assert_eq!(decode_batch::<u64, u64>(&payload[..cut]), None, "cut {cut}");
        }
        // Trailing garbage is rejected.
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(decode_batch::<u64, u64>(&padded), None);
        // Unknown tags are rejected.
        let mut bad_tag = payload;
        bad_tag[1] = 9;
        assert_eq!(decode_batch::<u64, u64>(&bad_tag), None);
    }

    #[test]
    fn writer_and_reader_round_trip() {
        let path = temp_path("roundtrip");
        let mut writer = WalWriter::create(&StdFs, &path, SyncPolicy::Never).unwrap();
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; (i as usize) * 7 + 1]).collect();
        for payload in &payloads {
            writer.append(payload).unwrap();
        }
        assert_eq!(writer.records(), 20);
        let scan = read_segment(&StdFs, &path).unwrap();
        assert_eq!(scan.records, payloads);
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, writer.bytes());
        // A dropped writer leaves the file exactly as long as its frames.
        let bytes = writer.bytes();
        drop(writer);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frames_followed_by_zeros_end_cleanly() {
        let fs = FaultFs::new();
        let frames_path = PathBuf::from("/db/frames.log");
        let mut writer = WalWriter::create(&fs, &frames_path, SyncPolicy::Never).unwrap();
        let payloads: Vec<Vec<u8>> = (1..=5u8).map(|i| vec![i; 3 * i as usize]).collect();
        for payload in &payloads {
            writer.append(payload).unwrap();
        }
        let frames = fs.live_contents(&frames_path).unwrap();
        let scan_of = |tail: &[u8]| {
            let path = PathBuf::from("/db/tail.log");
            let mut file = fs.create(&path).unwrap();
            file.append(&frames).unwrap();
            file.append(tail).unwrap();
            read_segment(&fs, &path).unwrap()
        };
        // Zeros of any length — none, a partial header, a whole one, a
        // reserved extent's worth — end the segment after its last frame.
        for zeros in [0, 1, FRAME_HEADER - 1, FRAME_HEADER, 100, 64 << 10] {
            let scan = scan_of(&vec![0; zeros]);
            assert_eq!(scan.records, payloads, "{zeros} zeros");
            assert_eq!(scan.valid_len, frames.len() as u64, "{zeros} zeros");
            assert!(!scan.torn_tail, "{zeros} zeros are a clean end");
        }
        // A non-zero byte anywhere in the zeros makes the tail torn, and
        // still loses no frame before it.
        for (zeros, flip) in [(100, 0), (100, FRAME_HEADER), (100, 99), (64 << 10, 40_000)] {
            let mut tail = vec![0; zeros];
            tail[flip] = 1;
            let scan = scan_of(&tail);
            assert_eq!(scan.records, payloads, "byte {flip} of {zeros}");
            assert_eq!(
                scan.valid_len,
                frames.len() as u64,
                "byte {flip} of {zeros}"
            );
            assert!(scan.torn_tail, "byte {flip} of {zeros} is a torn tail");
        }
    }

    #[test]
    fn an_empty_record_is_refused() {
        let fs = FaultFs::new();
        let path = PathBuf::from("/db/wal-00000001.log");
        let mut writer = WalWriter::create(&fs, &path, SyncPolicy::Never).unwrap();
        writer.append(b"one").unwrap();
        let (bytes, writes) = (writer.bytes(), fs.write_count());
        let error = writer.append(&[]).expect_err("an empty record");
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
        // Nothing reached the file, and the writer goes on.
        assert_eq!((writer.bytes(), writer.records()), (bytes, 1));
        assert_eq!(fs.write_count(), writes);
        writer.append(b"two").unwrap();
        let scan = read_segment(&fs, &path).unwrap();
        assert_eq!(scan.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!scan.torn_tail);
    }

    #[test]
    fn torn_tail_is_detected_and_recovery_resumes() {
        let path = temp_path("torn");
        let mut writer = WalWriter::create(&StdFs, &path, SyncPolicy::Never).unwrap();
        for i in 0..10u64 {
            writer.append(&i.to_le_bytes()).unwrap();
        }
        let full = writer.bytes();
        drop(writer);
        // Tear the file at every byte boundary inside the last frame: the
        // first nine records must always survive.
        for cut in (full - 15)..full {
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(cut).unwrap();
            drop(file);
            let scan = read_segment(&StdFs, &path).unwrap();
            assert!(scan.torn_tail, "cut at {cut} must report a torn tail");
            assert_eq!(scan.records.len(), 9, "cut at {cut}");
            assert_eq!(scan.valid_len, full - 16);
            // Appending after truncation to the valid prefix produces a
            // clean segment again.
            let mut writer =
                WalWriter::open_for_append(&StdFs, &path, scan.valid_len, SyncPolicy::Never)
                    .unwrap();
            writer.append(b"recovered").unwrap();
            let rescan = read_segment(&StdFs, &path).unwrap();
            assert!(!rescan.torn_tail);
            assert_eq!(rescan.records.len(), 10);
            assert_eq!(rescan.records[9], b"recovered");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_previous_record() {
        let path = temp_path("corrupt");
        let mut writer = WalWriter::create(&StdFs, &path, SyncPolicy::Never).unwrap();
        let mut offsets = vec![0u64];
        for i in 0..5u64 {
            writer.append(&[i as u8; 32]).unwrap();
            offsets.push(writer.bytes());
        }
        drop(writer);
        // Flip one payload byte in record 3: records 0..3 replay, 3+ do not.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = offsets[3] as usize + FRAME_HEADER;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_segment(&StdFs, &path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, offsets[3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_always_appends() {
        let path = temp_path("sync");
        let mut writer = WalWriter::create(&StdFs, &path, SyncPolicy::Always).unwrap();
        writer.append(b"durable").unwrap();
        let scan = read_segment(&StdFs, &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_over_fault_fs_loses_only_unsynced_tail() {
        let fs = FaultFs::new();
        let path = PathBuf::from("/db/wal-00000001.log");
        let mut writer = WalWriter::create(&fs, &path, SyncPolicy::Always).unwrap();
        writer.append(b"one").unwrap();
        writer.append(b"two").unwrap();
        // Third append lands in memory only: SyncPolicy::Always syncs it,
        // so sabotage the sync.
        fs.fail_nth_sync(1, io::ErrorKind::Other);
        assert!(writer.append(b"three").is_err());
        fs.reboot();
        let scan = read_segment(&fs, &path).unwrap();
        assert_eq!(scan.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(
            !scan.torn_tail,
            "whole-frame loss at reboot, not a torn frame"
        );
    }

    #[test]
    fn torn_write_across_reboot_recovers_valid_prefix() {
        let fs = FaultFs::new();
        let path = PathBuf::from("/db/wal-00000001.log");
        let mut writer = WalWriter::create(&fs, &path, SyncPolicy::Never).unwrap();
        writer.append(b"alpha").unwrap();
        // Tear the second frame eight bytes in (header only, no payload).
        fs.torn_nth_write(1, FRAME_HEADER);
        assert!(writer.append(b"beta").is_err());
        // Pretend the kernel flushed the torn image before the machine died.
        fs.sync_all_files();
        fs.reboot();
        let scan = read_segment(&fs, &path).unwrap();
        assert!(scan.torn_tail, "partial frame must be detected");
        assert_eq!(scan.records, vec![b"alpha".to_vec()]);
        // Recovery resumes on the truncated prefix.
        let mut writer =
            WalWriter::open_for_append(&fs, &path, scan.valid_len, SyncPolicy::Never).unwrap();
        writer.append(b"gamma").unwrap();
        let rescan = read_segment(&fs, &path).unwrap();
        assert!(!rescan.torn_tail);
        assert_eq!(rescan.records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
    }

    #[test]
    fn append_ops_writes_the_frame_append_does() {
        // The engine logs through `append_ops`; the pinned frame below
        // goes through `encode_batch` + `append`.  Same bytes, batch after
        // batch through one reused buffer (long after short after empty).
        let fs = FaultFs::new();
        let paths = [PathBuf::from("/db/a.log"), PathBuf::from("/db/b.log")];
        let mut by_payload = WalWriter::create(&fs, &paths[0], SyncPolicy::Never).unwrap();
        let mut by_ops = WalWriter::create(&fs, &paths[1], SyncPolicy::Never).unwrap();
        let batches: [Vec<WalOp<u64, u64>>; 4] = [
            vec![WalOp::Put { key: 7, value: 70 }],
            (0..200)
                .map(|key| WalOp::Put { key, value: !key })
                .collect(),
            vec![],
            vec![
                WalOp::Delete { key: u64::MAX },
                WalOp::Put { key: 0, value: 0 },
            ],
        ];
        for batch in &batches {
            let frame = by_payload.append(&encode_batch(batch)).unwrap();
            assert_eq!(by_ops.append_ops(batch.iter()).unwrap(), frame);
        }
        assert_eq!(by_ops.bytes(), by_payload.bytes());
        assert_eq!(fs.live_contents(&paths[1]), fs.live_contents(&paths[0]));
        let scan = read_segment(&fs, &paths[1]).unwrap();
        let replayed: Vec<_> = scan
            .records
            .iter()
            .map(|r| decode_batch(r).unwrap())
            .collect();
        assert_eq!(replayed, batches);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // The frame a fixed batch produces, captured before `crc32` went
        // word-at-a-time: segments written by earlier builds replay under
        // this one, and the other way round, as long as this holds.
        let fs = FaultFs::new();
        let path = PathBuf::from("/db/wal-golden.log");
        let mut writer = WalWriter::create(&fs, &path, SyncPolicy::Never).unwrap();
        let ops: Vec<WalOp<u64, u64>> = vec![
            WalOp::Put { key: 1, value: 10 },
            WalOp::Delete { key: 2 },
            WalOp::Put {
                key: u64::MAX,
                value: 0xDEAD_BEEF,
            },
        ];
        writer.append(&encode_batch(&ops)).unwrap();
        let frame = fs.live_contents(&path).unwrap();
        assert_eq!(frame[..FRAME_HEADER], [49, 0, 0, 0, 40, 137, 213, 207]);
        assert_eq!((frame.len(), crc32(&frame)), (57, 0x53A7_435F));
    }
}
