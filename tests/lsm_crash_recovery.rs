//! Crash-recovery tests for the LSM engine: reopen-after-kill must restore
//! exactly the acknowledged prefix of operations, and a torn WAL tail must
//! recover cleanly up to the last valid record.
//!
//! Most tests simulate the kill with `std::mem::forget`: the engine is
//! abandoned with no clean shutdown — no rotation, no flush, no manifest
//! commit, no file close.  Every acknowledged write is already in the
//! kernel page cache (the WAL writer hands each record to the file before
//! the operation returns: on 64-bit Linux as a copy into a shared mapping
//! of a reserved extent, elsewhere as one `write(2)`), which is exactly
//! the durability class `SyncPolicy::Never` promises: survives process
//! death, not power loss.  A forgotten engine's mapping stays alive in the
//! test process, so `process_death_keeps_every_acknowledged_operation`
//! kills a real one: it runs this binary again as a child that aborts.
//!
//! A live WAL segment ends in the zeros of its reservation, so the tests
//! that damage a segment aim inside the frames (`valid_len`), not at the
//! file's length.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bskip_suite::{ConcurrentIndex, LsmConfig, LsmEngine, Op};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bskip-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A tiny-memtable config with maintenance under test control, so kills
/// can land while un-flushed immutable memtables still ride on old WAL
/// segments.
fn config() -> LsmConfig {
    LsmConfig {
        auto_maintain: false,
        ..LsmConfig::small()
    }
}

/// The engine's one WAL segment.
fn live_wal(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list engine dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("wal-"))
        })
        .collect();
    assert_eq!(wals.len(), 1, "no rotation happened: one live segment");
    wals.pop().expect("live WAL segment")
}

/// The frames of a WAL segment, per the crate's own reader: how many
/// records they hold and where they end.
fn frames(wal_path: &Path) -> (u64, u64) {
    let scan = bskip_lsm::wal::read_segment(&bskip_lsm::StdFs, wal_path).expect("scan segment");
    (scan.records.len() as u64, scan.valid_len)
}

fn full_scan(engine: &LsmEngine<u64, u64>) -> Vec<(u64, u64)> {
    engine
        .scan_bounds(Bound::Unbounded, Bound::Unbounded)
        .collect()
}

/// Randomized op stream, killed mid-stream at an arbitrary point: the
/// reopened engine must hold *exactly* the acknowledged prefix — every
/// operation that returned, nothing that didn't happen.  The stream mixes
/// single puts/deletes, group-committed `execute` batches, rotations
/// (sealing the memtable onto an old WAL segment) and partial maintenance,
/// so replay crosses WAL segments, immutable memtables and SSTables.
#[test]
fn reopen_after_kill_restores_the_acknowledged_prefix() {
    for seed in 0..8u64 {
        let dir = scratch("kill");
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();

        let engine = LsmEngine::<u64, u64>::open(&dir, config()).expect("open engine");
        let total_ops = rng.gen_range(50..1_500);
        let kill_at = rng.gen_range(1..=total_ops);
        for at in 0..kill_at {
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let key = rng.gen_range(0..400u64);
                    let value = rng.gen();
                    assert_eq!(engine.insert(key, value), oracle.insert(key, value));
                }
                55..=69 => {
                    let key = rng.gen_range(0..400u64);
                    assert_eq!(engine.remove(&key), oracle.remove(&key));
                }
                70..=89 => {
                    // A group-committed batch: one WAL record, atomic in
                    // the log; once `execute` returns it is acknowledged
                    // as a unit.
                    let mut batch: Vec<Op<u64, u64>> = (0..rng.gen_range(1..32))
                        .map(|_| {
                            let key = rng.gen_range(0..400u64);
                            if rng.gen_bool(0.25) {
                                Op::remove(key)
                            } else {
                                Op::insert(key, rng.gen())
                            }
                        })
                        .collect();
                    engine.execute(&mut batch);
                    for op in &batch {
                        match op {
                            Op::Insert { key, value, .. } => {
                                oracle.insert(*key, *value);
                            }
                            Op::Remove { key, .. } => {
                                oracle.remove(key);
                            }
                            _ => unreachable!("only mutations are issued"),
                        }
                    }
                }
                90..=95 => engine.rotate().expect("rotate"),
                _ => {
                    if at % 2 == 0 {
                        engine.maintain().expect("maintain");
                    } else {
                        engine.flush().expect("flush one immutable");
                    }
                }
            }
        }

        // The kill: no shutdown path of any kind runs.
        std::mem::forget(engine);

        let reopened = LsmEngine::<u64, u64>::open(&dir, config()).expect("recover engine");
        let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            full_scan(&reopened),
            expected,
            "seed {seed}: recovered contents must equal the acknowledged prefix"
        );
        assert_eq!(reopened.len(), oracle.len(), "seed {seed}: live key count");
        for (key, value) in oracle.iter().take(64) {
            assert_eq!(reopened.get(key), Some(*value), "seed {seed}: key {key}");
        }

        // The recovered engine keeps working (its WAL resumed at the
        // replayed tail) and survives a *second* kill.
        reopened.insert(9_999, 42);
        oracle.insert(9_999, 42);
        std::mem::forget(reopened);
        let again = LsmEngine::<u64, u64>::open(&dir, config()).expect("recover twice");
        assert_eq!(
            again.get(&9_999),
            Some(42),
            "seed {seed}: post-recovery write"
        );
        assert_eq!(again.len(), oracle.len(), "seed {seed}: second recovery");
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn-tail recovery: the WAL is truncated at a random byte of its
/// frames (a crash mid-append), and the engine must come back cleanly
/// with exactly the records whose complete, CRC-valid frames survived —
/// verified against the WAL reader's own record count, then exercised
/// with fresh writes.
#[test]
fn torn_wal_tail_recovers_to_the_last_valid_record() {
    for seed in 0..8u64 {
        let dir = scratch("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = SmallRng::seed_from_u64(0x7EA2 ^ seed);

        // Plain sequential inserts: record i is exactly one WAL frame, so
        // "replayed r records" must mean "keys 0..r are present".  A
        // roomy memtable keeps everything in one un-rotated WAL segment
        // (the tiny `config()` would rotate mid-load and split the log).
        let records = rng.gen_range(16..256u64);
        let single_segment = LsmConfig {
            auto_maintain: false,
            ..LsmConfig::default()
        };
        let engine = LsmEngine::<u64, u64>::open(&dir, single_segment).expect("open engine");
        for i in 0..records {
            engine.insert(i, i * 3);
        }
        std::mem::forget(engine);

        // Tear the live WAL segment at a random byte offset inside its
        // frames (past them are only the zeros of its reservation).
        let wal_path = live_wal(&dir);
        let (framed, valid_len) = frames(&wal_path);
        assert_eq!(framed, records, "every insert is one frame");
        let torn_len = rng.gen_range(0..valid_len);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .expect("open WAL for truncation");
        file.set_len(torn_len).expect("tear the WAL tail");
        drop(file);

        // How many complete frames survived, per the crate's own reader.
        let survived = bskip_lsm::wal::read_segment(&bskip_lsm::StdFs, &wal_path)
            .expect("scan torn segment")
            .records
            .len() as u64;
        assert!(survived <= records);

        let reopened = LsmEngine::<u64, u64>::open(&dir, config()).expect("recover torn engine");
        assert_eq!(
            reopened.len(),
            survived as usize,
            "seed {seed}: torn at {torn_len}/{valid_len} must keep the valid prefix"
        );
        for i in 0..records {
            let expected = (i < survived).then_some(i * 3);
            assert_eq!(reopened.get(&i), expected, "seed {seed}: key {i}");
        }

        // The truncated segment was resumed in place: new writes append
        // after the valid prefix and survive another reopen.
        reopened.insert(records + 1, 7);
        drop(reopened);
        let again = LsmEngine::<u64, u64>::open(&dir, config()).expect("reopen after resume");
        assert_eq!(again.get(&(records + 1)), Some(7), "seed {seed}");
        assert_eq!(again.len(), survived as usize + 1, "seed {seed}");
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Corrupting bytes *inside* the valid region (not just truncating) must
/// also stop replay at the last intact frame rather than crash or replay
/// garbage — the CRC, not the length field, is the arbiter.
#[test]
fn corrupt_wal_bytes_stop_replay_at_the_last_intact_frame() {
    let dir = scratch("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = LsmEngine::<u64, u64>::open(&dir, config()).expect("open engine");
    for i in 0..64u64 {
        engine.insert(i, i);
    }
    std::mem::forget(engine);

    let wal_path = live_wal(&dir);
    // Flip one byte two-thirds of the way into the frames.
    let (framed, valid_len) = frames(&wal_path);
    assert_eq!(framed, 64, "every insert is one frame");
    let mut bytes = std::fs::read(&wal_path).expect("read WAL");
    let victim = valid_len as usize * 2 / 3;
    bytes[victim] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).expect("write corrupted WAL");

    let survived = bskip_lsm::wal::read_segment(&bskip_lsm::StdFs, &wal_path)
        .expect("scan corrupted segment")
        .records
        .len() as u64;
    assert!(survived < 64, "the flipped byte must invalidate its frame");

    let reopened = LsmEngine::<u64, u64>::open(&dir, config()).expect("recover corrupted engine");
    assert_eq!(reopened.len(), survived as usize);
    for i in 0..survived {
        assert_eq!(reopened.get(&i), Some(i));
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A byte flipped in the zeros past a live segment's frames — its
/// reservation, where no frame was ever written — loses no record: replay
/// reports a torn tail after the last frame, and the engine resumes the
/// segment there.
#[test]
fn a_flipped_byte_in_the_reservation_loses_no_record() {
    let dir = scratch("reserved");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = LsmEngine::<u64, u64>::open(&dir, config()).expect("open engine");
    for i in 0..64u64 {
        engine.insert(i, i);
    }
    std::mem::forget(engine);

    let wal_path = live_wal(&dir);
    let (framed, valid_len) = frames(&wal_path);
    assert_eq!(framed, 64, "every insert is one frame");
    let mut bytes = std::fs::read(&wal_path).expect("read WAL");
    if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        assert!(
            bytes.len() as u64 > valid_len,
            "a killed writer leaves its reservation"
        );
    } else {
        // Appends are not mapped here: give the segment a zero tail.
        bytes.resize(bytes.len() + 4_096, 0);
    }
    let victim = (valid_len as usize + bytes.len()) / 2;
    assert_eq!(bytes[victim], 0, "the reservation is zeros");
    bytes[victim] = 0x5A;
    std::fs::write(&wal_path, &bytes).expect("write flipped WAL");

    let scan = bskip_lsm::wal::read_segment(&bskip_lsm::StdFs, &wal_path).expect("scan");
    assert_eq!(
        (scan.records.len(), scan.valid_len),
        (64, valid_len),
        "every frame is read"
    );
    assert!(
        scan.torn_tail,
        "a non-zero byte after the frames is a torn tail"
    );

    let reopened = LsmEngine::<u64, u64>::open(&dir, config()).expect("recover engine");
    assert_eq!(reopened.len(), 64);
    for i in 0..64u64 {
        assert_eq!(reopened.get(&i), Some(i));
    }
    // The segment was cut back to its frames: a new write lands after
    // them and survives another reopen.
    reopened.insert(64, 64);
    drop(reopened);
    let again = LsmEngine::<u64, u64>::open(&dir, config()).expect("reopen after resume");
    assert_eq!(again.len(), 65);
    assert_eq!(again.get(&64), Some(64));
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where `process_death_keeps_every_acknowledged_operation` and its child
/// process meet: named after the parent's process id.
#[cfg(unix)]
fn abort_dir(parent: u32) -> PathBuf {
    std::env::temp_dir().join(format!("bskip-crash-abort-{parent}"))
}

/// A real kill: this test binary runs [`abort_child`] as a child
/// process, which drives an engine over the real filesystem, prints each
/// operation once it is acknowledged, and calls `std::process::abort()`
/// mid-stream — no destructor, no unmap, no close runs.  The reopened
/// engine must hold exactly what the child printed.
#[cfg(unix)]
#[test]
fn process_death_keeps_every_acknowledged_operation() {
    use std::os::unix::process::ExitStatusExt;

    const SIGABRT: i32 = 6;
    let dir = abort_dir(std::process::id());
    // Children that died with the tail of their segment in a mapped,
    // reserved extent (where appends are mapped, all but a child whose
    // last operation opened a fresh segment).
    let mut died_reserved = 0;
    for seed in 0..4u64 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the shared directory");
        std::fs::write(dir.join("seed"), seed.to_string()).expect("write the seed");
        let child = std::process::Command::new(std::env::current_exe().expect("this binary"))
            .args([
                "abort_child",
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .output()
            .expect("run the child");
        assert_eq!(
            child.status.signal(),
            Some(SIGABRT),
            "seed {seed}: the child must abort, not exit ({:?}); stderr:\n{}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        );

        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut acknowledged = 0;
        for line in String::from_utf8(child.stdout).expect("utf-8").lines() {
            let words: Vec<&str> = line.split(' ').collect();
            let number = |at: usize| words[at].parse::<u64>().expect("a number");
            match words[..] {
                ["ack", "put", _, _] => {
                    oracle.insert(number(2), number(3));
                }
                ["ack", "del", _] => {
                    oracle.remove(&number(2));
                }
                _ => continue,
            }
            acknowledged += 1;
        }
        assert!(
            acknowledged >= 200,
            "seed {seed}: {acknowledged} operations printed"
        );

        // The newest segment is the one the child was appending to.
        let newest_wal = std::fs::read_dir(dir.join("db"))
            .expect("list engine dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
            .max()
            .expect("a WAL segment");
        let file_len = std::fs::metadata(&newest_wal).expect("stat WAL").len();
        if file_len > frames(&newest_wal).1 {
            died_reserved += 1;
        }

        let reopened =
            LsmEngine::<u64, u64>::open(dir.join("db"), LsmConfig::small()).expect("recover");
        let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            full_scan(&reopened),
            expected,
            "seed {seed}: recovered contents must equal the {acknowledged} acknowledged operations"
        );
        assert_eq!(reopened.len(), oracle.len(), "seed {seed}: live key count");
        drop(reopened);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        assert!(died_reserved > 0, "no child died mid-reservation");
    }
}

/// The child half of `process_death_keeps_every_acknowledged_operation`,
/// run only as its child: ignored, and without the seed its parent wrote
/// into [`abort_dir`] it does nothing.  Rotations hand flush and
/// compaction to the engine's maintenance worker thread
/// (`LsmConfig::small()` maintains automatically) besides the explicit
/// calls, so the abort can find sealed memtables on old segments, tables
/// on several levels and, at times, a job in flight.
#[cfg(unix)]
#[test]
#[ignore = "the child process of process_death_keeps_every_acknowledged_operation"]
fn abort_child() {
    use std::io::Write;

    let dir = abort_dir(std::os::unix::process::parent_id());
    let Ok(seed) = std::fs::read_to_string(dir.join("seed")) else {
        return;
    };
    let mut rng = SmallRng::seed_from_u64(0xAB07 ^ seed.parse::<u64>().expect("a seed"));
    let engine = LsmEngine::<u64, u64>::open(dir.join("db"), LsmConfig::small()).expect("open");
    let mut out = std::io::stdout().lock();
    // The harness has printed `test abort_child ... ` with no newline.
    writeln!(out).expect("print");
    // Printed once the engine has returned, and flushed before the next
    // operation starts: a line is an acknowledgement.
    let mut ack = |line: String| {
        writeln!(out, "ack {line}").expect("print");
        out.flush().expect("flush");
    };
    let kill_at = rng.gen_range(200..3_000);
    for _ in 0..kill_at {
        match rng.gen_range(0..100u32) {
            0..=59 => {
                let (key, value) = (rng.gen_range(0..2_000u64), rng.gen());
                engine.insert(key, value);
                ack(format!("put {key} {value}"));
            }
            60..=74 => {
                let key = rng.gen_range(0..2_000u64);
                engine.remove(&key);
                ack(format!("del {key}"));
            }
            75..=94 => {
                let mut batch: Vec<Op<u64, u64>> = (0..rng.gen_range(1..32))
                    .map(|_| {
                        let key = rng.gen_range(0..2_000u64);
                        if rng.gen_bool(0.25) {
                            Op::remove(key)
                        } else {
                            Op::insert(key, rng.gen())
                        }
                    })
                    .collect();
                engine.execute(&mut batch);
                for op in &batch {
                    match op {
                        Op::Insert { key, value, .. } => ack(format!("put {key} {value}")),
                        Op::Remove { key, .. } => ack(format!("del {key}")),
                        _ => unreachable!("only mutations are issued"),
                    }
                }
            }
            95..=97 => engine.rotate().expect("rotate"),
            _ => engine.maintain().expect("maintain"),
        }
    }
    assert!(!engine.degraded(), "no write failed");
    std::process::abort();
}
