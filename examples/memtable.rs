//! The B-skiplist as a real LSM memtable: `bskip-lsm` end to end.
//!
//! Earlier revisions of this example *sketched* the memtable lifecycle by
//! hand (flush = stream the index in order, evict = remove every flushed
//! key).  The `bskip-lsm` crate made that lifecycle real, so the example
//! now drives the genuine article: writer threads ingest write batches
//! (group-commit style — each batch is one WAL record and one `execute`
//! through the B-skiplist memtable) alongside a latency-sensitive
//! foreground writer and racing readers; when the memtable exceeds its
//! configured budget the engine **rotates** it (a fresh B-skiplist takes
//! over, the full one becomes immutable) and **flushes** it — drained
//! through its cursor in sorted order into an SSTable — and compaction
//! folds overlapping tables together below.
//!
//! The bounded-memory story is unchanged, just no longer simulated: a
//! memtable that rotates and flushes forever runs in *bounded* memory
//! because each flushed B-skiplist is dropped wholesale and its nodes are
//! retired through the epoch collector, while the data itself now lives
//! in SSTables on disk.  Every wave asserts exactly that — the in-memory
//! footprint (memtable bytes, structural nodes, immutable backlog,
//! retired-node backlog) stays flat no matter how many waves run.
//!
//! Run with: `cargo run --release --example memtable`

use std::ops::Bound;
use std::sync::Arc;

use bskip_suite::{ConcurrentIndex, LsmConfig, LsmEngine, Op};

/// Write-batch width of the bulk writers (a typical group-commit size).
const BATCH: usize = 128;

/// Memtable budget: small enough that every wave provokes several
/// real rotations and flushes.
const MEMTABLE_BYTES: u64 = 256 << 10;

fn main() {
    let dir = std::env::temp_dir().join(format!("bskip-memtable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = LsmConfig {
        memtable_bytes: MEMTABLE_BYTES,
        ..LsmConfig::default()
    };
    let engine = Arc::new(
        LsmEngine::<u64, u64>::open(&dir, config).expect("open LSM engine in the temp dir"),
    );

    let writers = 4u64;
    let ops_per_writer = 75_000u64;
    let waves = 3u64;
    // The in-memory footprint cap the waves are asserted against: the
    // active memtable may hold at most its budget plus one overshooting
    // batch; everything beyond that must be on disk, not in memory.
    let footprint_cap = MEMTABLE_BYTES + (BATCH as u64) * 64;

    for wave in 0..waves {
        std::thread::scope(|scope| {
            // Bulk writers: group-commit ingest.  Each full batch goes
            // through `execute`, which the engine turns into ONE framed WAL
            // record (one storage append) and one bulk apply into the
            // B-skiplist memtable — the write shape LevelDB calls a
            // WriteBatch.  Tombstones ride along as deletes.
            for writer in 0..writers {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut batch: Vec<Op<u64, u64>> = Vec::with_capacity(BATCH);
                    for i in 0..ops_per_writer {
                        let key = (i * writers + writer) % 500_000;
                        if i % 16 == 0 {
                            batch.push(Op::remove(key));
                        } else {
                            batch.push(Op::insert(key, key + writer));
                        }
                        if batch.len() == BATCH {
                            engine.execute(&mut batch);
                            batch.clear();
                        }
                    }
                    if !batch.is_empty() {
                        engine.execute(&mut batch);
                    }
                });
            }
            // A foreground writer: latency-sensitive single puts/deletes
            // (an LSM serves both shapes against the same memtable; each
            // single op is its own WAL record).
            {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        let key = 500_000 + (i % 1_000);
                        if i % 50 == 0 {
                            engine.remove(&key);
                        } else {
                            engine.insert(key, i);
                        }
                    }
                });
            }
            // Readers: point lookups racing with writers and rotations.
            // A hit may come from the memtable, an immutable memtable
            // mid-flush, or a bloom-gated SSTable — the merged read path
            // hides which.
            for reader in 0..2u64 {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..100_000u64 {
                        if engine.contains_key(&((i * 7 + reader) % 500_000)) {
                            hits += 1;
                        }
                    }
                    println!("wave {wave} reader {reader}: {hits} hits");
                });
            }
        });

        // Settle the wave: flush every immutable memtable and run
        // compaction until the level budgets hold.
        engine.maintain().expect("flush and compact the wave");

        let stats = engine.stats();
        let stat = |name: &str| stats.get(name).unwrap_or(0);
        println!(
            "wave {wave}: {} live keys | {} rotations, {} flushes, {} compactions | \
             wal {} KiB across {} records",
            stat("live_keys"),
            stat("memtable_rotations"),
            stat("sst_flushes"),
            stat("compactions"),
            stat("wal_bytes") >> 10,
            stat("wal_records"),
        );
        let levels: Vec<u64> = (0..7).map(|at| stat(&format!("tables_l{at}"))).collect();
        println!("wave {wave}: tables per level {levels:?}");
        assert!(
            stat("memtable_rotations") > 0,
            "each wave must overflow the memtable budget"
        );
        assert_eq!(
            stat("immutable_memtables"),
            0,
            "maintain() must flush the immutable backlog"
        );

        // The bounded-memory assertion, now against the real engine: the
        // ~500k distinct keys ingested so far live in SSTables; in memory
        // there is only the active memtable, which must be under its
        // budget (plus at most one overshooting batch).
        assert!(
            stat("memtable_bytes") <= footprint_cap,
            "active memtable ({} bytes) must stay within its budget ({footprint_cap})",
            stat("memtable_bytes"),
        );

        // Flushed memtables are dropped wholesale and their B-skiplist
        // nodes retired to the epoch collector; quiescent collections
        // drain the backlog completely, so footprint does not accumulate
        // per wave.
        for _ in 0..4 {
            engine.try_reclaim();
        }
        let settled = engine.stats();
        let backlog = settled.reclamation().map_or(0, |r| r.backlog);
        assert_eq!(backlog, 0, "quiescent drain must empty the retired backlog");
        println!(
            "wave {wave}: active memtable {} bytes in {} structural nodes, retired backlog {}",
            settled.get("memtable_bytes").unwrap_or(0),
            settled.get("memtable_live_nodes").unwrap_or(0),
            backlog,
        );
    }

    // The flushed data is really there: a full merged scan (memtable +
    // SSTables, tombstones dropped) agrees with the engine's live count.
    let scanned = {
        let mut cursor = engine.scan_bounds(Bound::Unbounded, Bound::Unbounded);
        let mut count = 0u64;
        while cursor.next().is_some() {
            count += 1;
        }
        count
    };
    assert_eq!(
        scanned,
        engine.len() as u64,
        "merged scan matches live_keys"
    );
    println!(
        "after {waves} waves: merged scan saw all {scanned} live keys; \
         in-memory footprint stayed under {} KiB throughout",
        footprint_cap >> 10
    );

    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
