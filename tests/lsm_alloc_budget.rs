//! Allocation and block-read budgets of the LSM read and log paths.
//!
//! Once a thread is warm, a lookup that a table answers — bloom probe,
//! block read, checksum, restart seek — performs **zero** heap
//! allocations, and so does logging a point write — record encoding,
//! framing, checksum, append.  A scan merges one source per memtable, per
//! level-0 table and per deeper *level*: positioning it reads one block
//! per table source however many tables the levels hold, and a warm
//! 100-entry scan allocates once: its own box.  The merge keeps up to
//! eight sources inline, and no cursor box, leaf window, block or key
//! buffer is allocated; a scan that merges a ninth source allocates one
//! vector more for them.  Under it, a warm
//! B-skiplist scan allocates nothing through the list's own API and one
//! box through `&dyn ConcurrentIndex`, and a baseline's batched scan
//! allocates its two boxes.  The budgets are ordinary tests so
//! that they cannot rot: a `Vec` that creeps back into `Table::get` or
//! `WalWriter::append_ops`, or a scan that opens a cursor per table
//! again, fails here, not in a benchmark somebody has to read.
//!
//! The counting allocator counts per thread, so the harness's other
//! threads cannot leak into the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use std::sync::Arc;

use bskip_suite::lsm::{Table, WalOp, WalWriter};
use bskip_suite::{
    BSkipList, ConcurrentIndex, FaultFs, IndexCursor, LsmConfig, LsmEngine, OccBTree, StdFs,
    SyncPolicy,
};

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a torn-down
    // slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread performs inside `work`.
fn allocations_in(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

const KEYS: u64 = 40_000;
const CALLS: u64 = 10_000;

/// The `i`-th pseudo-random draw.
fn draw(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
}

/// Present keys are the even numbers below `2 * KEYS`.
fn present(i: u64) -> u64 {
    (draw(i) % KEYS) * 2
}

#[test]
fn warm_point_reads_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("bskip-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The production configuration, but for a memtable small enough that
    // the data ends up spread over several tables on more than one level.
    let config = LsmConfig {
        memtable_bytes: 128 << 10,
        ..LsmConfig::default()
    };
    let engine: LsmEngine<u64, u64> = LsmEngine::open(&dir, config).expect("open engine");
    for key in 0..KEYS {
        engine.insert(key * 2, key);
    }
    engine.maintain().expect("settle everything into tables");
    let levels = engine.tables_per_level();
    assert!(levels.iter().sum::<usize>() > 1, "{levels:?}");
    // Scans first: the decoders their cursors park on this thread's free
    // list sit beside the point-read scratch and must not disturb it.
    for i in 0..8 {
        let from = Bound::Included(present(i));
        assert_eq!(
            engine.scan_bounds(from, Bound::Unbounded).take(100).count(),
            100
        );
    }

    // The engine: every get misses the (empty) memtable and is answered
    // by a table.
    assert_eq!(engine.get(&present(0)), Some(present(0) / 2), "warm-up");
    let allocs = allocations_in(|| {
        for i in 0..CALLS {
            assert_eq!(engine.get(&present(i)), Some(present(i) / 2));
        }
    });
    assert_eq!(allocs, 0, "LsmEngine::get answered by a table");

    // One table, directly: the largest on disk.
    let largest = std::fs::read_dir(&dir)
        .expect("list the engine directory")
        .filter_map(Result::ok)
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "sst"))
        .max_by_key(|entry| entry.metadata().map_or(0, |meta| meta.len()))
        .expect("the engine has a table")
        .path();
    let table: Arc<Table<u64, u64>> = Arc::new(Table::open(&StdFs, &largest, 0).expect("open"));
    let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
    let keys: Vec<u64> = std::iter::from_fn(|| cursor.next())
        .map(|(key, _)| key)
        .collect();
    assert!(table.blocks() > 8 && keys.len() > 1_000);

    assert!(table.get(&keys[0]).expect("warm-up").is_some());
    let allocs = allocations_in(|| {
        for i in 0..CALLS {
            let key = keys[draw(i) as usize % keys.len()];
            assert!(table.get(&key).expect("table read").is_some());
        }
    });
    assert_eq!(allocs, 0, "Table::get on present keys");

    let allocs = allocations_in(|| {
        let admitted = (0..CALLS)
            .filter(|&i| table.may_contain(&(keys[draw(i) as usize % keys.len()] + 1)))
            .count();
        assert!(admitted < CALLS as usize / 10, "bloom admitted {admitted}");
    });
    assert_eq!(allocs, 0, "Table::may_contain on absent keys");

    drop(engine);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn warm_wal_appends_allocate_nothing() {
    let path = std::env::temp_dir().join(format!("bskip-alloc-budget-{}.log", std::process::id()));
    let mut wal = WalWriter::create(&StdFs, &path, SyncPolicy::Never).expect("create the WAL");
    // What the engine logs for a point put and a point delete: the record
    // is encoded into the writer's own frame buffer.
    let record = |i: u64| {
        let key = draw(i);
        std::iter::once(if i.is_multiple_of(4) {
            WalOp::Delete { key }
        } else {
            WalOp::Put { key, value: i }
        })
    };
    wal.append_ops(record(1)).expect("warm-up");
    let allocs = allocations_in(|| {
        for i in 0..CALLS {
            wal.append_ops(record(i)).expect("WAL append");
        }
    });
    assert_eq!(allocs, 0, "WalWriter::append_ops of single-op records");
    assert_eq!(wal.records(), CALLS + 1);

    drop(wal);
    std::fs::remove_file(&path).expect("clean up");
}

/// An engine in memory holding the even keys below `2 * KEYS`, written in
/// a scattered order and settled into tables of about `table_target_bytes`
/// on two deeper levels, with whatever the last flush left in level 0.
fn settled(fs: &FaultFs, table_target_bytes: u64) -> LsmEngine<u64, u64> {
    let config = LsmConfig {
        memtable_bytes: 128 << 10,
        level_base_bytes: 256 << 10,
        table_target_bytes,
        ..LsmConfig::default()
    };
    let engine = LsmEngine::open_with(Arc::new(fs.clone()), "/db", config).expect("open engine");
    for i in 0..KEYS {
        // 7919 is coprime to `KEYS`: every key once.
        let key = (i * 7_919 % KEYS) * 2;
        engine.insert(key, key / 2);
    }
    engine.maintain().expect("settle everything into tables");
    engine
}

/// Mean `read_at` calls of a scan that yields one entry, over 400 start
/// keys, and the table sources such a scan merges.
fn reads_per_short_scan(fs: &FaultFs, engine: &LsmEngine<u64, u64>) -> (f64, usize) {
    const SCANS: u64 = 400;
    let before = fs.read_count();
    for i in 0..SCANS {
        let from = Bound::Included(present(i));
        let mut cursor = engine.scan_bounds(from, Bound::Unbounded);
        assert_eq!(cursor.next(), Some((present(i), present(i) / 2)));
    }
    let levels = engine.tables_per_level();
    let runs = levels[1..].iter().filter(|&&tables| tables > 0).count();
    (
        (fs.read_count() - before) as f64 / SCANS as f64,
        levels[0] + runs,
    )
}

#[test]
fn a_scan_reads_one_block_per_sorted_run_however_many_tables_it_has() {
    let fs = FaultFs::new();
    let engine = settled(&fs, 64 << 10);
    let levels = engine.tables_per_level();
    assert!(
        levels.len() == 3 && levels[1] >= 3 && levels[2] >= 3,
        "{levels:?}"
    );
    // One block positions each table source; the merge steps past the
    // one entry it yields, which crosses into a next block only when that
    // entry ended its block.
    let (reads, sources) = reads_per_short_scan(&fs, &engine);
    assert!(reads <= sources as f64 + 0.1, "{reads} reads, {levels:?}");

    // The same data in four times the tables: no source more, no read more.
    let fs = FaultFs::new();
    let finer = settled(&fs, 16 << 10);
    let finer_levels = finer.tables_per_level();
    assert!(
        finer_levels[0] == levels[0]
            && finer_levels[1..].iter().sum::<usize>() >= 3 * levels[1..].iter().sum::<usize>(),
        "{finer_levels:?} against {levels:?}"
    );
    let (finer_reads, finer_sources) = reads_per_short_scan(&fs, &finer);
    assert_eq!(finer_sources, sources);
    assert!(
        finer_reads <= sources as f64 + 0.1,
        "{finer_reads} reads, {finer_levels:?}"
    );
}

#[test]
fn a_warm_hundred_entry_scan_allocates_once() {
    let fs = FaultFs::new();
    let engine = settled(&fs, 64 << 10);
    let levels = engine.tables_per_level();
    assert!(
        levels.len() == 3 && (1..=3).contains(&levels[0]) && levels[1] >= 3 && levels[2] >= 3,
        "{levels:?}"
    );
    let scan = |i: u64| {
        let from = Bound::Included(present(i));
        let scanned = engine.scan_bounds(from, Bound::Unbounded).take(100);
        assert_eq!(scanned.count(), 100);
    };
    scan(0);
    // The `Cursor` box around the scan, and nothing else: the merge
    // holds its six sources or fewer inline, the memtable source is the
    // list's own cursor, unboxed, and its leaf window and the table
    // sources' block and key buffers come off the thread's free list.
    // Start keys from the lower half: the top would run out of entries.
    for i in (1..).filter(|&i| present(i) < KEYS).take(50) {
        let allocs = allocations_in(|| scan(i));
        assert_eq!(allocs, 1, "scan {i}: {allocs} allocations, {levels:?}");
    }
}

/// How many sources the merge under a scan keeps inline
/// (`bskip_index::cursor`'s reserve, private to that crate).  The test
/// below finds the cliff exactly where this says it is.
const INLINE_SOURCES: usize = 8;

#[test]
fn a_scan_over_one_source_past_the_inline_reserve_allocates_one_vector_more() {
    // No maintenance and an unreachable level-0 trigger: every flush adds
    // one level-0 table, and a scan merges the memtable and each of them.
    let config = LsmConfig {
        auto_maintain: false,
        l0_compaction_trigger: usize::MAX,
        ..LsmConfig::default()
    };
    let engine: LsmEngine<u64, u64> =
        LsmEngine::open_with(Arc::new(FaultFs::new()), "/db", config).expect("open engine");
    // Table `t` holds the keys below `16 * 2_000` congruent to `t`
    // modulo 16.
    let mut tables = 0;
    let mut scans_over = |sources: usize| {
        while 1 + tables < sources {
            for i in 0..2_000 {
                engine.insert(i * 16 + tables as u64, i);
            }
            engine.rotate().expect("seal the memtable");
            engine.flush().expect("flush it to level 0");
            tables += 1;
        }
        assert_eq!(engine.tables_per_level(), [tables]);
        let scan = |from: u64| {
            let scanned = engine.scan_bounds(Bound::Included(from), Bound::Unbounded);
            assert_eq!(scanned.take(100).count(), 100);
        };
        scan(0);
        (0..20)
            .map(|i| allocations_in(|| scan(draw(i) % 20_000)))
            .max()
            .expect("twenty scans")
    };
    // The `Cursor` box; past the reserve, the one vector the merge moves
    // its sources to.
    assert_eq!(scans_over(INLINE_SOURCES), 1);
    assert_eq!(scans_over(INLINE_SOURCES + 1), 2);
}

#[test]
fn a_warm_b_skiplist_scan_allocates_only_the_box_the_trait_returns() {
    let list = BSkipList::<u64, u64>::new();
    for key in 0..KEYS {
        list.insert(key, key * 3);
    }
    let index: &dyn ConcurrentIndex<u64, u64> = &list;
    let expect = |from: u64| (from..from + 100).map(|key| (key, key * 3));
    let starts = || (0..50).map(|i| draw(i) % (KEYS - 100));
    assert!(list.scan(0..).take(100).eq(expect(0)), "warm-up");
    for from in starts() {
        let allocs = allocations_in(|| assert!(list.scan(from..).take(100).eq(expect(from))));
        assert_eq!(allocs, 0, "BSkipList::scan from {from}");
        let allocs = allocations_in(|| {
            assert!(index
                .scan_bounds(Bound::Included(from), Bound::Unbounded)
                .take(100)
                .eq(expect(from)))
        });
        assert_eq!(allocs, 1, "ConcurrentIndex::scan from {from}");
    }

    // Two cursors open at once: each has a window of its own, so the two
    // interleaved streams are each exactly their own range.  The second
    // window is the one fresh one: its box and its buffer.
    let allocs = allocations_in(|| {
        let mut low = list.scan(1_000..);
        let mut high = list.scan(30_000..);
        for step in 0..300 {
            assert_eq!(low.next(), Some((1_000 + step, (1_000 + step) * 3)));
            assert_eq!(high.next(), Some((30_000 + step, (30_000 + step) * 3)));
        }
    });
    assert!(allocs <= 2, "two open cursors: {allocs} allocations");
    // Both windows are parked again: scans allocate nothing beyond their
    // boxes, one at a time or two at once.
    for from in starts() {
        let allocs = allocations_in(|| {
            assert!(list.scan(from..).take(100).eq(expect(from)));
            let mut pair = (
                index.scan_bounds(Bound::Included(from), Bound::Unbounded),
                list.scan(KEYS - from - 100..),
            );
            for key in from..from + 100 {
                assert_eq!(pair.0.next(), Some((key, key * 3)));
                assert!(pair.1.next().is_some());
            }
        });
        assert_eq!(allocs, 1, "scans from {from} after two cursors");
    }
}

#[test]
fn a_warm_baseline_scan_allocates_only_its_two_boxes() {
    let tree = OccBTree::<u64, u64, 64>::new();
    for key in 0..KEYS {
        tree.insert(key, key * 3);
    }
    let expect = |from: u64| (from..from + 100).map(|key| (key, key * 3));
    assert!(tree.scan(0..).take(100).eq(expect(0)), "warm-up");
    // The `Cursor` box and the fetch closure's box: the batch window is
    // a parked one.
    for from in (0..50).map(|i| draw(i) % (KEYS - 100)) {
        let allocs = allocations_in(|| assert!(tree.scan(from..).take(100).eq(expect(from))));
        assert_eq!(allocs, 2, "OccBTree scan from {from}");
    }
}

#[test]
fn windows_and_decoders_share_one_list_without_mixing_types() {
    use bskip_suite::index::cursor::{parked_buffers, PARKED_BUFFERS};

    let fs = FaultFs::new();
    let engine = settled(&fs, 64 << 10);
    // Odd keys in the memtable, even ones in the tables: a scan merges
    // the memtable's window with a decoder per table source.
    for key in (1..400).step_by(2) {
        engine.insert(key, key * 7);
    }
    let levels = engine.tables_per_level();
    assert!(
        levels[0] >= 1 && levels[1..].iter().all(|&tables| tables > 0),
        "{levels:?}"
    );
    let list = BSkipList::<u64, u64>::new();
    for key in 0..KEYS {
        list.insert(key, key * 3);
    }
    let index: &dyn ConcurrentIndex<u64, u64> = &list;
    let merged = |key: u64| (key, if key % 2 == 1 { key * 7 } else { key / 2 });

    // Both cursors open at once, stepped in turn; a decoder handed out
    // as a window, or one cursor's buffer shared with the other, would
    // break one of the two streams.
    let round = || {
        let mut lsm = engine.scan_bounds(Bound::Included(100), Bound::Unbounded);
        let mut leaves = index.scan_bounds(Bound::Included(1_000), Bound::Unbounded);
        for step in 0..250 {
            assert_eq!(lsm.next(), Some(merged(100 + step)));
            assert_eq!(leaves.next(), Some((1_000 + step, (1_000 + step) * 3)));
            assert!(parked_buffers() <= PARKED_BUFFERS);
        }
    };
    round();
    // Maintenance ran on the engine's own thread, so this one has parked
    // exactly what the round lent: two windows and a decoder per table
    // source.
    let parked = parked_buffers();
    assert_eq!(parked, 2 + levels[0] + (levels.len() - 1), "{levels:?}");
    // Warm: the two `Cursor` boxes; the merge holds its sources inline,
    // and every window and decoder comes off the thread's list and goes
    // back.
    for _ in 0..10 {
        assert_eq!(allocations_in(round), 2);
        assert_eq!(parked_buffers(), parked);
    }
}
