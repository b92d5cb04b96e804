//! Crash-point torture tests over the fault-injection storage layer.
//!
//! The engine runs entirely on [`FaultFs`], the deterministic in-memory
//! [`Storage`] implementation, under `SyncPolicy::Always` — so every
//! acknowledged mutation was synced before its `Ok` returned, and the
//! contract under test is exact: after a simulated power cut at *any*
//! storage operation, reopening recovers **precisely the acknowledged
//! prefix** — every operation that returned `Ok`, nothing that errored.
//!
//! The main harness enumerates every crash point: a fault-free run counts
//! the workload's mutating storage operations (appends, syncs, creates,
//! renames, removes), then the workload replays once per index with a
//! crash injected at exactly that operation.  The crash is sticky — all
//! later storage operations fail too, exercising the engine's degraded
//! mode — then `reboot()` discards unsynced bytes (durable state only)
//! and the reopened engine is compared against a `BTreeMap` oracle that
//! recorded acknowledged operations only.
//!
//! The engine under test maintains itself on its worker thread, so where
//! a crash point lands among flushes and compactions changes from run to
//! run; one more sweep pumps maintenance by hand on the workload's thread
//! instead, and crashes at the same operations on every run.  The worker
//! catches a job that panics (the engine keeps serving), so every sweep
//! runs once more in both modes: with the worker it must count no
//! panicking job, and pumped by hand a panic fails the test outright.
//!
//! Satellite sweeps check that no injected `io::ErrorKind` anywhere in
//! the write/sync stream can panic the engine, and that torn writes
//! (partial appends surfaced as errors) never leak unacknowledged data
//! across a process restart.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

use bskip_suite::{ConcurrentIndex, FaultFs, LsmConfig, LsmEngine, Op, SyncPolicy};

fn dir() -> &'static Path {
    // FaultFs paths are virtual; no real directory is touched.
    Path::new("/torture")
}

/// Tiny memtable + `Always` sync: the ~150-op workload crosses several
/// rotations, flushes and at least one compaction, and every acknowledged
/// op is durable at acknowledgement time.
fn config() -> LsmConfig {
    LsmConfig {
        memtable_bytes: 1 << 10,
        sync: SyncPolicy::Always,
        ..LsmConfig::small()
    }
}

fn open(fs: &FaultFs) -> std::io::Result<LsmEngine<u64, u64>> {
    LsmEngine::open_with(Arc::new(fs.clone()), dir(), config())
}

/// Deterministic mixed workload: overwrites, deletes and group-committed
/// batches over a small key space.  Every operation's effect lands in
/// `oracle` only if the engine acknowledged it; the replay stops at the
/// first error (after a sticky crash everything else fails too).
fn apply_workload(engine: &LsmEngine<u64, u64>, oracle: &mut BTreeMap<u64, u64>) {
    for i in 0..150u64 {
        let key = (i * 7) % 64;
        match i % 9 {
            8 => {
                let mut ops = vec![
                    Op::insert(key, i),
                    Op::insert((key + 1) % 64, i + 1),
                    Op::remove((key + 2) % 64),
                    Op::get(key),
                ];
                match engine.try_execute(&mut ops) {
                    Ok(()) => {
                        oracle.insert(key, i);
                        oracle.insert((key + 1) % 64, i + 1);
                        oracle.remove(&((key + 2) % 64));
                    }
                    Err(_) => return,
                }
            }
            5 => match engine.try_remove(&key) {
                Ok(_) => {
                    oracle.remove(&key);
                }
                Err(_) => return,
            },
            _ => match engine.try_insert(key, i) {
                Ok(_) => {
                    oracle.insert(key, i);
                }
                Err(_) => return,
            },
        }
    }
}

fn contents(engine: &LsmEngine<u64, u64>) -> BTreeMap<u64, u64> {
    engine
        .scan_bounds(Bound::Unbounded, Bound::Unbounded)
        .collect()
}

/// The tentpole harness: simulate a power cut at **every** mutating
/// storage operation of the workload, one run per crash point, and verify
/// the acknowledged-prefix invariant at each.
#[test]
fn crash_at_every_storage_op_recovers_the_acknowledged_prefix() {
    // Pass 1, fault-free: count the mutating storage ops and pin down the
    // expected final contents.
    let (total, fault_free) = {
        let fs = FaultFs::new();
        let engine = open(&fs).expect("fault-free open");
        let mut oracle = BTreeMap::new();
        apply_workload(&engine, &mut oracle);
        assert_eq!(contents(&engine), oracle, "fault-free run disagrees");
        assert!(!engine.degraded(), "fault-free run must not degrade");
        drop(engine);
        (fs.op_count(), oracle)
    };
    assert!(
        total > 100,
        "workload too small to be interesting: {total} storage ops"
    );

    for cut in 0..=total {
        let fs = FaultFs::new();
        fs.crash_at_op(cut);

        let mut oracle = BTreeMap::new();
        if let Ok(engine) = open(&fs) {
            apply_workload(&engine, &mut oracle);
            // Reads must keep working no matter where the crash landed.
            let _ = engine.try_get(&1);
            let _ = contents(&engine);
        }

        // Power comes back: unsynced bytes are gone, faults cleared.
        fs.reboot();
        let recovered = open(&fs)
            .unwrap_or_else(|error| panic!("reopen after crash at op {cut} failed: {error}"));
        assert_eq!(
            contents(&recovered),
            oracle,
            "crash at storage op {cut}/{total}: recovered state must be \
             exactly the acknowledged prefix"
        );
        assert!(!recovered.degraded(), "a reopened engine starts healthy");
    }

    // Sanity: the last cut (past the end) is equivalent to no crash.
    let fs = FaultFs::new();
    fs.crash_at_op(total + 1_000);
    let engine = open(&fs).expect("open");
    let mut oracle = BTreeMap::new();
    apply_workload(&engine, &mut oracle);
    assert_eq!(oracle, fault_free);
}

/// No injected `io::ErrorKind`, at any point in the write or sync stream,
/// may panic the engine — every operation either succeeds or returns an
/// error, reads stay available, and a reboot+reopen always recovers the
/// acknowledged prefix.
#[test]
fn no_error_kind_panics_the_engine() {
    let kinds = [
        ErrorKind::NotFound,
        ErrorKind::PermissionDenied,
        ErrorKind::StorageFull,
        ErrorKind::Interrupted,
        ErrorKind::UnexpectedEof,
        ErrorKind::WriteZero,
        ErrorKind::InvalidData,
        ErrorKind::TimedOut,
        ErrorKind::BrokenPipe,
        ErrorKind::Other,
    ];
    for kind in kinds {
        for nth in [1u64, 3, 9, 27, 81] {
            for fail_sync in [false, true] {
                let fs = FaultFs::new();
                if fail_sync {
                    fs.fail_nth_sync(nth, kind);
                } else {
                    fs.fail_nth_write(nth, kind);
                }
                let mut oracle = BTreeMap::new();
                if let Ok(engine) = open(&fs) {
                    apply_workload(&engine, &mut oracle);
                    let _ = engine.try_get(&7);
                    let _ = contents(&engine);
                    if engine.degraded() {
                        // Degradation must come with an error accounted
                        // somewhere, never silently.
                        assert!(
                            engine.write_failures() > 0 || engine.io_errors() > 0,
                            "{kind:?}/nth={nth}: degraded without counting an error"
                        );
                    }
                }
                fs.reboot();
                let recovered = open(&fs).unwrap_or_else(|error| {
                    panic!("{kind:?}/nth={nth}/sync={fail_sync}: reopen failed: {error}")
                });
                assert_eq!(
                    contents(&recovered),
                    oracle,
                    "{kind:?}/nth={nth}/sync={fail_sync}: acknowledged prefix lost"
                );
            }
        }
    }
}

/// Torn writes: the `n`th append persists only a prefix of its bytes and
/// reports failure.  Reopening **without** a reboot (a process restart,
/// not a power cut — the torn bytes are still in the file) must never
/// surface unacknowledged data: the WAL reader stops at the torn tail and
/// flush/compaction roll back cleanly.
#[test]
fn torn_writes_never_leak_unacknowledged_data_across_restart() {
    for nth in 1..=40u64 {
        for keep in [0usize, 1, 7] {
            let fs = FaultFs::new();
            fs.torn_nth_write(nth, keep);
            let mut oracle = BTreeMap::new();
            if let Ok(engine) = open(&fs) {
                apply_workload(&engine, &mut oracle);
            }
            // No reboot: live (possibly torn) state is what the restarted
            // process sees.
            fs.clear_faults();
            let recovered = open(&fs).unwrap_or_else(|error| {
                panic!("torn write {nth}/keep={keep}: reopen failed: {error}")
            });
            assert_eq!(
                contents(&recovered),
                oracle,
                "torn write {nth}/keep={keep}: restart must keep exactly \
                 the acknowledged prefix"
            );
        }
    }
}

/// How the engine under a sweep is maintained.
#[derive(Clone, Copy, Debug)]
enum Maintenance {
    /// On its own worker thread, as `config()` has it.
    Worker,
    /// By an explicit `maintain()` every 16 operations on the workload's
    /// thread, with no worker.
    Pumped,
}

const BOTH: [Maintenance; 2] = [Maintenance::Worker, Maintenance::Pumped];

fn open_as(fs: &FaultFs, mode: Maintenance) -> std::io::Result<LsmEngine<u64, u64>> {
    let config = match mode {
        Maintenance::Worker => config(),
        Maintenance::Pumped => LsmConfig {
            auto_maintain: false,
            ..config()
        },
    };
    LsmEngine::open_with(Arc::new(fs.clone()), dir(), config)
}

/// `mode`'s workload: the torture's own for the worker; for the pumped
/// engine the same kind — puts, removes and group-committed batches over
/// 64 keys — with an explicit `maintain()` every 16 operations.  Records
/// acknowledged operations only.
fn apply_as(engine: &LsmEngine<u64, u64>, mode: Maintenance, oracle: &mut BTreeMap<u64, u64>) {
    if let Maintenance::Worker = mode {
        return apply_workload(engine, oracle);
    }
    for i in 0..150u64 {
        if i % 16 == 15 {
            // A failed pump loses nothing: the WAL still holds it all.
            let _ = engine.maintain();
        }
        let key = (i * 11) % 64;
        let acknowledged = match i % 6 {
            5 => {
                let mut ops = vec![
                    Op::insert(key, i),
                    Op::remove((key + 3) % 64),
                    Op::insert((key + 5) % 64, i + 1),
                ];
                engine.try_execute(&mut ops).map(|()| {
                    oracle.insert(key, i);
                    oracle.remove(&((key + 3) % 64));
                    oracle.insert((key + 5) % 64, i + 1);
                })
            }
            2 => engine.try_remove(&key).map(|_| {
                oracle.remove(&key);
            }),
            _ => engine.try_insert(key, i).map(|_| {
                oracle.insert(key, i);
            }),
        };
        if acknowledged.is_err() {
            return;
        }
    }
}

/// One faulted run: opens the engine on `fs`, applies `mode`'s workload,
/// reads, and ends with a `maintain()`, which also waits for the worker's
/// job in flight.  Returns what the engine acknowledged.  No job may have
/// panicked on the worker, and a degraded engine must have counted an
/// error.
fn run_as(fs: &FaultFs, mode: Maintenance, case: &str) -> BTreeMap<u64, u64> {
    let mut oracle = BTreeMap::new();
    if let Ok(engine) = open_as(fs, mode) {
        apply_as(&engine, mode, &mut oracle);
        // Reads must keep working no matter where the fault landed.
        let _ = engine.try_get(&7);
        let _ = contents(&engine);
        let _ = engine.maintain();
        let stats = engine.stats();
        assert_eq!(
            stats.get("maint_panics"),
            Some(0),
            "{mode:?} {case}: a maintenance job panicked"
        );
        if engine.degraded() {
            assert!(
                engine.write_failures() > 0 || engine.io_errors() > 0,
                "{mode:?} {case}: degraded without counting an error"
            );
        }
    }
    oracle
}

/// The crash sweep without a worker thread: every run makes the same
/// storage operations in the same order, so each crash point is the same
/// one on every run.
#[test]
fn a_hand_pumped_engine_recovers_the_acknowledged_prefix_at_every_crash_point() {
    let mode = Maintenance::Pumped;
    let counted: Vec<u64> = (0..2)
        .map(|_| {
            let fs = FaultFs::new();
            let engine = open_as(&fs, mode).expect("fault-free open");
            let mut oracle = BTreeMap::new();
            apply_as(&engine, mode, &mut oracle);
            assert_eq!(contents(&engine), oracle, "fault-free run disagrees");
            let stats = engine.stats();
            let pumped = ["sst_flushes", "compactions"].map(|name| stats.get(name));
            assert!(pumped.iter().all(|ran| ran > &Some(0)), "{stats}");
            drop(engine);
            fs.op_count()
        })
        .collect();
    assert_eq!(counted[0], counted[1], "two runs, two op counts");
    let total = counted[0];
    assert!(total > 100, "{total} storage ops");

    for cut in 0..=total {
        let fs = FaultFs::new();
        fs.crash_at_op(cut);
        let oracle = run_as(&fs, mode, &format!("crash at op {cut}"));
        fs.reboot();
        let recovered = open_as(&fs, mode)
            .unwrap_or_else(|error| panic!("reopen after crash at op {cut} failed: {error}"));
        assert_eq!(
            contents(&recovered),
            oracle,
            "crash at storage op {cut}/{total}: recovered state must be \
             exactly the acknowledged prefix"
        );
    }
}

/// The worker's crash sweep once more, now also asking the engine whether
/// a job panicked on the worker — a panic there reaches no caller.
#[test]
fn no_maintenance_job_panics_on_the_worker_at_any_crash_point() {
    let mode = Maintenance::Worker;
    let fs = FaultFs::new();
    run_as(&fs, mode, "fault-free");
    let total = fs.op_count();
    for cut in 0..=total {
        let fs = FaultFs::new();
        fs.crash_at_op(cut);
        let oracle = run_as(&fs, mode, &format!("crash at op {cut}"));
        fs.reboot();
        let recovered = open_as(&fs, mode)
            .unwrap_or_else(|error| panic!("reopen after crash at op {cut} failed: {error}"));
        assert_eq!(contents(&recovered), oracle, "crash at storage op {cut}");
    }
}

/// The error-kind sweep with each way of maintaining the engine.
#[test]
fn no_error_kind_panics_maintenance_on_either_thread() {
    let kinds = [
        ErrorKind::NotFound,
        ErrorKind::PermissionDenied,
        ErrorKind::StorageFull,
        ErrorKind::Interrupted,
        ErrorKind::UnexpectedEof,
        ErrorKind::WriteZero,
        ErrorKind::InvalidData,
        ErrorKind::TimedOut,
        ErrorKind::BrokenPipe,
        ErrorKind::Other,
    ];
    for mode in BOTH {
        for kind in kinds {
            for nth in [1u64, 3, 9, 27, 81] {
                for fail_sync in [false, true] {
                    let case = format!("{kind:?}/nth={nth}/sync={fail_sync}");
                    let fs = FaultFs::new();
                    if fail_sync {
                        fs.fail_nth_sync(nth, kind);
                    } else {
                        fs.fail_nth_write(nth, kind);
                    }
                    let oracle = run_as(&fs, mode, &case);
                    fs.reboot();
                    let recovered = open_as(&fs, mode)
                        .unwrap_or_else(|error| panic!("{mode:?} {case}: reopen failed: {error}"));
                    assert_eq!(
                        contents(&recovered),
                        oracle,
                        "{mode:?} {case}: acknowledged prefix lost"
                    );
                }
            }
        }
    }
}

/// The torn-write sweep with each way of maintaining the engine: a
/// restart without a reboot keeps exactly the acknowledged prefix.
#[test]
fn torn_writes_never_leak_whichever_thread_maintains() {
    for mode in BOTH {
        for nth in 1..=40u64 {
            for keep in [0usize, 1, 7] {
                let case = format!("torn write {nth}/keep={keep}");
                let fs = FaultFs::new();
                fs.torn_nth_write(nth, keep);
                let oracle = run_as(&fs, mode, &case);
                fs.clear_faults();
                let recovered = open_as(&fs, mode)
                    .unwrap_or_else(|error| panic!("{mode:?} {case}: reopen failed: {error}"));
                assert_eq!(
                    contents(&recovered),
                    oracle,
                    "{mode:?} {case}: restart must keep exactly the acknowledged prefix"
                );
            }
        }
    }
}
