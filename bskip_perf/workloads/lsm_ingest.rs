//! `lsm_ingest`: the write side of the LSM engine.  One thread issues
//! **point** operations (one WAL record each, so a per-operation latency
//! is a clean sample) into a fresh engine: mostly fresh puts, with
//! overwrites, deletes, lookups of recently written keys (memtable hits)
//! and scans mixed in.  The engine is the default one at a quarter of its
//! size ([`config`]), so that the million operations twenty seconds allow
//! rotate and flush the memtable inline some 34 times and compact some 40
//! times over three levels.  Seven operations in ten add a key, so the
//! data set grows throughout and write amplification grows with its
//! depth — by the same amount in every run, the op count being fixed.
//! The run ends with a drop without shutdown, a timed reopen, and a
//! full-scan check of the recovered engine.

use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bskip_index::ConcurrentIndex;
use bskip_lsm::wal::encode_batch;
use bskip_lsm::{FaultFs, LsmConfig, LsmEngine, Memtable, Slot, StdFs, Storage, WalOp, WalWriter};

use super::{
    lsm_ingest_preload, ns_per_call, oracle_mismatches, repeat_setup, Fallible, LsmDir, Outcome,
    RunCfg, StorageAmp,
};
use crate::gen::{value_of, KeyDist, KeySpace, Mix, OpGen};
use crate::harness::{begin_height_run, run_phase, seed_heights, DirectWorker};
use crate::hostref::HostRef;
use crate::scratch::ScratchDir;
use crate::trace::{self, Name};

pub const NAME: &str = "lsm_ingest";
pub const WHY: &str = "LSM write path: WAL encode/append, memtable apply, rotation, flush, \
                       compaction, recovery; one thread, point ops";

/// Keys ingested by the set-up, so overwrites and scans have something
/// to hit from the first timed operation on.
const PRELOAD: u64 = 200_000;
/// Operations per slice: about half a second mid-run (the engine slows
/// as tables pile up, the same way in every run).
const SLICE_OPS: usize = 25_000;

/// How the workload's timings follow the host index (`hostref.rs`): the
/// log-log slope over forty identical runs was 1.15–1.3 for throughput,
/// gets and puts (a `write` per operation, a memtable larger than L2) and
/// 0.6 for scans.
const HOST_SENSITIVITY: f64 = 1.0;

const MIX: Mix = Mix {
    get: 0,
    get_absent: 0,
    get_recent: 10,
    put_fresh: 70,
    put_over: 10,
    del: 5,
    scan: 5,
};

/// The default engine with every size divided by four (memtable 1 MiB,
/// level 1 2 MiB, tables 512 KiB; blocks, bloom filters, the compaction
/// trigger and the level multiplier as shipped): the same shape, four
/// times the rotations and compactions per operation.
fn config() -> LsmConfig {
    let shipped = LsmDir::config();
    LsmConfig {
        memtable_bytes: shipped.memtable_bytes / 4,
        level_base_bytes: shipped.level_base_bytes / 4,
        table_target_bytes: shipped.table_target_bytes / 4,
        ..shipped
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let preload = cfg.size(PRELOAD);

    let mut host = HostRef::new();
    let ((engine, dir, gen), setup) = repeat_setup(cfg.setup_reps(7), &mut host, || {
        begin_height_run(cfg.seed);
        let gen = OpGen::new(cfg.seed, 0, 1, preload, MIX, KeyDist::Uniform);
        let dir = LsmDir::new(NAME);
        let start = Instant::now();
        let engine = dir.open(config());
        lsm_ingest_preload(&engine, std::slice::from_ref(&gen));
        ((engine, dir, gen), start.elapsed().as_secs_f64())
    });

    let stats_before = engine.stats();
    let storage_before = dir.counters.snapshot();
    let target = Fallible(&engine);
    let mut workers = [DirectWorker {
        gen,
        target: &target,
    }];
    // The traced pass keeps the full length: rotations, compactions and
    // write amplification only mean something over the whole phase.
    let plan = cfg.full_plan(SLICE_OPS);
    let phase = run_phase(&mut workers, plan, &mut host);
    let [DirectWorker { gen, .. }] = workers;
    let stats_after = engine.stats();
    let traffic = dir.counters.snapshot().since(&storage_before);
    let storage = StorageAmp::of(&traffic, &[&gen]);
    let failed_io = engine.io_errors() + engine.write_failures();

    // No shutdown path exists: dropping the engine flushes nothing, and
    // reopening it replays the WAL.
    drop(engine);
    let reopen = Instant::now();
    let engine = dir.open(config());
    let recover_ms = reopen.elapsed().as_secs_f64() * 1e3;
    let (mut oracle_mismatches, live_keys) = oracle_mismatches(
        &[&gen],
        engine.scan_bounds(Bound::Unbounded, Bound::Unbounded),
    );
    oracle_mismatches += failed_io + (engine.len() as u64).abs_diff(live_keys);
    engine.maintain().expect("settle the recovered engine");
    let space_amp = dir.dir.file_bytes().expect("size the engine directory") as f64
        / (16.0 * live_keys.max(1) as f64);

    let mut layers = Vec::new();
    if cfg.traced {
        let delta = |name: &str| {
            (stats_after.get(name).unwrap_or(0) - stats_before.get(name).unwrap_or(0)) as f64
        };
        let put = trace::agg_of(Name::OpPut);
        let traced_wall_ns = phase.traced_wall_s * 1e9;
        layers.extend([
            ("lsm.rotations", delta("memtable_rotations")),
            ("lsm.flushes", delta("sst_flushes")),
            ("lsm.compactions", delta("compactions")),
            (
                "lsm.sst_bytes_written",
                traffic.append_bytes as f64 - delta("wal_bytes"),
            ),
            (
                "lsm.storage_write_calls_per_put",
                traffic.append_calls as f64 / gen.puts.max(1) as f64,
            ),
            ("lsm.storage_syncs", traffic.syncs as f64),
            ("lsm.recover_ms", recover_ms),
            ("lsm.maint_share", put.slow_ns as f64 / traced_wall_ns),
            ("lsm.stall_max_ms", put.max_ns as f64 / 1e6),
        ]);
        layers.extend(direct_probes(cfg));
    }

    Outcome {
        setup,
        host_sensitivity: HOST_SENSITIVITY,
        phase,
        space_amp,
        live_keys,
        oracle_mismatches,
        storage: Some(storage),
        layers,
    }
}

/// Direct timed loops over the write path's public functions, bottom up:
/// memtable, WAL encode and append, the engine over an in-memory
/// filesystem and over the real one, flush and compaction.
fn direct_probes(cfg: &RunCfg) -> Vec<(&'static str, f64)> {
    /// Fits the shipped 4 MiB memtable (40 B charged per put): no
    /// rotation, so the put rungs time the foreground path alone.
    const PUTS: usize = 90_000;
    seed_heights(Some(0));
    let keys = KeySpace::new(cfg.seed ^ 0x1A55);
    let key = |i: usize| keys.key(i as u64);
    let mut layers = Vec::new();

    let memtable: Memtable<u64, u64> = Memtable::new(vec![0]);
    layers.push((
        "lsm.memtable_apply_ns",
        ns_per_call(PUTS, |i| {
            memtable.apply(key(i), Slot::Put(value_of(key(i), 0)));
        }),
    ));
    layers.push((
        "lsm.memtable_get_ns",
        ns_per_call(PUTS, |i| {
            assert!(memtable.get(&key(i)).is_some(), "memtable lost a key");
        }),
    ));

    let record = |i: usize| {
        encode_batch(&[WalOp::Put {
            key: key(i),
            value: value_of(key(i), 0),
        }])
    };
    layers.push((
        "lsm.wal_encode_ns",
        ns_per_call(PUTS, |i| {
            std::hint::black_box(record(i));
        }),
    ));
    let wal_dir = ScratchDir::new("wal_probe").expect("create scratch directory");
    let mut wal = WalWriter::create(
        &StdFs,
        &wal_dir.path().join("probe.log"),
        LsmDir::config().sync,
    )
    .expect("create the probe WAL");
    let payloads: Vec<Vec<u8>> = (0..PUTS).map(record).collect();
    layers.push((
        "lsm.wal_append_ns",
        ns_per_call(PUTS, |i| {
            wal.append(&payloads[i]).expect("WAL append");
        }),
    ));
    layers.push(("lsm.wal_bytes_per_put", wal.bytes() as f64 / PUTS as f64));

    // Ladder: the same puts through the whole engine, first without a
    // filesystem under it, then with one; the gap is VFS + syscall.
    let put_and_get = |engine: &LsmEngine<u64, u64>| {
        let put = ns_per_call(PUTS, |i| {
            engine
                .try_insert(key(i), value_of(key(i), 0))
                .expect("engine put");
        });
        let get = ns_per_call(PUTS, |i| {
            assert!(engine.try_get(&key(i)).expect("engine get").is_some());
        });
        (put, get)
    };
    let mem_fs: Arc<dyn Storage> = Arc::new(FaultFs::new());
    let mem_engine = LsmEngine::open_with(mem_fs, "/bskip_perf/memfs", LsmDir::config())
        .expect("open the in-memory engine");
    layers.push(("lsm.engine_put_memfs_ns", put_and_get(&mem_engine).0));
    drop(mem_engine);
    let std_dir = LsmDir::new("put_probe");
    let std_engine = std_dir.open(LsmDir::config());
    let (put_std, get_memtable) = put_and_get(&std_engine);
    layers.push(("lsm.engine_put_stdfs_ns", put_std));
    layers.push(("lsm.engine_get_memtable_ns", get_memtable));
    drop(std_engine);

    // Flush and compaction on their own: ingest four memtables with
    // maintenance off, then time the two explicit pumps by the bytes they
    // write.
    let pump_dir = LsmDir::new("pump_probe");
    let pump = pump_dir.open(LsmConfig {
        auto_maintain: false,
        ..LsmDir::config()
    });
    for i in 0..4 * PUTS {
        pump.try_insert(key(i), value_of(key(i), 0))
            .expect("engine put");
        if (i + 1) % PUTS == 0 {
            pump.rotate().expect("rotate");
        }
    }
    let timed_mb_per_s = |step: &dyn Fn()| {
        let before = pump_dir.counters.snapshot();
        let start = Instant::now();
        step();
        let seconds = start.elapsed().as_secs_f64();
        let written = pump_dir.counters.snapshot().since(&before).append_bytes;
        written as f64 / 1e6 / seconds
    };
    layers.push((
        "lsm.flush_mb_per_s",
        timed_mb_per_s(&|| {
            pump.flush().expect("flush");
        }),
    ));
    layers.push((
        "lsm.compact_mb_per_s",
        timed_mb_per_s(&|| {
            pump.compact().expect("compact");
        }),
    ));
    layers
}
