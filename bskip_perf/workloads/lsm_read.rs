//! `lsm_read`: the read side of the LSM engine.  One million keys sit in
//! SSTables on at least two levels (16 MB of user data against the 4 MiB
//! memtable, the engine's only cache), so every get goes memtable miss →
//! bloom → block read → CRC → decode, and every scan through the K-way
//! merge cursor.  The 5 % overwrites never fill a memtable: WAL, flush
//! and compaction stay idle.

use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bskip_index::{ConcurrentIndex, IndexCursor};
use bskip_lsm::{LsmEngine, StdFs, Table};

use super::{
    lsm_ingest_preload, ns_per_call, oracle_mismatches, repeat_setup, threads, Fallible, LsmDir,
    Outcome, RunCfg, StorageAmp,
};
use crate::alloc;
use crate::gen::{BenchOp, KeyDist, Kind, Mix, OpGen, SplitMix};
use crate::harness::{apply, begin_height_run, run_phase, DirectWorker};
use crate::hostref::HostRef;

pub const NAME: &str = "lsm_read";
pub const WHY: &str =
    "LSM read path: memtable miss, bloom, block read, CRC, decode, merge cursor; \
                       data in SSTables on 2+ levels, write side idle";

/// Keys ingested by the set-up: the most that three repetitions of it
/// leave room for in a run.
const PRELOAD: u64 = 1_000_000;
/// Operations per thread per slice: about half a second, and even the
/// 5 % of puts give a latency slice 1 600 samples.
const SLICE_OPS: usize = 16_000;

/// How the workload's timings follow the host index (`hostref.rs`): the
/// log-log slope over forty identical runs was 0.5–0.75 — a `pread` and a
/// block decode per lookup, half of it plain CPU work the host's regimes
/// leave alone.
const HOST_SENSITIVITY: f64 = 0.5;

const MIX: Mix = Mix {
    get: 75,
    get_absent: 10,
    get_recent: 0,
    put_fresh: 0,
    put_over: 5,
    del: 0,
    scan: 10,
};

fn generators(cfg: &RunCfg, preload: u64) -> Vec<OpGen> {
    let threads = threads();
    (0..threads)
        .map(|thread| OpGen::new(cfg.seed, thread, threads, preload, MIX, KeyDist::Uniform))
        .collect()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let preload = cfg.size(PRELOAD);

    let mut host = HostRef::new();
    let ((engine, dir, gens), setup) = repeat_setup(cfg.setup_reps(3), &mut host, || {
        begin_height_run(cfg.seed);
        let gens = generators(cfg, preload);
        let dir = LsmDir::new(NAME);
        let start = Instant::now();
        let engine = dir.open(LsmDir::config());
        lsm_ingest_preload(&engine, &gens);
        engine.maintain().expect("settle the preload into tables");
        ((engine, dir, gens), start.elapsed().as_secs_f64())
    });
    let levels = engine.tables_per_level();
    assert!(
        cfg.quick || levels.iter().filter(|&&tables| tables > 0).count() >= 2,
        "lsm_read needs tables on two levels, got {levels:?}"
    );

    let target = Fallible(&engine);
    let mut workers: Vec<_> = gens
        .into_iter()
        .map(|gen| DirectWorker {
            gen,
            target: &target,
        })
        .collect();
    let storage_before = dir.counters.snapshot();
    let phase = run_phase(&mut workers, cfg.plan(SLICE_OPS), &mut host);
    let traffic = dir.counters.snapshot().since(&storage_before);
    let mut gens: Vec<OpGen> = workers.into_iter().map(|w| w.gen).collect();
    let gen_refs: Vec<&OpGen> = gens.iter().collect();
    let storage = StorageAmp::of(&traffic, &gen_refs);

    engine.maintain().expect("flush the overwrites");
    let failed_io = engine.io_errors() + engine.write_failures();
    let (mut oracle_mismatches, live_keys) = oracle_mismatches(
        &gen_refs,
        engine.scan_bounds(Bound::Unbounded, Bound::Unbounded),
    );
    oracle_mismatches += failed_io;
    let space_amp = dir.dir.file_bytes().expect("size the engine directory") as f64
        / (16.0 * live_keys.max(1) as f64);

    let mut layers = Vec::new();
    if cfg.traced {
        let (mix_ns, rungs) = ladder(&engine, &dir, &mut gens[0]);
        // The per-layer deltas account for the end-to-end number when the
        // top rung — the mix at the ladder's single-thread prices — is
        // what an operation cost a thread of the phase.
        let phase_ns = threads() as f64 * 1e9 / phase.raw_ops_per_s();
        layers.extend(rungs);
        layers.push(("bench.ladder_gap_frac", mix_ns / phase_ns - 1.0));
        layers.extend(table_probes(cfg, &dir));
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

/// The engine rung of the ladder on the data the phase ran on: one
/// thread, gets that a table answers and scans over tables, with the
/// storage calls each get costs.  Returns the top rung (the workload's mix
/// priced at these rungs: what one operation of `lsm_read` should cost a
/// thread) and the metrics, that one among them.
fn ladder(
    engine: &LsmEngine<u64, u64>,
    dir: &LsmDir,
    gen: &mut OpGen,
) -> (f64, Vec<(&'static str, f64)>) {
    const GETS: usize = 60_000;
    const ABSENT: usize = 20_000;
    const PUTS: usize = 5_000;
    const SCANS: usize = 4_000;
    let target = Fallible(engine);
    let mut timed = |mix: Mix, count: usize| {
        let mut ops: Vec<BenchOp> = Vec::new();
        gen.retarget(mix).generate(count, &mut ops);
        ns_per_call(ops.len(), |i| {
            assert!(apply(&target, &ops[i]), "ladder operation failed");
        })
    };
    let before = dir.counters.snapshot();
    let get_ns = timed(Mix::only(Kind::Get), GETS);
    let reads = dir.counters.snapshot().since(&before);
    let absent_ns = timed(Mix::only(Kind::GetAbsent), ABSENT);
    let put_ns = timed(Mix::only(Kind::PutOver), PUTS);
    let scan_ns = timed(Mix::only(Kind::Scan), SCANS);
    let share = |percent: u8| percent as f64 / 100.0;
    let mix_ns = share(MIX.get) * get_ns
        + share(MIX.get_absent) * absent_ns
        + share(MIX.put_over) * put_ns
        + share(MIX.scan) * scan_ns;
    let rungs = vec![
        ("lsm.engine_get_table_ns", get_ns),
        ("lsm.scan100_ns", scan_ns),
        ("lsm.read_mix_ns", mix_ns),
        (
            "lsm.storage_reads_per_get",
            reads.read_calls as f64 / GETS as f64,
        ),
    ];
    (mix_ns, rungs)
}

/// Direct probes of one SSTable of the engine (its largest): the bloom
/// filter on absent keys, and `Table::get` on present ones.
fn table_probes(cfg: &RunCfg, dir: &LsmDir) -> Vec<(&'static str, f64)> {
    const PROBES: usize = 60_000;
    let largest = std::fs::read_dir(dir.dir.path())
        .expect("list the engine directory")
        .filter_map(Result::ok)
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "sst"))
        .max_by_key(|entry| entry.metadata().map_or(0, |meta| meta.len()))
        .expect("the engine has a table")
        .path();
    let table: Arc<Table<u64, u64>> =
        Arc::new(Table::open(&StdFs, &largest, 0).expect("open the table directly"));

    let mut present = Vec::new();
    let mut cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
    while let Some((key, _)) = cursor.next() {
        present.push(key);
    }
    let mut rng = SplitMix::new(cfg.seed ^ 0x7AB1E);
    let span = table.max_key - table.min_key;
    let absent: Vec<u64> = (0..PROBES)
        .map(|_| table.min_key + rng.below(span.max(1)))
        .filter(|key| present.binary_search(key).is_err())
        .collect();
    let hits: Vec<u64> = (0..PROBES)
        .map(|_| present[rng.below(present.len() as u64) as usize])
        .collect();

    let mut false_positives = 0u64;
    let bloom_ns = ns_per_call(absent.len(), |i| {
        false_positives += table.may_contain(&absent[i]) as u64;
    });
    let allocs_before = alloc::allocs();
    let get_ns = ns_per_call(hits.len(), |i| {
        let slot = table.get(&hits[i]).expect("table read");
        assert!(slot.is_some(), "a key of the table is missing from it");
    });
    let allocs = alloc::allocs() - allocs_before;
    vec![
        ("lsm.bloom_probe_ns", bloom_ns),
        (
            "lsm.bloom_fp_rate",
            false_positives as f64 / absent.len().max(1) as f64,
        ),
        ("lsm.table_get_ns", get_ns),
        (
            "lsm.allocs_per_table_get",
            allocs as f64 / hits.len() as f64,
        ),
    ]
}
