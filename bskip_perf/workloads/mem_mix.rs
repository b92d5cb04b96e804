//! `mem_mix`: the paper's own subject.  A `BSkipList` with the paper's
//! configuration behind `&dyn ConcurrentIndex`, two threads, a scrambled
//! zipfian(0.99) mix of gets, fresh puts, overwrites, deletes and
//! 100-entry scans over one million preloaded keys.  Optimistic descent,
//! in-node search, the EBR pin, top-down insert/split and remove/merge
//! all run, with two writers meeting on hot leaves; `bskip-lsm` and
//! `bskip-net` do nothing here.

use std::time::Instant;

use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::ConcurrentIndex;
use bskip_sync::EbrCollector;

use super::{
    ns_per_call, oracle_mismatches, preload_parallel, repeat_setup, threads, Infallible, Outcome,
    RunCfg,
};
use crate::alloc;
use crate::gen::{BenchOp, KeyDist, Kind, Mix, OpGen, Zipfian};
use crate::harness::{
    apply, begin_height_run, run_phase, seed_heights, DirectWorker, Phase, Plan, Target,
};
use crate::hostref::HostRef;

pub const NAME: &str = "mem_mix";
pub const WHY: &str = "B-skiplist alone: descent, in-node search, EBR pin, split/merge, \
                       two writers on hot leaves; LSM and wire idle";

/// Keys preloaded before the clock starts.
const PRELOAD: u64 = 1_000_000;
/// Operations per thread per slice (about half a second on the
/// reference box).
const SLICE_OPS: usize = 300_000;
const THETA: f64 = 0.99;

/// How the workload's timings follow the host index (`hostref.rs`): the
/// log-log slope over forty identical runs was 0.3–0.75.  Nothing here
/// enters the kernel, and the hot end of the zipfian stays in cache, so
/// the index's `sys` half and part of its `mem` half pass it by.
const HOST_SENSITIVITY: f64 = 0.5;

const MIX: Mix = Mix {
    get: 55,
    get_absent: 0,
    get_recent: 0,
    put_fresh: 15,
    put_over: 10,
    del: 15,
    scan: 5,
};

fn generators(cfg: &RunCfg, preload: u64, zipf: &Zipfian) -> Vec<OpGen> {
    let threads = threads();
    (0..threads)
        .map(|thread| {
            OpGen::new(
                cfg.seed,
                thread,
                threads,
                preload,
                MIX,
                KeyDist::Zipfian(zipf.clone()),
            )
        })
        .collect()
}

fn build(config: BSkipConfig, gens: &[OpGen]) -> BSkipList<u64, u64> {
    let list = BSkipList::with_config(config);
    preload_parallel(gens, &|key, value| {
        list.insert(key, value);
    });
    list
}

/// The timed phase over `list`; hands the generators (now the oracle's
/// model) back.
fn timed_phase(
    plan: Plan,
    list: &BSkipList<u64, u64>,
    gens: Vec<OpGen>,
    host: &mut HostRef,
) -> (Phase, Vec<OpGen>) {
    let index: &dyn ConcurrentIndex<u64, u64> = list;
    let target = Infallible(index);
    let mut workers: Vec<_> = gens
        .into_iter()
        .map(|gen| DirectWorker {
            gen,
            target: &target,
        })
        .collect();
    let phase = run_phase(&mut workers, plan, host);
    (phase, workers.into_iter().map(|w| w.gen).collect())
}

fn keys_per_node(list: &BSkipList<u64, u64>) -> f64 {
    list.len() as f64 / list.live_nodes().max(1) as f64
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let preload = cfg.size(PRELOAD);
    let zipf = Zipfian::new(preload, THETA);

    let mut host = HostRef::new();
    let ((list, gens), setup) = repeat_setup(cfg.setup_reps(5), &mut host, || {
        begin_height_run(cfg.seed);
        let gens = generators(cfg, preload, &zipf);
        let start = Instant::now();
        let list = build(BSkipConfig::paper_default(), &gens);
        ((list, gens), start.elapsed().as_secs_f64())
    });
    let keys_per_node_start = keys_per_node(&list);
    let stats_before = ConcurrentIndex::stats(&list);

    let plan = cfg.plan(SLICE_OPS);
    let (phase, mut gens) = timed_phase(plan, &list, gens, &mut host);

    let stats_after = ConcurrentIndex::stats(&list);
    let keys_per_node_end = keys_per_node(&list);
    for _ in 0..8 {
        list.try_reclaim();
    }
    let gen_refs: Vec<&OpGen> = gens.iter().collect();
    let (oracle_mismatches, live_keys) = oracle_mismatches(&gen_refs, list.iter());

    let mut layers = Vec::new();
    if cfg.traced {
        let delta =
            |name: &str| stats_after.get(name).unwrap_or(0) - stats_before.get(name).unwrap_or(0);
        let issued = (plan.ops_per_thread() * gens.len()) as f64;
        layers.push(("sync.ebr_pins_per_op", delta("ebr_pins") as f64 / issued));
        layers.push((
            "sync.ebr_backlog_end",
            stats_after.get("ebr_backlog").unwrap_or(0) as f64,
        ));
        layers.push(("core.keys_per_node_start", keys_per_node_start));
        layers.push(("core.keys_per_node_end", keys_per_node_end));
        layers.extend(counter_twin(cfg, preload, &zipf, &mut host));
        layers.extend(ladder(&list, &mut gens[0]));
    }

    // What the list holds, measured by letting go of it: immune to the
    // benchmark's own buffers, which stay allocated across the drop.
    let with_list = alloc::live_bytes();
    drop(list);
    let index_bytes = (with_list - alloc::live_bytes()).max(0) as f64;

    Outcome {
        setup,
        host_sensitivity: HOST_SENSITIVITY,
        phase,
        space_amp: index_bytes / (16.0 * live_keys.max(1) as f64),
        live_keys,
        oracle_mismatches,
        storage: None,
        layers,
    }
}

/// The counters `bskip-core` only keeps with `with_stats(true)`, from a
/// twin list run through the same two-thread phase — the measured list
/// runs with statistics off, like a production one.
fn counter_twin(
    cfg: &RunCfg,
    preload: u64,
    zipf: &Zipfian,
    host: &mut HostRef,
) -> Vec<(&'static str, f64)> {
    begin_height_run(cfg.seed);
    let gens = generators(cfg, preload, zipf);
    let twin = build(BSkipConfig::paper_default().with_stats(true), &gens);
    twin.stats().reset();
    // Same length as the traced pass, but without spans: they would be
    // counted into the measured list's trace.
    let plan = Plan {
        traced: false,
        ..cfg.plan(SLICE_OPS)
    };
    let (_, mut gens) = timed_phase(plan, &twin, gens, host);
    let stats = twin.stats();
    let puts: u64 = gens.iter().map(|gen| gen.puts).sum();
    let hit_rate = stats.optimistic_hit_rate();
    let splits = stats.promotion_splits.get() + stats.overflow_splits.get();

    // Nodes touched per lookup, from a get-only pass so no other
    // operation's descent is in the counters.
    stats.reset();
    let mut gets = Vec::new();
    gens[0]
        .retarget(Mix::only(Kind::Get))
        .generate(200_000, &mut gets);
    let target = Infallible(&twin);
    for op in &gets {
        assert!(apply(&target, op), "twin lookup failed");
    }
    vec![
        (
            "core.nodes_per_get",
            (stats.levels_visited.get() + stats.horizontal_steps.get()) as f64
                / stats.finds.get().max(1) as f64,
        ),
        ("core.optimistic_hit_rate", hit_rate),
        (
            "core.splits_per_kput",
            splits as f64 * 1000.0 / puts.max(1) as f64,
        ),
    ]
}

/// Ladder rungs 0 and 1 on the list the phase just ran on: one thread,
/// one loop per operation kind, the same keys through the concrete type
/// (static dispatch) and through `&dyn ConcurrentIndex`.
fn ladder(list: &BSkipList<u64, u64>, gen: &mut OpGen) -> Vec<(&'static str, f64)> {
    seed_heights(Some(0));
    const GETS: usize = 300_000;
    const PUTS: usize = 100_000;
    const SCANS: usize = 15_000;
    let stream = |gen: &mut OpGen, mix: Mix, count: usize| {
        let mut ops = Vec::new();
        gen.retarget(mix).generate(count, &mut ops);
        ops
    };
    fn timed<T: Target + ?Sized>(target: &T, ops: &[BenchOp]) -> f64 {
        ns_per_call(ops.len(), |i| {
            assert!(apply(target, &ops[i]), "ladder operation failed");
        })
    }

    let raw = Infallible(list);
    let as_dyn: &dyn ConcurrentIndex<u64, u64> = list;
    let via_dyn = Infallible(as_dyn);

    let gets = stream(gen, Mix::only(Kind::Get), GETS);
    let get_raw = timed(&raw, &gets);
    let get_dyn = timed(&via_dyn, &gets);
    let fresh = stream(gen, Mix::only(Kind::PutFresh), PUTS);
    let put_fresh = timed(&raw, &fresh);
    let over = stream(gen, Mix::only(Kind::PutOver), PUTS);
    let put_over = timed(&raw, &over);
    let dels = stream(gen, Mix::only(Kind::Del), PUTS);
    let del = timed(&raw, &dels);
    let scans = stream(gen, Mix::only(Kind::Scan), SCANS);
    let scan = timed(&raw, &scans);

    let collector = EbrCollector::new();
    let pin = ns_per_call(1_000_000, |_| {
        std::hint::black_box(collector.pin());
    });
    vec![
        ("sync.ebr_pin_ns", pin),
        ("core.get_ns", get_raw),
        ("core.put_fresh_ns", put_fresh),
        ("core.put_over_ns", put_over),
        ("core.del_ns", del),
        ("core.scan100_ns", scan),
        ("index.dyn_delta_ns", get_dyn - get_raw),
    ]
}
