//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics.  `BENCHMARK.json` at the root of
//! the repository is this table written out (a unit test keeps the two
//! identical), and every run reports exactly these names.

use crate::gen::Class;
use crate::harness::ClassLat;
use crate::stats::{iqr_frac, median};
use crate::workloads::{lsm_ingest, lsm_read, mem_mix, svc_pipe, Outcome, RunCfg};

/// Seconds the timed phase of one run lasts on the reference box.  The op
/// counts that make it so are constants of the workloads; `--seconds`
/// takes this value and no other.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunCfg) -> Outcome,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: mem_mix::NAME,
        why: mem_mix::WHY,
        run: mem_mix::run,
    },
    Workload {
        name: lsm_read::NAME,
        why: lsm_read::WHY,
        run: lsm_read::run,
    },
    Workload {
        name: lsm_ingest::NAME,
        why: lsm_ingest::WHY,
        run: lsm_ingest::run,
    },
    Workload {
        name: svc_pipe::NAME,
        why: svc_pipe::WHY,
        run: svc_pipe::run,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn text(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; every workload reports every
/// one of them, and none is ever 0.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub value: fn(&Outcome) -> f64,
}

/// A latency in reference-host time (see `hostref.rs`).  NaN when no
/// latency slice sampled the class: every workload's mix has gets, puts
/// and scans, so that is a broken run, and reported as one.
fn lat(outcome: &Outcome, class: Class, pick: fn(&ClassLat) -> f64) -> f64 {
    outcome
        .phase
        .raw_lat_us(class, pick)
        .map_or(f64::NAN, |us| us / outcome.host_factor())
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: |o| o.setup.raw_s() / o.host_factor(),
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        value: |o| o.phase.raw_ops_per_s() * o.host_factor(),
    },
    EndToEnd {
        name: "get_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        value: |o| lat(o, Class::Get, |l| l.p50_ns),
    },
    EndToEnd {
        name: "put_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        value: |o| lat(o, Class::Put, |l| l.p50_ns),
    },
    EndToEnd {
        name: "scan_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        value: |o| lat(o, Class::Scan, |l| l.p50_ns),
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
        value: |o| o.phase.allocs as f64 / o.phase.attempted.max(1) as f64,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        value: |o| o.space_amp,
    },
];

/// A metric of one layer (the crate its prefix names); no bound.  Only
/// the workloads that exercise the layer measure it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 75] = [
    // End-to-end by nature, but the contract wants every end-to-end
    // metric from every workload and never 0: the first two exist on the
    // LSM workloads only, the third is 0 when all is well.
    low("write_amp", "ratio"),
    low("read_bytes_per_get", "B"),
    low("fail_frac", "ratio"),
    // Tail latency, the paper's second claim: on this host a p99 repeats
    // to 15-70 % between identical runs, so no bound under 25 % holds.
    low("get_p99_us", "us"),
    low("put_p99_us", "us"),
    // bskip-sync
    low("sync.ebr_pin_ns", "ns"),
    low("sync.ebr_pins_per_op", "count"),
    low("sync.ebr_backlog_end", "count"),
    // bskip-core
    low("core.get_ns", "ns"),
    low("core.put_fresh_ns", "ns"),
    low("core.put_over_ns", "ns"),
    low("core.del_ns", "ns"),
    low("core.scan100_ns", "ns"),
    low("core.exec64_ns_per_op", "ns"),
    low("core.nodes_per_get", "count"),
    high("core.optimistic_hit_rate", "ratio"),
    low("core.splits_per_kput", "count"),
    high("core.keys_per_node_start", "count"),
    high("core.keys_per_node_end", "count"),
    // bskip-index
    low("index.dyn_delta_ns", "ns"),
    low("index.shard_get_delta_ns", "ns"),
    low("index.shard_exec64_delta_ns_per_op", "ns"),
    low("index.merge_scan100_delta_ns", "ns"),
    // bskip-lsm
    low("lsm.memtable_get_ns", "ns"),
    low("lsm.memtable_apply_ns", "ns"),
    low("lsm.wal_encode_ns", "ns"),
    low("lsm.wal_append_ns", "ns"),
    low("lsm.wal_bytes_per_put", "B"),
    low("lsm.engine_put_memfs_ns", "ns"),
    low("lsm.engine_put_stdfs_ns", "ns"),
    low("lsm.engine_get_memtable_ns", "ns"),
    low("lsm.engine_get_table_ns", "ns"),
    low("lsm.bloom_probe_ns", "ns"),
    low("lsm.bloom_fp_rate", "ratio"),
    low("lsm.table_get_ns", "ns"),
    low("lsm.allocs_per_table_get", "count"),
    low("lsm.storage_reads_per_get", "count"),
    low("lsm.scan100_ns", "ns"),
    low("lsm.read_mix_ns", "ns"),
    high("lsm.flush_mb_per_s", "MB/s"),
    high("lsm.compact_mb_per_s", "MB/s"),
    low("lsm.maint_share", "ratio"),
    low("lsm.stall_max_ms", "ms"),
    low("lsm.rotations", "count"),
    low("lsm.flushes", "count"),
    low("lsm.compactions", "count"),
    low("lsm.sst_bytes_written", "B"),
    low("lsm.storage_write_calls_per_put", "count"),
    low("lsm.storage_syncs", "count"),
    low("lsm.recover_ms", "ms"),
    // bskip-net
    low("net.encode_req_ns", "ns"),
    low("net.decode_req_ns", "ns"),
    low("net.encode_resp_ns", "ns"),
    low("net.decode_resp_ns", "ns"),
    low("net.wire_bytes_per_op", "B"),
    low("net.rtt_depth1_us", "us"),
    low("net.window32_us_per_op", "us"),
    low("net.wire_delta_us_per_op", "us"),
    high("net.mean_batch", "count"),
    low("net.server_exec_share", "ratio"),
    // The benchmark itself: how fast and how quiet the host was.
    // The host-speed index every timing is divided by, and its kernels.
    low("bench.host_index", "ratio"),
    low("bench.ref_mem_ns", "ns"),
    low("bench.ref_sys_ns", "ns"),
    low("bench.timer_ns", "ns"),
    low("bench.slice_iqr_frac", "ratio"),
    low("bench.trace_overhead_frac", "ratio"),
    // Ladder's top rung over the phase's per-operation time, minus one.
    low("bench.ladder_gap_frac", "ratio"),
    // Span self time (span − children) per operation of the traced
    // slices, by the layer the span sits on.
    low("trace.op_self_ns", "ns"),
    low("trace.backend_self_ns", "ns"),
    low("trace.shard_self_ns", "ns"),
    low("trace.storage_self_ns", "ns"),
    // Calls that crossed each wrapper per operation of the traced slices.
    low("trace.backend_calls_per_op", "count"),
    low("trace.shard_calls_per_op", "count"),
    low("trace.storage_calls_per_op", "count"),
    low("trace.storage_bytes_per_op", "B"),
];

/// The per-layer metrics every traced run has, whatever the workload.
pub fn common_layers(outcome: &Outcome, failed: u64) -> Vec<(&'static str, f64)> {
    let phase = &outcome.phase;
    let traced = median(&phase.traced_throughput);
    let host = outcome.host();
    let mut layers = storage_layers(outcome);
    layers.extend([
        ("fail_frac", failed as f64 / phase.attempted.max(1) as f64),
        ("get_p99_us", lat(outcome, Class::Get, |l| l.p99_ns)),
        ("put_p99_us", lat(outcome, Class::Put, |l| l.p99_ns)),
        ("bench.host_index", host.index()),
        ("bench.ref_mem_ns", host.mem_ns),
        ("bench.ref_sys_ns", host.sys_ns),
        ("bench.timer_ns", crate::harness::timer_ns()),
        ("bench.slice_iqr_frac", iqr_frac(&phase.throughput)),
        (
            "bench.trace_overhead_frac",
            1.0 - traced / phase.raw_ops_per_s(),
        ),
    ]);
    layers
}

/// `write_amp` and `read_bytes_per_get` of a run that has them: an LSM
/// workload's, traced or not.
pub fn storage_layers(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome.storage.map_or(Vec::new(), |storage| {
        vec![
            ("write_amp", storage.write_amp),
            ("read_bytes_per_get", storage.read_bytes_per_get),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// The directory that holds the benchmark, relative to the
    /// repository root.
    const PATH: &str = "bskip_perf";

    /// `BENCHMARK.json` as this table defines it.
    fn benchmark_json() -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"{PATH}/Cargo.toml\", \"--\"],"
        );
        let _ = writeln!(out, "  \"paths\": [\"{PATH}\"],");
        let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
        out.push_str("  \"workloads\": [\n");
        for (at, workload) in WORKLOADS.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
                workload.name,
                workload.why,
                if at + 1 < WORKLOADS.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"end_to_end\": [\n");
        for (at, metric) in END_TO_END.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
                metric.name,
                metric.unit,
                metric.better.text(),
                metric.bound,
                if at + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"per_layer\": [\n");
        for (at, metric) in PER_LAYER.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
                metric.name,
                metric.unit,
                metric.better.text(),
                if at + 1 < PER_LAYER.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let expected = benchmark_json();
        let committed = include_str!("../BENCHMARK.json");
        assert!(
            committed == expected,
            "BENCHMARK.json is out of date; it should read:\n{expected}"
        );
    }

    #[test]
    fn the_table_meets_the_contract() {
        let name_ok = |name: &str| {
            let mut chars = name.chars();
            name.len() <= 64
                && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
                && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            (1..=16).contains(&unit.len())
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|name| name_ok(name)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 << 10);
    }
}
