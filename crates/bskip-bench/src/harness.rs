//! Shared experiment plumbing: index registry, scale configuration and
//! output formatting.

use bskip_baselines::{LazySkipList, LockFreeSkipList, MasstreeLite, NhsSkipList, OccBTree};
use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::ConcurrentIndex;
use bskip_ycsb::{
    median, run_load_phase, run_run_phase, run_trials, Distribution, PhaseResult, Workload,
    YcsbConfig,
};

/// The indices evaluated in the paper's Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The paper's contribution (this repository's `bskip-core`).
    BSkipList,
    /// Lock-free CAS skiplist (Folly stand-in).
    LockFreeSkipList,
    /// Optimistic lock-based skiplist (Java ConcurrentSkipListMap stand-in).
    LazySkipList,
    /// No-Hot-Spot skiplist with a background adaptation thread.
    NhsSkipList,
    /// OCC B+-tree (tlx/BP-tree stand-in).
    OccBTree,
    /// Masstree-style narrow-node B+-tree.
    Masstree,
}

impl IndexKind {
    /// The skiplist-family indices compared in Figure 1 / Table 4.
    pub const SKIPLISTS: [IndexKind; 4] = [
        IndexKind::NhsSkipList,
        IndexKind::LockFreeSkipList,
        IndexKind::LazySkipList,
        IndexKind::BSkipList,
    ];

    /// The tree-family indices compared in Figure 7 / Table 5 (plus the
    /// B-skiplist they are normalized against).
    pub const TREES: [IndexKind; 3] = [
        IndexKind::BSkipList,
        IndexKind::OccBTree,
        IndexKind::Masstree,
    ];

    /// Every evaluated index.
    pub const ALL: [IndexKind; 6] = [
        IndexKind::BSkipList,
        IndexKind::LockFreeSkipList,
        IndexKind::LazySkipList,
        IndexKind::NhsSkipList,
        IndexKind::OccBTree,
        IndexKind::Masstree,
    ];

    /// Display label used in output tables (mirrors the paper's names).
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::BSkipList => "B-skiplist",
            IndexKind::LockFreeSkipList => "Folly-style SL",
            IndexKind::LazySkipList => "Java-style SL",
            IndexKind::NhsSkipList => "NoHotSpot SL",
            IndexKind::OccBTree => "OCC B+-tree",
            IndexKind::Masstree => "Masstree-lite",
        }
    }

    /// Builds a fresh instance of the index.
    pub fn build(&self) -> Box<dyn ConcurrentIndex<u64, u64>> {
        match self {
            IndexKind::BSkipList => Box::new(BSkipList::<u64, u64>::with_config(
                BSkipConfig::paper_default(),
            )),
            IndexKind::LockFreeSkipList => Box::new(LockFreeSkipList::<u64, u64>::new()),
            IndexKind::LazySkipList => Box::new(LazySkipList::<u64, u64>::new()),
            IndexKind::NhsSkipList => Box::new(NhsSkipList::<u64, u64>::new()),
            IndexKind::OccBTree => Box::new(OccBTree::<u64, u64>::new()),
            IndexKind::Masstree => Box::new(MasstreeLite::<u64, u64>::new()),
        }
    }

    /// Work performed on a freshly loaded `index` of this kind before its
    /// run phase.  The paper waits for the NHS background thread to
    /// rebalance its index before starting the run phase (and does not
    /// count that time); NHS's `try_reclaim` publishes a fresh index
    /// snapshot, which does the same deterministically.
    pub fn settle_after_load(&self, index: &dyn ConcurrentIndex<u64, u64>) {
        if *self == IndexKind::NhsSkipList {
            index.try_reclaim();
        }
    }
}

/// Experiment scale, read from the environment with laptop-friendly
/// defaults:
///
/// * `BSKIP_RECORDS` — load-phase records (default 200 000)
/// * `BSKIP_OPS` — run-phase operations (default 200 000)
/// * `BSKIP_THREADS` — worker threads (default: available parallelism)
/// * `BSKIP_TRIALS` — trials per cell, median reported (default 1)
///
/// The paper's full scale corresponds to `BSKIP_RECORDS=100000000
/// BSKIP_OPS=100000000 BSKIP_THREADS=128 BSKIP_TRIALS=5`.
pub fn experiment_config() -> (YcsbConfig, usize) {
    let records = env_usize("BSKIP_RECORDS", 200_000);
    let operations = env_usize("BSKIP_OPS", 200_000);
    let threads = env_usize(
        "BSKIP_THREADS",
        std::thread::available_parallelism().map_or(4, |p| p.get()),
    );
    let trials = env_usize("BSKIP_TRIALS", 1).max(1);
    (
        YcsbConfig::default()
            .with_records(records)
            .with_operations(operations)
            .with_threads(threads),
        trials,
    )
}

/// Reads a `usize` experiment knob from the environment, falling back to
/// `default` when the variable is unset or unparsable.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(default)
}

/// Runs one cell of a throughput/latency table: fresh index, load phase,
/// settle, then the requested workload (or just the load phase for
/// [`Workload::Load`]).  Returns the phase result of the *measured* phase
/// together with the index (so callers can inspect statistics).
pub fn run_workload_fresh(
    kind: IndexKind,
    workload: Workload,
    config: &YcsbConfig,
) -> (PhaseResult, Box<dyn ConcurrentIndex<u64, u64>>) {
    let index = kind.build();
    let load_result = run_load_phase(&index, config);
    kind.settle_after_load(index.as_ref());
    let result = if workload == Workload::Load {
        load_result
    } else {
        run_run_phase(&index, workload, config)
    };
    (result, index)
}

/// Figures 9 and 10: strong scaling of every index on `workload` as the
/// thread count doubles from 1 up to `BSKIP_THREADS`.  Speedups are
/// relative to each index's own single-thread throughput, matching the
/// paper's presentation; `paper_note` is the paper's result, printed
/// under the table for comparison.
pub fn scaling_experiment(workload: Workload, title: &str, paper_note: &str) {
    let (base_config, _) = experiment_config();
    let points = thread_points(base_config.threads.max(1));
    println!(
        "{title}: {} records, {} ops, thread points {:?}",
        base_config.record_count, base_config.operation_count, points
    );
    let mut columns = vec!["index".to_string()];
    columns.extend(points.iter().map(|t| format!("{t}T ops/us")));
    columns.push("speedup@max".to_string());
    print_header(
        title,
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for kind in IndexKind::ALL {
        let mut cells = vec![kind.label().to_string()];
        let mut single = 0.0f64;
        let mut last = 0.0f64;
        for &threads in &points {
            let config = base_config.with_threads(threads);
            let (result, _) = run_workload_fresh(kind, workload, &config);
            let throughput = result.throughput_ops_per_us;
            if threads == 1 {
                single = throughput;
            }
            last = throughput;
            cells.push(format!("{throughput:.2}"));
        }
        cells.push(if single > 0.0 {
            format!("{:.1}x", last / single)
        } else {
            "-".into()
        });
        println!("{}", format_row(&cells));
    }
    println!("\n{paper_note}");
}

/// One ratio column of a throughput table: its label, the numerator, and
/// the denominator — an index, or `None` for the best of the others.
pub type RatioColumn = (&'static str, IndexKind, Option<IndexKind>);

/// Figures 1 and 7 (uniform) and 11 and 12 (zipfian): throughput of every
/// index in `kinds` on YCSB Load, A, B, C and E with the run phase drawing
/// keys from `distribution` (median over `BSKIP_TRIALS` fresh runs),
/// followed by the `ratios` columns the figure normalizes by.
pub fn throughput_experiment(
    kinds: &[IndexKind],
    distribution: Distribution,
    banner: &str,
    title: &str,
    ratios: &[RatioColumn],
    paper_note: &str,
) {
    let (config, trials) = experiment_config();
    let config = config.with_distribution(distribution);
    println!(
        "{banner}, {} records, {} ops, {} threads, {} trial(s)",
        config.record_count, config.operation_count, config.threads, trials
    );
    let mut columns = vec!["workload"];
    columns.extend(kinds.iter().map(IndexKind::label));
    columns.extend(ratios.iter().map(|(label, ..)| *label));
    print_header(title, &columns);
    for workload in Workload::ALL {
        let throughput: Vec<f64> = kinds
            .iter()
            .map(|&kind| {
                median(&run_trials(trials, false, |_| {
                    run_workload_fresh(kind, workload, &config)
                        .0
                        .throughput_ops_per_us
                }))
            })
            .collect();
        let of = |wanted| kinds.iter().position(|&kind| kind == wanted);
        let mut cells = vec![workload.label().to_string()];
        cells.extend(throughput.iter().map(|t| format!("{t:.2}")));
        for &(_, numerator, denominator) in ratios {
            let numerator = of(numerator).expect("ratio of an index not in the table");
            let base = match denominator {
                Some(kind) => throughput[of(kind).expect("ratio to an index not in the table")],
                None => throughput
                    .iter()
                    .enumerate()
                    .filter(|(slot, _)| *slot != numerator)
                    .fold(0.0, |best, (_, &t)| f64::max(best, t)),
            };
            cells.push(if base > 0.0 {
                format!("{:.2}", throughput[numerator] / base)
            } else {
                "-".into()
            });
        }
        println!("{}", format_row(&cells));
    }
    println!("\n{paper_note}");
}

/// Figures 6 and 8 (uniform) and 13 (zipfian): latency percentiles
/// (50/90/99/99.9 and mean) of every index in `kinds` on YCSB workload A
/// with the run phase drawing keys from `distribution`; optionally a
/// column of root write locks taken (`-` for an index that does not export
/// `root_write_locks`), and each index's p99 as a multiple of
/// `p99_baseline`'s under the table.
pub fn latency_experiment(
    kinds: &[IndexKind],
    distribution: Distribution,
    banner: &str,
    p99_baseline: Option<IndexKind>,
    root_locks: bool,
    paper_note: &str,
) {
    let (config, _) = experiment_config();
    let config = config.with_distribution(distribution);
    println!(
        "{banner}, {} records, {} ops, {} threads",
        config.record_count, config.operation_count, config.threads
    );
    let mut columns = vec!["index", "p50", "p90", "p99", "p99.9", "mean"];
    if root_locks {
        columns.push("root write locks");
    }
    let title = format!("Latency (us) on YCSB A, {} keys", distribution.label());
    print_header(&title, &columns);
    let mut p99 = Vec::new();
    for &kind in kinds {
        let (result, index) = run_workload_fresh(kind, Workload::A, &config);
        let latency = result.latency;
        p99.push(latency.p99_us);
        let percentiles = [
            latency.p50_us,
            latency.p90_us,
            latency.p99_us,
            latency.p999_us,
            latency.mean_us,
        ];
        let mut cells = vec![kind.label().to_string()];
        cells.extend(percentiles.iter().map(|us| format!("{us:.2}")));
        if root_locks {
            let locks = index.stats().get("root_write_locks");
            cells.push(locks.map_or("-".into(), |locks| locks.to_string()));
        }
        println!("{}", format_row(&cells));
    }
    if root_locks {
        println!(
            "(`-`: the index does not export root_write_locks; stat_root_locks counts \
             the B-skiplist's top-level write locks with statistics on.)"
        );
    }
    if let Some(baseline) = p99_baseline {
        let slot = kinds.iter().position(|&kind| kind == baseline);
        let base = p99[slot.expect("baseline not in the table")];
        println!();
        for (kind, p99) in kinds.iter().zip(&p99) {
            if *kind != baseline && base > 0.0 {
                let (label, base_label) = (kind.label(), baseline.label());
                println!("p99 ratio {label} / {base_label} = {:.1}x", p99 / base);
            }
        }
    }
    println!("\n{paper_note}");
}

/// Powers of two below `max_threads`, then `max_threads` itself.
fn thread_points(max_threads: usize) -> Vec<usize> {
    let mut points = vec![1usize];
    let mut t = 2;
    while t < max_threads {
        points.push(t);
        t *= 2;
    }
    if *points.last().unwrap() != max_threads {
        points.push(max_threads);
    }
    points
}

/// Prints a header line followed by a separator of matching width.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let header = columns.join(" | ");
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
}

/// Formats one row of mixed string/number cells separated like the header.
pub fn format_row(cells: &[String]) -> String {
    cells.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_serves_operations() {
        for kind in IndexKind::ALL {
            let index = kind.build();
            assert!(index.is_empty(), "{} should start empty", kind.label());
            index.insert(1, 10);
            index.insert(2, 20);
            assert_eq!(index.get(&1), Some(10), "{}", kind.label());
            let seen: Vec<u64> = index.scan(1..).take(10).map(|(k, _)| k).collect();
            assert_eq!(seen, vec![1, 2], "{}", kind.label());
            kind.settle_after_load(index.as_ref());
            assert_eq!(index.get(&2), Some(20), "{}", kind.label());
        }
    }

    #[test]
    fn every_kind_serves_cursor_scans() {
        use std::ops::Bound;
        for kind in IndexKind::ALL {
            let index = kind.build();
            for key in 0..64u64 {
                index.insert(key, key * 2);
            }
            kind.settle_after_load(index.as_ref());
            let mut cursor = index.scan_bounds(Bound::Included(10), Bound::Excluded(20));
            let window: Vec<u64> = std::iter::from_fn(|| cursor.next())
                .map(|(k, _)| k)
                .collect();
            assert_eq!(window, (10..20).collect::<Vec<_>>(), "{}", kind.label());
            // Opened near, at and past the end: every cursor drains to
            // the last key and then stays exhausted.
            for from in [59u64, 63, 64] {
                let mut cursor = index.scan_bounds(Bound::Included(from), Bound::Unbounded);
                let tail: Vec<u64> = std::iter::from_fn(|| cursor.next())
                    .map(|(k, _)| k)
                    .collect();
                assert_eq!(tail, (from..64).collect::<Vec<_>>(), "{}", kind.label());
                assert_eq!(cursor.next(), None, "{} from {from}", kind.label());
                assert_eq!(cursor.next(), None, "{} from {from}", kind.label());
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = IndexKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), IndexKind::ALL.len());
    }

    #[test]
    fn run_workload_fresh_loads_and_runs() {
        let config = YcsbConfig::default()
            .with_records(5_000)
            .with_operations(5_000)
            .with_threads(2);
        let (result, index) = run_workload_fresh(IndexKind::BSkipList, Workload::A, &config);
        assert_eq!(result.operations, 5_000);
        assert!(index.len() >= 5_000);
        let (load_result, _) = run_workload_fresh(IndexKind::OccBTree, Workload::Load, &config);
        assert_eq!(load_result.operations, 5_000);
    }

    #[test]
    fn config_env_defaults() {
        let (config, trials) = experiment_config();
        assert!(config.record_count > 0);
        assert!(config.threads > 0);
        assert!(trials >= 1);
    }

    #[test]
    fn formatting_helpers() {
        let row = format_row(&["a".into(), "b".into()]);
        assert_eq!(row, "a | b");
        print_header("test", &["col1", "col2"]);
    }
}
