//! Structural statistics counters for the B-skiplist.

use bskip_sync::{CachePadded, RelaxedCounter};

bskip_index::stat_block! {
    /// Counters mirroring the measurements reported in Section 5 of the paper.
    ///
    /// All counters use relaxed atomics and are only bumped when the owning
    /// list was configured with `collect_stats = true`, so the hot path pays a
    /// single predictable branch when statistics are disabled.
    pub struct BSkipStats {
        /// Point lookups executed.
        pub finds: CachePadded<RelaxedCounter> => Counter "finds",
        /// Insertions executed (including updates of existing keys).
        pub inserts: CachePadded<RelaxedCounter> => Counter "inserts",
        /// Removals executed.
        pub removes: CachePadded<RelaxedCounter> => Counter "removes",
        /// Range queries executed.
        pub ranges: CachePadded<RelaxedCounter> => Counter "ranges",
        /// Horizontal (`next`-pointer) steps taken across all operations.
        pub horizontal_steps: CachePadded<RelaxedCounter> => Counter "horizontal_steps",
        /// Levels descended across all operations (denominator for the
        /// horizontal-steps-per-level statistic the paper reports as ~1.7).
        pub levels_visited: CachePadded<RelaxedCounter> => Counter "levels_visited",
        /// Write-locked passes that entered at the top level, an insertion's
        /// or a removal's (a key whose tower reaches it) — the B-skiplist
        /// equivalent of the B+-tree "root write lock" count (7 vs. 26K in the
        /// paper's load phase).
        pub top_level_write_locks: CachePadded<RelaxedCounter> => Counter "top_level_write_locks",
        /// Splits caused by randomized promotion.
        pub promotion_splits: CachePadded<RelaxedCounter> => Counter "promotion_splits",
        /// Splits caused by fixed-size node overflow.
        pub overflow_splits: CachePadded<RelaxedCounter> => Counter "overflow_splits",
        /// Leaf nodes visited by range queries (the paper reports ~2 nodes per
        /// scan of length 100 for the B-skiplist vs. ~1.5 for the B+-tree).
        pub range_leaf_nodes: CachePadded<RelaxedCounter> => Counter "range_leaf_nodes",
        /// Batches executed through the native `execute` path (each pins the
        /// epoch collector exactly once).
        pub batch_executes: CachePadded<RelaxedCounter> => Counter "batch_executes",
        /// Operations carried by those batches.
        pub batched_ops: CachePadded<RelaxedCounter> => Counter "batched_ops",
        /// Point reads (`get`/`contains_key`, a batch's gets) that
        /// completed through the optimistic lock-free descent — zero lock
        /// acquisitions end to end.
        pub optimistic_reads: CachePadded<RelaxedCounter> => Counter "optimistic_reads",
        /// Optimistic descents abandoned because a version validation failed
        /// (a writer overlapped the traversal); each restart retries from the
        /// top with backoff.
        pub optimistic_restarts: CachePadded<RelaxedCounter> => Counter "optimistic_restarts",
        /// Point reads and cursor positionings that exhausted their
        /// optimistic attempts and fell back to the hand-over-hand
        /// read-locked descent.  Zero in any
        /// single-threaded run — the acceptance gate for the lock-free path.
        pub locked_fallbacks: CachePadded<RelaxedCounter> => Counter "locked_fallbacks",
        /// Writes (`insert`/`remove`, alone or in a batch) finished by the
        /// leaf kernel under the leaf-first entry: one lock taken, the
        /// leaf's, and nothing above it touched.
        pub optimistic_writes: CachePadded<RelaxedCounter> => Counter "optimistic_writes",
        /// Writes that entered a write-locked pass: an overflow split under
        /// the held leaf, a promoted insert from its level `h >= 1`, a header
        /// removal from the top of its tower.  Every write, alone or in a
        /// batch, is exactly one of the two.
        pub structural_writes: CachePadded<RelaxedCounter> => Counter "structural_writes",
        /// Write descents that exhausted their optimistic attempts and
        /// reached their entry node under hand-over-hand shared locks, the
        /// only place a write read-locks anything above it.  Zero in any
        /// single-threaded run.
        pub write_descent_fallbacks: CachePadded<RelaxedCounter>
            => Counter "write_descent_fallbacks",
        /// Nodes, at any level, whose survivors a header removal folded
        /// back into their left neighbour (the inverse of a split).
        pub nodes_merged: CachePadded<RelaxedCounter> => Counter "nodes_merged",
    }
}

impl BSkipStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average horizontal steps per level descended, the statistic the
    /// paper reports as roughly 1.7 for workloads A–C.
    pub fn horizontal_steps_per_level(&self) -> f64 {
        let levels = self.levels_visited.get();
        if levels == 0 {
            0.0
        } else {
            self.horizontal_steps.get() as f64 / levels as f64
        }
    }

    /// Fraction of point reads that completed through the optimistic
    /// lock-free path (0.0 when no reads were recorded).  The uncontended
    /// expectation is 1.0, asserted by `tests/optimistic_reads.rs`.
    pub fn optimistic_hit_rate(&self) -> f64 {
        let finds = self.finds.get();
        if finds == 0 {
            0.0
        } else {
            self.optimistic_reads.get() as f64 / finds as f64
        }
    }

    /// Average leaf nodes visited per range query.
    pub fn leaf_nodes_per_range(&self) -> f64 {
        let ranges = self.ranges.get();
        if ranges == 0 {
            0.0
        } else {
            self.range_leaf_nodes.get() as f64 / ranges as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_all_counters() {
        let stats = BSkipStats::new();
        stats.finds.add(3);
        stats.top_level_write_locks.incr();
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.get("finds"), Some(3));
        assert_eq!(snapshot.get("top_level_write_locks"), Some(1));
        assert_eq!(snapshot.len(), 19);
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = BSkipStats::new();
        stats.inserts.add(10);
        stats.overflow_splits.add(2);
        stats.reset();
        assert_eq!(stats.snapshot().iter().map(|s| s.value).sum::<u64>(), 0);
    }

    #[test]
    fn derived_ratios() {
        let stats = BSkipStats::new();
        assert_eq!(stats.horizontal_steps_per_level(), 0.0);
        assert_eq!(stats.leaf_nodes_per_range(), 0.0);
        stats.horizontal_steps.add(17);
        stats.levels_visited.add(10);
        stats.ranges.add(4);
        stats.range_leaf_nodes.add(8);
        assert!((stats.horizontal_steps_per_level() - 1.7).abs() < 1e-9);
        assert!((stats.leaf_nodes_per_range() - 2.0).abs() < 1e-9);
        assert_eq!(stats.optimistic_hit_rate(), 0.0);
        stats.finds.add(100);
        stats.optimistic_reads.add(96);
        assert!((stats.optimistic_hit_rate() - 0.96).abs() < 1e-9);
    }
}
