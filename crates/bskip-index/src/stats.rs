//! Uniform export of per-index statistics: one model for every layer.
//!
//! Every layer of the stack — the B-skiplist, the baselines, the sharded
//! front-end, the LSM engine, the network server — exports its statistics
//! as an [`IndexStats`] snapshot of [`StatValue`]s.  Each value carries a
//! [`StatKind`], and the kind is the *only* place an aggregation rule
//! lives: [`IndexStats::merge`] folds two snapshots entry by entry
//! according to it.  A layer declares its counters once, with
//! [`stat_block!`](crate::stat_block) (field, wire name, kind); `reset`
//! and `snapshot` are derived from that one list.

use std::fmt;

/// How a statistic aggregates when two snapshots are merged (per-shard
/// rollups, server + backend) and what a stats reset does to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// A monotone event count.  Merges as a saturating sum; reset zeroes
    /// it.
    Counter,
    /// An instantaneous level (live nodes, retired-but-unfreed backlog,
    /// leaf shard count).  Levels of disjoint parts add, so it merges as
    /// a saturating sum too, but a reset leaves it alone.
    Gauge,
    /// A high-water mark or a clock (`ebr_epoch`, `server_max_batch`):
    /// the merge keeps the maximum — summing unrelated epochs or batch
    /// peaks would mean nothing.
    Max,
}

/// A single named statistic exported by an index.
///
/// Statistics are purely informational counters gathered with relaxed
/// atomics inside the indices (they never influence control flow), exported
/// here as plain numbers for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatValue {
    /// Short, stable identifier (e.g. `"root_write_locks"`).
    pub name: &'static str,
    /// How the value aggregates; see [`StatKind`].
    pub kind: StatKind,
    /// Value at the time of the snapshot.
    pub value: u64,
}

impl fmt::Display for StatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A snapshot of every statistic an index exposes.
///
/// The evaluation section of the paper reports several such counters:
/// root write-lock acquisitions for the OCC B+-tree vs. the B-skiplist
/// (26K vs. 7 during the load phase), average horizontal steps per level
/// (~1.7) and leaf nodes touched per range query (2 vs. 1.5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    entries: Vec<StatValue>,
}

impl IndexStats {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        IndexStats::default()
    }

    /// Adds a named counter to the snapshot (builder style).
    pub fn with(self, name: &'static str, value: u64) -> Self {
        self.with_kind(name, StatKind::Counter, value)
    }

    /// Adds a named statistic of the given kind (builder style).
    pub fn with_kind(mut self, name: &'static str, kind: StatKind, value: u64) -> Self {
        self.push(name, kind, value);
        self
    }

    /// Adds a named statistic of the given kind to the snapshot.
    pub fn push(&mut self, name: &'static str, kind: StatKind, value: u64) {
        self.entries.push(StatValue { name, kind, value });
    }

    /// Looks up a statistic by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|entry| entry.name == name)
            .map(|entry| entry.value)
    }

    /// Iterates over all statistics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &StatValue> {
        self.entries.iter()
    }

    /// Number of statistics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds `other` into this snapshot: entries present in both are
    /// combined by name according to their [`StatKind`] (counters and
    /// gauges sum, saturating; maxima keep the larger value), entries only
    /// in `other` are appended in their original order.  This is the one
    /// aggregation primitive of the workspace — a sharded index merges its
    /// shards' snapshots, the network server merges its own counters with
    /// the backend's — and the only place an aggregation rule is written
    /// down.
    pub fn merge(&mut self, other: &IndexStats) {
        for entry in &other.entries {
            match self.entries.iter_mut().find(|e| e.name == entry.name) {
                Some(existing) => {
                    existing.value = match existing.kind {
                        StatKind::Counter | StatKind::Gauge => {
                            existing.value.saturating_add(entry.value)
                        }
                        StatKind::Max => existing.value.max(entry.value),
                    };
                }
                None => self.entries.push(*entry),
            }
        }
    }
}

/// The memory-reclamation counters an epoch-collecting index exports: the
/// collector's own [`bskip_sync::EbrStats`] block.
///
/// Every index that retires removed nodes through an
/// [`bskip_sync::EbrCollector`] surfaces that collector's counters in its
/// [`IndexStats`] snapshot under a uniform set of `ebr_*` names
/// ([`IndexStats::with_reclamation`]), so drivers and experiment binaries
/// (the `stat_reclamation` binary, the churn stress tests) can read them
/// back ([`IndexStats::reclamation`]) without knowing the concrete index
/// type.  `backlog` is the quantity the epoch machinery keeps bounded:
/// retired-but-unfreed nodes.
pub use bskip_sync::EbrStats as ReclamationStats;

/// One [`ReclamationStats`] field: its wire name, its kind, and where it
/// lives in the block.
type ReclamationField = (
    &'static str,
    StatKind,
    fn(&mut ReclamationStats) -> &mut u64,
);

/// The one table tying the [`ReclamationStats`] fields to their snapshot
/// names and kinds; export and read-back both walk it.  `backlog` is a
/// level and `epoch` a clock (an aggregate over shards reports the most
/// advanced collector); everything else counts events.
const RECLAMATION_FIELDS: [ReclamationField; 7] = [
    ("ebr_retired", StatKind::Counter, |s| &mut s.retired),
    ("ebr_freed", StatKind::Counter, |s| &mut s.freed),
    ("ebr_backlog", StatKind::Gauge, |s| &mut s.backlog),
    ("ebr_epoch", StatKind::Max, |s| &mut s.epoch),
    ("ebr_advances", StatKind::Counter, |s| &mut s.advances),
    ("ebr_pins", StatKind::Counter, |s| &mut s.pins),
    ("ebr_overflow_pins", StatKind::Counter, |s| {
        &mut s.overflow_pins
    }),
];

impl IndexStats {
    /// Appends a collector's counters under the uniform `ebr_*` names
    /// (builder style).
    pub fn with_reclamation(mut self, mut block: ReclamationStats) -> Self {
        for (name, kind, field) in RECLAMATION_FIELDS {
            self.push(name, kind, *field(&mut block));
        }
        self
    }

    /// The reclamation counters embedded in this snapshot; `None` when the
    /// index does not export them (see [`ReclamationStats`]).
    pub fn reclamation(&self) -> Option<ReclamationStats> {
        let mut block = ReclamationStats::default();
        for (name, _, field) in RECLAMATION_FIELDS {
            *field(&mut block) = self.get(name)?;
        }
        Some(block)
    }
}

impl fmt::Display for IndexStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{entry}")?;
        }
        Ok(())
    }
}

/// Declares a layer's block of relaxed statistics cells **once**: each
/// line gives the field (with its cell type — anything that derefs to a
/// [`bskip_sync::RelaxedCounter`]), the [`StatKind`] and the wire name.
/// The macro emits the struct (`Debug + Default`) plus the two things
/// that used to be hand-copied lists:
///
/// * `reset(&self)` — zeroes every cell;
/// * `snapshot(&self) -> IndexStats` — every cell under its wire name and
///   kind, in declaration order.
///
/// Adding a statistic to a layer is therefore one line in its block.
///
/// ```
/// use bskip_sync::RelaxedCounter;
///
/// bskip_index::stat_block! {
///     /// Toy layer.
///     pub struct ToyStats {
///         /// Requests seen.
///         pub requests: RelaxedCounter => Counter "toy_requests",
///         /// Largest request seen.
///         pub largest: RelaxedCounter => Max "toy_largest",
///     }
/// }
///
/// let stats = ToyStats::default();
/// stats.requests.add(3);
/// stats.largest.record_max(9);
/// let mut total = stats.snapshot();
/// total.merge(&stats.snapshot());
/// assert_eq!(total.get("toy_requests"), Some(6)); // counters sum
/// assert_eq!(total.get("toy_largest"), Some(9)); // maxima do not
/// stats.reset();
/// assert_eq!(stats.snapshot().get("toy_requests"), Some(0));
/// ```
#[macro_export]
macro_rules! stat_block {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $cell:ty => $kind:ident $wire:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $cell, )*
        }

        impl $name {
            /// Resets every statistic in the block to zero.
            $vis fn reset(&self) {
                $( self.$field.reset(); )*
            }

            /// Exports the block in the uniform `IndexStats` format, each
            /// statistic under its wire name and kind.
            $vis fn snapshot(&self) -> $crate::IndexStats {
                let mut stats = $crate::IndexStats::new();
                $( stats.push($wire, $crate::StatKind::$kind, self.$field.get()); )*
                stats
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let stats = IndexStats::new()
            .with("root_write_locks", 7)
            .with("horizontal_steps", 1700);
        assert_eq!(stats.get("root_write_locks"), Some(7));
        assert_eq!(stats.get("horizontal_steps"), Some(1700));
        assert_eq!(stats.get("missing"), None);
        assert_eq!(stats.len(), 2);
        assert!(!stats.is_empty());
    }

    #[test]
    fn display_is_space_separated_pairs() {
        let stats = IndexStats::new().with("a", 1).with("b", 2);
        assert_eq!(stats.to_string(), "a=1 b=2");
    }

    #[test]
    fn empty_snapshot() {
        let stats = IndexStats::new();
        assert!(stats.is_empty());
        assert_eq!(stats.len(), 0);
        assert_eq!(stats.to_string(), "");
    }

    #[test]
    fn reclamation_round_trips_through_a_snapshot() {
        let reclamation = ReclamationStats {
            retired: 100,
            freed: 90,
            backlog: 10,
            epoch: 7,
            advances: 6,
            pins: 1_000,
            overflow_pins: 0,
        };
        let stats = IndexStats::new()
            .with("finds", 1)
            .with_reclamation(reclamation);
        assert_eq!(stats.get("finds"), Some(1));
        assert_eq!(stats.get("ebr_backlog"), Some(10));
        assert_eq!(stats.len(), 8);
        assert_eq!(stats.reclamation(), Some(reclamation));
        // Indices without a collector export no reclamation block.
        assert_eq!(IndexStats::new().with("keys", 3).reclamation(), None);
    }

    #[test]
    fn merge_sums_by_name_and_appends_unseen() {
        let mut a = IndexStats::new().with("finds", 3).with("inserts", 5);
        let b = IndexStats::new()
            .with("inserts", 7)
            .with("removes", 2)
            .with("finds", 1);
        a.merge(&b);
        assert_eq!(a.get("finds"), Some(4));
        assert_eq!(a.get("inserts"), Some(12));
        assert_eq!(a.get("removes"), Some(2));
        // Original insertion order is preserved; unseen names append.
        let names: Vec<&str> = a.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["finds", "inserts", "removes"]);
        // Saturating, never wrapping.
        let mut max = IndexStats::new().with("x", u64::MAX);
        max.merge(&IndexStats::new().with("x", 10));
        assert_eq!(max.get("x"), Some(u64::MAX));
    }

    #[test]
    fn merge_folds_by_kind() {
        let shard = |epoch, backlog, pins, peak| {
            IndexStats::new()
                .with_reclamation(ReclamationStats {
                    epoch,
                    backlog,
                    pins,
                    ..ReclamationStats::default()
                })
                .with_kind("peak_batch", StatKind::Max, peak)
        };
        let mut merged = shard(5, 2, 100, 32);
        merged.merge(&shard(9, 1, 50, 17));
        // A clock and a high-water mark: the aggregate reports the most
        // advanced collector and the largest batch, not meaningless sums.
        assert_eq!(merged.get("ebr_epoch"), Some(9));
        assert_eq!(merged.get("peak_batch"), Some(32));
        // Levels of disjoint parts add, counters sum.
        assert_eq!(merged.get("ebr_backlog"), Some(3));
        assert_eq!(merged.get("ebr_pins"), Some(150));
        // The kind of the receiving entry decides, in either order.
        let mut reversed = shard(9, 1, 50, 17);
        reversed.merge(&shard(5, 2, 100, 32));
        assert_eq!(reversed, merged);
        // Gauges saturate like counters do.
        let mut level = IndexStats::new().with_kind("live_nodes", StatKind::Gauge, u64::MAX);
        level.merge(&IndexStats::new().with_kind("live_nodes", StatKind::Gauge, 1));
        assert_eq!(level.get("live_nodes"), Some(u64::MAX));
    }
}
