//! The three indices compared in Table 1, as sources of cache touches.
//!
//! [`TracedIndex`] runs a shipped index through its `ConcurrentIndex`
//! surface — `bskip-core`'s B-skiplist, or the baselines' OCC B+-tree or
//! Folly-style skiplist — with a [`LayoutTracer`] as its tracer.  Each
//! index reports the byte ranges it reads or writes at the offsets of its
//! own node type, so no layout is modelled here.  What *is* modelled is
//! where the nodes sit: each at a synthetic address in allocation order,
//! as a bump allocator would place it, starting on a fresh cache line and
//! as long as the footprint its index announced.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bskip_baselines::{reseed_tower_rng, LazySkipList, OccBTree};
use bskip_core::height::reseed_thread_rng;
use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::trace::Tracer;
use bskip_index::ConcurrentIndex;

use crate::cache::{CacheSim, LINE_BYTES};

/// [`Tracer`] that places the nodes of an index in allocation order and
/// records every touched range at its synthetic address.  A handle: its
/// clones share one layout, so an index can report to one while
/// [`TracedIndex`] charges the other.
#[derive(Clone, Default)]
struct LayoutTracer(Arc<Mutex<Layout>>);

/// What a [`LayoutTracer`] has recorded.
#[derive(Default)]
struct Layout {
    /// The first free address, on a line boundary.
    end: u64,
    /// Address and footprint of every announced id.
    nodes: HashMap<usize, (u64, usize)>,
    /// Touches not yet charged to a cache.
    touches: Vec<(u64, usize)>,
}

impl LayoutTracer {
    fn layout(&self) -> std::sync::MutexGuard<'_, Layout> {
        self.0.lock().expect("a tracer event panicked")
    }

    /// Replays the touches recorded since the last call into `cache`.
    fn charge(&self, cache: &mut CacheSim) {
        for (address, bytes) in self.layout().touches.drain(..) {
            cache.touch(address, bytes);
        }
    }
}

impl Tracer for LayoutTracer {
    fn node_allocated(&self, id: usize, bytes: usize) {
        let mut layout = self.layout();
        let address = layout.end;
        layout.end += (bytes as u64).div_ceil(LINE_BYTES) * LINE_BYTES;
        layout.nodes.insert(id, (address, bytes));
    }

    fn touched(&self, id: usize, offset: usize, bytes: usize) {
        let mut layout = self.layout();
        let node = layout.nodes.get(&id).copied();
        let (address, footprint) =
            node.unwrap_or_else(|| panic!("event for unannounced node {id}"));
        assert!(
            offset + bytes <= footprint,
            "event up to byte {} of node {id}, {footprint} long",
            offset + bytes
        );
        layout.touches.push((address + offset as u64, bytes));
    }
}

/// One of the indices of Table 1, reporting to a `LayoutTracer` whose
/// touches each operation charges to a cache.  It runs through its
/// `ConcurrentIndex` surface, so a scan is the shipped cursor: the
/// B-skiplist's copies a leaf's in-range slots, the baselines' a whole
/// cursor batch, even for a short scan.
pub struct TracedIndex {
    index: Box<dyn ConcurrentIndex<u64, u64>>,
    layout: LayoutTracer,
}

impl TracedIndex {
    fn new(index: impl FnOnce(LayoutTracer) -> Box<dyn ConcurrentIndex<u64, u64>>) -> Self {
        let layout = LayoutTracer::default();
        TracedIndex {
            index: index(layout.clone()),
            layout,
        }
    }

    /// The B-skiplist, with `B`-key nodes and the given configuration,
    /// drawing its promotion heights from this thread's height RNG
    /// reseeded with `seed`: a run is reproducible when this thread
    /// inserts and nothing else draws heights on it in between.
    pub fn bskiplist<const B: usize>(config: BSkipConfig, seed: u64) -> Self {
        reseed_thread_rng(seed);
        Self::new(|layout| Box::new(BSkipList::<u64, u64, B, _>::with_tracer(config, layout)))
    }

    /// The OCC B+-tree Figures 7 and 8 measure, with `F`-key nodes.
    pub fn btree<const F: usize>() -> Self {
        Self::new(|layout| Box::new(OccBTree::<u64, u64, F, _>::with_tracer(layout)))
    }

    /// The Folly-style skiplist of Figures 1 and 6, drawing its tower
    /// heights from this thread's tower RNG reseeded with `seed`: a run is
    /// reproducible when this thread inserts and no other tower skiplist
    /// draws in between.
    pub fn skiplist(seed: u64) -> Self {
        reseed_tower_rng(seed);
        Self::new(|layout| Box::new(LazySkipList::with_tracer(layout)))
    }

    /// Inserts `key`, touching the cache with every byte the insert reads
    /// or writes.
    pub fn insert(&self, key: u64, cache: &mut CacheSim) {
        self.index.insert(key, key);
        self.layout.charge(cache);
    }

    /// Point lookup; returns whether the key was found.
    pub fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let found = self.index.get(&key).is_some();
        self.layout.charge(cache);
        found
    }

    /// Scans up to `len` keys from the smallest key `>= start`, as the
    /// YCSB driver does; returns how many were visited.
    pub fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let visited = self.index.scan(start..).take(len).count();
        self.layout.charge(cache);
        visited
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheSim, CacheStats};

    /// A B-skiplist of `B`-key nodes, promotion probability `1/(c·B)`
    /// with `c` = 0.5, and `max_height` levels.
    fn bskip<const B: usize>(max_height: usize, seed: u64) -> TracedIndex {
        TracedIndex::bskiplist::<B>(BSkipConfig::default().with_max_height(max_height), seed)
    }

    fn drive(model: &TracedIndex, keys: u64) -> CacheSim {
        let mut cache = CacheSim::new(CacheConfig::default());
        for i in 0..keys {
            model.insert(i.wrapping_mul(0x9E3779B97F4A7C15), &mut cache);
        }
        cache
    }

    #[test]
    fn models_store_and_find_their_keys() {
        let mut cache = CacheSim::new(CacheConfig::default());
        let skip = TracedIndex::skiplist(1);
        let btree = TracedIndex::btree::<16>();
        let bskip = bskip::<16>(4, 1);
        for i in 0..5000u64 {
            let key = i.wrapping_mul(0x9E3779B97F4A7C15);
            skip.insert(key, &mut cache);
            btree.insert(key, &mut cache);
            bskip.insert(key, &mut cache);
        }
        assert_eq!(skip.len(), 5000);
        assert_eq!(btree.len(), 5000);
        assert_eq!(bskip.len(), 5000);
        for i in (0..5000u64).step_by(131) {
            let key = i.wrapping_mul(0x9E3779B97F4A7C15);
            assert!(skip.get(key, &mut cache), "skiplist lost {key}");
            assert!(btree.get(key, &mut cache), "btree lost {key}");
            assert!(bskip.get(key, &mut cache), "bskiplist lost {key}");
        }
        assert!(!skip.get(12345, &mut cache));
        assert!(!btree.get(12345, &mut cache));
        assert!(!bskip.get(12345, &mut cache));
    }

    #[test]
    fn duplicate_inserts_do_not_grow_models() {
        let mut cache = CacheSim::new(CacheConfig::default());
        let btree = TracedIndex::btree::<8>();
        let bskip = bskip::<8>(4, 2);
        let skip = TracedIndex::skiplist(2);
        for _ in 0..3 {
            for key in 0..100u64 {
                btree.insert(key, &mut cache);
                bskip.insert(key, &mut cache);
                skip.insert(key, &mut cache);
            }
        }
        assert_eq!(btree.len(), 100);
        assert_eq!(bskip.len(), 100);
        assert_eq!(skip.len(), 100);
    }

    #[test]
    fn scans_return_requested_counts() {
        let mut cache = CacheSim::new(CacheConfig::default());
        let bskip = bskip::<16>(4, 3);
        let btree = TracedIndex::btree::<16>();
        let skip = TracedIndex::skiplist(3);
        for key in 0..1000u64 {
            bskip.insert(key * 2, &mut cache);
            btree.insert(key * 2, &mut cache);
            skip.insert(key * 2, &mut cache);
        }
        assert_eq!(bskip.scan(100, 50, &mut cache), 50);
        assert_eq!(btree.scan(100, 50, &mut cache), 50);
        assert_eq!(skip.scan(100, 50, &mut cache), 50);
        // Scanning past the end returns fewer.
        assert!(bskip.scan(1990, 50, &mut cache) < 50);
        assert!(btree.scan(1990, 50, &mut cache) < 50);
        assert!(skip.scan(1990, 50, &mut cache) < 50);
    }

    #[test]
    fn blocked_structures_miss_less_than_the_skiplist() {
        // The content of Table 1: on an insert-then-lookup workload larger
        // than the cache, the unblocked skiplist incurs several times more
        // misses than the blocked structures.
        let keys = 60_000u64;
        let skip_cache = drive(&TracedIndex::skiplist(7), keys);
        let btree_cache = drive(&TracedIndex::btree::<64>(), keys);
        let bskip_cache = drive(&bskip::<128>(5, 7), keys);
        let skip_misses = skip_cache.stats().misses as f64;
        let btree_misses = btree_cache.stats().misses as f64;
        let bskip_misses = bskip_cache.stats().misses as f64;
        assert!(
            skip_misses > 1.5 * btree_misses,
            "skiplist {skip_misses} vs btree {btree_misses}"
        );
        assert!(
            skip_misses > 1.5 * bskip_misses,
            "skiplist {skip_misses} vs bskiplist {bskip_misses}"
        );
    }

    /// Load + C on a fresh model.
    fn load_c(model: TracedIndex) -> CacheStats {
        let mut cache = drive(&model, 20_000);
        for i in (0..20_000u64).rev() {
            assert!(model.get(i.wrapping_mul(0x9E3779B97F4A7C15), &mut cache));
        }
        cache.stats()
    }

    #[test]
    fn traced_runs_are_deterministic() {
        // Each traced structure twice: addresses derived from pointers or
        // hash order would show up as differing counts.
        let runs: [fn() -> CacheStats; 3] = [
            || load_c(bskip::<128>(5, 1)),
            || load_c(TracedIndex::btree::<64>()),
            || load_c(TracedIndex::skiplist(1)),
        ];
        for run in runs {
            let first = run();
            assert!(first.misses > 0 && first.accesses > 20 * 20_000);
            assert_eq!(first, run());
        }
    }
}
