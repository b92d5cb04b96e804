//! A set-associative LRU cache simulator over 64-byte lines.

/// Bytes per cache line (64 on the paper's machine): the simulator's line
/// and the unit the layout places nodes on.
pub(crate) const LINE_BYTES: u64 = 64;

/// Configuration of the simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // A last-level-cache-like configuration scaled to the laptop-sized
        // datasets used by the reproduction (the paper's Xeon has 96 MiB).
        CacheConfig {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 16,
        }
    }
}

impl CacheConfig {
    /// A small cache useful in unit tests.
    pub fn tiny() -> Self {
        CacheConfig {
            capacity_bytes: 4096,
            ways: 4,
        }
    }

    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / LINE_BYTES as usize / self.ways).max(1)
    }
}

/// Aggregate counters of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache-line accesses issued.
    pub accesses: u64,
    /// Accesses that missed in the simulated cache (the stand-in for the
    /// paper's LLC load misses).
    pub misses: u64,
}

/// A set-associative LRU cache simulator.
///
/// # Example
///
/// ```
/// use bskip_cachesim::{CacheConfig, CacheSim};
///
/// let mut cache = CacheSim::new(CacheConfig::tiny());
/// cache.touch(0, 8);       // cold miss
/// cache.touch(0, 8);       // hit
/// assert_eq!(cache.stats().accesses, 2);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    sets: usize,
    /// `lines[set * ways + way]` = tag (line address) or `u64::MAX` if empty.
    lines: Vec<u64>,
    /// LRU timestamp parallel to `lines`.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates a cache simulator with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        CacheSim {
            config,
            sets,
            lines: vec![u64::MAX; sets * config.ways],
            stamps: vec![0; sets * config.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses one cache line by address, returning `true` on a hit.
    pub fn access_line(&mut self, line_address: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let set = (line_address % self.sets as u64) as usize;
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];
        // Hit?
        if let Some(way) = ways.iter().position(|&tag| tag == line_address) {
            self.stamps[base + way] = self.clock;
            return true;
        }
        // Miss: evict the LRU way.
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..self.config.ways {
            if self.lines[base + way] == u64::MAX {
                victim = way;
                break;
            }
            if self.stamps[base + way] < oldest {
                oldest = self.stamps[base + way];
                victim = way;
            }
        }
        self.lines[base + victim] = line_address;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Touches `bytes` bytes starting at byte address `address`, accessing
    /// every cache line the range overlaps.
    pub fn touch(&mut self, address: u64, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let first = address / LINE_BYTES;
        let last = (address + bytes as u64 - 1) / LINE_BYTES;
        for line_address in first..=last {
            self.access_line(line_address);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sets_calculation() {
        let config = CacheConfig {
            capacity_bytes: 64 * 1024,
            ways: 8,
        };
        assert_eq!(config.sets(), 128);
        assert!(CacheConfig::default().sets() > 0);
    }

    #[test]
    fn repeated_access_hits() {
        let mut cache = CacheSim::new(CacheConfig::tiny());
        assert!(!cache.access_line(7));
        assert!(cache.access_line(7));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().accesses, 2);
    }

    #[test]
    fn touch_spans_multiple_lines() {
        let mut cache = CacheSim::new(CacheConfig::tiny());
        // 100 bytes starting 10 bytes into a line -> lines 0 and 1.
        cache.touch(10, 100);
        assert_eq!(cache.stats().accesses, 2);
        cache.touch(0, 1);
        assert_eq!(cache.stats().accesses, 3);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // 4-way tiny cache with 16 sets: lines that map to the same set are
        // multiples of `sets` apart.
        let config = CacheConfig::tiny();
        let sets = config.sets() as u64;
        let mut cache = CacheSim::new(config);
        for i in 0..4u64 {
            cache.access_line(i * sets);
        }
        // Touch line 0 again so it becomes most-recently used.
        assert!(cache.access_line(0));
        // A fifth distinct line in the set evicts the LRU (line 1*sets).
        assert!(!cache.access_line(4 * sets));
        assert!(cache.access_line(0), "MRU line must survive");
        assert!(!cache.access_line(sets), "LRU line must have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut cache = CacheSim::new(CacheConfig::tiny());
        let lines = (CacheConfig::tiny().capacity_bytes / 64) as u64;
        for round in 0..3 {
            for line in 0..lines * 4 {
                cache.access_line(line);
            }
            let _ = round;
        }
        // Cyclic sweep over 4x the capacity defeats LRU: hit rate stays low.
        let stats = cache.stats();
        assert!(stats.misses as f64 / stats.accesses as f64 > 0.95);
    }

    #[test]
    fn zero_byte_touch_is_a_noop() {
        let mut cache = CacheSim::new(CacheConfig::tiny());
        cache.touch(100, 0);
        assert_eq!(cache.stats().accesses, 0);
    }
}
