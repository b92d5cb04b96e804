//! Relaxed statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter with relaxed memory ordering.
///
/// The evaluation section of the paper instruments the indices with several
/// counters: how many times the B+-tree took its root lock in write mode,
/// how many horizontal steps the B-skiplist takes per level, how many leaf
/// nodes a range query touches, and so on.  Those counts never synchronize
/// any other data, so `Relaxed` ordering is sufficient and keeps the counter
/// nearly free on the hot path.
///
/// # Example
///
/// ```
/// use bskip_sync::RelaxedCounter;
///
/// let counter = RelaxedCounter::new();
/// counter.incr();
/// counter.add(4);
/// assert_eq!(counter.get(), 5);
/// counter.reset();
/// assert_eq!(counter.get(), 0);
/// ```
#[derive(Debug, Default)]
pub struct RelaxedCounter {
    value: AtomicU64,
}

impl RelaxedCounter {
    /// Creates a counter starting at zero.
    #[inline]
    pub const fn new() -> Self {
        RelaxedCounter {
            value: AtomicU64::new(0),
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the stored value to `value` if it is larger — the cell then
    /// tracks a high-water mark instead of an event count.
    #[inline]
    pub fn record_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (used between benchmark phases).
    #[inline]
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Clone for RelaxedCounter {
    fn clone(&self) -> Self {
        RelaxedCounter {
            value: AtomicU64::new(self.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero() {
        assert_eq!(RelaxedCounter::new().get(), 0);
    }

    #[test]
    fn incr_and_add_accumulate() {
        let counter = RelaxedCounter::new();
        counter.incr();
        counter.incr();
        counter.add(10);
        assert_eq!(counter.get(), 12);
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let counter = RelaxedCounter::new();
        counter.record_max(7);
        counter.record_max(3);
        assert_eq!(counter.get(), 7);
    }

    #[test]
    fn reset_zeroes() {
        let counter = RelaxedCounter::new();
        counter.add(100);
        counter.reset();
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn clone_snapshots_value() {
        let counter = RelaxedCounter::new();
        counter.add(7);
        let snapshot = counter.clone();
        counter.add(1);
        assert_eq!(snapshot.get(), 7);
        assert_eq!(counter.get(), 8);
    }

    // 80k cross-thread increments; too slow under Miri.
    #[cfg(not(miri))]
    #[test]
    fn concurrent_increments_are_not_lost() {
        let counter = Arc::new(RelaxedCounter::new());
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(counter.get(), threads * per_thread);
    }
}
