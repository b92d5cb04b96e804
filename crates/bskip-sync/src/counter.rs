//! Relaxed statistics counters and the striped size counter.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::thread_index::thread_index;
use crate::CachePadded;

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

/// Number of cells a [`StripedCounter`] spreads its count over.
const CELLS: usize = 16;

/// A signed count spread over 16 cache-padded cells, one per thread.
///
/// An index's size changes on every fresh insert and every removal, from
/// every writer.  One shared word would move that cache line between
/// cores on every write, so [`add`](Self::add) touches only the calling
/// thread's cell and [`sum`](Self::sum) adds all of them.  A thread takes
/// the cell its thread number picks (the same in every striped counter),
/// and live threads hold distinct numbers, so up to 16 live threads never
/// share a cell.
/// A cell may go negative (a key one thread inserted, another removed);
/// only the sum means anything.  The sum is exact once the writers are
/// quiescent.  While they run it is approximate: the cells are read one
/// after another, so it may be a value the count never held, negative
/// included — clamp it where a size must not be.  Every access is
/// `Relaxed`; the count publishes no other data.  The cells live inline
/// (2 KiB), with no allocation.
///
/// Use it for a count many threads change on their hot path and few read;
/// use [`RelaxedCounter`] for statistics, which cost one word and support
/// `reset` and high-water marks.
///
/// # Example
///
/// ```
/// use bskip_sync::StripedCounter;
///
/// let len = StripedCounter::new();
/// std::thread::scope(|scope| {
///     scope.spawn(|| len.add(3));
///     scope.spawn(|| len.add(-1));
/// });
/// assert_eq!(len.sum(), 2);
/// ```
pub struct StripedCounter {
    cells: [CachePadded<AtomicI64>; CELLS],
}

impl StripedCounter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        StripedCounter {
            cells: [const { CachePadded::new(AtomicI64::new(0)) }; CELLS],
        }
    }

    /// Adds `delta` (which may be negative) to the calling thread's cell.
    #[inline]
    pub fn add(&self, delta: i64) {
        let cell = thread_index().unwrap_or(0) % CELLS;
        self.cells[cell].fetch_add(delta, Ordering::Relaxed);
    }

    /// The count: the sum of every cell.
    pub fn sum(&self) -> i64 {
        self.cells.iter().fold(0, |sum, cell| {
            sum.wrapping_add(cell.load(Ordering::Relaxed))
        })
    }
}

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter::new()
    }
}

impl fmt::Debug for StripedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StripedCounter").field(&self.sum()).finish()
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

    #[test]
    fn striped_counter_sums_mixed_sign_adds() {
        let counter = StripedCounter::new();
        assert_eq!(counter.sum(), 0);
        counter.add(5);
        counter.add(-8);
        assert_eq!(counter.sum(), -3);
        assert_eq!(format!("{counter:?}"), "StripedCounter(-3)");
    }

    #[test]
    fn striped_counter_cells_are_inline() {
        assert_eq!(
            std::mem::size_of::<StripedCounter>(),
            CELLS * std::mem::size_of::<CachePadded<AtomicI64>>()
        );
    }

    /// More threads than cells, so cells are shared; the odd threads only
    /// subtract, so the cells they own alone go negative.  The sum after
    /// join is exact.
    #[test]
    fn striped_counter_is_exact_after_join_across_more_threads_than_cells() {
        let counter = StripedCounter::new();
        let threads = 24i64;
        let per_thread = if cfg!(miri) { 20 } else { 10_000 };
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (counter, start) = (&counter, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        if t % 2 == 0 {
                            counter.add(if i % 3 == 0 { -1 } else { 2 });
                        } else {
                            counter.add(-1);
                        }
                    }
                });
            }
        });
        let evens = (0..per_thread)
            .map(|i| if i % 3 == 0 { -1 } else { 2 })
            .sum::<i64>();
        assert_eq!(counter.sum(), threads / 2 * (evens - per_thread));
    }
}
