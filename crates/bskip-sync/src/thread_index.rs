//! A small, reusable number for every live thread.
//!
//! A thread claims its index on first use: the most recently returned one
//! if any thread has exited, else the next never-used number.  The
//! thread-local's destructor returns it at thread exit.  So no two live
//! threads share an index, and every index stays below the peak number of
//! threads alive at once — which lets per-thread state live in a plain
//! array indexed by it ([`EbrCollector`](crate::EbrCollector)'s participant
//! slots, [`StripedCounter`](crate::StripedCounter)'s cells).

use std::sync::{Mutex, PoisonError};

/// Indices returned by exited threads, and the first never-claimed one.
/// Each update leaves both valid, so a poisoned lock is used as is (and
/// the `Drop` below must not panic).
static FREE: Mutex<(Vec<usize>, usize)> = Mutex::new((Vec::new(), 0));

/// This thread's claim; dropping it returns the index.
struct Claim(usize);

impl Claim {
    fn new() -> Self {
        let mut free = FREE.lock().unwrap_or_else(PoisonError::into_inner);
        let index = free.0.pop().unwrap_or_else(|| {
            free.1 += 1;
            free.1 - 1
        });
        Claim(index)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        // The mutex orders everything this thread did under its index
        // before the next claimant's first use of it.
        let mut free = FREE.lock().unwrap_or_else(PoisonError::into_inner);
        free.0.push(self.0);
    }
}

thread_local! {
    static CLAIM: Claim = Claim::new();
}

/// The calling thread's index, claimed on first use; `None` once the
/// thread's thread-locals are being torn down.
#[inline]
pub(crate) fn thread_index() -> Option<usize> {
    CLAIM.try_with(|claim| claim.0).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn live_threads_hold_distinct_indices() {
        let threads = 8;
        let start = Barrier::new(threads);
        let indices: HashSet<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let index = thread_index().unwrap();
                        // Every thread holds its index until all have one.
                        start.wait();
                        assert_eq!(thread_index(), Some(index), "an index is stable");
                        index
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(indices.len(), threads);
    }
}
