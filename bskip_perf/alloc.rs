//! The benchmark's counting `#[global_allocator]`: allocation calls and
//! live bytes, for `allocs_per_op` and the in-memory `space_amp`.
//!
//! Counters are striped by thread so two benchmark threads that allocate
//! on every operation (the LSM read path does) do not serialize on one
//! cache line, which would show up in the latencies being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

const STRIPES: usize = 16;

#[repr(align(128))]
struct Stripe {
    allocs: AtomicU64,
    live: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Stripe = Stripe {
    allocs: AtomicU64::new(0),
    live: AtomicI64::new(0),
};
static COUNTERS: [Stripe; STRIPES] = [EMPTY; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a torn-down
    // slot.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn stripe() -> &'static Stripe {
    let at = STRIPE
        .try_with(|cell| {
            if cell.get() == usize::MAX {
                cell.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            cell.get()
        })
        .unwrap_or(0);
    &COUNTERS[at]
}

pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain relaxed statistics that publish no
// other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let stripe = stripe();
        stripe.allocs.fetch_add(1, Ordering::Relaxed);
        stripe
            .live
            .fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let stripe = stripe();
        stripe.allocs.fetch_add(1, Ordering::Relaxed);
        stripe
            .live
            .fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        stripe()
            .live
            .fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let stripe = stripe();
        stripe.allocs.fetch_add(1, Ordering::Relaxed);
        stripe
            .live
            .fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc + realloc) made by the process so far.
pub fn allocs() -> u64 {
    COUNTERS
        .iter()
        .map(|s| s.allocs.load(Ordering::Relaxed))
        .sum()
}

/// Bytes currently allocated by the process.
pub fn live_bytes() -> i64 {
    COUNTERS
        .iter()
        .map(|s| s.live.load(Ordering::Relaxed))
        .sum()
}
