//! Allocation budget of the service path: what one pipelined window costs
//! the whole process — client and server together.
//!
//! Once a connection is warm, a 32-request window of point requests makes
//! exactly **one** heap allocation, the `Vec` the client's `drain` hands
//! back: the server decodes into, coalesces into and answers from
//! per-connection buffers, the batch split of `ShardedIndex::execute`
//! sits on the stack, and `BSkipList::execute` needs no scratch.  Each
//! 100-entry `Scan` in the window adds exactly **four**: the server's
//! merged cursor (its box, and per shard only the box
//! `ConcurrentIndex::scan_bounds` returns — three; the merge holds the
//! shards' cursors inline, and each shard's leaf window is a parked one)
//! and the client's decoded `Entries` vector.
//! Its pairs go from the cursor straight into the write buffer.  A buffer
//! that creeps back into the window's path fails here.
//!
//! The server answers on its own thread, so the counting allocator counts
//! process-wide, and the file holds one test, so that no other test's
//! allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bskip_core::BSkipList;
use bskip_index::{ConcurrentIndex, Op, ShardedIndex};
use bskip_net::{Connection, KvServer, Request, Response, ServerConfig};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations any thread of the process performs inside `work`.
/// Every allocation the work causes has happened when it returns: the
/// server writes a window's answers last, and the client waits for them.
fn allocations_in<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = work();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

const KEYS: u64 = 20_000;
const WINDOW: usize = 32;
const SCAN_LEN: u32 = 100;

/// The `i`-th pseudo-random draw.
fn draw(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
}

/// Window `round`: three gets to a put over a present key, with the
/// first `scans` of its gets turned into 100-entry scans.
fn window(round: u64, scans: usize) -> Vec<Request> {
    let mut scans_left = scans;
    (0..WINDOW as u64)
        .map(|slot| {
            let key = draw(round * WINDOW as u64 + slot) % (KEYS - u64::from(SCAN_LEN));
            match slot % 4 {
                3 => Request::put(key, round),
                _ if scans_left > 0 => {
                    scans_left -= 1;
                    Request::Scan {
                        lo: key,
                        hi: KEYS,
                        limit: SCAN_LEN,
                    }
                }
                _ => Request::Get { key },
            }
        })
        .collect()
}

/// A 64-op batch of the same mix, over present keys.
fn batch(round: u64) -> Vec<Op<u64, u64>> {
    (0..64)
        .map(|slot| {
            let key = draw(round * 64 + slot) % KEYS;
            if slot % 4 == 3 {
                Op::insert(key, round)
            } else {
                Op::get(key)
            }
        })
        .collect()
}

#[test]
fn a_window_allocates_once_and_four_times_more_per_scan() {
    let backend = Arc::new(ShardedIndex::hash(2, |_| BSkipList::<u64, u64>::new()));
    for key in 0..KEYS {
        backend.insert(key, key);
    }
    let handle = KvServer::bind_shared(backend.clone(), ("127.0.0.1", 0), ServerConfig::default())
        .and_then(KvServer::spawn)
        .expect("serve on loopback");
    let mut conn = Connection::connect_windowed(handle.addr(), WINDOW).expect("connect");
    let mut serve = |requests: &[Request]| {
        let (allocs, responses) = allocations_in(|| {
            for request in requests {
                conn.send(request).expect("send");
            }
            conn.drain().expect("drain")
        });
        assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.iter().zip(&responses) {
            let answered = match (request, response) {
                (Request::Scan { .. }, Response::Entries { entries }) => {
                    entries.len() == SCAN_LEN as usize
                }
                (_, Response::Found { .. }) => true,
                _ => false,
            };
            assert!(answered, "{request:?} answered {response:?}");
        }
        allocs
    };

    // Warm-up: every buffer on both sides reaches the size the largest
    // window needs, and each thread makes its first epoch pin.
    for round in 0..16 {
        serve(&window(round, (round % 3) as usize));
    }
    for round in 16..64 {
        let scans = (round % 3) as usize;
        let allocs = serve(&window(round, scans));
        assert_eq!(
            allocs,
            1 + 4 * scans as u64,
            "window {round} with {scans} scans"
        );
    }

    // The batch paths on their own: neither the split nor the shard's
    // execute of a batch of up to 64 operations touches the heap.
    let shard = BSkipList::<u64, u64>::new();
    for key in 0..KEYS {
        shard.insert(key, key);
    }
    backend.execute(&mut batch(0));
    shard.execute(&mut batch(0));
    for round in 1..16 {
        for len in [1, WINDOW, 64] {
            let mut ops = batch(round);
            ops.truncate(len);
            let (allocs, ()) = allocations_in(|| backend.execute(&mut ops));
            assert_eq!(allocs, 0, "ShardedIndex::execute of {len} ops");
            assert!(ops.iter().all(|op| op.result().value().is_some()));
            let (allocs, ()) = allocations_in(|| shard.execute(&mut ops));
            assert_eq!(allocs, 0, "BSkipList::execute of {len} ops");
        }
    }
    drop(conn);
    handle.shutdown();
}
