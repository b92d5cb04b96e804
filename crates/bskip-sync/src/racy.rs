//! Formally race-free "racy" memory accesses for optimistic readers.
//!
//! The optimistic (OLC) read path reads node contents **without holding any
//! lock**, relying on a version recheck to discard torn results.  Under the
//! C++/Rust memory model a plain load that races a plain store is undefined
//! behaviour *even if the loaded value is later discarded* — so both sides
//! of the race must be atomic.  This module provides the primitive the
//! B-skiplist nodes use for their key and value arrays: chunked **relaxed
//! atomic** loads, stores and copies of arbitrary `Copy` payloads, in the
//! style of `crossbeam`'s `AtomicCell` internals.
//!
//! A value is moved as a sequence of independent relaxed atomic chunks (8,
//! 4, 2 or 1 bytes, the widest that the type's alignment permits), so a
//! load racing a store may observe a mix of old and new chunks — a *torn*
//! value.  That is exactly the semantics optimistic readers want: the read
//! is defined behaviour, the bytes are real (each chunk was stored by
//! somebody), and the subsequent version validation rejects the traversal
//! if any writer overlapped it.
//!
//! # Safety contract
//!
//! Callers must guarantee for every call:
//!
//! * source/destination pointers are valid for the access and aligned for
//!   `T` (array elements of a `T`-aligned allocation qualify);
//! * every byte in the accessed region is **initialized** (atomic loads of
//!   uninitialized memory are UB; the B-skiplist zero-initializes its slot
//!   arrays at node allocation to uphold this);
//! * `T` has no padding bytes and tolerates torn values: any mix of
//!   initialized bit patterns must be a valid `T` (true for integers, byte
//!   arrays and `#[repr(C)]` aggregates thereof — the index's key/value
//!   universe).  A torn value may be *read* and compared, but the caller
//!   must discard it unless a version validation proves no writer raced
//!   the read.
//!
//! Writers serialized by a lock may still use these helpers concurrently
//! with optimistic readers — that is the intended pairing: the lock orders
//! writers among themselves, the atomics make the writer/reader races
//! defined, and the version protocol makes them harmless.

use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// The widest power-of-two chunk (max 8 bytes) that `T`'s alignment
/// permits.  `T`'s size is always a multiple of its alignment, so a whole
/// array of `T` splits exactly into such chunks with no tail.
const fn chunk_bytes<T>() -> usize {
    let align = align_of::<T>();
    if align >= 8 {
        8
    } else {
        // Alignment is a power of two below 8: use it directly.
        align
    }
}

/// Dispatches `$body` with `$atomic`/`$prim` bound to the chunk type
/// selected for `T` — the one macro behind every helper below, so the
/// chunk policy lives in a single place.
macro_rules! with_chunk_ty {
    ($t:ty, $atomic:ident, $prim:ident, $body:expr) => {
        match chunk_bytes::<$t>() {
            8 => {
                type $atomic = AtomicU64;
                type $prim = u64;
                $body
            }
            4 => {
                type $atomic = AtomicU32;
                type $prim = u32;
                $body
            }
            2 => {
                type $atomic = AtomicU16;
                type $prim = u16;
                $body
            }
            _ => {
                type $atomic = AtomicU8;
                type $prim = u8;
                $body
            }
        }
    };
}

/// Loads one `T` from `src` with relaxed atomic chunks.  The result may be
/// torn if a concurrent [`store`]/[`copy`] overlaps; the caller must
/// validate before trusting it.
///
/// # Safety
///
/// `src` must be valid for reads, `T`-aligned and fully initialized; `T`
/// must satisfy the [module contract](self).
#[inline]
pub unsafe fn load<T: Copy>(src: *const T) -> T {
    let mut out = MaybeUninit::<T>::uninit();
    // Atomic loads from the shared source; plain stores into the private
    // `out` buffer (only the shared side of the transfer races).
    with_chunk_ty!(T, A, P, {
        let src = src as *const A;
        let dst = out.as_mut_ptr() as *mut P;
        for i in 0..size_of::<T>() / size_of::<P>() {
            // SAFETY: chunk `i` lies inside the `T` at `src`, which the
            // caller guarantees valid, initialized and `T`-aligned (hence
            // aligned for `A`, never wider than `T`'s alignment), and
            // inside `out`, which is ours.
            unsafe { dst.add(i).write((*src.add(i)).load(Ordering::Relaxed)) };
        }
    });
    // SAFETY: the loop wrote every chunk of `out`, and any mix of
    // initialized chunks is a valid `T` (module contract).
    unsafe { out.assume_init() }
}

/// Stores one `T` to `dst` with relaxed atomic chunks.
///
/// # Safety
///
/// `dst` must be valid for writes and `T`-aligned, and the destination
/// region must already be fully initialized (so racing [`load`]s never see
/// uninitialized bytes); `T` must satisfy the [module contract](self).
#[inline]
pub unsafe fn store<T: Copy>(dst: *mut T, value: T) {
    let src = &raw const value;
    // Plain loads from the private `value` (no padding per the module
    // contract, so every byte is initialized); atomic stores to the
    // shared destination.
    with_chunk_ty!(T, A, P, {
        let src = src as *const P;
        let dst = dst as *const A;
        for i in 0..size_of::<T>() / size_of::<P>() {
            // SAFETY: chunk `i` lies inside `value`, every byte of which is
            // initialized (no padding, module contract), and inside the `T`
            // at `dst`, which the caller guarantees valid for writes and
            // `T`-aligned (hence aligned for `A`, as in `load`).
            unsafe { (*dst.add(i)).store(src.add(i).read(), Ordering::Relaxed) };
        }
    });
}

/// Copies `count` elements of `T` from `src` to `dst` with relaxed atomic
/// chunks on **both** sides.  Overlapping regions are handled like
/// `ptr::copy` (memmove): the copy direction is chosen so that source
/// chunks are read before they are overwritten.
///
/// # Safety
///
/// Both regions must be valid for the access, `T`-aligned and fully
/// initialized; `T` must satisfy the [module contract](self).
#[inline]
pub unsafe fn copy<T: Copy>(src: *const T, dst: *mut T, count: usize) {
    // memmove direction rule: when the destination starts at or below the
    // source, walk forward; otherwise walk backward.
    let forward = (dst as usize) <= (src as usize);
    with_chunk_ty!(T, A, P, {
        let chunks = count * size_of::<T>() / size_of::<P>();
        let src = src as *const A;
        let dst = dst as *const A;
        for step in 0..chunks {
            let i = if forward { step } else { chunks - 1 - step };
            // SAFETY: chunk `i` lies inside both `count`-element regions,
            // which the caller guarantees valid, initialized and
            // `T`-aligned (hence aligned for `A`, as in `load`).
            unsafe {
                let value = (*src.add(i)).load(Ordering::Relaxed);
                (*dst.add(i)).store(value, Ordering::Relaxed);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::UnsafeCell;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn chunk_width_follows_alignment() {
        assert_eq!(chunk_bytes::<u64>(), 8);
        assert_eq!(chunk_bytes::<u32>(), 4);
        assert_eq!(chunk_bytes::<u16>(), 2);
        assert_eq!(chunk_bytes::<u8>(), 1);
        assert_eq!(chunk_bytes::<[u8; 32]>(), 1);
        assert_eq!(chunk_bytes::<[u64; 4]>(), 8);
        assert_eq!(chunk_bytes::<u128>(), 8);
    }

    #[test]
    fn load_store_roundtrip() {
        // SAFETY: every pointer is to a live, initialized local of the
        // accessed type, on this thread alone.
        unsafe {
            let mut slot = 0u64;
            store(&mut slot, 0xDEAD_BEEF_CAFE_F00Du64);
            assert_eq!(load(&slot), 0xDEAD_BEEF_CAFE_F00Du64);

            let mut wide = [0u8; 32];
            let payload: [u8; 32] = std::array::from_fn(|i| i as u8);
            store(&mut wide as *mut [u8; 32], payload);
            assert_eq!(load(&wide as *const [u8; 32]), payload);
        }
    }

    #[test]
    fn copy_handles_overlap_like_memmove() {
        // SAFETY: every region is inside a live, initialized local array
        // of the copied type, on this thread alone.
        unsafe {
            // Shift right (dst above src, overlapping): must walk backward.
            let mut a = [1u64, 2, 3, 4, 5, 0];
            let base = a.as_mut_ptr();
            copy(base.add(1), base.add(2), 4);
            assert_eq!(a, [1, 2, 2, 3, 4, 5]);

            // Shift left (dst below src, overlapping): must walk forward.
            let mut b = [1u64, 2, 3, 4, 5, 6];
            let base = b.as_mut_ptr();
            copy(base.add(2), base.add(1), 4);
            assert_eq!(b, [1, 3, 4, 5, 6, 6]);

            // Disjoint copy and self-copy.
            let mut c = [9u64, 8, 7, 0, 0, 0];
            let base = c.as_mut_ptr();
            copy(base, base.add(3), 3);
            assert_eq!(c, [9, 8, 7, 9, 8, 7]);
            copy(base, base, 3);
            assert_eq!(c, [9, 8, 7, 9, 8, 7]);
        }
    }

    #[test]
    fn copy_byte_aligned_payloads() {
        // SAFETY: both regions lie inside the live, initialized local
        // array `a`, on this thread alone.
        unsafe {
            let mut a: [[u8; 3]; 4] = [[1; 3], [2; 3], [3; 3], [4; 3]];
            let base = a.as_mut_ptr();
            copy(base, base.add(1), 3);
            assert_eq!(a, [[1; 3], [1; 3], [2; 3], [3; 3]]);
        }
    }

    // Racing loads and stores are the whole point: this must be clean
    // under Miri and ThreadSanitizer.  Tearing is allowed, UB is not.
    #[test]
    fn racing_load_and_store_is_defined() {
        struct Shared(UnsafeCell<[u64; 2]>);
        // SAFETY: all cross-thread access goes through the racy atomic
        // helpers, which are exactly what makes the sharing sound.
        unsafe impl Sync for Shared {}

        let slot = Shared(UnsafeCell::new([0u64; 2]));
        let stop = AtomicBool::new(false);
        let rounds: u64 = if cfg!(miri) { 64 } else { 100_000 };

        std::thread::scope(|scope| {
            let slot = &slot;
            let stop = &stop;
            scope.spawn(move || {
                for i in 0..rounds {
                    // SAFETY: valid, aligned, initialized; races with the
                    // reader below are relaxed-atomic on both sides.
                    unsafe { store(slot.0.get(), [i, i]) };
                }
                stop.store(true, Ordering::Relaxed);
            });
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // SAFETY: as above.
                    let seen = unsafe { load(slot.0.get() as *const [u64; 2]) };
                    // No equality assertion between the halves: they are
                    // written by one `store` call but the chunks are
                    // independent, so tearing is legal.  Every chunk still
                    // holds a value some store produced.
                    assert!(seen[0] < rounds && seen[1] < rounds);
                }
            });
        });
    }
}
