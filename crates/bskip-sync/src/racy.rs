//! Formally race-free "racy" cells for optimistic readers.
//!
//! The optimistic (OLC) read path reads node contents **without holding any
//! lock**, relying on a version recheck to discard torn results.  Under the
//! C++/Rust memory model a plain load that races a plain store is undefined
//! behaviour *even if the loaded value is later discarded* — so both sides
//! of the race must be atomic.  This module provides the cell the
//! B-skiplist nodes build their key and value arrays from: a [`RacyCell`]
//! moves its [`Racy`] payload as chunked **relaxed atomic** loads and
//! stores, in the style of `crossbeam`'s `AtomicCell` without its lock
//! fallback.
//!
//! A value is moved as a sequence of independent relaxed atomic chunks (8,
//! 4, 2 or 1 bytes, the widest that the type's alignment permits), so a
//! load racing a store may observe a mix of old and new chunks — a *torn*
//! value.  That is exactly the semantics optimistic readers want: the read
//! is defined behaviour, the bytes are real (each chunk was stored by
//! somebody), the [`Racy`] bound makes the mix a valid value, and the
//! subsequent version validation rejects the traversal if any writer
//! overlapped it.
//!
//! Writers serialized by a lock may still use the cells concurrently with
//! optimistic readers — that is the intended pairing: the lock orders
//! writers among themselves, the atomics make the writer/reader races
//! defined, and the version protocol makes them harmless.

use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// A payload a [`RacyCell`] may move in independent relaxed-atomic chunks.
///
/// # Safety
///
/// Implementing `Racy` promises three things about the type:
///
/// * it has **no padding bytes**, so every byte of every value is
///   initialized and a chunked copy never reads an uninitialized one;
/// * any **byte-wise mix** of valid values is itself a valid value: a read
///   torn by a racing write yields a genuine `Self` (no niches, no
///   pointers or lengths that must agree, no invariant across bytes) that
///   may be compared and then discarded;
/// * [`Racy::ZERO`] is the value whose bytes are all zero.
///
/// The integer primitives qualify, and so do arrays of `Racy` types (and
/// `#[repr(C)]` aggregates of them laid out without padding).  References,
/// `bool`, `char`, enums and structs with padding do not.
pub unsafe trait Racy: Copy + Send + Sync + 'static {
    /// The all-zero value; fresh node slots hold it.
    const ZERO: Self;
}

macro_rules! racy_integers {
    ($($int:ty),*) => {$(
        // SAFETY: an integer has no padding, every bit pattern is a valid
        // integer, and `0` is all zero bytes.
        unsafe impl Racy for $int {
            const ZERO: Self = 0;
        }
    )*};
}

racy_integers!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

// SAFETY: an array is its elements back to back with no padding between
// or after them, so a byte-wise mix of arrays is an element-wise byte-wise
// mix of `T`s — valid by `T: Racy` — and `[T::ZERO; N]` is all zero bytes.
unsafe impl<T: Racy, const N: usize> Racy for [T; N] {
    const ZERO: Self = [T::ZERO; N];
}

/// The widest power-of-two chunk (max 8 bytes) that `T`'s alignment
/// permits.  `T`'s size is always a multiple of its alignment, so a `T`
/// splits exactly into such chunks with no tail.
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
/// selected for `T` — the one macro behind both accessors below, so the
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

/// A `T` that any number of threads may read and write at once.
///
/// Every access is a sequence of relaxed atomic chunks, so a [`get`] that
/// races a [`set`] is defined behaviour but may return a torn value: a
/// byte-wise mix of the old and new values, which `T: Racy` makes a valid
/// `T`.  The caller must discard it unless something else — a held lock,
/// or a version validation — proves no writer raced the read.
///
/// [`get`]: RacyCell::get
/// [`set`]: RacyCell::set
#[repr(transparent)]
pub struct RacyCell<T>(UnsafeCell<T>);

// SAFETY: shared access to the cell's bytes only ever happens through
// `get` and `set`, whose chunks are atomic, and `T: Racy` makes whatever
// mix of chunks a racing `get` observes a valid `T`.
unsafe impl<T: Racy> Sync for RacyCell<T> {}

impl<T: Racy> RacyCell<T> {
    /// A cell holding `value`.
    pub const fn new(value: T) -> Self {
        RacyCell(UnsafeCell::new(value))
    }

    /// Loads the value with relaxed atomic chunks.  Torn if a [`set`]
    /// overlaps; see the type docs.
    ///
    /// [`set`]: RacyCell::set
    #[inline]
    pub fn get(&self) -> T {
        let mut out = MaybeUninit::<T>::uninit();
        // Atomic loads from the shared cell; plain stores into the private
        // `out` buffer (only the shared side of the transfer races).
        with_chunk_ty!(T, A, P, {
            let src = self.0.get() as *const A;
            let dst = out.as_mut_ptr() as *mut P;
            for i in 0..size_of::<T>() / size_of::<P>() {
                // SAFETY: chunk `i` lies inside the cell's `T`, which is
                // initialized (no padding, `Racy`), `T`-aligned (hence
                // aligned for `A`, never wider than `T`'s alignment) and
                // only ever accessed through such atomic chunks once
                // shared; and inside `out`, which is ours.
                unsafe { dst.add(i).write((*src.add(i)).load(Ordering::Relaxed)) };
            }
        });
        // SAFETY: the loop wrote every chunk of `out`, and any mix of
        // chunks of valid `T`s is a valid `T` (`Racy`).
        unsafe { out.assume_init() }
    }

    /// Stores `value` with relaxed atomic chunks.
    #[inline]
    pub fn set(&self, value: T) {
        let src = &raw const value;
        // Plain loads from the private `value` (no padding, `Racy`, so
        // every byte is initialized); atomic stores to the shared cell.
        with_chunk_ty!(T, A, P, {
            let src = src as *const P;
            let dst = self.0.get() as *const A;
            for i in 0..size_of::<T>() / size_of::<P>() {
                // SAFETY: chunk `i` lies inside `value`, every byte of
                // which is initialized, and inside the cell's `T`, aligned
                // and accessed atomically as in `get`.
                unsafe { (*dst.add(i)).store(src.add(i).read(), Ordering::Relaxed) };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let slot = RacyCell::new(u64::ZERO);
        assert_eq!(slot.get(), 0);
        slot.set(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(slot.get(), 0xDEAD_BEEF_CAFE_F00D);

        let wide = RacyCell::new(<[u8; 32]>::ZERO);
        let payload: [u8; 32] = std::array::from_fn(|i| i as u8);
        wide.set(payload);
        assert_eq!(wide.get(), payload);

        let odd = RacyCell::new([[1u8; 3]; 4]);
        odd.set([[2; 3]; 4]);
        assert_eq!(odd.get(), [[2; 3]; 4]);
    }

    // Racing loads and stores are the whole point: this must be clean
    // under Miri and ThreadSanitizer.  Tearing is allowed, UB is not.
    #[test]
    fn racing_load_and_store_is_defined() {
        let slot = RacyCell::new([0u64; 2]);
        let stop = AtomicBool::new(false);
        let rounds: u64 = if cfg!(miri) { 64 } else { 100_000 };

        std::thread::scope(|scope| {
            let slot = &slot;
            let stop = &stop;
            scope.spawn(move || {
                for i in 0..rounds {
                    slot.set([i, i]);
                }
                stop.store(true, Ordering::Relaxed);
            });
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let seen = slot.get();
                    // No equality assertion between the halves: they are
                    // written by one `set` call but the chunks are
                    // independent, so tearing is legal.  Every chunk still
                    // holds a value some `set` produced.
                    assert!(seen[0] < rounds && seen[1] < rounds);
                }
            });
        });
    }
}
