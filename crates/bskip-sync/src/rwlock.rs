//! A word-sized reader-writer spinlock with an optimistic version word.
//!
//! The paper's top-down concurrency-control scheme acquires reader/writer
//! locks hand-over-hand while descending the B-skiplist.  The lock it needs
//! has four properties:
//!
//! 1. it must be embeddable inside every index node without a heap
//!    allocation (one word of state),
//! 2. reader acquisition must be a single fetch-add on the uncontended path
//!    (queries take two read locks per level),
//! 3. writers must not be starved by a continuous stream of readers
//!    (inserts take write locks at the levels they modify), and
//! 4. readers that prefer not to acquire anything at all must be able to
//!    *validate* that a node was untouched while they read it — the
//!    optimistic-lock-coupling (OLC) read path.
//!
//! [`RawRwSpinLock`] provides exactly that: a 64-bit state word whose **low
//! half** is the classic rwlock protocol (bits 0–29 count active readers,
//! bit 30 marks a *pending* writer, which blocks new readers and gives
//! writer preference, bit 31 marks an *active* writer) and whose **high
//! half** is a 32-bit **version counter** bumped once per exclusive
//! lock/unlock cycle.
//!
//! # The version protocol
//!
//! Optimistic readers never modify the word.  They run the seqlock-style
//! sequence
//!
//! 1. [`optimistic_version`](RawRwSpinLock::optimistic_version) — load the
//!    state (`Acquire`); fail immediately if a writer is *active* (the
//!    node is mid-mutation).  A merely *pending* writer is fine: it has
//!    not touched the data yet.
//! 2. read the protected data **with relaxed atomic accesses** (see the
//!    [`crate::RacyCell`] type — the reads may race the writer's stores, so
//!    they must be atomic to be defined behaviour, and the values obtained
//!    are only trusted after step 3),
//! 3. [`validate_version`](RawRwSpinLock::validate_version) — an `Acquire`
//!    fence followed by a relaxed reload; succeed iff no writer is active
//!    *and* the version still matches.
//!
//! Writers make this sound by (a) setting `WRITER_ACTIVE` *before* their
//! first data store, with a `Release` fence between the acquisition and the
//! stores, and (b) bumping the version in the same atomic op that clears
//! `WRITER_ACTIVE` (`fetch_add(VERSION_UNIT - WRITER_ACTIVE)`), with
//! `Release` ordering.  The fence pairing is Boehm's seqlock recipe: if any
//! of the reader's step-2 loads observes a store the writer made after its
//! `Release` fence, that fence synchronizes with the reader's `Acquire`
//! fence in step 3, so the reload is guaranteed to see `WRITER_ACTIVE` (or
//! a later, version-bumped state) and validation fails.  Conversely a
//! successful validation proves every step-2 load saw pre-critical-section
//! data of the version observed in step 1.
//!
//! Shared (read) acquisitions do not change the version: they cannot modify
//! the data, so optimistic readers may overlap them freely.
//!
//! ## Optimistic writers
//!
//! A writer that reached a node through an optimistic (lock-free)
//! traversal holds a version, not a lock, and must learn *under its own
//! exclusive hold* that nothing changed since the version was captured.
//! `validate_version` cannot say — it fails under the caller's own
//! `WRITER_ACTIVE` — and "lock, compare, unlock on mismatch" would bump
//! the version of a node the writer never modified, costing every
//! optimistic reader in flight a restart.
//! [`lock_exclusive_at`](RawRwSpinLock::lock_exclusive_at) is that step as
//! one primitive: every state transition it makes is a compare-exchange
//! whose expected value carries the captured version, so it either
//! acquires the lock at exactly that version or returns `false` having
//! stored nothing.  It waits for shared holders (a cursor holds a leaf's
//! read lock for a whole snapshot; giving up on readers would restart
//! spuriously) and gives up on any other writer, pending or active,
//! because that writer's release is a version bump.  The unconditional
//! `lock_exclusive` is the same primitive retried at whichever version is
//! current, so there is one implementation of the pend-drain-activate
//! conversion.
//! On success it issues the same `Acquire` + `Release`-fence pair as every
//! other exclusive acquisition, so the reader-side argument above is
//! unchanged.
//!
//! The version is 32 bits wide, so it wraps after 2³² exclusive cycles *on
//! one node*.  A stalled optimistic reader could in principle validate
//! against a wrapped version; like every published OLC structure we accept
//! this (a reader would have to be descheduled across four billion
//! writer critical sections on the very node it is reading), and the
//! wraparound itself is exercised in the unit tests to show the state word
//! stays coherent when it happens.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::Backoff;

/// Bit set while a writer holds the lock exclusively.
const WRITER_ACTIVE: u64 = 1 << 31;
/// Bit set while a writer is waiting; blocks new readers (writer preference).
const WRITER_PENDING: u64 = 1 << 30;
/// Mask extracting the active-reader count.
const READER_MASK: u64 = WRITER_PENDING - 1;
/// Mask extracting the whole lock half (readers + pending + active).
const LOCK_MASK: u64 = u32::MAX as u64;
/// One version increment: the version occupies the high 32 bits.
const VERSION_UNIT: u64 = 1 << 32;
/// Mask extracting the version half.
const VERSION_MASK: u64 = !LOCK_MASK;

/// A raw reader-writer spinlock with an embedded version counter: no
/// guards, no data — just the protocol.
///
/// This is the lock embedded in every node of the concurrent B-skiplist and
/// the lock-based baselines.  Lock and unlock are the caller's
/// responsibility to pair correctly (the index code does so through
/// hand-over-hand traversal); the safe [`RwSpinLock`] wrapper is provided for
/// conventional uses.  The optimistic [`optimistic_version`] /
/// [`validate_version`] pair implements the OLC read path described in the
/// module-level documentation above.
///
/// [`optimistic_version`]: RawRwSpinLock::optimistic_version
/// [`validate_version`]: RawRwSpinLock::validate_version
///
/// # Example
///
/// ```
/// use bskip_sync::RawRwSpinLock;
///
/// let lock = RawRwSpinLock::new();
/// lock.lock_shared();
/// assert!(lock.try_lock_shared()); // readers share
/// lock.unlock_shared();
/// lock.unlock_shared();
///
/// // Optimistic validation: stable across a write-free window ...
/// let version = lock.optimistic_version().unwrap();
/// assert!(lock.validate_version(version));
/// // ... and invalidated by an exclusive cycle, which excludes readers.
/// lock.lock_exclusive();
/// assert!(!lock.try_lock_shared());
/// assert_eq!(lock.optimistic_version(), None);
/// lock.unlock_exclusive();
/// assert!(!lock.validate_version(version));
/// ```
#[derive(Default)]
pub struct RawRwSpinLock {
    state: AtomicU64,
}

impl RawRwSpinLock {
    /// Creates an unlocked lock with version zero.
    #[inline]
    pub const fn new() -> Self {
        RawRwSpinLock {
            state: AtomicU64::new(0),
        }
    }

    /// Attempts to acquire the lock in shared (read) mode without blocking.
    ///
    /// Fails if a writer is active *or pending* — pending writers block new
    /// readers so that a stream of queries cannot starve inserts.
    #[inline]
    pub fn try_lock_shared(&self) -> bool {
        let state = self.state.load(Ordering::Relaxed);
        if state & (WRITER_ACTIVE | WRITER_PENDING) != 0 {
            return false;
        }
        self.state
            .compare_exchange_weak(state, state + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Acquires the lock in shared (read) mode, spinning until available.
    #[inline]
    pub fn lock_shared(&self) {
        let mut backoff = Backoff::new();
        loop {
            if self.try_lock_shared() {
                return;
            }
            backoff.snooze();
        }
    }

    /// Releases one shared (read) acquisition.
    ///
    /// Readers never change the version: optimistic validation is only
    /// about writers.
    ///
    /// # Panics
    ///
    /// Debug builds panic if no reader currently holds the lock.
    #[inline]
    pub fn unlock_shared(&self) {
        let previous = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(
            previous & READER_MASK > 0,
            "unlock_shared called without a matching lock_shared"
        );
    }

    /// Acquires the lock in exclusive (write) mode, spinning until all
    /// readers have drained.  Sets the pending bit while waiting so new
    /// readers back off.
    ///
    /// This is [`lock_exclusive_at`](RawRwSpinLock::lock_exclusive_at)
    /// with no opinion about the version: acquire at whichever one is
    /// current, and try again behind any other writer.
    pub fn lock_exclusive(&self) {
        let mut backoff = Backoff::new();
        loop {
            let version = self.state.load(Ordering::Relaxed) & VERSION_MASK;
            if self.lock_exclusive_at(version) {
                return;
            }
            backoff.snooze();
        }
    }

    /// Acquires the lock in exclusive (write) mode **at a version**: the
    /// writer half of optimistic lock coupling (see *Optimistic writers*
    /// in the module docs).  Returns `true` holding the lock iff no
    /// exclusive cycle has started since `version` was returned by
    /// [`optimistic_version`](RawRwSpinLock::optimistic_version); returns
    /// `false` **without acquiring** otherwise, leaving the state word
    /// exactly as it found it — in particular it never bumps the version
    /// of a node it did not get to modify.
    ///
    /// Readers are waited out (claim the pending bit so that new readers
    /// back off, let the count drain, convert pending to active): shared
    /// holders do not change the data, so they are no reason to give up.
    /// Another writer — active *or pending* — is: it will bump the version
    /// when it releases, so the call returns `false` at once instead of
    /// waiting for the inevitable.
    pub fn lock_exclusive_at(&self, version: u64) -> bool {
        debug_assert_eq!(
            version & LOCK_MASK,
            0,
            "not a value from optimistic_version"
        );
        let mut backoff = Backoff::new();
        loop {
            let state = self.state.load(Ordering::Relaxed);
            // Every compare-exchange below compares the whole word, so a
            // version that moves after this check fails the exchange and
            // is caught here on the next round.
            if state & (VERSION_MASK | WRITER_ACTIVE | WRITER_PENDING) != version {
                return false;
            }
            let readers_only = state & READER_MASK != 0;
            let claim = if readers_only {
                WRITER_PENDING
            } else {
                WRITER_ACTIVE
            };
            if self
                .state
                .compare_exchange_weak(state, state | claim, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                backoff.snooze();
                continue;
            }
            if readers_only {
                // We own the pending bit, which blocks new readers and
                // pins the version: only an *active* writer's unlock bumps
                // it, and the pending bit excludes other writers.  Wait
                // for the readers to drain, then convert pending → active.
                let mut drain = Backoff::new();
                while self.state.load(Ordering::Relaxed) & READER_MASK != 0
                    || self
                        .state
                        .compare_exchange_weak(
                            version | WRITER_PENDING,
                            version | WRITER_ACTIVE,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_err()
                {
                    drain.snooze();
                }
            }
            // Publish the WRITER_ACTIVE store ahead of every data store in
            // the critical section (the writer half of the seqlock fence
            // pairing — see the module docs).  Free on x86; required for
            // the protocol to be sound under the C++ memory model.
            fence(Ordering::Release);
            return true;
        }
    }

    /// Releases an exclusive (write) acquisition, bumping the version.
    ///
    /// While a writer is active the lock half is exactly `WRITER_ACTIVE`
    /// (no readers can enter, no second writer, pending was consumed on
    /// conversion), so a single `fetch_add` both clears the bit and
    /// increments the version — including at wraparound, where the carry
    /// out of the version half vanishes off the top of the u64 without
    /// disturbing the lock half.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the lock is not currently held exclusively.
    #[inline]
    pub fn unlock_exclusive(&self) {
        let previous = self
            .state
            .fetch_add(VERSION_UNIT - WRITER_ACTIVE, Ordering::Release);
        debug_assert!(
            previous & LOCK_MASK == WRITER_ACTIVE,
            "unlock_exclusive called without a matching lock_exclusive"
        );
    }

    /// Begins an optimistic read: returns the current version, or `None`
    /// if a writer is active (the caller should back off and retry, or
    /// fall back to a shared lock).
    ///
    /// A *pending* writer does not fail the read — it has announced intent
    /// but has not touched the data; if it activates mid-read, the final
    /// [`validate_version`](RawRwSpinLock::validate_version) catches it.
    /// This also means optimistic readers, unlike shared lockers, are
    /// never stalled by writer preference.
    #[inline]
    pub fn optimistic_version(&self) -> Option<u64> {
        let state = self.state.load(Ordering::Acquire);
        if state & WRITER_ACTIVE != 0 {
            None
        } else {
            Some(state & VERSION_MASK)
        }
    }

    /// Ends an optimistic read: returns `true` iff no writer is currently
    /// active **and** the version still equals `version` (as returned by
    /// [`optimistic_version`](RawRwSpinLock::optimistic_version)), i.e. no
    /// exclusive critical section overlapped the read.
    ///
    /// On success, every relaxed data load performed between the two calls
    /// observed a consistent, fully-published snapshot (see the module docs
    /// for the fence argument).  On failure the loaded data must be
    /// discarded.
    #[inline]
    pub fn validate_version(&self, version: u64) -> bool {
        debug_assert_eq!(
            version & LOCK_MASK,
            0,
            "not a value from optimistic_version"
        );
        // Reader half of the seqlock fence pairing: order every preceding
        // data load before the reload below.
        fence(Ordering::Acquire);
        let state = self.state.load(Ordering::Relaxed);
        // Version bits have a zero lock half, so one comparison checks
        // both "no active writer" and "version unchanged".
        state & (VERSION_MASK | WRITER_ACTIVE) == version
    }

    /// Returns `true` if the lock is currently held in any mode.
    ///
    /// Only meaningful for assertions and statistics: the answer may be
    /// stale by the time the caller inspects it.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & (WRITER_ACTIVE | READER_MASK) != 0
    }
}

impl fmt::Debug for RawRwSpinLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.load(Ordering::Relaxed);
        f.debug_struct("RawRwSpinLock")
            .field("readers", &(state & READER_MASK))
            .field("writer_pending", &(state & WRITER_PENDING != 0))
            .field("writer_active", &(state & WRITER_ACTIVE != 0))
            .field("version", &(state >> 32))
            .finish()
    }
}

/// An RAII reader-writer spinlock protecting a value of type `T`.
///
/// The B-skiplist embeds [`RawRwSpinLock`] directly; the skiplist
/// baselines guard each element's value with this type, the conventional
/// guard-based API over the same protocol.
///
/// # Example
///
/// ```
/// use bskip_sync::RwSpinLock;
///
/// let lock = RwSpinLock::new(vec![1, 2, 3]);
/// assert_eq!(lock.read().len(), 3);
/// lock.write().push(4);
/// assert_eq!(*lock.read(), vec![1, 2, 3, 4]);
/// ```
#[derive(Default)]
pub struct RwSpinLock<T> {
    raw: RawRwSpinLock,
    data: UnsafeCell<T>,
}

// SAFETY: the lock owns its one `T` (the lock word is plain atomics), so
// moving the lock to another thread moves that `T`: `T: Send` suffices.
unsafe impl<T: Send> Send for RwSpinLock<T> {}
// SAFETY: a shared `RwSpinLock` hands `&mut T` to one writer at a time,
// which may be any thread (`T: Send`), and `&T` to many readers at once
// (`T: Sync`); the lock protocol keeps the two apart.
unsafe impl<T: Send + Sync> Sync for RwSpinLock<T> {}

impl<T> RwSpinLock<T> {
    /// Creates a new lock protecting `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        RwSpinLock {
            raw: RawRwSpinLock::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires a shared read guard, spinning if necessary.
    #[inline]
    pub fn read(&self) -> RwSpinLockReadGuard<'_, T> {
        self.raw.lock_shared();
        RwSpinLockReadGuard { lock: self }
    }

    /// Acquires an exclusive write guard, spinning if necessary.
    #[inline]
    pub fn write(&self) -> RwSpinLockWriteGuard<'_, T> {
        self.raw.lock_exclusive();
        RwSpinLockWriteGuard { lock: self }
    }

    /// Attempts to acquire a read guard without spinning.
    #[inline]
    pub fn try_read(&self) -> Option<RwSpinLockReadGuard<'_, T>> {
        if self.raw.try_lock_shared() {
            Some(RwSpinLockReadGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns a mutable reference to the protected value.  Requires `&mut
    /// self`, so no locking is necessary.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for RwSpinLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwSpinLock").field("data", &*guard).finish(),
            None => f
                .debug_struct("RwSpinLock")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// Shared (read) guard returned by [`RwSpinLock::read`].
pub struct RwSpinLockReadGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> Deref for RwSpinLockReadGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: shared lock held for the guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwSpinLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.raw.unlock_shared();
    }
}

/// Exclusive (write) guard returned by [`RwSpinLock::write`].
pub struct RwSpinLockWriteGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
}

impl<T> Deref for RwSpinLockWriteGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: exclusive lock held for the guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for RwSpinLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive lock held for the guard's lifetime.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwSpinLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.raw.unlock_exclusive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn raw_lock_is_one_word() {
        assert_eq!(std::mem::size_of::<RawRwSpinLock>(), 8);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let lock = RawRwSpinLock::new();
        lock.lock_shared();
        assert!(lock.try_lock_shared());
        lock.unlock_shared();
        lock.unlock_shared();
        lock.lock_exclusive();
        assert!(!lock.try_lock_shared());
        assert!(lock.optimistic_version().is_none());
        lock.unlock_exclusive();
        assert!(!lock.is_locked());
    }

    #[test]
    fn is_locked_reflects_state() {
        let lock = RawRwSpinLock::new();
        assert!(!lock.is_locked());
        lock.lock_shared();
        assert!(lock.is_locked());
        assert!(lock.optimistic_version().is_some(), "a reader is no writer");
        lock.unlock_shared();
        lock.lock_exclusive();
        assert!(lock.is_locked());
        assert!(lock.optimistic_version().is_none());
        lock.unlock_exclusive();
    }

    #[test]
    fn version_bumps_once_per_exclusive_cycle() {
        let lock = RawRwSpinLock::new();
        let v0 = lock.optimistic_version().unwrap();
        lock.lock_exclusive();
        assert_eq!(
            lock.optimistic_version(),
            None,
            "active writer must fail optimistic begin"
        );
        lock.unlock_exclusive();
        let v1 = lock.optimistic_version().unwrap();
        assert_eq!(v1, v0 + VERSION_UNIT, "one cycle bumps the version once");
        assert!(lock.validate_version(v1));
        assert!(!lock.validate_version(v0));
    }

    #[test]
    fn shared_acquisitions_do_not_invalidate() {
        let lock = RawRwSpinLock::new();
        let version = lock.optimistic_version().unwrap();
        lock.lock_shared();
        // A shared holder cannot mutate, so optimistic reads stay valid
        // right through it.
        assert_eq!(lock.optimistic_version(), Some(version));
        assert!(lock.validate_version(version));
        lock.unlock_shared();
        assert!(lock.validate_version(version));
    }

    #[test]
    fn validation_fails_while_writer_is_active() {
        let lock = RawRwSpinLock::new();
        let version = lock.optimistic_version().unwrap();
        lock.lock_exclusive();
        assert!(
            !lock.validate_version(version),
            "an active writer must fail validation even before the bump"
        );
        lock.unlock_exclusive();
    }

    #[test]
    fn pending_writer_allows_optimistic_begin_and_validate() {
        // A writer that has only *announced* intent has not touched the
        // data: optimistic reads must still begin and validate, otherwise
        // writer preference would starve the lock-free read path too.
        let lock = RawRwSpinLock::new();
        lock.state.fetch_or(WRITER_PENDING, Ordering::Relaxed);
        let version = lock
            .optimistic_version()
            .expect("pending writer must not fail optimistic begin");
        assert!(lock.validate_version(version));
        lock.state.fetch_and(!WRITER_PENDING, Ordering::Relaxed);
    }

    #[test]
    fn version_wraparound_keeps_the_lock_word_coherent() {
        // Force the version to its maximum, run one exclusive cycle and
        // check that the carry disappears off the top: version wraps to
        // zero, lock half unlocked, protocol still fully functional.
        let lock = RawRwSpinLock::new();
        lock.state.store((u32::MAX as u64) << 32, Ordering::Relaxed);
        let pre = lock.optimistic_version().unwrap();
        assert_eq!(pre, (u32::MAX as u64) << 32);
        lock.lock_exclusive();
        lock.unlock_exclusive();
        assert_eq!(lock.optimistic_version(), Some(0), "version wraps to zero");
        assert!(
            !lock.is_locked(),
            "wraparound must not corrupt the lock half"
        );
        assert!(
            !lock.validate_version(pre),
            "pre-wrap version must not validate after the cycle"
        );
        // The lock still works normally after wrapping.
        lock.lock_shared();
        assert!(lock.try_lock_shared());
        lock.unlock_shared();
        lock.unlock_shared();
        lock.lock_exclusive();
        lock.unlock_exclusive();
        assert_eq!(lock.optimistic_version(), Some(VERSION_UNIT));
    }

    #[test]
    fn lock_exclusive_at_acquires_at_the_captured_version() {
        let lock = RawRwSpinLock::new();
        lock.lock_exclusive();
        lock.unlock_exclusive();
        let version = lock.optimistic_version().unwrap();
        assert!(lock.lock_exclusive_at(version));
        assert!(lock.optimistic_version().is_none());
        assert!(!lock.try_lock_shared());
        lock.unlock_exclusive();
        // The hold it took is an ordinary exclusive cycle: one bump.
        assert_eq!(lock.optimistic_version(), Some(version + VERSION_UNIT));
    }

    #[test]
    fn lock_exclusive_at_stores_nothing_when_the_version_moved() {
        let lock = RawRwSpinLock::new();
        let stale = lock.optimistic_version().unwrap();
        lock.lock_exclusive();
        // Another writer active: doomed, and must not wait for it.
        let held = lock.state.load(Ordering::Relaxed);
        assert!(!lock.lock_exclusive_at(stale));
        assert_eq!(lock.state.load(Ordering::Relaxed), held);
        lock.unlock_exclusive();
        // After the intervening cycle the word must come back bit for
        // bit: no version bump, no stuck pending bit — with and without
        // a shared holder present.
        let before = lock.state.load(Ordering::Relaxed);
        assert!(!lock.lock_exclusive_at(stale));
        assert_eq!(lock.state.load(Ordering::Relaxed), before);
        lock.lock_shared();
        let shared = lock.state.load(Ordering::Relaxed);
        assert!(!lock.lock_exclusive_at(stale));
        assert_eq!(lock.state.load(Ordering::Relaxed), shared);
        lock.unlock_shared();
        assert_eq!(lock.state.load(Ordering::Relaxed), before);
        // A writer that has only announced itself still means a bump.
        let current = lock.optimistic_version().unwrap();
        lock.state.fetch_or(WRITER_PENDING, Ordering::Relaxed);
        assert!(!lock.lock_exclusive_at(current));
        lock.state.fetch_and(!WRITER_PENDING, Ordering::Relaxed);
        assert_eq!(lock.state.load(Ordering::Relaxed), before);
        assert!(lock.lock_exclusive_at(current));
        lock.unlock_exclusive();
    }

    #[test]
    fn lock_exclusive_at_works_across_version_wraparound() {
        let lock = RawRwSpinLock::new();
        lock.state.store((u32::MAX as u64) << 32, Ordering::Relaxed);
        let last = lock.optimistic_version().unwrap();
        assert!(lock.lock_exclusive_at(last));
        lock.unlock_exclusive();
        assert_eq!(lock.optimistic_version(), Some(0), "version wraps to zero");
        assert!(!lock.is_locked());
        assert!(!lock.lock_exclusive_at(last), "pre-wrap version is stale");
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
        assert!(lock.lock_exclusive_at(0));
        lock.unlock_exclusive();
        assert_eq!(lock.optimistic_version(), Some(VERSION_UNIT));
    }

    // Two threads, few hand-offs: cheap enough for Miri, which explores
    // the interleavings of the pend-drain-activate conversion.
    #[test]
    fn lock_exclusive_at_waits_out_a_shared_holder() {
        let lock = Arc::new(RawRwSpinLock::new());
        let version = lock.optimistic_version().unwrap();
        lock.lock_shared();
        let writer = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let acquired = lock.lock_exclusive_at(version);
                if acquired {
                    lock.unlock_exclusive();
                }
                acquired
            })
        };
        // The writer must announce itself (blocking new readers) and then
        // wait: a shared holder is no reason to give up.
        while lock.state.load(Ordering::Relaxed) & WRITER_PENDING == 0 {
            std::thread::yield_now();
        }
        assert!(!lock.try_lock_shared(), "pending writer must block readers");
        assert!(lock.optimistic_version().is_some(), "pending, not active");
        lock.unlock_shared();
        assert!(writer.join().unwrap(), "reader drained: the claim succeeds");
        assert_eq!(lock.optimistic_version(), Some(version + VERSION_UNIT));
    }

    #[test]
    fn lock_exclusive_at_lets_exactly_one_of_two_racers_win() {
        // Both threads capture the same version behind a barrier, then
        // race for it: the winner's release bumps the version, so the
        // loser must see `false` — a lost update would show up as a
        // counter that moved twice in one round.
        let lock = RawRwSpinLock::new();
        let data = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        let rounds: u64 = if cfg!(miri) { 16 } else { 20_000 };
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut wins = 0u64;
                        for round in 0..rounds {
                            barrier.wait();
                            let version = lock.optimistic_version().unwrap();
                            assert_eq!(version, round << 32);
                            barrier.wait();
                            if lock.lock_exclusive_at(version) {
                                let seen = data.load(Ordering::Relaxed);
                                assert_eq!(seen, round, "two winners in one round");
                                data.store(seen + 1, Ordering::Relaxed);
                                lock.unlock_exclusive();
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            let wins: u64 = racers.into_iter().map(|r| r.join().unwrap()).sum();
            assert_eq!(wins, rounds, "exactly one racer wins each round");
        });
        assert_eq!(data.load(Ordering::Relaxed), rounds);
        assert_eq!(lock.state.load(Ordering::Relaxed), rounds << 32);
    }

    // Spin-waits on another thread's progress; too slow under Miri's
    // interpreted scheduling.
    #[cfg(not(miri))]
    #[test]
    fn pending_writer_blocks_new_readers() {
        // A reader holds the lock; a writer begins waiting; new readers must
        // not be admitted until the writer has come and gone.
        let lock = Arc::new(RawRwSpinLock::new());
        lock.lock_shared();

        let writer = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                lock.lock_exclusive();
                lock.unlock_exclusive();
            })
        };

        // Wait until the writer has registered its intent.
        let mut backoff = Backoff::new();
        while lock.state.load(Ordering::Relaxed) & WRITER_PENDING == 0 {
            backoff.snooze();
        }
        assert!(!lock.try_lock_shared(), "pending writer must block readers");
        lock.unlock_shared();
        writer.join().unwrap();
        assert!(lock.try_lock_shared());
        lock.unlock_shared();
        // The full pend-drain-activate cycle still bumped the version
        // exactly once.
        assert_eq!(
            lock.state.load(Ordering::Relaxed) & VERSION_MASK,
            VERSION_UNIT
        );
    }

    #[test]
    fn guarded_lock_mutates_value() {
        let lock = RwSpinLock::new(0u64);
        *lock.write() += 5;
        assert_eq!(*lock.read(), 5);
        assert_eq!(lock.into_inner(), 5);
    }

    #[test]
    fn try_read_fails_under_writer() {
        let lock = RwSpinLock::new(1);
        let write = lock.write();
        assert!(lock.try_read().is_none());
        drop(write);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = RwSpinLock::new(String::from("a"));
        lock.get_mut().push('b');
        assert_eq!(*lock.read(), "ab");
    }

    // Long-running contended stress case; gated from Miri.
    #[cfg(not(miri))]
    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let lock = Arc::new(RwSpinLock::new(0u64));
        let threads = 8;
        let iterations = 20_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let lock = Arc::clone(&lock);
                scope.spawn(move || {
                    for _ in 0..iterations {
                        *lock.write() += 1;
                    }
                });
            }
        });
        assert_eq!(*lock.read(), threads as u64 * iterations);
        // Every exclusive cycle bumped the version exactly once.
        assert_eq!(
            lock.raw.state.load(Ordering::Relaxed) & VERSION_MASK,
            (threads as u64 * iterations) << 32
        );
    }

    // Long-running contended stress case; gated from Miri.
    #[cfg(not(miri))]
    #[test]
    fn mixed_readers_and_writers_observe_consistent_pairs() {
        // Writers keep two fields equal; readers must never observe a
        // mismatch, which would indicate broken exclusion.
        let lock = Arc::new(RwSpinLock::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut value = 1;
                    while !stop.load(Ordering::Acquire) {
                        let mut guard = lock.write();
                        guard.0 = value;
                        guard.1 = value;
                        value += 1;
                    }
                });
            }
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let guard = lock.read();
                        assert_eq!(guard.0, guard.1, "torn read under RW lock");
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Ordering::Release);
        });
    }

    // Miri-friendly concurrent check of the full optimistic protocol over
    // a pair of racy atomics (small iteration counts; Miri explores the
    // weak-memory behaviours).
    #[test]
    fn optimistic_reads_never_observe_torn_pairs() {
        use std::sync::atomic::AtomicU64;

        let lock = Arc::new(RawRwSpinLock::new());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let rounds: u64 = if cfg!(miri) { 32 } else { 50_000 };

        std::thread::scope(|scope| {
            {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                scope.spawn(move || {
                    for i in 1..=rounds {
                        lock.lock_exclusive();
                        a.store(i, Ordering::Relaxed);
                        b.store(i, Ordering::Relaxed);
                        lock.unlock_exclusive();
                    }
                });
            }
            {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                scope.spawn(move || {
                    let mut validated = 0u64;
                    while validated < rounds.min(64) {
                        let Some(version) = lock.optimistic_version() else {
                            std::hint::spin_loop();
                            continue;
                        };
                        let seen_a = a.load(Ordering::Relaxed);
                        let seen_b = b.load(Ordering::Relaxed);
                        if lock.validate_version(version) {
                            assert_eq!(seen_a, seen_b, "validated read must be consistent");
                            validated += 1;
                            if seen_a == rounds {
                                break;
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn debug_output_mentions_state() {
        let lock = RawRwSpinLock::new();
        lock.lock_shared();
        let formatted = format!("{lock:?}");
        assert!(formatted.contains("readers"));
        assert!(formatted.contains("version"));
        lock.unlock_shared();
    }
}
