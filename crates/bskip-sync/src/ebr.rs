//! Epoch-based memory reclamation (EBR) for the workspace's concurrent
//! indices.
//!
//! Every index in this repository hands out raw pointers into
//! lock-protected or lock-free linked structures.  Removal physically
//! unlinks a node, but the node's memory cannot be freed immediately:
//! another thread may still hold a pointer to it — a traversal spinning on
//! the node's embedded lock, a lock-free reader walking a frozen `next`
//! chain, or a paused cursor.  The original workspace dodged the problem by
//! deferring **all** reclamation to drop time, which leaks memory linearly
//! under remove-heavy workloads.  This module solves it properly with the
//! classic three-phase epoch scheme (Fraser, *Practical lock-freedom*,
//! §5.2.3):
//!
//! * A [`EbrCollector`] owns a **global epoch** counter and a fixed array
//!   of **participant slots**.
//! * A thread *pins* the collector ([`EbrCollector::pin`]) before
//!   traversing the protected structure, advertising the epoch it observed
//!   in a slot; the returned [`EbrGuard`] un-pins on drop.
//! * Unlinked nodes are *retired* ([`EbrGuard::retire_box`]) into a
//!   per-epoch **deferred-drop bag** instead of being freed.
//! * The global epoch can only advance when every pinned participant has
//!   observed the current epoch ([`EbrCollector::try_collect`]); once the
//!   epoch has advanced far enough past a bag's epoch, no pinned thread can
//!   still hold a pointer into it and the bag is drained (its deferred
//!   drops run).
//!
//! Advancement is **amortized**: every `RETIRES_PER_COLLECT` retirements
//! the retiring thread attempts a collection, so the retired-but-unfreed
//! backlog stays bounded by a small constant times the number of active
//! participants — it does not grow with the total operation count.
//!
//! # A thread pins its own slot
//!
//! Pinning is the one EBR cost *every* operation pays, so it touches one
//! slot and nothing else.  Every live thread holds a small process-wide
//! number, claimed on its first pin and returned when it exits for a later
//! thread to reuse, and slot *i* of every collector belongs to the thread
//! holding number *i*.  A slot carries its owner's guard depth and pin
//! count, which only the owner writes, and a word that is either `IDLE`
//! (0) or, when odd, the advertised epoch `value >> 1`.  The outermost pin
//! publishes the epoch — one publication store and one validating load, no
//! compare-exchange, no scan, no table lookup.  A nested pin (a batched
//! `execute` falling back to a point operation, a `get` under an open
//! cursor) only raises the depth and shares the epoch already advertised,
//! as crossbeam-epoch's re-entrant pins do.  The word returns to `IDLE`
//! when the thread's last guard drops, in whatever order its guards drop;
//! that is why a guard is not `Send`.
//!
//! A thread's number is returned by a thread-local destructor, so a guard
//! must not live in a thread-local: it could outlive the number, and the
//! next thread to claim the number would share its slot.
//!
//! A thread whose number is at or beyond the slot count (more threads
//! alive at once than slots), or that pins while its thread-locals are
//! torn down, does not block: it gets an **overflow-mode** guard that
//! suspends all reclamation (no bag is drained while any overflow guard is
//! alive, though the epoch counter itself may still move) until the guard
//! drops; see [`EbrCollector::pin`].
//!
//! # Grace period
//!
//! A bag filed under epoch `e` is drained only once the global epoch
//! reaches `e + 3`.  The standard argument needs two epochs; the third
//! absorbs the one-epoch slack between a retiring thread's *pinned* epoch
//! (under which its garbage is filed) and the global epoch, which may have
//! advanced once past it: while a thread is pinned at `e` the global epoch
//! is at most `e + 1`, so every thread that could have acquired a pointer
//! to the retired node (i.e. was pinned when the node was still reachable)
//! is pinned at an epoch `<= e + 1` — and the epoch can only reach `e + 3`
//! after two further advances, each of which required all of those guards
//! to have ended.
//!
//! # Scope
//!
//! This collector is deliberately simpler than a general-purpose library
//! like crossbeam-epoch (which the offline build environment does not
//! provide): bags are mutex-protected (retirement is already the slow path —
//! it only happens when a remove empties a whole node), and collectors are
//! owned per index instance so dropping the index drains everything.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::thread_index::thread_index;
use crate::CachePadded;

/// Default number of participant slots: the number of threads alive at
/// once that pin the collector individually.  This accommodates far more
/// threads than any benchmark configuration; threads beyond it fall back
/// to the degraded overflow mode (see [`EbrCollector::pin`]).
const SLOTS: usize = 256;

/// Sentinel slot index marking an overflow-mode guard (one that holds the
/// shared overflow pin instead of a participant slot).
const OVERFLOW_SLOT: usize = usize::MAX;

/// Slot word: not pinned.  Even, so `try_collect` ignores it.
const IDLE: usize = 0;

/// Retirements between amortized collection attempts.
const RETIRES_PER_COLLECT: u64 = 64;

/// Bags cycle through `epoch % BAGS`; see the grace-period discussion in
/// the module docs for why the cycle must be at least four long (current
/// epoch + three grace epochs).
const BAGS: usize = 4;

/// Tags `epoch` into the odd "pinned" slot-word encoding.
#[inline]
fn pinned_word(epoch: usize) -> usize {
    (epoch << 1) | 1
}

/// A type-erased deferred destruction: `drop_fn(ptr)` frees the object.
struct Deferred {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: a `Deferred` is just a pending `drop` of an object whose owner
// has already relinquished it; `retire_box` requires the payload to be
// `Send`, so the drop may run on whichever thread drains the bag.
unsafe impl Send for Deferred {}

/// Monotonic counters describing a collector's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EbrStats {
    /// Objects handed to the collector since construction.
    pub retired: u64,
    /// Objects whose deferred drop has run.
    pub freed: u64,
    /// Objects retired but not yet freed (`retired - freed`): the backlog
    /// the epoch machinery keeps bounded.
    pub backlog: u64,
    /// Current global epoch.
    pub epoch: u64,
    /// Number of successful epoch advancements.
    pub advances: u64,
    /// Guards created since construction ([`EbrCollector::pin`] calls,
    /// nested and overflow-mode pins included).  Lets callers verify that
    /// a batched operation really pinned once rather than once per element.
    pub pins: u64,
    /// Overflow-mode pins taken by threads without a slot.
    pub overflow_pins: u64,
}

/// The participant state of the one live thread whose number is this
/// slot's position.  Only that thread writes `depth` and `pins`.
struct Slot {
    /// `IDLE` or `pinned_word(epoch)`; see the module docs.
    word: AtomicUsize,
    /// The owner's live guards on this slot; pinned while non-zero.
    depth: AtomicUsize,
    /// Guards this slot has served, summed by [`EbrCollector::stats`].
    pins: AtomicU64,
}

/// An epoch-based garbage collector for one concurrent data structure.
///
/// See the [module documentation](self) for the scheme.  Typical use:
///
/// ```
/// use bskip_sync::EbrCollector;
///
/// let collector = EbrCollector::new();
/// let guard = collector.pin();
/// // ... traverse the structure, unlink a node `ptr: *mut T` ...
/// let ptr = Box::into_raw(Box::new(42u64));
/// // SAFETY: `ptr` is unlinked (unreachable for new traversals) and is
/// // retired exactly once.
/// unsafe { guard.retire_box(ptr) };
/// drop(guard);
/// assert!(collector.stats().backlog >= 1);
/// // With no guard pinned, a few collections drain every bag.
/// for _ in 0..4 {
///     collector.try_collect();
/// }
/// assert_eq!(collector.stats().backlog, 0);
/// ```
pub struct EbrCollector {
    /// Global epoch.
    global: CachePadded<AtomicUsize>,
    /// Participant slots, indexed by thread number; padded so one thread's
    /// pin never contends with another thread's slot.
    slots: Box<[CachePadded<Slot>]>,
    /// Deferred-drop bags, indexed by `epoch % BAGS`.
    bags: [Mutex<Vec<Deferred>>; BAGS],
    /// Guards currently alive in overflow mode (pinned by a thread with no
    /// slot).  While this is non-zero no bag is drained: overflow guards
    /// advertise no epoch of their own, so the only safe course is to
    /// refuse all reclamation until they drop — degraded, but never
    /// unsound.
    overflow_pins: CachePadded<AtomicUsize>,
    /// Total overflow-mode pins since construction.
    overflow_pin_total: AtomicU64,
    retired: AtomicU64,
    freed: AtomicU64,
    advances: AtomicU64,
    /// Retirements since the last collection attempt.
    since_collect: AtomicU64,
}

impl Default for EbrCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl EbrCollector {
    /// Creates a collector with no participants and empty bags.
    pub fn new() -> Self {
        Self::with_slots(SLOTS)
    }

    /// Creates a collector with `slots` participant slots; tests use small
    /// counts (`0` included) to reach the overflow mode.
    fn with_slots(slots: usize) -> Self {
        EbrCollector {
            global: CachePadded::new(AtomicUsize::new(0)),
            slots: (0..slots)
                .map(|_| {
                    CachePadded::new(Slot {
                        word: AtomicUsize::new(IDLE),
                        depth: AtomicUsize::new(0),
                        pins: AtomicU64::new(0),
                    })
                })
                .collect(),
            bags: [const { Mutex::new(Vec::new()) }; BAGS],
            overflow_pins: CachePadded::new(AtomicUsize::new(0)),
            overflow_pin_total: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            advances: AtomicU64::new(0),
            since_collect: AtomicU64::new(0),
        }
    }

    /// Pins the current thread as a participant, returning a guard that
    /// un-pins on drop.
    ///
    /// While any guard is alive, no object retired after the guard was
    /// created will be freed — that is the protection traversals rely on.
    /// Guards should therefore be short-lived: a guard held across a long
    /// pause blocks epoch advancement and lets the retired backlog grow.
    ///
    /// # Cost
    ///
    /// The thread's own slot, found by its thread number: for the
    /// outermost guard, one publication store and one validating load of
    /// the global epoch; for a nested guard, a load of the epoch the slot
    /// already advertises.  No compare-exchange, no scan, no shared
    /// counter.
    ///
    /// # Slot exhaustion
    ///
    /// A thread without a slot — more threads alive at once than the slot
    /// count, or a pin during thread-local teardown — does **not** block
    /// or panic: it gets an *overflow-mode* guard.  Overflow guards
    /// provide the full safety guarantee by suspending reclamation for as
    /// long as any of them is alive — `try_collect` refuses to drain any
    /// bag while an overflow pin is visible (checked again after its epoch
    /// CAS, so racing collectors may advance the counter but never free),
    /// and overflow retirements file under the live epoch so the grace
    /// arithmetic holds even across such advances.  No object can be
    /// freed, so every pointer an overflow guard protects stays valid.
    /// The cost is that reclamation stalls (the retired backlog grows)
    /// until the overflow guards drop; this degraded mode trades memory
    /// for guaranteed progress.
    pub fn pin(&self) -> EbrGuard<'_> {
        let Some(slot) = thread_index().filter(|&index| index < self.slots.len()) else {
            return self.pin_overflow();
        };
        let owned = &self.slots[slot];
        // Only this thread writes its slot's depth and pin count, so a load
        // and a store do what a `fetch_add` would.
        owned
            .pins
            .store(owned.pins.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let depth = owned.depth.load(Ordering::Relaxed);
        owned.depth.store(depth + 1, Ordering::Relaxed);
        let epoch = if depth == 0 {
            self.advertise(&owned.word)
        } else {
            // Nested: the slot stays pinned at the outer guard's epoch
            // until the last guard drops, which covers this guard too.
            owned.word.load(Ordering::Relaxed) >> 1
        };
        EbrGuard {
            collector: self,
            slot,
            epoch,
            _not_send: PhantomData,
        }
    }

    /// Publishes `word` as pinned at the current global epoch and returns
    /// the epoch it settled on (the store-then-validate pin protocol).
    fn advertise(&self, word: &AtomicUsize) -> usize {
        // The initial epoch read is only a guess, so Relaxed suffices: the
        // loop below re-publishes until a post-publication load agrees.
        let mut advertised = self.global.load(Ordering::Relaxed);
        loop {
            // The publication store must be SeqCst, not Release: it has to
            // precede the validating load below in the single total order
            // that `try_collect`'s SeqCst scan also participates in —
            // otherwise a collector could read the slot as idle *after*
            // this thread read the (old) epoch, advance twice, and free an
            // object the guard is about to reach.
            word.store(pinned_word(advertised), Ordering::SeqCst);
            let now = self.global.load(Ordering::SeqCst);
            if now == advertised {
                return advertised;
            }
            advertised = now;
        }
    }

    /// Pins a thread that has no slot: an overflow-mode guard.
    fn pin_overflow(&self) -> EbrGuard<'_> {
        // The guard advertises no epoch; safety instead comes from
        // `try_collect` re-checking `overflow_pins` *after* its epoch CAS
        // and refusing to drain while any overflow pin is visible — so
        // in-flight collectors may keep advancing the counter, but nothing
        // is freed while this guard lives.  Because the counter can run
        // ahead, overflow retirements file under the *current* epoch at
        // retire time (see [`EbrGuard::retire_box`]), not the value
        // recorded here.
        self.overflow_pins.fetch_add(1, Ordering::SeqCst);
        self.overflow_pin_total.fetch_add(1, Ordering::Relaxed);
        let epoch = self.global.load(Ordering::SeqCst);
        EbrGuard {
            collector: self,
            slot: OVERFLOW_SLOT,
            epoch,
            _not_send: PhantomData,
        }
    }

    /// Files a deferred drop under `epoch` and occasionally collects.
    fn retire(&self, epoch: usize, deferred: Deferred) {
        self.bags[epoch % BAGS].lock().unwrap().push(deferred);
        self.retired.fetch_add(1, Ordering::Relaxed);
        if self.since_collect.fetch_add(1, Ordering::Relaxed) + 1 >= RETIRES_PER_COLLECT {
            self.since_collect.store(0, Ordering::Relaxed);
            self.try_collect();
        }
    }

    /// Attempts to advance the global epoch and drain the bag that has
    /// aged out of its grace period.  Returns the number of objects freed
    /// (0 when some participant still pins an older epoch, or when the
    /// drained bag was empty).
    ///
    /// Collection runs automatically every `RETIRES_PER_COLLECT`
    /// retirements; indices expose this entry point so that maintenance
    /// code (a memtable flush, a test harness) can drain the backlog at a
    /// quiescent point — with no guard alive, four calls empty every bag.
    pub fn try_collect(&self) -> usize {
        if self.overflow_pins.load(Ordering::SeqCst) > 0 {
            // Overflow-mode guards advertise no epoch, so no reclamation
            // can run while any is alive; bail before doing any work.
            return 0;
        }
        let epoch = self.global.load(Ordering::SeqCst);
        for slot in self.slots.iter() {
            let value = slot.word.load(Ordering::SeqCst);
            // `IDLE` advertises no epoch and never blocks advancement.
            if value & 1 == 1 && (value >> 1) != epoch {
                return 0; // A participant has not yet observed `epoch`.
            }
        }
        if self
            .global
            .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return 0; // Another thread advanced concurrently.
        }
        self.advances.fetch_add(1, Ordering::Relaxed);
        // Re-check AFTER the advance: any number of threads may have
        // passed the cheap pre-check above before an overflow pin became
        // visible, and each may still perform one epoch CAS — so the
        // counter can move while overflow guards are alive.  Advancing is
        // harmless; *draining* is not.  If this load sees zero, then (in
        // the SeqCst total order) every overflow pin either already ended
        // or was published after this point — and a guard pinned after
        // this point observes an epoch at least three ahead of anything
        // in the bag drained below, so it cannot have captured a pointer
        // to any object in it (the objects were unlinked before their
        // retirement epochs, which the global counter has long passed).
        // If it sees an overflow pin, the aged bag is simply left for a
        // later cycle (bag indices repeat every `BAGS` epochs, and bags
        // only ever drain here, so nothing is lost).
        if self.overflow_pins.load(Ordering::SeqCst) > 0 {
            return 0;
        }
        // The new epoch is `epoch + 1`; the bag for `epoch + 2 (mod BAGS)`
        // holds garbage filed under epoch `epoch - 2`, which has now aged
        // three full epochs.
        let drained = {
            let mut bag = self.bags[(epoch + 2) % BAGS].lock().unwrap();
            std::mem::take(&mut *bag)
        };
        let freed = drained.len();
        for deferred in drained {
            // SAFETY: the epoch algebra above guarantees no pinned
            // participant can still reach the object; `retire_box`'s
            // contract guarantees it was retired exactly once.
            unsafe { (deferred.drop_fn)(deferred.ptr) };
        }
        if freed > 0 {
            self.freed.fetch_add(freed as u64, Ordering::Relaxed);
        }
        freed
    }

    /// Snapshot of the collector's counters.
    pub fn stats(&self) -> EbrStats {
        let retired = self.retired.load(Ordering::Relaxed);
        let freed = self.freed.load(Ordering::Relaxed);
        let slotted_pins = self
            .slots
            .iter()
            .map(|slot| slot.pins.load(Ordering::Relaxed))
            .sum::<u64>();
        let overflow_pins = self.overflow_pin_total.load(Ordering::Relaxed);
        EbrStats {
            retired,
            freed,
            backlog: retired.saturating_sub(freed),
            epoch: self.global.load(Ordering::Relaxed) as u64,
            advances: self.advances.load(Ordering::Relaxed),
            pins: slotted_pins + overflow_pins,
            overflow_pins,
        }
    }

    /// Number of objects retired but not yet freed.
    pub fn backlog(&self) -> u64 {
        self.stats().backlog
    }

    /// Runs every pending deferred drop immediately.
    ///
    /// `&mut self` guarantees no guard is alive (guards borrow the
    /// collector), so every bag can be drained regardless of epochs.
    pub fn drain_all(&mut self) {
        let mut freed = 0u64;
        for bag in &self.bags {
            let drained = std::mem::take(&mut *bag.lock().unwrap());
            freed += drained.len() as u64;
            for deferred in drained {
                // SAFETY: exclusive access proves no participant exists.
                unsafe { (deferred.drop_fn)(deferred.ptr) };
            }
        }
        self.freed.fetch_add(freed, Ordering::Relaxed);
    }
}

impl Drop for EbrCollector {
    fn drop(&mut self) {
        self.drain_all();
    }
}

impl std::fmt::Debug for EbrCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EbrCollector")
            .field("epoch", &stats.epoch)
            .field("retired", &stats.retired)
            .field("freed", &stats.freed)
            .field("backlog", &stats.backlog)
            .finish()
    }
}

/// An active participant handle; while alive, objects retired after its
/// creation are not freed.  Created by [`EbrCollector::pin`], un-pins on
/// drop.
///
/// A guard stays on the thread that pinned it, because its drop updates
/// that thread's slot:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<bskip_sync::EbrGuard<'static>>();
/// ```
pub struct EbrGuard<'a> {
    collector: &'a EbrCollector,
    slot: usize,
    epoch: usize,
    /// Makes the guard `!Send`.
    _not_send: PhantomData<*const ()>,
}

impl EbrGuard<'_> {
    /// The epoch this guard is pinned at.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Retires a heap object for deferred destruction: once no pinned
    /// guard can still reach it, the collector runs `drop(Box::from_raw)`
    /// on it.
    ///
    /// # Safety
    ///
    /// * `ptr` must have come from `Box::into_raw` for the same `T`.
    /// * The object must already be **unreachable for new traversals**
    ///   (physically unlinked); only threads pinned at or before this
    ///   guard's epoch may still hold pointers to it.
    /// * Each object must be retired at most once, and never freed by any
    ///   other path afterwards.
    /// * `T` must be safe to drop on another thread (`T: Send`-like); the
    ///   deferred drop runs on whichever thread drains the bag.
    pub unsafe fn retire_box<T>(&self, ptr: *mut T) {
        /// # Safety
        ///
        /// `ptr` is the `Box<T>` a `retire_box::<T>` call was given, and
        /// this is its one drop.
        unsafe fn drop_box<T>(ptr: *mut ()) {
            // SAFETY: per this function's contract, which `retire_box`'s
            // caller upholds and the collector honours by running each
            // `Deferred` once, after every guard that could reach it.
            drop(unsafe { Box::from_raw(ptr as *mut T) });
        }
        // Slotted guards file under their advertised epoch, which the
        // global counter cannot be more than one ahead of.  An overflow
        // guard advertises nothing and the counter may have run ahead of
        // its recorded epoch, so it must file under the *live* epoch:
        // anyone who could still reach the object was pinned before this
        // retirement, hence at or below this value, and the drain of its
        // bag requires the counter to move three epochs further still.
        let epoch = if self.slot == OVERFLOW_SLOT {
            self.collector.global.load(Ordering::SeqCst)
        } else {
            self.epoch
        };
        self.collector.retire(
            epoch,
            Deferred {
                ptr: ptr as *mut (),
                drop_fn: drop_box::<T>,
            },
        );
    }
}

impl Drop for EbrGuard<'_> {
    fn drop(&mut self) {
        if self.slot == OVERFLOW_SLOT {
            // SeqCst: pairs with `try_collect`'s post-CAS re-check — the
            // decrement must take its place in the same total order that
            // decides whether a drain saw this overflow pin.
            self.collector.overflow_pins.fetch_sub(1, Ordering::SeqCst);
        } else {
            let owned = &self.collector.slots[self.slot];
            let depth = owned.depth.load(Ordering::Relaxed) - 1;
            owned.depth.store(depth, Ordering::Relaxed);
            if depth == 0 {
                // The thread's last guard.  Release suffices for
                // un-pinning: the next epoch advance reads the word with
                // SeqCst and only needs to observe that every access the
                // guards protected happened-before the slot stopped
                // advertising its epoch.
                owned.word.store(IDLE, Ordering::Release);
            }
        }
    }
}

impl std::fmt::Debug for EbrGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EbrGuard")
            .field("slot", &self.slot)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    /// A payload that counts its drops.
    struct Counted(Arc<StdAtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn retire_counted(guard: &EbrGuard<'_>, drops: &Arc<StdAtomicUsize>) {
        let ptr = Box::into_raw(Box::new(Counted(Arc::clone(drops))));
        // SAFETY: `ptr` is a fresh `Box` that nothing else can reach,
        // retired exactly once; `Counted` may drop on any thread.
        unsafe { guard.retire_box(ptr) };
    }

    #[test]
    fn retired_objects_survive_until_epochs_advance() {
        let collector = EbrCollector::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let guard = collector.pin();
        retire_counted(&guard, &drops);
        // Pinned guard: no amount of collecting may free the object.
        for _ in 0..10 {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(guard);
        for _ in 0..BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        let stats = collector.stats();
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.freed, 1);
        assert_eq!(stats.backlog, 0);
        assert!(stats.advances >= BAGS as u64);
    }

    #[test]
    fn pinned_guard_blocks_advancement() {
        let collector = EbrCollector::new();
        let before = collector.stats().epoch;
        let _guard = collector.pin();
        // The first collect can advance (the guard observed the current
        // epoch), but the second cannot: the guard now lags.
        collector.try_collect();
        assert_eq!(collector.try_collect(), 0);
        assert!(collector.stats().epoch <= before + 1);
    }

    #[test]
    fn dropping_the_collector_frees_the_backlog() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        {
            let collector = EbrCollector::new();
            let guard = collector.pin();
            for _ in 0..17 {
                retire_counted(&guard, &drops);
            }
            drop(guard);
            // No collects: everything is still in the bags.
        }
        assert_eq!(drops.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn nested_guards_share_the_slot_until_the_inner_one_drops() {
        let collector = EbrCollector::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let outer = collector.pin();
        let inner = collector.pin();
        assert_eq!(
            inner.epoch(),
            outer.epoch(),
            "a nested pin shares the epoch"
        );
        retire_counted(&inner, &drops);
        drop(inner);
        // The outer guard still pins its epoch: nothing may be freed.
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(outer);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        let stats = collector.stats();
        assert_eq!(stats.pins, 2);
        assert_eq!(stats.overflow_pins, 0, "a nested pin needs no second slot");
    }

    #[test]
    fn nested_guards_dropped_outer_first_keep_the_slot_pinned() {
        let collector = EbrCollector::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let outer = collector.pin();
        let inner = collector.pin();
        retire_counted(&inner, &drops);
        // Dropping the outer guard first must not un-pin the slot the
        // inner guard still relies on.
        drop(outer);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(inner);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(collector.stats().backlog, 0);
    }

    #[test]
    fn a_collector_without_slots_pins_in_overflow_mode_safely() {
        let collector = EbrCollector::with_slots(0);
        let drops = Arc::new(StdAtomicUsize::new(0));
        let outer = collector.pin();
        let inner = collector.pin();
        assert_eq!(collector.stats().overflow_pins, 2);
        retire_counted(&inner, &drops);
        for _ in 0..4 {
            assert_eq!(collector.try_collect(), 0, "overflow freezes reclamation");
        }
        drop(inner);
        for _ in 0..4 {
            assert_eq!(collector.try_collect(), 0, "one overflow guard is enough");
        }
        drop(outer);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(collector.stats().backlog, 0);
    }

    // Long-running stress case; Miri runs the short protocol tests only.
    #[cfg(not(miri))]
    #[test]
    fn amortized_collection_bounds_the_backlog() {
        let collector = EbrCollector::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        for _ in 0..10_000 {
            let guard = collector.pin();
            retire_counted(&guard, &drops);
        }
        let stats = collector.stats();
        assert_eq!(stats.retired, 10_000);
        // Guards were all short-lived, so the periodic collections kept
        // the backlog to a few collection periods, not 10 000.
        assert!(
            stats.backlog <= 8 * RETIRES_PER_COLLECT,
            "backlog {} did not stay bounded",
            stats.backlog
        );
        assert_eq!(stats.overflow_pins, 0);
    }

    // Long-running stress case; Miri runs the short protocol tests only.
    #[cfg(not(miri))]
    #[test]
    fn concurrent_pin_retire_is_safe_and_bounded() {
        let collector = Arc::new(EbrCollector::new());
        let drops = Arc::new(StdAtomicUsize::new(0));
        let threads = 8;
        let per_thread = 4_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let collector = Arc::clone(&collector);
                let drops = Arc::clone(&drops);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        let guard = collector.pin();
                        retire_counted(&guard, &drops);
                    }
                });
            }
        });
        let stats = collector.stats();
        assert_eq!(stats.retired, threads * per_thread);
        assert_eq!(
            stats.freed,
            drops.load(Ordering::Relaxed) as u64,
            "freed counter must match actual drops"
        );
        assert_eq!(stats.pins, threads * per_thread);
        assert_eq!(stats.overflow_pins, 0);
        // Quiescent: a handful of collections drain everything.
        for _ in 0..BAGS {
            collector.try_collect();
        }
        assert_eq!(collector.stats().backlog, 0);
        assert_eq!(drops.load(Ordering::Relaxed) as u64, threads * per_thread);
    }

    // Spawns hundreds of OS threads; too slow under Miri.
    #[cfg(not(miri))]
    #[test]
    fn sequential_thread_churn_never_exhausts_the_slots() {
        let collector = Arc::new(EbrCollector::new());
        let total = SLOTS + SLOTS / 2;
        for _ in 0..total {
            let collector = Arc::clone(&collector);
            std::thread::spawn(move || drop(collector.pin()))
                .join()
                .unwrap();
        }
        let stats = collector.stats();
        assert_eq!(stats.pins, total as u64);
        assert_eq!(
            stats.overflow_pins, 0,
            "exited threads' numbers must be reused across more than SLOTS thread lifetimes"
        );
    }

    #[test]
    fn many_nested_guards_share_one_slot() {
        let collector = EbrCollector::new();
        let guards: Vec<_> = (0..SLOTS + 40).map(|_| collector.pin()).collect();
        assert!(guards.iter().all(|g| g.epoch() == guards[0].epoch()));
        drop(guards);
        collector.try_collect();
        assert!(collector.stats().epoch >= 1);
        assert_eq!(collector.stats().pins, (SLOTS + 40) as u64);
        assert_eq!(collector.stats().overflow_pins, 0);
    }

    // Spawns threads that wait at barriers; kept off Miri with the other
    // thread-heavy cases.
    #[cfg(not(miri))]
    #[test]
    fn threads_beyond_the_slot_count_overflow_safely() {
        let collector = EbrCollector::with_slots(2);
        let drops = Arc::new(StdAtomicUsize::new(0));
        let threads = 6;
        let pinned = std::sync::Barrier::new(threads + 1);
        let checked = std::sync::Barrier::new(threads + 1);
        // Measured while every guard is alive, asserted after the threads
        // are released (a failed assertion inside would leave them waiting).
        let (overflow_pins, freed) = std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let guard = collector.pin();
                    retire_counted(&guard, &drops);
                    pinned.wait();
                    checked.wait();
                });
            }
            pinned.wait();
            let overflow_pins = collector.stats().overflow_pins;
            for _ in 0..2 * BAGS {
                collector.try_collect();
            }
            let freed = drops.load(Ordering::Relaxed);
            checked.wait();
            (overflow_pins, freed)
        });
        // At most two of the six live threads hold a number below the slot
        // count; the rest pinned in overflow mode, and their protection
        // held: nothing was freed.
        assert!(overflow_pins >= 4, "{overflow_pins} overflow pins");
        assert_eq!(freed, 0, "overflow freezes reclamation");
        // Every guard has dropped: the next quiescent point drains it all.
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), threads);
        assert_eq!(collector.stats().backlog, 0);
        assert_eq!(collector.stats().pins, threads as u64);
        // The collector is fully usable after the episode.
        let guard = collector.pin();
        retire_counted(&guard, &drops);
        drop(guard);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(collector.stats().backlog, 0);
    }
}
