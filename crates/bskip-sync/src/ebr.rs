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
//! # Thread-local participant handles
//!
//! Pinning is the one EBR cost *every* operation pays, so it is engineered
//! for the steady state: the first time a thread pins a given collector it
//! claims a slot with a CAS scan (the **cold registration path**) and
//! caches the slot in a thread-local registration table; every later pin
//! by that thread reuses the cached slot — one uncontended publication
//! store plus one validating load of the global epoch, no CAS, no scan.
//! The slot word distinguishes three states:
//!
//! * `VACANT` (0) — claimable by any thread's cold scan;
//! * `IDLE` (2) — *owned* by a registered thread but not currently pinned;
//!   invisible to `try_collect` (it does not block advancement) and not
//!   claimable by other threads;
//! * odd values — pinned, advertising epoch `value >> 1`.
//!
//! A registered slot returns to `IDLE` (not `VACANT`) on guard drop, and
//! to `VACANT` when the owning thread exits (the thread-local table's
//! destructor releases every registration) or when the collector itself is
//! dropped first (registrations hold only a [`Weak`] reference to the slot
//! array, so a late-exiting thread never touches freed memory).  Nested
//! pins of the same collector on one thread — rare, but real: a batched
//! `execute` falls back to a point operation mid-batch — find the cached
//! slot busy and take the cold path with an *uncached* slot that drops
//! back to `VACANT`.  [`EbrStats::slot_cache_hits`] /
//! [`EbrStats::slot_registrations`] expose the split; under any
//! steady-state workload the hits dominate.
//!
//! When every participant slot is taken, `pin` degrades instead of
//! blocking: it hands out an **overflow-mode** guard that suspends all
//! reclamation (no bag is drained while any overflow guard is alive,
//! though the epoch counter itself may still move) until the guard
//! population drops back under the slot count; see [`EbrCollector::pin`].
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

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, Weak};

use crate::{Backoff, CachePadded};

/// Default number of participant slots: the number of simultaneously
/// pinned guards the collector tracks individually.  The workspace never
/// holds more than a few guards per thread, so this accommodates far more
/// threads than any benchmark configuration; guards beyond it fall back to
/// the degraded overflow mode (see [`EbrCollector::pin`]).
const SLOTS: usize = 256;

/// Sentinel slot index marking an overflow-mode guard (one that holds the
/// shared overflow pin instead of a participant slot).
const OVERFLOW_SLOT: usize = usize::MAX;

/// Slot word: claimable by any thread's cold registration scan.
const VACANT: usize = 0;

/// Slot word: owned by a registered thread, not currently pinned.  Even
/// (so `try_collect` ignores it) and nonzero (so no CAS can claim it).
const IDLE: usize = 2;

/// Scan passes over the slot array before `pin` gives up and takes the
/// overflow path.
const PIN_ATTEMPTS: usize = 2;

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
    /// including overflow-mode pins).  Lets callers verify that a batched
    /// operation really pinned once rather than once per element.
    pub pins: u64,
    /// Pins served by a thread's cached participant slot — one
    /// publication store, no CAS slot scan.  Under steady state this
    /// dominates [`EbrStats::slot_registrations`].
    pub slot_cache_hits: u64,
    /// Cold-path slot claims that registered the slot as a thread's
    /// cached participant handle (at most one per live thread per
    /// collector; re-registration only happens after a thread exit
    /// returns the slot).
    pub slot_registrations: u64,
    /// Overflow-mode pins taken because every slot was occupied.
    pub overflow_pins: u64,
}

/// The participant-slot array, shared between the collector and the
/// thread-local registrations pointing into it.
///
/// Split out of [`EbrCollector`] behind an [`Arc`] so that a thread
/// exiting *after* the collector was dropped can still resolve its cached
/// registration: the registration holds a [`Weak`] reference, and when the
/// upgrade fails there is no slot left to release.
struct SlotArray {
    /// `VACANT`, `IDLE` or `pinned_word(epoch)`; see the module docs.
    slots: Box<[CachePadded<AtomicUsize>]>,
}

/// One thread's cached claim on a participant slot of one collector.
struct Registration {
    /// Identity of the collector the slot belongs to (collector ids are
    /// unique for the lifetime of the process, so a dead collector's id is
    /// never reused even if its allocation address is).
    collector_id: u64,
    slots: Weak<SlotArray>,
    slot: usize,
}

impl Drop for Registration {
    fn drop(&mut self) {
        // Thread exit (or table pruning): return the slot to the claimable
        // pool.  Release publishes everything this thread's guards did
        // before another thread can claim and re-publish the slot.  When
        // the collector died first the upgrade fails and there is nothing
        // to release.
        if let Some(array) = self.slots.upgrade() {
            array.slots[self.slot].store(VACANT, Ordering::Release);
        }
    }
}

thread_local! {
    /// This thread's registrations, one per collector it has pinned.  The
    /// table is a plain vector: a thread touches a handful of collectors
    /// (one per index instance it operates on), and the lookup is a short
    /// scan of ids.  Dead entries (collector dropped) are pruned on the
    /// cold path.
    static REGISTRATIONS: RefCell<Vec<Registration>> = const { RefCell::new(Vec::new()) };
}

/// Outcome of the thread-local registration lookup in `pin`.
enum CacheLookup {
    /// The thread owns an idle slot for this collector: fast path.
    Hit(usize),
    /// The thread owns a slot but an outer guard is pinning it (nested
    /// pin): cold path, and do not re-register.
    Busy,
    /// No registration for this collector yet: cold path, register.
    Unregistered,
}

/// Process-unique collector ids; see [`Registration::collector_id`].
static COLLECTOR_IDS: AtomicU64 = AtomicU64::new(1);

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
    /// Process-unique identity, matched against cached registrations.
    id: u64,
    /// Participant slots (shared with thread-local registrations).
    slot_array: Arc<SlotArray>,
    /// Per-slot pin counters (same indexing as the slot array); split from
    /// the slot words and padded so counting a pin never contends with
    /// another thread's slot access.
    slot_pins: Box<[CachePadded<AtomicU64>]>,
    /// Deferred-drop bags, indexed by `epoch % BAGS`.
    bags: [Mutex<Vec<Deferred>>; BAGS],
    /// Guards currently alive in overflow mode (pinned while every slot
    /// was taken).  While this is non-zero the global epoch is frozen:
    /// overflow guards advertise no epoch of their own, so the only safe
    /// course is to refuse advancement (and therefore all reclamation)
    /// until they drop — degraded, but never unsound.
    overflow_pins: CachePadded<AtomicUsize>,
    /// Total overflow-mode pins since construction.
    overflow_pin_total: AtomicU64,
    /// Cold-path slot claims (CAS scans that found a vacant slot); the
    /// complement of the cache hits, which are derived in [`Self::stats`]
    /// so the fast path never touches a shared counter.
    cold_pins: AtomicU64,
    /// Cold-path claims that became cached registrations.
    slot_registrations: AtomicU64,
    retired: AtomicU64,
    freed: AtomicU64,
    advances: AtomicU64,
    /// Retirements since the last collection attempt.
    since_collect: AtomicU64,
}

// SAFETY: all shared state is atomics or mutex-protected; `Deferred` is
// `Send` (see above).
unsafe impl Send for EbrCollector {}
// SAFETY: every method takes `&self` and reaches shared state only through
// atomics (epoch, slots, counters) or the bags' mutexes, so calls from many
// threads at once never race on plain memory.
unsafe impl Sync for EbrCollector {}

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

    /// Creates a collector with an explicit participant-slot count.
    ///
    /// `new` uses a count that accommodates far more threads than any
    /// realistic configuration; tests use small counts to exercise the
    /// registration-release and overflow paths deterministically.
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots > 0, "a collector needs at least one slot");
        EbrCollector {
            global: CachePadded::new(AtomicUsize::new(0)),
            id: COLLECTOR_IDS.fetch_add(1, Ordering::Relaxed),
            slot_array: Arc::new(SlotArray {
                slots: (0..slots)
                    .map(|_| CachePadded::new(AtomicUsize::new(VACANT)))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            }),
            slot_pins: (0..slots)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            bags: [const { Mutex::new(Vec::new()) }; BAGS],
            overflow_pins: CachePadded::new(AtomicUsize::new(0)),
            overflow_pin_total: AtomicU64::new(0),
            cold_pins: AtomicU64::new(0),
            slot_registrations: AtomicU64::new(0),
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
    /// The steady-state path — this thread has pinned this collector
    /// before, and no other guard of this thread currently pins it — is a
    /// thread-local table lookup plus one publication store and one
    /// validating load of the global epoch.  No compare-exchange, no scan.
    /// The first pin per (thread, collector) pair claims a slot with a CAS
    /// scan and registers it; the slot is returned when the thread exits.
    ///
    /// # Slot exhaustion
    ///
    /// When every participant slot is taken (more than the slot count of
    /// simultaneously live guards), `pin` does **not** block or panic: it
    /// returns an *overflow-mode* guard after a couple of scan passes.
    /// Overflow guards provide the full safety guarantee by suspending
    /// reclamation for as long as any of them is alive — `try_collect`
    /// refuses to drain any bag while an overflow pin is visible (checked
    /// again after its epoch CAS, so racing collectors may advance the
    /// counter but never free), and overflow retirements file under the
    /// live epoch so the grace arithmetic holds even across such
    /// advances.  No object can be freed, so every pointer an overflow
    /// guard protects stays valid.  The cost is that reclamation stalls
    /// (the retired backlog grows) until the guard population drops back
    /// under the slot count; this degraded mode trades memory for
    /// guaranteed progress.
    pub fn pin(&self) -> EbrGuard<'_> {
        match self.lookup_cached_slot() {
            CacheLookup::Hit(slot) => {
                // The only bookkeeping on the fast path is the per-slot
                // (padded, thread-owned) pin counter: cache hits are
                // *derived* in `stats()` as slotted pins minus cold
                // claims, so steady-state pinning touches no shared
                // counter line.
                self.slot_pins[slot].fetch_add(1, Ordering::Relaxed);
                let epoch = self.advertise(slot);
                EbrGuard {
                    collector: self,
                    slot,
                    epoch,
                    release_word: IDLE,
                }
            }
            CacheLookup::Busy => self.pin_cold(false),
            CacheLookup::Unregistered => self.pin_cold(true),
        }
    }

    /// Consults the thread-local registration table for this collector.
    fn lookup_cached_slot(&self) -> CacheLookup {
        REGISTRATIONS
            .try_with(|table| {
                let table = table.borrow();
                for registration in table.iter() {
                    if registration.collector_id == self.id {
                        // The slot word is written only by this thread
                        // while registered (other threads can claim only
                        // VACANT slots), so a relaxed read of our own
                        // store suffices to tell idle from pinned.
                        let word = self.slot_array.slots[registration.slot].load(Ordering::Relaxed);
                        return if word == IDLE {
                            CacheLookup::Hit(registration.slot)
                        } else {
                            CacheLookup::Busy
                        };
                    }
                }
                CacheLookup::Unregistered
            })
            // Thread-local storage is gone (pin during thread teardown):
            // behave as an unregistered cold pin, minus the registration.
            .unwrap_or(CacheLookup::Busy)
    }

    /// Publishes `slot` as pinned at the current global epoch and returns
    /// the epoch it settled on (the store-then-validate pin protocol).
    ///
    /// The caller must own `slot` (hold it `IDLE`, or have just claimed it
    /// via CAS with any advertised epoch).
    fn advertise(&self, slot: usize) -> usize {
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
            self.slot_array.slots[slot].store(pinned_word(advertised), Ordering::SeqCst);
            let now = self.global.load(Ordering::SeqCst);
            if now == advertised {
                return advertised;
            }
            advertised = now;
        }
    }

    /// The cold pin path: CAS-scan for a vacant slot (registering it as
    /// this thread's cached handle when `register` holds), falling back to
    /// an overflow-mode guard when every slot stays taken.
    fn pin_cold(&self, register: bool) -> EbrGuard<'_> {
        let slot_count = self.slot_array.slots.len();
        let start = slot_hint(slot_count);
        let mut backoff = Backoff::new();
        for attempt in 0..PIN_ATTEMPTS {
            let epoch = self.global.load(Ordering::Relaxed);
            for offset in 0..slot_count {
                let slot = (start + offset) % slot_count;
                if self.slot_array.slots[slot]
                    .compare_exchange(
                        VACANT,
                        pinned_word(epoch),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    self.slot_pins[slot].fetch_add(1, Ordering::Relaxed);
                    self.cold_pins.fetch_add(1, Ordering::Relaxed);
                    let release_word = if register && self.register(slot) {
                        self.slot_registrations.fetch_add(1, Ordering::Relaxed);
                        IDLE
                    } else {
                        VACANT
                    };
                    let epoch = self.advertise(slot);
                    return EbrGuard {
                        collector: self,
                        slot,
                        epoch,
                        release_word,
                    };
                }
            }
            // All slots taken; retry once after a pause in case another
            // guard is just ending, then fall back to overflow mode.
            if attempt + 1 < PIN_ATTEMPTS {
                backoff.snooze();
            }
        }
        // Overflow mode.  The guard advertises no epoch; safety instead
        // comes from `try_collect` re-checking `overflow_pins` *after*
        // its epoch CAS and refusing to drain while any overflow pin is
        // visible — so in-flight collectors may keep advancing the
        // counter, but nothing is freed while this guard lives.  Because
        // the counter can run ahead, overflow retirements file under the
        // *current* epoch at retire time (see [`EbrGuard::retire_box`]),
        // not the value recorded here.
        self.overflow_pins.fetch_add(1, Ordering::SeqCst);
        self.overflow_pin_total.fetch_add(1, Ordering::Relaxed);
        let epoch = self.global.load(Ordering::SeqCst);
        EbrGuard {
            collector: self,
            slot: OVERFLOW_SLOT,
            epoch,
            release_word: VACANT,
        }
    }

    /// Records `slot` in the thread-local registration table.  Returns
    /// whether the registration was stored (it is not during thread
    /// teardown, when the table is already gone).
    fn register(&self, slot: usize) -> bool {
        REGISTRATIONS
            .try_with(|table| {
                let mut table = table.borrow_mut();
                // The cold path only registers when the lookup found no
                // entry, so no duplicate check is needed — but collectors
                // come and go (one per index instance), so prune entries
                // whose collector died to keep the table a handful long.
                table.retain(|registration| registration.slots.strong_count() > 0);
                table.push(Registration {
                    collector_id: self.id,
                    slots: Arc::downgrade(&self.slot_array),
                    slot,
                });
                true
            })
            .unwrap_or(false)
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
        for slot in self.slot_array.slots.iter() {
            let value = slot.load(Ordering::SeqCst);
            // Even words (VACANT and registered-but-IDLE) advertise no
            // epoch and never block advancement.
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
            .slot_pins
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .sum::<u64>();
        let overflow_pins = self.overflow_pin_total.load(Ordering::Relaxed);
        let cold_pins = self.cold_pins.load(Ordering::Relaxed);
        EbrStats {
            retired,
            freed,
            backlog: retired.saturating_sub(freed),
            epoch: self.global.load(Ordering::Relaxed) as u64,
            advances: self.advances.load(Ordering::Relaxed),
            pins: slotted_pins + overflow_pins,
            // Every slotted pin is either a cold CAS claim or a cached-slot
            // reuse; deriving the hits here keeps the fast path free of any
            // shared counter.  (Saturating: the relaxed counters may be
            // read mid-pin in either order.)
            slot_cache_hits: slotted_pins.saturating_sub(cold_pins),
            slot_registrations: self.slot_registrations.load(Ordering::Relaxed),
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
    /// Registered-idle slots of live threads are no obstacle — they
    /// advertise no epoch.
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

/// Spreads cold-path `pin` scans across the slot array so threads do not
/// all contend on slot 0.  Derived from the address of a thread-local, so
/// it is stable per thread and needs no registration.
fn slot_hint(slot_count: usize) -> usize {
    thread_local! {
        static HINT: u8 = const { 0 };
    }
    HINT.try_with(|hint| {
        let address = hint as *const u8 as usize;
        // Fibonacci hash of the TLS address.
        address.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - 8)
    })
    .unwrap_or(0)
        % slot_count
}

/// An active participant handle; while alive, objects retired after its
/// creation are not freed.  Created by [`EbrCollector::pin`], un-pins on
/// drop.
pub struct EbrGuard<'a> {
    collector: &'a EbrCollector,
    slot: usize,
    epoch: usize,
    /// What the slot word returns to on drop: `IDLE` for the thread's
    /// cached (registered) slot, `VACANT` for an uncached cold-path slot.
    release_word: usize,
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

    /// Re-pins the guard at the current epoch, letting the global epoch
    /// advance past the guard's original pin.  Long-lived holders
    /// (cursors) call this at points where they hold **no** pointers into
    /// the protected structure — any pointer obtained before `repin` must
    /// be considered dangling afterwards.
    pub fn repin(&mut self) {
        if self.slot == OVERFLOW_SLOT {
            // Overflow guards advertise no epoch, so there is nothing to
            // republish; just refresh the recorded (informational) value.
            self.epoch = self.collector.global.load(Ordering::SeqCst);
            return;
        }
        // Republish directly at the current epoch.  The slot word must
        // never pass through VACANT here: a transient vacancy would let a
        // concurrent cold-path pin CAS-claim the slot, leaving two guards
        // sharing it — and the first one to drop would un-pin the other.
        self.epoch = self.collector.advertise(self.slot);
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
            // Release suffices for un-pinning (cached slots return to
            // IDLE, uncached ones to VACANT): the next epoch advance
            // reads the word with SeqCst and only needs to observe that
            // every access this guard protected happened-before the slot
            // stopped advertising its epoch.
            self.collector.slot_array.slots[self.slot].store(self.release_word, Ordering::Release);
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
    fn repin_unblocks_advancement() {
        let collector = EbrCollector::new();
        let mut guard = collector.pin();
        for _ in 0..3 {
            collector.try_collect();
            guard.repin();
        }
        assert!(collector.stats().epoch >= 3);
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
    fn same_thread_pins_reuse_the_registered_slot() {
        let collector = EbrCollector::new();
        for _ in 0..5 {
            drop(collector.pin());
        }
        let stats = collector.stats();
        assert_eq!(stats.pins, 5);
        assert_eq!(
            stats.slot_registrations, 1,
            "one cold registration per (thread, collector)"
        );
        assert_eq!(
            stats.slot_cache_hits, 4,
            "every pin after the first must hit the cached slot"
        );
        assert_eq!(stats.overflow_pins, 0);
    }

    #[test]
    fn nested_pins_take_an_uncached_slot_and_protect_independently() {
        let collector = EbrCollector::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let outer = collector.pin();
        let inner = collector.pin(); // cached slot busy: cold, uncached
        retire_counted(&inner, &drops);
        drop(inner);
        // The outer guard still pins its epoch: nothing may be freed.
        for _ in 0..8 {
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
        assert_eq!(stats.slot_registrations, 1);
        assert_eq!(stats.slot_cache_hits, 0, "both pins found the slot cold");
        // The registered slot is idle again: the next pin is a cache hit.
        drop(collector.pin());
        assert_eq!(collector.stats().slot_cache_hits, 1);
    }

    #[test]
    fn thread_exit_returns_the_slot() {
        // One single slot: if a thread's registration were not released on
        // exit, every later thread would be forced into overflow mode.
        let collector = Arc::new(EbrCollector::with_slots(1));
        for round in 0..3 {
            let worker = Arc::clone(&collector);
            std::thread::spawn(move || {
                drop(worker.pin());
                drop(worker.pin());
            })
            .join()
            .unwrap();
            let stats = collector.stats();
            assert_eq!(
                stats.overflow_pins, 0,
                "round {round}: exited threads must return their slot"
            );
        }
        let stats = collector.stats();
        assert_eq!(stats.pins, 6);
        assert_eq!(stats.slot_registrations, 3, "one registration per thread");
        assert_eq!(stats.slot_cache_hits, 3, "second pin of each thread hits");
    }

    #[test]
    fn occupied_singleton_slot_overflows_safely() {
        let collector = EbrCollector::with_slots(1);
        let drops = Arc::new(StdAtomicUsize::new(0));
        let outer = collector.pin(); // claims + registers the only slot
        let inner = collector.pin(); // no slot left: overflow mode
        assert_eq!(collector.stats().overflow_pins, 1);
        retire_counted(&inner, &drops);
        for _ in 0..4 {
            assert_eq!(collector.try_collect(), 0, "overflow freezes reclamation");
        }
        drop(inner);
        drop(outer);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(collector.stats().backlog, 0);
    }

    #[test]
    fn dead_collector_registrations_are_pruned_not_dereferenced() {
        // A thread that registered with a collector that has since been
        // dropped must neither crash at exit nor leak table entries: the
        // weak upgrade fails and the next cold pin prunes the entry.
        let first = Box::new(EbrCollector::new());
        drop(first.pin());
        drop(first); // slot array freed; our registration now dangles
        let second = EbrCollector::new();
        drop(second.pin()); // cold path prunes the dead entry, registers
        assert_eq!(second.stats().slot_registrations, 1);
        drop(second.pin());
        assert_eq!(second.stats().slot_cache_hits, 1);
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
        // Steady-state pinning must be pure cache hits.
        assert_eq!(stats.slot_registrations, 1);
        assert_eq!(stats.slot_cache_hits, 10_000 - 1);
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
        // Every thread registers once; everything else is cache hits.
        assert_eq!(stats.slot_registrations, threads);
        assert_eq!(stats.slot_cache_hits, threads * (per_thread - 1));
        assert_eq!(stats.overflow_pins, 0);
        // Quiescent: a handful of collections drain everything.
        for _ in 0..BAGS {
            collector.try_collect();
        }
        assert_eq!(collector.stats().backlog, 0);
        assert_eq!(drops.load(Ordering::Relaxed) as u64, threads * per_thread);
    }

    // Spawns hundreds of OS threads; too slow under Miri (the singleton
    // variant `thread_exit_returns_the_slot` keeps Miri coverage).
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
        assert_eq!(stats.slot_registrations, total as u64);
        assert_eq!(
            stats.overflow_pins, 0,
            "released slots must be re-claimable across more than SLOTS thread lifetimes"
        );
    }

    #[test]
    fn many_simultaneous_guards_fit_in_the_slot_array() {
        let collector = EbrCollector::new();
        let guards: Vec<_> = (0..64).map(|_| collector.pin()).collect();
        assert!(guards.iter().all(|g| g.epoch() == guards[0].epoch()));
        drop(guards);
        collector.try_collect();
        assert!(collector.stats().epoch >= 1);
        assert_eq!(collector.stats().pins, 64);
    }

    // Scans the full slot array hundreds of times; too slow under Miri.
    #[cfg(not(miri))]
    #[test]
    fn slot_exhaustion_falls_back_to_a_safe_overflow_mode() {
        let collector = EbrCollector::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        // Register far more simultaneous guards than there are slots; this
        // must neither panic nor spin forever.
        let total = SLOTS + 40;
        let mut guards: Vec<_> = (0..total).map(|_| collector.pin()).collect();
        assert_eq!(collector.stats().pins, total as u64);
        assert_eq!(collector.stats().overflow_pins, 40);
        // Overflow guards still support retirement, and their protection
        // holds: with the epoch frozen, nothing can be freed.
        retire_counted(guards.last().unwrap(), &drops);
        let epoch_before = collector.stats().epoch;
        for _ in 0..8 {
            assert_eq!(collector.try_collect(), 0, "epoch must be frozen");
        }
        assert_eq!(collector.stats().epoch, epoch_before);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        // Overflow repin is a safe no-op (the epoch cannot move anyway).
        guards.last_mut().unwrap().repin();
        // Dropping back under the slot count unfreezes the epoch and lets
        // the backlog drain at the next quiescent point.
        drop(guards);
        for _ in 0..2 * BAGS {
            collector.try_collect();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(collector.stats().backlog, 0);
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
