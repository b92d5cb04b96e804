//! In-memory span recorder for the traced pass.
//!
//! Spans are opened from the benchmark's own files only: around every
//! operation a worker issues, and around every call that crosses one of
//! the wrappers in `wrappers.rs` (`SpanIndex`, `CountingStorage`).  Each
//! thread keeps its own stack, so a span's parent is the enclosing span
//! on the same thread; the only cross-thread edge (client request →
//! coalesced server batch) is resolved by time containment when the trace
//! is written.  Every span feeds a per-name aggregate (calls, total time,
//! self time = total − children, and a bytes/ops count); the first
//! [`KEEP_PER_THREAD`] spans of each thread are also kept individually
//! for `trace.json`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Individual spans kept per thread; later ones only feed the aggregates.
const KEEP_PER_THREAD: usize = 4096;

macro_rules! span_names {
    ($($variant:ident => $text:literal,)*) => {
        /// Every span the benchmark can open.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Name { $($variant,)* }
        const NAMES: &[&str] = &[$($text,)*];
        const ALL_NAMES: &[Name] = &[$(Name::$variant,)*];
    };
}

span_names! {
    Slice => "workload.slice",
    OpGet => "op.get",
    OpPut => "op.put",
    OpDel => "op.del",
    OpScan => "op.scan",
    BackendGet => "backend.get",
    BackendInsert => "backend.insert",
    BackendRemove => "backend.remove",
    BackendExecute => "backend.execute",
    BackendScan => "backend.scan",
    ShardGet => "shard.get",
    ShardInsert => "shard.insert",
    ShardRemove => "shard.remove",
    ShardExecute => "shard.execute",
    ShardScan => "shard.scan",
    StorageAppend => "storage.append",
    StorageReadAt => "storage.read_at",
    StorageReadFile => "storage.read_file",
    StorageSync => "storage.sync",
    StorageMeta => "storage.meta",
}

impl Name {
    pub fn text(self) -> &'static str {
        NAMES[self as usize]
    }

    fn is_client_op(self) -> bool {
        matches!(self, Name::OpGet | Name::OpPut | Name::OpDel | Name::OpScan)
    }
}

/// Per-name totals over every span recorded, kept or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
    /// Bytes or operations reported at this boundary.
    pub count: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Time in spans longer than [`SLOW_NS`] (foreground stalls).
    pub slow_ns: u64,
}

/// A span longer than this is a stall, not an operation.
pub const SLOW_NS: u64 = 1_000_000;

impl Agg {
    fn add(&mut self, total_ns: u64, child_ns: u64, count: u64) {
        self.calls += 1;
        self.total_ns += total_ns;
        self.self_ns += total_ns.saturating_sub(child_ns);
        self.count += count;
        self.max_ns = self.max_ns.max(total_ns);
        if total_ns > SLOW_NS {
            self.slow_ns += total_ns;
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent among this thread's kept spans.
    parent: Option<usize>,
    count: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    count: u64,
    kept: Option<usize>,
}

struct ThreadTrace {
    stack: Vec<Open>,
    spans: Vec<Span>,
    agg: Vec<Agg>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadTrace>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadTrace>>>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` on this thread's trace, registering it on first use.  The
/// registry holds a second handle, so spans of server threads that
/// outlive the workload are still collected.
fn with_local<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> Option<R> {
    LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            let trace = local.get_or_insert_with(|| {
                let trace = Arc::new(Mutex::new(ThreadTrace {
                    stack: Vec::with_capacity(8),
                    spans: Vec::with_capacity(KEEP_PER_THREAD),
                    agg: vec![Agg::default(); NAMES.len()],
                }));
                REGISTRY
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&trace));
                trace
            });
            let mut trace = trace.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut trace)
        })
        .ok()
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct SpanGuard {
    active: bool,
}

/// Opens a span named `name` on the current thread (a no-op guard when
/// tracing is off: one relaxed load).
#[inline]
pub fn span(name: Name) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    let start_ns = now_ns();
    let active = with_local(|trace| {
        // Keep a span only under a kept parent, so kept spans form whole
        // trees rather than orphaned leaves.
        let parent_kept = trace.stack.last().map(|open| open.kept);
        let kept = match parent_kept {
            Some(None) => None,
            _ if trace.spans.len() >= KEEP_PER_THREAD => None,
            parent => {
                trace.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent: parent.flatten(),
                    count: 0,
                });
                Some(trace.spans.len() - 1)
            }
        };
        trace.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            count: 0,
            kept,
        });
    })
    .is_some();
    SpanGuard { active }
}

/// The tracer's clock, for [`record`].
pub fn now() -> u64 {
    now_ns()
}

/// Records a finished interval that overlaps others on its thread (a
/// pipelined client request, send to response): it joins the aggregates
/// and the kept spans under the innermost open span, but is not itself
/// pushed on the stack, so nothing nests under it.
pub fn record(name: Name, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    with_local(|trace| {
        trace.agg[name as usize].add(end_ns.saturating_sub(start_ns), 0, 0);
        let parent = trace.stack.last().map(|open| open.kept);
        if parent != Some(None) && trace.spans.len() < KEEP_PER_THREAD {
            trace.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: parent.flatten(),
                count: 0,
            });
        }
    });
}

impl SpanGuard {
    /// Records bytes or operations moved across this boundary.
    #[inline]
    pub fn count(&self, n: u64) {
        if self.active {
            with_local(|trace| {
                if let Some(open) = trace.stack.last_mut() {
                    open.count += n;
                }
            });
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        with_local(|trace| {
            let Some(open) = trace.stack.pop() else {
                return;
            };
            let total = end_ns.saturating_sub(open.start_ns);
            trace.agg[open.name as usize].add(total, open.child_ns, open.count);
            if let Some(parent) = trace.stack.last_mut() {
                parent.child_ns += total;
            }
            if let Some(at) = open.kept {
                trace.spans[at].end_ns = end_ns;
                trace.spans[at].count = open.count;
            }
        });
    }
}

/// Per-name totals summed over every thread that recorded a span.
pub fn aggregate() -> Vec<(Name, Agg)> {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut total = vec![Agg::default(); NAMES.len()];
    for trace in registry.iter() {
        let trace = trace.lock().unwrap_or_else(PoisonError::into_inner);
        for (sum, agg) in total.iter_mut().zip(&trace.agg) {
            sum.calls += agg.calls;
            sum.total_ns += agg.total_ns;
            sum.self_ns += agg.self_ns;
            sum.count += agg.count;
            sum.max_ns = sum.max_ns.max(agg.max_ns);
            sum.slow_ns += agg.slow_ns;
        }
    }
    ALL_NAMES.iter().copied().zip(total).collect()
}

/// The aggregate of one span name.
pub fn agg_of(name: Name) -> Agg {
    aggregate()[name as usize].1
}

/// Appends this workload's trace to `out` as one JSON object and clears
/// every thread's recording.  Kept spans get process-wide ids; a server
/// span without a same-thread parent is attached to the client operation
/// whose send→response interval contains it.
pub fn drain_json(workload: &str, out: &mut String) {
    let totals = aggregate();
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut all: Vec<(usize, Span)> = Vec::new();
    let mut bases = Vec::new();
    for (thread, trace) in registry.iter().enumerate() {
        let mut trace = trace.lock().unwrap_or_else(PoisonError::into_inner);
        bases.push(all.len());
        all.extend(trace.spans.drain(..).map(|span| (thread, span)));
        trace.agg.iter_mut().for_each(|agg| *agg = Agg::default());
    }
    let mut clients: Vec<usize> = (0..all.len())
        .filter(|&id| all[id].1.name.is_client_op())
        .collect();
    clients.sort_by_key(|&id| all[id].1.start_ns);
    let cross_parent = |span: &Span| -> Option<usize> {
        // The latest-started client op that was in flight for the whole
        // server span.
        let upto = clients.partition_point(|&id| all[id].1.start_ns <= span.start_ns);
        clients[..upto]
            .iter()
            .rev()
            .take(256)
            .copied()
            .find(|&id| all[id].1.end_ns >= span.end_ns)
    };

    let _ = write!(out, "{{\"workload\":\"{workload}\",\"aggregate\":[");
    let mut first = true;
    for (name, agg) in totals.iter().filter(|(_, agg)| agg.calls > 0) {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"count\":{}}}",
            if first { "" } else { "," },
            name.text(),
            agg.calls,
            agg.total_ns,
            agg.self_ns,
            agg.count
        );
        first = false;
    }
    out.push_str("],\"spans\":[");
    for (id, (thread, span)) in all.iter().enumerate() {
        let parent = match span.parent {
            Some(local) => Some(bases[*thread] + local),
            None if matches!(span.name, Name::BackendExecute | Name::BackendScan) => {
                cross_parent(span)
            }
            None => None,
        };
        let _ = write!(
            out,
            "{}{{\"id\":{id},\"name\":\"{}\",\"thread\":{thread},\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{},\"count\":{}}}",
            if id == 0 { "" } else { "," },
            span.name.text(),
            span.start_ns,
            span.end_ns,
            parent.map_or("null".to_string(), |p| p.to_string()),
            span.count
        );
    }
    out.push_str("]}");
}

/// Serialises the unit tests that flip the process-wide switch.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        {
            let outer = span(Name::OpGet);
            outer.count(3);
            {
                let _inner = span(Name::StorageReadAt);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        // Off: nothing is recorded.
        drop(span(Name::OpScan));

        let get = agg_of(Name::OpGet);
        let read = agg_of(Name::StorageReadAt);
        assert_eq!((get.calls, get.count, read.calls), (1, 3, 1));
        assert!(read.total_ns >= 2_000_000);
        assert_eq!(get.self_ns, get.total_ns - read.total_ns);
        assert_eq!(agg_of(Name::OpScan).calls, 0);

        let mut json = String::new();
        drain_json("unit", &mut json);
        assert!(json.contains("\"name\":\"op.get\""));
        assert!(json.contains("\"name\":\"storage.read_at\""));
        assert!(json.contains("\"parent\":null"));
        // Draining clears the aggregates.
        assert_eq!(agg_of(Name::OpGet).calls, 0);
    }
}
