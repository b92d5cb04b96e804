//! The blocking-socket KV server with pipelined-request coalescing.
//!
//! No async runtime is vendored, so the server is deliberately classical:
//! a `std::net` accept loop handing each connection to its own thread,
//! bounded by a connection cap, with graceful shutdown driven by a flag
//! plus a self-connect to unblock `accept`.  What makes it interesting is
//! what each connection thread does with a **pipelined** client:
//!
//! 1. read whatever the socket has — possibly many frames at once;
//! 2. drain *every* complete frame out of the [`FrameDecoder`] — the
//!    window;
//! 3. walk the window in request order as maximal runs of point requests
//!    (`Get`/`Put`/`Del`), each mapped onto
//!    **one** [`ConcurrentIndex::execute`] call — one EBR pin on the
//!    B-skiplist, one WAL group-commit record on the LSM engine — and
//!    answer every other request (`Scan`, `Stats`, `Ping`, a write a
//!    degraded backend refuses) where it stands, between the runs;
//! 4. write all the answers back with a single `write_all`.
//!
//! A connection's requests therefore take effect in the order it sent
//! them: a `Scan` sees every write sent before it and none sent after.
//! A client that keeps 32 requests in flight pays one index-batch per
//! run — one per socket read when the window holds no scan — and two
//! syscalls per socket read, not per request; the [`ServerStats`]
//! counters (`server_batches`, `server_batched_ops`, …) make the achieved
//! coalescing factor observable through the protocol's own `Stats`
//! request, which the loadgen turns into a CI tripwire.
//!
//! `Scan` is answered through a cursor opened at the request's bounds
//! ([`ConcurrentIndex::scan_bounds`]), its pairs encoded straight from
//! the cursor into the write buffer, and `Stats` merges the server's own
//! counters with the backend's [`bskip_index::IndexStats`] snapshot
//! (which, for the LSM engine, carries WAL/flush/compaction counters).

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bskip_index::{ConcurrentIndex, Op, StatKind};
use bskip_sync::RelaxedCounter;

use crate::proto::{
    encode_entries, encode_response, ErrorCode, FrameDecoder, ProtoError, Request, Response,
    READ_CHUNK,
};

/// The index type the service runs over: any [`ConcurrentIndex`] behind a
/// shared pointer (the workspace's indices are all `u64 → u64`).
pub type SharedIndex = Arc<dyn ConcurrentIndex<u64, u64>>;

/// Tuning knobs for [`KvServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further clients receive a
    /// `Busy` error frame and are closed.
    pub max_connections: usize,
    /// Per-read socket timeout; its only role is to bound how long a
    /// parked connection thread takes to notice a shutdown.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            poll_interval: Duration::from_millis(50),
        }
    }
}

bskip_index::stat_block! {
    /// Counters describing the server's coalescing behaviour, exported
    /// through the protocol's `Stats` request (prefixed `server_`).
    /// [`ServerStats::snapshot`] is in the uniform
    /// [`bskip_index::IndexStats`] format, so the `Stats` opcode merges it
    /// with whatever the index exports (per-shard rollups included).
    pub struct ServerStats {
        /// Connections accepted and served.
        pub connections: RelaxedCounter => Counter "server_connections",
        /// Connections turned away at the cap with a `Busy` frame.
        pub rejected: RelaxedCounter => Counter "server_rejected",
        /// Requests decoded.
        pub requests: RelaxedCounter => Counter "server_requests",
        /// `execute` calls issued for coalesced point-operation runs.
        pub batches: RelaxedCounter => Counter "server_batches",
        /// Point operations carried by those `execute` calls; the mean
        /// coalesced batch size is `batched_ops / batches`.
        pub batched_ops: RelaxedCounter => Counter "server_batched_ops",
        /// Largest single coalesced batch observed.
        pub max_batch: RelaxedCounter => Max "server_max_batch",
        /// `Scan` requests served.
        pub scans: RelaxedCounter => Counter "server_scans",
        /// Entries returned across all scans.
        pub scan_entries: RelaxedCounter => Counter "server_scan_entries",
        /// Requests answered with an `Unavailable` error frame because the
        /// backend reported itself degraded, or rejected their run's
        /// batch whole.
        pub unavailable: RelaxedCounter => Counter "server_unavailable",
    }
}

impl ServerStats {
    fn note_batch(&self, ops: usize) {
        self.batches.incr();
        self.batched_ops.add(ops as u64);
        self.max_batch.record_max(ops as u64);
    }
}

/// A snapshot as the `(name, value)` pairs of a `Stats` response.
fn wire_entries(stats: &bskip_index::IndexStats) -> Vec<(String, u64)> {
    stats
        .iter()
        .map(|stat| (stat.name.to_string(), stat.value))
        .collect()
}

struct Shared {
    index: SharedIndex,
    config: ServerConfig,
    stats: ServerStats,
    shutdown: AtomicBool,
    active: AtomicUsize,
}

/// A running KV service bound to a TCP listener.
///
/// Construct with [`KvServer::bind`], then either call [`KvServer::run`]
/// on the current thread or [`KvServer::spawn`] to get a background
/// accept thread plus a [`ServerHandle`] for shutdown.
pub struct KvServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Control handle for a spawned [`KvServer`]: shutdown + join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl KvServer {
    /// Binds the service over any [`ConcurrentIndex`] to `addr` (use
    /// port 0 for an ephemeral port; see [`KvServer::local_addr`]).
    ///
    /// The index is taken by value and shared internally, so call sites
    /// pass the concrete engine — a `BSkipList`, a
    /// [`bskip_index::ShardedIndex`], an LSM tree — without any
    /// `Arc`-juggling.  An already-shared [`SharedIndex`] also works
    /// (the trait forwards through `Arc`); to hand over an existing
    /// `Arc` without re-wrapping, use [`KvServer::bind_shared`].
    pub fn bind<I, A>(index: I, addr: A, config: ServerConfig) -> std::io::Result<Self>
    where
        I: ConcurrentIndex<u64, u64> + 'static,
        A: ToSocketAddrs,
    {
        Self::bind_shared(Arc::new(index), addr, config)
    }

    /// [`KvServer::bind`] for an index that is already behind the
    /// [`SharedIndex`] pointer (e.g. shared with a local workload).
    pub fn bind_shared<A: ToSocketAddrs>(
        index: SharedIndex,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(KvServer {
            listener,
            shared: Arc::new(Shared {
                index,
                config,
                stats: ServerStats::default(),
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's coalescing counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Runs the accept loop on the current thread until a
    /// [`ServerHandle::shutdown`] stops it.  Connection threads may
    /// outlive the loop by up to one poll interval; the listener closes
    /// when this returns.
    pub fn run(self) {
        let KvServer { listener, shared } = self;
        while !shared.shutdown.load(Ordering::Acquire) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            // `fetch_add` first so racing accepts cannot both sneak under
            // the cap; back out if we lost.
            if shared.active.fetch_add(1, Ordering::AcqRel) >= shared.config.max_connections {
                shared.active.fetch_sub(1, Ordering::AcqRel);
                shared.stats.rejected.incr();
                reject_busy(stream);
                continue;
            }
            shared.stats.connections.incr();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _ = serve_connection(&shared, stream);
                shared.active.fetch_sub(1, Ordering::AcqRel);
            });
        }
    }

    /// Spawns the accept loop on a background thread and returns its
    /// control handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let accept_thread = std::thread::Builder::new()
            .name("bskip-net-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's coalescing counters, as the `(name,
    /// value)` pairs they appear as in a `Stats` response.
    pub fn stats(&self) -> Vec<(String, u64)> {
        wire_entries(&self.shared.stats.snapshot())
    }

    /// Raises the shutdown flag, wakes the accept loop with a throwaway
    /// connection, and joins the accept thread.  Connection threads
    /// notice the flag within one poll interval — a busy one after the
    /// window it is answering — and exit; the listener socket closes with
    /// the accept thread.
    ///
    /// Dropping the handle is the stop sequence; this is its name.
    pub fn shutdown(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock `accept` (ignore failure — the loop also wakes on any
        // real client, and the thread exits either way once it polls).
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

fn reject_busy(mut stream: TcpStream) {
    let mut frame = Vec::new();
    let busy = Response::Error {
        code: ErrorCode::Busy,
        message: "connection cap reached".into(),
    };
    if encode_response(&busy, &mut frame).is_ok() {
        let _ = stream.write_all(&frame);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    // Per-connection scratch, cleared and refilled for every window.
    let mut requests: Vec<Request> = Vec::new();
    let mut ops: Vec<Op<u64, u64>> = Vec::new();
    let mut write_buf: Vec<u8> = Vec::new();

    loop {
        // Checked on every turn, not only on an idle timeout: a client
        // that keeps its pipeline full would otherwise be served for ever
        // by a server that has shut down.  A thread parked in `read` when
        // the flag goes up answers the window that wakes it, then leaves.
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        decoder.extend(&chunk[..n]);

        // Drain EVERY complete frame the read delivered — this is the
        // window the coalescer works over.
        requests.clear();
        loop {
            match decoder.decode_request() {
                Ok(Some(request)) => requests.push(request),
                Ok(None) => break,
                Err(error) => {
                    // Answer everything decoded before the poisoned
                    // frame (an empty run only clears the previous
                    // window's bytes out of `write_buf`), then one
                    // terminal error frame behind those answers.
                    answer_requests(shared, &requests, &mut ops, &mut write_buf)?;
                    encode_response(&error_response(&error), &mut write_buf)?;
                    let _ = stream.write_all(&write_buf);
                    let _ = stream.shutdown(Shutdown::Both);
                    return Ok(());
                }
            }
        }
        if requests.is_empty() {
            continue;
        }
        answer_requests(shared, &requests, &mut ops, &mut write_buf)?;
        stream.write_all(&write_buf)?;
    }
}

/// Answers a window into `write_buf` (cleared first), one answer per
/// request, in request order: each maximal run of point requests is one
/// `execute`, and every other request is answered where it stands, after
/// the run before it took effect.  `ops` is scratch that comes in and
/// leaves empty.
///
/// A degraded backend (sticky read-only after an I/O failure) turns every
/// mutation — and Ping, so health checks drain the node — into an
/// `Unavailable` error frame.  Reads, scans and stats keep being served
/// off the surviving state.
fn answer_requests(
    shared: &Shared,
    requests: &[Request],
    ops: &mut Vec<Op<u64, u64>>,
    write_buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    write_buf.clear();
    shared.stats.requests.add(requests.len() as u64);
    let degraded = shared.index.degraded();
    for request in requests {
        if !join_run(request, degraded, ops) {
            answer_run(shared, ops, write_buf)?;
            answer_alone(shared, request, degraded, write_buf)?;
        }
    }
    answer_run(shared, ops, write_buf)
}

/// Appends `request`'s operation to the run being gathered in `ops`, or
/// returns `false` — leaving `ops` alone — if it ends the run instead.
fn join_run(request: &Request, degraded: bool, ops: &mut Vec<Op<u64, u64>>) -> bool {
    match request {
        Request::Get { key } => ops.push(Op::get(*key)),
        Request::Put { key, value } if !degraded => ops.push(Op::insert(*key, *value)),
        Request::Del { key } if !degraded => ops.push(Op::remove(*key)),
        _ => return false,
    }
    true
}

/// Executes the run's operations, gathered in `ops`, as one batch — one
/// EBR pin on the B-skiplist, one WAL group commit on the LSM engine —
/// then answers its requests in order, one slot each.  Leaves `ops`
/// empty.
///
/// A slot the backend left `Pending` belongs to a batch it rejected whole
/// — the WAL append of this very run failed, after the window began on a
/// healthy engine — so nothing of it was applied: that is `Unavailable`,
/// never the `Missing` an absent key or a fresh put answers with.
fn answer_run(
    shared: &Shared,
    ops: &mut Vec<Op<u64, u64>>,
    write_buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    if !ops.is_empty() {
        shared.stats.note_batch(ops.len());
        shared.index.execute(ops);
    }
    for op in ops.iter() {
        let response = if !op.result().is_executed() {
            unavailable_response(shared, "backend rejected the batch: nothing was applied")
        } else {
            match op.result().value() {
                Some(value) => Response::Found { value },
                None => Response::Missing,
            }
        };
        encode_response(&response, write_buf)?;
    }
    ops.clear();
    Ok(())
}

/// Answers a request that ends a run of point requests.
fn answer_alone(
    shared: &Shared,
    request: &Request,
    degraded: bool,
    write_buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    match request {
        Request::Scan { lo, hi, limit } => serve_scan(shared, *lo, *hi, *limit, write_buf)?,
        Request::Stats => encode_response(&serve_stats(shared), write_buf)?,
        Request::Ping if !degraded => encode_response(&Response::Pong, write_buf)?,
        // Ping or a write on a degraded backend.
        _ => encode_response(
            &unavailable_response(shared, "backend degraded: node is read-only"),
            write_buf,
        )?,
    }
    Ok(())
}

/// Streams up to `limit` entries of `lo ..< hi` from the index's cursor
/// into one `Entries` frame.
fn serve_scan(
    shared: &Shared,
    lo: u64,
    hi: u64,
    limit: u32,
    write_buf: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    shared.stats.scans.incr();
    let cursor = shared
        .index
        .scan_bounds(Bound::Included(lo), Bound::Excluded(hi));
    let count = encode_entries(cursor.take(limit as usize), write_buf)?;
    shared.stats.scan_entries.add(u64::from(count));
    Ok(())
}

fn serve_stats(shared: &Shared) -> Response {
    // One aggregation API end to end: the server's own counters, the
    // index length, and the backend snapshot (itself a per-shard rollup
    // for a sharded backend) compose through `IndexStats::merge` — the
    // `server_*` names and the backend's names are disjoint, so the
    // merge is a pure concatenation here.
    let index_len = shared.index.len() as u64;
    let mut stats = shared
        .stats
        .snapshot()
        .with_kind("index_len", StatKind::Gauge, index_len);
    stats.merge(&shared.index.stats());
    Response::Stats {
        entries: wire_entries(&stats),
    }
}

/// An `Unavailable` error frame, counted in `server_unavailable`.
fn unavailable_response(shared: &Shared, message: &str) -> Response {
    shared.stats.unavailable.incr();
    Response::Error {
        code: ErrorCode::Unavailable,
        message: message.into(),
    }
}

fn error_response(error: &ProtoError) -> Response {
    let code = match error {
        ProtoError::Oversized { .. } => ErrorCode::Oversized,
        _ => ErrorCode::Malformed,
    };
    Response::Error {
        code,
        message: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two servers' (or two collection rounds') snapshots merge by kind:
    /// the batch peak is a maximum, everything else a sum.
    #[test]
    fn merged_server_snapshots_keep_the_largest_batch() {
        let (a, b) = (ServerStats::default(), ServerStats::default());
        a.note_batch(32);
        b.note_batch(17);
        b.note_batch(3);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.get("server_max_batch"), Some(32));
        assert_eq!(merged.get("server_batches"), Some(3));
        assert_eq!(merged.get("server_batched_ops"), Some(52));
    }
}
