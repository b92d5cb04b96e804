//! `svc_pipe`: the wire.  A `KvServer` on loopback over a two-shard
//! hash-`ShardedIndex` of B-skiplists; one client thread driving four
//! `Connection`s (so four server threads), a window of 32 requests at a
//! time on each.  Frame encode/decode, syscalls, the server's coalescer,
//! the sharded batch split and merged scan, and the B-skiplist's native
//! `execute` path all run.  The backend is cheap on purpose, so
//! `bskip-net` does most of the work; the LSM does nothing.

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bskip_core::BSkipList;
use bskip_index::{ConcurrentIndex, Op, ShardedIndex};
use bskip_net::proto::{encode_request, encode_response};
use bskip_net::{
    Connection, FrameDecoder, KvServer, Request, Response, ServerConfig, ServerHandle,
};

use super::{ns_per_call, oracle_mismatches, repeat_setup, Infallible, Outcome, RunCfg};
use crate::affinity::Pinned;
use crate::alloc;
use crate::gen::{value_of, BenchOp, KeyDist, Kind, Mix, OpGen, ABSENT, SCAN_LEN};
use crate::harness::{
    apply, begin_height_run, check_point, check_scan, op_span, run_phase, sample_ns, seed_heights,
    RunMode, Worker,
};
use crate::hostref::HostRef;
use crate::stats::median;
use crate::trace::{self, Name};
use crate::wrappers::{Boundary, SpanIndex};

pub const NAME: &str = "svc_pipe";
pub const WHY: &str =
    "wire path: framing, syscalls, coalescer, sharded batch split and merge-scan, \
                       native execute; cheap backend, LSM idle";

const PRELOAD: u64 = 200_000;
/// Requests per slice (a whole number of rounds of the lanes): about
/// half a second.
const SLICE_OPS: usize = 384_000;
const WINDOW: usize = 32;
const SHARDS: usize = 2;
/// Connections the client thread drives, and server threads they get.
const LANES: usize = 4;
const ORACLE_PAGE: u32 = 16 << 10;

/// How the workload's timings follow the host index (`hostref.rs`): the
/// log-log slope over twenty identical pinned runs was 1.35–1.5 — socket
/// calls and context switches, which the host's slow spells stretch more
/// than they stretch the index's one-byte `pwrite`.
const HOST_SENSITIVITY: f64 = 1.5;

const MIX: Mix = Mix {
    get: 70,
    get_absent: 0,
    get_recent: 0,
    put_fresh: 0,
    put_over: 25,
    del: 0,
    scan: 5,
};

type Shard = SpanIndex<BSkipList<u64, u64>>;
type Backend = SpanIndex<ShardedIndex<u64, u64, Shard>>;

fn backend(shards: usize) -> Backend {
    SpanIndex::new(
        ShardedIndex::hash(shards, |_| {
            SpanIndex::new(BSkipList::new(), Boundary::Shard)
        }),
        Boundary::Backend,
    )
}

fn request_of(op: &BenchOp) -> Request {
    match op.kind {
        Kind::Get | Kind::GetAbsent => Request::Get { key: op.key },
        Kind::PutFresh | Kind::PutOver => Request::put(op.key, value_of(op.key, op.gen)),
        Kind::Del => Request::Del { key: op.key },
        Kind::Scan => Request::Scan {
            lo: op.key,
            hi: u64::MAX,
            limit: SCAN_LEN as u32,
        },
    }
}

/// Whether `response` is the right answer to `op`.  An error frame
/// (`Busy`, `Unavailable`, a protocol fault) is a failed operation.
fn check_response(op: &BenchOp, response: &Response) -> bool {
    match (op.kind, response) {
        (Kind::Scan, Response::Entries { entries }) => check_scan(op.key, entries.iter().copied()),
        (Kind::Scan, _) => false,
        (_, Response::Found { value }) => check_point(op, Some(*value)),
        (_, Response::Missing) => check_point(op, None),
        _ => false,
    }
}

/// One pipelined connection and the generator of the key stripe it owns.
struct Lane {
    gen: OpGen,
    conn: Connection,
}

/// The client: one thread driving `LANES` connections, a window on each.
///
/// The stream is made of windows that go round the lanes; the client
/// writes a window to one connection, then collects the previous window
/// of the next, so the server works on the other lanes while the client
/// encodes and decodes this one.  Four lanes keep three windows queued at
/// the server, so both vCPUs stay busy (80 % of the run is CPU time).
/// With two lanes a vCPU went idle once per window and the rate followed
/// the time the host takes to wake it: ten runs in a row gave 0.74 Mops/s
/// seven times and 0.52 three times.  (Two client threads that each block
/// on their own socket were bistable as well.)
/// Each lane mutates only its own key stripe, so the server threads never
/// race on a key.
struct Client {
    lanes: Vec<Lane>,
}

impl Client {
    /// Sends `ops` a window at a time, round-robin over the lanes.  `sent`
    /// sees each request's position as it is encoded, `claim` each
    /// response with the position of the request it answers.
    fn stream(
        &mut self,
        ops: &[BenchOp],
        mut sent: impl FnMut(usize),
        mut claim: impl FnMut(usize, &Response),
    ) -> std::io::Result<()> {
        let lanes = self.lanes.len();
        // Start position of the window in flight on each lane.
        let mut in_flight: Vec<Option<usize>> = vec![None; lanes];
        let mut collect = |lane: &mut Lane, start: usize| -> std::io::Result<()> {
            for (slot, response) in lane.conn.drain()?.iter().enumerate() {
                claim(start + slot, response);
            }
            Ok(())
        };
        for (window, chunk) in ops.chunks(WINDOW).enumerate() {
            let lane = &mut self.lanes[window % lanes];
            if let Some(start) = in_flight[window % lanes].take() {
                collect(lane, start)?;
            }
            for (slot, op) in chunk.iter().enumerate() {
                sent(window * WINDOW + slot);
                lane.conn.send(&request_of(op))?;
            }
            lane.conn.flush()?;
            in_flight[window % lanes] = Some(window * WINDOW);
        }
        // The oldest outstanding window first.
        let windows = ops.len().div_ceil(WINDOW);
        for window in windows.saturating_sub(lanes)..windows {
            if let Some(start) = in_flight[window % lanes].take() {
                collect(&mut self.lanes[window % lanes], start)?;
            }
        }
        Ok(())
    }
}

impl Worker for Client {
    /// Windows alternate between the lanes' generators, as `stream`
    /// sends them.
    fn generate(&mut self, count: usize, out: &mut Vec<BenchOp>) {
        assert!(
            count.is_multiple_of(WINDOW),
            "a slice is a whole number of windows"
        );
        let lanes = self.lanes.len();
        for window in 0..count / WINDOW {
            self.lanes[window % lanes].gen.generate(WINDOW, out);
        }
    }

    /// Latency is send → that request's response, window queueing
    /// included.
    fn run(&mut self, ops: &[BenchOp], mode: RunMode<'_>) -> u64 {
        let mut answered = 0u64;
        let mut wrong = 0u64;
        let mut check = |at: usize, response: &Response| {
            answered += 1;
            wrong += !check_response(&ops[at], response) as u64;
        };
        let streamed = match mode {
            RunMode::Throughput => self.stream(ops, |_| {}, &mut check),
            RunMode::Latency(buf) => {
                // Two closures share the queue: `sent` pushes, `claim` pops.
                let sent_at = std::cell::RefCell::new(VecDeque::with_capacity(WINDOW + 1));
                self.stream(
                    ops,
                    |_| sent_at.borrow_mut().push_back(Instant::now()),
                    |at, response| {
                        let start = sent_at.borrow_mut().pop_front().expect("request in flight");
                        buf.samples[ops[at].kind.class() as usize].push(sample_ns(start));
                        check(at, response);
                    },
                )
            }
            RunMode::Traced => {
                let sent_at = std::cell::RefCell::new(VecDeque::with_capacity(WINDOW + 1));
                self.stream(
                    ops,
                    |_| sent_at.borrow_mut().push_back(trace::now()),
                    |at, response| {
                        let start = sent_at.borrow_mut().pop_front().expect("request in flight");
                        trace::record(op_span(ops[at].kind.class()), start, trace::now());
                        check(at, response);
                    },
                )
            }
        };
        // A broken connection fails every request it left unanswered.
        let unanswered = ops.len() as u64 - answered;
        if streamed.is_err() {
            eprintln!("svc_pipe: connection failed: {streamed:?}");
        }
        wrong + unanswered
    }
}

/// A running server, its backend, and the preloaded client.
struct Service {
    handle: ServerHandle,
    backend: Arc<Backend>,
    client: Client,
}

fn start(cfg: &RunCfg, preload: u64) -> Service {
    begin_height_run(cfg.seed);
    let backend = Arc::new(backend(SHARDS));
    let handle = KvServer::bind_shared(backend.clone(), ("127.0.0.1", 0), ServerConfig::default())
        .and_then(KvServer::spawn)
        .expect("start the server on loopback");
    let mut client = Client {
        lanes: (0..LANES)
            .map(|lane| Lane {
                gen: OpGen::new(cfg.seed, lane, LANES, preload, MIX, KeyDist::Uniform),
                conn: Connection::connect_windowed(handle.addr(), WINDOW).expect("connect"),
            })
            .collect(),
    };
    // Preload over the wire the way the timed phase talks to the server:
    // windows alternating between the lanes, each lane its own stripe.
    let stripes: Vec<Vec<BenchOp>> = client
        .lanes
        .iter()
        .map(|lane| {
            lane.gen
                .preload()
                .map(|(key, _)| BenchOp {
                    key,
                    expect: ABSENT,
                    gen: 0,
                    kind: Kind::PutFresh,
                })
                .collect()
        })
        .collect();
    let longest = stripes.iter().map(Vec::len).max().unwrap_or(0);
    let mut ops = Vec::with_capacity(preload as usize);
    for from in (0..longest).step_by(WINDOW) {
        for stripe in &stripes {
            ops.extend_from_slice(
                &stripe[from.min(stripe.len())..(from + WINDOW).min(stripe.len())],
            );
        }
    }
    let failed = client.run(&ops, RunMode::Throughput);
    assert_eq!(failed, 0, "preload over the wire failed");
    Service {
        handle,
        backend,
        client,
    }
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, value)| *value)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let preload = cfg.size(PRELOAD);
    // Client and server share one CPU from here to the end of the run
    // (threads spawned below inherit it): see `affinity`.
    let pinned = Pinned::to_one_cpu();
    if pinned.cpu.is_none() {
        eprintln!("svc_pipe: could not pin to one CPU; wake-ups will cross CPUs");
    }

    let mut host = HostRef::new();
    let (service, setup) = repeat_setup(cfg.setup_reps(9), &mut host, || {
        let start_at = Instant::now();
        let service = start(cfg, preload);
        (service, start_at.elapsed().as_secs_f64())
    });
    let Service {
        handle,
        backend,
        mut client,
    } = service;

    let server_before = handle.stats();
    let pins_before = backend.stats().get("ebr_pins").unwrap_or(0);
    let plan = cfg.plan(SLICE_OPS);
    let phase = run_phase(std::slice::from_mut(&mut client), plan, &mut host);
    let server_after = handle.stats();
    let pins = backend.stats().get("ebr_pins").unwrap_or(0) - pins_before;

    // The oracle reads the server the way a client would: pages of
    // `ORACLE_PAGE` entries (a quarter of the frame cap), resumed after the
    // last key, until one comes back short.
    let mut full_scan = Vec::new();
    let mut lo = 0u64;
    loop {
        let page = client.lanes[0]
            .conn
            .scan(lo, u64::MAX, ORACLE_PAGE)
            .expect("oracle scan");
        let short = page.len() < ORACLE_PAGE as usize;
        lo = page.last().map_or(lo, |(key, _)| key + 1);
        full_scan.extend(page);
        if short {
            break;
        }
    }
    let gen_refs: Vec<&OpGen> = client.lanes.iter().map(|lane| &lane.gen).collect();
    let (oracle_mismatches, live_keys) = oracle_mismatches(&gen_refs, full_scan.into_iter());

    let mut layers = Vec::new();
    if cfg.traced {
        let issued = plan.ops_per_thread() as f64;
        let delta = |name: &str| (stat(&server_after, name) - stat(&server_before, name)) as f64;
        let mean_batch = delta("server_batched_ops") / delta("server_batches").max(1.0);
        let traced_wall_ns = phase.traced_wall_s * 1e9;
        let in_backend: u64 = [
            Name::BackendExecute,
            Name::BackendScan,
            Name::BackendGet,
            Name::BackendInsert,
            Name::BackendRemove,
        ]
        .iter()
        .map(|&name| trace::agg_of(name).total_ns)
        .sum();
        layers.extend([
            ("sync.ebr_pins_per_op", pins as f64 / issued),
            ("net.mean_batch", mean_batch),
            (
                "net.server_exec_share",
                in_backend as f64 / (traced_wall_ns * LANES as f64),
            ),
        ]);
        // The per-layer deltas account for the end-to-end number when the
        // ladder's top rung is what a request cost the client in the phase.
        let window_ns = window32_ns(&mut client);
        layers.push((
            "bench.ladder_gap_frac",
            window_ns * phase.raw_ops_per_s() / 1e9 - 1.0,
        ));
        layers.extend(wire_probes(
            &handle,
            &backend,
            &mut client.lanes[0],
            mean_batch,
            window_ns,
        ));
        layers.extend(index_probes(cfg, preload));
    }

    // Connection threads leave when their client hangs up; the backend is
    // measured by letting go of the last handle to it.
    drop(client);
    handle.shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Arc::strong_count(&backend) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for _ in 0..8 {
        backend.try_reclaim();
    }
    let with_backend = alloc::live_bytes();
    let sole_owner = Arc::strong_count(&backend) == 1;
    drop(backend);
    let index_bytes = (with_backend - alloc::live_bytes()).max(0) as f64;
    assert!(sole_owner, "server threads still hold the backend");

    Outcome {
        setup,
        host_sensitivity: HOST_SENSITIVITY,
        phase,
        space_amp: index_bytes / (16.0 * live_keys.max(1) as f64),
        live_keys,
        oracle_mismatches,
        storage: None,
        layers,
    }
}

/// The ladder's top rung: the workload's stream replayed on its own, at
/// window 32 over both connections, outside any slice of the phase; ns
/// per request.
fn window32_ns(client: &mut Client) -> f64 {
    /// Requests per timed chunk (a whole number of windows).
    const CHUNK: usize = 96_000;
    let mut ops = Vec::new();
    client.generate(3 * CHUNK, &mut ops);
    let chunk_ns: Vec<f64> = ops
        .chunks(CHUNK)
        .map(|chunk| {
            let start = Instant::now();
            let failed = client.run(chunk, RunMode::Throughput);
            assert_eq!(failed, 0, "window-32 replay failed");
            start.elapsed().as_nanos() as f64 / CHUNK as f64
        })
        .collect();
    median(&chunk_ns)
}

/// The wire's own costs: codec loops over the workload's stream, the
/// round trip at window 1, and the window-32 replay (`window_ns`) against
/// the same mix executed in process.
fn wire_probes(
    handle: &ServerHandle,
    backend: &Backend,
    lane: &mut Lane,
    mean_batch: f64,
    window_ns: f64,
) -> Vec<(&'static str, f64)> {
    const OPS: usize = 60_000;
    let mut ops = Vec::new();
    lane.gen.generate(OPS, &mut ops);
    let requests: Vec<Request> = ops.iter().map(request_of).collect();
    // What the server would answer: a value for point requests, a full
    // page for scans.
    let page: Vec<(u64, u64)> = (0..SCAN_LEN as u64).map(|k| (k, value_of(k, 0))).collect();
    let responses: Vec<Response> = ops
        .iter()
        .map(|op| match op.kind {
            Kind::Scan => Response::Entries {
                entries: page.clone(),
            },
            _ => Response::Found {
                value: value_of(op.key, op.gen),
            },
        })
        .collect();

    let mut request_bytes = Vec::new();
    let encode_req = ns_per_call(OPS, |i| {
        encode_request(&requests[i], &mut request_bytes).expect("encode request");
    });
    let mut decoder = FrameDecoder::new();
    decoder.extend(&request_bytes);
    let decode_req = ns_per_call(OPS, |_| {
        std::hint::black_box(decoder.decode_request().expect("decode request"));
    });
    let mut response_bytes = Vec::new();
    let encode_resp = ns_per_call(OPS, |i| {
        encode_response(&responses[i], &mut response_bytes).expect("encode response");
    });
    let mut decoder = FrameDecoder::new();
    decoder.extend(&response_bytes);
    let decode_resp = ns_per_call(OPS, |_| {
        std::hint::black_box(decoder.decode_response().expect("decode response"));
    });

    // Under the top rung (both connections at window 32), the same kind
    // of operations applied in process in batches the size the coalescer
    // formed.
    let batch = (mean_batch.round() as usize).clamp(1, 64);
    let local_start = Instant::now();
    let mut pending: Vec<Op<u64, u64>> = Vec::with_capacity(batch);
    for op in &ops {
        match op.kind {
            Kind::Scan => assert!(apply(&Infallible(backend), op), "in-process scan failed"),
            Kind::Get | Kind::GetAbsent => pending.push(Op::get(op.key)),
            Kind::Del => pending.push(Op::remove(op.key)),
            Kind::PutFresh | Kind::PutOver => {
                pending.push(Op::insert(op.key, value_of(op.key, op.gen)))
            }
        }
        if pending.len() == batch {
            backend.execute(&mut pending);
            pending.clear();
        }
    }
    backend.execute(&mut pending);
    let local_ns = local_start.elapsed().as_nanos() as f64 / OPS as f64;

    // Window 1: every request pays the full round trip (the syscall
    // floor under `get_p50_us`).  Generated last, so each lookup expects
    // the state the replays above left behind.
    let mut single = Connection::connect_windowed(handle.addr(), 1).expect("connect");
    let mut gets = Vec::new();
    lane.gen
        .retarget(Mix::only(Kind::Get))
        .generate(15_000, &mut gets);
    let rtt = ns_per_call(gets.len(), |i| {
        let response = single.call(&request_of(&gets[i])).expect("round trip");
        assert!(
            check_response(&gets[i], &response),
            "window-1 lookup failed"
        );
    });

    vec![
        ("net.encode_req_ns", encode_req),
        ("net.decode_req_ns", decode_req),
        ("net.encode_resp_ns", encode_resp),
        ("net.decode_resp_ns", decode_resp),
        (
            "net.wire_bytes_per_op",
            (request_bytes.len() + response_bytes.len()) as f64 / OPS as f64,
        ),
        ("net.rtt_depth1_us", rtt / 1e3),
        ("net.window32_us_per_op", window_ns / 1e3),
        ("net.wire_delta_us_per_op", (window_ns - local_ns) / 1e3),
    ]
}

/// Ladder rungs between the raw list and the sharded front-end, on
/// fresh indices holding the workload's keys: `execute` in 64-op slices
/// of the workload's point stream through the concrete list, through
/// `dyn`, and through a one-shard `ShardedIndex`; and a 100-entry scan
/// through a two-shard merge against the raw list's own cursor.
fn index_probes(cfg: &RunCfg, preload: u64) -> Vec<(&'static str, f64)> {
    const OPS: usize = 64 * 1500;
    const SCANS: usize = 15_000;
    seed_heights(Some(0));
    let mut gen = OpGen::new(cfg.seed, 0, 1, preload, MIX, KeyDist::Uniform);
    let raw: BSkipList<u64, u64> = BSkipList::new();
    let one_shard = backend(1);
    let two_shards = backend(SHARDS);
    for (key, value) in gen.preload() {
        raw.insert(key, value);
        one_shard.insert(key, value);
        two_shards.insert(key, value);
    }
    let point_mix = Mix {
        get: 74,
        put_over: 26,
        ..Mix::default()
    };
    let mut points = Vec::new();
    gen.retarget(point_mix).generate(OPS, &mut points);
    let batches: Vec<Vec<Op<u64, u64>>> = points
        .chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .map(|op| match op.kind {
                    Kind::Get => Op::get(op.key),
                    _ => Op::insert(op.key, value_of(op.key, op.gen)),
                })
                .collect()
        })
        .collect();
    // ns per operation of `execute` over the 64-op batches.
    let exec64 = |index: &dyn ConcurrentIndex<u64, u64>| {
        let mut batches = batches.clone();
        ns_per_call(batches.len(), |i| index.execute(&mut batches[i])) / 64.0
    };
    let mut raw_batches = batches.clone();
    let exec_raw = ns_per_call(raw_batches.len(), |i| raw.execute(&mut raw_batches[i])) / 64.0;
    let as_dyn: &dyn ConcurrentIndex<u64, u64> = &raw;
    let exec_dyn = exec64(as_dyn);
    let exec_shard = exec64(&one_shard);

    let gets: Vec<&BenchOp> = points.iter().filter(|op| op.kind == Kind::Get).collect();
    let get_dyn = ns_per_call(gets.len(), |i| {
        assert!(as_dyn.get(&gets[i].key).is_some());
    });
    let get_shard = ns_per_call(gets.len(), |i| {
        assert!(one_shard.get(&gets[i].key).is_some());
    });

    let mut scans = Vec::new();
    gen.retarget(Mix::only(Kind::Scan))
        .generate(SCANS, &mut scans);
    let scan = |index: &dyn ConcurrentIndex<u64, u64>| {
        ns_per_call(scans.len(), |i| {
            let cursor = index.scan_bounds(Bound::Included(scans[i].key), Bound::Unbounded);
            assert!(check_scan(scans[i].key, cursor), "probe scan failed");
        })
    };
    let scan_raw = scan(&raw);
    let scan_merged = scan(&two_shards);

    vec![
        ("core.exec64_ns_per_op", exec_raw),
        ("index.shard_exec64_delta_ns_per_op", exec_shard - exec_dyn),
        ("index.shard_get_delta_ns", get_shard - get_dyn),
        ("index.merge_scan100_delta_ns", scan_merged - scan_raw),
    ]
}
