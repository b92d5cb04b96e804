//! Concurrent differential test for the network KV service: N pipelined
//! clients race against one server while each checks every response
//! against its own `BTreeMap` oracle.
//!
//! Each client owns a **disjoint key stripe** (`key % clients == id`), so
//! even though the server freely coalesces frames from different
//! connections' windows into shared `execute` batches, every response a
//! client receives is deterministic: the FIFO per-connection contract
//! plus stripe disjointness means the oracle can be advanced at send time
//! and compared verbatim at receive time.  The mix covers point ops,
//! explicit `Batch` requests and interleaved `Ping`s; after the workers
//! join, a paginated `Scan` sweep must reproduce the merged oracles
//! exactly.
//!
//! This test runs in the ThreadSanitizer CI job: the server's
//! drain-coalesce-respond loop, the shared index under multi-connection
//! batches, and the shutdown protocol all race for real here.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bskip_core::BSkipList;
use bskip_net::{
    BatchOp, Connection, KvServer, Request, Response, ServerConfig, ServerHandle, SharedIndex,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What the oracle says the next response must be.
#[derive(Debug, PartialEq)]
enum Expect {
    Pong,
    Point(Option<u64>),
    Results(Vec<Option<u64>>),
}

fn check(expected: Expect, response: Response) {
    match (expected, response) {
        (Expect::Pong, Response::Pong) => {}
        (Expect::Point(None), Response::Missing) => {}
        (Expect::Point(Some(value)), Response::Found { value: got }) => {
            assert_eq!(got, value, "point response diverged from oracle");
        }
        (Expect::Results(values), Response::Results { results }) => {
            assert_eq!(results, values, "batch results diverged from oracle");
        }
        (expected, response) => {
            panic!("oracle expected {expected:?}, server sent {response:?}");
        }
    }
}

/// Drives one striped client against the server; returns its oracle and
/// the number of operation-carrying frames (point ops and explicit
/// batches, not pings) it sent.
fn striped_client(
    addr: std::net::SocketAddr,
    id: u64,
    clients: u64,
    ops: usize,
    window: usize,
) -> (BTreeMap<u64, u64>, u64) {
    let mut conn = Connection::connect_windowed(addr, window).expect("client connect");
    let mut rng = SmallRng::seed_from_u64(0xD1FF ^ (id << 40) ^ clients);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut expected: VecDeque<Expect> = VecDeque::new();
    let mut op_frames = 0u64;
    // Keys stay in a narrow per-stripe range so gets/dels actually hit.
    let stripe_key = |rng: &mut SmallRng| -> u64 { rng.gen_range(0..512u64) * clients + id };

    for i in 0..ops {
        let request = if i % 97 == 0 {
            expected.push_back(Expect::Pong);
            Request::Ping
        } else if i % 31 == 0 {
            // An explicit client-side batch: applied by the server in
            // slot order inside whatever coalesced run it lands in.
            let batch: Vec<BatchOp> = (0..rng.gen_range(1..8usize))
                .map(|_| {
                    let key = stripe_key(&mut rng);
                    match rng.gen_range(0..3u32) {
                        0 => BatchOp::Get { key },
                        1 => BatchOp::Put {
                            key,
                            value: rng.gen(),
                            value_len: 8,
                        },
                        _ => BatchOp::Del { key },
                    }
                })
                .collect();
            let results = batch
                .iter()
                .map(|op| match *op {
                    BatchOp::Get { key } => oracle.get(&key).copied(),
                    BatchOp::Put { key, value, .. } => oracle.insert(key, value),
                    BatchOp::Del { key } => oracle.remove(&key),
                })
                .collect();
            expected.push_back(Expect::Results(results));
            Request::Batch { ops: batch }
        } else {
            let key = stripe_key(&mut rng);
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    expected.push_back(Expect::Point(oracle.get(&key).copied()));
                    Request::Get { key }
                }
                5..=7 => {
                    let value = rng.gen();
                    expected.push_back(Expect::Point(oracle.insert(key, value)));
                    // Vary the wire size of values so coalesced runs mix
                    // frame lengths.
                    Request::put_padded(key, value, [8, 64, 300][i % 3])
                }
                _ => {
                    expected.push_back(Expect::Point(oracle.remove(&key)));
                    Request::Del { key }
                }
            }
        };
        if !matches!(request, Request::Ping) {
            op_frames += 1;
        }
        conn.send(&request).expect("send");
        while conn.ready() > 0 {
            let response = conn.recv().expect("recv");
            check(expected.pop_front().expect("tracked request"), response);
        }
    }
    for response in conn.drain().expect("drain") {
        check(expected.pop_front().expect("tracked request"), response);
    }
    assert!(expected.is_empty(), "every request must be answered");
    (oracle, op_frames)
}

/// Paginated full-range scan through the protocol.
fn scan_everything(addr: std::net::SocketAddr) -> Vec<(u64, u64)> {
    let mut conn = Connection::connect(addr).expect("scan connect");
    let mut entries = Vec::new();
    let mut lo = 0u64;
    loop {
        let page = conn.scan(lo, u64::MAX, 1000).expect("scan page");
        let Some(&(last, _)) = page.last() else {
            break;
        };
        entries.extend_from_slice(&page);
        lo = last + 1;
    }
    entries
}

fn run_differential(index: SharedIndex, clients: u64, ops: usize, window: usize) {
    let handle: ServerHandle = KvServer::bind(index, ("127.0.0.1", 0), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    let outcomes: Vec<(BTreeMap<u64, u64>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|id| scope.spawn(move || striped_client(addr, id, clients, ops, window)))
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client thread"))
            .collect()
    });

    // Quiescent now: the merged oracles must be exactly the server's
    // contents, observed through the protocol's own scan.
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    let mut op_frames = 0u64;
    for (oracle, frames) in outcomes {
        merged.extend(oracle);
        op_frames += frames;
    }
    assert_eq!(
        scan_everything(addr),
        merged.into_iter().collect::<Vec<_>>(),
        "scan after quiescence diverged from the merged oracles"
    );

    // The pipelined windows must have been visible to the server as
    // multi-op coalesced batches, not ping-pong singletons.
    let stats = handle.stats();
    let stat = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(
        stat("server_max_batch") > 1,
        "pipelined clients produced no coalesced batch"
    );
    // Mean coalesced batch > 1.  An explicit `Batch` frame carries
    // several operations by itself, so also count in frames: fewer
    // `execute` calls than operation-carrying frames, which strict
    // request/response traffic (window 1) never achieves.
    let (batches, batched_ops) = (stat("server_batches"), stat("server_batched_ops"));
    assert!(
        batched_ops > batches && batches < op_frames,
        "window {window}: {batched_ops} ops from {op_frames} frames took {batches} execute calls"
    );
    handle.shutdown();
}

#[test]
fn pipelined_clients_vs_oracle_bskiplist() {
    let index: SharedIndex = Arc::new(BSkipList::<u64, u64>::new());
    run_differential(index, 4, 1500, 16);
}

#[test]
fn pipelined_clients_vs_oracle_sharded_bskiplist() {
    // A hash-sharded backend behind the same wire protocol: coalesced
    // multi-connection batches now split per shard and run on the
    // sharded executor's scoped threads, and the quiescent scan sweep
    // exercises the K-way merging cursor through the protocol.
    let index: SharedIndex = Arc::new(bskip_index::ShardedIndex::hash(4, |_| {
        BSkipList::<u64, u64>::new()
    }));
    run_differential(index, 4, 1200, 16);
}

#[test]
fn pipelined_clients_vs_oracle_lsm() {
    let dir = std::env::temp_dir().join(format!("bskip-net-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = bskip_lsm::LsmEngine::<u64, u64>::open(&dir, bskip_lsm::LsmConfig::default())
        .expect("open LSM engine");
    let index: SharedIndex = Arc::new(engine);
    run_differential(index, 2, 600, 16);
    let _ = std::fs::remove_dir_all(&dir);
}
