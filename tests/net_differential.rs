//! Concurrent differential test for the network KV service: N pipelined
//! clients race against one server while each checks every response
//! against its own `BTreeMap` oracle.
//!
//! Each client owns a **disjoint key stripe** (`key % clients == id`).
//! The server runs each connection's window as its own `execute` batches,
//! and those batches race one another in the shared index; still, every
//! point response a client receives is deterministic: the FIFO
//! per-connection contract plus stripe disjointness means the oracle can
//! be advanced at send time and compared verbatim at receive time.  The
//! mix covers point ops, interleaved `Ping`s and in-window `Scan`s, whose
//! answers a client checks on its own stripe only, since other stripes'
//! keys interleave nondeterministically.  After the workers join, a
//! paginated `Scan` sweep must reproduce the merged oracles exactly.
//!
//! This test runs in the ThreadSanitizer CI job: the server's
//! drain-coalesce-respond loop, the shared index under multi-connection
//! batches, and the shutdown protocol all race for real here.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bskip_core::BSkipList;
use bskip_net::{Connection, KvServer, Request, Response, ServerConfig, ServerHandle, SharedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What the oracle says the next response must be.
#[derive(Debug, PartialEq)]
enum Expect {
    Pong,
    Point(Option<u64>),
    /// A scan's limit, and the client's own entries in its range when it
    /// was sent.
    Scan {
        limit: usize,
        own: Vec<(u64, u64)>,
    },
}

/// Checks `response` against `expected`; `own_key` tells the client's
/// stripe from the others'.
fn check(expected: Expect, response: Response, own_key: impl Fn(u64) -> bool) {
    match (expected, response) {
        (Expect::Pong, Response::Pong) => {}
        (Expect::Point(None), Response::Missing) => {}
        (Expect::Point(Some(value)), Response::Found { value: got }) => {
            assert_eq!(got, value, "point response diverged from oracle");
        }
        (Expect::Scan { limit, mut own }, Response::Entries { entries }) => {
            assert!(entries.len() <= limit, "scan returned past its limit");
            // A full page covers its range only up to its last key.
            if entries.len() == limit {
                let (last, _) = entries[limit - 1];
                own.retain(|&(key, _)| key <= last);
            }
            let got: Vec<_> = entries
                .into_iter()
                .filter(|&(key, _)| own_key(key))
                .collect();
            assert_eq!(got, own, "scan diverged from oracle on the client's stripe");
        }
        (expected, response) => {
            panic!("oracle expected {expected:?}, server sent {response:?}");
        }
    }
}

/// Drives one striped client against the server; returns its oracle and
/// the number of point-operation frames (not pings or scans) it sent.
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
    let own_key = |key: u64| key % clients == id;

    for i in 0..ops {
        let request = if i % 97 == 0 {
            expected.push_back(Expect::Pong);
            Request::Ping
        } else if i % 17 == 0 {
            // A scan over a few stripes' worth of keys, sometimes cut
            // short by its limit.
            let lo = stripe_key(&mut rng);
            let hi = lo + rng.gen_range(1..8 * clients);
            let limit = rng.gen_range(1..16u32);
            let own = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
            expected.push_back(Expect::Scan {
                limit: limit as usize,
                own,
            });
            Request::Scan { lo, hi, limit }
        } else {
            op_frames += 1;
            let key = stripe_key(&mut rng);
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    expected.push_back(Expect::Point(oracle.get(&key).copied()));
                    Request::Get { key }
                }
                5..=7 => {
                    let value = rng.gen();
                    expected.push_back(Expect::Point(oracle.insert(key, value)));
                    Request::put(key, value)
                }
                _ => {
                    expected.push_back(Expect::Point(oracle.remove(&key)));
                    Request::Del { key }
                }
            }
        };
        conn.send(&request).expect("send");
        while conn.ready() > 0 {
            let next = expected.pop_front().expect("tracked request");
            check(next, conn.recv().expect("recv"), own_key);
        }
    }
    for response in conn.drain().expect("drain") {
        let next = expected.pop_front().expect("tracked request");
        check(next, response, own_key);
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
    // Each point frame is one operation, and the mean coalesced batch is
    // > 1: fewer `execute` calls than point frames, which strict
    // request/response traffic (window 1) never achieves.
    let (batches, batched_ops) = (stat("server_batches"), stat("server_batched_ops"));
    assert!(
        batched_ops == op_frames && batches < op_frames,
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
    // A hash-sharded backend behind the same wire protocol: each
    // coalesced batch splits per shard, and the sub-batches run one after
    // another on the connection's thread; the in-window scans and the
    // quiescent sweep exercise the K-way merging cursor through the
    // protocol.
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
