//! The B-skiplist as a network KV service: `bskip-net` end to end.
//!
//! Everything else in this workspace exercises the index in process; this
//! example runs the full client/server loop on a real loopback socket:
//!
//! 1. an in-process [`KvServer`] is bound to an ephemeral port over a
//!    `BSkipList` (any [`ConcurrentIndex`] works — swap in `LsmEngine`
//!    for a durable service);
//! 2. a strict request/response client does point ops;
//! 3. a **pipelined** client keeps a window of requests in flight, which
//!    the server drains as a unit and coalesces into single `execute`
//!    batches — one EBR pin for a window's worth of frames;
//! 4. a `Scan` pages an ordered range back over the wire, and `Stats`
//!    shows the server-side counters (batch sizes prove the coalescing
//!    actually happened).
//!
//! Run with: `cargo run --release --example kv_service`

use bskip_suite::{BSkipList, Connection, KvServer, Request, ServerConfig};

fn main() {
    // 1. Server over a fresh B-skiplist on an ephemeral loopback port.
    // `bind` is generic over any `ConcurrentIndex`, so the engine goes in
    // directly — swap in `LsmEngine` for durability, or a `ShardedIndex`
    // for a partitioned backend; no Arc-juggling either way.
    let server = KvServer::bind(
        BSkipList::<u64, u64>::new(),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let handle = server.spawn().expect("spawn accept loop");
    println!("server listening on {}", handle.addr());

    // 2. Strict request/response point ops.
    let mut conn = Connection::connect(handle.addr()).expect("connect");
    assert_eq!(conn.put(7, 700).expect("put"), None);
    assert_eq!(conn.get(7).expect("get"), Some(700));
    assert_eq!(conn.del(7).expect("del"), Some(700));
    assert_eq!(conn.get(7).expect("get after del"), None);
    println!("point ops: put/get/del round-tripped");

    // 3. Pipelined writes: a deep in-flight window lets the server drain
    // many frames per socket read and fold them into one `execute`.
    let mut pipelined = Connection::connect_windowed(handle.addr(), 64).expect("connect pipelined");
    for key in 0..10_000u64 {
        pipelined.send(&Request::put(key, key * 10)).expect("send");
    }
    let responses = pipelined.drain().expect("drain window");
    assert_eq!(responses.len(), 10_000);
    println!("pipelined: 10000 puts streamed through a 64-deep window");

    // 4. An ordered range back over the wire.
    let page = conn.scan(100, 110, 100).expect("scan");
    assert_eq!(page.len(), 10);
    assert_eq!(page[0], (100, 1000));
    println!("scan [100, 110): {page:?}");

    // Server-side stats: the coalescing counters are the proof that the
    // pipelined window became multi-op batches.
    let stats = handle.stats();
    let stat = |name: &str| stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    println!(
        "server saw {} requests; largest coalesced batch {} ops, {} batched ops over {} executes",
        stat("server_requests"),
        stat("server_max_batch"),
        stat("server_batched_ops"),
        stat("server_batches"),
    );
    assert!(
        stat("server_max_batch") > 1,
        "the pipelined window must coalesce"
    );

    handle.shutdown();
    println!("server shut down cleanly");
}
