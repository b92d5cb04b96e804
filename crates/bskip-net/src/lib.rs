//! A pipelined network KV service over the [`bskip_index`] trait surface.
//!
//! This crate is the workspace's LevelDB→service step: it puts any
//! [`bskip_index::ConcurrentIndex`] — the B-skiplist, a baseline, or the
//! durable `bskip-lsm` engine — behind a TCP socket speaking a compact
//! length-prefixed binary protocol, and exploits the trait's batched
//! [`execute`](bskip_index::ConcurrentIndex::execute) path to turn client
//! pipelining into server-side **group commit**:
//!
//! ```text
//! driver ──frames──▶ socket ──▶ FrameDecoder ──▶ [Get, Put, Del, …] run
//!   ▲  (window of N                                   │ coalesce
//!   │   in flight)                                    ▼
//!   └──────────── responses ◀── one execute(&mut [Op]) per run of point
//!                                requests (one EBR pin / one WAL record);
//!                                Scan/Stats answered between the runs
//! ```
//!
//! Module map: [`proto`] (frames, request/response types, the incremental
//! decoder), [`server`] (blocking thread-per-connection server with
//! request coalescing), [`client`] (pipelined windowed connection).
//! The loadgen is the `svc_pipe` workload of `bskip_perf/`,
//! which owns the benchmark-harness machinery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientOptions, Connection, DEFAULT_WINDOW};
pub use proto::{
    ErrorCode, FrameDecoder, ProtoError, Request, Response, MAX_FRAME_LEN, MAX_SCAN_LIMIT,
};
pub use server::{KvServer, ServerConfig, ServerHandle, ServerStats, SharedIndex};

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use bskip_core::BSkipList;

    use crate::client::Connection;
    use crate::proto::{ErrorCode, Request, Response};
    use crate::server::{KvServer, ServerConfig};

    fn start_server(config: ServerConfig) -> crate::server::ServerHandle {
        // `bind` is generic over the backend: the concrete engine goes
        // straight in, no Arc at the call site.
        KvServer::bind(BSkipList::<u64, u64>::new(), ("127.0.0.1", 0), config)
            .expect("bind")
            .spawn()
            .expect("spawn")
    }

    #[test]
    fn point_ops_scan_and_stats_roundtrip() {
        let handle = start_server(ServerConfig::default());
        let mut conn = Connection::connect(handle.addr()).expect("connect");

        conn.ping().expect("ping");
        assert_eq!(conn.put(1, 10).unwrap(), None);
        assert_eq!(conn.put(1, 11).unwrap(), Some(10));
        assert_eq!(conn.get(1).unwrap(), Some(11));
        assert_eq!(conn.get(2).unwrap(), None);
        assert_eq!(conn.del(1).unwrap(), Some(11));
        assert_eq!(conn.del(1).unwrap(), None);

        for key in 0..100u64 {
            conn.put(key, key * 2).unwrap();
        }
        let window = conn.scan(10, 20, 100).unwrap();
        assert_eq!(window, (10..20).map(|k| (k, k * 2)).collect::<Vec<_>>());
        let capped = conn.scan(0, 100, 7).unwrap();
        assert_eq!(capped.len(), 7);

        let stats = conn.stats().unwrap();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("stat {name} missing"))
        };
        assert_eq!(get("index_len"), 100);
        assert!(get("server_requests") > 0);
        assert_eq!(get("server_scans"), 2);
        handle.shutdown();
    }

    #[test]
    fn sharded_backend_serves_scans_and_aggregated_stats() {
        use bskip_index::{ConcurrentIndex, ShardedIndex};

        // A hash-sharded B-skiplist behind the wire: scans cross shards
        // (served by the merging cursor) and the Stats opcode reports the
        // per-shard rollup through the merge API.
        let sharded: Arc<ShardedIndex<u64, u64, BSkipList<u64, u64>>> =
            Arc::new(ShardedIndex::hash(4, |_| BSkipList::new()));
        let handle =
            KvServer::bind_shared(sharded.clone(), ("127.0.0.1", 0), ServerConfig::default())
                .expect("bind")
                .spawn()
                .expect("spawn");
        let mut conn = Connection::connect(handle.addr()).expect("connect");
        for key in 0..100u64 {
            conn.put(key, key * 3).unwrap();
        }
        // Hash sharding interleaves adjacent keys across shards, so a
        // contiguous window exercises the K-way merge end to end.
        let window = conn.scan(10, 30, 100).unwrap();
        assert_eq!(window, (10..30).map(|k| (k, k * 3)).collect::<Vec<_>>());

        let stats = conn.stats().unwrap();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("stat {name} missing"))
        };
        assert_eq!(get("shards"), 4);
        assert_eq!(get("index_len"), 100);
        assert!(get("sharded_merge_scans") >= 1);
        assert_eq!(sharded.len(), 100);
        handle.shutdown();
    }

    #[test]
    fn a_full_scan_page_is_answered_with_the_rest_of_its_window() {
        use crate::proto::MAX_SCAN_LIMIT;

        // More entries than the largest page, so the scan fills its limit.
        let list = BSkipList::<u64, u64>::new();
        for key in 0..u64::from(MAX_SCAN_LIMIT) + 10 {
            list.insert(key, key + 1);
        }
        let handle = KvServer::bind(list, ("127.0.0.1", 0), ServerConfig::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut conn = Connection::connect_windowed(handle.addr(), 2).expect("connect");
        conn.send(&Request::put(5, 50)).unwrap();
        let (lo, hi, limit) = (0, u64::MAX, MAX_SCAN_LIMIT);
        conn.send(&Request::Scan { lo, hi, limit }).unwrap();
        let responses = conn
            .drain()
            .expect("both requests of the window are answered");
        assert_eq!(responses[0], Response::Found { value: 6 });
        match &responses[1] {
            Response::Entries { entries } => assert_eq!(entries.len(), MAX_SCAN_LIMIT as usize),
            other => panic!("expected a full page, got {other:?}"),
        }
        assert_eq!(conn.get(5).unwrap(), Some(50));
        handle.shutdown();
    }

    #[test]
    fn pipelined_window_coalesces_server_side() {
        let handle = start_server(ServerConfig::default());
        let mut conn = Connection::connect_windowed(handle.addr(), 64).expect("connect");

        let total = 512u64;
        for key in 0..total {
            conn.send(&Request::put(key, key + 1)).unwrap();
        }
        let responses = conn.drain().unwrap();
        assert_eq!(responses.len(), total as usize);
        assert!(responses.iter().all(|r| matches!(r, Response::Missing)));

        let stats = handle.stats();
        let get = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
        let batches = get("server_batches");
        let batched_ops = get("server_batched_ops");
        assert_eq!(batched_ops, total);
        // Pipelining must actually coalesce: far fewer execute calls
        // than requests, and at least one multi-op batch.
        assert!(
            batches < total && get("server_max_batch") > 1,
            "no coalescing observed: batches={batches} ops={batched_ops}"
        );
        handle.shutdown();
    }

    #[test]
    fn connection_cap_rejects_with_busy() {
        let handle = start_server(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let mut first = Connection::connect(handle.addr()).expect("connect");
        first.ping().expect("held connection works");
        // The second connection must be turned away with a Busy frame.
        let mut second = Connection::connect(handle.addr()).expect("tcp connect");
        match second.call(&Request::Ping) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Busy),
            Ok(other) => panic!("expected Busy, got {other:?}"),
            // The server may close before the ping is written; that is
            // also a rejection.
            Err(_) => {}
        }
        first.ping().expect("held connection still works");
        handle.shutdown();
    }

    /// Frames the server answers with one `Malformed` error and a close:
    /// an unknown opcode, and the protocol's older Put (with a
    /// value-length field) and retired `Batch` opcode.
    fn malformed_frames() -> [Vec<u8>; 3] {
        let frame = |body: &[u8]| [&(body.len() as u32).to_le_bytes()[..], body].concat();
        let key = 7u64.to_le_bytes();
        [
            frame(&[0x7F]),
            frame(&[&[0x03][..], &key, &8u32.to_le_bytes(), &70u64.to_le_bytes()].concat()),
            frame(&[&[0x05][..], &1u32.to_le_bytes(), &[0], &key].concat()),
        ]
    }

    /// Writes `window` and then the raw `tail` in one write, and decodes
    /// every answer until the server closes the connection.
    fn answers_until_close(
        raw: &mut std::net::TcpStream,
        window: &[Request],
        tail: &[u8],
    ) -> Vec<Response> {
        use std::io::{Read as _, Write as _};
        let mut bytes = Vec::new();
        for request in window {
            crate::proto::encode_request(request, &mut bytes).unwrap();
        }
        bytes.extend_from_slice(tail);
        raw.write_all(&bytes).unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let mut decoder = crate::FrameDecoder::new();
        decoder.extend(&buf);
        let mut responses = Vec::new();
        while let Some(response) = decoder.decode_response().unwrap() {
            responses.push(response);
        }
        responses
    }

    #[test]
    fn malformed_frame_gets_error_then_close() {
        let handle = start_server(ServerConfig::default());
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        match answers_until_close(&mut raw, &[], &[1, 0, 0, 0, 0x7F]).as_slice() {
            [Response::Error { code, .. }] => assert_eq!(*code, ErrorCode::Malformed),
            other => panic!("expected one error frame, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn requests_before_a_malformed_frame_are_answered_before_the_error() {
        use std::io::{Read as _, Write as _};
        for tail in malformed_frames() {
            let handle = start_server(ServerConfig::default());
            // A healthy window first, so the connection's write buffer
            // holds stale bytes when the poisoned window arrives.
            let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
            let mut bytes = Vec::new();
            crate::proto::encode_request(&Request::Ping, &mut bytes).unwrap();
            raw.write_all(&bytes).unwrap();
            let mut pong = [0u8; 5];
            raw.read_exact(&mut pong).unwrap();

            // One write: Put 7, Get 7, then the malformed frame.
            let window = [Request::put(7, 70), Request::Get { key: 7 }];
            match answers_until_close(&mut raw, &window, &tail).as_slice() {
                [Response::Missing, Response::Found { value: 70 }, Response::Error { code, .. }] => {
                    assert_eq!(*code, ErrorCode::Malformed)
                }
                other => panic!("expected Missing, Found, Error{{Malformed}}; got {other:?}"),
            }

            // The mutation was applied exactly once.
            let mut conn = Connection::connect(handle.addr()).expect("connect");
            assert_eq!(conn.put(7, 71).unwrap(), Some(70));
            let stats = conn.stats().unwrap();
            let get = |name: &str| stats.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(get("index_len"), 1);
            assert_eq!(get("server_batched_ops"), 3);
            handle.shutdown();
        }
    }

    /// Wraps an in-memory index with a switchable degraded flag, standing
    /// in for an LSM engine whose WAL failed.
    struct DegradedSwitch {
        inner: BSkipList<u64, u64>,
        degraded: std::sync::atomic::AtomicBool,
    }

    impl bskip_index::ConcurrentIndex<u64, u64> for DegradedSwitch {
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            self.inner.insert(key, value)
        }
        fn get(&self, key: &u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn remove(&self, key: &u64) -> Option<u64> {
            self.inner.remove(key)
        }
        fn scan_bounds(
            &self,
            lo: std::ops::Bound<u64>,
            hi: std::ops::Bound<u64>,
        ) -> bskip_index::Cursor<'_, u64, u64> {
            self.inner.scan_bounds(lo, hi)
        }
        fn len(&self) -> usize {
            bskip_index::ConcurrentIndex::len(&self.inner)
        }
        fn name(&self) -> &'static str {
            "degraded-switch"
        }
        fn degraded(&self) -> bool {
            self.degraded.load(std::sync::atomic::Ordering::Acquire)
        }
    }

    #[test]
    fn degraded_backend_rejects_writes_with_unavailable() {
        use std::sync::atomic::Ordering;

        let backend = Arc::new(DegradedSwitch {
            inner: BSkipList::new(),
            degraded: std::sync::atomic::AtomicBool::new(false),
        });
        let handle =
            KvServer::bind_shared(backend.clone(), ("127.0.0.1", 0), ServerConfig::default())
                .expect("bind")
                .spawn()
                .expect("spawn");
        let mut conn = Connection::connect(handle.addr()).expect("connect");

        // Healthy: everything works.
        conn.ping().expect("ping while healthy");
        assert_eq!(conn.put(1, 10).unwrap(), None);

        backend.degraded.store(true, Ordering::Release);

        // Mutations and pings now answer Unavailable on a healthy
        // connection (not a protocol error — the socket stays up).
        for request in [Request::Ping, Request::put(2, 20), Request::Del { key: 1 }] {
            match conn.call(&request).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unavailable),
                other => panic!("expected Unavailable for {request:?}, got {other:?}"),
            }
        }
        // Read-only traffic is still served.
        assert_eq!(conn.get(1).unwrap(), Some(10));
        assert_eq!(conn.scan(0, 100, 10).unwrap(), vec![(1, 10)]);
        let stats = conn.stats().unwrap();
        let unavailable = stats
            .iter()
            .find(|(n, _)| n == "server_unavailable")
            .map(|(_, v)| *v)
            .expect("server_unavailable stat");
        assert_eq!(unavailable, 3);

        // Recovery clears the rejection without reconnecting.
        backend.degraded.store(false, Ordering::Release);
        conn.ping().expect("ping after recovery");
        assert_eq!(conn.put(2, 20).unwrap(), None);
        handle.shutdown();
    }

    /// A window the backend rejects *while executing it* — the WAL append
    /// of this very window fails, after the server saw a healthy engine —
    /// leaves every result slot `Pending`.  None of it was applied, so
    /// none of it may be acknowledged: not the put as "stored fresh", not
    /// the get of a present key as "absent".
    #[test]
    fn a_window_the_backend_rejects_is_answered_unavailable_not_missing() {
        use bskip_lsm::{FaultFs, LsmConfig, LsmEngine};

        let serve = |fs: &FaultFs| {
            let engine: LsmEngine<u64, u64> =
                LsmEngine::open_with(Arc::new(fs.clone()), "/db", LsmConfig::small()).unwrap();
            engine.try_insert(5, 50).unwrap();
            KvServer::bind(engine, ("127.0.0.1", 0), ServerConfig::default())
                .expect("bind")
                .spawn()
                .expect("spawn")
        };
        fn unavailable(response: &Response) -> bool {
            let unavailable = ErrorCode::Unavailable;
            matches!(response, Response::Error { code, .. } if *code == unavailable)
        }

        // Two point requests in one write, hence one window, one batch.
        let fs = FaultFs::new();
        let handle = serve(&fs);
        let mut conn = Connection::connect_windowed(handle.addr(), 8).expect("connect");
        fs.fail_nth_write(1, std::io::ErrorKind::StorageFull);
        conn.send(&Request::put(7, 70)).unwrap();
        conn.send(&Request::Get { key: 5 }).unwrap();
        let responses = conn.drain().unwrap();
        assert!(
            responses.len() == 2 && responses.iter().all(unavailable),
            "a dropped put and an unanswered get were acknowledged: {responses:?}"
        );
        // The engine is read-only now, and still has what it had.
        assert_eq!(conn.get(5).unwrap(), Some(50));
        assert_eq!(conn.get(7).unwrap(), None);
        let stats = handle.stats();
        let counted = stats.iter().find(|(n, _)| n == "server_unavailable");
        assert_eq!(counted.map(|(_, v)| *v), Some(2));
        handle.shutdown();

        // A scan ends the rejected run: it is served off what the engine
        // has, and the read-only run after it is answered.
        let fs = FaultFs::new();
        let handle = serve(&fs);
        let mut conn = Connection::connect_windowed(handle.addr(), 8).expect("connect");
        fs.fail_nth_write(1, std::io::ErrorKind::StorageFull);
        let (lo, hi, limit) = (0, 10, 10);
        conn.send(&Request::put(7, 70)).unwrap();
        conn.send(&Request::Scan { lo, hi, limit }).unwrap();
        conn.send(&Request::Get { key: 5 }).unwrap();
        let responses = conn.drain().unwrap();
        match responses.as_slice() {
            [put, Response::Entries { entries }, Response::Found { value: 50 }]
                if unavailable(put) && entries == &[(5, 50)] => {}
            other => panic!("expected Unavailable, the scan without 7, Found 50; got {other:?}"),
        }
        handle.shutdown();
    }

    /// A window's requests take effect in the order sent: a scan sees the
    /// writes sent before it and none sent after it, and so does `Stats`.
    #[test]
    fn a_window_takes_effect_in_the_order_sent() {
        let handle = start_server(ServerConfig::default());
        let mut conn = Connection::connect_windowed(handle.addr(), 8).expect("connect");
        let scan = Request::Scan {
            lo: 0,
            hi: 10,
            limit: 100,
        };
        let window = [
            Request::put(5, 50),
            scan.clone(),
            Request::put(6, 60),
            scan,
            Request::Stats,
        ];
        for request in &window {
            conn.send(request).unwrap();
        }
        let responses = conn.drain().unwrap();
        let entries = |entries: &[(u64, u64)]| Response::Entries {
            entries: entries.to_vec(),
        };
        assert_eq!(
            responses[..4],
            [
                Response::Missing,
                entries(&[(5, 50)]),
                Response::Missing,
                entries(&[(5, 50), (6, 60)]),
            ]
        );
        match &responses[4] {
            Response::Stats { entries } => {
                let index_len = entries.iter().find(|(name, _)| name == "index_len");
                assert_eq!(index_len.map(|(_, len)| *len), Some(2));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        handle.shutdown();
    }

    /// What a sequential per-connection oracle answers to `request`;
    /// `Stats` answers with the one entry the check compares, `index_len`.
    fn oracle_answer(oracle: &mut BTreeMap<u64, u64>, request: &Request) -> Response {
        let point =
            |value: Option<u64>| value.map_or(Response::Missing, |value| Response::Found { value });
        match request {
            Request::Ping => Response::Pong,
            Request::Get { key } => point(oracle.get(key).copied()),
            Request::Put { key, value } => point(oracle.insert(*key, *value)),
            Request::Del { key } => point(oracle.remove(key)),
            Request::Scan { lo, hi, limit } => Response::Entries {
                entries: oracle
                    .range(lo..hi)
                    .take(*limit as usize)
                    .map(|(key, value)| (*key, *value))
                    .collect(),
            },
            Request::Stats => Response::Stats {
                entries: vec![("index_len".into(), oracle.len() as u64)],
            },
        }
    }

    /// A random window over a dozen keys, so that gets, deletes and scans
    /// meet the window's own writes.  One window in four ends with one of
    /// the [`malformed_frames`], named by its index.
    fn window_strategy() -> impl proptest::strategy::Strategy<Value = (Vec<Request>, Option<usize>)>
    {
        use proptest::prelude::*;
        let key = || 0u64..12;
        let request = prop_oneof![
            4 => key().prop_map(|key| Request::Get { key }),
            4 => (key(), any::<u64>()).prop_map(|(key, value)| Request::put(key, value)),
            2 => key().prop_map(|key| Request::Del { key }),
            2 => (key(), 0u64..8, 1u32..8).prop_map(|(lo, span, limit)| Request::Scan {
                lo,
                hi: lo + span,
                limit,
            }),
            1 => (0u64..1).prop_map(|_| Request::Stats),
            1 => (0u64..1).prop_map(|_| Request::Ping),
        ];
        (proptest::collection::vec(request, 1..24), 0usize..12)
            .prop_map(|(window, tail)| (window, (tail < 3).then_some(tail)))
    }

    /// Sends each window in one write and checks every answer against the
    /// oracle, advanced one request at a time.  A window with a malformed
    /// tail goes out on a connection of its own, which must answer every
    /// request, then one `Malformed` error frame, then close.
    fn windows_match_the_oracle(
        index: crate::SharedIndex,
        windows: &[(Vec<Request>, Option<usize>)],
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let handle = KvServer::bind(index, ("127.0.0.1", 0), ServerConfig::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut conn = Connection::connect_windowed(handle.addr(), 32).expect("connect");
        let mut oracle = BTreeMap::new();
        for (window, tail) in windows {
            let responses = match tail {
                None => {
                    for request in window {
                        conn.send(request).unwrap();
                    }
                    conn.drain().unwrap()
                }
                Some(tail) => {
                    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
                    let mut responses =
                        answers_until_close(&mut raw, window, &malformed_frames()[*tail]);
                    let error = responses.pop();
                    prop_assert!(
                        matches!(
                            error,
                            Some(Response::Error {
                                code: ErrorCode::Malformed,
                                ..
                            })
                        ),
                        "expected a Malformed error frame last, got {:?}",
                        error
                    );
                    responses
                }
            };
            prop_assert_eq!(responses.len(), window.len());
            for (request, response) in window.iter().zip(responses) {
                let response = match response {
                    Response::Stats { entries } => Response::Stats {
                        entries: entries
                            .into_iter()
                            .filter(|(name, _)| name == "index_len")
                            .collect(),
                    },
                    response => response,
                };
                prop_assert_eq!(
                    response,
                    oracle_answer(&mut oracle, request),
                    "{:?}",
                    request
                );
            }
        }
        handle.shutdown();
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn random_windows_match_a_sequential_oracle(
            windows in proptest::collection::vec(window_strategy(), 1..4),
        ) {
            windows_match_the_oracle(Arc::new(BSkipList::<u64, u64>::new()), &windows)?;
            let sharded = bskip_index::ShardedIndex::hash(2, |_| BSkipList::<u64, u64>::new());
            windows_match_the_oracle(Arc::new(sharded), &windows)?;
            // A memtable of three writes and a compaction every
            // second flush, so the windows' scans read versions that
            // rotation, flush and compaction keep replacing.
            let config = bskip_lsm::LsmConfig {
                memtable_bytes: 96,
                l0_compaction_trigger: 2,
                ..bskip_lsm::LsmConfig::small()
            };
            let fs = Arc::new(bskip_lsm::FaultFs::new());
            let lsm = bskip_lsm::LsmEngine::<u64, u64>::open_with(fs, "/db", config).unwrap();
            windows_match_the_oracle(Arc::new(lsm), &windows)?;
        }
    }

    #[test]
    fn client_read_timeout_fires_on_silent_server() {
        use crate::client::ClientOptions;
        use std::io::ErrorKind;

        // A listener that accepts and then says nothing.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || listener.accept().map(|(stream, _)| stream));

        let mut conn = Connection::connect_with(
            addr,
            ClientOptions {
                window: 1,
                read_timeout: Some(std::time::Duration::from_millis(100)),
                write_timeout: Some(std::time::Duration::from_millis(100)),
            },
        )
        .expect("connect");
        let error = conn.call(&Request::Ping).expect_err("must time out");
        assert!(
            matches!(error.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
            "expected a timeout, got {error:?}"
        );
        drop(sink.join());
    }

    #[test]
    fn reconnect_resets_pipeline_against_live_server() {
        let handle = start_server(ServerConfig::default());
        let mut conn = Connection::connect(handle.addr()).expect("connect");
        conn.put(7, 70).unwrap();
        // Leave a request un-drained, then reconnect: the pipeline resets
        // (the orphaned response is lost by contract) and the fresh
        // socket works immediately.
        conn.send(&Request::Get { key: 7 }).unwrap();
        assert_eq!(conn.in_flight(), 1);
        conn.reconnect().expect("reconnect");
        assert_eq!(conn.in_flight(), 0);
        assert_eq!(conn.ready(), 0);
        assert_eq!(conn.get(7).unwrap(), Some(70));
        handle.shutdown();
    }

    #[test]
    fn shutdown_unblocks_parked_connections() {
        let handle = start_server(ServerConfig {
            poll_interval: std::time::Duration::from_millis(10),
            ..ServerConfig::default()
        });
        let mut conn = Connection::connect(handle.addr()).expect("connect");
        conn.ping().expect("ping");
        // The connection is parked in a read; shutdown must still return
        // promptly (bounded by the poll interval).
        handle.shutdown();
        // Its thread answers at most the one window that wakes it, then
        // leaves: a client that keeps it busy is not served for ever.
        let failed = (0..8).any(|_| conn.ping().is_err());
        assert!(failed, "pings kept succeeding against a shut-down server");
    }
}
