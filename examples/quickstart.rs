//! Quickstart: build a concurrent B-skiplist, fill it from several threads,
//! and use the dictionary operations the paper defines (find, insert,
//! range) — with range queries expressed through the cursor API.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use bskip_suite::{BSkipConfig, BSkipList};

fn main() {
    // The paper's configuration: 2048-byte nodes (128 key/value pairs),
    // promotion probability 1/64, maximum height 5.
    let index: Arc<BSkipList<u64, u64>> =
        Arc::new(BSkipList::with_config(BSkipConfig::paper_default()));

    // Insert one million keys from four threads.
    let threads = 4u64;
    let per_thread = 250_000u64;
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let index = Arc::clone(&index);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let key = thread * per_thread + i;
                    index.insert(key, key * 10);
                }
            });
        }
    });
    println!("inserted {} keys", index.len());
    assert_eq!(index.len() as u64, threads * per_thread);

    // Point lookups (the `find(k)` operation).
    assert_eq!(index.get(&123_456), Some(1_234_560));
    assert_eq!(index.get(&999_999_999), None);
    println!("find(123456) = {:?}", index.get(&123_456));

    // Range scans open a forward cursor over any `RangeBounds`
    // expression.  The paper's `range(k, f, len)` is `scan(k..).take(len)`.
    let window: Vec<(u64, u64)> = index.scan(500_000..).take(5).collect();
    println!("scan(500000..).take(5) = {window:?}");
    assert_eq!(window.len(), 5);
    assert_eq!(window[0].0, 500_000);

    // Bounded scans need no manual termination logic.
    let bounded: Vec<u64> = index.scan(100..=103).map(|(k, _)| k).collect();
    assert_eq!(bounded, vec![100, 101, 102, 103]);

    // A cursor starts at its range's lower bound and moves forward.
    let mut cursor = index.scan(777_000..);
    assert_eq!(cursor.next(), Some((777_000, 7_770_000)));
    assert_eq!(cursor.next(), Some((777_001, 7_770_010)));
    println!("scan(777000..) starts at 777000 and moves forward");

    // `iter` and `FromIterator` round-trip the whole contents.
    let rebuilt: BSkipList<u64, u64> = index.scan(..10).collect();
    assert_eq!(rebuilt.len(), 10);

    // Removal is supported too (symmetric to insertion).
    assert_eq!(index.remove(&500_000), Some(5_000_000));
    assert_eq!(index.get(&500_000), None);
    println!("after remove, len = {}", index.len());

    // Structural invariants can be checked at quiescence.
    index.validate().expect("structure is consistent");
    println!("validate() passed");
}
