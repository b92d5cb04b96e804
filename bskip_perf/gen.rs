//! Seeded input generation: splitmix64, a YCSB-style scrambled zipfian,
//! the key/value encoding, and the per-thread op-stream generator that
//! doubles as the correctness oracle's model.
//!
//! Everything here is a pure function of `--seed`: the program under test
//! sees only the generated operations.

/// Odd multiplier of the self-checking value encoding.
const VALUE_ODD: u64 = 0x9E37_79B9_7F4A_7C15;
/// Index offset of keys that are never inserted (`GetAbsent` targets).
const ABSENT_BASE: u64 = 1 << 40;
/// Model marker: the key is not in the index.
pub const ABSENT: u32 = u32::MAX;
/// `BenchOp::expect` marker: the outcome depends on another thread.
pub const UNKNOWN: u32 = u32::MAX - 1;

/// The splitmix64 finalizer: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 sequence generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// far below anything the benchmark can resolve).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The YCSB zipfian generator (Gray et al.) over ranks `0..items`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0);
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(items);
        let zeta_2 = zeta(2.min(items));
        Zipfian {
            items,
            theta,
            zeta_n,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n),
        }
    }

    /// A popularity rank in `0..items` (0 is the hottest).
    pub fn rank(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.items - 1);
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }
}

/// How `Get` / `PutOver` / `Scan` pick among the preloaded keys.
#[derive(Clone, Debug)]
pub enum KeyDist {
    Uniform,
    /// Scrambled zipfian: a zipfian rank hashed over the key indices, so
    /// the hot keys are spread over the whole structure.
    Zipfian(Zipfian),
}

/// The key/value encoding of one run: key indices are dense, keys are a
/// seed-dependent bijective hash of the index ("hashed order").
#[derive(Clone, Copy, Debug)]
pub struct KeySpace {
    salt: u64,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        KeySpace {
            salt: mix64(seed ^ 0x6B65_7973),
        }
    }

    pub fn key(&self, index: u64) -> u64 {
        mix64(index.wrapping_add(self.salt))
    }
}

/// `key · ODD ^ gen` with `gen < 2^16`: any value read back names the key
/// it belongs to, so a `get` or scan result checks itself.
pub fn value_of(key: u64, gen: u16) -> u64 {
    key.wrapping_mul(VALUE_ODD) ^ gen as u64
}

/// The generation a value carries, or `None` if it is not a value of `key`.
pub fn gen_of(key: u64, value: u64) -> Option<u16> {
    u16::try_from(value ^ key.wrapping_mul(VALUE_ODD)).ok()
}

/// What one generated operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Lookup of a key that is present.
    Get,
    /// Lookup of a key that was never inserted.
    GetAbsent,
    /// Upsert of a new key.
    PutFresh,
    /// Upsert of a present key.
    PutOver,
    /// Removal of a present key.
    Del,
    /// The first 100 entries at or after `key`.
    Scan,
}

/// Latency classes the report groups kinds into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Class {
    Get,
    Put,
    Del,
    Scan,
}

pub const CLASSES: [Class; 4] = [Class::Get, Class::Put, Class::Del, Class::Scan];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Get => "get",
            Class::Put => "put",
            Class::Del => "del",
            Class::Scan => "scan",
        }
    }
}

impl Kind {
    pub fn class(self) -> Class {
        match self {
            Kind::Get | Kind::GetAbsent => Class::Get,
            Kind::PutFresh | Kind::PutOver => Class::Put,
            Kind::Del => Class::Del,
            Kind::Scan => Class::Scan,
        }
    }
}

/// Length every generated scan must return.
pub const SCAN_LEN: usize = 100;

/// One generated operation (16 bytes, so a slice's stream streams
/// through the cache at a quarter line per op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchOp {
    pub key: u64,
    /// Previous generation of the key ([`ABSENT`] if none) when the
    /// generating thread owns it, [`UNKNOWN`] when another thread may
    /// have overwritten it in the meantime.
    pub expect: u32,
    /// Generation to write (puts only).
    pub gen: u16,
    pub kind: Kind,
}

/// Percent shares of one workload's mix; they sum to 100.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mix {
    pub get: u8,
    pub get_absent: u8,
    /// Lookup of a key this thread wrote within the last `RECENT` writes.
    pub get_recent: u8,
    pub put_fresh: u8,
    pub put_over: u8,
    pub del: u8,
    pub scan: u8,
}

impl Mix {
    /// A mix that is all one kind (the per-layer probes replay one kind
    /// at a time).
    pub fn only(kind: Kind) -> Mix {
        let mut mix = Mix::default();
        match kind {
            Kind::Get => mix.get = 100,
            Kind::GetAbsent => mix.get_absent = 100,
            Kind::PutFresh => mix.put_fresh = 100,
            Kind::PutOver => mix.put_over = 100,
            Kind::Del => mix.del = 100,
            Kind::Scan => mix.scan = 100,
        }
        mix
    }
}

/// Ring size of `get_recent`: a tenth of what `lsm_ingest`'s 1 MiB
/// memtable holds, so nine lookups in ten find their key still in the
/// memtable whatever the rotation phase (a ring the size of the memtable
/// would flip the median between a memtable hit and a table read).
const RECENT: usize = 2_500;

/// Per-thread op generator and oracle model.
///
/// Key indices are striped by thread (`index % threads == thread`), so
/// every mutation of a key comes from one thread, the final state does not
/// depend on how threads interleave, and the generator always knows the
/// exact current generation of its own keys.  Preloaded keys are only
/// ever overwritten; deletions take this thread's fresh keys in FIFO
/// order, so the index keeps its size.
pub struct OpGen {
    keys: KeySpace,
    rng: SplitMix,
    mix: Mix,
    dist: KeyDist,
    thread: u64,
    threads: u64,
    preloaded: u64,
    /// Scans start at or below this key, which leaves more than
    /// `SCAN_LEN` never-deleted preloaded keys above every start.
    scan_ceiling: u64,
    /// Current generation per owned key index, by local slot
    /// (`index / threads`); [`ABSENT`] once deleted.
    model: Vec<u32>,
    /// Local slots of live fresh keys are `fresh_head..model.len()`.
    fresh_head: usize,
    recent: Vec<u64>,
    recent_at: usize,
    absent_next: u64,
    /// Operations generated so far, by what they cost the storage layer:
    /// lookups (present, absent and recent), upserts, deletions.
    pub gets: u64,
    pub puts: u64,
    pub dels: u64,
}

impl OpGen {
    /// A generator for `thread` of `threads` over `preloaded` keys that the
    /// set-up inserted with generation 0.
    pub fn new(
        seed: u64,
        thread: usize,
        threads: usize,
        preloaded: u64,
        mix: Mix,
        dist: KeyDist,
    ) -> Self {
        let shares = [
            mix.get,
            mix.get_absent,
            mix.get_recent,
            mix.put_fresh,
            mix.put_over,
            mix.del,
            mix.scan,
        ];
        assert_eq!(shares.iter().map(|&s| s as u32).sum::<u32>(), 100);
        assert!(
            preloaded >= 4096,
            "the scan ceiling needs a populated index"
        );
        let (thread, threads) = (thread as u64, threads as u64);
        let owned = (preloaded + threads - 1 - thread) / threads;
        OpGen {
            keys: KeySpace::new(seed),
            rng: SplitMix::new(mix64(seed) ^ mix64(thread + 1)),
            mix,
            dist,
            thread,
            threads,
            preloaded,
            scan_ceiling: u64::MAX - (u64::MAX / preloaded) * 1024,
            model: vec![0; owned as usize],
            fresh_head: owned as usize,
            recent: Vec::new(),
            recent_at: 0,
            absent_next: 0,
            gets: 0,
            puts: 0,
            dels: 0,
        }
    }

    /// Switches the mix for the operations generated from now on (the
    /// per-layer probes replay one kind at a time on the same model).
    pub fn retarget(&mut self, mix: Mix) -> &mut Self {
        self.mix = mix;
        self
    }

    /// The preload stripe of this thread: `(key, value)` at generation 0.
    pub fn preload(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.thread..self.preloaded)
            .step_by(self.threads as usize)
            .map(|index| {
                let key = self.keys.key(index);
                (key, value_of(key, 0))
            })
    }

    fn index_of(&self, slot: usize) -> u64 {
        slot as u64 * self.threads + self.thread
    }

    /// A preloaded key index, by the workload's distribution.
    fn pick_any(&mut self) -> u64 {
        match &self.dist {
            KeyDist::Uniform => self.rng.below(self.preloaded),
            KeyDist::Zipfian(zipf) => mix64(zipf.rank(&mut self.rng)) % self.preloaded,
        }
    }

    /// A preloaded key index of this thread's stripe.
    fn pick_own(&mut self) -> u64 {
        let index = self.pick_any();
        let own = index - index % self.threads + self.thread;
        if own < self.preloaded {
            own
        } else {
            self.thread
        }
    }

    fn note_write(&mut self, index: u64) {
        if self.mix.get_recent == 0 {
            return;
        }
        if self.recent.len() < RECENT {
            self.recent.push(index);
        } else {
            self.recent[self.recent_at] = index;
            self.recent_at = (self.recent_at + 1) % RECENT;
        }
    }

    fn put_fresh(&mut self) -> BenchOp {
        let index = self.index_of(self.model.len());
        self.model.push(0);
        self.note_write(index);
        self.puts += 1;
        BenchOp {
            key: self.keys.key(index),
            expect: ABSENT,
            gen: 0,
            kind: Kind::PutFresh,
        }
    }

    fn put_over(&mut self) -> BenchOp {
        let index = self.pick_own();
        let slot = (index / self.threads) as usize;
        let previous = self.model[slot];
        let gen = (previous as u16).wrapping_add(1);
        self.model[slot] = gen as u32;
        self.note_write(index);
        self.puts += 1;
        BenchOp {
            key: self.keys.key(index),
            expect: previous,
            gen,
            kind: Kind::PutOver,
        }
    }

    /// Appends `count` operations to `out`, advancing the model as if
    /// they had been applied.
    pub fn generate(&mut self, count: usize, out: &mut Vec<BenchOp>) {
        out.reserve(count);
        let mix = self.mix;
        for _ in 0..count {
            let mut roll = self.rng.below(100) as u8;
            let mut under = |share: u8| {
                let hit = roll < share;
                roll = roll.wrapping_sub(share);
                hit
            };
            let op = if under(mix.get) {
                let index = self.pick_any();
                let expect = if index % self.threads == self.thread {
                    self.model[(index / self.threads) as usize]
                } else {
                    UNKNOWN
                };
                BenchOp {
                    key: self.keys.key(index),
                    expect,
                    gen: 0,
                    kind: Kind::Get,
                }
            } else if under(mix.get_absent) {
                self.absent_next += 1;
                BenchOp {
                    key: self
                        .keys
                        .key(ABSENT_BASE + self.absent_next * self.threads + self.thread),
                    expect: ABSENT,
                    gen: 0,
                    kind: Kind::GetAbsent,
                }
            } else if under(mix.get_recent) {
                if self.recent.is_empty() {
                    self.put_fresh()
                } else {
                    let index = self.recent[self.rng.below(self.recent.len() as u64) as usize];
                    let expect = self.model[(index / self.threads) as usize];
                    BenchOp {
                        key: self.keys.key(index),
                        expect,
                        gen: 0,
                        kind: if expect == ABSENT {
                            Kind::GetAbsent
                        } else {
                            Kind::Get
                        },
                    }
                }
            } else if under(mix.put_fresh) {
                self.put_fresh()
            } else if under(mix.put_over) {
                self.put_over()
            } else if under(mix.del) {
                if self.fresh_head == self.model.len() {
                    // Nothing of ours to delete yet: keep the size moving
                    // the same way a put-fresh/del pair would.
                    self.put_fresh()
                } else {
                    let slot = self.fresh_head;
                    self.fresh_head += 1;
                    let previous = std::mem::replace(&mut self.model[slot], ABSENT);
                    self.dels += 1;
                    BenchOp {
                        key: self.keys.key(self.index_of(slot)),
                        expect: previous,
                        gen: 0,
                        kind: Kind::Del,
                    }
                }
            } else {
                let index = self.pick_any();
                BenchOp {
                    key: self.keys.key(index).min(self.scan_ceiling),
                    expect: UNKNOWN,
                    gen: 0,
                    kind: Kind::Scan,
                }
            };
            self.gets += (op.kind.class() == Class::Get) as u64;
            out.push(op);
        }
    }

    /// Every `(key, value)` this thread's stripe must hold after all
    /// generated operations were applied.
    pub fn expected(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.model
            .iter()
            .enumerate()
            .filter(|(_, &gen)| gen != ABSENT)
            .map(|(slot, &gen)| {
                let key = self.keys.key(self.index_of(slot));
                (key, value_of(key, gen as u16))
            })
    }
}

/// Order-sensitive hash of a stream (the determinism tests compare it).
#[cfg(test)]
pub fn stream_hash(ops: &[BenchOp]) -> u64 {
    ops.iter().fold(0u64, |hash, op| {
        mix64(hash ^ op.key)
            ^ mix64(((op.kind as u64) << 48) | ((op.gen as u64) << 32) | op.expect as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn test_mix() -> Mix {
        Mix {
            get: 40,
            get_absent: 5,
            get_recent: 5,
            put_fresh: 15,
            put_over: 15,
            del: 15,
            scan: 5,
        }
    }

    fn stream(seed: u64, thread: usize) -> Vec<BenchOp> {
        let dist = KeyDist::Zipfian(Zipfian::new(10_000, 0.99));
        let mut gen = OpGen::new(seed, thread, 2, 10_000, test_mix(), dist);
        let mut ops = Vec::new();
        gen.generate(20_000, &mut ops);
        ops
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        assert_eq!(stream_hash(&stream(7, 0)), stream_hash(&stream(7, 0)));
        assert_ne!(stream_hash(&stream(7, 0)), stream_hash(&stream(8, 0)));
        assert_ne!(stream_hash(&stream(7, 0)), stream_hash(&stream(7, 1)));
    }

    #[test]
    fn values_check_themselves() {
        let keys = KeySpace::new(3);
        let key = keys.key(17);
        assert_eq!(gen_of(key, value_of(key, 65_535)), Some(65_535));
        assert_eq!(gen_of(key, value_of(keys.key(18), 0)), None);
    }

    #[test]
    fn model_replays_the_stream() {
        // Applying the stream to a map must end in exactly `expected()`.
        let mut gen = OpGen::new(11, 1, 2, 10_000, test_mix(), KeyDist::Uniform);
        let mut map: std::collections::BTreeMap<u64, u64> = gen.preload().collect();
        let mut ops = Vec::new();
        gen.generate(50_000, &mut ops);
        for op in &ops {
            match op.kind {
                Kind::PutFresh | Kind::PutOver => {
                    let previous = map.insert(op.key, value_of(op.key, op.gen));
                    let expect = previous.map_or(ABSENT, |v| gen_of(op.key, v).unwrap() as u32);
                    assert_eq!(expect, op.expect);
                }
                Kind::Del => {
                    let previous = map.remove(&op.key).expect("deletes hit live keys");
                    assert_eq!(gen_of(op.key, previous).unwrap() as u32, op.expect);
                }
                Kind::Get if op.expect != UNKNOWN => {
                    assert_eq!(gen_of(op.key, map[&op.key]).unwrap() as u32, op.expect);
                }
                Kind::GetAbsent => assert!(!map.contains_key(&op.key)),
                Kind::Get | Kind::Scan => {}
            }
        }
        let expected: std::collections::BTreeMap<u64, u64> = gen.expected().collect();
        assert_eq!(expected, map);
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipfian::new(1000, 0.99);
        let mut rng = SplitMix::new(1);
        let mut hot = 0;
        for _ in 0..10_000 {
            let rank = zipf.rank(&mut rng);
            assert!(rank < 1000);
            hot += (rank < 10) as u32;
        }
        assert!(hot > 3000, "top 1% of ranks drew only {hot} of 10000");
    }
}
