//! CRC-32 (IEEE 802.3, reflected) for WAL record and block integrity.
//!
//! The checksum is on the path of every table read (one whole block per
//! point lookup), every block written by flush and compaction and every
//! WAL frame.  This is the polynomial (0xEDB88320 reflected) of zlib, gzip
//! and LevelDB's log format, which keeps the files externally checkable;
//! the workspace builds offline, so it is implemented here rather than
//! pulled from a crate.
//!
//! Everything is one state-carrying `update(state, bytes) -> state` with
//! two engines under it, selected by what the code can observe — the CPU
//! and the input length — and never by an option:
//!
//! * **Slicing-by-8** (`update_portable`): eight 256-entry tables computed
//!   at compile time, eight input bytes per step through eight independent
//!   lookups, the tail byte at a time.  About 1.4 GB/s.  It is the whole
//!   implementation on CPUs without carry-less multiply, serves every
//!   input shorter than `FOLD_MIN` = 64 bytes and finishes the last < 16
//!   bytes of every longer one.
//! * **Carry-less-multiply folding** (`clmul::fold`, `x86_64` with
//!   `pclmulqdq` + `sse4.1`): Gopal et al., *Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction* (Intel, 2009) — the
//!   algorithm zlib and `crc32fast` ship.  More than ten times the table
//!   loop on a 4 KiB block.
//!
//! # Folding
//!
//! A CRC is the remainder of the message polynomial modulo `P`, and
//! remainders are linear: for a message `A·x^n ⊕ B`, `A` may be replaced
//! by anything congruent to `A·x^n (mod P)`.  With `A` one 128-bit lane
//! split into 64-bit halves `A = Ah·x^64 ⊕ Al`, "fold `A` forward over
//! `n` bits" is
//!
//! ```text
//! Ah · (x^(n+64) mod P)  ⊕  Al · (x^n mod P)  ⊕  B
//! ```
//!
//! — two 64 × 32-bit carry-less multiplies and two XORs, no table, no
//! dependence between lanes.  The kernel keeps four accumulators that each
//! fold over 512 bits per step (64 input bytes, four independent multiply
//! chains), folds the four into one over 128 bits each, folds whole
//! 16-byte lanes while they last, then reduces the 128-bit remainder
//! 128 → 64 → 32 bits by the same identity and finishes with a Barrett
//! reduction (two multiplies by `μ = ⌊x^64 / P⌋` and `P` instead of a
//! division).
//!
//! The CRC is *reflected* (bit 0 of a byte is its highest-degree
//! coefficient), so a little-endian lane load already has the layout the
//! multiplier needs with the roles of "high" and "low" swapped, and a
//! 64 × 64-bit product comes out one bit short of its reflected position.
//! Both are absorbed by the constants: each is the bit-reversed remainder
//! shifted left by one, `(x^n mod P)' << 1`, with `n` = 512 ± 32 for the
//! four-lane step, 128 ± 32 for the one-lane step, 64 for the last
//! 96 → 64-bit fold.  `fold_constant` and `barrett_mu` derive them at
//! compile time from `POLY`; a test pins them to the values Intel's
//! paper and zlib print.
//!
//! # Why short inputs stay portable
//!
//! The kernel needs one 64-byte block to load its four accumulators and
//! pays ≈ 10 dependent multiplies to reduce them, which a table loop beats
//! on a few dozen bytes.  A point operation's WAL payload is ≤ 20 bytes,
//! so below `FOLD_MIN` `update` does not even ask which CPU it runs on.
//!
//! # Safety
//!
//! This module's one `unsafe` block (the crate's other one lets a scan
//! borrow the version it owns, in `engine.rs`) is the dispatcher's call
//! into the `#[target_feature]` kernel, sound because it is made only after
//! `is_x86_feature_detected!` reported both features.  The kernel itself is
//! safe code: every intrinsic it uses takes and returns values (none
//! dereferences a pointer; lanes are loaded with `u128::from_le_bytes` from
//! bounds-checked array chunks), and such intrinsics are safe to call from
//! a function that enables their feature.

/// The generator polynomial, bit-reflected (`x^32` implicit).
const POLY: u32 = 0xEDB8_8320;

/// Inputs shorter than this never reach the folding kernel.
const FOLD_MIN: usize = 64;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE, reflected, init/final XOR `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Whether inputs of 64 bytes and more are checksummed by the
/// carry-less-multiply kernel on this CPU (`false`: slicing-by-8 does
/// everything).  Exported as the engine's `crc_clmul` gauge, so a slow
/// host can be told from a silent fallback.
pub fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Advances the raw CRC register `state` (no init/final XOR) over `bytes`;
/// `update(update(s, a), b) == update(s, a ‖ b)`.
fn update(state: u32, bytes: &[u8]) -> u32 {
    let (state, tail) = if bytes.len() >= FOLD_MIN {
        fold_accelerated(state, bytes)
    } else {
        (state, bytes)
    };
    update_portable(state, tail)
}

/// The folding kernel over the longest prefix of `bytes` it takes (see
/// `clmul::fold`): the register after it and the tail it left — all of
/// `bytes`, untouched, on a CPU without the kernel.
fn fold_accelerated(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if accelerated() {
        // SAFETY: `fold` is safe code whose only requirement is that the
        // CPU implements the `pclmulqdq` and `sse4.1` features it is
        // compiled with, and `accelerated()` has just detected both.
        return unsafe { clmul::fold(state, bytes) };
    }
    (state, bytes)
}

/// Slicing-by-8: one 8-byte word per step, the remainder bytewise.
fn update_portable(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// `(x^n mod P)' << 1`: the multiplier that folds a 64-bit half-lane
/// forward over `n - 32` bits (see *Folding* in the module docs).
#[cfg(any(target_arch = "x86_64", test))]
const fn fold_constant(n: u32) -> u64 {
    // Reflected: bit 31 is x^0 and multiplying by x is a right shift.
    let mut rem = 1u32 << 31;
    let mut i = 0;
    while i < n {
        rem = if rem & 1 != 0 {
            (rem >> 1) ^ POLY
        } else {
            rem >> 1
        };
        i += 1;
    }
    (rem as u64) << 1
}

/// `μ' = ⌊x^64 / P⌋'`, the 33-bit Barrett constant: long division in the
/// natural bit order, reflected at the end.
#[cfg(any(target_arch = "x86_64", test))]
const fn barrett_mu() -> u64 {
    let p = (1u128 << 32) | POLY.reverse_bits() as u128;
    let mut rem = 1u128 << 64;
    let mut quotient = 0u64;
    let mut bit = 64;
    while bit >= 32 {
        if (rem >> bit) & 1 != 0 {
            quotient |= 1 << (bit - 32);
            rem ^= p << (bit - 32);
        }
        bit -= 1;
    }
    quotient.reverse_bits() >> 31
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{barrett_mu, fold_constant, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Four-lane step: fold over 512 bits.
    const K1: u64 = fold_constant(4 * 128 + 32);
    const K2: u64 = fold_constant(4 * 128 - 32);
    /// One-lane step: fold over 128 bits.
    const K3: u64 = fold_constant(128 + 32);
    const K4: u64 = fold_constant(128 - 32);
    /// The last 96 → 64-bit fold.
    const K5: u64 = fold_constant(64);
    /// `P'`, all 33 bits.
    const P: u64 = ((POLY as u64) << 1) | 1;
    const MU: u64 = barrett_mu();

    /// Consumes the longest prefix of `bytes` that is a multiple of 16
    /// bytes and returns the register after it with the unconsumed tail;
    /// an input without one whole 64-byte block is returned untouched.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (lanes, tail) = bytes.as_chunks::<16>();
        let (blocks, singles) = lanes.as_chunks::<4>();
        let Some((first, blocks)) = blocks.split_first() else {
            return (state, bytes);
        };
        let load = |lane: &[u8; 16]| {
            let bits = u128::from_le_bytes(*lane);
            _mm_set_epi64x((bits >> 64) as i64, bits as i64)
        };
        // (Ah·x^(n+64) ⊕ Al·x^n) mod P ⊕ next: `keys` holds the two
        // multipliers, the reflected layout has Ah in the low half.
        let fold_into = |acc: __m128i, next: __m128i, keys: __m128i| {
            let high_degree = _mm_clmulepi64_si128(acc, keys, 0x00);
            let low_degree = _mm_clmulepi64_si128(acc, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(next, high_degree), low_degree)
        };

        // The register enters as the coefficients of the first four bytes.
        let mut acc = first.map(|lane| load(&lane));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        for block in blocks {
            for (acc, lane) in acc.iter_mut().zip(block) {
                *acc = fold_into(*acc, load(lane), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = acc[0];
        for &next in &acc[1..] {
            x = fold_into(x, next, k3k4);
        }
        for lane in singles {
            x = fold_into(x, load(lane), k3k4);
        }

        // 128 → 96 bits (the high-degree half over 64 bits: what is left
        // is the message times x^32, the zero bits a CRC appends) …
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128::<8>(x));
        // … → 64 bits …
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
            _mm_srli_si128::<4>(x),
        );
        // … → 32 bits, Barrett: T1 = ⌊R / x^32⌋·μ, T2 = ⌊T1 / x^32⌋·P,
        // remainder = (R ⊕ T2) mod x^32, which the reflection leaves in
        // the second dword.
        let p_mu = _mm_set_epi64x(MU as i64, P as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (state, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::TestRng;

    /// One engine under test, as a state-carrying update.
    type Engine = fn(u32, &[u8]) -> u32;

    /// The one-byte-per-step form the slicing tables are derived from: the
    /// reference the differential tests hold every engine to.
    fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        crc
    }

    /// The kernel called directly (whatever `bytes.len()`), its tail
    /// finished by the reference so that only the kernel is under test.
    fn update_clmul(state: u32, bytes: &[u8]) -> u32 {
        let (state, tail) = fold_accelerated(state, bytes);
        assert!(tail.len() < 16 || bytes.len() < FOLD_MIN, "the kernel ran");
        update_bytewise(state, tail)
    }

    /// Every engine this host can run, called directly — the portable loop
    /// stays covered on a CLMUL host, where `update` routes around it —
    /// plus the dispatcher itself.
    fn engines() -> Vec<(&'static str, Engine)> {
        let mut engines: Vec<(&'static str, Engine)> =
            vec![("dispatch", update), ("portable", update_portable)];
        if accelerated() {
            engines.push(("clmul", update_clmul));
        }
        engines
    }

    fn random_bytes(rng: &mut TestRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for this polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for the folding kernel (values from zlib): 4 KiB of
        // zeros, of 0xFF, and of the bytes 0..=255 repeated.
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
        assert_eq!(crc32(&[0xFFu8; 4096]), 0xF154_670A);
        let ramp: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
    }

    #[test]
    fn constants_are_the_published_ones() {
        // What Intel's paper, zlib's crc32_simd.c and crc32fast's
        // pclmulqdq.rs print for the IEEE polynomial: k1 … k5 and μ'.
        assert_eq!(fold_constant(4 * 128 + 32), 0x1_5444_2BD4);
        assert_eq!(fold_constant(4 * 128 - 32), 0x1_C6E4_1596);
        assert_eq!(fold_constant(128 + 32), 0x1_7519_97D0);
        assert_eq!(fold_constant(128 - 32), 0x0_CCAA_009E);
        assert_eq!(fold_constant(64), 0x1_63CD_6124);
        assert_eq!(barrett_mu(), 0x1_F701_1641);
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_offset() {
        // Every length across sixteen 64-byte blocks, at every alignment of
        // the first byte within a lane: block loop, lane loop, word loop,
        // byte loop and each hand-over.  Miri runs a cut-down grid.
        let (max_len, random_inputs) = if cfg!(miri) { (200, 2) } else { (1024, 256) };
        let mut rng = TestRng::for_test("crc-differential");
        let buffer = random_bytes(&mut rng, max_len + 16);
        let engines = engines();
        // Shown with --nocapture: which paths this host put under test.
        println!(
            "crc engines: {:?}",
            engines.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        for (name, engine) in engines {
            for offset in 0..16 {
                for len in 0..=max_len {
                    let slice = &buffer[offset..offset + len];
                    assert_eq!(
                        engine(!0, slice),
                        update_bytewise(!0, slice),
                        "{name}: offset {offset} len {len}"
                    );
                }
            }
            // Block- to table-sized random inputs, from a random register.
            for _ in 0..random_inputs {
                let len = rng.gen_range(1024..65_537usize);
                let input = random_bytes(&mut rng, len);
                let state = rng.gen_u64() as u32;
                assert_eq!(
                    engine(state, &input),
                    update_bytewise(state, &input),
                    "{name}: len {len}"
                );
            }
        }
    }

    #[test]
    fn state_carries_over_every_split_point() {
        // update(update(s, a), b) == update(s, a ‖ b): pins the register a
        // kernel hands to the tail loop (and the one it accepts).
        let mut rng = TestRng::for_test("crc-carry-over");
        let input = random_bytes(&mut rng, 300);
        for (name, engine) in engines() {
            for state in [!0, 0, 0x1234_5678] {
                let whole = update_bytewise(state, &input);
                for split in 0..=input.len() {
                    let (a, b) = input.split_at(split);
                    assert_eq!(engine(engine(state, a), b), whole, "{name}: split {split}");
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let payload = b"some record payload with enough bytes to matter";
        let reference = crc32(payload);
        let mut copy = payload.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), reference, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
