//! Per-table bloom filters for the SSTable read path.
//!
//! A point lookup that misses every memtable consults one table per level
//! (plus every L0 table); without a filter each consultation costs a block
//! read and a decode.  The classic LSM fix (bLSM, LevelDB) is a per-table
//! bloom filter over the key bytes: ~10 bits per key gives a ≈1% false
//! positive rate, so cold misses touch almost no blocks.
//!
//! The implementation is LevelDB's double-hashing scheme: one 32-bit base
//! hash, a rotation-derived delta, `k` probes at `h + i·delta`.  Serialized
//! form: `[k: u8][bit bytes…]`, embedded in the table file and checked via
//! [`Bloom::may_contain`] before any block is read.  Every table hashes
//! the same encoded key bytes the same way, so the engine computes one
//! base hash per key per lookup and probes each table's filter with it —
//! and each memtable's in-memory key filter (`memtable.rs`), which is
//! blocked to one word per key and built from the same hash.

/// A serializable bloom filter over encoded key bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    probes: u8,
    bits: Vec<u8>,
}

/// FNV-1a-style 32-bit hash over the encoded key (seeded so the filter
/// hash is independent of hashes used elsewhere).
pub fn bloom_hash(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5 ^ 0xA5A5_5A5A;
    for &byte in bytes {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    // Final avalanche so short keys spread over the whole word.
    hash ^= hash >> 16;
    hash = hash.wrapping_mul(0x85EB_CA6B);
    hash ^= hash >> 13;
    hash
}

impl Bloom {
    /// Builds a filter for `hashes` (one [`bloom_hash`] per key) at
    /// `bits_per_key` bits of budget per key.
    pub fn build(hashes: &[u32], bits_per_key: usize) -> Self {
        // k = bits_per_key · ln 2, clamped to a sane range.
        let probes = ((bits_per_key as f64 * 0.69) as u8).clamp(1, 30);
        let bit_count = (hashes.len() * bits_per_key).max(64);
        let bytes = bit_count.div_ceil(8);
        let mut bits = vec![0u8; bytes];
        let bit_count = (bytes * 8) as u32;
        for &hash in hashes {
            let mut h = hash;
            let delta = h.rotate_right(15) | 1;
            for _ in 0..probes {
                let bit = h % bit_count;
                bits[(bit / 8) as usize] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        Bloom { probes, bits }
    }

    /// Whether the key hashing to `hash` may be in the table (false ⇒
    /// definitely absent).
    pub fn may_contain(&self, hash: u32) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        let bit_count = (self.bits.len() * 8) as u32;
        let mut h = hash;
        let delta = h.rotate_right(15) | 1;
        for _ in 0..self.probes {
            let bit = h % bit_count;
            if self.bits[(bit / 8) as usize] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    /// Serialized form: `[probes: u8][bit bytes…]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.bits.len());
        out.push(self.probes);
        out.extend_from_slice(&self.bits);
        out
    }

    /// Decodes a serialized filter; `None` on malformation.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (&probes, bits) = bytes.split_first()?;
        (1..=30).contains(&probes).then(|| Bloom {
            probes,
            bits: bits.to_vec(),
        })
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Persist;

    fn hash_of(key: u64) -> u32 {
        let mut buf = Vec::new();
        key.encode(&mut buf);
        bloom_hash(&buf)
    }

    #[test]
    fn no_false_negatives() {
        let hashes: Vec<u32> = (0..10_000u64).map(hash_of).collect();
        let bloom = Bloom::build(&hashes, 10);
        for &hash in &hashes {
            assert!(bloom.may_contain(hash));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let hashes: Vec<u32> = (0..10_000u64).map(hash_of).collect();
        let bloom = Bloom::build(&hashes, 10);
        let false_positives = (10_000..110_000u64)
            .map(hash_of)
            .filter(|&h| bloom.may_contain(h))
            .count();
        // 10 bits/key targets ~1%; allow generous slack for hash quality.
        assert!(
            false_positives < 3_000,
            "false positive rate too high: {false_positives}/100000"
        );
    }

    #[test]
    fn round_trips_through_bytes() {
        let hashes: Vec<u32> = (0..100u64).map(hash_of).collect();
        let bloom = Bloom::build(&hashes, 10);
        let encoded = bloom.encode();
        assert_eq!(encoded.len(), bloom.encoded_len());
        let decoded = Bloom::decode(&encoded).unwrap();
        assert_eq!(decoded, bloom);
        for &hash in &hashes {
            assert!(decoded.may_contain(hash));
        }
        assert_eq!(Bloom::decode(&[]), None);
        assert_eq!(Bloom::decode(&[0, 1, 2]), None, "0 probes is invalid");
        assert_eq!(Bloom::decode(&[31, 1, 2]), None, "31 probes is invalid");
    }

    #[test]
    fn empty_filter_admits_everything() {
        let bloom = Bloom::build(&[], 10);
        // An empty table's filter never reports false negatives (trivially)
        // and its tiny floor allocation keeps may_contain well-defined.
        let _ = bloom.may_contain(hash_of(1));
    }
}
