//! Byte encodings for keys, values and the integer framing primitives.
//!
//! Everything the engine persists — WAL records, SSTable blocks, manifest
//! counters — reduces to two encodings:
//!
//! * [`Persist`] — how a key or value type serializes itself.  The memtable
//!   already requires [`Racy`] (a torn copy is still a value); durability
//!   additionally needs a byte round trip.  Implementations must be
//!   **order-preserving** for key types (`a < b` ⟺ `encode(a) < encode(b)`
//!   lexicographically), which is what makes the SSTable's restart-point
//!   prefix compression and block index meaningful: neighbouring keys
//!   share prefixes exactly when they are numerically close.  Fixed-width big-endian encodings of the unsigned
//!   integers have this property for free; `i64` applies the usual
//!   sign-flip.
//! * LEB128-style **uvarints** ([`put_uvarint`] / [`get_uvarint`]) for the
//!   in-block length fields (shared/unshared key lengths, value lengths),
//!   where small numbers dominate and fixed 4-byte fields would double the
//!   size of a block of 16-byte entries.

use bskip_sync::Racy;

use crate::bloom::bloom_hash;

/// A type that can round-trip through a byte encoding.
///
/// Key implementations must be order-preserving (see the module docs);
/// value implementations only need the round trip.
pub trait Persist: Racy {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from exactly `bytes` (the full slice must be
    /// consumed).  Returns `None` on any malformation — durability code
    /// treats that as corruption, never as a panic.
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Encoded size in bytes (used for memtable accounting and block
    /// budgeting).  The default encodes into a scratch buffer; fixed-width
    /// types override it with a constant.
    fn encoded_len(&self) -> usize {
        let mut scratch = Vec::new();
        self.encode(&mut scratch);
        scratch.len()
    }

    /// The bloom filters' hash of a key: [`bloom_hash`] of its encoding,
    /// computed once per engine operation and checked against every
    /// memtable's and every table's filter.  The default encodes into the
    /// calling thread's probe buffer; fixed-width types override it to
    /// hash their bytes on the stack.  An override must return what the
    /// default does, or the filters will turn away keys they hold.
    fn filter_hash(&self) -> u32 {
        crate::sstable::encoded_filter_hash(self)
    }
}

impl Persist for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_be_bytes(bytes.try_into().ok()?))
    }

    fn encoded_len(&self) -> usize {
        8
    }

    fn filter_hash(&self) -> u32 {
        bloom_hash(&self.to_be_bytes())
    }
}

impl Persist for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_be_bytes(bytes.try_into().ok()?))
    }

    fn encoded_len(&self) -> usize {
        4
    }

    fn filter_hash(&self) -> u32 {
        bloom_hash(&self.to_be_bytes())
    }
}

impl Persist for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        // Flip the sign bit so the byte order matches the numeric order
        // (two's-complement negatives would otherwise sort above
        // positives).
        out.extend_from_slice(&(*self as u64 ^ (1 << 63)).to_be_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let raw = u64::from_be_bytes(bytes.try_into().ok()?);
        Some((raw ^ (1 << 63)) as i64)
    }

    fn encoded_len(&self) -> usize {
        8
    }

    fn filter_hash(&self) -> u32 {
        (*self as u64 ^ (1 << 63)).filter_hash()
    }
}

/// Appends `value` as a LEB128 unsigned varint (7 bits per byte, high bit
/// set on continuation bytes).
pub fn put_uvarint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads a uvarint from the front of `bytes`, returning the value and the
/// number of bytes consumed; `None` when the encoding is truncated or runs
/// past 64 bits (more than ten bytes, or a tenth byte above 1).  A
/// non-minimal encoding, such as `0x88 0x00` for 8, is accepted.
pub fn get_uvarint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in bytes.iter().enumerate().take(10) {
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            // The 10th byte may only contribute the final bit.
            if i == 9 && byte > 1 {
                return None;
            }
            return Some((value, i + 1));
        }
    }
    None
}

/// The longest common prefix of two byte strings, in bytes (drives the
/// SSTable's restart-point prefix compression).
pub fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug + Copy>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        assert_eq!(buf.len(), value.encoded_len());
        assert_eq!(T::decode(&buf), Some(value));
        // A stack-hashing override agrees with the encoding's hash.
        assert_eq!(value.filter_hash(), bloom_hash(&buf), "{value:?}");
    }

    #[test]
    fn integers_round_trip() {
        for value in [0u64, 1, 0xFF, u64::MAX, 0xDEAD_BEEF_0BAD_F00D] {
            round_trip(value);
        }
        for value in [0u32, 7, u32::MAX] {
            round_trip(value);
        }
        for value in [i64::MIN, -1, 0, 1, i64::MAX] {
            round_trip(value);
        }
    }

    #[test]
    fn encodings_preserve_order() {
        let mut previous: Option<Vec<u8>> = None;
        for value in [0u64, 1, 255, 256, 1 << 32, u64::MAX] {
            let mut buf = Vec::new();
            value.encode(&mut buf);
            if let Some(prev) = &previous {
                assert!(prev < &buf, "u64 order must be byte order");
            }
            previous = Some(buf);
        }
        let mut previous: Option<Vec<u8>> = None;
        for value in [i64::MIN, -1_000_000, -1, 0, 1, i64::MAX] {
            let mut buf = Vec::new();
            value.encode(&mut buf);
            if let Some(prev) = &previous {
                assert!(prev < &buf, "i64 order must survive the sign flip");
            }
            previous = Some(buf);
        }
    }

    #[test]
    fn decode_rejects_wrong_width() {
        assert_eq!(u64::decode(&[0; 7]), None);
        assert_eq!(u64::decode(&[0; 9]), None);
        assert_eq!(u32::decode(&[0; 8]), None);
    }

    #[test]
    fn uvarint_round_trips() {
        for value in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, value);
            let (decoded, used) = get_uvarint(&buf).unwrap();
            assert_eq!(decoded, value);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overlong() {
        assert_eq!(get_uvarint(&[]), None);
        assert_eq!(get_uvarint(&[0x80]), None);
        assert_eq!(get_uvarint(&[0x80; 10]), None);
        // An 11-byte continuation chain can never be a valid u64.
        assert_eq!(get_uvarint(&[0xFF; 11]), None);
        // Non-minimal, but neither truncated nor past 64 bits.
        assert_eq!(get_uvarint(&[0x88, 0x00]), Some((8, 2)));
    }

    #[test]
    fn shared_prefix_lengths() {
        assert_eq!(shared_prefix(b"", b""), 0);
        assert_eq!(shared_prefix(b"abc", b"abd"), 2);
        assert_eq!(shared_prefix(b"abc", b"abc"), 3);
        assert_eq!(shared_prefix(b"abc", b"abcd"), 3);
        assert_eq!(shared_prefix(b"x", b"y"), 0);
    }
}
