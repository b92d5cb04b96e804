//! CRC-32 (IEEE 802.3, reflected) for WAL record and block integrity.
//!
//! The workspace builds offline, so the checksum is implemented here rather
//! than pulled from a crate: table-driven **slicing-by-8** — eight
//! 256-entry tables computed at compile time, eight input bytes folded per
//! step through eight independent lookups, the tail byte at a time.  The
//! checksum is on the path of every table read (one whole block per point
//! lookup), every block written by flush and compaction and every WAL
//! frame, and the word-at-a-time form costs about a quarter of the classic
//! one-byte loop on a 4 KiB block.  This is the same polynomial
//! (0xEDB88320 reflected) used by zlib, gzip and LevelDB's log format,
//! which keeps the WAL frames externally checkable.

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
                (crc >> 1) ^ 0xEDB8_8320
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
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
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
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::TestRng;

    /// The one-byte-per-step form the slicing tables are derived from: the
    /// reference the differential tests hold [`crc32`] to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
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
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_offset() {
        // Every length across several 8-byte words, at every alignment of
        // the first byte: the word loop, the tail loop and their hand-over.
        let mut rng = TestRng::for_test("crc-differential");
        let buffer: Vec<u8> = (0..80).map(|_| rng.gen_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        // Block-sized random inputs.
        for _ in 0..64 {
            let len = rng.gen_range(1024..8193usize);
            let input: Vec<u8> = (0..len).map(|_| rng.gen_u64() as u8).collect();
            assert_eq!(crc32(&input), crc32_bytewise(&input), "len {len}");
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
