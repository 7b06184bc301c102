//! In-repo integrity hashes: CRC-32 (IEEE) for record framing and
//! FNV-1a/64 for content hashes over snapshot state.
//!
//! Both are implemented here rather than pulled from a crate so the
//! on-disk format depends on nothing but this repository — a store
//! written today must stay readable by every future build.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup
/// tables for slicing-by-8: `TABLES[0]` is the classic byte-at-a-time
/// table, and `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of a chain of eight dependent ones.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
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
};

/// Fold `bytes` into a running (pre-inverted) CRC state, eight bytes
/// per step and the tail one byte at a time.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE) of `bytes` — the per-record checksum in the segment
/// format.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// FNV-1a 64-bit hash of `bytes` — the content hash stamped over each
/// snapshot's serialized case state.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC-32 this crate shipped before slicing-by-8:
    /// the reference the fast path must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_eight_equals_the_bytewise_reference() {
        // Seeded bytes (an LCG), every length across nine 8-byte steps.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let bytes: Vec<u8> = (0..72)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            let whole = crc32_bytewise(&bytes[..len]);
            assert_eq!(crc32(&bytes[..len]), whole, "length {len}");
            // Any two-call split folds to the same state.
            for split in 0..=len {
                let state = crc32_update(crc32_update(!0, &bytes[..split]), &bytes[split..len]);
                assert_eq!(!state, whole, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Offset basis for the empty input; published vector for "a".
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"deterministic record body".to_vec();
        let crc = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), crc, "flip at byte {i} bit {bit}");
            }
        }
    }
}
