//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
//!
//! Every log record carries a CRC over its header-after-the-checksum and
//! payload, so recovery can distinguish a torn tail (expected after a
//! crash: truncate and move on) from a complete record; the engine
//! catalog blob carries one too. Implemented here because the container
//! vendors no checksum crate.
//!
//! The classic table-driven CRC folds one byte per table lookup, and each
//! lookup waits on the last. Slicing-by-8 folds eight bytes per step
//! through eight tables, where `TABLES[k][b]` is the register update for
//! byte `b` followed by `k` zero bytes. The eight lookups of a step are
//! independent, so they overlap: a 2 KB page costs about a quarter of the
//! byte loop's time (docs/durability.md, "What an append costs"). The
//! tables (8 KiB) are built at compile time; the values are the byte
//! loop's, bit for bit.

const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = {
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
};

/// `TABLES[k]` indexed by byte `n` of `word`.
#[inline(always)]
fn lookup(k: usize, word: u32, n: u32) -> u32 {
    TABLES[k][((word >> (8 * n)) & 0xFF) as usize]
}

/// CRC-32 of `bytes` (IEEE, as produced by zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let (lo, hi) = chunk.split_at(4);
        let lo = crc ^ u32::from_le_bytes(lo.try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(hi.try_into().expect("4 bytes"));
        crc = lookup(7, lo, 0)
            ^ lookup(6, lo, 1)
            ^ lookup(5, lo, 2)
            ^ lookup(4, lo, 3)
            ^ lookup(3, hi, 0)
            ^ lookup(2, hi, 1)
            ^ lookup(1, hi, 2)
            ^ lookup(0, hi, 3);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: one table, one byte per step.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), good, "flip at {byte}:{bit} undetected");
            }
        }
    }

    proptest! {
        /// Slicing-by-8 equals the byte loop for every length up to 4 KiB
        /// and every start offset into a buffer modulo 8, so each
        /// alignment and each remainder length runs.
        #[test]
        fn slicing_by_8_matches_the_byte_loop(
            buf in proptest::collection::vec(any::<u8>(), 0..4096 + 8),
        ) {
            for start in 0..8.min(buf.len() + 1) {
                let bytes = &buf[start..];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {}", start);
            }
        }
    }
}
