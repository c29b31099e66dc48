//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-16.
//!
//! Every log record carries a CRC over its header-after-the-checksum and
//! payload, so recovery can distinguish a torn tail (expected after a
//! crash: truncate and move on) from a complete record; the engine
//! catalog blob carries one too. Implemented here because the container
//! vendors no checksum crate.
//!
//! The classic table-driven CRC folds one byte per table lookup, and each
//! lookup waits on the last. Slicing-by-16 folds sixteen bytes per step
//! through sixteen tables, where `TABLES[k][b]` is the register update
//! for byte `b` followed by `k` zero bytes. The sixteen lookups of a step
//! are independent, so they overlap; a step carries one dependent lookup
//! chain per sixteen bytes, half the eight-table form's, which takes
//! about a quarter off a page's CRC (docs/durability.md, "What an append
//! costs"). The tables (16 KiB) are built at compile time; the values are
//! the byte loop's, bit for bit.

const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
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
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let w = |i: usize| u32::from_le_bytes(chunk[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        let (a, b, c, d) = (crc ^ w(0), w(1), w(2), w(3));
        crc = lookup(15, a, 0)
            ^ lookup(14, a, 1)
            ^ lookup(13, a, 2)
            ^ lookup(12, a, 3)
            ^ lookup(11, b, 0)
            ^ lookup(10, b, 1)
            ^ lookup(9, b, 2)
            ^ lookup(8, b, 3)
            ^ lookup(7, c, 0)
            ^ lookup(6, c, 1)
            ^ lookup(5, c, 2)
            ^ lookup(4, c, 3)
            ^ lookup(3, d, 0)
            ^ lookup(2, d, 1)
            ^ lookup(1, d, 2)
            ^ lookup(0, d, 3);
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
        /// Slicing-by-16 equals the byte loop for every length up to
        /// 4 KiB and every start offset into a buffer modulo 16, so each
        /// alignment and each remainder length runs.
        #[test]
        fn slicing_by_16_matches_the_byte_loop(
            buf in proptest::collection::vec(any::<u8>(), 0..4096 + 16),
        ) {
            for start in 0..16.min(buf.len() + 1) {
                let bytes = &buf[start..];
                prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {}", start);
            }
        }
    }
}
