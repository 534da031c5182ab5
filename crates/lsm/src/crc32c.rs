//! CRC32C (Castagnoli) with LevelDB-style masking.
//!
//! Implemented in-repo (software, table-driven) to stay within the
//! pre-approved dependency set. The mask makes CRCs of CRC-bearing data
//! (e.g. a log record embedded in another log) not look like valid CRCs.
//!
//! [`extend`] uses *slicing-by-16*: sixteen 256-entry tables (16 KiB,
//! built at compile time) fold sixteen input bytes per step with sixteen
//! independent lookups, instead of one dependent lookup per byte. Bytes
//! past the last whole 16-byte step go through the plain byte loop. The
//! result is bit-identical to the byte-at-a-time definition. Every block
//! and log record is checksummed on write and verified on read, so this
//! loop is on the host-time path of every flush, compaction and cache
//! miss. The SSE4.2 `crc32` instruction would be faster still, but
//! reaching it needs `unsafe` intrinsics, and every crate here is
//! `#![forbid(unsafe_code)]`.

const POLY: u32 = 0x82f6_3b78; // reflected CRC32C polynomial

/// Bytes folded per slicing step (and number of tables).
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let (steps, tail) = data.as_chunks::<SLICE>();
    for b in steps {
        // The running CRC folds into the first four bytes; byte `i` of the
        // step is followed by `15 - i` more bytes, hence table `15 - i`.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xff) as usize]
            ^ t[14][((x >> 8) & 0xff) as usize]
            ^ t[13][((x >> 16) & 0xff) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in tail {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// LevelDB's CRC mask: rotate right 15 bits and add a constant.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask`].
pub fn unmask(masked: u32) -> u32 {
    let rot = masked.wrapping_sub(MASK_DELTA);
    rot.rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bit-at-a-time CRC32C: the definition `extend` must
    /// match, sharing no table with it.
    fn reference(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic bytes from a seed (xorshift), so long inputs are
    /// cheap to generate.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32C test vectors (RFC 3720 appendix B.4 et al.).
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113f_db5c);
    }

    #[test]
    fn extend_equals_whole() {
        let data = b"hello world";
        let partial = extend(crc32c(b"hello"), b" world");
        assert_eq!(partial, crc32c(data));
    }

    #[test]
    fn every_length_around_the_step_matches_reference() {
        let data = bytes(7, 3 * SLICE + 1);
        for len in 0..=data.len() {
            assert_eq!(
                crc32c(&data[..len]),
                reference(0, &data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn slicing_matches_reference(
            seed in any::<u64>(),
            len in 0usize..9001,
            offset in 0usize..SLICE,
            crc in any::<u32>(),
        ) {
            let buf = bytes(seed, offset + len);
            let data = &buf[offset..];
            prop_assert_eq!(extend(crc, data), reference(crc, data));
        }

        #[test]
        fn extend_at_any_split_equals_whole(
            seed in any::<u64>(),
            len in 0usize..9001,
            split in any::<usize>(),
        ) {
            let data = bytes(seed, len);
            let (a, b) = data.split_at(split % (len + 1));
            prop_assert_eq!(extend(crc32c(a), b), crc32c(&data));
        }
    }

    #[test]
    fn distinct_inputs_distinct_crcs() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        assert_ne!(crc32c(b""), crc32c(b"a"));
    }

    #[test]
    fn mask_roundtrip() {
        for data in [&b"foo"[..], b"bar", b"", b"\x00\x01\x02"] {
            let crc = crc32c(data);
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc, "mask must change the value");
        }
    }
}
