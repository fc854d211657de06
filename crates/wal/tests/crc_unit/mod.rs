//! Unit tests of the CRC32: the zlib vectors, single-bit flips, and the
//! slice-by-8 loop against the bytewise loop it replaced. Compiled into the
//! library's unit-test binary (`src/crc.rs` includes this file by path), so
//! they sit outside the `src` line budget while the suite still names them
//! `crc::tests::…`.

use super::*;
use proptest::prelude::*;

/// The byte-at-a-time loop the eight tables replace, kept as the
/// reference they must agree with.
fn bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn known_vectors() {
    // Standard zlib test vectors, each through both loops.
    for (bytes, want) in [
        (&b""[..], 0x0000_0000),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(crc32(bytes), want);
        assert_eq!(bytewise(bytes), want);
    }
}

#[test]
fn single_bit_flip_changes_checksum() {
    let mut buf = vec![0xA5u8; 64];
    let base = crc32(&buf);
    for i in 0..buf.len() {
        for bit in 0..8 {
            buf[i] ^= 1 << bit;
            assert_ne!(crc32(&buf), base, "flip at byte {i} bit {bit} undetected");
            buf[i] ^= 1 << bit;
        }
    }
}

proptest! {
    /// Eight bytes a step gives the bytewise value at every length and
    /// alignment, so every WAL file keeps its bytes.
    #[test]
    fn slice_by_8_is_the_bytewise_crc(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..5_001),
        skip in 0usize..8,
    ) {
        let tail = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc32(tail), bytewise(tail));
    }
}
