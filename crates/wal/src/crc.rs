//! CRC32 (IEEE 802.3 polynomial, the zlib/gzip variant) — the record
//! checksum of the write-ahead log. Slice-by-8: eight tables, computed at
//! compile time, fold eight bytes per step; no external dependency.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so the eight lookups of one step each carry
/// their byte across the rest of the word.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    while i < 8 * 256 {
        let c = t[i / 256 - 1][i % 256];
        t[i / 256][i % 256] = (c >> 8) ^ t[0][(c & 0xFF) as usize];
        i += 1;
    }
    t
}

/// CRC32 of `bytes` (initial value and final xor both `0xFFFF_FFFF`, as in
/// zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = u64::from(c) ^ u64::from_le_bytes(w.try_into().expect("eight bytes"));
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k) & 0xFF) as usize]);
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// The unit tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/crc_unit/mod.rs"]
mod tests;
