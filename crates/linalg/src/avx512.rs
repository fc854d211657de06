//! AVX-512 kernels for x86-64: only the bodies that measure ahead of
//! [`crate::x86`]'s AVX2 ones.
//!
//! The f32 bodies — `sq_norm2`, `norm1`, `dot4` and its `dot4x4` tile —
//! keep the AVX2 numerical contract (exact `f32 → f64` widening, `f64` FMA
//! accumulation) with 8-wide `f64` vectors: one `vcvtps2pd zmm, ymm`
//! widens 8 floats at a time. Horizontal reduction uses
//! `_mm512_reduce_add_pd` (a shuffle tree, order fixed per width), so
//! results can differ from the other backends by O(ε) — covered by the
//! tolerance contract in [`crate::dispatch`]. `dot4` is 3–10 % ahead of
//! AVX2; it stays because `dot4x4`, 1.8–2× ahead, is defined as its bits.
//! `dot`, `sq_dist` and `sq_dist4` have no body here, and the avx512 table
//! carries the AVX2 ones, as it does for `nearest_col` and
//! `max_scaled_sum`: 8-wide `dot` and `sq_dist` measured level with AVX2
//! or slower at d = 64, 128 and 300, and `sq_dist4`, 12 % ahead at d = 64
//! and 4 % at 300, serves only `sq_dist_col`'s rows past 16 floats, which
//! projected rows reach only when `m` is set past the default
//! (`tests/col_kernel_rates.rs`).
//!
//! Safety: reachable only through the dispatch table, which installs the
//! avx512 table strictly after `is_x86_feature_detected!` succeeds for
//! `avx512f`, `avx2` and `fma` — the last two for the AVX2 bodies the
//! table shares — and the BW and VNNI bodies after their own checks.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use crate::scalar::{check_col_shape, col_long};
use crate::x86::min_len5;

/// Widens 8 packed `f32`s to one 8-wide `f64` vector.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn widen8(p: *const f32) -> __m512d {
    _mm512_cvtps_pd(_mm256_loadu_ps(p))
}

#[target_feature(enable = "avx512f")]
unsafe fn sq_norm2_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    let mut acc = [_mm512_setzero_pd(); 4];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            let v = widen8(ap.add(base + lane * 8));
            *slot = _mm512_fmadd_pd(v, v, *slot);
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        let v = widen8(ap.add(i));
        acc[0] = _mm512_fmadd_pd(v, v, acc[0]);
        i += 8;
    }
    let mut sum = _mm512_reduce_add_pd(_mm512_add_pd(
        _mm512_add_pd(acc[0], acc[1]),
        _mm512_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let x = *ap.add(j) as f64;
        sum += x * x;
    }
    sum
}

#[target_feature(enable = "avx512f")]
unsafe fn norm1_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    let mut acc = [_mm512_setzero_pd(); 4];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            *slot = _mm512_add_pd(*slot, _mm512_abs_pd(widen8(ap.add(base + lane * 8))));
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        acc[0] = _mm512_add_pd(acc[0], _mm512_abs_pd(widen8(ap.add(i))));
        i += 8;
    }
    let mut sum = _mm512_reduce_add_pd(_mm512_add_pd(
        _mm512_add_pd(acc[0], acc[1]),
        _mm512_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        sum += (*ap.add(j)).abs() as f64;
    }
    sum
}

#[target_feature(enable = "avx512f")]
unsafe fn dot4_body(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4: dimension mismatch"
    );
    let n = min_len5(a0, a1, a2, a3, b);
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    // One widened load of `b` feeds four FMAs.
    let mut acc = [_mm512_setzero_pd(); 4];
    let chunks = n / 8;
    for i in 0..chunks {
        let vb = widen8(bp.add(i * 8));
        for (r, &rp) in rows.iter().enumerate() {
            acc[r] = _mm512_fmadd_pd(widen8(rp.add(i * 8)), vb, acc[r]);
        }
    }
    let mut out = [
        _mm512_reduce_add_pd(acc[0]),
        _mm512_reduce_add_pd(acc[1]),
        _mm512_reduce_add_pd(acc[2]),
        _mm512_reduce_add_pd(acc[3]),
    ];
    for i in chunks * 8..n {
        let x = *bp.add(i) as f64;
        for (r, &rp) in rows.iter().enumerate() {
            out[r] += *rp.add(i) as f64 * x;
        }
    }
    out
}

/// [`dot4_body`] for four right-hand sides at once: accumulator `[i][j]`
/// runs `dot4_body(b[0], .., b[3], a[i])`'s chain `j` — the same lanes, the
/// same fused multiply-adds in the same order (a product does not depend on
/// the order of its factors), the same reduction and the same scalar tail —
/// so every output has that call's bits. Each step widens eight vectors for
/// sixteen FMAs where four `dot4`s widen twenty.
///
/// # Safety
/// Requires avx512f; reads are clamped to the shortest of the eight rows.
#[target_feature(enable = "avx512f")]
unsafe fn dot4x4_body(a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f64; 4]; 4] {
    debug_assert!(
        a.iter().chain(&b).all(|r| r.len() == a[0].len()),
        "dot4x4: dimension mismatch"
    );
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for another — clamp to the shortest operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.iter().chain(&b).map(|r| r.len()).min().unwrap_or(0);
    let (ap, bp) = (a.map(<[f32]>::as_ptr), b.map(<[f32]>::as_ptr));
    let mut acc = [[_mm512_setzero_pd(); 4]; 4];
    let chunks = n / 8;
    for c in 0..chunks {
        let vb = [
            widen8(bp[0].add(c * 8)),
            widen8(bp[1].add(c * 8)),
            widen8(bp[2].add(c * 8)),
            widen8(bp[3].add(c * 8)),
        ];
        for (i, &p) in ap.iter().enumerate() {
            let va = widen8(p.add(c * 8));
            for j in 0..4 {
                acc[i][j] = _mm512_fmadd_pd(vb[j], va, acc[i][j]);
            }
        }
    }
    // Plain loops, not `map`: its closures compile to calls that take each
    // accumulator through memory, which doubles the time of a d = 300 tile.
    let mut out = [[0.0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            out[i][j] = _mm512_reduce_add_pd(acc[i][j]);
        }
    }
    for t in chunks * 8..n {
        for (i, &p) in ap.iter().enumerate() {
            let x = *p.add(t) as f64;
            for j in 0..4 {
                out[i][j] += *bp[j].add(t) as f64 * x;
            }
        }
    }
    out
}

// --- 8-bit quantized (SQ8) kernels ------------------------------------------
//
// 512-bit versions of the integer tier in [`crate::x86`]. The BW bodies
// widen 32 u8 codes to i16 per `vpmovzxbw` and reduce through the
// non-saturating `vpmaddwd` (see the AVX2 file for why `maddubs` is
// rejected); the VNNI bodies multiply 64 u8 × i8 codes per `vpdpbusd`,
// which sums each dword's four products in i32 — also without saturation
// (the saturating form is `vpdpbusds`). Every body ends in one masked load
// of the ragged tail instead of a scalar loop. `dispatch` detects BW and
// VNNI once at table-selection time and installs the widest bodies present
// (the AVX2 ones without BW), so F-only silicon stays sound with zero
// per-call cost.

/// Mask selecting the first `live` of sixteen lanes.
#[inline]
fn lane_mask(live: usize) -> __mmask16 {
    if live >= 16 {
        0xFFFF
    } else {
        (1u16 << live) - 1
    }
}

/// The next up-to-64 codes at `p`: a plain load while at least 64 remain,
/// else a masked one — lanes past `live` read as zero and are not touched.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn load64(p: *const u8, live: usize) -> __m512i {
    if live >= 64 {
        _mm512_loadu_si512(p as *const __m512i)
    } else {
        _mm512_maskz_loadu_epi8((1u64 << live) - 1, p as *const i8)
    }
}

/// The next up-to-32 codes at `p`, like [`load64`].
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn load32(p: *const u8, live: usize) -> __m256i {
    if live >= 32 {
        _mm256_loadu_si256(p as *const __m256i)
    } else {
        _mm512_castsi512_si256(_mm512_maskz_loadu_epi8((1u64 << live) - 1, p as *const i8))
    }
}

/// The next up-to-32 u8 codes at `p` widened to i16 lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn widen32_u8(p: *const u8, live: usize) -> __m512i {
    _mm512_cvtepu8_epi16(load32(p, live))
}

/// The next up-to-32 i8 codes at `p` sign-extended to i16 lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn widen32_i8(p: *const i8, live: usize) -> __m512i {
    _mm512_cvtepi8_epi16(load32(p as *const u8, live))
}

/// Horizontal sums of four i32 accumulators at once: two unpack-and-add
/// rounds transpose the partial sums inside each 128-bit lane, then the four
/// lanes fold — 13 µops against four `reduce_add` shuffle trees.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn reduce4_epi32(acc: [__m512i; 4]) -> [i32; 4] {
    let t01 = _mm512_add_epi32(
        _mm512_unpacklo_epi32(acc[0], acc[1]),
        _mm512_unpackhi_epi32(acc[0], acc[1]),
    );
    let t23 = _mm512_add_epi32(
        _mm512_unpacklo_epi32(acc[2], acc[3]),
        _mm512_unpackhi_epi32(acc[2], acc[3]),
    );
    let lanes = _mm512_add_epi32(
        _mm512_unpacklo_epi64(t01, t23),
        _mm512_unpackhi_epi64(t01, t23),
    );
    let half = _mm256_add_epi32(
        _mm512_castsi512_si256(lanes),
        _mm512_extracti64x4_epi64::<1>(lanes),
    );
    let sums = _mm_add_epi32(
        _mm256_castsi256_si128(half),
        _mm256_extracti128_si256::<1>(half),
    );
    let mut out = [0i32; 4];
    _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, sums);
    out
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn dot4_i8_body(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4_i8: dimension mismatch"
    );
    let n = min_len5(a0, a1, a2, a3, b);
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    let mut acc = [_mm512_setzero_si512(); 4];
    let mut i = 0;
    while i < n {
        let vb = widen32_i8(bp.add(i), n - i);
        for (r, &rp) in rows.iter().enumerate() {
            let va = widen32_u8(rp.add(i), n - i);
            acc[r] = _mm512_add_epi32(acc[r], _mm512_madd_epi16(va, vb));
        }
        i += 32;
    }
    reduce4_epi32(acc)
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn dot_i8_body(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    // Soundness: clamp to the shortest operand (see dot4x4_body).
    let n = b.len().min(a.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm512_setzero_si512();
    let mut i = 0;
    while i < n {
        let va = widen32_u8(ap.add(i), n - i);
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(va, widen32_i8(bp.add(i), n - i)));
        i += 32;
    }
    _mm512_reduce_add_epi32(acc)
}

#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot4_i8_vnni_body(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4_i8: dimension mismatch"
    );
    let n = min_len5(a0, a1, a2, a3, b);
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    // One load of 64 query codes feeds four `vpdpbusd`s.
    let mut acc = [_mm512_setzero_si512(); 4];
    let mut i = 0;
    while i < n {
        let vb = load64(bp.add(i) as *const u8, n - i);
        for (r, &rp) in rows.iter().enumerate() {
            acc[r] = _mm512_dpbusd_epi32(acc[r], load64(rp.add(i), n - i), vb);
        }
        i += 64;
    }
    reduce4_epi32(acc)
}

#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_i8_vnni_body(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    // Soundness: clamp to the shortest operand (see dot4x4_body).
    let n = b.len().min(a.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm512_setzero_si512();
    let mut i = 0;
    while i < n {
        let vb = load64(bp.add(i) as *const u8, n - i);
        acc = _mm512_dpbusd_epi32(acc, load64(ap.add(i), n - i), vb);
        i += 64;
    }
    _mm512_reduce_add_epi32(acc)
}

// --- The screen's column kernel ----------------------------------------------
//
// Code rows of half, one or two cache lines need no tail handling at all:
// sixteen rows go through each step with one load of the query's 64 (VNNI)
// or 32 (BW) codes, and their sixteen accumulators are summed across lanes
// *together* — one transposing reduction and one store per sixteen rows,
// where the blocked kernel pays a reduction, a return through memory and a
// dispatch per four. Half-line rows (the prefix column of a 64-byte head)
// go two to a VNNI load against the query loaded twice, so sixteen rows
// cost eight `vpdpbusd`s and half a reduction. Wider rows amortize those
// over more codes and run sixteen strided streams poorly: measured on this
// tier, the blocked loop is level at 192 codes and ahead at 320 (8.3
// against 9.7 ns per row with VNNI, 10.9 against 15.2 without), so it
// keeps them.

/// Widths the sixteen-row bodies take: half, one or two cache lines.
#[inline]
fn col_lines(w: usize) -> bool {
    w == 32 || w == 64 || w == 128
}

/// Sums each 128-bit lane of four i32 accumulators: lane `l` of the result
/// holds, in dword `r`, the total of `a[r]`'s four dwords in lane `l`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn quad_epi32(a: &[__m512i]) -> __m512i {
    let t01 = _mm512_add_epi32(
        _mm512_unpacklo_epi32(a[0], a[1]),
        _mm512_unpackhi_epi32(a[0], a[1]),
    );
    let t23 = _mm512_add_epi32(
        _mm512_unpacklo_epi32(a[2], a[3]),
        _mm512_unpackhi_epi32(a[2], a[3]),
    );
    _mm512_add_epi32(
        _mm512_unpacklo_epi64(t01, t23),
        _mm512_unpackhi_epi64(t01, t23),
    )
}

/// Sums each of sixteen i32 accumulators across its lanes: lane `r` of the
/// result is the total of `acc[r]`. Four [`reduce4_epi32`]-style in-lane
/// transposes, then a 4 × 4 transpose-and-add of the 128-bit lanes.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn reduce16_epi32(acc: &[__m512i; 16]) -> __m512i {
    // Each 128-bit lane of `quad(g)` holds that lane's partial sums of
    // accumulators 4g .. 4g + 3.
    let quad = |g: usize| quad_epi32(&acc[4 * g..4 * g + 4]);
    // Lanes (x0 + x2, x1 + x3, y0 + y2, y1 + y3) of two quads x, y.
    let fold = |x: __m512i, y: __m512i| {
        _mm512_add_epi32(
            _mm512_shuffle_i32x4::<0x44>(x, y),
            _mm512_shuffle_i32x4::<0xEE>(x, y),
        )
    };
    let (ab, cd) = (fold(quad(0), quad(1)), fold(quad(2), quad(3)));
    _mm512_add_epi32(
        _mm512_shuffle_i32x4::<0x88>(ab, cd),
        _mm512_shuffle_i32x4::<0xDD>(ab, cd),
    )
}

/// The column loop shared by the two bodies below: `step(acc, row, q)` adds
/// the products of the `STEP` codes at `row` and `q` to `acc`.
///
/// # Safety
/// Requires avx512f (and what `step` requires), `q.len() == w`,
/// `w % STEP == 0` and `rows.len() == out.len() * w` (checked by the safe
/// wrappers).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn dot_col_i8_lines<const STEP: usize>(
    rows: &[u8],
    w: usize,
    q: &[i8],
    out: &mut [i32],
    step: impl Fn(__m512i, *const u8, *const i8) -> __m512i,
) {
    let n = out.len();
    let mut i = 0;
    while i < n {
        let live = (n - i).min(16);
        // SAFETY: row i + r, r < live, is the w bytes at (i + r)·w, inside
        // `rows`; the rows past `live` of a last partial block are not read.
        let base = rows.as_ptr().add(i * w);
        let mut acc = [_mm512_setzero_si512(); 16];
        for at in (0..w).step_by(STEP) {
            for (r, slot) in acc[..live].iter_mut().enumerate() {
                *slot = step(*slot, base.add(r * w + at), q.as_ptr().add(at));
            }
        }
        _mm512_mask_storeu_epi32(
            out.as_mut_ptr().add(i),
            lane_mask(live),
            reduce16_epi32(&acc),
        );
        i += 16;
    }
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn dot_col_i8_body(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    dot_col_i8_lines::<32>(rows, w, q, out, |acc, row, q| {
        let va = _mm512_cvtepu8_epi16(_mm256_loadu_si256(row as *const __m256i));
        let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(q as *const __m256i));
        _mm512_add_epi32(acc, _mm512_madd_epi16(va, vb))
    })
}

/// The VNNI column body for 32-code rows: each 64-byte load holds rows
/// `2j` and `2j + 1` of a sixteen-row block and meets the query in both
/// halves, so pair `j`'s row `2j` sum sits in 128-bit lanes 0–1 of its
/// accumulator and row `2j + 1`'s in lanes 2–3.
///
/// # Safety
/// Requires avx512f, avx512bw and avx512vnni, `q.len() == 32` and
/// `rows.len() == out.len() * 32` (checked by the safe wrapper).
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_col_i8_vnni_halves(rows: &[u8], q: &[i8], out: &mut [i32]) {
    let qq = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.as_ptr() as *const __m256i));
    // The folded sums hold rows 0, 2, 4, 6, 1, 3, 5, 7, 8, 10, … in dword
    // order; `order` gathers row `r` into dword `r`.
    let order = _mm512_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15);
    let n = out.len();
    let mut i = 0;
    while i < n {
        let live = (n - i).min(16);
        // SAFETY: the block's live rows are the `32·live` bytes at `32·i`,
        // inside `rows`; a pair past them is masked to its live bytes (none
        // at all past the last, whose address is never dereferenced).
        let base = rows.as_ptr().add(i * 32);
        let mut acc = [_mm512_setzero_si512(); 8];
        for (j, slot) in acc.iter_mut().enumerate() {
            let bytes = (32 * live).saturating_sub(64 * j);
            *slot = _mm512_dpbusd_epi32(*slot, load64(base.wrapping_add(64 * j), bytes), qq);
        }
        // Lane l of `x` (`y`) holds in dword r the lane-l sum of pair r
        // (4 + r); lanes (x0 + x1, x2 + x3, y0 + y1, y2 + y3) are the even
        // rows 0–6, odd rows 1–7, even rows 8–14 and odd rows 9–15.
        let (x, y) = (quad_epi32(&acc[..4]), quad_epi32(&acc[4..]));
        let sums = _mm512_add_epi32(
            _mm512_shuffle_i32x4::<0x88>(x, y),
            _mm512_shuffle_i32x4::<0xDD>(x, y),
        );
        _mm512_mask_storeu_epi32(
            out.as_mut_ptr().add(i),
            lane_mask(live),
            _mm512_permutexvar_epi32(order, sums),
        );
        i += 16;
    }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_col_i8_vnni_body(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    dot_col_i8_lines::<64>(rows, w, q, out, |acc, row, q| {
        _mm512_dpbusd_epi32(
            acc,
            _mm512_loadu_si512(row as *const __m512i),
            _mm512_loadu_si512(q as *const __m512i),
        )
    })
}

/// # Safety
/// Requires avx512f.
#[target_feature(enable = "avx512f")]
unsafe fn max_i32_runs_body(v: &[i32], bounds: &[usize], out: &mut [i32]) {
    for (o, run) in out.iter_mut().zip(bounds.windows(2)) {
        *o = max_i32_body(&v[run[0]..run[1]]);
    }
}

/// # Safety
/// Requires avx512f.
#[target_feature(enable = "avx512f")]
unsafe fn max_i32_body(v: &[i32]) -> i32 {
    let (n, p) = (v.len(), v.as_ptr());
    let load = |i: usize| _mm512_loadu_si512(p.add(i) as *const __m512i);
    let (mut m0, mut m1) = (_mm512_set1_epi32(i32::MIN), _mm512_set1_epi32(i32::MIN));
    let mut i = 0;
    while i + 32 <= n {
        m0 = _mm512_max_epi32(m0, load(i));
        m1 = _mm512_max_epi32(m1, load(i + 16));
        i += 32;
    }
    if i + 16 <= n {
        m0 = _mm512_max_epi32(m0, load(i));
        i += 16;
    }
    // The last one to fifteen under a mask; the masked-off lanes keep MIN.
    let live = ((1u32 << (n - i)) - 1) as __mmask16;
    m1 = _mm512_max_epi32(m1, _mm512_mask_loadu_epi32(m1, live, p.add(i)));
    _mm512_reduce_max_epi32(_mm512_max_epi32(m0, m1))
}

// Safe wrappers installed into the dispatch table. Soundness: the table
// selects these only after runtime detection of avx512f, avx2 and fma
// (see `dispatch::select`); the i8 wrappers additionally require avx512bw and
// the `_vnni` ones avx512vnni, which `dispatch` verifies before installing
// them (hosts without BW get the AVX2 bodies instead — the check happens
// once at table selection, not per call).

pub(crate) fn sq_norm2(a: &[f32]) -> f64 {
    unsafe { sq_norm2_body(a) }
}

pub(crate) fn norm1(a: &[f32]) -> f64 {
    unsafe { norm1_body(a) }
}

pub(crate) fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    unsafe { dot4_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot4x4(a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f64; 4]; 4] {
    unsafe { dot4x4_body(a, b) }
}

pub(crate) fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    unsafe { dot4_i8_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    unsafe { dot_i8_body(a, b) }
}

pub(crate) fn dot4_i8_vnni(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    unsafe { dot4_i8_vnni_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot_i8_vnni(a: &[u8], b: &[i8]) -> i32 {
    unsafe { dot_i8_vnni_body(a, b) }
}

/// The screen's column kernel on AVX-512BW: rows of half, one or two cache
/// lines take the sixteen-row body, any other width the blocked loop.
pub(crate) fn dot_col_i8(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    check_col_shape(rows.len(), w, q.len(), out.len());
    if col_lines(w) {
        // SAFETY: shape checked above, w a multiple of the 32-code step.
        unsafe { dot_col_i8_body(rows, w, q, out) }
    } else {
        col_long(rows, w, q, out, dot4_i8)
    }
}

/// [`dot_col_i8`] with the VNNI bodies.
pub(crate) fn dot_col_i8_vnni(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    check_col_shape(rows.len(), w, q.len(), out.len());
    match w {
        // SAFETY: shape checked above, two rows to a 64-code step.
        32 => unsafe { dot_col_i8_vnni_halves(rows, q, out) },
        // SAFETY: shape checked above, w a multiple of the 64-code step.
        _ if col_lines(w) => unsafe { dot_col_i8_vnni_body(rows, w, q, out) },
        _ => col_long(rows, w, q, out, dot4_i8_vnni),
    }
}

pub(crate) fn max_i32_runs(v: &[i32], bounds: &[usize], out: &mut [i32]) {
    assert_eq!(bounds.len(), out.len() + 1, "one bound past the runs");
    // SAFETY: installed only once avx512f is detected; runs are sliced, checked.
    unsafe { max_i32_runs_body(v, bounds, out) }
}
