//! Explicit AVX2+FMA kernels for x86-64.
//!
//! Every kernel keeps the crate's `f64`-accumulation contract: `f32` lanes
//! are widened to `f64` (`vcvtps2pd`, exact) before any arithmetic, and the
//! reductions run on 4-wide `f64` vectors with fused multiply-add. FMA skips
//! the intermediate rounding of the scalar `mul + add`, and the horizontal
//! reduction adds partial sums in a different order than the scalar kernels,
//! so results may differ from [`crate::scalar`] by O(ε) — bounded well
//! inside the 1e-4 relative tolerance documented in [`crate::dispatch`].
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table, which installs these kernels — in the avx2 table and in
//! the avx512 one, which shares many of them — strictly after
//! `is_x86_feature_detected!("avx2")` and `("fma")` both succeed.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use crate::scalar::{self, check_col_shape, col_long};

/// Horizontal sum of a 4-wide `f64` vector.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum_pd(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let sum2 = _mm_add_pd(lo, hi);
    let swapped = _mm_unpackhi_pd(sum2, sum2);
    _mm_cvtsd_f64(_mm_add_sd(sum2, swapped))
}

/// Widens 8 packed `f32`s to two 4-wide `f64`s via two 128-bit loads
/// (cheaper than one 256-bit load plus a cross-lane extract: the second
/// load rides the load ports instead of the shuffle port).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn widen8(p: *const f32) -> (__m256d, __m256d) {
    (
        _mm256_cvtps_pd(_mm_loadu_ps(p)),
        _mm256_cvtps_pd(_mm_loadu_ps(p.add(4))),
    )
}

// The reduction kernels run several independent 4-wide f64 accumulators
// (4 for sq_dist/sq_norm2, 8 for dot — 16/32 floats per iteration): FMA
// latency is ~4 cycles, so too few chains leaves the FMA ports idle and the
// kernel latency-bound instead of throughput-bound.

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_body(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for the other — clamp to the shorter operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_pd(); 8];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            let off = base + lane * 4;
            *slot = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(ap.add(off))),
                _mm256_cvtps_pd(_mm_loadu_ps(bp.add(off))),
                *slot,
            );
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        let (a0, a1) = widen8(ap.add(i));
        let (b0, b1) = widen8(bp.add(i));
        acc[0] = _mm256_fmadd_pd(a0, b0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a1, b1, acc[1]);
        i += 8;
    }
    let half = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]));
    let half2 = _mm256_add_pd(_mm256_add_pd(acc[4], acc[5]), _mm256_add_pd(acc[6], acc[7]));
    let mut sum = hsum_pd(_mm256_add_pd(half, half2));
    for j in i..n {
        sum += *ap.add(j) as f64 * *bp.add(j) as f64;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_norm2_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    let mut acc = [_mm256_setzero_pd(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let (a0, a1) = widen8(ap.add(base));
        let (a2, a3) = widen8(ap.add(base + 8));
        acc[0] = _mm256_fmadd_pd(a0, a0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a1, a1, acc[1]);
        acc[2] = _mm256_fmadd_pd(a2, a2, acc[2]);
        acc[3] = _mm256_fmadd_pd(a3, a3, acc[3]);
    }
    let mut i = blocks * 16;
    while i + 8 <= n {
        let (a0, a1) = widen8(ap.add(i));
        acc[0] = _mm256_fmadd_pd(a0, a0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a1, a1, acc[1]);
        i += 8;
    }
    let mut sum = hsum_pd(_mm256_add_pd(
        _mm256_add_pd(acc[0], acc[1]),
        _mm256_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let x = *ap.add(j) as f64;
        sum += x * x;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_dist_body(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for the other — clamp to the shorter operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_pd(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let (a0, a1) = widen8(ap.add(base));
        let (b0, b1) = widen8(bp.add(base));
        let (a2, a3) = widen8(ap.add(base + 8));
        let (b2, b3) = widen8(bp.add(base + 8));
        let d0 = _mm256_sub_pd(a0, b0);
        let d1 = _mm256_sub_pd(a1, b1);
        let d2 = _mm256_sub_pd(a2, b2);
        let d3 = _mm256_sub_pd(a3, b3);
        acc[0] = _mm256_fmadd_pd(d0, d0, acc[0]);
        acc[1] = _mm256_fmadd_pd(d1, d1, acc[1]);
        acc[2] = _mm256_fmadd_pd(d2, d2, acc[2]);
        acc[3] = _mm256_fmadd_pd(d3, d3, acc[3]);
    }
    let mut i = blocks * 16;
    while i + 8 <= n {
        let (a0, a1) = widen8(ap.add(i));
        let (b0, b1) = widen8(bp.add(i));
        let d0 = _mm256_sub_pd(a0, b0);
        let d1 = _mm256_sub_pd(a1, b1);
        acc[0] = _mm256_fmadd_pd(d0, d0, acc[0]);
        acc[1] = _mm256_fmadd_pd(d1, d1, acc[1]);
        i += 8;
    }
    let mut sum = hsum_pd(_mm256_add_pd(
        _mm256_add_pd(acc[0], acc[1]),
        _mm256_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let d = *ap.add(j) as f64 - *bp.add(j) as f64;
        sum += d * d;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn norm1_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    // |x| in the f64 domain: clear the sign bit after widening (identical to
    // the scalar `x.abs() as f64`, since widening is exact and sign-symmetric).
    let sign_mask = _mm256_set1_pd(-0.0);
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let chunks = n / 8;
    for i in 0..chunks {
        let (lo, hi) = widen8(ap.add(i * 8));
        acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign_mask, lo));
        acc1 = _mm256_add_pd(acc1, _mm256_andnot_pd(sign_mask, hi));
    }
    let mut sum = hsum_pd(_mm256_add_pd(acc0, acc1));
    for i in chunks * 8..n {
        sum += (*ap.add(i)).abs() as f64;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot4_body(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4: dimension mismatch"
    );
    let n = min_len5(a0, a1, a2, a3, b);
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    // One widened load of `b` feeds four FMAs — the register-blocking that
    // makes multi-row matvec memory-bound on the rows instead of on `b`.
    let mut acc = [_mm256_setzero_pd(); 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let vb = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i * 4)));
        for (r, &rp) in rows.iter().enumerate() {
            let va = _mm256_cvtps_pd(_mm_loadu_ps(rp.add(i * 4)));
            acc[r] = _mm256_fmadd_pd(va, vb, acc[r]);
        }
    }
    let mut out = [
        hsum_pd(acc[0]),
        hsum_pd(acc[1]),
        hsum_pd(acc[2]),
        hsum_pd(acc[3]),
    ];
    for i in chunks * 4..n {
        let x = *bp.add(i) as f64;
        for (r, &rp) in rows.iter().enumerate() {
            out[r] += *rp.add(i) as f64 * x;
        }
    }
    out
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_dist4_body(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "sq_dist4: dimension mismatch"
    );
    let n = min_len5(a0, a1, a2, a3, b);
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    // One widened load of `b` feeds four sub+FMA chains — the same
    // register-blocking as dot4, paying the query conversion once per block.
    let mut acc = [_mm256_setzero_pd(); 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let vb = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i * 4)));
        for (r, &rp) in rows.iter().enumerate() {
            let d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(rp.add(i * 4))), vb);
            acc[r] = _mm256_fmadd_pd(d, d, acc[r]);
        }
    }
    let mut out = [
        hsum_pd(acc[0]),
        hsum_pd(acc[1]),
        hsum_pd(acc[2]),
        hsum_pd(acc[3]),
    ];
    for i in chunks * 4..n {
        let x = *bp.add(i) as f64;
        for (r, &rp) in rows.iter().enumerate() {
            let d = *rp.add(i) as f64 - x;
            out[r] += d * d;
        }
    }
    out
}

// --- 8-bit quantized (SQ8) kernels ------------------------------------------
//
// Integer kernels for the verification screen: u8 codes are widened to
// i16 (`vpmovzxbw`), paired with the sign-extended query, and reduced with
// `vpmaddwd` (`_mm256_madd_epi16`), which multiplies i16 lanes and adds
// adjacent pairs into i32 — *without saturation*. The tempting one-step
// `vpmaddubsw` (`maddubs`, u8×i8) is NOT used: it saturates its i16 pair
// sums (two products of up to 255·127 overflow i16), which would break the
// exact-integer parity contract these kernels carry. Accumulation stays in
// i32 lanes — exact for lengths up to 2¹⁵ at worst-case magnitudes.
//
// A ragged tail of operands at least one chunk long is one more *overlapped*
// chunk — the operands' last 16 codes, with the lanes already summed masked
// off — not a scalar loop; only operands shorter than a chunk finish in
// scalar code.

/// Horizontal sum of the eight i32 lanes of a 256-bit vector.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256(v, 1);
    let sum4 = _mm_add_epi32(lo, hi);
    let sum2 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, 0b00_00_11_10));
    let sum1 = _mm_add_epi32(sum2, _mm_shuffle_epi32(sum2, 0b00_00_00_01));
    _mm_cvtsi128_si32(sum1)
}

/// Horizontal sums of four i32 accumulators at once: two unpack-and-add
/// rounds transpose the partial sums inside each 128-bit lane, then the two
/// lanes fold — 10 µops against four [`hsum_epi32`] shuffle chains.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce4_epi32(acc: [__m256i; 4]) -> [i32; 4] {
    let t01 = _mm256_add_epi32(
        _mm256_unpacklo_epi32(acc[0], acc[1]),
        _mm256_unpackhi_epi32(acc[0], acc[1]),
    );
    let t23 = _mm256_add_epi32(
        _mm256_unpacklo_epi32(acc[2], acc[3]),
        _mm256_unpackhi_epi32(acc[2], acc[3]),
    );
    let lanes = _mm256_add_epi32(
        _mm256_unpacklo_epi64(t01, t23),
        _mm256_unpackhi_epi64(t01, t23),
    );
    let sums = _mm_add_epi32(
        _mm256_castsi256_si128(lanes),
        _mm256_extracti128_si256::<1>(lanes),
    );
    let mut out = [0i32; 4];
    _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, sums);
    out
}

/// A window sliding over 16 zero bytes then 16 one bytes: the 16 bytes at
/// offset `r` have their last `r` lanes set.
static TAIL_WINDOW: [u8; 32] = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
];

/// The 16-code steps covering `n ≥ 16` codes: every full chunk, then — for
/// a ragged operand — one overlapped chunk at `n − 16` whose `keep` mask
/// clears the lanes an earlier chunk already summed.
macro_rules! for_chunks16 {
    ($n:expr, |$off:ident, $keep:ident| $step:block) => {{
        let n: usize = $n;
        let ragged = n % 16;
        let mut $off = 0;
        let $keep = _mm_set1_epi8(-1);
        while $off + 16 <= n {
            $step
            $off += 16;
        }
        if ragged != 0 {
            let $off = n - 16;
            // SAFETY: ragged < 16, so the 16-byte load stays inside the window.
            let $keep = _mm_loadu_si128(TAIL_WINDOW.as_ptr().add(ragged) as *const __m128i);
            $step
        }
    }};
}

/// 16 i8 codes at `p`, masked by `keep`, sign-extended to i16 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn widen16_i8(p: *const i8, keep: __m128i) -> __m256i {
    _mm256_cvtepi8_epi16(_mm_and_si128(_mm_loadu_si128(p as *const __m128i), keep))
}

/// Length of the shortest of the five operands of a blocked kernel.
/// Soundness: the bodies do raw pointer reads, so they clamp to it (see
/// `dot_body`).
#[inline]
pub(crate) fn min_len5<T, U>(a0: &[T], a1: &[T], a2: &[T], a3: &[T], b: &[U]) -> usize {
    b.len()
        .min(a0.len())
        .min(a1.len())
        .min(a2.len())
        .min(a3.len())
}

#[target_feature(enable = "avx2")]
unsafe fn dot4_i8_body(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4_i8: dimension mismatch"
    );
    let n = min_len5(a0, a1, a2, a3, b);
    if n < 16 {
        return scalar::dot4_i8(&a0[..n], &a1[..n], &a2[..n], &a3[..n], &b[..n]);
    }
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    let mut acc = [_mm256_setzero_si256(); 4];
    for_chunks16!(n, |off, keep| {
        // Sign-extend the query codes; products (u8 as i16) × (i8 as i16)
        // fit i16 × i16 → i32 exactly under vpmaddwd. Masking the query
        // alone zeroes an overlapped lane's product.
        let vb = widen16_i8(bp.add(off), keep);
        for (r, &rp) in rows.iter().enumerate() {
            let va = _mm256_cvtepu8_epi16(_mm_loadu_si128(rp.add(off) as *const __m128i));
            acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(va, vb));
        }
    });
    reduce4_epi32(acc)
}

#[target_feature(enable = "avx2")]
unsafe fn dot_i8_body(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    // Soundness: clamp to the shortest operand (see dot_body).
    let n = b.len().min(a.len());
    if n < 16 {
        return scalar::dot_i8(&a[..n], &b[..n]);
    }
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_si256();
    for_chunks16!(n, |off, keep| {
        let va = _mm256_cvtepu8_epi16(_mm_loadu_si128(ap.add(off) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, widen16_i8(bp.add(off), keep)));
    });
    hsum_epi32(acc)
}

/// # Safety
/// Requires avx2.
#[target_feature(enable = "avx2")]
unsafe fn max_i32_runs_body(v: &[i32], bounds: &[usize], out: &mut [i32]) {
    for (o, run) in out.iter_mut().zip(bounds.windows(2)) {
        *o = max_i32_body(&v[run[0]..run[1]]);
    }
}

/// # Safety
/// Requires avx2.
#[target_feature(enable = "avx2")]
unsafe fn max_i32_body(v: &[i32]) -> i32 {
    let n = v.len();
    if n < 8 {
        return scalar::max_i32(v);
    }
    let p = v.as_ptr();
    let load = |i: usize| _mm256_loadu_si256(p.add(i) as *const __m256i);
    let (mut m0, mut m1) = (load(0), load(n - 8));
    let mut i = 8;
    while i + 16 <= n {
        m0 = _mm256_max_epi32(m0, load(i));
        m1 = _mm256_max_epi32(m1, load(i + 8));
        i += 16;
    }
    if i + 8 <= n {
        m0 = _mm256_max_epi32(m0, load(i));
    }
    // The rest lies inside the last eight, already folded (a max does not
    // mind seeing a lane twice).
    let m = _mm256_max_epi32(m0, m1);
    let m = _mm_max_epi32(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
    let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
    let m = _mm_max_epi32(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
    _mm_cvtsi128_si32(m)
}

/// # Safety
/// Requires avx2 and `x.len() == y.len()` (checked by the safe wrapper).
#[target_feature(enable = "avx2")]
unsafe fn max_scaled_sum_body(x: &[i32], y: &[u8], a: f64, b: f64) -> f64 {
    let n = x.len();
    if n < 4 {
        return scalar::max_scaled_sum(x, y, a, b);
    }
    let (va, vb) = (_mm256_set1_pd(a), _mm256_set1_pd(b));
    // Lanes `i..i + 4`: the products and their sum rounded as the scalar
    // body rounds them.
    let at = |i: usize| {
        let xs = _mm256_cvtepi32_pd(_mm_loadu_si128(x.as_ptr().add(i) as *const __m128i));
        let word = (y.as_ptr().add(i) as *const i32).read_unaligned();
        let ys = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(word)));
        _mm256_add_pd(_mm256_mul_pd(va, xs), _mm256_mul_pd(vb, ys))
    };
    let (mut m0, mut m1) = (at(0), at(n - 4));
    let mut i = 4;
    while i + 8 <= n {
        m0 = _mm256_max_pd(m0, at(i));
        m1 = _mm256_max_pd(m1, at(i + 4));
        i += 8;
    }
    if i + 4 <= n {
        m0 = _mm256_max_pd(m0, at(i));
    }
    let m = _mm256_max_pd(m0, m1);
    let m = _mm_max_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd::<1>(m));
    _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)))
}

// Safe wrappers installed into the dispatch table. Soundness: the table
// selects these only after runtime detection of avx2+fma (see
// `dispatch::select`), so the target-feature preconditions always hold.

pub(crate) fn dot(a: &[f32], b: &[f32]) -> f64 {
    unsafe { dot_body(a, b) }
}

pub(crate) fn sq_norm2(a: &[f32]) -> f64 {
    unsafe { sq_norm2_body(a) }
}

pub(crate) fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    unsafe { sq_dist_body(a, b) }
}

pub(crate) fn norm1(a: &[f32]) -> f64 {
    unsafe { norm1_body(a) }
}

pub(crate) fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    unsafe { dot4_body(a0, a1, a2, a3, b) }
}

/// Sixteen accumulators do not fit the sixteen `ymm` registers beside
/// their operands: the tile is four [`dot4`]s.
pub(crate) fn dot4x4(a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f64; 4]; 4] {
    a.map(|ai| dot4(b[0], b[1], b[2], b[3], ai))
}

pub(crate) fn sq_dist4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    unsafe { sq_dist4_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    unsafe { dot4_i8_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    unsafe { dot_i8_body(a, b) }
}

/// The nearest-centroid fold, eight rows a step: two 4-lane `f64` sums of
/// [`scalar::sq_dist_seq`]'s terms in its order (no FMA), their `<` masks
/// narrowed to the eight 32-bit label lanes; the last `n mod 8` rows take
/// the scalar body.
pub(crate) fn nearest_col(
    cols: &[f32],
    m: usize,
    q: &[f32],
    c: u32,
    best: &mut [u32],
    best_d: &mut [f64],
) {
    scalar::check_nearest_shape(cols.len(), m, q.len(), best.len(), best_d.len());
    // SAFETY: installed only once avx2 and fma are detected; shape checked.
    unsafe {
        scalar::match_short_m!(
            m,
            nearest_col_body(cols, q, c, best, best_d),
            unreachable!()
        )
    }
}

/// # Safety
/// The CPU has AVX2 and FMA, `q.len() == M`, `best_d.len() == best.len()` and
/// `cols` holds `M` columns of `best.len()` floats ([`nearest_col`]'s
/// shape check).
#[target_feature(enable = "avx2,fma")]
unsafe fn nearest_col_body<const M: usize>(
    cols: &[f32],
    q: &[f32],
    c: u32,
    best: &mut [u32],
    best_d: &mut [f64],
) {
    let n = best.len();
    let p = cols.as_ptr();
    let (bp, dp) = (best.as_mut_ptr(), best_d.as_mut_ptr());
    let qv: [__m256d; M] = std::array::from_fn(|j| _mm256_set1_pd(q[j] as f64));
    let cv = _mm256_castsi256_ps(_mm256_set1_epi32(c as i32));
    let mut i = 0;
    while i + 8 <= n {
        let mut s = [_mm256_setzero_pd(); 2];
        for (j, &qj) in qv.iter().enumerate() {
            let (lo, hi) = widen8(p.add(j * n + i));
            let (lo, hi) = (_mm256_sub_pd(lo, qj), _mm256_sub_pd(hi, qj));
            s[0] = _mm256_add_pd(s[0], _mm256_mul_pd(lo, lo));
            s[1] = _mm256_add_pd(s[1], _mm256_mul_pd(hi, hi));
        }
        let bd = [_mm256_loadu_pd(dp.add(i)), _mm256_loadu_pd(dp.add(i + 4))];
        let k0 = _mm256_cmp_pd::<_CMP_LT_OQ>(s[0], bd[0]);
        let k1 = _mm256_cmp_pd::<_CMP_LT_OQ>(s[1], bd[1]);
        _mm256_storeu_pd(dp.add(i), _mm256_blendv_pd(bd[0], s[0], k0));
        _mm256_storeu_pd(dp.add(i + 4), _mm256_blendv_pd(bd[1], s[1], k1));
        // The low halves of the eight 64-bit masks, rows 0 1 4 5 | 2 3 6 7,
        // then the middle quarters swapped: rows 0..8.
        let k = _mm256_shuffle_ps::<0b10_00_10_00>(_mm256_castpd_ps(k0), _mm256_castpd_ps(k1));
        let k = _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(k)));
        let at = bp.add(i).cast::<__m256i>();
        let labels = _mm256_castsi256_ps(_mm256_loadu_si256(at));
        _mm256_storeu_si256(at, _mm256_castps_si256(_mm256_blendv_ps(labels, cv, k)));
        i += 8;
    }
    scalar::nearest_rows::<M>(cols, q, c, best, best_d, i);
}

/// The screen's column kernel: the blocked [`dot4_i8`] over every four rows
/// — the 256-bit tier has no wider reduction to offer a whole column.
pub(crate) fn dot_col_i8(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    check_col_shape(rows.len(), w, q.len(), out.len());
    col_long(rows, w, q, out, dot4_i8)
}

pub(crate) fn max_i32_runs(v: &[i32], bounds: &[usize], out: &mut [i32]) {
    assert_eq!(bounds.len(), out.len() + 1, "one bound past the runs");
    // SAFETY: installed only once avx2 is detected; runs are sliced, checked.
    unsafe { max_i32_runs_body(v, bounds, out) }
}

pub(crate) fn max_scaled_sum(x: &[i32], y: &[u8], a: f64, b: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "max_scaled_sum: length mismatch");
    // SAFETY: lengths checked above.
    unsafe { max_scaled_sum_body(x, y, a, b) }
}
