//! Vector kernels: inner product, norms, Euclidean distances.
//!
//! All kernels take `&[f32]` slices and accumulate in `f64`. Each call
//! routes through the runtime-dispatched table in [`crate::dispatch`] — the
//! AVX-512 or AVX2+FMA tier on x86-64 hosts that run one, the portable
//! [`crate::scalar`] implementations elsewhere; the AVX-512 table borrows
//! the AVX2 body wherever its own does not measure ahead (the table there
//! says which tier serves each entry).

use crate::dispatch::kernels;
use crate::scalar::{self, sq_dist_seq, SHORT_MAX};

/// Inner product `⟨a, b⟩` with `f64` accumulation.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    (kernels().dot)(a, b)
}

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn sq_norm2(a: &[f32]) -> f64 {
    (kernels().sq_norm2)(a)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm2(a: &[f32]) -> f64 {
    sq_norm2(a).sqrt()
}

/// 1-norm `‖a‖₁ = Σ|aᵢ|` — the quantity Quick-Probe stores per point
/// (Theorem 4 of the paper bounds `dis(o,q) ≤ ‖o‖₁ + ‖q‖₁`).
#[inline]
pub fn norm1(a: &[f32]) -> f64 {
    (kernels().norm1)(a)
}

/// Squared Euclidean distance `dis²(a, b)`.
///
/// Operands of up to [`SHORT_MAX`] coordinates — projected-space rows — skip
/// the dispatched long-vector kernel for [`sq_dist_seq`], the arithmetic
/// [`sq_dist4`] and [`sq_dist_col`] also use at that length: the same row
/// gets the same bits from all three, on every backend.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    if b.len() <= SHORT_MAX {
        return sq_dist_seq(a, b);
    }
    (kernels().sq_dist)(a, b)
}

/// Euclidean distance `dis(a, b)`.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Four inner products `⟨aᵢ, b⟩` sharing one pass over `b` — the blocked
/// primitive behind [`crate::Matrix::matvec_into`] and
/// [`crate::Matrix::gemm_nt`].
#[inline]
pub fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    (kernels().dot4)(a0, a1, a2, a3, b)
}

/// Four squared distances `dis²(aᵢ, b)` sharing one pass over `b` — the
/// blocked primitive for rows longer than [`SHORT_MAX`]; shorter ones take
/// the per-row arithmetic of [`sq_dist`] (a whole column of them belongs
/// in one [`sq_dist_col`] call instead).
#[inline]
pub fn sq_dist4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    if b.len() <= SHORT_MAX {
        return scalar::sq_dist4_seq(a0, a1, a2, a3, b);
    }
    (kernels().sq_dist4)(a0, a1, a2, a3, b)
}

/// Squared distances `dis²(rowᵢ, q)` of every `m`-float row of the flat
/// arena `rows` into `out` — the projected-space scan kernel, one call per
/// sub-partition column. For `m ≤` [`SHORT_MAX`] each row gets
/// [`sq_dist`]'s bits, whatever its position in the column, from one
/// unrolled loop on every backend (gather bodies with a row a lane measured
/// level with it on AVX2 and 2.3× slower on AVX-512); longer rows go four
/// at a time through the active [`sq_dist4`].
///
/// # Panics
/// Panics unless `q.len() == m > 0` and `rows.len() == out.len() * m`.
#[inline]
pub fn sq_dist_col(rows: &[f32], m: usize, q: &[f32], out: &mut [f64]) {
    scalar::sq_dist_col_with(kernels().sq_dist4, rows, m, q, out)
}

/// Folds the centroid `q`, numbered `c`, into a running nearest-centroid
/// search over a **column-major** block of `n = best.len()` rows of `m`
/// floats (coordinate `j` of row `i` at `cols[j·n + i]`): every row whose
/// [`sq_dist`] to `q` is below `best_d[i]` takes `c` and that distance —
/// k-means' seeding and assignment, one call per centroid and block. Each
/// lane holds a row, so a step loads `m` contiguous coordinate vectors;
/// every backend computes [`sq_dist`]'s bits for the row (left to right,
/// one rounding per subtract, multiply and add) and the same `<` select.
///
/// # Panics
/// Panics unless `q.len() == m`, `1 ≤ m ≤` [`SHORT_MAX`],
/// `best.len() == best_d.len()` and `cols.len() == best.len() · m`.
#[inline]
pub fn nearest_col(
    cols: &[f32],
    m: usize,
    q: &[f32],
    c: u32,
    best: &mut [u32],
    best_d: &mut [f64],
) {
    (kernels().nearest_col)(cols, m, q, c, best, best_d)
}

/// Four quantized inner products `Σⱼ aᵢⱼ·bⱼ` (u8 code rows × i8 query)
/// sharing one pass over `b` — the verification screen's kernel over
/// `d`-long code rows: each step of the widest tier multiplies 64 codes of
/// every row against one load of the query (`vpdpbusd` on AVX-512VNNI
/// hosts), and the ragged tail is one more masked step, not a scalar loop.
///
/// Exact integer arithmetic: every backend returns identical sums. Valid
/// for lengths up to 2¹⁵ (i32 lane accumulation bound).
#[inline]
pub fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    (kernels().dot4_i8)(a0, a1, a2, a3, b)
}

/// One quantized inner product `Σⱼ aⱼ·bⱼ` (u8 code row × i8 query) — the
/// tail shape of the quantized verification screen, pairing with
/// [`dot4_i8`] the way [`dot`] pairs with [`dot4`]. Exact integer
/// arithmetic, same length bound as [`dot4_i8`].
#[inline]
pub fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    (kernels().dot_i8)(a, b)
}

/// Quantized inner products `Σⱼ rowᵢⱼ·qⱼ` of every `w`-code row of the u8
/// code column `rows` against the i8 query `q` into `out` — the
/// verification screen's kernel over a run of contiguous code rows, one
/// dispatch per run. When `w` is 32, 64 or 128 (rows are half, one or two
/// cache lines — the widths of a head column's prefix and of a head) the
/// AVX-512 tiers take sixteen rows per step, each step's query codes loaded
/// once (VNNI takes 32-code rows two to a load), and reduce the sixteen
/// sums in one transposing pass with one store; any other width, and every
/// width on AVX2, is [`dot4_i8`] over every four rows.
///
/// Exact integer arithmetic: every backend returns [`dot_i8`]'s sums. Same
/// length bound as [`dot4_i8`].
///
/// # Panics
/// Panics unless `q.len() == w > 0` and `rows.len() == out.len() * w`.
#[inline]
pub fn dot_col_i8(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    (kernels().dot_col_i8)(rows, w, q, out)
}

/// The largest of `v` (`i32::MIN` for an empty slice) — a walked block's
/// fold of its integer dots: [`max_i32_runs`] with one run.
#[inline]
pub fn max_i32(v: &[i32]) -> i32 {
    let mut out = [0];
    max_i32_runs(v, &[0, v.len()], &mut out);
    out[0]
}

/// The largest of each run `v[bounds[i]..bounds[i + 1]]` (`i32::MIN` if
/// empty) into `out[i]`, exact: the column pass's one fold a pass.
#[inline]
pub fn max_i32_runs(v: &[i32], bounds: &[usize], out: &mut [i32]) {
    (kernels().max_i32_runs)(v, bounds, out)
}

/// The largest `a·xᵢ + b·yᵢ` over the pairs of `x` and `y` (`-∞` for none):
/// the column pass's per-row bound over one sub-partition, its prefix dots
/// `x` beside their suffix-norm codes `y`. Each product and the sum are
/// rounded once in `f64` — the bits of `a * x as f64 + b * y as f64` — so
/// for finite `a` and `b` every backend returns the same number.
///
/// # Panics
/// Panics unless `x.len() == y.len()`.
#[inline]
pub fn max_scaled_sum(x: &[i32], y: &[u8], a: f64, b: f64) -> f64 {
    (kernels().max_scaled_sum)(x, y, a, b)
}

/// Element-wise difference `a − b` into a fresh vector.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // length 5 exercises the tail path
        assert_eq!(dot(&[1.0; 5], &[2.0; 5]), 10.0);
    }

    #[test]
    fn norms_basic() {
        assert_eq!(sq_norm2(&[3.0, 4.0]), 25.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm1(&[1.0, -2.0, 3.0, -4.0, 5.0]), 15.0);
    }

    #[test]
    fn distances_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist(&[1.0; 7], &[1.0; 7]), 0.0);
    }

    #[test]
    fn dot4_matches_four_dots() {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..13).map(|i| (r * 13 + i) as f32 * 0.25 - 3.0).collect())
            .collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32).cos()).collect();
        let got = dot4(&rows[0], &rows[1], &rows[2], &rows[3], &b);
        for r in 0..4 {
            let want = dot(&rows[r], &b);
            assert!(
                (got[r] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "row {r}"
            );
        }
    }

    #[test]
    fn sq_dist4_matches_four_sq_dists() {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..13).map(|i| (r * 13 + i) as f32 * 0.25 - 3.0).collect())
            .collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32).cos()).collect();
        let got = sq_dist4(&rows[0], &rows[1], &rows[2], &rows[3], &b);
        for r in 0..4 {
            let want = sq_dist(&rows[r], &b);
            assert!(
                (got[r] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "row {r}"
            );
        }
    }

    #[test]
    fn quantized_kernels_basic() {
        // Length 5 exercises the SIMD tail path on every backend.
        let a: Vec<u8> = vec![0, 255, 10, 20, 30];
        let q: Vec<i8> = vec![-128, 127, 1, -1, 0];
        // a·q = 0·(−128) + 255·127 + 10·1 + 20·(−1) + 30·0
        let want_dot: i32 = 127 * 255 + 10 - 20;
        assert_eq!(dot4_i8(&a, &a, &a, &a, &q), [want_dot; 4]);
        assert_eq!(dot_i8(&a, &q), want_dot);
        assert_eq!(dot4_i8(&[], &[], &[], &[], &[]), [0; 4]);
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn sub_basic() {
        assert_eq!(sub(&[3.0, 2.0], &[1.0, 5.0]), vec![2.0, -3.0]);
    }

    proptest! {
        #[test]
        fn dot_matches_naive(v in proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..64)) {
            let a: Vec<f32> = v.iter().map(|p| p.0).collect();
            let b: Vec<f32> = v.iter().map(|p| p.1).collect();
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            prop_assert!((dot(&a, &b) - naive).abs() <= 1e-9 * (1.0 + naive.abs()));
        }

        #[test]
        fn sq_dist_identity_with_ip(v in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 1..48)) {
            // dis²(a,b) = ‖a‖² + ‖b‖² − 2⟨a,b⟩ — the identity ProMIPS's
            // searching conditions rest on.
            let a: Vec<f32> = v.iter().map(|p| p.0).collect();
            let b: Vec<f32> = v.iter().map(|p| p.1).collect();
            let lhs = sq_dist(&a, &b);
            let rhs = sq_norm2(&a) + sq_norm2(&b) - 2.0 * dot(&a, &b);
            prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + lhs.abs()));
        }

        #[test]
        fn norm1_dominates_norm2(a in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            // ‖a‖₂ ≤ ‖a‖₁ — the inequality behind Theorem 4.
            prop_assert!(norm2(&a) <= norm1(&a) + 1e-9);
        }

        #[test]
        fn triangle_inequality(ab in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0), 1..32)) {
            let a: Vec<f32> = ab.iter().map(|p| p.0).collect();
            let b: Vec<f32> = ab.iter().map(|p| p.1).collect();
            let c: Vec<f32> = ab.iter().map(|p| p.2).collect();
            prop_assert!(dist(&a, &c) <= dist(&a, &b) + dist(&b, &c) + 1e-9);
        }
    }

    /// SIMD/scalar parity: every backend the host can execute (not just the
    /// dispatched one) must agree with the portable reference within 1e-4
    /// relative tolerance (the contract in [`crate::dispatch`]). Lengths
    /// 0..200 sweep every unroll remainder across the 4/8/16/32-wide inner
    /// loops; magnitudes up to 1e3 stress cancellation in `sq_dist`.
    mod backend_parity {
        use super::*;
        use crate::dispatch::{available_backends, Dot4Fn};
        use crate::scalar;

        fn close(got: f64, reference: f64) -> bool {
            (got - reference).abs() <= 1e-4 * reference.abs().max(1.0)
        }

        proptest! {
            #[test]
            fn dot_parity(v in proptest::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..200)) {
                let a: Vec<f32> = v.iter().map(|p| p.0).collect();
                let b: Vec<f32> = v.iter().map(|p| p.1).collect();
                let want = scalar::dot(&a, &b);
                for k in available_backends() {
                    prop_assert!(close((k.dot)(&a, &b), want), "backend {}", k.name);
                }
            }

            #[test]
            fn sq_dist_parity(v in proptest::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..200)) {
                let a: Vec<f32> = v.iter().map(|p| p.0).collect();
                let b: Vec<f32> = v.iter().map(|p| p.1).collect();
                let want = scalar::sq_dist(&a, &b);
                for k in available_backends() {
                    prop_assert!(close((k.sq_dist)(&a, &b), want), "backend {}", k.name);
                }
            }

            #[test]
            fn sq_norm2_parity(a in proptest::collection::vec(-1e3f32..1e3, 0..200)) {
                let want = scalar::sq_norm2(&a);
                for k in available_backends() {
                    prop_assert!(close((k.sq_norm2)(&a), want), "backend {}", k.name);
                }
            }

            #[test]
            fn norm1_parity(a in proptest::collection::vec(-1e3f32..1e3, 0..200)) {
                let want = scalar::norm1(&a);
                for k in available_backends() {
                    prop_assert!(close((k.norm1)(&a), want), "backend {}", k.name);
                }
            }

            #[test]
            fn dot4_parity(v in proptest::collection::vec(
                (-1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2),
                0..150,
            )) {
                let cols: Vec<Vec<f32>> = (0..5)
                    .map(|c| v.iter().map(|t| [t.0, t.1, t.2, t.3, t.4][c]).collect())
                    .collect();
                let want = scalar::dot4(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                for k in available_backends() {
                    let got = (k.dot4)(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                    for r in 0..4 {
                        prop_assert!(close(got[r], want[r]), "backend {} row {}", k.name, r);
                    }
                }
            }

            /// Quantized kernels are exact integer reductions: every
            /// backend must agree with the scalar reference *bit for bit*
            /// (no tolerance), across lengths sweeping the 16/32-code
            /// unroll remainders and the full u8/i8 code ranges.
            #[test]
            fn dot4_i8_parity(v in proptest::collection::vec(
                (0u16..256, 0u16..256, 0u16..256, 0u16..256, -128i16..128),
                0..200,
            )) {
                let rows: Vec<Vec<u8>> = (0..4)
                    .map(|c| v.iter().map(|t| [t.0, t.1, t.2, t.3][c] as u8).collect())
                    .collect();
                let q: Vec<i8> = v.iter().map(|t| t.4 as i8).collect();
                let want = scalar::dot4_i8(&rows[0], &rows[1], &rows[2], &rows[3], &q);
                for k in available_backends() {
                    let got = (k.dot4_i8)(&rows[0], &rows[1], &rows[2], &rows[3], &q);
                    prop_assert_eq!(got, want, "backend {}", k.name);
                }
            }

            #[test]
            fn dot_i8_parity(v in proptest::collection::vec(
                (0u16..256, -128i16..128),
                0..200,
            )) {
                let a: Vec<u8> = v.iter().map(|t| t.0 as u8).collect();
                let q: Vec<i8> = v.iter().map(|t| t.1 as i8).collect();
                let want = scalar::dot_i8(&a, &q);
                for k in available_backends() {
                    prop_assert_eq!((k.dot_i8)(&a, &q), want, "backend {}", k.name);
                }
            }

            /// The screen kernels at the lengths that straddle every tier's
            /// step (16 / 32 / 64 codes) and at the benchmark's d = 300,
            /// on codes drawn from the extremes as well as the full range:
            /// 255 × ±127/−128 in every lane is the case a saturating
            /// multiply-add (`maddubs`, `vpdpbusds`) gets wrong.
            #[test]
            fn i8_kernels_parity_at_step_boundaries(
                len_pick in 0usize..7,
                seed in 0u64..1 << 32,
                extreme in 0usize..3,
            ) {
                let len = [31usize, 32, 33, 63, 64, 65, 300][len_pick];
                let mut rng = proptest::test_runner::TestRng::from_name(&format!("i8-{seed}"));
                let mut code = |signed: bool| -> u8 {
                    let r = rng.below(256) as u8;
                    match (extreme, signed) {
                        (0, _) => r,
                        (1, false) => 255,
                        (1, true) => if r & 1 == 0 { 127 } else { 0x80 },
                        (_, false) => if r & 1 == 0 { 255 } else { 0 },
                        (_, true) => 0x80,
                    }
                };
                let rows: Vec<Vec<u8>> = (0..4).map(|_| (0..len).map(|_| code(false)).collect()).collect();
                let qi: Vec<i8> = (0..len).map(|_| code(true) as i8).collect();
                let want_dot = scalar::dot4_i8(&rows[0], &rows[1], &rows[2], &rows[3], &qi);
                for k in available_backends() {
                    prop_assert_eq!(
                        (k.dot4_i8)(&rows[0], &rows[1], &rows[2], &rows[3], &qi),
                        want_dot, "backend {} len {}", k.name, len
                    );
                    for r in 0..4 {
                        prop_assert_eq!((k.dot_i8)(&rows[r], &qi), want_dot[r], "backend {} len {}", k.name, len);
                    }
                }
            }

            /// The screen's column kernel is exact on every backend: widths
            /// of half, one or two cache lines (the sixteen-row bodies) and
            /// widths that are not (the blocked loop), row counts covering
            /// every remainder of sixteen and of four, and the extreme
            /// codes a saturating multiply-add gets wrong.
            #[test]
            fn dot_col_i8_parity(
                w_pick in 0usize..6,
                n in 0usize..70,
                seed in 0u64..1 << 32,
                extreme in 0usize..3,
            ) {
                let w = [32usize, 64, 128, 192, 300, 5][w_pick];
                let mut rng = proptest::test_runner::TestRng::from_name(&format!("dotcol-{seed}"));
                let mut code = |signed: bool| -> u8 {
                    let r = rng.below(256) as u8;
                    match (extreme, signed) {
                        (0, _) => r,
                        (1, false) => if r & 1 == 0 { 255 } else { 0 },
                        (1, true) => if r & 2 == 0 { 127 } else { 0x81 },
                        (_, false) => 255,
                        (_, true) => if r & 1 == 0 { 127 } else { 0x81 },
                    }
                };
                let rows: Vec<u8> = (0..n * w).map(|_| code(false)).collect();
                let q: Vec<i8> = (0..w).map(|_| code(true) as i8).collect();
                let want: Vec<i32> = rows.chunks_exact(w).map(|r| scalar::dot_i8(r, &q)).collect();
                for k in available_backends() {
                    let mut got = vec![i32::MIN; n];
                    (k.dot_col_i8)(&rows, w, &q, &mut got);
                    prop_assert_eq!(&got, &want, "backend {} w {} n {}", k.name, w, n);
                }
            }

            /// Up to `SHORT_MAX` coordinates a row's squared distance is one
            /// number: the column kernel over every backend's `sq_dist4`, the public
            /// `sq_dist4` in any of its four slots and the public `sq_dist`
            /// return the bits of the sequential reference, wherever the row
            /// sits in the column and whatever the column's length mod 4
            /// (or mod the vector width). Past `SHORT_MAX` the column kernel
            /// returns its backend's `sq_dist4` bits, again at any position.
            #[test]
            fn sq_dist_col_is_position_independent(
                m in 1usize..21,
                n in 1usize..70,
                seed in 0u64..1 << 32,
            ) {
                let mut rng = proptest::test_runner::TestRng::from_name(&format!("col-{seed}"));
                let mut coord = || ((rng.unit_f64() - 0.5) * 2e2) as f32;
                let rows: Vec<f32> = (0..n * m).map(|_| coord()).collect();
                let q: Vec<f32> = (0..m).map(|_| coord()).collect();
                let row = |i: usize| &rows[i * m..(i + 1) * m];
                for k in available_backends() {
                    let mut got = vec![f64::NAN; n];
                    scalar::sq_dist_col_with(k.sq_dist4, &rows, m, &q, &mut got);
                    for (i, got) in got.iter().enumerate() {
                        let filler = row((i + 1) % n);
                        let slot = i % 4;
                        let block = |kernel: Dot4Fn| {
                            let mut r = [filler; 4];
                            r[slot] = row(i);
                            kernel(r[0], r[1], r[2], r[3], &q)[slot]
                        };
                        if m <= SHORT_MAX {
                            let want = scalar::sq_dist_seq(row(i), &q).to_bits();
                            prop_assert_eq!(got.to_bits(), want, "backend {} m {} row {}/{}", k.name, m, i, n);
                            prop_assert_eq!(sq_dist(row(i), &q).to_bits(), want);
                            prop_assert_eq!(block(sq_dist4).to_bits(), want);
                        } else {
                            let want = block(k.sq_dist4);
                            prop_assert_eq!(got.to_bits(), want.to_bits(), "backend {} m {} row {}/{}", k.name, m, i, n);
                            prop_assert!(close(want, scalar::sq_dist(row(i), &q)));
                        }
                    }
                    // A row keeps its bits when the column around it changes.
                    let cut = n / 2;
                    let mut tail = vec![f64::NAN; n - cut];
                    scalar::sq_dist_col_with(k.sq_dist4, &rows[cut * m..], m, &q, &mut tail);
                    prop_assert!(tail.iter().zip(&got[cut..]).all(|(a, b)| a.to_bits() == b.to_bits()));
                }
            }

            #[test]
            fn sq_dist4_parity(v in proptest::collection::vec(
                (-1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2),
                0..150,
            )) {
                let cols: Vec<Vec<f32>> = (0..5)
                    .map(|c| v.iter().map(|t| [t.0, t.1, t.2, t.3, t.4][c]).collect())
                    .collect();
                let want = scalar::sq_dist4(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                for k in available_backends() {
                    let got = (k.sq_dist4)(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                    for r in 0..4 {
                        prop_assert!(close(got[r], want[r]), "backend {} row {}", k.name, r);
                    }
                }
            }
        }
    }
}
