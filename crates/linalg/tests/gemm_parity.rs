//! `Matrix::gemm_nt` is register-blocked four rows by four; a product
//! must not be able to tell which tile, column tail or row tail it fell
//! in. The reference is the loop `gemm_nt` ran before it was blocked — per
//! row of the left operand, `dot4` over every four rows of the right one
//! and `dot` for the rest — and the comparison is of bits: the index files
//! built through it are compared byte for byte.

use promips_linalg::dispatch::available_backends;
use promips_linalg::{dot, dot4, Matrix};
use proptest::prelude::*;

fn matrix(rng: &mut proptest::test_runner::TestRng, rows: usize, d: usize) -> Matrix {
    let data = (0..rows * d).map(|_| ((rng.unit_f64() - 0.5) * 2e2) as f32);
    Matrix::from_vec(rows, d, data.collect())
}

proptest! {
    /// The tile kernel of every backend the host can run returns that
    /// backend's `dot4` bits, at lengths on both sides of every vector
    /// step (`d` is not kept a multiple of 8: the scalar tail runs too).
    #[test]
    fn dot4x4_is_dot4_to_the_bit(d in 0usize..70, seed in 0u64..1 << 32) {
        let mut rng = proptest::test_runner::TestRng::from_name(&format!("tile-{seed}"));
        let (a, b) = (matrix(&mut rng, 4, d), matrix(&mut rng, 4, d));
        let rows = |m: &Matrix| -> [Vec<f32>; 4] { std::array::from_fn(|r| m.row(r).to_vec()) };
        let (a, b) = (rows(&a), rows(&b));
        for k in available_backends() {
            let tile = (k.dot4x4)(a.each_ref().map(|r| &r[..]), b.each_ref().map(|r| &r[..]));
            for (i, ai) in a.iter().enumerate() {
                let want = (k.dot4)(&b[0], &b[1], &b[2], &b[3], ai);
                for j in 0..4 {
                    prop_assert_eq!(
                        tile[i][j].to_bits(), want[j].to_bits(),
                        "backend {} ({}, {}), d {}", k.name, i, j, d
                    );
                }
            }
        }
    }

    /// Any row range of `gemm_nt_rows`, tiled from its own first row, is
    /// those rows of the whole product to the bit: `project_all` splits
    /// its rows into blocks and the file must not tell.
    #[test]
    fn gemm_nt_rows_is_a_slice_of_gemm_nt(
        n in 0usize..14,
        m in 0usize..10,
        d in 0usize..45,
        cut in (0usize..14, 0usize..14),
        seed in 0u64..1 << 32,
    ) {
        let mut rng = proptest::test_runner::TestRng::from_name(&format!("rows-{seed}"));
        let (a, b) = (matrix(&mut rng, n, d), matrix(&mut rng, m, d));
        let (lo, hi) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
        let whole = a.gemm_nt(&b);
        let part = a.gemm_nt_rows(lo..hi, &b);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&part), bits(&whole.as_slice()[lo * m..hi * m]));
    }

    /// The dispatched `gemm_nt` against the unblocked loop, both operands
    /// running through row counts 0–9: whole tiles, both tails, the empty
    /// shapes. (CI runs this file under `PROMIPS_FORCE_SCALAR=1` as well.)
    #[test]
    fn gemm_nt_is_the_unblocked_loop_to_the_bit(
        n in 0usize..10,
        m in 0usize..10,
        d in 0usize..45,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = proptest::test_runner::TestRng::from_name(&format!("gemm-{seed}"));
        let (a, b) = (matrix(&mut rng, n, d), matrix(&mut rng, m, d));
        let got = a.gemm_nt(&b);
        prop_assert_eq!((got.rows(), got.cols()), (n, m));
        for i in 0..n {
            let x = a.row(i);
            for j in 0..m {
                let base = j / 4 * 4;
                let want = if base + 4 <= m {
                    dot4(b.row(base), b.row(base + 1), b.row(base + 2), b.row(base + 3), x)[j - base]
                } else {
                    dot(b.row(j), x)
                } as f32;
                prop_assert_eq!(
                    got.row(i)[j].to_bits(), want.to_bits(),
                    "({}, {}) of {}x{}, d {}", i, j, n, m, d
                );
            }
        }
    }
}
