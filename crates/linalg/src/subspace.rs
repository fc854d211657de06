//! Dominant-subspace estimation for the rows of a matrix: orthogonal
//! (subspace) iteration with Gram–Schmidt, on the crate's `f32`-storage /
//! `f64`-accumulation kernels.
//!
//! Only the top few directions of a sample's second-moment matrix `XᵀX` are
//! ever wanted here (an energy-ordered *head* of the coordinates), so
//! neither it nor its eigendecomposition is formed: each round applies `X`
//! and then `Xᵀ` to an `h × d` block (`2·h·s·d` multiply-adds for `s`
//! sample rows) and re-orthonormalizes the block's rows (`h²·d`). The
//! result's quality is a matter of tightness only — callers bound what the
//! subspace misses and measure how far the rows they store are from
//! orthonormal ([`orthonormality_defect`]).

use crate::matrix::Matrix;
use crate::vector::{norm2, sq_norm2};

/// `x` with rows and columns exchanged.
pub fn transpose(x: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(x.cols(), x.rows());
    for (i, row) in x.iter_rows().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            t.row_mut(j)[i] = v;
        }
    }
    t
}

/// One classical Gram–Schmidt pass: removes from `row` its components along
/// the (orthonormal) rows `basis[..upto]`.
fn project_out(basis: &Matrix, upto: usize, row: &mut [f32]) {
    let mut rest: Vec<f64> = row.iter().map(|&x| x as f64).collect();
    basis.dot_rows(0, upto, row, |i, coeff| {
        for (r, &v) in rest.iter_mut().zip(basis.row(i)) {
            *r -= coeff * v as f64;
        }
    });
    for (x, r) in row.iter_mut().zip(rest) {
        *x = r as f32;
    }
}

/// Orthonormalizes the rows of `b` in place, in order (Gram–Schmidt, each
/// row against the earlier ones twice). A row that is numerically inside
/// the span of the earlier ones — or zero, or not finite — is replaced by a
/// coordinate axis that is not, so the result always has `b.rows()`
/// orthonormal rows.
///
/// # Panics
/// Panics if `b` has more rows than columns.
pub fn orthonormalize_rows(b: &mut Matrix) {
    let (h, d) = (b.rows(), b.cols());
    assert!(h <= d, "cannot orthonormalize {h} rows in {d} dimensions");
    let mut row = vec![0.0f32; d];
    let mut next_axis = 0;
    for j in 0..h {
        row.copy_from_slice(b.row(j));
        let before = norm2(&row);
        project_out(b, j, &mut row);
        let kept = norm2(&row);
        if kept.is_nan() || kept <= 1e-4 * before {
            // The squared residuals of the d axes sum to d − j (the trace
            // of the projector off the span), so one of them keeps at
            // least the mean.
            loop {
                row.fill(0.0);
                row[next_axis % d] = 1.0;
                next_axis += 1;
                project_out(b, j, &mut row);
                let kept = norm2(&row);
                if kept * kept * d as f64 >= (d - j) as f64 * 0.999 {
                    break;
                }
            }
        }
        project_out(b, j, &mut row);
        let inv = (1.0 / norm2(&row)) as f32;
        for (o, &x) in b.row_mut(j).iter_mut().zip(&row) {
            *o = x * inv;
        }
    }
}

/// `iters` rounds of orthogonal iteration on `XᵀX` from the `h × d` block
/// `start`, for the `s × d` sample `x` and its transpose `xt`: returns `h`
/// orthonormal rows whose leading ones approach the sample's dominant right
/// singular vectors in order (row `j` at the rate of the gaps between the
/// squared singular values around it), so that every prefix of the rows
/// spans an estimate of the dominant subspace of that size.
pub fn top_subspace(x: &Matrix, xt: &Matrix, start: Matrix, iters: usize) -> Matrix {
    assert_eq!(
        (x.rows(), x.cols()),
        (xt.cols(), xt.rows()),
        "top_subspace: xt is not x transposed"
    );
    let mut b = start;
    orthonormalize_rows(&mut b);
    for _ in 0..iters {
        // (b·Xᵀ)·X: XᵀX applied to every basis vector.
        b = b.gemm_nt(x).gemm_nt(xt);
        orthonormalize_rows(&mut b);
    }
    b
}

/// The energy the sample `x` has along each row of `v`: `‖X·vⱼ‖²`. With
/// orthonormal rows, their sum over a prefix of the rows is the energy
/// inside that prefix's span, and [`energy`] minus it what the span misses.
pub fn row_energies(x: &Matrix, v: &Matrix) -> Vec<f64> {
    v.gemm_nt(x).iter_rows().map(sq_norm2).collect()
}

/// The sample's total energy `‖X‖_F²` (`trace(XᵀX)`).
pub fn energy(x: &Matrix) -> f64 {
    x.iter_rows().map(sq_norm2).sum()
}

/// `‖V·Vᵀ − I‖` in the Frobenius norm (an upper bound on the spectral one)
/// of the rows of `v` **as stored**: how far they are from orthonormal.
pub fn orthonormality_defect(v: &Matrix) -> f64 {
    let h = v.rows();
    let mut sum = 0.0f64;
    for i in 0..h {
        v.dot_rows(0, h, v.row(i), |j, g| {
            let e = g - (i == j) as u8 as f64;
            sum += e * e;
        });
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream in [−1, 1).
    fn stream(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        }
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut next = stream(seed);
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    /// `n` rows inside a `rank`-dimensional subspace of `d` dimensions,
    /// plus `noise` per coordinate.
    fn low_rank(n: usize, d: usize, rank: usize, noise: f32, seed: u64) -> Matrix {
        let mix = random(rank, d, seed);
        let mut next = stream(seed ^ 0xABCD);
        Matrix::from_rows(
            d,
            (0..n).map(|_| {
                let mut row = vec![0.0f32; d];
                for r in 0..rank {
                    let z = next() / (r + 1) as f32;
                    for (o, &w) in row.iter_mut().zip(mix.row(r)) {
                        *o += z * w;
                    }
                }
                row.iter_mut().for_each(|x| *x += noise * next());
                row
            }),
        )
    }

    #[test]
    fn orthonormalize_survives_dependent_zero_and_nan_rows() {
        let mut b = random(6, 9, 2);
        let first = b.row(0).to_vec();
        b.row_mut(1).copy_from_slice(&first); // dependent
        b.row_mut(2).fill(0.0); // zero
        b.row_mut(3)[4] = f32::NAN; // not finite
        orthonormalize_rows(&mut b);
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
        assert!(orthonormality_defect(&b) < 1e-5);
        // A square block: every axis replacement must still be found.
        let mut full = Matrix::zeros(4, 4);
        orthonormalize_rows(&mut full);
        assert!(orthonormality_defect(&full) < 1e-5);
    }

    #[test]
    fn subspace_iteration_finds_an_exactly_low_rank_span() {
        let (d, rank, h) = (40, 6, 8);
        let x = low_rank(300, d, rank, 0.0, 3);
        let v = top_subspace(&x, &transpose(&x), random(h, d, 4), 3);
        assert!(orthonormality_defect(&v) < 1e-5);
        let energies = row_energies(&x, &v);
        let trace = energy(&x);
        let head: f64 = energies.iter().sum();
        assert!(
            (trace - head).abs() <= 1e-5 * trace,
            "{head} of {trace} captured"
        );
        // The span is found by its first `rank` rows; the rest carry nothing.
        assert!(energies[rank..].iter().all(|e| e.abs() <= 1e-5 * trace));
    }

    #[test]
    fn prefixes_capture_energy_in_decreasing_order() {
        let (d, h) = (32, 8);
        let x = low_rank(400, d, 12, 0.05, 5);
        let v = top_subspace(&x, &transpose(&x), random(h, d, 6), 8);
        let e = row_energies(&x, &v);
        // In order, up to directions whose energies are within a few per
        // cent of each other (those converge last).
        assert!(e.windows(2).all(|w| w[0] >= w[1] * 0.9), "{e:?}");
        assert!(e.iter().sum::<f64>() <= energy(&x) * (1.0 + 1e-6));
        // Fewer sample rows than block rows: the span is all there is.
        let few = low_rank(5, d, 12, 0.05, 7);
        let v = top_subspace(&few, &transpose(&few), random(h, d, 8), 2);
        assert!(orthonormality_defect(&v) < 1e-5);
        let got: f64 = row_energies(&few, &v).iter().sum();
        assert!((energy(&few) - got).abs() <= 1e-5 * energy(&few));
    }
}
