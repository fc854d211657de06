//! Row-major dense matrix, used for datasets (n × d), projection matrices
//! (m × d), and PQ codebooks.

use std::ops::Range;

use crate::dispatch::kernels;
use crate::vector::{dot, dot4};

/// A row-major dense `f32` matrix.
///
/// Rows are the natural unit here: a dataset is a matrix whose rows are
/// points; a projection is a matrix whose rows are the `m` 2-stable random
/// vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing buffer. `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer size {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix row by row from an iterator of row slices.
    pub fn from_rows(cols: usize, rows_iter: impl IntoIterator<Item = Vec<f32>>) -> Self {
        let mut data = Vec::new();
        let mut rows = 0;
        for row in rows_iter {
            assert_eq!(row.len(), cols, "row {rows} has wrong width");
            data.extend_from_slice(&row);
            rows += 1;
        }
        Self { rows, cols, data }
    }

    /// Number of rows (points).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (dimensionality).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true if the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over rows. A zero-column matrix yields no rows (its backing
    /// buffer is empty, so there is nothing to chunk).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The raw backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix–vector product `self · x`, returning an `f32` vector with
    /// `f64` accumulation per row. This is exactly the m-fold 2-stable
    /// random projection of Definition 2 when `self` is the m × d matrix of
    /// i.i.d. N(0,1) rows.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Calls `f(row, ⟨row, q⟩)` for each row in `lo..hi`, scoring four
    /// contiguous rows per blocked [`dot4`] call (scalar-kernel tail) — the
    /// shared inner loop of the exact ground-truth scanners.
    pub fn dot_rows(&self, lo: usize, hi: usize, q: &[f32], mut f: impl FnMut(usize, f64)) {
        debug_assert!(lo <= hi && hi <= self.rows);
        let mut i = lo;
        while i + 4 <= hi {
            let ips = dot4(
                self.row(i),
                self.row(i + 1),
                self.row(i + 2),
                self.row(i + 3),
                q,
            );
            for (j, &ip) in ips.iter().enumerate() {
                f(i + j, ip);
            }
            i += 4;
        }
        for r in i..hi {
            f(r, dot(self.row(r), q));
        }
    }

    /// Allocation-free matrix–vector product: writes `self · x` into `out`
    /// (`out.len()` must equal the row count). Rows are processed four at a
    /// time through the register-blocked [`dot4`] kernel, so `x` is loaded
    /// once per block instead of once per row.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec: output length mismatch");
        let c = self.cols;
        let blocks = self.rows / 4;
        for bi in 0..blocks {
            let base = bi * 4;
            let p = &self.data[base * c..];
            let r = dot4(&p[..c], &p[c..2 * c], &p[2 * c..3 * c], &p[3 * c..4 * c], x);
            out[base] = r[0] as f32;
            out[base + 1] = r[1] as f32;
            out[base + 2] = r[2] as f32;
            out[base + 3] = r[3] as f32;
        }
        for (i, slot) in out.iter_mut().enumerate().skip(blocks * 4) {
            *slot = dot(self.row(i), x) as f32;
        }
    }

    /// `self · otherᵀ` — both operands row-major, result `n × m` where
    /// `self` is `n × d` and `other` is `m × d`. Entry `(i, j)` is
    /// `⟨self.row(i), other.row(j)⟩` with `f64` accumulation, to the bit
    /// what `other.matvec_into(self.row(i), ..)` writes at `j`.
    ///
    /// This is the batched form of [`Matrix::matvec`] — projecting a whole
    /// dataset is `data.gemm_nt(projection)` — register-blocked four rows
    /// by four: each 4 × 4 tile of the result is one `dot4x4` call, so a
    /// pass over `other` serves four rows of `self`. The last `m % 4`
    /// columns and `n % 4` rows take [`dot`] and [`dot4`] as `matvec_into`
    /// does.
    pub fn gemm_nt(&self, other: &Matrix) -> Matrix {
        Matrix::from_vec(
            self.rows,
            other.rows,
            self.gemm_nt_rows(0..self.rows, other),
        )
    }

    /// Rows `rows` of [`Self::gemm_nt`], flat (`rows.len() × m`), tiled from
    /// `rows.start`: a row's products are the same bits whichever range
    /// holds it and wherever its tile starts.
    pub fn gemm_nt_rows(&self, rows: Range<usize>, other: &Matrix) -> Vec<f32> {
        assert_eq!(self.cols, other.cols, "gemm_nt: inner dimension mismatch");
        let m = other.rows;
        let dot4x4 = kernels().dot4x4;
        let mut out = vec![0.0f32; rows.len() * m];
        let tiled = (rows.start + rows.len() / 4 * 4, m / 4 * 4);
        for i in (rows.start..tiled.0).step_by(4) {
            let a: [&[f32]; 4] = std::array::from_fn(|r| self.row(i + r));
            let out = &mut out[(i - rows.start) * m..];
            for j in (0..tiled.1).step_by(4) {
                let tile = dot4x4(a, std::array::from_fn(|r| other.row(j + r)));
                for (r, sums) in tile.iter().enumerate() {
                    for (c, &sum) in sums.iter().enumerate() {
                        out[r * m + j + c] = sum as f32;
                    }
                }
            }
            for j in tiled.1..m {
                for (r, row) in a.iter().enumerate() {
                    out[r * m + j] = dot(other.row(j), row) as f32;
                }
            }
        }
        for i in tiled.0..rows.end {
            let at = (i - rows.start) * m;
            other.matvec_into(self.row(i), &mut out[at..at + m]);
        }
        out
    }

    /// Appends a row. Must match the column count.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Gathers the given row indices into a new matrix (used to materialize
    /// query sets and cluster splits).
    pub fn gather(&self, indices: &[usize]) -> Matrix {
        let mut out = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            out.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_size() {
        Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0]);
        let y = m.matvec(&[3.0, 4.0, 5.0]);
        assert_eq!(y, vec![-2.0, 10.0]);
    }

    #[test]
    fn matvec_into_matches_per_row_dot() {
        // 11 rows exercises both the 4-row blocks and the remainder rows.
        let rows = 11;
        let cols = 9;
        let m = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i * 37 % 19) as f32) - 9.0)
                .collect(),
        );
        let x: Vec<f32> = (0..cols).map(|i| (i as f32) * 0.5 - 2.0).collect();
        let mut out = vec![0.0f32; rows];
        m.matvec_into(&x, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let want = dot(m.row(i), &x) as f32;
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0), "row {i}");
        }
    }

    #[test]
    fn gemm_nt_matches_dots() {
        let a = Matrix::from_vec(5, 7, (0..35).map(|i| (i as f32 * 0.3).sin()).collect());
        let b = Matrix::from_vec(6, 7, (0..42).map(|i| (i as f32 * 0.7).cos()).collect());
        let c = a.gemm_nt(&b);
        assert_eq!((c.rows(), c.cols()), (5, 6));
        for i in 0..5 {
            for j in 0..6 {
                let want = dot(a.row(i), b.row(j)) as f32;
                let got = c.row(i)[j];
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn gemm_nt_degenerate_shapes() {
        let a = Matrix::zeros(3, 4);
        let empty = Matrix::zeros(0, 4);
        let c = a.gemm_nt(&empty);
        assert_eq!((c.rows(), c.cols()), (3, 0));
        let c2 = empty.gemm_nt(&a);
        assert_eq!((c2.rows(), c2.cols()), (0, 3));
    }

    #[test]
    fn push_row_and_gather() {
        let mut m = Matrix::zeros(0, 2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        m.push_row(&[5.0, 6.0]);
        let g = m.gather(&[2, 0]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn from_rows_builder() {
        let m = Matrix::from_rows(2, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }
}
