//! 2-stable random projections (paper Definition 2).
//!
//! An `m × d` matrix `V` with i.i.d. N(0,1) entries projects a point `o` to
//! `P(o) = V·o`. By the 2-stability of the normal distribution (Lemma 1),
//! every coordinate of `P(o₁) − P(o₂)` is distributed `N(0, dis²(o₁,o₂))`,
//! so `dis²(P(o₁),P(o₂)) / dis²(o₁,o₂) ~ χ²(m)` (Lemma 2) — the fact every
//! probability statement in the paper rests on.

use promips_linalg::{sweep, Matrix};
use promips_stats::Xoshiro256pp;

/// Rows of one [`Projection::project_all`] item: a multiple of
/// [`Matrix::gemm_nt`]'s 4-row tile, 4.9 MB of 300-float rows.
const PROJECT_BLOCK_ROWS: usize = 4096;

/// An immutable Gaussian projection.
#[derive(Debug, Clone)]
pub struct Projection {
    matrix: Matrix, // m × d
}

impl Projection {
    /// Draws an `m × d` projection from the seeded generator.
    pub fn generate(m: usize, d: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut data = Vec::with_capacity(m * d);
        for _ in 0..m * d {
            data.push(rng.normal() as f32);
        }
        Self {
            matrix: Matrix::from_vec(m, d, data),
        }
    }

    /// Projected dimensionality `m`.
    pub fn m(&self) -> usize {
        self.matrix.rows()
    }

    /// Original dimensionality `d`.
    pub fn d(&self) -> usize {
        self.matrix.cols()
    }

    /// Projects one point: `P(o) = V·o`.
    pub fn project(&self, point: &[f32]) -> Vec<f32> {
        self.matrix.matvec(point)
    }

    /// Allocation-free projection: resizes `out` to `m` and writes `V·o`
    /// into it. Search paths reuse one buffer across queries via
    /// [`crate::search::SearchScratch`].
    pub fn project_into(&self, point: &[f32], out: &mut Vec<f32>) {
        out.resize(self.m(), 0.0);
        self.matrix.matvec_into(point, out);
    }

    /// Projects every row of `data` (n × d) into an n × m matrix as one
    /// register-blocked `data · Vᵀ` ([`Matrix::gemm_nt`]) instead of n
    /// independent allocating matvecs, `PROJECT_BLOCK_ROWS` rows an item
    /// of [`sweep::map`]: on both cores, and a row's floats are the same
    /// whichever block holds it.
    pub fn project_all(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.d(), "data dimensionality mismatch");
        let n = data.rows();
        let rows = |b: usize| b * PROJECT_BLOCK_ROWS..((b + 1) * PROJECT_BLOCK_ROWS).min(n);
        let block = |b: usize| data.gemm_nt_rows(rows(b), &self.matrix);
        let blocks = sweep::map(n.div_ceil(PROJECT_BLOCK_ROWS), block, || ()).1;
        Matrix::from_vec(n, self.m(), blocks.concat())
    }

    /// The raw matrix (rows are the `m` random vectors).
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Wraps an existing `m × d` matrix (used when reopening a persisted
    /// index, whose projection must be bit-identical to the one it was
    /// built with).
    pub fn from_matrix(matrix: Matrix) -> Self {
        Self { matrix }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_linalg::{sq_dist, sq_norm2};
    use promips_stats::chi2_cdf;

    #[test]
    fn shapes() {
        let p = Projection::generate(6, 50, 1);
        assert_eq!(p.m(), 6);
        assert_eq!(p.d(), 50);
        assert_eq!(p.project(&[0.5; 50]).len(), 6);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Projection::generate(4, 10, 42);
        let b = Projection::generate(4, 10, 42);
        assert_eq!(a.matrix(), b.matrix());
        let c = Projection::generate(4, 10, 43);
        assert_ne!(a.matrix(), c.matrix());
    }

    #[test]
    fn linearity() {
        let p = Projection::generate(3, 8, 7);
        let x = vec![1.0f32; 8];
        let y: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let sum: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let px = p.project(&x);
        let py = p.project(&y);
        let psum = p.project(&sum);
        for i in 0..3 {
            assert!((px[i] + py[i] - psum[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn project_into_reuses_buffer_and_matches() {
        let p = Projection::generate(7, 20, 9);
        let a: Vec<f32> = (0..20).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..20).map(|i| (i as f32).cos()).collect();
        let mut buf = Vec::new();
        p.project_into(&a, &mut buf);
        assert_eq!(buf, p.project(&a));
        p.project_into(&b, &mut buf);
        assert_eq!(buf, p.project(&b));
        assert_eq!(buf.len(), 7);
    }

    #[test]
    fn project_all_matches_project() {
        let p = Projection::generate(5, 12, 3);
        let data = Matrix::from_rows(12, (0..20).map(|i| vec![(i % 7) as f32; 12]));
        let all = p.project_all(&data);
        for i in 0..20 {
            assert_eq!(all.row(i), p.project(data.row(i)).as_slice());
        }
    }

    #[test]
    fn distance_ratio_follows_chi_square() {
        // Empirical check of Lemma 2: the CDF-transformed ratios should be
        // roughly uniform. We bin Ψm(ratio) into quartiles over many
        // independent projections of a fixed pair.
        let d = 64;
        let m = 8;
        let a = vec![0.3f32; d];
        let b: Vec<f32> = (0..d).map(|i| 0.3 + 0.01 * (i as f32)).collect();
        let true_sq = sq_dist(&a, &b);
        let mut quartiles = [0usize; 4];
        let trials = 2000;
        for t in 0..trials {
            let p = Projection::generate(m, d, 1000 + t as u64);
            let pa = p.project(&a);
            let pb = p.project(&b);
            let ratio = sq_dist(&pa, &pb) / true_sq;
            let u = chi2_cdf(m as u32, ratio);
            let bin = ((u * 4.0) as usize).min(3);
            quartiles[bin] += 1;
        }
        for (i, &count) in quartiles.iter().enumerate() {
            let frac = count as f64 / trials as f64;
            assert!(
                (frac - 0.25).abs() < 0.05,
                "quartile {i}: {frac} (counts {quartiles:?})"
            );
        }
    }

    #[test]
    fn projected_norm_concentration() {
        // E[‖P(o)‖²] = m·‖o‖² for Gaussian projections.
        let d = 100;
        let m = 10;
        let o: Vec<f32> = (0..d).map(|i| (i as f32 * 0.01).sin()).collect();
        let base = sq_norm2(&o);
        let trials = 500;
        let mean: f64 = (0..trials)
            .map(|t| {
                let p = Projection::generate(m, d, 5000 + t as u64);
                sq_norm2(&p.project(&o))
            })
            .sum::<f64>()
            / trials as f64;
        let expected = m as f64 * base;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean} vs expected {expected}"
        );
    }
}
