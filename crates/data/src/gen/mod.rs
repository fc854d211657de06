//! The three generator families, and two synthetic shapes for tests (low
//! rank plus noise; tight clusters).
//!
//! Each generator is deterministic in its seed and produces an
//! `(n × d)` matrix; each family's doc names the properties of its paper
//! dataset it reproduces.

use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;

/// PureSVD-style latent factor items (Netflix / Yahoo stand-ins).
///
/// `o = popularity · W (s ⊙ z)` with a fixed `d × rank` mixing matrix `W`,
/// per-item standard normal latents `z`, power-law singular values
/// `s_r = (r+1)^{-1/2}`, and a log-normal popularity multiplier. This
/// reproduces the two properties of PureSVD item factors that matter for
/// MIPS benchmarking: a decaying spectrum (inner products dominated by a
/// few directions) and a long-tailed 2-norm distribution.
pub fn latent_factor(n: usize, d: usize, rank: usize, popularity_sigma: f64, seed: u64) -> Matrix {
    let rank = rank.min(d).max(1);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);

    // Mixing matrix W: d × rank, entries N(0, 1/rank) so ‖o‖ = O(1).
    let winv = 1.0 / (rank as f64).sqrt();
    let w: Vec<f32> = (0..d * rank)
        .map(|_| (rng.normal() * winv) as f32)
        .collect();
    let sv: Vec<f64> = (0..rank).map(|r| 1.0 / ((r + 1) as f64).sqrt()).collect();

    let mut out = Vec::with_capacity(n * d);
    let mut latent = vec![0.0f64; rank];
    for _ in 0..n {
        for (r, l) in latent.iter_mut().enumerate() {
            *l = rng.normal() * sv[r];
        }
        let popularity = (popularity_sigma * rng.normal()).exp();
        for row in 0..d {
            let mut acc = 0.0f64;
            let base = row * rank;
            for r in 0..rank {
                acc += w[base + r] as f64 * latent[r];
            }
            out.push((acc * popularity) as f32);
        }
    }
    let mut m = Matrix::from_vec(n, d, out);

    // Norm tempering: raw low-rank mixtures produce a heavier 2-norm tail
    // (max/median ≈ 5–7×) than real PureSVD item factors, whose norm
    // histograms (Yan et al. 2018, Fig. 1) peak near ~60% of the maximum —
    // max/median ≈ 1.6–1.8. Rescale each vector's norm toward the median
    // with exponent γ — direction and norm *ordering* are preserved, only
    // the spread is calibrated to the real datasets' documented shape.
    const GAMMA: f64 = 0.35;
    let mut norms: Vec<f64> = (0..n).map(|i| promips_linalg::norm2(m.row(i))).collect();
    let mut sorted = norms.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[n / 2].max(1e-12);
    for (i, raw_norm) in norms.iter_mut().enumerate() {
        let norm = raw_norm.max(1e-12);
        let target = median * (norm / median).powf(GAMMA);
        let scale = (target / norm) as f32;
        for v in m.row_mut(i) {
            *v *= scale;
        }
        *raw_norm = target;
    }
    m
}

/// Block-correlated heavy-tailed features (P53 stand-in).
///
/// Features come in blocks of `block` correlated coordinates (one shared
/// block factor + private noise), and a sparse heavy-tail component makes a
/// small fraction of coordinates spike — mimicking biophysical feature
/// vectors where groups of descriptors co-vary and a few dominate.
pub fn bio_feature(n: usize, d: usize, block: usize, seed: u64) -> Matrix {
    let block = block.clamp(1, d);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * d);
    for _ in 0..n {
        let mut col = 0;
        while col < d {
            let width = block.min(d - col);
            let shared = rng.normal();
            for _ in 0..width {
                let mut v = 0.7 * shared + 0.5 * rng.normal();
                // Sparse heavy tail: ~2% of coordinates get a gamma spike.
                if rng.uniform() < 0.02 {
                    v += rng.gamma(2.0, 1.5) * if rng.uniform() < 0.5 { 1.0 } else { -1.0 };
                }
                out.push(v as f32);
            }
            col += width;
        }
    }
    Matrix::from_vec(n, d, out)
}

/// Gaussian directions with log-uniform norm skew spanning three decades
/// (`‖o‖ ∝ 10^U(−2,1)`).
///
/// I.i.d. Gaussian rows concentrate every 2-norm near `√d`, which makes
/// norm-aware methods (norm-range sharding, Cauchy–Schwarz shard pruning)
/// look inert; real MIPS embedding tables have norm spreads of orders of
/// magnitude. This generator is the standard workload for exercising the
/// sharded fan-out's pruning path — shared by its tests, `benchmark/`'s
/// `skew64_shard4` workload and `examples/sharded.rs`.
pub fn norm_skewed(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| {
            let scale = (10.0f64).powf(rng.uniform_range(-2.0, 1.0)) as f32;
            (0..d)
                .map(|_| rng.normal() as f32 * scale)
                .collect::<Vec<f32>>()
        }),
    )
}

/// Non-negative gradient-histogram vectors in the `u8` range (SIFT
/// stand-in): AR(1)-smoothed gamma draws, clipped to `[0, 255]`, with the
/// characteristic many-small / few-large bin profile of SIFT descriptors.
pub fn sift_histogram(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * d);
    for _ in 0..n {
        let mut prev = rng.gamma(1.2, 18.0);
        for _ in 0..d {
            let fresh = rng.gamma(1.2, 18.0);
            // AR(1) smoothing: adjacent histogram bins correlate.
            let v = 0.45 * prev + 0.55 * fresh;
            prev = v;
            out.push(v.clamp(0.0, 255.0).floor() as f32);
        }
    }
    Matrix::from_vec(n, d, out)
}

/// Rows inside a `rank`-dimensional subspace of `d` dimensions (Gaussian
/// mixing directions, unit Gaussian latents) plus `noise`·N(0, 1) per
/// coordinate — a spectrum with a knee, for everything that orders
/// coordinates by energy. With `d ≥ 128` and `rank ≤ 64` the verification
/// codes of an index over such rows are a 64-byte head as long as the noise
/// leaves at most a fiftieth of the energy outside it (roughly
/// `0.87·(d − 64)·noise²` against `rank·d + d·noise²`): for d = 160 and
/// rank 20, up to `noise ≈ 0.9`.
pub fn low_rank(n: usize, d: usize, rank: usize, noise: f64, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mix: Vec<Vec<f64>> = (0..rank)
        .map(|_| (0..d).map(|_| rng.normal()).collect())
        .collect();
    Matrix::from_rows(
        d,
        (0..n).map(|_| {
            let mut row = vec![0.0f64; d];
            for m in &mix {
                let z = rng.normal();
                row.iter_mut().zip(m).for_each(|(o, w)| *o += z * w);
            }
            row.iter()
                .map(|x| (x + noise * rng.normal()) as f32)
                .collect::<Vec<f32>>()
        }),
    )
}

/// `clusters` tight, well-separated clusters of `per` rows each (row `i` in
/// cluster `i % clusters`), the first two near the origin: Quick-Probe
/// locates a small-norm point, so the ball of a unit-length query meets a
/// tenth of the sub-partitions or so and the query stays on the annulus
/// path, while the ball of a query as long as the far clusters' centres
/// (any row past the first two) covers most of the index and the column
/// pass answers it.
pub fn clustered(clusters: usize, per: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|c| {
            let scale = if c < 2 { 0.4 } else { 40.0 };
            (0..d).map(|_| scale * rng.normal() as f32).collect()
        })
        .collect();
    Matrix::from_rows(
        d,
        (0..clusters * per).map(|i| {
            centers[i % clusters]
                .iter()
                .map(|x| x + 0.05 * rng.normal() as f32)
                .collect::<Vec<f32>>()
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_linalg::{dot, norm2};

    #[test]
    fn latent_factor_shape_and_determinism() {
        let a = latent_factor(100, 50, 16, 0.4, 9);
        let b = latent_factor(100, 50, 16, 0.4, 9);
        assert_eq!(a.rows(), 100);
        assert_eq!(a.cols(), 50);
        assert_eq!(a.row(42), b.row(42));
        let c = latent_factor(100, 50, 16, 0.4, 10);
        assert_ne!(a.row(42), c.row(42));
    }

    #[test]
    fn latent_factor_is_low_rank_correlated() {
        // With rank ≪ d, random pairs of points should show much larger
        // |cos| similarity than full-rank gaussian vectors would.
        let m = latent_factor(200, 100, 4, 0.0, 3);
        let mut mean_abs_cos = 0.0;
        let pairs = 100;
        for i in 0..pairs {
            let a = m.row(i);
            let b = m.row(199 - i);
            mean_abs_cos += (dot(a, b) / (norm2(a) * norm2(b))).abs();
        }
        mean_abs_cos /= pairs as f64;
        // Full-rank d=100 gaussians give E|cos| ≈ 0.08; rank 4 gives ≈ 0.4.
        assert!(
            mean_abs_cos > 0.2,
            "mean |cos| {mean_abs_cos} too low for rank-4"
        );
    }

    #[test]
    fn bio_feature_block_correlation() {
        let m = bio_feature(300, 64, 16, 7);
        // Correlation of adjacent coords (same block) should beat
        // far-apart coords (different blocks).
        let col = |j: usize| -> Vec<f64> { (0..300).map(|i| m.row(i)[j] as f64).collect() };
        let corr = |x: &[f64], y: &[f64]| -> f64 {
            let n = x.len() as f64;
            let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
            let cov: f64 = x.iter().zip(y).map(|(&a, &b)| (a - mx) * (b - my)).sum();
            let vx: f64 = x.iter().map(|&a| (a - mx) * (a - mx)).sum();
            let vy: f64 = y.iter().map(|&b| (b - my) * (b - my)).sum();
            cov / (vx.sqrt() * vy.sqrt())
        };
        let same_block = corr(&col(1), &col(2));
        let cross_block = corr(&col(1), &col(33));
        assert!(
            same_block > cross_block + 0.2,
            "same {same_block} vs cross {cross_block}"
        );
    }

    #[test]
    fn norm_skewed_spans_decades() {
        let m = norm_skewed(400, 16, 11);
        let norms: Vec<f64> = (0..400).map(|i| norm2(m.row(i))).collect();
        let max = norms.iter().cloned().fold(f64::MIN, f64::max);
        let min = norms.iter().cloned().fold(f64::MAX, f64::min);
        // Log-uniform over 3 decades: the realized spread must be ≫ the
        // ~1.2× of i.i.d. Gaussian rows.
        assert!(max / min > 100.0, "spread {max}/{min} too narrow");
        // Deterministic in the seed.
        assert_eq!(m.row(7), norm_skewed(400, 16, 11).row(7));
    }

    #[test]
    fn sift_histogram_profile() {
        let m = sift_histogram(200, 128, 5);
        let mut all: Vec<f32> = Vec::new();
        for i in 0..200 {
            all.extend_from_slice(m.row(i));
        }
        assert!(all.iter().all(|&v| (0.0..=255.0).contains(&v)));
        // Integral values (histogram counts).
        assert!(all.iter().all(|&v| v.fract() == 0.0));
        // Right-skewed: mean well below the midpoint, some mass above 100.
        let mean = all.iter().map(|&v| v as f64).sum::<f64>() / all.len() as f64;
        assert!(mean < 80.0, "mean {mean}");
        assert!(all.iter().any(|&v| v > 100.0));
    }
}
