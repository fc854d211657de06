//! Lloyd's algorithm with k-means++ seeding and empty-cluster repair.

use promips_linalg::scalar::SHORT_MAX;
use promips_linalg::{add_scaled, sq_dist, sq_dist_col, sweep, Matrix};
use promips_stats::Xoshiro256pp;

use crate::seed::kmeanspp_positions;

/// Configuration for a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when no assignment changes (always also honoured).
    pub seed: u64,
}

impl KMeansConfig {
    /// A sensible default: `max_iters = 25`.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            k,
            max_iters: 25,
            seed,
        }
    }
}

/// Output of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `k × d` centroid matrix.
    pub centroids: Matrix,
    /// For each input index position, the assigned cluster in `0..k`.
    pub assignment: Vec<u32>,
    /// Per-cluster member counts.
    pub sizes: Vec<usize>,
    /// Per-cluster radius: max distance from a member to its centroid.
    /// (iDistance partitions use this to filter spheres.)
    pub radii: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Members of each cluster as index lists **into the subset given to
    /// [`kmeans`]** (positions, not original row ids).
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.centroids.rows()];
        for (pos, &c) in self.assignment.iter().enumerate() {
            out[c as usize].push(pos);
        }
        out
    }
}

/// Rows per block of [`for_each_dist`]: a block of short rows and its
/// distances stay in L1 while every centroid passes over them.
const BLOCK_ROWS: usize = 1024;

/// `dis²(rowᵢ, center)` for every row of `rows` (flat, `m` floats each).
/// Up to [`SHORT_MAX`] floats — every index this workspace builds — the
/// column kernel computes [`sq_dist`]'s own sum at a third of its per-pair
/// cost; longer rows (PQ codebooks) have no column body that does.
fn dists_to(rows: &[f32], m: usize, center: &[f32], out: &mut [f64]) {
    if (1..=SHORT_MAX).contains(&m) {
        sq_dist_col(rows, m, center, out);
    } else {
        for (row, o) in rows.chunks_exact(m.max(1)).zip(out) {
            *o = sq_dist(row, center);
        }
    }
}

/// Calls `f(first, c, dists)` for every block of up to [`BLOCK_ROWS`]
/// points and every centroid `c` (ascending within a block): `dists[i]` is
/// `dis²(points.row(first + i), centroids.row(c))`.
pub(crate) fn for_each_dist(
    points: &Matrix,
    centroids: &Matrix,
    mut f: impl FnMut(usize, usize, &[f64]),
) {
    let m = points.cols();
    let mut dist = [0.0f64; BLOCK_ROWS];
    let blocks = points.as_slice().chunks(BLOCK_ROWS * m.max(1));
    for (block, rows) in blocks.enumerate() {
        let dist = &mut dist[..rows.len() / m.max(1)];
        for c in 0..centroids.rows() {
            dists_to(rows, m, centroids.row(c), dist);
            f(block * BLOCK_ROWS, c, dist);
        }
    }
}

/// The nearest centroid of every row of block `b` (rows `b·BLOCK_ROWS..`)
/// of `points`, ties to the lowest centroid index.
fn nearest_centroids(points: &Matrix, centroids: &Matrix, b: usize) -> Vec<u32> {
    let m = points.cols().max(1);
    let rows = points
        .as_slice()
        .chunks(BLOCK_ROWS * m)
        .nth(b)
        .unwrap_or(&[]);
    let mut nearest = vec![0u32; rows.len() / m];
    let mut nearest_d = [f64::INFINITY; BLOCK_ROWS];
    let mut dists = [0.0f64; BLOCK_ROWS];
    let dists = &mut dists[..nearest.len()];
    for c in 0..centroids.rows() {
        dists_to(rows, m, centroids.row(c), dists);
        // Mask arithmetic, not `if`: which centroid is nearer is a coin
        // toss for the first few, and the compiler turns a select on a
        // stored value back into a branch — 3 ns a pair mispredicted,
        // against 0.8 this way. `min` returns `dist` exactly when
        // `dist < *best_d` (a NaN loses either way).
        for ((best, best_d), &dist) in nearest.iter_mut().zip(&mut nearest_d).zip(&*dists) {
            let nearer = ((dist < *best_d) as u32).wrapping_neg();
            *best = (c as u32 & nearer) | (*best & !nearer);
            *best_d = best_d.min(dist);
        }
    }
    nearest
}

/// Runs k-means over `subset` (row indices into `data`).
///
/// If `subset.len() < k`, the effective `k` is reduced to the subset size so
/// every centroid is a real point — this happens routinely for tiny rings in
/// iDistance's second clustering stage.
///
/// The subset is gathered into one contiguous block up front: seeding,
/// assignment and the radii then run one distance pass per centroid over
/// it, a block of rows at a time, ties going to the lowest centroid index.
pub fn kmeans(data: &Matrix, subset: &[usize], config: &KMeansConfig) -> KMeansResult {
    assert!(!subset.is_empty(), "kmeans on empty subset");
    let k = config.k.min(subset.len()).max(1);
    let d = data.cols();
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let points = &data.gather(subset);
    let n = points.rows();

    // Seed with k-means++ and materialize centroid vectors.
    let mut centroids = points.gather(&kmeanspp_positions(points, k, &mut rng));

    let mut assignment = vec![0u32; n];
    let mut iterations = 0;
    for iter in 0..config.max_iters.max(1) {
        iterations = iter + 1;
        // Assignment step: the blocks' nearest centroids, on both cores.
        let nearest = |b: usize| nearest_centroids(points, &centroids, b);
        let mut changed = false;
        for (b, nearest) in sweep::map(points.rows().div_ceil(BLOCK_ROWS), nearest, || ())
            .1
            .iter()
            .enumerate()
        {
            let block = &mut assignment[b * BLOCK_ROWS..][..nearest.len()];
            changed |= *block != nearest[..];
            block.copy_from_slice(nearest);
        }
        if !changed && iter > 0 {
            break;
        }

        // Update step with f64 accumulators.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for (row, &c) in points.iter_rows().zip(&assignment) {
            let c = c as usize;
            add_scaled(&mut sums[c * d..(c + 1) * d], 1.0, row);
            counts[c] += 1;
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty-cluster repair: re-seed from the point farthest from
                // its assigned centroid.
                let (far_pos, _) = points
                    .iter_rows()
                    .zip(&assignment)
                    .map(|(row, &a)| sq_dist(row, centroids.row(a as usize)))
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("subset non-empty");
                centroids.row_mut(c).copy_from_slice(points.row(far_pos));
                assignment[far_pos] = c as u32;
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids.row_mut(c).iter_mut().zip(&sums[c * d..]) {
                    *dst = (s * inv) as f32;
                }
            }
        }
    }

    // Final statistics.
    let mut sizes = vec![0usize; k];
    for &c in &assignment {
        sizes[c as usize] += 1;
    }
    let mut radii = vec![0.0f64; k];
    for_each_dist(points, &centroids, |first, c, dists| {
        for (&a, &dist) in assignment[first..].iter().zip(dists) {
            if a as usize == c {
                radii[c] = radii[c].max(dist.sqrt());
            }
        }
    });

    KMeansResult {
        centroids,
        assignment,
        sizes,
        radii,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f32, f32)], per: usize, spread: f32, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut rows = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                rows.push(vec![
                    cx + spread * rng.normal() as f32,
                    cy + spread * rng.normal() as f32,
                ]);
            }
        }
        Matrix::from_rows(2, rows)
    }

    #[test]
    fn recovers_separated_blobs() {
        let data = blobs(&[(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)], 40, 0.5, 3);
        let subset: Vec<usize> = (0..data.rows()).collect();
        let res = kmeans(&data, &subset, &KMeansConfig::new(3, 7));
        assert_eq!(res.centroids.rows(), 3);
        assert_eq!(res.sizes.iter().sum::<usize>(), 120);
        // Each blob maps to exactly one cluster.
        for blob in 0..3 {
            let first = res.assignment[blob * 40];
            for i in 0..40 {
                assert_eq!(res.assignment[blob * 40 + i], first, "blob {blob} split");
            }
        }
        // Cluster sizes are the blob sizes.
        let mut sizes = res.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![40, 40, 40]);
    }

    #[test]
    fn radii_cover_members() {
        let data = blobs(&[(0.0, 0.0), (30.0, 30.0)], 50, 2.0, 11);
        let subset: Vec<usize> = (0..data.rows()).collect();
        let res = kmeans(&data, &subset, &KMeansConfig::new(2, 5));
        for (pos, &row) in subset.iter().enumerate() {
            let c = res.assignment[pos] as usize;
            let d = sq_dist(data.row(row), res.centroids.row(c)).sqrt();
            assert!(d <= res.radii[c] + 1e-9);
        }
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let data = blobs(&[(0.0, 0.0)], 3, 0.1, 1);
        let subset: Vec<usize> = (0..3).collect();
        let res = kmeans(&data, &subset, &KMeansConfig::new(10, 1));
        assert_eq!(res.centroids.rows(), 3);
        assert_eq!(res.assignment.len(), 3);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let data = Matrix::from_rows(1, vec![vec![0.0f32], vec![2.0], vec![4.0]]);
        let subset: Vec<usize> = (0..3).collect();
        let res = kmeans(&data, &subset, &KMeansConfig::new(1, 2));
        assert!((res.centroids.row(0)[0] - 2.0).abs() < 1e-6);
        assert_eq!(res.sizes, vec![3]);
        assert!((res.radii[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn works_on_subset_positions() {
        let data = blobs(&[(0.0, 0.0), (100.0, 100.0)], 10, 0.1, 4);
        // Only cluster the second blob.
        let subset: Vec<usize> = (10..20).collect();
        let res = kmeans(&data, &subset, &KMeansConfig::new(2, 4));
        assert_eq!(res.assignment.len(), 10);
        // Centroids must be near (100, 100).
        for c in 0..res.centroids.rows() {
            assert!(res.centroids.row(c)[0] > 90.0);
        }
    }

    #[test]
    fn members_partition_positions() {
        let data = blobs(&[(0.0, 0.0), (9.0, 9.0)], 25, 1.0, 6);
        let subset: Vec<usize> = (0..50).collect();
        let res = kmeans(&data, &subset, &KMeansConfig::new(4, 8));
        let members = res.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 50);
        let mut all: Vec<usize> = members.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(&[(0.0, 0.0), (20.0, 0.0)], 30, 1.0, 9);
        let subset: Vec<usize> = (0..60).collect();
        let a = kmeans(&data, &subset, &KMeansConfig::new(2, 42));
        let b = kmeans(&data, &subset, &KMeansConfig::new(2, 42));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.centroids, b.centroids);
    }
}
