//! Lloyd's algorithm with k-means++ seeding and empty-cluster repair.

use promips_linalg::scalar::{add_rows_col, SHORT_MAX};
use promips_linalg::{nearest_col, sq_dist, sweep, Matrix};
use promips_stats::Xoshiro256pp;

use crate::seed::kmeanspp_positions;

/// Configuration for a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Seeds the k-means++ draws: the first centroid and each later one's
    /// D²-weighted pick (a run stops early once no assignment changes).
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

/// Rows per block of [`Points`]: a block's columns, its labels and its
/// running distances stay in L1 while every centroid passes over them.
pub(crate) const BLOCK_ROWS: usize = 1024;

/// The subset given to [`kmeans`]. Rows of up to [`SHORT_MAX`] floats —
/// every index this workspace builds — are gathered once, column-major a
/// block of [`BLOCK_ROWS`] rows at a time (the block's `m` columns one
/// after another), the layout [`nearest_col`] scores eight rows a step
/// on; longer rows (PQ codebooks) are read where they are and scored a row
/// at a time by [`sq_dist`].
pub(crate) struct Points<'a> {
    data: &'a Matrix,
    subset: &'a [usize],
    cols: Vec<f32>,
}

impl<'a> Points<'a> {
    pub(crate) fn gather(data: &'a Matrix, subset: &'a [usize]) -> Self {
        let m = data.cols();
        let mut cols = Vec::new();
        if columns(m) {
            cols.reserve_exact(subset.len() * m);
            for ids in subset.chunks(BLOCK_ROWS) {
                for j in 0..m {
                    cols.extend(ids.iter().map(|&i| data.row(i)[j]));
                }
            }
        }
        Self { data, subset, cols }
    }

    pub(crate) fn rows(&self) -> usize {
        self.subset.len()
    }

    /// Row `i`'s coordinates.
    pub(crate) fn row(&self, i: usize) -> &'a [f32] {
        self.data.row(self.subset[i])
    }

    /// Block `b`'s row count and, for short rows, its columns.
    fn block(&self, b: usize) -> (usize, &[f32]) {
        let first = b * BLOCK_ROWS;
        let rows = (self.rows() - first).min(BLOCK_ROWS);
        let m = self.data.cols();
        (
            rows,
            self.cols.get(first * m..(first + rows) * m).unwrap_or(&[]),
        )
    }

    /// Folds centroid `c` at `center` into the running nearest centroid of
    /// block `b`'s rows — `best` and `best_d` start at the block's first
    /// row — as [`nearest_col`] does: a row whose distance is below its
    /// `best_d` takes `c` and that distance.
    pub(crate) fn fold(
        &self,
        b: usize,
        center: &[f32],
        c: u32,
        best: &mut [u32],
        best_d: &mut [f64],
    ) {
        let (rows, block) = self.block(b);
        let (best, best_d) = (&mut best[..rows], &mut best_d[..rows]);
        if columns(center.len()) {
            return nearest_col(block, center.len(), center, c, best, best_d);
        }
        let mut dists = [0.0f64; BLOCK_ROWS];
        for (i, d) in dists[..rows].iter_mut().enumerate() {
            *d = sq_dist(self.row(b * BLOCK_ROWS + i), center);
        }
        for ((best, best_d), &d) in best.iter_mut().zip(best_d).zip(&dists) {
            // Mask arithmetic, not `if`: a branch on which centroid is
            // nearer mispredicts. `min` is the `<` select, `best_d` never
            // being NaN.
            let nearer = ((d < *best_d) as u32).wrapping_neg();
            *best = (c & nearer) | (*best & !nearer);
            *best_d = best_d.min(d);
        }
    }

    /// Adds every row to its cluster's `f64` sums (`sums[c·d + j]`, `d` the
    /// row width) and counts, in row order.
    fn add_to(&self, labels: &[u32], sums: &mut [f64], counts: &mut [usize]) {
        let d = self.data.cols();
        for &c in labels {
            counts[c as usize] += 1;
        }
        for (b, labels) in labels.chunks(BLOCK_ROWS).enumerate() {
            if columns(d) {
                add_rows_col(self.block(b).1, d, labels, sums);
                continue;
            }
            for (i, &c) in labels.iter().enumerate() {
                let sums = &mut sums[c as usize * d..][..d];
                for (s, &x) in sums.iter_mut().zip(self.row(b * BLOCK_ROWS + i)) {
                    *s += x as f64;
                }
            }
        }
    }

    /// Calls `f(i, d)` for every row `i` in order, `d` its [`sq_dist`] to
    /// its own centroid `centroids.row(labels[i])`; short rows sum their
    /// terms a column at a time, in [`sq_dist`]'s order.
    fn own_dists(&self, labels: &[u32], centroids: &Matrix, mut f: impl FnMut(usize, f64)) {
        let d = self.data.cols();
        if !columns(d) {
            for (i, &c) in labels.iter().enumerate() {
                f(i, sq_dist(self.row(i), centroids.row(c as usize)));
            }
            return;
        }
        let centers = centroids.as_slice();
        let mut sums = [0.0f64; BLOCK_ROWS];
        for (b, labels) in labels.chunks(BLOCK_ROWS).enumerate() {
            let sums = &mut sums[..labels.len()];
            sums.fill(0.0);
            for (j, col) in self.block(b).1.chunks_exact(labels.len()).enumerate() {
                for ((s, &c), &x) in sums.iter_mut().zip(labels).zip(col) {
                    let t = x as f64 - centers[c as usize * d + j] as f64;
                    *s += t * t;
                }
            }
            for (r, &s) in sums.iter().enumerate() {
                f(b * BLOCK_ROWS + r, s);
            }
        }
    }
}

/// Whether rows of `m` floats are gathered column-major.
fn columns(m: usize) -> bool {
    (1..=SHORT_MAX).contains(&m)
}

/// Runs k-means over `subset` (row indices into `data`).
///
/// If `subset.len() < k`, the effective `k` is reduced to the subset size so
/// every centroid is a real point — this happens routinely for tiny rings in
/// iDistance's second clustering stage.
///
/// The subset is gathered once — rows of up to [`SHORT_MAX`] floats
/// column-major, a block of 1 024 rows at a time. Seeding and every Lloyd
/// assignment fold one centroid at a time into each block's running
/// nearest centroid ([`nearest_col`], eight rows a step on AVX2), ties
/// going to the lowest centroid index; the assignment's blocks are shared
/// with the sweep helper ([`sweep::map`]). The update sums each cluster's
/// members in `f64`, in row order ([`add_rows_col`]), and the radii and
/// the empty-cluster repair take each row's distance to its own centroid,
/// summed a column at a time. Every output is what a per-pair loop over
/// [`sq_dist`] computes, to the bit, on every backend.
pub fn kmeans(data: &Matrix, subset: &[usize], config: &KMeansConfig) -> KMeansResult {
    assert!(!subset.is_empty(), "kmeans on empty subset");
    let k = config.k.min(subset.len()).max(1);
    let d = data.cols();
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let points = &Points::gather(data, subset);
    let n = points.rows();

    // Seed with k-means++ and materialize centroid vectors.
    let seeds = kmeanspp_positions(points, k, &mut rng);
    let mut centroids = data.gather(&seeds.iter().map(|&p| subset[p]).collect::<Vec<_>>());

    let mut assignment = vec![0u32; n];
    let mut iterations = 0;
    for iter in 0..config.max_iters.max(1) {
        iterations = iter + 1;
        // Assignment step: the blocks' nearest centroids, on both cores.
        let nearest = |b: usize| {
            let mut best = vec![0u32; (n - b * BLOCK_ROWS).min(BLOCK_ROWS)];
            let mut best_d = [f64::INFINITY; BLOCK_ROWS];
            for (c, center) in centroids.iter_rows().enumerate() {
                points.fold(b, center, c as u32, &mut best, &mut best_d);
            }
            best
        };
        let mut changed = false;
        for (b, nearest) in sweep::map(n.div_ceil(BLOCK_ROWS), nearest, || ())
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
        points.add_to(&assignment, &mut sums, &mut counts);
        for c in 0..k {
            if counts[c] == 0 {
                // Empty-cluster repair: re-seed from the point farthest from
                // its assigned centroid (the last one on a tie).
                let (mut far_pos, mut far) = (0, f64::NEG_INFINITY);
                points.own_dists(&assignment, &centroids, |i, d| {
                    if i == 0 || d.total_cmp(&far).is_ge() {
                        (far_pos, far) = (i, d);
                    }
                });
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
    let mut radii = vec![0.0f64; k];
    points.own_dists(&assignment, &centroids, |i, d| {
        let c = assignment[i] as usize;
        sizes[c] += 1;
        radii[c] = radii[c].max(d.sqrt());
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
