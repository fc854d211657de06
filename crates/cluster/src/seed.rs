//! k-means++ seeding (Arthur & Vassilvitskii, 2007).

use promips_stats::Xoshiro256pp;

use crate::kmeans::{Points, BLOCK_ROWS};

/// Picks `k` initial centroids among the rows of `points` with the
/// k-means++ D² weighting: the first centroid is uniform, each subsequent
/// one is drawn with probability proportional to its squared distance from
/// the nearest centroid chosen so far. Returns their row positions
/// (distinct), one distance pass over `points` per pick, folded into the
/// running nearest distances a block at a time.
pub(crate) fn kmeanspp_positions(points: &Points, k: usize, rng: &mut Xoshiro256pp) -> Vec<usize> {
    let n = points.rows();
    assert!(k >= 1, "k must be >= 1");
    assert!(n >= k, "cannot pick {k} centroids from {n} points");
    let mut chosen = Vec::with_capacity(k);
    let first = rng.below(n as u64) as usize;
    chosen.push(first);

    // d2[i] = squared distance of row i to the nearest chosen centroid.
    let mut d2 = vec![f64::INFINITY; n];
    let mut labels = [0u32; BLOCK_ROWS];
    let mut fold_in = |center: usize, d2: &mut [f64]| {
        for (b, d2) in d2.chunks_mut(BLOCK_ROWS).enumerate() {
            points.fold(b, points.row(center), 0, &mut labels, d2);
        }
    };
    fold_in(first, &mut d2);

    while chosen.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with chosen centroids; pick any
            // not-yet-chosen point to keep the centroid count.
            (0..n).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.uniform() * total;
            let mut pick = n - 1;
            for (j, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = j;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        fold_in(next, &mut d2);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    use promips_linalg::Matrix;

    /// `k` picks among the rows `subset` of `data`, gathered as `kmeans`
    /// gathers them.
    fn picks(data: &Matrix, subset: &[usize], k: usize, seed: u64) -> Vec<usize> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        kmeanspp_positions(&Points::gather(data, subset), k, &mut rng)
    }

    fn all(data: &Matrix) -> Vec<usize> {
        (0..data.rows()).collect()
    }

    fn grid_data() -> Matrix {
        // 3 well-separated blobs on a line.
        let mut rows = Vec::new();
        for center in [0.0f32, 100.0, 200.0] {
            for i in 0..20 {
                rows.push(vec![center + (i % 5) as f32 * 0.1, center]);
            }
        }
        Matrix::from_rows(2, rows)
    }

    #[test]
    fn picks_k_distinct_rows() {
        let data = grid_data();
        let picks = picks(&data, &all(&data), 3, 5);
        assert_eq!(picks.len(), 3);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "picks must be distinct: {picks:?}");
    }

    #[test]
    fn spreads_across_blobs() {
        let data = grid_data();
        let picks = picks(&data, &all(&data), 3, 9);
        // One pick per blob, overwhelmingly likely given the separation.
        let mut blobs: Vec<usize> = picks.iter().map(|&i| i / 20).collect();
        blobs.sort_unstable();
        assert_eq!(blobs, vec![0, 1, 2], "picks {picks:?}");
    }

    #[test]
    fn handles_duplicate_points() {
        let data = Matrix::from_rows(1, (0..10).map(|_| vec![1.0f32]));
        let picks = picks(&data, &all(&data), 3, 1);
        assert_eq!(picks.len(), 3);
    }

    #[test]
    fn works_on_subset() {
        let data = grid_data();
        // First blob only: positions are into the gathered rows.
        let picks = picks(&data, &(0..20).collect::<Vec<_>>(), 2, 2);
        assert!(picks.iter().all(|&i| i < 20));
    }
}
