//! k-means++ seeding (Arthur & Vassilvitskii, 2007).

use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;

use crate::kmeans::for_each_dist;

/// Picks `k` initial centroids among the rows of `points` with the
/// k-means++ D² weighting: the first centroid is uniform, each subsequent
/// one is drawn with probability proportional to its squared distance from
/// the nearest centroid chosen so far. Returns their row positions
/// (distinct), one distance pass over `points` per pick.
pub fn kmeanspp_positions(points: &Matrix, k: usize, rng: &mut Xoshiro256pp) -> Vec<usize> {
    let n = points.rows();
    assert!(k >= 1, "k must be >= 1");
    assert!(n >= k, "cannot pick {k} centroids from {n} points");
    let mut chosen = Vec::with_capacity(k);
    let first = rng.below(n as u64) as usize;
    chosen.push(first);

    // d2[i] = squared distance of row i to the nearest chosen centroid.
    let mut d2 = vec![f64::INFINITY; n];
    let fold_in = |center: usize, d2: &mut [f64]| {
        for_each_dist(points, &points.gather(&[center]), |first, _, dists| {
            for (near, &d) in d2[first..].iter_mut().zip(dists) {
                if d < *near {
                    *near = d;
                }
            }
        })
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
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let picks = kmeanspp_positions(&data, 3, &mut rng);
        assert_eq!(picks.len(), 3);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "picks must be distinct: {picks:?}");
    }

    #[test]
    fn spreads_across_blobs() {
        let data = grid_data();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let picks = kmeanspp_positions(&data, 3, &mut rng);
        // One pick per blob, overwhelmingly likely given the separation.
        let mut blobs: Vec<usize> = picks.iter().map(|&i| i / 20).collect();
        blobs.sort_unstable();
        assert_eq!(blobs, vec![0, 1, 2], "picks {picks:?}");
    }

    #[test]
    fn handles_duplicate_points() {
        let data = Matrix::from_rows(1, (0..10).map(|_| vec![1.0f32]));
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let picks = kmeanspp_positions(&data, 3, &mut rng);
        assert_eq!(picks.len(), 3);
    }

    #[test]
    fn works_on_subset() {
        let data = grid_data();
        // First blob only: positions are into the gathered rows.
        let subset = data.gather(&(0..20).collect::<Vec<_>>());
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let picks = kmeanspp_positions(&subset, 2, &mut rng);
        assert!(picks.iter().all(|&i| i < 20));
    }
}
