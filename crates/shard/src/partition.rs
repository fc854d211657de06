//! How points are distributed across shards: by norm range.
//!
//! Norm-Range Partition (Yan et al., NeurIPS 2018, arXiv:1810.09104): MIPS
//! candidate quality is dominated by vector norms, so cutting the dataset
//! into contiguous **norm ranges** concentrates the likely winners in the
//! high-norm shards and gives every shard a tight inner-product upper bound
//! `‖q‖ · max_norm(shard)` (Cauchy–Schwarz) that the fan-out search uses to
//! prune whole shards. It is the only partitioner: no other placement
//! leaves a shard bound the fan-out can prune with.
//!
//! Both functions are deterministic in their inputs (the sharded index's
//! reproducibility tests depend on it), and with one shard every row goes
//! to shard 0, so a one-shard [`crate::ShardedProMips`] reproduces the
//! unsharded index bit for bit.

use promips_linalg::{sq_norm2, Matrix};

/// Display name, recorded in the manifest and reported by
/// [`crate::ShardedProMips::partitioner_name`].
pub(crate) const NAME: &str = "norm-range";

/// Manifest tag of norm-range partitioning — the only one
/// [`crate::ShardedProMips::open`] accepts.
pub(crate) const TAG: u64 = 0;

/// One shard id in `0..n_shards` per row of `data`, by equal-count norm
/// ranges: rows are ranked by 2-norm (ascending, ties by row id) and rank
/// `r` of `n` goes to shard `r · n_shards / n`. Shard `n_shards − 1`
/// therefore holds the largest norms — the shard the fan-out search probes
/// first.
pub(crate) fn assign(data: &Matrix, n_shards: usize) -> Vec<u32> {
    let n = data.rows();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        sq_norm2(data.row(a as usize))
            .total_cmp(&sq_norm2(data.row(b as usize)))
            .then(a.cmp(&b))
    });
    let mut assign = vec![0u32; n];
    for (rank, &row) in order.iter().enumerate() {
        assign[row as usize] = (rank * n_shards / n) as u32;
    }
    assign
}

/// Routes a *single* freshly inserted point, of 2-norm `norm`, to a shard,
/// given the current per-shard norm bounds (`max ‖o‖₂`, indexed by shard id) — the
/// mutation-time counterpart of [`assign`]: bulk builds see the whole
/// dataset and can rank it, inserts must be placed against the boundaries
/// the build left behind.
///
/// An insert goes to the shard whose norm range it falls in: among shards
/// whose bound covers the point (`max_norm ≥ ‖p‖`), the one with the
/// **tightest** bound — that is the norm-range cell the point belongs to,
/// and routing there leaves every other shard's Cauchy–Schwarz bound
/// untouched. A point above every bound extends the highest-norm shard
/// (ties break toward the smaller shard id, so routing is deterministic).
pub(crate) fn route(norm: f64, shard_max_norms: &[f64]) -> u32 {
    let mut best_cover: Option<(f64, usize)> = None; // tightest covering bound
    let mut best_any = (f64::NEG_INFINITY, 0usize); // highest bound overall
    for (si, &b) in shard_max_norms.iter().enumerate() {
        if b > best_any.0 {
            best_any = (b, si);
        }
        if b >= norm && best_cover.is_none_or(|(cb, _)| b < cb) {
            best_cover = Some((b, si));
        }
    }
    best_cover.map_or(best_any.1, |(_, si)| si) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_stats::Xoshiro256pp;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            d,
            (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
        )
    }

    #[test]
    fn norm_range_counts_are_balanced() {
        let data = random_data(1003, 12, 1);
        let assign = assign(&data, 4);
        let mut counts = [0usize; 4];
        for &s in &assign {
            counts[s as usize] += 1;
        }
        // Equal-count ranks: shard sizes differ by at most one.
        assert!(counts.iter().all(|&c| c == 250 || c == 251), "{counts:?}");
    }

    #[test]
    fn norm_range_orders_shards_by_norm() {
        let data = random_data(600, 8, 2);
        let assign = assign(&data, 3);
        // Every point in a higher shard has norm >= every point in a lower
        // shard (up to rank ties, which equal norms make unobservable).
        let max_per: Vec<f64> = (0..3)
            .map(|s| {
                (0..600)
                    .filter(|&i| assign[i] == s)
                    .map(|i| sq_norm2(data.row(i)))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let min_per: Vec<f64> = (0..3)
            .map(|s| {
                (0..600)
                    .filter(|&i| assign[i] == s)
                    .map(|i| sq_norm2(data.row(i)))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        assert!(max_per[0] <= min_per[1]);
        assert!(max_per[1] <= min_per[2]);
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let data = random_data(100, 6, 3);
        assert!(assign(&data, 1).iter().all(|&s| s == 0));
    }
}
