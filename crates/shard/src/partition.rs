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
//! A bulk placement costs `O(n·d + n log n)`: [`sq_norms`] reads every row
//! once, and [`assign`] sorts row indices by the key `(‖o‖², id)` over
//! those `f64`s, never touching a row again. Ids are unique, so no two keys
//! are equal and the unstable sort has one possible outcome: the placement
//! is deterministic in its inputs (the sharded index's reproducibility
//! tests depend on it). With one shard every rank maps to shard 0 and the
//! id sort restores row order, so a one-shard [`crate::ShardedProMips`]
//! reproduces the unsharded index bit for bit.

use promips_linalg::{sq_norm2, Matrix};

/// `‖o‖²` of every row of `data`, in row order: the first half of
/// [`assign`]'s rank key, and the build's finiteness check (a row with a
/// NaN or infinite coordinate has a non-finite entry).
pub(crate) fn sq_norms(data: &Matrix) -> Vec<f64> {
    data.iter_rows().map(sq_norm2).collect()
}

/// The rows of each of `n_shards` equal-count norm ranges, given every
/// row's `‖o‖²` (`sq_norms[i]`) and a unique `id(i)`: rows are ranked by
/// `(‖o‖², id)` ascending under `total_cmp`, and rank `r` of `n` goes to
/// shard `r · n_shards / n`. Shard `n_shards − 1` therefore holds the
/// largest norms — the shard the fan-out search probes first. Each shard's
/// row indices come back in ascending id order, the id-map order every
/// tie-break rule depends on.
pub(crate) fn assign(
    sq_norms: &[f64],
    id: impl Fn(usize) -> u64,
    n_shards: usize,
) -> Vec<Vec<usize>> {
    let n = sq_norms.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| sq_norms[a].total_cmp(&sq_norms[b]).then(id(a).cmp(&id(b))));
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for (rank, &row) in order.iter().enumerate() {
        members[rank * n_shards / n].push(row);
    }
    for m in &mut members {
        m.sort_unstable_by_key(|&i| id(i));
    }
    members
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

// The unit tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/partition_unit/mod.rs"]
mod tests;
