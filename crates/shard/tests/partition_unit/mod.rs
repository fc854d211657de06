//! The norm-range partitioner's unit tests. Compiled into the library's
//! unit-test binary (`src/partition.rs` includes this file by path), so
//! they sit outside the `src` line budget while the suite still names them
//! `partition::tests::…`; they reach the crate-private ranking.

use super::*;
use promips_stats::Xoshiro256pp;

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

/// Each row's shard under [`assign`] with ids = row indices (a build).
fn shard_of(data: &Matrix, n_shards: usize) -> Vec<u32> {
    let members = assign(&sq_norms(data), |i| i as u64, n_shards);
    let mut shard = vec![u32::MAX; data.rows()];
    for (s, m) in members.iter().enumerate() {
        assert!(m.windows(2).all(|w| w[0] < w[1]), "shard {s} out of order");
        for &i in m {
            assert_eq!(shard[i], u32::MAX, "row {i} placed twice");
            shard[i] = s as u32;
        }
    }
    assert!(shard.iter().all(|&s| s != u32::MAX), "a row was not placed");
    shard
}

/// The ranking as it was first written, kept as the oracle: a stable
/// sort that recomputes both rows' `‖o‖²` in every comparison, ties by
/// row index, rank `r` of `n` to shard `r · n_shards / n`.
fn reference_shard_of(data: &Matrix, n_shards: usize) -> Vec<u32> {
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

#[test]
fn norm_range_counts_are_balanced() {
    let data = random_data(1003, 12, 1);
    let assign = shard_of(&data, 4);
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
    let assign = shard_of(&data, 3);
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
    assert!(shard_of(&data, 1).iter().all(|&s| s == 0));
}

/// Equal norms on both sides of a shard boundary: three distinct rows,
/// each repeated, so every boundary cuts a run of equal keys and only
/// the id decides which side a copy lands on. The placement must be the
/// oracle's, with ids as row indices (a build) and with shuffled sparse
/// ids over rows in arbitrary order (a re-partition, whose oracle ranks
/// the rows laid out in id order).
#[test]
fn ties_split_by_id_as_the_reference_ranking_does() {
    let d = 5;
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    for n in [1usize, 2, 7, 1003] {
        let distinct = random_data(3, d, 5 + n as u64);
        let data = Matrix::from_rows(d, (0..n).map(|i| distinct.row((i * 5 + 1) % 3).to_vec()));
        let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 3 + 11).collect();
        for i in (1..n).rev() {
            ids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut by_id: Vec<usize> = (0..n).collect();
        by_id.sort_by_key(|&i| ids[i]);
        let in_id_order = data.gather(&by_id);
        for n_shards in 1..=5 {
            assert_eq!(
                shard_of(&data, n_shards),
                reference_shard_of(&data, n_shards),
                "n {n}, {n_shards} shards"
            );

            let members = assign(&sq_norms(&data), |i| ids[i], n_shards);
            let reference = reference_shard_of(&in_id_order, n_shards);
            let mut expect: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
            for (pos, &i) in by_id.iter().enumerate() {
                expect[reference[pos] as usize].push(i);
            }
            assert_eq!(members, expect, "n {n}, {n_shards} shards, shuffled ids");
        }
    }
}
