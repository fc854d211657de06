//! `kmeans` against the per-pair implementation it replaced, kept here as
//! the reference: point-major loops, one `sq_dist` per (point, centroid)
//! pair, rows read through the subset's indices. For rows of up to
//! `SHORT_MAX` floats the column kernel (`nearest_col`, over the subset's
//! column-major copy) computes `sq_dist`'s own sum, so every output —
//! assignment, centroids, radii, iteration count — must be equal, not
//! close: the index files built on top are compared byte for byte. CI runs
//! this again under `PROMIPS_FORCE_SCALAR=1`.

use promips_cluster::{kmeans, KMeansConfig, KMeansResult};
use promips_linalg::{sq_dist, Matrix};
use promips_stats::Xoshiro256pp;
use proptest::prelude::*;

fn reference_seeds(
    data: &Matrix,
    subset: &[usize],
    k: usize,
    rng: &mut Xoshiro256pp,
) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(k);
    let first = subset[rng.below(subset.len() as u64) as usize];
    chosen.push(first);
    let mut d2: Vec<f64> = subset
        .iter()
        .map(|&i| sq_dist(data.row(i), data.row(first)))
        .collect();
    while chosen.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            subset
                .iter()
                .copied()
                .find(|i| !chosen.contains(i))
                .unwrap_or(subset[0])
        } else {
            let mut target = rng.uniform() * total;
            let mut pick = subset.len() - 1;
            for (j, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = j;
                    break;
                }
            }
            subset[pick]
        };
        chosen.push(next);
        for (j, &i) in subset.iter().enumerate() {
            let d = sq_dist(data.row(i), data.row(next));
            if d < d2[j] {
                d2[j] = d;
            }
        }
    }
    chosen
}

fn reference_kmeans(data: &Matrix, subset: &[usize], config: &KMeansConfig) -> KMeansResult {
    let k = config.k.min(subset.len()).max(1);
    let d = data.cols();
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let seeds = reference_seeds(data, subset, k, &mut rng);
    let mut centroids = Matrix::from_rows(d, seeds.iter().map(|&i| data.row(i).to_vec()));
    let mut assignment = vec![0u32; subset.len()];
    let mut iterations = 0;
    for iter in 0..config.max_iters.max(1) {
        iterations = iter + 1;
        let mut changed = false;
        for (pos, &row) in subset.iter().enumerate() {
            let point = data.row(row);
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dist = sq_dist(point, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best = c as u32;
                }
            }
            if assignment[pos] != best {
                assignment[pos] = best;
                changed = true;
            }
        }
        if !changed && iter > 0 {
            break;
        }
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for (pos, &row) in subset.iter().enumerate() {
            let c = assignment[pos] as usize;
            for (s, &v) in sums[c].iter_mut().zip(data.row(row)) {
                *s += 1.0 * v as f64;
            }
            counts[c] += 1;
        }
        for c in 0..k {
            if counts[c] == 0 {
                let (far_pos, _) = subset
                    .iter()
                    .enumerate()
                    .map(|(pos, &row)| {
                        let at = centroids.row(assignment[pos] as usize);
                        (pos, sq_dist(data.row(row), at))
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("subset non-empty");
                let row = subset[far_pos];
                centroids.row_mut(c).copy_from_slice(data.row(row));
                assignment[far_pos] = c as u32;
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids.row_mut(c).iter_mut().zip(&sums[c]) {
                    *dst = (s * inv) as f32;
                }
            }
        }
    }
    let mut sizes = vec![0usize; k];
    let mut radii = vec![0.0f64; k];
    for (pos, &row) in subset.iter().enumerate() {
        let c = assignment[pos] as usize;
        sizes[c] += 1;
        let dist = sq_dist(data.row(row), centroids.row(c)).sqrt();
        if dist > radii[c] {
            radii[c] = dist;
        }
    }
    KMeansResult {
        centroids,
        assignment,
        sizes,
        radii,
        iterations,
    }
}

fn assert_same(got: &KMeansResult, want: &KMeansResult, what: &str) {
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.assignment, want.assignment, "{what}: assignment");
    assert_eq!(got.sizes, want.sizes, "{what}: sizes");
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.centroids),
        bits(&want.centroids),
        "{what}: centroids"
    );
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.radii), bits(&want.radii), "{what}: radii");
}

proptest! {
    /// Random point sets on a coarse grid (so ties and duplicate points
    /// are common), any short `m`, `k` from 1 to past `n`, a subset that
    /// is a shuffled part of the matrix, and few enough iterations that
    /// some runs stop on the cap and others on convergence.
    #[test]
    fn kmeans_equals_the_per_pair_reference(
        n in 1usize..90,
        m in 1usize..17,
        k in 1usize..14,
        levels in 2u64..40,
        max_iters in 1usize..12,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let data = Matrix::from_vec(
            n + 5,
            m,
            (0..(n + 5) * m).map(|_| rng.below(levels) as f32 * 0.75 - 3.0).collect(),
        );
        let mut subset: Vec<usize> = (0..n + 5).collect();
        for i in (1..subset.len()).rev() {
            subset.swap(i, rng.below(i as u64 + 1) as usize);
        }
        subset.truncate(n);
        let mut config = KMeansConfig::new(k, seed ^ 0xC0FFEE);
        config.max_iters = max_iters;
        let got = kmeans(&data, &subset, &config);
        let want = reference_kmeans(&data, &subset, &config);
        assert_same(&got, &want, &format!("n {n} m {m} k {k} levels {levels}"));
    }
}

/// `count` rows of `m` floats of one of three kinds: on a coarse grid
/// (ties are common), copies of a handful of distinct grid points
/// (duplicates everywhere, so clusters starve and the repair runs), or
/// small multiples of ±2³⁰, ±1 and ±2⁻³⁰ — `2³⁰ + 2⁻³⁰ − 2³⁰` is 0 in
/// `f64` and `2³⁰ − 2³⁰ + 2⁻³⁰` is not, so a cluster's mean depends on
/// the order its sum runs in.
fn rows(rng: &mut Xoshiro256pp, count: usize, m: usize, levels: u64, kind: usize) -> Matrix {
    const SCALES: [f32; 6] = [
        1073741824.0,
        -1073741824.0,
        1.0,
        -1.0,
        9.313226e-10,
        -9.313226e-10,
    ];
    let coord = |rng: &mut Xoshiro256pp| match kind {
        2 => SCALES[rng.below(6) as usize] * (1 + rng.below(3)) as f32,
        _ => rng.below(levels) as f32 * 0.75 - 3.0,
    };
    let distinct: Vec<Vec<f32>> = (0..2 + rng.below(3))
        .map(|_| (0..m).map(|_| coord(rng)).collect())
        .collect();
    Matrix::from_rows(
        m,
        (0..count).map(|_| match kind {
            1 => distinct[rng.below(distinct.len() as u64) as usize].clone(),
            _ => (0..m).map(|_| coord(rng)).collect(),
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Subsets of up to ≈ 2 600 rows — several 1 024-row blocks, so the
    /// assignment shares them with the sweep helper when it is free, and a
    /// ragged last one — at widths on both sides of the kernels' 4- and
    /// 8-lane steps and of `SHORT_MAX` (17 floats take the row-major
    /// path), over each kind of [`rows`].
    #[test]
    fn kmeans_across_blocks_equals_the_per_pair_reference(
        n in 1usize..2600,
        m_pick in 0usize..6,
        k in 1usize..24,
        levels in 2u64..40,
        kind in 0usize..3,
        max_iters in 1usize..10,
        seed in 0u64..1 << 32,
    ) {
        let m = [1, 6, 7, 8, 16, 17][m_pick];
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let data = rows(&mut rng, n + 40, m, levels, kind);
        let mut subset: Vec<usize> = (0..n + 40).collect();
        for i in (1..subset.len()).rev() {
            subset.swap(i, rng.below(i as u64 + 1) as usize);
        }
        subset.truncate(n);
        let mut config = KMeansConfig::new(k, seed ^ 0xB10C);
        config.max_iters = max_iters;
        let got = kmeans(&data, &subset, &config);
        let want = reference_kmeans(&data, &subset, &config);
        assert_same(&got, &want, &format!("n {n} m {m} k {k} levels {levels} kind {kind}"));
    }
}

/// Several blocks of copies of two to four points and more centroids than
/// points: seeding picks duplicates, every iteration starts with starved
/// clusters, and the repair must pick the reference's row across blocks.
#[test]
fn empty_cluster_repair_across_blocks_equals_the_reference() {
    let mut repaired = 0;
    for seed in 0..18u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = 1025 + rng.below(1600) as usize;
        let m = [1, 6, 7, 8, 16, 17][seed as usize % 6];
        let data = rows(&mut rng, n, m, 9, 1);
        let subset: Vec<usize> = (0..n).collect();
        let config = KMeansConfig::new(5 + rng.below(4) as usize, seed);
        let got = kmeans(&data, &subset, &config);
        let want = reference_kmeans(&data, &subset, &config);
        assert_same(&got, &want, &format!("seed {seed} n {n} m {m}"));
        repaired += usize::from(want.sizes.iter().any(|&s| s <= 1));
    }
    assert!(repaired > 0, "no case exercised a starved cluster");
}

/// Two tight far-apart pairs and three centroids: whichever way the seeds
/// fall, an iteration leaves a cluster empty or splits a pair, and the
/// repair (the point farthest from its centroid, last one on a tie) has to
/// pick the same point.
#[test]
fn empty_cluster_repair_equals_the_reference() {
    let mut repaired = 0;
    for seed in 0..200u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = 12 + rng.below(20) as usize;
        // Heavy duplication: three distinct points, many copies each.
        let data = Matrix::from_rows(
            3,
            (0..n).map(|_| vec![(rng.below(3) * 10) as f32, 1.0, -2.0]),
        );
        let subset: Vec<usize> = (0..n).collect();
        let config = KMeansConfig::new(3 + rng.below(4) as usize, seed);
        let got = kmeans(&data, &subset, &config);
        let want = reference_kmeans(&data, &subset, &config);
        assert_same(&got, &want, &format!("seed {seed}"));
        repaired += usize::from(want.sizes.iter().any(|&s| s <= 1));
    }
    assert!(repaired > 0, "no case exercised a starved cluster");
}
