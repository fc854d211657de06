//! The nearest-centroid column kernel (`nearest_col`), on every backend the
//! host can run, against a row-at-a-time reference built on `sq_dist_seq`:
//! every `m` from 1 to `SHORT_MAX`, block lengths on both sides of every
//! vector width (4 and 8 lanes, 8 rows a step), coordinates from the whole
//! finite `f32` range, and running bests that are infinite, NaN, smaller,
//! larger or exactly the row's distance. Distances and labels must be
//! equal to the bit — k-means' assignments, and so the index files built
//! on them, depend on it. CI runs this again under
//! `PROMIPS_FORCE_SCALAR=1`, where the dispatched entry is the scalar one.

use promips_linalg::dispatch::available_backends;
use promips_linalg::nearest_col;
use promips_linalg::scalar::{sq_dist_seq, SHORT_MAX};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A coordinate: ordinary values most of the time, else one of the
/// extremes (largest finite, huge, subnormal, signed zeros).
fn coord(rng: &mut TestRng, extremes: bool) -> f32 {
    const EXTREME: [f32; 8] = [f32::MAX, -f32::MAX, 1e30, -3e28, 1e-40, -1e-45, 0.0, -0.0];
    if extremes && rng.below(4) == 0 {
        EXTREME[rng.below(EXTREME.len() as u64) as usize]
    } else {
        ((rng.unit_f64() - 0.5) * 2e2) as f32
    }
}

/// `nearest_col`'s contract, one row at a time.
fn reference(rows: &[Vec<f32>], q: &[f32], c: u32, best: &mut [u32], best_d: &mut [f64]) {
    for (i, row) in rows.iter().enumerate() {
        let d = sq_dist_seq(row, q);
        if d < best_d[i] {
            best_d[i] = d;
            best[i] = c;
        }
    }
}

proptest! {
    /// A few centroids folded one after another into the same running
    /// bests, from a start that mixes every kind of previous best.
    #[test]
    fn nearest_col_equals_the_row_reference(
        m in 1usize..SHORT_MAX + 1,
        n in 0usize..42,
        k in 1usize..5,
        extremes in 0usize..2,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = TestRng::from_name(&format!("nearest-{seed}"));
        let rows: Vec<Vec<f32>> =
            (0..n).map(|_| (0..m).map(|_| coord(&mut rng, extremes == 1)).collect()).collect();
        let cols: Vec<f32> = (0..m).flat_map(|j| rows.iter().map(move |r| r[j])).collect();
        // A centroid is sometimes one of the rows, so exact ties happen.
        let centroids: Vec<Vec<f32>> = (0..k)
            .map(|_| match rng.below(3) {
                0 if n > 0 => rows[rng.below(n as u64) as usize].clone(),
                _ => (0..m).map(|_| coord(&mut rng, extremes == 1)).collect(),
            })
            .collect();
        let mut want_best: Vec<u32> = (0..n).map(|_| rng.below(7) as u32 + 100).collect();
        let mut want_d: Vec<f64> = rows
            .iter()
            .map(|row| match rng.below(5) {
                0 => f64::INFINITY,
                1 => f64::NAN,
                2 => sq_dist_seq(row, &centroids[0]),
                3 => 0.0,
                _ => rng.unit_f64() * 1e4,
            })
            .collect();
        let start = (want_best.clone(), want_d.clone());
        let mut got: Vec<_> = available_backends().iter().map(|_| start.clone()).collect();
        for (c, q) in centroids.iter().enumerate() {
            reference(&rows, q, c as u32, &mut want_best, &mut want_d);
            for (kern, (best, best_d)) in available_backends().iter().zip(&mut got) {
                (kern.nearest_col)(&cols, m, q, c as u32, best, best_d);
                prop_assert_eq!(&*best, &want_best, "backend {} m {} n {} c {}", kern.name, m, n, c);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(best_d), bits(&want_d), "backend {} m {} n {} c {}", kern.name, m, n, c);
            }
        }
        // The dispatched entry is one of the tables above.
        let (mut best, mut best_d) = start;
        for (c, q) in centroids.iter().enumerate() {
            nearest_col(&cols, m, q, c as u32, &mut best, &mut best_d);
        }
        prop_assert_eq!(best, want_best);
    }
}

#[test]
#[should_panic(expected = "SHORT_MAX")]
fn rows_past_short_max_are_refused() {
    let m = SHORT_MAX + 1;
    let (mut best, mut best_d) = (vec![0u32; 2], vec![f64::INFINITY; 2]);
    nearest_col(
        &vec![0.0; 2 * m],
        m,
        &vec![0.0; m],
        0,
        &mut best,
        &mut best_d,
    );
}
