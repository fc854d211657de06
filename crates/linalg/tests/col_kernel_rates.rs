//! The rates of the column kernels on every table the host can run
//! (`available_backends()`), the numbers their keep/delete decisions read
//! (`benchmark/` times only the dispatched `dot4_i8` and `sq_dist4`):
//!
//! - the screen's `dot_col_i8`: ns a row at `w` ∈ {32, 64, 128, 320} code
//!   bytes — 768 rows of random u8 codes per width against one random i8
//!   query, in 64-row runs (a 4 KB page of 64-byte heads), one call a run;
//! - k-means' `nearest_col`: ns a (row, centroid) pair at `m` ∈ {6, 7, 8,
//!   10} — one 1 024-row column-major block, eight centroids folded into
//!   it, one call a centroid — beside the row-major pass it replaced
//!   (`sq_dist_col` into a distance buffer, then the nearest-centroid
//!   select as mask arithmetic).
//!
//! A reading is the fastest of [`REPS`] timed reps of the same sweep count,
//! calibrated so a rep takes at least [`MIN_REP`]. Every sweep's results
//! are folded into an accumulator rather than passed through `black_box`
//! one by one (which adds a store-forwarding stall), and each table's
//! result must equal the scalar one: both kernels are exact.
//!
//! ```text
//! cargo test --release -p promips_linalg --test col_kernel_rates -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use promips_linalg::dispatch::{available_backends, Kernels};
use proptest::test_runner::TestRng;

const WIDTHS: [usize; 4] = [32, 64, 128, 320];
const RUN: usize = 64;
const ROWS: usize = 12 * RUN;
const REPS: usize = 9;
const MIN_REP: Duration = Duration::from_millis(5);

/// One pass over `codes` in `RUN`-row calls; the wrapping sum of every dot.
fn sweep(k: &Kernels, codes: &[u8], w: usize, q: &[i8], dots: &mut [i32]) -> i32 {
    let mut sum = 0i32;
    for run in black_box(codes).chunks_exact(RUN * w) {
        (k.dot_col_i8)(run, w, q, dots);
        sum = dots.iter().fold(sum, |s, &d| s.wrapping_add(d));
    }
    sum
}

/// ns an item of the fastest of `REPS` reps of `pass` over `items` items.
fn ns_per_item(items: usize, mut pass: impl FnMut() -> i32) -> f64 {
    let mut acc = 0i32;
    let mut rep = |iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            acc = acc.wrapping_add(pass());
        }
        start.elapsed()
    };
    let mut iters = 1;
    while rep(iters) < MIN_REP {
        iters *= 2;
    }
    let best = (0..REPS).map(|_| rep(iters)).min().unwrap();
    black_box(acc);
    best.as_secs_f64() * 1e9 / (iters as usize * items) as f64
}

#[test]
#[ignore = "a measurement, not a check: ≈ 1 s in release"]
fn dot_col_i8_ns_per_row_on_every_backend() {
    let mut rng = TestRng::from_name("col-kernel-rates");
    let backends = available_backends();
    println!("dot_col_i8 ns/row ({ROWS} rows in {RUN}-row runs, best of {REPS}):");
    for w in WIDTHS {
        let codes: Vec<u8> = (0..ROWS * w).map(|_| rng.next_u64() as u8).collect();
        let q: Vec<i8> = (0..w).map(|_| rng.next_u64() as i8).collect();
        let mut dots = vec![0i32; RUN];
        let want = sweep(&backends[0], &codes, w, &q, &mut dots);
        let mut line = format!("  w={w:<4}");
        for k in &backends {
            let got = sweep(k, &codes, w, &q, &mut dots);
            assert_eq!(got, want, "{} at w = {w}", k.name);
            let ns = ns_per_item(ROWS, || sweep(k, &codes, w, &q, &mut dots));
            line += &format!(" {} {ns:.2}", k.name);
        }
        println!("{line}");
    }
}

const BLOCK: usize = 1024;
const CENTROIDS: usize = 8;

/// Every centroid folded into one column-major block's nearest centroids;
/// the labels' sum.
fn fold(k: &Kernels, cols: &[f32], m: usize, centroids: &[f32], best: &mut [u32]) -> i32 {
    let mut best_d = [f64::INFINITY; BLOCK];
    for (c, q) in black_box(centroids).chunks_exact(m).enumerate() {
        (k.nearest_col)(cols, m, q, c as u32, best, &mut best_d);
    }
    best.iter().fold(0, |s, &b| s.wrapping_add(b as i32))
}

/// The row-major pass `nearest_col` replaced: one `sq_dist_col` call a
/// centroid, then the select; the labels' sum.
fn fold_rows(rows: &[f32], m: usize, centroids: &[f32], best: &mut [u32]) -> i32 {
    let (mut best_d, mut dists) = ([f64::INFINITY; BLOCK], [0.0f64; BLOCK]);
    for (c, q) in black_box(centroids).chunks_exact(m).enumerate() {
        promips_linalg::sq_dist_col(rows, m, q, &mut dists);
        for ((b, bd), &d) in best.iter_mut().zip(&mut best_d).zip(&dists) {
            let nearer = ((d < *bd) as u32).wrapping_neg();
            *b = (c as u32 & nearer) | (*b & !nearer);
            *bd = bd.min(d);
        }
    }
    best.iter().fold(0, |s, &b| s.wrapping_add(b as i32))
}

#[test]
#[ignore = "a measurement, not a check: ≈ 1 s in release"]
fn nearest_col_ns_per_pair_on_every_backend() {
    let mut rng = TestRng::from_name("nearest-col-rates");
    let backends = available_backends();
    let pairs = BLOCK * CENTROIDS;
    println!("nearest_col ns/pair ({BLOCK} rows × {CENTROIDS} centroids, best of {REPS}):");
    for m in [6, 7, 8, 10] {
        let mut coord = || (rng.unit_f64() * 20.0 - 10.0) as f32;
        let rows: Vec<f32> = (0..BLOCK * m).map(|_| coord()).collect();
        let centroids: Vec<f32> = (0..CENTROIDS * m).map(|_| coord()).collect();
        let cols: Vec<f32> = (0..m)
            .flat_map(|j| rows.iter().skip(j).step_by(m).copied())
            .collect();
        let mut best = [0u32; BLOCK];
        let want = fold_rows(&rows, m, &centroids, &mut best);
        let ns = ns_per_item(pairs, || fold_rows(&rows, m, &centroids, &mut best));
        let mut line = format!("  m={m:<3} row-major {ns:.2}");
        for k in &backends {
            assert_eq!(
                fold(k, &cols, m, &centroids, &mut best),
                want,
                "{} at m = {m}",
                k.name
            );
            let ns = ns_per_item(pairs, || fold(k, &cols, m, &centroids, &mut best));
            line += &format!(" {} {ns:.2}", k.name);
        }
        println!("{line}");
    }
}
