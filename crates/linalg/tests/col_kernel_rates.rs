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
//!   select as mask arithmetic);
//! - every f32 entry of a table — `dot`, `sq_dist`, `sq_norm2`, `norm1`,
//!   `dot4`, `sq_dist4` and `dot4x4` — in ns a result at `d` ∈ {64, 128,
//!   300}, the widths of `skew64_shard4` and `lf300_*` and one between
//!   (what the AVX-512 table keeps of its own bodies rests on it).
//!
//! For the column kernels a reading is the fastest of [`REPS`] timed reps
//! of the same sweep count, calibrated so a rep takes at least [`MIN_REP`].
//! Every sweep's results are folded into an accumulator rather than passed
//! through `black_box` one by one (which adds a store-forwarding stall),
//! and each table's result must equal the scalar one: both kernels are
//! exact. The f32 entries are read as medians over [`F32_ROUNDS`] rounds
//! that alternate the order of the tables, the avx2 ÷ avx512 ratio as the
//! median over pairs of rounds, one of each order (the timings of a pair
//! share the host's load, and its two orders cancel what a table's place
//! in the order costs), and each table's results must lie within the dispatch
//! tolerance of the scalar ones.
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

const F32_ROWS: usize = 256;
const F32_ROUNDS: usize = 20;
const F32_ROUND: Duration = Duration::from_millis(2);

/// The f32 entries timed, each as one pass over `F32_ROWS` rows.
const F32_ENTRIES: [&str; 7] = [
    "dot", "sq_dist", "sq_norm2", "norm1", "dot4", "sq_dist4", "dot4x4",
];

/// Every result of one pass of entry `e` over the `d`-float `rows` into
/// `out`, and their count: against `q`, or (`dot4x4`) four rows at a time
/// against the first four. Each result is stored, none summed, so no add
/// chain is timed.
fn f32_pass(k: &Kernels, e: usize, rows: &[f32], d: usize, q: &[f32], out: &mut [f64]) -> usize {
    let row = |i: usize| &rows[i * d..(i + 1) * d];
    let four = |i: usize| [row(i), row(i + 1), row(i + 2), row(i + 3)];
    match e {
        0 | 1 => {
            let k2 = [k.dot, k.sq_dist][e];
            for (i, o) in out[..F32_ROWS].iter_mut().enumerate() {
                *o = k2(row(i), q);
            }
        }
        2 | 3 => {
            let k1 = [k.sq_norm2, k.norm1][e - 2];
            for (i, o) in out[..F32_ROWS].iter_mut().enumerate() {
                *o = k1(row(i));
            }
        }
        4 | 5 => {
            let k4 = [k.dot4, k.sq_dist4][e - 4];
            for (i, o) in out[..F32_ROWS].chunks_exact_mut(4).enumerate() {
                let [a0, a1, a2, a3] = four(4 * i);
                o.copy_from_slice(&k4(a0, a1, a2, a3, q));
            }
        }
        _ => {
            for (i, o) in out.chunks_exact_mut(16).enumerate() {
                let tile = (k.dot4x4)(four(4 * i), four(0));
                o.copy_from_slice(tile.as_flattened());
            }
            return 4 * F32_ROWS;
        }
    }
    F32_ROWS
}

/// ns a result of `passes` passes of entry `e`.
fn f32_ns(k: &Kernels, e: usize, rows: &[f32], d: usize, q: &[f32], passes: u32) -> f64 {
    let mut out = vec![0.0f64; 4 * F32_ROWS];
    let start = Instant::now();
    let mut results = 0;
    for _ in 0..passes {
        results += f32_pass(black_box(k), e, black_box(rows), d, q, &mut out);
        black_box(&mut out);
    }
    start.elapsed().as_secs_f64() * 1e9 / results as f64
}

/// Median and quartiles of `v`.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [v.len() / 4, v.len() / 2, 3 * v.len() / 4].map(|i| v[i])
}

#[test]
#[ignore = "a measurement, not a check: ≈ 5 s in release"]
fn f32_kernels_ns_per_row_on_every_backend() {
    let mut rng = TestRng::from_name("f32-kernel-rates");
    let backends = available_backends();
    let names: Vec<&str> = backends.iter().map(|k| k.name).collect();
    let at = |name: &str| names.iter().position(|&n| n == name);
    println!(
        "f32 kernels ns/result ({F32_ROWS} rows, median of {F32_ROUNDS} rounds in alternating \
         table order), and the median [quartiles] of each pair of rounds' avx2 ÷ avx512 time \
         (> 1: the avx512 table is faster): {names:?}"
    );
    for d in [64, 128, 300] {
        let mut coord = || (rng.unit_f64() * 2.0 - 1.0) as f32;
        let rows: Vec<f32> = (0..F32_ROWS * d).map(|_| coord()).collect();
        let q: Vec<f32> = (0..d).map(|_| coord()).collect();
        for (e, entry) in F32_ENTRIES.iter().enumerate() {
            let mut want = vec![0.0f64; 4 * F32_ROWS];
            let len = f32_pass(&backends[0], e, &rows, d, &q, &mut want);
            let mut got = vec![0.0f64; 4 * F32_ROWS];
            for k in &backends {
                f32_pass(k, e, &rows, d, &q, &mut got);
                for (i, (&g, &w)) in got[..len].iter().zip(&want).enumerate() {
                    let tol = 1e-4 * w.abs().max(1.0);
                    assert!(
                        (g - w).abs() <= tol,
                        "{} {entry} d = {d} result {i}",
                        k.name
                    );
                }
            }
            // Passes a round: enough for F32_ROUND on the slowest table.
            let round_ns = |k: &Kernels, passes: u32| {
                f32_ns(k, e, &rows, d, &q, passes) * (passes as usize * len) as f64
            };
            let mut passes = 1;
            while backends
                .iter()
                .any(|k| round_ns(k, passes) < F32_ROUND.as_secs_f64() * 1e9)
            {
                passes *= 2;
            }
            let mut ns = vec![Vec::with_capacity(F32_ROUNDS); backends.len()];
            for round in 0..F32_ROUNDS {
                let mut order: Vec<usize> = (0..backends.len()).collect();
                if round % 2 == 1 {
                    order.reverse();
                }
                for t in order {
                    ns[t].push(f32_ns(&backends[t], e, &rows, d, &q, passes));
                }
            }
            let mut line = format!("  d={d:<4} {entry:<9}");
            for (name, ns) in names.iter().zip(&ns) {
                line += &format!(" {name} {:.2}", quartiles(ns.clone())[1]);
            }
            if let (Some(a), Some(b)) = (at("avx2"), at("avx512")) {
                let sum = |t: &[f64]| t[0] + t[1];
                let pairs = ns[a].chunks_exact(2).zip(ns[b].chunks_exact(2));
                let [q1, med, q3] = quartiles(pairs.map(|(a, b)| sum(a) / sum(b)).collect());
                line += &format!("  avx2/avx512 {med:.2} [{q1:.2}, {q3:.2}]");
            }
            println!("{line}");
        }
    }
}
