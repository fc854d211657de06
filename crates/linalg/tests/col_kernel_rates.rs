//! The rate of the screen's column kernel, `dot_col_i8`, on every table
//! the host can run (`available_backends()`): ns a row at `w` ∈ {32, 64,
//! 128, 320} code bytes. This is the number the AVX-512 keep/delete decision
//! reads; `benchmark/` times only the dispatched `dot4_i8`.
//!
//! Shape: 768 rows of random u8 codes per width against one random i8
//! query, in 64-row runs (a 4 KB page of 64-byte heads), one kernel call a
//! run. A reading is the fastest of [`REPS`] timed reps of the same sweep
//! count, calibrated so a rep takes at least [`MIN_REP`]. Every run's dots
//! are summed into an accumulator rather than passed through `black_box`
//! call by call (which adds a store-forwarding stall), and each table's sum
//! must equal the scalar one: the kernels are exact integer arithmetic.
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

/// ns a row of the fastest of `REPS` reps of `pass` over `ROWS` rows.
fn ns_per_row(mut pass: impl FnMut() -> i32) -> f64 {
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
    best.as_secs_f64() * 1e9 / (iters as usize * ROWS) as f64
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
            let ns = ns_per_row(|| sweep(k, &codes, w, &q, &mut dots));
            line += &format!(" {} {ns:.2}", k.name);
        }
        println!("{line}");
    }
}
