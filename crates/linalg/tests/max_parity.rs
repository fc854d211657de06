//! The column pass's two folds, on every backend the host can run: the
//! largest of each sub-partition's integer dots (`max_i32_runs`, one call
//! over the whole column; `max_i32` is its one-run case) and the largest
//! per-row bound `a·dot + b·code` over its dots and suffix-norm codes
//! (`max_scaled_sum`). Both must return exactly the plain row-by-row
//! reference, at every length mod 16 and 32 — the walk's per-row filter
//! and the refined key must agree to the bit. CI runs this again under
//! `PROMIPS_FORCE_SCALAR=1`, where the dispatched entry is the scalar one.

use promips_linalg::dispatch::available_backends;
use promips_linalg::{max_i32, max_i32_runs, max_scaled_sum};
use proptest::prelude::*;

proptest! {
    /// Every backend returns the plain maximum, with the extremes
    /// anywhere in the slice.
    #[test]
    fn max_i32_parity(
        v in proptest::collection::vec(i32::MIN..i32::MAX, 0..200),
        extreme in 0usize..3,
    ) {
        let mut v = v;
        if let (Some(slot), 1..) = (v.len().checked_sub(1), extreme) {
            v[slot * extreme / 2] = [i32::MIN, i32::MAX][extreme - 1];
        }
        let want = v.iter().copied().max().unwrap_or(i32::MIN);
        prop_assert_eq!(max_i32(&v), want);
        for k in available_backends() {
            let mut got = [0];
            (k.max_i32_runs)(&v, &[0, v.len()], &mut got);
            prop_assert_eq!(got[0], want, "backend {} n {}", k.name, v.len());
        }
    }

    /// Every backend's run max is the plain maximum of each run, over runs
    /// of every length the x86 bodies branch on — empty (`i32::MIN`), one
    /// element, under one vector, whole vectors and ragged tails — cut
    /// anywhere in the slice, extremes included.
    #[test]
    fn max_i32_runs_parity(
        v in proptest::collection::vec(i32::MIN..i32::MAX, 0..400),
        lens in proptest::collection::vec(0usize..40, 0..24),
        extreme in 0usize..3,
    ) {
        let mut v = v;
        if let (Some(slot), 1..) = (v.len().checked_sub(1), extreme) {
            v[slot * extreme / 2] = [i32::MIN, i32::MAX][extreme - 1];
        }
        // Runs of the drawn lengths (0 and 1 included) while they fit, the
        // last one taking what is left.
        let mut bounds = vec![0];
        for len in lens {
            let at = *bounds.last().unwrap();
            bounds.push((at + len).min(v.len()));
        }
        bounds.push(v.len());
        let want: Vec<i32> = bounds
            .windows(2)
            .map(|run| v[run[0]..run[1]].iter().copied().max().unwrap_or(i32::MIN))
            .collect();
        let mut got = vec![0; want.len()];
        max_i32_runs(&v, &bounds, &mut got);
        prop_assert_eq!(&got, &want);
        for k in available_backends() {
            got.fill(0);
            (k.max_i32_runs)(&v, &bounds, &mut got);
            prop_assert_eq!(&got, &want, "backend {} runs {:?}", k.name, bounds);
        }
    }

    /// Every backend returns the largest row bound computed row by row in
    /// `f64`, as the walk's per-row filter computes it.
    #[test]
    fn max_scaled_sum_parity(
        v in proptest::collection::vec((-400_000i32..400_000, 0u16..256), 0..200),
        a in 0.0f64..1e-2,
        b in 0.0f64..1.0,
    ) {
        let (x, y): (Vec<i32>, Vec<u8>) = v.into_iter().map(|(x, y)| (x, y as u8)).unzip();
        let want = x
            .iter()
            .zip(&y)
            .map(|(&x, &y)| a * x as f64 + b * y as f64)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(max_scaled_sum(&x, &y, a, b), want);
        for k in available_backends() {
            let got = (k.max_scaled_sum)(&x, &y, a, b);
            prop_assert_eq!(got, want, "backend {} n {}", k.name, x.len());
        }
    }
}
