//! The column pass's two folds, on every backend the host can run: the
//! largest of a sub-partition's integer dots (`max_i32`) and the largest
//! per-row bound `a·dot + b·code` over its dots and suffix-norm codes
//! (`max_scaled_sum`). Both must return exactly the plain row-by-row
//! reference, at every length mod 16 and 32 — the walk's per-row filter
//! and the refined key must agree to the bit. CI runs this again under
//! `PROMIPS_FORCE_SCALAR=1`, where the dispatched entry is the scalar one.

use promips_linalg::dispatch::available_backends;
use promips_linalg::{max_i32, max_scaled_sum};
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
            prop_assert_eq!((k.max_i32)(&v), want, "backend {} n {}", k.name, v.len());
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
