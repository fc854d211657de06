//! Property test for the log2 histogram: quantile estimates against
//! exact sorted percentiles (bounded relative error per bucket).

use promips_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Exact order statistic matching the histogram's rank convention:
/// `k = ceil(p * n)` clamped to at least 1, value is the k-th smallest.
fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len() as u64;
    let k = ((p * n as f64).ceil() as u64).clamp(1, n);
    sorted[(k - 1) as usize]
}

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The estimate shares a power-of-two bucket with the exact order
    /// statistic, so: exact zero => estimate exactly zero, otherwise
    /// the ratio estimate/exact is within [0.5, 2]. Sample values span
    /// the full bucket range via a random shift.
    #[test]
    fn quantile_within_one_bucket_of_exact(
        raw in proptest::collection::vec((0u64..1024, 0u32..54), 1..200),
        p in 0.0f64..1.0,
    ) {
        let samples: Vec<u64> = raw.iter().map(|&(v, shift)| v << shift).collect();
        let snap = snapshot_of(&samples);
        prop_assert_eq!(snap.count(), samples.len() as u64);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, p, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = snap.quantile(q);
            if exact == 0 {
                prop_assert_eq!(est, 0.0, "q={}: exact 0 must estimate 0", q);
            } else {
                let ratio = est / exact as f64;
                prop_assert!(
                    (0.5..=2.0).contains(&ratio),
                    "q={}: exact={} est={} ratio={}",
                    q, exact, est, ratio
                );
            }
        }
    }
}
