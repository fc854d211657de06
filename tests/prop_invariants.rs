//! Property-based tests of the theory the paper's guarantees rest on:
//! Theorems 1–4, Lemma 2, the condition algebra, and index-vs-brute-force
//! agreement on random instances.

use promips::core::conditions::{chi2_threshold, ConditionContext};
use promips::core::{ProMips, ProMipsConfig};
use promips::linalg::{dist, dot, norm1, sq_dist, sq_norm2, Matrix};
use promips::stats::{chi2_cdf, chi2_inv_cdf, Xoshiro256pp};
use proptest::prelude::*;

fn ctx(c: f64, p: f64, m: u32, max_sq: f64, q_sq: f64) -> ConditionContext {
    ConditionContext {
        c,
        chi2_threshold: chi2_threshold(m, p),
        max_sq_norm: max_sq,
        q_sq_norm: q_sq,
    }
}

/// `chi2_threshold` is the first float at which the χ² CDF reaches `p` —
/// the crossing of the function Condition B is defined by, not of an
/// approximation to it.
#[test]
fn chi2_threshold_is_the_first_float_reaching_p() {
    for m in [1u32, 2, 6, 7, 8, 33, 64] {
        for p in [1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-12] {
            let x = chi2_threshold(m, p);
            let below = f64::from_bits(x.to_bits() - 1);
            assert!(chi2_cdf(m, x) >= p, "m={m} p={p}");
            assert!(chi2_cdf(m, below) < p, "m={m} p={p}");
            // `chi2_inv_cdf` stops at 1e-13 in p space, which at the
            // extreme p is far from the crossing in x.
            let inv = chi2_inv_cdf(m, p);
            assert!(
                !(0.1..=0.9).contains(&p) || (x - inv).abs() <= 1e-9 * inv,
                "m={m} p={p}: {x} vs {inv}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: if Condition A holds for some verified inner product,
    /// that inner product c-dominates EVERY point whose norm is below the
    /// max norm — checked against explicitly constructed points.
    #[test]
    fn condition_a_implies_c_bound(
        c in 0.5f64..0.99,
        max_norm in 0.5f64..50.0,
        q_norm in 0.5f64..50.0,
        other_frac in 0.0f64..1.0,
    ) {
        let max_sq = max_norm * max_norm;
        let q_sq = q_norm * q_norm;
        let ctx = ctx(c, 0.5, 6, max_sq, q_sq);
        // The smallest ip that satisfies Condition A:
        let ip = c * (max_sq + q_sq) / 2.0 + 1e-9;
        prop_assert!(ctx.condition_a(ip));
        // Any other point o with ‖o‖ ≤ max_norm has
        // ⟨o,q⟩ ≤ (‖o‖² + ‖q‖²)/2 ≤ (max² + ‖q‖²)/2 = ip/c,
        // hence ip ≥ c·⟨o,q⟩ — the c-AMIP bound.
        let other_ip_ub = (other_frac * max_sq + q_sq) / 2.0;
        prop_assert!(ip >= c * other_ip_ub - 1e-6);
    }

    /// Condition B is monotone in the projected distance and consistent
    /// with its compensation radius.
    #[test]
    fn condition_b_monotonicity_and_compensation(
        c in 0.5f64..0.99,
        p in 0.05f64..0.95,
        m in 2u32..16,
        max_sq in 1.0f64..100.0,
        q_sq in 0.1f64..100.0,
        ip_frac in -0.5f64..0.49,
    ) {
        let ctx = ctx(c, p, m, max_sq, q_sq);
        // Choose an ip below the Condition-A threshold so slack > 0.
        let ip = ip_frac * c * (max_sq + q_sq);
        prop_assume!(ctx.slack(ip) > 1e-9);
        let r = ctx.compensation_radius(ip).unwrap();
        // At radii above r, Condition B holds; below, it does not.
        prop_assert!(ctx.condition_b(r * r * 1.001, ip));
        prop_assert!(!ctx.condition_b(r * r * 0.999, ip));
        // Monotonicity in distance.
        prop_assert!(!ctx.condition_b(0.0, ip) || p <= 0.0);
    }

    /// The precomputed threshold is the χ² test itself, not an
    /// approximation of it: Condition B answers what `Ψm(dis²/Δ) ≥ p`
    /// answers at any distance, up to the band of a relative 1e-13 around
    /// the crossing where the computed CDF's own rounding noise decides.
    #[test]
    fn condition_b_is_the_chi2_predicate(
        p in 0.05f64..0.95,
        m in 1u32..65,
        slack in 0.01f64..1000.0,
        far in 0.0f64..4.0,
        near in 1e-13f64..1e-9,
    ) {
        // max_sq + q_sq − 2·0/c = slack exactly.
        let ctx = ctx(0.9, p, m, slack, 0.0);
        let crossing = chi2_threshold(m, p) * slack;
        for d2 in [far * crossing, crossing * (1.0 + near), crossing * (1.0 - near)] {
            prop_assert_eq!(
                ctx.condition_b(d2, 0.0),
                chi2_cdf(m, d2 / slack) >= p,
                "m={} p={} d2={}", m, p, d2
            );
        }
    }

    /// χ² CDF/quantile are inverse, monotone, and bounded.
    #[test]
    fn chi2_cdf_quantile_inverse(m in 1u32..40, p in 0.001f64..0.999) {
        let x = chi2_inv_cdf(m, p);
        prop_assert!(x > 0.0);
        prop_assert!((chi2_cdf(m, x) - p).abs() < 1e-7);
    }

    /// The vector kernels satisfy the polarization identity the searching
    /// conditions rely on: dis² = ‖a‖² + ‖b‖² − 2⟨a,b⟩.
    #[test]
    fn polarization_identity(
        pairs in proptest::collection::vec((-30.0f32..30.0, -30.0f32..30.0), 1..64)
    ) {
        let a: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let lhs = sq_dist(&a, &b);
        let rhs = sq_norm2(&a) + sq_norm2(&b) - 2.0 * dot(&a, &b);
        prop_assert!((lhs - rhs).abs() <= 1e-5 * (1.0 + lhs.abs()));
    }

    /// Theorem 4: ‖o − q‖₂ ≤ ‖o‖₁ + ‖q‖₁ (the Quick-Probe upper bound).
    #[test]
    fn theorem4_upper_bound(
        pairs in proptest::collection::vec((-20.0f32..20.0, -20.0f32..20.0), 1..64)
    ) {
        let o: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let q: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        prop_assert!(dist(&o, &q) <= norm1(&o) + norm1(&q) + 1e-6);
    }
}

/// Lemma 2 sanity at fixed data: the projected/original distance ratio has
/// roughly the χ²(m) mean (= m) over independent projections.
#[test]
fn lemma2_ratio_mean_is_m() {
    use promips::core::projection::Projection;
    let d = 48;
    let m = 7;
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let a: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
    let b: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
    let base = sq_dist(&a, &b);
    let trials = 600;
    let mean: f64 = (0..trials)
        .map(|t| {
            let proj = Projection::generate(m, d, 10_000 + t);
            sq_dist(&proj.project(&a), &proj.project(&b)) / base
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        (mean - m as f64).abs() < 0.6,
        "ratio mean {mean} should approximate m = {m}"
    );
}

/// The index's range search agrees with brute force on random instances —
/// the substrate invariant behind every candidate set in the system.
#[test]
fn range_search_matches_brute_force_randomized() {
    let mut rng = Xoshiro256pp::seed_from_u64(55);
    for trial in 0..3 {
        let n = 400 + trial * 137;
        let data = Matrix::from_rows(
            24,
            (0..n).map(|_| (0..24).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
        );
        let cfg = ProMipsConfig::builder().m(4).seed(trial as u64).build();
        let index = ProMips::build_in_memory(&data, cfg).unwrap();
        let q: Vec<f32> = (0..24).map(|_| rng.normal() as f32).collect();
        let pq = promips::core::projection::Projection::generate(4, 24, trial as u64);
        // Reconstruct the projection the index used (same seed), then
        // compare candidates against a brute-force scan of the projections.
        let proj_q = pq.project(&q);
        let r = 1.5;
        let mut got: Vec<u64> = index
            .idistance()
            .range_candidates(&proj_q, -1.0, r)
            .unwrap()
            .into_iter()
            .map(|c| c.id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u64> = (0..n)
            .filter(|&i| dist(&pq.project(data.row(i)), &proj_q) <= r)
            .map(|i| i as u64)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "trial {trial}");
    }
}
