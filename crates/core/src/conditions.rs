//! The probability-guaranteed searching conditions (paper Section IV).
//!
//! For a query `q` with current best (k-th best) verified inner product
//! `⟨omax, q⟩`, define the **slack**
//!
//! `Δ = ‖oM‖² + ‖q‖² − 2⟨omax, q⟩ / c`.
//!
//! * **Condition A** (Theorem 1): `Δ ≤ 0` ⟹ a c-AMIP point has certainly
//!   been verified already (deterministic termination).
//! * **Condition B** (Theorem 2): `Ψm(dis²(P(oi), P(q)) / Δ) ≥ p` ⟹ a
//!   c-AMIP point has been verified with probability at least `p`.
//!
//! The paper tests Condition A with the newest returned point `oi`; since
//! `⟨omax,q⟩ ≥ ⟨oi,q⟩` and Theorem 1 holds for any returned point, testing
//! the running best is equally sound and terminates no later. (Algorithm 3
//! in the paper already tests after updating `omax`.)

use promips_stats::{chi2_cdf, chi2_inv_cdf};

/// `Ψm⁻¹(p)` as the threshold of Condition B: an `f64` `x*` with
/// `chi2_cdf(m, x*) ≥ p` and `chi2_cdf(m, prev(x*)) < p`. `Ψm` is monotone,
/// so `x ≥ x*` is the *same predicate* as `chi2_cdf(m, x) ≥ p` — found by
/// bisecting that very function — at the price of one comparison instead
/// of an incomplete-gamma evaluation per test. (The computed CDF is
/// monotone only down to its rounding noise: within ≈ 60 ulps of the
/// crossing, a relative 1e-14, its answer flickers and this threshold is
/// its monotone completion.) `m` and `p` are fixed per index, so this runs
/// once, at build or open: ≈ 60 `chi2_cdf` calls, a bisection over the bit
/// patterns of the positive floats, which order like the floats.
pub fn chi2_threshold(m: u32, p: f64) -> f64 {
    let mut above = chi2_inv_cdf(m, p).max(f64::MIN_POSITIVE);
    while chi2_cdf(m, above) < p {
        above *= 2.0;
    }
    // Invariant: chi2_cdf(lo) < p ≤ chi2_cdf(hi); Ψm(0) = 0 < p.
    let (mut lo, mut hi) = (0u64, above.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if chi2_cdf(m, f64::from_bits(mid)) >= p {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

/// Per-query context for evaluating the conditions.
#[derive(Debug, Clone)]
pub struct ConditionContext {
    /// Approximation ratio `c`.
    pub c: f64,
    /// [`chi2_threshold`] of the index's projected dimensionality `m` and
    /// guarantee probability `p`.
    pub chi2_threshold: f64,
    /// `‖oM‖²` — max squared norm over the dataset.
    pub max_sq_norm: f64,
    /// `‖q‖²` — squared norm of this query.
    pub q_sq_norm: f64,
}

impl ConditionContext {
    /// The slack `Δ = ‖oM‖² + ‖q‖² − 2·best_ip/c`.
    ///
    /// `best_ip` is `⟨omax, q⟩` for k = 1 or the k-th best verified inner
    /// product for c-k-AMIP; pass `f64::NEG_INFINITY` while fewer than `k`
    /// candidates have been verified (the conditions then never fire).
    #[inline]
    pub fn slack(&self, best_ip: f64) -> f64 {
        self.max_sq_norm + self.q_sq_norm - 2.0 * best_ip / self.c
    }

    /// Condition A (Theorem 1): certain termination.
    #[inline]
    pub fn condition_a(&self, best_ip: f64) -> bool {
        self.slack(best_ip) <= 0.0
    }

    /// Condition B (Theorem 2): probabilistic termination given the squared
    /// projected distance of the most recently returned point —
    /// `Ψm(dis²/Δ) ≥ p`, tested as `dis²/Δ ≥ Ψm⁻¹(p)`.
    #[inline]
    pub fn condition_b(&self, proj_dist_sq: f64, best_ip: f64) -> bool {
        let slack = self.slack(best_ip);
        if slack <= 0.0 {
            // Condition A territory; B is vacuously satisfied.
            return true;
        }
        if !slack.is_finite() {
            return false; // fewer than k candidates yet
        }
        proj_dist_sq / slack >= self.chi2_threshold
    }

    /// The compensated searching radius
    /// `r' = sqrt(Ψm⁻¹(p) · Δ)` (paper Section V-A, after Algorithm 3's
    /// range search fails Condition B at the Quick-Probe radius).
    ///
    /// Returns `None` when `Δ ≤ 0` (Condition A already holds — no further
    /// search needed) or when `Δ` is infinite (no candidates verified yet).
    pub fn compensation_radius(&self, best_ip: f64) -> Option<f64> {
        let slack = self.slack(best_ip);
        if slack <= 0.0 || !slack.is_finite() {
            return None;
        }
        Some((self.chi2_threshold * slack).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_at(p: f64) -> ConditionContext {
        ConditionContext {
            c: 0.9,
            chi2_threshold: chi2_threshold(6, p),
            max_sq_norm: 100.0,
            q_sq_norm: 50.0,
        }
    }

    fn ctx() -> ConditionContext {
        ctx_at(0.5)
    }

    #[test]
    fn condition_a_threshold() {
        let ctx = ctx();
        // Slack zero exactly when best_ip = c(‖oM‖²+‖q‖²)/2 = 0.9·75 = 67.5.
        assert!(!ctx.condition_a(67.0));
        assert!(ctx.condition_a(67.5));
        assert!(ctx.condition_a(1000.0));
    }

    #[test]
    fn condition_a_never_with_no_candidates() {
        assert!(!ctx().condition_a(f64::NEG_INFINITY));
    }

    #[test]
    fn condition_b_monotone_in_distance() {
        let ctx = ctx();
        let best = 40.0; // slack = 150 − 88.9 ≈ 61.1 > 0
        assert!(ctx.slack(best) > 0.0);
        // Small projected distance: low χ² CDF → not satisfied.
        assert!(!ctx.condition_b(0.1, best));
        // Huge projected distance: CDF → 1 ≥ p.
        assert!(ctx.condition_b(1e6, best));
        // Find the crossing point: should match Ψm⁻¹(p)·slack.
        let slack = ctx.slack(best);
        let crossing = promips_stats::chi2_inv_cdf(6, 0.5) * slack;
        assert!(!ctx.condition_b(crossing * 0.99, best));
        assert!(ctx.condition_b(crossing * 1.01, best));
    }

    #[test]
    fn condition_b_vacuous_when_a_holds() {
        let ctx = ctx();
        assert!(ctx.condition_b(0.0, 1000.0));
    }

    #[test]
    fn condition_b_false_with_no_candidates() {
        assert!(!ctx().condition_b(1e12, f64::NEG_INFINITY));
    }

    #[test]
    fn compensation_radius_consistency() {
        let ctx = ctx();
        let best = 40.0;
        let r = ctx.compensation_radius(best).unwrap();
        // At the compensated radius Condition B holds with equality.
        assert!(ctx.condition_b(r * r * 1.0001, best));
        assert!(!ctx.condition_b(r * r * 0.9999, best));
        // No compensation when Condition A holds or nothing verified.
        assert!(ctx.compensation_radius(1000.0).is_none());
        assert!(ctx.compensation_radius(f64::NEG_INFINITY).is_none());
    }

    #[test]
    fn higher_p_demands_larger_radius() {
        let a = ctx_at(0.3);
        let b = ctx_at(0.9);
        let ra = a.compensation_radius(40.0).unwrap();
        let rb = b.compensation_radius(40.0).unwrap();
        assert!(rb > ra, "p=0.9 radius {rb} must exceed p=0.3 radius {ra}");
    }

    #[test]
    fn smaller_c_shrinks_slack() {
        // For a positive verified inner product, a smaller c inflates
        // 2·ip/c and thus shrinks the slack — the conditions fire earlier
        // and fewer candidates are collected (the paper's Fig. 10 trend).
        let mut loose = ctx();
        loose.c = 0.7;
        let tight = ctx();
        let ip = 50.0;
        assert!(loose.slack(ip) < tight.slack(ip));
    }
}
