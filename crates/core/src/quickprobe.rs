//! Quick-Probe (paper Section V, Algorithm 2).
//!
//! Goal: pick the searching radius for MIP-Search-II **without** the
//! incremental NN search of Algorithm 1. During pre-processing the projected
//! points are grouped by their sign binary codes; each group keeps its
//! members sorted by original-space 1-norm. At query time:
//!
//! 1. every group gets a lower bound `LB` on the projected distance between
//!    any member and the query (Theorem 3);
//! 2. groups are visited in ascending `LB`; in each group, the member with
//!    the smallest `‖o‖₁` maximizes `LB² / (c·(‖o‖₁+‖q‖₁)²)` — a lower bound
//!    of `dis²(P(o),P(q)) / (c·dis²(o,q))` (Theorems 3 + 4);
//! 3. **Test A**: if `Ψm` of that value reaches `p`, the member is returned
//!    immediately; otherwise the best value seen so far is remembered and
//!    the scan continues. If no group passes, the best-recorded member is
//!    returned.
//!
//! The located point's *actual* projected distance to the query (fetched
//! from the index) becomes the range-search radius.

use promips_stats::chi2_cdf;

use crate::binary::{code_of, theorem3_lower_bound, BinaryCode};

/// A code group: members sorted ascending by `‖o‖₁`.
#[derive(Debug, Clone)]
struct Group {
    code: BinaryCode,
    /// `(norm1, id)` sorted ascending by `norm1`.
    members: Vec<(f64, u64)>,
}

/// The Quick-Probe directory (built once per index).
#[derive(Debug, Clone)]
pub struct QuickProbe {
    m: usize,
    groups: Vec<Group>,
}

/// Outcome of a Quick-Probe location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Located {
    /// Id of the located point.
    pub id: u64,
    /// Whether Test A was satisfied (`false` → fallback best-value point).
    pub test_a_passed: bool,
    /// Number of groups inspected before returning.
    pub groups_probed: usize,
}

impl QuickProbe {
    /// Builds the directory from projected vectors and per-point 1-norms.
    ///
    /// `projected` yields `(id, projected vector)`; `norm1` maps id → `‖o‖₁`
    /// of the *original* point (Theorem 4 bounds the original-space
    /// distance).
    pub fn build<'a>(
        m: usize,
        projected: impl IntoIterator<Item = (u64, &'a [f32])>,
        norm1_of: impl Fn(u64) -> f64,
    ) -> Self {
        use std::collections::HashMap;
        let mut map: HashMap<BinaryCode, Vec<(f64, u64)>> = HashMap::new();
        for (id, pv) in projected {
            debug_assert_eq!(pv.len(), m);
            map.entry(code_of(pv)).or_default().push((norm1_of(id), id));
        }
        let mut groups: Vec<Group> = map
            .into_iter()
            .map(|(code, mut members)| {
                members.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                Group { code, members }
            })
            .collect();
        // Deterministic group order (HashMap iteration is not).
        groups.sort_by_key(|g| g.code);
        Self { m, groups }
    }

    /// Number of non-empty code groups (≤ 2^m).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| 8 + g.members.len() * 16)
            .sum::<usize>()
    }

    /// Serializes the directory (for full-index persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        use promips_idistance::layout::enc::*;
        put_u64(buf, self.m as u64);
        put_u32(buf, self.groups.len() as u32);
        for g in &self.groups {
            put_u64(buf, g.code);
            put_u32(buf, g.members.len() as u32);
            for &(norm1, id) in &g.members {
                put_f64(buf, norm1);
                put_u64(buf, id);
            }
        }
    }

    /// Deserializes a directory written by [`QuickProbe::encode`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> Self {
        use promips_idistance::layout::enc::*;
        let m = get_u64(buf, pos) as usize;
        let n_groups = get_u32(buf, pos) as usize;
        let groups = (0..n_groups)
            .map(|_| {
                let code = get_u64(buf, pos);
                let len = get_u32(buf, pos) as usize;
                let members = (0..len)
                    .map(|_| (get_f64(buf, pos), get_u64(buf, pos)))
                    .collect();
                Group { code, members }
            })
            .collect();
        Self { m, groups }
    }

    /// Algorithm 2: locates the point whose projected distance will serve as
    /// the searching range.
    ///
    /// * `pq` — projected query;
    /// * `q_norm1` — `‖q‖₁` of the original query;
    /// * `c`, `p` — approximation ratio and guarantee probability.
    pub fn locate(&self, pq: &[f32], q_norm1: f64, c: f64, p: f64) -> Located {
        assert_eq!(pq.len(), self.m, "projected query dimension mismatch");
        assert!(!self.groups.is_empty(), "Quick-Probe over an empty index");
        let q_code = code_of(pq);
        let q_abs: Vec<f64> = pq.iter().map(|&v| v.abs() as f64).collect();

        // Group lower bounds (2^m·(m+1) work — the term the optimized m
        // balances against group size).
        let mut order: Vec<(f64, usize)> = self
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| (theorem3_lower_bound(g.code, q_code, &q_abs), gi))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut best_value = f64::NEG_INFINITY;
        let mut best_id = self.groups[order[0].1].members[0].1;
        for (probed, &(lb, gi)) in order.iter().enumerate() {
            let &(norm1, id) = &self.groups[gi].members[0];
            let denom = c * (norm1 + q_norm1).powi(2);
            let value = if denom > 0.0 { (lb * lb) / denom } else { 0.0 };
            // Test A.
            if chi2_cdf(self.m as u32, value) >= p {
                return Located {
                    id,
                    test_a_passed: true,
                    groups_probed: probed + 1,
                };
            }
            if value >= best_value {
                best_value = value;
                best_id = id;
            }
        }
        Located {
            id: best_id,
            test_a_passed: false,
            groups_probed: order.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_linalg::norm1 as l1;
    use promips_stats::Xoshiro256pp;

    /// Builds a random scenario: n points in m-dim projected space with
    /// synthetic original 1-norms.
    fn scenario(n: usize, m: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let proj: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..m).map(|_| rng.normal() as f32).collect())
            .collect();
        let norms: Vec<f64> = proj.iter().map(|v| l1(v) * 3.0 + 1.0).collect();
        (proj, norms)
    }

    fn build(proj: &[Vec<f32>], norms: &[f64], m: usize) -> QuickProbe {
        QuickProbe::build(
            m,
            proj.iter()
                .enumerate()
                .map(|(i, v)| (i as u64, v.as_slice())),
            |id| norms[id as usize],
        )
    }

    #[test]
    fn groups_cover_all_points() {
        let (proj, norms) = scenario(300, 5, 1);
        let qp = build(&proj, &norms, 5);
        assert!(qp.num_groups() <= 32);
        let total: usize = qp.groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn members_sorted_by_norm1() {
        let (proj, norms) = scenario(200, 4, 2);
        let qp = build(&proj, &norms, 4);
        for g in &qp.groups {
            assert!(g.members.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn locate_returns_valid_id() {
        let (proj, norms) = scenario(500, 6, 3);
        let qp = build(&proj, &norms, 6);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..20 {
            let pq: Vec<f32> = (0..6).map(|_| rng.normal() as f32).collect();
            let located = qp.locate(&pq, 5.0, 0.9, 0.5);
            assert!((located.id as usize) < 500);
            assert!(located.groups_probed >= 1);
        }
    }

    #[test]
    fn test_a_short_circuits_group_scan() {
        // With p extremely small, almost any value passes Test A, so the
        // very first group should be accepted.
        let (proj, norms) = scenario(400, 6, 4);
        let qp = build(&proj, &norms, 6);
        let pq: Vec<f32> = vec![2.0; 6];
        let loc = qp.locate(&pq, 1.0, 0.9, 1e-9);
        // The first group whose LB > 0 yields Ψ(value) > 1e-9; at worst a
        // handful of zero-LB groups are skipped first.
        assert!(loc.test_a_passed);
        assert!(loc.groups_probed <= qp.num_groups());
    }

    #[test]
    fn fallback_when_p_unreachable() {
        // With p ≈ 1 no value passes Test A; the fallback point (largest
        // recorded value) is returned.
        let (proj, norms) = scenario(100, 4, 5);
        let qp = build(&proj, &norms, 4);
        let pq: Vec<f32> = vec![0.5; 4];
        let loc = qp.locate(&pq, 2.0, 0.9, 1.0 - 1e-12);
        assert!(!loc.test_a_passed);
        assert_eq!(loc.groups_probed, qp.num_groups());
    }

    #[test]
    fn fallback_picks_max_value_point() {
        // Hand-built: two groups, differing in one sign bit.
        // Query strongly positive → group with same code has LB 0, other
        // group has positive LB.
        let proj = vec![
            vec![1.0f32, 1.0],  // code 11, same as query
            vec![-1.0f32, 1.0], // code 10, differs in bit 0
        ];
        let norms = vec![10.0, 10.0];
        let qp = build(&proj, &norms, 2);
        let pq = vec![3.0f32, 3.0];
        let loc = qp.locate(&pq, 1.0, 0.9, 1.0 - 1e-12);
        // Value for group 11 is 0; group 10 has LB = 3/√2 > 0 → fallback
        // must pick point 1.
        assert_eq!(loc.id, 1);
    }

    #[test]
    fn smallest_norm1_member_is_representative() {
        // In a single group the located member must be the min-norm1 one.
        let proj = vec![vec![1.0f32, 2.0], vec![2.0f32, 1.0], vec![0.5f32, 0.5]];
        let norms = vec![9.0, 4.0, 6.0];
        let qp = build(&proj, &norms, 2);
        // All codes are 11 → one group; query with opposite signs gives a
        // positive LB, p tiny → Test A passes on the first (and only) group.
        let pq = vec![-1.0f32, -1.0];
        let loc = qp.locate(&pq, 1.0, 0.9, 1e-9);
        assert_eq!(loc.id, 1, "min ‖o‖₁ member should be chosen");
    }
}
