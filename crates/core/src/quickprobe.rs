//! Quick-Probe (paper Section V, Algorithm 2).
//!
//! Goal: pick the searching radius for MIP-Search-II **without** the
//! incremental NN search of Algorithm 1. During pre-processing the projected
//! points are grouped by their sign binary codes. At query time:
//!
//! 1. every group gets a lower bound `LB` on the projected distance between
//!    any member and the query (Theorem 3);
//! 2. groups are visited in ascending `LB`; in each group, the member with
//!    the smallest `‖o‖₁` maximizes `LB² / (c·(‖o‖₁+‖q‖₁)²)` — a lower bound
//!    of `dis²(P(o),P(q)) / (c·dis²(o,q))` (Theorems 3 + 4);
//! 3. **Test A** (`TestA`): if `Ψm` of that value reaches `p`, the member
//!    is returned immediately; otherwise the best value seen so far is
//!    remembered and the scan continues. If no group passes, the
//!    best-recorded member is returned.
//!
//! The located point's *actual* projected distance to the query becomes the
//! range-search radius.
//!
//! # One representative per group
//!
//! The paper keeps every group's members sorted by `‖o‖₁` so that its own
//! updates can advance to the next member when the smallest one is deleted.
//! A [`crate::ProMips`] handle is immutable — deletes reach a query as the
//! request's tombstone mask, which Quick-Probe does not consult (the probe
//! only says where the range search starts; Condition B and the
//! compensation radius, not the probe, carry the guarantee) — so step 2
//! only ever reads a group's *first* member. The directory therefore holds
//! that one representative per non-empty code: its code, `‖o‖₁`, id and `m`
//! projected floats, copied from the row the index build writes to the
//! projected region. At most `2^m` entries whatever `n` is, and the radius
//! is arithmetic on memory the handle already holds: no page is read.

use std::collections::BTreeMap;
use std::io;
use std::sync::OnceLock;

use promips_idistance::layout::enc::{put_f32s, put_f64, put_u32, put_u64, Reader};
use promips_stats::chi2_cdf;

use crate::binary::{code_of, theorem3_lower_bound, BinaryCode};

/// A non-empty code group's representative: the member smallest under
/// `(‖o‖₁, id)`.
#[derive(Debug, Clone)]
struct Representative {
    code: BinaryCode,
    norm1: f64,
    id: u64,
}

/// The Quick-Probe directory (built once per index).
#[derive(Debug, Clone)]
pub struct QuickProbe {
    m: usize,
    /// Ascending by code.
    groups: Vec<Representative>,
    /// `groups[i]`'s projected vector at `[i·m, (i+1)·m)`.
    projected: Vec<f32>,
    /// Test A's bracket for the first `p` [`Self::locate`] was called with.
    test_a: OnceLock<TestA>,
}

/// Test A, `chi2_cdf(m, x) >= p`: every `x` below `lo` fails, every
/// finite `x` from `hi` on passes, and `chi2_cdf` decides the rest. The
/// ends are a bisection on `chi2_cdf` itself to `2⁻⁴⁰` relative, widened by
/// 10⁻⁶ relative — exact while `chi2_cdf`'s rounding (`~1e-15`) stays far
/// below the margin's (`bracket_is_chi2_cdf`, m = 1..=40).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TestA {
    m: u32,
    p: f64,
    lo: f64,
    hi: f64,
}

impl TestA {
    /// From `Ψm(0) = 0 < p`, doubles up to a passing end and bisects.
    pub(crate) fn new(m: u32, p: f64) -> Self {
        let passes = |x: f64| chi2_cdf(m, x) >= p;
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        if p > 0.0 {
            (lo, hi) = (0.0, m as f64);
            while !passes(hi) && hi < f64::INFINITY {
                (lo, hi) = (hi, 2.0 * hi);
            }
            while hi - lo > hi * 2f64.powi(-40) {
                let mid = 0.5 * (lo + hi);
                *(if passes(mid) { &mut hi } else { &mut lo }) = mid;
            }
            (lo, hi) = (lo * (1.0 - 1e-6), hi * (1.0 + 1e-6));
        }
        Self { m, p, lo, hi }
    }

    /// `chi2_cdf(m, x) >= p`.
    #[inline]
    pub(crate) fn passes(&self, x: f64) -> bool {
        if x < self.lo {
            return false;
        }
        (self.hi..=f64::MAX).contains(&x) || chi2_cdf(self.m, x) >= self.p
    }
}

/// Outcome of a Quick-Probe location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Located<'a> {
    /// Id of the located point.
    pub id: u64,
    /// Whether Test A was satisfied (`false` → fallback best-value point).
    pub test_a_passed: bool,
    /// Number of groups inspected before returning.
    pub groups_probed: usize,
    /// The located point's projected vector, as the index stores it.
    pub projected: &'a [f32],
}

/// Encoded bytes of one representative: code, `‖o‖₁`, id, `m` floats.
const fn entry_bytes(m: usize) -> usize {
    24 + 4 * m
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
        let mut best: BTreeMap<BinaryCode, (f64, u64, &'a [f32])> = BTreeMap::new();
        for (id, pv) in projected {
            debug_assert_eq!(pv.len(), m);
            let norm1 = norm1_of(id);
            best.entry(code_of(pv))
                .and_modify(|rep| {
                    if norm1.total_cmp(&rep.0).then(id.cmp(&rep.1)).is_lt() {
                        *rep = (norm1, id, pv);
                    }
                })
                .or_insert((norm1, id, pv));
        }
        let mut flat = Vec::with_capacity(best.len() * m);
        let groups = best
            .into_iter()
            .map(|(code, (norm1, id, pv))| {
                flat.extend_from_slice(pv);
                Representative { code, norm1, id }
            })
            .collect();
        Self {
            m,
            groups,
            projected: flat,
            test_a: OnceLock::new(),
        }
    }

    /// The projected dimensionality the directory was built for.
    pub(crate) fn m(&self) -> usize {
        self.m
    }

    /// Number of non-empty code groups (≤ 2^m).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// In-memory footprint in bytes, which is also what
    /// [`QuickProbe::encode`] writes per group.
    pub fn size_bytes(&self) -> usize {
        self.groups.len() * entry_bytes(self.m)
    }

    /// Serializes the directory (for full-index persistence).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.m as u64);
        put_u32(buf, self.groups.len() as u32);
        for (g, pv) in self.groups.iter().zip(self.projected.chunks_exact(self.m)) {
            put_u64(buf, g.code);
            put_f64(buf, g.norm1);
            put_u64(buf, g.id);
            put_f32s(buf, pv);
        }
    }

    /// Deserializes a directory written by [`QuickProbe::encode`], refusing
    /// one whose header and the bytes behind it disagree: `1 ≤ m ≤ 64`,
    /// `1 ≤ groups ≤ 2^m`, every group present in full.
    pub fn decode(r: &mut Reader) -> io::Result<Self> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let m = r.u64()?;
        if !(1..=64).contains(&m) {
            return Err(bad(format!("Quick-Probe m = {m} is not in 1..=64")));
        }
        let m = m as usize;
        // Bounded by the bytes left, since `projected` is reserved from it.
        let n_groups = r.count(entry_bytes(m))?;
        if n_groups == 0 || (m < 32 && n_groups > 1 << m) {
            return Err(bad(format!("{n_groups} Quick-Probe groups, not 1..=2^{m}")));
        }
        let mut projected = Vec::with_capacity(n_groups * m);
        let groups = (0..n_groups)
            .map(|_| {
                let rep = Representative {
                    code: r.u64()?,
                    norm1: r.f64()?,
                    id: r.u64()?,
                };
                projected.extend(r.f32s(m)?);
                Ok(rep)
            })
            .collect::<io::Result<_>>()?;
        Ok(Self {
            m,
            groups,
            projected,
            test_a: OnceLock::new(),
        })
    }

    /// Algorithm 2: locates the point whose projected distance will serve as
    /// the searching range.
    ///
    /// * `pq` — projected query;
    /// * `q_norm1` — `‖q‖₁` of the original query;
    /// * `c`, `p` — approximation ratio and guarantee probability.
    pub fn locate(&self, pq: &[f32], q_norm1: f64, c: f64, p: f64) -> Located<'_> {
        assert_eq!(pq.len(), self.m, "projected query dimension mismatch");
        assert!(!self.groups.is_empty(), "Quick-Probe over an empty index");
        let q_code = code_of(pq);
        let q_abs: [f64; 64] = std::array::from_fn(|i| pq.get(i).map_or(0.0, |v| v.abs() as f64));
        let q_abs = &q_abs[..self.m];
        let cached = self.test_a.get_or_init(|| TestA::new(self.m as u32, p));
        let fresh = (cached.p.to_bits() != p.to_bits()).then(|| TestA::new(self.m as u32, p));
        let test_a = fresh.as_ref().unwrap_or(cached);

        // Group lower bounds (2^m·(m+1) work — the term the optimized m
        // balances against group size), visited in ascending `(LB, index)`.
        let n = self.groups.len();
        let lb = |g: &Representative| theorem3_lower_bound(g.code, q_code, q_abs);
        let at = |gi: usize| (lb(&self.groups[gi]), gi);
        let before = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let value = |(lb, gi): (f64, usize)| {
            let denom = c * (self.groups[gi].norm1 + q_norm1).powi(2);
            if denom > 0.0 {
                (lb * lb) / denom
            } else {
                0.0
            }
        };
        let located = |gi: usize, test_a_passed, groups_probed| Located {
            id: self.groups[gi].id,
            test_a_passed,
            groups_probed,
            projected: &self.projected[gi * self.m..][..self.m],
        };
        let passed = (0..n).map(at).filter(|&g| test_a.passes(value(g)));
        if let Some(first) = passed.min_by(before) {
            let earlier = (0..n).map(at).filter(|g| before(g, &first).is_lt());
            return located(first.1, true, earlier.count() + 1);
        }
        // None passes: the last visited of the largest value, else the first.
        let valued = (0..n).map(at).map(|g| (value(g), g));
        let valued = valued.filter(|v| !v.0.is_nan());
        let best = valued.max_by(|a, b| a.0.total_cmp(&b.0).then(before(&a.1, &b.1)));
        let fallback = best.map_or_else(|| (0..n).map(at).min_by(before), |v| Some(v.1));
        located(fallback.expect("groups are not empty").1, false, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_linalg::norm1 as l1;
    use promips_stats::Xoshiro256pp;
    use proptest::prelude::*;

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

    /// The directory as the paper keeps it — every member of every group,
    /// each group sorted by `(‖o‖₁, id)`, groups by code — and Algorithm 2
    /// reading it: the reference the one-representative directory is held
    /// to.
    struct SortedMembers(Vec<(BinaryCode, Vec<(f64, u64)>)>);

    impl SortedMembers {
        fn build(proj: &[Vec<f32>], norms: &[f64]) -> Self {
            let mut map: BTreeMap<BinaryCode, Vec<(f64, u64)>> = BTreeMap::new();
            for (id, pv) in proj.iter().enumerate() {
                map.entry(code_of(pv))
                    .or_default()
                    .push((norms[id], id as u64));
            }
            let mut groups: Vec<_> = map.into_iter().collect();
            for (_, members) in &mut groups {
                members.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            Self(groups)
        }

        /// `(id, test_a_passed, groups_probed)`.
        fn locate(&self, pq: &[f32], q_norm1: f64, c: f64, p: f64) -> (u64, bool, usize) {
            let q_code = code_of(pq);
            let q_abs: Vec<f64> = pq.iter().map(|&v| v.abs() as f64).collect();
            let mut order: Vec<(f64, usize)> = (self.0.iter().enumerate())
                .map(|(gi, g)| (theorem3_lower_bound(g.0, q_code, &q_abs), gi))
                .collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut best = (f64::NEG_INFINITY, self.0[order[0].1].1[0].1);
            for (probed, &(lb, gi)) in order.iter().enumerate() {
                let (norm1, id) = self.0[gi].1[0];
                let denom = c * (norm1 + q_norm1).powi(2);
                let value = if denom > 0.0 { (lb * lb) / denom } else { 0.0 };
                if chi2_cdf(pq.len() as u32, value) >= p {
                    return (id, true, probed + 1);
                }
                if value >= best.0 {
                    best = (value, id);
                }
            }
            (best.1, false, order.len())
        }
    }

    #[test]
    fn groups_cover_all_points() {
        let (proj, norms) = scenario(300, 5, 1);
        let qp = build(&proj, &norms, 5);
        assert!(qp.num_groups() <= 32);
        assert!(qp.groups.windows(2).all(|w| w[0].code < w[1].code));
        for pv in &proj {
            let code = code_of(pv);
            assert!(qp.groups.iter().any(|g| g.code == code));
        }
    }

    /// Each group's representative is the head of its members sorted by
    /// `‖o‖₁`, and carries that point's projected row.
    #[test]
    fn members_sorted_by_norm1() {
        let (proj, norms) = scenario(200, 4, 2);
        let qp = build(&proj, &norms, 4);
        let sorted = SortedMembers::build(&proj, &norms);
        assert_eq!(qp.num_groups(), sorted.0.len());
        for ((g, pv), (code, members)) in
            qp.groups.iter().zip(qp.projected.chunks(4)).zip(&sorted.0)
        {
            assert_eq!((g.code, g.norm1, g.id), (*code, members[0].0, members[0].1));
            assert_eq!(pv, proj[g.id as usize].as_slice());
        }
    }

    proptest! {
        /// `locate` over one representative per group is `locate` over the
        /// sorted member lists: duplicate `‖o‖₁` values throughout, and by
        /// `shape` one group, all 2^m groups, fewer points than codes.
        #[test]
        fn locate_matches_the_sorted_members_reference(
            shape in 0u32..4,
            m in 1usize..7,
            rows in proptest::collection::vec(
                (proptest::collection::vec(-2.0f32..2.0, 6..7), 0u32..4),
                1..48,
            ),
            pq in proptest::collection::vec(-3.0f32..3.0, 6..7),
            q_norm1 in 0.0f64..8.0,
            c in 0.5f64..1.0,
            p in 0.0f64..1.0,
        ) {
            let m = match shape {
                1 => m.min(3),
                2 => 6,
                _ => m,
            };
            let mut proj: Vec<Vec<f32>> = rows.iter().map(|(v, _)| v[..m].to_vec()).collect();
            let mut norms: Vec<f64> = rows.iter().map(|&(_, n1)| n1 as f64).collect();
            match shape {
                0 => proj.iter_mut().flatten().for_each(|x| *x = x.abs()),
                1 => for code in 0..1u32 << m {
                    proj.push((0..m).map(|i| if code >> i & 1 == 1 { 1.0 } else { -1.0 }).collect());
                    norms.push((code % 3) as f64);
                },
                _ => {}
            }
            let qp = build(&proj, &norms, m);
            match shape {
                0 => prop_assert_eq!(qp.num_groups(), 1),
                1 => prop_assert_eq!(qp.num_groups(), 1 << m),
                2 => prop_assert!(proj.len() < 1 << m),
                _ => {}
            }
            let mut bytes = Vec::new();
            qp.encode(&mut bytes);
            prop_assert_eq!(bytes.len(), 12 + qp.size_bytes());
            let reopened = QuickProbe::decode(&mut Reader::new(&bytes)).unwrap();

            let want = SortedMembers::build(&proj, &norms).locate(&pq[..m], q_norm1, c, p);
            for qp in [&qp, &reopened] {
                let got = qp.locate(&pq[..m], q_norm1, c, p);
                prop_assert_eq!((got.id, got.test_a_passed, got.groups_probed), want);
                prop_assert_eq!(got.projected, proj[got.id as usize].as_slice());
            }
        }
    }

    /// The bracketed Test A is `chi2_cdf(m, x) >= p`: at m = 1..=40 and the
    /// `p`s a config takes, for `x` on a log grid from 1e-6 to 1e6, at
    /// every 1e-8 relative step within ±1e-7 of the crossing (inside the
    /// bracket, `chi2_cdf`'s to decide) and every 1e-7 step on to ±3e-6
    /// (across the bracket's ends, where comparisons take over), and one
    /// ulp either side of each end.
    #[test]
    fn bracket_is_chi2_cdf() {
        for m in 1..=40u32 {
            for p in [0.1, 0.5, 0.9, 0.99] {
                let test_a = TestA::new(m, p);
                let crossing = promips_stats::chi2_inv_cdf(m, p);
                let grid = (-600..=600).map(|e| 10f64.powf(e as f64 / 100.0));
                let near = (-10..=10).map(|t| crossing * (1.0 + t as f64 * 1e-8));
                let across = (-30..=30).map(|t| crossing * (1.0 + t as f64 * 1e-7));
                let ends = [test_a.lo, test_a.hi].map(|x| [x.next_down(), x, x.next_up()]);
                for x in grid
                    .chain(near)
                    .chain(across)
                    .chain(ends.into_iter().flatten())
                {
                    assert_eq!(test_a.passes(x), chi2_cdf(m, x) >= p, "m {m} p {p} x {x}");
                }
            }
        }
        // No finite value reaches p ≥ 1; p ≤ 0 passes every value.
        assert!(!TestA::new(4, 1.5).passes(1e300));
        assert!(TestA::new(4, 0.0).passes(0.0));
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
