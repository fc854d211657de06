//! Property tests: the arena-based projected scan must agree exactly with
//! an independent decode of the packed record bytes, and the range scan —
//! the directory's key range and the sphere filter in front of the decode
//! — with a decode of every sub-partition, across page sizes that force
//! records — and individual ids/floats — to straddle page boundaries.

use std::sync::Arc;

use promips_idistance::layout::{enc, read_blob_range};
use promips_idistance::{
    build_index, HeadBasis, IDistanceConfig, IDistanceIndex, ProjScratch, RangeCandidate,
};
use promips_linalg::{dist, Matrix};
use promips_stats::Xoshiro256pp;
use promips_storage::Pager;
use proptest::prelude::*;

/// Projected dimensions the scan-parity properties sweep: the small cases
/// the page-straddle tests always used, the paper's settings (6–10), the
/// last short-kernel length (16) and the first long one (17).
const M_SHAPES: [usize; 10] = [2, 3, 4, 5, 6, 7, 8, 10, 16, 17];

fn random_matrix(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

fn build(n: usize, m: usize, page_size: usize, seed: u64) -> IDistanceIndex {
    let proj = random_matrix(n, m, seed);
    let orig = random_matrix(n, 6, seed ^ 0xFF);
    let pager = Arc::new(Pager::in_memory(page_size, 1 << 16));
    let cfg = IDistanceConfig {
        kp: 3,
        nkey: 6,
        ksp: 2,
        ..Default::default()
    };
    build_index(
        pager,
        &proj,
        &orig,
        &cfg,
        HeadBasis::estimate(&orig, cfg.seed),
    )
    .unwrap()
}

/// The annulus `r_lo < proj_dist ≤ r_hi` by whole-sub-partition decodes:
/// every sub-partition in directory order through the public arena decode
/// and the column kernel behind [`ProjScratch::for_each_dist`], with no
/// key range and no sphere filter in front.
fn f32_annulus(idx: &IDistanceIndex, pq: &[f32], r_lo: f64, r_hi: f64) -> Vec<RangeCandidate> {
    let mut scratch = ProjScratch::new();
    let mut out = Vec::new();
    for sub in 0..idx.subparts().len() as u32 {
        idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
        scratch.for_each_dist(pq, |offset, id, pd| {
            if pd > r_lo && pd <= r_hi {
                out.push(RangeCandidate {
                    id,
                    proj_dist: pd,
                    subpart: sub,
                    offset: offset as u32,
                });
            }
        });
    }
    out
}

/// The legacy decode the arena path replaced: one whole-blob read, then
/// per-record `enc` parsing. Kept here (not in the library) as the
/// independent reference the arena must match byte-for-byte.
fn legacy_decode(idx: &IDistanceIndex, sub: u32) -> Vec<(u64, Vec<f32>)> {
    let sp = &idx.subparts()[sub as usize];
    let m = idx.proj_dim();
    let rec = 8 + 4 * m;
    let blob = read_blob_range(
        idx.pager(),
        idx.proj_region().0,
        sp.proj_off as usize,
        sp.count as usize * rec,
    )
    .unwrap();
    let mut r = enc::Reader::new(&blob);
    (0..sp.count)
        .map(|_| (r.u64().unwrap(), r.f32s(m).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arena decode == legacy blob decode for every sub-partition, on page
    /// sizes chosen to exercise clean alignment (4096), tiny pages (64),
    /// and sizes that are *not* multiples of 4 (70, 130) so ids and floats
    /// straddle page boundaries mid-field.
    #[test]
    fn arena_decode_matches_legacy_decode(
        n in 40usize..220,
        m in 2usize..7,
        ps_pick in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let page_size = [4096usize, 64, 70, 130][ps_pick];
        let idx = build(n, m, page_size, seed);
        let mut scratch = ProjScratch::new();
        for sub in 0..idx.subparts().len() as u32 {
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            let legacy = legacy_decode(&idx, sub);
            prop_assert_eq!(scratch.len(), legacy.len());
            prop_assert!((0..scratch.len()).all(|i| scratch.row(i).len() == m));
            for (i, (id, row)) in legacy.iter().enumerate() {
                prop_assert_eq!(scratch.id(i), *id, "sub {} record {}", sub, i);
                prop_assert_eq!(scratch.row(i), row.as_slice(), "sub {} record {}", sub, i);
            }
        }
    }

    /// The column-kernel range scan returns exactly the brute-force annulus
    /// over the stored records, including on record-straddling page sizes.
    #[test]
    fn range_scan_matches_brute_force_on_straddling_pages(
        n in 60usize..200,
        m_pick in 0usize..M_SHAPES.len(),
        ps_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let m = M_SHAPES[m_pick];
        let page_size = [70usize, 130, 64][ps_pick];
        let idx = build(n, m, page_size, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xABC);
        let pq: Vec<f32> = (0..m).map(|_| rng.normal() as f32).collect();
        let r_hi = rng.uniform_range(0.5, 3.0);
        let r_lo = if rng.uniform_range(0.0, 1.0) < 0.5 {
            -1.0
        } else {
            r_hi * 0.4
        };

        let mut got: Vec<u64> = idx
            .range_candidates(&pq, r_lo, r_hi)
            .unwrap()
            .into_iter()
            .map(|c| c.id)
            .collect();
        got.sort_unstable();

        let mut expected = Vec::new();
        for sub in 0..idx.subparts().len() as u32 {
            for (id, row) in legacy_decode(&idx, sub) {
                let pd = dist(&row, &pq);
                if pd > r_lo && pd <= r_hi {
                    expected.push(id);
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The range scan must return candidates **bit-identical** to decodes
    /// of every sub-partition ([`f32_annulus`]) — same ids, same offsets,
    /// same `proj_dist` down to the last bit, in the same order: the
    /// directory's key range and the sphere filter may skip only
    /// sub-partitions without a point in the annulus. Checked across page
    /// sizes that force records to straddle page boundaries (70, 130 are
    /// not multiples of 4), for every `m` in [`M_SHAPES`], and across
    /// radius regimes:
    ///
    /// * random radii;
    /// * **adversarial near-boundary radii**: `r_hi` set exactly to a
    ///   stored point's computed distance (the `pd ≤ r_hi` edge) and
    ///   `r_lo` to another's (the strict `pd > r_lo` edge) — the bit
    ///   pattern where a ring or sphere test that rounds the wrong way
    ///   would drop a candidate;
    /// * a far query (scaled ×50) outside every partition sphere.
    #[test]
    fn tree_walk_and_sphere_filter_match_a_decode_of_every_subpart(
        n in 40usize..220,
        m_pick in 0usize..M_SHAPES.len(),
        ps_pick in 0usize..4,
        seed in 0u64..1_000,
        mode in 0usize..3,
    ) {
        let m = M_SHAPES[m_pick];
        let page_size = [4096usize, 64, 70, 130][ps_pick];
        let idx = build(n, m, page_size, seed);

        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xDEAD);
        let mut pq: Vec<f32> = (0..m).map(|_| rng.normal() as f32).collect();
        if mode == 2 {
            for x in &mut pq {
                *x *= 50.0; // far outside every partition sphere
            }
        }

        let (r_lo, r_hi) = if mode == 1 {
            // Exact stored distances as radii: recompute through the same
            // scan the index uses, then query with those very bits.
            let all = idx.range_candidates(&pq, -1.0, f64::INFINITY).unwrap();
            prop_assert!(!all.is_empty());
            let hi = all[rng.below(all.len() as u64) as usize].proj_dist;
            let lo = all[rng.below(all.len() as u64) as usize].proj_dist;
            (lo.min(hi), hi.max(lo))
        } else {
            let hi = rng.uniform_range(0.5, 4.0);
            let lo = if rng.uniform_range(0.0, 1.0) < 0.5 { -1.0 } else { hi * 0.4 };
            (lo, hi)
        };

        let mut scratch = ProjScratch::new();
        let mut got = Vec::new();
        idx
            .range_candidates_into(&pq, r_lo, r_hi, &mut got, &mut scratch)
            .unwrap();
        // RangeCandidate derives PartialEq over (id, proj_dist, subpart,
        // offset); equality here is bit-equality of the f64 distances.
        let want = f32_annulus(&idx, &pq, r_lo, r_hi);
        prop_assert_eq!(got, want, "r_lo={} r_hi={}", r_lo, r_hi);
    }
}

/// One decode arena reused across every sub-partition (and a second full
/// pass) must keep returning the right records — the buffer-reuse contract
/// the batched search path depends on.
#[test]
fn scratch_reuse_across_subparts_is_transparent() {
    let idx = build(300, 5, 70, 99);
    let mut scratch = ProjScratch::new();
    for _pass in 0..2 {
        for sub in 0..idx.subparts().len() as u32 {
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            let legacy = legacy_decode(&idx, sub);
            assert_eq!(scratch.len(), legacy.len());
            for (i, (id, row)) in legacy.iter().enumerate() {
                assert_eq!(scratch.id(i), *id);
                assert_eq!(scratch.row(i), row.as_slice());
            }
        }
    }
}
