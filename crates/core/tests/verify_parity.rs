//! Property tests: the SQ8 screen+rescore verification tier must be
//! **bit-identical** to pure-f32 verification — same items (ids *and*
//! inner-product bits), same radii, same termination cause — across page
//! sizes that straddle record and field boundaries (down to one where every
//! code row spans pages), floor mode on and off, a tombstone mask, the
//! shortfall loop, and degenerate or near-boundary queries. Screening may
//! only ever *reduce* the number of exact inner products computed.

use std::sync::Arc;

use promips_core::{ProMips, ProMipsConfig, Query, SearchResult, SearchScratch};
use promips_idistance::IDistanceConfig;
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::Pager;
use proptest::prelude::*;

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

/// Builds the same dataset twice: once with the verification tier, once
/// pure-f32. Everything else — projection seed, clustering, layout — is
/// identical, so any result divergence is the screen's fault.
fn build_pair(data: &Matrix, page_size: usize, seed: u64) -> (ProMips, ProMips) {
    let mk = |verify_quantize: bool| {
        let cfg = ProMipsConfig::builder()
            .c(0.9)
            .p(0.5)
            .seed(seed ^ 0xABCD)
            .page_size(page_size)
            .idistance(IDistanceConfig {
                verify_quantize,
                ..Default::default()
            })
            .build();
        let pager = Arc::new(Pager::in_memory(page_size, (1 << 24) / page_size));
        ProMips::build_with_pager(data, cfg, pager).unwrap()
    };
    let tiered = mk(true);
    let plain = mk(false);
    assert!(tiered.idistance().verify_quantized());
    assert!(!plain.idistance().verify_quantized());
    (tiered, plain)
}

fn assert_bit_identical(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(a.items, b.items, "{what}: items diverged");
    assert_eq!(a.termination, b.termination, "{what}: termination diverged");
    assert_eq!(a.probe_radius, b.probe_radius, "{what}: probe radius");
    assert_eq!(a.final_radius, b.final_radius, "{what}: final radius");
    assert_eq!(a.compensated, b.compensated, "{what}: compensation flag");
    assert!(
        a.verified <= b.verified,
        "{what}: screen must never verify more ({} > {})",
        a.verified,
        b.verified
    );
    assert_eq!(b.screened, 0, "{what}: pure-f32 path must not screen");
    assert_eq!(
        a.screened + a.verified,
        b.screened + b.verified,
        "{what}: every candidate is either screened or verified"
    );
}

/// Case count for the random parity sweep: the default keeps `cargo test`
/// quick; the CI stress job sets `PROMIPS_STRESS=1` to sweep much wider.
fn parity_cases() -> u32 {
    if std::env::var("PROMIPS_STRESS").as_deref() == Ok("1") {
        64
    } else {
        8
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(parity_cases()))]

    /// Random datasets and queries across the page sizes that exercise
    /// clean alignment (4096), tiny pages (64), and sizes that are not
    /// multiples of 4 (70, 130) so code rows and f32 rows straddle page
    /// boundaries mid-field. k sweeps from 1 to n (the latter forces the
    /// shortfall loop and exhaustive verification).
    #[test]
    fn screen_rescore_is_bit_identical(
        n in 120usize..320,
        d in 6usize..20,
        ps_pick in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let page_size = [4096usize, 64, 70, 130][ps_pick];
        let data = random_data(n, d, seed);
        let (tiered, plain) = build_pair(&data, page_size, seed);
        let mut sa = SearchScratch::new();
        let mut sb = SearchScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);
        for (qi, k) in [1usize, 5, 16, n].into_iter().enumerate() {
            let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            let a = tiered.search_with_scratch(&q, k, &mut sa).unwrap();
            let b = plain.search_with_scratch(&q, k, &mut sb).unwrap();
            assert_bit_identical(&a, &b, &format!("query {qi}, k={k}"));

            // Floor mode: screen against an externally verified k-th best.
            // A floor taken from the plain result's own items sits exactly
            // on the screen threshold — the nastiest near-boundary case.
            if let Some(mid) = b.items.get(b.items.len() / 2) {
                let floored = || Query {
                    floor: mid.ip,
                    ..Query::new(&q, k)
                };
                let fa = tiered.execute(floored(), &mut sa).unwrap();
                let fb = plain.execute(floored(), &mut sb).unwrap();
                assert_bit_identical(&fa, &fb, &format!("floored query {qi}, k={k}"));
            }
        }
    }
}

/// Deterministic near-boundary and degenerate queries: data rows
/// themselves (their own inner product is exactly the k-th best — the
/// screen threshold lands *on* a candidate), scaled rows, the zero query
/// (degenerate symmetric quantizer), and a constant query.
#[test]
fn boundary_queries_are_bit_identical() {
    let d = 16;
    let data = random_data(500, d, 404);
    let (tiered, plain) = build_pair(&data, 4096, 404);
    let mut sa = SearchScratch::new();
    let mut sb = SearchScratch::new();

    let mut queries: Vec<Vec<f32>> = Vec::new();
    for i in [0usize, 13, 255, 499] {
        queries.push(data.row(i).to_vec());
        queries.push(data.row(i).iter().map(|x| x * 1000.0).collect());
        queries.push(data.row(i).iter().map(|x| x * 1e-6).collect());
    }
    queries.push(vec![0.0; d]);
    queries.push(vec![1.0; d]);

    let mut total_screened = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        for k in [1usize, 3, 10] {
            let a = tiered.search_with_scratch(q, k, &mut sa).unwrap();
            let b = plain.search_with_scratch(q, k, &mut sb).unwrap();
            assert_bit_identical(&a, &b, &format!("boundary query {qi}, k={k}"));
            total_screened += a.screened;
        }
    }
    assert!(
        total_screened > 0,
        "the screen never fired — the tier is inert"
    );
}

/// Rows longer than a page (d = 70 on 64-byte pages): every code row's
/// integer dot is a sum of per-page partial dots and every survivor's f32
/// row is decoded across five pages — with a tombstone mask on top, whose
/// dead candidates sit inside screened and rescored blocks alike. Tier on
/// must equal tier off item for item.
#[test]
fn rows_spanning_pages_under_a_mask_are_bit_identical() {
    let (n, d) = (300usize, 70usize);
    let dead = |id: u64| id % 5 == 2;
    let dead_count = (0..n as u64).filter(|&id| dead(id)).count();
    let mut screened = 0;
    for seed in [5u64, 6, 7] {
        let data = random_data(n, d, seed);
        let (tiered, plain) = build_pair(&data, 64, seed);
        let mut sa = SearchScratch::new();
        let mut sb = SearchScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);
        for k in [1usize, 5, 16, n - dead_count] {
            let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            for mask in [None, Some((&dead as &dyn Fn(u64) -> bool, dead_count))] {
                let request = || Query {
                    mask,
                    ..Query::new(&q, k)
                };
                let a = tiered.execute(request(), &mut sa).unwrap();
                let b = plain.execute(request(), &mut sb).unwrap();
                let what = format!("seed {seed}, k={k}, masked={}", mask.is_some());
                assert_eq!(a.items, b.items, "{what}: items diverged");
                assert_eq!(a.termination, b.termination, "{what}: termination");
                assert_eq!(a.final_radius, b.final_radius, "{what}: final radius");
                assert!(a.verified <= b.verified, "{what}: screen verified more");
                assert!(a.items.iter().all(|it| mask.is_none() || !dead(it.id)));
                screened += a.screened;
            }
        }
    }
    assert!(screened > 0, "the screen never fired — the tier is inert");
}

/// The shortfall loop (fewer than k candidates inside the probe radius)
/// must stay pure-f32 and bit-identical: while the heap is short the
/// running k-th is −∞, so screening is provably inert there.
#[test]
fn shortfall_loop_is_bit_identical() {
    let d = 12;
    // Tiny dataset + large k: the range pass almost never finds k
    // candidates, so the shortfall loop runs on most queries.
    let data = random_data(60, d, 77);
    let (tiered, plain) = build_pair(&data, 64, 77);
    let mut sa = SearchScratch::new();
    let mut sb = SearchScratch::new();
    let mut rng = Xoshiro256pp::seed_from_u64(78);
    for _ in 0..20 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        for k in [25usize, 50, 60] {
            let a = tiered.search_with_scratch(&q, k, &mut sa).unwrap();
            let b = plain.search_with_scratch(&q, k, &mut sb).unwrap();
            assert_bit_identical(&a, &b, &format!("shortfall k={k}"));
        }
    }
}

/// Batch search must equal sequential search item-for-item with the tier
/// on (each worker screens independently with its own scratch).
#[test]
fn batched_screened_search_matches_sequential() {
    let d = 14;
    let data = random_data(400, d, 91);
    let (tiered, _) = build_pair(&data, 4096, 91);
    let mut rng = Xoshiro256pp::seed_from_u64(92);
    let queries: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect();
    let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
    let batch = tiered.search_batch_threaded(&refs, 7, 4).unwrap();
    let mut scratch = SearchScratch::new();
    for (q, got) in refs.iter().zip(&batch) {
        let want = tiered.search_with_scratch(q, 7, &mut scratch).unwrap();
        assert_eq!(got.items, want.items);
        assert_eq!(got.verified, want.verified);
        assert_eq!(got.screened, want.screened);
    }
}
