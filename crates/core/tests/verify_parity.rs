//! The verification tier's contract, stated for the two paths a tiered
//! index can answer a query by (`promips_core::search` module docs):
//!
//! * **column path** (`termination == DatasetExhausted`): the items are the
//!   exact oracle's — the top-k over live rows, ids *and*
//!   `ip == linalg::dot(row, q)` to the bit, ties to the smaller id;
//! * **annulus path** (anything else): the SQ8 screen+rescore must be
//!   **bit-identical** to pure-f32 verification — same items (ids *and*
//!   inner-product bits, each `linalg::dot(row, q)`), same radii, same
//!   termination cause — and screening may only ever *reduce* the number
//!   of exact inner products computed.
//!
//! Both hold across page sizes that straddle record and field boundaries
//! (down to one where every code row spans pages), a tombstone mask, the
//! shortfall loop, and degenerate or near-boundary queries. The path is the index's own choice per query, so every test
//! counts the queries it saw on each side and fails if either half of the
//! contract went unexercised.

mod common;

use std::sync::Arc;

use common::{clustered, oracle, random_data, short, without_head};

use promips_core::result::Termination;
use promips_core::{ProMips, ProMipsConfig, Query, SearchResult, SearchScratch};
use promips_idistance::IDistanceConfig;
use promips_linalg::{dot, Matrix};
use promips_stats::Xoshiro256pp;
use promips_storage::Pager;

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

/// `masked`: the request carried a tombstone mask. A dead row the screen
/// rules out counts as screened but would not have counted as verified, so
/// the screened + verified balance holds only without one.
fn assert_bit_identical(a: &SearchResult, b: &SearchResult, masked: bool, what: &str) {
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
    if !masked {
        assert_eq!(
            a.screened + a.verified,
            b.screened + b.verified,
            "{what}: every candidate is either screened or verified"
        );
    }
}

/// Queries seen on each side of the index-or-scan rule.
#[derive(Default)]
struct Sides {
    column: usize,
    annulus: usize,
}

impl Sides {
    /// Holds the tiered result `a` of `request` to its path's half of the
    /// contract (`b` is the pure-f32 twin's result of the same request).
    fn check(
        &mut self,
        data: &Matrix,
        request: &Query<'_>,
        a: &SearchResult,
        b: &SearchResult,
        what: &str,
    ) {
        if a.termination != Termination::DatasetExhausted {
            self.annulus += 1;
            for it in &a.items {
                let want = dot(data.row(it.id as usize), request.q);
                assert_eq!(it.ip.to_bits(), want.to_bits(), "{what}: id {}", it.id);
            }
            return assert_bit_identical(a, b, request.mask.is_some(), what);
        }
        self.column += 1;
        let dead = request.mask.map(|(dead, _)| dead);
        let want = oracle(data, request.q, request.k, dead);
        let got: Vec<(u64, f64)> = a.items.iter().map(|it| (it.id, it.ip)).collect();
        assert_eq!(got, want, "{what}: column pass is not the exact top-k");
        assert_eq!(a.probe_radius, b.probe_radius, "{what}: probe radius");
        assert_eq!(
            a.final_radius, None,
            "{what}: no radius bounds a column pass"
        );
        assert!(!a.compensated, "{what}: a column pass never compensates");
    }

    fn assert_both(&self, what: &str) {
        assert!(
            self.column > 0 && self.annulus > 0,
            "{what}: {} column-path and {} annulus-path queries — one half of the \
             contract went untested",
            self.column,
            self.annulus
        );
    }
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

/// Random datasets and queries across the page sizes that exercise clean
/// alignment (4096), tiny pages (64), and sizes that are not multiples of
/// 4 (70, 130) so code rows and f32 rows straddle page boundaries
/// mid-field. k sweeps from 1 to n (the latter forces exhaustive
/// verification, and the shortfall loop on the annulus path). Every other
/// dataset is Gaussian (unit-length queries cover most of it: the column
/// pass), the rest clustered (they cover little: the annulus path). A
/// seeded loop rather than a `proptest!` so the both-sides check can close
/// it.
#[test]
fn screen_rescore_is_bit_identical() {
    let mut cases = Xoshiro256pp::seed_from_u64(0x5C2EE);
    let mut sides = Sides::default();
    for case in 0..parity_cases() {
        let clusters = 6 + cases.below(10) as usize;
        let n = clusters * (20 + cases.below(14) as usize);
        let d = 6 + cases.below(14) as usize;
        let page_size = [4096usize, 64, 70, 130][cases.below(4) as usize];
        let seed = cases.below(1_000);
        let data = if case % 2 == 0 {
            random_data(n, d, seed)
        } else {
            clustered(clusters, n / clusters, d, seed)
        };
        let (tiered, plain) = build_pair(&data, page_size, seed);
        let mut sa = SearchScratch::new();
        let mut sb = SearchScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);
        for (qi, k) in [1usize, 5, 16, n].into_iter().enumerate() {
            let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            let a = tiered.search_with_scratch(&q, k, &mut sa).unwrap();
            let b = plain.search_with_scratch(&q, k, &mut sb).unwrap();
            let what = format!("n={n} d={d} ps={page_size} seed={seed}, query {qi}, k={k}");
            sides.check(&data, &Query::new(&q, k), &a, &b, &what);
        }
    }
    sides.assert_both("random sweep");
}

/// Deterministic near-boundary and degenerate queries: data rows
/// themselves (their own inner product is exactly the k-th best — the
/// screen threshold lands *on* a candidate), scaled rows, the zero query
/// (degenerate symmetric quantizer), and a constant query — over clustered
/// rows, where the rows of the far clusters are long queries (column pass)
/// and everything scaled down is a short one (annulus path).
#[test]
fn boundary_queries_are_bit_identical() {
    let d = 16;
    let data = clustered(10, 50, d, 404);
    let (tiered, plain) = build_pair(&data, 4096, 404);
    let mut sa = SearchScratch::new();
    let mut sb = SearchScratch::new();

    let mut queries: Vec<Vec<f32>> = Vec::new();
    for i in [0usize, 13, 255, 499] {
        queries.push(data.row(i).to_vec());
        queries.push(short(data.row(i)));
        queries.push(data.row(i).iter().map(|x| x * 1000.0).collect());
        queries.push(data.row(i).iter().map(|x| x * 1e-6).collect());
    }
    queries.push(vec![0.0; d]);
    queries.push(vec![1.0; d]);

    let mut sides = Sides::default();
    let mut total_screened = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        for k in [1usize, 3, 10] {
            let a = tiered.search_with_scratch(q, k, &mut sa).unwrap();
            let b = plain.search_with_scratch(q, k, &mut sb).unwrap();
            let what = format!("boundary query {qi}, k={k}");
            sides.check(&data, &Query::new(q, k), &a, &b, &what);
            total_screened += a.screened;
        }
    }
    sides.assert_both("boundary queries");
    assert!(
        total_screened > 0,
        "the screen never fired — the tier is inert"
    );
}

/// Rows longer than a page (d = 70 on 64-byte pages): every code row's
/// integer dot is a sum of per-page partial dots and every survivor's f32
/// row is decoded across five pages — with a tombstone mask on top, whose
/// dead candidates are screened out or skipped by id alike on both paths.
#[test]
fn rows_spanning_pages_under_a_mask_are_bit_identical() {
    let (n, d) = (300usize, 70usize);
    let dead = |id: u64| id % 5 == 2;
    let dead_count = (0..n as u64).filter(|&id| dead(id)).count();
    let mut sides = Sides::default();
    let mut screened = 0;
    for seed in [5u64, 6, 7] {
        let data = clustered(10, n / 10, d, seed);
        let (tiered, plain) = build_pair(&data, 64, seed);
        let mut sa = SearchScratch::new();
        let mut sb = SearchScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);
        for (qi, k) in [1usize, 5, 16, n - dead_count].into_iter().enumerate() {
            // Unit length (annulus path), or beside a far cluster's row.
            let mut q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
            if qi % 2 == 1 {
                let row = data.row(2 + rng.below(8) as usize);
                q.iter_mut().zip(row).for_each(|(x, r)| *x += r);
            }
            for mask in [None, Some((&dead as &dyn Fn(u64) -> bool, dead_count))] {
                let request = || Query {
                    mask,
                    ..Query::new(&q, k)
                };
                let a = tiered.execute(request(), &mut sa).unwrap();
                let b = plain.execute(request(), &mut sb).unwrap();
                let what = format!("seed {seed}, k={k}, masked={}", mask.is_some());
                sides.check(&data, &request(), &a, &b, &what);
                assert!(a.items.iter().all(|it| mask.is_none() || !dead(it.id)));
                screened += a.screened;
            }
        }
    }
    sides.assert_both("rows spanning pages");
    assert!(screened > 0, "the screen never fired — the tier is inert");
}

/// The shortfall loop (fewer than k candidates inside the probe radius)
/// must stay pure-f32 and bit-identical: while the heap is short the
/// running k-th is −∞, so screening is provably inert there. (A ball that
/// covers most of this tiny index takes the column path instead, where
/// `k` close to `n` means nearly every row is scored.)
#[test]
fn shortfall_loop_is_bit_identical() {
    let d = 12;
    // Tiny dataset + large k: the range pass almost never finds k
    // candidates, so the shortfall loop runs on most annulus-path queries.
    let data = clustered(6, 10, d, 77);
    let (tiered, plain) = build_pair(&data, 64, 77);
    let mut sa = SearchScratch::new();
    let mut sb = SearchScratch::new();
    let mut rng = Xoshiro256pp::seed_from_u64(78);
    let mut sides = Sides::default();
    for _ in 0..20 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        for k in [25usize, 50, 60] {
            let a = tiered.search_with_scratch(&q, k, &mut sa).unwrap();
            let b = plain.search_with_scratch(&q, k, &mut sb).unwrap();
            sides.check(
                &data,
                &Query::new(&q, k),
                &a,
                &b,
                &format!("shortfall k={k}"),
            );
        }
    }
    sides.assert_both("shortfall");
}

/// Head codes: clustered rows in 160 dimensions span 12 of them (plus a
/// little noise), so the tiered index screens on 64-byte heads `Vo` — on
/// 4 KB pages, which they fill exactly, and on 100-byte pages, where two in
/// three straddle. Unit-length queries stay on the annulus path (bit
/// identical to the pure-f32 twin), queries beside a far cluster's row take
/// the column pass (the exact oracle) — and so must the two queries a head
/// bound could get wrong: one with no component inside the head's span,
/// whose every inner product comes from the tails, and the zero query.
#[test]
fn head_codes_keep_both_paths_contracts() {
    let (clusters, per, d) = (12usize, 50usize, 160usize);
    let mut sides = Sides::default();
    let mut screened = 0;
    for (seed, page_size) in [(31u64, 4096usize), (32, 100)] {
        let data = clustered(clusters, per, d, seed);
        let (tiered, plain) = build_pair(&data, page_size, seed);
        let basis = tiered.idistance().head().expect("rank-12 rows get a head");
        assert_eq!(tiered.idistance().code_width(), 64);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);
        let mut gaussian = || -> Vec<f32> { (0..d).map(|_| rng.normal() as f32).collect() };

        let mut queries: Vec<Vec<f32>> = (0..6).map(|_| gaussian()).collect();
        for c in 2..8 {
            let mut q = gaussian();
            q.iter_mut().zip(data.row(c)).for_each(|(x, r)| *x += r);
            queries.push(q);
        }
        let tail_only = without_head(basis, &gaussian());
        queries.push(tail_only.iter().map(|x| 200.0 * x).collect());
        queries.push(tail_only);
        queries.push(vec![0.0; d]);

        let mut sa = SearchScratch::new();
        let mut sb = SearchScratch::new();
        for (qi, q) in queries.iter().enumerate() {
            for k in [1usize, 10] {
                let a = tiered.search_with_scratch(q, k, &mut sa).unwrap();
                let b = plain.search_with_scratch(q, k, &mut sb).unwrap();
                let what = format!("ps={page_size}, query {qi}, k={k}");
                sides.check(&data, &Query::new(q, k), &a, &b, &what);
                screened += a.screened;
            }
        }
    }
    sides.assert_both("head codes");
    assert!(screened > 0, "the screen never fired — the tier is inert");
}

/// Concurrent queries on one tiered index must equal sequential search
/// item for item, at 1, 2 and 8 threads (each worker screens independently
/// with its own scratch).
#[test]
fn batched_screened_search_matches_sequential() {
    let d = 14;
    let data = random_data(400, d, 91);
    let (tiered, _) = build_pair(&data, 4096, 91);
    let mut rng = Xoshiro256pp::seed_from_u64(92);
    let queries: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect();
    let want: Vec<SearchResult> = queries
        .iter()
        .map(|q| tiered.search(q, 7).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        std::thread::scope(|s| {
            for w in 0..threads {
                let (tiered, queries, want) = (&tiered, &queries, &want);
                s.spawn(move || {
                    let mut scratch = SearchScratch::new();
                    for i in (w..queries.len()).step_by(threads) {
                        let got = tiered.execute(Query::new(&queries[i], 7), &mut scratch);
                        assert_eq!(got.unwrap(), want[i], "threads={threads}, query {i}");
                    }
                });
            }
        });
    }
}
