//! Steady-state allocation accounting for the **screen+rescore**
//! verification tier, on both paths a tiered index answers by.
//!
//! The tier's buffers (the integer dots of the rows being screened, the i8
//! quantized query) live in `SearchScratch` like the f32 fetch arena, grow
//! once to their high-water mark, and must never allocate again: a warm
//! search performs only the per-*search* constant allocations every search
//! pays (the `TopK` vector growing to `k` items, which is the result) —
//! **zero** allocations per screened or rescored candidate on the annulus
//! path, and zero per row on the column pass.
//!
//! This file holds exactly one test on purpose: the counting allocator is
//! process-global, and a sibling test running in another thread would
//! pollute the counter. (`scan_alloc.rs` / `quant_scan_alloc.rs` in
//! `promips_idistance` are the scan-path twins.)

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use promips_core::{ProMips, ProMipsConfig, Query, SearchScratch};
use promips_idistance::IDistanceConfig;
use promips_stats::Xoshiro256pp;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Warms the scratch on `q`, then returns the allocation count of one
/// further (fully warm) search plus that search's candidate accounting.
fn warm_search_allocs(
    index: &ProMips,
    q: &[f32],
    k: usize,
    scratch: &mut SearchScratch,
) -> (u64, usize, usize) {
    for _ in 0..3 {
        index.execute(Query::new(q, k), scratch).unwrap();
    }
    let before = allocs();
    let res = index.execute(Query::new(q, k), scratch).unwrap();
    (allocs() - before, res.verified, res.screened)
}

#[test]
fn warm_screen_rescore_does_not_allocate_per_candidate() {
    let n = 3_000;
    let d = 24;
    let k = 16;
    let mut rng = Xoshiro256pp::seed_from_u64(63 ^ 0x5EED); // queries
                                                            // Clustered rows: the unit-length query below stays on the annulus path
                                                            // (screen + rescore per group), the one beside a far cluster's row is
                                                            // answered by the column pass — both checked through
                                                            // `SearchResult::final_radius`.
    let data = common::clustered(30, n / 30, d, 63);
    let mk = |verify_quantize: bool| {
        let cfg = ProMipsConfig::builder()
            .c(0.9)
            .p(0.5)
            .seed(17)
            .idistance(IDistanceConfig {
                verify_quantize,
                ..Default::default()
            })
            .build();
        ProMips::build_in_memory(&data, cfg).unwrap()
    };
    let tiered = mk(true);
    let plain = mk(false);
    let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
    // Beside the first far cluster whose ball covers enough of the index.
    let beside = |c: usize| -> Vec<f32> { q.iter().zip(data.row(c)).map(|(x, r)| x + r).collect() };
    let full = (2..30)
        .map(beside)
        .find(|full| tiered.search(full, k).unwrap().final_radius.is_none())
        .expect("some far cluster's query takes the column pass");
    let mut scratch = SearchScratch::new();
    assert!(
        tiered.search(&q, k).unwrap().final_radius.is_some(),
        "the unit-length query must take the annulus path"
    );

    let (tier_allocs, verified, screened) = warm_search_allocs(&tiered, &q, k, &mut scratch);
    assert!(
        screened > 0 && verified > 0,
        "query must exercise both screen and rescore (screened {screened}, \
         verified {verified})"
    );
    // Steady state: a second warm search allocates exactly as much.
    let (again, _, _) = warm_search_allocs(&tiered, &q, k, &mut scratch);
    assert_eq!(
        tier_allocs, again,
        "warm screen+rescore search is not in allocation steady state"
    );
    // The screen machinery itself is allocation-free: with the tier off
    // the same query on the same scratch pays the same per-search
    // constants (the `TopK` vector that becomes the result), nothing more
    // or less.
    let (plain_allocs, plain_verified, _) = warm_search_allocs(&plain, &q, k, &mut scratch);
    assert_eq!(
        tier_allocs, plain_allocs,
        "the verification screen must add zero warm allocations over the \
         pure-f32 path"
    );
    // And the count is a tiny per-search constant, provably not
    // per-candidate: hundreds of candidates flow through the verify path.
    let candidates = (verified + screened).max(plain_verified);
    assert!(
        candidates > 100,
        "workload too small to distinguish per-search from per-candidate \
         ({candidates} candidates)"
    );
    assert!(
        (tier_allocs as usize) * 16 < candidates,
        "{tier_allocs} warm allocations against {candidates} candidates — \
         the verify path is allocating per candidate"
    );

    // The column pass: every row of the index screened, its survivors'
    // ids and f32 rows read through two cursors, and still nothing beyond
    // the per-search constants — no more than the annulus path pays.
    let (column_allocs, verified, screened) = warm_search_allocs(&tiered, &full, k, &mut scratch);
    assert!(verified >= k && verified + screened == n);
    let (again, _, _) = warm_search_allocs(&tiered, &full, k, &mut scratch);
    assert_eq!(
        column_allocs, again,
        "warm column pass is not in steady state"
    );
    assert!(
        column_allocs <= tier_allocs,
        "the column pass allocates more ({column_allocs}) than the annulus path \
         ({tier_allocs})"
    );
    // Exactly: the per-search constants, with nothing from Quick-Probe's
    // `locate` (which allocated two `Vec`s a call, five in all).
    assert_eq!(column_allocs, 3, "warm column pass allocations");

    // A head column: the staged pass's buffers (the suffix-norm codes, the
    // rows their prefix bounds leave in and their whole dots) grow once
    // like the rest, and its refinements and suffix reads allocate
    // nothing: a warm head pass allocates what a full-width one does.
    let low = common::low_rank(n, 160, 20, 0.3, 65);
    let head = ProMips::build_in_memory(&low, ProMipsConfig::builder().seed(17).build()).unwrap();
    assert_eq!(head.idistance().prefix_width(), 32);
    let near: Vec<f32> = low.row(7).iter().map(|x| x + 0.05).collect();
    assert!(head.search(&near, k).unwrap().final_radius.is_none());
    let (head_allocs, verified, screened) = warm_search_allocs(&head, &near, k, &mut scratch);
    assert!(verified >= k && verified + screened == n);
    let (again, _, _) = warm_search_allocs(&head, &near, k, &mut scratch);
    assert_eq!(head_allocs, again, "warm head pass is not in steady state");
    assert_eq!(head_allocs, column_allocs);
}
