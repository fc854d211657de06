//! Allocation accounting for the observability instrumentation on the
//! warm query path.
//!
//! The metrics registry is fixed atomic arrays and the stage timers are
//! plain `u64` reads, so instrumentation must add **zero** allocations to
//! a warm search, on the annulus path and on the column pass alike. A
//! warm search still pays
//! only the per-search constants (the `TopK` vector growing to `k` items,
//! which is the result), exactly as without the observability layer.
//!
//! One test per file: the counting allocator is process-global (see
//! `verify_alloc.rs`).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use promips_core::{ProMips, ProMipsConfig, Query, SearchScratch};
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

/// Warms the scratch, then returns the allocation count of one fully
/// warm search, the rows it went through (annulus candidates or column
/// rows) and whether the column pass answered it.
fn warm_search_allocs(
    index: &ProMips,
    q: &[f32],
    k: usize,
    scratch: &mut SearchScratch,
) -> (u64, u64, bool) {
    for _ in 0..3 {
        index.execute(Query::new(q, k), scratch).unwrap();
    }
    let mut span = promips_obs::ShardSpan::default();
    let before = allocs();
    let request = Query {
        span: Some(&mut span),
        ..Query::new(q, k)
    };
    index.execute(request, scratch).unwrap();
    (allocs() - before, span.scanned, span.column_pass)
}

#[test]
fn instrumented_warm_search_does_not_allocate() {
    let n = 3_000;
    let d = 24;
    let k = 16;
    let mut rng = Xoshiro256pp::seed_from_u64(64 ^ 0x5EED); // queries
                                                            // Clustered rows: the query beside a far cluster's row below is answered
                                                            // by the column pass, the unit-length one by the annulus path (checked).
    let data = common::clustered(30, n / 30, d, 64);
    let cfg = ProMipsConfig::builder().c(0.9).p(0.5).seed(17).build();
    let index = ProMips::build_in_memory(&data, cfg).unwrap();
    let short: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
    let full: Vec<f32> = short.iter().zip(data.row(7)).map(|(x, r)| x + r).collect();
    let mut scratch = SearchScratch::new();

    // Touch the registry and the clock epoch up front so their one-time
    // lazy initialisation doesn't charge the first measured search.
    let _ = promips_obs::now_ns();
    let _ = promips_obs::global().snapshot();

    for (q, want_column) in [(&full, true), (&short, false)] {
        let (timed, rows, column) = warm_search_allocs(&index, q, k, &mut scratch);
        assert_eq!(column, want_column, "query landed on the other path");
        assert!(
            rows > 100,
            "workload too small to distinguish per-search from per-row ({rows} rows)"
        );
        // Steady state.
        let (timed_again, _, _) = warm_search_allocs(&index, q, k, &mut scratch);
        assert_eq!(
            timed, timed_again,
            "instrumented warm search is not in allocation steady state"
        );
        // A request with every option set allocates no more than the plain
        // one: the request value, the mask, the budget checks and the span
        // are all allocation-free.
        let budget = promips_obs::QueryBudget::with_deadline(std::time::Duration::from_secs(3600));
        let mut span = promips_obs::ShardSpan::default();
        let before = allocs();
        index
            .execute(
                Query {
                    mask: Some((&|id| id == 0, 1)),
                    budget: Some(&budget),
                    span: Some(&mut span),
                    ..Query::new(q, k)
                },
                &mut scratch,
            )
            .unwrap();
        assert!(
            allocs() - before <= timed,
            "a fully optioned request allocates more than the plain one"
        );
        assert!(span.verified > 0);
        // And it stays a tiny per-search constant (the `TopK` vector that
        // is the result), not per-row — on either path.
        assert!(
            timed * 16 < rows,
            "{timed} warm allocations against {rows} rows — the instrumented \
             search path is allocating per row"
        );
    }
}
