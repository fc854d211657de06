//! Steady-state allocation accounting for the arena-based range scan.
//!
//! The legacy scan decoded every projected record into a fresh
//! `Vec<f32>` — at least one heap allocation per record scanned. The arena
//! path must do none of that: once the per-worker buffers have grown to
//! their high-water mark, a warm `range_candidates_into` call performs no
//! per-record allocation. The key range to scan is two binary searches over
//! the in-memory directory, so a warm scan performs **no heap allocation at
//! all**.
//!
//! This file holds exactly one test on purpose: the counting allocator is
//! process-global, and a sibling test running in another thread would
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promips_idistance::{build_index, HeadBasis, IDistanceConfig, ProjScratch};
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::Pager;

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

#[test]
fn warm_range_scan_does_not_allocate_per_record() {
    let m = 6;
    let n = 600;
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let proj = Matrix::from_rows(
        m,
        (0..n).map(|_| (0..m).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    );
    let orig = Matrix::from_rows(
        8,
        (0..n).map(|_| (0..8).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    );
    // Pool large enough to hold the whole file, so warm calls never fault.
    let pager = Arc::new(Pager::in_memory(1024, 1 << 16));
    let cfg = IDistanceConfig {
        kp: 4,
        nkey: 8,
        ksp: 3,
        ..Default::default()
    };
    let idx = build_index(
        pager,
        &proj,
        &orig,
        &cfg,
        HeadBasis::estimate(&orig, cfg.seed),
    )
    .unwrap();

    let pq: Vec<f32> = vec![0.1; m];
    let r = 1e6; // covers every point: the scan touches all n records
    let mut out = Vec::new();
    let mut scratch = ProjScratch::new();

    // Warm-up: grow every buffer to its high-water mark and fault every
    // page into the (write-through-populated) cache.
    for _ in 0..2 {
        idx.range_candidates_into(&pq, -1.0, r, &mut out, &mut scratch)
            .unwrap();
    }
    assert_eq!(out.len(), n, "full-radius scan must surface every point");

    let before = allocs();
    idx.range_candidates_into(&pq, -1.0, r, &mut out, &mut scratch)
        .unwrap();
    let warm = allocs() - before;
    assert_eq!(out.len(), n);

    // The legacy decode would have cost ≥ n allocations here (one Vec per
    // record, plus the blob). The arena path must do none of that, and —
    // the key range being binary searches over the in-memory directory —
    // the whole warm range-search path performs **zero** heap allocations.
    assert_eq!(
        warm, 0,
        "warm scan allocated {warm} times for {n} records — the range path \
         is no longer allocation-free"
    );

    // And the count must not scale with the records scanned: a scan that
    // filters far fewer records may only differ by directory-sized noise.
    let mut small_out = Vec::new();
    idx.range_candidates_into(&pq, -1.0, 0.5, &mut small_out, &mut scratch)
        .unwrap();
    let before_small = allocs();
    idx.range_candidates_into(&pq, -1.0, 0.5, &mut small_out, &mut scratch)
        .unwrap();
    let warm_small = allocs() - before_small;
    assert!(
        warm <= warm_small + 48,
        "allocations scale with scanned records: full={warm} small={warm_small}"
    );
}
