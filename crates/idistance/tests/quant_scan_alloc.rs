//! Steady-state allocation accounting for the **quantized** two-level scan.
//!
//! The SQ8 filter tier adds three buffers to `ProjScratch` (the code
//! column, the quantized query, the surviving-block list). Like the f32
//! arena, they must grow once to their high-water mark and never allocate
//! again: a warm `range_candidates_into` through the two-level path —
//! integer filter plus exact f32 re-test of surviving blocks — performs
//! **zero** heap allocations.
//!
//! This file holds exactly one test on purpose: the counting allocator is
//! process-global, and a sibling test running in another thread would
//! pollute the counter. (`scan_alloc.rs` holds the same scan to the
//! per-record count.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promips_idistance::{build_index, IDistanceConfig, ProjScratch};
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
fn warm_quantized_scan_does_not_allocate() {
    let m = 6;
    let n = 600;
    let mut rng = Xoshiro256pp::seed_from_u64(23);
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
    let idx = build_index(pager, &proj, &orig, &cfg).unwrap();

    let pq: Vec<f32> = vec![0.1; m];
    let mut out = Vec::new();
    let mut scratch = ProjScratch::new();

    // Two radius regimes: a full-coverage scan (every block survives the
    // integer filter, so level 2 decodes everything) and a selective one
    // (most blocks are skipped). Both must be allocation-free once warm —
    // the buffers' high-water marks are set by the larger scan.
    for &(r_lo, r_hi) in &[(-1.0, 1e6), (-1.0, 1.0)] {
        for _ in 0..2 {
            idx.range_candidates_into(&pq, r_lo, r_hi, &mut out, &mut scratch)
                .unwrap();
        }
        let before = allocs();
        idx.range_candidates_into(&pq, r_lo, r_hi, &mut out, &mut scratch)
            .unwrap();
        let warm = allocs() - before;
        assert_eq!(
            warm, 0,
            "warm quantized scan (r_hi = {r_hi}) allocated {warm} times — \
             the two-level path is no longer allocation-free"
        );
    }
    assert!(!out.is_empty());
}
