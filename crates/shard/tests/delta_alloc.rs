//! Allocation accounting for a warm sharded query over a live delta.
//!
//! A query's snapshot clones a handful of `Arc`s (generation, chunk list,
//! open tail, tombstone set), never the delta's rows, and its running
//! top-k holds `k` items, never every row scored: so a warm query allocates
//! exactly as often over a delta of 8 000 rows as over an empty one.
//!
//! One test per file: the counting allocator is process-global (see
//! `promips_core`'s `verify_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use promips_linalg::Matrix;
use promips_shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch};
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

fn gaussian_rows(n: usize, d: usize, rng: &mut Xoshiro256pp) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect()
}

/// Warms the scratch on `q`, then returns the allocation count of one
/// further query and the rows its overlay scored or screened.
fn warm_query_allocs(index: &ShardedProMips, q: &[f32], scratch: &ShardedScratch) -> (u64, usize) {
    let request = ShardedQuery {
        serial: true,
        ..ShardedQuery::new(q, 10)
    };
    for _ in 0..3 {
        index.execute(request, scratch).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let (res, _) = index.execute(request, scratch).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, res.verified + res.screened)
}

#[test]
fn a_warm_query_allocates_the_same_over_any_delta() {
    let d = 32;
    let mut rng = Xoshiro256pp::seed_from_u64(0xA110C);
    let base = Matrix::from_rows(d, gaussian_rows(4_000, d, &mut rng));
    let index = ShardedProMips::build_in_memory(
        &base,
        ShardedConfig::builder().shards(2).prune(false).build(),
    )
    .unwrap();
    let scratch = ShardedScratch::for_index(&index);
    let q = gaussian_rows(1, d, &mut rng).pop().unwrap();
    // One-time lazy initialisations must not charge a measured query.
    let _ = promips_obs::now_ns();
    let _ = promips_obs::global().snapshot();

    let mut counts = Vec::new();
    for delta in [0usize, 1_000, 8_000] {
        let grow = delta - index.shards().iter().map(|s| s.delta_len()).sum::<usize>();
        for row in gaussian_rows(grow, d, &mut rng) {
            index.insert(&row).unwrap();
        }
        // Tombstones in the delta and in the generations.
        for gid in (0..index.next_global_id()).step_by(97) {
            let _ = index.delete(gid);
        }
        let (allocs, rows) = warm_query_allocs(&index, &q, &scratch);
        assert!(rows >= 4_000 + delta - 200, "{rows} rows at delta {delta}");
        counts.push(allocs);
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "warm allocations by delta 0 / 1 000 / 8 000 rows: {counts:?}"
    );
}
