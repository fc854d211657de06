//! The buffer pool's unit tests. Compiled into the library's unit-test
//! binary (`src/buffer.rs` includes this file by path), so they sit outside
//! the `src` line budget while the suite still names them
//! `buffer::tests::…`; they reach the pool's private stripes.

use super::*;

fn page(tag: u8) -> [u8; 8] {
    [tag, 0, 0, 0, 0, 0, 0, 0]
}

#[test]
fn insert_and_get() {
    let pool = BufferPool::new(4);
    pool.insert(1, &page(1));
    pool.insert(2, &page(2));
    assert_eq!(pool.get(1).unwrap().as_slice()[0], 1);
    assert_eq!(pool.get(2).unwrap().as_slice()[0], 2);
    assert!(pool.get(3).is_none());
    assert_eq!(pool.len(), 2);
}

#[test]
fn referenced_frame_is_spared_once_single_stripe() {
    // One stripe: one global clock.
    let pool = BufferPool::with_shards(2, 1);
    pool.insert(1, &page(1));
    pool.insert(2, &page(2));
    // Touch 1: the sweep clears its bit and takes the untouched 2.
    pool.get(1).unwrap();
    pool.insert(3, &page(3));
    assert!(pool.get(2).is_none(), "2 should have been evicted");
    // 1 was spared once; untouched since, it is the next to go, while
    // the re-read 3 stays.
    pool.get(3).unwrap();
    pool.insert(4, &page(4));
    assert!(pool.get(1).is_none(), "1's second chance is spent");
    assert!(pool.get(3).is_some());
    assert!(pool.get(4).is_some());
}

#[test]
fn eviction_stays_within_a_stripe() {
    // Ids that are congruent mod num_shards share a stripe and evict
    // each other exactly as in the unstriped pool.
    let pool = BufferPool::new(16);
    let n = pool.num_shards() as u64;
    assert_eq!(pool.capacity() / pool.num_shards(), 1);
    pool.insert(0, &page(1)); // stripe 0, fills its single frame
    pool.insert(n, &page(2)); // stripe 0 again → evicts 0
    assert!(pool.get(0).is_none(), "0 should have been evicted");
    assert_eq!(pool.get(n).unwrap().as_slice()[0], 2);
    // A different stripe is untouched by stripe 0's churn.
    pool.insert(1, &page(3));
    pool.insert(2 * n, &page(4)); // stripe 0 churns again
    assert!(pool.get(1).is_some(), "stripe 1 must be unaffected");
}

#[test]
fn absurd_ids_miss_without_growing_the_table() {
    let pool = BufferPool::new(4);
    assert!(pool.get(u64::MAX).is_none());
    pool.insert(u64::MAX, &page(7)); // beyond MAX_TABLE_SLOTS: uncached
    assert!(pool.get(u64::MAX).is_none());
    assert!(pool.is_empty());
    assert!(pool.shards.iter().all(|s| s.lock().table.is_empty()));
}

#[test]
fn capacity_splits_exactly_across_shards() {
    for cap in [1usize, 2, 5, 16, 17, 100] {
        let pool = BufferPool::new(cap);
        assert_eq!(pool.capacity(), cap);
        assert!(pool.num_shards() <= cap.max(1));
        // Overfill every stripe; the pool must never exceed capacity.
        for id in 0..(cap as u64 * 4) {
            pool.insert(id, &page((id % 251) as u8));
        }
        assert!(
            pool.len() <= cap,
            "cap {cap}: len {} exceeds capacity",
            pool.len()
        );
    }
}

#[test]
fn replace_existing_key() {
    let pool = BufferPool::new(2);
    pool.insert(1, &page(1));
    pool.insert(1, &page(9));
    assert_eq!(pool.get(1).unwrap().as_slice()[0], 9);
    assert_eq!(pool.len(), 1);
}

#[test]
fn clear_empties_pool() {
    let pool = BufferPool::new(4);
    pool.insert(1, &page(1));
    pool.insert(2, &page(2));
    pool.clear();
    assert!(pool.is_empty());
    assert!(pool.get(1).is_none());
    // Pool must remain usable after clear.
    pool.insert(2, &page(2));
    assert!(pool.get(2).is_some());
}

#[test]
fn capacity_one_pool() {
    let pool = BufferPool::new(1);
    assert_eq!(pool.num_shards(), 1);
    for i in 0..10u8 {
        pool.insert(i as PageId, &page(i));
        assert_eq!(pool.get(i as PageId).unwrap().as_slice()[0], i);
        assert_eq!(pool.len(), 1);
    }
}

#[test]
fn heavy_churn_consistency() {
    let pool = BufferPool::new(16);
    for round in 0..1000u64 {
        let id = round % 40;
        pool.insert(id, &page((id % 256) as u8));
        if let Some(p) = pool.get(id) {
            assert_eq!(p.as_slice()[0], (id % 256) as u8);
        }
    }
    assert!(pool.len() <= 16);
}

#[test]
fn concurrent_readers_and_writers_stay_consistent() {
    // Multi-threaded stress: every thread inserts and reads tagged pages
    // over a shared striped pool. A get must either miss or return the
    // exact page content for that id, and the pool must never exceed its
    // total capacity.
    let pool = Arc::new(BufferPool::new(32));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                for round in 0..2_000u64 {
                    let id = (round * 7 + t * 13) % 96;
                    pool.insert(id, &page((id % 251) as u8));
                    let probe = (round * 11 + t) % 96;
                    if let Some(p) = pool.get(probe) {
                        assert_eq!(
                            p.as_slice()[0],
                            (probe % 251) as u8,
                            "stale or cross-wired page for id {probe}"
                        );
                    }
                    assert!(pool.len() <= 32, "capacity exceeded");
                }
            });
        }
    });
    assert!(pool.len() <= 32);
}
