//! A lock-striped second-chance (CLOCK) buffer pool.
//!
//! The paper delegates caching to the operating system; we model the cache
//! explicitly so experiments can distinguish logical page accesses (the
//! Fig. 7 metric) from physical I/O, and so cold-cache runs are reproducible
//! regardless of host page-cache state.
//!
//! The pool is **striped**: page `id` lives in stripe `id % stripes`, each
//! stripe owns an independent mutex, page table, frame array and clock
//! hand, and the total capacity is split across stripes. Concurrent
//! `search_batch` workers only contend when they touch the same stripe, and
//! consecutive page ids — the access pattern of blob scans — spread over
//! every stripe. Eviction is *per stripe*: a skewed workload can evict from
//! a hot stripe while a cold one has room, the standard trade of a striped
//! cache.
//!
//! **Why second chance and not LRU.** A query is a few thousand pool
//! *hits* (`lf300_hot`: ≈ 11.8 k reads, none missing), so the hit is the
//! path that must be cheap. The LRU pool paid SipHash over a
//! `HashMap<PageId, usize>` and a four-slot relink of a doubly-linked chain
//! on every hit — 110–155 ns with the pager's counters. Here a hit is one
//! index into a dense page table (ids come from `allocate()` and are dense,
//! so the table is a `Vec<u32>` at 4 bytes per page of the file's stripe),
//! one store to the frame's *referenced* bit and the `Arc` clone: ≈ 60 ns.
//! All bookkeeping moved to the miss path, which already pays a device
//! read: the hand sweeps the frame array, clears referenced bits and takes
//! the first frame not touched since its last visit. No single one of these
//! removals paid on its own (each moved the screen stage by < 4 %); the
//! cost was their sum. Second chance approximates LRU closely enough that
//! `lf300_cold` (4 MB pool, ≈ 75 % misses) misses within 0.1 % of what it
//! did under exact LRU.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::page::{PageBuf, PageId};

/// Default stripe count for [`BufferPool::new`]. Sixteen stripes cost ~1 KB
/// of mutexes and are enough to make same-stripe collisions rare at the
/// worker counts `search_batch` spawns (one per core).
pub const DEFAULT_SHARDS: usize = 16;

/// Page-table entry of an uncached page. Never a valid frame index (a
/// stripe holds fewer frames, see [`BufferPool::with_shards`]), so a hit
/// tests it with the frame lookup's own bounds check.
const ABSENT: u32 = u32::MAX;

/// Page-table slots a stripe will grow to (1 GB of table, a 16 TB file at
/// the default geometry). Pages beyond it are served uncached, so an id
/// that never came from `allocate()` cannot make the table swallow memory.
const MAX_TABLE_SLOTS: usize = 1 << 28;

struct Frame {
    /// The page-table slot that points here.
    slot: usize,
    page: Arc<PageBuf>,
    /// Touched since the clock hand last passed.
    referenced: bool,
}

struct Stripe {
    /// Frame of page `id` at index `id / stripes`, or [`ABSENT`]. Grows to
    /// the highest id cached so far.
    table: Vec<u32>,
    frames: Vec<Frame>,
    /// Next frame the eviction sweep examines.
    hand: usize,
    capacity: usize,
}

impl Stripe {
    fn frame_mut(&mut self, slot: usize) -> Option<&mut Frame> {
        let &at = self.table.get(slot)?;
        self.frames.get_mut(at as usize)
    }

    /// Second chance: the first frame from the hand on that was not
    /// referenced since the hand last cleared it.
    fn victim(&mut self) -> usize {
        loop {
            let at = self.hand;
            self.hand = (at + 1) % self.frames.len();
            let frame = &mut self.frames[at];
            if !std::mem::take(&mut frame.referenced) {
                return at;
            }
        }
    }
}

/// A fixed-capacity, lock-striped second-chance cache of immutable page
/// snapshots.
///
/// Pages are shared via `Arc`, so an evicted page that a reader still holds
/// stays alive until the reader drops it — eviction can never invalidate a
/// borrow. The sum of stripe capacities equals the requested capacity, so
/// the pool as a whole never holds more than `capacity` pages.
pub struct BufferPool {
    shards: Box<[Mutex<Stripe>]>,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages (minimum 1), striped
    /// across [`DEFAULT_SHARDS`] stripes (fewer when `capacity` is smaller,
    /// so every stripe can hold at least one page).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a pool with an explicit stripe count (clamped to
    /// `1..=capacity`). `with_shards(capacity, 1)` is one stripe — one
    /// mutex, one global clock; tests and the contention benchmark use it
    /// as the unstriped baseline.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        // Split capacity as evenly as possible; the first `capacity % shards`
        // stripes take the remainder so the total is exact.
        let base = capacity / shards;
        let extra = capacity % shards;
        assert!(base < ABSENT as usize, "stripe capacity overflows u32");
        let stripes: Vec<Mutex<Stripe>> = (0..shards)
            .map(|i| {
                Mutex::new(Stripe {
                    table: Vec::new(),
                    frames: Vec::new(),
                    hand: 0,
                    capacity: base + usize::from(i < extra),
                })
            })
            .collect();
        Self {
            shards: stripes.into_boxed_slice(),
            capacity,
        }
    }

    /// Total page capacity (sum across stripes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The stripe of page `id` and the page's slot in that stripe's table.
    #[inline]
    fn locate(&self, id: PageId) -> (&Mutex<Stripe>, usize) {
        let n = self.shards.len() as u64;
        let slot = usize::try_from(id / n).unwrap_or(usize::MAX);
        (&self.shards[(id % n) as usize], slot)
    }

    /// Looks up a page and marks it referenced on hit. Only the page's
    /// stripe is locked; nothing is allocated, hashed or relinked.
    pub fn get(&self, id: PageId) -> Option<Arc<PageBuf>> {
        let (stripe, slot) = self.locate(id);
        let mut stripe = stripe.lock();
        let frame = stripe.frame_mut(slot)?;
        frame.referenced = true;
        Some(Arc::clone(&frame.page))
    }

    /// Inserts (or replaces) a page. A full stripe evicts by second chance:
    /// a frame referenced since the hand last passed it is spared once. A
    /// new page starts unreferenced — a page read once by a scan leaves at
    /// the hand's next visit, one that is read again stays.
    pub fn insert(&self, id: PageId, page: Arc<PageBuf>) {
        let (stripe, slot) = self.locate(id);
        let mut stripe = stripe.lock();
        let stripe = &mut *stripe;
        if let Some(frame) = stripe.frame_mut(slot) {
            frame.page = page;
            frame.referenced = true;
            return;
        }
        if slot >= MAX_TABLE_SLOTS {
            return;
        }
        let frame = Frame {
            slot,
            page,
            referenced: false,
        };
        let at = if stripe.frames.len() < stripe.capacity {
            stripe.frames.push(frame);
            stripe.frames.len() - 1
        } else {
            let at = stripe.victim();
            let old = std::mem::replace(&mut stripe.frames[at], frame);
            stripe.table[old.slot] = ABSENT;
            at
        };
        if slot >= stripe.table.len() {
            stripe.table.resize(slot + 1, ABSENT);
        }
        stripe.table[slot] = at as u32;
    }

    /// Number of cached pages (sums the stripes; not atomic across them).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached pages and rewinds every clock hand, so the same
    /// reads after a `clear` miss the same pages.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut stripe = shard.lock();
            stripe.table.clear();
            stripe.frames.clear();
            stripe.hand = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(tag: u8) -> Arc<PageBuf> {
        let mut p = PageBuf::zeroed(8);
        p.as_mut_slice()[0] = tag;
        Arc::new(p)
    }

    #[test]
    fn insert_and_get() {
        let pool = BufferPool::new(4);
        pool.insert(1, page(1));
        pool.insert(2, page(2));
        assert_eq!(pool.get(1).unwrap().as_slice()[0], 1);
        assert_eq!(pool.get(2).unwrap().as_slice()[0], 2);
        assert!(pool.get(3).is_none());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn referenced_frame_is_spared_once_single_stripe() {
        // One stripe: one global clock.
        let pool = BufferPool::with_shards(2, 1);
        pool.insert(1, page(1));
        pool.insert(2, page(2));
        // Touch 1: the sweep clears its bit and takes the untouched 2.
        pool.get(1).unwrap();
        pool.insert(3, page(3));
        assert!(pool.get(2).is_none(), "2 should have been evicted");
        // 1 was spared once; untouched since, it is the next to go, while
        // the re-read 3 stays.
        pool.get(3).unwrap();
        pool.insert(4, page(4));
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
        pool.insert(0, page(1)); // stripe 0, fills its single frame
        pool.insert(n, page(2)); // stripe 0 again → evicts 0
        assert!(pool.get(0).is_none(), "0 should have been evicted");
        assert_eq!(pool.get(n).unwrap().as_slice()[0], 2);
        // A different stripe is untouched by stripe 0's churn.
        pool.insert(1, page(3));
        pool.insert(2 * n, page(4)); // stripe 0 churns again
        assert!(pool.get(1).is_some(), "stripe 1 must be unaffected");
    }

    #[test]
    fn absurd_ids_miss_without_growing_the_table() {
        let pool = BufferPool::new(4);
        assert!(pool.get(u64::MAX).is_none());
        pool.insert(u64::MAX, page(7)); // beyond MAX_TABLE_SLOTS: uncached
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
                pool.insert(id, page((id % 251) as u8));
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
        pool.insert(1, page(1));
        pool.insert(1, page(9));
        assert_eq!(pool.get(1).unwrap().as_slice()[0], 9);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn clear_empties_pool() {
        let pool = BufferPool::new(4);
        pool.insert(1, page(1));
        pool.insert(2, page(2));
        pool.clear();
        assert!(pool.is_empty());
        assert!(pool.get(1).is_none());
        // Pool must remain usable after clear.
        pool.insert(2, page(2));
        assert!(pool.get(2).is_some());
    }

    #[test]
    fn capacity_one_pool() {
        let pool = BufferPool::new(1);
        assert_eq!(pool.num_shards(), 1);
        for i in 0..10u8 {
            pool.insert(i as PageId, page(i));
            assert_eq!(pool.get(i as PageId).unwrap().as_slice()[0], i);
            assert_eq!(pool.len(), 1);
        }
    }

    #[test]
    fn heavy_churn_consistency() {
        let pool = BufferPool::new(16);
        for round in 0..1000u64 {
            let id = round % 40;
            pool.insert(id, page((id % 256) as u8));
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
                        pool.insert(id, page((id % 251) as u8));
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
}
