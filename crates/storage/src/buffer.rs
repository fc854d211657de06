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
//! queries on one index only contend when they touch the same stripe, and
//! consecutive page ids — the access pattern of blob scans — spread over
//! every stripe. Eviction is *per stripe*: a skewed workload can evict from
//! a hot stripe while a cold one has room, the standard trade of a striped
//! cache.
//!
//! **Why second chance and not LRU.** A query is ≈ 1 000 pool *hits*
//! (`lf300_hot`: every read hits), so the hit is the path that must be
//! cheap. The LRU pool paid SipHash over a
//! `HashMap<PageId, usize>` and a four-slot relink of a doubly-linked chain
//! on every hit — 110–155 ns with the pager's counters. Here a hit is one
//! index into a dense page table (a file's pages are appended front to
//! back, so ids are dense, and the table is a `Vec<u32>` at 4 bytes per
//! page of the file's stripe), one store to the frame's *referenced* bit and the `Arc` clone: ≈ 60 ns.
//! All bookkeeping moved to the miss path, which already pays a device
//! read: the hand sweeps the frame array, clears referenced bits and takes
//! the first frame not touched since its last visit. No single one of these
//! removals paid on its own (each moved the screen stage by < 4 %); the
//! cost was their sum. Second chance approximates LRU closely enough that
//! `lf300_cold` (4 MB pool, every read a miss) misses within 0.1 % of what
//! it did under exact LRU.
//!
//! **A page enters a frame one of two ways.** [`BufferPool::insert`]
//! takes the page's bytes, not a buffer: they are copied into the buffer of
//! the frame the hand evicts when no reader still holds its page, so a full
//! pool over a file serves a stream of misses without allocating or
//! freeing. [`BufferPool::adopt`] takes a buffer the device already holds
//! (a [`crate::MemStorage`] page) and caches that very `Arc`, so an
//! in-memory index keeps each page once, not once on the device and again
//! in the pool. Both take the frame the same way: one table lookup, one
//! eviction sweep, the same referenced bits.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::page::{PageBuf, PageId};

/// Default stripe count for [`BufferPool::new`]. Sixteen stripes cost ~1 KB
/// of mutexes and are enough to make same-stripe collisions rare for
/// concurrent queries on one index (one per core).
pub const DEFAULT_SHARDS: usize = 16;

/// Page-table entry of an uncached page. Never a valid frame index (a
/// stripe holds fewer frames, see [`BufferPool::with_shards`]), so a hit
/// tests it with the frame lookup's own bounds check.
const ABSENT: u32 = u32::MAX;

/// Page-table slots a stripe will grow to (1 GB of table, a 16 TB file at
/// the default geometry). Pages beyond it are served uncached, so an id
/// far past the end of any file cannot make the table swallow memory.
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

/// What an insert puts in its frame: a copy of some bytes, or a buffer the
/// device holds, shared as it is.
enum Fill<'a> {
    Copy(&'a [u8]),
    Adopt(Arc<PageBuf>),
}

impl Fill<'_> {
    /// The fill as a page of its own.
    fn page(self) -> Arc<PageBuf> {
        match self {
            Fill::Copy(bytes) => Arc::new(PageBuf::from_vec(bytes.to_vec())),
            Fill::Adopt(page) => page,
        }
    }

    /// Makes `page` the fill: a copy goes into `page`'s buffer in place
    /// when no one else holds it, and into a new buffer otherwise. Returns
    /// a handle to it.
    fn put_in(self, page: &mut Arc<PageBuf>) -> Arc<PageBuf> {
        match self {
            Fill::Copy(bytes) => match Arc::get_mut(page) {
                Some(buf) if buf.len() == bytes.len() => buf.as_mut_slice().copy_from_slice(bytes),
                _ => *page = Fill::Copy(bytes).page(),
            },
            Fill::Adopt(shared) => *page = shared,
        }
        Arc::clone(page)
    }
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
    /// mutex, one global clock; the pool's model tests use it as the
    /// unstriped baseline.
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

    /// Caches a copy of `bytes` as page `id` (replacing any cached copy)
    /// and returns the cached page. A full stripe evicts by second chance:
    /// a frame referenced since the hand last passed it is spared once. A
    /// new page starts unreferenced — a page read once by a scan leaves at
    /// the hand's next visit, one that is read again stays. The bytes are
    /// copied into the buffer of the frame they take over when no reader
    /// holds its page; a new buffer is allocated otherwise, so a held page
    /// never changes.
    pub fn insert(&self, id: PageId, bytes: &[u8]) -> Arc<PageBuf> {
        self.place(id, Fill::Copy(bytes))
    }

    /// Caches `page` itself as page `id` — no copy, no allocation — in the
    /// frame [`BufferPool::insert`] would take, with the same eviction and
    /// referenced bits, and returns it.
    pub fn adopt(&self, id: PageId, page: Arc<PageBuf>) -> Arc<PageBuf> {
        self.place(id, Fill::Adopt(page))
    }

    /// The one way into a frame: `id`'s own frame if it is cached, else a
    /// free frame, else the second-chance victim.
    fn place(&self, id: PageId, fill: Fill<'_>) -> Arc<PageBuf> {
        let (stripe, slot) = self.locate(id);
        let mut stripe = stripe.lock();
        let stripe = &mut *stripe;
        if let Some(frame) = stripe.frame_mut(slot) {
            frame.referenced = true;
            return fill.put_in(&mut frame.page);
        }
        if slot >= MAX_TABLE_SLOTS {
            return fill.page();
        }
        let at = if stripe.frames.len() < stripe.capacity {
            stripe.frames.push(Frame {
                slot,
                page: fill.page(),
                referenced: false,
            });
            stripe.frames.len() - 1
        } else {
            // The victim's referenced bit is already clear.
            let at = stripe.victim();
            let frame = &mut stripe.frames[at];
            stripe.table[frame.slot] = ABSENT;
            frame.slot = slot;
            fill.put_in(&mut frame.page);
            at
        };
        if slot >= stripe.table.len() {
            stripe.table.resize(slot + 1, ABSENT);
        }
        stripe.table[slot] = at as u32;
        Arc::clone(&stripe.frames[at].page)
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

// The unit tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/buffer_unit/mod.rs"]
mod tests;
