//! Model-based property tests of the second-chance [`BufferPool`]: random
//! `get` / `insert` / `adopt` / replace / `clear` traces run against a reference map
//! (what was last written for each id) and a reference clock (which ids a
//! second-chance cache of the same geometry holds, and which allocation
//! each frame's page lives in), checked after every operation. The insert
//! copies into the page it displaces exactly when no one holds that page;
//! the adopting insert takes the same frame and caches the buffer it is
//! given. The same model then follows four pagers, two reading a run of pages
//! with [`Pager::read_run`] where the other two read them one by one: one
//! of each over a device that hides its pages, so every miss is copied
//! into a frame as from a file, and one over a [`MemStorage`], whose pool
//! adopts the device's own buffers.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use promips_storage::{AccessStats, BufferPool, MemStorage, PageBuf, PageId, Pager, Storage};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn page(tag: u64) -> [u8; 8] {
    tag.to_le_bytes()
}

fn tag_of(p: &PageBuf) -> u64 {
    u64::from_le_bytes(p.as_slice().try_into().unwrap())
}

/// The allocation a page lives in: a frame refilled in place keeps it.
fn addr(p: &Arc<PageBuf>) -> usize {
    Arc::as_ptr(p) as usize
}

/// The policy, written the slow way: frames searched linearly, no page
/// table. One per stripe. A frame is `(id, referenced, buffer address)`.
#[derive(Default, PartialEq, Debug)]
struct ModelStripe {
    frames: Vec<(PageId, bool, usize)>,
    hand: usize,
    capacity: usize,
}

impl ModelStripe {
    /// A hit: marks the frame referenced and returns its buffer address.
    fn touch(&mut self, id: PageId) -> Option<usize> {
        let frame = self.frames.iter_mut().find(|f| f.0 == id)?;
        frame.1 = true;
        Some(frame.2)
    }

    /// An insert: caches `id` in the frame second chance picks,
    /// now holding the buffer at `at`, and returns the address that frame
    /// held before (`None` for a frame of its own).
    fn insert(&mut self, id: PageId, at: usize) -> Option<usize> {
        if let Some(frame) = self.frames.iter_mut().find(|f| f.0 == id) {
            frame.1 = true;
            return Some(std::mem::replace(&mut frame.2, at));
        }
        if self.frames.len() < self.capacity {
            self.frames.push((id, false, at));
            return None;
        }
        loop {
            let i = self.hand;
            self.hand = (i + 1) % self.frames.len();
            if !std::mem::take(&mut self.frames[i].1) {
                return Some(std::mem::replace(&mut self.frames[i], (id, false, at)).2);
            }
        }
    }
}

/// A model stripe per pool stripe.
fn model(capacity: usize, stripes: usize) -> Vec<ModelStripe> {
    (0..stripes)
        .map(|i| ModelStripe {
            capacity: capacity / stripes + usize::from(i < capacity % stripes),
            ..Default::default()
        })
        .collect()
}

fn model_of(pool: &BufferPool) -> Vec<ModelStripe> {
    model(pool.capacity(), pool.num_shards())
}

/// Checks the page `got` an insert returned against the model: the frame
/// it took over keeps its buffer exactly when the test holds none of it.
fn check_insert(stripe: &mut ModelStripe, id: PageId, got: &Arc<PageBuf>, held: &[Arc<PageBuf>]) {
    if let Some(old) = stripe.insert(id, addr(got)) {
        let free = !held.iter().any(|p| addr(p) == old);
        assert_eq!(
            addr(got) == old,
            free,
            "page {id}: recycled a held buffer or skipped a free one"
        );
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(PageId, bool),
    Insert(PageId, bool),
    Adopt(PageId, bool),
    Clear,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..64, 0u64..48, 0u32..2).prop_map(|(kind, id, keep)| match kind {
        0..=30 => Op::Get(id, keep == 1),
        31..=50 => Op::Insert(id, keep == 1),
        51..=61 => Op::Adopt(id, keep == 1),
        62 => Op::Get(u64::MAX - id, false),
        _ => Op::Clear,
    });
    proptest::collection::vec(op, 1..400)
}

/// Runs `trace`, checking every step against the references, and returns
/// the positions of the `get`s that missed. A page the op marks is held
/// to the end of the trace; the others are dropped at once, so their
/// frames' buffers are free to be recycled.
fn run(trace: &[Op], capacity: usize, stripes: usize) -> Vec<usize> {
    let pool = BufferPool::with_shards(capacity, stripes);
    let n = pool.num_shards() as u64;
    let mut model = model_of(&pool);
    let mut written: HashMap<PageId, u64> = HashMap::new();
    let mut held: Vec<Arc<PageBuf>> = Vec::new();
    let mut held_tags: Vec<u64> = Vec::new();
    let mut misses = Vec::new();
    for (step, &op) in trace.iter().enumerate() {
        match op {
            Op::Get(id, keep) => {
                let got = pool.get(id);
                let stripe = &mut model[(id % n) as usize];
                let want = stripe.touch(id);
                assert_eq!(got.as_ref().map(addr), want, "step {step}: {op:?}");
                match got {
                    // A hit is the last page written for the id — never an
                    // earlier version, never another id's.
                    Some(p) => {
                        assert_eq!(tag_of(&p), written[&id], "step {step}: stale hit");
                        if keep {
                            held_tags.push(written[&id]);
                            held.push(p);
                        }
                    }
                    None => misses.push(step),
                }
            }
            Op::Insert(id, keep) => {
                let tag = step as u64 + 1;
                let got = pool.insert(id, &page(tag));
                assert_eq!(tag_of(&got), tag, "step {step}");
                check_insert(&mut model[(id % n) as usize], id, &got, &held);
                written.insert(id, tag);
                if keep {
                    held_tags.push(tag);
                    held.push(got);
                }
            }
            Op::Adopt(id, keep) => {
                let tag = step as u64 + 1;
                let own = Arc::new(PageBuf::from_vec(page(tag).to_vec()));
                let got = pool.adopt(id, Arc::clone(&own));
                assert!(Arc::ptr_eq(&got, &own), "step {step}: adopted a copy");
                model[(id % n) as usize].insert(id, addr(&got));
                written.insert(id, tag);
                if keep {
                    held_tags.push(tag);
                    held.push(got);
                }
            }
            Op::Clear => {
                pool.clear();
                model = model_of(&pool);
            }
        }
        let cached: usize = model.iter().map(|s| s.frames.len()).sum();
        assert_eq!(pool.len(), cached, "step {step}");
        assert!(pool.len() <= capacity, "step {step}: capacity exceeded");
    }
    // Eviction, replacement and clear never touched a page someone holds.
    for (p, tag) in held.iter().zip(&held_tags) {
        assert_eq!(tag_of(p), *tag, "a held page changed under its holder");
    }
    misses
}

/// A [`MemStorage`] that keeps its pages to itself ([`Storage::page`] is
/// `None`), so its pager copies each miss into a frame as a file's does.
struct Hidden(MemStorage);

impl Storage for Hidden {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.0.num_pages()
    }
    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_pages(first, buf)
    }
    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        self.0.append_pages(bytes)
    }
    fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

/// A pager and the model of its pool, driven by logical page reads.
struct Checked {
    pager: Pager,
    model: Vec<ModelStripe>,
    held: Vec<Arc<PageBuf>>,
}

impl Checked {
    /// A pager over `file` whose pool adopts the device's buffers, or
    /// copies them when `adopt` is false.
    fn new(file: &[u8], page_size: usize, capacity: usize, adopt: bool) -> Self {
        let storage = MemStorage::new(page_size);
        storage.append_pages(file).unwrap();
        let device: Arc<dyn Storage> = match adopt {
            true => Arc::new(storage),
            false => Arc::new(Hidden(storage)),
        };
        let pager = Pager::new(device, capacity, AccessStats::new_shared());
        let model = model(capacity, pager.stripes());
        Self {
            pager,
            model,
            held: Vec::new(),
        }
    }

    /// Books one logical read of `id` that returned `got` to the model:
    /// a hit is the cached buffer, a miss lands in the frame the model
    /// evicts, and a device that holds its pages is served its own buffer.
    /// Returns whether it missed.
    fn book(&mut self, id: PageId, got: &Arc<PageBuf>, keep: bool) -> bool {
        let own = self.pager.storage().page(id);
        if let Some(own) = &own {
            assert!(Arc::ptr_eq(got, own), "page {id}: not the device's buffer");
        }
        let at = (id % self.model.len() as u64) as usize;
        let stripe = &mut self.model[at];
        let missed = match stripe.touch(id) {
            Some(at) => {
                assert_eq!(addr(got), at, "page {id}: a hit must be the cached page");
                false
            }
            None if own.is_some() => {
                stripe.insert(id, addr(got));
                true
            }
            None => {
                check_insert(stripe, id, got, &self.held);
                true
            }
        };
        if keep {
            self.held.push(Arc::clone(got));
        }
        missed
    }

    fn read(&mut self, id: PageId, keep: bool) -> Arc<PageBuf> {
        let misses = self.pager.stats().snapshot().cache_misses;
        let got = self.pager.read(id).unwrap();
        let missed = self.book(id, &got, keep);
        let now = self.pager.stats().snapshot().cache_misses;
        assert_eq!(now - misses, u64::from(missed), "page {id}: hit or miss");
        got
    }
}

/// One random step of the prelude or the postlude, applied alike to every
/// pager: a read, its page held or not.
fn step(rng: &mut TestRng, pagers: &mut [Checked], file: &[u8], ps: usize) {
    let id = rng.below((file.len() / ps) as u64);
    let keep = rng.below(4) == 0;
    for p in pagers {
        assert_eq!(p.read(id, keep).as_slice(), &file[id as usize * ps..][..ps]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pool_follows_the_reference_clock_and_never_serves_a_stale_page(
        trace in ops(),
        capacity in 1usize..14,
        stripes in 1usize..6,
    ) {
        let misses = run(&trace, capacity, stripes);
        // Same trace, same geometry: the same gets miss.
        prop_assert_eq!(run(&trace, capacity, stripes), misses);
    }

    /// The contract that replaces LRU order: of a full stripe's frames,
    /// those read since the hand last passed survive the next eviction —
    /// whichever and however many they are — and the hand takes the first
    /// frame it finds unread.
    #[test]
    fn frames_referenced_since_the_last_sweep_survive_one_pass(
        capacity in 2u64..12,
        read_mask in 0u32..4096,
    ) {
        let pool = BufferPool::with_shards(capacity as usize, 1);
        for id in 0..capacity {
            pool.insert(id, &page(id));
        }
        let read: Vec<u64> = (0..capacity).filter(|id| read_mask >> id & 1 == 1).collect();
        prop_assume!(read.len() < capacity as usize);
        for &id in &read {
            prop_assert!(pool.get(id).is_some());
        }
        pool.insert(capacity, &page(capacity));
        let victim = (0..capacity).find(|id| !read.contains(id)).unwrap();
        for id in 0..=capacity {
            prop_assert_eq!(pool.get(id).is_some(), id != victim, "page {}", id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `read_run(first, n)` is `n` reads, whether the pool copies pages or
    /// adopts the device's: four pagers over the same bytes and pool
    /// geometry, driven through the same random reads, then the first of
    /// each pair (copying, adopting) reads a run and the second the same
    /// pages one at a time — same bytes, same counters, and the same pool:
    /// each pager matches the model before, during and after, and so does a
    /// random postlude; the adopting pagers hold no page but the device's.
    #[test]
    fn a_read_run_is_as_many_reads(
        ps_pick in 0usize..4,
        capacity in 1usize..65,
        seed in 0u64..1 << 32,
    ) {
        let ps = [64usize, 70, 130, 4_096][ps_pick];
        let mut rng = TestRng::from_name(&format!("run-{seed}"));
        let pages = 2 * capacity + 17;
        let file: Vec<u8> = (0..pages * ps).map(|i| (i % 251) as u8).collect();
        let mut pagers = [false, false, true, true].map(|adopt| Checked::new(&file, ps, capacity, adopt));
        let stripes = pagers[0].pager.stripes();
        prop_assert_eq!(stripes, capacity.min(16));
        for _ in 0..rng.below(3 * pages as u64) {
            step(&mut rng, &mut pagers, &file, ps);
        }

        let n = 1 + rng.below(stripes as u64) as usize;
        let first = rng.below((pages - n + 1) as u64);
        let keep = rng.below(2) == 0;
        let mut read = Vec::new();
        for (i, p) in pagers.iter_mut().enumerate() {
            let pages: Vec<Arc<PageBuf>> = if i % 2 == 0 {
                let mut run = vec![None; n];
                let before = p.pager.stats().snapshot();
                p.pager.read_run(first, &mut run).unwrap();
                let run: Vec<Arc<PageBuf>> = run.into_iter().map(Option::unwrap).collect();
                let mut missed = 0;
                for (id, got) in (first..).zip(&run) {
                    missed += u64::from(p.book(id, got, keep));
                }
                let misses = p.pager.stats().snapshot().cache_misses - before.cache_misses;
                prop_assert_eq!(misses, missed, "the run's misses");
                run
            } else {
                (first..).take(n).map(|id| p.read(id, keep)).collect()
            };
            for (id, got) in (first..).zip(&pages) {
                prop_assert_eq!(got.as_slice(), &file[id as usize * ps..][..ps], "page {}", id);
            }
            read.push(pages);
        }
        let stats = pagers.each_ref().map(|p| p.pager.stats().snapshot());
        prop_assert!(stats.iter().all(|s| *s == stats[0]), "{:?}", stats);
        let state = |m: &[ModelStripe]| -> Vec<(Vec<(PageId, bool)>, usize)> {
            m.iter()
                .map(|s| (s.frames.iter().map(|f| (f.0, f.1)).collect(), s.hand))
                .collect()
        };
        let states = pagers.each_ref().map(|p| state(&p.model));
        prop_assert!(states.iter().all(|s| *s == states[0]), "{:?}", states);
        drop(read);

        for _ in 0..pages {
            step(&mut rng, &mut pagers, &file, ps);
        }
        let stats = pagers.each_ref().map(|p| p.pager.stats().snapshot());
        prop_assert!(stats.iter().all(|s| *s == stats[0]), "{:?}", stats);
    }
}

#[test]
fn a_get_far_beyond_the_file_misses_without_allocating() {
    let pool = BufferPool::new(8);
    pool.insert(3, &page(3));
    assert!(pool.get(u64::MAX).is_none());
    assert!(pool.get(u64::MAX / 2).is_none());
    assert_eq!(pool.len(), 1);
}
