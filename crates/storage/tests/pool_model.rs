//! Model-based property tests of the second-chance [`BufferPool`]: random
//! `get` / `insert` / replace / `clear` traces run against a reference map
//! (what was last written for each id) and a reference clock (which ids a
//! second-chance cache of the same geometry holds), checked after every
//! operation.

use std::collections::HashMap;
use std::sync::Arc;

use promips_storage::{BufferPool, PageBuf, PageId};
use proptest::prelude::*;

fn page(tag: u64) -> Arc<PageBuf> {
    let mut p = PageBuf::zeroed(8);
    p.as_mut_slice().copy_from_slice(&tag.to_le_bytes());
    Arc::new(p)
}

fn tag_of(p: &PageBuf) -> u64 {
    u64::from_le_bytes(p.as_slice().try_into().unwrap())
}

/// The policy, written the slow way: frames searched linearly, no page
/// table. One per stripe.
#[derive(Default)]
struct ModelStripe {
    frames: Vec<(PageId, bool)>,
    hand: usize,
    capacity: usize,
}

impl ModelStripe {
    fn touch(&mut self, id: PageId) -> bool {
        let frame = self.frames.iter_mut().find(|f| f.0 == id);
        frame.map(|f| f.1 = true).is_some()
    }

    fn insert(&mut self, id: PageId) {
        if self.touch(id) {
            return;
        }
        if self.frames.len() < self.capacity {
            return self.frames.push((id, false));
        }
        loop {
            let at = self.hand;
            self.hand = (at + 1) % self.frames.len();
            if !std::mem::take(&mut self.frames[at].1) {
                return self.frames[at] = (id, false);
            }
        }
    }
}

fn model_of(pool: &BufferPool) -> Vec<ModelStripe> {
    let (cap, n) = (pool.capacity(), pool.num_shards());
    (0..n)
        .map(|i| ModelStripe {
            capacity: cap / n + usize::from(i < cap % n),
            ..Default::default()
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(PageId),
    Insert(PageId),
    Clear,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..64, 0u64..48).prop_map(|(kind, id)| match kind {
        0..=30 => Op::Get(id),
        31..=61 => Op::Insert(id),
        62 => Op::Get(u64::MAX - id),
        _ => Op::Clear,
    });
    proptest::collection::vec(op, 1..400)
}

/// Runs `trace`, checking every step against the references, and returns
/// the positions of the `get`s that missed.
fn run(trace: &[Op], capacity: usize, stripes: usize) -> Vec<usize> {
    let pool = BufferPool::with_shards(capacity, stripes);
    let n = pool.num_shards() as u64;
    let mut model = model_of(&pool);
    let mut written: HashMap<PageId, u64> = HashMap::new();
    // Every page handed out or in stays held to the end of the trace.
    let mut held: Vec<(u64, Arc<PageBuf>)> = Vec::new();
    let mut misses = Vec::new();
    for (step, &op) in trace.iter().enumerate() {
        match op {
            Op::Get(id) => {
                let got = pool.get(id);
                let stripe = &mut model[(id % n) as usize];
                assert_eq!(got.is_some(), stripe.touch(id), "step {step}: {op:?}");
                match got {
                    // A hit is the last page written for the id — never an
                    // earlier version, never another id's.
                    Some(p) => {
                        assert_eq!(tag_of(&p), written[&id], "step {step}: stale hit");
                        held.push((written[&id], p));
                    }
                    None => misses.push(step),
                }
            }
            Op::Insert(id) => {
                let tag = step as u64 + 1;
                let p = page(tag);
                held.push((tag, Arc::clone(&p)));
                pool.insert(id, p);
                model[(id % n) as usize].insert(id);
                written.insert(id, tag);
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
    for (tag, p) in &held {
        assert_eq!(tag_of(p), *tag, "a held page changed under its holder");
    }
    misses
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
            pool.insert(id, page(id));
        }
        let read: Vec<u64> = (0..capacity).filter(|id| read_mask >> id & 1 == 1).collect();
        prop_assume!(read.len() < capacity as usize);
        for &id in &read {
            prop_assert!(pool.get(id).is_some());
        }
        pool.insert(capacity, page(capacity));
        let victim = (0..capacity).find(|id| !read.contains(id)).unwrap();
        for id in 0..=capacity {
            prop_assert_eq!(pool.get(id).is_some(), id != victim, "page {}", id);
        }
    }
}

#[test]
fn a_get_far_beyond_the_file_misses_without_allocating() {
    let pool = BufferPool::new(8);
    pool.insert(3, page(3));
    assert!(pool.get(u64::MAX).is_none());
    assert!(pool.get(u64::MAX / 2).is_none());
    assert_eq!(pool.len(), 1);
}

#[test]
fn a_read_after_pager_write_never_sees_the_old_page() {
    // Six pages through a four-page pool: writes replace cached copies and
    // uncached ones alike, and every read — hit or miss — is the last
    // version written.
    let pager = promips_storage::Pager::in_memory(64, 4);
    let versioned = |v: u8| {
        let mut p = PageBuf::zeroed(64);
        p.as_mut_slice()[0] = v;
        p
    };
    let mut last = [0u8; 6];
    for _ in 0..6 {
        pager.append(versioned(0)).unwrap();
    }
    for round in 1..=200u64 {
        let id = round * 5 % 6;
        last[id as usize] = round as u8;
        pager.write(id, versioned(round as u8)).unwrap();
        for probe in [id, (id + round) % 6, (id + 3) % 6] {
            let got = pager.read(probe).unwrap().as_slice()[0];
            assert_eq!(got, last[probe as usize], "round {round}: page {probe}");
        }
    }
}
