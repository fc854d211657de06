//! The pager's unit tests. Compiled into the library's unit-test binary
//! (`src/pager.rs` includes this file by path), so they sit outside the
//! `src` line budget while the suite still names them `pager::tests::…`;
//! they reach the pager's private pool.

use super::*;

fn roundtrip(storage: Arc<dyn Storage>) {
    let ps = storage.page_size();
    let id0 = storage.append_pages(&vec![0u8; ps]).unwrap();
    let mut w = vec![0u8; ps];
    w[0] = 0xAB;
    w[ps - 1] = 0xCD;
    let id1 = storage.append_pages(&w).unwrap();
    assert_eq!((id0, id1), (0, 1));
    let mut r = vec![0u8; ps];
    storage.read_pages(id1, &mut r).unwrap();
    assert_eq!(r, w);
    storage.read_pages(id0, &mut r).unwrap();
    assert!(r.iter().all(|&b| b == 0));
    // Both pages in one read.
    let mut both = vec![0u8; 2 * ps];
    storage.read_pages(id0, &mut both).unwrap();
    assert!(both[..ps].iter().all(|&b| b == 0));
    assert_eq!(both[ps..], w);
}

#[test]
fn mem_storage_roundtrip() {
    roundtrip(Arc::new(MemStorage::new(256)));
}

#[test]
fn file_storage_roundtrip() {
    let dir = std::env::temp_dir().join(format!("promips-pager-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.bin");
    roundtrip(Arc::new(FileStorage::create(&path, 256).unwrap()));
    // Re-open and confirm persistence.
    let reopened = FileStorage::open(&path, 256).unwrap();
    assert_eq!(reopened.num_pages(), 2);
    let mut r = vec![0u8; 256];
    reopened.read_pages(1, &mut r).unwrap();
    assert_eq!(r[0], 0xAB);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mem_storage_missing_page_errors() {
    let s = MemStorage::new(128);
    let mut buf = vec![0u8; 128];
    assert!(s.read_pages(3, &mut buf).is_err());
}

#[test]
fn pager_counts_logical_reads_and_cache() {
    let pager = Pager::in_memory(128, 8);
    let mut page = [0u8; 128];
    page[7] = 9;
    let id = pager.append_run(&page).unwrap();

    // First read after the append: cache hit (the append cached the page).
    let p = pager.read(id).unwrap();
    assert_eq!(p.as_slice()[7], 9);
    let snap = pager.stats().snapshot();
    assert_eq!(snap.logical_reads, 1);
    assert_eq!(snap.cache_hits, 1);

    pager.clear_cache();
    let _ = pager.read(id).unwrap();
    let snap = pager.stats().snapshot();
    assert_eq!(snap.logical_reads, 2);
    assert_eq!(snap.cache_misses, 1);
}

#[test]
fn concurrent_readers_get_correct_pages_within_capacity() {
    // Stress the striped pool through the full pager path: many threads
    // read a page set larger than the pool, so stripes churn constantly.
    // Every read — single or in a run — must return the page's own content,
    // and the cache must never hold more pages than its total capacity.
    for (pool_pages, shards) in [(1usize, 1usize), (4, 4), (24, 16)] {
        let pager = Arc::new(Pager::in_memory(64, pool_pages));
        assert_eq!(pager.stripes(), shards);
        let n_pages = 200u64;
        for i in 0..n_pages {
            let mut b = [0u8; 64];
            b[0] = (i % 251) as u8;
            b[63] = (i % 13) as u8;
            pager.append_run(&b).unwrap();
        }
        pager.clear_cache();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pager = Arc::clone(&pager);
                s.spawn(move || {
                    let mut run = vec![None; shards];
                    for round in 0..3_000u64 {
                        let first = (round * 31 + t * 47) % (n_pages - shards as u64);
                        // Threads 0 and 1 read one page, 2 and 3 a run.
                        let n = if t < 2 { 1 } else { shards };
                        pager.read_run(first, &mut run[..n]).unwrap();
                        for (id, p) in (first..).zip(&run[..n]) {
                            let p = p.as_ref().unwrap().as_slice();
                            assert_eq!(p[0], (id % 251) as u8, "page {id}");
                            assert_eq!(p[63], (id % 13) as u8, "page {id}");
                        }
                    }
                });
            }
        });
        let cached = pager.pool.len();
        assert!(
            cached <= pool_pages,
            "shards={shards}: {cached} cached pages exceed capacity {pool_pages}"
        );
        let snap = pager.stats().snapshot();
        assert_eq!(snap.logical_reads, 3_000 * (2 + 2 * shards as u64));
        assert_eq!(snap.cache_hits + snap.cache_misses, snap.logical_reads);
    }
}

#[test]
fn pager_eviction_still_correct() {
    let pager = Pager::in_memory(64, 2); // tiny pool forces eviction
    let ids: Vec<PageId> = (0..5)
        .map(|i| {
            let mut b = [0u8; 64];
            b[0] = i as u8;
            pager.append_run(&b).unwrap()
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(pager.read(id).unwrap().as_slice()[0], i as u8);
    }
}
