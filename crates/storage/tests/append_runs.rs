//! `Storage::append_pages` / `Pager::append_run`: a run of whole pages in
//! one device write — the same pages, counters and cache as that many
//! single-page appends — and the page file's fault points.

use std::sync::Arc;

use promips_storage::faults::{self, IoOp};
use promips_storage::{FileStorage, MemStorage, Pager, Storage};

/// A run lands as consecutive pages after whatever was allocated
/// before it, byte for byte, and single-page allocation carries on
/// behind it.
fn append_run_roundtrip(storage: Arc<dyn Storage>) {
    let ps = storage.page_size();
    assert_eq!(storage.allocate().unwrap(), 0);
    let run: Vec<u8> = (0..3 * ps).map(|i| (i % 251) as u8).collect();
    assert_eq!(storage.append_pages(&run).unwrap(), 1);
    assert_eq!(storage.num_pages(), 4);
    assert_eq!(storage.allocate().unwrap(), 4);
    let mut r = vec![0u8; ps];
    for (id, want) in (1..).zip(run.chunks_exact(ps)) {
        storage.read_page(id, &mut r).unwrap();
        assert_eq!(r, want, "page {id}");
    }
    for id in [0, 4] {
        storage.read_page(id, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0), "page {id}");
    }
}

#[test]
fn append_pages_roundtrip_mem_and_file() {
    append_run_roundtrip(Arc::new(MemStorage::new(256)));
    let dir = std::env::temp_dir().join(format!("promips-pager-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.bin");
    append_run_roundtrip(Arc::new(FileStorage::create(&path, 256).unwrap()));
    assert_eq!(FileStorage::open(&path, 256).unwrap().num_pages(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[should_panic(expected = "is_multiple_of")]
fn append_pages_rejects_partial_pages() {
    let _ = MemStorage::new(128).append_pages(&[0u8; 200]);
}

/// Page writes, run writes and the data fsync of a page file all pass
/// the fault shim; a failed run allocates nothing.
#[test]
fn file_storage_writes_and_sync_can_be_faulted() {
    let dir = std::env::temp_dir().join(format!("promips-pager-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let s = FileStorage::create(dir.join("pages.bin"), 128).unwrap();
    let arm = |op| {
        faults::arm(faults::FaultPlan {
            op,
            nth: 1,
            path_contains: Some("promips-pager-fault".into()),
        })
    };
    arm(IoOp::Write);
    let err = s.append_pages(&[7u8; 256]).unwrap_err();
    assert!(faults::is_injected(&err), "{err}");
    assert_eq!(s.num_pages(), 0);
    assert_eq!(s.append_pages(&[7u8; 256]).unwrap(), 0);
    assert_eq!(s.num_pages(), 2);
    arm(IoOp::Write);
    assert!(faults::is_injected(
        &s.write_page(1, &[1u8; 128]).unwrap_err()
    ));
    arm(IoOp::Fsync);
    assert!(faults::is_injected(&s.sync().unwrap_err()));
    s.sync().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `append_run` counts and caches page by page, like `append`.
#[test]
fn pager_append_run_counts_and_caches_each_page() {
    let pager = Pager::in_memory(64, 8);
    let run: Vec<u8> = (0..192).map(|i| i as u8).collect();
    assert_eq!(pager.append_run(&run).unwrap(), 0);
    assert_eq!(pager.num_pages(), 3);
    assert_eq!(pager.stats().snapshot().writes, 3);
    for id in 0..3u64 {
        let page = pager.read(id).unwrap();
        assert_eq!(page.as_slice(), &run[id as usize * 64..][..64]);
    }
    let snap = pager.stats().snapshot();
    assert_eq!((snap.logical_reads, snap.cache_misses), (3, 0));
}
