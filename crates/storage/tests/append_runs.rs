//! `Storage::append_pages` / `Pager::append_run`, the only way a page gets
//! into a file: a run of whole pages in one device write, each page
//! counted and cached — and the page file's fault points, a failed
//! `Pager::read_run` among them.

use std::sync::{Arc, Mutex};

use promips_storage::faults::{self, IoOp};
use promips_storage::{AccessStats, FileStorage, MemStorage, PageBuf, Pager, Storage};

/// Fault plans are process-global: the tests arming them take turns.
static FAULTS: Mutex<()> = Mutex::new(());

/// A run lands as consecutive pages after whatever was written before
/// it, byte for byte, and the next append carries on behind it.
fn append_run_roundtrip(storage: Arc<dyn Storage>) {
    let ps = storage.page_size();
    let zero = vec![0u8; ps];
    assert_eq!(storage.append_pages(&zero).unwrap(), 0);
    let run: Vec<u8> = (0..3 * ps).map(|i| (i % 251) as u8).collect();
    assert_eq!(storage.append_pages(&run).unwrap(), 1);
    assert_eq!(storage.num_pages(), 4);
    assert_eq!(storage.append_pages(&zero).unwrap(), 4);
    let mut r = vec![0u8; 5 * ps];
    storage.read_pages(0, &mut r).unwrap();
    assert_eq!(r[ps..4 * ps], run, "the run, read back in one read");
    for id in [0, 4] {
        assert!(r[id * ps..][..ps].iter().all(|&b| b == 0), "page {id}");
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

/// Appends and the data fsync of a page file both pass the fault shim;
/// a failed append adds no page.
#[test]
fn file_storage_writes_and_sync_can_be_faulted() {
    let _turn = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
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
    arm(IoOp::Fsync);
    assert!(faults::is_injected(&s.sync().unwrap_err()));
    s.sync().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `append_run` counts a write and caches a copy for each page.
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

/// A device read that fails caches none of its pages: the run before it
/// in the same window stays cached, pages cached before it keep their
/// bytes, and the retry reads the failed pages afresh.
#[test]
fn a_failed_run_caches_nothing() {
    let _turn = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("promips-run-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ps = 128;
    let file: Vec<u8> = (0..8 * ps).map(|i| (i % 253) as u8).collect();
    let storage = FileStorage::create(dir.join("pages.bin"), ps).unwrap();
    storage.append_pages(&file).unwrap();
    let pager = Pager::new(Arc::new(storage), 8, AccessStats::new_shared());
    let bytes = |id: u64| &file[id as usize * ps..][..ps];
    let misses = || pager.stats().snapshot().cache_misses;
    let cached: Vec<Arc<PageBuf>> = [0, 3].map(|id| pager.read(id).unwrap()).into();

    // Pages 0..6 with 0 and 3 cached: two device reads, 1–2 and 4–5. The
    // second fails (were a run more than one read, page 2's would).
    faults::arm(faults::FaultPlan {
        op: IoOp::Read,
        nth: 2,
        path_contains: Some("promips-run-fault".into()),
    });
    let mut run = vec![None; 6];
    let err = pager.read_run(0, &mut run).unwrap_err();
    assert!(faults::is_injected(&err), "{err}");
    assert!(!faults::disarm(), "the plan fired");

    // 0–3 are cached with their bytes (a hit each); 4 and 5 are not.
    let at = misses();
    for id in 0..4 {
        assert_eq!(pager.read(id).unwrap().as_slice(), bytes(id), "page {id}");
    }
    assert_eq!(misses(), at, "0–3 hit");
    for (id, page) in [0, 3].into_iter().zip(&cached) {
        assert_eq!(page.as_slice(), bytes(id), "held page {id}");
    }
    let mut retry = vec![None; 6];
    pager.read_run(0, &mut retry).unwrap();
    for (id, page) in (0..).zip(&retry) {
        assert_eq!(page.as_ref().unwrap().as_slice(), bytes(id), "page {id}");
    }
    assert_eq!(misses(), at + 2, "only 4 and 5 came from the device");
    std::fs::remove_dir_all(&dir).unwrap();
}
