//! The split column sweep: `IDistanceIndex::column_dots` over a column of
//! at least 2 MB, in a pool that holds the whole file, sweeps the
//! first half of its page windows on the calling thread and hands the rest
//! to the process's one sweep helper thread, taking back from the end what
//! the helper has not reached. Whichever thread sweeps a page, the dots are
//! the dense dots, every page is read once, a budget error from the caller's
//! `tick` stops both threads, a read error from either surfaces, and
//! concurrent sweeps that find the helper busy sweep alone. A pool one page
//! short of the file never splits. `CounterId::SplitColumnSweeps` says
//! which sweeps split.
//!
//! The tests run one at a time (`SERIAL`), in a process of their own, so
//! every sweep here that may split does: each asserts the counter moved
//! by exactly its sweeps on a host with two or more cores. A build owns
//! the same helper while it runs (its maps), and a sweep beside it would
//! run serially, so every build here, the shared fixtures included, runs
//! under the guard too. Set `PROMIPS_STRESS=1` for more repetitions.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use promips_data::gen::low_rank;
use promips_idistance::layout::read_blob_range;
use promips_idistance::{build_index, HeadBasis, IDistanceConfig, IDistanceIndex};
use promips_linalg::Matrix;
use promips_obs::CounterId;
use promips_stats::Xoshiro256pp;
use promips_storage::faults::{self, FaultPlan, IoOp, Recurrence};
use promips_storage::{AccessStats, FileStorage, MemStorage, PageId, Pager, Storage};

/// Rows of the full-width fixture: 64-byte rows, just over the split's
/// 2 MB.
const FULL_ROWS: usize = 32_000;
/// Rows of the head fixture: 32-byte prefixes, just over 2 MB.
const HEAD_ROWS: usize = 64_000;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn reps(base: usize) -> usize {
    if std::env::var("PROMIPS_STRESS").as_deref() == Ok("1") {
        10 * base
    } else {
        base
    }
}

/// Whether a sweep that may split does: the helper needs a second core.
fn splits() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

fn split_sweeps() -> u64 {
    promips_obs::global()
        .snapshot()
        .counter(CounterId::SplitColumnSweeps)
}

fn random_matrix(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

/// An index over `orig` on `storage`, through a pool of `capacity` pages.
fn build_on(storage: Arc<dyn Storage>, capacity: usize, orig: &Matrix) -> IDistanceIndex {
    let pager = Arc::new(Pager::new(storage, capacity, AccessStats::new_shared()));
    let proj = random_matrix(orig.rows(), 4, orig.rows() as u64);
    build_index(
        pager,
        &proj,
        orig,
        &IDistanceConfig::default(),
        HeadBasis::estimate(orig, IDistanceConfig::default().seed),
    )
    .unwrap()
}

fn full_rows(n: usize) -> Matrix {
    random_matrix(n, 64, 7)
}

/// The full-width and the head fixture, each in a pool that holds it.
fn fixtures() -> &'static [IDistanceIndex; 2] {
    static FIXTURES: OnceLock<[IDistanceIndex; 2]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let memory = || Arc::new(MemStorage::new(4_096)) as Arc<dyn Storage>;
        let full = build_on(memory(), 1 << 20, &full_rows(FULL_ROWS));
        let head = build_on(memory(), 1 << 20, &low_rank(HEAD_ROWS, 160, 20, 0.3, 8));
        assert_eq!(full.prefix_width(), 64);
        assert_eq!((head.code_width(), head.prefix_width()), (64, 32));
        [full, head]
    })
}

fn random_qcodes(w: usize, seed: u64) -> Vec<i8> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..w).map(|_| rng.below(256) as u8 as i8).collect()
}

/// Every row's dot over its prefix codes, from the column's bytes copied
/// out whole: what a sweep must give, in storage order.
fn dense_dots(idx: &IDistanceIndex, qcodes: &[i8]) -> Vec<i32> {
    let (start, _) = idx.code_region().unwrap();
    let p = idx.prefix_width();
    let column = read_blob_range(idx.pager(), start, 0, idx.len() as usize * p).unwrap();
    column
        .chunks_exact(p)
        .map(|row| {
            row.iter()
                .zip(qcodes)
                .map(|(&c, &q)| c as i32 * q as i32)
                .sum()
        })
        .collect()
}

/// Pages of the column the sweep reads.
fn prefix_pages(idx: &IDistanceIndex) -> u64 {
    (idx.len() * idx.prefix_width() as u64).div_ceil(idx.pager().page_size() as u64)
}

#[test]
fn split_sweeps_are_the_dense_dots_and_read_each_page_once() {
    let _serial = serial();
    for (i, idx) in fixtures().iter().enumerate() {
        assert!(idx.len() * idx.prefix_width() as u64 >= 2_000_000);
        let qcodes = random_qcodes(idx.code_width(), i as u64);
        let want = dense_dots(idx, &qcodes);
        let pages = prefix_pages(idx);
        let (before, mut dots) = (split_sweeps(), vec![7; 3]);
        for rep in 0..reps(50) {
            idx.pager().stats().reset();
            idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
            assert_eq!(dots, want, "fixture {i}, rep {rep}");
            assert_eq!(idx.access_stats().logical_reads, pages, "every page once");
            assert_eq!(idx.access_stats().cache_misses, 0);
        }
        let split = split_sweeps() - before;
        assert_eq!(split, if splits() { reps(50) as u64 } else { 0 });
    }
}

/// The caller's `tick` fails at its k-th page, for k across the caller's
/// half and the windows it takes back: the error comes back, no thread
/// hangs, `dots` holds a prefix of the right dots, and the next sweep is
/// whole.
#[test]
fn a_tick_error_stops_both_halves_and_the_next_sweep_is_whole() {
    let _serial = serial();
    let idx = &fixtures()[0];
    let qcodes = random_qcodes(idx.code_width(), 11);
    let want = dense_dots(idx, &qcodes);
    let pages = prefix_pages(idx);
    let before = split_sweeps();
    let mut dots = Vec::new();
    let n = reps(100);
    for rep in 0..n {
        let stop_at = 1 + rep as u64 * pages / n as u64;
        let mut ticks = 0;
        let stopped = idx.column_dots(&qcodes, &mut dots, || {
            ticks += 1;
            if ticks == stop_at {
                return Err(io::Error::other("stop"));
            }
            Ok(())
        });
        if ticks < stop_at {
            // The caller swept fewer pages than `stop_at`: the helper took
            // the rest, and nothing stopped.
            stopped.unwrap();
            assert_eq!(dots, want);
            continue;
        }
        assert_eq!(stopped.unwrap_err().to_string(), "stop", "rep {rep}");
        assert_eq!(ticks, stop_at, "no tick after the failed one");
        assert!(dots.len() < want.len());
        assert_eq!(dots, want[..dots.len()], "rep {rep}");

        idx.pager().stats().reset();
        idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
        assert_eq!(dots, want, "rep {rep}");
        assert_eq!(idx.access_stats().logical_reads, pages);
    }
    assert!(!splits() || split_sweeps() - before >= n as u64);
}

/// A read fault at each device read of a cold sweep, whichever thread
/// makes it: the sweep returns the injected error or, if the fault never
/// fired, the right dots; never wrong dots.
#[test]
fn a_read_fault_gives_an_error_or_the_right_dots() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("promips-split-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("split-sweep.pmx");
    let storage = Arc::new(FileStorage::create(&path, 4_096).unwrap());
    let idx = build_on(storage, 1 << 20, &full_rows(FULL_ROWS));
    let qcodes = random_qcodes(idx.code_width(), 12);
    let want = dense_dots(&idx, &qcodes);
    let windows = prefix_pages(&idx).div_ceil(idx.pager().stripes() as u64);
    let mut dots = Vec::new();
    let (mut failed, before) = (0, split_sweeps());
    for nth in 1..=windows + 1 {
        idx.pager().clear_cache();
        faults::arm_with(
            FaultPlan {
                op: IoOp::Read,
                nth,
                path_contains: Some(path.to_string_lossy().into_owned()),
            },
            Recurrence::Once,
            io::ErrorKind::Other,
        );
        let swept = idx.column_dots(&qcodes, &mut dots, || Ok(()));
        let unfired = faults::disarm();
        match swept {
            Ok(()) => {
                assert!(unfired, "a fired fault must surface (nth {nth})");
                assert_eq!(dots, want, "nth {nth}");
            }
            Err(e) => {
                assert!(faults::is_injected(&e), "nth {nth}: {e}");
                assert_eq!(dots, want[..dots.len()], "nth {nth}");
                failed += 1;
            }
        }
    }
    assert_eq!(
        failed, windows,
        "one fault a device read, the last one past the sweep"
    );
    assert_eq!(
        split_sweeps() - before,
        if splits() { windows + 1 } else { 0 }
    );
    idx.pager().clear_cache();
    idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
    assert_eq!(dots, want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two threads sweep one index at once: one of them may find the helper
/// busy and sweep alone; every answer is the dense dots.
#[test]
fn concurrent_sweeps_of_one_index_agree() {
    let _serial = serial();
    let idx = &fixtures()[0];
    let qcodes = random_qcodes(idx.code_width(), 13);
    let want = dense_dots(idx, &qcodes);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut dots = Vec::new();
                for rep in 0..reps(200) {
                    idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
                    assert_eq!(dots, want, "rep {rep}");
                }
            });
        }
    });
}

/// `MemStorage` that counts the device reads made of it.
struct CountingReads(MemStorage, AtomicU64);

impl Storage for CountingReads {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.0.num_pages()
    }
    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.read_pages(first, buf)
    }
    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        self.0.append_pages(bytes)
    }
    fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

/// The same file through a pool that holds it and through one a page
/// short of it: the first splits, the second sweeps alone, and a cold
/// sweep of either misses every page once in the same device reads, one
/// a window.
#[test]
fn a_pool_one_page_short_of_the_file_sweeps_alone() {
    let _serial = serial();
    let device = Arc::new(CountingReads(MemStorage::new(4_096), AtomicU64::new(0)));
    let whole = build_on(Arc::clone(&device) as _, 1 << 20, &full_rows(FULL_ROWS));
    let file_pages = device.num_pages() as usize;
    let short = Arc::new(Pager::new(
        Arc::clone(&device) as _,
        file_pages - 1,
        AccessStats::new_shared(),
    ));
    let short = IDistanceIndex::open(short).unwrap();
    let qcodes = random_qcodes(whole.code_width(), 14);
    let want = dense_dots(&whole, &qcodes);
    let pages = prefix_pages(&whole);
    let windows = pages.div_ceil(whole.pager().stripes() as u64);
    let mut dots = Vec::new();
    for (idx, may_split) in [(&whole, true), (&short, false)] {
        for cold in [true, false, true] {
            if cold {
                idx.pager().clear_cache();
            }
            idx.pager().stats().reset();
            let (reads, split) = (device.1.load(Ordering::Relaxed), split_sweeps());
            idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
            let device_reads = device.1.load(Ordering::Relaxed) - reads;
            assert_eq!(dots, want);
            let snap = idx.access_stats();
            assert_eq!(snap.logical_reads, pages);
            let misses = if cold { (pages, windows) } else { (0, 0) };
            assert_eq!((snap.cache_misses, device_reads), misses, "cold {cold}");
            let split = split_sweeps() - split;
            assert_eq!(
                split,
                u64::from(may_split && splits()),
                "may split {may_split}"
            );
        }
    }
}

/// Times the serial and the split sweep of full-width 64-byte columns of
/// 0.25 to 3.2 MB, hot, in 10 alternating rounds of 50 sweeps each, and
/// prints each size's median over the rounds of a round's median sweep,
/// and how many rounds the split won. The serial sweep is the same file through a pool a page
/// short of it. Sizes below the split threshold sweep alone both ways:
/// to re-derive the threshold, set it to 0 in a copy and run
/// `cargo test --release -p promips_idistance --test split_sweep -- --ignored --nocapture`
/// on an otherwise idle host.
#[test]
#[ignore]
fn split_sweep_rates() {
    let _serial = serial();
    println!("| column | serial µs (median) | split µs (median) | split wins |");
    for mb in [0.25, 0.5, 1.0, 2.0, 3.2] {
        let n = (mb * 1e6 / 64.0) as usize;
        let device = Arc::new(MemStorage::new(4_096));
        let split = build_on(Arc::clone(&device) as _, 1 << 20, &full_rows(n));
        let short = Pager::new(
            Arc::clone(&device) as _,
            device.num_pages() as usize - 1,
            AccessStats::new_shared(),
        );
        let serial = IDistanceIndex::open(Arc::new(short)).unwrap();
        let qcodes = random_qcodes(64, 15);
        let mut dots = Vec::new();
        // A round's time is the median of its 50 sweeps.
        let mut time = |idx: &IDistanceIndex| {
            let mut us: Vec<f64> = (0..50)
                .map(|_| {
                    let start = std::time::Instant::now();
                    idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            us[25]
        };
        time(&split);
        time(&serial);
        let (mut serial_us, mut split_us, mut wins) = (Vec::new(), Vec::new(), 0);
        for round in 0..10 {
            let (a, b) = if round % 2 == 0 {
                let a = time(&serial);
                (a, time(&split))
            } else {
                let b = time(&split);
                (time(&serial), b)
            };
            wins += usize::from(b < a);
            serial_us.push(a);
            split_us.push(b);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            (v[4] + v[5]) / 2.0
        };
        println!(
            "| {mb} MB | {:.1} | {:.1} | {wins}/10 |",
            median(&mut serial_us),
            median(&mut split_us)
        );
    }
}
