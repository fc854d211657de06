//! The build on two cores writes the bytes the build on one writes. Each
//! case builds twice into files of its own: once with the process's sweep
//! helper free, so the build's maps (projection blocks, stage-1
//! assignment blocks, stage-2 groups, SQ8 code rows) share their items
//! with it, and once inside a `sweep::join` whose own side runs the build,
//! which holds the helper so every map runs on the caller, in item order.
//! Every file the two write is compared byte for byte: a head-coded index
//! (d ≥ 128), a full-width one (d = 64), one without the verification
//! tier, and a durable 3-shard directory after inserts, deletes,
//! `compact_all` and `repartition`.
//!
//! The tests run one at a time (`serial`), so the first build of each
//! finds the helper free.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use promips_core::{ProMips, ProMipsConfig};
use promips_data::gen::low_rank;
use promips_idistance::IDistanceConfig;
use promips_linalg::Matrix;
use promips_shard::{ShardedConfig, ShardedProMips};
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, Pager};

mod common;
use common::with_helper_owned;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-bytes-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = (fs::read_dir(dir).unwrap())
        .map(|e| e.unwrap().path())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_same_files(two: &Path, one: &Path) {
    let (two, one) = (files(two), files(one));
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&two), names(&one));
    for ((name, two), (_, one)) in two.iter().zip(&one) {
        assert_eq!(two.len(), one.len(), "{name}: lengths differ");
        let at = two.iter().zip(one).position(|(a, b)| a != b);
        assert_eq!(at, None, "{name}: first differing byte");
    }
}

fn gaussian(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let rows = (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<_>>());
    Matrix::from_rows(d, rows)
}

/// Builds and saves an index over `data` into `dir/index.pmx`.
fn build_file(data: &Matrix, config: &ProMipsConfig, dir: &Path) -> ProMips {
    let storage = FileStorage::create(dir.join("index.pmx"), config.page_size).unwrap();
    let pager = Pager::new(Arc::new(storage), 1 << 16, AccessStats::new_shared());
    let index = ProMips::build_with_pager(data, config.clone(), Arc::new(pager)).unwrap();
    index.save().unwrap();
    index
}

/// Builds the same index on two cores and on one and compares the files;
/// returns the two-core build.
fn same_index_bytes(tag: &str, data: &Matrix, config: ProMipsConfig) -> ProMips {
    let _serial = serial();
    let (two, one) = (
        temp_dir(&format!("{tag}-two")),
        temp_dir(&format!("{tag}-one")),
    );
    let built = build_file(data, &config, &two);
    with_helper_owned(|| build_file(data, &config, &one));
    assert_same_files(&two, &one);
    let _ = (fs::remove_dir_all(&two), fs::remove_dir_all(&one));
    built
}

#[test]
fn a_head_index_is_the_same_bytes() {
    let data = low_rank(24_000, 160, 20, 0.3, 11);
    let built = same_index_bytes("head", &data, ProMipsConfig::default());
    let idx = built.idistance();
    assert!(
        idx.head().is_some() && idx.code_width() < 160,
        "a head index"
    );
    let t = built.build_timings();
    assert!(t.head_ms > 0.0, "the basis estimate is timed");
    assert_eq!(
        t.total_ms(),
        t.head_ms + t.project_ms + t.quickprobe_ms + t.index_ms
    );
}

#[test]
fn a_full_width_index_is_the_same_bytes() {
    let data = gaussian(24_000, 64, 12);
    let built = same_index_bytes("full", &data, ProMipsConfig::default());
    assert_eq!(built.idistance().code_width(), 64, "full-width codes");
}

#[test]
fn an_index_without_the_verification_tier_is_the_same_bytes() {
    let data = low_rank(24_000, 160, 20, 0.3, 13);
    let idistance = IDistanceConfig {
        verify_quantize: false,
        ..Default::default()
    };
    let config = ProMipsConfig::builder().idistance(idistance).build();
    let built = same_index_bytes("plain", &data, config);
    assert!(built.idistance().code_region().is_none(), "no code region");
}

#[test]
fn a_compacted_and_repartitioned_directory_is_the_same_bytes() {
    let _serial = serial();
    let data = low_rank(18_000, 160, 20, 0.3, 14);
    let base_rows: Vec<usize> = (0..12_000).collect();
    let base = data.gather(&base_rows);
    let churn = |dir: &Path| {
        let config = ShardedConfig::builder().shards(3).build();
        let index = ShardedProMips::build_in_dir(&base, config, dir).unwrap();
        index
            .insert_batch((12_000..18_000).map(|r| data.row(r)))
            .unwrap();
        for id in (0..18_000).step_by(7) {
            index.delete(id).unwrap();
        }
        index.compact_all().unwrap();
        index.repartition().unwrap();
    };
    let (two, one) = (temp_dir("dir-two"), temp_dir("dir-one"));
    churn(&two);
    with_helper_owned(|| churn(&one));
    assert_same_files(&two, &one);
    let _ = (fs::remove_dir_all(&two), fs::remove_dir_all(&one));
}
