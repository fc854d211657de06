//! Disk persistence: build the iDistance layer into a real page file,
//! reopen it in a fresh process-like context, and compare cold vs warm
//! page accesses — the disk-resident behaviour the paper evaluates.
//!
//! Run with: `cargo run --release --example persistence`

use std::sync::Arc;

use promips::idistance::{build_index, HeadBasis, IDistanceConfig, IDistanceIndex};
use promips::linalg::Matrix;
use promips::stats::Xoshiro256pp;
use promips::storage::{AccessStats, FileStorage, Pager, PAGE_SIZE_DEFAULT};

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("promips-persistence-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("index.pmx");

    // Some projected + original data (in the full pipeline promips-core
    // does the projection; here we drive the index layer directly).
    let (n, m, d) = (20_000usize, 8usize, 96usize);
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let proj = Matrix::from_rows(
        m,
        (0..n).map(|_| (0..m).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    );
    let orig = Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    );

    // Build into a file-backed pager.
    println!("building iDistance index into {} …", path.display());
    let storage = Arc::new(FileStorage::create(&path, PAGE_SIZE_DEFAULT)?);
    let pager = Arc::new(Pager::new(storage, 2048, AccessStats::new_shared()));
    let cfg = IDistanceConfig {
        kp: 5,
        nkey: 16,
        ksp: 6,
        ..Default::default()
    };
    let index = build_index(
        pager,
        &proj,
        &orig,
        &cfg,
        HeadBasis::estimate(&orig, cfg.seed),
    )?;
    println!(
        "  {} points, {} sub-partitions, file = {:.2} MB",
        index.len(),
        index.subparts().len(),
        index.size_bytes() as f64 / 1048576.0
    );
    drop(index);

    // Reopen from the footer, as a restarted process would.
    println!("\nreopening from disk …");
    let storage = Arc::new(FileStorage::open(&path, PAGE_SIZE_DEFAULT)?);
    let pager = Arc::new(Pager::new(storage, 2048, AccessStats::new_shared()));
    let index = IDistanceIndex::open(pager)?;
    println!(
        "  reopened: {} points, m = {}",
        index.len(),
        index.proj_dim()
    );

    // Cold query vs warm query.
    let pq: Vec<f32> = (0..m).map(|_| rng.normal() as f32).collect();
    index.pager().clear_cache();
    index.pager().stats().reset();
    let cold = index.range_candidates(&pq, -1.0, 2.0)?;
    let cold_stats = index.access_stats();

    index.pager().stats().reset();
    let warm = index.range_candidates(&pq, -1.0, 2.0)?;
    let warm_stats = index.access_stats();
    assert_eq!(cold.len(), warm.len());

    println!(
        "\nrange query ({} candidates):\n  cold: {} logical reads, {} buffer misses\n  \
         warm: {} logical reads, {} buffer misses",
        cold.len(),
        cold_stats.logical_reads,
        cold_stats.cache_misses,
        warm_stats.logical_reads,
        warm_stats.cache_misses
    );
    println!(
        "\n(logical reads — the paper's Page Access metric — are identical; \
         only the physical misses disappear once the buffer pool is warm)"
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
