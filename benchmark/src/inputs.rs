//! Workload inputs. The *dataset* of a workload is part of its
//! definition: always the same matrix. What `--seed` draws is the traffic
//! — the queries, and for the churn which rows are deleted when — so the
//! same seed gives the same inputs and different seeds give genuinely
//! different request streams over one dataset.
//!
//! (With the matrix itself drawn from the seed, `pages_per_query` on
//! `lf300_hot` ranged over 10.2 k–14.3 k across ten seeds: dataset-level
//! luck of the low-rank mixing matrix, which no number of queries
//! averages out and which would drown any bound on a count metric.)

use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Instant, UNIX_EPOCH};

use promips::data::gen;
use promips::linalg::Matrix;
use promips::stats::Xoshiro256pp;

use crate::harness::exe_dir;
use crate::spec::Scale;

pub struct Inputs {
    pub data: Matrix,
    pub queries: Matrix,
    /// `data.gen_s`: generating the dataset, or reading back the one a run
    /// before kept, and drawing the queries — the benchmark's own overhead,
    /// not part of `setup_s`.
    pub gen_s: f64,
}

/// Generator seed of both datasets.
const DATA_SEED: u64 = 1;
/// Keeps the query stream of seed `s` apart from a dataset of seed `s`.
const QUERY_STREAM: u64 = 0x5EED_0F0A_11CE_0001;

/// The datasets never change, and generating one takes 3 s of a 25 s run
/// that the driver's time cap has no room for: the first run of a build
/// keeps each matrix beside the executable and the later ones read it back
/// (0.1 s). The file name carries the executable's modification time, so a
/// rebuilt benchmark — whose generator may have changed — generates afresh
/// and removes what the build before it kept. Any trouble with the file
/// falls back to generating.
fn fixed_dataset(
    tag: &str,
    rows: usize,
    cols: usize,
    generate: impl FnOnce() -> Matrix,
) -> io::Result<Matrix> {
    let built = fs::metadata(std::env::current_exe()?)?
        .modified()?
        .duration_since(UNIX_EPOCH)
        .map_err(io::Error::other)?
        .as_nanos();
    let dir = exe_dir()?;
    let prefix = format!("bench-data-{tag}-");
    let kept = format!("{prefix}{built}");
    let path = dir.join(format!("{kept}.f32"));
    if let Ok(values) = read_f32s(&path, rows * cols) {
        return Ok(Matrix::from_vec(rows, cols, values));
    }
    let data = generate();
    for entry in fs::read_dir(&dir)?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&prefix) && !name.starts_with(&kept) {
            let _ = fs::remove_file(entry.path());
        }
    }
    // Written under a name of its own first (the tests run workloads side by
    // side), so that the kept file is whole from the moment it exists.
    static WRITERS: AtomicU32 = AtomicU32::new(0);
    let partial = dir.join(format!(
        "{kept}.{}-{}.part",
        std::process::id(),
        WRITERS.fetch_add(1, Ordering::Relaxed)
    ));
    let written = write_f32s(&partial, data.as_slice()).and_then(|()| fs::rename(&partial, &path));
    if let Err(e) = written {
        let _ = fs::remove_file(&partial);
        println!("dataset not kept for the next run: {e}");
    }
    Ok(data)
}

/// Reads exactly `len` little-endian `f32`s, a block at a time: the whole
/// file beside the vector would show in `peak_rss_mb`.
fn read_f32s(path: &Path, len: usize) -> io::Result<Vec<f32>> {
    let mut file = File::open(path)?;
    if file.metadata()?.len() != (len * 4) as u64 {
        return Err(io::Error::other("dataset file of another size"));
    }
    let mut values = Vec::with_capacity(len);
    let mut block = vec![0u8; 1 << 20];
    while values.len() < len {
        let bytes = (4 * (len - values.len())).min(block.len());
        file.read_exact(&mut block[..bytes])?;
        values.extend(
            block[..bytes]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }
    Ok(values)
}

fn write_f32s(path: &Path, values: &[f32]) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    for v in values {
        file.write_all(&v.to_le_bytes())?;
    }
    file.flush()
}

/// Yahoo-shaped latent factors at ⅙ scale; each of the `queries` queries
/// is a seeded data row plus 0.1·N(0,1) per coordinate.
pub fn latent_factor(scale: &Scale, seed: u64, queries: usize) -> io::Result<Inputs> {
    let t = Instant::now();
    let (n, d, rank, sigma) = (scale.lf_n, scale.lf_d, scale.lf_rank, scale.lf_sigma);
    let tag = format!("lf-{n}x{d}-r{rank}-s{sigma}-g{DATA_SEED}");
    let data = fixed_dataset(&tag, n, d, || {
        gen::latent_factor(n, d, rank, sigma, DATA_SEED)
    })?;
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ QUERY_STREAM);
    let queries = Matrix::from_rows(
        scale.lf_d,
        (0..queries).map(|_| {
            let row = data.row(rng.below(scale.lf_n as u64) as usize);
            row.iter().map(|&x| x + 0.1 * rng.normal() as f32).collect()
        }),
    );
    Ok(Inputs {
        data,
        queries,
        gen_s: t.elapsed().as_secs_f64(),
    })
}

/// Gaussian directions with norms log-uniform over three decades, and
/// seeded Gaussian queries.
pub fn norm_skewed(scale: &Scale, seed: u64) -> io::Result<Inputs> {
    let t = Instant::now();
    let (n, d) = (scale.skew_n, scale.skew_d);
    let tag = format!("skew-{n}x{d}-g{DATA_SEED}");
    let data = fixed_dataset(&tag, n, d, || gen::norm_skewed(n, d, DATA_SEED))?;
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ QUERY_STREAM);
    let queries = Matrix::from_rows(
        scale.skew_d,
        (0..scale.skew_queries).map(|_| (0..scale.skew_d).map(|_| rng.normal() as f32).collect()),
    );
    Ok(Inputs {
        data,
        queries,
        gen_s: t.elapsed().as_secs_f64(),
    })
}
