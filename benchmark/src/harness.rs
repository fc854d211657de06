//! Measurement plumbing shared by every workload: order statistics, the
//! per-query latency table, the host-drift probe, peak RSS, and the
//! scratch directory.

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The smallest value: the fastest of several timings of the same work.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Latencies of a workload that repeats identical work: `passes`
/// repetitions of the same `queries` against the same index state. A
/// query's latency *sample* is its fastest pass, and the pass counts are
/// constants of `spec.rs`, so the statistic has one definition.
///
/// Not the per-query median: the workloads check that every timed pass
/// returns the same results and reads and misses the same pages, so
/// whatever differs between two timings of a query is the host, and the
/// host only ever adds time — here in bursts of seconds that slow whole
/// passes by 15 %. Over five same-seed runs the per-query median moved
/// p50 by 6 % and p95 by 29 %, the per-query minimum by 1 % and 9 %. A
/// cost the program pays on every pass stays in the minimum; one it paid
/// on some passes only would fail the identical-work check.
pub struct LatencyTable {
    per_query: Vec<Vec<f64>>,
}

impl LatencyTable {
    pub fn new(queries: usize) -> Self {
        Self {
            per_query: vec![Vec::new(); queries],
        }
    }

    pub fn record(&mut self, query: usize, micros: f64) {
        self.per_query[query].push(micros);
    }

    /// One sample per query. A query that never completed has none.
    pub fn samples(&self) -> Vec<f64> {
        self.per_query
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| fastest(v))
            .collect()
    }
}

pub fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The host-drift probe: one scalar `f32` dot sweep over a 64 MB buffer,
/// no repository code. Timed before and after each timed phase so a reader
/// can tell a slow host from a slow program. Diagnostic only — never a
/// metric, never used to rescale one.
pub struct HostCalib {
    buf: Vec<f32>,
}

impl HostCalib {
    pub fn new() -> Self {
        Self {
            buf: (0..16 * 1024 * 1024).map(|i| (i % 251) as f32).collect(),
        }
    }

    pub fn sweep_us(&self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for &x in black_box(&self.buf) {
            acc += x * x;
        }
        black_box(acc);
        micros_since(t)
    }
}

impl Default for HostCalib {
    fn default() -> Self {
        Self::new()
    }
}

/// `host_calib_us` line for the run header; flags a drift above 10 %.
pub fn calib_line(phase: &str, before: f64, after: f64) -> String {
    let drift = (after - before).abs() / before.min(after);
    format!(
        "host_calib_us[{phase}] before={before:.0} after={after:.0}{}",
        if drift > 0.10 {
            "  ** HOST DRIFT > 10 % **"
        } else {
            ""
        }
    )
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// A scratch directory beside the benchmark executable. Removed on drop, on failure and on panic unwinding too; what a killed
/// run left behind is removed by the next run's first `new`.
pub struct ScratchDir {
    path: PathBuf,
}

const SCRATCH_PREFIX: &str = "bench-tmp-";
static SCRATCH_SEQ: AtomicU32 = AtomicU32::new(0);

/// The directory of the benchmark executable: inside the build directory,
/// so inside the checkout, which is all a run may write to.
pub fn exe_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe.parent().unwrap_or(Path::new(".")).to_path_buf())
}

impl ScratchDir {
    pub fn new(tag: &str) -> io::Result<Self> {
        let base = &exe_dir()?;
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        if seq == 0 {
            sweep_stale(base)?;
        }
        let path = base.join(format!(
            "{SCRATCH_PREFIX}{}-{seq}-{tag}",
            std::process::id()
        ));
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Removes the scratch directories under `base` whose process is gone.
fn sweep_stale(base: &Path) -> io::Result<()> {
    for entry in fs::read_dir(base)? {
        let entry = entry?;
        let name = entry.file_name();
        let owner = name
            .to_str()
            .and_then(|n| n.strip_prefix(SCRATCH_PREFIX))
            .and_then(|rest| rest.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if owner.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
    Ok(())
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
    }

    #[test]
    fn failed_queries_have_no_sample() {
        let mut t = LatencyTable::new(3);
        t.record(0, 5.0);
        t.record(0, 7.0);
        t.record(0, 6.0);
        t.record(2, 1.0);
        assert_eq!(t.samples(), vec![5.0, 1.0]);
    }

    #[test]
    fn a_dead_runs_scratch_dir_is_swept() {
        let base = std::env::current_exe().unwrap();
        let base = base.parent().unwrap();
        // No process has pid u32::MAX (the kernel's limit is 2^22).
        let stale = base.join(format!("{SCRATCH_PREFIX}{}-0-t", u32::MAX));
        let own = base.join(format!("{SCRATCH_PREFIX}{}-99-t", std::process::id()));
        fs::create_dir_all(&stale).unwrap();
        fs::create_dir_all(&own).unwrap();
        sweep_stale(base).unwrap();
        assert!(!stale.exists());
        assert!(own.exists());
        fs::remove_dir(&own).unwrap();
    }

    #[test]
    fn scratch_dir_is_removed() {
        let path = {
            let dir = ScratchDir::new("t").unwrap();
            fs::write(dir.path().join("f"), b"abc").unwrap();
            assert_eq!(dir_bytes(dir.path()).unwrap(), 3);
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
