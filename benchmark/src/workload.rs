//! What the four workloads share: dispatch and the end-to-end metric set.

use std::io;

use crate::harness::{median, peak_rss_mb, percentile};
use crate::quality::{Quality, P};
use crate::report::{Metrics, Report};
use crate::spec::{Scale, Workload, END_TO_END};
use crate::{churn, sharded, single};

/// Runs one workload. `trace` selects the traced run (per-layer metrics)
/// over the untraced one (end-to-end metrics).
pub fn run(workload: Workload, scale: &Scale, seed: u64, trace: bool) -> io::Result<Report> {
    println!(
        "workload={} seed={seed} trace={} backend={} threads=1",
        workload.name(),
        trace as u8,
        promips::linalg::active_backend()
    );
    match workload {
        Workload::Lf300Hot | Workload::Lf300Cold => single::run(workload, scale, seed, trace),
        Workload::Skew64Shard4 => sharded::run(scale, seed, trace),
        Workload::Lf300Churn => churn::run(scale, seed, trace),
    }
}

/// Threads of the ground-truth scan: one in a traced run, where its time
/// is `baselines.exact_scan_us`; every core in an untraced run, where it
/// is overhead and ends before the timed phase starts.
pub fn truth_threads(trace: bool) -> usize {
    if trace {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// The measurements behind the ten end-to-end metrics.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    /// One latency sample (µs) per query or per raw query timing.
    pub samples: &'a [f64],
    pub queries_per_s: f64,
    pub accuracy: &'a Quality,
    pub pages_per_query: f64,
    pub space_amp: f64,
}

/// Fills the end-to-end table. Clears `correct` when the `(c, p)`
/// guarantee is not met: fewer than `p` of the queries had every rank
/// within `c` of the exact one.
pub fn end_to_end_metrics(e: &EndToEnd, correct: &mut bool) -> io::Result<Metrics> {
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", e.setup_s);
    m.set("query_p50_us", median(e.samples));
    m.set("query_p95_us", percentile(e.samples, 95.0));
    m.set("queries_per_s", e.queries_per_s);
    m.set("recall_at_10", e.accuracy.recall_at_10());
    m.set("overall_ratio", e.accuracy.overall_ratio());
    m.set("c_guarantee_frac", e.accuracy.c_guarantee_frac());
    m.set("pages_per_query", e.pages_per_query);
    m.set("space_amp", e.space_amp);
    m.set("peak_rss_mb", peak_rss_mb()?);
    if e.accuracy.c_guarantee_frac() < P {
        *correct = false;
        println!(
            "FAILED: c_guarantee_frac {} is below p = {P}",
            e.accuracy.c_guarantee_frac()
        );
    }
    Ok(m)
}
