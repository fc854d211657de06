//! Helpers shared by the shard crate's test binaries; each binary uses
//! some of them.
#![allow(dead_code)]

use promips_linalg::sweep;
use promips_obs::QueryTrace;

/// What a span says its shard did for the query, timings left out:
/// `(shard, seed, pruned, scanned, screened, verified, covered_rows,
/// column_pass)`.
pub type SpanCounts = (usize, bool, bool, u64, u64, u64, u64, bool);

/// Every span of `trace` as [`SpanCounts`], in shard order.
pub fn span_counts(trace: &QueryTrace) -> Vec<SpanCounts> {
    trace
        .shards
        .iter()
        .map(|s| {
            (
                s.shard,
                s.seed,
                s.pruned,
                s.scanned,
                s.screened,
                s.verified,
                s.covered_rows,
                s.column_pass,
            )
        })
        .collect()
}

/// Runs `f` on this thread while it owns the process's sweep helper, so
/// every query, fan-out or build map inside finds the helper taken and runs
/// serially; on one core there is no helper and `f` runs as is.
pub fn with_helper_owned<R>(f: impl Fn() -> R) -> R {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return f();
    }
    loop {
        // Another owner (a test's query, build or compactor) may hold it.
        match sweep::join(&|| Ok(()), &f) {
            Some((r, theirs)) => {
                theirs.unwrap();
                return r;
            }
            None => std::thread::yield_now(),
        }
    }
}
