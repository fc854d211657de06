//! Helpers shared by the shard crate's test binaries.

use promips_obs::QueryTrace;

/// What a span says its shard did for the query, timings left out:
/// `(shard, seed, pruned, failed, scanned, screened, verified,
/// covered_rows, column_pass)`.
pub type SpanCounts = (usize, bool, bool, bool, u64, u64, u64, u64, bool);

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
                s.failed,
                s.scanned,
                s.screened,
                s.verified,
                s.covered_rows,
                s.column_pass,
            )
        })
        .collect()
}
