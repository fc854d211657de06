//! Results of a sharded fan-out search, with per-shard diagnostics.

use promips_core::SearchItem;

/// Per-shard outcome of one fan-out query, including the delta and
/// tombstone counts it read. The WAL size is in
/// [`crate::ShardedProMips::maintenance_stats`]: a query never takes the
/// log's lock, which writers hold across their IO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardQueryStats {
    /// Shard id.
    pub shard: u32,
    /// Points stored in the shard (live + tombstoned).
    pub points: u64,
    /// True when the norm bound pruned the shard without searching it.
    pub pruned: bool,
    /// True when this shard's search failed (IO fault, deadline, panic)
    /// and its contribution is missing from the merge — only ever set
    /// under [`crate::DegradationPolicy::BestEffort`]; fail-fast queries
    /// error instead of returning stats.
    pub failed: bool,
    /// Candidates whose exact inner product was computed in this shard
    /// (zero for pruned shards; for a failed shard, those verified before
    /// it failed).
    pub verified: usize,
    /// Candidates the shard's SQ8 verification screens dropped without an
    /// exact rescore: the generation's code column and the delta's sealed
    /// chunks (zero for pruned shards).
    pub screened: usize,
    /// Items the shard contributed to the merge (before the global top-k
    /// cut).
    pub returned: usize,
    /// Uncompacted delta inserts the query read: sealed chunks it screened
    /// by their SQ8 codes plus the open tail it scored in f32 — when this
    /// grows, queries slow down and compaction is due.
    pub delta_len: usize,
    /// Tombstoned points still occupying the shard's file.
    pub tombstones: usize,
}

/// How the last maintenance pass that touched a shard ended (see
/// [`ShardMaintenance::last_compaction`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionOutcome {
    /// No compaction has run against this shard since it was opened.
    #[default]
    Never,
    /// The shard's delta/tombstones were folded into a new generation.
    Compacted,
    /// The whole index was re-partitioned, rebuilding this shard.
    Repartitioned,
    /// The last attempt errored (the old generation stayed live, or the
    /// swap landed but its WAL rewrite failed — either way an operator
    /// should look).
    Failed,
}

/// One shard's maintenance ledger (see
/// [`crate::ShardedProMips::maintenance_stats`]): how much uncompacted
/// state it carries and how big its write-ahead log has grown — the
/// numbers an operator (or [`crate::CompactionPolicy`]) watches to decide
/// when compaction is due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMaintenance {
    /// Shard id.
    pub shard: u32,
    /// Live (non-tombstoned) points.
    pub live: u64,
    /// Uncompacted delta inserts.
    pub delta_len: usize,
    /// Tombstoned points awaiting compaction.
    pub tombstones: usize,
    /// Bytes in the shard's write-ahead log (0 for in-memory indexes).
    pub wal_bytes: u64,
    /// Data-file generation (bumped by each compaction; 0 in-memory).
    pub generation: u64,
    /// Nanoseconds since the live generation was installed (built, opened,
    /// or swapped in by compaction) — how stale the committed file is.
    pub generation_age_ns: u64,
    /// How the last maintenance pass against this shard ended.
    pub last_compaction: CompactionOutcome,
}

/// Result of a sharded c-k-AMIP search: the merged global top-k plus what
/// each shard did.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSearchResult {
    /// Top-k items by exact inner product, descending; ids are **global**
    /// dataset row ids.
    pub items: Vec<SearchItem>,
    /// Total candidates verified across all searched shards.
    pub verified: usize,
    /// Total candidates screened out (skipped without an exact rescore) by
    /// the shards' SQ8 verification tiers.
    pub screened: usize,
    /// Per-shard diagnostics, indexed by shard id.
    pub per_shard: Vec<ShardQueryStats>,
    /// True when at least one shard failed and was excluded from the
    /// merge under [`crate::DegradationPolicy::BestEffort`]: the items
    /// are the exact top-k over the **surviving** shards only. Always
    /// false for fail-fast (and healthy) queries.
    pub degraded: bool,
}

impl ShardedSearchResult {
    /// The best inner product found (None for an empty result).
    pub fn best_ip(&self) -> Option<f64> {
        self.items.first().map(|i| i.ip)
    }

    /// The ids in rank order.
    pub fn ids(&self) -> Vec<u64> {
        self.items.iter().map(|i| i.id).collect()
    }

    /// Number of shards pruned by the norm bound.
    pub fn shards_pruned(&self) -> usize {
        self.per_shard.iter().filter(|s| s.pruned).count()
    }

    /// Number of shards whose search failed and was excluded from the
    /// merge (non-zero only for degraded best-effort results).
    pub fn shards_failed(&self) -> usize {
        self.per_shard.iter().filter(|s| s.failed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = ShardedSearchResult {
            items: vec![SearchItem { id: 9, ip: 4.0 }, SearchItem { id: 2, ip: 1.0 }],
            verified: 12,
            screened: 8,
            per_shard: vec![
                ShardQueryStats {
                    shard: 0,
                    points: 10,
                    pruned: false,
                    failed: false,
                    verified: 12,
                    screened: 8,
                    returned: 2,
                    delta_len: 0,
                    tombstones: 0,
                },
                ShardQueryStats {
                    shard: 1,
                    points: 3,
                    pruned: true,
                    failed: true,
                    verified: 0,
                    screened: 0,
                    returned: 0,
                    delta_len: 1,
                    tombstones: 2,
                },
            ],
            degraded: true,
        };
        assert_eq!(r.best_ip(), Some(4.0));
        assert_eq!(r.ids(), vec![9, 2]);
        assert_eq!(r.shards_pruned(), 1);
        assert_eq!(r.shards_failed(), 1);
        assert!(r.degraded);
    }
}
