//! The answer of a sharded fan-out search, and each shard's maintenance
//! ledger. What each shard did for one query — pruned, seed, the
//! rows it scanned, screened and verified — is in that query's trace
//! ([`promips_obs::QueryTrace::shards`], returned to a request that sets
//! [`crate::ShardedQuery::traced`]); what each shard holds — live rows,
//! delta, tombstones, WAL size, generation — is in
//! [`crate::ShardedProMips::maintenance_stats`].

use promips_core::SearchItem;

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

/// Result of a sharded c-k-AMIP search: the merged global top-k and the
/// work summed over the shards (per shard, see the query's trace).
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
}

impl ShardedSearchResult {
    /// The ids in rank order.
    pub fn ids(&self) -> Vec<u64> {
        self.items.iter().map(|i| i.id).collect()
    }
}
