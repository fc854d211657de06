//! Configuration for the sharded index: the shard count (placement is
//! always by norm range), the fan-out's pruning switch, and the
//! durability and compaction policies.

use promips_core::ProMipsConfig;
use promips_wal::SyncPolicy;

use crate::compaction::CompactionPolicy;

/// Build- and search-time parameters of a [`crate::ShardedProMips`]. A
/// durable index's manifest records every field, so
/// [`crate::ShardedProMips::open`] returns it with the config it was built
/// with.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards `N ≥ 1`: equal-count norm ranges, shard `N − 1`
    /// holding the largest norms.
    pub shards: usize,
    /// Whether the fan-out search prunes shards whose Cauchy–Schwarz bound
    /// `‖q‖ · max_norm(shard)` cannot beat the k-th inner product already
    /// verified in the seed shard, and holds every other searched shard to
    /// that k-th as its floor. Neither changes the returned top-k;
    /// disabling both is for measurement.
    pub prune: bool,
    /// Group-commit policy of the per-shard write-ahead logs (directory-
    /// backed indexes only; in-memory indexes take mutations volatilely).
    pub wal_sync: SyncPolicy,
    /// When [`crate::ShardedProMips::compact`] folds a shard's delta and
    /// tombstones into a fresh generation, and when it re-partitions.
    pub compaction: CompactionPolicy,
    /// Per-shard ProMIPS parameters. Shard `i` builds with
    /// `seed ⊕ (i · φ₆₄)`, so shard 0 of a one-shard config reproduces the
    /// unsharded index exactly.
    pub base: ProMipsConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            prune: true,
            wal_sync: SyncPolicy::Always,
            compaction: CompactionPolicy::default(),
            base: ProMipsConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// Starts a builder with the defaults above.
    pub fn builder() -> ShardedConfigBuilder {
        ShardedConfigBuilder {
            config: Self::default(),
        }
    }

    /// Validates parameter domains (and the embedded base config).
    ///
    /// # Panics
    /// Panics if `shards` is zero or absurdly large (> 65 536), or the base
    /// config is outside [`ProMipsConfig::check`]'s domain.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The parameter domains: `shards` in `1..=65 536` and the base
    /// config's ([`ProMipsConfig::check`]). Fails with what is out of range.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !(1..=65_536).contains(&self.shards) {
            return Err(format!("shards must be in 1..=65536, got {}", self.shards));
        }
        self.base.check()
    }
}

/// Fluent builder for [`ShardedConfig`].
#[derive(Debug, Clone)]
pub struct ShardedConfigBuilder {
    config: ShardedConfig,
}

impl ShardedConfigBuilder {
    /// Sets the shard count.
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n;
        self
    }

    /// Enables or disables norm-bound shard pruning.
    pub fn prune(mut self, on: bool) -> Self {
        self.config.prune = on;
        self
    }

    /// Sets the WAL group-commit policy.
    pub fn wal_sync(mut self, policy: SyncPolicy) -> Self {
        self.config.wal_sync = policy;
        self
    }

    /// Sets the compaction policy.
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.config.compaction = policy;
        self
    }

    /// Sets the per-shard ProMIPS configuration.
    pub fn base(mut self, base: ProMipsConfig) -> Self {
        self.config.base = base;
        self
    }

    /// Finalizes and validates the configuration.
    pub fn build(self) -> ShardedConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ShardedConfig::default();
        assert_eq!(c.shards, 4);
        assert!(c.prune);
        c.validate();
    }

    #[test]
    fn builder_sets_fields() {
        let c = ShardedConfig::builder().shards(8).prune(false).build();
        assert_eq!(c.shards, 8);
        assert!(!c.prune);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_shards() {
        ShardedConfig::builder().shards(0).build();
    }
}
