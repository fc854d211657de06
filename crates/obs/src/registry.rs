//! The process-global counter registry.
//!
//! It holds counters only. Counter identity is a closed enum, so the
//! registry is a fixed array of atomics indexed by discriminant:
//! registration is compile-time, lookup is an array index, and the hot
//! path never hashes, locks, or allocates. New counters are added by
//! extending the `metric_ids!` list below. What a query's time went to
//! is the [`QueryTrace`](crate::QueryTrace) it returns, and a shard's
//! overlay debt is its `maintenance_stats()` ledger.

use crate::metrics::Counter;

/// Defines a metric-id enum plus `ALL` and `COUNT`.
macro_rules! metric_ids {
    ($(#[$meta:meta])* $vis:vis enum $enum_name:ident {
        $($(#[$vmeta:meta])* $variant:ident,)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $enum_name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $enum_name {
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant,)+];
            pub const COUNT: usize = Self::ALL.len();
        }
    };
}

metric_ids! {
    /// Monotonic counters.
    pub enum CounterId {
        /// Top-k searches served by the sharded index.
        Queries,
        /// Candidate rows produced by annulus range scans, plus code rows
        /// read by column passes.
        QueryScanned,
        /// Candidate rows rejected by the SQ8 screen without f32 rescore.
        QueryScreened,
        /// Candidate rows verified against original f32 vectors.
        QueryVerified,
        /// Per-index searches answered by the sequential SQ8 column pass
        /// instead of the annulus scan.
        QueryColumnPasses,
        /// Column sweeps shared with the process's sweep helper thread.
        SplitColumnSweeps,
        /// Shards actually searched during fan-out.
        ShardsSearched,
        /// Shards skipped by the Cauchy-Schwarz norm bound.
        ShardsPruned,
        /// Pager page reads (pool hits = reads - cache misses).
        PageReads,
        /// Pager reads that went to the backing file.
        PageCacheMisses,
        /// Pager page writes.
        PageWrites,
        /// File and directory fsync calls through `storage::durability`.
        IoFsyncs,
        /// Atomic renames through `storage::durability`.
        IoRenames,
        /// Durable write calls through `storage::durability`.
        IoWrites,
        /// IO faults injected by the test fault plan.
        IoFaultsInjected,
        /// Records appended to per-shard WALs.
        WalAppends,
        /// WAL sync points (group commits).
        WalSyncs,
        /// WAL records replayed during recovery.
        WalReplayedRecords,
        /// Vectors inserted (durably applied).
        Inserts,
        /// Vectors deleted (tombstoned).
        Deletes,
        /// Group-committed insert batches.
        InsertBatches,
        /// Per-shard compactions completed.
        Compactions,
        /// Whole-index repartitions completed.
        Repartitions,
        /// Shard generation handles atomically swapped.
        GenerationSwaps,
        /// Device reads through `storage::durability`: a page file's
        /// `read_pages` is one, however many pages its run holds — a
        /// device read, not a logical page read (`PageReads`).
        IoReads,
        /// Transient IO failures retried by `storage::durability::retry`.
        IoRetries,
        /// Queries that hit their [`QueryBudget`](crate::QueryBudget)
        /// deadline.
        DeadlinesExceeded,
        /// Queries stopped by a cancellation token.
        QueriesCancelled,
        /// Queries aborted by a shard failure, deadline, or cancellation.
        QueryFailures,
    }
}

/// Fixed-shape registry: one atomic counter per [`CounterId`].
///
/// Normally used through [`Registry::global`]; independent instances
/// can be constructed for tests (`Registry::new()` is const).
#[derive(Debug)]
pub struct Registry {
    counters: [Counter; CounterId::COUNT],
}

impl Registry {
    pub const fn new() -> Self {
        Registry {
            counters: [Counter::NEW; CounterId::COUNT],
        }
    }

    /// The process-global registry every pipeline layer feeds.
    pub fn global() -> &'static Registry {
        static GLOBAL: Registry = Registry::new();
        &GLOBAL
    }

    #[inline]
    pub fn counter(&self, id: CounterId) -> &Counter {
        &self.counters[id as usize]
    }

    /// Point-in-time plain-value copy of every counter. Not atomic
    /// across counters (each slot is read individually).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: core::array::from_fn(|i| self.counters[i].get()),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-value snapshot of a [`Registry`]; two of them diff into the
/// activity between ([`RegistrySnapshot::saturating_diff`]).
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    pub counters: [u64; CounterId::COUNT],
}

impl RegistrySnapshot {
    #[inline]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// The activity between two snapshots of the *same* registry:
    /// counters are monotonic, so their difference is exactly the events
    /// counted in between. Saturating subtraction guards against snapshot
    /// pairs torn by concurrent writers; genuinely ordered pairs never
    /// clamp.
    pub fn saturating_diff(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: core::array::from_fn(|i| {
                self.counters[i].saturating_sub(earlier.counters[i])
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_registry_round_trip() {
        let r = Registry::new();
        r.counter(CounterId::Queries).add(3);
        r.counter(CounterId::Inserts).inc();
        let s = r.snapshot();
        assert_eq!(s.counter(CounterId::Queries), 3);
        assert_eq!(s.counter(CounterId::Inserts), 1);
        assert_eq!(s.counter(CounterId::Deletes), 0);
    }

    #[test]
    fn snapshot_diff_is_the_between_activity() {
        let r = Registry::new();
        r.counter(CounterId::Queries).add(3);
        r.counter(CounterId::Inserts).add(10);
        let before = r.snapshot();
        r.counter(CounterId::Queries).add(4);
        let after = r.snapshot();
        let delta = after.saturating_diff(&before);
        assert_eq!(delta.counter(CounterId::Queries), 4);
        assert_eq!(delta.counter(CounterId::Inserts), 0);
        // Diffing in the wrong order saturates instead of wrapping.
        let wrong = before.saturating_diff(&after);
        assert_eq!(wrong.counter(CounterId::Queries), 0);
    }
}
