//! The process-global metrics registry.
//!
//! Metric identity is a closed enum per kind, so the registry is a
//! fixed array of atomics indexed by discriminant: registration is
//! compile-time, lookup is an array index, and the hot path never
//! hashes, locks, or allocates. New metrics are added by extending the
//! `metric_ids!` lists below.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

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
        /// Queries refused by the admission gate (`Overloaded`).
        QueriesShed,
        /// Best-effort searches that returned a degraded result.
        PartialResults,
        /// Queries aborted by a shard failure, deadline, or cancellation.
        QueryFailures,
    }
}

metric_ids! {
    /// Signed level gauges.
    pub enum GaugeId {
        /// Rows living in unfrozen delta overlays across all shards.
        DeltaRows,
        /// Live tombstones awaiting compaction across all shards.
        Tombstones,
    }
}

metric_ids! {
    /// Log2-bucketed histograms. An `Ns` suffix means nanosecond samples.
    pub enum HistoId {
        /// End-to-end sharded search latency.
        QueryLatencyNs,
        /// Per-shard projection + annulus range scan time.
        StageScanNs,
        /// Per-shard SQ8 screen+rescore verification time.
        StageScreenNs,
        /// Per-shard plain f32 verification + delta overlay time.
        StageVerifyNs,
        /// Cross-shard top-k merge + stats assembly time.
        StageMergeNs,
        /// Single-shard search time within fan-out.
        ShardSearchNs,
        /// Appends amortized per WAL sync.
        WalGroupCommitBatch,
        /// Per-shard compaction wall time.
        CompactionNs,
        /// Remaining deadline budget when a budgeted search completed.
        BudgetRemainingNs,
    }
}

/// Fixed-shape registry: one atomic slot per metric id.
///
/// Normally used through [`Registry::global`]; independent instances
/// can be constructed for tests (`Registry::new()` is const).
#[derive(Debug)]
pub struct Registry {
    counters: [Counter; CounterId::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    histograms: [Histogram; HistoId::COUNT],
}

impl Registry {
    pub const fn new() -> Self {
        Registry {
            counters: [Counter::NEW; CounterId::COUNT],
            gauges: [Gauge::NEW; GaugeId::COUNT],
            histograms: [Histogram::NEW; HistoId::COUNT],
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

    #[inline]
    pub fn gauge(&self, id: GaugeId) -> &Gauge {
        &self.gauges[id as usize]
    }

    #[inline]
    pub fn histogram(&self, id: HistoId) -> &Histogram {
        &self.histograms[id as usize]
    }

    /// Point-in-time plain-value copy of every metric. Not atomic
    /// across metrics (each slot is read individually).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: core::array::from_fn(|i| self.counters[i].get()),
            gauges: core::array::from_fn(|i| self.gauges[i].get()),
            histograms: core::array::from_fn(|i| self.histograms[i].snapshot()),
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
    pub gauges: [i64; GaugeId::COUNT],
    pub histograms: [HistogramSnapshot; HistoId::COUNT],
}

impl RegistrySnapshot {
    #[inline]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    #[inline]
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id as usize]
    }

    #[inline]
    pub fn histogram(&self, id: HistoId) -> &HistogramSnapshot {
        &self.histograms[id as usize]
    }

    /// The activity between two snapshots of the *same* registry:
    /// counters and histogram buckets subtract (they are monotonic, so
    /// the difference is exactly the events recorded in between), while
    /// gauges — levels, not flows — keep their value at `self`, the
    /// later snapshot. Saturating subtraction guards against snapshot
    /// pairs torn by concurrent writers; genuinely ordered pairs never
    /// clamp.
    pub fn saturating_diff(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let mut out = self.clone();
        for (dst, was) in out.counters.iter_mut().zip(&earlier.counters) {
            *dst = dst.saturating_sub(*was);
        }
        for (dst, (now, was)) in out
            .histograms
            .iter_mut()
            .zip(self.histograms.iter().zip(&earlier.histograms))
        {
            *dst = now.saturating_diff(was);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_registry_round_trip() {
        let r = Registry::new();
        r.counter(CounterId::Queries).add(3);
        r.gauge(GaugeId::DeltaRows).add(5);
        r.gauge(GaugeId::DeltaRows).sub(2);
        r.histogram(HistoId::QueryLatencyNs).record(1000);
        let s = r.snapshot();
        assert_eq!(s.counter(CounterId::Queries), 3);
        assert_eq!(s.gauge(GaugeId::DeltaRows), 3);
        assert_eq!(s.histogram(HistoId::QueryLatencyNs).count(), 1);
    }

    #[test]
    fn snapshot_diff_is_the_between_activity() {
        let r = Registry::new();
        r.counter(CounterId::Queries).add(3);
        r.gauge(GaugeId::DeltaRows).add(10);
        r.histogram(HistoId::QueryLatencyNs).record(100);
        let before = r.snapshot();
        r.counter(CounterId::Queries).add(4);
        r.gauge(GaugeId::DeltaRows).sub(6);
        r.histogram(HistoId::QueryLatencyNs).record(200);
        let after = r.snapshot();
        let delta = after.saturating_diff(&before);
        assert_eq!(delta.counter(CounterId::Queries), 4);
        assert_eq!(delta.histogram(HistoId::QueryLatencyNs).count(), 1);
        assert_eq!(delta.histogram(HistoId::QueryLatencyNs).sum, 200);
        // Gauges are levels: the delta carries the later snapshot's value.
        assert_eq!(delta.gauge(GaugeId::DeltaRows), 4);
    }
}
