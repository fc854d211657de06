//! The process-global metrics registry.
//!
//! Metric identity is a closed enum per kind, so the registry is a
//! fixed array of atomics indexed by discriminant: registration is
//! compile-time, lookup is an array index, and the hot path never
//! hashes, locks, or allocates. New metrics are added by extending the
//! `metric_ids!` lists below.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Defines a metric-id enum plus `ALL`, `COUNT`, `name()` and `help()`.
macro_rules! metric_ids {
    ($(#[$meta:meta])* $vis:vis enum $enum_name:ident {
        $($variant:ident => $name:literal, $help:literal;)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $enum_name {
            $($variant,)+
        }

        impl $enum_name {
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant,)+];
            pub const COUNT: usize = Self::ALL.len();

            /// Exposition name (Prometheus metric name / JSON key).
            pub fn name(self) -> &'static str {
                match self { $($enum_name::$variant => $name,)+ }
            }

            /// One-line help string for `# HELP` lines.
            pub fn help(self) -> &'static str {
                match self { $($enum_name::$variant => $help,)+ }
            }
        }
    };
}

metric_ids! {
    /// Monotonic counters. Prometheus convention: names end in `_total`.
    pub enum CounterId {
        Queries => "promips_queries_total", "Top-k searches served by the sharded index";
        QueryScanned => "promips_query_scanned_rows_total", "Candidate rows produced by annulus range scans, plus code rows read by column passes";
        QueryScreened => "promips_query_screened_rows_total", "Candidate rows rejected by the SQ8 screen without f32 rescore";
        QueryVerified => "promips_query_verified_rows_total", "Candidate rows verified against original f32 vectors";
        QueryColumnPasses => "promips_query_column_passes_total", "Per-index searches answered by the sequential SQ8 column pass instead of the annulus scan";
        ShardsSearched => "promips_shards_searched_total", "Shards actually searched during fan-out";
        ShardsPruned => "promips_shards_pruned_total", "Shards skipped by the Cauchy-Schwarz norm bound";
        PageReads => "promips_page_reads_total", "Pager page reads (pool hits = reads - cache misses)";
        PageCacheMisses => "promips_page_cache_misses_total", "Pager reads that went to the backing file";
        PageWrites => "promips_page_writes_total", "Pager page writes";
        IoFsyncs => "promips_io_fsyncs_total", "File and directory fsync calls through storage::durability";
        IoRenames => "promips_io_renames_total", "Atomic renames through storage::durability";
        IoWrites => "promips_io_writes_total", "Durable write calls through storage::durability";
        IoFaultsInjected => "promips_io_faults_injected_total", "IO faults injected by the test fault plan";
        WalAppends => "promips_wal_appends_total", "Records appended to per-shard WALs";
        WalSyncs => "promips_wal_syncs_total", "WAL sync points (group commits)";
        WalReplayedRecords => "promips_wal_replayed_records_total", "WAL records replayed during recovery";
        Inserts => "promips_inserts_total", "Vectors inserted (durably applied)";
        Deletes => "promips_deletes_total", "Vectors deleted (tombstoned)";
        InsertBatches => "promips_insert_batches_total", "Group-committed insert batches";
        Compactions => "promips_compactions_total", "Per-shard compactions completed";
        Repartitions => "promips_repartitions_total", "Whole-index repartitions completed";
        GenerationSwaps => "promips_generation_swaps_total", "Shard generation handles atomically swapped";
        SlowQueries => "promips_slow_queries_total", "Traces accepted by the slow-query log";
        IoReads => "promips_io_reads_total", "Durable read calls through storage::durability";
        IoRetries => "promips_io_retries_total", "Transient IO failures retried by storage::durability::retry";
        DeadlinesExceeded => "promips_deadlines_exceeded_total", "Queries that hit their QueryBudget deadline";
        QueriesCancelled => "promips_queries_cancelled_total", "Queries stopped by a cancellation token";
        QueriesShed => "promips_queries_shed_total", "Queries refused by the admission gate (Overloaded)";
        PartialResults => "promips_partial_results_total", "Best-effort searches that returned a degraded result";
        QueryFailures => "promips_query_failures_total", "Queries aborted by a shard failure, deadline, or cancellation";
        QueriesSampled => "promips_queries_sampled_total", "Ordinary searches routed through tracing by the 1-in-N sampler";
        RecorderEvents => "promips_recorder_events_total", "Structured events captured by the flight recorder";
    }
}

metric_ids! {
    /// Signed level gauges.
    pub enum GaugeId {
        DeltaRows => "promips_delta_rows", "Rows living in unfrozen delta overlays across all shards";
        Tombstones => "promips_tombstones", "Live tombstones awaiting compaction across all shards";
    }
}

metric_ids! {
    /// Log2-bucketed histograms. `_ns` suffix means nanosecond samples.
    pub enum HistoId {
        QueryLatencyNs => "promips_query_latency_ns", "End-to-end sharded search latency";
        StageScanNs => "promips_stage_scan_ns", "Per-shard projection + annulus range scan time";
        StageScreenNs => "promips_stage_screen_ns", "Per-shard SQ8 screen+rescore verification time";
        StageVerifyNs => "promips_stage_verify_ns", "Per-shard plain f32 verification + delta overlay time";
        StageMergeNs => "promips_stage_merge_ns", "Cross-shard top-k merge + stats assembly time";
        ShardSearchNs => "promips_shard_search_ns", "Single-shard search time within fan-out";
        WalGroupCommitBatch => "promips_wal_group_commit_batch", "Appends amortized per WAL sync";
        CompactionNs => "promips_compaction_ns", "Per-shard compaction wall time";
        BudgetRemainingNs => "promips_budget_remaining_ns", "Remaining deadline budget when a budgeted search completed";
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
    /// across metrics (each slot is read individually), which is the
    /// usual contract for scrape-style exposition.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: core::array::from_fn(|i| self.counters[i].get()),
            gauges: core::array::from_fn(|i| self.gauges[i].get()),
            histograms: core::array::from_fn(|i| self.histograms[i].snapshot()),
        }
    }

    /// Render the current state in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Render the current state as a JSON object.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-value snapshot of a [`Registry`]; merges element-wise, so
/// snapshots from several processes (or time slices) aggregate
/// associatively.
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    pub counters: [u64; CounterId::COUNT],
    pub gauges: [i64; GaugeId::COUNT],
    pub histograms: [HistogramSnapshot; HistoId::COUNT],
}

impl RegistrySnapshot {
    /// The all-zero snapshot: identity element for [`merge`].
    ///
    /// [`merge`]: RegistrySnapshot::merge
    pub const ZERO: RegistrySnapshot = RegistrySnapshot {
        counters: [0; CounterId::COUNT],
        gauges: [0; GaugeId::COUNT],
        histograms: [HistogramSnapshot::EMPTY; HistoId::COUNT],
    };

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

    /// Element-wise accumulate (counters and histogram buckets add,
    /// gauges add as signed levels).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (dst, src) in self.counters.iter_mut().zip(&other.counters) {
            *dst += src;
        }
        for (dst, src) in self.gauges.iter_mut().zip(&other.gauges) {
            *dst += src;
        }
        for (dst, src) in self.histograms.iter_mut().zip(&other.histograms) {
            dst.merge(src);
        }
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
    fn names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = CounterId::ALL
            .iter()
            .map(|c| c.name())
            .chain(GaugeId::ALL.iter().map(|g| g.name()))
            .chain(HistoId::ALL.iter().map(|h| h.name()))
            .collect();
        assert!(names.iter().all(|n| n.starts_with("promips_")));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

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

    #[test]
    fn snapshot_merge_accumulates() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter(CounterId::Inserts).add(2);
        b.counter(CounterId::Inserts).add(5);
        a.histogram(HistoId::CompactionNs).record(10);
        b.histogram(HistoId::CompactionNs).record(20);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.counter(CounterId::Inserts), 7);
        assert_eq!(sa.histogram(HistoId::CompactionNs).count(), 2);
        assert_eq!(sa.histogram(HistoId::CompactionNs).sum, 30);
    }
}
