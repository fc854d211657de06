//! The fixed definition of the benchmark: workload names, sizes, pass
//! counts and the two metric tables. `BENCHMARK.json` lists the same names
//! (`tests/contract.rs` holds the two together).

use crate::report::MetricTable;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lf300Hot,
    Lf300Cold,
    Skew64Shard4,
    Lf300Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Lf300Hot,
        Workload::Lf300Cold,
        Workload::Skew64Shard4,
        Workload::Lf300Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lf300Hot => "lf300_hot",
            Workload::Lf300Cold => "lf300_cold",
            Workload::Skew64Shard4 => "skew64_shard4",
            Workload::Lf300Churn => "lf300_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this workload runs the layer behind a per-layer metric. The
    /// unsharded workloads have no `shard` layer, and only the churn
    /// mutates, logs and reopens. A traced run reports 0 for the rest.
    pub fn exercises(self, metric: &str) -> bool {
        let write_side = metric.starts_with("wal.")
            || [
                "shard.insert_rows_per_s",
                "shard.delete_ops_per_s",
                "shard.compact_s",
                "shard.delta_rows_mean",
                "shard.reopen_s",
            ]
            .contains(&metric);
        match self {
            Workload::Lf300Hot | Workload::Lf300Cold => {
                !write_side && !metric.starts_with("shard.")
            }
            Workload::Skew64Shard4 => !write_side,
            Workload::Lf300Churn => true,
        }
    }
}

/// Every size the workloads use. Fixed — identical on both sides of any
/// comparison, never adapted to how fast the run is going or to
/// `--seconds`: `run_seconds` of `BENCHMARK.json` is what the timed phases
/// take with these counts on the reference box.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Latent-factor matrix (`lf300_*`): rows, columns, rank, popularity σ.
    pub lf_n: usize,
    pub lf_d: usize,
    pub lf_rank: usize,
    pub lf_sigma: f64,
    pub lf_queries: usize,
    /// Buffer-pool pages of `lf300_hot` (holds the whole file) and
    /// `lf300_cold` (the config default, ≈ 2.7 % of the file).
    pub hot_pool_pages: usize,
    pub cold_pool_pages: usize,
    /// Norm-skewed matrix (`skew64_shard4`).
    pub skew_n: usize,
    pub skew_d: usize,
    pub skew_queries: usize,
    /// Per-shard pool pages of both sharded workloads (holds everything).
    pub shard_pool_pages: usize,
    pub shards: usize,
    /// `lf300_churn`: rows `0..churn_base` are built, the rest of the
    /// latent-factor matrix is the insert stream, consumed over
    /// `churn_rounds` rounds of `churn_batches × churn_batch_rows` inserts,
    /// `churn_deletes` deletes and `churn_queries` queries — each round's
    /// its own, so a pass asks `churn_rounds × churn_queries` distinct ones.
    pub churn_base: usize,
    pub churn_rounds: usize,
    pub churn_batches: usize,
    pub churn_batch_rows: usize,
    pub churn_deletes: usize,
    pub churn_queries: usize,
    /// Times the whole (deterministic) script is run, each on a fresh build;
    /// `setup_s` is the median of these builds.
    pub churn_passes: usize,
    /// Rounds after which `compact_all()` runs.
    pub churn_compact_after: [usize; 2],
    /// Rounds at which accuracy is measured against the live rows.
    pub churn_quality_at: [usize; 2],
    /// Timed passes of the pass-based workloads, after one warm-up pass.
    pub hot_passes: usize,
    pub cold_passes: usize,
    pub skew_passes: usize,
    /// Untraced and traced passes of a `--trace 1` run.
    pub traced_passes: usize,
    /// Rows of the standalone B+-tree and kernel probes.
    pub probe_iters: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            lf_n: 100_000,
            lf_d: 300,
            lf_rank: 48,
            lf_sigma: 0.25,
            lf_queries: 200,
            hot_pool_pages: 65_536,
            cold_pool_pages: 1_024,
            skew_n: 200_000,
            skew_d: 64,
            skew_queries: 400,
            shard_pool_pages: 16_384,
            shards: 4,
            churn_base: 80_000,
            churn_rounds: 10,
            churn_batches: 20,
            churn_batch_rows: 100,
            churn_deletes: 1_000,
            churn_queries: 40,
            churn_passes: 3,
            churn_compact_after: [4, 8],
            churn_quality_at: [4, 10],
            hot_passes: 7,
            cold_passes: 4,
            skew_passes: 9,
            traced_passes: 3,
            probe_iters: 200_000,
        }
    }

    /// Test-only sizes: the same scripts over a few thousand rows.
    pub fn tiny() -> Self {
        Self {
            lf_n: 6_000,
            lf_d: 48,
            lf_rank: 12,
            lf_queries: 24,
            hot_pool_pages: 4_096,
            cold_pool_pages: 32,
            skew_n: 24_000,
            skew_d: 32,
            skew_queries: 48,
            shard_pool_pages: 1_024,
            churn_base: 4_000,
            churn_rounds: 10,
            churn_batches: 4,
            churn_batch_rows: 50,
            churn_deletes: 100,
            churn_queries: 24,
            churn_passes: 2,
            hot_passes: 2,
            cold_passes: 2,
            skew_passes: 2,
            traced_passes: 1,
            probe_iters: 2_000,
            ..Self::full()
        }
    }
}

/// `--trace 0`: what a user of the index sees.
pub const END_TO_END: MetricTable = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p95_us", "us"),
    ("queries_per_s", "1/s"),
    ("recall_at_10", "ratio"),
    ("overall_ratio", "ratio"),
    ("c_guarantee_frac", "ratio"),
    ("pages_per_query", "count"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `--trace 1`: one layer each, named after its crate.
pub const PER_LAYER: MetricTable = &[
    ("linalg.dot4_i8_ns_row", "ns"),
    ("linalg.sq_dist4_ns_row", "ns"),
    ("linalg.dot_ns_row", "ns"),
    ("storage.page_hit_ns", "ns"),
    ("storage.page_miss_ns", "ns"),
    ("storage.pool_hit_frac", "ratio"),
    ("storage.misses_per_query", "count"),
    ("storage.file_mb", "MB"),
    ("btree.lookup_ns", "ns"),
    ("btree.range_ns_entry", "ns"),
    ("btree.pages_per_lookup", "count"),
    ("idistance.range_scan_us", "us"),
    ("idistance.candidates_per_query", "count"),
    ("idistance.scan_pages_per_query", "count"),
    ("core.project_us", "us"),
    ("core.locate_us", "us"),
    ("core.scan_us", "us"),
    ("core.screen_us", "us"),
    ("core.verify_us", "us"),
    ("core.scanned_per_query", "count"),
    ("core.screened_per_query", "count"),
    ("core.verified_per_query", "count"),
    ("core.screen_drop_frac", "ratio"),
    ("core.verified_useful_frac", "ratio"),
    ("core.compensated_frac", "ratio"),
    ("core.term_cond_a_frac", "ratio"),
    ("core.term_cond_b_frac", "ratio"),
    ("core.term_exhausted_frac", "ratio"),
    ("core.stage_coverage", "ratio"),
    ("core.build_project_s", "s"),
    ("core.build_quickprobe_s", "s"),
    ("core.build_idistance_s", "s"),
    ("shard.span_us", "us"),
    ("shard.merge_us", "us"),
    ("shard.pruned_per_query", "count"),
    ("shard.searched_per_query", "count"),
    ("shard.trace_coverage", "ratio"),
    ("shard.insert_rows_per_s", "1/s"),
    ("shard.delete_ops_per_s", "1/s"),
    ("shard.compact_s", "s"),
    ("shard.delta_rows_mean", "count"),
    ("shard.reopen_s", "s"),
    ("wal.bytes_per_row", "B"),
    ("wal.fsyncs_per_1k_rows", "count"),
    ("wal.replayed_records", "count"),
    ("baselines.exact_scan_us", "us"),
    ("obs.trace_overhead_frac", "ratio"),
    ("data.gen_s", "s"),
    ("data.ground_truth_s", "s"),
];
