//! `skew64_shard4`: four norm-range shards over norm-skewed rows, searched
//! by a sequential fan-out (`threads = 1`). Also the shard-layer helpers
//! `lf300_churn` shares.

use std::io;

use promips::core::{ProMips, ProMipsConfig, SearchItem, SearchScratch};
use promips::linalg::Matrix;
use promips::shard::{ShardedConfig, ShardedProMips, ShardedScratch, ShardedSearchResult};
use promips::storage::AccessStatsSnapshot;

use crate::inputs::{self, Inputs};
use crate::layers::{self, FanOut, TracedQuery};
use crate::quality::{C, K, P};
use crate::readonly::{self, Target};
use crate::report::{Metrics, Report};
use crate::spec::{Scale, Workload};

/// One client thread, and the shards searched one after another: the box
/// has two cores and a threaded fan-out on it measures the scheduler.
pub const FAN_OUT_THREADS: usize = 1;

/// Defaults (prune on, `cross_shard_floor` off) around the benchmark's
/// `c`, `p` and a pool that holds every shard whole.
pub fn config(scale: &Scale) -> ShardedConfig {
    ShardedConfig::builder()
        .shards(scale.shards)
        .base(
            ProMipsConfig::builder()
                .c(C)
                .p(P)
                .pool_pages(scale.shard_pool_pages)
                .build(),
        )
        .build()
}

/// `search_traced_threaded` and its trace split into the `core` stage
/// sums and the `shard` fan-out figures.
pub fn search_traced(
    index: &ShardedProMips,
    q: &[f32],
    scratch: &ShardedScratch,
) -> io::Result<(ShardedSearchResult, TracedQuery)> {
    let (res, trace) = index.search_traced_threaded(q, K, FAN_OUT_THREADS, scratch)?;
    let sum = |f: &dyn Fn(&promips::obs::ShardSpan) -> u64| trace.shards.iter().map(f).sum::<u64>();
    let traced = TracedQuery {
        total_ns: trace.total_ns,
        stages: trace.stages(),
        scanned: sum(&|s| s.scanned),
        screened: sum(&|s| s.screened),
        verified: sum(&|s| s.verified),
        returned: res.items.len() as u64,
        fan_out: Some(FanOut {
            span_ns: sum(&|s| s.elapsed_ns),
            merge_ns: trace.merge_ns,
            pruned: trace.shards_pruned() as u64,
            searched: trace.shards_searched() as u64,
            coverage: trace.coverage(),
        }),
    };
    Ok((res, traced))
}

/// A shard's own `ProMips` is not public, so the per-index layer metrics
/// of a sharded workload come from a benchmark-owned `ProMips` over the
/// rows of the shard every query searches first: the indexed shard with
/// the largest norm bound.
pub fn seed_shard_layers(
    m: &mut Metrics,
    index: &ShardedProMips,
    data: &Matrix,
    queries: &Matrix,
    scale: &Scale,
) -> io::Result<()> {
    let seed_shard = index
        .shards()
        .iter()
        .filter(|s| !s.is_exact())
        .max_by(|a, b| a.max_norm().total_cmp(&b.max_norm()))
        .ok_or_else(|| io::Error::other("no shard holds an index to probe"))?;
    let ids: Vec<usize> = seed_shard
        .global_ids()
        .iter()
        .map(|&g| g as usize)
        .collect();
    let rows = data.gather(&ids);
    let probe = ProMips::build_in_memory(&rows, index.config().base.clone())?;
    let mut scratch = SearchScratch::new();
    let results = queries
        .iter_rows()
        .map(|q| probe.search_with_scratch(q, K, &mut scratch))
        .collect::<io::Result<Vec<_>>>()?;
    layers::linalg_metrics(m, probe.d(), probe.m(), scale.probe_iters);
    layers::index_metrics(m, &probe, &rows, queries, &results)
}

struct Sharded {
    index: ShardedProMips,
    scratch: ShardedScratch,
}

impl Target for Sharded {
    type Res = ShardedSearchResult;

    fn search(&mut self, q: &[f32]) -> io::Result<ShardedSearchResult> {
        self.index
            .search_threaded(q, K, FAN_OUT_THREADS, &self.scratch)
    }

    fn search_traced(&mut self, q: &[f32]) -> io::Result<(ShardedSearchResult, TracedQuery)> {
        search_traced(&self.index, q, &self.scratch)
    }

    fn items(res: &ShardedSearchResult) -> &[SearchItem] {
        &res.items
    }

    fn work(res: &ShardedSearchResult) -> (u64, u64) {
        (res.verified as u64, res.screened as u64)
    }

    fn before_pass(&self) {}

    fn access_stats(&self) -> AccessStatsSnapshot {
        self.index.access_stats()
    }

    fn file_bytes(&self) -> u64 {
        self.index.file_size_bytes()
    }

    fn index_layers(
        &self,
        m: &mut Metrics,
        inputs: &Inputs,
        scale: &Scale,
        _results: Vec<ShardedSearchResult>,
    ) -> io::Result<()> {
        seed_shard_layers(m, &self.index, &inputs.data, &inputs.queries, scale)
    }
}

pub fn run(scale: &Scale, seed: u64, trace: bool) -> io::Result<Report> {
    let inputs = inputs::norm_skewed(scale, seed)?;
    let config = config(scale);
    let build = || {
        let index = ShardedProMips::build_in_memory(&inputs.data, config.clone())?;
        let scratch = ShardedScratch::for_index(&index);
        Ok(Sharded { index, scratch })
    };
    readonly::run(
        Workload::Skew64Shard4,
        &inputs,
        scale,
        scale.skew_passes,
        trace,
        build,
    )
}
