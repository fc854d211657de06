//! `lf300_hot` and `lf300_cold`: one `ProMips` built into a page file.
//! The two differ only in the buffer pool — it holds the whole file, or
//! ≈ 2.7 % of it and is cleared before every pass.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use promips::core::{ProMips, ProMipsConfig, SearchItem, SearchResult, SearchScratch};
use promips::obs::ShardSpan;
use promips::storage::{AccessStats, AccessStatsSnapshot, FileStorage, Pager, PAGE_SIZE_DEFAULT};

use crate::harness::ScratchDir;
use crate::inputs::{self, Inputs};
use crate::layers::{self, TracedQuery};
use crate::quality::{C, K, P};
use crate::readonly::{self, Target};
use crate::report::{Metrics, Report};
use crate::spec::{Scale, Workload};

struct Single {
    index: ProMips,
    scratch: SearchScratch,
    cold: bool,
    /// Holds the page file; removed when the target is dropped.
    _dir: ScratchDir,
}

impl Target for Single {
    type Res = SearchResult;

    fn search(&mut self, q: &[f32]) -> io::Result<SearchResult> {
        self.index.search_with_scratch(q, K, &mut self.scratch)
    }

    /// `search_masked_traced` with an all-live mask and no floor: the same
    /// search, with its stage breakdown exported.
    fn search_traced(&mut self, q: &[f32]) -> io::Result<(SearchResult, TracedQuery)> {
        let mut span = ShardSpan::default();
        let t = Instant::now();
        let res = self.index.search_masked_traced(
            q,
            K,
            f64::NEG_INFINITY,
            &|_| false,
            0,
            &mut self.scratch,
            &mut span,
        )?;
        let traced = TracedQuery {
            total_ns: t.elapsed().as_nanos() as u64,
            stages: span.stages,
            scanned: span.scanned,
            screened: span.screened,
            verified: span.verified,
            returned: res.items.len() as u64,
            fan_out: None,
        };
        Ok((res, traced))
    }

    fn items(res: &SearchResult) -> &[SearchItem] {
        &res.items
    }

    fn work(res: &SearchResult) -> (u64, u64) {
        (res.verified as u64, res.screened as u64)
    }

    fn before_pass(&self) {
        if self.cold {
            self.index.clear_cache();
        }
    }

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
        results: Vec<SearchResult>,
    ) -> io::Result<()> {
        layers::linalg_metrics(m, self.index.d(), self.index.m(), scale.probe_iters);
        layers::index_metrics(m, &self.index, &inputs.data, &inputs.queries, &results)
    }
}

/// `workload` is `Lf300Hot` or `Lf300Cold`.
pub fn run(workload: Workload, scale: &Scale, seed: u64, trace: bool) -> io::Result<Report> {
    let cold = workload == Workload::Lf300Cold;
    let inputs = inputs::latent_factor(scale, seed, scale.lf_queries)?;
    let (pool_pages, passes) = if cold {
        (scale.cold_pool_pages, scale.cold_passes)
    } else {
        (scale.hot_pool_pages, scale.hot_passes)
    };
    let config = ProMipsConfig::builder()
        .c(C)
        .p(P)
        .pool_pages(pool_pages)
        .build();
    readonly::run(workload, &inputs, scale, passes, trace, || {
        let dir = ScratchDir::new("single")?;
        let storage = FileStorage::create(dir.path().join("index.pmx"), PAGE_SIZE_DEFAULT)?;
        let pager = Pager::new(Arc::new(storage), pool_pages, AccessStats::new_shared());
        let index = ProMips::build_with_pager(&inputs.data, config.clone(), Arc::new(pager))?;
        index.save()?;
        Ok(Single {
            index,
            scratch: SearchScratch::new(),
            cold,
            _dir: dir,
        })
    })
}
