//! Per-layer measurements of the traced phase: benchmark-owned spans
//! around public calls into each crate, replayed with the workload's
//! queries, plus the aggregation of the per-query breakdowns the `core`
//! and `shard` crates already return.

use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use promips::btree::BTree;
use promips::core::projection::Projection;
use promips::core::quickprobe::QuickProbe;
use promips::core::result::Termination;
use promips::core::{ProMips, SearchResult};
use promips::idistance::ProjScratch;
use promips::linalg::{dot, dot4_i8, norm1, sq_dist4, Matrix};
use promips::obs::StageNanos;
use promips::stats::Xoshiro256pp;
use promips::storage::{Pager, PAGE_SIZE_DEFAULT};

use crate::harness::{mean, median, micros_since};
use crate::quality::{C, P};
use crate::report::Metrics;

/// One traced query: the stage breakdown and counts its trace reported,
/// next to the benchmark's own clock around the traced call.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedQuery {
    pub total_ns: u64,
    pub stages: StageNanos,
    pub scanned: u64,
    pub screened: u64,
    pub verified: u64,
    pub returned: u64,
    /// `None` for an unsharded index.
    pub fan_out: Option<FanOut>,
}

/// The shard layer's share of one traced query.
#[derive(Debug, Default, Clone, Copy)]
pub struct FanOut {
    pub span_ns: u64,
    pub merge_ns: u64,
    pub pruned: u64,
    pub searched: u64,
    pub coverage: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `core.*` stage times (median over the samples), row counts (mean) and
/// the waste ratios derived from them.
pub fn core_stage_metrics(m: &mut Metrics, samples: &[TracedQuery]) {
    let med = |f: &dyn Fn(&TracedQuery) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let avg = |f: &dyn Fn(&TracedQuery) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    m.set("core.scan_us", med(&|s| us(s.stages.scan_ns)));
    m.set("core.screen_us", med(&|s| us(s.stages.screen_ns)));
    m.set("core.verify_us", med(&|s| us(s.stages.verify_ns)));
    m.set("core.scanned_per_query", avg(&|s| s.scanned as f64));
    m.set("core.screened_per_query", avg(&|s| s.screened as f64));
    m.set("core.verified_per_query", avg(&|s| s.verified as f64));
    let sum = |f: &dyn Fn(&TracedQuery) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let (screened, verified) = (sum(&|s| s.screened), sum(&|s| s.verified));
    m.set(
        "core.screen_drop_frac",
        screened / (screened + verified).max(1.0),
    );
    m.set(
        "core.verified_useful_frac",
        sum(&|s| s.returned) / verified.max(1.0),
    );
    m.set(
        "core.stage_coverage",
        med(&|s| s.stages.total() as f64 / s.total_ns.max(1) as f64),
    );
}

/// `shard.*` read-side metrics from the per-query traces; nothing for an
/// unsharded index.
pub fn fan_out_metrics(m: &mut Metrics, samples: &[TracedQuery]) {
    let fan_outs: Vec<FanOut> = samples.iter().filter_map(|s| s.fan_out).collect();
    if fan_outs.is_empty() {
        return;
    }
    let col = |f: &dyn Fn(&FanOut) -> f64| fan_outs.iter().map(f).collect::<Vec<_>>();
    m.set("shard.span_us", median(&col(&|s| us(s.span_ns))));
    m.set("shard.merge_us", median(&col(&|s| us(s.merge_ns))));
    m.set("shard.pruned_per_query", mean(&col(&|s| s.pruned as f64)));
    m.set(
        "shard.searched_per_query",
        mean(&col(&|s| s.searched as f64)),
    );
    m.set("shard.trace_coverage", median(&col(&|s| s.coverage)));
}

/// `obs.trace_overhead_frac`: (traced − untraced) / untraced of the median
/// latency — also the check that the traced numbers describe the untraced
/// run.
pub fn trace_overhead(m: &mut Metrics, untraced_us: &[f64], traced_us: &[f64]) {
    let base = median(untraced_us);
    m.set("obs.trace_overhead_frac", (median(traced_us) - base) / base);
}

/// `baselines.exact_scan_us` — the blocked exact scan, the bar — and, as a
/// plain diagnostic, how many index queries fit into one scan. (Not a
/// metric: a kernel change that speeds both must not read as a regression.)
pub fn baseline_metrics(m: &mut Metrics, exact_scan_us: f64, untraced_us: &[f64]) {
    m.set("baselines.exact_scan_us", exact_scan_us);
    println!(
        "diagnostic: exact_scan_us / query_p50_us = {:.2}",
        exact_scan_us / median(untraced_us)
    );
}

/// `linalg.*`: the three kernels on standalone buffers in the workload's
/// shapes (`d` original, `m` projected coordinates), ns per row.
pub fn linalg_metrics(m: &mut Metrics, d: usize, proj_m: usize, rows_per_repeat: usize) {
    const ROWS: usize = 4096;
    let mut rng = Xoshiro256pp::seed_from_u64(0x11A1);
    let codes: Vec<u8> = (0..ROWS * d).map(|_| rng.below(256) as u8).collect();
    let qcodes: Vec<i8> = (0..d).map(|_| rng.below(255) as i8).collect();
    let rows: Vec<f32> = (0..ROWS * d).map(|_| rng.normal() as f32).collect();
    let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
    let prows: Vec<f32> = (0..ROWS * proj_m).map(|_| rng.normal() as f32).collect();
    let pq: Vec<f32> = (0..proj_m).map(|_| rng.normal() as f32).collect();
    let sweeps = rows_per_repeat.div_ceil(ROWS).max(1);

    let ns_per_row = |kernel: &dyn Fn()| {
        let repeats: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..sweeps {
                    kernel();
                }
                t.elapsed().as_nanos() as f64 / (sweeps * ROWS) as f64
            })
            .collect();
        median(&repeats)
    };
    m.set(
        "linalg.dot4_i8_ns_row",
        ns_per_row(&|| {
            for b in black_box(&codes).chunks_exact(4 * d) {
                black_box(dot4_i8(
                    &b[..d],
                    &b[d..2 * d],
                    &b[2 * d..3 * d],
                    &b[3 * d..],
                    &qcodes,
                ));
            }
        }),
    );
    m.set(
        "linalg.sq_dist4_ns_row",
        ns_per_row(&|| {
            let w = proj_m;
            for b in black_box(&prows).chunks_exact(4 * w) {
                black_box(sq_dist4(
                    &b[..w],
                    &b[w..2 * w],
                    &b[2 * w..3 * w],
                    &b[3 * w..],
                    &pq,
                ));
            }
        }),
    );
    m.set(
        "linalg.dot_ns_row",
        ns_per_row(&|| {
            for r in black_box(&rows).chunks_exact(d) {
                black_box(dot(r, &q));
            }
        }),
    );
}

/// `btree.*`: a standalone tree bulk-loaded with `n` keys on an in-memory
/// pager that holds all of it.
pub fn btree_metrics(m: &mut Metrics, n: usize, lookups: usize) -> io::Result<()> {
    let pager = Arc::new(Pager::in_memory(PAGE_SIZE_DEFAULT, n / 64 + 1024));
    let tree = BTree::bulk_load(Arc::clone(&pager), (0..n as u64).map(|i| (i * 7, i)))?;
    let mut rng = Xoshiro256pp::seed_from_u64(0xB7EE);
    let keys: Vec<u64> = (0..lookups).map(|_| rng.below(n as u64) * 7).collect();
    for &k in &keys {
        black_box(tree.get(k)?); // fill the pool
    }
    let before = pager.stats().snapshot();
    let t = Instant::now();
    for &k in &keys {
        black_box(tree.get(k)?);
    }
    let lookup_ns = t.elapsed().as_nanos() as f64 / lookups as f64;
    let reads = pager.stats().snapshot().delta_since(&before).logical_reads;
    m.set("btree.lookup_ns", lookup_ns);
    m.set("btree.pages_per_lookup", reads as f64 / lookups as f64);

    let t = Instant::now();
    let mut entries = 0u64;
    for entry in tree.scan_all()? {
        black_box(entry?);
        entries += 1;
    }
    m.set(
        "btree.range_ns_entry",
        t.elapsed().as_nanos() as f64 / entries as f64,
    );
    Ok(())
}

/// `core.compensated_frac` and the three termination shares.
pub fn decision_metrics(m: &mut Metrics, results: &[SearchResult]) {
    let frac = |pred: &dyn Fn(&SearchResult) -> bool| {
        results.iter().filter(|r| pred(r)).count() as f64 / results.len() as f64
    };
    m.set("core.compensated_frac", frac(&|r| r.compensated));
    m.set(
        "core.term_cond_a_frac",
        frac(&|r| r.termination == Termination::ConditionA),
    );
    m.set(
        "core.term_cond_b_frac",
        frac(&|r| r.termination == Termination::ConditionB),
    );
    m.set(
        "core.term_exhausted_frac",
        frac(&|r| {
            matches!(
                r.termination,
                Termination::RangeExhausted | Termination::DatasetExhausted
            )
        }),
    );
}

/// Everything measured *on one `ProMips`*: its build stages, the
/// `idistance` range scan replayed at each search's final radius, the
/// standalone projection and Quick-Probe spans, and the pager's hit and
/// miss paths. `rows` are the rows `index` was built over and `results`
/// the searches of `queries` on it.
///
/// Runs last in the traced phase: it clears the index's page cache.
pub fn index_metrics(
    m: &mut Metrics,
    index: &ProMips,
    rows: &Matrix,
    queries: &Matrix,
    results: &[SearchResult],
) -> io::Result<()> {
    let timings = index.build_timings();
    m.set("core.build_project_s", timings.project_ms / 1e3);
    m.set("core.build_quickprobe_s", timings.quickprobe_ms / 1e3);
    m.set("core.build_idistance_s", timings.index_ms / 1e3);
    decision_metrics(m, results);

    // core: projection and Quick-Probe on their own. Both take well under
    // a clock tick's worth of confidence per call, so each sample times a
    // small batch of identical calls.
    let (proj_m, d) = (index.m(), index.d());
    let projection = Projection::generate(proj_m, d, index.config().seed);
    let projected = projection.project_all(rows);
    let probe = QuickProbe::build(
        proj_m,
        (0..rows.rows()).map(|i| (i as u64, projected.row(i))),
        |id| norm1(rows.row(id as usize)),
    );
    const BATCH: usize = 16;
    let mut pq = Vec::new();
    let mut project_us = Vec::with_capacity(queries.rows());
    let mut locate_us = Vec::with_capacity(queries.rows());
    for q in queries.iter_rows() {
        let t = Instant::now();
        for _ in 0..BATCH {
            projection.project_into(black_box(q), &mut pq);
        }
        project_us.push(micros_since(t) / BATCH as f64);
        let q_norm1 = norm1(q);
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(probe.locate(black_box(&pq), q_norm1, C, P));
        }
        locate_us.push(micros_since(t) / BATCH as f64);
    }
    m.set("core.project_us", median(&project_us));
    m.set("core.locate_us", median(&locate_us));

    // idistance: the range scan alone, one reused arena.
    let idist = index.idistance();
    let mut cands = Vec::new();
    let mut scratch = ProjScratch::new();
    let mut scan_us = Vec::with_capacity(queries.rows());
    let (mut cand_total, mut page_total) = (0u64, 0u64);
    for (q, res) in queries.iter_rows().zip(results) {
        let radius = res.final_radius.unwrap_or(0.0);
        projection.project_into(q, &mut pq);
        let mut repeats = [0.0; 3];
        for r in &mut repeats {
            let before = idist.access_stats();
            let t = Instant::now();
            idist.range_candidates_into(&pq, -1.0, radius, &mut cands, &mut scratch)?;
            *r = micros_since(t);
            page_total += idist.access_stats().delta_since(&before).logical_reads;
            cand_total += cands.len() as u64;
        }
        scan_us.push(median(&repeats));
    }
    let scans = (3 * queries.rows()) as f64;
    m.set("idistance.range_scan_us", median(&scan_us));
    m.set("idistance.candidates_per_query", cand_total as f64 / scans);
    m.set("idistance.scan_pages_per_query", page_total as f64 / scans);

    // storage: the same pages through the pool (hit) and from the device
    // (miss). Half the pool, so the second sweep finds every page cached.
    let pager = idist.pager();
    let span = pager
        .num_pages()
        .min(index.config().pool_pages as u64 / 2)
        .max(1);
    let sweep = |pager: &Pager| -> io::Result<f64> {
        let t = Instant::now();
        for id in 0..span {
            black_box(pager.read(id)?);
        }
        Ok(t.elapsed().as_nanos() as f64 / span as f64)
    };
    let mut miss_ns = Vec::new();
    let mut hit_ns = Vec::new();
    for _ in 0..5 {
        pager.clear_cache();
        miss_ns.push(sweep(pager)?);
        hit_ns.push(sweep(pager)?);
    }
    m.set("storage.page_miss_ns", median(&miss_ns));
    m.set("storage.page_hit_ns", median(&hit_ns));
    Ok(())
}
