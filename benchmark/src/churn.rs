//! `lf300_churn`: writes beside reads on a durable four-shard index.
//!
//! Fully sequential and seeded — no background compactor, nothing
//! triggered by time: ten rounds of insert batches → deletes of seeded
//! live ids → the round's own seeded queries, `compact_all()` after two of
//! the rounds, then drop, reopen and compare.
//!
//! The script is deterministic, so like the query sets of the read-only
//! workloads it is run several times over (each time on a freshly built
//! directory) and a query's latency sample is its fastest execution.

use std::io;
use std::time::Instant;

use promips::core::SearchItem;
use promips::linalg::Matrix;
use promips::obs::{self, CounterId};
use promips::shard::{ShardedConfig, ShardedProMips, ShardedScratch, SyncPolicy};
use promips::stats::Xoshiro256pp;
use promips::storage::faults;

use crate::harness::{
    calib_line, dir_bytes, fastest, median, micros_since, HostCalib, LatencyTable, ScratchDir,
};
use crate::inputs::{self, Inputs};
use crate::layers::{self, TracedQuery};
use crate::quality::{self, Quality, K};
use crate::report::{Metrics, Ops, Report};
use crate::sharded::{self, FAN_OUT_THREADS};
use crate::spec::{Scale, END_TO_END, PER_LAYER};
use crate::workload::{self, EndToEnd};

/// Stream of the delete picks, apart from the data and query streams.
const DELETE_STREAM: u64 = 0xDE1E_7E5A_11CE_0002;

/// Wall time and volume of the mutation side of one script pass.
#[derive(Default)]
struct WriteSide {
    insert_s: f64,
    inserted_rows: u64,
    delete_s: f64,
    deleted: u64,
    compact_s: f64,
    wal_insert_bytes: u64,
    insert_fsyncs: u64,
    /// Σ over query batches of the rows pending in the shards' deltas.
    delta_rows: u64,
    query_batches: u64,
    reopen_s: f64,
    replayed_records: u64,
}

/// What one pass of the script measured.
#[derive(Default)]
struct ScriptPass {
    /// Inserts, deletes, compactions and queries; not the benchmark's own
    /// ground truth and checks.
    script_s: f64,
    completed: u64,
    /// One slot per (round, query): its result list.
    results: Vec<Option<Vec<SearchItem>>>,
    write: WriteSide,
    pages: u64,
    hits: u64,
    misses: u64,
    accuracy: Quality,
    exact_scan_us: Vec<f64>,
    truth_s: f64,
    traced_latencies: Vec<f64>,
    traced: Vec<TracedQuery>,
    live_rows: usize,
    disk_bytes: u64,
    file_bytes: u64,
}

struct Script<'a> {
    scale: &'a Scale,
    inputs: &'a Inputs,
    seed: u64,
    trace: bool,
    /// One slot per (round, query); every pass records into it.
    lat: LatencyTable,
    ops: Ops,
    correct: bool,
}

impl Script<'_> {
    /// Runs the script once on a freshly built `index` living in `dir`.
    /// `measure` adds what only one pass needs: accuracy against the live
    /// rows, and in a traced run the layer probes into `layer_metrics`.
    fn pass(
        &mut self,
        index: ShardedProMips,
        dir: &ScratchDir,
        measure: bool,
        layer_metrics: &mut Metrics,
    ) -> io::Result<ScriptPass> {
        let (scale, inputs) = (self.scale, self.inputs);
        let data = &inputs.data;
        // Every round asks queries of its own, so the latency samples of a
        // pass are as many distinct queries and not a few asked ten times.
        let round_queries = |round: usize| -> Matrix {
            let rows: Vec<usize> =
                ((round - 1) * scale.churn_queries..round * scale.churn_queries).collect();
            inputs.queries.gather(&rows)
        };
        let scratch = ShardedScratch::for_index(&index);
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ DELETE_STREAM);
        let mut live = vec![false; data.rows()];
        live[..scale.churn_base].fill(true);
        let mut live_ids: Vec<u64> = (0..scale.churn_base as u64).collect();
        let mut next_row = scale.churn_base;
        let mut out = ScriptPass::default();
        let w = &mut out.write;
        let wal_bytes = |index: &ShardedProMips| -> u64 {
            (0..index.shard_count()).map(|si| index.wal_bytes(si)).sum()
        };

        for round in 1..=scale.churn_rounds {
            // Inserts: the next rows of the matrix, so a row's global id is
            // its row number.
            for _ in 0..scale.churn_batches {
                let rows = next_row..next_row + scale.churn_batch_rows;
                let wal_before = wal_bytes(&index);
                let fsyncs_before = faults::counters().fsyncs;
                let t = Instant::now();
                let res = index.insert_batch(rows.clone().map(|r| data.row(r)));
                w.insert_s += t.elapsed().as_secs_f64();
                w.insert_fsyncs += faults::counters().fsyncs - fsyncs_before;
                w.wal_insert_bytes += wal_bytes(&index) - wal_before;
                if let Some(ids) = self.ops.note("insert_batch", res) {
                    if !ids.iter().copied().eq(rows.clone().map(|r| r as u64)) {
                        self.ops.failed += 1;
                        println!("FAILED insert_batch: ids are not the row numbers {rows:?}");
                    }
                    w.inserted_rows += ids.len() as u64;
                    for r in rows.clone() {
                        live[r] = true;
                        live_ids.push(r as u64);
                    }
                }
                next_row = rows.end;
            }

            // Deletes of seeded live ids.
            for _ in 0..scale.churn_deletes {
                let gid = live_ids.swap_remove(rng.below(live_ids.len() as u64) as usize);
                let t = Instant::now();
                let res = index.delete(gid);
                w.delete_s += t.elapsed().as_secs_f64();
                if self.ops.note("delete", res).is_some() {
                    live[gid as usize] = false;
                    w.deleted += 1;
                }
            }

            // Queries against the delta overlay and the tombstones.
            let queries = &round_queries(round);
            w.delta_rows += index
                .shards()
                .iter()
                .map(|s| s.delta_len() as u64)
                .sum::<u64>();
            w.query_batches += 1;
            let stats_before = index.access_stats();
            let t_batch = Instant::now();
            let mut batch = Vec::with_capacity(queries.rows());
            for q in queries.iter_rows() {
                let t = Instant::now();
                let res = index.search_threaded(q, K, FAN_OUT_THREADS, &scratch);
                batch.push((res, micros_since(t)));
            }
            out.script_s += t_batch.elapsed().as_secs_f64();
            let io = index.access_stats().delta_since(&stats_before);
            out.pages += io.logical_reads;
            out.hits += io.cache_hits;
            out.misses += io.cache_misses;
            let batch: Vec<_> = batch
                .into_iter()
                .map(|(res, us)| Some((self.ops.note("search", res)?, us)))
                .collect();

            if self.trace {
                // The same batch again through the tracing entry point,
                // after the untraced one and outside the script's wall time.
                for (q, plain) in queries.iter_rows().zip(&batch) {
                    let t = Instant::now();
                    let res = sharded::search_traced(&index, q, &scratch);
                    let us = micros_since(t);
                    let Some((res, traced)) = self.ops.note("traced search", res) else {
                        continue;
                    };
                    out.traced_latencies.push(us);
                    if plain.as_ref().is_some_and(|(plain, _)| {
                        plain.items != res.items || plain.screened as u64 != traced.screened
                    }) {
                        self.correct = false;
                        println!(
                            "FAILED round {round}: a traced search differs from the plain one"
                        );
                    }
                    out.traced.push(traced);
                }
            }

            // Every result must be exact, ordered, unique and live; accuracy
            // is taken where the delta is largest and at the end.
            let truth = (measure && scale.churn_quality_at.contains(&round)).then(|| {
                let live_idx: Vec<usize> = (0..data.rows()).filter(|&r| live[r]).collect();
                let threads = workload::truth_threads(self.trace);
                quality::ground_truth(data, Some(&live_idx), queries, threads)
            });
            for (qi, slot) in batch.into_iter().enumerate() {
                let Some((res, us)) = slot else {
                    out.results.push(None);
                    continue;
                };
                let q = queries.row(qi);
                let is_live = |id: u64| live[id as usize];
                if let Err(why) =
                    quality::check_result(&res.items, q, data, live_ids.len(), is_live)
                {
                    self.ops.failed += 1;
                    println!("FAILED round {round} query {qi}: {why}");
                }
                if let Some(truth) = &truth {
                    out.accuracy.add(&res.items, &truth.topk[qi]);
                }
                out.completed += 1;
                self.lat.record(out.results.len(), us);
                out.results.push(Some(res.items));
            }
            if let Some(truth) = truth {
                out.exact_scan_us.push(truth.exact_scan_us);
                out.truth_s += truth.total_s;
            }

            if scale.churn_compact_after.contains(&round) {
                let t = Instant::now();
                let res = index.compact_all();
                w.compact_s += t.elapsed().as_secs_f64();
                self.ops.note("compact_all", res);
            }
        }
        out.script_s += w.insert_s + w.delete_s + w.compact_s;
        out.live_rows = live_ids.len();
        out.file_bytes = index.file_size_bytes();
        let queries = &round_queries(scale.churn_rounds);
        if measure && self.trace {
            sharded::seed_shard_layers(layer_metrics, &index, data, queries, scale)?;
        }

        // Restart: drop, reopen, and compare with what was acknowledged
        // before the drop.
        drop(index);
        let replayed_before = obs::global().counter(CounterId::WalReplayedRecords).get();
        let t = Instant::now();
        let reopened = self.ops.note("reopen", ShardedProMips::open(dir.path()));
        w.reopen_s = t.elapsed().as_secs_f64();
        w.replayed_records =
            obs::global().counter(CounterId::WalReplayedRecords).get() - replayed_before;
        if let Some(reopened) = &reopened {
            let wrong = (0..next_row)
                .filter(|&r| reopened.contains(r as u64) != live[r])
                .count();
            if wrong > 0 {
                self.correct = false;
                println!(
                    "FAILED reopen: {wrong} ids visible or gone against the acknowledged state"
                );
            }
            let scratch = ShardedScratch::for_index(reopened);
            let last_round = &out.results[out.results.len() - queries.rows()..];
            for (qi, q) in queries.iter_rows().enumerate() {
                let res = reopened.search_threaded(q, K, FAN_OUT_THREADS, &scratch);
                let Some(res) = self.ops.note("search after reopen", res) else {
                    continue;
                };
                if last_round[qi]
                    .as_ref()
                    .is_some_and(|before| *before != res.items)
                {
                    self.ops.failed += 1;
                    println!("FAILED reopen: query {qi} returns a different top-{K}");
                }
            }
        }
        out.disk_bytes = dir_bytes(dir.path())?;
        Ok(out)
    }
}

pub fn run(scale: &Scale, seed: u64, trace: bool) -> io::Result<Report> {
    let inputs = inputs::latent_factor(scale, seed, scale.churn_rounds * scale.churn_queries)?;
    let d = inputs.data.cols();
    let config = ShardedConfig {
        wal_sync: SyncPolicy::EveryN(64),
        ..sharded::config(scale)
    };
    let mut script = Script {
        scale,
        inputs: &inputs,
        seed,
        trace,
        lat: LatencyTable::new(scale.churn_rounds * scale.churn_queries),
        ops: Ops::default(),
        correct: true,
    };
    let mut layer_metrics = Metrics::new(PER_LAYER);

    // Set-up (rows in memory → durable, query-ready directory) several
    // times over, each build carrying one pass of the script.
    let passes = if trace { 1 } else { scale.churn_passes };
    let calib = HostCalib::new();
    let mut build_s = Vec::new();
    let mut done: Vec<ScriptPass> = Vec::new();
    for _ in 0..passes {
        let dir = ScratchDir::new("churn")?;
        let base = Matrix::from_vec(
            scale.churn_base,
            d,
            inputs.data.as_slice()[..scale.churn_base * d].to_vec(),
        );
        let t = Instant::now();
        let index = ShardedProMips::build_in_dir(&base, config.clone(), dir.path())?;
        build_s.push(t.elapsed().as_secs_f64());
        drop(base);
        let calib_before = calib.sweep_us();
        let pass = script.pass(index, &dir, done.is_empty(), &mut layer_metrics)?;
        println!("{}", calib_line("script", calib_before, calib.sweep_us()));
        println!(
            "script: {:.2} s = insert {:.2} + delete {:.2} + compact {:.2} + queries",
            pass.script_s, pass.write.insert_s, pass.write.delete_s, pass.write.compact_s
        );
        // Every pass must do the first one's work over again, which is what
        // makes a slot's fastest execution a fair sample of it.
        if done.first().is_some_and(|first| {
            (&first.results, first.pages, first.misses) != (&pass.results, pass.pages, pass.misses)
        }) {
            script.ops.failed += 1;
            println!("FAILED: a pass of the script differs from the first in results or pages");
        }
        done.push(pass);
    }
    println!(
        "index: base={} d={d} builds {build_s:.3?} s",
        scale.churn_base
    );

    if script.ops.failed > 0 {
        let table = if trace { PER_LAYER } else { END_TO_END };
        return Ok(Report::unmeasured(script.ops, table));
    }

    // A (round, query) slot's sample is its fastest execution over the
    // passes; throughput is that of the fastest pass.
    let first = &done[0];
    let samples = script.lat.samples();
    println!(
        "latency samples: {} (per round and query, fastest of {} script passes)",
        samples.len(),
        done.len()
    );
    let completed = first.completed;

    if !trace {
        let script_s: Vec<f64> = done.iter().map(|p| p.script_s).collect();
        let metrics = workload::end_to_end_metrics(
            &EndToEnd {
                setup_s: median(&build_s),
                samples: &samples,
                queries_per_s: completed as f64 / fastest(&script_s),
                accuracy: &first.accuracy,
                pages_per_query: first.pages as f64 / completed as f64,
                space_amp: first.disk_bytes as f64 / (first.live_rows * d * 4) as f64,
            },
            &mut script.correct,
        )?;
        return Ok(Report {
            ops: script.ops,
            correct: script.correct,
            metrics,
        });
    }

    let m = &mut layer_metrics;
    let w = &first.write;
    layers::core_stage_metrics(m, &first.traced);
    layers::fan_out_metrics(m, &first.traced);
    layers::trace_overhead(m, &samples, &first.traced_latencies);
    m.set(
        "storage.pool_hit_frac",
        first.hits as f64 / first.pages.max(1) as f64,
    );
    m.set(
        "storage.misses_per_query",
        first.misses as f64 / completed as f64,
    );
    m.set("storage.file_mb", first.file_bytes as f64 / 1048576.0);
    m.set(
        "shard.insert_rows_per_s",
        w.inserted_rows as f64 / w.insert_s,
    );
    m.set("shard.delete_ops_per_s", w.deleted as f64 / w.delete_s);
    m.set("shard.compact_s", w.compact_s);
    m.set(
        "shard.delta_rows_mean",
        w.delta_rows as f64 / w.query_batches as f64,
    );
    m.set("shard.reopen_s", w.reopen_s);
    m.set(
        "wal.bytes_per_row",
        w.wal_insert_bytes as f64 / w.inserted_rows.max(1) as f64,
    );
    m.set(
        "wal.fsyncs_per_1k_rows",
        w.insert_fsyncs as f64 * 1e3 / w.inserted_rows.max(1) as f64,
    );
    m.set("wal.replayed_records", w.replayed_records as f64);
    layers::baseline_metrics(m, median(&first.exact_scan_us), &samples);
    m.set("data.gen_s", inputs.gen_s);
    m.set("data.ground_truth_s", first.truth_s);
    layers::btree_metrics(m, inputs.data.rows(), scale.probe_iters)?;
    Ok(Report {
        ops: script.ops,
        correct: script.correct,
        metrics: layer_metrics,
    })
}
