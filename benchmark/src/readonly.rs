//! The three pass-based, read-only workloads share one script: build the
//! index (set-up), compute ground truth, run a warm-up pass and check its
//! results, then the timed passes — untraced for the end-to-end metrics,
//! where a second set-up follows them, and in a `--trace 1` run followed by
//! the traced passes and the layer probes.

use std::io;
use std::time::Instant;

use promips::core::SearchItem;
use promips::storage::AccessStatsSnapshot;

use crate::harness::{calib_line, fastest, median, HostCalib, LatencyTable};
use crate::inputs::Inputs;
use crate::layers::{self, TracedQuery};
use crate::passes::PassLoop;
use crate::quality::{self, Quality};
use crate::report::{Metrics, Report};
use crate::spec::{Scale, Workload, END_TO_END, PER_LAYER};
use crate::workload::{self, EndToEnd};

/// A built index under test, together with its search scratch.
pub trait Target {
    type Res;
    fn search(&mut self, q: &[f32]) -> io::Result<Self::Res>;
    /// The same search through the index's tracing entry point.
    fn search_traced(&mut self, q: &[f32]) -> io::Result<(Self::Res, TracedQuery)>;
    fn items(res: &Self::Res) -> &[SearchItem];
    /// `(verified, screened)` row counts of one search.
    fn work(res: &Self::Res) -> (u64, u64);
    /// Called before every pass (the cold workload drops its page cache).
    fn before_pass(&self);
    fn access_stats(&self) -> AccessStatsSnapshot;
    /// Bytes of the index's page files.
    fn file_bytes(&self) -> u64;
    /// Layer metrics that need the index itself (`linalg`, `idistance`,
    /// `core` probes, `storage` page paths). Runs last: it may clear caches.
    fn index_layers(
        &self,
        m: &mut Metrics,
        inputs: &Inputs,
        scale: &Scale,
        results: Vec<Self::Res>,
    ) -> io::Result<()>;
}

pub fn run<T: Target>(
    workload: Workload,
    inputs: &Inputs,
    scale: &Scale,
    passes: usize,
    trace: bool,
    mut build: impl FnMut() -> io::Result<T>,
) -> io::Result<Report> {
    let (data, queries) = (&inputs.data, &inputs.queries);
    let nq = queries.rows();
    let table = if trace { PER_LAYER } else { END_TO_END };

    // Set-up: data matrix in memory → query-ready index. An untraced run
    // sets up once more after the timed passes and not here: builds that
    // sit together are slow together (three in a row agreed within 5 % and
    // read 1.0 s in one run, 1.5 s in the next).
    let t = Instant::now();
    let mut target = build()?;
    let build_before_s = t.elapsed().as_secs_f64();
    println!(
        "index: n={} d={} files={:.1} MB; build {build_before_s:.3} s",
        data.rows(),
        data.cols(),
        target.file_bytes() as f64 / 1048576.0
    );

    let truth = quality::ground_truth(data, None, queries, workload::truth_threads(trace));

    // Warm-up pass, not timed: fills the pool and the search scratch. Its
    // results are the reference every later pass must repeat; correctness
    // and accuracy are taken from them.
    let mut pass_loop = PassLoop::new(queries);
    target.before_pass();
    let warm_up = pass_loop.run(&mut LatencyTable::new(nq), |q| target.search(q), T::items);
    let mut accuracy = Quality::default();
    for (qi, res) in warm_up.results.iter().enumerate() {
        let Some(res) = res else { continue };
        let items = T::items(res);
        if let Err(why) = quality::check_result(items, queries.row(qi), data, data.rows(), |_| true)
        {
            pass_loop.ops.failed += 1;
            println!("FAILED query {qi}: {why}");
        }
        accuracy.add(items, &truth.topk[qi]);
    }

    // Timed passes. Each must do the warm-up's work over again — same
    // results (checked by the loop), same pages read and missed — which is
    // what makes a query's fastest pass a fair sample of it.
    let calib = HostCalib::new();
    let timed_passes = if trace { scale.traced_passes } else { passes };
    let mut correct = true;
    let mut lat = LatencyTable::new(nq);
    let mut walls = Vec::new();
    let mut io_pass = None;
    let calib_before = calib.sweep_us();
    for pass in 0..timed_passes {
        target.before_pass();
        let stats_before = target.access_stats();
        let out = pass_loop.run(&mut lat, |q| target.search(q), T::items);
        walls.push(out.wall_s);
        let io = target.access_stats().delta_since(&stats_before);
        if *io_pass.get_or_insert(io) != io {
            correct = false;
            println!("FAILED: pass {pass} did other page work than pass 0: {io:?}");
        }
    }
    println!("{}", calib_line("untraced", calib_before, calib.sweep_us()));
    let io_untraced = io_pass.expect("at least one pass");
    if pass_loop.ops.failed > 0 {
        return Ok(Report::unmeasured(pass_loop.ops, table));
    }
    let results: Vec<T::Res> = warm_up.results.into_iter().flatten().collect();
    let samples = lat.samples();
    println!(
        "latency samples: {} (per-query fastest of {timed_passes} passes); pass walls {walls:.3?} s",
        samples.len()
    );

    if !trace {
        let file_bytes = target.file_bytes();
        drop(target);
        let t = Instant::now();
        drop(build()?);
        let build_after_s = t.elapsed().as_secs_f64();
        println!("build after the timed passes: {build_after_s:.3} s");
        let metrics = workload::end_to_end_metrics(
            &EndToEnd {
                setup_s: median(&[build_before_s, build_after_s]),
                samples: &samples,
                queries_per_s: nq as f64 / fastest(&walls),
                accuracy: &accuracy,
                pages_per_query: io_untraced.logical_reads as f64 / nq as f64,
                space_amp: file_bytes as f64 / (data.rows() * data.cols() * 4) as f64,
            },
            &mut correct,
        )?;
        return Ok(Report {
            ops: pass_loop.ops,
            correct,
            metrics,
        });
    }

    // Traced phase: the same passes through the tracing entry point, after
    // the untraced ones — never interleaved with them.
    let mut traced_lat = LatencyTable::new(nq);
    let mut per_query: Vec<Vec<TracedQuery>> = vec![Vec::new(); nq];
    let calib_before = calib.sweep_us();
    for pass in 0..timed_passes {
        target.before_pass();
        let stats_before = target.access_stats();
        let out = pass_loop.run(
            &mut traced_lat,
            |q| target.search_traced(q),
            |(res, _)| T::items(res),
        );
        // The traced passes must have done the untraced passes' work.
        let io = target.access_stats().delta_since(&stats_before);
        if io != io_untraced {
            correct = false;
            println!("FAILED: traced pass {pass} did other page work than the untraced: {io:?}");
        }
        for (qi, res) in out.results.into_iter().enumerate() {
            per_query[qi].extend(res.map(|(_, traced)| traced));
        }
    }
    println!("{}", calib_line("traced", calib_before, calib.sweep_us()));
    if pass_loop.ops.failed > 0 {
        return Ok(Report::unmeasured(pass_loop.ops, table));
    }

    let mut m = Metrics::new(PER_LAYER);
    // One trace per query: that of its fastest pass, whole, so its stages
    // still add up to its total — in line with the latency samples.
    let traced: Vec<TracedQuery> = per_query
        .iter()
        .map(|passes| {
            *passes
                .iter()
                .min_by_key(|t| t.total_ns)
                .expect("every traced search succeeded")
        })
        .collect();
    if results
        .iter()
        .zip(&traced)
        .any(|(res, t)| T::work(res) != (t.verified, t.screened))
    {
        correct = false;
        println!("FAILED: traced verified/screened counts differ from the untraced search");
    }
    layers::core_stage_metrics(&mut m, &traced);
    layers::fan_out_metrics(&mut m, &traced);
    layers::trace_overhead(&mut m, &samples, &traced_lat.samples());
    m.set(
        "storage.pool_hit_frac",
        io_untraced.cache_hits as f64 / io_untraced.logical_reads.max(1) as f64,
    );
    m.set(
        "storage.misses_per_query",
        io_untraced.cache_misses as f64 / nq as f64,
    );
    m.set("storage.file_mb", target.file_bytes() as f64 / 1048576.0);
    layers::baseline_metrics(&mut m, truth.exact_scan_us, &samples);
    m.set("data.gen_s", inputs.gen_s);
    m.set("data.ground_truth_s", truth.total_s);
    layers::btree_metrics(&mut m, data.rows(), scale.probe_iters)?;
    target.index_layers(&mut m, inputs, scale, results)?;
    m.zero_where(|metric| !workload.exercises(metric));
    Ok(Report {
        ops: pass_loop.ops,
        correct,
        metrics: m,
    })
}
