//! The observability stack on a sharded workload: the global metrics
//! registry, windowed rates and quantiles fed by a background
//! aggregator, sampled query traces, the slow-query log, the flight
//! recorder, and the SLO health report.
//!
//! ```sh
//! cargo run --release --example observe
//! ```
//!
//! CI runs this example and it self-checks: both Prometheus exposition
//! styles are piped through the in-repo format checker
//! ([`promips::obs::promcheck`]) and the process exits non-zero if
//! either fails.

use std::time::Duration;

use promips::linalg::Matrix;
use promips::obs::{self, health, recorder, sampling, slow, window, HistogramStyle};
use promips::shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch, SyncPolicy};
use promips::stats::Xoshiro256pp;

fn main() -> std::io::Result<()> {
    let d = 32;
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let data = Matrix::from_rows(
        d,
        (0..6000).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    );

    let dir = std::env::temp_dir().join("promips-observe-example");
    let _ = std::fs::remove_dir_all(&dir);

    // A durable 3-shard index: queries, mutations and compaction all feed
    // the same process-global registry.
    let config = ShardedConfig::builder()
        .shards(3)
        .wal_sync(SyncPolicy::EveryN(32))
        .build();
    let index = ShardedProMips::build_in_dir(&data, config, &dir)?;
    let scratch = ShardedScratch::for_index(&index);

    // Keep the 8 slowest traces, whatever their latency; sample 1 in 4
    // ordinary searches through the trace machinery so the slow log and
    // exemplars fill even without explicit tracing.
    slow::configure(0, 8);
    sampling::set_sample_every(4);

    // A background aggregator turns the cumulative registry into
    // per-interval deltas for windowed rates and quantiles.
    let aggregator = window::start_global_aggregator(Duration::from_millis(25))?;

    // A mixed workload: inserts, deletes, queries, one compaction pass.
    for _ in 0..300 {
        let v: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        index.insert(&v)?;
    }
    for gid in (0..600).step_by(4) {
        index.delete(gid)?;
    }
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect();
    let sequential = |q| ShardedQuery {
        threads: Some(1),
        ..ShardedQuery::new(q, 10)
    };
    for q in &queries {
        index.execute(sequential(q), &scratch)?;
    }
    index.compact_all()?;

    // Let the aggregator capture the workload in at least one interval,
    // then stop it (final tick included).
    std::thread::sleep(Duration::from_millis(60));
    aggregator.stop();

    // Per-query stage trace: where did this one search spend its time?
    let traced = ShardedQuery {
        traced: true,
        ..sequential(&queries[0])
    };
    let (res, trace) = index.execute(traced, &scratch)?;
    let trace = trace.expect("a traced request returns its trace");
    println!("--- one traced query (top ip {:.3}) ---", res.items[0].ip);
    print!("{}", trace.render());

    // The slow-query log retains the worst entries seen so far, each
    // carrying its trace, lifecycle verdict, and flight-recorder excerpt.
    let worst = slow::snapshot();
    println!(
        "\n--- slow-query log ({} kept, worst first) ---",
        worst.len()
    );
    for t in worst.iter().take(3) {
        println!(
            "  {:>7} us  k={}  searched {}/{} shards{}{}",
            t.total_ns() / 1_000,
            t.trace.k,
            t.trace.shards_searched(),
            t.trace.shards.len(),
            if t.sampled { "  [sampled]" } else { "" },
            if t.degraded { "  [DEGRADED]" } else { "" },
        );
    }

    // Windowed view: per-second rates and sliding quantiles over the
    // last second of intervals.
    let w = window::MetricsWindow::global().window(window::HORIZON_1S);
    println!(
        "\n--- windowed metrics ({} intervals, {:.0} ms) ---",
        w.intervals,
        w.elapsed_ns as f64 / 1e6
    );
    println!(
        "  queries/s   {:8.1}",
        w.rate_per_sec(obs::CounterId::Queries)
    );
    println!(
        "  inserts/s   {:8.1}",
        w.rate_per_sec(obs::CounterId::Inserts)
    );
    println!(
        "  p99 latency {:8.1} us",
        w.quantile(obs::HistoId::QueryLatencyNs, 0.99) / 1e3
    );

    // SLO health over the windowed view.
    let report = health::SloPolicy::default().evaluate_with_generation_age(
        &window::MetricsWindow::global().window(window::HORIZON_10S),
        index.max_generation_age_ns(),
    );
    println!("\n--- health report ---");
    print!("{}", report.render());

    // The flight recorder holds the maintenance/lifecycle trail.
    println!(
        "\n--- flight recorder ({} events) ---",
        recorder::dump().len()
    );
    for line in recorder::render_dump().lines().take(8) {
        println!("{line}");
    }

    // Both Prometheus exposition styles must pass the in-repo format
    // checker: TYPE<->sample agreement, label escaping, cumulative
    // buckets ending in +Inf. CI runs this example for exactly this.
    let snap = obs::global().snapshot();
    for style in [HistogramStyle::Summary, HistogramStyle::CumulativeBuckets] {
        let text = snap.render_prometheus_style(style);
        if let Err(errors) = obs::promcheck::check_exposition(&text) {
            eprintln!("exposition ({style:?}) failed format check:");
            for e in errors {
                eprintln!("  {e}");
            }
            std::process::exit(1);
        }
    }
    if let Err(errors) = obs::promcheck::check_exposition(&report.render_prometheus()) {
        eprintln!("health exposition failed format check: {errors:?}");
        std::process::exit(1);
    }
    // The index-or-scan rule's counter rides the same checked exposition:
    // how many per-shard searches the column pass answered (the traced
    // query above prints the rule's input and verdict per shard).
    let column_passes = snap.counter(obs::CounterId::QueryColumnPasses);
    let series = format!("promips_query_column_passes_total {column_passes}");
    if !snap.render_prometheus().lines().any(|l| l == series) {
        eprintln!("exposition lacks `{series}`");
        std::process::exit(1);
    }
    println!("\n--- prometheus exposition: both styles pass promcheck ---");
    for line in snap
        .render_prometheus_style(HistogramStyle::CumulativeBuckets)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            [
                "queries_total",
                "query_column_passes",
                "query_latency_ns_bucket",
                "wal_appends",
                "compactions",
                "delta_rows",
            ]
            .iter()
            .any(|k| l.contains(k))
        })
        .take(16)
    {
        println!("{line}");
    }

    // ...and to JSON for programmatic scraping.
    let json = snap.render_json();
    println!("\n--- json view: {} bytes ---", json.len());

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
