//! The observability stack on a sharded workload: the global metrics
//! registry, sampled and explicit query traces, the slow-query log and the
//! flight recorder.
//!
//! ```sh
//! cargo run --release --example observe
//! ```
//!
//! CI runs this example and it self-checks: the Prometheus exposition is
//! piped through the in-repo format checker ([`promips::obs::promcheck`])
//! and the process exits non-zero if it fails.

use promips::linalg::Matrix;
use promips::obs::{self, recorder, sampling, slow};
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

    // The flight recorder holds the maintenance/lifecycle trail.
    println!(
        "\n--- flight recorder ({} events) ---",
        recorder::dump().len()
    );
    for line in recorder::render_dump().lines().take(8) {
        println!("{line}");
    }

    // The Prometheus exposition must pass the in-repo format checker:
    // TYPE<->sample agreement, label escaping, cumulative buckets ending
    // in +Inf. CI runs this example for exactly this.
    let snap = obs::global().snapshot();
    let text = snap.render_prometheus();
    if let Err(errors) = obs::promcheck::check_exposition(&text) {
        eprintln!("exposition failed format check:");
        for e in errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    // The index-or-scan rule's counter rides the same checked exposition:
    // how many per-shard searches the column pass answered (the traced
    // query above prints the rule's input and verdict per shard).
    let column_passes = snap.counter(obs::CounterId::QueryColumnPasses);
    let series = format!("promips_query_column_passes_total {column_passes}");
    if !text.lines().any(|l| l == series) {
        eprintln!("exposition lacks `{series}`");
        std::process::exit(1);
    }
    println!("\n--- prometheus exposition: passes promcheck ---");
    for line in text
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
