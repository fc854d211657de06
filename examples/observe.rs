//! The observability stack on a sharded workload: the global counter
//! registry, each shard's maintenance ledger and an explicit query trace.
//!
//! ```sh
//! cargo run --release --example observe
//! ```
//!
//! CI runs this example and it self-checks: the registry's
//! [`CounterId::QueryColumnPasses`](promips::obs::CounterId::QueryColumnPasses)
//! must move by exactly the number of traced shard spans the column pass
//! answered, or the process exits non-zero.

use promips::linalg::Matrix;
use promips::obs::{self, CounterId};
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

    let before = obs::global().snapshot();

    // A mixed workload: inserts, deletes, traced queries, one compaction
    // pass.
    for _ in 0..300 {
        let v: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        index.insert(&v)?;
    }
    for gid in (0..600).step_by(4) {
        index.delete(gid)?;
    }
    let mut first = None;
    let mut column_pass_spans = 0u64;
    for _ in 0..32 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        let traced = ShardedQuery {
            threads: Some(1),
            traced: true,
            ..ShardedQuery::new(&q, 10)
        };
        let (res, trace) = index.execute(traced, &scratch)?;
        let trace = trace.expect("a traced request returns its trace");
        column_pass_spans += trace.shards.iter().filter(|s| s.column_pass).count() as u64;
        first.get_or_insert((res.items[0].ip, trace));
    }
    let debt = index.maintenance_stats();
    index.compact_all()?;
    let booked = obs::global().snapshot().saturating_diff(&before);

    // What the workload booked: the counters' activity between the two
    // snapshots.
    println!("--- registry over the workload ---");
    for &id in CounterId::ALL {
        let n = booked.counter(id);
        if n > 0 {
            println!("  {:<22} {n}", format!("{id:?}"));
        }
    }

    // Each shard's ledger: the overlay debt the mutations left, then what
    // the compaction pass made of it.
    println!("\n--- maintenance ledger: before compaction, after ---");
    for (was, now) in debt.iter().zip(index.maintenance_stats()) {
        println!(
            "  shard {}: delta {} tombstones {} wal {} B gen {} | \
             delta {} tombstones {} wal {} B gen {} ({:?})",
            was.shard,
            was.delta_len,
            was.tombstones,
            was.wal_bytes,
            was.generation,
            now.delta_len,
            now.tombstones,
            now.wal_bytes,
            now.generation,
            now.last_compaction
        );
    }

    // Per-query stage trace: where did this one search spend its time?
    let (top_ip, trace) = first.expect("the workload ran queries");
    println!("\n--- one traced query (top ip {top_ip:.3}) ---");
    print!("{}", trace.render());

    // The registry and the traces are two views of the same searches: the
    // index-or-scan rule's counter moves once per span whose verdict was
    // the column pass.
    let column_passes = booked.counter(CounterId::QueryColumnPasses);
    if column_passes != column_pass_spans {
        eprintln!(
            "QueryColumnPasses moved by {column_passes}, \
             but {column_pass_spans} traced spans took the column pass"
        );
        std::process::exit(1);
    }
    println!("\nQueryColumnPasses = {column_passes} = traced column-pass spans");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
