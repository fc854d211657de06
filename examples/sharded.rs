//! Sharded ProMIPS: build a norm-range sharded index, fan a query out
//! across shards with Cauchy–Schwarz pruning, and compare recall against
//! the single-index path.
//!
//! Run with: `cargo run --release --example sharded`

use promips::core::{ProMips, ProMipsConfig};
use promips::data::exact_topk;
use promips::shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch};
use promips::stats::Xoshiro256pp;

fn recall(got: &[u64], truth: &[u64]) -> f64 {
    got.iter().filter(|id| truth.contains(id)).count() as f64 / truth.len() as f64
}

fn main() {
    let (n, d, k, n_queries) = (20_000usize, 64usize, 10usize, 50usize);
    // Norm-skewed rows (log-uniform scales), the regime real MIPS embedding
    // tables live in — and the one where norm-range sharding and pruning
    // pay off.
    let data = promips::data::gen::norm_skewed(n, d, 42);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect();

    // 1. The single-index baseline.
    let base = ProMipsConfig::builder().c(0.9).p(0.5).seed(3).build();
    let single = ProMips::build_in_memory(&data, base.clone()).expect("single build");
    println!(
        "single index : {n} points, m = {}, build {:.0} ms",
        single.m(),
        single.build_timings().total_ms()
    );

    // 2. The sharded index: 4 norm-range shards, each with its own pager,
    //    storage file layout and ProMIPS index; small shards would fall
    //    back to an exact scan (none do at this size).
    let cfg = ShardedConfig::builder().shards(4).base(base).build();
    let sharded = ShardedProMips::build_in_memory(&data, cfg).expect("sharded build");
    println!(
        "sharded index: {} norm-range shards with {:?} points",
        sharded.shard_count(),
        sharded.shard_points()
    );

    // 3. Fan-out search vs single-index search, recall measured against
    //    the exact answer.
    let scratch = ShardedScratch::for_index(&sharded);
    let traced = |q| {
        let request = ShardedQuery {
            traced: true,
            ..ShardedQuery::new(q, k)
        };
        let (res, trace) = sharded.execute(request, &scratch).expect("sharded search");
        (res, trace.expect("a traced request returns its trace"))
    };
    let mut recall_single = 0.0;
    let mut recall_sharded = 0.0;
    let mut pruned_total = 0usize;
    for q in &queries {
        let truth_ids: Vec<u64> = exact_topk(&data, q, k)
            .into_iter()
            .map(|(id, _)| id)
            .collect();

        recall_single += recall(&single.search(q, k).expect("search").ids(), &truth_ids);
        let (res, trace) = traced(q);
        recall_sharded += recall(&res.ids(), &truth_ids);
        pruned_total += trace.shards_pruned();
    }
    println!(
        "\nrecall@{k} over {n_queries} queries: single = {:.3}, sharded = {:.3}",
        recall_single / n_queries as f64,
        recall_sharded / n_queries as f64
    );
    println!(
        "shards pruned by the norm bound: {pruned_total} of {} shard-visits avoided",
        n_queries * (sharded.shard_count() - 1)
    );

    // 4. Per-shard anatomy of one query: its trace.
    let (res, trace) = traced(&queries[0]);
    println!(
        "\nquery 0 anatomy (verified = {} candidates):",
        res.verified
    );
    print!("{}", trace.render());
}
