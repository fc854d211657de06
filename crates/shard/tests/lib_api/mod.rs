//! The crate's public-API tests: one shard against the unsharded index,
//! pruning, empty shards, recall, the trace's spans and the pages an
//! in-memory build caches. Compiled into the library's unit-test binary
//! (`src/lib.rs` includes this file by path), so it sits outside the `src`
//! line budget while the suite still names its tests `tests::…`. It uses
//! only the public API, bar a shard's index, which the last test reads to
//! reach its pager. The fan-out's serial/helper check is `fan_out.rs`, a
//! binary of its own.

use super::*;
use promips_core::{ProMips, ProMipsConfig};

#[path = "../common/mod.rs"]
mod common;
use common::span_counts;
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use std::sync::Arc;

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

fn random_queries(nq: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..nq)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect()
}

/// Exact top-k ids via the canonical ground-truth scanner (ties by
/// smaller id, same total order the shard merge uses).
fn exact_ids(data: &Matrix, q: &[f32], k: usize) -> Vec<u64> {
    promips_data::exact_topk(data, q, k)
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}

fn recall(got: &[u64], truth: &[u64]) -> f64 {
    let hits = got.iter().filter(|id| truth.contains(id)).count();
    hits as f64 / truth.len() as f64
}

#[test]
fn one_shard_matches_unsharded_bit_for_bit() {
    let data = random_data(900, 24, 11);
    let base = ProMipsConfig::builder().c(0.9).p(0.5).seed(42).build();
    let unsharded = ProMips::build_in_memory(&data, base.clone()).unwrap();
    let sharded = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder().shards(1).base(base).build(),
    )
    .unwrap();
    assert_eq!(sharded.shard_count(), 1);
    assert!(!sharded.shards()[0].is_exact());
    // The shard's pruning bound comes from the index build's own pass
    // over the rows: the same maximum, the same root, the same bits.
    let max_sq_norm = (data.iter_rows().map(promips_linalg::sq_norm2)).fold(0.0f64, f64::max);
    assert_eq!(unsharded.max_sq_norm().to_bits(), max_sq_norm.to_bits());
    assert_eq!(
        sharded.shards()[0].max_norm().to_bits(),
        max_sq_norm.sqrt().to_bits()
    );

    for q in random_queries(12, 24, 7) {
        let a = unsharded.search(&q, 10).unwrap();
        let b = sharded.search(&q, 10).unwrap();
        assert_eq!(a.items, b.items, "one-shard results must be identical");
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.screened, b.screened);
    }
}

#[test]
fn pruning_never_changes_the_result() {
    // The skewed workload (log-uniform norms over ~3 decades, the
    // regime real MIPS embedding tables live in) is where the
    // Cauchy–Schwarz bound has teeth; i.i.d. Gaussian rows concentrate
    // all norms near `√d` and never prune.
    for (data, label) in [
        (random_data(1500, 20, 3), "gaussian"),
        (promips_data::gen::norm_skewed(1500, 20, 3), "skewed"),
    ] {
        let mk = |prune: bool| {
            ShardedProMips::build_in_memory(
                &data,
                ShardedConfig::builder()
                    .shards(6)
                    .prune(prune)
                    .base(ProMipsConfig::builder().seed(9).build())
                    .build(),
            )
            .unwrap()
        };
        let pruned = mk(true);
        let full = mk(false);
        let scratch = ShardedScratch::for_index(&pruned);
        let mut any_pruned = 0usize;
        for q in random_queries(15, 20, 31) {
            let traced = ShardedQuery {
                traced: true,
                ..ShardedQuery::new(&q, 8)
            };
            let (a, trace) = pruned.execute(traced, &scratch).unwrap();
            let b = full.search(&q, 8).unwrap();
            assert_eq!(a.items, b.items, "pruning must be exact ({label})");
            any_pruned += trace.unwrap().shards_pruned();
        }
        if label == "skewed" {
            // Under realistic norm skew the bound must actually fire,
            // or the pruning path is dead code.
            assert!(any_pruned > 0, "no shard was ever pruned on {label}");
        }
    }
}

/// The seed shard's k-th is a bar every other searched shard is held to,
/// rows *at* it included: with the query `e₁` and every row's first
/// coordinate 1.0 bar the four largest-norm rows' (3.0), the seed's k-th
/// is 1.0 and ties with every row of every other shard — rows with
/// smaller ids, which the merge prefers. The answer is brute force's and
/// the unpruned index's, and every count is the same serial or not.
/// Where the seed holds fewer than `k` live rows there is no bar: nothing
/// is pruned, and every shard does exactly the unpruned index's work.
#[test]
fn the_seed_floor_keeps_ties_with_smaller_ids_in_other_shards() {
    let (n, d, k) = (400usize, 6usize, 10usize);
    let mut rng = Xoshiro256pp::seed_from_u64(141);
    // Norms grow with the id, so the norm-range seed shard holds the last
    // ids and the others the smaller ones.
    let data = Matrix::from_rows(
        d,
        (0..n).map(|i| {
            let scale = 0.5 * 1.005f64.powi(i as i32);
            let first = if i >= n - 4 { 3.0 } else { 1.0 };
            std::iter::once(first)
                .chain((1..d).map(|_| (scale * rng.normal()) as f32))
                .collect::<Vec<f32>>()
        }),
    );
    let mut q = vec![0.0f32; d];
    q[0] = 1.0;
    let mk = |prune: bool| {
        let cfg = ShardedConfig::builder()
            .shards(4)
            .prune(prune)
            .base(ProMipsConfig::builder().seed(7).build())
            .build();
        ShardedProMips::build_in_memory(&data, cfg).unwrap()
    };
    let (pruned, full) = (mk(true), mk(false));
    let run = |idx: &ShardedProMips, serial: bool| {
        let request = ShardedQuery {
            serial,
            traced: true,
            ..ShardedQuery::new(&q, k)
        };
        let (res, trace) = idx
            .execute(request, &ShardedScratch::for_index(idx))
            .unwrap();
        (res, trace.expect("a traced request returns its trace"))
    };

    let (res, trace) = run(&pruned, true);
    assert_eq!(trace.kth_floor, Some(1.0));
    assert!(trace.shards.iter().all(|s| s.column_pass && !s.pruned));
    let seed = trace.shards.iter().position(|s| s.seed).unwrap();
    let want = exact_ids(&data, &q, k);
    assert_eq!(res.ids(), want);
    assert!(
        want.iter()
            .any(|&id| !pruned.shards()[seed].global_ids().contains(&id)),
        "no tie was won outside the seed shard"
    );
    assert_eq!(res.items, full.search(&q, k).unwrap().items);
    let (beside, beside_trace) = run(&pruned, false);
    assert_eq!(beside, res);
    assert_eq!(span_counts(&beside_trace), span_counts(&trace));

    // Leave the seed shard short of `k` live rows: no bar, and every shard,
    // the seed included, does what it does unpruned.
    for idx in [&pruned, &full] {
        for &gid in &idx.shards()[seed].global_ids()[k / 2..] {
            idx.delete(gid).unwrap();
        }
    }
    let (res, trace) = run(&pruned, true);
    assert_eq!(trace.kth_floor, None);
    assert_eq!(trace.shards_pruned(), 0);
    let (unpruned, unpruned_trace) = run(&full, true);
    assert_eq!(res, unpruned);
    // The same counts, bar the seed's flag: the unpruned index probes none.
    let mut counts = span_counts(&trace);
    assert!(counts[seed].1);
    counts[seed].1 = false;
    assert_eq!(counts, span_counts(&unpruned_trace));
}

#[test]
fn scratch_reuse_is_transparent() {
    let data = random_data(800, 12, 23);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(3).build()).unwrap();
    let shared = ShardedScratch::for_index(&idx);
    for q in random_queries(10, 12, 29) {
        let (reused, _) = idx.execute(ShardedQuery::new(&q, 5), &shared).unwrap();
        assert_eq!(reused, idx.search(&q, 5).unwrap());
    }
}

#[test]
fn mixed_exact_and_indexed_shards_cover_all_points() {
    // Norm-range shards are equal-count, so only more shards than rows
    // mixes them: 12 rows over 20 shards leave 8 shards holding no index
    // (`is_exact`) beside 12 one-row indexes.
    let data = random_data(12, 14, 51);
    let idx = ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(20).build())
        .unwrap();
    let empty = idx.shards().iter().filter(|s| s.is_exact()).count();
    assert_eq!(empty, 8);
    assert!(idx.shards().iter().all(|s| s.is_exact() == s.is_empty()));
    assert_eq!(idx.shard_points().iter().sum::<u64>(), 12);
    // Every global id appears exactly once across shard id maps.
    let mut seen: Vec<u64> = idx.shards().iter().flat_map(|s| s.global_ids()).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..12u64).collect::<Vec<_>>());
    let q = random_queries(1, 14, 53).pop().unwrap();
    assert_eq!(idx.search(&q, 5).unwrap().ids(), exact_ids(&data, &q, 5));
}

#[test]
fn norm_range_sharding_loses_no_recall_vs_unsharded() {
    // The acceptance experiment: same base config (equal per-shard
    // candidate budget rules), recall measured against brute force for
    // the sharded (norm-range, pruning on) and unsharded paths.
    let data = random_data(2000, 24, 61);
    let base = ProMipsConfig::builder().c(0.9).p(0.5).seed(13).build();
    let unsharded = ProMips::build_in_memory(&data, base.clone()).unwrap();
    let sharded = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder().shards(4).base(base).build(),
    )
    .unwrap();

    let queries = random_queries(25, 24, 67);
    let k = 10;
    let mut r_unsharded = 0.0;
    let mut r_sharded = 0.0;
    for q in &queries {
        let truth = exact_ids(&data, q, k);
        r_unsharded += recall(&unsharded.search(q, k).unwrap().ids(), &truth);
        r_sharded += recall(&sharded.search(q, k).unwrap().ids(), &truth);
    }
    r_unsharded /= queries.len() as f64;
    r_sharded /= queries.len() as f64;
    // Sharding must not cost recall (smaller per-shard indexes are
    // searched at least as accurately; pruning is exact). Allow a hair
    // of cross-platform rounding slack.
    assert!(
        r_sharded >= r_unsharded - 0.02,
        "sharded recall {r_sharded:.3} < unsharded {r_unsharded:.3}"
    );
}

#[test]
fn k_larger_than_dataset_is_clamped() {
    let data = random_data(40, 8, 71);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(3).build()).unwrap();
    let q = vec![0.3f32; 8];
    let res = idx.search(&q, 100).unwrap();
    assert_eq!(res.items.len(), 40);
    let mut ids = res.ids();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 40, "duplicate or missing global ids");
}

#[test]
fn more_shards_than_points_leaves_empties_searchable() {
    let data = random_data(5, 6, 81);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(8).build()).unwrap();
    assert_eq!(idx.shard_count(), 8);
    assert_eq!(idx.shard_points().iter().sum::<u64>(), 5);
    let q = vec![1.0f32; 6];
    let res = idx.search(&q, 3).unwrap();
    assert_eq!(res.ids(), exact_ids(&data, &q, 3));
}

/// The trace's spans account for every shard and for the result: one span
/// per shard, summing to the result's verified and screened counts, and
/// every shard searched or pruned — a pruned one having done nothing.
#[test]
fn trace_spans_account_for_every_shard_and_the_result() {
    // Norm-skewed rows, so that shards are pruned too.
    let data = promips_data::gen::norm_skewed(1000, 16, 91);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(4).build()).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let mut pruned = 0;
    for q in random_queries(6, 16, 97) {
        let traced = ShardedQuery {
            traced: true,
            ..ShardedQuery::new(&q, 10)
        };
        let (res, trace) = idx.execute(traced, &scratch).unwrap();
        let trace = trace.unwrap();
        assert_eq!(trace.shards.len(), 4);
        let sum = |f: fn(&promips_obs::ShardSpan) -> u64| trace.shards.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.verified), res.verified as u64);
        assert_eq!(sum(|s| s.screened), res.screened as u64);
        for s in trace.shards.iter().filter(|s| s.pruned) {
            assert_eq!((s.scanned, s.screened, s.verified), (0, 0, 0));
        }
        assert_eq!(trace.shards_searched() + trace.shards_pruned(), 4);
        pruned += trace.shards_pruned();
    }
    assert!(pruned > 0, "no shard was pruned");
}

/// A query reads no WAL: a writer holds a shard's log lock across its
/// append and fsync (and a repartition holds every one), and a search run
/// meanwhile must still answer.
#[test]
fn a_search_does_not_wait_for_a_held_wal_lock() {
    let data = random_data(600, 12, 131);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(3).build()).unwrap();
    let q = random_queries(1, 12, 137).pop().unwrap();
    let want = idx.search(&q, 5).unwrap();
    std::thread::scope(|s| {
        let held: Vec<_> = idx.shards().iter().map(|sh| sh.wal.lock()).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let (idx, q) = (&idx, &q);
        s.spawn(move || tx.send(idx.search(q, 5).unwrap()));
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the search waited on a held WAL lock");
        assert_eq!(got, want);
        drop(held);
    });
}

/// Reads back every page of `pager`'s file: each must be a pool hit, and
/// each hit the very buffer the in-memory device holds, so the index's
/// pages are held once rather than once on the device and again in the
/// pool.
fn assert_pool_holds_the_device_pages(pager: &promips_storage::Pager) {
    assert!(pager.num_pages() > 0 && pager.num_pages() <= pager.pool_capacity() as u64);
    let before = pager.stats().snapshot();
    for id in 0..pager.num_pages() {
        let cached = pager.read(id).unwrap();
        let own = pager
            .storage()
            .page(id)
            .expect("a memory device holds its pages");
        assert!(Arc::ptr_eq(&cached, &own), "page {id} is cached as a copy");
    }
    let misses = pager.stats().snapshot().cache_misses - before.cache_misses;
    assert_eq!(misses, 0, "the build left pages out of the pool");
}

/// After an in-memory build, unsharded or sharded, the pool caches the
/// device's own page buffers and no copy of them.
#[test]
fn an_in_memory_build_caches_the_device_pages_themselves() {
    let data = random_data(2000, 24, 141);
    let base = ProMipsConfig::builder().seed(7).build();
    let single = ProMips::build_in_memory(&data, base.clone()).unwrap();
    assert_pool_holds_the_device_pages(single.idistance().pager());

    let sharded = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder().shards(3).base(base).build(),
    )
    .unwrap();
    let mut indexed = 0;
    for shard in sharded.shards() {
        if let Some(pm) = &shard.generation.read().index {
            assert_pool_holds_the_device_pages(pm.idistance().pager());
            indexed += 1;
        }
    }
    assert_eq!(indexed, 3);
}
