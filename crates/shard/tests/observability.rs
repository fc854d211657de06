//! End-to-end checks of the unified observability layer at the sharded
//! level: per-query stage traces must account for the measured latency,
//! the registry must book the query/WAL/maintenance activity of a
//! workload, and each shard's maintenance ledger must track the real
//! overlay state through mutations, compaction, re-partitioning and a
//! reopen.
//!
//! The registry and the fault plan are process-global; every test here
//! holds [`REG_LOCK`] so their before/after deltas never interleave. (Each integration-test file is
//! its own process, so no other suite shares the registry.)

use std::io;
use std::sync::Mutex;

use promips_core::ProMipsConfig;
use promips_linalg::Matrix;
use promips_obs::{self as obs, CounterId};
use promips_shard::{
    CompactionOutcome, DegradationPolicy, ShardedConfig, ShardedProMips, ShardedQuery,
    ShardedScratch, SyncPolicy,
};
use promips_stats::Xoshiro256pp;
use promips_storage::durability::faults::{self, FaultPlan, IoOp, Recurrence};

mod common;
use common::span_counts;

static REG_LOCK: Mutex<()> = Mutex::new(());

/// Poison-tolerant guard: a failed sibling test must not cascade.
fn reg_lock() -> std::sync::MutexGuard<'static, ()> {
    REG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_index(n: usize, d: usize, shards: usize) -> ShardedProMips {
    let data = Matrix::from_rows(d, random_rows(n, d, 11));
    let cfg = ShardedConfig::builder()
        .shards(shards)
        .base(ProMipsConfig::builder().seed(5).build())
        .build();
    ShardedProMips::build_in_memory(&data, cfg).unwrap()
}

/// The tentpole acceptance check: a sequential traced query's stage spans
/// (scan → screen → verify per shard, plus the merge) must explain at
/// least 95% of its own measured end-to-end latency. The index is large
/// enough that the untimed bookkeeping (snapshotting, phase setup) is
/// noise; the best run of several rides out scheduler hiccups.
#[test]
fn trace_accounts_for_query_latency() {
    let _guard = reg_lock();
    let d = 24;
    let idx = build_index(6000, d, 3);
    let scratch = ShardedScratch::for_index(&idx);
    let queries = random_rows(8, d, 99);

    let mut best = 0.0f64;
    for q in &queries {
        let (res, trace) = idx.search_traced_threaded(q, 10, 1, &scratch).unwrap();
        assert_eq!(res.items.len(), 10);
        assert_eq!(trace.shards.len(), idx.shard_count());
        assert!(trace.total_ns > 0, "traced query must measure wall time");
        assert_eq!(
            trace.shards.iter().filter(|s| s.seed).count(),
            1,
            "exactly one span seeds the floor"
        );
        best = best.max(trace.coverage());
    }
    assert!(
        best >= 0.95,
        "stage spans explain only {:.1}% of the measured latency",
        best * 100.0
    );
}

/// With pruning on, the trace explains every prune: it carries the seed
/// shard's k-th — at most the merged k-th, since the seed's `k` rows are in
/// the merge — and each pruned shard's Cauchy–Schwarz bound
/// `‖q‖·max_norm` falls below it, by a slack the trace lets one read off.
#[test]
fn the_trace_carries_the_seed_floor_above_every_pruned_bound() {
    let _guard = reg_lock();
    let (d, k) = (16, 10);
    let data = promips_data::gen::norm_skewed(2000, d, 7);
    let cfg = ShardedConfig::builder()
        .shards(4)
        .base(ProMipsConfig::builder().seed(5).build())
        .build();
    let idx = ShardedProMips::build_in_memory(&data, cfg).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let mut pruned = 0;
    for q in random_rows(10, d, 89) {
        let (res, trace) = idx.search_traced_threaded(&q, k, 1, &scratch).unwrap();
        let floor = trace.kth_floor.expect("the seed probe found k rows");
        assert!(
            floor <= res.items[k - 1].ip,
            "{floor} above the merged k-th"
        );
        let q_norm = promips_linalg::sq_norm2(&q).sqrt();
        for span in trace.shards.iter().filter(|s| s.pruned) {
            let bound = q_norm * idx.shards()[span.shard].max_norm();
            assert!(
                bound < floor,
                "shard {} pruned at {bound} ≥ {floor}",
                span.shard
            );
            pruned += 1;
        }
    }
    assert!(pruned > 0, "no shard was pruned");
}

/// Traced and untraced searches return identical results — tracing only
/// observes.
#[test]
fn tracing_is_pure_observation() {
    let _guard = reg_lock();
    let d = 16;
    let idx = build_index(2500, d, 3);
    let scratch = ShardedScratch::for_index(&idx);

    for (qi, q) in random_rows(5, d, 77).iter().enumerate() {
        let plain = idx.search_threaded(q, 7, 1, &scratch).unwrap();
        let (traced, trace) = idx.search_traced_threaded(q, 7, 1, &scratch).unwrap();
        assert_eq!(
            plain.items, traced.items,
            "query {qi} diverged under tracing"
        );
        assert_eq!(plain.verified, traced.verified);
        assert_eq!(plain.screened, traced.screened);
        // The spans carry the counts the result sums, and a second traced
        // run the same per-shard counts.
        let spans = |f: fn(&obs::ShardSpan) -> u64| trace.shards.iter().map(f).sum::<u64>();
        assert_eq!(spans(|s| s.verified), traced.verified as u64);
        assert_eq!(spans(|s| s.screened), traced.screened as u64);
        let (_, again) = idx.search_traced_threaded(q, 7, 1, &scratch).unwrap();
        assert_eq!(span_counts(&trace), span_counts(&again));
        // render() never panics and names every shard.
        let text = trace.render();
        assert!(text.contains("shard"));
    }
}

/// A durable sharded workload books every layer to the registry: the
/// snapshot diff over it moves by exactly what the workload fixes —
/// 80 inserts, 20 deletes and their 100 WAL appends, 4 queries over 2
/// shards each — and moves at all for what it only implies (compactions,
/// generation swaps), while the shards' ledgers hold the overlay the
/// mutations left and hold none once compaction folds it away.
#[test]
fn the_registry_books_the_pipeline() {
    let _guard = reg_lock();
    let d = 12;
    let dir = temp_dir("pipeline");
    let data = Matrix::from_rows(d, random_rows(1500, d, 21));
    let cfg = ShardedConfig::builder()
        .shards(2)
        .wal_sync(SyncPolicy::Never)
        .base(ProMipsConfig::builder().seed(5).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let before = obs::global().snapshot();

    // Mutate (WAL counters, overlay ledger), query (query and shard
    // counters), compact (compaction counters, ledger emptied).
    let mut gids = Vec::new();
    for row in random_rows(80, d, 22) {
        gids.push(idx.insert(&row).unwrap());
    }
    for gid in gids.iter().take(20) {
        idx.delete(*gid).unwrap();
    }
    for q in random_rows(4, d, 23) {
        idx.search_threaded(&q, 5, 1, &scratch).unwrap();
    }
    let overlay = |idx: &ShardedProMips| -> (usize, usize) {
        let stats = idx.maintenance_stats();
        (
            stats.iter().map(|s| s.delta_len).sum(),
            stats.iter().map(|s| s.tombstones).sum(),
        )
    };
    assert_eq!(overlay(&idx), (80, 20));
    idx.compact_all().unwrap();
    assert_eq!(overlay(&idx), (0, 0), "compaction folds the overlay away");
    let booked = obs::global().snapshot().saturating_diff(&before);

    assert_eq!(booked.counter(CounterId::Inserts), 80);
    assert_eq!(booked.counter(CounterId::Deletes), 20);
    assert_eq!(booked.counter(CounterId::WalAppends), 100);
    assert_eq!(booked.counter(CounterId::Queries), 4);
    assert_eq!(
        booked.counter(CounterId::ShardsSearched) + booked.counter(CounterId::ShardsPruned),
        8,
        "every query books each of the 2 shards once"
    );
    for id in [
        CounterId::QueryScanned,
        CounterId::Compactions,
        CounterId::GenerationSwaps,
    ] {
        assert!(booked.counter(id) > 0, "{id:?} did not move");
    }

    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A best-effort query degraded by an injected read fault returns a trace
/// that flags the degradation first-class — `degraded`, the failed shard,
/// both in `render()` — and the registry books the injected fault and the
/// partial result that explain it. The failed shard's span keeps its wall
/// time and whatever the core layer booked to the registry before the
/// fault fired.
#[test]
fn degraded_best_effort_query_is_flagged_in_its_trace() {
    let _guard = reg_lock();
    let d = 8;
    let data = Matrix::from_rows(d, random_rows(240, d, 61));
    // prune(false): the faulted shard must actually be searched — a
    // pruned shard does no IO and would dodge the fault.
    let cfg = ShardedConfig::builder()
        .shards(3)
        .prune(false)
        .degradation(DegradationPolicy::BestEffort)
        .base(ProMipsConfig::builder().seed(63).build())
        .build();
    let dir = temp_dir("degraded-slow");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    drop(ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap());

    // Cold reopen (the manifest keeps the policy), then every page read of
    // shard 0 fails.
    let idx = ShardedProMips::open(&dir).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let q = &random_rows(1, d, 67)[0];

    faults::arm_with(
        FaultPlan {
            op: IoOp::Read,
            nth: 1,
            path_contains: Some(format!("{tag}/shard_0000")),
        },
        Recurrence::EveryNth(1),
        io::ErrorKind::Other,
    );
    let before = obs::global().snapshot();
    let (res, trace) = idx.search_traced_threaded(q, 10, 1, &scratch).unwrap();
    faults::disarm();
    let booked = obs::global().snapshot().saturating_diff(&before);

    assert!(res.degraded, "the injected fault must degrade the query");
    let failed = &trace.shards[0];
    assert!(
        failed.failed && trace.shards_failed() == 1,
        "the trace names it"
    );
    assert!(failed.elapsed_ns > 0, "a failed shard still took wall time");
    assert!(trace.coverage() > 0.0);
    // Every searched shard — the failed one included — booked its row
    // counts, and the spans carry exactly those.
    let sum = |f: &dyn Fn(&obs::ShardSpan) -> u64| trace.shards.iter().map(f).sum::<u64>();
    assert_eq!(booked.counter(CounterId::QueryScanned), sum(&|s| s.scanned));
    assert_eq!(
        booked.counter(CounterId::QueryScreened),
        sum(&|s| s.screened)
    );
    assert_eq!(
        booked.counter(CounterId::QueryVerified),
        sum(&|s| s.verified)
    );
    assert_eq!(res.verified as u64, sum(&|s| s.verified));

    assert!(booked.counter(CounterId::IoFaultsInjected) >= 1);
    assert_eq!(booked.counter(CounterId::PartialResults), 1);
    let text = trace.render();
    assert!(
        text.contains(" DEGRADED"),
        "render must flag the degradation:\n{text}"
    );
    assert!(
        text.contains("FAILED (excluded from merge)"),
        "render must flag the failed shard:\n{text}"
    );

    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only a traced request builds a trace and returns it; an untraced one
/// returns `None`.
#[test]
fn only_traced_requests_return_a_trace() {
    let _guard = reg_lock();
    let d = 12;
    let idx = build_index(1200, d, 2);
    let scratch = ShardedScratch::for_index(&idx);

    for q in random_rows(3, d, 79) {
        let (_, trace) = idx.execute(ShardedQuery::new(&q, 7), &scratch).unwrap();
        assert!(trace.is_none(), "an untraced request returns no trace");
    }
    for q in random_rows(3, d, 73) {
        let traced = ShardedQuery {
            traced: true,
            ..ShardedQuery::new(&q, 7)
        };
        let (_, trace) = idx.execute(traced, &scratch).unwrap();
        assert_eq!(trace.expect("a traced request returns its trace").k, 7);
    }
}

/// The rows an exact column pass verifies are booked by the core, the delta
/// overlay's — which the core never sees — by the shard layer: every span
/// carries both, and the registry's verified-row counter moves by exactly
/// the spans' total.
#[test]
fn exact_and_delta_rows_are_booked_once_and_carried_by_the_spans() {
    let _guard = reg_lock();
    let d = 8;
    let verified = || obs::global().counter(CounterId::QueryVerified).get();
    let traced = |idx: &ShardedProMips, q: &[f32]| {
        let scratch = ShardedScratch::for_index(idx);
        let before = verified();
        let request = ShardedQuery {
            serial: true,
            traced: true,
            ..ShardedQuery::new(q, 5)
        };
        let (res, trace) = idx.execute(request, &scratch).unwrap();
        let trace = trace.unwrap();
        let spans: u64 = trace.shards.iter().map(|s| s.verified).sum();
        assert_eq!(verified() - before, spans, "booked exactly once");
        assert_eq!(res.verified as u64, spans);
        trace
    };
    let q = &random_rows(1, d, 83)[0];

    // Pruning off, i.i.d. rows: every shard answers by its column pass.
    let data = Matrix::from_rows(d, random_rows(300, d, 81));
    let cfg = ShardedConfig::builder().shards(3).prune(false).build();
    let idx = ShardedProMips::build_in_memory(&data, cfg).unwrap();
    let trace = traced(&idx, q);
    assert!(trace.shards.iter().all(|s| s.column_pass && s.verified > 0));
    let base: u64 = trace.shards.iter().map(|s| s.verified).sum();

    // A live delta: the overlay rows ride on top of what the core verified.
    for row in random_rows(25, d, 85) {
        idx.insert(&row).unwrap();
    }
    let with_delta: u64 = traced(&idx, q).shards.iter().map(|s| s.verified).sum();
    assert_eq!(with_delta, base + 25);
}

/// Each shard's maintenance ledger is its overlay: +1 per insert/delete,
/// folded back out by compaction, and after a drop and reopen exactly
/// what the write-ahead logs replay — per index, so a dropped index
/// leaves nothing behind in another's numbers.
#[test]
fn overlay_ledger_tracks_mutations_compaction_and_reopen() {
    let _guard = reg_lock();
    let d = 8;
    let dir = temp_dir("ledger");
    let data = Matrix::from_rows(d, random_rows(400, d, 29));
    let cfg = ShardedConfig::builder()
        .shards(2)
        .wal_sync(SyncPolicy::Never)
        .base(ProMipsConfig::builder().seed(5).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let reg = obs::global();
    let ledger = |idx: &ShardedProMips| -> Vec<(usize, usize)> {
        let stats = idx.maintenance_stats();
        stats.iter().map(|s| (s.delta_len, s.tombstones)).collect()
    };
    let total = |l: &[(usize, usize)]| l.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let inserts0 = reg.counter(CounterId::Inserts).get();
    let deletes0 = reg.counter(CounterId::Deletes).get();

    let mut gids = Vec::new();
    for row in random_rows(60, d, 31) {
        gids.push(idx.insert(&row).unwrap());
    }
    for gid in gids.iter().take(15) {
        idx.delete(*gid).unwrap();
    }
    assert_eq!(total(&ledger(&idx)), (60, 15));
    assert_eq!(reg.counter(CounterId::Inserts).get() - inserts0, 60);
    assert_eq!(reg.counter(CounterId::Deletes).get() - deletes0, 15);

    // Compaction folds the overlay away.
    let compactions0 = reg.counter(CounterId::Compactions).get();
    idx.compact_all().unwrap();
    assert!(ledger(&idx).iter().all(|&l| l == (0, 0)));
    assert!(reg.counter(CounterId::Compactions).get() > compactions0);

    // A fresh overlay, then drop and reopen in this process: the reopened
    // ledger is what the logs replay, shard by shard — not that plus the
    // overlay of the dropped handle.
    let mut gids = Vec::new();
    for row in random_rows(40, d, 33) {
        gids.push(idx.insert(&row).unwrap());
    }
    for gid in gids.iter().take(10) {
        idx.delete(*gid).unwrap();
    }
    let dropped = ledger(&idx);
    assert_eq!(total(&dropped), (40, 10));
    drop(idx);
    let replayed0 = reg.counter(CounterId::WalReplayedRecords).get();
    let idx = ShardedProMips::open(&dir).unwrap();
    assert_eq!(
        reg.counter(CounterId::WalReplayedRecords).get() - replayed0,
        50
    );
    assert_eq!(ledger(&idx), dropped);

    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `maintenance_stats()` reports each generation's age and the outcome of
/// the last maintenance pass, through the compact and repartition paths.
#[test]
fn maintenance_reports_generation_age_and_outcome() {
    let _guard = reg_lock();
    let d = 8;
    let idx = build_index(400, d, 2);
    // An age is `now − install stamp` on one monotone clock, so clock reads
    // around the calls bracket every stamp: nothing here waits, and nothing
    // depends on how long a call takes.
    let built = obs::now_ns(); // the build's install stamps are behind this

    for st in idx.maintenance_stats() {
        assert_eq!(st.last_compaction, CompactionOutcome::Never);
        assert!(st.generation_age_ns > 0, "build install time is stamped");
    }

    for row in random_rows(40, d, 51) {
        idx.insert(&row).unwrap();
    }
    let t_pre = obs::now_ns();
    let before = idx.maintenance_stats();
    let t0 = obs::now_ns();
    let compacted = idx.compact_all().unwrap();
    let after = idx.maintenance_stats();
    let t1 = obs::now_ns();
    assert!(!compacted.is_empty(), "the inserts left something to fold");
    for (si, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(a.generation > b.generation, compacted.contains(&si));
        if a.generation > b.generation {
            assert_eq!(a.generation, b.generation + 1);
            assert_eq!(a.last_compaction, CompactionOutcome::Compacted);
            // The replaced generation was installed by the build, the
            // fresh one inside `compact_all`.
            assert!(b.generation_age_ns >= t_pre - built, "{b:?}");
            assert!(a.generation_age_ns <= t1 - t0, "{a:?}");
        } else {
            // An untouched generation keeps its stamp: it only ages.
            assert!(a.generation_age_ns >= b.generation_age_ns);
        }
    }

    idx.repartition().unwrap();
    for st in idx.maintenance_stats() {
        assert_eq!(st.last_compaction, CompactionOutcome::Repartitioned);
    }
}

/// A compaction whose shadow build fails is reported: `compact_shard`
/// returns the error, `maintenance_stats()` records the pass as `Failed`,
/// and the old generation keeps answering exactly as before.
#[test]
fn failed_compaction_is_recorded_and_keeps_the_old_generation() {
    let _guard = reg_lock();
    let d = 8;
    let dir = temp_dir("failed-compaction");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    let data = Matrix::from_rows(d, random_rows(400, d, 91));
    let cfg = ShardedConfig::builder()
        .shards(2)
        .wal_sync(SyncPolicy::Never)
        .base(ProMipsConfig::builder().seed(5).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    for row in random_rows(40, d, 93) {
        idx.insert(&row).unwrap();
    }
    let stats = idx.maintenance_stats();
    let si = stats
        .iter()
        .position(|st| st.delta_len > 0)
        .expect("the inserts landed in some shard");
    let q = &random_rows(1, d, 95)[0];
    let before = idx.search_threaded(q, 10, 1, &scratch).unwrap();

    // The shadow build's first write is the new generation's page file.
    faults::arm(FaultPlan {
        op: IoOp::Write,
        nth: 1,
        path_contains: Some(format!("{tag}/shard_{si:04}.g1.pmx")),
    });
    let res = idx.compact_shard(si);
    let fired = !faults::disarm();
    let err = res.expect_err("the shadow build's write fails");
    assert!(
        fired && faults::is_injected(&err),
        "unexpected error: {err}"
    );

    let after = idx.maintenance_stats();
    assert_eq!(after[si].last_compaction, CompactionOutcome::Failed);
    assert_eq!(after[si].generation, stats[si].generation);
    assert_eq!(idx.search_threaded(q, 10, 1, &scratch).unwrap(), before);

    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}
