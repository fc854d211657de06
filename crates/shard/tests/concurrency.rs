//! Concurrency and fault-injection torture for the MVCC-lite sharded
//! index: queries racing writers and a background compaction loop must keep
//! every isolation invariant, and an injected IO failure at **any** step
//! of the compaction commit protocol must leave the index consistent,
//! reopenable, and missing no acknowledged write.
//!
//! Set `PROMIPS_STRESS=1` to scale the torture test up (more ops, more
//! reader threads) — the CI stress job runs that configuration.

use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use promips_core::ProMipsConfig;
use promips_linalg::{dot, sq_norm2, Matrix};
use promips_shard::{
    CompactionPolicy, MutationError, QueryError, ShardedConfig, ShardedProMips, ShardedQuery,
    ShardedScratch, ShardedSearchResult, SyncPolicy,
};
use promips_stats::Xoshiro256pp;
use promips_storage::durability::faults::{self, FaultPlan, IoOp};

/// The plain request against a held scratch set.
fn run(
    idx: &ShardedProMips,
    q: &[f32],
    k: usize,
    scratch: &ShardedScratch,
) -> Result<ShardedSearchResult, QueryError> {
    idx.execute(ShardedQuery::new(q, k), scratch)
        .map(|(res, _)| res)
}

fn random_rows(n: usize, d: usize, seed: u64, scale: f64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| (rng.normal() * scale) as f32).collect())
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The background compaction loop a caller runs on a thread of its own:
/// [`ShardedProMips::compact`] every `interval` until `stop` is set.
/// Returns the last error a pass hit (a failed pass does not end the loop).
fn compact_until(idx: &ShardedProMips, stop: &AtomicBool, interval: Duration) -> Option<io::Error> {
    let mut last_err = None;
    while !stop.load(Ordering::Acquire) {
        if let Err(e) = idx.compact() {
            last_err = Some(e);
        }
        std::thread::sleep(interval);
    }
    last_err
}

fn stress() -> bool {
    std::env::var("PROMIPS_STRESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The fault shim is process-global state; every test that arms a plan
/// holds this for its whole body so plans never replace each other.
/// (Plans are additionally path-scoped to the test's own directory, so a
/// concurrently running non-fault test can never consume one.)
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// The torture test: reader threads running full-time queries against an
/// index being mutated by a writer thread while a compaction loop on a
/// thread of its own folds generations underneath them all.
///
/// Invariants checked on every single query, mid-churn:
/// * results are sorted by inner product, global ids unique;
/// * every inner product respects the Cauchy–Schwarz bound
///   `‖q‖ · max‖o‖` over everything ever inserted (the per-shard norm
///   bounds behind pruning must never under-report);
/// * an exhaustive query (`k` ≥ live count) finds the planted
///   strong vector at rank 1 with its exact inner product — a recall
///   floor no torn snapshot could fake.
///
/// Afterwards: liveness bookkeeping matches the writer's ledger exactly,
/// and a drop + reopen (WAL replay over whatever generation mix the
/// compaction loop left) reproduces the same live id set.
#[test]
fn torture_queries_race_mutations_and_background_compaction() {
    let d = 10;
    let n_base = 300;
    let (n_ops, n_readers) = if stress() { (4000, 6) } else { (500, 3) };

    // Base data plus one planted high-norm row (gid 0) that is never
    // deleted: ~8× every other norm, so it must win every exhaustive
    // query outright.
    let strong: Vec<f32> = vec![8.0f32; d];
    let mut rows = vec![strong.clone()];
    rows.extend(random_rows(n_base - 1, d, 42, 1.0));
    let data = Matrix::from_rows(d, rows.iter().cloned());

    // Everything the writer will ever insert, precomputed so the norm
    // bound below is static.
    let inserts = random_rows(n_ops, d, 43, 2.0);
    let max_norm_ever = data
        .iter_rows()
        .map(sq_norm2)
        .chain(inserts.iter().map(|v| sq_norm2(v)))
        .fold(0.0f64, f64::max)
        .sqrt();

    let dir = temp_dir("torture");
    let cfg = ShardedConfig::builder()
        .shards(3)
        .wal_sync(SyncPolicy::EveryN(16))
        .compaction(CompactionPolicy {
            max_delta_fraction: 0.05,
            max_tombstone_fraction: 0.05,
            min_mutations: 24,
            repartition_skew: f64::INFINITY, // repartition tested separately
        })
        .base(ProMipsConfig::builder().seed(7).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();

    let stop = AtomicBool::new(false);
    let scratch = ShardedScratch::for_index(&idx);
    let (live, compact_err) = std::thread::scope(|s| {
        let compactor = s.spawn(|| compact_until(&idx, &stop, Duration::from_millis(3)));
        // Readers: hammer queries until the writer finishes.
        for r in 0..n_readers {
            let idx = &idx;
            let stop = &stop;
            let scratch = &scratch;
            let strong = &strong;
            s.spawn(move || {
                let mut rng = Xoshiro256pp::seed_from_u64(100 + r as u64);
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
                    let res = run(idx, &q, 10, scratch).unwrap();
                    let q_norm = sq_norm2(&q).sqrt();
                    let mut seen = BTreeSet::new();
                    for w in res.items.windows(2) {
                        assert!(w[0].ip >= w[1].ip, "results must be sorted");
                    }
                    for it in &res.items {
                        assert!(seen.insert(it.id), "duplicate gid {} in top-k", it.id);
                        assert!(
                            it.ip <= q_norm * max_norm_ever + 1e-6,
                            "ip {} breaks the Cauchy–Schwarz ceiling {}",
                            it.ip,
                            q_norm * max_norm_ever
                        );
                    }
                    // Every ~8th query: exhaustive scan (k ≥ live count
                    // forces full verification) — the planted strong row
                    // must sit at rank 1 with its exact inner product.
                    if i.is_multiple_of(8) {
                        let qs: Vec<f32> =
                            (0..d).map(|_| 1.0 + 0.01 * rng.normal() as f32).collect();
                        let full = run(idx, &qs, usize::MAX / 2, scratch).unwrap();
                        assert_eq!(full.items[0].id, 0, "strong row lost under churn");
                        let want = dot(&qs, strong);
                        assert!(
                            (full.items[0].ip - want).abs() <= 1e-5 * want.abs().max(1.0),
                            "strong ip drifted: {} vs {}",
                            full.items[0].ip,
                            want
                        );
                    }
                    i += 1;
                }
            });
        }

        // Writer: the only mutator; keeps an exact ledger of live gids.
        let mut live: BTreeSet<u64> = (0..n_base as u64).collect();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut batch: Vec<&[f32]> = Vec::new();
        for (i, v) in inserts.iter().enumerate() {
            if i.is_multiple_of(13) && !batch.is_empty() {
                // Group-commit path: one fsync round per touched shard.
                for gid in idx.insert_batch(batch.drain(..)).unwrap() {
                    live.insert(gid);
                }
            }
            if i.is_multiple_of(3) {
                batch.push(v.as_slice());
            } else {
                live.insert(idx.insert(v).unwrap());
            }
            // Delete a random live gid (never the strong row at gid 0).
            if !i.is_multiple_of(2) {
                let nth = (rng.next_u64() as usize) % live.len();
                let victim = *live.iter().nth(nth).unwrap();
                if victim != 0 {
                    idx.delete(victim).unwrap();
                    live.remove(&victim);
                }
            }
        }
        for gid in idx.insert_batch(batch.drain(..)).unwrap() {
            live.insert(gid);
        }
        stop.store(true, Ordering::Release);
        (live, compactor.join().unwrap())
    });

    assert!(compact_err.is_none(), "the compaction loop hit an IO error");
    idx.sync_wal().unwrap();
    assert_eq!(idx.len(), live.len() as u64, "liveness ledger diverged");
    let gens: Vec<u64> = idx
        .maintenance_stats()
        .iter()
        .map(|s| s.generation)
        .collect();
    assert!(
        gens.iter().any(|&g| g > 0),
        "the compaction loop never folded anything: {gens:?}"
    );

    // The quiesced live id set matches the ledger exactly.
    let scratch = ShardedScratch::for_index(&idx);
    let q = vec![1.0f32; d];
    let all = run(&idx, &q, usize::MAX / 2, &scratch).unwrap();
    let got: BTreeSet<u64> = all.items.iter().map(|it| it.id).collect();
    assert_eq!(got, live, "live id set diverged from the writer's ledger");

    // Crash-reopen: every acknowledged mutation survives the WAL + the
    // compaction loop's generation mix.
    drop(all);
    drop(idx);
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), live.len() as u64);
    let scratch = ShardedScratch::for_index(&reopened);
    let all = run(&reopened, &q, usize::MAX / 2, &scratch).unwrap();
    let got: BTreeSet<u64> = all.items.iter().map(|it| it.id).collect();
    assert_eq!(
        got, live,
        "reopen lost or resurrected an acknowledged write"
    );
    assert_eq!(all.items[0].id, 0, "strong row lost across reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A compaction loop alone, on a thread of its own, drains accumulated
/// mutation debt to zero once writers go quiet.
#[test]
fn background_compactor_drains_debt_when_quiescent() {
    let d = 8;
    let data = Matrix::from_rows(d, random_rows(200, d, 51, 1.0));
    let dir = temp_dir("drain");
    let cfg = ShardedConfig::builder()
        .shards(2)
        .compaction(CompactionPolicy {
            max_delta_fraction: 0.01,
            max_tombstone_fraction: 0.01,
            min_mutations: 8,
            repartition_skew: f64::INFINITY,
        })
        .base(ProMipsConfig::builder().seed(53).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    for v in random_rows(60, d, 57, 1.0) {
        idx.insert(&v).unwrap();
    }
    for gid in (0..200).step_by(5) {
        idx.delete(gid).unwrap();
    }
    assert!(idx.pending_mutations() > 0);

    let stop = AtomicBool::new(false);
    let compact_err = std::thread::scope(|s| {
        let compactor = s.spawn(|| compact_until(&idx, &stop, Duration::from_millis(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while idx.pending_mutations() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        compactor.join().unwrap()
    });
    assert!(compact_err.is_none());
    assert_eq!(idx.pending_mutations(), 0, "the loop left debt behind");
    assert_eq!(idx.len(), 200 + 60 - 40);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Harness for the fault-injection tests: a small durable index with a
/// known mutation load, so each test can fail one specific IO step of the
/// compaction commit and assert the aftermath.
struct FaultRig {
    dir: std::path::PathBuf,
    tag: String,
    idx: ShardedProMips,
    /// Ledger of live gids after the mutations (all acknowledged +
    /// WAL-synced before any fault is armed).
    live: BTreeSet<u64>,
}

fn fault_rig(tag: &str) -> FaultRig {
    let d = 8;
    let data = Matrix::from_rows(d, random_rows(150, d, 61, 1.0));
    let dir = temp_dir(tag);
    let cfg = ShardedConfig::builder()
        .shards(2)
        .base(ProMipsConfig::builder().seed(67).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let mut live: BTreeSet<u64> = (0..150).collect();
    for v in random_rows(30, d, 71, 1.5) {
        live.insert(idx.insert(&v).unwrap());
    }
    for gid in (0..150).step_by(11) {
        idx.delete(gid).unwrap();
        live.remove(&gid);
    }
    idx.sync_wal().unwrap();
    FaultRig {
        tag: dir.file_name().unwrap().to_string_lossy().into_owned(),
        dir,
        idx,
        live,
    }
}

impl FaultRig {
    /// Arms a one-shot fault scoped to THIS rig's directory (so parallel
    /// tests can never consume it).
    fn arm(&self, op: IoOp, nth: u64, scope: &str) {
        faults::arm(FaultPlan {
            op,
            nth,
            path_contains: Some(format!("{}/{}", self.tag, scope)),
        });
    }

    fn live_ids(idx: &ShardedProMips) -> BTreeSet<u64> {
        let scratch = ShardedScratch::for_index(idx);
        run(idx, &[1.0f32; 8], usize::MAX / 2, &scratch)
            .unwrap()
            .items
            .iter()
            .map(|it| it.id)
            .collect()
    }

    /// The shared aftermath contract: the live index still serves the
    /// exact ledger, and a crash-reopen of the directory reproduces it —
    /// no acknowledged write lost, none applied twice.
    fn assert_intact_and_reopenable(self) {
        assert_eq!(Self::live_ids(&self.idx), self.live, "live view corrupted");
        drop(self.idx);
        let reopened = ShardedProMips::open(&self.dir).unwrap();
        assert_eq!(reopened.len(), self.live.len() as u64);
        assert_eq!(
            Self::live_ids(&reopened),
            self.live,
            "reopen lost or resurrected an acknowledged write"
        );
        std::fs::remove_dir_all(&self.dir).unwrap();
    }
}

/// Step 1 of the commit (shadow build): failing the new generation file's
/// write aborts the compaction with zero footprint — the overlay is not
/// drained, the old generation keeps serving, and a retry succeeds.
#[test]
fn fault_on_generation_build_write_aborts_cleanly() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The first write of the pass is shard 0's new page file (every IO
    // step of that build: `fault_on_indexed_generation_build_aborts_cleanly`).
    let rig = fault_rig("genwrite");
    let pending = rig.idx.pending_mutations();
    rig.arm(IoOp::Write, 1, "shard_");
    let err = rig.idx.compact_all().unwrap_err();
    assert!(faults::is_injected(&err), "unexpected error: {err}");
    assert!(!faults::disarm(), "the armed fault never fired");
    assert_eq!(
        rig.idx.pending_mutations(),
        pending,
        "a failed shadow build must not drain the overlay"
    );
    // The retry folds everything the fault interrupted.
    assert!(!rig.idx.compact_all().unwrap().is_empty());
    assert_eq!(rig.idx.pending_mutations(), 0);
    rig.assert_intact_and_reopenable();
}

/// Step 1 again, for the common case — an **indexed** shadow build, whose
/// page file is written in runs and fsynced once the footer is in place.
/// Failing a run write (the first write of the new generation's file), a
/// later single-page write (the directory blob's, the fourth write, past
/// the three packed regions) or a data fsync each abort the pass with zero
/// footprint: the error is the injected one, the overlay is not drained,
/// no generation advanced, the orphan file is gone, the old generation
/// still answers, and a retry folds everything.
#[test]
fn fault_on_indexed_generation_build_aborts_cleanly() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (tag, op, nth) in [
        ("genrun", IoOp::Write, 1),
        ("genpage", IoOp::Write, 4),
        ("gensync", IoOp::Fsync, 1),
        ("gensync2", IoOp::Fsync, 2),
    ] {
        let rig = fault_rig(tag);
        let pending = rig.idx.pending_mutations();
        rig.arm(op, nth, "shard_0000.g1.pmx");
        let err = rig.idx.compact_all().unwrap_err();
        assert!(faults::is_injected(&err), "{tag}: unexpected error: {err}");
        assert!(!faults::disarm(), "{tag}: the armed fault never fired");
        assert_eq!(
            rig.idx.pending_mutations(),
            pending,
            "{tag}: a failed shadow build must not drain the overlay"
        );
        for st in rig.idx.maintenance_stats() {
            assert_eq!(st.generation, 0, "{tag}: no generation may advance");
        }
        assert!(
            !rig.dir.join("shard_0000.g1.pmx").exists(),
            "{tag}: the orphan file must be removed"
        );
        assert_eq!(FaultRig::live_ids(&rig.idx), rig.live, "{tag}: live view");
        // The retry folds everything the fault interrupted.
        assert!(!rig.idx.compact_all().unwrap().is_empty());
        assert_eq!(rig.idx.pending_mutations(), 0);
        assert!(rig.dir.join("shard_0000.g1.pmx").exists());
        rig.assert_intact_and_reopenable();
    }
}

/// Step 2 (the commit point): failing the manifest's tmp-file fsync means
/// the swap never happened — on-disk and in-memory state both stay on the
/// old generation, and the intact WAL still carries every mutation.
#[test]
fn fault_on_manifest_fsync_keeps_old_generation_authoritative() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rig = fault_rig("manifsync");
    rig.arm(IoOp::Fsync, 1, "MANIFEST");
    let err = rig.idx.compact_all().unwrap_err();
    assert!(faults::is_injected(&err), "unexpected error: {err}");
    assert!(!faults::disarm());
    for st in rig.idx.maintenance_stats() {
        assert_eq!(
            st.generation, 0,
            "generation must not advance past a failed swap"
        );
    }
    assert!(
        rig.idx.pending_mutations() > 0,
        "overlay drained without a commit"
    );
    rig.assert_intact_and_reopenable();
}

/// Step 2 again, at the rename itself: the atomic-replace never lands, so
/// the old manifest (and generation) stay authoritative.
#[test]
fn fault_on_manifest_rename_keeps_old_generation_authoritative() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rig = fault_rig("manirename");
    rig.arm(IoOp::Rename, 1, "MANIFEST");
    let err = rig.idx.compact_all().unwrap_err();
    assert!(faults::is_injected(&err), "unexpected error: {err}");
    assert!(!faults::disarm());
    for st in rig.idx.maintenance_stats() {
        assert_eq!(st.generation, 0);
    }
    // A later, healthy pass commits; the directory then reopens on the
    // new generation.
    assert!(!rig.idx.compact_all().unwrap().is_empty());
    rig.assert_intact_and_reopenable();
}

/// Step 3 (after the commit point): the manifest already names the new
/// generation when the WAL rewrite fails. The commit must complete in
/// memory anyway — and reopening with the STALE log replays records whose
/// folded prefix is already in the generation, which the staleness rules
/// turn into no-ops. This is the live version of the crash window the
/// `stale_wal_replay_after_compaction_crash_is_idempotent` test covers
/// from cold.
#[test]
fn fault_on_wal_rewrite_after_manifest_swap_loses_nothing() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rig = fault_rig("walrewrite");
    // Page files are written and fsynced through the shim but never
    // renamed, so this fails the WAL rewrite's rename into place — the
    // first shard-scoped rename of the commit.
    rig.arm(IoOp::Rename, 1, "shard_");
    let err = rig.idx.compact_all().unwrap_err();
    assert!(faults::is_injected(&err), "unexpected error: {err}");
    assert!(!faults::disarm());
    // Past the commit point: at least one shard advanced even though the
    // pass reported the rewrite failure.
    assert!(
        rig.idx
            .maintenance_stats()
            .iter()
            .any(|st| st.generation > 0),
        "manifest swap landed, so the generation must advance"
    );
    rig.assert_intact_and_reopenable();
}

/// A WAL append fsync failure surfaces to the writer as a typed IO error
/// and the in-memory apply is skipped: the un-acknowledged point is not
/// searchable, the index keeps serving, and the directory stays
/// reopenable (the torn record is allowed to survive — it was never
/// acknowledged — but nothing acknowledged may be lost).
#[test]
fn fault_on_wal_append_fsync_refuses_the_write_only() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rig = fault_rig("walappend");
    rig.arm(IoOp::Fsync, 1, "shard_");
    let err = match rig.idx.insert(&[0.5f32; 8]) {
        Err(MutationError::Io(e)) => e,
        other => panic!("expected an IO refusal, got {other:?}"),
    };
    assert!(faults::is_injected(&err), "unexpected error: {err}");
    assert!(!faults::disarm());
    // Not acknowledged ⇒ not searchable now.
    assert_eq!(FaultRig::live_ids(&rig.idx), rig.live);
    // A retry (healthy IO) succeeds and is immediately searchable; the
    // burned gid from the refused attempt stays a permanent skip.
    let mut rig = rig;
    let gid = rig.idx.insert(&[0.5f32; 8]).unwrap();
    rig.live.insert(gid);
    // The unsynced record of the refused insert may or may not have
    // reached the file; a reopen may legitimately resurrect it as an
    // unacknowledged extra. Pin the contract on the acknowledged set.
    assert_eq!(
        FaultRig::live_ids(&rig.idx),
        rig.live,
        "acked write not visible"
    );
    drop(rig.idx);
    let reopened = ShardedProMips::open(&rig.dir).unwrap();
    let got = FaultRig::live_ids(&reopened);
    assert!(
        got.is_superset(&rig.live),
        "reopen lost an acknowledged write"
    );
    assert!(
        got.len() <= rig.live.len() + 1,
        "more than the one unacked record resurrected"
    );
    std::fs::remove_dir_all(&rig.dir).unwrap();
}

/// Repartitioning commits all shards through one manifest swap; failing
/// that swap must leave every shard on its old generation with writers
/// unblocked afterwards.
#[test]
fn fault_on_repartition_manifest_swap_aborts_wholesale() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rig = fault_rig("repart");
    rig.arm(IoOp::Rename, 1, "MANIFEST");
    let err = rig.idx.repartition().unwrap_err();
    assert!(faults::is_injected(&err), "unexpected error: {err}");
    assert!(!faults::disarm());
    for st in rig.idx.maintenance_stats() {
        assert_eq!(st.generation, 0, "no shard may advance past a failed swap");
    }
    // Writers are not wedged by the abort.
    let mut rig = rig;
    let gid = rig.idx.insert(&[0.25f32; 8]).unwrap();
    rig.live.insert(gid);
    // And a healthy repartition completes on the same index.
    rig.idx.repartition().unwrap();
    assert_eq!(rig.idx.pending_mutations(), 0);
    rig.assert_intact_and_reopenable();
}

/// Fault torture: readers hammer an index whose page reads fail
/// *probabilistically* (a recurring seeded plan, 1 % of reads) while a
/// writer mutates underneath. No query may panic; every Ok answer keeps the
/// isolation invariants; every Err is a typed `ShardError` carrying the
/// injected fault, never a torn result. Afterwards (faults disarmed) the
/// acknowledged-write ledger must hold exactly, live and across a reopen.
#[test]
fn torture_fail_fast_queries_survive_probabilistic_read_faults() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use promips_shard::ShardErrorKind;

    let d = 10;
    // Enough committed pages per shard that the tiny pool below keeps
    // missing (and thus keeps issuing faultable reads) all run long.
    let n_base = 6000;
    let (n_ops, n_readers) = if stress() { (2000, 6) } else { (400, 3) };

    let strong: Vec<f32> = vec![8.0f32; d];
    let mut rows = vec![strong.clone()];
    rows.extend(random_rows(n_base - 1, d, 81, 1.0));
    let data = Matrix::from_rows(d, rows.iter().cloned());
    let inserts = random_rows(n_ops, d, 83, 2.0);
    let max_norm_ever = data
        .iter_rows()
        .map(sq_norm2)
        .chain(inserts.iter().map(|v| sq_norm2(v)))
        .fold(0.0f64, f64::max)
        .sqrt();

    let dir = temp_dir("fault-torture");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    // Every shard is paged, so queries do real page IO; a tiny pool keeps
    // cache misses (and thus fault opportunities) coming for the whole run. Pruning stays on — a pruned shard just
    // dodges its fault chance, which is fine.
    let cfg = ShardedConfig::builder()
        .shards(3)
        .wal_sync(SyncPolicy::EveryN(16))
        .base(ProMipsConfig::builder().seed(17).pool_pages(4).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    // Cold cache + a probabilistic read fault on THIS test's pages only.
    idx.clear_cache();
    faults::arm_with(
        FaultPlan {
            op: IoOp::Read,
            nth: 1,
            path_contains: Some(format!("{tag}/shard_")),
        },
        faults::Recurrence::Probabilistic {
            seed: 0xC0FFEE,
            p: 0.01,
        },
        std::io::ErrorKind::Other,
    );

    let stop = AtomicBool::new(false);
    let scratch = ShardedScratch::for_index(&idx);
    let (live, answered_seen, refused_seen) = std::thread::scope(|s| {
        let mut readers = Vec::new();
        for r in 0..n_readers {
            let idx = &idx;
            let stop = &stop;
            let scratch = &scratch;
            readers.push(s.spawn(move || {
                let mut rng = Xoshiro256pp::seed_from_u64(200 + r as u64);
                let (mut answered, mut refused) = (0u64, 0u64);
                while !stop.load(Ordering::Acquire) {
                    let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
                    match run(idx, &q, 10, scratch) {
                        Ok(res) => {
                            answered += 1;
                            let q_norm = sq_norm2(&q).sqrt();
                            let mut seen = BTreeSet::new();
                            for w in res.items.windows(2) {
                                assert!(w[0].ip >= w[1].ip, "results must be sorted");
                            }
                            for it in &res.items {
                                assert!(seen.insert(it.id), "duplicate gid {}", it.id);
                                assert!(
                                    it.ip <= q_norm * max_norm_ever + 1e-6,
                                    "ip {} breaks the Cauchy–Schwarz ceiling",
                                    it.ip
                                );
                            }
                        }
                        // A shard the query searched failed: the typed
                        // refusal names it and carries the injected marker —
                        // never a panic, never a fabricated answer.
                        Err(QueryError::Shard(se)) => {
                            let ShardErrorKind::Io(e) = &se.kind else {
                                panic!("unexpected shard error: {se}");
                            };
                            assert!(faults::is_injected(e), "unexpected error: {e}");
                            refused += 1;
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
                (answered, refused)
            }));
        }

        // Writer: WAL appends are Write/Fsync ops — unfaulted here — so
        // every mutation must be acknowledged and the ledger is exact.
        let mut live: BTreeSet<u64> = (0..n_base as u64).collect();
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        for (i, v) in inserts.iter().enumerate() {
            live.insert(idx.insert(v).unwrap());
            if !i.is_multiple_of(2) {
                let nth = (rng.next_u64() as usize) % live.len();
                let victim = *live.iter().nth(nth).unwrap();
                if victim != 0 {
                    idx.delete(victim).unwrap();
                    live.remove(&victim);
                }
            }
        }
        stop.store(true, Ordering::Release);
        let (mut answered, mut refused) = (0u64, 0u64);
        for h in readers {
            let (an, rf) = h.join().unwrap();
            answered += an;
            refused += rf;
        }
        (live, answered, refused)
    });
    faults::disarm();
    println!("fault torture: {answered_seen} answers, {refused_seen} typed refusals");

    // Faults off: the acknowledged ledger holds exactly, live and across
    // a crash-reopen.
    idx.sync_wal().unwrap();
    assert_eq!(idx.len(), live.len() as u64, "liveness ledger diverged");
    let scratch = ShardedScratch::for_index(&idx);
    let q = vec![1.0f32; d];
    let all = run(&idx, &q, usize::MAX / 2, &scratch).unwrap();
    let got: BTreeSet<u64> = all.items.iter().map(|it| it.id).collect();
    assert_eq!(got, live, "live id set diverged from the writer's ledger");
    assert_eq!(all.items[0].id, 0, "strong row lost under faulted churn");

    drop(all);
    drop(idx);
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), live.len() as u64);
    let scratch = ShardedScratch::for_index(&reopened);
    let all = run(&reopened, &q, usize::MAX / 2, &scratch).unwrap();
    let got: BTreeSet<u64> = all.items.iter().map(|it| it.id).collect();
    assert_eq!(
        got, live,
        "reopen lost or resurrected an acknowledged write"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
