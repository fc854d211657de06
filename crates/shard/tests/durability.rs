//! Durability of the sharded mutation lifecycle: WAL-backed inserts and
//! deletes must survive dropping the index mid-stream (the crash model),
//! replay must be idempotent against stale logs, compaction must fold and
//! truncate atomically, and a zero-mutation open must stay bit-identical
//! to the read-only path.

use promips_core::{ProMips, ProMipsConfig};
use promips_linalg::{sq_norm2, Matrix};
use promips_shard::{CompactionPolicy, MutationError, ShardedConfig, ShardedProMips};
use promips_stats::Xoshiro256pp;
use proptest::prelude::*;

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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mutation op decoded from proptest's raw integers.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a vector derived from the seed; `big` scales its norm up so
    /// routing exercises the bound-raising path.
    Insert { seed: u64, big: bool },
    /// Delete `target % (ids assigned so far)` — hits base points, fresh
    /// inserts, already-deleted ids, and never-assigned ids alike.
    Delete { target: u64 },
}

fn decode_ops(raw: &[(u8, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, v)| match kind % 4 {
            0 | 1 => Op::Insert {
                seed: v,
                big: kind % 4 == 1,
            },
            2 => Op::Delete { target: v },
            _ => Op::Delete { target: v % 64 },
        })
        .collect()
}

fn op_vector(seed: u64, big: bool, d: usize) -> Vec<f32> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xD1CE);
    let scale = if big { 8.0 } else { 1.0 };
    (0..d).map(|_| (rng.normal() * scale) as f32).collect()
}

/// Applies `ops` identically to any ShardedProMips. Deletes may target
/// dead or never-assigned ids on purpose; those are typed refusals, not
/// failures.
fn apply_ops(idx: &ShardedProMips, ops: &[Op], d: usize) {
    for op in ops {
        match op {
            Op::Insert { seed, big } => {
                idx.insert(&op_vector(*seed, *big, d)).unwrap();
            }
            Op::Delete { target } => {
                let gid = target % idx.next_global_id().max(1);
                match idx.delete(gid) {
                    Ok(()) | Err(MutationError::DeadId(_)) | Err(MutationError::UnknownId(_)) => {}
                    Err(e) => panic!("delete({gid}) failed: {e}"),
                }
            }
        }
    }
}

fn assert_same_search(a: &ShardedProMips, b: &ShardedProMips, d: usize, qseed: u64, label: &str) {
    for (qi, q) in random_queries(6, d, qseed).iter().enumerate() {
        let ra = a.search(q, 8).unwrap();
        let rb = b.search(q, 8).unwrap();
        assert_eq!(ra.items, rb.items, "{label}: query {qi} diverged");
    }
}

/// Every live point with its exact inner product: a search with `k` = live
/// count clamps nowhere and exhaustively verifies, so this is
/// **structure-independent** ground truth — compaction and re-partitioning
/// rearrange the index but must preserve it.
fn full_search_map(idx: &ShardedProMips, q: &[f32]) -> std::collections::BTreeMap<u64, f64> {
    let res = idx.search(q, idx.len() as usize).unwrap();
    res.items.iter().map(|it| (it.id, it.ip)).collect()
}

fn assert_equivalent_full(
    a: &std::collections::BTreeMap<u64, f64>,
    b: &std::collections::BTreeMap<u64, f64>,
    label: &str,
) {
    let ka: Vec<u64> = a.keys().copied().collect();
    let kb: Vec<u64> = b.keys().copied().collect();
    assert_eq!(ka, kb, "{label}: live id sets differ");
    for (id, ip_a) in a {
        let ip_b = b[id];
        assert_eq!(
            ip_a.to_bits(),
            ip_b.to_bits(),
            "{label}: id {id} ip {ip_a} vs {ip_b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: after ANY sequence of sharded inserts and
    /// deletes, dropping the index mid-stream (no snapshot, no compaction
    /// — the manifest still describes the initial build) and reopening
    /// from disk yields search results identical to a fresh in-memory
    /// build over the same base data with the same surviving mutation
    /// stream applied.
    #[test]
    fn kill_and_reopen_equals_fresh_replay(
        raw_ops in proptest::collection::vec((0u8..4, 0u64..4000), 0..50),
        data_seed in 0u64..1000,
    ) {
        let d = 10;
        let ops = decode_ops(&raw_ops);
        let data = random_data(220, d, data_seed);
        let cfg = ShardedConfig::builder()
            .shards(3)
            .base(ProMipsConfig::builder().seed(data_seed ^ 7).build())
            .build();
        let dir = temp_dir(&format!("kill-{data_seed}-{}", raw_ops.len()));

        // Durable index: build, mutate, drop without any shutdown ritual.
        let durable = ShardedProMips::build_in_dir(&data, cfg.clone(), &dir).unwrap();
        apply_ops(&durable, &ops, d);
        let live_before = durable.len();
        let next_before = durable.next_global_id();
        drop(durable);

        // Volatile twin: same base build, same ops.
        let twin = ShardedProMips::build_in_memory(&data, cfg).unwrap();
        apply_ops(&twin, &ops, d);

        let reopened = ShardedProMips::open(&dir).unwrap();
        prop_assert_eq!(reopened.len(), live_before);
        prop_assert_eq!(reopened.len(), twin.len());
        prop_assert_eq!(reopened.next_global_id(), next_before);
        for (qi, q) in random_queries(5, d, data_seed ^ 0x51).iter().enumerate() {
            let ra = reopened.search(q, 7).unwrap();
            let rb = twin.search(q, 7).unwrap();
            prop_assert_eq!(&ra.items, &rb.items, "query {} diverged", qi);
        }
        // Maintenance ledgers agree shard by shard (wal bytes aside).
        for (sa, sb) in reopened.maintenance_stats().iter().zip(twin.maintenance_stats()) {
            prop_assert_eq!(sa.live, sb.live);
            prop_assert_eq!(sa.delta_len, sb.delta_len);
            prop_assert_eq!(sa.tombstones, sb.tombstones);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A 1-shard directory with zero mutations must open onto today's
/// read-only path bit-for-bit: same items as the plain unsharded index,
/// and no WAL file is ever created without a mutation.
#[test]
fn zero_mutation_open_is_bit_identical_to_readonly_path() {
    let d = 16;
    let data = random_data(500, d, 31);
    let base = ProMipsConfig::builder().c(0.9).p(0.5).seed(77).build();
    let unsharded = ProMips::build_in_memory(&data, base.clone()).unwrap();
    let dir = temp_dir("zero-mut");
    let built = ShardedProMips::build_in_dir(
        &data,
        ShardedConfig::builder().shards(1).base(base).build(),
        &dir,
    )
    .unwrap();
    drop(built);

    assert!(
        !std::fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .path()
            .extension()
            .is_some_and(|x| x == "wal")),
        "no mutations ⇒ no WAL files"
    );
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert!(reopened.is_durable());
    for q in random_queries(10, d, 33) {
        let a = unsharded.search(&q, 9).unwrap();
        let b = reopened.search(&q, 9).unwrap();
        assert_eq!(a.items, b.items, "one-shard open must match unsharded");
        assert_eq!(a.verified, b.verified);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Mutations are visible immediately, survive a drop+reopen through the
/// WAL alone, and the per-shard stats expose the accumulating debt.
#[test]
fn mutations_survive_reopen_via_wal() {
    let d = 8;
    let data = random_data(300, d, 5);
    let dir = temp_dir("wal-survive");
    let cfg = ShardedConfig::builder()
        .shards(2)
        .base(ProMipsConfig::builder().seed(3).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();

    let strong = vec![9.0f32; d];
    let gid = idx.insert(&strong).unwrap();
    assert_eq!(gid, 300);
    let q = vec![1.0f32; d];
    let res = idx.search(&q, 3).unwrap();
    assert_eq!(res.items[0].id, gid, "fresh insert must win immediately");
    let victim = res.items[1].id;
    idx.delete(victim).unwrap();
    assert!(
        matches!(idx.delete(victim), Err(MutationError::DeadId(id)) if id == victim),
        "double delete must be a typed DeadId refusal"
    );
    assert!(
        matches!(idx.delete(999_999), Err(MutationError::UnknownId(999_999))),
        "never-assigned id must be a typed UnknownId refusal"
    );
    assert_eq!(idx.len(), 300); // +1 insert, −1 delete

    // Stats surface the debt, including WAL bytes on the mutated shard.
    let stats = idx.maintenance_stats();
    let delta_total: usize = stats.iter().map(|s| s.delta_len).sum();
    let tomb_total: usize = stats.iter().map(|s| s.tombstones).sum();
    let wal_total: u64 = stats.iter().map(|s| s.wal_bytes).sum();
    assert_eq!(delta_total, 1);
    assert_eq!(tomb_total, 1);
    assert!(wal_total > 24, "WAL must hold the two records");
    drop(idx);

    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), 300);
    let res = reopened.search(&q, 3).unwrap();
    assert_eq!(res.items[0].id, gid, "insert lost across reopen");
    assert!(
        res.items.iter().all(|it| it.id != victim),
        "tombstone lost across reopen"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compaction folds delta + tombstones into a new generation, truncates
/// the WAL only afterwards, removes the superseded file, re-tightens the
/// norm bound, and changes no search result.
#[test]
fn compaction_folds_truncates_and_preserves_results() {
    let d = 8;
    let data = random_data(400, d, 11);
    let dir = temp_dir("compact");
    let cfg = ShardedConfig::builder()
        .shards(2)
        .base(ProMipsConfig::builder().seed(13).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let mut inserted = Vec::new();
    let mut inserted_rows = Vec::new();
    for _ in 0..60 {
        let v: Vec<f32> = (0..d).map(|_| (rng.normal() * 2.0) as f32).collect();
        inserted.push(idx.insert(&v).unwrap());
        inserted_rows.push(v);
    }
    for gid in (0..400).step_by(7) {
        idx.delete(gid).unwrap();
    }
    let queries = random_queries(8, d, 19);
    let before: Vec<_> = queries.iter().map(|q| full_search_map(&idx, q)).collect();
    let live_before = idx.len();

    let compacted = idx.compact_all().unwrap();
    assert!(!compacted.is_empty());
    assert_eq!(
        idx.len(),
        live_before,
        "compaction must not change liveness"
    );
    for st in idx.maintenance_stats() {
        assert_eq!(st.delta_len, 0, "shard {} delta survived", st.shard);
        assert_eq!(st.tombstones, 0, "shard {} tombstones survived", st.shard);
        if st.wal_bytes > 0 {
            assert_eq!(st.wal_bytes, 24, "shard {} WAL not truncated", st.shard);
        }
    }
    for (q, b) in queries.iter().zip(&before) {
        assert_equivalent_full(&full_search_map(&idx, q), b, "compaction");
    }
    // Old generation files of compacted shards are gone, new ones exist,
    // and each rebuilt generation's norm bound is the maximum over exactly
    // its rows (an indexed one takes it from the index build).
    for &si in &compacted {
        let shard = &idx.shards()[si];
        let max_sq_norm = (shard.global_ids().iter())
            .map(|&gid| match (gid as usize).checked_sub(400) {
                Some(i) => sq_norm2(&inserted_rows[i]),
                None => sq_norm2(data.row(gid as usize)),
            })
            .fold(0.0f64, f64::max);
        assert!(!shard.is_exact());
        assert_eq!(
            shard.max_norm().to_bits(),
            max_sq_norm.sqrt().to_bits(),
            "shard {si}: norm bound"
        );
        let st = &idx.maintenance_stats()[si];
        assert!(st.generation >= 1, "shard {si} generation not bumped");
        assert!(
            !dir.join(format!("shard_{si:04}.pmx")).exists(),
            "shard {si}: superseded generation-0 file still present"
        );
    }

    // Reopen from the compacted state: nothing to replay, and the live
    // view (all points, exact ips) is unchanged.
    drop(idx);
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), live_before);
    for (q, b) in queries.iter().zip(&before) {
        assert_equivalent_full(&full_search_map(&reopened, q), b, "reopen");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The crash window between a compaction's manifest swap and its WAL
/// truncation: replaying an entirely stale log over the new generation
/// must change nothing (inserts are recognised as folded, deletes no-op).
#[test]
fn stale_wal_replay_after_compaction_crash_is_idempotent() {
    let d = 8;
    let data = random_data(250, d, 23);
    let dir = temp_dir("stale-wal");
    let cfg = ShardedConfig::builder()
        .shards(2)
        .base(ProMipsConfig::builder().seed(29).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let g1 = idx.insert(&vec![4.0f32; d]).unwrap();
    let g2 = idx.insert(&vec![-3.0f32; d]).unwrap();
    idx.delete(5).unwrap();
    idx.delete(g2).unwrap(); // insert + delete of the same id in one log

    // Save the pre-compaction WALs, compact, then put the stale logs back
    // — exactly the on-disk state a crash before truncation leaves.
    let wal_files: Vec<_> = (0..2)
        .map(|si| dir.join(format!("shard_{si:04}.wal")))
        .collect();
    let saved: Vec<Option<Vec<u8>>> = wal_files.iter().map(|p| std::fs::read(p).ok()).collect();
    let queries = random_queries(6, d, 31);
    idx.compact_all().unwrap();
    let before: Vec<_> = queries.iter().map(|q| full_search_map(&idx, q)).collect();
    drop(idx);
    for (p, s) in wal_files.iter().zip(&saved) {
        if let Some(bytes) = s {
            std::fs::write(p, bytes).unwrap();
        }
    }

    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), 250); // 250 + 2 − 2
    assert!(reopened.contains(g1));
    assert!(!reopened.contains(g2), "folded delete resurrected");
    assert!(!reopened.contains(5), "folded delete resurrected");
    // The one permitted residue: an id inserted AND deleted within the
    // same stale log window replays as a dead delta entry (the insert is
    // indistinguishable from a fresh one until its delete follows) — net
    // liveness zero, washed out at the next compaction. Nothing else may
    // re-apply.
    let stats = reopened.maintenance_stats();
    let delta_total: usize = stats.iter().map(|s| s.delta_len).sum();
    let tomb_total: usize = stats.iter().map(|s| s.tombstones).sum();
    assert!(delta_total <= 1, "stale inserts re-applied: {delta_total}");
    assert_eq!(delta_total, tomb_total, "resurrection must be net-zero");
    for (q, b) in queries.iter().zip(&before) {
        assert_equivalent_full(&full_search_map(&reopened, q), b, "stale replay");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Truncating the WAL mid-record (the torn-tail crash) recovers exactly
/// the prefix of complete records at the index level too.
#[test]
fn torn_wal_tail_recovers_complete_prefix() {
    let d = 6;
    let data = random_data(150, d, 41);
    let dir = temp_dir("torn");
    let cfg = ShardedConfig::builder()
        .shards(1)
        .base(ProMipsConfig::builder().seed(43).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg.clone(), &dir).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(47);
    let vectors: Vec<Vec<f32>> = (0..5)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect();
    for v in &vectors {
        idx.insert(v).unwrap();
    }
    drop(idx);

    // Record layout: 8-byte record header + (1 tag + 8 id + 4d vector).
    let rec_len = 8 + 1 + 8 + 4 * d;
    let wal = dir.join("shard_0000.wal");
    let full = std::fs::read(&wal).unwrap();
    assert_eq!(full.len(), 24 + 5 * rec_len);

    for (keep, cut_extra) in [(4usize, 1usize), (4, rec_len - 1), (3, rec_len / 2), (0, 3)] {
        let cut = 24 + keep * rec_len + cut_extra;
        std::fs::write(&wal, &full[..cut]).unwrap();
        let reopened = ShardedProMips::open(&dir).unwrap();
        assert_eq!(
            reopened.len(),
            150 + keep as u64,
            "cut at {cut}: wrong survivor count"
        );
        // The surviving prefix behaves like applying exactly `keep` ops.
        let twin = ShardedProMips::build_in_memory(&data, cfg.clone()).unwrap();
        for v in &vectors[..keep] {
            twin.insert(v).unwrap();
        }
        assert_same_search(&reopened, &twin, d, 53, &format!("cut {cut}"));
        drop(reopened);
        // Reopening truncated the torn tail durably; restore for next cut.
        std::fs::write(&wal, &full).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard log of another dimensionality is refused by `open` before it
/// is replayed: no record reaches the index and its torn tail is not
/// truncated.
#[test]
fn a_wal_of_another_dimension_is_refused_untouched() {
    let d = 4;
    let dir = temp_dir("wrong-d");
    let cfg = ShardedConfig::builder().shards(1).build();
    drop(ShardedProMips::build_in_dir(&random_data(100, d, 59), cfg, &dir).unwrap());
    let wal = dir.join("shard_0000.wal");
    {
        let mut log =
            promips_wal::Wal::create(&wal, d - 1, promips_wal::SyncPolicy::Always).unwrap();
        log.append(&promips_wal::WalRecord::Delete { id: 7 })
            .unwrap();
    }
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xAB; 3]); // a torn tail
    std::fs::write(&wal, &bytes).unwrap();

    let err = ShardedProMips::open(&dir).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "the log was changed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Skewed inserts pile into the top norm shard; re-partitioning recuts
/// the boundaries over the live distribution, restores balance, keeps
/// global ids stable, and changes no search result. Copies of live rows
/// put equal norms on both sides of each new boundary, and every shard's
/// members are exactly what ranking the live rows by `(‖o‖², gid)` gives.
#[test]
fn repartition_rebalances_without_changing_results() {
    let d = 8;
    let data = random_data(300, d, 83);
    let dir = temp_dir("repart");
    let cfg = ShardedConfig::builder()
        .shards(3)
        .base(ProMipsConfig::builder().seed(89).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let mut live: std::collections::BTreeMap<u64, Vec<f32>> = (0..data.rows())
        .map(|i| (i as u64, data.row(i).to_vec()))
        .collect();

    // A stream of very-high-norm inserts all routes to the top shard.
    let mut rng = Xoshiro256pp::seed_from_u64(97);
    for _ in 0..220 {
        let v: Vec<f32> = (0..d).map(|_| (rng.normal() * 10.0) as f32).collect();
        live.insert(idx.insert(&v).unwrap(), v);
    }
    // Forty copies each of the rows now at the live third and two thirds
    // by norm: each run of equal norms then spans a boundary the
    // re-partition draws, and only the gid decides a copy's side.
    let mut by_norm: Vec<(f64, u64)> = live.iter().map(|(&g, r)| (sq_norm2(r), g)).collect();
    by_norm.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for rank in [by_norm.len() / 3, 2 * by_norm.len() / 3] {
        let row = live[&by_norm[rank].1].clone();
        for _ in 0..40 {
            live.insert(idx.insert(&row).unwrap(), row.clone());
        }
    }
    for gid in [5, 301, 555] {
        idx.delete(gid).unwrap();
        live.remove(&gid);
    }
    let skew_before = idx.shard_skew();
    assert!(skew_before > 1.5, "inserts should have skewed the shards");

    let queries = random_queries(8, d, 101);
    let before: Vec<_> = queries.iter().map(|q| full_search_map(&idx, q)).collect();
    idx.repartition().unwrap();
    assert!(
        idx.shard_skew() < skew_before.min(1.2),
        "repartition must rebalance: {} -> {}",
        skew_before,
        idx.shard_skew()
    );
    for st in idx.maintenance_stats() {
        assert_eq!(st.delta_len + st.tombstones, 0);
    }
    // Membership is the oracle's: live rows ranked by (‖o‖², gid) under a
    // stable sort that recomputes both norms per comparison, rank `r` of
    // `n` to shard `r · 3 / n`, each shard's ids ascending.
    let mut ranked: Vec<u64> = live.keys().copied().collect();
    ranked.sort_by(|a, b| {
        sq_norm2(&live[a])
            .total_cmp(&sq_norm2(&live[b]))
            .then(a.cmp(b))
    });
    let mut expect = vec![Vec::new(); 3];
    for (rank, &gid) in ranked.iter().enumerate() {
        expect[rank * 3 / ranked.len()].push(gid);
    }
    let split_ties = (1..ranked.len())
        .filter(|&r| r * 3 / ranked.len() != (r - 1) * 3 / ranked.len())
        .filter(|&r| sq_norm2(&live[&ranked[r]]) == sq_norm2(&live[&ranked[r - 1]]))
        .count();
    assert_eq!(
        split_ties, 2,
        "both boundaries must cut a run of equal norms"
    );
    for (si, ids) in expect.iter_mut().enumerate() {
        ids.sort_unstable();
        assert_eq!(&idx.shards()[si].global_ids(), ids, "shard {si}'s members");
    }
    for (q, b) in queries.iter().zip(&before) {
        assert_equivalent_full(&full_search_map(&idx, q), b, "repartition");
    }
    // Survives reopen (manifest names the new generations everywhere).
    drop(idx);
    let reopened = ShardedProMips::open(&dir).unwrap();
    for (q, b) in queries.iter().zip(&before) {
        assert_equivalent_full(&full_search_map(&reopened, q), b, "reopen");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The policy-driven pass: under min_mutations nothing happens; past the
/// delta trigger the right shards compact; with skew past the threshold
/// the pass re-partitions instead.
#[test]
fn policy_pass_compacts_and_repartitions() {
    let d = 6;
    let data = random_data(200, d, 103);
    // Two shards cap the skew ratio at 2.0, so the trigger sits below it.
    let policy = CompactionPolicy {
        max_delta_fraction: 0.2,
        max_tombstone_fraction: 0.2,
        min_mutations: 10,
        repartition_skew: 1.4,
    };
    let idx = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder()
            .shards(2)
            .compaction(policy)
            .base(ProMipsConfig::builder().seed(107).build())
            .build(),
    )
    .unwrap();
    // Below the floor: no-op.
    idx.insert(&vec![0.5f32; d]).unwrap();
    let report = idx.compact().unwrap();
    assert!(report.compacted.is_empty() && !report.repartitioned);

    // Balanced-ish delta well past the fraction: plain compaction.
    let mut rng = Xoshiro256pp::seed_from_u64(109);
    for _ in 0..80 {
        let v: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        idx.insert(&v).unwrap();
    }
    let report = idx.compact().unwrap();
    assert!(!report.compacted.is_empty());

    // Heavy one-sided growth: the pass escalates to a re-partition.
    for _ in 0..300 {
        let v: Vec<f32> = (0..d).map(|_| (rng.normal() * 12.0) as f32).collect();
        idx.insert(&v).unwrap();
    }
    assert!(idx.shard_skew() > 1.4);
    let report = idx.compact().unwrap();
    assert!(report.repartitioned, "skew past threshold must repartition");
    assert!(idx.shard_skew() < 1.2);
}

/// Snapshot refuses to silently drop pending mutations; after compaction
/// it round-trips them.
#[test]
fn snapshot_guards_pending_mutations() {
    let d = 6;
    let data = random_data(150, d, 113);
    let idx = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder()
            .shards(2)
            .base(ProMipsConfig::builder().seed(127).build())
            .build(),
    )
    .unwrap();
    let gid = idx.insert(&vec![3.0f32; d]).unwrap();
    let dir = temp_dir("snap-guard");
    let err = idx.snapshot(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    idx.compact_all().unwrap();
    idx.snapshot(&dir).unwrap();
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), 151);
    assert!(reopened.contains(gid));
    let q = vec![1.0f32; d];
    assert_eq!(
        reopened.search(&q, 4).unwrap().items,
        idx.search(&q, 4).unwrap().items
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed compaction build (here: the index directory vanishes, so the
/// new generation file cannot be created) must leave the index exactly as
/// it was: the build is a shadow build that consumes nothing, so the old
/// generation keeps serving and the pending delta/tombstones survive to
/// be folded by a later, successful pass.
#[test]
fn failed_compaction_build_leaves_consistent_index() {
    let d = 8;
    let data = random_data(300, d, 139);
    let dir = temp_dir("fail-compact");
    let cfg = ShardedConfig::builder()
        .shards(2)
        .base(ProMipsConfig::builder().seed(149).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let strong = vec![9.0f32; d];
    let gid = idx.insert(&strong).unwrap();
    idx.delete(3).unwrap();
    let q = vec![1.0f32; d];
    let before = full_search_map(&idx, &q);

    // Pull the directory out from under the next generation's build.
    std::fs::remove_dir_all(&dir).unwrap();
    let err = idx.compact_all().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    // The live view survived the failure untouched: the overlay still
    // holds the pending insert + tombstone, and the old generation keeps
    // serving (the strong insert still wins).
    assert_eq!(idx.len(), 300);
    assert_eq!(
        idx.pending_mutations(),
        2,
        "overlay must survive a failed build"
    );
    assert_equivalent_full(&full_search_map(&idx, &q), &before, "failed compaction");
    assert_eq!(idx.search(&q, 3).unwrap().items[0].id, gid);
    assert!(idx.contains(gid) && !idx.contains(3));
}

/// Volatile mutations on an in-memory index behave identically to the
/// durable path minus the files — including compaction.
#[test]
fn in_memory_mutations_and_compaction_work() {
    let d = 8;
    let data = random_data(250, d, 131);
    let cfg = ShardedConfig::builder()
        .shards(3)
        .base(ProMipsConfig::builder().seed(137).build())
        .build();
    let idx = ShardedProMips::build_in_memory(&data, cfg).unwrap();
    assert!(!idx.is_durable());
    let gid = idx.insert(&vec![7.0f32; d]).unwrap();
    idx.delete(0).unwrap();
    let q = vec![1.0f32; d];
    let before = idx.search(&q, 6).unwrap();
    assert_eq!(before.items[0].id, gid);
    idx.compact_all().unwrap();
    let after = idx.search(&q, 6).unwrap();
    assert_eq!(before.items, after.items);
    assert_eq!(idx.pending_mutations(), 0);
}

/// A build or a snapshot into a directory another index left its logs in
/// starts from no log: the old index's insert and delete are not replayed
/// into the new one, and the new one's first mutation starts a fresh log.
#[test]
fn a_fresh_index_never_replays_a_log_it_did_not_write() {
    let dir = temp_dir("stale-wal");
    let cfg = ShardedConfig::builder().shards(2).build();
    let old = ShardedProMips::build_in_dir(&random_data(600, 8, 71), cfg.clone(), &dir).unwrap();
    old.insert(&random_queries(1, 8, 73)[0]).unwrap();
    old.delete(5).unwrap();
    drop(old);

    let data = random_data(600, 8, 75);
    drop(ShardedProMips::build_in_dir(&data, cfg.clone(), &dir).unwrap());
    let idx = ShardedProMips::open(&dir).unwrap();
    assert_eq!(idx.len(), 600, "the old index's insert was replayed");
    assert!(idx.contains(5), "the old index's delete was replayed");
    assert_eq!(idx.pending_mutations(), 0);
    let id = idx.insert(&random_queries(1, 8, 77)[0]).unwrap();
    drop(idx);
    let idx = ShardedProMips::open(&dir).unwrap();
    assert_eq!((idx.len(), idx.pending_mutations()), (601, 1));
    assert!(idx.contains(id));
    drop(idx);

    // A snapshot over the directory, which now holds that one-insert log.
    let mem = ShardedProMips::build_in_memory(&data, cfg).unwrap();
    mem.snapshot(&dir).unwrap();
    let idx = ShardedProMips::open(&dir).unwrap();
    assert_eq!((idx.len(), idx.pending_mutations()), (600, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}
