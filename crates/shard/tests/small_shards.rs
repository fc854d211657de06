//! Small shards are indexes like any other: shards of 1 to about 130 rows
//! at d ∈ {1, 8, 70} go through `build_in_dir` → search → delete every row
//! of one shard → compact → insert → compact → reopen. After every step
//! each answer holds `min(k, live)` unique live ids whose `ip` is the
//! `dot` of the stored row to the bit, and is the exact top-k wherever
//! every searched shard answered by its column pass; the emptied shard
//! keeps no data file and a manifest count of 0 until rows come back; and
//! the reopened directory answers as the index that wrote it.
//! `PROMIPS_STRESS=1` runs more sizes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use promips_core::ProMipsConfig;
use promips_linalg::{dot, Matrix};
use promips_shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch, SyncPolicy};
use promips_stats::Xoshiro256pp;

const SHARDS: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-small-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gaussian(rng: &mut Xoshiro256pp, d: usize) -> Vec<f32> {
    (0..d).map(|_| rng.normal() as f32).collect()
}

/// Every row ever stored, by id, and the live ids.
#[derive(Default)]
struct Model {
    rows: BTreeMap<u64, Vec<f32>>,
    live: BTreeSet<u64>,
}

impl Model {
    fn insert(&mut self, idx: &ShardedProMips, row: Vec<f32>) {
        let gid = idx.insert(&row).unwrap();
        self.rows.insert(gid, row);
        self.live.insert(gid);
    }

    /// The exact top-k over the live rows as `(id, ip bits)`, ranked like
    /// the merge: ip descending, ties to the smaller id.
    fn top_k(&self, q: &[f32], k: usize) -> Vec<(u64, u64)> {
        let mut scored: Vec<(u64, f64)> = self
            .live
            .iter()
            .map(|&id| (id, dot(q, &self.rows[&id])))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(id, ip)| (id, ip.to_bits()))
            .collect()
    }
}

/// Runs every query at every `k` against `idx`, asserts the contract, and
/// returns the answers as `(id, ip bits)`.
fn check(
    idx: &ShardedProMips,
    model: &Model,
    queries: &[Vec<f32>],
    label: &str,
) -> Vec<Vec<(u64, u64)>> {
    let scratch = ShardedScratch::for_index(idx);
    let live = model.live.len();
    assert_eq!(idx.len() as usize, live, "{label}: live count");
    let mut answers = Vec::new();
    for q in queries {
        for k in [1, 5, live + 3] {
            let request = ShardedQuery {
                serial: true,
                traced: true,
                ..ShardedQuery::new(q, k)
            };
            let (res, trace) = idx.execute(request, &scratch).unwrap();
            let got: Vec<(u64, u64)> = res
                .items
                .iter()
                .map(|it| (it.id, it.ip.to_bits()))
                .collect();
            assert_eq!(got.len(), k.min(live), "{label}: k = {k} clamps to live");
            let ids: BTreeSet<u64> = got.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids.len(), got.len(), "{label}: duplicate id");
            assert!(ids.is_subset(&model.live), "{label}: a dead id answered");
            for &(id, bits) in &got {
                let want = dot(q, &model.rows[&id]).to_bits();
                assert_eq!(bits, want, "{label}: id {id} ip is not its dot");
            }
            let column =
                trace.unwrap().shards.iter().all(|span| {
                    span.pruned || span.column_pass || idx.shards()[span.shard].is_exact()
                });
            if column {
                assert_eq!(got, model.top_k(q, k), "{label}: k = {k}");
            }
            answers.push(got);
        }
    }
    answers
}

/// Each shard's committed count as the manifest records it (format
/// version 7: 24 header words, the head-basis flag word and the basis if it
/// is 1 — `h: u32`, `δ: f32`, `h·d: u32` and the `h·d` floats — then per
/// shard count, norm bound, generation and the count's ids, and a CRC32).
fn manifest_counts(dir: &Path) -> Vec<u64> {
    let buf = std::fs::read(dir.join("MANIFEST.pms")).unwrap();
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    assert_eq!(word(8), 7, "manifest version");
    let mut pos = 24 * 8 + 8;
    if word(pos - 8) == 1 {
        let len = u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().unwrap());
        pos += 12 + 4 * len as usize;
    }
    (0..word(2 * 8))
        .map(|_| {
            let count = word(pos);
            pos += 24 + 8 * count as usize;
            count
        })
        .collect()
}

/// The page files of shard `si` present in `dir`.
fn shard_files(dir: &Path, si: usize) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&format!("shard_{si:04}.")) && name.ends_with(".pmx"))
        .collect()
}

fn lifecycle(d: usize, shard_rows: usize) {
    let label = format!("d = {d}, {shard_rows} rows a shard");
    let mut rng = Xoshiro256pp::seed_from_u64((d * 1_000 + shard_rows) as u64);
    let mut model = Model::default();
    let base: Vec<Vec<f32>> = (0..SHARDS * shard_rows)
        .map(|_| gaussian(&mut rng, d))
        .collect();
    for (i, row) in base.iter().enumerate() {
        model.rows.insert(i as u64, row.clone());
        model.live.insert(i as u64);
    }
    let config = ShardedConfig::builder()
        .shards(SHARDS)
        .wal_sync(SyncPolicy::Never)
        .base(ProMipsConfig::builder().seed(d as u64 ^ 0x5A11).build())
        .build();
    let dir = temp_dir(&format!("{d}-{shard_rows}"));
    let idx = ShardedProMips::build_in_dir(&Matrix::from_rows(d, base), config, &dir).unwrap();
    assert!(idx.shards().iter().all(|s| !s.is_exact()), "{label}");
    let queries: Vec<Vec<f32>> = (0..4).map(|_| gaussian(&mut rng, d)).collect();
    check(&idx, &model, &queries, &format!("{label}, built"));

    // Empty the lowest-norm shard: compaction leaves it no index, no file
    // and a manifest count of 0.
    for gid in idx.shards()[0].global_ids() {
        idx.delete(gid).unwrap();
        model.live.remove(&gid);
    }
    check(&idx, &model, &queries, &format!("{label}, deleted"));
    idx.compact_all().unwrap();
    let emptied = &idx.shards()[0];
    assert!(emptied.is_exact() && emptied.is_empty(), "{label}");
    assert_eq!(emptied.max_norm(), 0.0, "{label}");
    assert_eq!(shard_files(&dir, 0), Vec::<String>::new(), "{label}");
    assert_eq!(manifest_counts(&dir)[0], 0, "{label}");
    check(&idx, &model, &queries, &format!("{label}, emptied"));

    // Refill: fresh rows land in the other shards; a zero row is the one
    // row the emptied shard's bound of 0 covers.
    for _ in 0..shard_rows {
        model.insert(&idx, gaussian(&mut rng, d));
    }
    model.insert(&idx, vec![0.0; d]);
    assert_eq!(idx.shards()[0].delta_len(), 1, "{label}");
    check(&idx, &model, &queries, &format!("{label}, inserted"));
    idx.compact_all().unwrap();
    assert!(!idx.shards()[0].is_exact(), "{label}: rows came back");
    assert_eq!(manifest_counts(&dir)[0], 1, "{label}");
    assert_eq!(shard_files(&dir, 0).len(), 1, "{label}");
    let before = check(&idx, &model, &queries, &format!("{label}, refilled"));

    drop(idx);
    let idx = ShardedProMips::open(&dir).unwrap();
    let after = check(&idx, &model, &queries, &format!("{label}, reopened"));
    assert_eq!(before, after, "{label}: reopen changed a result");
    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn small_shards_live_through_delete_compact_insert_and_reopen() {
    let sizes: Vec<usize> = if std::env::var_os("PROMIPS_STRESS").is_some() {
        (1..=130).step_by(3).collect()
    } else {
        vec![1, 2, 7, 33, 64, 130]
    };
    for d in [1, 8, 70] {
        for &shard_rows in &sizes {
            lifecycle(d, shard_rows);
        }
    }
}
