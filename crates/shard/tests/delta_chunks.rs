//! The delta as a column, held to an exhaustive reference: a sharded
//! search returns the exact top-k over the live rows — ids and `ip` bits —
//! whatever the delta holds. The cases cover sealed chunks plus an open
//! tail, tombstones in both, a chunk of one constant row repeated (the
//! quantizer's degenerate `scale = 1.0`), one huge-norm row, exact ties at
//! the k-th, `k` past the live count, and all of it again after `open`
//! replays the WAL; a second test lands inserts between a compaction's
//! freeze and its commit, a third refuses non-finite rows at every entry
//! point, and a fourth holds low-rank rows — an index with a head basis,
//! whose sealed chunks are coded under it — and rows far off its span to
//! the same reference through a compaction, a repartition and a reopen.
//! `PROMIPS_STRESS=1` runs more cases.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use std::path::Path;
use std::sync::Arc;

use promips_core::{MutationError, ProMips, ProMipsConfig};
use promips_data::gen::low_rank;
use promips_idistance::HeadBasis;
use promips_linalg::{dot, Matrix};
use promips_shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch, SyncPolicy};
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, Pager};
use promips_wal::{Wal, WalRecord};
use proptest::prelude::*;

/// Rows in a sealed chunk (`CHUNK_ROWS` in `crates/shard/src/index.rs`):
/// what the constant run below must span twice to fill one chunk alone.
const CHUNK_ROWS: usize = 64;

fn stress() -> bool {
    std::env::var_os("PROMIPS_STRESS").is_some()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-delta-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gaussian(rng: &mut Xoshiro256pp, d: usize, scale: f64) -> Vec<f32> {
    (0..d).map(|_| (rng.normal() * scale) as f32).collect()
}

/// What the index should hold: every row ever stored by id (a tombstoned
/// row stays in its generation until a compaction), and the live ids.
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

    /// Deletes the `pick`-th live id.
    fn delete(&mut self, idx: &ShardedProMips, pick: u64) {
        if self.live.is_empty() {
            return;
        }
        let gid = *self
            .live
            .iter()
            .nth(pick as usize % self.live.len())
            .unwrap();
        idx.delete(gid).unwrap();
        self.live.remove(&gid);
    }

    /// The exact top-k over the live rows, each scored by the single-row
    /// `dot` the column pass and the overlay score it with, ranked like the
    /// merge: ip descending, ties to the smaller id. Also checks that the
    /// shards store exactly the model's rows.
    fn top_k(&self, idx: &ShardedProMips, q: &[f32], k: usize) -> Vec<(u64, u64)> {
        let mut scored: Vec<(u64, f64)> = Vec::new();
        let mut stored = BTreeSet::new();
        for shard in idx.shards() {
            stored.extend(shard.global_ids());
        }
        scored.extend(stored.iter().map(|id| (*id, dot(q, &self.rows[id]))));
        assert!(self.live.is_subset(&stored), "a live row is stored nowhere");
        scored.retain(|(id, ip)| self.live.contains(id) && !ip.is_nan());
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(id, ip)| (id, ip.to_bits()))
            .collect()
    }
}

/// Asserts the search equals the reference, unless a shard's index
/// answered by the annulus path (approximate by design; i.i.d. Gaussian
/// generations almost always take the exact column pass). Returns whether
/// the query was compared.
fn assert_exact(idx: &ShardedProMips, model: &Model, q: &[f32], k: usize, label: &str) -> bool {
    let scratch = ShardedScratch::for_index(idx);
    let request = ShardedQuery {
        serial: true,
        traced: true,
        ..ShardedQuery::new(q, k)
    };
    let (res, trace) = idx.execute(request, &scratch).unwrap();
    let approximate = trace
        .unwrap()
        .shards
        .iter()
        .any(|span| !span.pruned && !span.column_pass && !idx.shards()[span.shard].is_exact());
    if approximate {
        return false;
    }
    let got: Vec<(u64, u64)> = res
        .items
        .iter()
        .map(|it| (it.id, it.ip.to_bits()))
        .collect();
    assert_eq!(got, model.top_k(idx, q, k), "{label}: k = {k}");
    true
}

/// One scripted case, decoded from the proptest inputs.
#[derive(Debug, Clone)]
struct Case {
    d: usize,
    shards: usize,
    base: usize,
    inserts: usize,
    deletes: usize,
    constant_run: bool,
    huge_row: bool,
    ties: usize,
    compact_midway: bool,
    seed: u64,
}

fn run_case(c: &Case) {
    let mut rng = Xoshiro256pp::seed_from_u64(c.seed);
    let d = c.d;
    // The tie vector: long enough to win against most rows, so its copies
    // fill the top of a query aimed at it and tie at the k-th.
    let winner = gaussian(&mut rng, d, 3.0);
    let mut model = Model::default();
    let base_rows: Vec<Vec<f32>> = (0..c.base)
        .map(|i| {
            if c.ties > 0 && i % 97 == 5 {
                winner.clone()
            } else {
                gaussian(&mut rng, d, 1.0)
            }
        })
        .collect();
    for (i, row) in base_rows.iter().enumerate() {
        model.rows.insert(i as u64, row.clone());
        model.live.insert(i as u64);
    }
    let config = ShardedConfig::builder()
        .shards(c.shards)
        .wal_sync(SyncPolicy::Never)
        .base(ProMipsConfig::builder().seed(c.seed ^ 0xB0).build())
        .build();
    let dir = temp_dir(&format!("case-{}", c.seed));
    let idx = ShardedProMips::build_in_dir(
        &Matrix::from_rows(d, base_rows.iter().cloned()),
        config,
        &dir,
    )
    .unwrap();

    // Appends: Gaussian rows with the tie copies spread through them (so
    // they land in sealed chunks and in the tail), a constant run filling
    // at least one chunk alone, one huge-norm row.
    let appends = |idx: &ShardedProMips, model: &mut Model, rng: &mut Xoshiro256pp, n: usize| {
        let every = (n / (c.ties + 1)).max(1);
        for i in 0..n {
            let row = if c.ties > 0 && i % every == every / 2 {
                winner.clone()
            } else {
                gaussian(rng, d, 1.0)
            };
            model.insert(idx, row);
            if c.constant_run && i == n / 3 {
                for _ in 0..2 * CHUNK_ROWS {
                    model.insert(idx, vec![0.75; d]);
                }
            }
            if c.huge_row && i == n / 2 {
                model.insert(idx, gaussian(rng, d, 1e3));
            }
        }
    };
    appends(&idx, &mut model, &mut rng, c.inserts);
    for _ in 0..c.deletes {
        model.delete(&idx, rng.next_u64());
    }
    if c.compact_midway {
        idx.compact_all().unwrap();
        appends(&idx, &mut model, &mut rng, c.inserts / 2 + 1);
        for _ in 0..c.deletes / 2 {
            model.delete(&idx, rng.next_u64());
        }
    }

    let live = model.live.len();
    let mut queries: Vec<Vec<f32>> = (0..4).map(|_| gaussian(&mut rng, d, 1.0)).collect();
    queries.push(winner.clone());
    let ks = [1, 7, c.ties.max(1), live + 3];
    let mut compared = 0;
    let mut before = Vec::new();
    for q in &queries {
        for &k in &ks {
            compared += usize::from(assert_exact(&idx, &model, q, k, "live"));
            before.push(idx.search(q, k).unwrap().items);
        }
    }
    assert!(compared > 0, "every query took the annulus path");

    // Reopen: the WAL replays the delta into the same chunks and tail.
    drop(idx);
    let idx = ShardedProMips::open(&dir).unwrap();
    let mut after = Vec::new();
    for q in &queries {
        for &k in &ks {
            assert_exact(&idx, &model, q, k, "reopened");
            after.push(idx.search(q, k).unwrap().items);
        }
    }
    assert_eq!(before, after, "reopen changed a result");
    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if stress() { 64 } else { 12 }))]

    #[test]
    fn sharded_search_is_the_exhaustive_top_k_over_live_rows(
        d in 3usize..24,
        shards in 1usize..4,
        base in 40usize..400,
        inserts in 0usize..(4 * CHUNK_ROWS),
        deletes in 0usize..60,
        flags in 0u8..16,
        ties in 0usize..14,
        seed in 0u64..u64::MAX,
    ) {
        run_case(&Case {
            d,
            shards,
            base,
            inserts,
            deletes,
            constant_run: flags & 1 != 0,
            huge_row: flags & 2 != 0,
            ties,
            compact_midway: flags & 4 != 0,
            seed,
        });
    }
}

/// Inserts racing a compaction: those that land after its freeze stay in
/// the delta, re-sealed at the commit and rewritten into the WAL from the
/// slabs. Whatever the interleaving, every search equals the reference,
/// before and after `open`; attempts repeat until some insert is seen to
/// land inside the window (applied before the generation swap, left out of
/// the new generation).
#[test]
fn inserts_between_a_compactions_freeze_and_commit_stay_in_the_delta() {
    let d = 12;
    let attempts = if stress() { 16 } else { 4 };
    for attempt in 0..attempts {
        let mut rng = Xoshiro256pp::seed_from_u64(0x00F2_EE2E + attempt);
        let mut model = Model::default();
        let base: Vec<Vec<f32>> = (0..3_000).map(|_| gaussian(&mut rng, d, 1.0)).collect();
        for (i, row) in base.iter().enumerate() {
            model.rows.insert(i as u64, row.clone());
            model.live.insert(i as u64);
        }
        let dir = temp_dir(&format!("race-{attempt}"));
        let config = ShardedConfig::builder()
            .shards(1)
            .wal_sync(SyncPolicy::Never)
            .build();
        let idx = ShardedProMips::build_in_dir(&Matrix::from_rows(d, base), config, &dir).unwrap();
        for _ in 0..3 * CHUNK_ROWS + 9 {
            model.insert(&idx, gaussian(&mut rng, d, 1.0));
        }
        for _ in 0..40 {
            model.delete(&idx, rng.next_u64());
        }
        let shard = &idx.shards()[0];
        let generation = || idx.maintenance_stats()[0].generation;
        let old_generation = generation();
        // (gid, whether the generation was still the old one once applied)
        let mut raced: Vec<(u64, bool)> = Vec::new();
        std::thread::scope(|s| {
            let compaction = s.spawn(|| idx.compact_all().unwrap());
            while !compaction.is_finished() {
                let row = gaussian(&mut rng, d, 1.0);
                let gid = idx.insert(&row).unwrap();
                raced.push((gid, generation() == old_generation));
                model.rows.insert(gid, row);
                model.live.insert(gid);
            }
            compaction.join().unwrap();
        });
        let ids = shard.global_ids();
        let committed: BTreeSet<u64> = ids[..ids.len() - shard.delta_len()]
            .iter()
            .copied()
            .collect();
        let in_window = raced
            .iter()
            .any(|&(gid, before_swap)| before_swap && !committed.contains(&gid));

        let queries: Vec<Vec<f32>> = (0..6).map(|_| gaussian(&mut rng, d, 1.0)).collect();
        for q in &queries {
            for k in [1, 10, 50] {
                assert_exact(&idx, &model, q, k, "after the race");
            }
        }
        drop(idx);
        let idx = ShardedProMips::open(&dir).unwrap();
        for q in &queries {
            for k in [1, 10, 50] {
                assert_exact(&idx, &model, q, k, "reopened after the race");
            }
        }
        drop(idx);
        let _ = std::fs::remove_dir_all(&dir);
        if in_window {
            return;
        }
    }
    eprintln!("no insert landed between the freeze and the commit in {attempts} attempts");
}

/// A row with a NaN or infinite coordinate is refused at every entry point:
/// a compaction building an index over one would rank it first with a NaN
/// `ip` and push true hits out. `insert` and `insert_batch` refuse it with a
/// typed `InvalidInput` before logging anything (no id burned, `len()`
/// unchanged, a batch holding one writes nothing), WAL replay reads such a
/// record as corruption, and every build refuses such a row — a
/// `build_in_dir` aimed at another durable index's directory before it
/// creates, rewrites or removes any file there, so that index reopens with
/// the same answers; the answers stay exact through the delta and the
/// compaction.
#[test]
fn a_non_finite_row_is_refused_before_the_wal_and_the_index() {
    let d = 8;
    let mut rng = Xoshiro256pp::seed_from_u64(0x00BA_D0F5);
    let mut model = Model::default();
    let base: Vec<Vec<f32>> = (0..2_000).map(|_| gaussian(&mut rng, d, 1.0)).collect();
    for (i, row) in base.iter().enumerate() {
        model.rows.insert(i as u64, row.clone());
        model.live.insert(i as u64);
    }
    let data = Matrix::from_rows(d, base);
    let config = ShardedConfig::builder().shards(2).build();
    let dir = temp_dir("non-finite");
    let idx = ShardedProMips::build_in_dir(&data, config.clone(), &dir).unwrap();
    for _ in 0..150 {
        model.insert(&idx, gaussian(&mut rng, d, 1.0));
    }
    let state = |idx: &ShardedProMips| {
        let wal: u64 = (0..idx.shard_count()).map(|si| idx.wal_bytes(si)).sum();
        (wal, idx.len(), idx.next_global_id())
    };
    let before = state(&idx);

    // A second durable index, WALs included, in the directory a poisoned
    // build is aimed at.
    let mut target_rng = Xoshiro256pp::seed_from_u64(0x7A46_E7D1);
    let target_dir = temp_dir("non-finite-target");
    let target_config = ShardedConfig::builder().shards(3).build();
    let target = ShardedProMips::build_in_dir(&data, target_config, &target_dir).unwrap();
    for _ in 0..20 {
        target.insert(&gaussian(&mut target_rng, d, 1.0)).unwrap();
    }
    target.delete(7).unwrap();
    let files = |dir: &Path| -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    };
    let probes: Vec<Vec<f32>> = (0..10).map(|_| gaussian(&mut target_rng, d, 1.0)).collect();
    let answers = |idx: &ShardedProMips| {
        let scratch = ShardedScratch::for_index(idx);
        probes
            .iter()
            .map(|q| idx.execute(ShardedQuery::new(q, 10), &scratch).unwrap().0)
            .collect::<Vec<_>>()
    };
    let target_files = files(&target_dir);
    let target_answers = answers(&target);

    fn refused<T>(res: Result<T, MutationError>) {
        match res {
            Err(MutationError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            Ok(_) => panic!("a non-finite row was accepted"),
            Err(e) => panic!("wrong refusal: {e}"),
        }
    }
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut row = gaussian(&mut rng, d, 1.0);
        row[3] = bad;
        refused(idx.insert(&row));
        let good = gaussian(&mut rng, d, 1.0);
        refused(idx.insert_batch([&good[..], &row[..], &good[..]]));
        assert_eq!(state(&idx), before, "{bad}: a refused row left a trace");

        let mut rows = data.clone().into_vec();
        rows[5 * d + 1] = bad;
        let poisoned = Matrix::from_vec(data.rows(), d, rows);
        let invalid = Some(std::io::ErrorKind::InvalidInput);
        let single = ProMips::build_in_memory(&poisoned, config.base.clone());
        assert_eq!(single.err().map(|e| e.kind()), invalid);
        let sharded = ShardedProMips::build_in_memory(&poisoned, config.clone());
        assert_eq!(sharded.err().map(|e| e.kind()), invalid);
        let aimed = ShardedProMips::build_in_dir(&poisoned, config.clone(), &target_dir);
        assert_eq!(aimed.err().map(|e| e.kind()), invalid);
        assert!(
            files(&target_dir) == target_files,
            "{bad}: a refused build changed a file of the index in its directory"
        );
    }
    drop(target);
    let target = ShardedProMips::open(&target_dir).unwrap();
    assert_eq!(
        answers(&target),
        target_answers,
        "the target index reopened"
    );
    drop(target);
    let _ = std::fs::remove_dir_all(&target_dir);
    for _ in 0..150 {
        model.insert(&idx, gaussian(&mut rng, d, 1.0));
    }
    let queries: Vec<Vec<f32>> = (0..40).map(|_| gaussian(&mut rng, d, 1.0)).collect();
    let check = |idx: &ShardedProMips, label: &str| {
        let compared = queries
            .iter()
            .filter(|q| assert_exact(idx, &model, q, 10, label))
            .count();
        assert!(compared > 0, "{label}: every query took the annulus path");
    };
    check(&idx, "delta");
    idx.compact_all().unwrap();
    check(&idx, "compacted");
    drop(idx);

    // A logged non-finite insert can only be corruption: replay refuses it.
    let mut wal = Wal::open_streaming(dir.join("shard_0001.wal"), d, SyncPolicy::default(), |_| {
        Ok(())
    })
    .unwrap();
    let mut row = vec![0.5f32; d];
    row[0] = f32::NAN;
    wal.append(&WalRecord::Insert {
        id: 1 << 40,
        vector: row,
    })
    .unwrap();
    drop(wal);
    let err = ShardedProMips::open(&dir).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that the index and every generation it holds carry `basis` bit
/// for bit: each shard's live data file, opened on its own, is coded under
/// it.
fn assert_one_basis(idx: &ShardedProMips, dir: &Path, basis: &HeadBasis, label: &str) {
    assert_eq!(idx.head_basis(), Some(basis), "{label}: the index's basis");
    let page_size = idx.config().base.page_size;
    for (si, stats) in idx.maintenance_stats().iter().enumerate() {
        if idx.shards()[si].is_exact() {
            continue;
        }
        let name = match stats.generation {
            0 => format!("shard_{si:04}.pmx"),
            g => format!("shard_{si:04}.g{g}.pmx"),
        };
        let storage = Arc::new(FileStorage::open(dir.join(name), page_size).unwrap());
        let pager = Arc::new(Pager::new(storage, 64, AccessStats::new_shared()));
        let shard = ProMips::open(pager).unwrap();
        assert_eq!(shard.idistance().head(), Some(basis), "{label}: shard {si}");
    }
}

/// Low-rank rows give the index a 64-byte head, estimated once from all
/// of them, and every chunk the delta seals is coded under it: the chunk
/// screen then leans on the tail bound for the rows inserted far off the
/// basis's span, which queries aimed at those rows make the winners. Every
/// answer equals the exhaustive reference — with the delta live, after
/// `compact_all`, after `repartition` and after a reopen whose WAL replay
/// seals its chunks under the manifest's basis — and after each step every
/// generation carries the index's basis bit for bit.
#[test]
fn head_coded_chunks_stay_exact_through_compaction_repartition_and_reopen() {
    let (d, base, shards) = (160usize, 1_500usize, 3usize);
    let mut rng = Xoshiro256pp::seed_from_u64(0x4EAD_C0DE);
    // One span for the built rows and the on-span inserts.
    let on_span = low_rank(base + 600, d, 20, 0.0, 0x4EAD);
    let mut model = Model::default();
    for i in 0..base {
        model.rows.insert(i as u64, on_span.row(i).to_vec());
        model.live.insert(i as u64);
    }
    let dir = temp_dir("head-chunks");
    let config = ShardedConfig::builder()
        .shards(shards)
        .wal_sync(SyncPolicy::Never)
        .build();
    let built = Matrix::from_vec(base, d, on_span.as_slice()[..base * d].to_vec());
    let idx = ShardedProMips::build_in_dir(&built, config, &dir).unwrap();
    let basis = idx.head_basis().expect("low-rank rows have a head").clone();
    assert_eq!(basis.width(), 64);
    assert_one_basis(&idx, &dir, &basis, "built");

    // Every fifth insert is an isotropic row about as long as the rest:
    // most of it lies outside the span, in what the chunk's `tail` bounds.
    let mut next_on_span = base;
    let mut off_span: Vec<Vec<f32>> = Vec::new();
    let mut appends =
        |idx: &ShardedProMips, model: &mut Model, rng: &mut Xoshiro256pp, n: usize| {
            for i in 0..n {
                let row = if i % 5 == 2 {
                    let row = gaussian(rng, d, 4.0);
                    off_span.push(row.clone());
                    row
                } else {
                    next_on_span += 1;
                    on_span.row(next_on_span - 1).to_vec()
                };
                model.insert(idx, row);
            }
            off_span.clone()
        };
    let queries = |rng: &mut Xoshiro256pp, off_span: &[Vec<f32>]| {
        let mut qs: Vec<Vec<f32>> = (0..3)
            .map(|_| {
                let row = on_span.row(rng.below(base as u64) as usize);
                row.iter().map(|x| x + 0.1 * rng.normal() as f32).collect()
            })
            .collect();
        qs.extend(off_span.iter().rev().take(3).cloned());
        qs.push(gaussian(rng, d, 1.0));
        qs
    };
    let mut compared = 0;
    let mut check = |idx: &ShardedProMips, model: &Model, qs: &[Vec<f32>], label: &str| {
        for q in qs {
            for k in [1, 10] {
                compared += usize::from(assert_exact(idx, model, q, k, label));
            }
        }
    };

    let off = appends(&idx, &mut model, &mut rng, 5 * CHUNK_ROWS + 9);
    for _ in 0..30 {
        model.delete(&idx, rng.next_u64());
    }
    let qs = queries(&mut rng, &off);
    check(&idx, &model, &qs, "live delta");

    idx.compact_all().unwrap();
    assert_one_basis(&idx, &dir, &basis, "compacted");
    check(&idx, &model, &qs, "compacted");
    let off = appends(&idx, &mut model, &mut rng, 2 * CHUNK_ROWS + 5);
    let qs = queries(&mut rng, &off);
    check(&idx, &model, &qs, "delta over a compaction");

    idx.repartition().unwrap();
    assert_one_basis(&idx, &dir, &basis, "repartitioned");
    check(&idx, &model, &qs, "repartitioned");
    let off = appends(&idx, &mut model, &mut rng, 3 * CHUNK_ROWS + 1);
    for _ in 0..20 {
        model.delete(&idx, rng.next_u64());
    }
    let qs = queries(&mut rng, &off);
    check(&idx, &model, &qs, "delta over a repartition");
    let before: Vec<_> = qs
        .iter()
        .map(|q| idx.search(q, 10).unwrap().items)
        .collect();

    drop(idx);
    let idx = ShardedProMips::open(&dir).unwrap();
    assert!(idx.shards().iter().any(|s| s.delta_len() >= CHUNK_ROWS));
    assert_one_basis(&idx, &dir, &basis, "reopened");
    check(&idx, &model, &qs, "reopened");
    let after: Vec<_> = qs
        .iter()
        .map(|q| idx.search(q, 10).unwrap().items)
        .collect();
    assert_eq!(before, after, "reopen changed a result");
    assert!(compared > 0, "every query took the annulus path");
    drop(idx);
    let _ = std::fs::remove_dir_all(&dir);
}
