//! Sharded persistence: snapshot a `ShardedProMips` to a directory, reload
//! it, and require bit-identical behaviour — top-k items, per-shard point
//! counts, and the 1-shard configuration's equivalence to the plain
//! unsharded index.

use promips_core::{ProMips, ProMipsConfig};
use promips_linalg::Matrix;
use promips_shard::{
    ShardMaintenance, ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch,
    ShardedSearchResult,
};
use promips_stats::Xoshiro256pp;

mod common;
use common::{span_counts, SpanCounts};

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

/// Rewrites the manifest's trailing CRC32 over the bytes before it, so a
/// deliberately edited word reaches the decoder behind the checksum.
fn reseal(manifest: &mut [u8]) {
    let (body, crc) = manifest.split_at_mut(manifest.len() - 4);
    crc.copy_from_slice(&promips_wal::crc32(body).to_le_bytes());
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each shard's maintenance ledger, its age (a clock reading) left out.
fn ledger(idx: &ShardedProMips) -> Vec<ShardMaintenance> {
    let mut stats = idx.maintenance_stats();
    for s in &mut stats {
        s.generation_age_ns = 0;
    }
    stats
}

/// A traced top-10 search: the answer and each span's counts.
fn traced(idx: &ShardedProMips, q: &[f32]) -> (ShardedSearchResult, Vec<SpanCounts>) {
    let request = ShardedQuery {
        traced: true,
        ..ShardedQuery::new(q, 10)
    };
    let (res, trace) = idx
        .execute(request, &ShardedScratch::for_index(idx))
        .unwrap();
    (res, span_counts(&trace.unwrap()))
}

#[test]
fn snapshot_reload_is_bit_identical() {
    let dir = temp_dir("roundtrip");
    let data = random_data(1100, 18, 7);
    let cfg = ShardedConfig::builder()
        .shards(4)
        .base(ProMipsConfig::builder().c(0.9).p(0.5).seed(21).build())
        .build();
    let built = ShardedProMips::build_in_memory(&data, cfg).unwrap();
    built.snapshot(&dir).unwrap();

    let queries = random_queries(10, 18, 11);
    let before: Vec<_> = queries.iter().map(|q| traced(&built, q)).collect();
    let points_before = built.shard_points();
    let ledger_before = ledger(&built);
    drop(built);

    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), 1100);
    assert_eq!(reopened.shard_count(), 4);
    assert_eq!(reopened.shard_points(), points_before);
    assert_eq!(ledger(&reopened), ledger_before);

    for (q, b) in queries.iter().zip(&before) {
        assert_eq!(
            &traced(&reopened, q),
            b,
            "reloaded search must be bit-identical"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn build_in_dir_equals_in_memory_build_and_reopens() {
    let dir = temp_dir("build-in-dir");
    let data = random_data(900, 14, 17);
    let cfg = ShardedConfig::builder()
        .shards(3)
        .base(ProMipsConfig::builder().seed(5).build())
        .build();
    let mem = ShardedProMips::build_in_memory(&data, cfg.clone()).unwrap();
    let disk = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();

    let queries = random_queries(8, 14, 19);
    for q in &queries {
        let a = mem.search(q, 7).unwrap();
        let b = disk.search(q, 7).unwrap();
        assert_eq!(a.items, b.items, "storage backend must not change results");
    }
    drop(disk);

    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.shard_points(), mem.shard_points());
    for q in &queries {
        let a = mem.search(q, 7).unwrap();
        let b = reopened.search(q, 7).unwrap();
        assert_eq!(a.items, b.items);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_shard_snapshot_matches_unsharded_index() {
    // The compatibility pin: a persisted-and-reloaded 1-shard sharded index
    // must agree item-for-item with the plain ProMips built from the same
    // base config over the same data.
    let dir = temp_dir("one-shard");
    let data = random_data(800, 16, 29);
    let base = ProMipsConfig::builder().c(0.85).p(0.6).seed(77).build();
    let unsharded = ProMips::build_in_memory(&data, base.clone()).unwrap();
    let sharded = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder().shards(1).base(base).build(),
    )
    .unwrap();
    assert_eq!(sharded.shard_points(), vec![800]);
    sharded.snapshot(&dir).unwrap();
    drop(sharded);

    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.shard_points(), vec![800]);
    for q in random_queries(10, 16, 31) {
        let a = unsharded.search(&q, 9).unwrap();
        let b = reopened.search(&q, 9).unwrap();
        assert_eq!(a.items, b.items, "1-shard reload must equal unsharded");
        assert_eq!(a.verified, b.verified);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same pin where the rows have a head: the sharded index estimates its
/// one basis from all rows with the base seed, which for one shard is what
/// the unsharded build estimates, so the basis, the answers and the counts
/// agree bit for bit — built, and snapshotted and reopened. Rows off the
/// basis's span ride along, so the tail bound is exercised too.
#[test]
fn one_shard_head_index_matches_unsharded_index() {
    let dir = temp_dir("one-shard-head");
    let (n, d) = (1_200usize, 160usize);
    let mut data = promips_data::gen::low_rank(n, d, 20, 0.0, 33);
    let mut rng = Xoshiro256pp::seed_from_u64(34);
    for i in (7..n).step_by(40) {
        for x in data.row_mut(i) {
            *x += 2.0 * rng.normal() as f32;
        }
    }
    let base = ProMipsConfig::builder().seed(35).build();
    let unsharded = ProMips::build_in_memory(&data, base.clone()).unwrap();
    let sharded = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder().shards(1).base(base).build(),
    )
    .unwrap();
    let basis = unsharded.idistance().head();
    assert!(basis.is_some_and(|b| b.width() == 64));
    assert_eq!(sharded.head_basis(), basis);
    let mut queries = random_queries(8, d, 36);
    queries.push(data.row(7).to_vec());
    let check = |idx: &ShardedProMips, label: &str| {
        for q in &queries {
            let a = unsharded.search(q, 9).unwrap();
            let b = idx.search(q, 9).unwrap();
            assert_eq!(a.items, b.items, "{label}");
            assert_eq!(
                (a.verified, a.screened),
                (b.verified, b.screened),
                "{label}"
            );
        }
    };
    check(&sharded, "built");
    sharded.snapshot(&dir).unwrap();
    drop(sharded);
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.head_basis(), basis);
    check(&reopened, "reopened");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A manifest whose basis is not the one its shard files are coded under
/// is refused at open: one basis float changed in the manifest (its
/// version-6 layout: 28 header words, the partitioner name, the flag word,
/// then `h`, `δ`, `h·d` and the floats) is `InvalidData`.
#[test]
fn open_rejects_a_shard_coded_under_another_basis() {
    let dir = temp_dir("other-basis");
    let data = promips_data::gen::low_rank(900, 160, 20, 0.0, 37);
    let built =
        ShardedProMips::build_in_dir(&data, ShardedConfig::builder().shards(2).build(), &dir)
            .unwrap();
    assert!(built.head_basis().is_some());
    drop(built);
    let path = dir.join("MANIFEST.pms");
    let mut manifest = std::fs::read(&path).unwrap();
    let word = |buf: &[u8], at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    let flag_at = 24 * 8;
    assert_eq!(word(&manifest, flag_at), 1, "the manifest records a basis");
    let first_float = flag_at + 8 + 12;
    manifest[first_float] ^= 1;
    reseal(&mut manifest);
    std::fs::write(&path, &manifest).unwrap();
    let err = match ShardedProMips::open(&dir) {
        Ok(_) => panic!("a manifest of another basis was accepted"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("another head basis"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot into a durable index's own directory would truncate the
/// generation-0 shard files it copies from: it is `InvalidInput` however
/// the directory is spelled, refused before any file is touched, and the
/// directory still opens with the same answers.
#[test]
fn a_snapshot_into_the_index_own_directory_is_refused() {
    let dir = temp_dir("own-dir");
    let data = random_data(600, 8, 39);
    let built =
        ShardedProMips::build_in_dir(&data, ShardedConfig::builder().shards(2).build(), &dir)
            .unwrap();
    let queries = random_queries(6, 8, 40);
    let before: Vec<_> = queries
        .iter()
        .map(|q| built.search(q, 5).unwrap())
        .collect();
    let files = |dir: &std::path::Path| {
        let mut listing: Vec<(String, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    e.metadata().unwrap().len(),
                )
            })
            .collect();
        listing.sort();
        listing
    };
    let listing = files(&dir);
    for target in [
        dir.clone(),
        dir.join("."),
        dir.join("..").join(dir.file_name().unwrap()),
    ] {
        let err = built.snapshot(&target).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{target:?}: {err}"
        );
        assert_eq!(files(&dir), listing, "{target:?}");
    }
    drop(built);
    let reopened = ShardedProMips::open(&dir).unwrap();
    for (q, b) in queries.iter().zip(&before) {
        assert_eq!(reopened.search(q, 5).unwrap().items, b.items);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_files_carry_the_quantized_column() {
    // Each shard's self-contained .pmx file must persist the SQ8
    // verification column: opened directly with `ProMips::open`, the shard
    // reports the tier active, and the reloaded sharded index keeps
    // returning bit-identical results.
    let dir = temp_dir("quantcol");
    let data = random_data(900, 16, 41);
    let cfg = ShardedConfig::builder()
        .shards(3)
        .base(ProMipsConfig::builder().c(0.9).p(0.5).seed(13).build())
        .build();
    let built = ShardedProMips::build_in_memory(&data, cfg).unwrap();
    built.snapshot(&dir).unwrap();

    for si in 0..3 {
        let path = dir.join(format!("shard_{si:04}.pmx"));
        let storage = std::sync::Arc::new(promips_storage::FileStorage::open(&path, 4096).unwrap());
        let pager = std::sync::Arc::new(promips_storage::Pager::new(
            storage,
            256,
            promips_storage::AccessStats::new_shared(),
        ));
        let shard = ProMips::open(pager).unwrap();
        assert_eq!(
            shard.idistance().vquants().len(),
            shard.idistance().subparts().len(),
            "shard {si} file lost the quantized column"
        );
        assert!(shard
            .idistance()
            .code_region()
            .is_some_and(|(_, len)| len > 0));
    }

    let queries = random_queries(6, 16, 43);
    let before: Vec<_> = queries
        .iter()
        .map(|q| built.search(q, 8).unwrap())
        .collect();
    drop(built);
    let reopened = ShardedProMips::open(&dir).unwrap();
    for (q, b) in queries.iter().zip(&before) {
        let a = reopened.search(q, 8).unwrap();
        assert_eq!(a.items, b.items);
        assert_eq!(a.verified, b.verified);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_does_not_inflate_read_stats_or_evict_cache() {
    // The page copy must go through the raw storage device, not the
    // pager: logical-read counters are the paper's Page Access metric and
    // must not move, and the query working set must stay cached.
    let dir = temp_dir("stats");
    let data = random_data(600, 12, 53);
    let built =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(2).build()).unwrap();
    let q = random_queries(1, 12, 57).pop().unwrap();
    built.reset_stats();
    let _ = built.search(&q, 5).unwrap();
    let before = built.access_stats();
    built.snapshot(&dir).unwrap();
    let after = built.access_stats();
    assert_eq!(
        after.logical_reads, before.logical_reads,
        "snapshot charged logical reads to the shard pagers"
    );
    assert_eq!(after.cache_misses, before.cache_misses);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_rejects_truncated_manifest() {
    // Every truncation point must surface as an error, never a panic.
    let dir = temp_dir("truncated");
    let data = random_data(200, 8, 59);
    let built =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(2).build()).unwrap();
    built.snapshot(&dir).unwrap();
    let manifest = std::fs::read(dir.join("MANIFEST.pms")).unwrap();
    for cut in [
        17,
        64,
        127,
        130,
        223,
        manifest.len() - 9,
        manifest.len() - 1,
    ] {
        std::fs::write(dir.join("MANIFEST.pms"), &manifest[..cut]).unwrap();
        assert!(
            ShardedProMips::open(&dir).is_err(),
            "truncation at {cut} bytes must error"
        );
    }
    // Restoring the full manifest restores openability.
    std::fs::write(dir.join("MANIFEST.pms"), &manifest).unwrap();
    assert!(ShardedProMips::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Snapshots a small 2-shard index of d = 8, overwrites manifest word
/// `word` (little-endian 8-byte words: magic, version, shards, d, points,
/// prune, c, p, m, …) with `value`, reseals the checksum, and returns what
/// `open` makes of it.
fn open_with_manifest_word(tag: &str, word: usize, value: u64) -> std::io::Error {
    let dir = temp_dir(tag);
    let data = random_data(200, 8, 61);
    let built =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(2).build()).unwrap();
    built.snapshot(&dir).unwrap();
    let path = dir.join("MANIFEST.pms");
    let mut manifest = std::fs::read(&path).unwrap();
    manifest[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
    reseal(&mut manifest);
    std::fs::write(&path, &manifest).unwrap();
    let err = match ShardedProMips::open(&dir) {
        Ok(_) => panic!("manifest word {word} = {value} was accepted"),
        Err(e) => e,
    };
    std::fs::remove_dir_all(&dir).unwrap();
    err
}

/// Version 2 (an exact-scan threshold word and a per-shard kind word, with
/// `.exact` row blobs beside the page files), version 3 (a cross-shard
/// floor word after `prune`), version 4 (no iDistance, compaction,
/// degradation or admission words), version 5 (no head basis: each
/// shard estimated its own) and version 6 (a partitioner tag and name,
/// degradation and admission words, no checksum) are no longer read.
#[test]
fn open_rejects_manifest_version_2() {
    for version in [2u64, 3, 4, 5, 6] {
        let err = open_with_manifest_word(&format!("v{version}"), 1, version);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string()
                .contains(&format!("unsupported manifest version {version}")),
            "{err}"
        );
    }
}

/// A header word outside the domain a build asserts is refused at open:
/// zero shards used to open and panic on the first insert, a `c`, `p` or
/// `m` no build accepts on the next compaction.
#[test]
fn open_rejects_a_header_outside_the_config_domain() {
    let cases = [
        ("shards0", 2, 0, "shards must be in"),
        ("shards-many", 2, 65_537, "shards must be in"),
        ("c1", 6, 1.0f64.to_bits(), "c must be in"),
        ("cnan", 6, f64::NAN.to_bits(), "c must be in"),
        ("p0", 7, 0.0f64.to_bits(), "p must be in"),
        ("m0", 8, 0, "m must be in"),
        ("m65", 8, 65, "m must be in"),
    ];
    for (tag, word, value, says) in cases {
        let err = open_with_manifest_word(tag, word, value);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        assert!(err.to_string().contains(says), "{tag}: {err}");
    }
}

/// A shard file of another dimensionality than the manifest's is refused
/// at open, not answered `Poisoned` by every query that reaches it.
#[test]
fn open_rejects_a_shard_of_another_dimensionality() {
    let err = open_with_manifest_word("d9", 3, 9);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("of d = 8, manifest says"), "{err}");
}

/// One flipped byte anywhere in the manifest — XOR 0xFF, 0x01 or 0x80,
/// checksum bytes included — is refused as `InvalidData`, never opened as
/// a different index (another id or norm bound) that then answers.
#[test]
fn open_rejects_every_flipped_manifest_byte() {
    let dir = temp_dir("flips");
    let data = random_data(200, 8, 63);
    drop(
        ShardedProMips::build_in_dir(&data, ShardedConfig::builder().shards(2).build(), &dir)
            .unwrap(),
    );
    let path = dir.join("MANIFEST.pms");
    let manifest = std::fs::read(&path).unwrap();
    for at in 0..manifest.len() {
        for mask in [0xFFu8, 0x01, 0x80] {
            let mut flipped = manifest.clone();
            flipped[at] ^= mask;
            std::fs::write(&path, &flipped).unwrap();
            match ShardedProMips::open(&dir) {
                Ok(_) => panic!("byte {at} ^ {mask:#04x} opened"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{at}: {e}"),
            }
        }
    }
    std::fs::write(&path, &manifest).unwrap();
    assert!(ShardedProMips::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard count of `u64::MAX` under a valid checksum is `InvalidData`,
/// not an overflow in the bound check on its ids (a panic in a debug
/// build, a `capacity overflow` panic in a release one). The count is the
/// word 24 bytes before shard 0's id list.
#[test]
fn open_rejects_a_wild_shard_count() {
    let dir = temp_dir("wild-count");
    let data = random_data(200, 8, 65);
    let built =
        ShardedProMips::build_in_dir(&data, ShardedConfig::builder().shards(2).build(), &dir)
            .unwrap();
    let ids: Vec<u8> = (built.shards()[0].global_ids().iter())
        .flat_map(|id| id.to_le_bytes())
        .collect();
    drop(built);
    let path = dir.join("MANIFEST.pms");
    let mut manifest = std::fs::read(&path).unwrap();
    let at = manifest.windows(ids.len()).position(|w| w == ids).unwrap() - 24;
    assert_eq!(manifest[at..at + 8], (ids.len() as u64 / 8).to_le_bytes());
    manifest[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut manifest);
    std::fs::write(&path, &manifest).unwrap();
    let err = match ShardedProMips::open(&dir) {
        Ok(_) => panic!("a shard count of u64::MAX was accepted"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_rejects_garbage_manifest() {
    let dir = temp_dir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("MANIFEST.pms"), b"not a manifest at all").unwrap();
    assert!(ShardedProMips::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_missing_dir_errors() {
    let dir = temp_dir("missing");
    assert!(ShardedProMips::open(&dir).is_err());
}

/// The manifest keeps the whole build config, so a reopened index searches
/// and compacts as the built one did: a `verify_quantize: false` index
/// reopens without the verification tier, and so does the generation its
/// first compaction builds — no query takes the column pass.
#[test]
fn reopen_keeps_the_build_config() {
    let dir = temp_dir("config");
    let idistance = promips_idistance::IDistanceConfig {
        kp: 3,
        nkey: 12,
        ksp: 4,
        kmeans_iters: 7,
        seed: 91,
        verify_quantize: false,
    };
    let cfg = ShardedConfig::builder()
        .shards(2)
        .prune(false)
        .wal_sync(promips_wal::SyncPolicy::EveryN(9))
        .compaction(promips_shard::CompactionPolicy {
            max_delta_fraction: 0.5,
            max_tombstone_fraction: 0.125,
            min_mutations: 3,
            repartition_skew: f64::INFINITY,
        })
        .base(
            ProMipsConfig::builder()
                .m(5)
                .idistance(idistance)
                .page_size(1024)
                .pool_pages(77)
                .seed(93)
                .build(),
        )
        .build();
    let data = random_data(800, 8, 95);
    drop(ShardedProMips::build_in_dir(&data, cfg.clone(), &dir).unwrap());
    let idx = ShardedProMips::open(&dir).unwrap();
    assert_eq!(format!("{:?}", idx.config()), format!("{cfg:?}"));

    let no_column_pass = |idx: &ShardedProMips| {
        let scratch = ShardedScratch::for_index(idx);
        for q in random_queries(20, 8, 97) {
            let traced = ShardedQuery {
                traced: true,
                ..ShardedQuery::new(&q, 10)
            };
            let (_, trace) = idx.execute(traced, &scratch).unwrap();
            assert!(trace.unwrap().shards.iter().all(|s| !s.column_pass));
        }
    };
    no_column_pass(&idx);
    for q in random_queries(40, 8, 99) {
        idx.insert(&q).unwrap();
    }
    assert!(!idx.compact_all().unwrap().is_empty());
    no_column_pass(&idx);
    drop(idx);
    let idx = ShardedProMips::open(&dir).unwrap();
    assert_eq!(format!("{:?}", idx.config()), format!("{cfg:?}"));
    no_column_pass(&idx);
    std::fs::remove_dir_all(&dir).unwrap();
}
