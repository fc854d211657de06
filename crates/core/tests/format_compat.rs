//! The one on-disk format, with and without the verification tier.
//!
//! The file's only code region is the SQ8 screen+rescore verification
//! tier's, optional at build time; a file records it absent as a sentinel
//! region. Both builds must round-trip through save/open with exactly
//! their tiers and answer like a fresh build. The verification
//! tier changes an answer in one way only: an index that has it answers a
//! query whose ball
//! covers most of its rows by the column pass — the exact top-k — where an
//! index without it runs the annulus path; on every other query both tiers
//! are bit-identical by construction and only the `screened`/`verified`
//! accounting differs.
//!
//! A verification tier whose codes are a head column carries its basis in
//! the directory: reopening restores the width, the basis and its defect
//! bit for bit, and a directory whose basis or code region has the wrong
//! length is refused, not trusted.
//!
//! What `save` appends — footer page and aux blob — is read the same way:
//! a length, a count or a magic the rest of the file does not back is
//! `InvalidData` from `ProMips::open` and from `ShardedProMips::open`. So
//! is a file of the format before this one, which also carried SQ8 codes of
//! the projected rows: its iDistance footer magics are refused, not
//! misread, under full-width codes and under a head.

mod common;

use std::sync::Arc;

use common::{clustered, oracle};

use promips_core::projection::Projection;
use promips_core::quickprobe::QuickProbe;
use promips_core::result::Termination;
use promips_core::{ProMips, ProMipsConfig, Query, SearchScratch};
use promips_idistance::{IDistanceConfig, ProjScratch};
use promips_linalg::{dist, norm1, Matrix};
use promips_shard::{ShardedConfig, ShardedProMips};
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, Pager};

fn config_for(verify_quantize: bool) -> ProMipsConfig {
    ProMipsConfig::builder()
        .c(0.9)
        .p(0.5)
        .seed(21)
        .idistance(IDistanceConfig {
            verify_quantize,
            ..Default::default()
        })
        .build()
}

/// Builds with the given tiers, saves, reopens from the file,
/// and returns the reopened handle (dropping the original).
fn save_reopen(data: &Matrix, dir: &std::path::Path, name: &str, cfg: ProMipsConfig) -> ProMips {
    let path = dir.join(name);
    let page_size = cfg.page_size;
    let storage = Arc::new(FileStorage::create(&path, page_size).unwrap());
    let pager = Arc::new(Pager::new(storage, 1024, AccessStats::new_shared()));
    let built = ProMips::build_with_pager(data, cfg, pager).unwrap();
    built.save().unwrap();
    drop(built);

    let storage = Arc::new(FileStorage::open(&path, page_size).unwrap());
    let pager = Arc::new(Pager::new(storage, 1024, AccessStats::new_shared()));
    ProMips::open(pager).unwrap()
}

#[test]
fn every_tier_combination_roundtrips_and_agrees() {
    let d = 18;
    // Clustered, with every other query beside a far cluster's row: both
    // sides of the rule.
    let data = clustered(14, 50, d, 55);
    let dir = std::env::temp_dir().join(format!("promips-fmt-compat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let tiers = [true, false];
    let reopened: Vec<ProMips> = tiers
        .iter()
        .map(|&verify| {
            let name = format!("verify{verify}.pmx");
            let idx = save_reopen(&data, &dir, &name, config_for(verify));
            assert_eq!(idx.idistance().verify_quantized(), verify, "{name}");
            idx
        })
        .collect();
    let fresh: Vec<ProMips> = tiers
        .iter()
        .map(|&verify| ProMips::build_in_memory(&data, config_for(verify)).unwrap())
        .collect();

    let mut rng = Xoshiro256pp::seed_from_u64(56);
    let mut screened = 0usize;
    let (mut column, mut annulus) = (0, 0);
    for qi in 0..10 {
        let mut q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        if qi % 2 == 1 {
            q.iter_mut()
                .zip(data.row(2 + qi))
                .for_each(|(x, r)| *x += r);
        }
        for k in [1usize, 7, 20] {
            // tiers[0] is the default build; tiers[1] has no verification
            // tier.
            let tiered = reopened[0].search(&q, k).unwrap();
            let plain = reopened[1].search(&q, k).unwrap();
            screened += tiered.screened;
            assert_eq!(plain.screened, 0, "k={k}: no codes to screen with");
            for ((got, fresh), verify) in reopened.iter().zip(&fresh).zip(tiers) {
                let got = got.search(&q, k).unwrap();
                assert_eq!(
                    got,
                    fresh.search(&q, k).unwrap(),
                    "verify={verify}, k={k}: reopen changed it"
                );
            }
            // Across the verification tier: the exact answer on the column
            // path, the same answer for less work on the annulus path.
            assert_eq!(tiered.probe_radius, plain.probe_radius, "k={k}");
            if tiered.termination == Termination::DatasetExhausted {
                column += 1;
                let exact = oracle(&data, &q, k, None);
                let got: Vec<(u64, f64)> = tiered.items.iter().map(|it| (it.id, it.ip)).collect();
                assert_eq!(got, exact, "k={k}: column pass is not the exact top-k");
            } else {
                annulus += 1;
                assert_eq!(tiered.items, plain.items, "k={k}: items across the tier");
                assert_eq!(tiered.termination, plain.termination, "k={k}");
                assert_eq!(tiered.final_radius, plain.final_radius, "k={k}");
                assert!(
                    plain.verified >= tiered.verified,
                    "k={k}: pure-f32 verification can only do more exact inner \
                     products, not fewer"
                );
            }
        }
    }
    assert!(
        column > 0 && annulus > 0,
        "{column} column-path and {annulus} annulus-path queries: one side untested"
    );
    assert!(
        screened > 0,
        "the both-tiers file never screened — tier lost, comparison vacuous"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Saved bytes at `path`, with the first occurrence of `pattern` replaced.
fn patched(path: &std::path::Path, pattern: &[u8], with: &[u8]) -> Vec<u8> {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes
        .windows(pattern.len())
        .position(|w| w == pattern)
        .expect("the directory holds the pattern");
    bytes[at..at + with.len()].copy_from_slice(with);
    bytes
}

/// The error `ProMips::open` gives for a file holding `bytes`.
fn open_error(bad: &std::path::Path, bytes: Vec<u8>, page_size: usize) -> std::io::Error {
    std::fs::write(bad, bytes).unwrap();
    let storage = Arc::new(FileStorage::open(bad, page_size).unwrap());
    let pager = Arc::new(Pager::new(storage, 1024, AccessStats::new_shared()));
    ProMips::open(pager)
        .err()
        .expect("a damaged file is refused")
}

/// `save`'s footer page — magic, iDistance footer page, aux `(start, len)`
/// — and the aux blob's group count are outside input to `open`: each way
/// of their disagreeing with the file is an error that names it, reached
/// without a panic and without allocating what a wild length asks for.
#[test]
fn a_damaged_footer_or_aux_blob_is_invalid_data_not_a_panic() {
    let (d, m) = (18, 6);
    let data = clustered(8, 40, d, 61);
    let dir = std::env::temp_dir().join(format!("promips-fmt-damaged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ProMipsConfig::builder().seed(62).m(m).build();
    let page_size = cfg.page_size;
    drop(save_reopen(&data, &dir, "good.pmx", cfg.clone()));
    let good = dir.join("good.pmx");

    let file = std::fs::read(&good).unwrap();
    let footer = &file[file.len() - page_size..][..32];
    let word = |i: usize| u64::from_le_bytes(footer[8 * i..][..8].try_into().unwrap());
    let (aux_start, aux_len) = (word(2), word(3));
    let with_len = |len: u64| [&footer[..24], &len.to_le_bytes()[..]].concat();
    // The blob: config scalars, projection, max ‖o‖², then the
    // Quick-Probe directory's header — m and the group count.
    let qp_at = 7 * 8 + 4 * m * d + 8;
    let qp_header = &file[aux_start as usize * page_size + qp_at..][..12];
    assert_eq!(qp_header[..8], (m as u64).to_le_bytes());
    let with_m = |m: u64| [&m.to_le_bytes()[..], &qp_header[8..]].concat();
    let with_groups = |g: u32| [&qp_header[..8], &g.to_le_bytes()[..]].concat();
    let parent_magic = 0x9120_6D19_50F1_1E00u64.to_le_bytes();

    let footer_with = |with: &[u8]| patched(&good, footer, with);
    let damaged = [
        ("truncated length", footer_with(&with_len(aux_len - 1))),
        ("one trailing byte", footer_with(&with_len(aux_len + 1))),
        (
            "length ends before the directory",
            footer_with(&with_len(qp_at as u64)),
        ),
        (
            "length past the file",
            footer_with(&with_len(file.len() as u64)),
        ),
        ("length past any file", footer_with(&with_len(u64::MAX))),
        ("the parent's magic", footer_with(&parent_magic)),
        // The iDistance footer of the format with a scan-code region.
        (
            "the scan-code format's magic",
            patched(&good, &FULL_WIDTH_MAGIC, &SCAN_CODE_MAGICS[0]),
        ),
        (
            "the scan-code format's head magic",
            patched(&good, &FULL_WIDTH_MAGIC, &SCAN_CODE_MAGICS[1]),
        ),
        ("zero groups", patched(&good, qp_header, &with_groups(0))),
        (
            "more groups than codes",
            patched(&good, qp_header, &with_groups(65)),
        ),
        ("m = 0", patched(&good, qp_header, &with_m(0))),
        ("m = 65", patched(&good, qp_header, &with_m(65))),
    ];
    for (what, bytes) in &damaged {
        let err = open_error(&dir.join("bad.pmx"), bytes.clone(), page_size);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    }

    // The same files as a shard's: the sharded open surfaces the error.
    let sharded = dir.join("sharded");
    let shard_cfg = ShardedConfig::builder().shards(1).base(cfg).build();
    drop(ShardedProMips::build_in_dir(&data, shard_cfg, &sharded).unwrap());
    let shard_file = sharded.join("shard_0000.pmx");
    assert_eq!(
        std::fs::read(&shard_file).unwrap(),
        file,
        "one shard, same seed"
    );
    assert!(ShardedProMips::open(&sharded).is_ok());
    for (what, bytes) in damaged {
        std::fs::write(&shard_file, bytes).unwrap();
        let err = ShardedProMips::open(&sharded)
            .err()
            .expect("a damaged shard is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The iDistance footer's magic for codes that are not heads: one column
/// of whole rows.
const FULL_WIDTH_MAGIC: [u8; 8] = 0x1D15_7A4C_E01D_F00Cu64.to_le_bytes();
/// The magic of a head split into a prefix, a suffix and a suffix-norm
/// code column.
const HEAD_MAGIC: [u8; 8] = 0x1D15_7A4C_E01D_F00Du64.to_le_bytes();
/// The magic of an older format: a prefix and a suffix column, no
/// suffix-norm codes.
const TWO_COLUMN_HEAD_MAGIC: [u8; 8] = 0x1D15_7A4C_E01D_F00Au64.to_le_bytes();
/// The two magics of the format before this one, full-width and head: the
/// same columns, and an SQ8 code region over the projected rows that the
/// annulus scan filtered through (two more footer fields and a quantizer
/// directory).
const SCAN_CODE_MAGICS: [[u8; 8]; 2] = [
    0x1D15_7A4C_E01D_F009u64.to_le_bytes(),
    0x1D15_7A4C_E01D_F00Bu64.to_le_bytes(),
];

/// A build without a head basis keeps the one column of whole rows under
/// its own magic, and a file that claims a split head column without
/// carrying a basis is refused.
#[test]
fn a_full_width_build_keeps_the_previous_format() {
    let (n, d) = (700, 18);
    let data = clustered(14, n / 14, d, 59);
    let dir = std::env::temp_dir().join(format!("promips-fmt-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config_for(true);
    let page_size = cfg.page_size;
    let idx = save_reopen(&data, &dir, "full.pmx", cfg);
    let idist = idx.idistance();
    assert!(idist.head().is_none());
    assert_eq!((idist.code_width(), idist.prefix_width()), (d, d));
    assert_eq!(idist.code_region().unwrap().1, (n * d) as u64);
    assert!(idist.vquants().iter().all(|vq| vq.suffix_norm == 0.0));
    drop(idx);

    let path = dir.join("full.pmx");
    let bytes = std::fs::read(&path).unwrap();
    let holds = |magic: &[u8]| bytes.windows(8).any(|w| w == magic);
    assert!(holds(&FULL_WIDTH_MAGIC) && !holds(&HEAD_MAGIC) && !holds(&TWO_COLUMN_HEAD_MAGIC));
    let claimed = patched(&path, &FULL_WIDTH_MAGIC, &HEAD_MAGIC);
    let err = open_error(&dir.join("bad.pmx"), claimed, page_size);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_head_column_roundtrips_bit_for_bit_and_a_wrong_shape_is_refused() {
    let d = 160;
    let data = clustered(12, 50, d, 57);
    let dir = std::env::temp_dir().join(format!("promips-fmt-head-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config_for(true);
    let page_size = cfg.page_size;

    let fresh = ProMips::build_in_memory(&data, cfg.clone()).unwrap();
    let reopened = save_reopen(&data, &dir, "head.pmx", cfg);
    let (built, got) = (fresh.idistance(), reopened.idistance());
    let basis = built.head().expect("rank-12 rows get a head");
    assert_eq!((basis.width(), got.code_width()), (64, 64));
    let restored = got.head().expect("the basis is in the file");
    assert_eq!(restored.defect().to_bits(), basis.defect().to_bits());
    let bits = |m: &Matrix| {
        m.as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u32>>()
    };
    assert_eq!(bits(restored.rows()), bits(basis.rows()));
    assert_eq!(got.vquants(), built.vquants(), "quantizers and tails");
    assert!(got.vquants().iter().any(|vq| vq.tail > 0.0));
    // The suffix norms the prefix bound reads, to the bit.
    let norms = |idx: &promips_idistance::IDistanceIndex| {
        idx.vquants()
            .iter()
            .map(|vq| vq.suffix_norm.to_bits())
            .collect::<Vec<u32>>()
    };
    assert_eq!(norms(got), norms(built));
    assert!(got.vquants().iter().all(|vq| vq.suffix_norm > 0.0));
    assert_eq!(got.prefix_width(), 32);
    // Three columns, and the suffix-norm codes read back as built.
    assert_eq!(got.code_region().unwrap().1, (data.rows() * 65) as u64);
    let codes = |idx: &promips_idistance::IDistanceIndex| {
        let mut codes = Vec::new();
        idx.suffix_norm_codes(&mut codes).unwrap();
        codes
    };
    assert_eq!(codes(got), codes(built));

    // Both sides of the rule answer as the fresh build does.
    let mut rng = Xoshiro256pp::seed_from_u64(58);
    let (mut column, mut annulus) = (0, 0);
    for qi in 0..10 {
        let mut q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        if qi % 2 == 1 {
            q.iter_mut()
                .zip(data.row(2 + qi))
                .for_each(|(x, r)| *x += r);
        }
        let res = reopened.search(&q, 10).unwrap();
        assert_eq!(
            res,
            fresh.search(&q, 10).unwrap(),
            "query {qi}: reopen changed it"
        );
        if res.termination == Termination::DatasetExhausted {
            column += 1;
            let got: Vec<(u64, f64)> = res.items.iter().map(|it| (it.id, it.ip)).collect();
            assert_eq!(got, oracle(&data, &q, 10, None));
        } else {
            annulus += 1;
        }
    }
    assert!(
        column > 0 && annulus > 0,
        "{column} column, {annulus} annulus"
    );

    // The head's header in the directory: width, defect, basis length.
    let header: Vec<u8> = [64u32.to_le_bytes(), (basis.defect() as f32).to_le_bytes()]
        .concat()
        .into_iter()
        .chain((64 * d as u32).to_le_bytes())
        .collect();
    let (start, len) = got.code_region().unwrap();
    let region: Vec<u8> = [start.to_le_bytes(), len.to_le_bytes()].concat();
    drop(reopened);
    let path = dir.join("head.pmx");
    let wrong_basis = [&header[..8], &(64 * d as u32 + 1).to_le_bytes()[..]].concat();
    let wrong_region = [&region[..8], &(len - 64).to_le_bytes()[..]].concat();
    for (what, bytes) in [
        ("basis length", patched(&path, &header, &wrong_basis)),
        ("region length", patched(&path, &region, &wrong_region)),
        // A head under the magic of one interleaved head column.
        (
            "the full-width magic",
            patched(&path, &HEAD_MAGIC, &FULL_WIDTH_MAGIC),
        ),
        // A head under the magic of two columns without norm codes.
        (
            "the two-column magic",
            patched(&path, &HEAD_MAGIC, &TWO_COLUMN_HEAD_MAGIC),
        ),
        // A head under either magic of the format with a scan-code region.
        (
            "the scan-code format's head magic",
            patched(&path, &HEAD_MAGIC, &SCAN_CODE_MAGICS[1]),
        ),
        (
            "the scan-code format's magic",
            patched(&path, &HEAD_MAGIC, &SCAN_CODE_MAGICS[0]),
        ),
    ] {
        let err = open_error(&dir.join("bad.pmx"), bytes, page_size);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The Quick-Probe directory of `idx` over `data`, rebuilt the way the
/// index build makes it, and the projection it was made with.
fn directory_of(idx: &ProMips, data: &Matrix) -> (Projection, QuickProbe) {
    let projection = Projection::generate(idx.m(), idx.d(), idx.config().seed);
    let projected = projection.project_all(data);
    let rows = (0..data.rows()).map(|i| (i as u64, projected.row(i)));
    let probe = QuickProbe::build(idx.m(), rows, |id| norm1(data.row(id as usize)));
    (projection, probe)
}

/// The radius `execute` reports is the ulp-padded distance from `P(q)` to
/// the projected record of Quick-Probe's point *as the index file holds
/// it*, to the bit — the directory's copy of that row is the row — on a
/// fresh and on a reopened handle, on both sides of the index-or-scan rule.
#[test]
fn probe_radius_is_the_distance_to_the_stored_record_to_the_bit() {
    // Tight clusters, two near the origin: the short query's ball meets
    // few of them, the long one's most.
    let data = clustered(10, 40, 12, 53);
    let cfg = ProMipsConfig::builder().seed(53 ^ 0xABCD).build();
    let pager = Arc::new(Pager::in_memory(cfg.page_size, 256));
    let fresh = ProMips::build_with_pager(&data, cfg, Arc::clone(&pager)).unwrap();
    fresh.save().unwrap();
    let reopened = ProMips::open(pager).unwrap();
    let (projection, probe) = directory_of(&fresh, &data);

    let mut scratch = SearchScratch::new();
    let mut records = ProjScratch::new();
    let mut column_passes = 0;
    for len in [0.1f32, 40.0] {
        let q = vec![len; 12];
        let pq = projection.project(&q);
        let located = probe.locate(&pq, norm1(&q), fresh.config().c, fresh.config().p);
        for idx in [&fresh, &reopened] {
            let mut stored = None;
            for sub in 0..idx.idistance().subparts().len() as u32 {
                (idx.idistance().read_subpart_proj_into(sub, &mut records)).unwrap();
                if let Some(at) = records.ids().iter().position(|&id| id == located.id) {
                    stored = Some(records.row(at).to_vec());
                }
            }
            let stored = stored.expect("every id has a projected record");
            assert_eq!(located.projected, stored.as_slice());
            let want = dist(&stored, &pq) * (1.0 + 4.0 * f64::EPSILON);

            let mut span = promips_obs::ShardSpan::default();
            let request = Query {
                span: Some(&mut span),
                ..Query::new(&q, 5)
            };
            let res = idx.execute(request, &mut scratch).unwrap();
            assert_eq!(res.probe_radius.map(f64::to_bits), Some(want.to_bits()));
            column_passes += span.column_pass as usize;
        }
    }
    assert_eq!(column_passes, 2, "one query on each side of the rule");
}

/// Nothing `save` appends has one entry per row: eight times the rows at
/// the same `m` and `d` cost the pages of the extra sign-code groups and no
/// more, and the Index Size figure counts the aux state once — before the
/// save, after it and on the reopened handle.
#[test]
fn what_save_appends_does_not_grow_with_n() {
    let (m, d) = (6, 24);
    let saved = |n: usize| {
        let data = common::random_data(n, d, 7);
        let cfg = ProMipsConfig::builder().seed(8).m(m).page_size(512).build();
        let pager = Arc::new(Pager::in_memory(cfg.page_size, 256));
        let built = ProMips::build_with_pager(&data, cfg, Arc::clone(&pager)).unwrap();
        let (pages, size) = (pager.num_pages(), built.index_size_bytes());
        built.save().unwrap();
        assert_eq!(built.index_size_bytes(), size, "n = {n}: saving recounts");
        let appended = pager.num_pages() - pages;
        let reopened = ProMips::open(pager).unwrap();
        assert_eq!(reopened.index_size_bytes(), size, "n = {n}: reopened");
        let probe = directory_of(&built, &data).1;
        assert!(probe.size_bytes() <= probe.num_groups() * (24 + 4 * m));
        (appended, probe.num_groups())
    };
    let (small_pages, small_groups) = saved(500);
    let (large_pages, large_groups) = saved(4_000);
    let group_pages = (large_groups.abs_diff(small_groups) * (24 + 4 * m)).div_ceil(512);
    assert!(
        large_pages.abs_diff(small_pages) <= group_pages as u64,
        "{small_pages} pages at n = 500 ({small_groups} groups), \
         {large_pages} at n = 4 000 ({large_groups} groups)"
    );
    // Config scalars, projection, max ‖o‖², the directory; one footer page.
    let aux = 7 * 8 + 4 * m * d + 8 + 12 + large_groups * (24 + 4 * m);
    assert_eq!(large_pages, aux.div_ceil(512) as u64 + 1);
}
