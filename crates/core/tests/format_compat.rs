//! The one on-disk format across the tier matrix.
//!
//! The SQ8 scan tier and the SQ8 screen+rescore verification tier are each
//! optional at build time; a file records an absent tier as a sentinel
//! region. All four `quantize × verify_quantize` builds must round-trip
//! through save/open with exactly their tiers and answer like a fresh
//! build. The scan tier never changes an answer. The verification tier
//! does in one way only: an index that has it answers a query whose ball
//! covers most of its rows by the column pass — the exact top-k — where an
//! index without it runs the annulus path; on every other query both tiers
//! are bit-identical by construction and only the `screened`/`verified`
//! accounting differs.
//!
//! A verification tier whose codes are a head column carries its basis in
//! the directory: reopening restores the width, the basis and its defect
//! bit for bit, and a directory whose basis or code region has the wrong
//! length is refused, not trusted.

mod common;

use std::sync::Arc;

use common::{clustered, oracle};

use promips_core::result::Termination;
use promips_core::{ProMips, ProMipsConfig};
use promips_idistance::IDistanceConfig;
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, Pager};

fn config_for(quantize: bool, verify_quantize: bool) -> ProMipsConfig {
    ProMipsConfig::builder()
        .c(0.9)
        .p(0.5)
        .seed(21)
        .idistance(IDistanceConfig {
            quantize,
            verify_quantize,
            ..Default::default()
        })
        .build()
}

/// Builds with the given tier combination, saves, reopens from the file,
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

    let combos = [(true, true), (false, false), (true, false), (false, true)];
    let reopened: Vec<ProMips> = combos
        .iter()
        .map(|&(scan, verify)| {
            let name = format!("scan{scan}-verify{verify}.pmx");
            let idx = save_reopen(&data, &dir, &name, config_for(scan, verify));
            assert_eq!(idx.idistance().quantized(), scan, "{name}");
            assert_eq!(idx.idistance().verify_quantized(), verify, "{name}");
            idx
        })
        .collect();
    let fresh: Vec<ProMips> = combos
        .iter()
        .map(|&(scan, verify)| ProMips::build_in_memory(&data, config_for(scan, verify)).unwrap())
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
            // combos[0] is the default build, both tiers on; combos[1] has
            // neither. Each is the reference for the builds that share its
            // verification tier, and so its path.
            let tiered = reopened[0].search(&q, k).unwrap();
            let plain = reopened[1].search(&q, k).unwrap();
            screened += tiered.screened;
            for ((got, fresh), (scan, verify)) in reopened.iter().zip(&fresh).zip(combos) {
                let label = format!("scan={scan}, verify={verify}, k={k}");
                let got = got.search(&q, k).unwrap();
                assert_eq!(
                    got,
                    fresh.search(&q, k).unwrap(),
                    "{label}: reopen changed it"
                );
                let want = if verify { &tiered } else { &plain };
                assert_eq!(got.items, want.items, "{label}: items");
                assert_eq!(got.termination, want.termination, "{label}: termination");
                assert_eq!(got.probe_radius, want.probe_radius, "{label}: probe radius");
                assert_eq!(got.final_radius, want.final_radius, "{label}: final radius");
                if !verify {
                    assert_eq!(got.screened, 0, "{label}: no codes to screen with");
                }
            }
            // Across the verification tier: the exact answer on the column
            // path, the same answer for less work on the annulus path.
            assert_eq!(tiered.probe_radius, plain.probe_radius, "k={k}");
            if tiered.termination == Termination::DatasetExhausted {
                column += 1;
                let exact = oracle(&data, &q, k, f64::NEG_INFINITY, None);
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

#[test]
fn a_head_column_roundtrips_bit_for_bit_and_a_wrong_shape_is_refused() {
    let d = 160;
    let data = clustered(12, 50, d, 57);
    let dir = std::env::temp_dir().join(format!("promips-fmt-head-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config_for(true, true);
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
            assert_eq!(got, oracle(&data, &q, 10, f64::NEG_INFINITY, None));
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
    let (start, len) = got.vquant_region().unwrap();
    let region: Vec<u8> = [start.to_le_bytes(), len.to_le_bytes()].concat();
    drop(reopened);
    let path = dir.join("head.pmx");
    let wrong_basis = [&header[..8], &(64 * d as u32 + 1).to_le_bytes()[..]].concat();
    let wrong_region = [&region[..8], &(len - 64).to_le_bytes()[..]].concat();
    for (what, bytes) in [
        ("basis length", patched(&path, &header, &wrong_basis)),
        ("region length", patched(&path, &region, &wrong_region)),
    ] {
        let bad = dir.join("bad.pmx");
        std::fs::write(&bad, bytes).unwrap();
        let storage = Arc::new(FileStorage::open(&bad, page_size).unwrap());
        let pager = Arc::new(Pager::new(storage, 1024, AccessStats::new_shared()));
        let err = ProMips::open(pager)
            .err()
            .expect("a wrong shape is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
