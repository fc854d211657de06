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

mod common;

use std::sync::Arc;

use common::{oracle, short, skewed_data};

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
    // Skewed, with every other query short: both sides of the rule.
    let data = skewed_data(700, d, 55);
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
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        let q = if qi % 2 == 0 { q } else { short(&q) };
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
