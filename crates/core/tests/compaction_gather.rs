//! `ProMips::live_rows_snapshot`: the read side of a shadow rebuild.

use promips_core::{ProMips, ProMipsConfig};
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;

/// Rows come back in ascending id whatever the storage order and
/// wherever the tombstones fall in it: on the first and last record of
/// a sub-partition, on every record of one, on none.
#[test]
fn live_rows_snapshot_ascends_around_tombstones_in_any_slot() {
    let mut rng = Xoshiro256pp::seed_from_u64(12);
    let data = Matrix::from_rows(
        12,
        (0..600).map(|_| (0..12).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    );
    let idx = ProMips::build_in_memory(&data, ProMipsConfig::builder().seed(3).build()).unwrap();
    let mut scratch = promips_idistance::ProjScratch::new();
    let mut subs: Vec<Vec<u64>> = Vec::new();
    for sub in 0..idx.idistance().subparts().len() as u32 {
        idx.idistance()
            .read_subpart_proj_into(sub, &mut scratch)
            .unwrap();
        subs.push(scratch.ids().to_vec());
    }
    assert!(subs.len() >= 3, "need a few sub-partitions");
    let whole = subs.iter().position(|s| s.len() >= 2).unwrap();
    let mut dead: Vec<u64> = subs[whole].clone();
    for (i, sub) in subs.iter().enumerate() {
        if i != whole && i % 2 == 0 {
            dead.extend([sub[0], sub[sub.len() - 1]]);
        }
    }
    for dead in [dead, Vec::new(), (0..600).collect()] {
        let (ids, rows) = idx.live_rows_snapshot(&|id| dead.contains(&id), 0).unwrap();
        let want: Vec<u64> = (0..600).filter(|id| !dead.contains(id)).collect();
        assert_eq!(ids, want);
        assert_eq!(rows.rows(), want.len());
        for (row, &id) in rows.iter_rows().zip(&ids) {
            assert_eq!(row, data.row(id as usize), "row of id {id}");
        }
    }
}
