//! Compaction support: reading a built index's live rows back out.
//!
//! A [`ProMips`] is immutable once built. Inserts and deletes live in the
//! shard layer's overlay (`promips_shard`: delta rows, tombstone set, WAL,
//! shadow-build compaction), which reaches a query as the request's
//! tombstone mask ([`crate::search::Query::mask`]) and reaches a rebuild
//! through [`ProMips::live_rows_snapshot`]. A one-shard `ShardedProMips`
//! is bit-identical to the unsharded index and is the way to mutate one.

use std::io;

use promips_linalg::Matrix;

use crate::index::ProMips;

impl ProMips {
    /// Copies out every point the caller's `is_dead` overlay does not
    /// kill, without touching the index — it keeps serving queries
    /// unchanged while a background thread builds its successor from the
    /// returned rows. Returns the surviving ids, ascending, and their rows
    /// in that order, in a buffer with room for `spare_rows` more (a
    /// compaction appends its frozen delta there without another copy).
    ///
    /// One pass: the file is read in storage order, a sub-partition at a
    /// time, and each surviving row is written straight to its rank among
    /// the survivors.
    pub fn live_rows_snapshot(
        &self,
        is_dead: &dyn Fn(u64) -> bool,
        spare_rows: usize,
    ) -> io::Result<(Vec<u64>, Matrix)> {
        let d = self.d;
        // rank[id]: the row a live `id` lands at — ids are dense, so its
        // rank among the survivors.
        const DEAD: u32 = u32::MAX;
        let mut live_ids: Vec<u64> = Vec::new();
        let rank: Vec<u32> = (0..self.len())
            .map(|id| {
                if is_dead(id) {
                    return DEAD;
                }
                live_ids.push(id);
                live_ids.len() as u32 - 1
            })
            .collect();
        let mut flat = vec![0.0f32; (live_ids.len() + spare_rows) * d];
        flat.truncate(live_ids.len() * d);
        let mut scratch = promips_idistance::ProjScratch::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut ranks: Vec<u32> = Vec::new();
        let mut arena: Vec<f32> = Vec::new();
        for sub in 0..self.index.subparts().len() as u32 {
            self.index.read_subpart_proj_into(sub, &mut scratch)?;
            offsets.clear();
            ranks.clear();
            for (off, &id) in scratch.ids().iter().enumerate() {
                if rank[id as usize] != DEAD {
                    offsets.push(off as u32);
                    ranks.push(rank[id as usize]);
                }
            }
            self.index.fetch_originals(sub, &offsets, &mut arena)?;
            for (row, &at) in arena.chunks_exact(d).zip(&ranks) {
                flat[at as usize * d..][..d].copy_from_slice(row);
            }
        }
        let rows = Matrix::from_vec(live_ids.len(), d, flat);
        Ok((live_ids, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProMipsConfig;
    use promips_stats::Xoshiro256pp;

    #[test]
    fn live_rows_snapshot_is_read_only_and_honours_overlay() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let data = Matrix::from_rows(
            16,
            (0..180).map(|_| (0..16).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
        );
        let idx =
            ProMips::build_in_memory(&data, ProMipsConfig::builder().seed(10).build()).unwrap();
        let q = vec![0.5f32; 16];
        let before = idx.search(&q, 180).unwrap();

        let overlay_dead = |id: u64| id == 2 || id == 5;
        let (ids, rows) = idx.live_rows_snapshot(&overlay_dead, 3).unwrap();
        assert_eq!(ids.len(), 178);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        assert_eq!(rows.rows(), 178);
        assert!(!ids.contains(&2));
        assert!(!ids.contains(&5));
        for (row, &id) in rows.iter_rows().zip(&ids) {
            assert_eq!(row, data.row(id as usize), "row of id {id}");
        }
        assert!(rows.into_vec().capacity() >= (178 + 3) * 16);

        // Nothing was consumed: a second snapshot without the overlay sees
        // the overlay ids again, and the index answers as before.
        let (ids2, _) = idx.live_rows_snapshot(&|_| false, 0).unwrap();
        assert_eq!(ids2.len(), 180);
        assert!(ids2.contains(&2) && ids2.contains(&5));
        assert_eq!(idx.len(), 180);
        assert_eq!(idx.search(&q, 180).unwrap().items, before.items);
    }
}
