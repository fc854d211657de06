//! H2-ALSH (Huang et al., KDD 2018): homocentric-hypersphere partitioning +
//! QNF transformation + per-subset QALSH.
//!
//! Points are sorted by descending 2-norm and partitioned into subsets whose
//! norms lie in `(Mj/c0², Mj]` (homocentric hyperspheres, limiting the
//! distortion of the transformed space). Each subset gets its own QNF
//! transformation and — when large enough — a QALSH index; small subsets are
//! scanned directly. Queries visit subsets in descending `Mj`, and stop as
//! soon as the current k-th best inner product exceeds the Cauchy–Schwarz
//! bound `‖q‖·Mj` of all remaining subsets.

pub mod qalsh;
pub mod qnf;

use std::io;
use std::sync::Arc;

use promips_idistance::layout::{enc, read_blob_range, write_blob};
use promips_linalg::{dot, norm2, Matrix};
use promips_storage::{PageId, Pager};

use crate::method::{MipsMethod, Neighbor};
use qalsh::Qalsh;
use qnf::Qnf;

/// Subsets smaller than this skip QALSH and are scanned sequentially.
const BRUTE_FORCE_THRESHOLD: usize = 64;

struct Subset {
    max_norm: f64,
    /// Global point ids, descending norm (the on-disk record order).
    ids: Vec<u64>,
    orig_start: PageId,
    qalsh: Option<Qalsh>,
}

/// H2-ALSH configuration.
#[derive(Debug, Clone, Copy)]
pub struct H2AlshConfig {
    /// Norm-partition / QALSH approximation ratio `c0` (paper fixes 2.0).
    pub c0: f64,
    /// QALSH failure probability `δ`.
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for H2AlshConfig {
    fn default() -> Self {
        Self {
            c0: 2.0,
            delta: 1.0 / std::f64::consts::E,
            seed: 0xA15B,
        }
    }
}

/// A built H2-ALSH index.
pub struct H2Alsh {
    pager: Arc<Pager>,
    subsets: Vec<Subset>,
    d: usize,
    orig_pages: u64,
    hash_bytes: u64,
}

impl H2Alsh {
    /// Builds the index over `data` in the given pager.
    pub fn build(data: &Matrix, config: H2AlshConfig, pager: Arc<Pager>) -> io::Result<Self> {
        assert!(!data.is_empty());
        let n = data.rows();
        let d = data.cols();

        // Sort ids by descending norm.
        let mut order: Vec<(f64, u64)> = (0..n).map(|i| (norm2(data.row(i)), i as u64)).collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        // Homocentric hypersphere partition: norms in (Mj/c0², Mj].
        let mut subsets = Vec::new();
        let mut start = 0usize;
        let mut orig_pages = 0u64;
        let mut hash_bytes = 0u64;
        let ps = pager.page_size() as u64;
        let mut seed = config.seed;
        while start < n {
            let mj = order[start].0.max(1e-12);
            let threshold = mj / (config.c0 * config.c0);
            let mut end = start + 1;
            while end < n && order[end].0 > threshold {
                end += 1;
            }
            let ids: Vec<u64> = order[start..end].iter().map(|&(_, id)| id).collect();

            // Original vectors, sequential in subset order.
            let mut blob = Vec::with_capacity(ids.len() * 4 * d);
            for &id in &ids {
                enc::put_f32s(&mut blob, data.row(id as usize));
            }
            let orig_start = write_blob(&pager, &blob)?;
            orig_pages += (blob.len() as u64).div_ceil(ps).max(1);

            // QALSH over the QNF-transformed subset (large subsets only).
            let qalsh = if ids.len() >= BRUTE_FORCE_THRESHOLD {
                let qnf = Qnf { max_norm: mj };
                let transformed = Matrix::from_rows(
                    d + 1,
                    ids.iter()
                        .map(|&id| qnf.transform_data(data.row(id as usize))),
                );
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let q = Qalsh::build(
                    Arc::clone(&pager),
                    &transformed,
                    config.c0,
                    config.delta,
                    seed,
                )?;
                hash_bytes += (q.params().m * (d + 1) * 4) as u64;
                Some(q)
            } else {
                None
            };

            subsets.push(Subset {
                max_norm: mj,
                ids,
                orig_start,
                qalsh,
            });
            start = end;
        }

        Ok(Self {
            pager,
            subsets,
            d,
            orig_pages,
            hash_bytes,
        })
    }

    /// Number of norm subsets.
    pub fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    fn fetch_orig(&self, subset: &Subset, local: u32) -> io::Result<Vec<f32>> {
        let rec = 4 * self.d;
        let bytes = read_blob_range(&self.pager, subset.orig_start, local as usize * rec, rec)?;
        enc::Reader::new(&bytes).f32s(self.d)
    }

    fn search_impl(&self, q: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        assert_eq!(q.len(), self.d);
        let qn = norm2(q);
        let mut top: Vec<Neighbor> = Vec::new(); // sorted desc by ip
        let push = |top: &mut Vec<Neighbor>, nb: Neighbor| {
            let pos = top.partition_point(|x| x.ip > nb.ip || (x.ip == nb.ip && x.id < nb.id));
            top.insert(pos, nb);
            if top.len() > k {
                top.pop();
            }
        };

        for subset in &self.subsets {
            // Early stop: Cauchy–Schwarz bound on all remaining subsets.
            if top.len() == k && top[k - 1].ip >= qn * subset.max_norm {
                break;
            }
            let qnf = Qnf {
                max_norm: subset.max_norm,
            };
            match &subset.qalsh {
                None => {
                    // Sequential scan of the subset blob.
                    let rec = 4 * self.d;
                    let blob =
                        read_blob_range(&self.pager, subset.orig_start, 0, subset.ids.len() * rec)?;
                    let mut r = enc::Reader::new(&blob);
                    for &id in &subset.ids {
                        let o = r.f32s(self.d)?;
                        push(&mut top, Neighbor { id, ip: dot(&o, q) });
                    }
                }
                Some(qalsh) => {
                    let (tq, lambda) = qnf.transform_query(q);
                    qalsh.search(&tq, k, |local| {
                        let o = self.fetch_orig(subset, local)?;
                        let ip = dot(&o, q);
                        push(
                            &mut top,
                            Neighbor {
                                id: subset.ids[local as usize],
                                ip,
                            },
                        );
                        Ok(qnf.sq_dist_from_ip(lambda, ip).sqrt())
                    })?;
                }
            }
        }
        Ok(top)
    }
}

impl MipsMethod for H2Alsh {
    fn name(&self) -> &'static str {
        "H2-ALSH"
    }

    fn search(&self, q: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        self.search_impl(q, k)
    }

    fn index_size_bytes(&self) -> u64 {
        // Everything in the file except the raw data blobs, plus the
        // in-memory hash matrices and id tables.
        let ps = self.pager.page_size() as u64;
        let id_bytes: u64 = self.subsets.iter().map(|s| s.ids.len() as u64 * 8).sum();
        self.pager.size_bytes() - self.orig_pages * ps + self.hash_bytes + id_bytes
    }

    fn page_accesses(&self) -> u64 {
        self.pager.stats().snapshot().logical_reads
    }

    fn reset_stats(&self) {
        self.pager.stats().reset();
    }

    fn clear_cache(&self) {
        self.pager.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_stats::Xoshiro256pp;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        // Mix norms so several subsets appear.
        Matrix::from_rows(
            d,
            (0..n).map(|i| {
                let scale = 0.25 + 4.0 * (i % 13) as f32 / 13.0;
                (0..d).map(|_| scale * rng.normal() as f32).collect()
            }),
        )
    }

    fn exact_top1(data: &Matrix, q: &[f32]) -> (u64, f64) {
        (0..data.rows())
            .map(|i| (i as u64, dot(data.row(i), q)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
    }

    #[test]
    fn partitions_respect_norm_intervals() {
        let data = random_data(400, 10, 1);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let h2 = H2Alsh::build(&data, H2AlshConfig::default(), pager).unwrap();
        assert!(h2.num_subsets() >= 1);
        for s in &h2.subsets {
            for &id in &s.ids {
                let nrm = norm2(data.row(id as usize));
                assert!(nrm <= s.max_norm + 1e-9);
                assert!(nrm > s.max_norm / 4.0 - 1e-9, "outside (M/c0², M]");
            }
        }
        // Subsets cover every point exactly once.
        let total: usize = h2.subsets.iter().map(|s| s.ids.len()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn search_quality_reasonable() {
        let data = random_data(1200, 16, 3);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let h2 = H2Alsh::build(&data, H2AlshConfig::default(), pager).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut ratio_sum = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
            let res = h2.search(&q, 5).unwrap();
            assert!(!res.is_empty());
            let (_, best) = exact_top1(&data, &q);
            if best > 0.0 {
                ratio_sum += (res[0].ip / best).min(1.0);
            } else {
                ratio_sum += 1.0;
            }
        }
        let mean = ratio_sum / trials as f64;
        assert!(mean > 0.8, "mean top-1 ratio {mean} too low");
    }

    #[test]
    fn search_counts_pages() {
        let data = random_data(800, 12, 5);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let h2 = H2Alsh::build(&data, H2AlshConfig::default(), pager).unwrap();
        h2.clear_cache();
        h2.reset_stats();
        let q: Vec<f32> = vec![0.3; 12];
        let _ = h2.search(&q, 10).unwrap();
        assert!(h2.page_accesses() > 0);
        assert!(h2.index_size_bytes() > 0);
    }

    #[test]
    fn results_have_unique_ids() {
        let data = random_data(600, 8, 7);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let h2 = H2Alsh::build(&data, H2AlshConfig::default(), pager).unwrap();
        let q: Vec<f32> = vec![1.0; 8];
        let res = h2.search(&q, 20).unwrap();
        let mut ids: Vec<u64> = res.iter().map(|n| n.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }
}
