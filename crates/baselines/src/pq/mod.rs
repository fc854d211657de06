//! PQ-based MIPS (the paper's fourth method, after Kalantidis & Avrithis,
//! CVPR 2014): QNF MIPS→NN reduction + IVF product quantization.
//!
//! Pipeline: the whole dataset is QNF-transformed with the **global**
//! maximum norm (one asymmetric transformation, no probability guarantee —
//! the paper includes this method as the "no guarantee" comparison point).
//! A coarse k-means quantizer assigns each transformed point to a cell;
//! residuals are product-quantized over 16 sub-spaces with 256 centroids
//! each (the paper's settings); each cell's codes form an inverted list
//! stored sequentially on disk. A query probes its 16 nearest cells,
//! scans their code lists with asymmetric-distance (ADC) lookup tables,
//! keeps the best candidates, and re-ranks them by exact inner product.
//!
//! Substitution note: LOPQ's per-cell rotation matrices are
//! replaced by plain per-cell residual PQ. The rotations improve recall a
//! few percent at considerable training cost; index-size/page-access shapes
//! — what Figs. 4 and 7 compare — are unaffected.

use std::io;
use std::sync::Arc;

use promips_cluster::{kmeans, KMeansConfig};
use promips_idistance::layout::{enc, read_blob, write_blob};
use promips_linalg::{dot, norm2, sq_dist, Matrix};
use promips_stats::Xoshiro256pp;
use promips_storage::{PageId, Pager};

use crate::fetch::fetch_f32_records;
use crate::h2alsh::qnf::Qnf;
use crate::method::{MipsMethod, Neighbor};

/// Configuration (defaults are the paper's settings).
#[derive(Debug, Clone, Copy)]
pub struct PqConfig {
    /// Number of PQ sub-spaces (paper: 16).
    pub subspaces: usize,
    /// Centroids per sub-space (paper: 256; clamped to the training size).
    pub centroids: usize,
    /// Cells probed at query time (paper: 16).
    pub probe_cells: usize,
    /// Number of coarse cells; `None` → `clamp(√n, 8, 512)`.
    pub cells: Option<usize>,
    /// Training sample size for the quantizers.
    pub train_sample: usize,
    /// Re-rank depth multiplier: `max(rerank_mult·k, 200)` ADC candidates
    /// get exact verification.
    pub rerank_mult: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> Self {
        Self {
            subspaces: 16,
            centroids: 256,
            probe_cells: 16,
            cells: None,
            train_sample: 20_000,
            rerank_mult: 20,
            seed: 0x9A12,
        }
    }
}

struct Cell {
    /// Global ids in record order.
    ids: Vec<u64>,
    codes_start: PageId,
    orig_start: PageId,
}

/// A built IVF-PQ MIPS index.
pub struct PqMips {
    pager: Arc<Pager>,
    config: PqConfig,
    d: usize,
    /// Padded transformed dimensionality (multiple of `subspaces`).
    dim_p: usize,
    sub_dim: usize,
    qnf: Qnf,
    /// `cells × dim_p` coarse centroids.
    coarse: Matrix,
    /// One `centroids × sub_dim` codebook per sub-space.
    codebooks: Vec<Matrix>,
    cells: Vec<Cell>,
    code_pages: u64,
}

impl PqMips {
    /// Builds the index over `data`.
    pub fn build(data: &Matrix, config: PqConfig, pager: Arc<Pager>) -> io::Result<Self> {
        assert!(!data.is_empty());
        let n = data.rows();
        let d = data.cols();
        let subspaces = config.subspaces.max(1);
        let dim_p = (d + 1).div_ceil(subspaces) * subspaces;
        let sub_dim = dim_p / subspaces;
        let mut rng = Xoshiro256pp::seed_from_u64(config.seed);

        // Global QNF transformation (single M = max norm).
        let max_norm = (0..n)
            .map(|i| norm2(data.row(i)))
            .fold(0.0, f64::max)
            .max(1e-12);
        let qnf = Qnf { max_norm };
        let transform = |row: &[f32]| -> Vec<f32> {
            let mut t = qnf.transform_data(row);
            t.resize(dim_p, 0.0);
            t
        };

        // Coarse quantizer trained on a sample, assigned over all points.
        let n_cells = config
            .cells
            .unwrap_or_else(|| ((n as f64).sqrt() as usize).clamp(8, 512))
            .min(n);
        let sample_size = config.train_sample.min(n);
        let sample_idx = rng.sample_indices(n, sample_size);
        let sample = Matrix::from_rows(dim_p, sample_idx.iter().map(|&i| transform(data.row(i))));
        let all_sample: Vec<usize> = (0..sample.rows()).collect();
        let mut km = KMeansConfig::new(n_cells, rng.next_u64());
        km.max_iters = 12;
        let coarse_km = kmeans(&sample, &all_sample, &km);
        let coarse = coarse_km.centroids;
        let n_cells = coarse.rows();

        // Assign every point to its nearest cell; collect residual sample
        // for the codebooks.
        let mut assignment = vec![0u32; n];
        for (i, slot) in assignment.iter_mut().enumerate() {
            let t = transform(data.row(i));
            let mut best = (f64::INFINITY, 0u32);
            for c in 0..n_cells {
                let dist = sq_dist(&t, coarse.row(c));
                if dist < best.0 {
                    best = (dist, c as u32);
                }
            }
            *slot = best.1;
        }

        // Sub-space codebooks trained on sampled residuals.
        let centroids = config.centroids.clamp(2, sample_size.max(2));
        let mut codebooks = Vec::with_capacity(subspaces);
        let residual_sample: Vec<Vec<f32>> = sample_idx
            .iter()
            .map(|&i| {
                let t = transform(data.row(i));
                let c = coarse.row(assignment[i] as usize);
                t.iter().zip(c).map(|(&a, &b)| a - b).collect()
            })
            .collect();
        for s in 0..subspaces {
            let sub = Matrix::from_rows(
                sub_dim,
                residual_sample
                    .iter()
                    .map(|r| r[s * sub_dim..(s + 1) * sub_dim].to_vec()),
            );
            let all: Vec<usize> = (0..sub.rows()).collect();
            let mut km = KMeansConfig::new(centroids, rng.next_u64());
            km.max_iters = 10;
            codebooks.push(kmeans(&sub, &all, &km).centroids);
        }

        // Encode per cell; write codes + originals sequentially.
        let ps = pager.page_size() as u64;
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); n_cells];
        for (i, &c) in assignment.iter().enumerate() {
            members[c as usize].push(i as u64);
        }
        let mut cells = Vec::with_capacity(n_cells);
        let mut code_pages = 0u64;
        for (c, ids) in members.into_iter().enumerate() {
            if ids.is_empty() {
                cells.push(Cell {
                    ids,
                    codes_start: 0,
                    orig_start: 0,
                });
                continue;
            }
            let mut codes_blob = Vec::with_capacity(ids.len() * subspaces);
            let mut orig_blob = Vec::with_capacity(ids.len() * 4 * d);
            for &id in &ids {
                let t = transform(data.row(id as usize));
                let center = coarse.row(c);
                for (s, cb) in codebooks.iter().enumerate().take(subspaces) {
                    let r: Vec<f32> = (s * sub_dim..(s + 1) * sub_dim)
                        .map(|j| t[j] - center[j])
                        .collect();
                    let mut best = (f64::INFINITY, 0usize);
                    for e in 0..cb.rows() {
                        let dist = sq_dist(&r, cb.row(e));
                        if dist < best.0 {
                            best = (dist, e);
                        }
                    }
                    codes_blob.push(best.1 as u8);
                }
                enc::put_f32s(&mut orig_blob, data.row(id as usize));
            }
            let codes_start = write_blob(&pager, &codes_blob)?;
            let orig_start = write_blob(&pager, &orig_blob)?;
            code_pages += (codes_blob.len() as u64).div_ceil(ps).max(1);
            cells.push(Cell {
                ids,
                codes_start,
                orig_start,
            });
        }

        Ok(Self {
            pager,
            config,
            d,
            dim_p,
            sub_dim,
            qnf,
            coarse,
            codebooks,
            cells,
            code_pages,
        })
    }

    fn search_impl(&self, q: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        assert_eq!(q.len(), self.d);
        let subspaces = self.config.subspaces;
        let (mut tq, _lambda) = self.qnf.transform_query(q);
        tq.resize(self.dim_p, 0.0);

        // Nearest cells.
        let mut cell_d: Vec<(f64, usize)> = (0..self.coarse.rows())
            .map(|c| (sq_dist(&tq, self.coarse.row(c)), c))
            .collect();
        cell_d.sort_by(|a, b| a.0.total_cmp(&b.0));
        let probe = self.config.probe_cells.min(cell_d.len());

        // ADC scan over the probed cells' code lists.
        let rerank = (self.config.rerank_mult * k).max(200);
        // (approx_sq_dist, cell, local) — keep the `rerank` smallest.
        let mut cand: Vec<(f64, usize, u32)> = Vec::new();
        for &(_, c) in cell_d.iter().take(probe) {
            let cell = &self.cells[c];
            if cell.ids.is_empty() {
                continue;
            }
            // Per-cell ADC tables from the query residual.
            let center = self.coarse.row(c);
            let rq: Vec<f32> = tq.iter().zip(center).map(|(&a, &b)| a - b).collect();
            let mut tables: Vec<Vec<f64>> = Vec::with_capacity(subspaces);
            for s in 0..subspaces {
                let cb = &self.codebooks[s];
                let sub = &rq[s * self.sub_dim..(s + 1) * self.sub_dim];
                tables.push((0..cb.rows()).map(|e| sq_dist(sub, cb.row(e))).collect());
            }
            let codes = read_blob(&self.pager, cell.codes_start, cell.ids.len() * subspaces)?;
            for (local, rec) in codes.chunks_exact(subspaces).enumerate() {
                let mut approx = 0.0;
                for (s, &code) in rec.iter().enumerate() {
                    approx += tables[s][code as usize];
                }
                insert_bounded(&mut cand, (approx, c, local as u32), rerank);
            }
        }

        // Re-rank by exact inner product, batching fetches per cell.
        cand.sort_by(|a, b| a.1.cmp(&b.1).then(a.2.cmp(&b.2)));
        let mut top: Vec<Neighbor> = Vec::new();
        let mut i = 0;
        while i < cand.len() {
            let c = cand[i].1;
            let mut offsets = Vec::new();
            while i < cand.len() && cand[i].1 == c {
                offsets.push(cand[i].2);
                i += 1;
            }
            let cell = &self.cells[c];
            let origs = fetch_f32_records(&self.pager, cell.orig_start, self.d, &offsets)?;
            for (&local, orig) in offsets.iter().zip(&origs) {
                let ip = dot(orig, q);
                let nb = Neighbor {
                    id: cell.ids[local as usize],
                    ip,
                };
                let pos = top.partition_point(|x| x.ip > nb.ip || (x.ip == nb.ip && x.id < nb.id));
                top.insert(pos, nb);
                if top.len() > k {
                    top.pop();
                }
            }
        }
        Ok(top)
    }
}

/// Keeps `buf` as the `cap` smallest entries by the first tuple field.
fn insert_bounded(buf: &mut Vec<(f64, usize, u32)>, item: (f64, usize, u32), cap: usize) {
    if buf.len() == cap {
        // Quick reject against the current maximum (last after sort step
        // below keeps buf unsorted; track max lazily).
        if let Some(max) = buf.iter().map(|e| e.0).reduce(f64::max) {
            if item.0 >= max {
                return;
            }
        }
        // Remove the current max.
        if let Some((mi, _)) = buf
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        {
            buf.swap_remove(mi);
        }
    }
    buf.push(item);
}

impl MipsMethod for PqMips {
    fn name(&self) -> &'static str {
        "PQ-Based"
    }

    fn search(&self, q: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        self.search_impl(q, k)
    }

    fn index_size_bytes(&self) -> u64 {
        let ps = self.pager.page_size() as u64;
        let coarse = (self.coarse.rows() * self.coarse.cols() * 4) as u64;
        let books: u64 = self
            .codebooks
            .iter()
            .map(|b| (b.rows() * b.cols() * 4) as u64)
            .sum();
        let ids: u64 = self.cells.iter().map(|c| c.ids.len() as u64 * 8).sum();
        self.code_pages * ps + coarse + books + ids
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

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            d,
            (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect()),
        )
    }

    fn small_config(seed: u64) -> PqConfig {
        PqConfig {
            subspaces: 4,
            centroids: 16,
            probe_cells: 4,
            cells: Some(8),
            train_sample: 500,
            rerank_mult: 20,
            seed,
        }
    }

    #[test]
    fn cells_partition_dataset() {
        let data = random_data(400, 10, 1);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let pq = PqMips::build(&data, small_config(1), pager).unwrap();
        let total: usize = pq.cells.iter().map(|c| c.ids.len()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn search_quality_reasonable() {
        let data = random_data(800, 12, 3);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let pq = PqMips::build(&data, small_config(3), pager).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut ratio_sum = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let q: Vec<f32> = (0..12).map(|_| rng.normal() as f32).collect();
            let res = pq.search(&q, 5).unwrap();
            assert!(!res.is_empty());
            let best = (0..800)
                .map(|i| dot(data.row(i), &q))
                .fold(f64::NEG_INFINITY, f64::max);
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
    fn insert_bounded_keeps_smallest() {
        let mut buf = Vec::new();
        for (i, v) in [9.0, 1.0, 5.0, 3.0, 7.0, 2.0].iter().enumerate() {
            insert_bounded(&mut buf, (*v, 0, i as u32), 3);
        }
        let mut dists: Vec<f64> = buf.iter().map(|e| e.0).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pages_and_size_accounted() {
        let data = random_data(500, 8, 7);
        let pager = Arc::new(Pager::in_memory(4096, 1 << 14));
        let pq = PqMips::build(&data, small_config(7), pager).unwrap();
        pq.clear_cache();
        pq.reset_stats();
        let _ = pq.search(&[0.4; 8], 10).unwrap();
        assert!(pq.page_accesses() > 0);
        assert!(pq.index_size_bytes() > 0);
    }
}
