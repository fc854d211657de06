//! The end-to-end ProMIPS index: pre-processing pipeline and handle.

use std::io;
use std::sync::Arc;

use promips_idistance::{build_index, footer_span_pages, IDistanceIndex};
use promips_linalg::{norm1, sq_norm2, Matrix};
use promips_storage::{AccessStatsSnapshot, Pager};

use crate::conditions::chi2_threshold;
use crate::config::ProMipsConfig;
use crate::optimize::optimized_projection_dim;
use crate::projection::Projection;
use crate::quickprobe::QuickProbe;

/// Timing breakdown of the pre-processing phase (Fig. 4b of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Projecting the dataset (2-stable random projections).
    pub project_ms: f64,
    /// One pass over the rows for `‖o‖₁` and `max ‖o‖²`, then binary
    /// codes and one Quick-Probe representative per code group.
    pub quickprobe_ms: f64,
    /// iDistance construction (clustering, layout, directory).
    pub index_ms: f64,
}

impl BuildTimings {
    /// Total pre-processing time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.project_ms + self.quickprobe_ms + self.index_ms
    }
}

/// A built ProMIPS index.
///
/// See the crate docs for the architecture; construction happens in
/// [`ProMips::build_in_memory`] / [`ProMips::build_with_pager`], searching
/// in [`ProMips::execute`] (Quick-Probe + MIP-Search-II; [`ProMips::search`]
/// is its plain form) and [`ProMips::search_incremental`] (MIP-Search-I,
/// kept for the ablation). The handle is immutable once built: inserts and
/// deletes live in the shard layer's overlay, which reaches a query as the
/// request's tombstone mask.
pub struct ProMips {
    pub(crate) config: ProMipsConfig,
    pub(crate) projection: Projection,
    pub(crate) index: IDistanceIndex,
    /// `‖oM‖²`: the largest squared 2-norm among the rows (Conditions A
    /// and B).
    pub(crate) max_sq_norm: f64,
    pub(crate) quickprobe: QuickProbe,
    pub(crate) m: usize,
    pub(crate) d: usize,
    /// Condition B's threshold `Ψm⁻¹(p)`: fixed by `m` and `config.p`.
    pub(crate) chi2_threshold: f64,
    timings: BuildTimings,
    /// Page holding the iDistance footer (needed by [`ProMips::save`]).
    pub(crate) idist_footer_page: u64,
}

impl ProMips {
    /// Builds the index with an in-memory page device (used by tests,
    /// examples and CPU-time-oriented experiments).
    pub fn build_in_memory(data: &Matrix, config: ProMipsConfig) -> io::Result<Self> {
        config.validate();
        let pager = Arc::new(Pager::in_memory(config.page_size, config.pool_pages));
        Self::build_with_pager(data, config, pager)
    }

    /// Builds the index into the given pager (file-backed for the
    /// disk-resident experiments). A row with a NaN or infinite coordinate
    /// is `InvalidInput`.
    pub fn build_with_pager(
        data: &Matrix,
        config: ProMipsConfig,
        pager: Arc<Pager>,
    ) -> io::Result<Self> {
        config.validate();
        assert!(
            !data.is_empty(),
            "cannot build ProMIPS over an empty dataset"
        );
        assert_eq!(
            pager.page_size(),
            config.page_size,
            "pager/config page size mismatch"
        );
        let n = data.rows();
        let d = data.cols();
        let m = config
            .m
            .unwrap_or_else(|| optimized_projection_dim(n as u64))
            .clamp(1, 64);

        // Stage 1: 2-stable random projections (Definition 2).
        let t0 = std::time::Instant::now();
        let projection = Projection::generate(m, d, config.seed);
        let proj = projection.project_all(data);
        let project_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Stage 2: norms + binary codes for Quick-Probe. A row whose ‖o‖²
        // is not finite is refused here: no bound covers it, no score
        // ranks it.
        let t1 = std::time::Instant::now();
        let mut max_sq_norm = 0.0f64;
        let mut finite = true;
        let norm1s: Vec<f64> = data
            .iter_rows()
            .map(|row| {
                let sq = sq_norm2(row);
                finite &= sq.is_finite();
                max_sq_norm = max_sq_norm.max(sq);
                norm1(row)
            })
            .collect();
        if !finite {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a row's ‖o‖² is not finite: a NaN, infinite or overflowing coordinate",
            ));
        }
        let quickprobe = QuickProbe::build(m, (0..n).map(|i| (i as u64, proj.row(i))), |id| {
            norm1s[id as usize]
        });
        drop(norm1s);
        let quickprobe_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Stage 3: iDistance over the projected points, originals alongside.
        let t2 = std::time::Instant::now();
        let mut id_cfg = config.idistance.clone();
        id_cfg.seed ^= config.seed;
        let index = build_index(Arc::clone(&pager), &proj, data, &id_cfg)?;
        // build_index ends by writing the iDistance footer as the file's
        // last pages (one page at any realistic page size).
        let idist_footer_page = pager.num_pages() - footer_span_pages(pager.page_size());
        let index_ms = t2.elapsed().as_secs_f64() * 1e3;

        let timings = BuildTimings {
            project_ms,
            quickprobe_ms,
            index_ms,
        };
        Ok(Self::reassemble(
            config,
            projection,
            index,
            max_sq_norm,
            quickprobe,
            timings,
            idist_footer_page,
        ))
    }

    /// Reconstructs a handle from persisted parts (see [`crate::persist`]).
    pub(crate) fn reassemble(
        config: ProMipsConfig,
        projection: Projection,
        index: IDistanceIndex,
        max_sq_norm: f64,
        quickprobe: QuickProbe,
        timings: BuildTimings,
        idist_footer_page: u64,
    ) -> Self {
        let (m, d) = (projection.m(), projection.d());
        Self {
            chi2_threshold: chi2_threshold(m as u32, config.p),
            config,
            projection,
            index,
            max_sq_norm,
            quickprobe,
            m,
            d,
            timings,
            idist_footer_page,
        }
    }

    /// The effective projected dimensionality `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Original dimensionality `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// `‖oM‖²`, the largest squared 2-norm among the indexed rows — what
    /// the searching conditions use, and what the shard layer's pruning
    /// bound is the square root of.
    pub fn max_sq_norm(&self) -> f64 {
        self.max_sq_norm
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.index.len()
    }

    /// True when the index is empty (never: construction requires data).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The active configuration.
    pub fn config(&self) -> &ProMipsConfig {
        &self.config
    }

    /// Build-phase timings.
    pub fn build_timings(&self) -> BuildTimings {
        self.timings
    }

    /// The underlying iDistance index.
    pub fn idistance(&self) -> &IDistanceIndex {
        &self.index
    }

    /// Page-access counters (reset between queries to measure per-query
    /// page accesses, Fig. 7).
    pub fn access_stats(&self) -> AccessStatsSnapshot {
        self.index.access_stats()
    }

    /// Resets page-access counters.
    pub fn reset_stats(&self) {
        self.index.pager().stats().reset();
    }

    /// Drops cached pages (cold-cache measurements).
    pub fn clear_cache(&self) {
        self.index.pager().clear_cache();
    }

    /// The paper's **Index Size** metric: every page of the iDistance file
    /// up to its footer except the raw original vectors — the projected
    /// records, the SQ8 verification codes (when built), the directory and
    /// the footer — plus the projection matrix and the
    /// Quick-Probe representatives. Those two are counted from memory and
    /// the pages [`ProMips::save`] appends for them are not, so the figure
    /// is the same before a save, after it and on a reopened handle.
    pub fn index_size_bytes(&self) -> u64 {
        let ps = self.index.pager().page_size() as u64;
        let orig_pages = self.index.orig_region().1.div_ceil(ps).max(1);
        let built_pages = self.idist_footer_page + footer_span_pages(ps as usize);
        let aux = self.quickprobe.size_bytes() + 4 * self.m * self.d;
        (built_pages - orig_pages) * ps + aux as u64
    }

    /// Total bytes on disk including the original vectors (data + index).
    pub fn file_size_bytes(&self) -> u64 {
        self.index.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_stats::Xoshiro256pp;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            d,
            (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect()),
        )
    }

    #[test]
    fn build_selects_optimized_m() {
        let data = random_data(500, 20, 1);
        let idx = ProMips::build_in_memory(&data, ProMipsConfig::default()).unwrap();
        assert_eq!(idx.m(), optimized_projection_dim(500));
        assert_eq!(idx.len(), 500);
    }

    #[test]
    fn build_honours_m_override() {
        let data = random_data(300, 16, 2);
        let cfg = ProMipsConfig::builder().m(9).build();
        let idx = ProMips::build_in_memory(&data, cfg).unwrap();
        assert_eq!(idx.m(), 9);
    }

    #[test]
    fn index_size_smaller_than_file_with_originals() {
        let data = random_data(500, 64, 4);
        let idx = ProMips::build_in_memory(&data, ProMipsConfig::default()).unwrap();
        assert!(idx.index_size_bytes() < idx.file_size_bytes());
        assert!(idx.index_size_bytes() > 0);
    }

    #[test]
    fn timings_populated() {
        let data = random_data(200, 10, 5);
        let idx = ProMips::build_in_memory(&data, ProMipsConfig::default()).unwrap();
        assert!(idx.build_timings().total_ms() > 0.0);
    }
}
