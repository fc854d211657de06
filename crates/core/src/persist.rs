//! Full-index persistence: save a built [`ProMips`] into its paged file and
//! reopen it later without re-projecting or re-clustering anything.
//!
//! Layout (appended after the iDistance footer):
//!
//! ```text
//! … iDistance regions + B+-tree + directory + iDistance footer …
//! [aux blob]     config scalars, projection matrix, norm table,
//!                Quick-Probe directory, id→(sub-partition, offset) locator
//! [footer page]  magic, iDistance-footer page id, aux (start, len)
//! ```
//!
//! [`ProMips::open`] reads the last page, locates both the aux blob and the
//! iDistance footer, and reassembles the handle. All content addressing is
//! page-relative, so the file can be copied or memory-mapped freely.

use std::io;
use std::sync::Arc;

use promips_idistance::layout::{enc, read_blob, write_blob};
use promips_idistance::IDistanceIndex;
use promips_linalg::Matrix;
use promips_storage::Pager;

use crate::config::ProMipsConfig;
use crate::index::{BuildTimings, ProMips};
use crate::norms::NormTable;
use crate::projection::Projection;
use crate::quickprobe::QuickProbe;

const PROMIPS_MAGIC: u64 = 0x9120_6D19_50F1_1E00;

impl ProMips {
    /// Persists everything the search path needs (projection, norms,
    /// Quick-Probe directory, locator) into the index's paged file and
    /// finishes with a footer page. Call once after building into a
    /// file-backed pager; afterwards [`ProMips::open`] can reconstruct the
    /// index from the file alone.
    pub fn save(&self) -> io::Result<()> {
        let pager = self.idistance().pager();

        let mut aux = Vec::new();
        // Config scalars.
        enc::put_f64(&mut aux, self.config.c);
        enc::put_f64(&mut aux, self.config.p);
        enc::put_u64(&mut aux, self.config.seed);
        enc::put_u64(&mut aux, self.config.page_size as u64);
        enc::put_u64(&mut aux, self.config.pool_pages as u64);
        enc::put_u64(&mut aux, self.m as u64);
        enc::put_u64(&mut aux, self.d as u64);
        // Projection matrix (m × d).
        enc::put_f32s(&mut aux, self.projection.matrix().as_slice());
        // Norm table + Quick-Probe directory.
        self.norms.encode(&mut aux);
        self.quickprobe.encode(&mut aux);
        // Locator.
        enc::put_u64(&mut aux, self.locator.len() as u64);
        for &(sub, off) in &self.locator {
            enc::put_u32(&mut aux, sub);
            enc::put_u32(&mut aux, off);
        }
        let aux_start = write_blob(pager, &aux)?;

        // One zero-padded page: `open` finds it as the file's last.
        let mut footer = Vec::with_capacity(32);
        enc::put_u64(&mut footer, PROMIPS_MAGIC);
        enc::put_u64(&mut footer, self.idist_footer_page());
        enc::put_u64(&mut footer, aux_start);
        enc::put_u64(&mut footer, aux.len() as u64);
        write_blob(pager, &footer)?;
        pager.sync()
    }

    /// Reopens a fully persisted index (see [`ProMips::save`]).
    pub fn open(pager: Arc<Pager>) -> io::Result<Self> {
        let last = pager
            .num_pages()
            .checked_sub(1)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty ProMIPS file"))?;
        let page = pager.read(last)?;
        let mut pos = 0;
        let buf = page.as_slice();
        if enc::get_u64(buf, &mut pos) != PROMIPS_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad ProMIPS footer magic (file saved without ProMips::save?)",
            ));
        }
        let idist_footer = enc::get_u64(buf, &mut pos);
        let aux_start = enc::get_u64(buf, &mut pos);
        let aux_len = enc::get_u64(buf, &mut pos) as usize;

        let aux = read_blob(&pager, aux_start, aux_len)?;
        let mut pos = 0;
        let c = enc::get_f64(&aux, &mut pos);
        let p = enc::get_f64(&aux, &mut pos);
        let seed = enc::get_u64(&aux, &mut pos);
        let page_size = enc::get_u64(&aux, &mut pos) as usize;
        let pool_pages = enc::get_u64(&aux, &mut pos) as usize;
        let m = enc::get_u64(&aux, &mut pos) as usize;
        let d = enc::get_u64(&aux, &mut pos) as usize;
        let proj_data = enc::get_f32s(&aux, &mut pos, m * d);
        let projection = Projection::from_matrix(Matrix::from_vec(m, d, proj_data));
        let norms = NormTable::decode(&aux, &mut pos);
        let quickprobe = QuickProbe::decode(&aux, &mut pos);
        let n = enc::get_u64(&aux, &mut pos) as usize;
        let locator: Vec<(u32, u32)> = (0..n)
            .map(|_| (enc::get_u32(&aux, &mut pos), enc::get_u32(&aux, &mut pos)))
            .collect();

        let index = IDistanceIndex::open_at(Arc::clone(&pager), idist_footer)?;
        let config = ProMipsConfig {
            c,
            p,
            m: Some(m),
            idistance: Default::default(), // build-time only; not needed to search
            page_size,
            pool_pages,
            seed,
        };
        Ok(ProMips::reassemble(
            config,
            projection,
            index,
            norms,
            quickprobe,
            locator,
            m,
            d,
            BuildTimings::default(),
            idist_footer,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_storage::{AccessStats, FileStorage};

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = promips_stats::Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            d,
            (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
        )
    }

    #[test]
    fn save_open_roundtrip_preserves_results() {
        let dir = std::env::temp_dir().join(format!("promips-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.pmx");

        let data = random_data(600, 24, 9);
        let cfg = ProMipsConfig::builder().c(0.85).p(0.6).seed(4).build();
        let storage = Arc::new(FileStorage::create(&path, cfg.page_size).unwrap());
        let pager = Arc::new(Pager::new(storage, 512, AccessStats::new_shared()));
        let built = ProMips::build_with_pager(&data, cfg, pager).unwrap();
        built.save().unwrap();

        let q: Vec<f32> = data.row(17).to_vec();
        let before = built.search(&q, 10).unwrap();
        drop(built);

        let storage = Arc::new(FileStorage::open(&path, 4096).unwrap());
        let pager = Arc::new(Pager::new(storage, 512, AccessStats::new_shared()));
        let reopened = ProMips::open(pager).unwrap();
        assert_eq!(reopened.len(), 600);
        assert_eq!(reopened.config().c, 0.85);
        assert_eq!(reopened.config().p, 0.6);

        let after = reopened.search(&q, 10).unwrap();
        assert_eq!(before.ids(), after.ids());
        for (a, b) in before.items.iter().zip(&after.items) {
            assert!((a.ip - b.ip).abs() < 1e-12);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_plain_idistance_file() {
        // A pager whose last page is an iDistance footer (no ProMips::save)
        // must be rejected with a clear error.
        let data = random_data(100, 8, 3);
        let cfg = ProMipsConfig::builder().seed(2).build();
        let pager = Arc::new(Pager::in_memory(cfg.page_size, 256));
        let _built = ProMips::build_with_pager(&data, cfg, Arc::clone(&pager)).unwrap();
        // No save() — last page is the iDistance footer.
        assert!(ProMips::open(pager).is_err());
    }
}
