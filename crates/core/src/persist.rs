//! Full-index persistence: save a built [`ProMips`] into its paged file and
//! reopen it later without re-projecting or re-clustering anything.
//!
//! Layout (appended after the iDistance footer):
//!
//! ```text
//! … iDistance regions + directory + iDistance footer …
//! [aux blob]     c, p, seed, page size, pool pages, m, d   7 × 8 bytes
//!                projection matrix                         4·m·d
//!                max ‖o‖²                                  8
//!                Quick-Probe: m, groups                    8 + 4
//!                  per group: code, ‖o‖₁, id, P(o)         24 + 4·m each
//! [footer page]  magic, iDistance-footer page id, aux (start, len)
//! ```
//!
//! Nothing in the blob has one entry per row: its length is fixed by `m`,
//! `d` and the number of non-empty sign codes (≤ 2^m) — about 15 KB at
//! m = 7, d = 300. [`ProMips::open`] reads the last page, checks that the
//! blob lies inside the file and ends where its contents do, checks the
//! saved config as a build does, opens the iDistance footer and reassembles
//! the handle; anything cut short or that disagrees is `InvalidData`. All
//! content addressing is page-relative, so the file can be copied or
//! memory-mapped freely.

use std::io;
use std::sync::Arc;

use promips_idistance::layout::{enc, read_blob, write_blob};
use promips_idistance::IDistanceIndex;
use promips_linalg::Matrix;
use promips_storage::Pager;

use crate::config::ProMipsConfig;
use crate::index::{BuildTimings, ProMips};
use crate::projection::Projection;
use crate::quickprobe::QuickProbe;

/// Footer magic of the layout above. The one before it (`…1E00`, whose
/// blob held 40 bytes a row) is refused as any other unknown value is.
const PROMIPS_MAGIC: u64 = 0x9120_6D19_50F1_1E01;

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl ProMips {
    /// Persists what the search path needs beyond the iDistance file
    /// (config scalars, projection, `max ‖o‖²`, the Quick-Probe
    /// representatives) into the index's paged file and finishes with a
    /// footer page. Call once after building into a file-backed pager;
    /// afterwards [`ProMips::open`] can reconstruct the index from the file
    /// alone.
    pub fn save(&self) -> io::Result<()> {
        let pager = self.idistance().pager();

        let mut aux = Vec::new();
        enc::put_f64(&mut aux, self.config.c);
        enc::put_f64(&mut aux, self.config.p);
        enc::put_u64(&mut aux, self.config.seed);
        enc::put_u64(&mut aux, self.config.page_size as u64);
        enc::put_u64(&mut aux, self.config.pool_pages as u64);
        enc::put_u64(&mut aux, self.m as u64);
        enc::put_u64(&mut aux, self.d as u64);
        enc::put_f32s(&mut aux, self.projection.matrix().as_slice());
        enc::put_f64(&mut aux, self.max_sq_norm);
        self.quickprobe.encode(&mut aux);
        let aux_start = write_blob(pager, &aux)?;

        // One zero-padded page: `open` finds it as the file's last.
        let mut footer = Vec::with_capacity(32);
        enc::put_u64(&mut footer, PROMIPS_MAGIC);
        enc::put_u64(&mut footer, self.idist_footer_page);
        enc::put_u64(&mut footer, aux_start);
        enc::put_u64(&mut footer, aux.len() as u64);
        write_blob(pager, &footer)?;
        pager.sync()
    }

    /// Reopens a fully persisted index (see [`ProMips::save`]). A file
    /// whose footer, aux blob or iDistance directory is cut short or
    /// disagrees with one another, the file's length or the config domain
    /// is refused with [`io::ErrorKind::InvalidData`] naming what disagreed.
    pub fn open(pager: Arc<Pager>) -> io::Result<Self> {
        let last = pager
            .num_pages()
            .checked_sub(1)
            .ok_or_else(|| bad("empty ProMIPS file".into()))?;
        let ps = pager.page_size();
        let page = pager.read(last)?;
        let mut r = enc::Reader::new(page.as_slice());
        if r.u64()? != PROMIPS_MAGIC {
            return Err(bad(
                "bad ProMIPS footer magic (no save(), or another format?)".into(),
            ));
        }
        let (idist_footer, aux_start, aux_len) = (r.u64()?, r.u64()?, r.u64()?);
        // The blob sits between the iDistance footer and this page: bound
        // its length by the file before allocating for it.
        let aux_end = aux_start.checked_add(aux_len.div_ceil(ps as u64).max(1));
        if idist_footer >= aux_start || aux_end.is_none_or(|end| end > last) {
            return Err(bad(format!(
                "aux blob (page {aux_start}, {aux_len} bytes) after iDistance footer page \
                 {idist_footer} does not fit the file's {last} pages before the footer"
            )));
        }
        let aux = read_blob(&pager, aux_start, aux_len as usize)?;

        let mut r = enc::Reader::new(&aux);
        let (c, p, seed) = (r.f64()?, r.f64()?, r.u64()?);
        let (page_size, pool_pages) = (r.u64()? as usize, r.u64()? as usize);
        let (m, d) = (r.u64()? as usize, r.u64()? as usize);
        let config = ProMipsConfig {
            c,
            p,
            m: Some(m),
            idistance: Default::default(), // build-time only; not needed to search
            page_size,
            pool_pages,
            seed,
        };
        // A `c` or `p` outside (0, 1) would open, then answer or panic.
        config
            .check()
            .map_err(|e| bad(format!("saved config: {e}")))?;
        if d == 0 {
            return Err(bad("saved d is 0".into()));
        }
        let proj_data = r.f32s(m.saturating_mul(d))?;
        let projection = Projection::from_matrix(Matrix::from_vec(m, d, proj_data));
        let max_sq_norm = r.f64()?;
        let quickprobe = QuickProbe::decode(&mut r)?;
        if r.remaining() != 0 {
            let past = r.remaining();
            return Err(bad(format!(
                "aux blob holds {past} bytes past its contents"
            )));
        }

        let index = IDistanceIndex::open_at(Arc::clone(&pager), idist_footer)?;
        let (groups, n) = (quickprobe.num_groups() as u64, index.len());
        if (index.proj_dim(), index.orig_dim(), quickprobe.m()) != (m, d, m) || groups > n {
            return Err(bad(format!(
                "a {m} × {d} projection and {groups} Quick-Probe groups at m = {} over an \
                 iDistance index of {n} rows, {} × {}",
                quickprobe.m(),
                index.proj_dim(),
                index.orig_dim()
            )));
        }
        Ok(ProMips::reassemble(
            config,
            projection,
            index,
            max_sq_norm,
            quickprobe,
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
