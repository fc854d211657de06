//! Full-index persistence: save a built [`ProMips`] into its paged file and
//! reopen it later without re-projecting or re-clustering anything.
//!
//! Layout (appended after the iDistance footer):
//!
//! ```text
//! … iDistance regions + B+-tree + directory + iDistance footer …
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
//! blob lies inside the file and is exactly as long as its own header says,
//! opens the iDistance footer and reassembles the handle; anything that
//! disagrees is `InvalidData`. All content addressing is page-relative, so
//! the file can be copied or memory-mapped freely.

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

/// Bytes of the aux blob's leading scalars (`c` … `d`).
const AUX_SCALARS: usize = 7 * 8;

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
    /// whose footer, aux blob or iDistance directory disagree with one
    /// another or with the file's length is refused with
    /// [`io::ErrorKind::InvalidData`] naming what disagreed.
    pub fn open(pager: Arc<Pager>) -> io::Result<Self> {
        let last = pager
            .num_pages()
            .checked_sub(1)
            .ok_or_else(|| bad("empty ProMIPS file".into()))?;
        let ps = pager.page_size();
        let page = pager.read(last)?;
        let buf = page.as_slice();
        let mut pos = 0;
        if buf.len() < 32 || enc::get_u64(buf, &mut pos) != PROMIPS_MAGIC {
            return Err(bad(
                "bad ProMIPS footer magic (no save(), or another format?)".into(),
            ));
        }
        let idist_footer = enc::get_u64(buf, &mut pos);
        let aux_start = enc::get_u64(buf, &mut pos);
        let aux_len = enc::get_u64(buf, &mut pos);
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

        if aux.len() < AUX_SCALARS {
            return Err(bad(format!(
                "aux blob of {aux_len} bytes has no room for its header"
            )));
        }
        let mut pos = 0;
        let c = enc::get_f64(&aux, &mut pos);
        let p = enc::get_f64(&aux, &mut pos);
        let seed = enc::get_u64(&aux, &mut pos);
        let page_size = enc::get_u64(&aux, &mut pos) as usize;
        let pool_pages = enc::get_u64(&aux, &mut pos) as usize;
        let m = enc::get_u64(&aux, &mut pos);
        let d = enc::get_u64(&aux, &mut pos);
        // The projection and `max ‖o‖²` must fit what is left; the
        // Quick-Probe directory checks its own share.
        let fixed = m
            .checked_mul(d)
            .and_then(|md| md.checked_mul(4))
            .and_then(|bytes| bytes.checked_add(8));
        if !(1..=64).contains(&m) || d == 0 || fixed.is_none_or(|f| f > (aux.len() - pos) as u64) {
            return Err(bad(format!(
                "aux blob of {aux_len} bytes cannot hold a {m} × {d} projection (1 ≤ m ≤ 64, d ≥ 1)"
            )));
        }
        let (m, d) = (m as usize, d as usize);
        let proj_data = enc::get_f32s(&aux, &mut pos, m * d);
        let projection = Projection::from_matrix(Matrix::from_vec(m, d, proj_data));
        let max_sq_norm = enc::get_f64(&aux, &mut pos);
        let quickprobe = QuickProbe::decode(&aux, &mut pos)?;
        if pos != aux.len() {
            return Err(bad(format!(
                "aux blob is {aux_len} bytes, its contents end at {pos}"
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
