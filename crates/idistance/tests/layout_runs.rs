//! The build hands the device whole runs ([`Storage::append_pages`]); the
//! file must not be able to tell. Each build below runs three times — on a
//! device whose `append_pages` writes one page at a time, as the region
//! writer did before there were runs, on `MemStorage` and on
//! `FileStorage` — and the three files are compared page by page: with a
//! head column and with full-width codes, at 4 KB pages and at a page size
//! that no record length divides, so every region straddles page and run
//! boundaries differently.

use std::io;
use std::sync::Arc;

use promips_data::gen::{low_rank, norm_skewed};
use promips_idistance::layout::{read_blob, write_blob, RegionWriter, RUN_BYTES};
use promips_idistance::{build_index, HeadBasis, IDistanceConfig};
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, MemStorage, PageId, Pager, Storage};
use proptest::prelude::*;

/// `MemStorage`, except that a run is written a page at a time, the way
/// every page used to be, and read a page at a time.
struct PageAtATime(MemStorage);

impl Storage for PageAtATime {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.0.num_pages()
    }
    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        for (id, page) in (first..).zip(buf.chunks_exact_mut(self.page_size())) {
            self.0.read_pages(id, page)?;
        }
        Ok(())
    }
    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        let first = self.0.num_pages();
        for page in bytes.chunks_exact(self.page_size()) {
            self.0.append_pages(page)?;
        }
        Ok(first)
    }
    fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

/// Builds over `orig` into `storage`; returns whether a head column was
/// built and the page writes the pager counted.
fn build(storage: Arc<dyn Storage>, orig: &Matrix) -> (bool, u64) {
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let d = orig.cols();
    let directions = Matrix::from_vec(7, d, (0..7 * d).map(|_| rng.normal() as f32).collect());
    let proj = orig.gemm_nt(&directions);
    let pager = Arc::new(Pager::new(storage, 64, AccessStats::new_shared()));
    let index = build_index(
        pager,
        &proj,
        orig,
        &IDistanceConfig::default(),
        HeadBasis::estimate(orig, IDistanceConfig::default().seed),
    )
    .unwrap();
    (index.head().is_some(), index.access_stats().writes)
}

fn pages(storage: &dyn Storage) -> Vec<Vec<u8>> {
    let ps = storage.page_size();
    let mut file = vec![0u8; storage.num_pages() as usize * ps];
    storage.read_pages(0, &mut file).unwrap();
    file.chunks_exact(ps).map(<[u8]>::to_vec).collect()
}

fn assert_same_file_on_every_device(tag: &str, orig: &Matrix, page_size: usize, head: bool) {
    let dir = std::env::temp_dir().join(format!("promips-layout-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old: Arc<dyn Storage> = Arc::new(PageAtATime(MemStorage::new(page_size)));
    let mem: Arc<dyn Storage> = Arc::new(MemStorage::new(page_size));
    let file: Arc<dyn Storage> =
        Arc::new(FileStorage::create(dir.join("index.pmx"), page_size).unwrap());
    let want_writes = build(Arc::clone(&old), orig);
    assert_eq!(want_writes.0, head, "{tag}: head column");
    let want = pages(old.as_ref());
    assert_eq!(want_writes.1, want.len() as u64, "{tag}: one write a page");
    for (name, device) in [("MemStorage", &mem), ("FileStorage", &file)] {
        assert_eq!(
            build(Arc::clone(device), orig),
            want_writes,
            "{tag} on {name}"
        );
        let got = pages(device.as_ref());
        assert_eq!(got.len(), want.len(), "{tag} on {name}: page count");
        for (id, (got, want)) in got.iter().zip(&want).enumerate() {
            assert!(
                got == want,
                "{tag} on {name}: page {id} of {} differs",
                want.len()
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn head_column_build_is_the_same_file_on_every_device() {
    let orig = low_rank(3000, 160, 20, 0.3, 7);
    assert_same_file_on_every_device("head-4k", &orig, 4096, true);
    assert_same_file_on_every_device("head-1000", &orig, 1000, true);
}

#[test]
fn full_width_build_is_the_same_file_on_every_device() {
    let orig = norm_skewed(3000, 48, 3);
    assert_same_file_on_every_device("full-4k", &orig, 4096, false);
    assert_same_file_on_every_device("full-1000", &orig, 1000, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Records of random lengths — tiny, page-sized, and within a few
    /// bytes of the flush threshold on either side, so runs end before,
    /// at and after a record's end — land packed, in order, at the
    /// offsets returned, zero-padded to a whole page, on consecutive
    /// pages each written once.
    #[test]
    fn region_writer_runs_are_invisible(
        page_pick in 0usize..3,
        seed in 0u64..1 << 32,
        n_records in 1usize..40,
    ) {
        let ps = [4096usize, 1000, 65536][page_pick];
        let mut rng = proptest::test_runner::TestRng::from_name(&format!("region-{seed}"));
        let pager = Pager::in_memory(ps, 8);
        // Something before the region: it need not start at page 0.
        let lead = write_blob(&pager, &[9u8; 10]).unwrap();
        let mut w = RegionWriter::new(&pager);
        let mut want: Vec<u8> = Vec::new();
        for r in 0..n_records {
            let len = match rng.below(4) {
                0 => rng.below(64) as usize,
                1 => ps - 2 + rng.below(5) as usize,
                2 => (RUN_BYTES - want.len() % RUN_BYTES + rng.below(7) as usize).saturating_sub(3),
                _ => rng.below(3 * ps as u64) as usize,
            };
            let record: Vec<u8> = (0..len).map(|i| (i + 31 * r) as u8).collect();
            let at = if r % 2 == 0 {
                w.append(&record).unwrap()
            } else {
                // The float entry point, on bytes that are whole floats.
                let floats: Vec<f32> = record
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                    .collect();
                let at = w.append_f32s(&floats).unwrap();
                w.append(&record[floats.len() * 4..]).unwrap();
                at
            };
            prop_assert_eq!(at, want.len() as u64, "offset of record {}", r);
            want.extend_from_slice(&record);
            prop_assert_eq!(w.position(), want.len() as u64);
        }
        let (start, len) = w.finish().unwrap();
        prop_assert_eq!(start, lead + 1);
        prop_assert_eq!(len, want.len() as u64);
        let region_pages = want.len().div_ceil(ps).max(1);
        prop_assert_eq!(pager.num_pages(), start + region_pages as u64);
        prop_assert_eq!(pager.stats().snapshot().writes, 1 + region_pages as u64);
        want.resize(region_pages * ps, 0);
        let got = read_blob(&pager, start, want.len()).unwrap();
        prop_assert!(got == want, "region bytes differ");
    }
}
