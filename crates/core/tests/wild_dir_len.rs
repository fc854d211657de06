//! The footers, the aux blob and the iDistance directory they point at are
//! outside input to `ProMips::open`. Every length cut short, every count
//! made wild and every saved value that no build accepts must be refused
//! as `InvalidData`: no panic, and nothing allocated for what a wild count
//! asks. A binary of its own: a decoder that allocates first aborts the
//! process, taking every test beside it along.

use std::io;
use std::sync::Arc;

use promips_core::{ProMips, ProMipsConfig};
use promips_data::gen::low_rank;
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, MemStorage, Pager, Storage};

/// Bytes 80..88 of the iDistance footer: the directory's length, after
/// the magic, m, d, ε, the ring constant, the two regions and the
/// directory's start page.
const DIR_LEN_AT: usize = 80;

/// Opens `bytes` as a saved index, through the same storage and pager
/// for the unmodified copy and every altered one.
fn open(bytes: &[u8], page_size: usize) -> io::Result<ProMips> {
    let storage = MemStorage::new(page_size);
    storage.append_pages(bytes).unwrap();
    let pager = Pager::new(Arc::new(storage), 256, AccessStats::new_shared());
    ProMips::open(Arc::new(pager))
}

/// A saved index's bytes, and the byte offsets `open` finds in them.
struct Saved {
    bytes: Vec<u8>,
    page_size: usize,
    /// The iDistance footer.
    footer: usize,
    /// `(offset, length)` of the aux blob.
    aux: (usize, usize),
    /// `(offset, length)` of the iDistance directory.
    dir: (usize, usize),
}

impl Saved {
    fn new(data: &Matrix, seed: u64) -> Self {
        let cfg = ProMipsConfig::builder().seed(seed).build();
        let page_size = cfg.page_size;
        let pager = Arc::new(Pager::in_memory(page_size, 256));
        let built = ProMips::build_with_pager(data, cfg, Arc::clone(&pager)).unwrap();
        built.save().unwrap();
        let mut bytes = vec![0; pager.size_bytes() as usize];
        pager.storage().read_pages(0, &mut bytes).unwrap();
        // The copy opens and answers as the built index does, so each
        // refusal below is owed to the one value a test writes into it.
        let opened = open(&bytes, page_size).expect("the unmodified copy opens");
        assert_eq!(opened.len(), built.len());
        let ids = |index: &ProMips| -> Vec<u64> {
            let found = index.search(data.row(0), 10).unwrap().items;
            found.iter().map(|item| item.id).collect()
        };
        assert_eq!(ids(&opened), ids(&built));
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        // `save`'s last page names the iDistance footer's page and the blob.
        let last = bytes.len() - page_size;
        let footer = word(last + 8) * page_size;
        let dir = (
            word(footer + DIR_LEN_AT - 8) * page_size,
            word(footer + DIR_LEN_AT),
        );
        assert!(
            (1..bytes.len()).contains(&dir.1),
            "bytes {DIR_LEN_AT}.. of the footer hold the directory's length, not {}",
            dir.1
        );
        Self {
            aux: (word(last + 16) * page_size, word(last + 24)),
            dir,
            footer,
            page_size,
            bytes,
        }
    }

    /// The error `open` gives for these bytes with `value` written at `at`.
    fn refused(&self, what: &str, at: usize, value: &[u8]) -> io::Error {
        let mut bytes = self.bytes.clone();
        bytes[at..at + value.len()].copy_from_slice(value);
        let Err(err) = open(&bytes, self.page_size) else {
            panic!("{what} was accepted");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        err
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap())
    }

    /// Each `u32` count `open` reads, as `(name, byte offset)`, found by
    /// walking the directory's records (partition: count, center, radius,
    /// rows; sub-partition: key, count, pivot, radius, rows, two offsets;
    /// code region; quantizers of 24 bytes; then the head basis, if any:
    /// width, defect, length) and the aux blob's fixed fields.
    fn counts(&self) -> Vec<(&'static str, usize)> {
        let (start, len) = self.dir;
        let mut at = start + 4;
        for _ in 0..self.u32_at(start) {
            at += 4 + 4 * self.u32_at(at) as usize + 16;
        }
        let subs = at;
        let m = self.u32_at(subs + 12) as usize;
        let quants = subs + 4 + self.u32_at(subs) as usize * (40 + 4 * m) + 16;
        let head = quants + 4 + 24 * self.u32_at(quants) as usize;
        let word = |at: usize| u64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap());
        let (m, d) = (word(self.aux.0 + 40), word(self.aux.0 + 48));
        let groups = self.aux.0 + 7 * 8 + (4 * m * d) as usize + 8 + 8;
        // Each offset holds what the walk says it does.
        assert_eq!(u64::from(self.u32_at(start + 4)), m, "a center of m floats");
        assert_eq!(u64::from(self.u32_at(subs + 12)), m, "a pivot of m floats");
        assert_eq!(self.u32_at(quants), self.u32_at(subs), "a quantizer each");
        assert_eq!(word(groups - 8), m, "Quick-Probe's m");
        assert!(
            head == start + len
                || u64::from(self.u32_at(head + 8)) == d * u64::from(self.u32_at(head))
        );
        let mut counts = vec![
            ("the partition count", start),
            ("a partition's float count", start + 4),
            ("the sub-partition count", subs),
            ("a sub-partition's float count", subs + 12),
            ("the quantizer count", quants),
            ("Quick-Probe's group count", groups),
        ];
        if head < start + len {
            counts.push(("the head basis length", head + 8));
        }
        counts
    }
}

/// 300 Gaussian rows at d = 12: full-width codes.
fn isotropic() -> Saved {
    let mut rng = Xoshiro256pp::seed_from_u64(19);
    let (n, d) = (300, 12);
    Saved::new(
        &Matrix::from_vec(n, d, (0..n * d).map(|_| rng.normal() as f32).collect()),
        20,
    )
}

/// 300 rank-20 rows at d = 160: head codes, so the directory ends in a
/// basis.
fn with_head() -> Saved {
    Saved::new(&low_rank(300, 160, 20, 0.0, 21), 22)
}

#[test]
fn a_wild_directory_length_is_invalid_data() {
    let saved = isotropic();
    let at = saved.footer + DIR_LEN_AT;
    for byte in 4..8 {
        let what = format!("footer byte {} = 0xFF", DIR_LEN_AT + byte);
        saved.refused(&what, at + byte, &[0xFF]);
    }
}

/// Every directory and aux length short of the true one: the full-width
/// index at every length, the head index at every 37th and where its
/// basis starts.
#[test]
fn every_shorter_directory_or_aux_length_is_invalid_data() {
    for (saved, step) in [(isotropic(), 1), (with_head(), 37)] {
        let dir_len_at = saved.footer + DIR_LEN_AT;
        let aux_len_at = saved.bytes.len() - saved.page_size + 24;
        let head = saved
            .counts()
            .iter()
            .find(|c| c.0 == "the head basis length")
            .map(|c| c.1 - 8);
        let dir_lens = (0..saved.dir.1).step_by(step);
        for len in dir_lens.chain(head.map(|at| at - saved.dir.0)) {
            let what = format!("directory length {len} of {}", saved.dir.1);
            saved.refused(&what, dir_len_at, &(len as u64).to_le_bytes());
        }
        for len in (0..saved.aux.1).step_by(step) {
            let what = format!("aux length {len} of {}", saved.aux.1);
            saved.refused(&what, aux_len_at, &(len as u64).to_le_bytes());
        }
    }
}

#[test]
fn a_wild_count_is_invalid_data() {
    let (isotropic, with_head) = (isotropic(), with_head());
    assert_eq!(isotropic.counts().len(), 6, "no head basis");
    assert_eq!(with_head.counts().len(), 7, "a head basis");
    for saved in [isotropic, with_head] {
        for (what, at) in saved.counts() {
            for value in [u32::MAX, 0xFF00_0000 | saved.u32_at(at)] {
                saved.refused(&format!("{what} = {value}"), at, &value.to_le_bytes());
            }
        }
    }
}

/// A saved `c` or `p` outside (0, 1) once opened and then answered, or
/// panicked in Test A.
#[test]
fn a_saved_c_or_p_outside_its_domain_is_invalid_data() {
    let saved = isotropic();
    let cases = [
        (0, 1.5, "c must be in"),
        (0, f64::NAN, "c must be in"),
        (0, 0.0, "c must be in"),
        (8, 1.0, "p must be in"),
        (8, -0.5, "p must be in"),
    ];
    for (word, value, says) in cases {
        let what = format!("saved word {word} = {value}");
        let err = saved.refused(&what, saved.aux.0 + word, &value.to_le_bytes());
        assert!(err.to_string().contains(says), "{what}: {err}");
    }
}

/// Sub-partition row counts that do not sum to the index's rows once
/// opened, and the first search then panicked slicing the code column.
#[test]
fn row_counts_that_miss_the_index_length_are_invalid_data() {
    let saved = isotropic();
    let subs = saved.counts()[2].1;
    let m = saved.u32_at(subs + 12) as usize;
    // The first sub-partition's row count: after its key, pivot and radius.
    let at = subs + 4 + 8 + 4 + 4 * m + 8;
    for extra in [1, 50, 1000] {
        let rows = saved.u32_at(at) + extra;
        saved.refused(&format!("{extra} rows more"), at, &rows.to_le_bytes());
    }
}

/// Bytes 40.., 56.. of the iDistance footer: the projected and the
/// original region, each as its start page and byte length.
const PROJ_REGION_AT: usize = 40;
const ORIG_REGION_AT: usize = 56;

impl Saved {
    fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap())
    }

    /// `m`, and the byte offset of the second sub-partition's record.
    fn second_subpart(&self) -> (usize, usize) {
        let subs = self.counts()[2].1;
        let m = self.u32_at(subs + 12) as usize;
        (m, subs + 4 + 40 + 4 * m)
    }
}

/// The build writes a sub-partition's projected, original and code rows
/// where the rows before it end. Any other offset once opened, and a
/// query then read another sub-partition's rows (other ids) in its place.
#[test]
fn an_offset_that_is_not_the_rows_before_it_is_invalid_data() {
    for saved in [isotropic(), with_head()] {
        let (m, rec) = saved.second_subpart();
        let quants = saved.counts()[4].1;
        let offsets = [
            ("the projected offset", rec + 24 + 4 * m),
            ("the original offset", rec + 32 + 4 * m),
            ("the code offset", quants + 4 + 24),
        ];
        for (what, at) in offsets {
            let off = saved.u64_at(at);
            assert!(off > 0, "{what}: the first sub-partition holds rows");
            for value in [0, off + 4, off - 1] {
                saved.refused(
                    &format!("{what} {value} of {off}"),
                    at,
                    &value.to_le_bytes(),
                );
            }
        }
    }
}

/// A record region is `n` records: `n·(8 + 4m)` projected bytes, `n·4d`
/// original ones.
#[test]
fn a_region_length_that_is_not_n_records_is_invalid_data() {
    let saved = isotropic();
    let (m, _) = saved.second_subpart();
    let d = saved.u64_at(saved.footer + 16);
    let regions = [
        ("the projected region", PROJ_REGION_AT, 8 + 4 * m as u64),
        ("the original region", ORIG_REGION_AT, 4 * d),
    ];
    for (what, at, record) in regions {
        let at = saved.footer + at + 8;
        let len = saved.u64_at(at);
        for value in [len + record, len - record, len + 1, 0] {
            saved.refused(
                &format!("{what} {value} bytes of {len}"),
                at,
                &value.to_le_bytes(),
            );
        }
    }
}

/// Every region's last page lies within the file.
#[test]
fn a_region_past_the_last_page_is_invalid_data() {
    for saved in [isotropic(), with_head()] {
        let pages = (saved.bytes.len() / saved.page_size) as u64;
        // The code region, just before the quantizer count.
        let code_at = saved.counts()[4].1 - 16;
        let starts = [
            ("the projected region", saved.footer + PROJ_REGION_AT),
            ("the original region", saved.footer + ORIG_REGION_AT),
            ("the code region", code_at),
        ];
        for (what, at) in starts {
            let start = saved.u64_at(at);
            let span = saved.u64_at(at + 8).div_ceil(saved.page_size as u64).max(1);
            assert!(start + span <= pages, "{what} ends within the file");
            // One page past the end, wholly past it, and past `u64`.
            for value in [pages + 1 - span, pages, u64::MAX - 1] {
                saved.refused(&format!("{what} at page {value}"), at, &value.to_le_bytes());
            }
        }
    }
}
