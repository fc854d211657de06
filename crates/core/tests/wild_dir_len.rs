//! The iDistance footer's directory length is outside input to `open`.
//! Its high bytes set to 0xFF ask for a terabyte or more: each such file
//! must be refused as `InvalidData` — the directory read checks the range
//! against the file before it allocates. A binary of its own: a build that
//! allocates first aborts the process, taking every test beside it along.

use std::sync::Arc;

use promips_core::{ProMips, ProMipsConfig};
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, FileStorage, Pager};

/// Bytes 80..88 of the iDistance footer: the directory's length, after
/// the magic, m, d, ε, the ring constant, the two regions and the
/// directory's start page.
const DIR_LEN_AT: usize = 80;

fn open(path: &std::path::Path, page_size: usize) -> std::io::Result<ProMips> {
    let storage = Arc::new(FileStorage::open(path, page_size).unwrap());
    ProMips::open(Arc::new(Pager::new(
        storage,
        256,
        AccessStats::new_shared(),
    )))
}

#[test]
fn a_wild_directory_length_is_invalid_data() {
    let mut rng = Xoshiro256pp::seed_from_u64(19);
    let (n, d) = (300, 12);
    let data = Matrix::from_vec(n, d, (0..n * d).map(|_| rng.normal() as f32).collect());
    let dir = std::env::temp_dir().join(format!("promips-dir-len-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ProMipsConfig::builder().seed(20).build();
    let page_size = cfg.page_size;
    let good = dir.join("good.pmx");
    let storage = Arc::new(FileStorage::create(&good, page_size).unwrap());
    let pager = Arc::new(Pager::new(storage, 256, AccessStats::new_shared()));
    ProMips::build_with_pager(&data, cfg, pager)
        .unwrap()
        .save()
        .unwrap();
    assert!(open(&good, page_size).is_ok());

    // `save`'s last page names the iDistance footer's page.
    let file = std::fs::read(&good).unwrap();
    let footer_page = &file[file.len() - page_size..];
    let idist_footer = u64::from_le_bytes(footer_page[8..16].try_into().unwrap()) as usize;
    let at = idist_footer * page_size + DIR_LEN_AT;
    let dir_len = u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
    assert!(
        (1..file.len() as u64).contains(&dir_len),
        "bytes {DIR_LEN_AT}.. of the footer hold the directory's length, not {dir_len}"
    );

    let bad = dir.join("bad.pmx");
    for byte in 4..8 {
        let mut bytes = file.clone();
        bytes[at + byte] = 0xFF;
        std::fs::write(&bad, bytes).unwrap();
        let err = open(&bad, page_size)
            .err()
            .expect("a wild directory length is refused");
        let what = format!("footer byte {}: {err}", DIR_LEN_AT + byte);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
