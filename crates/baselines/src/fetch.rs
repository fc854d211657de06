//! Batched record fetches with page de-duplication.
//!
//! Hash-bucket and PQ-candidate verification reads scattered records from a
//! sequential blob; reading each covering page once per batch mirrors how a
//! buffered scan would hit the disk and keeps the Page Access metric honest
//! (the same page is not billed twice within one batch).

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use promips_idistance::layout::enc;
use promips_storage::{PageBuf, PageId, Pager};

/// Fetches `rec_floats`-float records at the given record offsets from the
/// blob starting at `start`. Returns vectors aligned with `offsets`.
pub fn fetch_f32_records(
    pager: &Pager,
    start: PageId,
    rec_floats: usize,
    offsets: &[u32],
) -> io::Result<Vec<Vec<f32>>> {
    let rec = rec_floats * 4;
    let ps = pager.page_size();

    let mut pages: Vec<u64> = Vec::new();
    for &o in offsets {
        let lo = o as usize * rec;
        let hi = lo + rec - 1;
        for p in (lo / ps)..=(hi / ps) {
            pages.push(p as u64);
        }
    }
    pages.sort_unstable();
    pages.dedup();
    let mut cache: HashMap<u64, Arc<PageBuf>> = HashMap::with_capacity(pages.len());
    for p in pages {
        cache.insert(p, pager.read(start + p)?);
    }

    let mut out = Vec::with_capacity(offsets.len());
    for &o in offsets {
        let lo = o as usize * rec;
        let mut bytes = Vec::with_capacity(rec);
        let mut cursor = lo;
        while cursor < lo + rec {
            let page_idx = (cursor / ps) as u64;
            let in_page = cursor % ps;
            let take = (ps - in_page).min(lo + rec - cursor);
            bytes.extend_from_slice(&cache[&page_idx].as_slice()[in_page..in_page + take]);
            cursor += take;
        }
        out.push(enc::Reader::new(&bytes).f32s(rec_floats)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_idistance::layout::write_blob;

    #[test]
    fn fetches_correct_records() {
        let pager = Pager::in_memory(64, 128);
        let records: Vec<Vec<f32>> = (0..50)
            .map(|i| vec![i as f32, i as f32 * 2.0, -(i as f32)])
            .collect();
        let mut blob = Vec::new();
        for r in &records {
            enc::put_f32s(&mut blob, r);
        }
        let start = write_blob(&pager, &blob).unwrap();
        let got = fetch_f32_records(&pager, start, 3, &[0, 7, 49, 7]).unwrap();
        assert_eq!(got[0], records[0]);
        assert_eq!(got[1], records[7]);
        assert_eq!(got[2], records[49]);
        assert_eq!(got[3], records[7]);
    }

    #[test]
    fn dedupes_page_reads() {
        let pager = Pager::in_memory(64, 128);
        // 16 records of 4 floats = 16 bytes each; 4 records per page.
        let mut blob = Vec::new();
        for i in 0..16 {
            enc::put_f32s(&mut blob, &[i as f32; 4]);
        }
        let start = write_blob(&pager, &blob).unwrap();
        pager.stats().reset();
        // Offsets 0..3 share page 0.
        let _ = fetch_f32_records(&pager, start, 4, &[0, 1, 2, 3]).unwrap();
        assert_eq!(pager.stats().snapshot().logical_reads, 1);
    }
}
