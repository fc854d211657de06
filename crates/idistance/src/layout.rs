//! Blob layout helpers: variable-length byte blobs over fixed-size pages.
//!
//! A blob occupies `ceil(len / page_size)` consecutive pages starting at its
//! start page. Partial reads fetch only the pages covering the requested
//! byte range, which is how candidate verification avoids reading whole
//! sub-partitions.

use std::io;

use promips_storage::{PageId, Pager};

/// Writes `bytes` as a blob on fresh consecutive pages — its whole pages as
/// one run straight from `bytes`, then the zero-padded last one — and
/// returns the start page id (a zero-length blob still takes one page).
pub fn write_blob(pager: &Pager, bytes: &[u8]) -> io::Result<PageId> {
    let ps = pager.page_size();
    let (whole, rest) = bytes.split_at(bytes.len() / ps * ps);
    let mut start = None;
    if !whole.is_empty() {
        start = Some(pager.append_run(whole)?);
    }
    if !rest.is_empty() || start.is_none() {
        let mut last = rest.to_vec();
        last.resize(ps, 0);
        let id = pager.append_run(&last)?;
        start.get_or_insert(id);
    }
    Ok(start.expect("a blob takes at least one page"))
}

/// Reads `len` bytes of a blob starting at `start` (whole-blob read).
pub fn read_blob(pager: &Pager, start: PageId, len: usize) -> io::Result<Vec<u8>> {
    read_blob_range(pager, start, 0, len)
}

/// Reads bytes `[offset, offset + len)` of a blob, touching only the
/// covering pages. A range that ends past the file's last page is
/// [`io::ErrorKind::InvalidData`] — a length read from a damaged file is
/// refused before anything is allocated for it.
pub fn read_blob_range(
    pager: &Pager,
    start: PageId,
    offset: usize,
    len: usize,
) -> io::Result<Vec<u8>> {
    if len == 0 {
        return Ok(Vec::new());
    }
    let (ps, pages) = (pager.page_size(), pager.num_pages());
    let Some(last_page) = offset
        .checked_add(len - 1)
        .map(|end| end / ps)
        .filter(|&last| start.checked_add(last as u64).is_some_and(|p| p < pages))
    else {
        let what = format!(
            "{len} bytes at byte {offset} of the blob at page {start} end past the file's \
             {pages} pages"
        );
        return Err(io::Error::new(io::ErrorKind::InvalidData, what));
    };
    let mut out = Vec::with_capacity(len);
    for p in offset / ps..=last_page {
        let page = pager.read(start + p as u64)?;
        let page_lo = p * ps;
        let lo = offset.max(page_lo) - page_lo;
        let hi = (offset + len).min(page_lo + ps) - page_lo;
        out.extend_from_slice(&page.as_slice()[lo..hi]);
    }
    Ok(out)
}

/// Bytes a [`RegionWriter`] gathers before it hands the device a run: a
/// 120 MB region written 4 KB at a time spends as long entering and leaving
/// `ftruncate` + `pwrite` as copying; 1 MB does not show in peak memory.
pub const RUN_BYTES: usize = 1 << 20;

/// Streams bytes into consecutive pages without page-aligning individual
/// records — the "packed region" layout that lets adjacent sub-partitions
/// share pages (the paper's sequential-disk organization). Whole pages
/// reach the pager in runs of about [`RUN_BYTES`]
/// ([`Pager::append_run`]). The writer owns page allocation between `new`
/// and `finish`; nothing else may allocate from the same pager in that
/// window, or the region stops being consecutive.
pub struct RegionWriter<'a> {
    pager: &'a Pager,
    start: Option<PageId>,
    /// Appended bytes no run has taken yet.
    buf: Vec<u8>,
    /// Bytes already handed to the pager: whole pages.
    written: u64,
}

impl<'a> RegionWriter<'a> {
    /// Starts a region on the given pager.
    pub fn new(pager: &'a Pager) -> Self {
        Self {
            pager,
            start: None,
            buf: Vec::new(),
            written: 0,
        }
    }

    /// Bytes appended so far: the offset the next append lands at.
    pub fn position(&self) -> u64 {
        self.written + self.buf.len() as u64
    }

    /// Appends `bytes`, returning their byte offset within the region.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<u64> {
        self.append_with(|buf| buf.extend_from_slice(bytes))
    }

    /// Appends `vs` as little-endian floats, returning their byte offset
    /// within the region.
    pub fn append_f32s(&mut self, vs: &[f32]) -> io::Result<u64> {
        self.append_with(|buf| enc::put_f32s(buf, vs))
    }

    fn append_with(&mut self, put: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        let offset = self.position();
        put(&mut self.buf);
        if self.buf.len() >= RUN_BYTES {
            self.flush_whole_pages()?;
        }
        Ok(offset)
    }

    /// Hands the buffered whole pages to the pager as one run; the partial
    /// last page stays buffered.
    fn flush_whole_pages(&mut self) -> io::Result<()> {
        let ps = self.pager.page_size();
        let whole = self.buf.len() / ps * ps;
        if whole == 0 {
            return Ok(());
        }
        let id = self.pager.append_run(&self.buf[..whole])?;
        let start = *self.start.get_or_insert(id);
        debug_assert_eq!(
            id,
            start + self.written / ps as u64,
            "region pages must be consecutive (start {start})"
        );
        self.written += whole as u64;
        self.buf.drain(..whole);
        Ok(())
    }

    /// Flushes what is buffered, the last page zero-padded, and returns
    /// `(start_page, total_len)`. An empty region still takes one page.
    pub fn finish(mut self) -> io::Result<(PageId, u64)> {
        let ps = self.pager.page_size();
        let total = self.position();
        let padded = self.buf.len().div_ceil(ps).max(usize::from(total == 0)) * ps;
        self.buf.resize(padded, 0);
        self.flush_whole_pages()?;
        Ok((self.start.expect("region has at least one page"), total))
    }
}

pub mod enc {
    //! The little-endian codec of every index file's metadata: the `put_*`
    //! writers append to a `Vec<u8>`, and one bounded [`Reader`] reads them
    //! back, so a damaged file decodes to `InvalidData`, never a panic.

    use std::io;

    /// Appends a `u32`.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64`.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f32`.
    pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f32` slice (compiles to one reserve and a block copy).
    pub fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
        buf.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Reads what the `put_*` writers wrote, front to back. A read that
    /// runs past the end is [`io::ErrorKind::InvalidData`], and a count is
    /// checked against the bytes that remain before anything is allocated
    /// for it.
    #[derive(Debug, Clone)]
    pub struct Reader<'a> {
        rest: &'a [u8],
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Self { rest: buf }
        }

        /// Bytes not yet read.
        pub fn remaining(&self) -> usize {
            self.rest.len()
        }

        /// Refuses `n` records of `each` bytes that the rest cannot hold.
        fn fits(&self, n: usize, each: usize) -> io::Result<()> {
            if n.saturating_mul(each) <= self.rest.len() {
                return Ok(());
            }
            let left = self.rest.len();
            let why = format!("record cut short: {n} × {each} bytes wanted, {left} left");
            Err(io::Error::new(io::ErrorKind::InvalidData, why))
        }

        fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
            self.fits(n, 1)?;
            let (head, rest) = self.rest.split_at(n);
            self.rest = rest;
            Ok(head)
        }

        fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
            Ok(self.take(N)?.try_into().expect("took N bytes"))
        }

        /// Reads a `u32`.
        pub fn u32(&mut self) -> io::Result<u32> {
            self.array().map(u32::from_le_bytes)
        }
        /// Reads a `u64`.
        pub fn u64(&mut self) -> io::Result<u64> {
            self.array().map(u64::from_le_bytes)
        }
        /// Reads an `f64`.
        pub fn f64(&mut self) -> io::Result<f64> {
            self.array().map(f64::from_le_bytes)
        }
        /// Reads an `f32`.
        pub fn f32(&mut self) -> io::Result<f32> {
            self.array().map(f32::from_le_bytes)
        }
        /// Reads `n` `f32`s.
        pub fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
            self.many(n, f32::from_le_bytes)
        }
        /// Reads `n` `u64`s.
        pub fn u64s(&mut self, n: usize) -> io::Result<Vec<u64>> {
            self.many(n, u64::from_le_bytes)
        }

        fn many<const N: usize, T>(&mut self, n: usize, f: fn([u8; N]) -> T) -> io::Result<Vec<T>> {
            let bytes = self.take(n.saturating_mul(N))?.chunks_exact(N);
            Ok(bytes
                .map(|b| f(b.try_into().expect("N-byte chunk")))
                .collect())
        }

        /// Reads a `u32` count of records at least `each` bytes long,
        /// refused when the bytes left cannot hold that many.
        pub fn count(&mut self, each: usize) -> io::Result<usize> {
            let n = self.u32()? as usize;
            self.fits(n, each).map(|()| n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_roundtrip_multiple_pages() {
        let pager = Pager::in_memory(64, 128);
        let bytes: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let start = write_blob(&pager, &bytes).unwrap();
        assert_eq!(read_blob(&pager, start, bytes.len()).unwrap(), bytes);
    }

    #[test]
    fn blob_partial_reads() {
        let pager = Pager::in_memory(64, 128);
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let start = write_blob(&pager, &bytes).unwrap();
        for &(off, len) in &[
            (0usize, 10usize),
            (60, 10),
            (63, 2),
            (128, 64),
            (999, 1),
            (0, 1000),
        ] {
            let got = read_blob_range(&pager, start, off, len).unwrap();
            assert_eq!(got, &bytes[off..off + len], "off={off} len={len}");
        }
    }

    #[test]
    fn partial_read_touches_only_covering_pages() {
        let pager = Pager::in_memory(64, 128);
        let bytes = vec![7u8; 640]; // 10 pages
        let start = write_blob(&pager, &bytes).unwrap();
        pager.stats().reset();
        let _ = read_blob_range(&pager, start, 128, 64).unwrap(); // exactly page 2
        assert_eq!(pager.stats().snapshot().logical_reads, 1);
        pager.stats().reset();
        let _ = read_blob_range(&pager, start, 100, 64).unwrap(); // spans pages 1..=2
        assert_eq!(pager.stats().snapshot().logical_reads, 2);
    }

    #[test]
    fn empty_and_tiny_blobs() {
        let pager = Pager::in_memory(64, 16);
        let start = write_blob(&pager, &[]).unwrap();
        assert_eq!(read_blob(&pager, start, 0).unwrap(), Vec::<u8>::new());
        let start = write_blob(&pager, &[42]).unwrap();
        assert_eq!(read_blob(&pager, start, 1).unwrap(), vec![42]);
    }

    #[test]
    fn region_writer_packs_records() {
        let pager = Pager::in_memory(64, 256);
        let mut w = RegionWriter::new(&pager);
        let mut offsets = Vec::new();
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 7 + (i as usize % 5)]).collect();
        for r in &records {
            offsets.push(w.append(r).unwrap());
        }
        let (start, len) = w.finish().unwrap();
        let expected_len: u64 = records.iter().map(|r| r.len() as u64).sum();
        assert_eq!(len, expected_len);
        // Packed: far fewer pages than one per record.
        assert!(pager.num_pages() <= len.div_ceil(64) + 1);
        for (off, rec) in offsets.iter().zip(&records) {
            let got = read_blob_range(&pager, start, *off as usize, rec.len()).unwrap();
            assert_eq!(&got, rec);
        }
    }

    #[test]
    fn region_writer_empty_region() {
        let pager = Pager::in_memory(64, 16);
        let w = RegionWriter::new(&pager);
        let (_, len) = w.finish().unwrap();
        assert_eq!(len, 0);
    }

    #[test]
    fn region_writer_exact_page_multiple() {
        let pager = Pager::in_memory(64, 16);
        let mut w = RegionWriter::new(&pager);
        w.append(&[7u8; 128]).unwrap();
        let (start, len) = w.finish().unwrap();
        assert_eq!(len, 128);
        assert_eq!(
            read_blob_range(&pager, start, 0, 128).unwrap(),
            vec![7u8; 128]
        );
    }

    #[test]
    fn enc_roundtrip() {
        use enc::*;
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -1.5);
        put_f32(&mut buf, 0.25);
        put_f32s(&mut buf, &[1.0, 2.5, -3.25]);
        put_u64(&mut buf, 9);
        put_u64(&mut buf, 10);
        let read = |buf: &[u8]| -> std::io::Result<_> {
            let mut r = Reader::new(buf);
            let n = r.count(8)?;
            let v = (r.u64()?, r.f64()?, r.f32()?, r.f32s(3)?, r.u64s(n)?);
            Ok((v, r.remaining()))
        };
        let want = (u64::MAX - 3, -1.5, 0.25, vec![1.0, 2.5, -3.25], vec![9, 10]);
        assert_eq!(read(&buf).unwrap(), (want, 0));
        // Every cut is an error, whichever read it lands in.
        for cut in 0..buf.len() {
            let err = read(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // A wild count is refused before anything is allocated for it (an
        // allocation of 2^32 · 16 bytes or 2^64 floats would abort).
        let mut wild = Vec::new();
        put_u32(&mut wild, u32::MAX);
        put_f32s(&mut wild, &[0.0; 8]);
        let mut r = Reader::new(&wild);
        assert!(r.count(16).is_err());
        assert!(r.f32s(usize::MAX).is_err());
        assert!(r.u64s(usize::MAX / 4).is_err());
        assert_eq!(r.remaining(), 32, "a refused bulk read consumes nothing");
    }
}
