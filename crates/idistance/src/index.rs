//! The queryable index: annulus range search, point fetches, persistence.

use std::io;
use std::sync::Arc;

use promips_linalg::{dist, dot4_i8, dot_col_i8, dot_i8, sq_dist_col};
use promips_storage::{AccessStatsSnapshot, PageBuf, PageId, Pager, DEFAULT_SHARDS};

use crate::head::HeadBasis;
use crate::knn::NnIter;
use crate::layout::{enc, read_blob, read_blob_range, write_blob};
use crate::meta::{OrigQuant, PartitionMeta, SubPartMeta};

/// A packed byte region: `(start_page, byte_len)`; pages are consecutive.
pub type Region = (PageId, u64);

/// The on-disk format's magic, for a file whose verification codes are not
/// heads. The footer has 12 fixed fields: the projected and original
/// regions and the directory blob. The SQ8 verification code region over
/// the original vectors and its per-sub-partition quantizer directory ride
/// the directory blob; a build without the verification tier
/// ([`crate::IDistanceConfig::verify_quantize`] off) leaves
/// [`REGION_ABSENT`] in its region slot. Any other magic is rejected —
/// among them `…F009` and `…F00B`, the two magics of the format that also
/// carried an SQ8 code region over the projected rows, and `…F00C` and
/// `…F00D`, the two of the format that also carried a B+-tree over the
/// sub-partition keys.
const FOOTER_MAGIC: u64 = 0x1D15_7A4C_E01D_F00E;

/// The magic of a file whose verification codes are heads: the same
/// footer, and a directory blob that ends with the [`HeadBasis`] (width
/// `h`, defect `δ`, the `h·d` basis floats behind their count) and two
/// bounds per sub-partition, `tail` and `suffix_norm`. The code region
/// is three columns, each in storage order: every row's prefix (codes
/// `0..h/2`), every row's suffix (`h/2..h`), then every row's one-byte
/// suffix-norm code ([`crate::head::suffix_code`]) — `n·(h + 1)` bytes. A
/// head under [`FOOTER_MAGIC`] — one column of whole heads, no suffix
/// norms — is refused, as is this magic without a head; so is `…F00A`,
/// the two columns without the norm codes, by being neither magic.
const HEAD_FOOTER_MAGIC: u64 = 0x1D15_7A4C_E01D_F00F;

/// Sentinel start-page marking an absent region (a real region can never
/// start there: the file would exceed every address space).
const REGION_ABSENT: u64 = u64::MAX;

/// Fixed on-disk footer length: its 12 8-byte fields. For any page size
/// ≥ 96 this is one zero-padded page; smaller (test-only) page sizes
/// spill onto consecutive pages instead of silently truncating (see
/// [`footer_span_pages`]).
const FOOTER_BYTES: usize = 12 * 8;

/// Number of trailing pages the iDistance footer occupies for a given page
/// size — the builder writes the footer as the file's last
/// `footer_span_pages` pages, and layers that append their own data after
/// it (the full ProMIPS persistence) use this to find the footer start.
pub fn footer_span_pages(page_size: usize) -> u64 {
    FOOTER_BYTES.div_ceil(page_size).max(1) as u64
}

/// A point surfaced by a projected-space range search.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeCandidate {
    /// Point id (row in the original dataset).
    pub id: u64,
    /// Euclidean distance between the projected point and the projected
    /// query.
    pub proj_dist: f64,
    /// Sub-partition holding the point.
    pub subpart: u32,
    /// Record offset inside the sub-partition.
    pub offset: u32,
}

/// A reusable decode arena for projected records: a `u64` id column plus a
/// flat `f32` row arena (row `i` at `rows[i*m .. (i+1)*m]`).
///
/// One scratch serves any number of sequential scans: each
/// [`IDistanceIndex::read_subpart_proj_into`] call clears and refills it, so
/// buffers grow to the largest sub-partition seen and are never reallocated
/// afterwards. This is what makes the annulus range scan allocation-free on
/// its steady-state path — the legacy `Vec<(u64, Vec<f32>)>` decode paid one
/// heap allocation per record.
#[derive(Debug, Default)]
pub struct ProjScratch {
    ids: Vec<u64>,
    rows: Vec<f32>,
    m: usize,
}

impl ProjScratch {
    /// A fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of decoded records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the scratch holds no records.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id column, in record order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Id of record `i`.
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Projected vector of record `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.rows[i * self.m..(i + 1) * self.m]
    }

    fn reset(&mut self, m: usize, count: usize) {
        self.m = m;
        self.ids.clear();
        self.rows.clear();
        self.ids.reserve(count);
        self.rows.reserve(count * m);
    }

    /// Calls `f(offset, id, proj_dist)` for every decoded record with its
    /// Euclidean distance to `pq`, the whole arena going through the
    /// [`sq_dist_col`] column kernel — one dispatch per `CHUNK` rows,
    /// through a stack buffer, so no caller needs a distance scratch.
    ///
    /// A record's distance does not depend on its position in the arena,
    /// so repeated scans — and the range-search and incremental-NN paths,
    /// which both come through here — compute bit-identical distances for
    /// the same point.
    pub fn for_each_dist(&self, pq: &[f32], mut f: impl FnMut(usize, u64, f64)) {
        const CHUNK: usize = 256;
        let m = self.m;
        let mut d2 = [0.0f64; CHUNK];
        for (c, ids) in self.ids.chunks(CHUNK).enumerate() {
            let at = c * CHUNK;
            let d2 = &mut d2[..ids.len()];
            sq_dist_col(&self.rows[at * m..(at + ids.len()) * m], m, pq, d2);
            for (i, (&id, &v)) in ids.iter().zip(d2.iter()).enumerate() {
                f(at + i, id, v.sqrt());
            }
        }
    }
}

/// Decodes one little-endian `f32` from a 4-byte chunk.
fn le_f32(c: &[u8]) -> f32 {
    f32::from_le_bytes(c.try_into().expect("4-byte chunk"))
}

/// A cursor over one packed byte region: fetches covering pages on demand,
/// keeps the pages it fetched last pinned across ranges, and hands the
/// caller maximal in-page byte chunks. Every record reader — the
/// projected-record decoder, [`OrigCursor`] and
/// [`IDistanceIndex::screen_dots`] — walks its ranges through this one page
/// at a time, so the page-boundary discipline lives in one place. The
/// column sweep's cursor ([`PageCursor::sweep`]) fetches a window of
/// consecutive pages per [`Pager::read_run`] instead.
struct PageCursor<'a> {
    pager: &'a Pager,
    region_start: PageId,
    ps: usize,
    /// Region pages a fetch takes, at most: 1, or the pool's stripe count.
    window: usize,
    /// Region pages; a window never passes the region's end.
    region_pages: u64,
    /// The pinned window: `len` pages from region page `first` on.
    pages: [Option<Arc<PageBuf>>; DEFAULT_SHARDS],
    first: u64,
    len: usize,
}

impl<'a> PageCursor<'a> {
    fn new(pager: &'a Pager, region_start: PageId) -> Self {
        Self {
            pager,
            region_start,
            ps: pager.page_size(),
            window: 1,
            region_pages: u64::MAX,
            pages: Default::default(),
            first: 0,
            len: 0,
        }
    }

    /// A cursor that reads `region` front to back, fetching as many pages
    /// at a time as the pool has stripes: each stripe then sees the reads
    /// one page at a time would show it, with a device read per run of
    /// misses instead of one a page.
    fn sweep(pager: &'a Pager, (start, bytes): Region) -> Self {
        Self {
            window: pager.stripes().min(DEFAULT_SHARDS),
            region_pages: bytes.div_ceil(pager.page_size() as u64),
            ..Self::new(pager, start)
        }
    }

    /// The bytes of region page `pid`, pinned until a page outside the
    /// window is asked for: one logical read, none when it is pinned.
    fn page(&mut self, pid: u64) -> io::Result<&[u8]> {
        let mut at = pid.wrapping_sub(self.first) as usize;
        if at >= self.len {
            let n = self.window.min((self.region_pages - pid) as usize);
            let old = std::mem::take(&mut self.len);
            self.pages[n.min(old)..old].fill(None);
            self.pager
                .read_run(self.region_start + pid, &mut self.pages[..n])?;
            (self.first, self.len, at) = (pid, n, 0);
        }
        Ok(self.pages[at].as_deref().expect("window page").as_slice())
    }

    /// Calls `f` with each maximal in-page chunk of region bytes
    /// `[start, start + len)`, in order. The current page stays pinned
    /// across calls, so consecutive ranges touching the same page read it
    /// once (the sequential-read page count the packed layout is for).
    fn walk(&mut self, start: usize, len: usize, mut f: impl FnMut(&[u8])) -> io::Result<()> {
        let mut cursor = start;
        let end = start + len;
        while cursor < end {
            let (ps, in_page) = (self.ps, cursor % self.ps);
            let page = self.page((cursor / ps) as u64)?;
            let n = (ps - in_page).min(end - cursor);
            f(&page[in_page..in_page + n]);
            cursor += n;
        }
        Ok(())
    }
}

/// A reader of one sub-partition's original vectors that keeps its current
/// page pinned between calls: several [`OrigCursor::decode_into`] calls over
/// ascending offsets read each covering page once *together*, where separate
/// [`IDistanceIndex::fetch_originals`] calls would each re-read the page
/// they share with the previous one.
pub struct OrigCursor<'a> {
    pages: PageCursor<'a>,
    index: &'a IDistanceIndex,
    /// Byte offset of the sub-partition's first record in the region.
    base: usize,
    count: u32,
}

impl OrigCursor<'_> {
    /// Re-aims the cursor at sub-partition `sub`, keeping the pinned page:
    /// a reader moving through sub-partitions in directory order still
    /// reads every covering page once.
    pub fn seek(&mut self, sub: u32) {
        let sp = &self.index.subparts[sub as usize];
        self.base = sp.orig_off as usize;
        self.count = sp.count;
    }

    /// Decodes the records at `offsets` into the flat arena: record `i` of
    /// the request lands at `arena[i*d .. (i+1)*d]`. The arena is cleared
    /// first, so buffers can be reused across calls and queries without
    /// per-query allocation.
    ///
    /// Ascending offsets visit the covering pages monotonically and read
    /// each exactly once — the sequential-read page count the paper's
    /// layout is designed for. Out-of-order offsets stay correct (a page
    /// may just be re-read).
    pub fn decode_into(&mut self, offsets: &[u32], arena: &mut Vec<f32>) -> io::Result<()> {
        let d = self.index.d;
        let rec = 4 * d;
        arena.clear();
        arena.reserve(offsets.len() * d);
        // Partial f32 carried across a page boundary (only possible when the
        // page size is not a multiple of 4; real configurations never hit it).
        let mut word = [0u8; 4];
        let mut have = 0usize;
        for &o in offsets {
            debug_assert!(o < self.count, "offset out of range");
            let start = self.base + o as usize * rec;
            self.pages.walk(start, rec, |mut chunk| {
                if have > 0 {
                    let need = (4 - have).min(chunk.len());
                    word[have..have + need].copy_from_slice(&chunk[..need]);
                    have += need;
                    chunk = &chunk[need..];
                    if have < 4 {
                        return; // chunk exhausted while the word is partial
                    }
                    arena.push(f32::from_le_bytes(word));
                }
                let whole = chunk.len() / 4 * 4;
                arena.extend(chunk[..whole].chunks_exact(4).map(le_f32));
                let rem = &chunk[whole..];
                word[..rem.len()].copy_from_slice(rem);
                have = rem.len();
            })?;
            debug_assert_eq!(have, 0, "record length is a multiple of 4 bytes");
        }
        Ok(())
    }
}

/// The verification screen's kernel loop over one *run* of a group's SQ8
/// code rows ([`IDistanceIndex::screen_dots`]): pushes `Σⱼ codeⱼ·qcodesⱼ`
/// for the `w`-byte rows starting at region bytes `start_of(0)`,
/// `start_of(1)`, … — as many of the `n` on offer as form one run — and
/// returns how many that was (at least one).
///
/// A run is either the maximal prefix of rows lying inside the first row's
/// page or, when the first row itself straddles a page boundary, that
/// single row as the sum of its per-page partial [`dot_i8`]s (integer
/// arithmetic, so exactly the whole row's dot). An in-page run whose rows
/// are adjacent — a group that asks for neighbouring records — is one
/// [`dot_col_i8`] call on a slice of the pinned page; scattered rows go
/// through [`dot4_i8`] four at a time and [`dot_i8`] for the last one to
/// three.
fn run_dots(
    pages: &mut PageCursor<'_>,
    w: usize,
    n: usize,
    start_of: impl Fn(usize) -> usize,
    qcodes: &[i8],
    dots: &mut Vec<i32>,
) -> io::Result<usize> {
    let ps = pages.ps;
    let start = start_of(0);
    let page_lo = start / ps * ps;
    let inside = |i: usize| start_of(i) >= page_lo && start_of(i) + w <= page_lo + ps;
    let run = (0..n).take_while(|&i| inside(i)).count();
    if run == 0 {
        let (mut dot, mut at) = (0i32, 0usize);
        pages.walk(start, w, |chunk| {
            dot += dot_i8(chunk, &qcodes[at..at + chunk.len()]);
            at += chunk.len();
        })?;
        dots.push(dot);
        return Ok(1);
    }
    let page = pages.page((page_lo / ps) as u64)?;
    if (1..run).all(|i| start_of(i) == start + i * w) {
        let at = dots.len();
        dots.resize(at + run, 0);
        let rows = &page[start - page_lo..][..run * w];
        dot_col_i8(rows, w, qcodes, &mut dots[at..]);
        return Ok(run);
    }
    let row = |i: usize| &page[start_of(i) - page_lo..][..w];
    let mut i = 0;
    while i + 4 <= run {
        dots.extend(dot4_i8(row(i), row(i + 1), row(i + 2), row(i + 3), qcodes));
        i += 4;
    }
    dots.extend((i..run).map(|i| dot_i8(row(i), qcodes)));
    Ok(run)
}

/// A reader of point ids — the first 8 bytes of each projected record —
/// that keeps its current page pinned between calls, so ascending
/// `(sub, offset)` requests read each covering page once.
pub struct IdCursor<'a> {
    pages: PageCursor<'a>,
    index: &'a IDistanceIndex,
}

impl IdCursor<'_> {
    /// The id of the record at `offset` in sub-partition `sub`.
    pub fn id(&mut self, sub: u32, offset: u32) -> io::Result<u64> {
        let sp = &self.index.subparts[sub as usize];
        debug_assert!(offset < sp.count, "offset out of range");
        let start = sp.proj_off as usize + offset as usize * (8 + 4 * self.index.m);
        let (mut id, mut at) = ([0u8; 8], 0usize);
        self.pages.walk(start, 8, |chunk| {
            id[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        })?;
        Ok(u64::from_le_bytes(id))
    }
}

/// A reader of a head index's **suffix** code rows — codes `h/2..h` of
/// each head, the column [`IDistanceIndex::column_dots`] leaves unread —
/// that keeps its current page pinned between calls, so rows read in
/// ascending order read each covering page once, and a row on the page the
/// last call read reads none.
pub struct SuffixCursor<'a> {
    pages: PageCursor<'a>,
    index: &'a IDistanceIndex,
}

impl SuffixCursor<'_> {
    /// The integer dot `Σⱼ codeⱼ·qcodesⱼ` over `j ∈ h/2..h` of the row at
    /// `offset` in sub-partition `sub` (`qcodes` is the whole coded query,
    /// [`IDistanceIndex::code_width`] long): what the row's prefix dot from
    /// the sweep lacks of its whole row's. A row straddling pages is the sum
    /// of its per-page partial [`dot_i8`]s. Full-width codes have no suffix:
    /// 0, no page read.
    ///
    /// # Panics
    /// If `qcodes` is not [`IDistanceIndex::code_width`] long.
    pub fn dot(&mut self, sub: u32, offset: u32, qcodes: &[i8]) -> io::Result<i32> {
        let index = self.index;
        assert_eq!(
            qcodes.len(),
            index.code_width(),
            "quantized query has wrong dimension"
        );
        debug_assert!(
            offset < index.subparts[sub as usize].count,
            "offset out of range"
        );
        let p = index.prefix_width();
        let q = &qcodes[p..];
        let row = index.vquants[sub as usize].off as usize / p + offset as usize;
        let (mut dot, mut at) = (0, 0);
        self.pages
            .walk(index.suffix_base() + row * q.len(), q.len(), |chunk| {
                dot += dot_i8(chunk, &q[at..at + chunk.len()]);
                at += chunk.len();
            })?;
        Ok(dot)
    }
}

/// iDistance index handle (see the crate docs for the structure).
pub struct IDistanceIndex {
    pager: Arc<Pager>,
    m: usize,
    d: usize,
    epsilon: f64,
    ring_c: u64,
    proj_region: Region,
    orig_region: Region,
    /// The packed SQ8 verification code region over original vectors;
    /// `None` on `verify_quantize: false` builds, which verify through the
    /// f32 path alone.
    code_region: Option<Region>,
    partitions: Vec<PartitionMeta>,
    subparts: Vec<SubPartMeta>,
    pivots: Vec<f32>,
    row_bounds: Vec<usize>,
    /// Per-sub-partition verification quantizers, parallel to `subparts`
    /// (empty when `code_region` is `None`).
    vquants: Vec<OrigQuant>,
    /// The basis the verification codes are heads under; `None` when they
    /// cover all `d` coordinates (and always when `code_region` is).
    head: Option<HeadBasis>,
    n_points: u64,
}

impl IDistanceIndex {
    /// Internal constructor used by the builder and by [`Self::open`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        pager: Arc<Pager>,
        m: usize,
        d: usize,
        epsilon: f64,
        ring_c: u64,
        proj_region: Region,
        orig_region: Region,
        code_region: Option<Region>,
        partitions: Vec<PartitionMeta>,
        subparts: Vec<SubPartMeta>,
        pivots: Vec<f32>,
        vquants: Vec<OrigQuant>,
        head: Option<HeadBasis>,
        n_points: u64,
    ) -> Self {
        debug_assert!(
            if code_region.is_some() {
                vquants.len() == subparts.len()
            } else {
                vquants.is_empty()
            },
            "verification-quantizer directory must parallel the sub-partition directory"
        );
        let mut row_bounds = vec![0];
        for sp in &subparts {
            row_bounds.push(row_bounds[row_bounds.len() - 1] + sp.count as usize);
        }
        Self {
            pager,
            m,
            d,
            epsilon,
            ring_c,
            proj_region,
            orig_region,
            code_region,
            row_bounds,
            partitions,
            subparts,
            pivots,
            vquants,
            head,
            n_points,
        }
    }

    /// Projected dimensionality `m`.
    pub fn proj_dim(&self) -> usize {
        self.m
    }

    /// Original dimensionality `d`.
    pub fn orig_dim(&self) -> usize {
        self.d
    }

    /// Ring width `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Partition key stride `C` of Formula 6.
    pub fn ring_c(&self) -> u64 {
        self.ring_c
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.n_points
    }

    /// True when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// First-stage partitions.
    pub fn partitions(&self) -> &[PartitionMeta] {
        &self.partitions
    }

    /// Sub-partition directory.
    pub fn subparts(&self) -> &[SubPartMeta] {
        &self.subparts
    }

    /// Sub-partition `sub`'s pivot: `m` floats of the flat pivot column.
    pub fn pivot(&self, sub: u32) -> &[f32] {
        &self.pivots[sub as usize * self.m..][..self.m]
    }

    /// Sub-partition `s` holds rows `row_bounds()[s]..row_bounds()[s + 1]`
    /// of the storage order [`Self::column_dots`] numbers rows in.
    pub fn row_bounds(&self) -> &[usize] {
        &self.row_bounds
    }

    /// The backing pager (page-access counters live here).
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Convenience: current page-access snapshot.
    pub fn access_stats(&self) -> AccessStatsSnapshot {
        self.pager.stats().snapshot()
    }

    /// Total bytes of the index file (Index Size metric).
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes()
    }

    /// The packed projected-record region `(start_page, byte_len)`.
    pub fn proj_region(&self) -> Region {
        self.proj_region
    }

    /// The packed original-record region `(start_page, byte_len)`.
    pub fn orig_region(&self) -> Region {
        self.orig_region
    }

    /// The packed SQ8 verification code region over original vectors, if
    /// the verification tier is built.
    pub fn code_region(&self) -> Option<Region> {
        self.code_region
    }

    /// Whether candidate verification can run the quantized screen.
    pub fn verify_quantized(&self) -> bool {
        self.code_region.is_some()
    }

    /// Per-sub-partition verification quantizers (parallel to
    /// [`Self::subparts`]; empty when the verification tier is absent).
    pub fn vquants(&self) -> &[OrigQuant] {
        &self.vquants
    }

    /// The basis the verification codes are heads under, if they are.
    pub fn head(&self) -> Option<&HeadBasis> {
        self.head.as_ref()
    }

    /// Bytes per verification code row: the head width `h` under a
    /// [`HeadBasis`], else `d`.
    pub fn code_width(&self) -> usize {
        self.head.as_ref().map_or(self.d, HeadBasis::width)
    }

    /// Bytes per row of the code column [`Self::column_dots`] sweeps: the
    /// head's prefix `h/2` under a [`HeadBasis`], else the whole row `d`.
    /// Where it is less than [`Self::code_width`] the rest of each row is
    /// the suffix column, read by [`Self::suffix_cursor`].
    pub fn prefix_width(&self) -> usize {
        self.head.as_ref().map_or(self.d, HeadBasis::prefix_width)
    }

    // --- Range search ----------------------------------------------------

    /// Annulus range search in the projected space: returns every point with
    /// `r_lo < proj_dist ≤ r_hi`, grouped by sub-partition in directory
    /// order. Pass `r_lo < 0` for a plain ball query.
    ///
    /// Page accesses: the projected records of every sub-partition whose
    /// ring key falls in the annulus's key range and whose pivot sphere
    /// intersects the annulus, each read whole, once. The key range is found
    /// by binary search over the in-memory directory, which reads no page.
    pub fn range_candidates(
        &self,
        pq: &[f32],
        r_lo: f64,
        r_hi: f64,
    ) -> io::Result<Vec<RangeCandidate>> {
        let mut out = Vec::new();
        self.range_candidates_into(pq, r_lo, r_hi, &mut out, &mut ProjScratch::new())?;
        Ok(out)
    }

    /// As [`Self::range_candidates`], but clears and fills a caller-provided
    /// candidate buffer and decodes through a caller-provided arena — the
    /// batched search path reuses one of each per worker thread, so the
    /// steady-state scan performs no per-record (or per-query) heap
    /// allocation at all.
    pub fn range_candidates_into(
        &self,
        pq: &[f32],
        r_lo: f64,
        r_hi: f64,
        out: &mut Vec<RangeCandidate>,
        scratch: &mut ProjScratch,
    ) -> io::Result<()> {
        self.range_candidates_ticked(pq, r_lo, r_hi, out, scratch, || Ok(()))
    }

    /// [`Self::range_candidates_into`] calling `tick` before each
    /// sub-partition it scans — where a budgeted caller checks its deadline.
    /// An error from `tick` stops the scan; `out` then holds the candidates
    /// of the sub-partitions scanned so far.
    pub fn range_candidates_ticked(
        &self,
        pq: &[f32],
        r_lo: f64,
        r_hi: f64,
        out: &mut Vec<RangeCandidate>,
        scratch: &mut ProjScratch,
        mut tick: impl FnMut() -> io::Result<()>,
    ) -> io::Result<()> {
        assert_eq!(pq.len(), self.m, "query has wrong projected dimension");
        out.clear();
        for (part_idx, part) in self.partitions.iter().enumerate() {
            let dc = dist(pq, &part.center);
            if dc - r_hi > part.radius {
                continue; // query ball misses the partition sphere entirely
            }
            let ring_lo = ((dc - r_hi).max(0.0) / self.epsilon).floor() as u64;
            let ring_hi_geom = ((dc + r_hi) / self.epsilon).floor() as u64;
            let ring_cap = (part.radius / self.epsilon).floor() as u64;
            let ring_hi = ring_hi_geom.min(ring_cap);
            if ring_lo > ring_hi {
                continue;
            }
            let key_lo = part_idx as u64 * self.ring_c + ring_lo;
            let key_hi = part_idx as u64 * self.ring_c + ring_hi;
            // The directory is in key order (`open_at` refuses one that is
            // not), so the keyed sub-partitions are one run of it.
            let lo = self.subparts.partition_point(|sp| sp.key < key_lo);
            let hi = self.subparts.partition_point(|sp| sp.key <= key_hi);
            for (sub, sp) in (lo as u32..).zip(&self.subparts[lo..hi]) {
                let dp = dist(pq, self.pivot(sub));
                // Sphere filter (paper Fig. 3): skip sub-partitions that
                // cannot contain a point in the annulus.
                if dp - sp.radius > r_hi || dp + sp.radius <= r_lo {
                    continue;
                }
                tick()?;
                self.read_subpart_proj_into(sub, scratch)?;
                scratch.for_each_dist(pq, |offset, id, pd| {
                    if pd > r_lo && pd <= r_hi {
                        out.push(RangeCandidate {
                            id,
                            proj_dist: pd,
                            subpart: sub,
                            offset: offset as u32,
                        });
                    }
                });
            }
        }
        Ok(())
    }

    /// Decodes a sub-partition's projected records into `scratch` (id
    /// column plus flat row arena), reading the covering pages directly —
    /// no intermediate blob, no per-record allocation.
    pub fn read_subpart_proj_into(&self, sub: u32, scratch: &mut ProjScratch) -> io::Result<()> {
        let sp = &self.subparts[sub as usize];
        let (m, count) = (self.m, sp.count as usize);
        scratch.reset(m, count);
        let ProjScratch { ids, rows, .. } = scratch;
        // Fields (an 8-byte id, then `m` 4-byte floats per record) may
        // straddle page boundaries; a partial field is staged in a small
        // word buffer.
        let rec = 8 + 4 * m;
        // Field currently being assembled: `need` is 8 while expecting an
        // id, 4 while expecting one of the record's `floats_left` floats.
        let mut field = [0u8; 8];
        let mut have = 0usize;
        let mut need = 8usize;
        let mut floats_left = 0usize;
        let mut pages = PageCursor::new(&self.pager, self.proj_region.0);
        pages.walk(sp.proj_off as usize, count * rec, |mut chunk| {
            while !chunk.is_empty() {
                // Bulk path: whole records straight off the page.
                if have == 0 && need == 8 && chunk.len() >= rec {
                    let whole = chunk.len() / rec * rec;
                    for r in chunk[..whole].chunks_exact(rec) {
                        ids.push(u64::from_le_bytes(r[..8].try_into().expect("8-byte id")));
                        rows.extend(r[8..].chunks_exact(4).map(le_f32));
                    }
                    chunk = &chunk[whole..];
                    continue;
                }
                // Bulk path: decode whole floats straight off the page.
                if have == 0 && need == 4 && chunk.len() >= 4 {
                    let take = floats_left.min(chunk.len() / 4);
                    rows.extend(chunk[..take * 4].chunks_exact(4).map(le_f32));
                    floats_left -= take;
                    if floats_left == 0 {
                        need = 8;
                    }
                    chunk = &chunk[take * 4..];
                    continue;
                }
                // Bulk path: a whole id inside the chunk.
                if have == 0 && need == 8 && chunk.len() >= 8 {
                    ids.push(u64::from_le_bytes(
                        chunk[..8].try_into().expect("8-byte id"),
                    ));
                    floats_left = m;
                    need = 4;
                    chunk = &chunk[8..];
                    continue;
                }
                // Straddle path: stage bytes until the field completes.
                let take = (need - have).min(chunk.len());
                field[have..have + take].copy_from_slice(&chunk[..take]);
                have += take;
                chunk = &chunk[take..];
                if have < need {
                    continue; // chunk exhausted mid-field
                }
                if need == 8 {
                    ids.push(u64::from_le_bytes(field));
                    floats_left = m;
                    need = 4;
                } else {
                    rows.push(f32::from_le_bytes(
                        field[..4].try_into().expect("4-byte word"),
                    ));
                    floats_left -= 1;
                    if floats_left == 0 {
                        need = 8;
                    }
                }
                have = 0;
            }
        })?;
        debug_assert_eq!(have, 0, "record stream ends on a field boundary");
        debug_assert_eq!(ids.len(), count);
        debug_assert_eq!(rows.len(), count * m);
        Ok(())
    }

    // --- Original-vector fetches ------------------------------------------

    /// A pinned-page reader over sub-partition `sub`'s original vectors.
    pub fn orig_cursor(&self, sub: u32) -> OrigCursor<'_> {
        let mut cursor = OrigCursor {
            pages: PageCursor::new(&self.pager, self.orig_region.0),
            index: self,
            base: 0,
            count: 0,
        };
        cursor.seek(sub);
        cursor
    }

    /// A pinned-page reader of point ids out of the projected records.
    pub fn id_cursor(&self) -> IdCursor<'_> {
        IdCursor {
            pages: PageCursor::new(&self.pager, self.proj_region.0),
            index: self,
        }
    }

    /// A pinned-page reader of the suffix code rows (the second half of
    /// [`Self::screen_dots`], a row at a time).
    ///
    /// # Panics
    /// If the index has no verification tier.
    pub fn suffix_cursor(&self) -> SuffixCursor<'_> {
        let (start, _) = self
            .code_region
            .expect("suffix_cursor requires the verification tier");
        SuffixCursor {
            pages: PageCursor::new(&self.pager, start),
            index: self,
        }
    }

    /// Fetches the original vectors at the given record offsets of one
    /// sub-partition through a fresh [`OrigCursor`] (see
    /// [`OrigCursor::decode_into`] for the arena layout and page counts).
    pub fn fetch_originals(
        &self,
        sub: u32,
        offsets: &[u32],
        arena: &mut Vec<f32>,
    ) -> io::Result<()> {
        self.orig_cursor(sub).decode_into(offsets, arena)
    }

    /// The verification screen's integer inner products, computed where
    /// the rows sit: clears `dots` and pushes `Σⱼ codeⱼ·qcodesⱼ` for the SQ8
    /// verification code row at each of `offsets` in sub-partition `sub`,
    /// in request order (`qcodes` is the quantized query in the coded
    /// space, [`Self::code_width`] long). A head's row is its prefix's dot
    /// plus its suffix's — integer arithmetic, so exactly the whole row's.
    ///
    /// No code byte is copied. The rows of the request that lie inside one
    /// page go through the integer kernels as slices of the pinned page
    /// ([`dot_col_i8`] when they are adjacent, else [`dot4_i8`] and
    /// [`dot_i8`]); a row that straddles a page boundary is the sum of its
    /// per-page partial [`dot_i8`]s — integer arithmetic, so the sum is the
    /// whole row's dot exactly, whichever kernel or grouping produced it.
    ///
    /// Page reads are those of one cursor walking the rows in request
    /// order through each column: ascending offsets read each covering page
    /// exactly once.
    ///
    /// # Panics
    /// In every build: if the index has no verification tier
    /// ([`Self::verify_quantized`] is false) or `qcodes` is not
    /// [`Self::code_width`] long.
    pub fn screen_dots(
        &self,
        sub: u32,
        offsets: &[u32],
        qcodes: &[i8],
        dots: &mut Vec<i32>,
    ) -> io::Result<()> {
        let region = self
            .code_region
            .expect("screen_dots requires the verification tier");
        let w = self.code_width();
        assert_eq!(qcodes.len(), w, "quantized query has wrong dimension");
        let (p, n) = (self.prefix_width(), offsets.len());
        dots.clear();
        self.rows_dots(region, sub, 0, offsets, &qcodes[..p], dots)?;
        if p < w {
            // The suffixes land behind the prefixes, then fold into them.
            let suffix = self.suffix_base();
            self.rows_dots(region, sub, suffix, offsets, &qcodes[p..], dots)?;
            let (whole, suffix) = dots.split_at_mut(n);
            whole.iter_mut().zip(&*suffix).for_each(|(d, s)| *d += s);
            dots.truncate(n);
        }
        Ok(())
    }

    /// Region byte where the suffix column starts: past every row's prefix.
    fn suffix_base(&self) -> usize {
        self.n_points as usize * self.prefix_width()
    }

    /// Pushes the dots of the rows at `offsets` in sub-partition `sub` of
    /// the code column that starts at region byte `column` and holds
    /// `qcodes.len()` bytes a row: one cursor, one [`run_dots`] per run.
    fn rows_dots(
        &self,
        (start, _): Region,
        sub: u32,
        column: usize,
        offsets: &[u32],
        qcodes: &[i8],
        dots: &mut Vec<i32>,
    ) -> io::Result<()> {
        let w = qcodes.len();
        let first_row = self.vquants[sub as usize].off as usize / self.prefix_width();
        let row_start = |o: u32| {
            debug_assert!(o < self.subparts[sub as usize].count, "offset out of range");
            column + (first_row + o as usize) * w
        };
        dots.reserve(offsets.len());
        let mut pages = PageCursor::new(&self.pager, start);
        let mut i = 0;
        while i < offsets.len() {
            let rest = &offsets[i..];
            i += run_dots(
                &mut pages,
                w,
                rest.len(),
                |j| row_start(rest[j]),
                qcodes,
                dots,
            )?;
        }
        Ok(())
    }

    /// One sweep over the **whole** SQ8 verification code column in storage
    /// order — the read path of a query whose ball covers most of the
    /// index, for which going through sub-partition groups only re-reads,
    /// in group order, what one sequential cursor reads once. For heads the
    /// swept column is the prefixes': half the bytes, the high-energy half.
    ///
    /// Clears `dots` and fills it with every row's integer dot
    /// `Σⱼ codeⱼ·qcodesⱼ` over its first `w` = [`Self::prefix_width`] codes,
    /// row `i` at `dots[i]`, rows numbered as they are stored
    /// (sub-partitions in directory order, records in sub-partition order;
    /// row `i` starts at region byte `i·w`); `qcodes` is the whole coded
    /// query, [`Self::code_width`] long. The rows inside a page are one
    /// [`dot_col_i8`] call across sub-partition boundaries (the integer dot
    /// depends on no quantizer); a row straddling pages is summed as in
    /// [`Self::screen_dots`]. Every page of the column is read exactly once,
    /// up to the pool's stripe count of them per [`Pager::read_run`]: a
    /// cold sweep makes one device read per run of missing pages in a
    /// window, with the logical reads, hits, misses and pool state of
    /// reading the pages one by one.
    ///
    /// `tick` is called before each page's rows and each straddling row; an
    /// error from it stops the sweep and is returned, `dots` then holding
    /// the rows computed so far.
    ///
    /// # Panics
    /// As [`Self::screen_dots`].
    pub fn column_dots(
        &self,
        qcodes: &[i8],
        dots: &mut Vec<i32>,
        mut tick: impl FnMut() -> io::Result<()>,
    ) -> io::Result<()> {
        let (start, _) = self
            .code_region
            .expect("column_dots requires the verification tier");
        assert_eq!(
            qcodes.len(),
            self.code_width(),
            "quantized query has wrong dimension"
        );
        let qcodes = &qcodes[..self.prefix_width()];
        let (w, n) = (qcodes.len(), self.n_points as usize);
        dots.clear();
        dots.reserve(n);
        let mut pages = PageCursor::sweep(&self.pager, (start, (n * w) as u64));
        let ps = pages.ps;
        let mut row = 0;
        while row < n {
            tick()?;
            let start = row * w;
            let page_lo = start / ps * ps;
            let run = ((page_lo + ps - start) / w).min(n - row);
            if run == 0 {
                // A row straddling pages: the group loop's one-row case.
                row += run_dots(&mut pages, w, 1, |_| start, qcodes, dots)?;
                continue;
            }
            let page = pages.page((page_lo / ps) as u64)?;
            dots.resize(row + run, 0);
            let rows = &page[start - page_lo..][..run * w];
            dot_col_i8(rows, w, qcodes, &mut dots[row..]);
            row += run;
        }
        Ok(())
    }

    /// Reads a head index's **suffix-norm code** column — one byte a row,
    /// [`crate::head::suffix_code`], past the suffix column — into `codes`
    /// (cleared first): row `i`'s code at `codes[i]`, rows numbered as
    /// [`Self::column_dots`] numbers them. Read like the sweep, up to the
    /// pool's stripe count of pages per [`Pager::read_run`], every page
    /// once.
    ///
    /// # Panics
    /// If the index has no verification tier or its codes are not heads.
    pub fn suffix_norm_codes(&self, codes: &mut Vec<u8>) -> io::Result<()> {
        let (start, _) = self
            .code_region
            .expect("suffix_norm_codes requires the verification tier");
        assert!(
            self.prefix_width() < self.code_width(),
            "suffix_norm_codes requires head codes"
        );
        let n = self.n_points as usize;
        let column = n * self.code_width();
        codes.clear();
        PageCursor::sweep(&self.pager, (start, (column + n) as u64))
            .walk(column, n, |chunk| codes.extend_from_slice(chunk))
    }

    /// Rows held by the sub-partitions whose pivot sphere meets the ball of
    /// radius `r` around `pq` — the sphere filter of
    /// [`Self::range_candidates_into`] applied to the directory alone (no
    /// page is read), i.e. an upper bound on the rows a ball query decodes.
    /// One [`sq_dist_col`] call over the pivots into `sq_dists`: the
    /// filter's `dist` to the bit for `m ≤`
    /// [`promips_linalg::scalar::SHORT_MAX`], past it maybe not in the last
    /// ulp (as `located_radius` in `promips_core` notes).
    pub fn covered_rows(&self, pq: &[f32], r: f64, sq_dists: &mut Vec<f64>) -> u64 {
        sq_dists.resize(self.subparts.len(), 0.0);
        sq_dist_col(&self.pivots, self.m, pq, sq_dists);
        (self.subparts.iter().zip(sq_dists.iter()))
            .filter(|&(sp, d2)| d2.sqrt() - sp.radius <= r)
            .map(|(sp, _)| sp.count as u64)
            .sum()
    }

    // --- Incremental NN ----------------------------------------------------

    /// Exact incremental nearest-neighbour iteration in the projected space
    /// (best-first over sub-partition lower bounds).
    pub fn nn_iter(&self, pq: &[f32]) -> NnIter<'_> {
        NnIter::new(self, pq)
    }

    // --- Persistence -------------------------------------------------------

    /// Writes the directory blob and a footer page at the end of the file so
    /// [`Self::open`] can reconstruct the handle. Called by the builder.
    pub(crate) fn write_footer(&self) -> io::Result<()> {
        let mut dir = Vec::new();
        enc::put_u32(&mut dir, self.partitions.len() as u32);
        for p in &self.partitions {
            p.encode(&mut dir);
        }
        enc::put_u32(&mut dir, self.subparts.len() as u32);
        for (s, pivot) in self.subparts.iter().zip(self.pivots.chunks_exact(self.m)) {
            s.encode(pivot, &mut dir);
        }
        let (vs, vl) = self.code_region.unwrap_or((REGION_ABSENT, 0));
        enc::put_u64(&mut dir, vs);
        enc::put_u64(&mut dir, vl);
        if self.code_region.is_some() {
            enc::put_u32(&mut dir, self.vquants.len() as u32);
            for q in &self.vquants {
                q.encode(&mut dir);
            }
        }
        // Only a head column has anything past here: the basis, then each
        // sub-partition's `tail` and suffix norm.
        if let Some(head) = &self.head {
            head.encode(&mut dir);
            for q in &self.vquants {
                enc::put_f32(&mut dir, q.tail);
                enc::put_f32(&mut dir, q.suffix_norm);
            }
        }
        let dir_start = write_blob(&self.pager, &dir)?;

        let ps = self.pager.page_size();
        let mut footer = Vec::with_capacity(ps);
        let magic = match self.head {
            Some(_) => HEAD_FOOTER_MAGIC,
            None => FOOTER_MAGIC,
        };
        enc::put_u64(&mut footer, magic);
        enc::put_u64(&mut footer, self.m as u64);
        enc::put_u64(&mut footer, self.d as u64);
        enc::put_f64(&mut footer, self.epsilon);
        enc::put_u64(&mut footer, self.ring_c);
        enc::put_u64(&mut footer, self.proj_region.0);
        enc::put_u64(&mut footer, self.proj_region.1);
        enc::put_u64(&mut footer, self.orig_region.0);
        enc::put_u64(&mut footer, self.orig_region.1);
        enc::put_u64(&mut footer, dir_start);
        enc::put_u64(&mut footer, dir.len() as u64);
        enc::put_u64(&mut footer, self.n_points);
        debug_assert_eq!(footer.len(), FOOTER_BYTES);
        let start = write_blob(&self.pager, &footer)?;
        debug_assert_eq!(
            start + footer_span_pages(ps),
            self.pager.num_pages(),
            "footer must end the file"
        );
        self.pager.sync()
    }

    /// Reopens an index from a pager whose **last pages** hold the footer
    /// written by the builder (one page at any realistic page size; see
    /// [`footer_span_pages`]).
    pub fn open(pager: Arc<Pager>) -> io::Result<Self> {
        let start = pager
            .num_pages()
            .checked_sub(footer_span_pages(pager.page_size()))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty index file"))?;
        Self::open_at(pager, start)
    }

    /// Reopens an index whose footer starts at a known page (used when
    /// other layers — e.g. the full ProMIPS persistence — append their own
    /// data after the iDistance footer).
    pub fn open_at(pager: Arc<Pager>, footer_page: PageId) -> io::Result<Self> {
        let buf = read_blob_range(&pager, footer_page, 0, FOOTER_BYTES)?;
        let buf = &buf[..];
        let mut pos = 0;
        let magic = enc::get_u64(buf, &mut pos);
        if magic != FOOTER_MAGIC && magic != HEAD_FOOTER_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad iDistance footer magic",
            ));
        }
        let m = enc::get_u64(buf, &mut pos) as usize;
        let d = enc::get_u64(buf, &mut pos) as usize;
        let epsilon = enc::get_f64(buf, &mut pos);
        let ring_c = enc::get_u64(buf, &mut pos);
        let proj_region = (enc::get_u64(buf, &mut pos), enc::get_u64(buf, &mut pos));
        let orig_region = (enc::get_u64(buf, &mut pos), enc::get_u64(buf, &mut pos));
        let dir_start = enc::get_u64(buf, &mut pos);
        let dir_len = enc::get_u64(buf, &mut pos) as usize;
        let n_points = enc::get_u64(buf, &mut pos);

        let dir = read_blob(&pager, dir_start, dir_len)?;
        let mut dpos = 0;
        let n_parts = enc::get_u32(&dir, &mut dpos) as usize;
        let partitions: Vec<PartitionMeta> = (0..n_parts)
            .map(|_| PartitionMeta::decode(&dir, &mut dpos))
            .collect();
        let n_subs = enc::get_u32(&dir, &mut dpos) as usize;
        let mut pivots = Vec::new();
        let subparts: Vec<SubPartMeta> = (0..n_subs)
            .map(|_| SubPartMeta::decode(&dir, &mut dpos, &mut pivots))
            .collect();
        let region = |start: u64, len: u64| (start != REGION_ABSENT).then_some((start, len));
        let code_region = region(enc::get_u64(&dir, &mut dpos), enc::get_u64(&dir, &mut dpos));
        let mut vquants: Vec<OrigQuant> = if code_region.is_some() {
            let n_vquants = enc::get_u32(&dir, &mut dpos) as usize;
            if n_vquants != n_subs {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "verification-quantizer directory does not parallel the sub-partition \
                     directory",
                ));
            }
            (0..n_vquants)
                .map(|_| OrigQuant::decode(&dir, &mut dpos))
                .collect()
        } else {
            Vec::new()
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if pivots.len() != n_subs * m {
            return Err(bad("a sub-partition pivot is not m floats long"));
        }
        // The annulus scan binary-searches the keys.
        if subparts.windows(2).any(|w| w[0].key > w[1].key) {
            return Err(bad("the sub-partition directory is not in key order"));
        }
        let head = if code_region.is_some() && dpos < dir.len() {
            let head = HeadBasis::decode(&dir, &mut dpos, d)?;
            if (dir.len() - dpos) / 8 < vquants.len() {
                return Err(bad("head bounds are truncated"));
            }
            for q in &mut vquants {
                q.tail = enc::get_f32(&dir, &mut dpos);
                q.suffix_norm = enc::get_f32(&dir, &mut dpos);
            }
            Some(head)
        } else {
            None
        };
        if head.is_some() != (magic == HEAD_FOOTER_MAGIC) {
            return Err(bad(
                "the footer magic and the directory disagree on a head column",
            ));
        }
        // A head's row is its codes and its suffix-norm code.
        let width = head.as_ref().map_or(d, |basis| basis.width() + 1) as u64;
        if code_region.is_some_and(|(_, len)| len != n_points * width) {
            return Err(bad(
                "verification code region length disagrees with n·(h + 1)",
            ));
        }

        Ok(Self::assemble(
            pager,
            m,
            d,
            epsilon,
            ring_c,
            proj_region,
            orig_region,
            code_region,
            partitions,
            subparts,
            pivots,
            vquants,
            head,
            n_points,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::config::IDistanceConfig;
    use promips_linalg::Matrix;
    use promips_stats::Xoshiro256pp;

    fn random_matrix(n: usize, dims: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            dims,
            (0..n).map(|_| (0..dims).map(|_| rng.normal() as f32).collect()),
        )
    }

    fn build_small() -> (IDistanceIndex, Matrix, Matrix) {
        let proj = random_matrix(600, 6, 10);
        let orig = random_matrix(600, 24, 11);
        let pager = Arc::new(Pager::in_memory(1024, 1 << 16));
        let cfg = IDistanceConfig {
            kp: 4,
            nkey: 10,
            ksp: 3,
            ..Default::default()
        };
        let idx = build_index(pager, &proj, &orig, &cfg).unwrap();
        (idx, proj, orig)
    }

    #[test]
    fn range_matches_brute_force() {
        let (idx, proj, _) = build_small();
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        for _ in 0..10 {
            let pq: Vec<f32> = (0..6).map(|_| rng.normal() as f32).collect();
            let r = rng.uniform_range(0.5, 3.0);
            let mut got: Vec<u64> = idx
                .range_candidates(&pq, -1.0, r)
                .unwrap()
                .into_iter()
                .map(|c| c.id)
                .collect();
            got.sort_unstable();
            let mut expected: Vec<u64> = (0..proj.rows())
                .filter(|&i| dist(proj.row(i), &pq) <= r)
                .map(|i| i as u64)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "r={r}");
        }
    }

    #[test]
    fn annulus_excludes_inner_ball() {
        let (idx, proj, _) = build_small();
        let pq: Vec<f32> = vec![0.1; 6];
        let (r_lo, r_hi) = (1.0, 2.5);
        let mut got: Vec<u64> = idx
            .range_candidates(&pq, r_lo, r_hi)
            .unwrap()
            .into_iter()
            .map(|c| c.id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u64> = (0..proj.rows())
            .filter(|&i| {
                let pd = dist(proj.row(i), &pq);
                pd > r_lo && pd <= r_hi
            })
            .map(|i| i as u64)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn a_failing_tick_stops_the_scan_after_the_subparts_already_scanned() {
        let (idx, _, _) = build_small();
        let pq: Vec<f32> = vec![0.0; 6];
        let full = idx.range_candidates(&pq, -1.0, 2.5).unwrap();
        let mut ticks = 0;
        let (mut out, mut scratch) = (Vec::new(), ProjScratch::new());
        idx.range_candidates_ticked(&pq, -1.0, 2.5, &mut out, &mut scratch, || {
            ticks += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(out, full, "a passing tick changes nothing");
        assert!(ticks > 3, "one tick per scanned sub-partition");

        // Failing on the third tick: exactly the candidates of the first
        // two scanned sub-partitions are left in `out`.
        let mut left = 2;
        let err = idx
            .range_candidates_ticked(&pq, -1.0, 2.5, &mut out, &mut scratch, || {
                if left == 0 {
                    return Err(io::Error::other("budget"));
                }
                left -= 1;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "budget");
        assert!(out.len() < full.len());
        assert_eq!(out[..], full[..out.len()], "a prefix of the full scan");
        let mut subs: Vec<u32> = out.iter().map(|c| c.subpart).collect();
        subs.dedup();
        assert!(subs.len() <= 2);
    }

    #[test]
    fn covered_rows_bounds_what_a_ball_query_returns() {
        let (idx, _, _) = build_small();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let (mut below_all, mut sq_dists) = (false, Vec::new());
        for _ in 0..10 {
            let pq: Vec<f32> = (0..6).map(|_| rng.normal() as f32).collect();
            let r = rng.uniform_range(0.2, 3.0);
            let covered = idx.covered_rows(&pq, r, &mut sq_dists);
            let found = idx.range_candidates(&pq, -1.0, r).unwrap().len() as u64;
            assert!(found <= covered && covered <= idx.len(), "r={r}");
            below_all |= covered < idx.len();
        }
        assert!(below_all, "every ball covered every sub-partition");
        assert_eq!(idx.covered_rows(&[0.0; 6], 1e9, &mut sq_dists), idx.len());
    }

    /// `covered_rows` is the sphere filter's sum, `Σ count` over the
    /// sub-partitions with `dist(pq, pivot) − radius <= r` by the
    /// single-row `dist`, at every `m` up to `SHORT_MAX` — radii drawn at
    /// random and set to a sub-partition's own `dist − radius`, where one
    /// ulp decides; `row_bounds` are the running sums of the counts.
    #[test]
    fn covered_rows_is_the_single_row_sphere_filter() {
        let mut rng = Xoshiro256pp::seed_from_u64(41);
        let mut sq_dists = Vec::new();
        for m in 1..=promips_linalg::scalar::SHORT_MAX {
            let proj = random_matrix(400, m, 40 + m as u64);
            let orig = random_matrix(400, 8, 60 + m as u64);
            let pager = Arc::new(Pager::in_memory(1024, 1 << 14));
            let cfg = IDistanceConfig {
                kp: 4,
                nkey: 6,
                ksp: 4,
                ..Default::default()
            };
            let idx = build_index(pager, &proj, &orig, &cfg).unwrap();
            let subs = 0..idx.subparts().len() as u32;
            let bounds = idx.row_bounds();
            assert_eq!((bounds[0], bounds[subs.len()]), (0, idx.len() as usize));
            for sub in subs.clone() {
                let count = idx.subparts()[sub as usize].count as usize;
                assert_eq!(bounds[sub as usize + 1] - bounds[sub as usize], count);
            }
            for _ in 0..6 {
                let pq: Vec<f32> = (0..m).map(|_| 1.5 * rng.normal() as f32).collect();
                let gaps: Vec<f64> = (subs.clone())
                    .map(|sub| dist(&pq, idx.pivot(sub)) - idx.subparts()[sub as usize].radius)
                    .collect();
                let want = |r: f64| -> u64 {
                    (gaps.iter().zip(idx.subparts()))
                        .filter(|&(&gap, _)| gap <= r)
                        .map(|(_, sp)| sp.count as u64)
                        .sum()
                };
                let radii = [rng.uniform_range(0.0, 3.0), gaps[0], gaps[gaps.len() / 2]];
                for r in radii
                    .into_iter()
                    .flat_map(|r| [r, r.next_down(), r.next_up()])
                {
                    assert_eq!(
                        idx.covered_rows(&pq, r, &mut sq_dists),
                        want(r),
                        "m {m} r {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn id_and_orig_cursors_follow_rows_across_subparts() {
        let (idx, _, orig) = build_small();
        let mut ids = idx.id_cursor();
        let mut rows = idx.orig_cursor(0);
        let mut scratch = ProjScratch::new();
        let mut arena = Vec::new();
        idx.pager().stats().reset();
        for sub in 0..idx.subparts().len() as u32 {
            rows.seek(sub);
            let last = idx.subparts()[sub as usize].count - 1;
            for offset in [0, last] {
                let id = ids.id(sub, offset).unwrap();
                rows.decode_into(&[offset], &mut arena).unwrap();
                assert_eq!(arena, orig.row(id as usize), "sub {sub} offset {offset}");
            }
        }
        let pinned = idx.access_stats().logical_reads;
        // The same requests through fresh readers re-read shared pages.
        idx.pager().stats().reset();
        for sub in 0..idx.subparts().len() as u32 {
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            let last = idx.subparts()[sub as usize].count - 1;
            for offset in [0, last] {
                idx.fetch_originals(sub, &[offset], &mut arena).unwrap();
                assert_eq!(arena, orig.row(scratch.id(offset as usize) as usize));
            }
        }
        assert!(pinned < idx.access_stats().logical_reads);
    }

    #[test]
    fn fetch_originals_returns_right_vectors() {
        let (idx, _, orig) = build_small();
        let pq: Vec<f32> = vec![0.0; 6];
        let cands = idx.range_candidates(&pq, -1.0, 2.0).unwrap();
        assert!(!cands.is_empty());
        let mut arena = Vec::new();
        for c in &cands {
            idx.fetch_originals(c.subpart, &[c.offset], &mut arena)
                .unwrap();
            assert_eq!(arena, orig.row(c.id as usize), "id {}", c.id);
        }
    }

    #[test]
    fn batched_fetch_reads_each_page_once() {
        let (idx, _, _) = build_small();
        // Pick a sub-partition with several points.
        let sub = (0..idx.subparts().len() as u32)
            .find(|&s| idx.subparts()[s as usize].count >= 4)
            .expect("some subpart with >= 4 points");
        let count = idx.subparts()[sub as usize].count;
        let offsets: Vec<u32> = (0..count.min(6)).collect();

        let mut arena = Vec::new();
        idx.pager().stats().reset();
        idx.pager().clear_cache();
        idx.fetch_originals(sub, &offsets, &mut arena).unwrap();
        let batched = idx.access_stats().logical_reads;
        assert_eq!(arena.len(), offsets.len() * idx.orig_dim());

        idx.pager().stats().reset();
        idx.pager().clear_cache();
        for &o in &offsets {
            idx.fetch_originals(sub, &[o], &mut arena).unwrap();
        }
        let unbatched = idx.access_stats().logical_reads;
        assert!(
            batched <= unbatched,
            "batched {batched} > unbatched {unbatched}"
        );
    }

    #[test]
    fn arena_fetch_matches_whole_subpart_read() {
        let (idx, _, orig) = build_small();
        let d = idx.orig_dim();
        let mut arena = Vec::new();
        for sub in 0..idx.subparts().len() as u32 {
            let count = idx.subparts()[sub as usize].count;
            // Every second record, decoded via the arena path, must match
            // the id-addressed rows of the source matrix.
            let offsets: Vec<u32> = (0..count).step_by(2).collect();
            idx.fetch_originals(sub, &offsets, &mut arena).unwrap();
            assert_eq!(arena.len(), offsets.len() * d);
            let mut scratch = ProjScratch::new();
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            let ids: Vec<u64> = scratch.ids().to_vec();
            for (slot, &off) in offsets.iter().enumerate() {
                let got = &arena[slot * d..(slot + 1) * d];
                assert_eq!(
                    got,
                    orig.row(ids[off as usize] as usize),
                    "sub {sub} off {off}"
                );
            }
        }
    }

    #[test]
    fn arena_fetch_survives_word_straddling_pages() {
        // A page size that is not a multiple of 4 forces f32 records to
        // straddle page boundaries, exercising the partial-word path of
        // fetch_originals.
        let proj = random_matrix(200, 5, 61);
        let orig = random_matrix(200, 7, 62);
        let pager = Arc::new(Pager::in_memory(70, 1 << 16));
        let cfg = IDistanceConfig {
            kp: 3,
            nkey: 6,
            ksp: 2,
            ..Default::default()
        };
        let idx = build_index(pager, &proj, &orig, &cfg).unwrap();
        let mut arena = Vec::new();
        for sub in 0..idx.subparts().len() as u32 {
            let count = idx.subparts()[sub as usize].count;
            let offsets: Vec<u32> = (0..count).collect();
            idx.fetch_originals(sub, &offsets, &mut arena).unwrap();
            let mut scratch = ProjScratch::new();
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            let ids: Vec<u64> = scratch.ids().to_vec();
            for (slot, &id) in ids.iter().enumerate() {
                assert_eq!(
                    &arena[slot * 7..(slot + 1) * 7],
                    orig.row(id as usize),
                    "sub {sub} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("promips-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.pmx");

        let proj = random_matrix(300, 5, 21);
        let orig = random_matrix(300, 16, 22);
        let stats = promips_storage::AccessStats::new_shared();
        let storage = Arc::new(promips_storage::FileStorage::create(&path, 1024).unwrap());
        let pager = Arc::new(Pager::new(storage, 256, stats));
        let cfg = IDistanceConfig {
            kp: 3,
            nkey: 6,
            ksp: 2,
            ..Default::default()
        };
        let built = build_index(pager, &proj, &orig, &cfg).unwrap();
        let pq: Vec<f32> = vec![0.0; 5];
        let mut before: Vec<u64> = built
            .range_candidates(&pq, -1.0, 2.0)
            .unwrap()
            .into_iter()
            .map(|c| c.id)
            .collect();
        before.sort_unstable();
        drop(built);

        let stats2 = promips_storage::AccessStats::new_shared();
        let storage2 = Arc::new(promips_storage::FileStorage::open(&path, 1024).unwrap());
        let pager2 = Arc::new(Pager::new(storage2, 256, stats2));
        let reopened = IDistanceIndex::open(pager2).unwrap();
        assert_eq!(reopened.len(), 300);
        let mut after: Vec<u64> = reopened
            .range_candidates(&pq, -1.0, 2.0)
            .unwrap()
            .into_iter()
            .map(|c| c.id)
            .collect();
        after.sort_unstable();
        assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_roundtrip_keeps_quantized_tier() {
        // Reopening a default build must restore the verification code
        // region and its per-sub-partition quantizers exactly.
        let (idx, _, _) = build_small();
        assert!(idx.verify_quantized());
        let footer = idx.pager().num_pages() - footer_span_pages(idx.pager().page_size());
        let reopened = IDistanceIndex::open_at(Arc::clone(idx.pager()), footer).unwrap();
        assert!(reopened.verify_quantized());
        assert_eq!(reopened.code_region(), idx.code_region());
        assert_eq!(reopened.vquants(), idx.vquants());
        let pq = vec![0.2f32; 6];
        assert_eq!(
            idx.range_candidates(&pq, 0.5, 2.5).unwrap(),
            reopened.range_candidates(&pq, 0.5, 2.5).unwrap()
        );
    }

    #[test]
    fn footer_survives_pages_smaller_than_itself() {
        // The 96-byte footer does not fit a 64-byte page; it must spill
        // onto consecutive pages (not silently truncate) and reopen
        // losslessly — the straddle-coverage page sizes the scan tests use
        // would otherwise build unreopenable files.
        let proj = random_matrix(150, 4, 91);
        let orig = random_matrix(150, 6, 92);
        let pager = Arc::new(Pager::in_memory(64, 1 << 16));
        assert_eq!(footer_span_pages(64), 2);
        let cfg = IDistanceConfig {
            kp: 2,
            nkey: 4,
            ksp: 2,
            ..Default::default()
        };
        let built = build_index(Arc::clone(&pager), &proj, &orig, &cfg).unwrap();
        let pq = vec![0.3f32; 4];
        let before = built.range_candidates(&pq, -1.0, 2.0).unwrap();
        let reopened = IDistanceIndex::open(pager).unwrap();
        assert_eq!(reopened.len(), 150);
        assert!(reopened.verify_quantized());
        assert_eq!(reopened.vquants(), built.vquants());
        assert_eq!(reopened.range_candidates(&pq, -1.0, 2.0).unwrap(), before);
    }

    #[test]
    fn every_tier_combination_reopens_with_its_tiers() {
        // The builds with and without the verification tier share one
        // format (an absent tier is a sentinel region); each must reopen
        // with exactly its tiers and the same code fetches, and both return
        // the same candidates.
        let proj = random_matrix(300, 5, 41);
        let orig = random_matrix(300, 9, 42);
        let pq = vec![0.1f32; 5];
        let mut reference = None;
        for verify_quantize in [false, true] {
            let cfg = IDistanceConfig {
                kp: 3,
                nkey: 6,
                ksp: 2,
                verify_quantize,
                ..Default::default()
            };
            let pager = Arc::new(Pager::in_memory(512, 1 << 16));
            let built = build_index(Arc::clone(&pager), &proj, &orig, &cfg).unwrap();
            let reopened = IDistanceIndex::open(pager).unwrap();
            assert_eq!(reopened.verify_quantized(), verify_quantize);
            assert_eq!(reopened.vquants(), built.vquants());
            for &(r_lo, r_hi) in &[(-1.0, 2.0), (0.8, 2.5)] {
                let got = reopened.range_candidates(&pq, r_lo, r_hi).unwrap();
                assert_eq!(got, built.range_candidates(&pq, r_lo, r_hi).unwrap());
                if r_lo < 0.0 {
                    let want = reference.get_or_insert_with(|| got.clone());
                    assert_eq!(&got, want, "verify_quantize = {verify_quantize}");
                }
            }
            if verify_quantize {
                let sub = (0..built.subparts().len() as u32)
                    .find(|&s| built.subparts()[s as usize].count >= 3)
                    .expect("a sub-partition with >= 3 points");
                let offsets = [0u32, 2];
                let qcodes = [3i8, -7, 0, 127, -128, 1, 64, -2, 9];
                let (mut a, mut b) = (Vec::new(), Vec::new());
                built.screen_dots(sub, &offsets, &qcodes, &mut a).unwrap();
                reopened
                    .screen_dots(sub, &offsets, &qcodes, &mut b)
                    .unwrap();
                assert_eq!(a, b);
                assert_eq!(a.len(), offsets.len());
            }
        }
    }

    #[test]
    fn foreign_footer_magic_is_rejected() {
        let (idx, _, _) = build_small();
        let pager = Arc::clone(idx.pager());
        let footer = pager.num_pages() - footer_span_pages(pager.page_size());
        let good = pager.read(footer).unwrap();
        // The retired v1 magic, both magics of the format that carried an
        // SQ8 code region over the projected rows, and both of the format
        // that carried a B+-tree: same family, values no longer accepted.
        for magic in [
            0x1D15_7A4C_E01D_F007u64,
            0x1D15_7A4C_E01D_F009,
            0x1D15_7A4C_E01D_F00B,
            0x1D15_7A4C_E01D_F00C,
            0x1D15_7A4C_E01D_F00D,
        ] {
            let mut page = PageBuf::zeroed(pager.page_size());
            page.as_mut_slice().copy_from_slice(good.as_slice());
            page.as_mut_slice()[..8].copy_from_slice(&magic.to_le_bytes());
            pager.write(footer, page).unwrap();
            let err = IDistanceIndex::open(Arc::clone(&pager))
                .err()
                .expect("must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{magic:#x}");
        }
    }

    #[test]
    fn search_costs_page_accesses() {
        let (idx, _, _) = build_small();
        idx.pager().clear_cache();
        idx.pager().stats().reset();
        let pq: Vec<f32> = vec![0.0; 6];
        let _ = idx.range_candidates(&pq, -1.0, 1.5).unwrap();
        let snap = idx.access_stats();
        assert!(snap.logical_reads > 0, "search must touch pages");
    }
}
