//! Property tests: `IDistanceIndex::screen_dots` — the verification screen
//! run on the pinned code pages — must return, for every requested row,
//! exactly `dot_i8` of that row's bytes read the slow way (a whole-blob
//! copy), and must touch exactly the pages a cursor walking the rows in
//! request order touches: rows inside a page, rows straddling one boundary
//! and rows longer than several pages alike. `column_dots`, the sweep over
//! the whole column, must fill its buffer with the same dots in storage
//! order, across sub-partition boundaries, reading every page of the
//! region once. Code rows are [`IDistanceIndex::code_width`] bytes:
//! `d` for the isotropic rows most tests here build over, 64 for the
//! low-rank ones of the head-column tests — two columns of 32-byte halves,
//! which fill 4 KB pages exactly; the sweep reads the first, and a head's
//! prefix dot plus its suffix dot is its whole row's. A cold sweep reads
//! its pages a window at a time: one device read per window, as many
//! logical reads as pages.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promips_data::gen::low_rank;
use promips_idistance::layout::read_blob_range;
use promips_idistance::{build_index, HeadBasis, IDistanceConfig, IDistanceIndex, ProjScratch};
use promips_linalg::{dot_i8, Matrix};
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, MemStorage, PageId, Pager, Storage};
use proptest::prelude::*;

/// Code-row lengths: one byte, shorter than a kernel step, odd, one VNNI
/// step, the benchmark's, and longer than every page size below.
const D_SHAPES: [usize; 6] = [1, 3, 13, 64, 300, 5_000];
/// 64 and 100 make most 13-byte rows straddle and every longer row span
/// pages; 4 096 is the default geometry (300-byte rows: 1 in 13.65
/// straddles).
const PAGE_SIZES: [usize; 4] = [64, 100, 256, 4_096];
/// The column sweep's: 70 and 130 make rows of most widths above straddle
/// pages.
const COLUMN_PAGE_SIZES: [usize; 4] = [4_096, 64, 70, 130];

fn random_matrix(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

fn build(n: usize, d: usize, page_size: usize, seed: u64) -> IDistanceIndex {
    let proj = random_matrix(n, 4, seed);
    let orig = random_matrix(n, d, seed ^ 0xFF);
    let pager = Arc::new(Pager::in_memory(page_size, 1 << 20));
    // Few, long sub-partitions: in-page runs of more than one 4-block.
    let cfg = IDistanceConfig {
        kp: 2,
        nkey: 2,
        ksp: 1,
        ..Default::default()
    };
    build_index(
        pager,
        &proj,
        &orig,
        &cfg,
        HeadBasis::estimate(&orig, cfg.seed),
    )
    .unwrap()
}

/// Region bytes where each code column's rows of sub-partition `sub`
/// start, and its row width: the one column of full-width codes, or a
/// head's prefix column and, past every row's prefix, its suffix column.
fn column_bases(idx: &IDistanceIndex, sub: u32) -> Vec<(usize, usize)> {
    let p = idx.prefix_width();
    let off = idx.vquants()[sub as usize].off as usize;
    let mut bases = vec![(off, p)];
    if p < idx.code_width() {
        bases.push((idx.len() as usize * p + off, idx.code_width() - p));
    }
    bases
}

/// The sub-partition's whole code rows, copied out page by page and, for
/// heads, put back together from the prefix and the suffix column.
fn codes_the_slow_way(idx: &IDistanceIndex, sub: u32) -> Vec<u8> {
    let count = idx.subparts()[sub as usize].count as usize;
    let (start, _) = idx.code_region().expect("default builds carry the tier");
    let columns: Vec<(Vec<u8>, usize)> = column_bases(idx, sub)
        .into_iter()
        .map(|(base, w)| {
            (
                read_blob_range(idx.pager(), start, base, count * w).unwrap(),
                w,
            )
        })
        .collect();
    (0..count)
        .flat_map(|r| {
            columns
                .iter()
                .flat_map(move |(codes, w)| &codes[r * w..][..*w])
        })
        .copied()
        .collect()
}

/// Logical reads of a cursor per column walking the same rows: one per
/// page change along the rows' bytes, in request order, in each column.
fn cursor_reads(idx: &IDistanceIndex, sub: u32, offsets: &[u32]) -> u64 {
    column_bases(idx, sub)
        .into_iter()
        .map(|(base, w)| column_reads(idx, base, w, offsets))
        .sum()
}

/// [`cursor_reads`] in the one column whose sub-partition starts at `base`.
fn column_reads(idx: &IDistanceIndex, base: usize, w: usize, offsets: &[u32]) -> u64 {
    let ps = idx.pager().page_size();
    let (mut cur, mut reads) = (None, 0);
    for &o in offsets {
        let start = base + o as usize * w;
        for page in start / ps..=(start + w - 1) / ps {
            if cur != Some(page) {
                (cur, reads) = (Some(page), reads + 1);
            }
        }
    }
    reads
}

fn naive_dot(row: &[u8], q: &[i8]) -> i32 {
    row.iter().zip(q).map(|(&a, &b)| a as i32 * b as i32).sum()
}

fn random_qcodes(w: usize, rng: &mut Xoshiro256pp) -> Vec<i8> {
    (0..w).map(|_| rng.below(256) as u8 as i8).collect()
}

/// Every sub-partition's dense dots over the first `p` =
/// `prefix_width` codes of each row, the slow way, laid end to end: what
/// the sweep of the whole prefix column gives, in storage order.
fn dense_dots(idx: &IDistanceIndex, qcodes: &[i8]) -> Vec<i32> {
    let p = idx.prefix_width();
    let mut dots = Vec::new();
    for sub in 0..idx.subparts().len() as u32 {
        let codes = codes_the_slow_way(idx, sub);
        dots.extend(
            codes
                .chunks_exact(idx.code_width())
                .map(|row| naive_dot(&row[..p], &qcodes[..p])),
        );
    }
    dots
}

/// Pages of the column the sweep reads.
fn prefix_pages(idx: &IDistanceIndex) -> u64 {
    (idx.len() * idx.prefix_width() as u64).div_ceil(idx.pager().page_size() as u64)
}

/// The offset patterns of the issue: every row, a seeded sparse subset,
/// the first row alone, the last row alone — and a descending request, the
/// order no search issues but the contract allows.
fn offset_patterns(count: u32, rng: &mut Xoshiro256pp) -> Vec<Vec<u32>> {
    let dense: Vec<u32> = (0..count).collect();
    let sparse: Vec<u32> = dense
        .iter()
        .copied()
        .filter(|_| rng.below(3) == 0)
        .collect();
    let descending: Vec<u32> = dense.iter().rev().copied().step_by(2).collect();
    vec![dense, sparse, vec![0], vec![count - 1], descending, vec![]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn screen_dots_equals_per_row_dot_and_reads_each_page_once(
        d_pick in 0usize..D_SHAPES.len(),
        ps_pick in 0usize..PAGE_SIZES.len(),
        seed in 0u64..1_000,
    ) {
        let (d, page_size) = (D_SHAPES[d_pick], PAGE_SIZES[ps_pick]);
        // Fewer rows when a row is many pages long, to keep the build quick.
        let n = if d > 1_000 { 40 } else { 160 };
        let idx = build(n, d, page_size, seed);
        // Gaussian rows, but fewer of them than coordinates when d is
        // large: what rank they have may fit a head.
        let d = idx.code_width();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xD075);
        let qcodes = random_qcodes(d, &mut rng);
        let mut dots = vec![7; 3]; // stale content must be cleared
        for sub in 0..idx.subparts().len() as u32 {
            let codes = codes_the_slow_way(&idx, sub);
            let count = idx.subparts()[sub as usize].count;
            for offsets in offset_patterns(count, &mut rng) {
                idx.pager().stats().reset();
                idx.screen_dots(sub, &offsets, &qcodes, &mut dots).unwrap();
                let reads = idx.access_stats().logical_reads;
                let want: Vec<i32> = offsets
                    .iter()
                    .map(|&o| {
                        let row = &codes[o as usize * d..][..d];
                        assert_eq!(dot_i8(row, &qcodes), naive_dot(row, &qcodes));
                        naive_dot(row, &qcodes)
                    })
                    .collect();
                prop_assert_eq!(&dots, &want, "d={} ps={} sub={}", d, page_size, sub);
                prop_assert_eq!(
                    reads,
                    cursor_reads(&idx, sub, &offsets),
                    "d={} ps={} sub={} offsets={:?}", d, page_size, sub, offsets
                );
            }
        }
    }

    #[test]
    fn column_dots_are_the_dense_dots_end_to_end_and_read_each_page_once(
        d_pick in 0usize..D_SHAPES.len(),
        ps_pick in 0usize..COLUMN_PAGE_SIZES.len(),
        seed in 0u64..1_000,
    ) {
        let (d, page_size) = (D_SHAPES[d_pick], COLUMN_PAGE_SIZES[ps_pick]);
        let n = if d > 1_000 { 40 } else { 160 };
        let idx = build(n, d, page_size, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC01);
        let qcodes = random_qcodes(idx.code_width(), &mut rng);
        let want = dense_dots(&idx, &qcodes);
        let pages = prefix_pages(&idx);

        let mut dots = vec![7; 3]; // stale content must be cleared
        idx.pager().stats().reset();
        idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
        prop_assert_eq!(&dots, &want, "d={} ps={}", d, page_size);
        prop_assert_eq!(
            idx.access_stats().logical_reads,
            pages,
            "every page of the column exactly once"
        );

        // One tick a page, and one more a row that straddles pages: a
        // straddling row is the last to start in its page.
        let mut ticks = 0;
        idx.column_dots(&qcodes, &mut dots, || {
            ticks += 1;
            Ok(())
        })
        .unwrap();
        prop_assert!(ticks <= 2 * pages, "{} ticks, {} pages", ticks, pages);
        // An error from `tick` stops the sweep where it is and is returned;
        // the dots computed before it stand.
        let (stop_at, mut at) = (ticks.div_ceil(2), 0);
        let stopped = idx.column_dots(&qcodes, &mut dots, || {
            at += 1;
            if at == stop_at {
                return Err(std::io::Error::other("stop"));
            }
            Ok(())
        });
        prop_assert!(stopped.is_err_and(|e| e.to_string() == "stop") && at == stop_at);
        prop_assert!(dots.len() < n);
        prop_assert_eq!(&dots[..], &want[..dots.len()]);

        // A pool holding only the start of the column — what a sweep stopped
        // a third of the way in reads into an emptied pool: the next sweep
        // hits, then misses — same dots, every page still once.
        idx.pager().clear_cache();
        let start = idx.access_stats();
        let _ = idx.column_dots(&qcodes, &mut dots, || {
            if idx.access_stats().delta_since(&start).logical_reads >= pages / 3 {
                return Err(std::io::Error::other("stop"));
            }
            Ok(())
        });
        let before = idx.access_stats();
        idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
        prop_assert_eq!(&dots, &want, "d={} ps={}", d, page_size);
        prop_assert_eq!(idx.access_stats().delta_since(&before).logical_reads, pages);

        // The buffer of a longer column, reused for a shorter one: one dot
        // per row of the shorter column, nothing left over.
        let short = build(n / 2, d, page_size, seed ^ 1);
        let qcodes = random_qcodes(short.code_width(), &mut rng);
        short.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
        prop_assert_eq!(dots.len(), n / 2);
        prop_assert_eq!(&dots, &dense_dots(&short, &qcodes));
    }
}

#[test]
#[should_panic(expected = "screen_dots requires the verification tier")]
fn screen_dots_without_the_tier_panics_in_every_build() {
    let proj = random_matrix(50, 4, 1);
    let orig = random_matrix(50, 8, 2);
    let cfg = IDistanceConfig {
        kp: 2,
        nkey: 3,
        ksp: 2,
        verify_quantize: false,
        ..Default::default()
    };
    let idx = build_index(
        Arc::new(Pager::in_memory(256, 1 << 12)),
        &proj,
        &orig,
        &cfg,
        HeadBasis::estimate(&orig, cfg.seed),
    )
    .unwrap();
    let _ = idx.screen_dots(0, &[0], &[0; 8], &mut Vec::new());
}

/// The codes the screen dots must dequantize back to the stored original
/// vectors within the sub-partition's recorded error bound — the inequality
/// the screen's padding discipline rests on.
#[test]
fn stored_codes_dequantize_to_originals_within_bound() {
    let (n, d) = (600, 24);
    let proj = random_matrix(n, 6, 10);
    let orig = random_matrix(n, d, 11);
    let cfg = IDistanceConfig {
        kp: 4,
        nkey: 10,
        ksp: 3,
        ..Default::default()
    };
    let idx = build_index(
        Arc::new(Pager::in_memory(1024, 1 << 16)),
        &proj,
        &orig,
        &cfg,
        HeadBasis::estimate(&orig, cfg.seed),
    )
    .unwrap();
    let mut scratch = ProjScratch::new();
    for sub in 0..idx.subparts().len() as u32 {
        let vq = &idx.vquants()[sub as usize];
        let codes = codes_the_slow_way(&idx, sub);
        idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
        for (slot, &id) in scratch.ids().iter().enumerate() {
            let mut err_sq = 0.0f64;
            let mut xnorm_sq = 0.0f64;
            for (&x, &code) in orig.row(id as usize).iter().zip(&codes[slot * d..]) {
                let xhat = vq.min as f64 + vq.scale as f64 * code as f64;
                err_sq += (x as f64 - xhat) * (x as f64 - xhat);
                xnorm_sq += xhat * xhat;
            }
            assert!(
                err_sq.sqrt() <= vq.err as f64,
                "sub {sub} slot {slot}: ‖x − x̂‖ exceeds the stored bound"
            );
            assert!(
                xnorm_sq.sqrt() <= vq.xnorm as f64,
                "sub {sub} slot {slot}: ‖x̂‖ exceeds the stored bound"
            );
        }
    }
}

fn build_over(orig: &Matrix, page_size: usize, seed: u64) -> IDistanceIndex {
    let proj = random_matrix(orig.rows(), 4, seed);
    let cfg = IDistanceConfig {
        kp: 2,
        nkey: 3,
        ksp: 2,
        ..Default::default()
    };
    build_index(
        Arc::new(Pager::in_memory(page_size, 1 << 16)),
        &proj,
        orig,
        &cfg,
        HeadBasis::estimate(orig, cfg.seed),
    )
    .unwrap()
}

/// Page accounting at the head width: a 64-byte head is a 32-byte prefix
/// and a 32-byte suffix, which fill 4 KB pages exactly, so no row straddles
/// one, the column sweep ticks once a page of prefixes (one kernel call on
/// its 128 rows, the last page what is left), each page of the prefix
/// column is read once and no suffix page at all, and a group's dense
/// request is one run per page of each column.
#[test]
fn head_rows_fill_pages_exactly_and_each_page_is_read_once() {
    let (n, d) = (1_000usize, 300usize);
    let idx = build_over(&low_rank(n, d, 48, 0.0, 21), 4_096, 22);
    assert_eq!((idx.code_width(), idx.prefix_width()), (64, 32));
    assert_eq!(idx.head().map(|basis| basis.rows().cols()), Some(d));
    // The two code columns, then a byte a row of suffix-norm codes.
    let (_, region_bytes) = idx.code_region().unwrap();
    assert_eq!(region_bytes, (n * 65) as u64);
    let pages = (n * 32).div_ceil(4_096) as u64;
    assert_eq!(prefix_pages(&idx), pages);

    let mut rng = Xoshiro256pp::seed_from_u64(23);
    let qcodes = random_qcodes(64, &mut rng);
    let want = dense_dots(&idx, &qcodes);
    let (mut dots, mut ticks) = (Vec::new(), 0);
    idx.pager().stats().reset();
    idx.column_dots(&qcodes, &mut dots, || {
        ticks += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(dots, want);
    assert_eq!(idx.access_stats().logical_reads, pages);
    assert_eq!(ticks, pages, "one kernel call a page");

    // A group asking for every record: the pages its rows sit on in each
    // column, once.
    for sub in 0..idx.subparts().len() as u32 {
        let count = idx.subparts()[sub as usize].count as usize;
        let offsets: Vec<u32> = (0..count as u32).collect();
        idx.pager().stats().reset();
        idx.screen_dots(sub, &offsets, &qcodes, &mut dots).unwrap();
        let pages_of = |(first_byte, w): (usize, usize)| {
            let last_byte = first_byte + count * w - 1;
            (last_byte / 4_096 - first_byte / 4_096 + 1) as u64
        };
        let want: u64 = column_bases(&idx, sub).into_iter().map(pages_of).sum();
        assert_eq!(idx.access_stats().logical_reads, want);
    }
}

/// A head row's prefix dot — the sweep's — plus its suffix dot is the dot
/// of the whole row, which is what `screen_dots` returns; a suffix cursor
/// reads each page of the suffix column its rows sit on once. At 4 KB
/// pages no row straddles one; at 64, 70 and 130 bytes most do.
#[test]
fn prefix_plus_suffix_is_the_whole_row_and_each_suffix_page_is_read_once() {
    let orig = low_rank(700, 160, 20, 0.3, 51);
    for page_size in COLUMN_PAGE_SIZES {
        let idx = build_over(&orig, page_size, 52);
        assert_eq!((idx.code_width(), idx.prefix_width()), (64, 32));
        let mut rng = Xoshiro256pp::seed_from_u64(53 ^ page_size as u64);
        let qcodes = random_qcodes(64, &mut rng);
        let mut prefix = Vec::new();
        idx.column_dots(&qcodes, &mut prefix, || Ok(())).unwrap();
        let mut whole = Vec::new();
        let mut first = 0;
        for sub in 0..idx.subparts().len() as u32 {
            let codes = codes_the_slow_way(&idx, sub);
            let count = idx.subparts()[sub as usize].count;
            for offsets in offset_patterns(count, &mut rng) {
                idx.pager().stats().reset();
                let mut suffixes = idx.suffix_cursor();
                let suffix: Vec<i32> = offsets
                    .iter()
                    .map(|&o| suffixes.dot(sub, o, &qcodes).unwrap())
                    .collect();
                let (base, w) = column_bases(&idx, sub)[1];
                assert_eq!(
                    idx.access_stats().logical_reads,
                    column_reads(&idx, base, w, &offsets),
                    "ps={page_size} sub={sub} offsets={offsets:?}"
                );
                idx.screen_dots(sub, &offsets, &qcodes, &mut whole).unwrap();
                let summed: Vec<i32> = offsets
                    .iter()
                    .zip(&suffix)
                    .map(|(&o, s)| prefix[first + o as usize] + s)
                    .collect();
                let want: Vec<i32> = offsets
                    .iter()
                    .map(|&o| naive_dot(&codes[o as usize * 64..][..64], &qcodes))
                    .collect();
                assert_eq!(summed, want, "ps={page_size} sub={sub}");
                assert_eq!(whole, want, "ps={page_size} sub={sub}");
            }
            first += count as usize;
        }
    }
}

/// Each head row's suffix-norm code bounds its own suffix norm,
/// `code·suffix_norm/255 ≥ ‖(Vo)_{h/2..h}‖` with the norm computed here from
/// the row the long way, and is the smallest byte that does; the largest
/// row of a sub-partition gets 255, most rows less. `suffix_norm_codes`
/// returns the bytes of the column past the suffixes, reading each page it
/// spans once: at 4 KB pages the column starts on a page boundary, at 64,
/// 70 and 130 bytes mid-page.
#[test]
fn suffix_norm_codes_bound_each_row_and_are_read_once() {
    let orig = low_rank(700, 160, 20, 0.3, 61);
    for page_size in COLUMN_PAGE_SIZES {
        let idx = build_over(&orig, page_size, 62);
        let basis = idx.head().expect("rank-20 rows get a head");
        let (n, w) = (idx.len() as usize, idx.code_width());
        let (start, len) = idx.code_region().unwrap();
        assert_eq!(len, (n * (w + 1)) as u64, "ps={page_size}");

        idx.pager().stats().reset();
        let mut codes = Vec::new();
        idx.suffix_norm_codes(&mut codes).unwrap();
        let pages = ((n * w + n - 1) / page_size - n * w / page_size + 1) as u64;
        assert_eq!(idx.access_stats().logical_reads, pages, "ps={page_size}");
        let slow = read_blob_range(idx.pager(), start, n * w, n).unwrap();
        assert_eq!(codes, slow, "ps={page_size}");

        let mut scratch = ProjScratch::new();
        let mut head = vec![0.0f32; w];
        let mut rows = codes.iter();
        for sub in 0..idx.subparts().len() as u32 {
            let unit = idx.vquants()[sub as usize].suffix_norm as f64 / 255.0;
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            let mut top = 0;
            for &id in scratch.ids() {
                basis.project(orig.row(id as usize), &mut head);
                let suffix = head[w / 2..].iter().map(|&a| a as f64 * a as f64);
                let norm = suffix.sum::<f64>().sqrt();
                let code = *rows.next().unwrap();
                assert!(
                    code as f64 * unit >= norm,
                    "ps={page_size} sub={sub} id={id}"
                );
                if code > 0 {
                    let less = (code - 1) as f64 * unit;
                    assert!(
                        less < norm * (1.0 + 1e-9),
                        "ps={page_size} id={id}: not the least"
                    );
                }
                top = top.max(code);
            }
            assert_eq!(top, u8::MAX, "ps={page_size} sub={sub}");
        }
        let mean = codes.iter().map(|&c| c as f64).sum::<f64>() / n as f64;
        assert!(mean < 200.0, "ps={page_size}: mean code {mean}");
    }
}

/// Head codes dequantize to the rows' heads `Vo` within the sub-partition's
/// recorded bounds, what the head leaves out of a row — computed the long
/// way, `o − Vᵀ(Vo)` — is within the recorded `tail`, and the head's
/// coordinates past its prefix are within the recorded `suffix_norm`: the
/// inequalities the head screen's padding rests on. With noise, so that
/// the tails are the data's and not rounding.
#[test]
fn head_codes_dequantize_to_projected_rows_within_bounds() {
    let (n, d) = (800usize, 160usize);
    let orig = low_rank(n, d, 20, 0.3, 31);
    let idx = build_over(&orig, 1_000, 32);
    let basis = idx
        .head()
        .expect("rank-20 rows with little noise get a head");
    let w = basis.width();
    assert_eq!((w, idx.code_width()), (64, 64));
    let mut scratch = ProjScratch::new();
    let mut head = vec![0.0f32; w];
    let mut tails_used = 0;
    for sub in 0..idx.subparts().len() as u32 {
        let vq = &idx.vquants()[sub as usize];
        let codes = codes_the_slow_way(&idx, sub);
        idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
        for (slot, &id) in scratch.ids().iter().enumerate() {
            let o = orig.row(id as usize);
            basis.project(o, &mut head);
            let (mut err_sq, mut xnorm_sq) = (0.0f64, 0.0f64);
            for (&a, &code) in head.iter().zip(&codes[slot * w..]) {
                let xhat = vq.min as f64 + vq.scale as f64 * code as f64;
                err_sq += (a as f64 - xhat) * (a as f64 - xhat);
                xnorm_sq += xhat * xhat;
            }
            assert!(err_sq.sqrt() <= vq.err as f64, "sub {sub} slot {slot}: err");
            assert!(
                xnorm_sq.sqrt() <= vq.xnorm as f64,
                "sub {sub} slot {slot}: xnorm"
            );
            let suffix = head[w / 2..].iter().map(|&a| a as f64 * a as f64);
            let suffix_norm = suffix.sum::<f64>().sqrt();
            assert!(
                suffix_norm <= vq.suffix_norm as f64,
                "sub {sub} slot {slot}"
            );
            let mut rest: Vec<f64> = o.iter().map(|&x| x as f64).collect();
            for (j, &a) in head.iter().enumerate() {
                for (r, &v) in rest.iter_mut().zip(basis.rows().row(j)) {
                    *r -= a as f64 * v as f64;
                }
            }
            let residual = rest.iter().map(|r| r * r).sum::<f64>().sqrt();
            assert!(residual <= vq.tail as f64, "sub {sub} slot {slot}: tail");
            tails_used += (residual > 0.5 * vq.tail as f64) as usize;
        }
    }
    assert!(tails_used > 0, "the recorded tails are far from any row's");
}

/// `MemStorage` that counts the device reads made of it — per instance,
/// where the process-global `IoReads` would count every test's.
struct CountingReads(MemStorage, AtomicU64);

impl Storage for CountingReads {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.0.num_pages()
    }
    fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.read_pages(first, buf)
    }
    fn append_pages(&self, bytes: &[u8]) -> io::Result<PageId> {
        self.0.append_pages(bytes)
    }
    fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

/// A cold sweep of a `P`-page prefix column through a pool of `S` stripes
/// makes ⌈P/S⌉ device reads and `P` logical reads, every one a miss,
/// whether the pool holds the column or not — with 64-byte heads (32-byte
/// prefixes) at 4 KB pages (no row straddles a page) and with 300-byte
/// full-width rows at 1 000-byte pages (the prefix is the whole row; most
/// windows end inside one). A warm sweep through a pool that holds the
/// column makes none.
#[test]
fn a_cold_sweep_makes_one_device_read_a_window() {
    let shapes = [
        (low_rank(1_000, 300, 48, 0.0, 21), 4_096, 64),
        (random_matrix(600, 300, 41), 1_000, 300),
    ];
    for (orig, ps, width) in shapes {
        for capacity in [1 << 10, 6] {
            let device = Arc::new(CountingReads(MemStorage::new(ps), AtomicU64::new(0)));
            let stats = AccessStats::new_shared();
            let pager = Arc::new(Pager::new(Arc::clone(&device) as _, capacity, stats));
            let proj = random_matrix(orig.rows(), 4, 42);
            let cfg = IDistanceConfig {
                kp: 2,
                nkey: 3,
                ksp: 2,
                ..Default::default()
            };
            let idx = build_index(
                pager,
                &proj,
                &orig,
                &cfg,
                HeadBasis::estimate(&orig, cfg.seed),
            )
            .unwrap();
            assert_eq!(idx.code_width(), width);
            let (_, bytes) = idx.code_region().unwrap();
            // The sweep reads half the bytes of a head's code region.
            let prefix_bytes = bytes * idx.prefix_width() as u64 / width as u64;
            let pages = prefix_bytes.div_ceil(ps as u64);
            let stripes = idx.pager().stripes() as u64;
            assert_eq!(stripes, capacity.min(16) as u64);
            let tag = format!("{width}-byte rows, {ps}-byte pages, pool {capacity}");

            let qcodes = random_qcodes(width, &mut Xoshiro256pp::seed_from_u64(43));
            let mut dots = Vec::new();
            for cold in [true, false] {
                if cold {
                    idx.pager().clear_cache();
                }
                idx.pager().stats().reset();
                let before = device.1.load(Ordering::Relaxed);
                idx.column_dots(&qcodes, &mut dots, || Ok(())).unwrap();
                let device_reads = device.1.load(Ordering::Relaxed) - before;
                let snap = idx.access_stats();
                assert_eq!(snap.logical_reads, pages, "{tag}");
                if cold {
                    assert_eq!(device_reads, pages.div_ceil(stripes), "{tag}");
                    assert_eq!(snap.cache_misses, pages, "{tag}");
                } else if capacity as u64 >= pages {
                    assert_eq!((device_reads, snap.cache_misses), (0, 0), "{tag}");
                }
            }
            assert_eq!(dots, dense_dots(&idx, &qcodes), "{tag}");
        }
    }
}
