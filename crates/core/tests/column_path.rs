//! The scan side of the index-or-scan rule (`promips_core::search` module
//! docs): a query whose Quick-Probe ball covers most of the index is
//! answered by one storage-order pass over the SQ8 code column, and that
//! answer is the **exact** top-k over the live rows.
//!
//! Checked here against `baselines::ExactScan` over random shapes — rows
//! that straddle pages, sub-partitions that share pages, masks down to
//! all-dead, `k` beyond the live rows, one shard and four —
//! plus the pass's page accounting, a clustered dataset on which the
//! rule keeps the annulus path because it reads less, and spectra on both
//! sides of the width rule: code columns that are 64-byte heads and ones
//! that stay full-width answer alike, and a query screen handed in by the
//! caller is used only by an index coded under its basis.

mod common;

use std::sync::Arc;

use common::{clustered, low_rank, without_head};

use promips_baselines::ExactScan;
use promips_core::result::Termination;
use promips_core::screen::QueryScreen;
use promips_core::{ProMips, ProMipsConfig, Query, SearchItem, SearchResult, SearchScratch};
use promips_linalg::{dot, Matrix};
use promips_obs::ShardSpan;
use promips_shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch};
use promips_stats::Xoshiro256pp;
use promips_storage::Pager;
use proptest::prelude::*;

fn gaussian(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

fn config(page_size: usize, seed: u64) -> ProMipsConfig {
    ProMipsConfig::builder()
        .c(0.9)
        .p(0.5)
        .seed(seed ^ 0xC01)
        .page_size(page_size)
        .build()
}

fn build(data: &Matrix, page_size: usize, seed: u64) -> ProMips {
    let pager = Arc::new(Pager::in_memory(page_size, (1 << 25) / page_size));
    ProMips::build_with_pager(data, config(page_size, seed), pager).unwrap()
}

/// `ExactScan` over the rows `dead` spares: `(id, ip)` with the ip
/// recomputed by the single-row kernel the column pass scores with.
fn exact(data: &Matrix, q: &[f32], k: usize, dead: &dyn Fn(u64) -> bool) -> Vec<(u64, f64)> {
    let live: Vec<u64> = (0..data.rows() as u64).filter(|&id| !dead(id)).collect();
    if live.is_empty() {
        return Vec::new();
    }
    let rows = Matrix::from_rows(
        data.cols(),
        live.iter().map(|&id| data.row(id as usize).to_vec()),
    );
    ExactScan::new(&rows, 1)
        .top_k(q, k)
        .into_iter()
        .map(|nb| live[nb.id as usize])
        .map(|id| (id, dot(data.row(id as usize), q)))
        .collect()
}

/// A request's tombstone mask: the predicate and how many ids it kills.
type Mask<'a> = Option<(&'a dyn Fn(u64) -> bool, usize)>;

fn pairs(items: &[SearchItem]) -> Vec<(u64, f64)> {
    items.iter().map(|it| (it.id, it.ip)).collect()
}

/// Runs `request` and returns the result with the span the search filled.
fn traced(
    index: &ProMips,
    request: Query<'_>,
    scratch: &mut SearchScratch,
) -> (SearchResult, ShardSpan) {
    let mut span = ShardSpan::default();
    let res = index
        .execute(
            Query {
                span: Some(&mut span),
                ..request
            },
            scratch,
        )
        .unwrap();
    (res, span)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Column-path results equal the exact scan over the live rows, for
    /// every mask, unsharded and through the shard layer.
    #[test]
    fn column_pass_equals_exact_scan(
        n in 200usize..3_000,
        d_pick in 0usize..3,
        ps_pick in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let d = [5usize, 64, 300][d_pick];
        // 4096 / 1000: rows straddle pages and sub-partitions share them;
        // 130 / 70: at d = 300 (and 64-byte rows on 70) every row spans pages.
        let page_size = [4096usize, 1000, 130, 70][ps_pick];
        // The widest rows on the smallest pages would spend the test's time
        // allocating 64-byte pages, not searching.
        let n = if d == 300 { n.min(1_200) } else { n };
        let data = gaussian(n, d, seed);
        let index = build(&data, page_size, seed);
        let mut scratch = SearchScratch::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED);

        let third = |id: u64| id % 3 == 1;
        let all = |_: u64| true;
        let survivors = [7u64, 8, n as u64 - 1];
        let but_three = |id: u64| !survivors.contains(&id);
        let masks: [Mask<'_>; 4] = [
            None,
            Some((&third, (0..n as u64).filter(|&id| third(id)).count())),
            Some((&all, n)),
            Some((&but_three, n - 3)),
        ];
        let mut on_column = 0;
        for mask in masks {
            let dead = |id: u64| mask.is_some_and(|(dead, _)| dead(id));
            let live = n - mask.map_or(0, |(_, count)| count);
            for k in [1usize, 10, live + 5] {
                let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
                let plain = Query { mask, ..Query::new(&q, k) };
                let (res, span) = traced(&index, plain, &mut scratch);
                // The path is the index's choice; the span says which.
                prop_assert_eq!(
                    span.column_pass,
                    live > 0 && res.termination == Termination::DatasetExhausted
                );
                if !span.column_pass {
                    continue;
                }
                on_column += 1;
                let want = exact(&data, &q, k, &dead);
                prop_assert_eq!(pairs(&res.items), want);
                prop_assert_eq!(res.final_radius, None);
                prop_assert!(res.probe_radius.is_some() && !res.compensated);
                prop_assert_eq!(span.scanned, n as u64);
                prop_assert_eq!(res.screened as u64, span.screened);
                // Every row is screened or scored, the ones the walk never
                // reached included; only rows the mask kills are neither.
                if mask.is_none() {
                    prop_assert_eq!(span.screened + span.verified, span.scanned);
                } else {
                    prop_assert!(span.screened + span.verified <= span.scanned);
                }

                // A floor at the exact k-th changes the work, not the
                // answer, and never adds work; one above every row leaves
                // nothing to verify or return.
                if want.len() == k {
                    let at_kth = Query { mask, kth_floor: want[k - 1].1, ..Query::new(&q, k) };
                    let (floored, fspan) = traced(&index, at_kth, &mut scratch);
                    prop_assert_eq!(pairs(&floored.items), want.clone());
                    prop_assert!(fspan.column_pass && fspan.verified <= span.verified);
                }
                let above = Query { mask, kth_floor: f64::INFINITY, ..Query::new(&q, k) };
                let (none, nspan) = traced(&index, above, &mut scratch);
                prop_assert!(none.items.is_empty());
                prop_assert_eq!((nspan.screened, nspan.verified), (nspan.scanned, 0));
            }
        }
        prop_assert!(on_column > 0, "no query of this case took the column path");

        // Through the shard layer: one shard is the unsharded index; four
        // shards merge four exact answers (a shard on the annulus side of
        // its own rule makes the comparison void for that query).
        let gone: Vec<u64> = (0..n as u64).filter(|&id| third(id)).collect();
        for shards in [1usize, 4] {
            let sharded = ShardedProMips::build_in_memory(
                &data,
                ShardedConfig::builder()
                    .shards(shards)
                    .base(config(page_size, seed))
                    .build(),
            )
            .unwrap();
            let sscratch = ShardedScratch::for_index(&sharded);
            for deleted in [false, true] {
                if deleted {
                    for &gid in &gone {
                        sharded.delete(gid).unwrap();
                    }
                }
                let dead = |id: u64| deleted && third(id);
                let mask: Mask<'_> = Some((&dead, if deleted { gone.len() } else { 0 }));
                let mut compared = 0;
                for _ in 0..6 {
                    let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
                    let request = ShardedQuery {
                        traced: true,
                        threads: Some(1),
                        ..ShardedQuery::new(&q, 10)
                    };
                    let (got, trace) = sharded.execute(request, &sscratch).unwrap();
                    let trace = trace.expect("traced request returns its trace");
                    if !trace.shards.iter().all(|s| s.pruned || s.column_pass) {
                        continue;
                    }
                    compared += 1;
                    let got = pairs(&got.items);
                    let want = exact(&data, &q, 10, &dead);
                    prop_assert_eq!(got.clone(), want);
                    let masked = Query { mask, ..Query::new(&q, 10) };
                    let (single, span) = traced(&index, masked, &mut scratch);
                    if span.column_pass {
                        prop_assert_eq!(got, pairs(&single.items));
                    }
                }
                prop_assert!(compared > 0, "{shards} shard(s): no all-column query");
            }
        }
    }
}

/// Page accounting of one pass: every page of the code column exactly once,
/// plus at most the pages its survivors' ids and f32 rows sit on (the walk
/// visits sub-partitions best first, so a survivor page may be read again
/// by a later sub-partition) — and nothing else: no page for Quick-Probe's
/// radius, no projected scan.
#[test]
fn the_pass_reads_the_column_once_plus_its_survivors() {
    let (n, d, page_size) = (2_500usize, 64usize, 1_000usize);
    let data = gaussian(n, d, 31);
    let index = build(&data, page_size, 31);
    let idist = index.idistance();
    let (_, column_bytes) = idist.code_region().expect("default build has the tier");
    assert_eq!(column_bytes, (n * d) as u64);
    let column_pages = column_bytes.div_ceil(page_size as u64);

    let mut rng = Xoshiro256pp::seed_from_u64(32);
    let mut scratch = SearchScratch::new();
    let mut seen = 0;
    for _ in 0..12 {
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        index.clear_cache();
        let before = index.access_stats();
        let (res, span) = traced(&index, Query::new(&q, 10), &mut scratch);
        let reads = index.access_stats().delta_since(&before);
        if !span.column_pass {
            continue;
        }
        seen += 1;
        // On a cleared pool every distinct page misses once: each column
        // page was read (once: `screen_dots.rs` holds the sweep to that).
        assert!(reads.cache_misses >= column_pages, "{reads:?}");
        // Survivors: at most two pages each for the id (8 bytes) and the
        // f32 row (256 bytes on 1000-byte pages), re-reads included.
        let survivor_pages = reads.logical_reads - column_pages;
        assert!(
            survivor_pages <= 4 * res.verified as u64,
            "{survivor_pages} pages beside the column for {} survivors",
            res.verified
        );
        assert!(
            res.verified < n / 4,
            "the screen let {} rows through",
            res.verified
        );
    }
    assert!(seen > 0, "no query took the column path");
}

/// Tight, well-separated clusters, two of them near the origin
/// (`common::clustered`): Quick-Probe locates a small-norm point, and the
/// ball around a far cluster's row meets a small share of the
/// sub-partitions for some clusters and most of them for others. The rule
/// is the documented one — a quarter of the rows — and it prices rows in
/// memory, not pages. Where it keeps the annulus path, that path reads each
/// covered sub-partition's projected records once and screens row by row
/// as the pass does: [46, 37, 103, 119, 62, 55, 94] pages on the seven
/// annulus queries, a mean of ≈ 73.7, no more than the best-first passes
/// over the same index (≈ 73.9, their survivors' rows included: the rows
/// are of rank 24, so the column itself is a 64-byte head, 45 pages). With
/// an SQ8 code filter read in front of the records the same seven queries
/// read [76, 61, 139, 167, 109, 95, 119], a mean of ≈ 109.4. A
/// directory-order walk read more than either (a mean of ≈ 210 pages a
/// pass).
#[test]
fn a_clustered_dataset_stays_on_the_annulus_path_which_reads_no_more_than_the_pass() {
    let (clusters, per, d) = (24usize, 120usize, 300usize);
    let n = clusters * per;
    let data = clustered(clusters, per, d, 90);
    let index = build(&data, 4096, 90);
    assert_eq!(index.idistance().code_width(), 64);

    let mut scratch = SearchScratch::new();
    let (mut annulus, mut column) = (Vec::new(), Vec::new());
    // Row c is a row of cluster c; the first two clusters are the near ones.
    for q in (2..clusters).map(|c| data.row(c)) {
        index.clear_cache();
        let before = index.access_stats();
        let (res, span) = traced(&index, Query::new(q, 10), &mut scratch);
        let reads = index.access_stats().delta_since(&before).logical_reads;
        assert!(span.covered_rows > 0, "the rule ran");
        assert_eq!(span.column_pass, span.covered_rows * 4 >= n as u64);
        if span.column_pass {
            column.push(reads);
            continue;
        }
        assert_ne!(res.termination, Termination::DatasetExhausted);
        assert!(res.final_radius.is_some());
        annulus.push(reads);
        // The annulus path ignores the floor: Conditions A and B read this
        // index's own k-th.
        let floored = Query {
            kth_floor: res.items[0].ip,
            ..Query::new(q, 10)
        };
        let (again, again_span) = traced(&index, floored, &mut scratch);
        assert_eq!(again, res);
        assert_eq!(
            (again_span.scanned, again_span.screened, again_span.verified),
            (span.scanned, span.screened, span.verified)
        );
    }
    assert!(
        annulus.len() >= 6 && column.len() >= 6,
        "{} annulus-path and {} column-path queries",
        annulus.len(),
        column.len()
    );
    let mean = |reads: &[u64]| reads.iter().sum::<u64>() as f64 / reads.len() as f64;
    assert!(
        mean(&annulus) <= mean(&column),
        "annulus path read {annulus:?} pages, the column pass {column:?}"
    );
}

/// A head column is swept by its 32-byte prefixes; the suffixes are read
/// only for the rows of the visited sub-partitions that their own prefix
/// bound (prefix dot and suffix-norm code) leaves in. Items are the exact top-k unmasked, masked and at a floor at
/// the exact k-th, and a whole pass — its scored rows' ids and f32 rows
/// included — reads fewer pages than the code column alone used to.
#[test]
fn a_head_pass_sweeps_the_prefixes_and_stays_exact() {
    let (n, d, page_size) = (20_000usize, 160usize, 4096usize);
    let data = low_rank(n, d, 20, 0.0, 71);
    let index = build(&data, page_size, 71);
    let idist = index.idistance();
    assert_eq!((idist.code_width(), idist.prefix_width()), (64, 32));
    let whole_pages = (n * 64).div_ceil(page_size) as u64;

    let mut rng = Xoshiro256pp::seed_from_u64(72);
    let mut scratch = SearchScratch::new();
    let third = |id: u64| id % 3 == 1;
    let masked: Mask<'_> = Some((&third, (0..n as u64).filter(|&id| third(id)).count()));
    let mut on_column = 0;
    for _ in 0..12 {
        let row = data.row(rng.below(n as u64) as usize);
        let q: Vec<f32> = row.iter().map(|x| x + 0.1 * rng.normal() as f32).collect();
        for mask in [None, masked] {
            let dead = |id: u64| mask.is_some_and(|(dead, _)| dead(id));
            index.clear_cache();
            let before = index.access_stats();
            let (res, span) = traced(
                &index,
                Query {
                    mask,
                    ..Query::new(&q, 10)
                },
                &mut scratch,
            );
            let reads = index.access_stats().delta_since(&before).logical_reads;
            if !span.column_pass {
                continue;
            }
            on_column += 1;
            let want = exact(&data, &q, 10, &dead);
            assert_eq!(pairs(&res.items), want);
            assert!(
                reads < whole_pages,
                "{reads} pages, the column is {whole_pages}"
            );
            if mask.is_none() {
                assert_eq!(span.screened + span.verified, n as u64);
            }
            let floored = Query {
                mask,
                kth_floor: want[9].1,
                ..Query::new(&q, 10)
            };
            let (again, again_span) = traced(&index, floored, &mut scratch);
            assert_eq!(pairs(&again.items), want);
            assert!(again_span.verified <= span.verified);
        }
    }
    assert!(on_column >= 12, "{on_column} column-path queries");
}

/// Whatever the spectrum makes of the code column — a 64-byte head (rows
/// exactly low-rank, or with noise just under the width rule's ε, or with
/// heavy-residual rows in otherwise low-rank sub-partitions) or full-width codes (noise
/// just over ε, isotropic rows) — the pass returns the exact top-k: for
/// queries beside a data row, for a query lying entirely in the subspace
/// the head leaves out (every inner product is then the tail's), and for
/// the zero query.
#[test]
fn head_and_full_width_columns_answer_exactly() {
    let (n, d) = (1_500usize, 160usize);
    let mut rng = Xoshiro256pp::seed_from_u64(45);
    // More rows far outside the span the rest share than the head has
    // directions to spare for them (64 − 20): some stay outside it.
    let mut outliers = low_rank(n, d, 20, 0.0, 44);
    for i in (10..n).step_by(25) {
        for x in outliers.row_mut(i) {
            *x += 2.0 * rng.normal() as f32;
        }
    }
    let cases = [
        ("exactly low-rank", low_rank(n, d, 20, 0.0, 41), true),
        ("noise just under ε", low_rank(n, d, 20, 0.7, 42), true),
        ("noise just over ε", low_rank(n, d, 20, 1.2, 43), false),
        ("isotropic", gaussian(n, d, 46), false),
        ("heavy-residual rows", outliers, true),
    ];
    for (what, data, head) in cases {
        let index = build(&data, 4096, 47);
        let idist = index.idistance();
        assert_eq!(idist.head().is_some(), head, "{what}");
        let width = if head { 64 } else { d };
        assert_eq!(idist.code_width(), width, "{what}");
        // A head's row is its codes and its suffix-norm code.
        let row_bytes = width + head as usize;
        assert_eq!(idist.code_region().unwrap().1, (n * row_bytes) as u64);
        if what == "heavy-residual rows" {
            let tails = idist.vquants().iter().map(|vq| vq.tail);
            assert!(tails.clone().any(|t| t > 5.0), "{what}: none left outside");
            assert!(
                tails.clone().any(|t| t < 0.1),
                "{what}: no clean sub-partition"
            );
        }

        let mut queries: Vec<Vec<f32>> = (0..8)
            .map(|_| {
                let row = data.row(rng.below(n as u64) as usize);
                row.iter().map(|x| x + 0.1 * rng.normal() as f32).collect()
            })
            .collect();
        queries.push(data.row(10).to_vec());
        queries.push(vec![0.0; d]);
        // A Gaussian vector with its head taken out (as is, without one).
        let gaussian: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        queries.push(match idist.head() {
            Some(basis) => without_head(basis, &gaussian),
            None => gaussian,
        });

        let mut scratch = SearchScratch::new();
        let mut on_column = 0;
        for (qi, q) in queries.iter().enumerate() {
            for k in [1usize, 10] {
                let (res, span) = traced(&index, Query::new(q, k), &mut scratch);
                if !span.column_pass {
                    continue;
                }
                on_column += 1;
                let want = exact(&data, q, k, &|_| false);
                assert_eq!(pairs(&res.items), want, "{what}: query {qi}, k={k}");
                assert_eq!(span.screened + span.verified, n as u64);
            }
        }
        assert!(on_column >= 12, "{what}: {on_column} column-path queries");
    }
}

/// A caller's query screen ([`Query::screen`]) stands in for the one the
/// search would build — same items, same counts — only on an index coded
/// under the basis it was built under: a screen of another head basis, a
/// full-width screen on a head index, a head screen on a full-width one and
/// a screen never built are each `InvalidInput`, refused before any page
/// is read.
#[test]
fn a_query_screen_of_another_basis_is_refused() {
    let (n, d) = (1_500usize, 160usize);
    let head_a = build(&low_rank(n, d, 20, 0.0, 81), 4096, 81);
    let head_b = build(&low_rank(n, d, 20, 0.0, 82), 4096, 82);
    let full = build(&gaussian(n, d, 83), 4096, 83);
    let (basis_a, basis_b) = (head_a.idistance().head(), head_b.idistance().head());
    assert!(basis_a.is_some() && basis_b.is_some() && full.idistance().head().is_none());
    assert_ne!(
        basis_a.unwrap().fingerprint(),
        basis_b.unwrap().fingerprint()
    );

    let q: Vec<f32> = low_rank(1, d, 20, 0.0, 84).row(0).to_vec();
    let q_sq_norm = q.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
    let screen_of = |index: &ProMips| {
        let mut qs = QueryScreen::default();
        qs.rebuild(&q, q_sq_norm, index.idistance().head());
        qs
    };
    let mut scratch = SearchScratch::new();
    for (index, fits) in [
        (&head_a, [true, false, false]),
        (&full, [false, false, true]),
    ] {
        let (want, want_span) = traced(index, Query::new(&q, 10), &mut scratch);
        let screens = [screen_of(&head_a), screen_of(&head_b), screen_of(&full)];
        for (qs, fits) in screens
            .iter()
            .chain([&QueryScreen::default()])
            .zip(fits.into_iter().chain([false]))
        {
            let request = Query {
                screen: Some(qs),
                ..Query::new(&q, 10)
            };
            if fits {
                let (got, span) = traced(index, request, &mut scratch);
                assert_eq!(got, want);
                assert_eq!(
                    (span.screened, span.verified),
                    (want_span.screened, want_span.verified)
                );
                continue;
            }
            index.reset_stats();
            let err = index.execute(request, &mut scratch).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert_eq!(index.access_stats().logical_reads, 0);
        }
    }
}
