//! The public-API tests of `ProMips::execute` and its wrappers: masks,
//! scratch reuse, budgets, batches, the (c, p) guarantee, `k` clamps and
//! the refusals. Compiled into the library's unit-test binary
//! (`src/search.rs` includes this file by path), so it sits outside the
//! `src` line budget while the suite still names its tests
//! `search::tests::…`. It uses only the public API.

use super::*;
use crate::config::ProMipsConfig;
use promips_linalg::Matrix;
use promips_stats::Xoshiro256pp;

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect()),
    )
}

/// Exact top-k MIP by brute force.
fn exact_topk(data: &Matrix, q: &[f32], k: usize) -> Vec<(u64, f64)> {
    let mut ips: Vec<(u64, f64)> = (0..data.rows())
        .map(|i| (i as u64, dot(data.row(i), q)))
        .collect();
    ips.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ips.truncate(k);
    ips
}

fn build(n: usize, d: usize, seed: u64, c: f64, p: f64) -> (ProMips, Matrix) {
    let data = random_data(n, d, seed);
    let cfg = ProMipsConfig::builder()
        .c(c)
        .p(p)
        .seed(seed ^ 0xABCD)
        .build();
    let idx = ProMips::build_in_memory(&data, cfg).unwrap();
    (idx, data)
}

fn masked<'a>(q: &'a [f32], k: usize, mask: Option<(&'a dyn Fn(u64) -> bool, usize)>) -> Query<'a> {
    Query {
        mask,
        ..Query::new(q, k)
    }
}

fn budgeted<'a>(q: &'a [f32], k: usize, budget: Option<&'a QueryBudget>) -> Query<'a> {
    Query {
        budget,
        ..Query::new(q, k)
    }
}

#[test]
fn search_returns_k_sorted_items() {
    let (idx, _) = build(800, 24, 11, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let q: Vec<f32> = (0..24).map(|_| rng.normal() as f32).collect();
    let res = idx.search(&q, 10).unwrap();
    assert_eq!(res.items.len(), 10);
    assert!(res.items.windows(2).all(|w| w[0].ip >= w[1].ip));
    assert!(res.verified >= 10);
    assert!(res.probe_radius.is_some());
}

#[test]
fn masked_search_excludes_exactly_the_masked_ids() {
    let (idx, data) = build(600, 20, 13, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(57);
    let mut scratch = SearchScratch::new();
    // Kill a fixed slice of ids through the external mask only — the
    // index itself holds no tombstones.
    let dead = |id: u64| (50..80).contains(&id);
    let dead_count = 30usize;
    for _ in 0..6 {
        let q: Vec<f32> = (0..20).map(|_| rng.normal() as f32).collect();
        // Full-k forces exhaustive verification, so the result is the
        // exact top-k over the unmasked points.
        let k = 600 - dead_count;
        let res = idx
            .execute(masked(&q, k, Some((&dead, dead_count))), &mut scratch)
            .unwrap();
        assert_eq!(res.items.len(), k);
        assert!(res.items.iter().all(|i| !dead(i.id)), "masked id returned");
        let expect: Vec<(u64, f64)> = exact_topk(&data, &q, 600)
            .into_iter()
            .filter(|&(id, _)| !dead(id))
            .collect();
        for (item, (eid, eip)) in res.items.iter().zip(&expect) {
            assert_eq!(item.id, *eid);
            assert!((item.ip - eip).abs() < 1e-9);
        }
    }
}

#[test]
fn masked_search_with_empty_mask_is_bit_identical() {
    let (idx, _) = build(500, 16, 29, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let mut scratch = SearchScratch::new();
    for _ in 0..6 {
        let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
        let plain = idx.search(&q, 5).unwrap();
        let masked = idx
            .execute(masked(&q, 5, Some((&|_| false, 0))), &mut scratch)
            .unwrap();
        assert_eq!(plain.items, masked.items);
        assert_eq!(plain.verified, masked.verified);
        assert_eq!(plain.termination, masked.termination);
    }
}

#[test]
fn fully_masked_index_returns_empty() {
    let (idx, _) = build(200, 16, 43, 0.9, 0.5);
    let q = vec![1.0f32; 16];
    let res = idx
        .execute(
            masked(&q, 5, Some((&|_| true, 200))),
            &mut SearchScratch::new(),
        )
        .unwrap();
    assert!(res.items.is_empty());
    assert_eq!(res.verified, 0);
}

#[test]
fn k_clamps_to_the_points_the_mask_leaves_alive() {
    // The mask is the only source of deadness: with all but three ids
    // dead, any k returns exactly those three, exhaustively verified.
    let (idx, data) = build(200, 16, 43, 0.9, 0.5);
    let alive = [3u64, 77, 150];
    let dead = |id: u64| !alive.contains(&id);
    let q = vec![1.0f32; 16];
    let res = idx
        .execute(
            masked(&q, 10, Some((&dead, 200 - alive.len()))),
            &mut SearchScratch::new(),
        )
        .unwrap();
    let mut want: Vec<(u64, f64)> = alive
        .iter()
        .map(|&id| (id, dot(data.row(id as usize), &q)))
        .collect();
    want.sort_by(|a, b| b.1.total_cmp(&a.1));
    assert_eq!(res.ids(), want.iter().map(|w| w.0).collect::<Vec<_>>());
    assert_eq!(res.verified, alive.len());
}

#[test]
fn scratch_reuse_is_transparent() {
    // One scratch serving many queries must give the same results as a
    // fresh scratch per query.
    let (idx, _) = build(700, 20, 23, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(41);
    let mut shared = SearchScratch::new();
    for _ in 0..10 {
        let q: Vec<f32> = (0..20).map(|_| rng.normal() as f32).collect();
        let reused = idx.search_with_scratch(&q, 7, &mut shared).unwrap();
        let fresh = idx.search(&q, 7).unwrap();
        assert_eq!(reused.items, fresh.items);
        assert_eq!(reused.verified, fresh.verified);
        assert_eq!(reused.termination, fresh.termination);
    }
}

#[test]
fn every_wrapper_is_bit_identical_to_execute() {
    let (idx, _) = build(700, 20, 37, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(91);
    let mut scratch = SearchScratch::new();
    let dead = |id: u64| id.is_multiple_of(7);
    let dead_count = 100;
    for _ in 0..8 {
        let q: Vec<f32> = (0..20).map(|_| rng.normal() as f32).collect();
        let plain = idx.execute(Query::new(&q, 6), &mut scratch).unwrap();
        assert_eq!(idx.search(&q, 6).unwrap(), plain);
        assert_eq!(idx.search_with_scratch(&q, 6, &mut scratch).unwrap(), plain);
        // The frozen positional name, with the options it can carry: a
        // finite floor only cuts the answer.
        for floor in [f64::NEG_INFINITY, plain.items[2].ip] {
            let mut want_span = ShardSpan::default();
            let mut want = idx
                .execute(
                    Query {
                        mask: Some((&dead, dead_count)),
                        span: Some(&mut want_span),
                        ..Query::new(&q, 6)
                    },
                    &mut scratch,
                )
                .unwrap();
            want.items.retain(|it| it.ip >= floor);
            let mut span = ShardSpan::default();
            let got = idx
                .search_masked_traced(&q, 6, floor, &dead, dead_count, &mut scratch, &mut span)
                .unwrap();
            assert_eq!(got, want);
            assert_eq!(
                (span.scanned, span.screened, span.verified),
                (want_span.scanned, want_span.screened, want_span.verified)
            );
            assert_eq!(span.verified as usize, got.verified);
            assert_eq!(span.screened as usize, got.screened);
        }
    }
}

#[test]
fn failed_search_reports_the_work_done_before_the_error() {
    use promips_obs::QueryBudget;
    let (idx, _) = build(600, 16, 59, 0.9, 0.5);
    let q = vec![0.3f32; 16];
    let mut scratch = SearchScratch::new();
    // A full run for reference, then the same query cancelled by an
    // expired deadline: the span is filled either way, and a failed
    // search never reports more work than the finished one.
    let mut full = ShardSpan::default();
    idx.execute(
        Query {
            span: Some(&mut full),
            ..Query::new(&q, 5)
        },
        &mut scratch,
    )
    .unwrap();
    assert!(full.scanned > 0 && full.verified > 0);
    let mut cut = ShardSpan {
        scanned: u64::MAX,
        verified: u64::MAX,
        ..ShardSpan::default()
    };
    let expired = QueryBudget::with_deadline_at(0);
    idx.execute(
        Query {
            budget: Some(&expired),
            span: Some(&mut cut),
            ..Query::new(&q, 5)
        },
        &mut scratch,
    )
    .unwrap_err();
    assert!(cut.scanned <= full.scanned, "span must be overwritten");
    assert!(cut.verified <= full.verified);
}

/// A query with a NaN or infinite coordinate used to make the screen's
/// bound NaN — the column pass then dropped every row and reported an
/// exhausted, empty dataset — or came back with NaN scores; both paths
/// refuse it.
#[test]
fn a_non_finite_query_is_invalid_input_on_both_paths() {
    let data = random_data(300, 12, 61);
    // With the verification tier Gaussian rows take the column pass,
    // without it every query takes the annulus path.
    for verify_quantize in [true, false] {
        let cfg = ProMipsConfig::builder()
            .seed(61)
            .idistance(promips_idistance::IDistanceConfig {
                verify_quantize,
                ..Default::default()
            })
            .build();
        let idx = ProMips::build_in_memory(&data, cfg).unwrap();
        let mut scratch = SearchScratch::new();
        let mut span = ShardSpan::default();
        let finite = vec![0.5f32; 12];
        let request = Query {
            span: Some(&mut span),
            ..Query::new(&finite, 5)
        };
        assert_eq!(idx.execute(request, &mut scratch).unwrap().items.len(), 5);
        assert_eq!(span.column_pass, verify_quantize);
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut q = finite.clone();
            q[3] = bad;
            let err = idx.execute(Query::new(&q, 5), &mut scratch).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
            let err = idx.search_incremental(&q, 5).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{bad}, Algorithm 1"
            );
        }
    }
}

#[test]
fn budgeted_search_honours_deadline_cancellation_and_identity() {
    use promips_obs::{budget_error, BudgetExceeded, CancelToken, QueryBudget};
    let (idx, _) = build(600, 16, 59, 0.9, 0.5);
    let q = vec![0.3f32; 16];
    let mut scratch = SearchScratch::new();

    // Already-expired deadline: the first cooperative check fires and
    // the typed cause survives the io::Error plumbing.
    let expired = QueryBudget::with_deadline_at(0);
    let err = idx
        .execute(budgeted(&q, 5, Some(&expired)), &mut scratch)
        .unwrap_err();
    assert_eq!(budget_error(&err), Some(BudgetExceeded::Deadline));

    // A pre-cancelled token stops the search the same way.
    let tok = CancelToken::new();
    tok.cancel();
    let cancelled = QueryBudget::unlimited().cancellable(tok);
    let err = idx
        .execute(budgeted(&q, 5, Some(&cancelled)), &mut scratch)
        .unwrap_err();
    assert_eq!(budget_error(&err), Some(BudgetExceeded::Cancelled));

    // An unlimited budget (and an un-fired generous one) is
    // bit-identical to the plain search.
    let plain = idx.search(&q, 5).unwrap();
    for b in [
        QueryBudget::unlimited(),
        QueryBudget::with_deadline(std::time::Duration::from_secs(3600)),
    ] {
        let budgeted = idx
            .execute(budgeted(&q, 5, Some(&b)), &mut scratch)
            .unwrap();
        assert_eq!(plain.items, budgeted.items);
        assert_eq!(plain.verified, budgeted.verified);
        assert_eq!(plain.termination, budgeted.termination);
    }
}

/// A shared index read by 1, 2 and 8 threads at once, each calling
/// `execute` with its own scratch, answers every query exactly as a
/// sequential search does.
#[test]
fn concurrent_queries_match_sequential_search() {
    let (idx, _) = build(900, 28, 31, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let queries: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..28).map(|_| rng.normal() as f32).collect())
        .collect();
    let want: Vec<SearchResult> = queries.iter().map(|q| idx.search(q, 5).unwrap()).collect();
    for threads in [1usize, 2, 8] {
        std::thread::scope(|s| {
            for w in 0..threads {
                let (idx, queries, want) = (&idx, &queries, &want);
                s.spawn(move || {
                    let mut scratch = SearchScratch::new();
                    for i in (w..queries.len()).step_by(threads) {
                        let got = idx.execute(Query::new(&queries[i], 5), &mut scratch);
                        assert_eq!(got.unwrap(), want[i], "threads={threads}, query {i}");
                    }
                });
            }
        });
    }
}

#[test]
fn search_satisfies_c_bound_overwhelmingly() {
    // With p = 0.5, at least half the queries must return a c-AMIP
    // point; empirically the rate is far higher. We check the overall
    // ratio across queries stays above c (the paper's Fig. 5 behaviour).
    let (idx, data) = build(1000, 32, 7, 0.9, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let mut ratios = Vec::new();
    for _ in 0..30 {
        let q: Vec<f32> = (0..32).map(|_| rng.normal() as f32).collect();
        let res = idx.search(&q, 1).unwrap();
        let exact = exact_topk(&data, &q, 1)[0].1;
        if exact > 0.0 {
            ratios.push(res.items[0].ip / exact);
        }
    }
    let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(mean >= 0.9, "mean overall ratio {mean} below c");
    let ok = ratios.iter().filter(|&&r| r >= 0.9).count();
    assert!(
        ok as f64 / ratios.len() as f64 >= 0.5,
        "guarantee rate {ok}/{} below p",
        ratios.len()
    );
}

#[test]
fn incremental_matches_guarantee_too() {
    let (idx, data) = build(600, 16, 3, 0.8, 0.5);
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let mut hold = 0;
    let total = 20;
    for _ in 0..total {
        let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
        let res = idx.search_incremental(&q, 1).unwrap();
        let exact = exact_topk(&data, &q, 1)[0].1;
        if res.items[0].ip >= 0.8 * exact {
            hold += 1;
        }
    }
    assert!(hold as f64 / total as f64 >= 0.5, "{hold}/{total}");
}

#[test]
#[should_panic(expected = "query dimensionality mismatch")]
fn a_query_of_the_wrong_dimension_is_refused() {
    let (idx, _) = build(50, 8, 5, 0.9, 0.5);
    let _ = idx.search(&[0.5f32; 7], 3);
}

#[test]
#[should_panic(expected = "k must be at least 1")]
fn a_request_for_zero_results_is_refused() {
    let (idx, _) = build(50, 8, 5, 0.9, 0.5);
    let _ = idx.search(&[0.5f32; 8], 0);
}

#[test]
fn k_clamped_to_dataset_size() {
    let (idx, _) = build(20, 8, 13, 0.9, 0.5);
    let q = vec![0.5f32; 8];
    let res = idx.search(&q, 50).unwrap();
    assert_eq!(res.items.len(), 20);
    // All distinct ids.
    let mut ids = res.ids();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 20);
}

#[test]
fn no_duplicate_ids_in_results() {
    let (idx, _) = build(500, 12, 17, 0.7, 0.9);
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    for _ in 0..10 {
        let q: Vec<f32> = (0..12).map(|_| rng.normal() as f32).collect();
        let res = idx.search(&q, 15).unwrap();
        let mut ids = res.ids();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate ids returned");
    }
}

#[test]
fn quickprobe_search_uses_fewer_pages_than_incremental() {
    // Partition parameters scaled to the dataset so sub-partitions hold
    // ~20 points (the paper's µ-selectivity intent); with degenerate
    // 2-point sub-partitions the batched-read advantage disappears.
    let data = random_data(1500, 24, 29);
    let id_cfg = promips_idistance::IDistanceConfig {
        kp: 3,
        nkey: 8,
        ksp: 3,
        ..Default::default()
    };
    let cfg = ProMipsConfig::builder()
        .c(0.9)
        .p(0.5)
        .seed(29 ^ 0xABCD)
        .idistance(id_cfg)
        .build();
    let idx = ProMips::build_in_memory(&data, cfg).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(55);
    let mut probe_total = 0u64;
    let mut incr_total = 0u64;
    for _ in 0..5 {
        let q: Vec<f32> = (0..24).map(|_| rng.normal() as f32).collect();
        idx.clear_cache();
        idx.reset_stats();
        let _ = idx.search(&q, 10).unwrap();
        probe_total += idx.access_stats().logical_reads;

        idx.clear_cache();
        idx.reset_stats();
        let _ = idx.search_incremental(&q, 10).unwrap();
        incr_total += idx.access_stats().logical_reads;
    }
    // Quick-Probe's whole purpose (paper Section V): avoid the
    // one-by-one NN fetches. It must not cost more pages.
    assert!(
        probe_total <= incr_total,
        "quick-probe {probe_total} > incremental {incr_total}"
    );
}

#[test]
fn higher_p_verifies_no_fewer_candidates() {
    let data = random_data(900, 20, 41);
    let mk = |p: f64| {
        let cfg = ProMipsConfig::builder().c(0.9).p(p).seed(4).build();
        ProMips::build_in_memory(&data, cfg).unwrap()
    };
    let low = mk(0.3);
    let high = mk(0.9);
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let mut low_sum = 0usize;
    let mut high_sum = 0usize;
    for _ in 0..10 {
        let q: Vec<f32> = (0..20).map(|_| rng.normal() as f32).collect();
        low_sum += low.search(&q, 10).unwrap().verified;
        high_sum += high.search(&q, 10).unwrap().verified;
    }
    assert!(high_sum >= low_sum, "p=0.9 {high_sum} < p=0.3 {low_sum}");
}
