//! Query-lifecycle robustness: every retained `search*` name is its
//! `execute` request, the request's options are orthogonal, deadlines and
//! cancellation surface as typed errors (before a row is read, not after
//! the full scan), a shard failure fails the query naming the lowest
//! failing shard, and transient IO faults on the write path are absorbed
//! by bounded retry without losing an acknowledged write.

use std::io;
use std::sync::Mutex;
use std::time::Duration;

use promips_core::{ProMips, ProMipsConfig, Query, SearchScratch};
use promips_linalg::{dot, Matrix};
use promips_shard::{
    CancelToken, QueryBudget, QueryError, ShardErrorKind, ShardedConfig, ShardedProMips,
    ShardedQuery, ShardedScratch, ShardedSearchResult,
};
use promips_stats::Xoshiro256pp;
use promips_storage::durability::faults::{self, FaultPlan, IoOp, Recurrence};
use proptest::prelude::*;

mod common;
use common::span_counts;

/// The fault shim is process-global; every test that arms a plan holds
/// this for its whole body (plans are additionally path-scoped to the
/// test's own directory, so non-fault tests can never consume one).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

fn random_queries(nq: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..nq)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect()
}

/// The plain request against a held scratch set.
fn run(idx: &ShardedProMips, q: &[f32], k: usize, scratch: &ShardedScratch) -> ShardedSearchResult {
    idx.execute(ShardedQuery::new(q, k), scratch).unwrap().0
}

/// `q` under `budget`, its fan-out `serial` or sharing the helper.
fn budgeted<'a>(q: &'a [f32], k: usize, budget: &'a QueryBudget, serial: bool) -> ShardedQuery<'a> {
    ShardedQuery {
        budget: Some(budget),
        serial,
        ..ShardedQuery::new(q, k)
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("promips-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// --- budgets -------------------------------------------------------------

/// An already-expired deadline refuses the query with the typed error
/// before doing the scan work: every shard is pager-backed here, so the
/// index's own page counter says how far the query got — Quick-Probe's
/// radius is arithmetic on the handle, every row scanned, screened or
/// verified after it costs a read, and none was made on any shard.
#[test]
fn expired_deadline_returns_typed_error_fast() {
    let data = random_data(4000, 16, 3);
    let idx = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder()
            .shards(3)
            .base(ProMipsConfig::builder().seed(5).build())
            .build(),
    )
    .unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let q = &random_queries(1, 16, 7)[0];
    run(&idx, q, 10, &scratch);
    let whole = idx.access_stats().logical_reads;
    assert!(whole > 20, "the query itself reads {whole}");

    // A serial fan-out, then one sharing the helper: classified identically.
    let expired = QueryBudget::with_deadline_at(1);
    for serial in [true, false] {
        idx.reset_stats();
        let err = idx
            .execute(budgeted(q, 10, &expired, serial), &scratch)
            .unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded));
        let reads = idx.access_stats().logical_reads;
        assert_eq!(reads, 0, "serial={serial}");
    }
}

/// A budget that is already spent (or cancelled) gives the same typed
/// error serial or not, having read no page; a live one is invisible. The
/// sparse case leaves shard 0 empty, a shard with nothing to tick over.
#[test]
fn spent_budget_fails_alike_under_every_thread_count() {
    let skewed = promips_data::gen::norm_skewed(2000, 12, 211);
    // Three rows over four shards: shard 0 is empty.
    let sparse = random_data(3, 12, 213);
    for (data, label) in [(&skewed, "skewed"), (&sparse, "sparse")] {
        let queries = random_queries(4, 12, 217);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let spent = [
            (QueryBudget::with_deadline_at(1), false),
            (QueryBudget::unlimited().cancellable(cancelled), true),
        ];
        let live = QueryBudget::with_deadline(Duration::from_secs(120));
        let idx = ShardedProMips::build_in_memory(
            data,
            ShardedConfig::builder()
                .shards(4)
                .base(ProMipsConfig::builder().seed(215).build())
                .build(),
        )
        .unwrap();
        let scratch = ShardedScratch::for_index(&idx);
        let plain: Vec<_> = queries.iter().map(|q| run(&idx, q, 5, &scratch)).collect();
        for serial in [true, false] {
            let case = format!("{label}, serial={serial}");
            for (q, want) in queries.iter().zip(&plain) {
                for (budget, is_cancel) in &spent {
                    idx.reset_stats();
                    let out = idx.execute(budgeted(q, 5, budget, serial), &scratch);
                    match (out, is_cancel) {
                        (Err(QueryError::DeadlineExceeded), false) => {}
                        (Err(QueryError::Cancelled), true) => {}
                        (other, _) => panic!("{case}: {other:?}"),
                    }
                    let reads = idx.access_stats().logical_reads;
                    assert_eq!(reads, 0, "{case}");
                }
                let (res, _) = idx
                    .execute(budgeted(q, 5, &live, serial), &scratch)
                    .unwrap();
                assert_eq!(&res, want, "{case}: a live budget changed the answer");
            }
        }
    }
}

/// A pre-cancelled token surfaces as `Cancelled`, distinct from a
/// deadline expiry, and cancellation wins even with a generous deadline.
#[test]
fn cancelled_token_returns_typed_error() {
    let data = random_data(800, 12, 11);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(2).build()).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let q = &random_queries(1, 12, 13)[0];

    let token = CancelToken::new();
    token.cancel();
    let budget = QueryBudget::with_deadline(Duration::from_secs(60)).cancellable(token);
    let err = idx
        .execute(budgeted(q, 5, &budget, false), &scratch)
        .unwrap_err();
    assert!(matches!(err, QueryError::Cancelled), "got {err}");
}

/// Cancellation is cooperative to the unit of work on both of an index's
/// query paths — one tick per sub-partition scanned and per group verified
/// on the annulus path; on the column pass one per page of its sweep over
/// the code column and one per sub-partition of its walk — so a cancelled
/// search stops within `DEFAULT_STRIDE` units of where it was, and its span
/// keeps the rows it had been through. Deterministic: the token is
/// cancelled before the call, by the request's own mask at its fifth call
/// (the mask sees the rows being scored, in order), or — for the sweep,
/// which scores nothing — by a second thread the fifth tick hands over to
/// and waits for.
#[test]
fn cancellation_stops_either_path_within_a_stride_of_work() {
    use promips_obs::{budget_error, BudgetChecker, BudgetExceeded, ShardSpan};
    use std::cell::Cell;
    use std::sync::mpsc;

    let (n, d, k) = (3_000usize, 24usize, 10usize);
    // Thirty tight clusters, two of them near the origin, so Quick-Probe
    // has small-norm points to locate: the ball of a query beside a far
    // cluster's row covers most of the index (column pass), a unit-length
    // query's under a quarter (annulus path) — checked.
    let data = promips_data::gen::clustered(30, n / 30, d, 17);
    let index = ProMips::build_in_memory(&data, ProMipsConfig::builder().seed(19).build()).unwrap();
    let idist = index.idistance();
    let short = &random_queries(1, d, 23)[0];
    let full: Vec<f32> = short.iter().zip(data.row(7)).map(|(x, r)| x + r).collect();
    let stride = BudgetChecker::DEFAULT_STRIDE as u64;
    // The largest unit of work of the walks, in rows.
    let group_rows = idist.subparts().iter().map(|sp| sp.count).max().unwrap() as u64;
    let mut scratch = SearchScratch::new();

    for (q, column) in [(full.as_slice(), true), (short.as_slice(), false)] {
        let run = |mask: Option<(&dyn Fn(u64) -> bool, usize)>,
                   budget: Option<&QueryBudget>,
                   scratch: &mut SearchScratch| {
            let mut span = ShardSpan::default();
            let request = Query {
                mask,
                budget,
                span: Some(&mut span),
                ..Query::new(q, k)
            };
            (index.execute(request, scratch), span)
        };
        let (whole, done) = run(None, None, &mut scratch);
        whole.unwrap();
        assert_eq!(done.column_pass, column, "query landed on the other path");

        // Cancelled before the call: the rule has run (the span says which
        // path it would have been), no row has been touched.
        let token = CancelToken::new();
        token.cancel();
        let budget = QueryBudget::unlimited().cancellable(token);
        let (res, cut) = run(None, Some(&budget), &mut scratch);
        assert_eq!(
            budget_error(&res.unwrap_err()),
            Some(BudgetExceeded::Cancelled)
        );
        assert_eq!((cut.scanned, cut.screened, cut.verified), (0, 0, 0));
        assert_eq!(cut.covered_rows, done.covered_rows);
        assert_eq!(cut.column_pass, column);

        // Cancelled mid-query, from inside the fifth mask call.
        let token = CancelToken::new();
        let budget = QueryBudget::unlimited().cancellable(token.clone());
        let calls = Cell::new(0u32);
        let mask = |_: u64| {
            calls.set(calls.get() + 1);
            if calls.get() == 5 {
                token.cancel();
            }
            false
        };
        let (res, cut) = run(Some((&mask, 0)), Some(&budget), &mut scratch);
        assert_eq!(
            budget_error(&res.unwrap_err()),
            Some(BudgetExceeded::Cancelled)
        );
        let (seen, seen_whole) = (cut.screened + cut.verified, done.screened + done.verified);
        assert!(
            cut.verified >= 5 && seen < seen_whole,
            "{cut:?} vs {done:?}"
        );
        // The sweep (column) or the range scan (annulus) had finished; the
        // walk or the verification stops within a stride of sub-partitions
        // or groups of the fifth scored row's. On the column pass every row
        // passes while the k-th is −∞, so that row is among the first `k`.
        assert!(seen <= stride * group_rows, "{cut:?}");
        if column {
            assert_eq!(cut.scanned, done.scanned, "{cut:?}");
        } else {
            assert!(0 < cut.scanned && cut.scanned <= done.scanned);
        }
    }

    // The sweep alone, over a column of 282 pages (a 256-byte page holds 10
    // rows and the start of an eleventh): it stops within a stride of pages of
    // the tick that saw the token cancelled, or at its first tick when the
    // deadline is already spent.
    let small_pages = ProMips::build_in_memory(
        &data,
        ProMipsConfig::builder().seed(19).page_size(256).build(),
    )
    .unwrap();
    let idist = small_pages.idistance();
    let qcodes = vec![1i8; idist.code_width()];
    let run_rows = 256usize.div_ceil(idist.code_width()) as u64;
    let mut dots = Vec::new();
    let token = CancelToken::new();
    let budget = QueryBudget::unlimited().cancellable(token.clone());
    let mut checker = BudgetChecker::new(Some(&budget));
    let swept = std::thread::scope(|s| {
        let (hand_over, handed) = mpsc::channel::<()>();
        let (cancelled, wait) = mpsc::channel::<()>();
        s.spawn(move || {
            if handed.recv().is_ok() {
                token.cancel();
                cancelled.send(()).unwrap();
            }
        });
        let mut ticks = 0;
        idist.column_dots(&qcodes, &mut dots, || {
            ticks += 1;
            if ticks == 5 {
                hand_over.send(()).unwrap();
                wait.recv().unwrap();
            }
            Ok(checker.tick()?)
        })
    });
    assert_eq!(
        budget_error(&swept.unwrap_err()),
        Some(BudgetExceeded::Cancelled)
    );
    assert!(dots.len() as u64 <= (5 + stride) * run_rows && dots.len() < n);

    let spent = QueryBudget::with_deadline_at(0);
    let mut checker = BudgetChecker::new(Some(&spent));
    let swept = idist.column_dots(&qcodes, &mut dots, || Ok(checker.tick()?));
    assert_eq!(
        budget_error(&swept.unwrap_err()),
        Some(BudgetExceeded::Deadline)
    );
    assert!(dots.is_empty());
}

/// The request's options are orthogonal — the combinations method names
/// never reached included. A budget nobody exhausts is invisible (items,
/// ranks and per-shard counters bit-identical to the un-budgeted request),
/// an expired one is typed, and neither `traced` nor a serial fan-out
/// changes either outcome.
#[test]
fn results_depend_on_neither_traced_nor_threads_nor_an_unfired_budget() {
    let data = promips_data::gen::norm_skewed(2500, 14, 17);
    let idx = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder()
            .shards(4)
            .base(ProMipsConfig::builder().seed(19).build())
            .build(),
    )
    .unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let budgets = [
        (None, "none", false),
        (Some(QueryBudget::unlimited()), "unlimited", false),
        (
            Some(QueryBudget::with_deadline(Duration::from_secs(120))),
            "2min",
            false,
        ),
        (Some(QueryBudget::with_deadline_at(1)), "expired", true),
    ];
    for q in random_queries(8, 14, 23) {
        let (plain, plain_trace) = idx.search_traced_threaded(&q, 10, 1, &scratch).unwrap();
        for (budget, label, fires) in &budgets {
            for traced in [false, true] {
                for serial in [true, false] {
                    let case = format!("{label}, traced={traced}, serial={serial}");
                    let out = idx.execute(
                        ShardedQuery {
                            serial,
                            budget: budget.as_ref(),
                            traced,
                            ..ShardedQuery::new(&q, 10)
                        },
                        &scratch,
                    );
                    if *fires {
                        assert!(
                            matches!(out, Err(QueryError::DeadlineExceeded)),
                            "{case}: {out:?}"
                        );
                        continue;
                    }
                    let (res, trace) = out.unwrap();
                    assert_eq!(res, plain, "{case}: diverged");
                    assert_eq!(trace.is_some(), traced, "{case}");
                    if let Some(trace) = trace {
                        let finite = budget.as_ref().is_some_and(|b| !b.is_unlimited());
                        assert_eq!(trace.budget_remaining_ns.is_some(), finite, "{case}");
                        assert_eq!(span_counts(&trace), span_counts(&plain_trace), "{case}");
                    }
                }
            }
        }
    }
}

/// A traced budgeted request records the remaining budget and returns the
/// same answer.
#[test]
fn traced_budgeted_search_carries_remaining_budget() {
    let data = random_data(600, 10, 29);
    let idx =
        ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(2).build()).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let q = &random_queries(1, 10, 31)[0];
    let budget = QueryBudget::with_deadline(Duration::from_secs(300));
    let (res, trace) = idx
        .execute(
            ShardedQuery {
                traced: true,
                ..budgeted(q, 6, &budget, false)
            },
            &scratch,
        )
        .unwrap();
    let trace = trace.expect("a traced request returns its trace");
    assert_eq!(res.items, idx.search(q, 6).unwrap().items);
    let remaining = trace.budget_remaining_ns.expect("deadline was set");
    assert!(remaining > 0 && remaining <= 300 * 1_000_000_000);
}

// --- the request surface ------------------------------------------------

#[test]
fn every_wrapper_is_bit_identical_to_execute() {
    let data = promips_data::gen::norm_skewed(1500, 16, 131);
    for shards in [1usize, 4] {
        let idx = ShardedProMips::build_in_memory(
            &data,
            ShardedConfig::builder()
                .shards(shards)
                .base(ProMipsConfig::builder().seed(133).build())
                .build(),
        )
        .unwrap();
        let scratch = ShardedScratch::for_index(&idx);
        for q in random_queries(6, 16, 137) {
            let (plain, trace) = idx.execute(ShardedQuery::new(&q, 8), &scratch).unwrap();
            assert!(trace.is_none(), "an untraced request returns no trace");
            assert_eq!(idx.search(&q, 8).unwrap(), plain);
            for threads in [1usize, 4] {
                let request = ShardedQuery {
                    serial: threads <= 1,
                    ..ShardedQuery::new(&q, 8)
                };
                let (want, _) = idx.execute(request, &scratch).unwrap();
                assert_eq!(want, plain, "threads={threads}");
                let got = idx.search_threaded(&q, 8, threads, &scratch).unwrap();
                assert_eq!(got, want, "threads={threads}");

                let traced = ShardedQuery {
                    traced: true,
                    ..request
                };
                let (want, want_trace) = idx.execute(traced, &scratch).unwrap();
                let want_trace = want_trace.expect("a traced request returns its trace");
                let (got, got_trace) = idx
                    .search_traced_threaded(&q, 8, threads, &scratch)
                    .unwrap();
                assert_eq!(want, plain, "tracing only observes");
                assert_eq!(got, want, "threads={threads}");
                let counts = |t: &promips_obs::QueryTrace| -> Vec<_> {
                    t.shards
                        .iter()
                        .map(|s| (s.shard, s.pruned, s.seed))
                        .zip(t.shards.iter().map(|s| (s.scanned, s.screened, s.verified)))
                        .collect()
                };
                assert_eq!(counts(&got_trace), counts(&want_trace));
                assert_eq!(got_trace.k, 8);
            }
        }
    }
}

#[test]
fn one_shard_tombstones_match_unsharded_masked_execute() {
    // The shard overlay reaches the core search only as the request's
    // mask, so deleting through a 1-shard index (the way to mutate an
    // index) is bit-identical to masking the unsharded one.
    let data = random_data(900, 24, 11);
    let base = ProMipsConfig::builder().c(0.9).p(0.5).seed(42).build();
    let unsharded = ProMips::build_in_memory(&data, base.clone()).unwrap();
    let sharded = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder().shards(1).base(base).build(),
    )
    .unwrap();
    let gone: Vec<u64> = (0..900).step_by(9).collect();
    for &gid in &gone {
        sharded.delete(gid).unwrap();
    }
    let dead = |id: u64| gone.contains(&id);
    let mut scratch = SearchScratch::new();
    for q in random_queries(12, 24, 7) {
        let masked = Query {
            mask: Some((&dead, gone.len())),
            ..Query::new(&q, 10)
        };
        let a = unsharded.execute(masked, &mut scratch).unwrap();
        let b = sharded.search(&q, 10).unwrap();
        assert_eq!(a.items, b.items);
        assert_eq!((a.verified, a.screened), (b.verified, b.screened));
        assert!(b.items.iter().all(|it| !dead(it.id)));
    }
}

// --- lifecycle invariants (property) -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lifecycle invariants over arbitrary small workloads (shards of 7 to
    /// 110 rows): a budgeted search under an unlimited budget matches the
    /// plain search, returns `min(k, n)` items and, when every searched
    /// shard answered by its column pass, the exact ground truth; every
    /// returned inner product is the true dot product (never fabricated);
    /// results stay sorted and unique; and an expired budget always
    /// surfaces as the typed deadline error.
    #[test]
    fn budgeted_search_never_fabricates_and_expires_typed(
        n in 30usize..220,
        shards in 2usize..5,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let d = 8;
        let data = random_data(n, d, seed);
        let idx = ShardedProMips::build_in_memory(
            &data,
            ShardedConfig::builder()
                .shards(shards)
                .base(ProMipsConfig::builder().seed(seed ^ 0xA5).build())
                .build(),
        )
        .unwrap();
        let scratch = ShardedScratch::for_index(&idx);
        for q in random_queries(3, d, seed ^ 0x5A) {
            let plain = run(&idx, &q, k, &scratch);
            let unlimited = QueryBudget::unlimited();
            let request = ShardedQuery {
                traced: true,
                ..budgeted(&q, k, &unlimited, false)
            };
            let (bounded, trace) = idx.execute(request, &scratch).unwrap();
            prop_assert_eq!(&plain.items, &bounded.items);
            prop_assert_eq!(bounded.items.len(), k.min(n));

            // Ground truth on the column path: ids match the exact scan
            // (an annulus answer is c-approximate by design); ips are real
            // dots either way.
            let column = trace.unwrap().shards.iter().all(|s| s.pruned || s.column_pass);
            if column {
                let truth: Vec<u64> = promips_data::exact_topk(&data, &q, k)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                prop_assert_eq!(bounded.ids(), truth);
            }
            for w in bounded.items.windows(2) {
                prop_assert!(
                    w[0].ip > w[1].ip || (w[0].ip == w[1].ip && w[0].id < w[1].id)
                );
            }
            for it in &bounded.items {
                let want = dot(&q, data.row(it.id as usize));
                prop_assert!(
                    it.ip.to_bits() == want.to_bits(),
                    "fabricated ip for id {}: {} vs {}", it.id, it.ip, want
                );
            }

            // Expired budget: typed, never a partial Ok.
            let err = idx
                .execute(budgeted(&q, k, &QueryBudget::with_deadline_at(1), false), &scratch)
                .unwrap_err();
            prop_assert!(matches!(err, QueryError::DeadlineExceeded));
        }
    }
}

// --- shard failure --------------------------------------------------------

/// A shard whose every page read fails fails the query, typed and naming
/// the shard, through `execute` and the `io::Result` wrapper (which keeps
/// the fault shim's marker), serial or not; once the fault is gone the
/// same handle answers exactly as a fresh open of the directory does.
#[test]
fn read_fault_fails_the_query_naming_the_shard() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let d = 8;
    let data = random_data(240, d, 41);
    // prune(false): the faulted shard must actually be searched — a
    // pruned shard does no IO and would dodge the fault.
    let cfg = ShardedConfig::builder()
        .shards(3)
        .prune(false)
        .base(ProMipsConfig::builder().seed(43).build())
        .build();
    let dir = temp_dir("read-fault");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    drop(ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap());

    // Cold reopen, then every page read of shard 0 fails.
    let idx = ShardedProMips::open(&dir).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let queries = random_queries(6, d, 47);
    faults::arm_with(
        FaultPlan {
            op: IoOp::Read,
            nth: 1,
            path_contains: Some(format!("{tag}/shard_0000")),
        },
        Recurrence::EveryNth(1),
        io::ErrorKind::Other,
    );
    for q in &queries {
        let err = idx.search(q, 10).unwrap_err();
        assert!(faults::is_injected(&err), "unexpected error: {err}");
        match err.get_ref().and_then(|e| e.downcast_ref::<QueryError>()) {
            Some(QueryError::Shard(se)) => {
                assert_eq!(se.shard, 0, "must name the failing shard");
                assert!(matches!(se.kind, ShardErrorKind::Io(_)));
            }
            other => panic!("expected a shard error, got {other:?}"),
        }
        for serial in [true, false] {
            let request = ShardedQuery {
                serial,
                ..ShardedQuery::new(q, 10)
            };
            let err = idx.execute(request, &scratch).unwrap_err();
            assert!(
                matches!(&err, QueryError::Shard(se) if se.shard == 0),
                "serial={serial}: {err}"
            );
        }
    }
    faults::disarm();

    let fresh = ShardedProMips::open(&dir).unwrap();
    let fresh_scratch = ShardedScratch::for_index(&fresh);
    for q in &queries {
        assert_eq!(
            run(&idx, q, 10, &scratch),
            run(&fresh, q, 10, &fresh_scratch)
        );
    }
    drop(fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With more than one shard failing, the query names the lowest of them
/// however the fan-out is scheduled. Twelve shards put the two faulted
/// ones, 10 and 11, under one path pattern (`shard_001`) that no healthy
/// shard's file matches.
#[test]
fn the_lowest_of_several_failing_shards_is_reported() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let d = 8;
    let data = random_data(600, d, 67);
    // prune(false): every shard is searched, so both faults fire.
    let cfg = ShardedConfig::builder()
        .shards(12)
        .prune(false)
        .base(ProMipsConfig::builder().seed(73).build())
        .build();
    let dir = temp_dir("twofault");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    drop(ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap());
    let idx = ShardedProMips::open(&dir).unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    faults::arm_with(
        FaultPlan {
            op: IoOp::Read,
            nth: 1,
            path_contains: Some(format!("{tag}/shard_001")),
        },
        Recurrence::EveryNth(1),
        io::ErrorKind::Other,
    );
    for q in &random_queries(4, d, 71) {
        for rep in 0..20 {
            for serial in [true, false] {
                let request = ShardedQuery {
                    serial,
                    ..ShardedQuery::new(q, 10)
                };
                let err = idx.execute(request, &scratch).unwrap_err();
                assert!(
                    matches!(&err, QueryError::Shard(se) if se.shard == 10),
                    "rep {rep}, serial={serial}: {err}"
                );
            }
        }
    }
    faults::disarm();
    drop(idx);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- transient-fault retry -----------------------------------------------

/// A transient fault injected at EVERY retryable step of the write path,
/// one step at a time: each acknowledged insert must land through the
/// bounded retry (the armed one-shot provably fired), and a crash-reopen
/// preserves every acknowledged write.
#[test]
fn transient_fault_at_every_write_step_is_absorbed_by_retry() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let d = 8;
    let data = random_data(100, d, 67);
    let dir = temp_dir("retry-steps");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    let cfg = ShardedConfig::builder()
        .shards(2)
        .base(ProMipsConfig::builder().seed(71).build())
        .build();
    let idx = ShardedProMips::build_in_dir(&data, cfg, &dir).unwrap();
    let mut live: Vec<u64> = Vec::new();

    // WAL append path: the record write and the group-commit fsync.
    for (op, kind) in [
        (IoOp::Write, io::ErrorKind::Interrupted),
        (IoOp::Write, io::ErrorKind::TimedOut),
        (IoOp::Fsync, io::ErrorKind::Interrupted),
        (IoOp::Fsync, io::ErrorKind::WouldBlock),
    ] {
        faults::arm_with(
            FaultPlan {
                op,
                nth: 1,
                path_contains: Some(format!("{tag}/shard_")),
            },
            Recurrence::Once,
            kind,
        );
        let row = vec![0.3f32; d];
        let gid = idx
            .insert(&row)
            .unwrap_or_else(|e| panic!("transient {op:?}/{kind:?} not retried: {e:?}"));
        assert!(!faults::disarm(), "armed {op:?} fault never fired");
        live.push(gid);
    }

    // Manifest-swap path: the tmp write, its fsync, and the rename are
    // each retried (compaction must commit through a transient stall).
    for op in [IoOp::Write, IoOp::Fsync, IoOp::Rename] {
        idx.insert(&[0.4f32; 8]).map(|gid| live.push(gid)).unwrap();
        faults::arm_with(
            FaultPlan {
                op,
                nth: 1,
                path_contains: Some(format!("{tag}/MANIFEST")),
            },
            Recurrence::Once,
            io::ErrorKind::Interrupted,
        );
        idx.compact_all()
            .unwrap_or_else(|e| panic!("transient manifest {op:?} not retried: {e}"));
        assert!(!faults::disarm(), "armed manifest {op:?} fault never fired");
        assert_eq!(idx.pending_mutations(), 0);
    }

    // Every acknowledged write survives a crash-reopen.
    idx.sync_wal().unwrap();
    drop(idx);
    let reopened = ShardedProMips::open(&dir).unwrap();
    assert_eq!(reopened.len(), 100 + live.len() as u64);
    let scratch = ShardedScratch::for_index(&reopened);
    let all = run(&reopened, &[1.0f32; 8], usize::MAX / 2, &scratch);
    for gid in &live {
        assert!(
            all.items.iter().any(|it| it.id == *gid),
            "acknowledged write {gid} lost"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A transient budget is bounded: a fault that keeps firing past the
/// retry attempts surfaces as the typed error, not an infinite loop.
#[test]
fn persistent_transient_fault_exhausts_the_retry_budget() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let d = 8;
    let data = random_data(60, d, 73);
    let dir = temp_dir("retry-exhaust");
    let tag = dir.file_name().unwrap().to_string_lossy().into_owned();
    let idx = ShardedProMips::build_in_dir(&data, ShardedConfig::builder().shards(1).build(), &dir)
        .unwrap();
    faults::arm_with(
        FaultPlan {
            op: IoOp::Fsync,
            nth: 1,
            path_contains: Some(format!("{tag}/shard_")),
        },
        Recurrence::EveryNth(1),
        io::ErrorKind::Interrupted,
    );
    let err = idx.insert(&[0.5f32; 8]).unwrap_err();
    faults::disarm();
    let e = match err {
        promips_shard::MutationError::Io(e) => e,
        other => panic!("expected an IO refusal, got {other:?}"),
    };
    assert!(faults::is_injected(&e), "unexpected error: {e}");
    assert_eq!(e.kind(), io::ErrorKind::Interrupted);
    std::fs::remove_dir_all(&dir).unwrap();
}
