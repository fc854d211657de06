//! Parallel fan-out search with norm-bound shard pruning, over **per-query
//! shard snapshots** so queries never block on (or get torn by) concurrent
//! mutations.
//!
//! Before any scoring, the query takes a `ShardSnapshot` of every shard:
//! the generation `Arc` and a clone of the delta overlay — its list of
//! sealed chunks, its open tail and its tombstone set, each an `Arc`, and
//! the live norm bound.
//! Everything after — seed probe, pruning, fan-out, merge — runs against
//! those frozen views, so a compaction swapping a generation mid-query or
//! a writer appending to a delta is simply invisible to this query and
//! fully visible to the next one.
//!
//! The query itself runs in two deterministic phases:
//!
//! 1. **Seed probe.** The shard with the largest norm bound (under
//!    norm-range partitioning, the high-norm shard — where the MIPS winner
//!    statistically lives) is searched first. Its k-th best inner product
//!    becomes the global *floor*.
//! 2. **Pruned fan-out.** Every other shard whose Cauchy–Schwarz bound
//!    `‖q‖₂ · max_norm(shard)` falls strictly below the floor is pruned —
//!    no point it holds can enter the global top-k. Surviving shards are
//!    searched by the calling thread and, when it is free, the sweep
//!    helper ([`promips_linalg::sweep::join`]; no query starts a thread),
//!    each with its own [`SearchScratch`], and the floor rides into every
//!    one of them as the request's [`Query::kth_floor`]: rows below it are
//!    neither collected nor, where a bound rules them out, read — a column
//!    pass stops at its first sub-partition whose bound falls below it,
//!    the delta overlay screens its chunks against it. (The annulus path
//!    ignores it; its Conditions A and B read the shard's own k-th.)
//!
//! One **query screen** serves the whole query: every generation's code
//! column and every sealed delta chunk are coded under the index's one
//! head basis (`h` bytes a row, or `d` without one), so the query is
//! head-projected and quantized once, before phase 1, and the screen
//! rides into every shard as the request's [`Query::screen`] — no shard
//! rebuilds it.
//!
//! Per shard, the committed generation's index is searched through
//! [`promips_core::ProMips::execute`] with the snapshot's tombstone set as
//! the request's dead mask (the index scans its whole code column when the
//! query's ball covers enough of it — a small shard's usual answer), and
//! the delta overlay joins its running top-k: sealed chunks screened by
//! their SQ8 codes against the running k-th under the same screen, the
//! survivors and the open tail scored exactly — the same two-level read an
//! LSM tree does, with the tombstone set filtering both levels. The chunks
//! are walked by the column pass's own [`screen::walk`] into the core's
//! [`TopK`], and the cross-shard merge is one more `TopK`, every answering
//! shard's items pushed into it.
//!
//! Pruning and the floor are exact, never approximate: a pruned shard's
//! best possible inner product, and every row a searched shard leaves out,
//! is below the seed's k-th and so beaten by k already-verified points
//! (a row *at* it is kept: it may win the tie on its id), so the merged
//! top-k is identical with pruning on or off.
//!
//! The floor is fixed after phase 1 (the two threads never race to update
//! it), so results are **deterministic**: the same query against the same
//! snapshot returns the same items, ranks, and per-shard counts whether the
//! fan-out ran serially or beside the helper, and whatever the schedule.
//!
//! ## One entry point
//!
//! [`ShardedProMips::execute`] takes a [`ShardedQuery`] — the vector and
//! `k`, plus the fan-out's options (serial or not, budget, whether to
//! return the trace) — and is the only search body; every `search*` name
//! is a one-line wrapper around it. The [`ShardedSearchResult`] holds the
//! answer, its verified and screened counts summed over the shards and the
//! degradation verdict; what each shard did — seed, pruned, failed, its
//! scanned, screened and verified rows — is only in the trace's
//! [`ShardSpan`]s, which a `traced` request gets back.
//!
//! ## Query lifecycle
//!
//! Three lifecycle controls wrap the two phases (all off by default, all
//! zero-cost when off):
//!
//! * **Admission** — [`crate::ShardedConfig::max_in_flight`] bounds the
//!   searches running concurrently against the index; the excess is
//!   refused up front with [`QueryError::Overloaded`] instead of piling
//!   onto a saturated box (counted by [`CounterId::QueriesShed`]).
//! * **Budgets** — a request's [`ShardedQuery::budget`] carries a
//!   [`QueryBudget`] (deadline and/or cancellation token) down into every
//!   shard's scan and verify loops, which check it cooperatively once per
//!   block of work, and the fan-out checks it once before it starts: a
//!   budget the seed probe spent fails the remaining shards on the spot
//!   instead of searching them. An exceeded budget surfaces as
//!   [`QueryError::DeadlineExceeded`] / [`QueryError::Cancelled`].
//! * **Degradation** — [`crate::DegradationPolicy`] decides what one
//!   shard's failure (injected or real IO fault, per-shard deadline
//!   expiry, a panic in its search) does to the query: `FailFast` (default)
//!   aborts with a typed [`ShardError`] naming the shard — reported
//!   deterministically for the lowest failing shard index — while
//!   `BestEffort` drops the failed shard from the merge and returns the
//!   exact top-k over the survivors with
//!   [`crate::ShardedSearchResult::degraded`] set (counted by
//!   [`CounterId::PartialResults`], visible per shard in traces, where
//!   the failed shard's span keeps its wall time and the work it did
//!   before failing).

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use promips_core::screen::{self, QueryScreen, ScreenBound};
use promips_core::{Query, SearchItem, SearchScratch, TopK};
use promips_linalg::{dot, dot_col_i8, sq_norm2, sweep};
use promips_obs::{
    self as obs, budget_error, BudgetChecker, BudgetExceeded, CounterId, QueryBudget, QueryTrace,
    ShardSpan,
};

use crate::error::{DegradationPolicy, QueryError, ShardError, ShardErrorKind};
use crate::index::{ShardSnapshot, ShardedProMips, CHUNK_ROWS};
use crate::result::ShardedSearchResult;

/// Reusable search buffers: one [`SearchScratch`] per shard, individually
/// locked so the fan-out's two threads (one per shard at a time) take them
/// without contention, and the query's one [`QueryScreen`], built under the
/// index's basis and shared by every shard's column and delta chunks.
/// Buffers grow to their high-water mark and are reused across queries.
pub struct ShardedScratch {
    shards: Vec<Mutex<SearchScratch>>,
    screen: Mutex<QueryScreen>,
}

impl ShardedScratch {
    /// A fresh scratch set for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(SearchScratch::new()))
                .collect(),
            screen: Mutex::default(),
        }
    }

    /// A scratch set sized for `index`.
    pub fn for_index(index: &ShardedProMips) -> Self {
        Self::new(index.shard_count())
    }
}

/// What one searched shard did — its span, filled whether or not the
/// search finished — and its top-k under **global** ids, or why it failed.
type ShardOutcome = (ShardSpan, Result<Vec<SearchItem>, ShardError>);

/// RAII admission permit: holds one slot of the index's in-flight gauge
/// and releases it on every exit path (success, error, panic unwind).
struct AdmissionPermit<'a> {
    gauge: &'a AtomicUsize,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Re-types a shard-level `io::Error`: budget expiries (riding the
/// `io::Result` plumbing from the core loops) are recovered into their
/// own kinds; everything else is a storage failure.
fn classify_shard_error(si: usize, e: io::Error) -> ShardError {
    let kind = match budget_error(&e) {
        Some(BudgetExceeded::Deadline) => ShardErrorKind::DeadlineExceeded,
        Some(BudgetExceeded::Cancelled) => ShardErrorKind::Cancelled,
        None => ShardErrorKind::Io(e),
    };
    ShardError {
        shard: si as u32,
        kind,
    }
}

/// Books the query-level counters for a failure that aborts the whole
/// query, then promotes it.
fn fail_query(se: ShardError) -> QueryError {
    let reg = obs::global();
    match se.kind {
        ShardErrorKind::DeadlineExceeded => reg.counter(CounterId::DeadlinesExceeded).inc(),
        ShardErrorKind::Cancelled => reg.counter(CounterId::QueriesCancelled).inc(),
        _ => {}
    }
    reg.counter(CounterId::QueryFailures).inc();
    QueryError::from(se)
}

/// One sharded search request: the query vector and `k`, plus the
/// options of the fan-out. [`ShardedQuery::new`] is the plain search; set
/// the other fields with struct-update syntax:
///
/// ```
/// use std::time::Duration;
/// use promips_linalg::Matrix;
/// use promips_shard::{QueryBudget, ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch};
///
/// let mut rng = promips_stats::Xoshiro256pp::seed_from_u64(1);
/// let data = Matrix::from_rows(
///     16,
///     (0..1200).map(|_| (0..16).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
/// );
/// let index =
///     ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(4).build()).unwrap();
/// let scratch = ShardedScratch::for_index(&index);
/// let q = vec![0.5f32; 16];
///
/// // Serial fan-out, 50 ms deadline, and the per-stage trace back.
/// let budget = QueryBudget::with_deadline(Duration::from_millis(50));
/// let request = ShardedQuery {
///     serial: true,
///     budget: Some(&budget),
///     traced: true,
///     ..ShardedQuery::new(&q, 10)
/// };
/// let (res, trace) = index.execute(request, &scratch).unwrap();
/// assert_eq!(res.items.len(), 10);
/// assert_eq!(trace.unwrap().shards.len(), 4);
/// ```
#[derive(Clone, Copy)]
pub struct ShardedQuery<'a> {
    /// The query vector (length `d`).
    pub q: &'a [f32],
    /// Result size.
    pub k: usize,
    /// Search the fan-out's shards on the calling thread alone. Otherwise
    /// (the default) two or more share them with the process's sweep
    /// helper when nothing else holds it ([`promips_linalg::sweep::join`]);
    /// results are identical either way (module docs). Serial, a trace's
    /// per-shard stage times are disjoint slices of the wall clock, so
    /// [`QueryTrace::coverage`] accounts for the end-to-end latency; on two
    /// threads stage time is CPU time across both and can exceed it.
    pub serial: bool,
    /// Deadline and/or cancellation token, checked cooperatively inside
    /// every shard's scan and verify loops; failures come back typed.
    /// Under [`DegradationPolicy::BestEffort`] a budget that expires after
    /// some shards finished degrades the result instead of erroring.
    pub budget: Option<&'a QueryBudget>,
    /// Return the per-query [`QueryTrace`], the query's only per-shard
    /// account: stage wall time and row counts per shard (scan → screen →
    /// verify), the cross-shard merge, every prune decision, the remaining
    /// budget and every failed shard with the work it did before failing.
    /// It costs one small allocation and a handful of clock reads; an
    /// untraced request builds no trace. Results never depend on tracing —
    /// it only observes.
    pub traced: bool,
}

impl<'a> ShardedQuery<'a> {
    /// The plain top-`k` search for `q`: helper-shared fan-out, no budget,
    /// untraced.
    pub fn new(q: &'a [f32], k: usize) -> Self {
        Self {
            q,
            k,
            serial: false,
            budget: None,
            traced: false,
        }
    }
}

impl ShardedProMips {
    /// c-k-AMIP search across all shards (allocates a fresh scratch set;
    /// high-throughput callers should hold a [`ShardedScratch`] and use
    /// [`ShardedProMips::execute`]).
    pub fn search(&self, q: &[f32], k: usize) -> io::Result<ShardedSearchResult> {
        let (res, _) = self.execute(ShardedQuery::new(q, k), &ShardedScratch::for_index(self))?;
        Ok(res)
    }

    /// [`ShardedProMips::execute`] with `io::Error` failures, serial when
    /// `threads <= 1`. Frozen by `benchmark/`, which compiles against this
    /// name; everything else builds a [`ShardedQuery`].
    pub fn search_threaded(
        &self,
        q: &[f32],
        k: usize,
        threads: usize,
        scratch: &ShardedScratch,
    ) -> io::Result<ShardedSearchResult> {
        let (res, _) = self.execute(
            ShardedQuery {
                serial: threads <= 1,
                ..ShardedQuery::new(q, k)
            },
            scratch,
        )?;
        Ok(res)
    }

    /// [`ShardedProMips::search_threaded`] that also returns the trace.
    /// Frozen by `benchmark/` like it.
    pub fn search_traced_threaded(
        &self,
        q: &[f32],
        k: usize,
        threads: usize,
        scratch: &ShardedScratch,
    ) -> io::Result<(ShardedSearchResult, QueryTrace)> {
        let (res, trace) = self.execute(
            ShardedQuery {
                serial: threads <= 1,
                traced: true,
                ..ShardedQuery::new(q, k)
            },
            scratch,
        )?;
        Ok((res, trace.expect("a traced request returns its trace")))
    }

    /// Takes an admission slot, or sheds the query when the configured
    /// limit is saturated.
    fn admit(&self) -> Result<AdmissionPermit<'_>, QueryError> {
        let in_flight = self.in_flight.fetch_add(1, Ordering::AcqRel);
        let limit = self.config.max_in_flight;
        if limit != 0 && in_flight >= limit {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            obs::global().counter(CounterId::QueriesShed).inc();
            return Err(QueryError::Overloaded { in_flight, limit });
        }
        Ok(AdmissionPermit {
            gauge: &self.in_flight,
        })
    }

    /// The one search path: phases and results are identical whatever the
    /// request's `serial`, `budget` and `traced` say — a `None` budget is
    /// the unbounded path bit for bit, and tracing only *observes*.
    /// Returns the trace exactly when the request asked for one.
    pub fn execute(
        &self,
        query: ShardedQuery<'_>,
        scratch: &ShardedScratch,
    ) -> Result<(ShardedSearchResult, Option<QueryTrace>), QueryError> {
        let ShardedQuery {
            q,
            k,
            serial,
            budget,
            traced,
        } = query;
        let mut trace = traced.then(|| QueryTrace {
            k,
            started_at_ns: obs::now_ns(),
            ..QueryTrace::default()
        });
        assert_eq!(q.len(), self.d, "query dimensionality mismatch");
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(
            scratch.shards.len(),
            self.shards.len(),
            "scratch sized for {} shards, index has {}",
            scratch.shards.len(),
            self.shards.len()
        );
        // Load shedding happens before any real work: a refused query
        // costs two atomic ops and a counter bump. The permit's Drop
        // releases the slot on every path out of this function.
        let _permit = self.admit()?;
        let ns = self.shards.len();
        let q_sq_norm = sq_norm2(q);
        let q_norm = q_sq_norm.sqrt();
        if !q_norm.is_finite() {
            // No shard could order rows by a NaN: the pruning bound, every
            // screen and every score would be one.
            return Err(QueryError::InvalidInput(
                "‖q‖² is not finite: a NaN, infinite or overflowing query coordinate",
            ));
        }
        let policy = self.config.degradation;

        // The query's isolation boundary: one consistent snapshot per
        // shard, taken up front. Everything below reads only these.
        let snaps: Vec<ShardSnapshot> = self.shards.iter().map(|s| s.snapshot()).collect();
        // One query screen under the index's one basis (module docs).
        let mut screen = scratch.screen.lock();
        screen.rebuild(q, q_sq_norm, self.head.as_ref());
        let screen = Some(&*screen);

        // What each shard did (a pruned shard's span stays all zero) and
        // its items under **global** ids, best first (none unless it
        // answered).
        let mut spans: Vec<ShardSpan> = (0..ns)
            .map(|shard| ShardSpan {
                shard,
                ..ShardSpan::default()
            })
            .collect();
        let mut items: Vec<Vec<SearchItem>> = vec![Vec::new(); ns];
        let mut failures: Vec<ShardError> = Vec::new();
        let mut attempted = 0usize;

        // One shard, fully contained: IO errors are re-typed, budget
        // expiries recovered, and a panicking search is caught here (the
        // scratch and snapshot it held are query-local; shared state is
        // lock-free or guarded by non-poisoning locks). The span is an
        // out-parameter of the search, so a failed shard still reports its
        // wall time and the work it did before failing.
        let search_one = |si: usize, kth_floor: f64| -> ShardOutcome {
            let mut span = ShardSpan {
                shard: si,
                ..ShardSpan::default()
            };
            let request = Query {
                budget,
                kth_floor,
                screen,
                ..Query::new(q, k)
            };
            let t0 = obs::now_ns();
            let res = catch_unwind(AssertUnwindSafe(|| {
                search_snapshot(
                    &snaps[si],
                    request,
                    &mut scratch.shards[si].lock(),
                    &mut span,
                )
            }));
            span.elapsed_ns = obs::now_ns().saturating_sub(t0);
            let res = match res {
                Ok(Ok(items)) => Ok(items),
                Ok(Err(e)) => Err(classify_shard_error(si, e)),
                Err(_) => Err(ShardError {
                    shard: si as u32,
                    kind: ShardErrorKind::Poisoned,
                }),
            };
            span.failed = res.is_err();
            (span, res)
        };

        // --- Phase 1: seed probe of the highest-norm-bound shard. ---------
        let mut kth_floor = f64::NEG_INFINITY;
        let mut fan_out: Vec<usize> = Vec::with_capacity(ns);
        if self.config.prune && ns > 1 {
            let seed = snaps
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    let (a, b) = (a.delta.max_norm, b.delta.max_norm);
                    a.total_cmp(&b).then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .expect("at least one shard");
            attempted += 1;
            let (span, res) = search_one(seed, f64::NEG_INFINITY);
            spans[seed] = ShardSpan { seed: true, ..span };
            match res {
                Ok(found) => {
                    if found.len() >= k {
                        kth_floor = found[k - 1].ip;
                        if let Some(trace) = &mut trace {
                            trace.kth_floor = Some(kth_floor);
                        }
                    }
                    items[seed] = found;
                }
                Err(se) => {
                    if policy == DegradationPolicy::FailFast {
                        return Err(fail_query(se));
                    }
                    // Degraded probe: no floor, so nothing is pruned and
                    // every other shard gets its chance to contribute.
                    failures.push(se);
                }
            }
            for (si, snap) in snaps.iter().enumerate() {
                if si == seed {
                    continue;
                }
                if q_norm * snap.delta.max_norm < kth_floor {
                    spans[si].pruned = true; // cannot beat k verified points
                } else {
                    fan_out.push(si);
                }
            }
        } else {
            fan_out.extend(0..ns);
        }

        // --- Phase 2: fan-out over surviving shards. ----------------------
        attempted += fan_out.len();
        let collected: Vec<ShardOutcome> = if let Some(Err(spent)) = budget.map(QueryBudget::check)
        {
            // Spent or cancelled before the fan-out (an expired seed probe
            // leaves no floor, so nothing was pruned): every shard still to
            // search fails with that kind here — none is searched to find it
            // out on its first tick.
            fan_out
                .iter()
                .map(|&si| {
                    let span = ShardSpan {
                        shard: si,
                        failed: true,
                        ..ShardSpan::default()
                    };
                    (span, Err(classify_shard_error(si, spent.into())))
                })
                .collect()
        } else {
            // One worker loop hands out `fan_out` in ascending shard order,
            // run here and, when it is free, on the sweep helper. A failure
            // under fail-fast ends the hand-out: every lower shard is already
            // taken, so the lowest failing shard is always among the
            // outcomes and the reported error is the same for any schedule.
            let next = AtomicUsize::new(0);
            let worker = || {
                let mut local: Vec<ShardOutcome> = Vec::new();
                while let Some(&si) = fan_out.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let outcome = search_one(si, kth_floor);
                    if outcome.1.is_err() && policy == DegradationPolicy::FailFast {
                        next.store(fan_out.len(), Ordering::Relaxed);
                    }
                    local.push(outcome);
                }
                local
            };
            // `search_one` catches panics: the helper's side never unwinds.
            let helpers = Mutex::new(Vec::new());
            let theirs = || {
                *helpers.lock() = worker();
                Ok(())
            };
            // A lone shard leaves the helper to its own split sweep.
            let joined = (!serial && fan_out.len() > 1).then(|| sweep::join(&theirs, worker));
            let mut mine = match joined.flatten() {
                Some((mine, _)) => mine,
                None => worker(), // the helper is absent or owned
            };
            mine.append(&mut helpers.into_inner());
            mine
        };
        for (span, res) in collected {
            let si = span.shard;
            spans[si] = span;
            match res {
                Ok(found) => items[si] = found,
                Err(se) => failures.push(se),
            }
        }

        // --- Degradation decision. ------------------------------------------
        let mut degraded = false;
        if !failures.is_empty() {
            // The two threads finish in scheduling order; the lowest shard
            // index is what is reported.
            failures.sort_by_key(|e| e.shard);
            if policy == DegradationPolicy::FailFast || failures.len() == attempted {
                // Fail-fast, or nothing survived to merge — degrading to an
                // empty answer would hide a total outage.
                return Err(fail_query(failures.swap_remove(0)));
            }
            degraded = true;
            let reg = obs::global();
            reg.counter(CounterId::PartialResults).inc();
            if failures
                .iter()
                .any(|e| matches!(e.kind, ShardErrorKind::DeadlineExceeded))
            {
                reg.counter(CounterId::DeadlinesExceeded).inc();
            }
            if failures
                .iter()
                .any(|e| matches!(e.kind, ShardErrorKind::Cancelled))
            {
                reg.counter(CounterId::QueriesCancelled).inc();
            }
        }

        // --- Merge: one global top-k over every contributed item. ---------
        let t_merge = obs::now_ns();
        let mut merged = TopK::new(k);
        for it in items.iter().flatten() {
            merged.push(it.id, it.ip);
        }
        let merge_ns = obs::now_ns().saturating_sub(t_merge);

        // Aggregate accounting. The per-shard layer owns the query-level
        // counters; the core layer booked the in-shard row counters while
        // the shards ran.
        let reg = obs::global();
        reg.counter(CounterId::Queries).inc();
        let answered = |s: &&ShardSpan| !s.pruned && !s.failed;
        reg.counter(CounterId::ShardsSearched)
            .add(spans.iter().filter(answered).count() as u64);
        reg.counter(CounterId::ShardsPruned)
            .add(spans.iter().filter(|s| s.pruned).count() as u64);
        let result = ShardedSearchResult {
            items: merged.into_items(),
            verified: spans.iter().map(|s| s.verified as usize).sum(),
            screened: spans.iter().map(|s| s.screened as usize).sum(),
            degraded,
        };
        if let Some(trace) = &mut trace {
            trace.merge_ns = merge_ns;
            trace.budget_remaining_ns = budget.and_then(|b| b.remaining_ns());
            trace.shards = spans;
            trace.total_ns = obs::now_ns().saturating_sub(trace.started_at_ns);
        }
        Ok((result, trace))
    }
}

/// Searches one shard snapshot, returning its top-k under global ids — of
/// the rows at or above `request.kth_floor`, the seed shard's k-th (`-∞`
/// for the seed itself): the seed holds `k` rows at or above it, so no row
/// below it can enter the merged top-k.
///
/// The committed generation's index is searched first with `request`
/// (vector, `k`, budget and floor), under the snapshot's tombstone mask,
/// and its answer, remapped to global ids, is pushed into one running
/// [`TopK`] that the delta overlay then joins — the same two-level read an
/// LSM tree does, with the tombstone set filtering both levels.
///
/// The overlay is walked like the base column, one [`screen::walk`] per
/// part against the bar `max(k-th, floor)`: a sealed chunk under its
/// [`ScreenBound`] and one [`dot_col_i8`] over its codes — `h` bytes a row
/// under the index's basis — against the request's screen, the one the
/// index searched with; the open tail, and any chunk while the bar is not
/// yet finite, unscreened. Survivors are scored by the single-row [`dot`],
/// so the result is what scoring every row would give, `ip` bits and all.
///
/// A budget rides down into the index's scan/verify loops (checked per
/// page block and verification group there); the overlay checks it once
/// per chunk.
///
/// Observability: `span` receives the work as it happens, so it is valid
/// on the error path too. The index's stage breakdown comes from the core
/// search; the overlay books to `verify_ns` here, and its verified and
/// screened rows to the span and to the row counters (the core layer never
/// sees those rows).
fn search_snapshot(
    snap: &ShardSnapshot,
    request: Query<'_>,
    scratch: &mut SearchScratch,
    span: &mut ShardSpan,
) -> io::Result<Vec<SearchItem>> {
    let Query {
        q,
        k,
        budget,
        kth_floor,
        screen,
        ..
    } = request;
    let dead = &snap.delta.tombstones;
    let gen_ids = &snap.gen.ids;
    let mut top = TopK::new(k);
    if let Some(pm) = &snap.gen.index {
        let mask = |local: u64| dead.contains(&gen_ids[local as usize]);
        let res = pm.execute(
            Query {
                mask: Some((&mask, snap.delta.dead_base)),
                span: Some(&mut *span),
                ..request
            },
            scratch,
        )?;
        for it in res.items {
            top.push(gen_ids[it.id as usize], it.ip);
        }
    }
    let (core_verified, core_screened) = (span.verified, span.screened);
    let tv = obs::now_ns();
    let mut checker = BudgetChecker::new(budget);
    let d = q.len();
    let mut idots = [0i32; CHUNK_ROWS];
    let mut score_delta = || -> io::Result<()> {
        for part in snap.delta.parts() {
            checker.tick()?;
            let idots = &mut idots[..part.gids.len()];
            let bound = match (&part.quant, screen) {
                (Some(quant), Some(qs)) if top.kth_ip().max(kth_floor) > f64::NEG_INFINITY => {
                    dot_col_i8(&part.codes, qs.qcodes().len(), qs.qcodes(), idots);
                    Some(ScreenBound::new(quant, qs))
                }
                _ => None,
            };
            let tested = bound.as_ref().map(|bound| (&*idots, bound));
            screen::walk(part.gids.len(), tested, kth_floor, &mut top, span, |row| {
                let gid = part.gids[row];
                Ok((!dead.contains(&gid)).then(|| (gid, dot(q, &part.rows[row * d..][..d]))))
            })?;
        }
        Ok(())
    };
    let scored = score_delta();
    span.stages.verify_ns += obs::now_ns().saturating_sub(tv);
    let reg = obs::global();
    reg.counter(CounterId::QueryVerified)
        .add(span.verified - core_verified);
    reg.counter(CounterId::QueryScreened)
        .add(span.screened - core_screened);
    scored?;
    Ok(top.into_items())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedConfig;
    use promips_linalg::Matrix;
    use promips_stats::Xoshiro256pp;

    fn tiny_index(max_in_flight: usize) -> ShardedProMips {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let data = Matrix::from_rows(
            8,
            (0..64).map(|_| (0..8).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
        );
        ShardedProMips::build_in_memory(
            &data,
            ShardedConfig::builder()
                .shards(2)
                .max_in_flight(max_in_flight)
                .build(),
        )
        .unwrap()
    }

    #[test]
    fn admission_sheds_at_the_limit_and_recovers() {
        let idx = tiny_index(2);
        let a = idx.admit().unwrap();
        let b = idx.admit().unwrap();
        match idx.admit() {
            Err(QueryError::Overloaded { in_flight, limit }) => {
                assert_eq!(in_flight, 2);
                assert_eq!(limit, 2);
            }
            Ok(_) => panic!("expected Overloaded, got an admission"),
            Err(other) => panic!("expected Overloaded, got {other:?}"),
        }
        // A shed attempt must not leak a slot: the gauge still reads 2.
        assert_eq!(idx.in_flight.load(Ordering::Acquire), 2);
        drop(a);
        let c = idx.admit().expect("slot freed by drop");
        drop(b);
        drop(c);
        assert_eq!(idx.in_flight.load(Ordering::Acquire), 0);
    }

    /// A query with a NaN or infinite coordinate would make every screen
    /// bound and every score NaN; it is refused before any shard is touched
    /// — one holding an index or one holding none — and its admission slot
    /// returned.
    #[test]
    fn a_non_finite_query_is_refused_on_indexed_and_index_less_shards() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        // 400 rows fill both shards; one row leaves shard 1 without an index.
        for n in [400, 1] {
            let data = Matrix::from_rows(
                8,
                (0..n).map(|_| (0..8).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
            );
            let idx =
                ShardedProMips::build_in_memory(&data, ShardedConfig::builder().shards(2).build())
                    .unwrap();
            assert_eq!(idx.shards()[1].is_exact(), n == 1);
            let scratch = ShardedScratch::for_index(&idx);
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut q = vec![0.5f32; 8];
                q[3] = bad;
                let err = idx.execute(ShardedQuery::new(&q, 5), &scratch).unwrap_err();
                assert!(matches!(err, QueryError::InvalidInput(_)), "{bad}: {err:?}");
                let err = idx.search(&q, 5).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
                assert_eq!(idx.in_flight.load(Ordering::Acquire), 0);
            }
            assert_eq!(idx.search(&[0.5; 8], 5).unwrap().items.len(), n.min(5));
        }
    }

    #[test]
    fn search_succeeds_while_permits_are_held_below_the_limit() {
        let idx = tiny_index(2);
        let _held = idx.admit().unwrap();
        let q: Vec<f32> = (0..8).map(|i| (i as f32).sin()).collect();
        let res = idx.search(&q, 3).unwrap();
        assert_eq!(res.items.len(), 3);
        // And at the limit the search itself is shed with a typed error.
        let _held2 = idx.admit().unwrap();
        let scratch = ShardedScratch::for_index(&idx);
        let err = idx.execute(ShardedQuery::new(&q, 3), &scratch).unwrap_err();
        assert!(matches!(err, QueryError::Overloaded { .. }));
        // The io::Result entry points surface the shed as WouldBlock.
        let ioerr = idx.search(&q, 3).unwrap_err();
        assert_eq!(ioerr.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    #[should_panic(expected = "scratch sized for 3 shards, index has 2")]
    fn execute_rejects_a_scratch_set_sized_for_another_index() {
        let idx = tiny_index(0);
        let q = [0.5f32; 8];
        let _ = idx.execute(ShardedQuery::new(&q, 3), &ShardedScratch::new(3));
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn execute_rejects_a_query_of_the_wrong_dimension() {
        let idx = tiny_index(0);
        let _ = idx.search(&[0.5f32; 7], 3);
    }

    #[test]
    fn unlimited_admission_never_sheds() {
        let idx = tiny_index(0);
        let permits: Vec<_> = (0..64).map(|_| idx.admit().unwrap()).collect();
        drop(permits);
        assert_eq!(idx.in_flight.load(Ordering::Acquire), 0);
    }
}
