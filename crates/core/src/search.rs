//! The searching processes: MIP-Search-II with Quick-Probe (Algorithm 3,
//! the production path) and MIP-Search-I (Algorithm 1, the incremental
//! baseline kept for the paper's design rationale and our ablation).
//!
//! The paper's one search procedure has one entry point here:
//! [`ProMips::execute`] takes a [`Query`] — the vector and `k`, plus the
//! options a per-shard caller attaches (tombstone mask, budget, span) —
//! and every other `search*` name is a one-line wrapper around it.
//! [`ProMips::search_incremental`] is a different operation, not an
//! option.
//!
//! # Index or scan, decided per query
//!
//! An index beats a scan only while it prunes ("To Index or Not to Index",
//! arXiv:1706.01449: estimate both costs before running either, take the
//! cheaper). `execute` makes that choice once per query, right after
//! Quick-Probe has located the radius `r`, from one number:
//!
//! * **Input.** `covered` = the rows held by the sub-partitions whose pivot
//!   sphere meets the ball `B(P(q), r)` — `Σ SubPartMeta::count` over the
//!   directory ([`promips_idistance::IDistanceIndex::covered_rows`], one
//!   column-kernel call over the pivots). No page is read; the rule's own
//!   time (≈ 5–7 µs for ~1 k sub-partitions, Quick-Probe's ≈ 1.5–3 µs
//!   beside it) is booked to the scan stage.
//! * **Rule.** If the index carries the SQ8 verification tier and
//!   `covered ≥ COLUMN_PASS_MIN_COVERAGE · len()` (0.25), the query is
//!   answered by the **column pass**: one sweep over the whole code column
//!   in storage order for every row's integer dot, then a walk over the
//!   sub-partitions best bound first, screening each row against the
//!   running k-th best (or the request's [`Query::kth_floor`], if higher)
//!   with its sub-partition's bound ([`crate::screen::walk`], shared with
//!   the shard layer's delta) and stopping at the first sub-partition whose
//!   bound falls below it, the few survivors scored exactly
//!   (`ProMips::column_pass`). Otherwise — and always on an index without
//!   the tier — the **annulus path** of Algorithm 3 runs: range scan, then
//!   one [`crate::screen::walk`] per sub-partition group under Conditions A
//!   and B, with the shortfall loop and the compensation radius,
//!   bit-identical tier on or off.
//! * **Cost derivation.** The annulus path's time is proportional to the
//!   rows it covers (decode and measure the projected row, fetch and dot
//!   the code row in group order), the column pass's to `len()` (one
//!   sweep of the code column plus the kernel). Measured per row
//!   on the two benchmark shapes (`--trace 1`, seed 1, two runs each side,
//!   alternated on a 2-core VM: `scan + screen + verify` of this commit
//!   with the rule switched off over its covered rows, against the pass of
//!   this commit over all rows): **d = 300** (`lf300_hot`, 100 000 rows,
//!   99 810 covered, 64-byte head codes) 29.7 and 30.5 ns per covered row
//!   against 3.69 and 5.73 ns per row, crossover at 0.121–0.193 of the
//!   rows; **d = 64** (`skew64_shard4`, the 50 000-row shard every query
//!   searches, 47 555 covered, full-width codes — 64 bytes too) 38.9 and
//!   38.9 against 4.34 and 4.40, crossover at 0.112–0.113. The constant
//!   was set at the larger crossover rounded up when the pass cost 7–8 ns a
//!   row (crossovers 0.215–0.217 and 0.126–0.137), and stays 0.25 now that
//!   the pass is cheaper: the pass still runs only where it wins on both
//!   shapes. These figures predate the two-core sweep
//!   (`IDistanceIndex::column_dots`), which both shapes' 3.2 MB columns
//!   take in a pool that holds the file; it only lowered the crossovers.
//!   Lowering it would move the queries covering between ≈ 0.16 and 0.25
//!   of their index to the exact pass, changing their answers; that is
//!   ROADMAP item 5's decision, after item 2's audit of the annulus path.
//!   Every query of the four benchmark workloads covers ≥ 0.80 of its index
//!   (`lf300` mean 0.998, `skew64` 0.951), so nothing measured there
//!   depends on where under 0.8 the constant is; it is a constant, not a
//!   knob.
//! * **What the caller sees.** A column pass returns the *exact* top-`k`
//!   over the live rows at or above the request's floor — ties to the
//!   smaller id, `ip` the single-row [`dot`] of the f32 row — so the
//!   (c, p) contract holds trivially. It reports
//!   [`Termination::DatasetExhausted`], `probe_radius = Some(r)`,
//!   `final_radius = None`, `compensated = false`;
//!   the request's span carries `covered_rows` and the `column_pass` flag,
//!   and [`CounterId::QueryColumnPasses`] counts the verdicts. On either
//!   path every returned `ip` is that single-row [`dot`], to the bit.
//!
//! # The head bound
//!
//! The pass is bound by the bytes it reads, so where the rows' energy sits
//! in few directions the code column holds `h`-byte **heads** in place of
//! `d`-byte rows: the SQ8 codes of `Vo`, for an `h × d` basis `V` of
//! top-energy directions estimated at build time
//! ([`promips_idistance::HeadBasis`]; a sharded index estimates one for all
//! its shards). The query is taken into the same space once per `execute`
//! (`d·h` multiply-adds), or once for all shards of a sharded query, which
//! hands its screen in as [`Query::screen`], and the screen tests
//!
//! ```text
//! ⟨o, q⟩ ≤ base + step·idot + pad,
//! pad = err·‖Vq‖ + xnorm·‖Vq − q̂‖            (the quantizer, as before)
//!     + tail·‖q − Vᵀ(Vq)‖                     (what the head leaves out)
//!     + δ(1 + δ)·(xnorm + err + tail)·max(‖q‖, ‖Vq‖)     (the basis as stored)
//! ```
//!
//! Proof sketch. Let `a = Vo`, `b = Vq` be the heads as computed (rounded
//! to `f32`), `r_o = o − Vᵀa`, `r_q = q − Vᵀb`. Expanding
//! `⟨Vᵀa + r_o, Vᵀb + r_q⟩` gives
//! `⟨o, q⟩ = ⟨a, b⟩ + ⟨r_o, r_q⟩ + ⟨a, Vq − b⟩ + ⟨V·r_o, b⟩`.
//! (1) *Orthogonal split*: for an exactly orthonormal `V` in exact
//! arithmetic the last two terms vanish (`b = Vq`, and `r_o ⟂ span Vᵀ`), and
//! Cauchy–Schwarz bounds the second by `‖r_o‖·‖r_q‖ ≤ tail·‖r_q‖`, `tail`
//! the sub-partition's stored maximum. (2) *Defect of the stored basis*:
//! with `G = VVᵀ ≠ I`, `V·r_o = (I − G)a − (a − Vo)`, so the last two terms
//! are at most `(‖G − I‖ + ρ)·max(‖a‖, ‖o‖)·max(‖b‖, ‖q‖)`, `ρ` the relative
//! rounding of the two projections; the index stores
//! `δ = ‖G − I‖_F + 2⁻²²` — measured on the `f32` rows as stored, plus `f32`
//! rounding of `a` and of `b` and as much again for the `f64` accumulations
//! — and `max(‖a‖, ‖o‖) ≤ (1 + δ)(xnorm + err + tail)`. (3) *Rounding of
//! `Vo`*: the residual norms are not formed (`d·h` more multiply-adds per
//! vector) but bounded by Pythagoras with the same `δ`:
//! `‖r_o‖² ≤ max(0, ‖o‖² − ‖a‖²) + δ·max(‖o‖², ‖a‖²)`, likewise `‖r_q‖`.
//! Every quantity on the right is measured, none assumed, so *any* `V`
//! keeps the bound exact; a poor one only makes `tail` large. Full-width
//! codes are the case `V = I`: `tail = δ = 0` and `pad` is what it was, to
//! the bit.
//!
//! **The prefix bound.** A head's codes are two columns of `h/2`-byte rows
//! (the prefix `a_p`, codes `0..h/2`, and the suffix `a_s`) and a byte a
//! row, its suffix-norm code, and the pass sweeps the prefix column alone.
//! A row's prefix dot and code bound it by
//!
//! ```text
//! ⟨o, q⟩ ≤ base_p + step·idot_p + code·c + pad_p,   c = suffix_norm·‖b_s‖/255
//! pad_p = err·‖b_p‖ + xnorm·‖b_p − b̂_p‖        (the quantizer, over the prefix)
//!       + tail·‖q − Vᵀ(Vq)‖ + δ(1 + δ)·(xnorm + err + tail)·max(‖q‖, ‖Vq‖)
//! ```
//!
//! Proof sketch. `⟨a, b⟩ = ⟨a_p, b_p⟩ + ⟨a_s, b_s⟩` exactly, so the head
//! bound's steps hold with `⟨a, b⟩` split in two. The prefix codes are the
//! first `h/2` codes of the row under its sub-partition's one quantizer, so
//! `‖a_p − â_p‖ ≤ ‖a − â‖ ≤ err` and `‖â_p‖ ≤ ‖â‖ ≤ xnorm`, and the
//! quantizer's Cauchy–Schwarz step over the prefix coordinates gives the
//! first line with the query's prefix scalars (`Σb` and `b̂` over the
//! prefix). Cauchy–Schwarz again, and the build's check of each row's code
//! in `f64`, give
//! `⟨a_s, b_s⟩ ≤ ‖a_s‖·‖b_s‖ ≤ code·(suffix_norm/255)·‖b_s‖`, with
//! `suffix_norm ≥ max ‖a_s‖` the sub-partition's stored bound over its
//! rows' heads as coded; `c` carries the pad's relative `1e-9` for the
//! rounding of the product. The last line is the whole head's, unchanged.
//! Prefix dot plus suffix dot is the whole row's integer dot, so a row the
//! prefix bound leaves in is then tested by the head bound itself. For
//! full-width codes the prefix is the whole row, there are no codes, and
//! the pass runs on the head bound alone, as it did before heads existed.
//!
//! `code ≤ 255`, so a sub-partition's bound at its largest prefix dot and
//! code 255 is at least each of its rows' ([`PrefixBound`]): that keys the
//! best-first walk. The first time a sub-partition is popped it is keyed
//! again by its best row's own bound — one branch-free pass over its dots
//! and codes ([`promips_linalg::max_scaled_sum`]) — and visited only if
//! that still reaches the bar and heads the heap; in a visit each row's own
//! bound picks the rows whose suffix is read (`ProMips::column_pass`). A
//! row's suffix norm is typically 0.6 of its sub-partition's largest, so
//! the refined keys cut the visits themselves. On `lf300` (seed-1
//! queries, in memory, `staged_screen_replay.rs`) a query visits 83.5 of
//! 1 148 sub-partitions and refines 184 (means; p50 70 and 152, p95 173
//! and 388), gives 314 rows their suffix and reads 97 suffix pages (p95
//! 531 and 201); the sweep reads 782 prefix pages and 25 of codes. Keyed by
//! the sub-partition's largest suffix norm the walk visited 184 and read
//! 233 suffix pages, and a rule sent 60 of the 200 queries to a 782-page
//! sweep of the suffix column instead.
//!
//! **Width.** `h` is the smallest multiple of 64 up to `min(d/2, 256)`
//! whose tail energy (the share of a 1 024-row sample's `‖X‖_F²` outside
//! the span of a basis fitted to `8·h` other rows) is at most ε = 0.02;
//! otherwise the index keeps full-width codes, one column of `d`-byte rows.
//! ε is derived like the coverage constant, from query times of one index
//! per row (100 000 rows, k = 10, queries beside a data row, in-memory
//! pager; full-width codes against a forced 64-byte head; `verified` =
//! rows the screen let through):
//!
//! | rows | tail energy at h = 64 | full-width p50, verified | 64-byte head p50, verified |
//! |---|---|---|---|
//! | `latent_factor` d = 300, rank 48 | 0.000 | 2 904 µs, 168 | 835 µs, 191 |
//! | … + 0.02·N(0,1) per coordinate | 0.004 | 3 164 µs, 178 | 902 µs, 282 |
//! | … + 0.04 | 0.015 | 3 011 µs, 174 | 1 011 µs, 399 |
//! | … + 0.07 | 0.045 | 3 029 µs, 172 | 1 171 µs, 736 |
//! | … + 0.10 | 0.087 | 2 972 µs, 173 | 1 430 µs, 1 635 |
//! | … + 0.15 | 0.174 | 2 960 µs, 170 | 3 444 µs, 6 985 |
//! | `latent_factor` d = 128, rank 32, + 0.04 | 0.007 | 1 099 µs, 177 | 830 µs, 293 |
//! | … + 0.06 | 0.016 | 1 091 µs, 177 | 840 µs, 357 |
//! | … + 0.09 | 0.034 | 1 090 µs, 172 | 881 µs, 499 |
//! | … + 0.12 | 0.057 | 1 092 µs, 172 | 991 µs, 796 |
//! | … + 0.15 | 0.085 | 1 088 µs, 169 | 1 080 µs, 1 307 |
//! | `sift_histogram` d = 128 (slow spectrum) | 0.070 | 1 079 µs, 187 | 2 180 µs, 6 941 |
//! | `bio_feature` d = 256 | 0.393 | 2 094 µs, 278 | 23 503 µs, 84 483 |
//!
//! The share alone does not say how the residuals compare with the gap
//! below the k-th score — 0.070 loses 2× on `sift_histogram` where 0.085
//! is still level on low-rank rows plus noise — so the constant sits under
//! half of the smallest losing share, where every generator measured wins
//! by 19 % or more (a 128-byte head at d = 300 is never the better width
//! in these rows: 1 279 and 1 468 µs where the 64-byte one reads 835 and
//! 1 171).
//!
//! The production path is allocation-lean: every per-query buffer (the
//! projected query, the candidate list, the offset list, and the original
//! vector arena) lives in a reusable [`SearchScratch`]; concurrent queries
//! on one index share it read-only, one scratch per thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;

use promips_idistance::{ProjScratch, RangeCandidate};
use promips_linalg::{dist, dot, max_i32_runs, norm1, sq_norm2};
use promips_obs::{self as obs, BudgetChecker, CounterId, QueryBudget, ShardSpan, StageNanos};

use crate::conditions::ConditionContext;
use crate::index::ProMips;
use crate::result::{SearchResult, Termination, TopK};
use crate::screen::{self, PrefixBound, QueryScreen, ScreenBound};

/// The index-or-scan rule's one constant (module docs): the column pass
/// answers a query whose Quick-Probe ball covers at least this share of the
/// index's rows. Derived from four measured per-row costs — annulus path
/// 30.0–32.0 ns per covered row against 4.84–5.04 ns per row for the pass
/// at d = 300 (crossover 0.158–0.162), 38.0–39.3 against 4.55–4.80 at
/// d = 64 (crossover 0.116–0.127) — it sits above both crossovers, so the
/// pass runs only where it wins; moving it changes answers (module docs).
/// Not a configuration field.
const COLUMN_PASS_MIN_COVERAGE: f64 = 0.25;

/// Reusable per-query buffers. One scratch serves any number of sequential
/// searches against any index; concurrent queries keep one per thread.
/// All buffers grow to the high-water mark of the queries they serve and
/// are never shrunk.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Projected query (length m).
    pq: Vec<f32>,
    /// Range-search candidates, grouped by sub-partition.
    cands: Vec<RangeCandidate>,
    /// The projected query's squared distance to every pivot.
    dists: Vec<f64>,
    /// Projected-record decode arena for the annulus scan: the id column
    /// and flat `f32` rows of one covered sub-partition at a time.
    proj: ProjScratch,
    /// Buffers for screening and verification.
    fetch: FetchBuffers,
    /// The query side of the screen, rebuilt once per `execute` unless the
    /// request brings its own ([`Query::screen`]).
    screen: QueryScreen,
}

#[derive(Debug, Default)]
struct FetchBuffers {
    /// Record offsets of the group being screened.
    offsets: Vec<u32>,
    /// The f32 row being scored.
    arena: Vec<f32>,
    /// Per-group sort keys: `(min proj_dist, start, end)` into the
    /// candidate slice — precomputed once, so the group ordering pass is
    /// O(G log G) instead of the O(G² · |group|) of recomputing the key
    /// inside the comparator.
    groups: Vec<(f64, usize, usize)>,
    /// Integer inner products `Σ codeⱼ·bⱼ` of the group being screened
    /// (candidate `i` at `idots[i]`) or of the whole swept column (row
    /// `i`), computed by the index on the pinned code pages.
    idots: Vec<i32>,
    /// The column pass's whole-row dots of one sub-partition's rows that
    /// the prefix bound left in (at `offsets`), for head codes.
    rows_dots: Vec<i32>,
    /// Every row's suffix-norm code, for head codes (row `i` at `i`).
    norm_codes: Vec<u8>,
    /// The column pass's largest prefix dot of each sub-partition.
    best_dots: Vec<i32>,
    /// The column pass's visiting order: one `(key(upper bound),
    /// Reverse(sub-partition), refined)` per sub-partition whose key
    /// reaches the floor, a max-heap rebuilt in place per pass.
    order: BinaryHeap<(u64, Reverse<u32>, bool)>,
}

impl SearchScratch {
    /// A fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One search request: the query vector and `k`, plus every option a
/// per-shard caller can attach. [`Query::new`] is the plain search; set
/// the other fields with struct-update syntax:
///
/// ```
/// use promips_core::{ProMips, ProMipsConfig, Query, SearchScratch};
/// use promips_linalg::Matrix;
///
/// let mut rng = promips_stats::Xoshiro256pp::seed_from_u64(1);
/// let data = Matrix::from_rows(
///     16,
///     (0..500).map(|_| (0..16).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
/// );
/// let index = ProMips::build_in_memory(&data, ProMipsConfig::default()).unwrap();
/// let mut scratch = SearchScratch::new();
/// let q = vec![0.5f32; 16];
///
/// let plain = index.execute(Query::new(&q, 5), &mut scratch).unwrap();
/// // The same search with its best hit tombstoned by the caller.
/// let best = plain.items[0].id;
/// let masked = Query {
///     mask: Some((&|id| id == best, 1)),
///     ..Query::new(&q, 5)
/// };
/// let res = index.execute(masked, &mut scratch).unwrap();
/// assert!(res.items.iter().all(|item| item.id != best));
/// ```
pub struct Query<'a> {
    /// The query vector (length `d`).
    pub q: &'a [f32],
    /// Result size; clamped to the number of live points.
    pub k: usize,
    /// **Tombstone mask** `(dead, dead_count)` — the only source of
    /// deadness: ids for which `dead` returns true are never verified into
    /// the top-k, while the norm bounds they may define stay in force
    /// (which only enlarges the searching range, keeping Theorems 1–2
    /// conservative). This is the read path of the shard layer's MVCC
    /// overlay: delta/tombstone state lives *outside* the immutable index
    /// and is snapshotted per query. `dead_count` must be the number of
    /// this index's ids the mask kills (an overcount truncates results; an
    /// undercount can make a shortfall pass scan further than needed) — it
    /// tightens the `k` clamp.
    pub mask: Option<(&'a dyn Fn(u64) -> bool, usize)>,
    /// Cooperative deadline/cancellation: the scan/verify loops check it
    /// every few block iterations (`None` costs a single branch per check
    /// site) and stop with a typed [`obs::BudgetExceeded`], recoverable
    /// from the returned `io::Error` via [`obs::budget_error`].
    pub budget: Option<&'a QueryBudget>,
    /// Receives the per-stage wall-time breakdown (scan → screen → verify)
    /// and the scanned/screened/verified row counts of this search — on
    /// success *and* on failure, where it covers the work done before the
    /// error. The caller owns the span's identity fields (`shard`, `seed`,
    /// `elapsed_ns`).
    pub span: Option<&'a mut ShardSpan>,
    /// **Floor** on the rows worth returning: the caller holds `k` rows at
    /// or above this inner product elsewhere (the shard layer passes its
    /// seed shard's k-th to every other shard it searches), so no row
    /// below it can enter the caller's top-`k`. The column pass tests rows
    /// against `max(k-th best, kth_floor)`, stops its walk at the first
    /// sub-partition whose bound falls below that, and returns only items
    /// at or above the floor. The annulus path ignores it: Conditions A
    /// and B are statements about this index's own k-th. `-∞`
    /// ([`Query::new`]) keeps every row.
    pub kth_floor: f64,
    /// The query side of the screen, built by the caller from `q` (a
    /// sharded index builds one per query under the basis its shards
    /// share); `None` ([`Query::new`]) builds it in the scratch. A screen
    /// that does not [fit](QueryScreen::fits) this index is `InvalidInput`.
    pub screen: Option<&'a QueryScreen>,
}

impl<'a> Query<'a> {
    /// The plain top-`k` search for `q`: no mask, budget, span or floor.
    pub fn new(q: &'a [f32], k: usize) -> Self {
        Self {
            q,
            k,
            mask: None,
            budget: None,
            span: None,
            kth_floor: f64::NEG_INFINITY,
            screen: None,
        }
    }
}

impl ProMips {
    /// c-k-AMIP search (Algorithm 3 + Quick-Probe).
    ///
    /// Returns the top-`k` candidates by exact inner product among the
    /// verified points; with probability at least `p`, each returned item
    /// satisfies `⟨oᵢ,q⟩ ≥ c·⟨o*ᵢ,q⟩`.
    ///
    /// Allocates a fresh [`SearchScratch`]; callers issuing many queries
    /// should hold one and use [`ProMips::execute`].
    pub fn search(&self, q: &[f32], k: usize) -> io::Result<SearchResult> {
        self.execute(Query::new(q, k), &mut SearchScratch::new())
    }

    /// [`ProMips::search`] with caller-provided scratch buffers.
    pub fn search_with_scratch(
        &self,
        q: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> io::Result<SearchResult> {
        self.execute(Query::new(q, k), scratch)
    }

    /// [`ProMips::execute`] with a mask and a span, spelled as positional
    /// arguments, keeping only the items at or above `ip_floor` (`-∞` keeps
    /// them all). Frozen by `benchmark/`, which compiles against this name;
    /// everything else builds a [`Query`].
    #[allow(clippy::too_many_arguments)]
    pub fn search_masked_traced(
        &self,
        q: &[f32],
        k: usize,
        ip_floor: f64,
        dead: &dyn Fn(u64) -> bool,
        dead_count: usize,
        scratch: &mut SearchScratch,
        span: &mut ShardSpan,
    ) -> io::Result<SearchResult> {
        let mut res = self.execute(
            Query {
                mask: Some((dead, dead_count)),
                span: Some(span),
                ..Query::new(q, k)
            },
            scratch,
        )?;
        res.items.retain(|it| it.ip >= ip_floor);
        Ok(res)
    }

    /// The one search path: runs `query` and feeds the global metrics
    /// registry's row counters and the request's span (counts and stage
    /// times) with the work done — whether the search finished or an IO
    /// fault or the budget stopped it.
    /// Query-level counters ([`CounterId::Queries`]) are owned by the
    /// sharded layer so a fan-out is counted once, not once per shard.
    pub fn execute(
        &self,
        mut query: Query<'_>,
        scratch: &mut SearchScratch,
    ) -> io::Result<SearchResult> {
        let mut work = ShardSpan::default();
        let res = self.mip_search_ii(&query, scratch, &mut work);
        let reg = obs::global();
        reg.counter(CounterId::QueryScanned).add(work.scanned);
        reg.counter(CounterId::QueryScreened).add(work.screened);
        reg.counter(CounterId::QueryVerified).add(work.verified);
        reg.counter(CounterId::QueryColumnPasses)
            .add(work.column_pass as u64);
        if let Some(span) = query.span.take() {
            span.stages = work.stages;
            span.scanned = work.scanned;
            span.screened = work.screened;
            span.verified = work.verified;
            span.covered_rows = work.covered_rows;
            span.column_pass = work.column_pass;
        }
        res
    }

    /// The searching conditions for query `q` on this index; a query with
    /// a NaN, infinite or overflowing coordinate is `InvalidInput`.
    fn conditions(&self, q: &[f32]) -> io::Result<ConditionContext> {
        let q_sq_norm = sq_norm2(q);
        if !q_sq_norm.is_finite() {
            // Every bound would be NaN and no row could pass it.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "‖q‖² is not finite: a NaN, infinite or overflowing query coordinate",
            ));
        }
        Ok(ConditionContext {
            c: self.config.c,
            chi2_threshold: self.chi2_threshold,
            max_sq_norm: self.max_sq_norm,
            q_sq_norm,
        })
    }

    /// MIP-Search-II (Algorithm 3) with Quick-Probe — the body of
    /// [`ProMips::execute`]. Stage time and row counts go to `work` as
    /// they accrue, so they survive an early `?`.
    fn mip_search_ii(
        &self,
        query: &Query<'_>,
        scratch: &mut SearchScratch,
        work: &mut ShardSpan,
    ) -> io::Result<SearchResult> {
        let &Query {
            q,
            k,
            budget,
            screen,
            ..
        } = query;
        let (mask, mask_dead_count) = query.mask.unzip();
        assert_eq!(q.len(), self.d, "query dimensionality mismatch");
        assert!(k >= 1, "k must be at least 1");
        if screen.is_some_and(|qs| !qs.fits(self.d, self.index.head())) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the query screen was not built under this index's head basis",
            ));
        }
        // Cooperative budget checker shared by every loop below. With no
        // budget this is one branch per tick site — the no-budget path
        // stays bit-identical.
        let mut checker = BudgetChecker::new(budget);
        let k = k.min((self.len() as usize).saturating_sub(mask_dead_count.unwrap_or(0)));
        if k == 0 {
            // The mask kills every point: nothing to verify or return.
            return Ok(finish(
                TopK::new(0),
                work,
                None,
                None,
                false,
                Termination::DatasetExhausted,
            ));
        }

        let t_scan = obs::now_ns();
        self.projection.project_into(q, &mut scratch.pq);
        let ctx = self.conditions(q)?;
        let qs = match screen {
            _ if !self.index.verify_quantized() => None,
            Some(qs) => Some(qs),
            None => {
                scratch.screen.rebuild(q, ctx.q_sq_norm, self.index.head());
                Some(&scratch.screen)
            }
        };

        // --- Quick-Probe: locate the range-defining point (Algorithm 2). --
        let located = self
            .quickprobe
            .locate(&scratch.pq, norm1(q), self.config.c, self.config.p);
        let r = located_radius(located.projected, &scratch.pq);
        // --- Index or scan (module docs): directory only, no page read. ---
        if self.index.verify_quantized() {
            work.covered_rows = self.index.covered_rows(&scratch.pq, r, &mut scratch.dists);
            work.column_pass =
                work.covered_rows as f64 >= COLUMN_PASS_MIN_COVERAGE * self.len() as f64;
        }
        work.stages.scan_ns += obs::now_ns().saturating_sub(t_scan);
        checker.tick()?;

        let mut top = TopK::new(k);

        if let Some(qs) = qs.filter(|_| work.column_pass) {
            let t_pass = obs::now_ns();
            let passed =
                self.column_pass(query, qs, &mut top, &mut scratch.fetch, work, &mut checker);
            work.stages.screen_ns += obs::now_ns().saturating_sub(t_pass);
            passed?;
            return Ok(finish(
                top,
                work,
                Some(r),
                None,
                false,
                Termination::DatasetExhausted,
            ));
        }

        // --- Range search within r; verify per sub-partition batch. -------
        let t_range = obs::now_ns();
        let ranged = self.index.range_candidates_ticked(
            &scratch.pq,
            -1.0,
            r,
            &mut scratch.cands,
            &mut scratch.proj,
            || Ok(checker.tick()?),
        );
        work.stages.scan_ns += obs::now_ns().saturating_sub(t_range);
        work.scanned += scratch.cands.len() as u64;
        ranged?;
        checker.tick()?;
        if let Some(term) = self.verify_groups(
            &scratch.cands,
            q,
            &ctx,
            mask,
            qs,
            &mut top,
            &mut scratch.fetch,
            work,
            &mut checker,
        )? {
            return Ok(finish(top, work, Some(r), Some(r), false, term));
        }

        // --- Rare shortfall: fewer than k candidates inside r. ------------
        // Pull further neighbours in distance order until k are verified so
        // the conditions (which need the k-th best) become meaningful.
        let mut r_final = r;
        let mut extended = false;
        if !top.is_full() {
            let t_short = obs::now_ns();
            let mut iter = self.index.nn_iter(&scratch.pq);
            let mut rows = self.index.orig_cursor(0);
            let checker = &mut checker;
            let mut shortfall = || -> io::Result<()> {
                for cand in iter.by_ref() {
                    checker.tick()?;
                    if cand.proj_dist <= r || is_dead(cand.id, mask) {
                        continue; // already verified by the range pass / deleted
                    }
                    rows.seek(cand.subpart);
                    rows.decode_into(&[cand.offset], &mut scratch.fetch.arena)?;
                    top.push(cand.id, dot(&scratch.fetch.arena, q));
                    work.verified += 1;
                    r_final = cand.proj_dist;
                    extended = true;
                    if top.is_full() {
                        break;
                    }
                }
                Ok(())
            };
            let shorted = shortfall();
            work.stages.verify_ns += obs::now_ns().saturating_sub(t_short);
            shorted?;
            if let Some(e) = iter.take_error() {
                return Err(e);
            }
        }

        // --- Termination tests at the searched radius. ---------------------
        if ctx.condition_a(top.kth_ip()) {
            return Ok(finish(
                top,
                work,
                Some(r),
                Some(r_final),
                extended,
                Termination::ConditionA,
            ));
        }
        if ctx.condition_b(r_final * r_final, top.kth_ip()) {
            return Ok(finish(
                top,
                work,
                Some(r),
                Some(r_final),
                extended,
                Termination::ConditionB,
            ));
        }

        // --- Compensation: extend once to r' (paper Section V-A). ---------
        if let Some(r_prime) = ctx.compensation_radius(top.kth_ip()) {
            if r_prime > r_final {
                let t_comp = obs::now_ns();
                let ranged = self.index.range_candidates_ticked(
                    &scratch.pq,
                    r_final,
                    r_prime,
                    &mut scratch.cands,
                    &mut scratch.proj,
                    || Ok(checker.tick()?),
                );
                work.stages.scan_ns += obs::now_ns().saturating_sub(t_comp);
                work.scanned += scratch.cands.len() as u64;
                ranged?;
                checker.tick()?;
                if let Some(term) = self.verify_groups(
                    &scratch.cands,
                    q,
                    &ctx,
                    mask,
                    qs,
                    &mut top,
                    &mut scratch.fetch,
                    work,
                    &mut checker,
                )? {
                    return Ok(finish(top, work, Some(r), Some(r_prime), true, term));
                }
                r_final = r_prime;
                extended = true;
            }
        }
        Ok(finish(
            top,
            work,
            Some(r),
            Some(r_final),
            extended,
            Termination::RangeExhausted,
        ))
    }

    /// MIP-Search-I (Algorithm 1): incremental NN search testing the
    /// conditions after every returned point. Quadratically more page
    /// accesses than [`ProMips::search`] in practice — kept as the ablation
    /// baseline showing what Quick-Probe buys.
    pub fn search_incremental(&self, q: &[f32], k: usize) -> io::Result<SearchResult> {
        assert_eq!(q.len(), self.d, "query dimensionality mismatch");
        assert!(k >= 1, "k must be at least 1");
        let k = k.min(self.len() as usize);

        let pq = self.projection.project(q);
        let ctx = self.conditions(q)?;

        let mut top = TopK::new(k);
        let mut work = ShardSpan::default();
        let mut termination = Termination::DatasetExhausted;

        let mut iter = self.index.nn_iter(&pq);
        let (mut rows, mut arena) = (self.index.orig_cursor(0), Vec::with_capacity(self.d));
        for cand in iter.by_ref() {
            rows.seek(cand.subpart);
            rows.decode_into(&[cand.offset], &mut arena)?;
            top.push(cand.id, dot(&arena, q));
            work.verified += 1;
            if ctx.condition_a(top.kth_ip()) {
                termination = Termination::ConditionA;
                break;
            }
            if ctx.condition_b(cand.proj_dist * cand.proj_dist, top.kth_ip()) {
                termination = Termination::ConditionB;
                break;
            }
        }
        if let Some(e) = iter.take_error() {
            return Err(e);
        }
        Ok(finish(top, &work, None, None, false, termination))
    }

    /// Verifies candidates one sub-partition batch at a time, testing the
    /// cheap Condition A between batches as Algorithm 3 prescribes.
    ///
    /// Groups are processed in ascending order of their nearest member's
    /// projected distance, and Condition B is tested at every group
    /// boundary with the *frontier* distance (the nearest unverified
    /// candidate): at that moment every point closer than the frontier has
    /// been verified, which is exactly the premise of Theorem 2. This keeps
    /// MIP-Search-II's batched sequential I/O while recovering the early
    /// termination of the incremental search — unverified groups are never
    /// fetched from disk.
    ///
    /// A group is one [`screen::walk`], the column pass's: a row it does not
    /// rule out is skipped if the mask kills it, else its f32 row is decoded
    /// — through one cursor per group, so survivors sharing a page share its
    /// read — and scored by the single-row [`dot`], the bits the column pass
    /// gives. When the index carries the SQ8 verification tier
    /// ([`promips_idistance::IDistanceConfig::verify_quantize`]) and the
    /// running k-th best is finite, the walk screens each row on its integer
    /// dot, computed on the group's pinned code pages
    /// ([`promips_idistance::IDistanceIndex::screen_dots`]), under the
    /// sub-partition's [`ScreenBound`]. A row ruled out is proven strictly
    /// below the k-th best, so the returned top-k, radii and termination
    /// cause are **bit-identical** tier on or off. While the collector still
    /// reports `-∞` (fewer than k finite verifications), screening cannot
    /// drop anything and the walk scores every row.
    ///
    /// Stage attribution: a screened group (code pages + integer screen +
    /// survivor scoring) books to `screen_ns` — that is the verification
    /// tier as a unit — while an unscreened one books to `verify_ns`.
    /// Timing at group granularity keeps the instrumentation off the
    /// per-row loop, where a clock read per row would cost more than the
    /// i8 kernel itself.
    #[allow(clippy::too_many_arguments)]
    fn verify_groups(
        &self,
        cands: &[RangeCandidate],
        q: &[f32],
        ctx: &ConditionContext,
        mask: Option<&dyn Fn(u64) -> bool>,
        qs: Option<&QueryScreen>,
        top: &mut TopK,
        buf: &mut FetchBuffers,
        work: &mut ShardSpan,
        checker: &mut BudgetChecker<'_>,
    ) -> io::Result<Option<Termination>> {
        let FetchBuffers {
            offsets,
            arena,
            groups,
            idots,
            ..
        } = buf;
        // Candidates arrive grouped by sub-partition (directory order);
        // compute each group's (min proj_dist, range) key in one pass.
        groups.clear();
        let mut start = 0;
        while start < cands.len() {
            let subpart = cands[start].subpart;
            let mut min_pd = cands[start].proj_dist;
            let mut end = start + 1;
            while end < cands.len() && cands[end].subpart == subpart {
                min_pd = min_pd.min(cands[end].proj_dist);
                end += 1;
            }
            groups.push((min_pd, start, end));
            start = end;
        }
        groups.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Lap-style stage timing: a query visits hundreds of tiny groups,
        // so reading the clock around every group would dominate the very
        // overhead the stage timers exist to expose. The branch (screened
        // vs plain) flips at most once per pass — plain until the k-th
        // best becomes finite, screened after — so one lap per *branch
        // run* gives exact attribution with O(1) clock reads per call.
        let mut t_lap = obs::now_ns();
        let mut lap_screened = false;
        let flush = |screened_lap: bool, t_lap: &mut u64, stages: &mut StageNanos| {
            let now = obs::now_ns();
            let slot = if screened_lap {
                &mut stages.screen_ns
            } else {
                &mut stages.verify_ns
            };
            *slot += now.saturating_sub(*t_lap);
            *t_lap = now;
        };
        let mut outcome = Ok(None);
        for gi in 0..groups.len() {
            // One cooperative budget check per verified group: a group is
            // one bounded blob read + one bounded kernel pass, so deadline
            // overshoot is bounded by the checker's stride worth of
            // groups. Break (not return) so the timing lap still flushes.
            if let Err(exceeded) = checker.tick() {
                outcome = Err(exceeded.into());
                break;
            }
            let (_, s, e) = groups[gi];
            let group = &cands[s..e];
            let sub = group[0].subpart;
            // Screening can only drop candidates proven below a finite
            // k-th best; with `-∞` it is a no-op, so skip the code
            // pages entirely and score every row.
            let screen_now = qs.filter(|_| top.kth_ip() > f64::NEG_INFINITY);
            if screen_now.is_some() != lap_screened {
                flush(lap_screened, &mut t_lap, &mut work.stages);
                lap_screened = screen_now.is_some();
            }
            let bound = if let Some(qs) = screen_now {
                offsets.clear();
                offsets.extend(group.iter().map(|c| c.offset));
                if let Err(e) = self.index.screen_dots(sub, offsets, qs.qcodes(), idots) {
                    outcome = Err(e);
                    break;
                }
                Some(ScreenBound::new(&self.index.vquants()[sub as usize], qs))
            } else {
                None
            };
            let screen = bound.as_ref().map(|bound| (&idots[..], bound));
            let mut rows = self.index.orig_cursor(sub);
            let walked = screen::walk(group.len(), screen, f64::NEG_INFINITY, top, work, |i| {
                let cand = &group[i];
                if is_dead(cand.id, mask) {
                    return Ok(None);
                }
                rows.decode_into(&[cand.offset], arena)?;
                Ok(Some((cand.id, dot(arena, q))))
            });
            if let Err(e) = walked {
                outcome = Err(e);
                break;
            }
            if ctx.condition_a(top.kth_ip()) {
                outcome = Ok(Some(Termination::ConditionA));
                break;
            }
            if let Some(&(frontier, _, _)) = groups.get(gi + 1) {
                if ctx.condition_b(frontier * frontier, top.kth_ip()) {
                    outcome = Ok(Some(Termination::ConditionB));
                    break;
                }
            }
        }
        flush(lap_screened, &mut t_lap, &mut work.stages);
        outcome
    }

    /// The scan side of the index-or-scan rule, in two phases. The
    /// **sweep** computes every row's integer dot over the prefix column
    /// into `idots` — the whole row for full-width codes, a head's first
    /// half for heads — one kernel call per page, independent of the k-th
    /// best ([`promips_idistance::IDistanceIndex::column_dots`]); a head
    /// index then reads its suffix-norm codes, one byte a row
    /// ([`promips_idistance::IDistanceIndex::suffix_norm_codes`]). The
    /// **walk** visits the sub-partitions best first, as LEMP-style bucket
    /// orders do ("To Index or Not to Index", arXiv:1706.01449): each one's
    /// upper bound at the largest dot of its slice of `idots` (one
    /// [`max_i32_runs`] call over the column) — its [`ScreenBound`], or for
    /// heads its [`PrefixBound`] at code 255 — goes into a max-heap built
    /// in O(n) (ties to the lower directory index) unless it is already
    /// below the floor, and the walk pops until the next bound falls below
    /// the bar `max(k-th best, query.kth_floor)`. Every bound left is at
    /// most that one, so their rows are ruled out unread. A head sub-partition popped
    /// the first time is keyed again by its best row's own bound
    /// ([`PrefixBound::best`], never above the first key) and visited only
    /// if that still reaches the bar and heads the heap; otherwise it goes
    /// back in. In a visited sub-partition of a head index, each row its
    /// own prefix bound cannot rule out at the bar gets its suffix dot
    /// ([`promips_idistance::SuffixCursor`]): prefix plus suffix is the
    /// row's whole integer dot. The sub-partition's rows (for heads, those
    /// rows) are then one [`screen::walk`] under its [`ScreenBound`], as an
    /// annulus group is. A row the bound cannot rule out has its id read
    /// from its projected record and, unless the mask kills it, its f32 row
    /// decoded and scored by the single-row [`dot`]; the readers keep their
    /// page pinned, so survivors of one sub-partition sharing a page share
    /// its read. `top` ends as the exact top-k over live rows at or above
    /// the floor.
    ///
    /// Books as it goes (valid on the error path): `scanned` code rows
    /// swept, `screened` rows ruled out (by the prefix or the whole row),
    /// `verified` rows scored; the rows of the sub-partitions never visited
    /// book to `screened` when the walk stops. One budget tick per page of
    /// the sweep, before the norm codes and per sub-partition visited.
    fn column_pass(
        &self,
        query: &Query<'_>,
        qs: &QueryScreen,
        top: &mut TopK,
        fetch: &mut FetchBuffers,
        work: &mut ShardSpan,
        checker: &mut BudgetChecker<'_>,
    ) -> io::Result<()> {
        let (q, floor) = (query.q, query.kth_floor);
        let mask = query.mask.map(|(dead, _)| dead);
        let FetchBuffers {
            offsets,
            arena,
            idots,
            rows_dots,
            norm_codes,
            best_dots,
            order,
            ..
        } = fetch;
        let swept = self
            .index
            .column_dots(qs.qcodes(), idots, || Ok(checker.tick()?));
        work.scanned += idots.len() as u64;
        swept?;
        let split = self.index.prefix_width() < self.index.code_width();
        if split {
            checker.tick()?;
            self.index.suffix_norm_codes(norm_codes)?;
        }

        let (vquants, bounds) = (self.index.vquants(), self.index.row_bounds());
        best_dots.resize(vquants.len(), 0);
        max_i32_runs(idots, bounds, best_dots);
        // The heap's buffer never leaves the scratch across a `?`.
        let mut keys = std::mem::take(order).into_vec();
        keys.clear();
        let bar = top.kth_ip().max(floor);
        for (sub, (vq, &best)) in (0u32..).zip(vquants.iter().zip(best_dots.iter())) {
            let upper = if split {
                PrefixBound::new(vq, qs).upper(best, u8::MAX)
            } else {
                ScreenBound::new(vq, qs).upper(best)
            };
            // A key under the bar could only end the walk: never pushed.
            if upper < bar {
                continue;
            }
            keys.push((order_key(upper), Reverse(sub), !split));
        }
        *order = BinaryHeap::from(keys);

        let mut ids = self.index.id_cursor();
        let mut rows = self.index.orig_cursor(0);
        let mut suffixes = self.index.suffix_cursor();
        let mut unvisited = idots.len() as u64;
        while let Some((key, Reverse(sub), refined)) = order.pop() {
            let bar = top.kth_ip().max(floor);
            if from_order_key(key) < bar {
                break;
            }
            let vq = &vquants[sub as usize];
            let span = bounds[sub as usize]..bounds[sub as usize + 1];
            let dots = &idots[span.clone()];
            let prefix = split.then(|| (PrefixBound::new(vq, qs), &norm_codes[span]));
            if let (Some((prefix, codes)), false) = (&prefix, refined) {
                let key = order_key(prefix.best(dots, codes));
                let entry = (key, Reverse(sub), true);
                if from_order_key(key) < bar || order.peek().is_some_and(|e| *e > entry) {
                    order.push(entry);
                    continue;
                }
            }
            checker.tick()?;
            unvisited -= dots.len() as u64;
            let dots = match prefix {
                Some((prefix, codes)) => {
                    // The bar only rises, so a row its prefix bound rules
                    // out now stays out; the rest get their suffix.
                    offsets.clear();
                    let reaching = (0u32..)
                        .zip(dots.iter().zip(codes))
                        .filter(|&(_, (&idot, &code))| prefix.may_reach(idot, code, bar));
                    offsets.extend(reaching.map(|(row, _)| row));
                    work.screened += (dots.len() - offsets.len()) as u64;
                    rows_dots.clear();
                    for &row in offsets.iter() {
                        let suffix = suffixes.dot(sub, row, qs.qcodes())?;
                        rows_dots.push(dots[row as usize] + suffix);
                    }
                    &rows_dots[..]
                }
                None => dots,
            };
            let bound = ScreenBound::new(vq, qs);
            screen::walk(dots.len(), Some((dots, &bound)), floor, top, work, |i| {
                let offset = if split { offsets[i] } else { i as u32 };
                let id = ids.id(sub, offset)?;
                if is_dead(id, mask) {
                    return Ok(None);
                }
                rows.seek(sub);
                rows.decode_into(&[offset], arena)?;
                Ok(Some((id, dot(arena, q))))
            })?;
        }
        work.screened += unvisited;
        Ok(())
    }
}

/// An order-preserving `u64` of a finite `x` (`total_cmp` order): the
/// sign bit set on non-negatives, every bit flipped on negatives.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The `x` of [`order_key`], bit for bit.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// The searching radius: the projected distance from the Quick-Probe
/// point (its projected vector as the index stores it, held by the
/// directory) to the projected query.
///
/// The radius is inflated by a few ulps: the annulus scan measures
/// distances with the `sq_dist_col` column kernel, which for projected rows
/// longer than `promips_linalg::scalar::SHORT_MAX` can differ from the
/// single-row `dist` used here in the last ulp (up to that length the two
/// agree to the bit), and the located point itself must always fall inside
/// its own range (`pd <= r`). The inflation only ever *enlarges* the
/// searched range, so the probability guarantee is untouched.
fn located_radius(located: &[f32], pq: &[f32]) -> f64 {
    dist(located, pq) * (1.0 + 4.0 * f64::EPSILON)
}

/// Whether the request's mask kills `id`.
fn is_dead(id: u64, mask: Option<&dyn Fn(u64) -> bool>) -> bool {
    mask.is_some_and(|m| m(id))
}

fn finish(
    top: TopK,
    work: &ShardSpan,
    probe_radius: Option<f64>,
    final_radius: Option<f64>,
    compensated: bool,
    termination: Termination,
) -> SearchResult {
    SearchResult {
        items: top.into_items(),
        verified: work.verified as usize,
        screened: work.screened as usize,
        probe_radius,
        final_radius,
        compensated,
        termination,
    }
}

// The public-API tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/search_api/mod.rs"]
mod tests;
