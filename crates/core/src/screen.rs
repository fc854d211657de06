//! The SQ8 verification screen, as one primitive: the query side
//! ([`QueryScreen`], built once per query), the per-quantizer test
//! ([`ScreenBound`], one per sub-partition or code chunk) and the walk of
//! one block of rows through it into a [`TopK`] ([`walk`]). The column pass
//! of [`crate::search`] walks the index's code column one sub-partition at
//! a time, best bound first (for heads, each row's own prefix bound keys
//! the walk and picks the rows it then tests whole: [`PrefixBound`]), the
//! annulus path its candidates one
//! sub-partition group at a time (unscreened while its k-th best is `-∞`),
//! and the shard layer its delta one chunk at a time — sealed chunks coded
//! under the index's one basis and screened by the query's one screen, the
//! open tail unscreened.

use std::io;

use promips_idistance::meta::OrigQuant;
use promips_idistance::HeadBasis;
use promips_linalg::{max_i32, max_scaled_sum, sq_norm2};
use promips_obs::ShardSpan;

use crate::result::TopK;

/// Per-query pieces of the SQ8 verification screen, shared by every group
/// and pass of the query. The codes live in the **coded space** — the
/// original coordinates, or under a [`HeadBasis`] the `h` head coordinates,
/// where the query is its head `Vq` — so `q` below is the query *there*:
/// the symmetric query quantizer `q̂ⱼ = sq·bⱼ` plus the exact scalars the
/// per-group bound needs. With `idot = Σ codeⱼ·bⱼ` (exact integer
/// arithmetic), the screen estimate unfolds as
/// `⟨x̂, q̂⟩ = sq·(min·Σbⱼ + scale·idot)`, and Cauchy–Schwarz bounds the
/// coded-space inner product by
/// `|⟨x, q⟩ − ⟨x̂, q̂⟩| ≤ err·‖q‖ + xnorm·‖q − q̂‖`. What a head leaves out
/// is bounded by the `q_tail` and `leak` scalars (`crate::search`'s module
/// docs, "The head bound"). The quantizer's scalars are kept twice: over
/// the whole coded row, and over the **prefix** the column sweep reads (a
/// head's first `h/2` coordinates, whose rest `b_s` the prefix bound meets
/// by its norm; the whole row again for full-width codes).
#[derive(Debug, Default)]
pub struct QueryScreen {
    /// The codes `bⱼ` (one per coded coordinate) — the integer kernels' i8
    /// operand.
    qcodes: Vec<i8>,
    /// Query quantization step `max|qⱼ|/127` (1.0 for the zero query).
    sq: f64,
    /// The quantizer's scalars over the whole coded row.
    whole: Span,
    /// The quantizer's scalars over the prefix: `whole` without a basis.
    prefix: Span,
    /// `‖b_s‖`, the norm of the head's coordinates past the prefix; 0
    /// without a basis.
    suffix_norm: f64,
    /// The query's head `Vq` (unused without a basis).
    head: Vec<f32>,
    /// Upper bound on the original query's residual `‖q − Vᵀ(Vq)‖`; 0
    /// without a basis.
    q_tail: f64,
    /// `δ(1 + δ)·max(‖q‖, ‖Vq‖)`, the query's factor of the leak term; 0
    /// without a basis.
    leak: f64,
    /// The frame the screen was built in: the query's length `d` (0 before
    /// the first rebuild) and the fingerprint of its basis, if any.
    frame: (usize, Option<u64>),
}

/// The query's quantizer scalars over a span of the coded coordinates.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    /// `Σ bⱼ` — exact, pairs with the data quantizer's `min`.
    sum_b: i64,
    /// `‖q − q̂‖` computed in f64 from the actual codes (not a bound).
    q_err: f64,
    /// `‖q‖` in the coded space.
    q_norm: f64,
}

impl QueryScreen {
    /// Takes `q` into the coded space, quantizes it symmetrically and
    /// gathers the bound scalars, reusing the buffers. `q_sq_norm` is the
    /// caller's already-computed `‖q‖²`; `basis` is `None` for full-width
    /// codes.
    pub fn rebuild(&mut self, q: &[f32], q_sq_norm: f64, basis: Option<&HeadBasis>) {
        self.frame = (q.len(), basis.map(HeadBasis::fingerprint));
        let (q, p, [prefix_sq_norm, q_sq_norm]) = match basis {
            Some(basis) => {
                self.head.resize(basis.width(), 0.0);
                let head_sq_norm = basis.project(q, &mut self.head);
                let p = basis.prefix_width();
                self.suffix_norm = sq_norm2(&self.head[p..]).sqrt();
                self.q_tail = basis.residual_bound(q_sq_norm, head_sq_norm);
                self.leak =
                    basis.defect() * (1.0 + basis.defect()) * q_sq_norm.max(head_sq_norm).sqrt();
                let prefix_sq_norm = sq_norm2(&self.head[..p]);
                (&self.head[..], p, [prefix_sq_norm, head_sq_norm])
            }
            None => {
                (self.suffix_norm, self.q_tail, self.leak) = (0.0, 0.0, 0.0);
                (q, q.len(), [q_sq_norm; 2])
            }
        };
        let mut amax = 0.0f32;
        for &x in q {
            amax = amax.max(x.abs());
        }
        let sq = if amax > 0.0 { amax as f64 / 127.0 } else { 1.0 };
        self.qcodes.clear();
        self.qcodes.reserve(q.len());
        // `Σ bⱼ` and `‖q − q̂‖²`, accumulated in coordinate order through
        // the prefix and on through the rest of the row.
        let (mut sum_b, mut q_err_sq) = (0i64, 0.0f64);
        let mut quantize = |span: &[f32]| {
            for &x in span {
                let b = (x as f64 / sq).round().clamp(-127.0, 127.0);
                self.qcodes.push(b as i8);
                sum_b += b as i64;
                let e = x as f64 - sq * b;
                q_err_sq += e * e;
            }
            (sum_b, q_err_sq)
        };
        let (prefix_sum_b, prefix_err_sq) = quantize(&q[..p]);
        let (sum_b, q_err_sq) = quantize(&q[p..]);
        self.sq = sq;
        (self.prefix.sum_b, self.prefix.q_err) = (prefix_sum_b, prefix_err_sq.sqrt());
        (self.whole.sum_b, self.whole.q_err) = (sum_b, q_err_sq.sqrt());
        self.prefix.q_norm = prefix_sq_norm.sqrt();
        self.whole.q_norm = q_sq_norm.sqrt();
    }

    /// The query's codes: the i8 operand of `dot_col_i8` and its kin.
    #[inline]
    pub fn qcodes(&self) -> &[i8] {
        &self.qcodes
    }

    /// Whether the screen was built for a query of `d` coordinates under
    /// `basis` (`None`: full-width codes) — whether codes taken under that
    /// basis can be screened with it. Bases are told apart by
    /// [`HeadBasis::fingerprint`].
    pub fn fits(&self, d: usize, basis: Option<&HeadBasis>) -> bool {
        self.frame == (d, basis.map(HeadBasis::fingerprint))
    }
}

/// The screen's test for the code rows of one quantizer: with
/// `idot = Σ codeⱼ·bⱼ`, a row's inner product is at most
/// `base + step·idot + pad`.
///
/// `base + step·idot` is the estimate `⟨x̂, q̂⟩ = sq·(min·Σb + scale·idot)`;
/// `pad` is the Cauchy–Schwarz bound `err·‖q‖ + xnorm·‖q − q̂‖` inflated by
/// a relative `1e-9` (covers the f64 rounding of the bound itself) plus an
/// absolute `1e-12·xnorm·‖q‖` (dominates the f64 rounding of the estimate
/// and of the exact kernels, which is O(d·ε·‖x‖·‖q‖)) — and, for head
/// codes, the two terms of the head bound: `tail·‖q − Vᵀ(Vq)‖` for what
/// the head leaves out and `δ(1 + δ)·(xnorm + err + tail)·max(‖q‖, ‖Vq‖)`
/// for the stored basis' defect and the rounding of the projections, both
/// absent for full-width codes — so no row whose exact kernel inner
/// product could reach the k-th best is ever dropped.
///
/// [`PrefixBound`] is the same test on a head row's dot over the prefix
/// column alone.
pub struct ScreenBound {
    base: f64,
    step: f64,
    pad: f64,
}

impl ScreenBound {
    /// The bound of the rows `vq` quantized, against the query `qs`.
    #[inline]
    pub fn new(vq: &OrigQuant, qs: &QueryScreen) -> Self {
        Self::over(vq, qs, &qs.whole)
    }

    /// The bound over the coordinates of `span`; past them, for a prefix,
    /// [`PrefixBound`] adds each row's suffix term.
    #[inline]
    fn over(vq: &OrigQuant, qs: &QueryScreen, span: &Span) -> Self {
        let (err, xnorm, tail) = (vq.err as f64, vq.xnorm as f64, vq.tail as f64);
        let mut pad = (err * span.q_norm + xnorm * span.q_err) * (1.0 + 1e-9)
            + 1e-12 * (xnorm * qs.whole.q_norm);
        // Positive exactly for a non-zero query against head codes.
        if qs.leak > 0.0 {
            pad += tail * qs.q_tail + (xnorm + err + tail) * qs.leak;
        }
        Self {
            base: qs.sq * vq.min as f64 * span.sum_b as f64,
            step: qs.sq * vq.scale as f64,
            pad,
        }
    }

    /// The upper bound on the inner product of a row with integer dot
    /// `idot`. Monotone in `idot` (`step ≥ 0`, and every rounding in it is
    /// monotone), so the bound of a block's largest dot bounds the whole
    /// block: what lets a pass rule out a block with one test, and order
    /// blocks by what they could hold.
    #[inline]
    pub fn upper(&self, idot: i32) -> f64 {
        self.base + self.step * idot as f64 + self.pad
    }

    /// Whether a row with integer dot `idot` can still reach `bar`.
    #[inline]
    pub fn may_reach(&self, idot: i32, bar: f64) -> bool {
        self.upper(idot) >= bar
    }
}

/// The prefix bound of one sub-partition's head rows, **per row**: a row
/// with prefix dot `idot` (its dot over the prefix column,
/// [`promips_idistance::IDistanceIndex::column_dots`]) and suffix-norm code
/// `code` ([`promips_idistance::head::suffix_code`]) has an inner product
/// of at most `base + (step·idot + c·code) + pad`. `base`, `step` and `pad`
/// are [`ScreenBound`]'s over the prefix coordinates (the whole row's `err`
/// and `xnorm` bound the prefix's), with no term for the head past them;
/// that is `c·code ≥ ‖a_s‖·‖b_s‖`, `c = suffix_norm·‖b_s‖/255` inflated by
/// the pad's relative `1e-9` ([`crate::search`]'s module docs, "The prefix
/// bound").
///
/// Every rounding in it is monotone and `code ≤ 255`, so the bound at a
/// sub-partition's largest prefix dot and code 255 ([`Self::upper`]) is at
/// least every row's, and [`Self::best`] is the largest row's to the bit.
pub struct PrefixBound {
    bound: ScreenBound,
    c: f64,
}

impl PrefixBound {
    /// The bound of the rows `vq` quantized, against the query `qs`.
    #[inline]
    pub fn new(vq: &OrigQuant, qs: &QueryScreen) -> Self {
        Self {
            bound: ScreenBound::over(vq, qs, &qs.prefix),
            c: vq.suffix_norm as f64 * qs.suffix_norm / 255.0 * (1.0 + 1e-9),
        }
    }

    /// The upper bound on the inner product of a row with prefix dot
    /// `idot` and suffix-norm code `code`.
    #[inline]
    pub fn upper(&self, idot: i32, code: u8) -> f64 {
        let b = &self.bound;
        b.base + (b.step * idot as f64 + self.c * code as f64) + b.pad
    }

    /// The lower bound on the inner product of a row with prefix dot
    /// `idot` and suffix-norm code `code`: every term of the pad bounds a
    /// difference in both directions.
    #[inline]
    pub fn lower(&self, idot: i32, code: u8) -> f64 {
        let b = &self.bound;
        b.base + (b.step * idot as f64 - self.c * code as f64) - b.pad
    }

    /// Whether a row with prefix dot `idot` and code `code` can still reach
    /// `bar`.
    #[inline]
    pub fn may_reach(&self, idot: i32, code: u8, bar: f64) -> bool {
        self.upper(idot, code) >= bar
    }

    /// The largest [`Self::upper`] over a block's rows, prefix dot `dots[i]`
    /// beside code `codes[i]` (`-∞` for none): one pass of the dispatched
    /// [`max_scaled_sum`].
    #[inline]
    pub fn best(&self, dots: &[i32], codes: &[u8]) -> f64 {
        let b = &self.bound;
        b.base + max_scaled_sum(dots, codes, b.step, self.c) + b.pad
    }
}

/// Walks one block of `rows` rows into `top`, keeping only rows at or
/// above `floor` (`-∞` keeps every row): a caller that already holds `k`
/// rows at or above `floor` elsewhere loses nothing by it. The **bar** is
/// `max(top.kth_ip(), floor)`. With `screen = Some((dots, bound))` (row
/// `i`'s integer dot at `dots[i]`) a block whose largest dot cannot reach
/// the bar is ruled out whole, otherwise each row is tested against it,
/// refreshed after every row that enters; without one every row is scored.
/// `score(row)` gives a survivor's `(id, ip)`, or `None` for a row the
/// caller's mask kills. So `top` ends as if every live row at or above
/// `floor` had been offered. Rows ruled out book to `span.screened`, rows
/// scored to `span.verified`, as they go (valid when `score` fails).
///
/// Always inlined: it runs once per sub-partition the column pass visits,
/// per annulus group and per delta chunk, and most calls end at the fold.
#[inline(always)]
pub fn walk<F>(
    rows: usize,
    screen: Option<(&[i32], &ScreenBound)>,
    floor: f64,
    top: &mut TopK,
    span: &mut ShardSpan,
    mut score: F,
) -> io::Result<()>
where
    F: FnMut(usize) -> io::Result<Option<(u64, f64)>>,
{
    let mut bar = top.kth_ip().max(floor);
    if let Some((dots, bound)) = screen {
        debug_assert_eq!(dots.len(), rows);
        if !bound.may_reach(max_i32(dots), bar) {
            span.screened += rows as u64;
            return Ok(());
        }
    }
    for row in 0..rows {
        if screen.is_some_and(|(dots, bound)| !bound.may_reach(dots[row], bar)) {
            span.screened += 1;
        } else if let Some((id, ip)) = score(row)? {
            span.verified += 1;
            if ip >= floor && top.push(id, ip) {
                bar = top.kth_ip().max(floor);
            }
        }
    }
    Ok(())
}
