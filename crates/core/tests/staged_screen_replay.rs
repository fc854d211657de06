//! A replay of the column pass's staged best-first walk on the `lf300`
//! shape, next to the sub-partition skips that read no code at all.
//!
//! Shape: `latent_factor(100 000, 300, rank 48, σ 0.25, seed 1)`, the
//! benchmark's `lf300` matrix, built at the default config (64-byte heads:
//! a 32-byte prefix column the sweep reads, a 32-byte suffix column), and
//! the benchmark's seed-1 queries: 200 seeded data rows plus 0.1·N(0,1) per
//! coordinate, `k` = 10. Every query takes the column pass.
//!
//! **The staged walk.** Per query the replay sweeps the prefix column
//! (`IDistanceIndex::column_dots`), reads the suffix-norm codes
//! (`IDistanceIndex::suffix_norm_codes`), keys each sub-partition by its
//! prefix bound at its largest prefix dot and code 255
//! (`PrefixBound::upper`), and pops best first until the next key falls
//! below the running k-th. A sub-partition popped the first time is
//! **refined**: keyed again by its best row's own bound (`PrefixBound::best`)
//! and visited only if that still reaches the k-th and heads the heap,
//! else pushed back. In a visited sub-partition the rows whose own prefix
//! bound reaches the k-th get their suffix dot (one
//! `IDistanceIndex::suffix_cursor` a query, whose logical page reads are
//! counted here), and the whole dots go through `screen::walk` under the
//! sub-partition's `ScreenBound`, survivors scored by the single-row `dot`.
//! That is the engine's pass step for step: the replay's items, `verified`
//! and `screened` must equal `execute`'s on every query. It prints, per
//! query, the sub-partitions visited, the refinements, the rows given their
//! suffix and the suffix pages read; and how many queries the rule this
//! walk replaced would have sent to a sweep of the suffix column (more
//! than 0.65 of the keys, at code 255, reaching the `k`-th largest lower
//! bound on a sub-partition's best row).
//!
//! **Skips that read no code.** For each sub-partition, three upper bounds
//! on `⟨o, q⟩` that need no code byte of the query's: the **norm**
//! (`max ‖o‖·‖q‖`), the **head ball** (`⟨c, Vq⟩ + R·‖Vq‖ + tail·‖q − Vᵀ(Vq)‖`,
//! `c` the heads' centroid and `R` their largest distance from it) and the
//! **code box** (`Σⱼ max(loⱼ·bⱼ, hiⱼ·bⱼ) + tail·‖q − Vᵀ(Vq)‖` over the
//! per-coordinate range `[loⱼ, hiⱼ]` of the heads). A sub-partition whose
//! bound reaches the query's final k-th cannot be skipped unread; the
//! replay prints the share of rows such sub-partitions hold, against the
//! share the staged walk visits.
//!
//! ```text
//! cargo test --release -p promips_core --test staged_screen_replay -- --ignored --nocapture
//! ```

mod common;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use common::{from_order_key, order_key};

use promips_core::screen::{self, PrefixBound, QueryScreen, ScreenBound};
use promips_core::{ProMips, ProMipsConfig, Query, SearchScratch, TopK};
use promips_data::gen::latent_factor;
use promips_idistance::ProjScratch;
use promips_linalg::{dot, max_i32, sq_norm2};
use promips_obs::ShardSpan;
use promips_stats::Xoshiro256pp;

const K: usize = 10;
const QUERIES: usize = 200;
/// The benchmark's query stream at seed 1 (`benchmark/src/inputs.rs`).
const QUERY_SEED: u64 = 1 ^ 0x5EED_0F0A_11CE_0001;

/// What a sub-partition's rows give the code-free bounds.
struct SubBounds {
    rows: usize,
    max_norm: f64,
    centroid: Vec<f64>,
    radius: f64,
    lo: Vec<f64>,
    hi: Vec<f64>,
    tail: f64,
}

impl SubBounds {
    fn of(heads: &[Vec<f32>], norms: &[f64], tail: f64) -> Self {
        let h = heads[0].len();
        let mut centroid = vec![0.0; h];
        let (mut lo, mut hi) = (vec![f64::INFINITY; h], vec![f64::NEG_INFINITY; h]);
        for a in heads {
            for (j, &x) in a.iter().enumerate() {
                centroid[j] += x as f64 / heads.len() as f64;
                lo[j] = lo[j].min(x as f64);
                hi[j] = hi[j].max(x as f64);
            }
        }
        let radius = heads
            .iter()
            .map(|a| {
                let sq: f64 = a
                    .iter()
                    .zip(&centroid)
                    .map(|(&x, c)| (x as f64 - c).powi(2))
                    .sum();
                sq.sqrt()
            })
            .fold(0.0, f64::max);
        Self {
            rows: heads.len(),
            max_norm: norms.iter().copied().fold(0.0, f64::max),
            centroid,
            radius,
            lo,
            hi,
            tail,
        }
    }

    /// The norm, head-ball and code-box bounds against the query `q` with
    /// head `b` and head residual bound `q_tail`.
    fn bounds(&self, q_norm: f64, b: &[f32], q_tail: f64) -> [f64; 3] {
        let b_norm = sq_norm2(b).sqrt();
        let rest = self.tail * q_tail;
        let centre: f64 = self
            .centroid
            .iter()
            .zip(b)
            .map(|(c, &y)| c * y as f64)
            .sum();
        let corner: f64 = (self.lo.iter().zip(&self.hi).zip(b))
            .map(|((lo, hi), &y)| (lo * y as f64).max(hi * y as f64))
            .sum();
        [
            self.max_norm * q_norm,
            centre + self.radius * b_norm + rest,
            corner + rest,
        ]
    }
}

/// The share of keys past which the rule this walk replaced swept the
/// suffix column.
const OLD_SWEEP_SHARE: f64 = 0.65;

fn percentile(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    values[((values.len() - 1) as f64 * p).round() as usize]
}

#[test]
#[ignore = "a measurement, not a check: ≈ 15 s in release"]
fn staged_walk_and_code_free_skips_on_the_lf300_shape() {
    let (n, d, rank) = (100_000, 300, 48);
    let data = latent_factor(n, d, rank, 0.25, 1);
    let index = ProMips::build_in_memory(&data, ProMipsConfig::default()).unwrap();
    let idist = index.idistance();
    let basis = idist.head().expect("the lf300 shape gets a head");
    assert_eq!((idist.code_width(), idist.prefix_width()), (64, 32));
    let (subparts, vquants) = (idist.subparts(), idist.vquants());

    // Storage order: every row's id, and each sub-partition's code-free
    // bounds from its rows' heads.
    let (mut ids, mut subs) = (Vec::with_capacity(n), Vec::with_capacity(subparts.len()));
    let mut scratch = ProjScratch::new();
    for (sub, vq) in vquants.iter().enumerate() {
        idist
            .read_subpart_proj_into(sub as u32, &mut scratch)
            .unwrap();
        let mut heads = Vec::with_capacity(scratch.len());
        let mut norms = Vec::with_capacity(scratch.len());
        let mut tail = 0.0f64;
        for &id in scratch.ids() {
            let o = data.row(id as usize);
            let mut a = vec![0.0f32; basis.width()];
            let head_sq = basis.project(o, &mut a);
            tail = tail.max(basis.residual_bound(sq_norm2(o), head_sq));
            norms.push(sq_norm2(o).sqrt());
            heads.push(a);
        }
        assert!(tail <= vq.tail as f64);
        subs.push(SubBounds::of(&heads, &norms, tail));
        ids.extend_from_slice(scratch.ids());
    }

    let mut rng = Xoshiro256pp::seed_from_u64(QUERY_SEED);
    let (mut visited, mut refined, mut suffix_rows, mut suffix_pages) =
        (vec![], vec![], vec![], vec![]);
    let (mut visited_rows, mut kept_rows, mut swept) = (0usize, [0usize; 3], 0);
    let (mut qs, mut search) = (QueryScreen::default(), SearchScratch::new());
    let (mut prefix, mut codes, mut suffix, mut offsets) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..QUERIES {
        let near = data.row(rng.below(n as u64) as usize);
        let q: Vec<f32> = near
            .iter()
            .map(|&x| x + 0.1 * rng.normal() as f32)
            .collect();
        let mut engine = ShardSpan::default();
        let request = Query {
            span: Some(&mut engine),
            ..Query::new(&q, K)
        };
        let res = index.execute(request, &mut search).unwrap();
        assert!(engine.column_pass);

        // The staged best-first walk.
        qs.rebuild(&q, sq_norm2(&q), Some(basis));
        idist
            .column_dots(qs.qcodes(), &mut prefix, || Ok(()))
            .unwrap();
        idist.suffix_norm_codes(&mut codes).unwrap();
        let (mut order, mut lowers) = (Vec::new(), Vec::new());
        let mut first = 0;
        for (sub, (sp, vq)) in (0u32..).zip(subparts.iter().zip(vquants)) {
            let dots = &prefix[first..first + sp.count as usize];
            let (bound, best) = (PrefixBound::new(vq, &qs), max_i32(dots));
            order.push((
                order_key(bound.upper(best, u8::MAX)),
                Reverse(sub),
                first,
                false,
            ));
            lowers.push(bound.lower(best, u8::MAX));
            first += dots.len();
        }
        // The replaced rule: the k-th largest lower bound against the keys.
        lowers.sort_by(|a, b| b.total_cmp(a));
        let reaching = order
            .iter()
            .filter(|o| from_order_key(o.0) >= lowers[K - 1])
            .count();
        swept += (reaching as f64 > OLD_SWEEP_SHARE * order.len() as f64) as usize;
        let mut order = BinaryHeap::from(order);
        let (mut top, mut span) = (TopK::new(K), ShardSpan::default());
        let (mut subs_seen, mut refinements, mut rows_seen) = (0, 0, 0);
        let (mut rows_suffixed, mut pages) = (0, 0);
        let mut suffixes = idist.suffix_cursor();
        while let Some((key, Reverse(sub), first, is_refined)) = order.pop() {
            let bar = top.kth_ip();
            if from_order_key(key) < bar {
                break;
            }
            let vq = &vquants[sub as usize];
            let rows = first..first + subparts[sub as usize].count as usize;
            let (dots, codes) = (&prefix[rows.clone()], &codes[rows]);
            let bound = PrefixBound::new(vq, &qs);
            if !is_refined {
                refinements += 1;
                let entry = (
                    order_key(bound.best(dots, codes)),
                    Reverse(sub),
                    first,
                    true,
                );
                if from_order_key(entry.0) < bar || order.peek().is_some_and(|e| *e > entry) {
                    order.push(entry);
                    continue;
                }
            }
            offsets.clear();
            offsets.extend(
                (0u32..)
                    .zip(dots.iter().zip(codes))
                    .filter(|&(_, (&p, &c))| bound.may_reach(p, c, bar))
                    .map(|(o, _)| o),
            );
            span.screened += (dots.len() - offsets.len()) as u64;
            let before = idist.access_stats();
            suffix.clear();
            for &o in &offsets {
                suffix.push(dots[o as usize] + suffixes.dot(sub, o, qs.qcodes()).unwrap());
            }
            pages += idist.access_stats().delta_since(&before).logical_reads;
            let whole = ScreenBound::new(vq, &qs);
            screen::walk(
                offsets.len(),
                Some((&suffix, &whole)),
                f64::NEG_INFINITY,
                &mut top,
                &mut span,
                |i| {
                    let id = ids[first + offsets[i] as usize];
                    Ok(Some((id, dot(data.row(id as usize), &q))))
                },
            )
            .unwrap();
            (subs_seen, rows_seen) = (subs_seen + 1, rows_seen + dots.len());
            rows_suffixed += offsets.len();
        }
        span.screened += (n - rows_seen) as u64;
        assert_eq!(
            top.into_items(),
            res.items,
            "the replay is the engine's pass"
        );
        assert_eq!(
            (span.verified, span.screened),
            (res.verified as u64, res.screened as u64)
        );
        visited.push(subs_seen as u64);
        refined.push(refinements as u64);
        suffix_rows.push(rows_suffixed as u64);
        suffix_pages.push(pages);
        visited_rows += rows_seen;

        // The skips that read no code, against the final k-th.
        let kth = res.items[K - 1].ip;
        let mut b = vec![0.0f32; basis.width()];
        let head_sq = basis.project(&q, &mut b);
        let q_tail = basis.residual_bound(sq_norm2(&q), head_sq);
        for sub in &subs {
            let bounds = sub.bounds(sq_norm2(&q).sqrt(), &b, q_tail);
            for (kept, bound) in kept_rows.iter_mut().zip(bounds) {
                *kept += sub.rows * (bound >= kth) as usize;
            }
        }
    }

    let share = |rows: usize| 100.0 * rows as f64 / (n * QUERIES) as f64;
    println!(
        "{swept} of {QUERIES} queries the replaced rule would have sent to a suffix sweep; \
         the staged walk, per query (p50 / p95 / mean over all {QUERIES}):"
    );
    for (what, values) in [
        ("sub-partitions visited", &mut visited),
        ("sub-partitions refined", &mut refined),
        ("rows given their suffix", &mut suffix_rows),
        ("suffix pages read", &mut suffix_pages),
    ] {
        let mean = values.iter().sum::<u64>() as f64 / QUERIES as f64;
        let (p50, p95) = (percentile(values, 0.5), percentile(values, 0.95));
        println!("  {what:<24} {p50:>6} / {p95:>6} / {mean:>8.1}");
    }
    println!(
        "rows in visited sub-partitions: {:.2} %; rows a code-free skip keeps: \
         norm {:.2} %, head ball {:.2} %, code box {:.2} %",
        share(visited_rows),
        share(kept_rows[0]),
        share(kept_rows[1]),
        share(kept_rows[2])
    );
}
