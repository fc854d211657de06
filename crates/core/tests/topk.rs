//! The query path's one collector and one screen walk, held to references:
//! [`TopK`] against sorting every row pushed and truncating to `k`, and
//! [`screen::walk`] against offering every row at or above its floor to a
//! `TopK`.

use std::collections::BTreeSet;
use std::io;

use promips_core::screen::{self, QueryScreen, ScreenBound};
use promips_core::{SearchItem, TopK};
use promips_idistance::build::sq8_encode;
use promips_linalg::{dot, dot_col_i8, max_i32, sq_norm2};
use promips_obs::ShardSpan;
use promips_stats::Xoshiro256pp;
use proptest::prelude::*;

/// The first `k` of `pushed` in the merge order (`ip` descending, ties to
/// the smaller id), NaN scores left out.
fn reference(pushed: &[SearchItem], k: usize) -> Vec<SearchItem> {
    let mut all: Vec<SearchItem> = pushed
        .iter()
        .filter(|it| !it.ip.is_nan())
        .copied()
        .collect();
    all.sort_by(|a, b| b.ip.total_cmp(&a.ip).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

fn bits(items: &[SearchItem]) -> Vec<(u64, u64)> {
    items.iter().map(|it| (it.id, it.ip.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scores drawn from five values (NaN and both zeros among them), so
    /// exact ties at the k-th are the rule; `k` from 0 past the number of
    /// pushes. After every push: its return value says whether the row is
    /// in the reference's top-`k` of the rows pushed so far, and the k-th is
    /// the reference's, or −∞ below `k` rows.
    #[test]
    fn topk_is_the_sorted_prefix_of_every_push(
        rows in proptest::collection::vec((0u64..48, 0usize..5), 0..40),
        k in 0usize..45,
    ) {
        const SCORES: [f64; 5] = [1.5, 0.0, -0.0, -2.0, f64::NAN];
        let mut top = TopK::new(k);
        let mut pushed = Vec::new();
        let mut seen = BTreeSet::new();
        for (id, score) in rows {
            if !seen.insert(id) {
                continue; // a row is offered once
            }
            let item = SearchItem { id, ip: SCORES[score] };
            pushed.push(item);
            let want = reference(&pushed, k);
            let entered = want.iter().any(|it| it.id == id);
            prop_assert_eq!(top.push(id, item.ip), entered, "k = {}, id = {}", k, id);
            let kth = if want.len() == k && k > 0 { want[k - 1].ip } else { f64::NEG_INFINITY };
            prop_assert_eq!(top.kth_ip().to_bits(), kth.to_bits());
            prop_assert_eq!(top.is_full(), want.len() == k);
        }
        prop_assert_eq!(bits(&top.into_items()), bits(&reference(&pushed, k)));
    }
}

/// The collector `mip_search_ii` builds when the mask kills every row:
/// nothing enters, the k-th is −∞ and the result is empty.
#[test]
fn topk_at_k_zero_takes_nothing() {
    let mut top = TopK::new(0);
    assert!(top.is_full());
    assert!(!top.push(1, 3.0));
    assert_eq!(top.kth_ip(), f64::NEG_INFINITY);
    assert!(top.into_items().is_empty());
}

#[test]
fn topk_collector_behaviour() {
    let mut t = TopK::new(3);
    assert_eq!(t.kth_ip(), f64::NEG_INFINITY);
    t.push(1, 5.0);
    t.push(2, 7.0);
    assert_eq!(t.kth_ip(), f64::NEG_INFINITY); // only 2 of 3
    t.push(3, 3.0);
    assert_eq!(t.kth_ip(), 3.0);
    t.push(4, 6.0); // evicts 3.0
    assert_eq!(t.kth_ip(), 5.0);
    let items = t.into_items();
    assert_eq!(
        items.iter().map(|i| i.id).collect::<Vec<_>>(),
        vec![2, 4, 1]
    );
}

/// A block of `n` Gaussian rows with full-width SQ8 codes, as the shard
/// layer seals a delta chunk, and the query's dots against them.
struct Block {
    d: usize,
    rows: Vec<f32>,
    q: Vec<f32>,
    dots: Vec<i32>,
    bound: ScreenBound,
}

impl Block {
    fn new(n: usize, d: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let rows: Vec<f32> = (0..n * d).map(|_| rng.normal() as f32).collect();
        let q: Vec<f32> = (0..d).map(|_| rng.normal() as f32).collect();
        let mut codes = Vec::new();
        let quant = sq8_encode(&rows, d, &mut codes);
        let mut qs = QueryScreen::default();
        qs.rebuild(&q, sq_norm2(&q), None);
        let mut dots = vec![0; n];
        dot_col_i8(&codes, d, qs.qcodes(), &mut dots);
        let bound = ScreenBound::new(&quant, &qs);
        Self {
            d,
            rows,
            q,
            dots,
            bound,
        }
    }

    fn ip(&self, row: usize) -> f64 {
        dot(&self.rows[row * self.d..(row + 1) * self.d], &self.q)
    }
}

/// A block whose largest dot cannot reach the bar — a full `top`'s k-th, or
/// a floor over an empty one — is ruled out whole: the closure is never
/// called, every row books screened and `top` is left as it was.
#[test]
fn walk_rules_a_block_out_whole() {
    let block = Block::new(64, 12, 1);
    let mut full = TopK::new(2);
    full.push(1_000, 1e9);
    full.push(1_001, 1e9);
    let above = block.bound.upper(max_i32(&block.dots)) + 1e-6;
    for (mut top, floor) in [(full, f64::NEG_INFINITY), (TopK::new(2), above)] {
        let before = bits(&top.clone().into_items());
        let mut span = ShardSpan::default();
        let mut calls = 0;
        let tested = Some((&block.dots[..], &block.bound));
        screen::walk(64, tested, floor, &mut top, &mut span, |_| {
            calls += 1;
            Ok(None)
        })
        .unwrap();
        assert_eq!((calls, span.screened, span.verified), (0, 64, 0));
        assert_eq!(bits(&top.into_items()), before, "floor {floor}");
    }
}

/// Without a bound every row is scored; with one, the survivors are, and
/// either way `top` ends as it does when every live row at or above the
/// floor is offered — with no floor, and with one at the third-best live
/// row, which leaves `top` short of its `k = 4`. Rows the closure masks
/// are neither screened nor verified.
#[test]
fn walk_ends_where_offering_every_row_ends() {
    let mut screened = 0;
    for seed in 0..20 {
        let block = Block::new(64, 12, seed);
        let dead = |row: usize| row % 5 == 3;
        let live = || (0..64).filter(|&row| !dead(row));
        let mut ips: Vec<f64> = live().map(|row| block.ip(row)).collect();
        ips.sort_by(|a, b| b.total_cmp(a));
        for floor in [f64::NEG_INFINITY, ips[2]] {
            let mut want = TopK::new(4);
            for row in live().filter(|&row| block.ip(row) >= floor) {
                want.push(row as u64, block.ip(row));
            }
            let want = bits(&want.into_items());
            for bounded in [false, true] {
                let mut top = TopK::new(4);
                let mut span = ShardSpan::default();
                let (mut calls, mut scored) = (0, 0);
                let tested = bounded.then_some((&block.dots[..], &block.bound));
                screen::walk(64, tested, floor, &mut top, &mut span, |row| {
                    calls += 1;
                    scored += u64::from(!dead(row));
                    Ok((!dead(row)).then(|| (row as u64, block.ip(row))))
                })
                .unwrap();
                let what = format!("seed {seed}, floor {floor}, bounded {bounded}");
                assert_eq!(bits(&top.into_items()), want, "{what}");
                assert_eq!(span.screened + calls, 64, "{what}");
                assert_eq!(span.verified, scored, "{what}");
                if !bounded {
                    assert_eq!((calls, span.screened), (64, 0), "{what}");
                }
                screened += span.screened;
            }
        }
    }
    assert!(screened > 0, "the bound never ruled a row out");
}

/// An error from the closure is returned, with the rows before it booked.
#[test]
fn walk_returns_a_scoring_error_with_the_counts_so_far() {
    let block = Block::new(64, 12, 7);
    let mut top = TopK::new(3);
    let mut span = ShardSpan::default();
    let err = screen::walk(64, None, f64::NEG_INFINITY, &mut top, &mut span, |row| {
        if row == 5 {
            return Err(io::Error::other("page read failed"));
        }
        Ok(Some((row as u64, block.ip(row))))
    })
    .unwrap_err();
    assert_eq!(err.to_string(), "page read failed");
    assert_eq!((span.screened, span.verified), (0, 5));
    assert_eq!(top.into_items().len(), 3);
}
