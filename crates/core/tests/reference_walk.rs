//! The column pass's best-first walk against a reference that builds its
//! heap the long way: one `max_i32` and one `PrefixBound::new` /
//! `ScreenBound::new` key a sub-partition, and every sub-partition's
//! `(key, Reverse(sub), first row, refined)` pushed, whatever the floor.
//! The engine takes each sub-partition's largest dot from one run-max call
//! over the column, its first row from the directory, and leaves out the
//! keys already below the bar `max(k-th, kth_floor)` when the heap is
//! built — entries that could only have ended the walk. Items, `verified`
//! and `screened` must be the reference's, over a head index and a
//! full-width one, at the floors −∞, one under the query's k-th, the k-th
//! itself and the largest key (where the first pop sits exactly at the
//! bar: a filter that also left out keys equal to the bar would skip a
//! sub-partition the walk visits), each with and without a mask.

mod common;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use common::{from_order_key, low_rank, order_key, random_data};

use promips_core::screen::{self, PrefixBound, QueryScreen, ScreenBound};
use promips_core::{ProMips, ProMipsConfig, Query, SearchItem, SearchScratch, TopK};
use promips_linalg::{dot, max_i32, sq_norm2, Matrix};
use promips_obs::ShardSpan;
use promips_stats::Xoshiro256pp;

const K: usize = 10;

/// The walk replayed with the reference heap: `(items, verified,
/// screened)`.
fn reference(
    index: &ProMips,
    data: &Matrix,
    q: &[f32],
    floor: f64,
    dead: &dyn Fn(u64) -> bool,
) -> (Vec<SearchItem>, u64, u64) {
    let idist = index.idistance();
    let (subparts, vquants) = (idist.subparts(), idist.vquants());
    let mut qs = QueryScreen::default();
    qs.rebuild(q, sq_norm2(q), idist.head());
    let (mut idots, mut codes) = (Vec::new(), Vec::new());
    idist
        .column_dots(qs.qcodes(), &mut idots, || Ok(()))
        .unwrap();
    let split = idist.prefix_width() < idist.code_width();
    if split {
        idist.suffix_norm_codes(&mut codes).unwrap();
    }

    let mut order = BinaryHeap::new();
    let mut first = 0;
    for (sub, (sp, vq)) in (0u32..).zip(subparts.iter().zip(vquants)) {
        let best = max_i32(&idots[first..first + sp.count as usize]);
        let upper = if split {
            PrefixBound::new(vq, &qs).upper(best, u8::MAX)
        } else {
            ScreenBound::new(vq, &qs).upper(best)
        };
        order.push((order_key(upper), Reverse(sub), first, !split));
        first += sp.count as usize;
    }

    let (mut top, mut span) = (TopK::new(K), ShardSpan::default());
    let (mut ids, mut suffixes) = (idist.id_cursor(), idist.suffix_cursor());
    let (mut offsets, mut whole) = (Vec::new(), Vec::new());
    let mut unvisited = idots.len() as u64;
    while let Some((key, Reverse(sub), first, refined)) = order.pop() {
        let bar = top.kth_ip().max(floor);
        if from_order_key(key) < bar {
            break;
        }
        let vq = &vquants[sub as usize];
        let rows = first..first + subparts[sub as usize].count as usize;
        let dots = &idots[rows.clone()];
        if split && !refined {
            let best = PrefixBound::new(vq, &qs).best(dots, &codes[rows.clone()]);
            let entry = (order_key(best), Reverse(sub), first, true);
            if best < bar || order.peek().is_some_and(|e| *e > entry) {
                order.push(entry);
                continue;
            }
        }
        unvisited -= dots.len() as u64;
        offsets.clear();
        whole.clear();
        if split {
            let prefix = PrefixBound::new(vq, &qs);
            for (row, (&idot, &code)) in (0u32..).zip(dots.iter().zip(&codes[rows])) {
                if prefix.may_reach(idot, code, bar) {
                    offsets.push(row);
                    whole.push(idot + suffixes.dot(sub, row, qs.qcodes()).unwrap());
                }
            }
            span.screened += (dots.len() - offsets.len()) as u64;
        } else {
            offsets.extend(0..dots.len() as u32);
            whole.extend_from_slice(dots);
        }
        let bound = ScreenBound::new(vq, &qs);
        screen::walk(
            whole.len(),
            Some((&whole, &bound)),
            floor,
            &mut top,
            &mut span,
            |i| {
                let id = ids.id(sub, offsets[i])?;
                Ok((!dead(id)).then(|| (id, dot(data.row(id as usize), q))))
            },
        )
        .unwrap();
    }
    span.screened += unvisited;
    (top.into_items(), span.verified, span.screened)
}

/// The largest heap key of the query: the bound of the sub-partition the
/// walk pops first.
fn top_key(index: &ProMips, q: &[f32]) -> f64 {
    let idist = index.idistance();
    let mut qs = QueryScreen::default();
    qs.rebuild(q, sq_norm2(q), idist.head());
    let mut idots = Vec::new();
    idist
        .column_dots(qs.qcodes(), &mut idots, || Ok(()))
        .unwrap();
    let split = idist.prefix_width() < idist.code_width();
    let mut first = 0;
    let mut top = f64::NEG_INFINITY;
    for (sp, vq) in idist.subparts().iter().zip(idist.vquants()) {
        let best = max_i32(&idots[first..first + sp.count as usize]);
        top = top.max(if split {
            PrefixBound::new(vq, &qs).upper(best, u8::MAX)
        } else {
            ScreenBound::new(vq, &qs).upper(best)
        });
        first += sp.count as usize;
    }
    top
}

fn check(what: &str, data: &Matrix, near_rows: bool) {
    let n = data.rows();
    let index = ProMips::build_in_memory(data, ProMipsConfig::builder().seed(17).build()).unwrap();
    let head = index.idistance().head().is_some();
    assert_eq!(head, what == "head", "{what}");
    let mut rng = Xoshiro256pp::seed_from_u64(n as u64);
    let mut scratch = SearchScratch::new();
    let third = |id: u64| id % 3 == 1;
    let alive = |_: u64| false;
    let masks: [(&dyn Fn(u64) -> bool, usize); 2] = [
        (&alive, 0),
        (&third, (0..n as u64).filter(|&id| third(id)).count()),
    ];
    let mut compared = 0;
    for _ in 0..6 {
        let q: Vec<f32> = if near_rows {
            let row = data.row(rng.below(n as u64) as usize);
            row.iter().map(|x| x + 0.1 * rng.normal() as f32).collect()
        } else {
            (0..data.cols()).map(|_| rng.normal() as f32).collect()
        };
        for (dead, dead_count) in masks {
            let mask = Some((dead, dead_count));
            let run = |k: usize, kth_floor: f64, scratch: &mut SearchScratch| {
                let mut span = ShardSpan::default();
                let request = Query {
                    mask,
                    span: Some(&mut span),
                    kth_floor,
                    ..Query::new(&q, k)
                };
                let res = index.execute(request, scratch).unwrap();
                (res, span.column_pass)
            };
            let (plain, column_pass) = run(K, f64::NEG_INFINITY, &mut scratch);
            assert!(column_pass, "{what}: the query must take the column pass");
            let kth = plain.items[K - 1].ip;
            let (wider, _) = run(4 * K, f64::NEG_INFINITY, &mut scratch);
            let under = wider.items[4 * K - 1].ip;
            assert!(under < kth, "{what}: no floor under the k-th");
            for floor in [f64::NEG_INFINITY, under, kth, top_key(&index, &q)] {
                let (res, _) = run(K, floor, &mut scratch);
                let (items, verified, screened) = reference(&index, data, &q, floor, dead);
                assert_eq!(res.items, items, "{what}: floor {floor}");
                assert_eq!(
                    (res.verified as u64, res.screened as u64),
                    (verified, screened),
                    "{what}: floor {floor}"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 6 * 2 * 4);
}

#[test]
fn the_pass_walks_the_reference_heap_over_a_head_column() {
    check("head", &low_rank(3_000, 160, 20, 0.3, 65), true);
}

#[test]
fn the_pass_walks_the_reference_heap_over_full_width_codes() {
    check("full-width", &random_data(3_000, 48, 66), false);
}
