//! The replay behind ROADMAP item 3's "measure first": on the `lf300`
//! shape, how many rows would a staged screen — a prefix of each row's
//! head read first, the rest only for the rows the prefix cannot rule
//! out — still have to read in full? No engine code runs past the build;
//! every bound is recomputed here.
//!
//! Shape: `latent_factor(100 000, 300, rank 48, σ 0.25, seed 1)`, the
//! benchmark's `lf300` matrix, built at the default config (64-byte heads
//! over the index's own basis `V`); 100 queries, each a seeded data row plus
//! 0.1·N(0,1) per coordinate; `k` = 10 and `kth` the exact top-10's last
//! inner product. For each row `o`, with heads `a = Vo` and `b = Vq` in
//! `f64` (no SQ8 rounding, no pad), the prefix bound
//!
//! ```text
//! ⟨a_p, b_p⟩ + tail_p·‖q − V_pᵀb_p‖,   tail_p ≥ ‖o − V_pᵀa_p‖
//! ```
//!
//! is tested against `kth`, `tail_p` either the row's own residual or the
//! largest of its sub-partition's. A row survives when its bound reaches
//! `kth`; a block of 16 rows in storage order survives when any of its rows
//! does. The test prints the share of rows and of blocks that survive at
//! each prefix.
//!
//! ```text
//! cargo test --release -p promips_core --test staged_screen_replay -- --ignored --nocapture
//! ```

use promips_core::{ProMips, ProMipsConfig};
use promips_data::gen::latent_factor;
use promips_idistance::ProjScratch;
use promips_linalg::{dot, Matrix};
use promips_stats::Xoshiro256pp;

const PREFIXES: [usize; 5] = [8, 16, 24, 32, 64];
const BLOCK: usize = 16;
const K: usize = 10;
const QUERIES: usize = 100;

/// The head `Vx` in `f64`, and the residual norm `‖x − V_pᵀ(V_p x)‖` at
/// each of [`PREFIXES`], the residual formed coordinate by coordinate.
fn head_and_tails(v: &Matrix, x: &[f32]) -> (Vec<f64>, [f64; PREFIXES.len()]) {
    let mut rest: Vec<f64> = x.iter().map(|&c| c as f64).collect();
    let mut head = Vec::with_capacity(v.rows());
    let mut tails = [0.0; PREFIXES.len()];
    let mut from = 0;
    for (tail, &p) in tails.iter_mut().zip(&PREFIXES) {
        for j in from..p {
            let dir = v.row(j);
            let a: f64 = dir.iter().zip(x).map(|(&u, &c)| u as f64 * c as f64).sum();
            for (r, &u) in rest.iter_mut().zip(dir) {
                *r -= a * u as f64;
            }
            head.push(a);
        }
        *tail = rest.iter().map(|r| r * r).sum::<f64>().sqrt();
        from = p;
    }
    (head, tails)
}

#[test]
#[ignore = "a measurement, not a check: ≈ 10 s in release"]
fn staged_screen_survivors_on_the_lf300_shape() {
    let (n, d, rank) = (100_000, 300, 48);
    let data = latent_factor(n, d, rank, 0.25, 1);
    let index = ProMips::build_in_memory(&data, ProMipsConfig::default()).unwrap();
    let idist = index.idistance();
    let v = idist.head().expect("the lf300 shape gets a head").rows();
    assert_eq!(v.rows(), *PREFIXES.last().unwrap());

    // Storage order: every row's id and sub-partition.
    let (mut order, mut sub_of) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut scratch = ProjScratch::new();
    for sub in 0..idist.subparts().len() {
        idist
            .read_subpart_proj_into(sub as u32, &mut scratch)
            .unwrap();
        order.extend(scratch.ids().iter().map(|&id| id as usize));
        sub_of.extend(std::iter::repeat_n(sub, scratch.len()));
    }
    let (mut heads, mut tails) = (Vec::with_capacity(n * v.rows()), Vec::with_capacity(n));
    for &id in &order {
        let (head, tail) = head_and_tails(v, data.row(id));
        heads.extend(head);
        tails.push(tail);
    }
    let mut sub_tails = vec![[0.0f64; PREFIXES.len()]; idist.subparts().len()];
    for (tail, &sub) in tails.iter().zip(&sub_of) {
        for (max, &t) in sub_tails[sub].iter_mut().zip(tail) {
            *max = max.max(t);
        }
    }

    // Survivors per prefix, per tail (0: the row's, 1: its sub-partition's).
    let mut rows_alive = [[0u64; 2]; PREFIXES.len()];
    let mut blocks_alive = [[0u64; 2]; PREFIXES.len()];
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    for _ in 0..QUERIES {
        let near = data.row(rng.below(n as u64) as usize);
        let q: Vec<f32> = near
            .iter()
            .map(|&x| x + 0.1 * rng.normal() as f32)
            .collect();
        let mut ips: Vec<f64> = (0..n).map(|i| dot(data.row(i), &q)).collect();
        let kth = *ips.select_nth_unstable_by(K - 1, |a, b| b.total_cmp(a)).1;
        let (b, q_tails) = head_and_tails(v, &q);
        let mut block_hit = [[false; 2]; PREFIXES.len()];
        for (i, a) in heads.chunks_exact(v.rows()).enumerate() {
            let (mut acc, mut from) = (0.0, 0);
            for (pi, &p) in PREFIXES.iter().enumerate() {
                acc += a[from..p]
                    .iter()
                    .zip(&b[from..p])
                    .map(|(x, y)| x * y)
                    .sum::<f64>();
                from = p;
                for (kind, tail) in [tails[i][pi], sub_tails[sub_of[i]][pi]]
                    .into_iter()
                    .enumerate()
                {
                    if acc + tail * q_tails[pi] >= kth {
                        rows_alive[pi][kind] += 1;
                        block_hit[pi][kind] = true;
                    }
                }
            }
            if (i + 1) % BLOCK == 0 || i + 1 == n {
                for (alive, hit) in blocks_alive.iter_mut().zip(&mut block_hit) {
                    for kind in 0..2 {
                        alive[kind] += hit[kind] as u64;
                        hit[kind] = false;
                    }
                }
            }
        }
    }

    let share = |count: u64, of: usize| 100.0 * count as f64 / (of * QUERIES) as f64;
    let blocks = n.div_ceil(BLOCK);
    println!(
        "prefix | per-row tail, rows | per-sub-partition tail, rows | \
         per-row tail, {BLOCK}-row blocks | per-sub-partition tail, {BLOCK}-row blocks"
    );
    for (pi, &p) in PREFIXES.iter().enumerate() {
        let [row, sub] = rows_alive[pi];
        let [row_b, sub_b] = blocks_alive[pi];
        println!(
            "{p} | {:.2} % | {:.2} % | {:.1} % | {:.1} %",
            share(row, n),
            share(sub, n),
            share(row_b, blocks),
            share(sub_b, blocks)
        );
        // A sub-partition's tail is at least each of its rows', and a
        // surviving row keeps its block.
        assert!(row <= sub && row_b <= sub_b);
        assert!(row_b * BLOCK as u64 >= row && sub_b * BLOCK as u64 >= sub);
    }
}
