//! Kernel + query-pipeline microbenchmark, emitting `BENCH_kernels.json`.
//!
//! Measures the runtime-dispatched SIMD kernels against the portable scalar
//! reference at the paper-typical d = 128, the projection paths, and the
//! single-query vs batched search pipeline. The JSON artifact is the
//! perf-trajectory record for this repository: later PRs regenerate it and
//! compare.
//!
//! Run with `cargo bench --bench bench_kernels`. Output path defaults to
//! `BENCH_kernels.json` in the working directory; override with
//! `PROMIPS_BENCH_OUT`.

use std::sync::Arc;

use promips_bench::micro::{ns_per_op, Json, MicroBench};
use promips_core::{ProMips, ProMipsConfig, SearchScratch};
use promips_data::ground_truth::exact_topk_batch;
use promips_idistance::{build_index, IDistanceConfig, ProjScratch, RangeCandidate};
use promips_linalg::dispatch::available_backends;
use promips_linalg::{
    active_backend, dist, dot, norm1, scalar, sq_dist, sq_dist4_i8, sq_norm2, Matrix,
};
use promips_shard::{
    DegradationPolicy, QueryBudget, QueryError, ShardedConfig, ShardedProMips, ShardedQuery,
    ShardedScratch, ShardedSearchResult,
};
use promips_stats::Xoshiro256pp;
use promips_storage::{AccessStats, MemStorage, PageBuf, Pager};

const D: usize = 128;
const M: usize = 16;

/// The plain sharded request (all cores, no budget) on held scratch.
fn sharded_search(
    index: &ShardedProMips,
    q: &[f32],
    k: usize,
    scratch: &ShardedScratch,
) -> ShardedSearchResult {
    index
        .execute(ShardedQuery::new(q, k), scratch)
        .expect("sharded search")
        .0
}

/// The `deadline_degradation` sweep on one index: the unbudgeted p50
/// (per-query fastest of `passes`), the share of its shard searches the
/// column pass answered, and per budget of 100 / 50 / 25 % of that p50 the
/// latency p50, recall against the unbudgeted answer and outcome mix.
fn deadline_budgets(
    idx: &ShardedProMips,
    scratch: &ShardedScratch,
    queries: &Matrix,
    k: usize,
    passes: usize,
) -> (f64, f64, Vec<(String, Json)>) {
    let nq = queries.rows();
    // Unbudgeted baseline: per-query min latency over the passes, and the
    // reference answer recall is scored against.
    let mut base_lat = vec![f64::INFINITY; nq];
    let mut base_ids: Vec<Vec<u64>> = Vec::with_capacity(nq);
    for pass in 0..passes {
        for (qi, lat) in base_lat.iter_mut().enumerate() {
            let t = std::time::Instant::now();
            let res = sharded_search(idx, queries.row(qi), k, scratch);
            *lat = lat.min(t.elapsed().as_nanos() as f64);
            if pass == 0 {
                base_ids.push(res.ids());
            }
        }
    }
    let mut sorted = base_lat.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_unbudgeted = sorted[sorted.len() / 2];
    let (mut searched, mut on_column) = (0u64, 0u64);
    for qi in 0..nq {
        let traced = ShardedQuery {
            traced: true,
            ..ShardedQuery::new(queries.row(qi), k)
        };
        let (_, trace) = idx.execute(traced, scratch).expect("traced search");
        for span in trace.expect("a traced request returns its trace").shards {
            searched += !span.pruned as u64;
            on_column += span.column_pass as u64;
        }
    }
    let column_frac = on_column as f64 / searched.max(1) as f64;
    println!("  unbudgeted p50: {p50_unbudgeted:.0} ns, column-pass share {column_frac:.3}");

    let mut rows: Vec<(String, Json)> = Vec::new();
    for frac in [1.0f64, 0.5, 0.25] {
        let budget = std::time::Duration::from_nanos((p50_unbudgeted * frac) as u64);
        let (mut ok_full, mut ok_degraded, mut deadline_hits) = (0u64, 0u64, 0u64);
        let mut recall_sum = 0.0f64;
        let mut lat: Vec<f64> = Vec::with_capacity(passes * nq);
        for _ in 0..passes {
            for (qi, base) in base_ids.iter().enumerate() {
                let t = std::time::Instant::now();
                let out = idx.execute(
                    ShardedQuery {
                        budget: Some(&QueryBudget::with_deadline(budget)),
                        ..ShardedQuery::new(queries.row(qi), k)
                    },
                    scratch,
                );
                lat.push(t.elapsed().as_nanos() as f64);
                match out {
                    Ok((res, _)) => {
                        if res.degraded {
                            ok_degraded += 1;
                        } else {
                            ok_full += 1;
                        }
                        let hits = res.ids().iter().filter(|id| base.contains(id)).count();
                        recall_sum += hits as f64 / k as f64;
                    }
                    Err(QueryError::DeadlineExceeded) => deadline_hits += 1,
                    Err(e) => panic!("unexpected query error: {e}"),
                }
            }
        }
        let total = (passes * nq) as f64;
        let answered = ok_full + ok_degraded;
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lat[lat.len() / 2];
        let recall = if answered > 0 {
            recall_sum / answered as f64
        } else {
            0.0
        };
        let label = format!("budget_{}pct_of_p50", (frac * 100.0) as u32);
        println!(
            "  {label}: p50 {p50:.0} ns ({:.2}x the budget), recall {recall:.3}, \
             {ok_full} full / {ok_degraded} degraded / {deadline_hits} expired",
            p50 / (p50_unbudgeted * frac)
        );
        rows.push((
            label,
            Json::obj(vec![
                ("budget_ns", Json::Num(p50_unbudgeted * frac)),
                ("p50_ns", Json::Num(p50)),
                ("p50_over_budget", Json::Num(p50 / (p50_unbudgeted * frac))),
                ("recall_vs_unbudgeted", Json::Num(recall)),
                ("full_rate", Json::Num(ok_full as f64 / total)),
                ("degraded_rate", Json::Num(ok_degraded as f64 / total)),
                ("deadline_rate", Json::Num(deadline_hits as f64 / total)),
            ]),
        ));
    }
    (p50_unbudgeted, column_frac, rows)
}

fn random_matrix(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

/// `(simd_ns, scalar_ns)` pair plus speedup as a JSON object.
fn pair(simd_ns: f64, scalar_ns: f64) -> Json {
    Json::obj(vec![
        ("simd_ns", Json::Num(simd_ns)),
        ("scalar_ns", Json::Num(scalar_ns)),
        ("speedup", Json::Num(scalar_ns / simd_ns)),
    ])
}

/// Rows of a (ROWS × d) pair of operand sets — each timed op sweeps every
/// row pair, amortizing call/timer overhead so the reading reflects kernel
/// loop throughput rather than harness boundaries.
const ROWS: usize = 32;

/// The `small_m` section: the projected-space kernels at the paper's
/// m = 6–10, the screen kernel at d = 64 / 300 and the screen's column
/// kernel at w = 64 / 128 / 320, on every tier the host can execute. Per m and tier it reports ns/row of the whole-column
/// kernels (`sq_dist_col`, `sq_dist_col_i8`, one call per 50-row
/// sub-partition column) beside the call shape they replaced: the tier's
/// long-vector `sq_dist4` / `sq_dist4_i8` body once per four rows, which at
/// these lengths runs zero vector iterations and finishes in its tail.
fn small_m_section() -> Json {
    const COLUMN_ROWS: usize = 48;
    const COLUMNS: usize = 16;
    let rows = COLUMN_ROWS * COLUMNS;
    println!("\nsmall-m kernels (ns/row, {COLUMN_ROWS}-row columns):");
    let mut rng = Xoshiro256pp::seed_from_u64(0x5A11);
    let mut section: Vec<(String, Json)> =
        vec![("rows_per_column".to_string(), Json::Num(COLUMN_ROWS as f64))];
    for m in [6usize, 7, 8, 10] {
        let arena: Vec<f32> = (0..rows * m).map(|_| rng.normal() as f32).collect();
        let codes: Vec<u8> = (0..rows * m).map(|_| rng.below(256) as u8).collect();
        let q: Vec<f32> = (0..m).map(|_| rng.normal() as f32).collect();
        let qc: Vec<u8> = (0..m).map(|_| rng.below(256) as u8).collect();
        let mut d2 = vec![0.0f64; COLUMN_ROWS];
        let mut d2c = vec![0u32; COLUMN_ROWS];
        let per_row = |ns: f64| ns / rows as f64;
        let mut tiers: Vec<(String, Json)> = Vec::new();
        for k in available_backends() {
            let col_f32 = per_row(ns_per_op(|| {
                let mut s = 0.0;
                for column in std::hint::black_box(&arena).chunks_exact(COLUMN_ROWS * m) {
                    (k.sq_dist_col)(column, m, &q, &mut d2);
                    s += d2[0] + d2[COLUMN_ROWS - 1];
                }
                s
            }));
            let block4_f32 = per_row(ns_per_op(|| {
                let mut s = [0.0f64; 4];
                for b in std::hint::black_box(&arena).chunks_exact(4 * m) {
                    let r = (k.sq_dist4)(&b[..m], &b[m..2 * m], &b[2 * m..3 * m], &b[3 * m..], &q);
                    for (s, r) in s.iter_mut().zip(r) {
                        *s += r;
                    }
                }
                s
            }));
            let col_u8 = per_row(ns_per_op(|| {
                let mut s = 0u32;
                for column in std::hint::black_box(&codes).chunks_exact(COLUMN_ROWS * m) {
                    (k.sq_dist_col_i8)(column, m, &qc, &mut d2c);
                    s = s.wrapping_add(d2c[0]).wrapping_add(d2c[COLUMN_ROWS - 1]);
                }
                s
            }));
            let block4_u8 = per_row(ns_per_op(|| {
                let mut s = [0u32; 4];
                for b in std::hint::black_box(&codes).chunks_exact(4 * m) {
                    let r =
                        (k.sq_dist4_i8)(&b[..m], &b[m..2 * m], &b[2 * m..3 * m], &b[3 * m..], &qc);
                    for (s, r) in s.iter_mut().zip(r) {
                        *s = s.wrapping_add(r);
                    }
                }
                s
            }));
            println!(
                "  m={m:2} [{}]: f32 column {col_f32:.2} (4-row calls {block4_f32:.2})  \
                 u8 column {col_u8:.2} (4-row calls {block4_u8:.2})",
                k.name
            );
            tiers.push((
                k.name.to_string(),
                Json::obj(vec![
                    ("col_f32_ns_row", Json::Num(col_f32)),
                    ("block4_f32_ns_row", Json::Num(block4_f32)),
                    ("col_u8_ns_row", Json::Num(col_u8)),
                    ("block4_u8_ns_row", Json::Num(block4_u8)),
                ]),
            ));
        }
        section.push((format!("m{m}"), Json::Obj(tiers)));
    }

    // The screen shape: four d-long code rows per `dot4_i8` call.
    let mut screen: Vec<(String, Json)> = Vec::new();
    for d in [64usize, 300] {
        let codes: Vec<u8> = (0..rows * d).map(|_| rng.below(256) as u8).collect();
        let qc: Vec<i8> = (0..d).map(|_| rng.below(256) as u8 as i8).collect();
        let mut tiers: Vec<(String, Json)> = Vec::new();
        for k in available_backends() {
            let ns = ns_per_op(|| {
                let mut s = [0i32; 4];
                for b in std::hint::black_box(&codes).chunks_exact(4 * d) {
                    let r = (k.dot4_i8)(&b[..d], &b[d..2 * d], &b[2 * d..3 * d], &b[3 * d..], &qc);
                    for (s, r) in s.iter_mut().zip(r) {
                        *s = s.wrapping_add(r);
                    }
                }
                s
            }) / rows as f64;
            println!("  dot4_i8 d={d} [{}]: {ns:.2}", k.name);
            tiers.push((k.name.to_string(), Json::Num(ns)));
        }
        screen.push((format!("d{d}"), Json::Obj(tiers)));
    }
    section.push(("dot4_i8".to_string(), Json::Obj(screen)));

    // The column shape: one `dot_col_i8` call per 64-row run of w-byte
    // rows (a 4 KB page of 64-byte heads), beside the 4-row calls it
    // replaces on the same bytes.
    let mut column: Vec<(String, Json)> = Vec::new();
    for w in [64usize, 128, 320] {
        const RUN: usize = 64;
        let codes: Vec<u8> = (0..rows * w).map(|_| rng.below(256) as u8).collect();
        let qc: Vec<i8> = (0..w).map(|_| rng.below(256) as u8 as i8).collect();
        let mut dots = vec![0i32; RUN];
        let mut tiers: Vec<(String, Json)> = Vec::new();
        for k in available_backends() {
            let col = ns_per_op(|| {
                let mut s = 0i32;
                for run in std::hint::black_box(&codes).chunks_exact(RUN * w) {
                    (k.dot_col_i8)(run, w, &qc, &mut dots);
                    s = s.wrapping_add(dots[0]).wrapping_add(dots[RUN - 1]);
                }
                s
            }) / rows as f64;
            let block4 = ns_per_op(|| {
                let mut s = [0i32; 4];
                for b in std::hint::black_box(&codes).chunks_exact(4 * w) {
                    let r = (k.dot4_i8)(&b[..w], &b[w..2 * w], &b[2 * w..3 * w], &b[3 * w..], &qc);
                    for (s, r) in s.iter_mut().zip(r) {
                        *s = s.wrapping_add(r);
                    }
                }
                s
            }) / rows as f64;
            println!(
                "  dot_col_i8 w={w} [{}]: {col:.2} (4-row calls {block4:.2})",
                k.name
            );
            tiers.push((
                k.name.to_string(),
                Json::obj(vec![
                    ("col_ns_row", Json::Num(col)),
                    ("block4_ns_row", Json::Num(block4)),
                ]),
            ));
        }
        column.push((format!("w{w}"), Json::Obj(tiers)));
    }
    section.push(("dot_col_i8".to_string(), Json::Obj(column)));
    Json::Obj(section)
}

fn main() {
    let backend = active_backend();
    println!("kernel backend: {backend}");
    let mut b = MicroBench::new();

    // --- kernels at d = 128 -------------------------------------------------
    let am = random_matrix(ROWS, D, 7);
    let cm = random_matrix(ROWS, D, 8);
    let sweep2 = |f: &dyn Fn(&[f32], &[f32]) -> f64| -> f64 {
        let mut s = 0.0;
        for i in 0..ROWS {
            s += f(std::hint::black_box(am.row(i)), cm.row(i));
        }
        s
    };
    let sweep1 = |f: &dyn Fn(&[f32]) -> f64| -> f64 {
        let mut s = 0.0;
        for i in 0..ROWS {
            s += f(std::hint::black_box(am.row(i)));
        }
        s
    };
    let per_row = |ns: f64| ns / ROWS as f64;

    // The deployed dot path: `verify_groups` runs candidate rows against a
    // fixed query four at a time through `dot4`, so the query's f32→f64
    // conversions amortize across the block. The scalar fallback's deployed
    // shape is four plain dots (see `scalar::dot4`). Per-row numbers.
    let q: Vec<f32> = cm.row(0).to_vec();
    let dot_simd = per_row(ns_per_op(|| {
        let mut s = [0.0f64; 4];
        let mut i = 0;
        while i + 4 <= ROWS {
            let r = promips_linalg::dot4(
                am.row(i),
                am.row(i + 1),
                am.row(i + 2),
                am.row(i + 3),
                std::hint::black_box(&q),
            );
            s[0] += r[0];
            s[1] += r[1];
            s[2] += r[2];
            s[3] += r[3];
            i += 4;
        }
        s
    }));
    let dot_scalar = per_row(ns_per_op(|| {
        let mut s = 0.0;
        for i in 0..ROWS {
            s += scalar::dot(am.row(i), std::hint::black_box(&q));
        }
        s
    }));
    let dot_single_simd = per_row(ns_per_op(|| sweep2(&|x, y| dot(x, y))));
    let dot_single_scalar = per_row(ns_per_op(|| sweep2(&scalar::dot)));
    let sqd_simd = per_row(ns_per_op(|| sweep2(&|x, y| sq_dist(x, y))));
    let sqd_scalar = per_row(ns_per_op(|| sweep2(&scalar::sq_dist)));
    // The deployed annulus-filter shape: four contiguous rows against one
    // projected query through the blocked sq_dist4 (the arena scan's inner
    // loop); the scalar reference is the per-row single kernel.
    let sqd4_simd = per_row(ns_per_op(|| {
        let mut s = [0.0f64; 4];
        let mut i = 0;
        while i + 4 <= ROWS {
            let r = promips_linalg::sq_dist4(
                am.row(i),
                am.row(i + 1),
                am.row(i + 2),
                am.row(i + 3),
                std::hint::black_box(&q),
            );
            s[0] += r[0];
            s[1] += r[1];
            s[2] += r[2];
            s[3] += r[3];
            i += 4;
        }
        s
    }));
    let sqd4_scalar = per_row(ns_per_op(|| {
        let mut s = 0.0;
        for i in 0..ROWS {
            s += scalar::sq_dist(am.row(i), std::hint::black_box(&q));
        }
        s
    }));
    // The quantized filter shape: four contiguous u8 code rows against one
    // quantized query through the blocked integer kernel — 1 byte per
    // coordinate instead of 4. Scalar reference: the portable integer
    // fallback in the same blocked shape.
    type SqDist4I8Ref<'a> = &'a dyn Fn(&[u8], &[u8], &[u8], &[u8], &[u8]) -> [u32; 4];
    let code_rows: Vec<u8> = (0..ROWS * D).map(|i| (i * 37 % 256) as u8).collect();
    let qcode: Vec<u8> = (0..D).map(|i| (i * 91 % 256) as u8).collect();
    let sqd4_i8 = |f: SqDist4I8Ref| -> f64 {
        per_row(ns_per_op(|| {
            let mut s = [0u32; 4];
            let mut i = 0;
            while i + 4 <= ROWS {
                let base = i * D;
                let r = f(
                    &code_rows[base..base + D],
                    &code_rows[base + D..base + 2 * D],
                    &code_rows[base + 2 * D..base + 3 * D],
                    &code_rows[base + 3 * D..base + 4 * D],
                    std::hint::black_box(&qcode),
                );
                s[0] = s[0].wrapping_add(r[0]);
                s[1] = s[1].wrapping_add(r[1]);
                s[2] = s[2].wrapping_add(r[2]);
                s[3] = s[3].wrapping_add(r[3]);
                i += 4;
            }
            s
        }))
    };
    let sqd4_i8_simd = sqd4_i8(&|a0, a1, a2, a3, b| sq_dist4_i8(a0, a1, a2, a3, b));
    let sqd4_i8_scalar = sqd4_i8(&scalar::sq_dist4_i8);
    let sqn_simd = per_row(ns_per_op(|| sweep1(&|x| sq_norm2(x))));
    let sqn_scalar = per_row(ns_per_op(|| sweep1(&scalar::sq_norm2)));
    let n1_simd = per_row(ns_per_op(|| sweep1(&|x| norm1(x))));
    let n1_scalar = per_row(ns_per_op(|| sweep1(&scalar::norm1)));
    for (name, ns) in [
        ("dot_128d (verify shape, dot4-blocked)", dot_simd),
        ("dot_128d_scalar (verify shape)", dot_scalar),
        ("dot_128d_single", dot_single_simd),
        ("dot_128d_single_scalar", dot_single_scalar),
        ("sq_dist_128d", sqd_simd),
        ("sq_dist_128d_scalar", sqd_scalar),
        ("sq_dist_128d (scan shape, sq_dist4-blocked)", sqd4_simd),
        ("sq_dist_128d_scalar (scan shape)", sqd4_scalar),
        ("sq_dist_128d_i8 (SQ8 filter shape)", sqd4_i8_simd),
        ("sq_dist_128d_i8_scalar (SQ8 filter shape)", sqd4_i8_scalar),
        ("sq_norm2_128d", sqn_simd),
        ("sq_norm2_128d_scalar", sqn_scalar),
        ("norm1_128d", n1_simd),
        ("norm1_128d_scalar", n1_scalar),
    ] {
        println!("  {name}: {ns:.1} ns/op");
    }

    // Per-backend breakdown: every SIMD tier this host can execute, so the
    // artifact records each tier's speedup over the portable fallback even
    // when the dispatcher picks a wider one.
    let mut backend_rows: Vec<(String, Json)> = Vec::new();
    let mut scalar_row_dot = f64::NAN;
    for k in available_backends() {
        let dns = per_row(ns_per_op(|| sweep2(&|x, y| (k.dot)(x, y))));
        let sns = per_row(ns_per_op(|| sweep2(&|x, y| (k.sq_dist)(x, y))));
        println!(
            "  dot_128d[{}]: {dns:.1} ns/op  sq_dist_128d[{}]: {sns:.1} ns/op",
            k.name, k.name
        );
        if k.name == "scalar" {
            scalar_row_dot = dns;
        }
        backend_rows.push((
            k.name.to_string(),
            Json::obj(vec![
                ("dot_ns", Json::Num(dns)),
                ("dot_speedup_vs_scalar", Json::Num(scalar_row_dot / dns)),
                ("sq_dist_ns", Json::Num(sns)),
            ]),
        ));
    }

    let small_m = small_m_section();

    // --- projection: blocked matvec vs the pre-SIMD shape -------------------
    let a: Vec<f32> = am.row(0).to_vec();
    let projection = promips_core::projection::Projection::generate(M, D, 11);
    let mut pq = Vec::new();
    let proj_simd = b.run("project_128d_to_16d", || {
        projection.project_into(std::hint::black_box(&a), &mut pq);
        pq.len()
    });
    // Reference: what project() compiled to before this PR — one allocating
    // scalar dot per projection row.
    let vrows = projection.matrix().clone();
    let proj_scalar = b.run("project_128d_to_16d_scalar", || {
        let q = std::hint::black_box(&a);
        vrows
            .iter_rows()
            .map(|row| scalar::dot(row, q) as f32)
            .collect::<Vec<f32>>()
    });

    // Whole-dataset projection (the build-time hot loop).
    let chunk = random_matrix(2_000, D, 21);
    let gemm_ns = ns_per_op(|| projection.project_all(std::hint::black_box(&chunk)));
    println!("  project_all_2000x128_to_16 (gemm): {gemm_ns:.1} ns/op");
    let gemm_scalar_ns = ns_per_op(|| {
        let data = std::hint::black_box(&chunk);
        let mut rows = Vec::with_capacity(data.rows() * M);
        for row in data.iter_rows() {
            rows.extend(vrows.iter_rows().map(|v| scalar::dot(v, row) as f32));
        }
        Matrix::from_vec(data.rows(), M, rows)
    });
    println!("  project_all_2000x128_to_16 (scalar rowwise): {gemm_scalar_ns:.1} ns/op");

    // --- projected scan: arena + column kernel -----------------------------
    // Sweeps every sub-partition of a realistic index with an annulus
    // filter, the deployed way: one `ProjScratch` decode per sub-partition,
    // one `sq_dist_col` call over it.
    let scan_n = 8_000;
    let scan_m = 16;
    let scan_data = random_matrix(scan_n, scan_m, 51);
    let scan_orig = random_matrix(scan_n, 8, 52);
    let scan_pager = Arc::new(Pager::in_memory(4096, 1 << 16));
    let scan_cfg = IDistanceConfig {
        kp: 4,
        nkey: 8,
        ksp: 3,
        ..Default::default()
    };
    let scan_idx = build_index(scan_pager, &scan_data, &scan_orig, &scan_cfg).expect("scan index");
    let n_subs = scan_idx.subparts().len() as u32;
    let scan_q: Vec<f32> = scan_data.row(0).to_vec();
    let (r_lo, r_hi) = (0.5, 4.0);
    let per_record = |ns: f64| ns / scan_n as f64;
    let mut cands: Vec<RangeCandidate> = Vec::new();
    let mut proj = ProjScratch::new();
    let arena_scan_ns = per_record(ns_per_op(|| {
        cands.clear();
        for sub in 0..n_subs {
            scan_idx.read_subpart_proj_into(sub, &mut proj).unwrap();
            proj.for_each_dist(std::hint::black_box(&scan_q), |offset, id, pd| {
                if pd > r_lo && pd <= r_hi {
                    cands.push(RangeCandidate {
                        id,
                        proj_dist: pd,
                        subpart: sub,
                        offset: offset as u32,
                    });
                }
            });
        }
        cands.len()
    }));
    println!("  scan_arena (per record): {arena_scan_ns:.1} ns");

    // --- quantized two-level scan vs pure-f32 scan --------------------------
    // The deployed annulus entry point (`range_candidates_into`: u8 filter
    // tier, survivor blocks re-tested in f32) against the pure-f32 scan of
    // the same sub-partitions through the public decode path — every
    // sub-partition whose pivot sphere meets the annulus decoded whole
    // (`read_subpart_proj_into` + `for_each_dist`). The outputs are asserted
    // identical, making the speedup an equal-output comparison. Page counts
    // are cold-cache logical reads for one query: the quantized pass reads
    // the m-byte code column and only surviving blocks' f32 records instead
    // of every (8 + 4m)-byte record.
    let f32_scan = |w_lo: f64, w_hi: f64, out: &mut Vec<RangeCandidate>, proj: &mut ProjScratch| {
        out.clear();
        for (sub, sp) in (0..).zip(scan_idx.subparts()) {
            let dp = dist(&scan_q, &sp.pivot);
            if dp - sp.radius > w_hi || dp + sp.radius <= w_lo {
                continue;
            }
            scan_idx.read_subpart_proj_into(sub, proj).unwrap();
            proj.for_each_dist(&scan_q, |offset, id, pd| {
                if pd > w_lo && pd <= w_hi {
                    out.push(RangeCandidate {
                        id,
                        proj_dist: pd,
                        subpart: sub,
                        offset: offset as u32,
                    });
                }
            });
        }
    };
    let mut out_q: Vec<RangeCandidate> = Vec::new();
    let mut out_f: Vec<RangeCandidate> = Vec::new();
    // Two annulus regimes: `dense` (the `scan` section's window, ~5% of the
    // dataset in the annulus — a CPU-throughput stress where nearly every
    // 4-row block holds a survivor) and `selective` (~0.1%, the regime the
    // deployed search actually runs in: the Quick-Probe radius targets the
    // k nearest projected neighbours, so true candidates are rare and the
    // quantized filter skips whole f32 record pages — the paper's
    // page-access regime, fig. 7).
    let mut quant_windows: Vec<(String, Json)> = Vec::new();
    for (window, w_lo, w_hi) in [("dense", r_lo, r_hi), ("selective", -1.0, 2.8)] {
        scan_idx
            .range_candidates_into(&scan_q, w_lo, w_hi, &mut out_q, &mut proj)
            .unwrap();
        f32_scan(w_lo, w_hi, &mut out_f, &mut proj);
        assert_eq!(out_q, out_f, "two-level scan must match the pure-f32 scan");
        let cands = out_q.len();
        let quant_ns = per_record(ns_per_op(|| {
            scan_idx
                .range_candidates_into(&scan_q, w_lo, w_hi, &mut out_q, &mut proj)
                .unwrap();
            out_q.len()
        }));
        let f32_ns = per_record(ns_per_op(|| {
            f32_scan(w_lo, w_hi, &mut out_f, &mut proj);
            out_f.len()
        }));
        let cold_pages = |scan: &mut dyn FnMut()| {
            scan_idx.pager().clear_cache();
            scan_idx.pager().stats().reset();
            scan();
            scan_idx.access_stats().logical_reads
        };
        let quant_pages = cold_pages(&mut || {
            scan_idx
                .range_candidates_into(&scan_q, w_lo, w_hi, &mut out_q, &mut proj)
                .unwrap();
        });
        let f32_pages = cold_pages(&mut || f32_scan(w_lo, w_hi, &mut out_f, &mut proj));
        println!(
            "  scan_{window} ({cands} candidates): quantized {quant_ns:.1} ns/record \
             ({quant_pages} pages), f32 {f32_ns:.1} ns/record ({f32_pages} pages)"
        );
        quant_windows.push((
            window.to_string(),
            Json::obj(vec![
                ("r_lo", Json::Num(w_lo)),
                ("r_hi", Json::Num(w_hi)),
                ("candidates", Json::Num(cands as f64)),
                ("quantized_ns_per_record", Json::Num(quant_ns)),
                ("f32_ns_per_record", Json::Num(f32_ns)),
                ("speedup", Json::Num(f32_ns / quant_ns)),
                ("quantized_pages_per_query", Json::Num(quant_pages as f64)),
                ("f32_pages_per_query", Json::Num(f32_pages as f64)),
                (
                    "pages_saved_frac",
                    Json::Num(1.0 - quant_pages as f64 / f32_pages as f64),
                ),
            ]),
        ));
    }

    // --- pager contention: single-mutex pool vs lock-striped pool -----------
    // Four threads hammer a shared pager whose pool holds half the pages, so
    // every read takes the pool lock (hit) and half also evict (miss). The
    // 1-shard pool is the pre-striping design.
    let contention = |shards: usize| -> f64 {
        let storage = Arc::new(MemStorage::new(256));
        let n_pages = 512u64;
        let pager = Arc::new(Pager::with_pool_shards(
            storage,
            256,
            shards,
            AccessStats::new_shared(),
        ));
        for _ in 0..n_pages {
            pager.append(PageBuf::zeroed(256)).unwrap();
        }
        let threads = 4u64;
        let reads_per_thread = 50_000u64;
        let ns = ns_per_op(|| {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let pager = Arc::clone(&pager);
                    s.spawn(move || {
                        for i in 0..reads_per_thread {
                            let id = (i * 17 + t * 131) % n_pages;
                            std::hint::black_box(pager.read(id).unwrap());
                        }
                    });
                }
            })
        });
        ns / (threads * reads_per_thread) as f64
    };
    let pool_1shard_ns = contention(1);
    let pool_striped_ns = contention(promips_storage::DEFAULT_SHARDS);
    println!("  pager_read_4t_1shard (per read): {pool_1shard_ns:.1} ns");
    println!(
        "  pager_read_4t_{}shard (per read): {pool_striped_ns:.1} ns",
        promips_storage::DEFAULT_SHARDS
    );

    // --- page_hit: one thread, every read a pool hit -------------------------
    // The cost a query pays ≈ 12 k times. Sequential ids walk the stripes
    // and the frame arrays in order; a query's reads hop between regions,
    // so the shuffled order is the honest figure once the pool outgrows
    // the caches (64 k frames) and the sequential sweep under-reads it.
    let page_hit = |pool_pages: u64, shuffled: bool| -> f64 {
        let pager = Pager::in_memory(256, pool_pages as usize);
        for _ in 0..pool_pages {
            pager.append(PageBuf::zeroed(256)).unwrap();
        }
        let mut ids: Vec<u64> = (0..pool_pages).collect();
        if shuffled {
            let mut rng = Xoshiro256pp::seed_from_u64(0x417);
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let ns = ns_per_op(|| {
            for &id in &ids {
                std::hint::black_box(pager.read(id).unwrap());
            }
        });
        assert_eq!(pager.stats().snapshot().cache_misses, 0, "page_hit missed");
        ns / pool_pages as f64
    };
    let mut page_hit_rows: Vec<(String, Json)> = Vec::new();
    for (pool, label) in [(1u64 << 10, "1k"), (1 << 16, "64k")] {
        for (shuffled, order) in [(false, "sequential"), (true, "random")] {
            let ns = page_hit(pool, shuffled);
            println!("  page_hit_pool_{label}_{order} (per read): {ns:.1} ns");
            page_hit_rows.push((format!("pool_{label}_{order}_ns"), Json::Num(ns)));
        }
    }

    // --- query pipeline: sequential vs batched ------------------------------
    let n = 8_000;
    let nq = 64;
    let k = 10;
    let threads = 8;
    let data = random_matrix(n, D, 31);
    let cfg = ProMipsConfig::builder().c(0.9).p(0.5).seed(77).build();
    let index = ProMips::build_in_memory(&data, cfg).expect("index build");
    let queries = random_matrix(nq, D, 41);
    let query_refs: Vec<&[f32]> = (0..nq).map(|i| queries.row(i)).collect();

    let mut scratch = SearchScratch::new();
    let seq_ns = ns_per_op(|| {
        for q in &query_refs {
            std::hint::black_box(index.search_with_scratch(q, k, &mut scratch).unwrap());
        }
    }) / nq as f64;
    println!("  search_seq (per query): {seq_ns:.1} ns");
    let batch_ns = ns_per_op(|| {
        std::hint::black_box(
            index
                .search_batch_threaded(&query_refs, k, threads)
                .unwrap(),
        )
    }) / nq as f64;
    println!("  search_batch_{threads}t (per query): {batch_ns:.1} ns");

    // --- verified_rescore: SQ8 screen+rescore on the verify path ------------
    // Norm-skewed rows (log-uniform scales over ~3 decades) — the regime
    // where norm-range partitioning and Cauchy–Schwarz shard pruning bite;
    // i.i.d. Gaussian rows concentrate all norms near √d and never prune.
    let shard_data = promips_data::gen::norm_skewed(n, D, 61);
    let shard_queries = random_matrix(nq, D, 71);
    let gt = exact_topk_batch(&shard_data, &shard_queries, k, 1);
    // The verification tier screens each candidate block with `dot4_i8`
    // against the running k-th inner product (padded by the exact
    // quantization error bound) and fetches + rescores only survivors in
    // f32. Tier off vs on, at 4 and 16 shards: `verified_avg` is exact f32
    // rows read per query (the bytes
    // the screen exists to save), `screened_fraction` the share of
    // candidates the integer screen retired, `recall` against the exact
    // ground truth. A shard the tiered build answers by the annulus path
    // returns bit-identical items tier on or off, one it answers by the
    // column pass the exact top-k — so rank by rank the tiered items are
    // asserted at least as good on every query.
    let mut rescore_rows: Vec<(String, Json)> = Vec::new();
    let mut rescore_reductions: Vec<(String, Json)> = Vec::new();
    for &shards in &[4usize, 16] {
        let mut verified_by_tier = [0f64; 2];
        let mut items_off: Vec<Vec<promips_core::SearchItem>> = Vec::new();
        for (ti, &tier_on) in [false, true].iter().enumerate() {
            let base = ProMipsConfig::builder()
                .c(0.9)
                .p(0.5)
                .seed(77)
                .idistance(IDistanceConfig {
                    verify_quantize: tier_on,
                    ..Default::default()
                })
                .build();
            let cfg = ShardedConfig::builder().shards(shards).base(base).build();
            let sharded = ShardedProMips::build_in_memory(&shard_data, cfg).expect("sharded build");
            let scratch = ShardedScratch::for_index(&sharded);
            let mut verified = 0usize;
            let mut screened = 0usize;
            let mut hits = 0usize;
            for (i, truth) in gt.iter().enumerate() {
                let res = sharded_search(&sharded, shard_queries.row(i), k, &scratch);
                verified += res.verified;
                screened += res.screened;
                hits += res
                    .items
                    .iter()
                    .filter(|it| truth.iter().any(|&(id, _)| id == it.id))
                    .count();
                // The tier's contract: identical, or exact where the
                // pure-f32 index is approximate.
                if tier_on {
                    assert_eq!(res.items.len(), items_off[i].len());
                    assert!(
                        res.items
                            .iter()
                            .zip(&items_off[i])
                            // (to the last bits: the pass scores with
                            // `dot`, the annulus path with `dot4`)
                            .all(|(on, off)| on.ip >= off.ip - 1e-9 * off.ip.abs()),
                        "screen+rescore fell behind pure-f32 verification"
                    );
                } else {
                    items_off.push(res.items);
                }
            }
            let query_ns = ns_per_op(|| {
                for i in 0..nq {
                    std::hint::black_box(sharded_search(
                        &sharded,
                        shard_queries.row(i),
                        k,
                        &scratch,
                    ));
                }
            }) / nq as f64;
            let recall = hits as f64 / (nq * k) as f64;
            let verified_avg = verified as f64 / nq as f64;
            let screened_avg = screened as f64 / nq as f64;
            let candidates_avg = verified_avg + screened_avg;
            let screened_fraction = screened_avg / candidates_avg;
            verified_by_tier[ti] = verified_avg;
            let label = format!(
                "shards_{shards}_tier_{}",
                if tier_on { "on" } else { "off" }
            );
            println!(
                "  verified_rescore {label}: {query_ns:.0} ns/query, \
                 {verified_avg:.0} f32 rows verified, \
                 {screened_fraction:.2} screened out, recall {recall:.4}"
            );
            rescore_rows.push((
                label,
                Json::obj(vec![
                    ("shards", Json::Num(shards as f64)),
                    (
                        "verify_tier",
                        Json::Str(if tier_on { "on" } else { "off" }.into()),
                    ),
                    ("us_per_query", Json::Num(query_ns / 1e3)),
                    ("recall", Json::Num(recall)),
                    ("verified_avg", Json::Num(verified_avg)),
                    ("screened_avg", Json::Num(screened_avg)),
                    ("screened_fraction", Json::Num(screened_fraction)),
                    ("ns_per_candidate", Json::Num(query_ns / candidates_avg)),
                ]),
            ));
        }
        let reduction = verified_by_tier[0] / verified_by_tier[1];
        let rlabel = format!("shards_{shards}");
        println!("  verified_rescore {rlabel}: {reduction:.2}x fewer f32 rows verified");
        rescore_reductions.push((rlabel, Json::Num(reduction)));
    }

    // --- deadline degradation -----------------------------------------------
    // The query-lifecycle trade: latency, recall-vs-unbudgeted, and
    // outcome mix as the deadline shrinks to 100/50/25% of the unbudgeted
    // p50 on a BestEffort index — once where the column pass answers (four
    // norm-skewed shards) and once where the annulus path does (clustered
    // rows) — plus the shed rate when 4 threads hammer an admission limit
    // of 2 (offered load = 2× the limit).
    let dd_n = 20_000usize;
    let dd_d = 32usize;
    let dd_k = 10usize;
    let dd_nq = 32usize;
    let dd_passes = 5usize;
    println!("\ndeadline degradation ({dd_n} rows, d = {dd_d}):");
    let dd_data = promips_data::gen::norm_skewed(dd_n, dd_d, 131);
    let dd_cfg = ShardedConfig::builder()
        .shards(4)
        .degradation(DegradationPolicy::BestEffort)
        .base(ProMipsConfig::builder().c(0.9).p(0.5).seed(137).build())
        .build();
    let mut dd_idx = ShardedProMips::build_in_memory(&dd_data, dd_cfg).expect("build");
    let dd_scratch = ShardedScratch::for_index(&dd_idx);
    let dd_queries = random_matrix(dd_nq, dd_d, 139);

    let (dd_p50, dd_column_frac, dd_rows) =
        deadline_budgets(&dd_idx, &dd_scratch, &dd_queries, dd_k, dd_passes);

    // The same sweep on the annulus path: tight clusters, two of them near
    // the origin, and unit-length queries whose Quick-Probe ball meets few
    // of them.
    let dd_clustered = promips_data::gen::clustered(40, dd_n / 40, dd_d, 141);
    let dd_annulus_cfg = ShardedConfig::builder()
        .shards(1)
        .degradation(DegradationPolicy::BestEffort)
        .base(ProMipsConfig::builder().c(0.9).p(0.5).seed(137).build())
        .build();
    let dd_annulus_idx =
        ShardedProMips::build_in_memory(&dd_clustered, dd_annulus_cfg).expect("build");
    let dd_annulus_scratch = ShardedScratch::for_index(&dd_annulus_idx);
    println!("  annulus path (clustered rows, one shard):");
    let (dd_annulus_p50, dd_annulus_column_frac, dd_annulus_rows) = deadline_budgets(
        &dd_annulus_idx,
        &dd_annulus_scratch,
        &dd_queries,
        dd_k,
        dd_passes,
    );
    drop(dd_annulus_idx);

    // Admission shedding at 2× the limit: 4 worker threads against
    // max_in_flight = 2; a shed attempt returns `Overloaded` immediately
    // instead of queueing behind a saturated box.
    dd_idx.set_max_in_flight(2);
    let dd_idx = Arc::new(dd_idx);
    let shed_attempts_per_thread = 200usize;
    let (shed, attempted) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..4 {
            let idx = &dd_idx;
            let scratch = &dd_scratch;
            let queries = &dd_queries;
            handles.push(s.spawn(move || {
                let mut shed = 0u64;
                for i in 0..shed_attempts_per_thread {
                    let q = queries.row((w + i) % dd_nq);
                    match idx.execute(ShardedQuery::new(q, dd_k), scratch) {
                        Ok(_) => {}
                        Err(QueryError::Overloaded { .. }) => shed += 1,
                        Err(e) => panic!("unexpected query error: {e}"),
                    }
                }
                shed
            }));
        }
        let shed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        (shed, (4 * shed_attempts_per_thread) as u64)
    });
    let shed_rate = shed as f64 / attempted as f64;
    println!("  admission: {shed}/{attempted} shed at 2x limit ({shed_rate:.3})");
    drop(dd_idx);
    drop(dd_scratch);

    // --- artifact -----------------------------------------------------------
    let json = Json::obj(vec![
        ("schema", Json::Str("promips-bench-kernels-v2".into())),
        ("backend", Json::Str(backend.into())),
        ("d", Json::Num(D as f64)),
        (
            "kernels",
            Json::obj(vec![
                ("dot", pair(dot_simd, dot_scalar)),
                ("dot_single", pair(dot_single_simd, dot_single_scalar)),
                ("sq_dist", pair(sqd_simd, sqd_scalar)),
                ("sq_dist4", pair(sqd4_simd, sqd4_scalar)),
                ("sq_dist4_i8", pair(sqd4_i8_simd, sqd4_i8_scalar)),
                ("sq_norm2", pair(sqn_simd, sqn_scalar)),
                ("norm1", pair(n1_simd, n1_scalar)),
            ]),
        ),
        ("backends", Json::Obj(backend_rows.clone())),
        ("small_m", small_m),
        (
            "project",
            Json::obj(vec![
                ("single", pair(proj_simd, proj_scalar)),
                ("dataset_2000", pair(gemm_ns, gemm_scalar_ns)),
                ("m", Json::Num(M as f64)),
            ]),
        ),
        (
            "scan",
            Json::obj(vec![
                ("n", Json::Num(scan_n as f64)),
                ("m", Json::Num(scan_m as f64)),
                ("subparts", Json::Num(n_subs as f64)),
                ("arena_ns_per_record", Json::Num(arena_scan_ns)),
            ]),
        ),
        (
            "quantized_scan",
            Json::Obj(
                vec![
                    ("n".to_string(), Json::Num(scan_n as f64)),
                    ("m".to_string(), Json::Num(scan_m as f64)),
                    ("subparts".to_string(), Json::Num(n_subs as f64)),
                ]
                .into_iter()
                .chain(quant_windows.clone())
                .collect(),
            ),
        ),
        (
            "pager_contention",
            Json::obj(vec![
                ("threads", Json::Num(4.0)),
                ("pool_pages", Json::Num(256.0)),
                ("file_pages", Json::Num(512.0)),
                ("single_mutex_ns_per_read", Json::Num(pool_1shard_ns)),
                ("striped_ns_per_read", Json::Num(pool_striped_ns)),
                ("shards", Json::Num(promips_storage::DEFAULT_SHARDS as f64)),
                ("speedup", Json::Num(pool_1shard_ns / pool_striped_ns)),
                ("page_hit", Json::Obj(page_hit_rows)),
            ]),
        ),
        (
            "search",
            Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("queries", Json::Num(nq as f64)),
                ("k", Json::Num(k as f64)),
                ("threads", Json::Num(threads as f64)),
                ("sequential_ns_per_query", Json::Num(seq_ns)),
                ("batch_ns_per_query", Json::Num(batch_ns)),
                ("speedup", Json::Num(seq_ns / batch_ns)),
            ]),
        ),
        (
            "verified_rescore",
            Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("queries", Json::Num(nq as f64)),
                ("k", Json::Num(k as f64)),
                ("partitioner", Json::Str("norm-range (skewed norms)".into())),
                ("configs", Json::Obj(rescore_rows.clone())),
                ("verified_reduction", Json::Obj(rescore_reductions.clone())),
            ]),
        ),
        (
            "deadline_degradation",
            Json::obj(vec![
                ("n", Json::Num(dd_n as f64)),
                ("d", Json::Num(dd_d as f64)),
                ("k", Json::Num(dd_k as f64)),
                ("queries", Json::Num((dd_passes * dd_nq) as f64)),
                ("unbudgeted_p50_ns", Json::Num(dd_p50)),
                ("column_pass_frac", Json::Num(dd_column_frac)),
                ("budgets", Json::Obj(dd_rows.clone())),
                (
                    "annulus_path",
                    Json::obj(vec![
                        ("unbudgeted_p50_ns", Json::Num(dd_annulus_p50)),
                        ("column_pass_frac", Json::Num(dd_annulus_column_frac)),
                        ("budgets", Json::Obj(dd_annulus_rows.clone())),
                    ]),
                ),
                ("max_in_flight", Json::Num(2.0)),
                ("offered_threads", Json::Num(4.0)),
                ("shed_rate_at_2x_limit", Json::Num(shed_rate)),
            ]),
        ),
    ]);

    // cargo runs bench binaries with CWD = the bench crate; anchor the
    // default artifact location at the workspace root.
    let out_path = std::env::var("PROMIPS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, json.render()).expect("write bench artifact");
    println!("\nwrote {out_path}");
    b.print("bench_kernels: dispatched vs scalar");
}
