//! The build's blocked arithmetic against the row-at-a-time loops it
//! replaced, kept here as the references: equal to the bit, because the
//! index files are compared byte for byte with the ones those loops wrote.

use promips_data::gen::low_rank;
use promips_idistance::build::sq8_encode;
use promips_idistance::HeadBasis;
use promips_linalg::sq_norm2;
use promips_stats::Xoshiro256pp;

/// The build's blocked projection against the per-row one the query
/// side runs (and the build ran before): heads and the residual bound
/// equal to the bit, for row counts on both sides of the 4-row tile.
#[test]
fn project_rows_equals_project_row_by_row() {
    let data = low_rank(64, 160, 20, 0.3, 6);
    let basis = HeadBasis::estimate(&data, 9).unwrap();
    let mut a = vec![0.0f32; basis.width()];
    for n in 0..10 {
        let rows = data.gather(&(0..n).map(|i| i * 5 + 1).collect::<Vec<_>>());
        let (heads, tails) = basis.project_rows(&rows);
        assert_eq!((heads.rows(), heads.cols()), (n, basis.width()));
        let p = basis.prefix_width();
        let mut want = [0.0f64; 2];
        for (x, got) in rows.iter_rows().zip(heads.iter_rows()) {
            let head_sq = basis.project(x, &mut a);
            want[0] = want[0].max(basis.residual_bound(sq_norm2(x), head_sq));
            want[1] = want[1].max(sq_norm2(&a[p..]).sqrt());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&a), "{n} rows");
        }
        assert_eq!(tails.map(f64::to_bits), want.map(f64::to_bits), "{n} rows");
    }
}

/// The quantization loop [`sq8_encode`] replaced, as it stood in
/// `build_index`: one pass per row, `f32::round`, a push per code.
fn sq8_reference(rows: &[&[f32]]) -> (Vec<u8>, f32, f32, f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for row in rows {
        for &x in *row {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let inv_scale = 1.0 / scale;
    let mut err_sq_max = 0.0f64;
    let mut xnorm_sq_max = 0.0f64;
    let mut codes = Vec::new();
    for row in rows {
        let mut err_sq = 0.0f64;
        let mut xnorm_sq = 0.0f64;
        for &x in *row {
            let code = ((x - lo) * inv_scale).round().clamp(0.0, 255.0) as u8;
            codes.push(code);
            let xhat = lo as f64 + scale as f64 * code as f64;
            let e = x as f64 - xhat;
            err_sq += e * e;
            xnorm_sq += xhat * xhat;
        }
        err_sq_max = err_sq_max.max(err_sq);
        xnorm_sq_max = xnorm_sq_max.max(xnorm_sq);
    }
    let err = (err_sq_max.sqrt() * (1.0 + 1e-6)) as f32;
    let xnorm = (xnorm_sq_max.sqrt() * (1.0 + 1e-6)) as f32;
    (codes, lo, scale, err, xnorm)
}

fn assert_sq8_parity(rows: &[f32], w: usize, what: &str) {
    let mut codes = vec![0xAA; 3];
    let got = sq8_encode(rows, w, &mut codes);
    let by_row: Vec<&[f32]> = rows.chunks_exact(w).collect();
    let (want_codes, lo, scale, err, xnorm) = sq8_reference(&by_row);
    assert_eq!(codes, want_codes, "{what}: codes");
    let got = [got.min, got.scale, got.err, got.xnorm].map(f32::to_bits);
    let want = [lo, scale, err, xnorm].map(f32::to_bits);
    assert_eq!(got, want, "{what}: min / scale / err / xnorm");
}

#[test]
fn sq8_encode_equals_the_loop_it_replaced() {
    // Values exactly half-way between codes (scale 1 and scale 0.5,
    // where every quotient is exact), just under and just over.
    let mut halves: Vec<f32> = vec![0.0, 255.0];
    for k in 0..255 {
        let v = k as f32 + 0.5;
        halves.extend([
            v,
            f32::from_bits(v.to_bits() - 1),
            f32::from_bits(v.to_bits() + 1),
        ]);
    }
    halves.resize(halves.len().next_multiple_of(6), 7.5);
    assert_sq8_parity(&halves, 6, "half-way, scale 1");
    let scaled: Vec<f32> = halves.iter().map(|v| v * 0.5 - 40.0).collect();
    assert_sq8_parity(&scaled, 6, "half-way, scale 0.5, negative min");
    // hi == lo: every code 0, any width, one row or many.
    assert_sq8_parity(&[3.25; 12], 4, "constant");
    assert_sq8_parity(&[-1.5; 5], 5, "constant, one row");
    // A one-row sub-partition, and a one-value one.
    assert_sq8_parity(&[0.1, -7.0, 2.5, 2.4999998, 1e-3, 9.0, 8.99], 7, "one row");
    assert_sq8_parity(&[42.0], 1, "one value");
    // A spread too small for a normal scale, and one too large for it
    // to be finite: the codes saturate the same way.
    assert_sq8_parity(&[0.0, 1e-44, 2e-44, 3e-44], 2, "denormal spread");
    assert_sq8_parity(&[-3e38, 3e38, 0.0, 1.0], 2, "overflowing spread");
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    for case in 0..200 {
        let w = 1 + rng.below(70) as usize;
        let n = 1 + rng.below(40) as usize;
        let spread = [1e-3f32, 1.0, 37.0, 1e4][case % 4];
        let rows: Vec<f32> = (0..n * w).map(|_| rng.normal() as f32 * spread).collect();
        assert_sq8_parity(&rows, w, &format!("random case {case} ({n} x {w})"));
    }
}
