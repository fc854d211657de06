//! Shared by the integration tests that hold an index to both halves of
//! its query contract (`promips_core::search` module docs): data and
//! queries that land on either side of the index-or-scan rule, and the
//! exact oracle the column pass is held to.
#![allow(dead_code, unused_imports)] // each test binary uses its own subset

pub use promips_data::gen::{clustered, low_rank};
use promips_linalg::{dot, Matrix};
use promips_stats::Xoshiro256pp;

/// i.i.d. Gaussian rows.
pub fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

/// Gaussian rows with every fiftieth shrunk to a twentieth: a spread of
/// norms for the screen's bounds to meet. The ball of every query still
/// covers a third of such an index or more, so the column pass answers
/// all of them; [`clustered`] rows have the other side of the rule.
pub fn skewed_data(n: usize, d: usize, seed: u64) -> Matrix {
    skew(random_data(n, d, seed))
}

/// `data` with every fiftieth row shrunk to a twentieth.
pub fn skew(mut data: Matrix) -> Matrix {
    for i in (0..data.rows()).step_by(50) {
        data.row_mut(i).iter_mut().for_each(|x| *x *= 0.05);
    }
    data
}

/// `q` with its head under `basis` taken out: a query lying entirely in
/// the subspace the head codes leave to the tail bound.
pub fn without_head(basis: &promips_idistance::HeadBasis, q: &[f32]) -> Vec<f32> {
    let mut coeffs = vec![0.0f32; basis.width()];
    basis.project(q, &mut coeffs);
    let mut rest = q.to_vec();
    for (j, c) in coeffs.iter().enumerate() {
        for (x, v) in rest.iter_mut().zip(basis.rows().row(j)) {
            *x -= c * v;
        }
    }
    rest
}

/// `q` at a tenth of its length.
pub fn short(q: &[f32]) -> Vec<f32> {
    q.iter().map(|x| 0.1 * x).collect()
}

/// The exact oracle: top-`k` over the rows `dead` spares, scored by the
/// single-row kernel, ties to the smaller id.
pub fn oracle(
    data: &Matrix,
    q: &[f32],
    k: usize,
    dead: Option<&dyn Fn(u64) -> bool>,
) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = (0..data.rows() as u64)
        .filter(|&id| !dead.is_some_and(|dead| dead(id)))
        .map(|id| (id, dot(data.row(id as usize), q)))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// The column pass's heap key: an order-preserving `u64` of `x`
/// (`total_cmp` order).
pub fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The `x` of [`order_key`], bit for bit.
pub fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}
