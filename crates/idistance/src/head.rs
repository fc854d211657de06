//! The verification column's **head basis**: an orthonormal `h × d` block
//! `V` of the dataset's top-energy directions, estimated at build time, so
//! that the SQ8 verification codes can cover `Vo` — `h` bytes a row — in
//! place of all `d` coordinates of `o`.
//!
//! # The bound
//!
//! For a row `o` and a query `q`, with `a = Vo` and `b = Vq` as computed
//! (rounded to `f32`), `r_o = o − Vᵀa` and `r_q = q − Vᵀb`:
//!
//! ```text
//! ⟨o, q⟩ = ⟨a, b⟩ + ⟨r_o, r_q⟩ + leak
//! ```
//!
//! * `⟨a, b⟩` is what the head codes estimate, with the quantizer's own
//!   error bound, exactly as for full-width codes;
//! * `⟨r_o, r_q⟩ ≤ ‖r_o‖·‖r_q‖` (Cauchy–Schwarz): a sub-partition stores
//!   `tail = max ‖r_o‖` over its rows, the query computes `‖r_q‖` once;
//! * `leak = ⟨a, Vq − b⟩ + ⟨V·r_o, b⟩` vanishes for an exactly orthonormal
//!   `V` applied in exact arithmetic. For the `V` **as stored** (`f32`) and
//!   products rounded to `f32`, `V·r_o = (I − VVᵀ)a − (a − Vo)`, so
//!   `|leak| ≤ δ·max(‖a‖, ‖o‖)·max(‖b‖, ‖q‖)` with
//!   `δ = ‖VVᵀ − I‖_F + 2⁻²²` ([`HeadBasis::defect`]): the measured defect
//!   of the stored rows, plus twice the `f32` rounding unit (one for `a`,
//!   one for `b`) and as much again for every `f64` accumulation involved.
//!
//! The residual norms come from Pythagoras rather than from `d·h` more
//! multiply-adds per vector: `‖r_o‖² = ‖o‖² − ‖a‖² + 2⟨a, a − Vo⟩ +
//! ⟨a, (VVᵀ − I)a⟩ ≤ max(0, ‖o‖² − ‖a‖²) + δ·max(‖o‖², ‖a‖²)`
//! ([`HeadBasis::residual_bound`]). *Any* `V` keeps all of this exact — a
//! poor basis only makes `tail` large.
//!
//! The column sweep reads the codes of the **prefix** `a_p`, the first
//! `h/2` head coordinates ([`HeadBasis::prefix_width`]), alone. What they
//! leave out of `⟨a, b⟩` is `⟨a_s, b_s⟩ ≤ ‖a_s‖·‖b_s‖` over the suffix
//! coordinates, so a sub-partition also stores the largest `‖a_s‖`,
//! `suffix_norm`, and each row one byte, its **suffix-norm code**
//! ([`suffix_code`]): `code·suffix_norm/255 ≥ ‖a_s‖`. The rest of the bound
//! is the head's own.
//!
//! # Choosing the width
//!
//! `h` is the smallest multiple of 64 (a code row is then whole cache
//! lines, and a 4 KB page holds whole rows) up to `min(d/2, 256)` whose
//! **tail energy** is at most ε = 0.02 (`MAX_TAIL_ENERGY`); if there is
//! none the index keeps full-width codes and no basis, byte for byte the
//! file it was before heads existed. A candidate's basis is fitted to a
//! seeded sample of `8·h` rows, and its tail energy is the share of
//! `‖X‖_F²` outside the span of its `h` directions for `X` a *second*
//! sample of 1 024 rows — rows the basis was not fitted to, so that a
//! small fitting sample cannot flatter itself. Candidates are tried
//! narrowest first, each costing about `8·h·(8h)·d` multiply-adds for the
//! fit (15 ms for h = 64 at d = 300) plus `h·1024·d` for the test, which
//! is what the cap bounds for rows that turn out to have no head (5 s at
//! d = 5 000).

use std::io;

use promips_linalg::subspace::{
    energy, orthonormality_defect, row_energies, top_subspace, transpose,
};
use promips_linalg::{sq_norm2, Matrix};
use promips_stats::Xoshiro256pp;

use crate::layout::enc;

/// Head widths are multiples of this many bytes: one cache line, one
/// step of the widest screen kernel, and a divisor of every page size in
/// use, so no head row straddles a page.
const WIDTH_STEP: usize = 64;

/// The widest head tried (module docs).
const WIDTH_MAX: usize = 256;

/// Rows of the seeded sample a candidate basis is fitted to, per direction.
const FIT_ROWS_PER_DIRECTION: usize = 8;

/// Rows of the seeded sample every candidate's tail energy is measured on.
const HELD_OUT_ROWS: usize = 1024;

/// Rounds of orthogonal iteration per candidate width: each applies `XᵀX`,
/// shrinking the error in the span by `(σ_{h+1}/σ_h)²`.
const ITERATIONS: usize = 4;

/// The largest share of the held-out sample's energy the head may leave
/// outside its span. Derived like the index-or-scan constant, from measured
/// query times of the same 100 000 rows under full-width and 64-byte codes
/// (table in `promips_core::search`'s module docs): with low-rank rows plus
/// noise the head still wins at a tail energy of 0.087 (d = 300) and 0.057
/// (d = 128), but on the slow-spectrum `sift_histogram` rows (0.070) it
/// lets 37× the rows through and is 2× slower — the share alone does not
/// say how the residuals compare with the gap below the k-th score. The
/// constant sits under half the smallest losing share, where every
/// generator measured wins by at least 19 %; not a configuration field.
const MAX_TAIL_ENERGY: f64 = 0.02;

/// Added to the measured `‖VVᵀ − I‖_F`: two `f32` roundings of a projected
/// vector (`2·2⁻²⁴`) and the same again for the `f64` accumulations.
const ROUNDING: f64 = 1.0 / (1u64 << 22) as f64;

/// An orthonormal (up to [`Self::defect`]) `h × d` basis of top-energy
/// directions.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadBasis {
    v: Matrix,
    defect: f32,
    /// A hash of the shape, `defect` and every basis float
    /// ([`Self::fingerprint`]).
    fingerprint: u64,
}

impl HeadBasis {
    /// Estimates a basis for the rows of `orig` and picks its width (module
    /// docs); `None` when no admissible width leaves little enough energy
    /// outside — in particular whenever `d < 128`.
    pub fn estimate(orig: &Matrix, seed: u64) -> Option<Self> {
        let (n, d) = (orig.rows(), orig.cols());
        if d / 2 < WIDTH_STEP {
            return None;
        }
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x4EAD_BA51);
        let held_out = orig.gather(&rng.sample_indices(n, HELD_OUT_ROWS.min(n)));
        let total = energy(&held_out);
        for h in (WIDTH_STEP..=WIDTH_MAX.min(d / 2)).step_by(WIDTH_STEP) {
            let fit = orig.gather(&rng.sample_indices(n, (FIT_ROWS_PER_DIRECTION * h).min(n)));
            let start = Matrix::from_rows(
                d,
                (0..h).map(|_| (0..d).map(|_| rng.normal() as f32).collect()),
            );
            let v = top_subspace(&fit, &transpose(&fit), start, ITERATIONS);
            let tail = 1.0 - row_energies(&held_out, &v).iter().sum::<f64>() / total;
            // A NaN (all-zero or non-finite sample) fails both tests.
            if tail <= MAX_TAIL_ENERGY {
                // Rounded up into f32 like every stored bound.
                let defect = ((orthonormality_defect(&v) + ROUNDING) * (1.0 + 1e-6)) as f32;
                return defect.is_finite().then(|| Self::new(v, defect));
            }
        }
        None
    }

    fn new(v: Matrix, defect: f32) -> Self {
        // FNV-1a over 32-bit words: the shape, the defect, every float.
        let shape = [v.rows() as u32, v.cols() as u32, defect.to_bits()];
        let words = shape
            .into_iter()
            .chain(v.as_slice().iter().map(|x| x.to_bits()));
        let fingerprint = words.fold(0xCBF2_9CE4_8422_2325u64, |h, w| {
            (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Self {
            v,
            defect,
            fingerprint,
        }
    }

    /// A 64-bit hash of the basis as stored (shape, defect, every float):
    /// what a query screen records to say which basis it was built under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Head width `h`: code bytes per row.
    pub fn width(&self) -> usize {
        self.v.rows()
    }

    /// Width `h/2` of the **prefix**: the first, highest-energy half of the
    /// head, whose codes the column sweep reads on their own (module docs).
    pub fn prefix_width(&self) -> usize {
        self.width() / 2
    }

    /// The basis, one direction per row (`h × d`).
    pub fn rows(&self) -> &Matrix {
        &self.v
    }

    /// `δ` of the module docs.
    pub fn defect(&self) -> f64 {
        self.defect as f64
    }

    /// Writes `V·x` (rounded to `f32`) into `out` and returns its squared
    /// norm as stored.
    pub fn project(&self, x: &[f32], out: &mut [f32]) -> f64 {
        self.v.matvec_into(x, out);
        sq_norm2(out)
    }

    /// [`Self::project`] for every row of `rows` in one blocked `rows · Vᵀ`
    /// — each head to the bit what `project` writes for that row — beside
    /// the largest [`Self::residual_bound`] among the rows and the largest
    /// norm of a head's suffix, its coordinates past
    /// [`Self::prefix_width`] (0 for none).
    pub fn project_rows(&self, rows: &Matrix) -> (Matrix, [f64; 2]) {
        let heads = rows.gemm_nt(&self.v);
        let p = self.prefix_width();
        let bounds =
            rows.iter_rows()
                .zip(heads.iter_rows())
                .fold([0.0f64; 2], |[tail, suffix], (x, a)| {
                    [
                        tail.max(self.residual_bound(sq_norm2(x), sq_norm2(a))),
                        suffix.max(sq_norm2(&a[p..]).sqrt()),
                    ]
                });
        (heads, bounds)
    }

    /// An upper bound on `‖x − Vᵀa‖` given `‖x‖²` and `‖a‖²`, where `a` is
    /// [`Self::project`]'s output for `x`.
    pub fn residual_bound(&self, sq_norm: f64, head_sq_norm: f64) -> f64 {
        ((sq_norm - head_sq_norm).max(0.0) + self.defect() * sq_norm.max(head_sq_norm)).sqrt()
    }

    /// Serializes into `buf`: width, defect, then the `h·d` basis floats
    /// behind their count.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        enc::put_u32(buf, self.width() as u32);
        enc::put_f32(buf, self.defect);
        enc::put_u32(buf, self.v.as_slice().len() as u32);
        enc::put_f32s(buf, self.v.as_slice());
    }

    /// Deserializes what [`Self::encode`] wrote for an index of dimension
    /// `d`, rejecting a basis whose shape disagrees with it.
    pub fn decode(r: &mut enc::Reader, d: usize) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let h = r.u32()? as usize;
        let defect = r.f32()?;
        let len = r.u32()? as usize;
        if h == 0 || h >= d || Some(len) != h.checked_mul(d) {
            return Err(bad("head basis length disagrees with d·h"));
        }
        if !(defect.is_finite() && defect >= 0.0) {
            return Err(bad("head basis defect is not a finite bound"));
        }
        Ok(Self::new(Matrix::from_vec(h, d, r.f32s(len)?), defect))
    }
}

/// A row's **suffix-norm code**: the smallest `code ≤ 255` with
/// `code·suffix_norm/255 ≥ norm` in `f64`, where `norm` is the row's
/// `‖a_s‖` and `suffix_norm` its sub-partition's stored bound (at least
/// every row's `norm`, so code 255 always qualifies). The division's
/// estimate is checked and stepped up, so the stored byte bounds the norm
/// whatever the rounding of the estimate.
pub fn suffix_code(norm: f64, suffix_norm: f32) -> u8 {
    let bound = suffix_norm as f64;
    debug_assert!(norm <= bound, "{norm} > {bound}");
    if norm <= 0.0 {
        return 0;
    }
    let mut code = (255.0 * norm / bound).ceil().min(255.0) as u8;
    while code < u8::MAX && code as f64 * bound / 255.0 < norm {
        code += 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_data::gen::low_rank;

    #[test]
    fn width_follows_the_spectrum() {
        // Rank 20 in 160 dimensions: one line of codes holds everything.
        let exact = HeadBasis::estimate(&low_rank(500, 160, 20, 0.0, 1), 7).unwrap();
        assert_eq!(exact.width(), 64);
        assert!(exact.defect() < 1e-5, "{}", exact.defect());
        // Isotropic rows: no width up to d/2 holds 99 % of the energy.
        assert!(HeadBasis::estimate(&low_rank(500, 160, 160, 0.0, 2), 7).is_none());
        // Too narrow for any candidate, whatever the spectrum.
        assert!(HeadBasis::estimate(&low_rank(500, 100, 3, 0.0, 3), 7).is_none());
        // All-zero rows have no energy to order.
        assert!(HeadBasis::estimate(&Matrix::zeros(50, 160), 7).is_none());
    }

    #[test]
    fn residual_bound_covers_the_explicit_residual() {
        let data = low_rank(400, 160, 30, 0.02, 4);
        let basis = HeadBasis::estimate(&data, 9).unwrap();
        let mut a = vec![0.0f32; basis.width()];
        for i in 0..data.rows() {
            let x = data.row(i);
            let head_sq = basis.project(x, &mut a);
            let bound = basis.residual_bound(sq_norm2(x), head_sq);
            let mut rest: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            for (j, &aj) in a.iter().enumerate() {
                for (r, &v) in rest.iter_mut().zip(basis.rows().row(j)) {
                    *r -= aj as f64 * v as f64;
                }
            }
            let explicit = rest.iter().map(|r| r * r).sum::<f64>().sqrt();
            assert!(explicit <= bound, "row {i}: {explicit} > {bound}");
            assert!(
                bound <= explicit + 2e-3 * sq_norm2(x).sqrt(),
                "row {i}: loose"
            );
        }
    }

    #[test]
    fn codec_roundtrips_and_rejects_a_wrong_shape() {
        let basis = HeadBasis::estimate(&low_rank(300, 128, 10, 0.0, 5), 3).unwrap();
        let mut buf = Vec::new();
        basis.encode(&mut buf);
        let mut r = enc::Reader::new(&buf);
        assert_eq!(HeadBasis::decode(&mut r, 128).unwrap(), basis);
        assert_eq!(r.remaining(), 0);
        for d in [127, 129, 64] {
            let err = HeadBasis::decode(&mut enc::Reader::new(&buf), d).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "d = {d}");
        }
        let err = HeadBasis::decode(&mut enc::Reader::new(&buf[..buf.len() - 4]), 128).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
