//! Portable scalar kernels — the reference implementations and the runtime
//! fallback on targets without a SIMD path.
//!
//! All reductions accumulate in `f64` over exactly-converted `f32` inputs
//! (every `f32` is representable in `f64`, so the only rounding happens in
//! the `f64` additions). The 4-way unrolling both helps the auto-vectorizer
//! and fixes an accumulation *shape* (four partial sums + tail) that the
//! explicit SIMD kernels reproduce closely; see [`crate::dispatch`] for the
//! cross-backend tolerance contract.

/// Inner product `⟨a, b⟩` with `f64` accumulation.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a4, a_rest) = a.split_at(chunks * 4);
    let (b4, b_rest) = b.split_at(chunks * 4);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] as f64 * cb[0] as f64;
        acc[1] += ca[1] as f64 * cb[1] as f64;
        acc[2] += ca[2] as f64 * cb[2] as f64;
        acc[3] += ca[3] as f64 * cb[3] as f64;
    }
    let mut tail = 0.0;
    for (&x, &y) in a_rest.iter().zip(b_rest) {
        tail += x as f64 * y as f64;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Squared Euclidean norm `‖a‖²`.
pub fn sq_norm2(a: &[f32]) -> f64 {
    dot(a, a)
}

/// 1-norm `‖a‖₁ = Σ|aᵢ|`.
pub fn norm1(a: &[f32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a4, rest) = a.split_at(chunks * 4);
    for c in a4.chunks_exact(4) {
        acc[0] += c[0].abs() as f64;
        acc[1] += c[1].abs() as f64;
        acc[2] += c[2].abs() as f64;
        acc[3] += c[3].abs() as f64;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + rest.iter().map(|x| x.abs() as f64).sum::<f64>()
}

/// Squared Euclidean distance `dis²(a, b)`.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a4, a_rest) = a.split_at(chunks * 4);
    let (b4, b_rest) = b.split_at(chunks * 4);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        let d0 = ca[0] as f64 - cb[0] as f64;
        let d1 = ca[1] as f64 - cb[1] as f64;
        let d2 = ca[2] as f64 - cb[2] as f64;
        let d3 = ca[3] as f64 - cb[3] as f64;
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0;
    for (&x, &y) in a_rest.iter().zip(b_rest) {
        let d = x as f64 - y as f64;
        tail += d * d;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Four simultaneous inner products `⟨aᵢ, b⟩` — the blocked primitive
/// behind multi-row matvec, `gemm_nt`, and batched candidate verification.
/// All five slices must have equal length.
///
/// The portable version is simply four [`dot`]s: interleaving the four
/// accumulations in one loop defeats the compiler's vectorizer and measures
/// ~2× slower than running the well-shaped single-row kernel four times.
pub fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    [dot(a0, b), dot(a1, b), dot(a2, b), dot(a3, b)]
}

/// Sixteen inner products `⟨aᵢ, bⱼ⟩` — the tile [`crate::Matrix::gemm_nt`]
/// is made of — as four [`dot4`]s, one per row of `a`.
pub fn dot4x4(a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f64; 4]; 4] {
    a.map(|ai| dot4(b[0], b[1], b[2], b[3], ai))
}

/// Four simultaneous squared distances `dis²(aᵢ, b)` — the blocked primitive
/// for rows longer than [`SHORT_MAX`] (the column kernels run it over
/// such rows; shorter ones have their own bodies). All five slices must have
/// equal length.
///
/// Like [`dot4`], the portable version runs the well-shaped single-row
/// kernel four times rather than interleaving the accumulations.
pub fn sq_dist4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    [
        sq_dist(a0, b),
        sq_dist(a1, b),
        sq_dist(a2, b),
        sq_dist(a3, b),
    ]
}

// --- 8-bit quantized (SQ8) kernels ------------------------------------------
//
// The verification screen stores vectors as unsigned 8-bit codes
// (`code = round((x − min) / scale)`) and the query as signed ones, so its
// reductions are *exact integer arithmetic*: every backend returns
// bit-identical sums, and the parity contract for these kernels is
// equality, not a tolerance. Accumulation is `i32`, which is exact for
// lengths up to 2¹⁵ (the worst-case per-term magnitude is 255·128).

/// Inner product of a u8 code vector with an i8 code vector,
/// `Σ aᵢ·bᵢ` with exact `i32` accumulation.
pub fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Four simultaneous quantized inner products `Σ aᵢⱼ·bⱼ` against a shared
/// signed query code vector. All five slices must have equal length.
pub fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    [dot_i8(a0, b), dot_i8(a1, b), dot_i8(a2, b), dot_i8(a3, b)]
}

// --- Projected-space column kernels -----------------------------------------
//
// The annulus scan works in the projected space, where rows are `m` = 6–10
// coordinates long (paper Section V-B) — shorter than one SIMD vector, so
// the long-vector kernels above run zero vector iterations on them. The
// column kernels take a whole sub-partition column per call and, for
// operands up to [`SHORT_MAX`], share one per-row arithmetic on every
// backend and entry point (see [`sq_dist_seq`]).

/// Longest operand the projected-space kernels treat as *short*. Up to this
/// length `sq_dist`, `sq_dist4` and `sq_dist_col` — on every backend —
/// compute [`sq_dist_seq`]'s sum, so a row's distance depends neither on the
/// entry point nor on its position in a batch; longer operands keep the
/// long-vector accumulation shapes of their backend.
pub const SHORT_MAX: usize = 16;

/// The short-operand arithmetic: `Σ (aⱼ − bⱼ)²` accumulated left to right in
/// one `f64`, one rounding per subtract, multiply and add (no FMA). Every
/// backend's short column takes the unrolled body below (strided-gather
/// bodies with rows in the lanes measured slower on AVX2 and on AVX-512),
/// so all backends agree to the bit by running the same code.
#[inline(always)]
pub fn sq_dist_seq(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    let mut s = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = x as f64 - y as f64;
        s += d * d;
    }
    s
}

/// Panics unless `rows` holds exactly `out.len()` rows of `q.len() == m > 0`
/// coordinates — the condition the raw-pointer column bodies rely on.
#[inline]
pub(crate) fn check_col_shape(rows: usize, m: usize, q: usize, out: usize) {
    assert!(m > 0, "column kernel: rows have no coordinates");
    assert_eq!(q, m, "column kernel: query length is not m");
    assert_eq!(rows, out * m, "column kernel: rows is not out.len() × m");
}

/// Expands to a `match` over `m` that calls `$f::<M>($args)` for
/// `M ∈ 1..=SHORT_MAX` and evaluates `$long` for everything else.
macro_rules! match_short_m {
    ($m:expr, $f:ident($($arg:expr),*), $long:expr) => {
        match $m {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            9 => $f::<9>($($arg),*),
            10 => $f::<10>($($arg),*),
            11 => $f::<11>($($arg),*),
            12 => $f::<12>($($arg),*),
            13 => $f::<13>($($arg),*),
            14 => $f::<14>($($arg),*),
            15 => $f::<15>($($arg),*),
            16 => $f::<16>($($arg),*),
            _ => $long,
        }
    };
}
pub(crate) use match_short_m;

/// [`sq_dist_seq`] of one `M`-float row against a pre-widened `b`, fully
/// unrolled.
#[inline(always)]
fn seq_row<const M: usize>(row: &[f32], b: &[f64; M]) -> f64 {
    let row: &[f32; M] = row.try_into().expect("sq_dist: dimension mismatch");
    let mut s = 0.0f64;
    for j in 0..M {
        let d = row[j] as f64 - b[j];
        s += d * d;
    }
    s
}

/// `b` widened to `f64` (exact), as a fixed-size array.
#[inline(always)]
fn widen<const M: usize>(b: &[f32]) -> [f64; M] {
    let b: &[f32; M] = b.try_into().expect("sq_dist: dimension mismatch");
    b.map(|x| x as f64)
}

/// [`sq_dist_seq`] of four `M`-float rows.
fn seq4<const M: usize>(rows: [&[f32]; 4], b: &[f32]) -> [f64; 4] {
    let b = widen::<M>(b);
    [
        seq_row(rows[0], &b),
        seq_row(rows[1], &b),
        seq_row(rows[2], &b),
        seq_row(rows[3], &b),
    ]
}

/// [`sq_dist_seq`] of four rows of up to [`SHORT_MAX`] floats against one
/// `b` — what `sq_dist4` computes for short operands on every backend.
///
/// # Panics
/// Panics if a row's length differs from `b`'s.
#[inline]
pub fn sq_dist4_seq(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    let rows = [a0, a1, a2, a3];
    match_short_m!(b.len(), seq4(rows, b), rows.map(|row| sq_dist_seq(row, b)))
}

/// [`sq_dist_seq`] over every `M`-float row of a column.
fn col_short<const M: usize>(rows: &[f32], q: &[f32], out: &mut [f64]) {
    let q = widen::<M>(q);
    for (row, o) in rows.chunks_exact(M).zip(out) {
        *o = seq_row(row, &q);
    }
}

/// Long-operand column loop shared by the backends: four rows per call of
/// the backend's blocked kernel `k4`, the last partial block padded by
/// repeating its final row — so every row goes through `k4`'s per-row
/// arithmetic whatever its position or the column's length.
pub(crate) fn col_long<T, Q, O: Copy>(
    rows: &[T],
    m: usize,
    q: &[Q],
    out: &mut [O],
    k4: impl Fn(&[T], &[T], &[T], &[T], &[Q]) -> [O; 4],
) {
    for (block, o) in rows.chunks(4 * m).zip(out.chunks_mut(4)) {
        let row = |i: usize| {
            let i = i.min(o.len() - 1);
            &block[i * m..(i + 1) * m]
        };
        let d = k4(row(0), row(1), row(2), row(3), q);
        o.copy_from_slice(&d[..o.len()]);
    }
}

/// [`crate::vector::sq_dist_col`] with the blocked kernel `k4` for rows
/// longer than [`SHORT_MAX`]; short ones take the unrolled body whatever
/// `k4` is.
///
/// # Panics
/// Panics unless `q.len() == m > 0` and `rows.len() == out.len() * m`.
pub(crate) fn sq_dist_col_with(
    k4: crate::dispatch::Dot4Fn,
    rows: &[f32],
    m: usize,
    q: &[f32],
    out: &mut [f64],
) {
    check_col_shape(rows.len(), m, q.len(), out.len());
    match_short_m!(m, col_short(rows, q, out), col_long(rows, m, q, out, k4))
}

/// Panics unless `cols` holds `m ∈ 1..=`[`SHORT_MAX`] columns of
/// `best.len() == best_d.len()` floats each and `q.len() == m`.
#[inline]
pub(crate) fn check_nearest_shape(cols: usize, m: usize, q: usize, best: usize, best_d: usize) {
    assert!(m <= SHORT_MAX, "nearest_col: rows longer than SHORT_MAX");
    assert_eq!(
        best, best_d,
        "nearest_col: best and best_d differ in length"
    );
    check_col_shape(cols, m, q, best);
}

/// Folds the centroid `q`, numbered `c`, into a running nearest-centroid
/// search over a column-major block of `n = best.len()` rows of `m` floats
/// (coordinate `j` of row `i` at `cols[j·n + i]`): for every row, with
/// `d` = [`sq_dist_seq`] of the row and `q`, if `d < best_d[i]` then
/// `best_d[i] = d` and `best[i] = c`.
///
/// # Panics
/// Panics unless `q.len() == m`, `1 ≤ m ≤` [`SHORT_MAX`],
/// `best.len() == best_d.len()` and `cols.len() == best.len() · m`.
pub fn nearest_col(
    cols: &[f32],
    m: usize,
    q: &[f32],
    c: u32,
    best: &mut [u32],
    best_d: &mut [f64],
) {
    check_nearest_shape(cols.len(), m, q.len(), best.len(), best_d.len());
    match_short_m!(m, nearest_rows(cols, q, c, best, best_d, 0), unreachable!())
}

/// [`nearest_col`] over rows `from..` of the block, one row at a time: the
/// whole block on this backend, the rows past the last full vector on the
/// others.
#[inline(always)]
pub(crate) fn nearest_rows<const M: usize>(
    cols: &[f32],
    q: &[f32],
    c: u32,
    best: &mut [u32],
    best_d: &mut [f64],
    from: usize,
) {
    let n = best.len();
    let q = widen::<M>(q);
    let cols: [&[f32]; M] = std::array::from_fn(|j| &cols[j * n..(j + 1) * n]);
    for i in from..n {
        let mut s = 0.0f64;
        for j in 0..M {
            let d = cols[j][i] as f64 - q[j];
            s += d * d;
        }
        // Mask arithmetic, not `if`: which centroid is nearer is a coin
        // toss for the first few, and a branch on it mispredicts.
        let nearer = ((s < best_d[i]) as u64).wrapping_neg();
        best[i] = (c & nearer as u32) | (best[i] & !nearer as u32);
        best_d[i] = f64::from_bits((s.to_bits() & nearer) | (best_d[i].to_bits() & !nearer));
    }
}

/// Adds every row of a column-major block of `n = labels.len()` rows of `m`
/// floats (coordinate `j` of row `i` at `cols[j·n + i]`) to its cluster's
/// `f64` sums, `sums[labels[i]·m + j] += cols[j·n + i]`, in row order —
/// k-means' update step, through a fixed-width copy of each row.
///
/// # Panics
/// Panics unless `1 ≤ m ≤` [`SHORT_MAX`], `cols.len() == labels.len() · m`
/// and every label's `m` sums lie inside `sums`.
pub fn add_rows_col(cols: &[f32], m: usize, labels: &[u32], sums: &mut [f64]) {
    assert!(m <= SHORT_MAX, "add_rows_col: rows longer than SHORT_MAX");
    assert_eq!(
        cols.len(),
        labels.len() * m,
        "add_rows_col: cols is not labels.len() × m"
    );
    match_short_m!(m, add_rows(cols, labels, sums), unreachable!())
}

fn add_rows<const M: usize>(cols: &[f32], labels: &[u32], sums: &mut [f64]) {
    let n = labels.len();
    let cols: [&[f32]; M] = std::array::from_fn(|j| &cols[j * n..][..n]);
    for (i, &c) in labels.iter().enumerate() {
        let row: [f32; M] = std::array::from_fn(|j| cols[j][i]);
        for (s, &x) in sums[c as usize * M..][..M].iter_mut().zip(&row) {
            *s += x as f64;
        }
    }
}

/// Quantized inner products `Σⱼ rowᵢⱼ·qⱼ` of every `w`-code row of the u8
/// code column `rows` against the i8 query `q` into `out` — one call per
/// run of contiguous code rows. Exact integer arithmetic.
///
/// # Panics
/// Panics unless `q.len() == w > 0` and `rows.len() == out.len() * w`.
pub fn dot_col_i8(rows: &[u8], w: usize, q: &[i8], out: &mut [i32]) {
    check_col_shape(rows.len(), w, q.len(), out.len());
    col_long(rows, w, q, out, dot4_i8)
}

/// The largest of `v` (`i32::MIN` for an empty slice): one branch-free
/// fold.
pub fn max_i32(v: &[i32]) -> i32 {
    v.iter().fold(i32::MIN, |m, &x| m.max(x))
}

/// [`max_i32`] of each run `v[bounds[i]..bounds[i + 1]]` into `out[i]`.
pub fn max_i32_runs(v: &[i32], bounds: &[usize], out: &mut [i32]) {
    assert_eq!(bounds.len(), out.len() + 1, "one bound past the runs");
    for (o, run) in out.iter_mut().zip(bounds.windows(2)) {
        *o = max_i32(&v[run[0]..run[1]]);
    }
}

/// The largest `a·xᵢ + b·yᵢ` over the pairs of `x` and `y` (`-∞` for none),
/// each product and the sum rounded once in `f64` (no fused multiply-add),
/// so every backend's body returns the same number for finite `a` and `b`.
///
/// # Panics
/// Panics unless `x.len() == y.len()`.
pub fn max_scaled_sum(x: &[i32], y: &[u8], a: f64, b: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "max_scaled_sum: length mismatch");
    x.iter().zip(y).fold(f64::NEG_INFINITY, |m, (&x, &y)| {
        m.max(a * x as f64 + b * y as f64)
    })
}
