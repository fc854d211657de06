//! Runtime kernel dispatch.
//!
//! The public kernels in [`crate::vector`] and the blocked routines in
//! [`crate::matrix`] all route through a single table of function pointers,
//! selected once per process and cached in a [`OnceLock`]. Callers pay one
//! atomic load per call (the `OnceLock` fast path) — no per-call feature
//! detection, no generic bloat, and the choice is overridable for tests and
//! benchmarks via `PROMIPS_FORCE_SCALAR=1`.
//!
//! ## Backends
//!
//! | backend  | where                                                  | bodies |
//! |----------|--------------------------------------------------------|--------|
//! | `avx512` | x86-64 with runtime-detected AVX-512F, AVX2 and FMA    | its own 8-wide `sq_norm2`, `norm1`, `dot4`, `dot4x4`, 16-lane `max_i32_runs`, and the AVX-512VNNI `vpdpbusd` screen kernels, else the AVX-512BW ones, else the AVX2 ones; the AVX2 `dot`, `sq_dist`, `sq_dist4`, `nearest_col` and `max_scaled_sum`, whose 512-bit versions measured no faster on the rows the index hands them |
//! | `avx2`   | x86-64 with runtime-detected AVX2 + FMA                | its own, every entry |
//! | `scalar` | everything else                                        | the portable ones |
//!
//! Kernel choice is this one-time CPU detection plus, inside a kernel, the
//! operand length — nothing else.
//!
//! ## Kernel shapes
//!
//! | operands                                   | kernel                          | the `avx512` table's body |
//! |--------------------------------------------|---------------------------------|---------------------------|
//! | projected space, `m ≤ 16` floats           | `sq_dist_col` (no entry of its own): one call per sub-partition column, through the unrolled scalar body on every backend; longer rows four at a time through the table's `sq_dist4` | scalar; AVX2 past `m = 16` |
//! | k-means, a column-major block of `m ≤ 16`-float rows | `nearest_col`: one call per centroid and block, a row a lane — eight rows a step as two AVX2 vectors, `sq_dist_seq`'s bits and its `<` select on every backend | AVX2 |
//! | screen, a run of contiguous `w`-code rows  | `dot_col_i8`: `w` = 32, 64 or 128 — sixteen rows per step and per store, 32-code rows two to a VNNI load; otherwise (and on AVX2 at every `w`) `dot4_i8` over every four rows | VNNI, else BW, else AVX2 |
//! | screen, scattered u8 × i8 code rows        | `dot4_i8` / `dot_i8`: 64 (VNNI), 32 (BW) or 16 (AVX2) codes per step, masked or overlapped tail | VNNI, else BW, else AVX2 |
//! | verification, one `d`-long f32 row         | `dot`: widened `f64` FMA lanes | AVX2 |
//! | distances and norms of `d`-long f32 rows   | `sq_dist` / `sq_dist4` (rows past `m = 16`); `sq_norm2`, `norm1` | AVX2; AVX-512 |
//! | `matvec_into`, exact scanners, f32 rows    | `dot4` over every four rows, `dot` for the rest | AVX-512; AVX2 |
//! | build, rows × rows (`Matrix::gemm_nt`)     | `dot4x4`: sixteen `dot4`-identical sums per pass over eight rows | AVX-512 |
//! | column pass, every sub-partition's i32 dots | `max_i32_runs`: one call a pass, `vpmaxsd` over 16 (AVX-512) or 8 (AVX2) lanes per run, exact; `max_i32` is its one-run case | AVX-512 |
//! | column pass, its dots beside their u8 suffix-norm codes | `max_scaled_sum`: the largest `a·dot + b·code`, four `f64` lanes, rounded as the scalar body rounds it | AVX2 |
//!
//! ## Numerical contract
//!
//! Every backend widens `f32` inputs to `f64` exactly and accumulates in
//! `f64`; backends differ only in accumulation order (4-wide `f64` lanes on
//! AVX2, 8-wide in the AVX-512 bodies, each with its own reduction tree)
//! and in the SIMD tiers' use of fused multiply-add (one rounding instead
//! of two per term). The cross-backend guarantee, asserted by this crate's
//! property tests, is
//!
//! ```text
//! |simd − scalar| ≤ 1e-4 · max(1, |scalar|)
//! ```
//!
//! In practice agreement is ~1e-12 relative for the d ≤ 10⁴ vectors this
//! workspace handles. The integer kernels, `nearest_col`, `max_i32_runs`
//! and `max_scaled_sum` are exact: every backend returns the scalar bits.

use std::sync::OnceLock;

use crate::scalar;

/// Signature of the blocked four-row kernels (`dot4`, `sq_dist4`): four rows
/// against one shared right-hand side.
pub type Dot4Fn = fn(&[f32], &[f32], &[f32], &[f32], &[f32]) -> [f64; 4];

/// Signature of the 4 × 4 blocked kernel (`dot4x4`): entry `[i][j]` is
/// `⟨a[i], b[j]⟩`, with the bits the backend's `dot4(b[0], b[1], b[2], b[3],
/// a[i])[j]` has.
pub type Dot4x4Fn = fn([&[f32]; 4], [&[f32]; 4]) -> [[f64; 4]; 4];

/// Signature of the blocked quantized inner-product kernel (`dot4_i8`):
/// four u8 code rows against one shared i8 query. Exact integer arithmetic
/// — every backend returns identical sums (valid for lengths up to 2¹⁵).
pub type Dot4I8Fn = fn(&[u8], &[u8], &[u8], &[u8], &[i8]) -> [i32; 4];

/// Signature of the single-row quantized inner-product kernel (`dot_i8`):
/// one u8 code row against one i8 query — the tail shape of the quantized
/// verification screen. Exact integer arithmetic, same length bound as
/// [`Dot4I8Fn`].
pub type DotI8Fn = fn(&[u8], &[i8]) -> i32;

/// Signature of the nearest-centroid column kernel (`nearest_col`): `(cols,
/// m, q, c, best, best_d)` — folds centroid `c` at `q` into the running
/// nearest centroid of every row of a column-major block.
pub type NearestColFn = fn(&[f32], usize, &[f32], u32, &mut [u32], &mut [f64]);

/// Signature of the screen's column kernel (`dot_col_i8`): `(rows, w, q,
/// out)` — exact quantized inner products of every `w`-code u8 row with the
/// i8 query `q`.
pub type DotColI8Fn = fn(&[u8], usize, &[i8], &mut [i32]);

/// Signature of the refinement kernel (`max_scaled_sum`): `(x, y, a, b)` —
/// the largest `a·xᵢ + b·yᵢ`, each product and the sum rounded once.
pub type MaxScaledSumFn = fn(&[i32], &[u8], f64, f64) -> f64;

/// The dispatch table: one entry per kernel.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Backend name (`"avx512"`, `"avx2"` or `"scalar"`), for logs and
    /// bench reports.
    pub name: &'static str,
    /// Inner product `⟨a, b⟩`.
    pub dot: fn(&[f32], &[f32]) -> f64,
    /// Squared Euclidean distance `dis²(a, b)`.
    pub sq_dist: fn(&[f32], &[f32]) -> f64,
    /// Squared Euclidean norm `‖a‖²`.
    pub sq_norm2: fn(&[f32]) -> f64,
    /// 1-norm `‖a‖₁`.
    pub norm1: fn(&[f32]) -> f64,
    /// Four inner products against a shared right-hand side.
    pub dot4: Dot4Fn,
    /// Sixteen inner products of four rows against four rows.
    pub dot4x4: Dot4x4Fn,
    /// Four squared Euclidean distances against a shared right-hand side.
    pub sq_dist4: Dot4Fn,
    /// Four quantized inner products (u8 code rows × i8 query).
    pub dot4_i8: Dot4I8Fn,
    /// One quantized inner product (u8 code row × i8 query).
    pub dot_i8: DotI8Fn,
    /// Nearest-centroid fold over a column-major block of short rows.
    pub nearest_col: NearestColFn,
    /// Quantized inner products of a whole u8 code column (u8 × i8).
    pub dot_col_i8: DotColI8Fn,
    /// The largest of each run of a slice of integer dots.
    pub max_i32_runs: fn(&[i32], &[usize], &mut [i32]),
    /// The largest `a·xᵢ + b·yᵢ` over i32 × u8 pairs.
    pub max_scaled_sum: MaxScaledSumFn,
}

/// The portable table (also the fallback backend).
pub static SCALAR: Kernels = Kernels {
    name: "scalar",
    dot: scalar::dot,
    sq_dist: scalar::sq_dist,
    sq_norm2: scalar::sq_norm2,
    norm1: scalar::norm1,
    dot4: scalar::dot4,
    dot4x4: scalar::dot4x4,
    sq_dist4: scalar::sq_dist4,
    dot4_i8: scalar::dot4_i8,
    dot_i8: scalar::dot_i8,
    nearest_col: scalar::nearest_col,
    dot_col_i8: scalar::dot_col_i8,
    max_i32_runs: scalar::max_i32_runs,
    max_scaled_sum: scalar::max_scaled_sum,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    name: "avx2",
    dot: crate::x86::dot,
    sq_dist: crate::x86::sq_dist,
    sq_norm2: crate::x86::sq_norm2,
    norm1: crate::x86::norm1,
    dot4: crate::x86::dot4,
    dot4x4: crate::x86::dot4x4,
    sq_dist4: crate::x86::sq_dist4,
    dot4_i8: crate::x86::dot4_i8,
    dot_i8: crate::x86::dot_i8,
    nearest_col: crate::x86::nearest_col,
    dot_col_i8: crate::x86::dot_col_i8,
    max_i32_runs: crate::x86::max_i32_runs,
    max_scaled_sum: crate::x86::max_scaled_sum,
};

#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    name: "avx512",
    // 8-wide `dot` and `sq_dist` measured no faster than these; `sq_dist4`
    // was 4–12 % ahead, on rows past 16 floats, which projected rows reach
    // only when `m` is set past the default (`tests/col_kernel_rates.rs`).
    dot: crate::x86::dot,
    sq_dist: crate::x86::sq_dist,
    sq_norm2: crate::avx512::sq_norm2,
    norm1: crate::avx512::norm1,
    dot4: crate::avx512::dot4,
    dot4x4: crate::avx512::dot4x4,
    sq_dist4: crate::x86::sq_dist4,
    // Sound default for the i8 entries: the 512-bit integer bodies need
    // AVX-512BW, which the `avx512f` gate does not imply, so the static
    // table carries the AVX2 bodies and `avx512_table()` swaps in the
    // 512-bit versions after a one-time BW / VNNI detection.
    dot4_i8: crate::x86::dot4_i8,
    dot_i8: crate::x86::dot_i8,
    // Eight rows a 512-bit step measured no faster than two 256-bit ones.
    nearest_col: crate::x86::nearest_col,
    dot_col_i8: crate::x86::dot_col_i8,
    max_i32_runs: crate::avx512::max_i32_runs,
    // Four f64 lanes already outrun the handful of rows it folds a call.
    max_scaled_sum: crate::x86::max_scaled_sum,
};

/// The avx512 table with the widest i8 kernels the host supports — BW and
/// (when `vnni` allows it) VNNI are detected once here, at
/// table-construction time, never per call.
#[cfg(target_arch = "x86_64")]
fn avx512_table(vnni: bool) -> Kernels {
    let mut k = AVX512;
    if std::arch::is_x86_feature_detected!("avx512bw") {
        k.dot4_i8 = crate::avx512::dot4_i8;
        k.dot_i8 = crate::avx512::dot_i8;
        k.dot_col_i8 = crate::avx512::dot_col_i8;
        if vnni && std::arch::is_x86_feature_detected!("avx512vnni") {
            k.dot4_i8 = crate::avx512::dot4_i8_vnni;
            k.dot_i8 = crate::avx512::dot_i8_vnni;
            k.dot_col_i8 = crate::avx512::dot_col_i8_vnni;
        }
    }
    k
}

fn select() -> Kernels {
    if force_scalar_requested() {
        return SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_host() {
            return avx512_table(true);
        }
        if avx2_host() {
            return AVX2;
        }
    }
    SCALAR
}

/// Whether the host runs the avx2 table: AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
fn avx2_host() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Whether the host runs the avx512 table: AVX-512F for its own bodies,
/// AVX2 and FMA for the AVX2 bodies it shares.
#[cfg(target_arch = "x86_64")]
fn avx512_host() -> bool {
    avx2_host() && std::arch::is_x86_feature_detected!("avx512f")
}

/// `PROMIPS_FORCE_SCALAR=1` pins the scalar backend for the whole process;
/// CI's scalar-backend step runs the parity suites under it on SIMD hosts.
fn force_scalar_requested() -> bool {
    std::env::var_os("PROMIPS_FORCE_SCALAR").is_some_and(|v| v == "1" || v == "true")
}

static ACTIVE: OnceLock<Kernels> = OnceLock::new();

/// The process-wide kernel table (selected on first use).
#[inline]
pub fn kernels() -> &'static Kernels {
    ACTIVE.get_or_init(select)
}

/// Name of the active backend (`"avx512"`, `"avx2"` or `"scalar"`).
pub fn active_backend() -> &'static str {
    kernels().name
}

/// Every backend the current host can execute, scalar first. Parity tests
/// and benchmarks iterate this so each SIMD tier is exercised — not just
/// the one the dispatcher would pick. On a VNNI host the avx512 tier is
/// listed twice: `avx512-novnni` with the AVX-512BW screen bodies (what a
/// BW-only host dispatches to) and `avx512` with the VNNI ones. (Tables are
/// returned by value — `Kernels` is `Copy` — because the avx512 entries'
/// i8 kernels depend on the host's feature set.)
pub fn available_backends() -> Vec<Kernels> {
    #[allow(unused_mut)]
    let mut v: Vec<Kernels> = vec![SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_host() {
            v.push(AVX2);
        }
        if avx512_host() {
            if std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                v.push(Kernels {
                    name: "avx512-novnni",
                    ..avx512_table(false)
                });
            }
            v.push(avx512_table(true));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_stable_and_named() {
        let k1 = kernels();
        let k2 = kernels();
        assert_eq!(k1.name, k2.name, "dispatch must be cached");
        assert!(["avx512", "avx2", "scalar"].contains(&k1.name));
    }

    /// Parity tests iterate `available_backends()`; on a VNNI host that
    /// must exercise the BW screen bodies too, not only the dispatched
    /// VNNI ones.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_host_lists_avx512_with_and_without_vnni() {
        let names: Vec<&str> = available_backends().iter().map(|k| k.name).collect();
        assert_eq!(names[0], "scalar");
        let vnni = avx512_host()
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni");
        assert_eq!(names.contains(&"avx512-novnni"), vnni, "{names:?}");
        if vnni {
            assert_eq!(names.last(), Some(&"avx512"));
            let tables = available_backends();
            let [.., bw, widest] = tables.as_slice() else {
                panic!("two avx512 tables expected");
            };
            assert!(bw.dot4_i8 as usize != widest.dot4_i8 as usize);
            assert!(bw.dot_i8 as usize != widest.dot_i8 as usize);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn widest_available_backend_selected() {
        if std::env::var_os("PROMIPS_FORCE_SCALAR").is_some() {
            return;
        }
        if avx512_host() {
            assert_eq!(active_backend(), "avx512");
        } else if avx2_host() {
            assert_eq!(active_backend(), "avx2");
        }
    }
}
