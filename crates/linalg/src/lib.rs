//! Dense linear-algebra kernels used across the ProMIPS reproduction.
//!
//! Data vectors are stored as `f32` (halving the memory footprint and disk
//! pages relative to `f64`, which matters for the paper's Page Access
//! metric), while every reduction — inner products, norms, distances — is
//! accumulated in `f64` so the searching conditions of the paper keep full
//! precision.
//!
//! Kernels are **runtime-dispatched**: x86-64 hosts get the widest explicit
//! SIMD tier they support (AVX-512F with AVX2 and FMA — `avx512`'s bodies
//! where they measure ahead, `x86`'s elsewhere — else AVX2+FMA in `x86`);
//! everywhere else the portable [`scalar`] versions run. The
//! choice is made once per process and cached ([`dispatch`]);
//! `PROMIPS_FORCE_SCALAR=1` pins the fallback. See [`dispatch`] for the
//! cross-backend numerical tolerance contract.

pub mod dispatch;
pub mod matrix;
pub mod scalar;
pub mod subspace;
pub mod sweep;
pub mod vector;

#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use dispatch::{active_backend, kernels, Kernels};
pub use matrix::Matrix;
pub use vector::{
    dist, dot, dot4, dot4_i8, dot_col_i8, dot_i8, max_i32, max_i32_runs, max_scaled_sum,
    nearest_col, norm1, norm2, sq_dist, sq_dist4, sq_dist_col, sq_norm2, sub,
};
