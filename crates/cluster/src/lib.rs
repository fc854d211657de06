//! k-means clustering.
//!
//! iDistance's partition pattern (Section VI of the ProMIPS paper) is a
//! two-stage clustering: `kp`-means over the projected points yields the
//! partitions, and within every ring the point set is further divided into
//! `ksp` sub-partitions by another k-means. The PQ-based baseline reuses the
//! same Lloyd iterations for its coarse quantizer and sub-space codebooks.

pub mod kmeans;
mod seed;

pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
