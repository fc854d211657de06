//! The lightweight iDistance index with ProMIPS's partition pattern.
//!
//! Standard iDistance (Jagadish et al., TODS 2005) partitions space around
//! reference points and maps every point to the one-dimensional key
//! `i·C + dis(p, Oi)`, indexed by a B+-tree. Section VI of the ProMIPS paper
//! refines this with a **two-stage pattern**:
//!
//! 1. `kp`-means clusters the projected points into partitions with centers
//!    `Oi` and radii `ri`;
//! 2. each partition is cut into `Nkey` rings of width `ε = r_avg / Nkey`,
//!    and a point's key is `I(p) = ⌊i·C + dis(p, Oi)/ε⌋` (Formula 6);
//! 3. the points of each ring are further clustered into `ksp`
//!    **sub-partitions** via k-means; each sub-partition keeps a pivot and a
//!    radius and its points are laid out **contiguously on disk**, so a
//!    range query can discard whole sub-partitions with one sphere test and
//!    read surviving ones sequentially.
//!
//! The index stores the projected (m-dim) vectors and the original (d-dim)
//! vectors in parallel blobs in sub-partition order, all inside one paged
//! file together with the single B+-tree — the paper's "lightweight index".
//!
//! Two search primitives are exposed:
//! * [`IDistanceIndex::range_candidates`] — annulus range search in the
//!   projected space (drives MIP-Search-II / Quick-Probe);
//! * [`IDistanceIndex::nn_iter`] — exact incremental nearest-neighbour
//!   iteration, best-first over sub-partition bounds (drives MIP-Search-I).

pub mod build;
pub mod config;
pub mod index;
pub mod knn;
pub mod layout;
pub mod meta;

pub use build::build_index;
pub use config::IDistanceConfig;
pub use index::{
    footer_span_pages, IDistanceIndex, IdCursor, OrigCursor, ProjScratch, RangeCandidate,
};
pub use knn::NnIter;
