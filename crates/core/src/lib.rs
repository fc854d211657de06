//! # ProMIPS core
//!
//! The paper's primary contribution: probability-guaranteed c-approximate
//! maximum inner product search (c-AMIP) over high-dimensional data with a
//! lightweight index.
//!
//! The pipeline (paper Fig. 2):
//!
//! **Pre-process** —
//! 1. choose the projected dimension `m` (Section V-B, [`optimize`]);
//! 2. draw an `m × d` 2-stable (Gaussian) projection ([`projection`]) and
//!    project every point;
//! 3. in one pass over the rows take each point's `‖o‖₁` and the dataset's
//!    `max ‖o‖²`, and keep one Quick-Probe representative per sign binary
//!    code ([`binary`], [`quickprobe`]) — nothing per row outlives the
//!    build;
//! 4. build the iDistance index over the projected points, storing projected
//!    and original vectors in sub-partition order on disk.
//!
//! **Search** (given query `q`, ratio `c`, probability `p`, result size `k`) —
//! 1. Quick-Probe locates a point likely to satisfy Condition B and its
//!    projected distance becomes the searching range `r` (Algorithm 2);
//! 2. a single iDistance range search collects candidates within `r`;
//!    candidates are verified by their exact inner products in the original
//!    space, with the free-to-evaluate Condition A tested as verification
//!    proceeds (Algorithm 3);
//! 3. if Condition B is still unsatisfied at radius `r`, the range is
//!    extended once to `r' = sqrt(Ψm⁻¹(p)·(‖oM‖² + ‖q‖² − 2⟨omax,q⟩/c))`
//!    (compensation), guaranteeing the c-AMIP result with probability ≥ p.
//!
//! [`ProMips::execute`] is that search: one request value
//! ([`Query`]: vector, `k`, and the tombstone mask / budget / span a
//! per-shard caller attaches) in, one [`SearchResult`] out.
//! [`ProMips::search`] and [`ProMips::search_with_scratch`] are its plain
//! forms. [`ProMips::search_incremental`] implements the pre-Quick-Probe
//! MIP-Search-I (Algorithm 1) for the ablation study.
//!
//! A built index is immutable. Inserts, deletes and compaction live in the
//! shard layer (`promips_shard`), whose overlay reaches a query only as
//! the request's tombstone mask.

pub mod binary;
pub mod conditions;
pub mod config;
pub mod error;
pub mod index;
pub mod maintenance;
pub mod optimize;
pub mod persist;
pub mod projection;
pub mod quickprobe;
pub mod result;
pub mod screen;
pub mod search;

pub use config::{ProMipsConfig, ProMipsConfigBuilder};
pub use error::MutationError;
pub use index::ProMips;
pub use optimize::optimized_projection_dim;
pub use result::{SearchItem, SearchResult, TopK};
pub use search::{Query, SearchScratch};
