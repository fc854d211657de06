//! # Sharded ProMIPS
//!
//! A horizontal scaling layer over [`promips_core::ProMips`]: the dataset
//! is partitioned into `N` shards, each owning its **own storage file,
//! pager, and ProMIPS/iDistance index**, and queries fan out across shards
//! in parallel. The single-index code path is reused per shard, untouched.
//!
//! Two pieces of related work shape the design:
//!
//! * **Norm-Range Partition** (Yan et al., NeurIPS 2018, arXiv:1810.09104)
//!   — partitioning a MIPS dataset by vector norm concentrates likely
//!   winners in the high-norm shards and hands every shard a Cauchy–Schwarz
//!   inner-product bound `‖q‖₂ · max_norm(shard)`. The fan-out search
//!   probes the highest-norm shard first, then **prunes** every shard whose
//!   bound cannot beat the k-th inner product already verified — an exact
//!   optimization that never changes the returned top-k.
//! * **"To Index or Not to Index"** (Abuzaid et al., arXiv:1706.01449) —
//!   where an index cannot prune, scan. Each shard's ProMIPS index makes
//!   that choice per query: a query whose Quick-Probe ball covers enough
//!   of the shard's rows is answered by one pass over its code column,
//!   which is what a small shard's queries get — so a shard is an index or,
//!   while it holds no rows, nothing.
//!
//! ```
//! use promips_shard::{ShardedConfig, ShardedProMips};
//! use promips_linalg::Matrix;
//!
//! let mut rng = promips_stats::Xoshiro256pp::seed_from_u64(1);
//! let data = Matrix::from_rows(
//!     16,
//!     (0..1200).map(|_| (0..16).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
//! );
//! let config = ShardedConfig::builder().shards(4).build();
//! let index = ShardedProMips::build_in_memory(&data, config).unwrap();
//!
//! let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
//! let res = index.search(&q, 10).unwrap();
//! assert_eq!(res.items.len(), 10);
//! assert_eq!(index.maintenance_stats().len(), 4);
//! ```
//!
//! A one-shard [`ShardedProMips`] returns **bit-identical** results to the
//! unsharded [`promips_core::ProMips`] built from the same
//! [`promips_core::ProMipsConfig`] — the compatibility contract the tests
//! pin down, and what makes it the way to mutate an index: a built
//! `ProMips` is immutable, and inserts, deletes and compaction exist only
//! in this layer's overlay.

pub mod compaction;
pub mod config;
pub mod error;
pub mod index;
pub mod mutation;
mod partition;
pub mod persist;
pub mod result;
pub mod search;

pub use compaction::{CompactionPolicy, CompactionReport};
pub use config::{ShardedConfig, ShardedConfigBuilder};
pub use error::{QueryError, ShardError, ShardErrorKind};
pub use index::{Shard, ShardedProMips};
// Budgets are built by callers and attached to a `ShardedQuery`; re-export
// them so callers don't need a direct `promips_obs` dependency.
pub use promips_obs::{CancelToken, QueryBudget};
// Mutations report typed refusals; re-export the error so callers don't
// need a direct `promips_core` dependency to match on it.
pub use promips_core::MutationError;
pub use result::{CompactionOutcome, ShardMaintenance, ShardedSearchResult};
pub use search::{ShardedQuery, ShardedScratch};
// The WAL group-commit knob appears in `ShardedConfig`; re-export it so
// callers don't need a direct `promips_wal` dependency.
pub use promips_wal::SyncPolicy;

// The public-API tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/lib_api/mod.rs"]
mod tests;
