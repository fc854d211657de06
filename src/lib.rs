//! # ProMIPS
//!
//! A complete Rust reproduction of *"ProMIPS: Efficient High-Dimensional
//! c-Approximate Maximum Inner Product Search with a Lightweight Index"*
//! (Song, Gu, Zhang, Yu — ICDE 2021).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`core`] — the ProMIPS algorithm: 2-stable random projections, the
//!   probability-guaranteed searching conditions, Quick-Probe, and the
//!   end-to-end index.
//! * [`shard`] — horizontal scaling: norm-range partitioned shards, each
//!   with its own storage file and index, searched by a pruned parallel
//!   fan-out; durably writable through per-shard write-ahead logs with
//!   crash-safe compaction and re-partitioning.
//! * [`wal`] — the append-only per-shard write-ahead log (checksummed
//!   records, group commit, torn-tail recovery).
//! * [`idistance`] — the lightweight iDistance index with the paper's ring
//!   partition pattern.
//! * [`btree`], [`storage`] — the disk substrate (single B+-tree over a
//!   paged file with access accounting).
//! * [`obs`] — the unified observability layer: a process-global
//!   lock-free counter registry fed by every layer above, and per-query
//!   stage tracing.
//! * [`baselines`] — H2-ALSH, Norm-Ranging LSH, PQ-based search and the
//!   exact scanner used for ground truth.
//! * [`data`] — synthetic stand-ins for the paper's four datasets.
//! * [`stats`], [`linalg`], [`cluster`] — numeric substrates.
//!
//! ## Quickstart
//!
//! ```
//! use promips::core::{ProMips, ProMipsConfig};
//! use promips::linalg::Matrix;
//!
//! // 1000 random 32-d points.
//! let mut rng = promips::stats::Xoshiro256pp::seed_from_u64(1);
//! let data = Matrix::from_rows(
//!     32,
//!     (0..1000).map(|_| (0..32).map(|_| rng.normal() as f32).collect()),
//! );
//!
//! // Build a ProMIPS index with approximation ratio c = 0.9 and
//! // guarantee probability p = 0.5.
//! let config = ProMipsConfig::builder().c(0.9).p(0.5).seed(7).build();
//! let index = ProMips::build_in_memory(&data, config).unwrap();
//!
//! // Top-10 c-approximate maximum inner product search.
//! let query: Vec<f32> = (0..32).map(|_| rng.normal() as f32).collect();
//! let result = index.search(&query, 10).unwrap();
//! assert_eq!(result.items.len(), 10);
//! ```
//!
//! `search` is the plain form of the one search path, `execute`: a
//! request value ([`core::Query`], [`shard::ShardedQuery`]) carries every
//! option — tombstone mask, budget, span; worker count, budget, trace —
//! and each layer has one `execute` that runs it.
//!
//! ## Scaling out
//!
//! ```
//! use promips::shard::{ShardedConfig, ShardedProMips};
//! # use promips::linalg::Matrix;
//! # let mut rng = promips::stats::Xoshiro256pp::seed_from_u64(1);
//! # let data = Matrix::from_rows(
//! #     32,
//! #     (0..1000).map(|_| (0..32).map(|_| rng.normal() as f32).collect()),
//! # );
//!
//! // Four norm-range shards, each with its own storage + index; queries
//! // fan out in parallel and low-norm shards are pruned by an exact
//! // Cauchy–Schwarz bound.
//! let config = ShardedConfig::builder().shards(4).build();
//! let sharded = ShardedProMips::build_in_memory(&data, config).unwrap();
//! let query: Vec<f32> = (0..32).map(|_| rng.normal() as f32).collect();
//! let top10 = sharded.search(&query, 10).unwrap();
//! assert_eq!(top10.items.len(), 10);
//! ```
//!
//! ## Mutating durably
//!
//! A built [`core::ProMips`] is immutable; inserts, deletes and compaction
//! live in the shard layer only (a one-shard index is bit-identical to the
//! unsharded one).
//!
//! ```no_run
//! use promips::shard::{ShardedConfig, ShardedProMips};
//! # use promips::linalg::Matrix;
//! # let mut rng = promips::stats::Xoshiro256pp::seed_from_u64(1);
//! # let data = Matrix::from_rows(
//! #     32,
//! #     (0..1000).map(|_| (0..32).map(|_| rng.normal() as f32).collect()),
//! # );
//!
//! // A directory-backed index logs every mutation to a per-shard WAL
//! // before applying it; reopening replays the log, so nothing
//! // acknowledged is lost on a crash.
//! let config = ShardedConfig::builder().shards(4).build();
//! let index = ShardedProMips::build_in_dir(&data, config, "idx").unwrap();
//! let v: Vec<f32> = (0..32).map(|_| rng.normal() as f32).collect();
//! let gid = index.insert(&v).unwrap(); // searchable immediately, durable
//! index.delete(gid).unwrap();
//! index.compact().unwrap(); // fold deltas per the CompactionPolicy
//! drop(index);
//! let reopened = ShardedProMips::open("idx").unwrap(); // replays the WAL
//! # let _ = reopened;
//! ```

pub use promips_baselines as baselines;
pub use promips_btree as btree;
pub use promips_cluster as cluster;
pub use promips_core as core;
pub use promips_data as data;
pub use promips_idistance as idistance;
pub use promips_linalg as linalg;
pub use promips_obs as obs;
pub use promips_shard as shard;
pub use promips_stats as stats;
pub use promips_storage as storage;
pub use promips_wal as wal;
