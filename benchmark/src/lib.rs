//! The repository's benchmark: four long, deterministic workloads over
//! the public API of the `promips` crates, ten end-to-end metrics from
//! untraced runs and a per-layer traced run. See `README.md`.

pub mod churn;
pub mod harness;
pub mod inputs;
pub mod layers;
pub mod passes;
pub mod quality;
pub mod readonly;
pub mod report;
pub mod sharded;
pub mod single;
pub mod spec;
pub mod workload;
