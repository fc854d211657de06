//! Experiment harness for the ProMIPS reproduction.
//!
//! Every table and figure of the paper's Section VIII maps to one bench
//! target in `benches/` named after it, beside three `ablation_*` targets.
//! This library holds the shared machinery: scaled workloads, method
//! builders, accuracy metrics, the k-sweep runner, and table/CSV reporting.
//!
//! ## Environment knobs
//!
//! | variable | default | effect |
//! |---|---|---|
//! | `PROMIPS_SCALE` | `0.1` | fraction of each paper dataset's `n` |
//! | `PROMIPS_QUERIES` | `100` | queries per dataset (paper: 100) |
//! | `PROMIPS_KS` | `10,20,...,100` | the k sweep |
//! | `PROMIPS_PAGE_US` | `100` | disk model: µs charged per page access when deriving Total Time |
//! | `PROMIPS_DATASETS` | all | comma list among `netflix,yahoo,p53,sift` |

pub mod config;
pub mod methods;
pub mod metrics;
pub mod report;
pub mod sweep;
pub mod workload;

pub use config::BenchConfig;
pub use methods::{build_all_methods, BuiltMethod};
pub use report::{write_csv, Table};
pub use sweep::{run_sweep, SweepRow};
pub use workload::Workload;
