//! Page-based storage layer for the ProMIPS reproduction.
//!
//! The paper's evaluation is disk-resident: index pages (B+-tree nodes) and
//! data pages (sub-partition point payloads) live in page-sized blocks, and
//! the key efficiency metric — **Page Access** (Fig. 7) — is the number of
//! pages touched while answering a query. This crate provides:
//!
//! * [`page`]: page identifiers and a fixed-size page buffer;
//! * [`pager`]: the [`pager::Storage`] trait with file-backed and in-memory
//!   implementations;
//! * [`buffer`]: a lock-striped second-chance buffer pool (the paper relies
//!   on OS buffering; we model it explicitly so cold/warm behaviour is
//!   measurable, and stripe it so parallel query workers don't convoy on
//!   one cache mutex);
//! * [`metrics`]: shared logical/physical access counters.
//!
//! Page sizes follow the paper: 4 KB for Netflix/Yahoo/Sift-like data and
//! 64 KB for the very high-dimensional P53-like data.

pub mod buffer;
pub mod durability;
pub mod metrics;
pub mod page;
pub mod pager;

pub use buffer::{BufferPool, DEFAULT_SHARDS};
pub use durability::{faults, fsync_dir, retry, write_file_atomic};
pub use metrics::{AccessStats, AccessStatsSnapshot};
pub use page::{PageBuf, PageId, PAGE_SIZE_DEFAULT, PAGE_SIZE_LARGE};
pub use pager::{FileStorage, MemStorage, Pager, Storage};
