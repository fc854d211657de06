//! Unified observability layer: a process-global lock-free counter
//! registry and per-query stage tracing.
//!
//! The crate is dependency-free and sits *below* the storage/WAL/core/
//! shard crates so every layer can feed the same registry without
//! dependency cycles. Two pieces:
//!
//! - [`Registry`]: a fixed, enum-indexed array of atomic counters. The
//!   hot path is a single relaxed `fetch_add` — no hashing, no locking,
//!   no allocation. A snapshot is a plain value; two of them diff into
//!   the activity between ([`RegistrySnapshot::saturating_diff`]).
//! - [`trace::QueryTrace`]: an opt-in per-query breakdown of where time
//!   went (scan → screen → verify → merge, with per-shard fan-out spans
//!   and prune decisions), returned to the caller with the result. Built
//!   only when the request asks for it.
//!
//! Beside them, [`budget`]: per-query deadlines and cancellation, checked
//! cooperatively inside the scan and verify loops.
//!
//! Stage timing is always on: a query pays a handful of clock reads that
//! fill its per-shard spans (`obs.trace_overhead_frac` in `benchmark/` is
//! the check at scale). Times live only there — in the
//! [`QueryTrace`] a traced request returns — and a shard's overlay debt
//! in its `maintenance_stats()` ledger; the registry counts events.

pub mod budget;
mod metrics;
mod registry;
pub mod trace;

pub use budget::{budget_error, BudgetChecker, BudgetExceeded, CancelToken, QueryBudget};
pub use metrics::Counter;
pub use registry::{CounterId, Registry, RegistrySnapshot};
pub use trace::{QueryTrace, ShardSpan, StageNanos};

use std::sync::OnceLock;
use std::time::Instant;

/// Shorthand for the process-global registry.
pub fn global() -> &'static Registry {
    Registry::global()
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// A `u64` of nanoseconds spans ~584 years, so wrap-around is not a
/// concern; using an in-process epoch keeps the value small and cheap
/// to subtract.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
