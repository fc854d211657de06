//! Access accounting: the measurement behind the paper's Page Access metric.
//!
//! Each pager carries its own [`AccessStats`] (resettable, per-instance —
//! the per-query view the bench harness diffs); every record additionally
//! feeds the process-global metrics registry ([`CounterId::PageReads`],
//! [`CounterId::PageCacheMisses`], [`CounterId::PageWrites`]), so
//! aggregate page traffic shows up in a [`Registry::snapshot`] without
//! touching the per-pager API.

use promips_obs::{CounterId, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe page-access counters.
///
/// * `logical_reads` — every page fetched through a [`crate::Pager`],
///   whether or not it was cached. This matches the paper's "number of disk
///   pages to be accessed during the searching process" (their Java
///   implementation counts page fetches and leaves caching to the OS).
/// * `cache_misses` — reads that went to the backing storage, reported
///   separately so cold-cache (physical) I/O can also be studied. Hits are
///   not counted — a hit is the pager's hot path — but derived at snapshot
///   time as `logical_reads − cache_misses`.
/// * `writes` — pages written (pre-processing cost).
#[derive(Debug, Default)]
pub struct AccessStats {
    logical_reads: AtomicU64,
    cache_misses: AtomicU64,
    writes: AtomicU64,
}

impl AccessStats {
    /// Creates a fresh, shareable counter set.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Counts `n` logical reads with one add on each shared counter.
    #[inline]
    pub(crate) fn record_reads(&self, n: u64) {
        self.logical_reads.fetch_add(n, Ordering::Relaxed);
        Registry::global().counter(CounterId::PageReads).add(n);
    }

    /// Counts `n` cache misses, as [`Self::record_reads`] does reads.
    #[inline]
    pub(crate) fn record_misses(&self, n: u64) {
        self.cache_misses.fetch_add(n, Ordering::Relaxed);
        Registry::global()
            .counter(CounterId::PageCacheMisses)
            .add(n);
    }

    #[inline]
    pub(crate) fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        Registry::global().counter(CounterId::PageWrites).inc();
    }

    /// Reads all counters (each on its own, not atomically across them).
    pub fn snapshot(&self) -> AccessStatsSnapshot {
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        let logical_reads = self.logical_reads.load(Ordering::Relaxed);
        AccessStatsSnapshot {
            logical_reads,
            cache_hits: logical_reads.saturating_sub(cache_misses),
            cache_misses,
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero (called between queries when measuring
    /// per-query page accesses).
    pub fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`AccessStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStatsSnapshot {
    /// Pages fetched through the pager (the paper's Page Access).
    pub logical_reads: u64,
    /// Fetches served by the buffer pool.
    pub cache_hits: u64,
    /// Fetches that had to go to the backing storage.
    pub cache_misses: u64,
    /// Pages written.
    pub writes: u64,
}

impl AccessStatsSnapshot {
    /// Difference of two snapshots (self − earlier), for per-query deltas.
    pub fn delta_since(&self, earlier: &AccessStatsSnapshot) -> AccessStatsSnapshot {
        let logical_reads = self.logical_reads - earlier.logical_reads;
        let cache_misses = self.cache_misses - earlier.cache_misses;
        AccessStatsSnapshot {
            logical_reads,
            // Re-derived, not subtracted: a snapshot taken between a read's
            // two counts is one hit high, and the difference could go below
            // zero.
            cache_hits: logical_reads.saturating_sub(cache_misses),
            cache_misses,
            writes: self.writes - earlier.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = AccessStats::new_shared();
        s.record_reads(2);
        s.record_misses(1);
        s.record_write();
        let snap = s.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.writes, 1);
        s.reset();
        assert_eq!(s.snapshot(), AccessStatsSnapshot::default());
    }

    #[test]
    fn delta_between_snapshots() {
        let s = AccessStats::new_shared();
        s.record_reads(1);
        let a = s.snapshot();
        s.record_reads(2);
        let b = s.snapshot();
        assert_eq!(b.delta_since(&a).logical_reads, 2);
    }

    #[test]
    fn concurrent_updates() {
        let s = AccessStats::new_shared();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_reads(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().logical_reads, 4000);
    }
}
