//! Lock-free metric primitives: counters, gauges, and log2-bucketed
//! histograms. Every mutation is a single relaxed atomic RMW; snapshots
//! are plain values.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic event counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Const initializer usable in array-repeat position. Every use
    /// copies a fresh zeroed atomic — that is the point; mutate through
    /// a place (array slot, struct field), never through `NEW` itself.
    #[allow(clippy::declare_interior_mutable_const)]
    pub const NEW: Counter = Counter(AtomicU64::new(0));

    pub const fn new() -> Self {
        Self::NEW
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Signed level gauge (rows in delta overlays, live tombstones, ...).
///
/// Gauge discipline across the codebase is strictly incremental
/// (`add`/`sub` per event) rather than recompute-from-snapshot: several
/// index instances — parallel tests, multiple open directories — share
/// the process-global registry, and increments compose where absolute
/// stores would fight.
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Const initializer usable in array-repeat position (see
    /// [`Counter::NEW`]).
    #[allow(clippy::declare_interior_mutable_const)]
    pub const NEW: Gauge = Gauge(AtomicI64::new(0));

    pub const fn new() -> Self {
        Self::NEW
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket count for [`Histogram`]: bucket 0 holds exact zeros and
/// bucket `i >= 1` covers the half-open range `[2^(i-1), 2^i)`, so 64
/// power-of-two buckets plus the zero bucket span all of `u64`.
pub const BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Lock-free histogram over `u64` samples (latencies in ns, batch
/// sizes) with log2 bucketing. Recording is two relaxed `fetch_add`s.
///
/// Log2 buckets trade resolution for a fixed footprint: any quantile
/// estimate lands in the same power-of-two bucket as the exact order
/// statistic, bounding the estimate within a factor of 2 (property-
/// tested in `tests/histogram_prop.rs`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// Const initializer usable in array-repeat position (see
    /// [`Counter::NEW`]).
    #[allow(clippy::declare_interior_mutable_const)]
    pub const NEW: Histogram = {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [Z; BUCKETS],
            sum: AtomicU64::new(0),
        }
    };

    pub const fn new() -> Self {
        Self::NEW
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-value copy of a [`Histogram`]; diffs against an earlier copy,
/// estimates quantiles.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
}

impl HistogramSnapshot {
    pub const EMPTY: HistogramSnapshot = HistogramSnapshot {
        buckets: [0; BUCKETS],
        sum: 0,
    };

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Per-bucket difference against an `earlier` snapshot of the same
    /// histogram: the histogram of exactly the samples recorded between
    /// the two snapshots. Buckets and sums are monotonic, so with
    /// genuinely ordered snapshots no clamping occurs; saturation only
    /// guards against torn non-atomic snapshot pairs.
    pub fn saturating_diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::EMPTY;
        for (dst, (now, was)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *dst = now.saturating_sub(*was);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Estimate the `p`-quantile (`p` in [0, 1]) of the recorded
    /// samples.
    ///
    /// The rank is `k = ceil(p * count)` clamped to at least 1 (so
    /// `p = 0` means the minimum sample and `p = 1` the maximum), the
    /// same convention as the exact "k-th of the sorted samples". The
    /// estimate interpolates linearly by rank within the containing
    /// log2 bucket `[2^(b-1), 2^b)`, so it sits within a factor of 2 of
    /// the exact order statistic and is exact for zero samples.
    /// Returns 0.0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let k = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if cum >= k {
                if b == 0 {
                    return 0.0;
                }
                let lo = (1u128 << (b - 1)) as f64;
                let hi = (1u128 << b) as f64;
                // Rank position of k within this bucket, in (0, 1].
                let frac = (k - (cum - n)) as f64 / n as f64;
                return lo + (hi - lo) * frac;
            }
        }
        unreachable!("k <= count, so some bucket must contain rank k");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantile_within_factor_two() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 100, 100, 2500, 40_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.quantile(0.0), 0.0); // min sample is an exact zero
        let med = s.quantile(0.5); // exact median is 100
        assert!((50.0..=200.0).contains(&med), "median estimate {med}");
        let max = s.quantile(1.0); // exact max is 40_000
        assert!((20_000.0..=80_000.0).contains(&max), "max estimate {max}");
        assert_eq!(s.sum, 42_704);
    }

    #[test]
    fn diff_recovers_the_between_snapshot_samples() {
        let h = Histogram::new();
        h.record(5);
        h.record(900);
        let before = h.snapshot();
        h.record(7);
        h.record(7);
        let after = h.snapshot();
        let delta = after.saturating_diff(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 14);
        assert_eq!(delta.buckets[bucket_of(7)], 2);
        // Diffing in the wrong order saturates instead of wrapping.
        let wrong = before.saturating_diff(&after);
        assert_eq!(wrong.count(), 0);
        assert_eq!(wrong.sum, 0);
    }
}
