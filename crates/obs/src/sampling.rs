//! Always-on sampled tracing: a deterministic, counter-based 1-in-N
//! decision that routes ordinary (untraced) searches through the
//! [`crate::trace::QueryTrace`] machinery so the slow-query log keeps
//! seeing real exemplars without the caller opting in per query.
//!
//! The decision is one relaxed `fetch_add` on a process-global counter
//! — no RNG, no wall clock — so test runs are exactly reproducible:
//! every N-th arrival samples, whatever thread it lands on. The sampled
//! query pays the normal tracing cost (one allocation, a handful of
//! clock reads); the other N-1 pay a single atomic increment, which is
//! why the default stays inside the 2% bar (`obs.trace_overhead_frac`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Default cadence: every 64th untraced search is traced.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_EVERY);
static ARRIVALS: AtomicU64 = AtomicU64::new(0);

/// Set the sampling cadence: every `n`-th untraced search is traced.
/// `0` disables sampling entirely (the arrival counter stops ticking).
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// Current cadence (0 = disabled).
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Count one arrival and decide: `true` exactly once every
/// [`sample_every`] calls. Disabled sampling costs one relaxed load.
#[inline]
pub fn should_sample() -> bool {
    let n = SAMPLE_EVERY.load(Ordering::Relaxed);
    if n == 0 {
        return false;
    }
    ARRIVALS.fetch_add(1, Ordering::Relaxed).is_multiple_of(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The arrival counter is process-global: serialize tests touching it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn cadence_is_exactly_one_in_n() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = sample_every();
        set_sample_every(4);
        // The global counter's phase is arbitrary (other tests may have
        // ticked it), but the cadence is exact: over any 16 consecutive
        // arrivals exactly 4 sample, spaced exactly 4 apart.
        let hits: Vec<usize> = (0..16usize).filter(|_| should_sample()).collect();
        assert_eq!(hits.len(), 4, "1-in-4 over 16 arrivals, got {hits:?}");
        assert!(
            hits.windows(2).all(|w| w[1] - w[0] == 4),
            "sampling drifted: {hits:?}"
        );
        set_sample_every(was);
    }

    #[test]
    fn zero_disables_sampling() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = sample_every();
        set_sample_every(0);
        assert!((0..100).all(|_| !should_sample()));
        set_sample_every(1);
        assert!((0..10).all(|_| should_sample()), "1 means every query");
        set_sample_every(was);
    }
}
