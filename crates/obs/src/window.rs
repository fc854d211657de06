//! Windowed metrics: a ring of per-interval [`RegistrySnapshot`] deltas
//! turning the registry's since-process-start totals into *rates* and
//! *sliding-window quantiles* — the numbers a serving layer actually
//! puts on a dashboard (instantaneous QPS, p99 over the last 10 s).
//!
//! Each [`MetricsWindow::tick`] snapshots a registry, subtracts the
//! previous snapshot ([`RegistrySnapshot::saturating_diff`]), and pushes
//! the per-interval delta into a bounded ring. A windowed view over any
//! horizon is then just the associative merge of the newest intervals
//! that cover it — counters and histogram buckets add, gauges keep the
//! newest level. Because the deltas reuse the registry's mergeable
//! snapshot type, windowed quantiles carry exactly the same factor-of-2
//! log2-bucket guarantee as the cumulative ones (property-tested in
//! `tests/window_prop.rs`).
//!
//! Ticking is driven either manually (tests, embedders with their own
//! scheduler) or by the optional background [`Aggregator`] thread, which
//! ticks the process-global registry into [`MetricsWindow::global`]'s
//! window once per interval. A tick costs one registry snapshot plus a fixed-size
//! subtraction — roughly a microsecond (measured by the
//! `windowed_metrics` bench section) — so a 1 s cadence is far below
//! the `obs_overhead` noise floor.

use crate::registry::{CounterId, HistoId, Registry, RegistrySnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One-second horizon, in nanoseconds.
pub const HORIZON_1S: u64 = 1_000_000_000;
/// Ten-second horizon.
pub const HORIZON_10S: u64 = 10 * HORIZON_1S;
/// Sixty-second horizon.
pub const HORIZON_60S: u64 = 60 * HORIZON_1S;

/// Default ring capacity: 64 one-second intervals comfortably cover the
/// 60 s horizon with slack for scrape jitter.
pub const DEFAULT_INTERVALS: usize = 64;

/// Default aggregator cadence.
pub const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);

/// One completed interval: the activity between two consecutive ticks.
#[derive(Clone, Debug)]
struct Interval {
    /// Wall time the interval spans (tick-to-tick), for rate math.
    elapsed_ns: u64,
    /// Counter/histogram activity within the interval; gauge levels at
    /// its end.
    delta: RegistrySnapshot,
}

#[derive(Debug, Default)]
struct State {
    /// Cumulative snapshot and timestamp of the previous tick; `None`
    /// until the first tick establishes the baseline.
    last: Option<(u64, RegistrySnapshot)>,
    /// Completed intervals, oldest at the front.
    ring: VecDeque<Interval>,
}

/// A bounded ring of per-interval registry deltas with sliding-window
/// views. All methods take `&self`; the ring is guarded by a mutex that
/// is only touched at tick/query cadence, never on the metric hot path.
#[derive(Debug)]
pub struct MetricsWindow {
    capacity: usize,
    state: Mutex<State>,
}

impl MetricsWindow {
    /// An empty window retaining up to [`DEFAULT_INTERVALS`] intervals.
    pub const fn new() -> Self {
        Self::with_capacity(DEFAULT_INTERVALS)
    }

    /// An empty window retaining up to `capacity` completed intervals
    /// (clamped to at least 1).
    pub const fn with_capacity(capacity: usize) -> Self {
        MetricsWindow {
            capacity: if capacity == 0 { 1 } else { capacity },
            state: Mutex::new(State {
                last: None,
                ring: VecDeque::new(),
            }),
        }
    }

    /// The process-global window, fed by [`Aggregator`] threads started
    /// via [`start_aggregator`] and read by health/exposition code.
    pub fn global() -> &'static MetricsWindow {
        static GLOBAL: MetricsWindow = MetricsWindow::new();
        &GLOBAL
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoning panic can only come from a caller's assertion
        // failure mid-test; the state itself is always consistent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot `reg` now and close the current interval.
    pub fn tick(&self, reg: &Registry) {
        self.tick_at(reg.snapshot(), crate::now_ns());
    }

    /// Deterministic core of [`tick`]: close the interval ending at
    /// `now_ns` with cumulative snapshot `snap`. The first call only
    /// records the baseline; a call with a non-advancing clock is
    /// folded into a zero-length interval rather than dropped, so
    /// counters are never lost.
    ///
    /// [`tick`]: MetricsWindow::tick
    pub fn tick_at(&self, snap: RegistrySnapshot, now_ns: u64) {
        let mut st = self.lock();
        match st.last.take() {
            None => st.last = Some((now_ns, snap)),
            Some((was_ns, was)) => {
                let delta = snap.saturating_diff(&was);
                st.ring.push_back(Interval {
                    elapsed_ns: now_ns.saturating_sub(was_ns),
                    delta,
                });
                while st.ring.len() > self.capacity {
                    st.ring.pop_front();
                }
                st.last = Some((now_ns, snap));
            }
        }
    }

    /// Number of completed intervals currently retained.
    pub fn intervals(&self) -> usize {
        self.lock().ring.len()
    }

    /// Drop every retained interval *and* the baseline, as if freshly
    /// constructed.
    pub fn clear(&self) {
        let mut st = self.lock();
        st.ring.clear();
        st.last = None;
    }

    /// Sliding view over (at least) the last `horizon_ns` of activity:
    /// the merge of the newest intervals whose spans cover the horizon.
    ///
    /// A horizon shorter than one interval returns just the newest
    /// interval — the finest resolution the ring has. With no completed
    /// intervals the view is empty (zero elapsed time, zero activity).
    pub fn window(&self, horizon_ns: u64) -> WindowedSnapshot {
        let st = self.lock();
        let mut covered = 0u64;
        let mut merged: Option<RegistrySnapshot> = None;
        let mut used = 0usize;
        for iv in st.ring.iter().rev() {
            if used > 0 && covered >= horizon_ns {
                break;
            }
            match merged.as_mut() {
                // The newest interval seeds the view, so its gauge
                // levels — the freshest — are the ones reported.
                None => merged = Some(iv.delta.clone()),
                Some(m) => {
                    for (dst, src) in m.counters.iter_mut().zip(&iv.delta.counters) {
                        *dst += src;
                    }
                    for (dst, src) in m.histograms.iter_mut().zip(&iv.delta.histograms) {
                        dst.merge(src);
                    }
                }
            }
            covered += iv.elapsed_ns;
            used += 1;
        }
        WindowedSnapshot {
            snapshot: merged.unwrap_or(RegistrySnapshot::ZERO),
            elapsed_ns: covered,
            intervals: used,
        }
    }
}

impl Default for MetricsWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// A merged view over the newest intervals covering one horizon.
#[derive(Clone, Debug)]
pub struct WindowedSnapshot {
    /// Counter/histogram activity within the window; gauge levels from
    /// its newest interval.
    pub snapshot: RegistrySnapshot,
    /// Actual wall time the merged intervals span (can exceed the
    /// requested horizon by up to one interval, or fall short when the
    /// ring has not yet filled).
    pub elapsed_ns: u64,
    /// How many intervals were merged.
    pub intervals: usize,
}

impl WindowedSnapshot {
    /// Events of `id` within the window.
    pub fn count(&self, id: CounterId) -> u64 {
        self.snapshot.counter(id)
    }

    /// Events of `id` per second over the window's actual span; 0.0 for
    /// an empty window.
    pub fn rate_per_sec(&self, id: CounterId) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.snapshot.counter(id) as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    /// The `p`-quantile of histogram `id` over the window's samples
    /// (same factor-of-2 estimate as the cumulative histogram).
    pub fn quantile(&self, id: HistoId, p: f64) -> f64 {
        self.snapshot.histogram(id).quantile(p)
    }
}

/// Handle to the background aggregator thread; stops and joins it on
/// drop (or explicitly via [`Aggregator::stop`]).
#[derive(Debug)]
pub struct Aggregator {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Aggregator {
    /// Signal the thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a background thread ticking `reg` into `window` every
/// `interval`. The thread sleeps in short slices so dropping the
/// returned handle stops it promptly, and it performs one final tick on
/// shutdown so no tail activity is lost.
pub fn start_aggregator(
    window: &'static MetricsWindow,
    reg: &'static Registry,
    interval: Duration,
) -> std::io::Result<Aggregator> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("promips-metrics-window".into())
        .spawn(move || {
            const SLICE: Duration = Duration::from_millis(10);
            window.tick(reg); // establish the baseline immediately
            'outer: loop {
                let mut remaining = interval;
                while !remaining.is_zero() {
                    if stop_flag.load(Ordering::Acquire) {
                        break 'outer;
                    }
                    let nap = remaining.min(SLICE);
                    std::thread::sleep(nap);
                    remaining = remaining.saturating_sub(nap);
                }
                window.tick(reg);
            }
            window.tick(reg);
        })?;
    Ok(Aggregator {
        stop,
        handle: Some(handle),
    })
}

/// [`start_aggregator`] wired to the process globals: the global
/// registry into the global window.
pub fn start_global_aggregator(interval: Duration) -> std::io::Result<Aggregator> {
    start_aggregator(MetricsWindow::global(), Registry::global(), interval)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(queries: u64, latencies: &[u64]) -> RegistrySnapshot {
        let r = Registry::new();
        r.counter(CounterId::Queries).add(queries);
        for &v in latencies {
            r.histogram(HistoId::QueryLatencyNs).record(v);
        }
        r.snapshot()
    }

    #[test]
    fn first_tick_is_baseline_only() {
        let w = MetricsWindow::new();
        w.tick_at(snap_with(100, &[]), HORIZON_1S);
        assert_eq!(w.intervals(), 0);
        let view = w.window(HORIZON_60S);
        assert_eq!(view.intervals, 0);
        assert_eq!(view.elapsed_ns, 0);
        assert_eq!(view.rate_per_sec(CounterId::Queries), 0.0);
    }

    #[test]
    fn rates_come_from_interval_deltas_not_totals() {
        let w = MetricsWindow::new();
        // Baseline at t=0 with 1000 historical queries: the window must
        // never see them.
        w.tick_at(snap_with(1000, &[]), 0);
        w.tick_at(snap_with(1250, &[]), HORIZON_1S);
        w.tick_at(snap_with(1350, &[]), 2 * HORIZON_1S);
        let one = w.window(HORIZON_1S);
        assert_eq!(one.intervals, 1);
        assert_eq!(one.count(CounterId::Queries), 100);
        assert!((one.rate_per_sec(CounterId::Queries) - 100.0).abs() < 1e-9);
        let both = w.window(2 * HORIZON_1S);
        assert_eq!(both.intervals, 2);
        assert_eq!(both.count(CounterId::Queries), 350);
        assert!((both.rate_per_sec(CounterId::Queries) - 175.0).abs() < 1e-9);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let w = MetricsWindow::with_capacity(3);
        let mut total = 0;
        w.tick_at(snap_with(0, &[]), 0);
        for i in 1..=10u64 {
            total += i;
            w.tick_at(snap_with(total, &[]), i * HORIZON_1S);
        }
        assert_eq!(w.intervals(), 3);
        // Only the last three intervals (deltas 8, 9, 10) survive.
        let view = w.window(3 * HORIZON_1S);
        assert_eq!(view.count(CounterId::Queries), 27);
    }

    #[test]
    fn windowed_quantiles_merge_interval_histograms() {
        let w = MetricsWindow::new();
        let r = Registry::new();
        w.tick_at(r.snapshot(), 0);
        r.histogram(HistoId::QueryLatencyNs).record(100);
        w.tick_at(r.snapshot(), HORIZON_1S);
        for _ in 0..99 {
            r.histogram(HistoId::QueryLatencyNs).record(100_000);
        }
        w.tick_at(r.snapshot(), 2 * HORIZON_1S);
        // Newest interval alone: all samples are 100_000.
        let newest = w.window(HORIZON_1S);
        assert!(newest.quantile(HistoId::QueryLatencyNs, 0.5) >= 50_000.0);
        // Across both intervals the single 100 ns sample is the minimum.
        let both = w.window(2 * HORIZON_1S);
        assert_eq!(
            both.snapshot.histogram(HistoId::QueryLatencyNs).count(),
            100
        );
        assert!(both.quantile(HistoId::QueryLatencyNs, 0.0) <= 200.0);
        assert!(both.quantile(HistoId::QueryLatencyNs, 0.99) >= 50_000.0);
    }

    #[test]
    fn aggregator_thread_ticks_and_stops() {
        // Uses the global registry/window: serialized against nothing
        // else in this file, and only checks its own monotone effects.
        let agg = start_global_aggregator(Duration::from_millis(20)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while MetricsWindow::global().intervals() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "aggregator never completed an interval"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        agg.stop();
        let after = MetricsWindow::global().intervals();
        assert!(after >= 1);
        // Stopped means stopped: no further intervals appear.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(MetricsWindow::global().intervals(), after);
    }
}
