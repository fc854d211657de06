//! Slow-query capture: a bounded, process-global log retaining the N
//! worst queries whose end-to-end latency crossed a threshold — each as
//! a structured [`SlowQueryEntry`] carrying the trace, the lifecycle
//! verdict (degraded? how many shards failed? budget left?), and a
//! flight-recorder excerpt captured at retention time.
//!
//! Entries arrive only from explicitly traced requests; an untraced query
//! never touches this module's mutex. Keeping the worst-N (rather than
//! the latest-N) means a burst of mildly-slow queries cannot evict the
//! one pathological trace you actually want to inspect.

use crate::recorder;
use crate::registry::{CounterId, Registry};
use crate::trace::QueryTrace;
use std::sync::Mutex;

const DEFAULT_CAPACITY: usize = 16;

/// One retained slow query: the trace plus the first-class lifecycle
/// fields an operator triages by, and the flight-recorder events that
/// led up to it.
#[derive(Clone, Debug)]
pub struct SlowQueryEntry {
    /// The full per-shard stage breakdown.
    pub trace: QueryTrace,
    /// The query returned a partial (best-effort) result.
    pub degraded: bool,
    /// Shards excluded from the merge by failure.
    pub shards_failed: usize,
    /// Deadline budget left at completion (`None` for unbudgeted
    /// queries).
    pub budget_remaining_ns: Option<u64>,
    /// Flight-recorder ring at retention time, oldest first — the
    /// maintenance/fault context surrounding the slow query.
    pub events: Vec<recorder::Event>,
}

impl SlowQueryEntry {
    /// End-to-end latency of the retained query.
    pub fn total_ns(&self) -> u64 {
        self.trace.total_ns
    }

    /// The trace rendering — per shard: time, row counts, the rows the
    /// index-or-scan rule found covered and whether the column pass
    /// answered — plus the lifecycle verdict and the attached
    /// flight-recorder excerpt.
    pub fn render(&self) -> String {
        let mut out = self.trace.render();
        if self.degraded {
            out.push_str(&format!(
                "  DEGRADED: {} shard(s) excluded by failure\n",
                self.shards_failed
            ));
        }
        if !self.events.is_empty() {
            out.push_str("  flight recorder:\n");
            for e in &self.events {
                out.push_str("    ");
                out.push_str(&e.render());
                out.push('\n');
            }
        }
        out
    }
}

struct SlowLog {
    threshold_ns: u64,
    capacity: usize,
    /// Sorted by `total_ns` descending; index 0 is the worst query.
    entries: Vec<SlowQueryEntry>,
}

static LOG: Mutex<Option<SlowLog>> = Mutex::new(None);

fn with_log<R>(f: impl FnOnce(&mut SlowLog) -> R) -> R {
    let mut guard = LOG.lock().unwrap_or_else(|e| e.into_inner());
    let log = guard.get_or_insert_with(|| SlowLog {
        threshold_ns: 0,
        capacity: DEFAULT_CAPACITY,
        entries: Vec::new(),
    });
    f(log)
}

/// Set the capture threshold and retained-entry capacity. The default
/// is threshold 0 (every offered trace qualifies) and capacity 16.
/// Shrinking the capacity drops the mildest retained entries.
pub fn configure(threshold_ns: u64, capacity: usize) {
    with_log(|log| {
        log.threshold_ns = threshold_ns;
        log.capacity = capacity;
        log.entries.truncate(capacity);
    });
}

/// Current capture threshold in nanoseconds.
pub fn threshold_ns() -> u64 {
    with_log(|log| log.threshold_ns)
}

/// Offer a traced query for retention. Returns `true` if it was kept: it
/// crossed the threshold and ranked among the worst N by total latency.
/// Kept entries bump [`CounterId::SlowQueries`] and capture the
/// flight-recorder ring.
pub fn offer(trace: &QueryTrace) -> bool {
    // Cheap pre-checks under the lock; the recorder dump (slot scan +
    // clone) happens only for traces that will actually be kept.
    let admitted = with_log(|log| {
        if log.capacity == 0 || trace.total_ns < log.threshold_ns {
            return false;
        }
        !(log.entries.len() == log.capacity
            && trace.total_ns <= log.entries.last().map_or(0, |t| t.total_ns()))
    });
    if !admitted {
        return false;
    }
    let entry = SlowQueryEntry {
        degraded: trace.degraded,
        shards_failed: trace.shards.iter().filter(|s| s.failed).count(),
        budget_remaining_ns: trace.budget_remaining_ns,
        events: recorder::dump(),
        trace: trace.clone(),
    };
    let kept = with_log(|log| {
        // Re-check under the lock: a racing offer may have filled the
        // log with worse entries since the pre-check.
        if log.capacity == 0 || entry.total_ns() < log.threshold_ns {
            return false;
        }
        if log.entries.len() == log.capacity
            && entry.total_ns() <= log.entries.last().map_or(0, |t| t.total_ns())
        {
            return false;
        }
        let at = log
            .entries
            .partition_point(|t| t.total_ns() >= entry.total_ns());
        log.entries.insert(at, entry);
        log.entries.truncate(log.capacity);
        true
    });
    if kept {
        Registry::global().counter(CounterId::SlowQueries).inc();
    }
    kept
}

/// Retained entries, worst first.
pub fn snapshot() -> Vec<SlowQueryEntry> {
    with_log(|log| log.entries.clone())
}

/// Drop all retained entries (threshold and capacity are kept).
pub fn clear() {
    with_log(|log| log.entries.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ShardSpan;

    fn trace(total_ns: u64) -> QueryTrace {
        QueryTrace {
            total_ns,
            ..Default::default()
        }
    }

    /// One test exercises the whole lifecycle: the log is process-global
    /// state, so independent `#[test]`s would race each other's
    /// `configure`/`clear` calls.
    #[test]
    fn threshold_capacity_and_worst_n_ordering() {
        // The recorder ring feeds kept entries; hold its test lock so
        // the recorder's own tests cannot clear it mid-offer.
        let _rec = recorder::test_lock();
        configure(100, 3);
        clear();
        assert!(!offer(&trace(99)), "below threshold must be rejected");
        assert!(offer(&trace(500)));
        assert!(offer(&trace(300)));
        assert!(offer(&trace(800)));
        // Log is full with {800, 500, 300}: a milder trace bounces, a
        // worse one evicts the mildest.
        assert!(!offer(&trace(200)));
        assert!(offer(&trace(600)));
        let kept: Vec<u64> = snapshot().iter().map(|t| t.total_ns()).collect();
        assert_eq!(kept, vec![800, 600, 500]);

        configure(100, 2);
        let kept: Vec<u64> = snapshot().iter().map(|t| t.total_ns()).collect();
        assert_eq!(kept, vec![800, 600], "shrink drops the mildest");

        clear();
        assert!(snapshot().is_empty());
        configure(0, DEFAULT_CAPACITY);

        // Entries carry the lifecycle fields first-class and the
        // recorder excerpt.
        let mut t = trace(1_000);
        t.degraded = true;
        t.budget_remaining_ns = Some(42);
        t.shards = vec![
            ShardSpan {
                shard: 0,
                failed: true,
                ..Default::default()
            },
            ShardSpan {
                shard: 1,
                covered_rows: 900,
                column_pass: true,
                ..Default::default()
            },
        ];
        recorder::emit(recorder::EventKind::QueryDegraded {
            failed_shards: 1,
            attempted: 2,
        });
        assert!(offer(&t));
        let kept = snapshot();
        let entry = &kept[0];
        assert!(entry.degraded);
        assert_eq!(entry.shards_failed, 1);
        assert_eq!(entry.budget_remaining_ns, Some(42));
        assert!(entry
            .events
            .iter()
            .any(|e| matches!(e.kind, recorder::EventKind::QueryDegraded { .. })));
        let text = entry.render();
        assert!(
            text.contains("DEGRADED"),
            "render flags degradation: {text}"
        );
        // The entry explains each shard's path: the index-or-scan rule's
        // input on every searched shard, its verdict where it was "scan".
        assert!(text.contains("covered=0\n") && text.contains("covered=900 [column pass]"));
        assert!(text.contains("flight recorder"));
        clear();
    }
}
