//! Flight recorder: a lock-light, bounded, process-global ring buffer
//! of structured lifecycle events — compaction outcomes, WAL
//! replay/retry, injected faults, shed/degraded/failed queries,
//! generation swaps — the postmortem trail an operator reads when a
//! query comes back degraded.
//!
//! Writers claim a slot with one atomic `fetch_add` and fill it under a
//! per-slot mutex held for a single `Option` store, so concurrent
//! emitters never serialize on a global lock and readers never block
//! the write path for long. Events are rare (maintenance, faults,
//! lifecycle edges — never per-row), so the cost is irrelevant next to
//! what they describe; the structure exists so a dump taken *during* a
//! storm still sees every writer make progress.
//!
//! The slow-query log attaches the current ring to every entry it keeps.

use crate::registry::{CounterId, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ring capacity. Sized for diagnosis, not archival: enough to hold the
/// maintenance/fault context leading up to a bad query, small enough
/// that a dump clones in microseconds.
pub const CAPACITY: usize = 128;

/// What happened, with the structured context each event type carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A shard compaction folded its overlay into a fresh generation.
    CompactionCompleted { shard: u32, generation: u64 },
    /// A shard compaction failed and left the old generation in place.
    CompactionFailed { shard: u32 },
    /// The whole index was rebalanced across shards.
    Repartitioned { shards: u32 },
    /// A shard atomically swapped in a new generation handle.
    GenerationSwap { shard: u32, generation: u64 },
    /// A WAL replayed committed records on open (torn bytes were
    /// truncated from the tail).
    WalReplayed { records: u64, torn_bytes: u64 },
    /// A transient IO failure was retried by the durability layer.
    IoRetried { attempt: u32 },
    /// The test fault plan injected an IO failure.
    FaultInjected { op: &'static str },
    /// The admission gate refused a query.
    QueryShed { in_flight: u64, limit: u64 },
    /// A best-effort query dropped failed shards and degraded.
    QueryDegraded { failed_shards: u32, attempted: u32 },
    /// A query aborted with an error (the shard and failure kind).
    QueryFailed { shard: u32, kind: &'static str },
}

/// One recorded event: a process-unique sequence number, the capture
/// time ([`crate::now_ns`] clock), and the structured payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub at_ns: u64,
    pub kind: EventKind,
}

impl Event {
    /// One human-readable line, `[seq @ ms] description`.
    pub fn render(&self) -> String {
        let ms = self.at_ns / 1_000_000;
        let body = match &self.kind {
            EventKind::CompactionCompleted { shard, generation } => {
                format!("compaction completed: shard {shard} -> generation {generation}")
            }
            EventKind::CompactionFailed { shard } => {
                format!("compaction FAILED: shard {shard}")
            }
            EventKind::Repartitioned { shards } => {
                format!("repartitioned index across {shards} shards")
            }
            EventKind::GenerationSwap { shard, generation } => {
                format!("generation swap: shard {shard} -> generation {generation}")
            }
            EventKind::WalReplayed {
                records,
                torn_bytes,
            } => {
                format!("wal replay: {records} records ({torn_bytes} torn bytes truncated)")
            }
            EventKind::IoRetried { attempt } => {
                format!("io retry: attempt {attempt} failed transiently")
            }
            EventKind::FaultInjected { op } => format!("fault injected: {op}"),
            EventKind::QueryShed { in_flight, limit } => {
                format!("query shed: {in_flight} in flight >= limit {limit}")
            }
            EventKind::QueryDegraded {
                failed_shards,
                attempted,
            } => {
                format!("query degraded: {failed_shards}/{attempted} attempted shards failed")
            }
            EventKind::QueryFailed { shard, kind } => {
                format!("query failed: shard {shard} ({kind})")
            }
        };
        format!("[{:>6} @{:>8}ms] {body}", self.seq, ms)
    }
}

// One mutex per slot: emitters on different slots never contend, and
// two emitters CAPACITY apart racing for the same slot resolve by
// sequence number (the later one wins, which is also the newer event).
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Mutex<Option<Event>> = Mutex::new(None);
static SLOTS: [Mutex<Option<Event>>; CAPACITY] = [EMPTY_SLOT; CAPACITY];
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

fn slot_lock(i: usize) -> std::sync::MutexGuard<'static, Option<Event>> {
    SLOTS[i].lock().unwrap_or_else(|e| e.into_inner())
}

/// Record one event. Lock-light: one relaxed `fetch_add` to claim a
/// slot, one per-slot store. Also ticks [`CounterId::RecorderEvents`].
pub fn emit(kind: EventKind) {
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let event = Event {
        seq,
        at_ns: crate::now_ns(),
        kind,
    };
    {
        let mut slot = slot_lock((seq % CAPACITY as u64) as usize);
        // A stale racer (sequence lapped by a full ring revolution)
        // must not overwrite a newer event.
        if slot.as_ref().is_none_or(|old| old.seq < seq) {
            *slot = Some(event);
        }
    }
    Registry::global().counter(CounterId::RecorderEvents).inc();
}

/// The retained events, oldest first. A concurrent dump sees each slot
/// at some point in time — always a complete event, possibly missing
/// the very newest writes.
pub fn dump() -> Vec<Event> {
    let mut events: Vec<Event> = (0..CAPACITY).filter_map(|i| slot_lock(i).clone()).collect();
    events.sort_by_key(|e| e.seq);
    events
}

/// Render [`dump`] as one line per event.
pub fn render_dump() -> String {
    let mut out = String::new();
    for e in dump() {
        out.push_str(&e.render());
        out.push('\n');
    }
    out
}

/// Empty every slot (sequence numbers keep counting; they are
/// process-unique forever).
pub fn clear() {
    for i in 0..CAPACITY {
        *slot_lock(i) = None;
    }
}

// The ring is process-global; every unit test in this crate that emits
// or clears it serializes on this lock so clear()/dump() pairs never
// interleave across test threads.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_ordered_and_bounded() {
        let _g = test_lock();
        clear();
        for i in 0..(CAPACITY as u64 + 10) {
            emit(EventKind::IoRetried { attempt: i as u32 });
        }
        let events = dump();
        assert_eq!(events.len(), CAPACITY, "ring is bounded");
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "dump is ordered by sequence"
        );
        // The oldest 10 events were overwritten.
        match &events[0].kind {
            EventKind::IoRetried { attempt } => assert!(*attempt >= 10),
            other => panic!("unexpected event {other:?}"),
        }
        clear();
        assert!(dump().is_empty());
    }

    #[test]
    fn render_mentions_the_payload() {
        let _g = test_lock();
        clear();
        emit(EventKind::QueryDegraded {
            failed_shards: 1,
            attempted: 3,
        });
        let text = render_dump();
        assert!(text.contains("query degraded: 1/3"), "got: {text}");
        clear();
    }
}
