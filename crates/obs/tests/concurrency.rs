//! Registry torture: writer threads hammering counters while reader
//! threads snapshot concurrently. Verifies that nothing is lost (counts
//! conserved exactly at join) and that concurrent snapshots are sane
//! (monotonic counters, bounded values).
//!
//! The default configuration keeps `cargo test` quick; the CI stress
//! job sets `PROMIPS_STRESS=1` to scale writers, readers, and ops up.

use promips_obs::{CounterId, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

struct Torture {
    writers: usize,
    readers: usize,
    ops_per_writer: u64,
}

fn config() -> Torture {
    if std::env::var("PROMIPS_STRESS").as_deref() == Ok("1") {
        Torture {
            writers: 8,
            readers: 4,
            ops_per_writer: 200_000,
        }
    } else {
        Torture {
            writers: 4,
            readers: 2,
            ops_per_writer: 20_000,
        }
    }
}

#[test]
fn counts_conserved_under_concurrent_snapshots() {
    // A dedicated static registry: same code path as `Registry::global()`
    // without cross-talk from other tests feeding the global one.
    static REG: Registry = Registry::new();
    let t = config();
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        for _ in 0..t.writers {
            let reg = &REG;
            s.spawn(move || {
                for _ in 0..t.ops_per_writer {
                    reg.counter(CounterId::Queries).inc();
                    reg.counter(CounterId::Inserts).add(2);
                }
            });
        }

        for _ in 0..t.readers {
            let reg = &REG;
            let done = &done;
            s.spawn(move || {
                let total_ops = t.writers as u64 * t.ops_per_writer;
                let mut last_queries = 0u64;
                // Snapshot first, test `done` after: a reader first
                // scheduled once the writers have finished still takes its
                // one snapshot, so the checks never depend on scheduling.
                loop {
                    let snap = reg.snapshot();
                    let queries = snap.counter(CounterId::Queries);
                    assert!(
                        queries >= last_queries,
                        "counter went backwards: {queries} < {last_queries}"
                    );
                    assert!(queries <= total_ops);
                    assert_eq!(
                        snap.counter(CounterId::Inserts) % 2,
                        0,
                        "inserts counted in indivisible twos"
                    );
                    assert!(snap.counter(CounterId::Inserts) <= 2 * total_ops);
                    last_queries = queries;
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }

        // Writers are the first `t.writers` spawned handles; scope joins
        // everything, but readers need the flag to stop first. Spawn a
        // watchdog that flips it once writers are done by polling the
        // counter total.
        let reg = &REG;
        let done = &done;
        s.spawn(move || {
            let total_ops = t.writers as u64 * t.ops_per_writer;
            while reg.counter(CounterId::Queries).get() < total_ops {
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    let total_ops = t.writers as u64 * t.ops_per_writer;
    let snap = REG.snapshot();
    assert_eq!(snap.counter(CounterId::Queries), total_ops);
    assert_eq!(snap.counter(CounterId::Inserts), 2 * total_ops);
}
