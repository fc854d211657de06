//! `sweep::map`: the caller and the process's one helper thread claim the
//! items of `0..n` from one counter, and the results come back in item
//! order. A panic in an item, on either thread, resumes on the caller and
//! leaves the helper free for the next call; a call made from inside an
//! item, or beside another owner of the helper, runs on its own caller.
//!
//! The tests run one at a time (`serial`): a test that needs the helper
//! must not find it owned by another.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use promips_linalg::sweep;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the process has a helper: it needs a second core.
fn two_cores() -> bool {
    thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// An item slow enough that the helper, once awake, takes some.
fn slow(i: usize) -> usize {
    thread::sleep(Duration::from_micros(200));
    i
}

/// Whether some item of a 64-item map ran off the calling thread.
fn helper_took_an_item() -> bool {
    let caller = thread::current().id();
    let off = AtomicBool::new(false);
    let item = |i| {
        if thread::current().id() != caller {
            off.store(true, Ordering::Relaxed);
        }
        slow(i)
    };
    let (_, items) = sweep::map(64, item, || ());
    assert_eq!(items, (0..64).collect::<Vec<_>>());
    off.load(Ordering::Relaxed)
}

/// The next calls get the helper: one of a few takes an item on it.
fn assert_helper_free() {
    if two_cores() {
        assert!(
            (0..20).any(|_| helper_took_an_item()),
            "the helper never took an item"
        );
    }
}

/// The message of a caught panic.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("?").to_owned(),
    }
}

#[test]
fn items_come_back_in_item_order() {
    let _serial = serial();
    for n in [0, 1, 2, 3, 1_000] {
        let (first, items) = sweep::map(n, |i| i * i, || n + 1);
        assert_eq!(first, n + 1);
        assert_eq!(items, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n = {n}");
    }
    let (_, items) = sweep::map(300, slow, || thread::sleep(Duration::from_millis(5)));
    assert_eq!(items, (0..300).collect::<Vec<_>>());
    assert_helper_free();
}

#[test]
fn a_panic_in_a_helper_item_resumes_on_the_caller() {
    let _serial = serial();
    if !two_cores() {
        return;
    }
    let caller = thread::current().id();
    let item = |i| {
        assert_eq!(thread::current().id(), caller, "helper item {i}");
        slow(i)
    };
    // The caller may take every item before the helper wakes: try again.
    let resumed = (0..50).find_map(|_| {
        let run = panic::catch_unwind(AssertUnwindSafe(|| sweep::map(64, item, || ())));
        run.err().map(message)
    });
    let resumed = resumed.expect("the helper never took an item");
    assert!(resumed.contains("helper item"), "{resumed}");
    assert_helper_free();
}

#[test]
fn a_panic_in_a_caller_item_or_in_first_resumes_here() {
    let _serial = serial();
    let caller = thread::current().id();
    let item = |i| {
        assert_ne!(thread::current().id(), caller, "caller item {i}");
        slow(i)
    };
    let run = panic::catch_unwind(AssertUnwindSafe(|| sweep::map(64, item, || ())));
    let resumed = message(run.expect_err("the caller takes an item"));
    assert!(resumed.contains("caller item"), "{resumed}");
    assert_helper_free();

    let run = panic::catch_unwind(|| sweep::map(64, slow, || panic!("first")));
    assert_eq!(message(run.expect_err("first panics")), "first");
    assert_helper_free();
}

#[test]
fn a_nested_call_runs_on_its_own_caller_and_completes() {
    let _serial = serial();
    let outer = |i: usize| {
        let me = thread::current().id();
        let inner = |j| {
            assert_eq!(thread::current().id(), me, "inner item ran elsewhere");
            slow(i * 8 + j)
        };
        sweep::map(8, inner, || ()).1
    };
    let (_, items) = sweep::map(8, outer, || ());
    assert_eq!(items.concat(), (0..64).collect::<Vec<_>>());
    assert_helper_free();
}

#[test]
fn a_map_beside_another_owner_runs_on_its_caller() {
    let _serial = serial();
    let caller = thread::current().id();
    let item = |i| {
        assert_eq!(thread::current().id(), caller, "item {i} ran elsewhere");
        slow(i)
    };
    let beside = sweep::join(&|| Ok(()), || sweep::map(64, item, || ()).1);
    match beside {
        Some((items, theirs)) => {
            assert_eq!(items, (0..64).collect::<Vec<_>>());
            theirs.unwrap();
        }
        None => assert!(!two_cores(), "the helper was free"),
    }
    assert_helper_free();
}
