//! The process's one helper thread, parked while idle, and the two ways to
//! work beside it: [`join`] hands it one closure (`promips_idistance`'s
//! split column sweep), [`map`] shares the items of `0..n` with it (the
//! index build's stage-2 k-means groups and SQ8 code rows).
//!
//! One caller at a time owns the helper (`BUSY`). A call that finds it
//! absent (one core) or owned — by a nested call from inside an item, by
//! another thread's build or by a query's split sweep — runs everything on
//! its caller. So a build that holds the helper makes a concurrent query's
//! sweep serial, and a sweep that holds it makes a concurrent build serial;
//! neither waits for the other.
//!
//! A job borrows the caller's stack. The owner posts its job's address in
//! `JOB`; the helper, before it first touches the job, and the caller, its
//! own part done, each swap the address out, and one of them gets it. If
//! the helper did, the caller waits for `DONE`, the helper's last touch of
//! the job, before it leaves. Each hand-over is a `Release` store (or swap)
//! read by an `Acquire` one.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::*};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};

type Work<'a> = &'a (dyn Fn() -> io::Result<()> + Sync);

struct Job<'a> {
    work: Work<'a>,
    caller: Thread,
    outcome: Mutex<Option<thread::Result<io::Result<()>>>>,
}

static BUSY: AtomicBool = AtomicBool::new(false);
static JOB: AtomicPtr<Job<'static>> = AtomicPtr::new(ptr::null_mut());
static DONE: AtomicBool = AtomicBool::new(false);

/// The helper, started on first use; `None` on one core or if it cannot be.
fn helper() -> Option<&'static Thread> {
    static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
    let cores = || thread::available_parallelism().map_or(1, |n| n.get());
    let spawn = || thread::Builder::new().spawn(serve);
    let start = || Some((cores() >= 2).then(spawn)?.ok()?.thread().clone());
    HELPER.get_or_init(start).as_ref()
}

/// The helper, now owned by this caller until its `Reclaim` drops; `None`
/// if there is none or another caller owns it.
fn own_helper() -> Option<&'static Thread> {
    helper().filter(|_| !BUSY.swap(true, Acquire))
}

fn serve() {
    loop {
        thread::park();
        let job = JOB.swap(ptr::null_mut(), Acquire);
        if job.is_null() {
            continue; // a stale wake-up, or a job its caller took back
        }
        // SAFETY: `beside` posted the address of a job on its caller's
        // stack, and this swap took it, so the caller's swap in
        // `Reclaim::drop` finds null and waits for `DONE` before the job
        // goes out of scope.
        let job = unsafe { &*job };
        let outcome = panic::catch_unwind(AssertUnwindSafe(job.work));
        *job.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        let caller = job.caller.clone();
        DONE.store(true, Release); // the job may be gone from here on
        caller.unpark();
    }
}

/// Runs `theirs` on the helper while `mine` runs here and returns both
/// results, `Ok(())` for `theirs` if the helper never started it (so `mine`
/// must be able to finish alone); a panic in `theirs` resumes here. `None`,
/// having run neither, if there is no helper or another caller owns it.
pub fn join<R>(theirs: Work<'_>, mine: impl FnOnce() -> R) -> Option<(R, io::Result<()>)> {
    Some(beside(own_helper()?, theirs, mine))
}

/// Runs `first` here, then `item(i)` for every `i` in `0..n`, and returns
/// `first`'s result and the items' in item order. The helper claims items
/// from one atomic counter from the start, this thread once `first` is
/// done, so an item must not depend on which thread runs it or when.
/// Without the helper (absent, owned by another caller, or `n < 2`) `first`
/// and then every item run here, in order. A panic in `first` or in an item
/// here leaves the helper no more items; one in a helper item ends the
/// helper's claims while this thread claims the rest. Either resumes here
/// once the helper has let go.
pub fn map<T: Send, R>(
    n: usize,
    item: impl Fn(usize) -> T + Sync,
    first: impl FnOnce() -> R,
) -> (R, Vec<T>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let claim = || loop {
        let i = next.fetch_add(1, Relaxed);
        if i >= n {
            break;
        }
        let out = item(i);
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    let theirs = || {
        claim();
        Ok(())
    };
    let mine = || {
        let _stop = StopClaims(&next, n);
        let first = first();
        claim();
        first
    };
    let first = match (n >= 2).then(own_helper).flatten() {
        Some(helper) => beside(helper, &theirs, mine).0,
        None => mine(),
    };
    let slot = |s: Mutex<Option<T>>| s.into_inner().unwrap_or_else(PoisonError::into_inner);
    let items = slots.into_iter().map(|s| slot(s).expect("every item ran"));
    (first, items.collect())
}

/// Moves [`map`]'s counter past its last item when the caller's part ends,
/// so a panic there leaves the helper no more items to claim.
struct StopClaims<'a>(&'a AtomicUsize, usize);

impl Drop for StopClaims<'_> {
    fn drop(&mut self) {
        self.0.store(self.1, Relaxed);
    }
}

/// [`join`] with the helper already owned.
fn beside<R>(helper: &Thread, theirs: Work<'_>, mine: impl FnOnce() -> R) -> (R, io::Result<()>) {
    let job = Job {
        work: theirs,
        caller: thread::current(),
        outcome: Mutex::new(None),
    };
    DONE.store(false, Relaxed);
    JOB.store(ptr::from_ref(&job).cast_mut().cast(), Release);
    helper.unpark();
    let reclaim = Reclaim;
    let mine = mine();
    drop(reclaim);
    let outcome = job
        .outcome
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let theirs = outcome.unwrap_or(Ok(Ok(())));
    (mine, theirs.unwrap_or_else(|p| panic::resume_unwind(p)))
}

/// Takes the job back or waits for the helper to let go of it, then frees
/// the helper for the next caller.
struct Reclaim;

impl Drop for Reclaim {
    fn drop(&mut self) {
        if JOB.swap(ptr::null_mut(), Acquire).is_null() {
            while !DONE.load(Acquire) {
                thread::park();
            }
        }
        BUSY.store(false, Release);
    }
}
