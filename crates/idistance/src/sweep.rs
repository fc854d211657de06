//! The process's one sweep helper thread, parked while idle, which sweeps
//! part of a large column beside the caller ([`crate::IDistanceIndex::column_dots`]).
//!
//! A job borrows the caller's stack. One caller at a time owns the helper
//! (`BUSY`) and posts its job's address in `JOB`; the helper, before it
//! first touches the job, and the caller, its own part done, each swap the
//! address out, and one of them gets it. If the helper did, the caller
//! waits for `DONE`, the helper's last touch of the job, before it leaves.
//! Each hand-over is a `Release` store (or swap) read by an `Acquire` one.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering::*};
use std::sync::OnceLock;
use std::thread::{self, Thread};

use parking_lot::Mutex;

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

fn serve() {
    loop {
        thread::park();
        let job = JOB.swap(ptr::null_mut(), Acquire);
        if job.is_null() {
            continue; // a stale wake-up, or a job its caller took back
        }
        // SAFETY: `join` posted the address of a job on its caller's stack,
        // and this swap took it, so the caller's swap in `Reclaim::drop`
        // finds null and waits for `DONE` before the job goes out of scope.
        let job = unsafe { &*job };
        *job.outcome.lock() = Some(panic::catch_unwind(AssertUnwindSafe(job.work)));
        let caller = job.caller.clone();
        DONE.store(true, Release); // the job may be gone from here on
        caller.unpark();
    }
}

/// Runs `theirs` on the helper while `mine` runs here and returns both
/// results, `Ok(())` for `theirs` if the helper never started it (so `mine`
/// must be able to finish alone); a panic in `theirs` resumes here. `None`,
/// having run neither, if there is no helper or another caller owns it.
pub(crate) fn join<R>(theirs: Work<'_>, mine: impl FnOnce() -> R) -> Option<(R, io::Result<()>)> {
    let helper = helper().filter(|_| !BUSY.swap(true, Acquire))?;
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
    let theirs = job.outcome.into_inner().unwrap_or(Ok(Ok(())));
    Some((mine, theirs.unwrap_or_else(|p| panic::resume_unwind(p))))
}

/// Takes the job back or waits for the helper to let go of it, then frees it.
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
