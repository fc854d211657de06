//! Crash-safety primitives shared by the persistence paths: directory
//! fsync, write-temp-then-rename file replacement, and a failpoint-style
//! fault-injection shim that crash-safety tests use to fail the Nth
//! fsync/rename/write deterministically.
//!
//! POSIX only guarantees a rename is durable once the *containing
//! directory* has been fsynced, and a freshly written file's contents are
//! durable only after `fsync` on the file itself. The manifest-swap
//! protocol of the sharded index (write `MANIFEST.pms.tmp`, fsync it,
//! rename over `MANIFEST.pms`, fsync the directory) rides these helpers,
//! the WAL crate routes its own fsyncs and renames through the same shim,
//! and so do the page files' reads, writes and data fsync
//! (`FileStorage`), so a single fault plan covers every
//! durability-relevant syscall in the process.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use faults::IoOp;

/// Fsyncs a directory so renames/creates inside it survive a crash.
pub fn fsync_dir(dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    let f = File::open(dir)?;
    faults::check(IoOp::Fsync, dir)?;
    f.sync_all()
}

/// Fsyncs an open file's data (plus metadata needed to find it), counting
/// the operation and honouring any armed fault plan. `path` is only used
/// for fault-plan scoping and error messages.
pub fn sync_file_data(f: &File, path: &Path) -> io::Result<()> {
    faults::check(IoOp::Fsync, path)?;
    f.sync_data()
}

/// `std::fs::rename` routed through the fault shim (scoped on `dst`).
pub fn rename(src: impl AsRef<Path>, dst: impl AsRef<Path>) -> io::Result<()> {
    let dst = dst.as_ref();
    faults::check(IoOp::Rename, dst)?;
    std::fs::rename(src.as_ref(), dst)
}

/// `Write::write_all` routed through the fault shim. An injected failure
/// models a torn write: nothing is guaranteed about how many bytes landed.
pub fn write_all(f: &mut impl Write, bytes: &[u8], path: &Path) -> io::Result<()> {
    faults::check(IoOp::Write, path)?;
    f.write_all(bytes)
}

/// Atomically replaces `dst` with `bytes`: writes `dst` + `.tmp` suffix,
/// fsyncs it, renames over `dst`, and fsyncs the parent directory. A crash
/// at any point leaves either the old `dst` or the new one — never a
/// half-written file under the final name.
pub fn write_file_atomic(dst: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let dst = dst.as_ref();
    let tmp = tmp_sibling(dst);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        write_all(&mut f, bytes, &tmp)?;
        sync_file_data(&f, &tmp)?;
    }
    rename(&tmp, dst)?;
    if let Some(parent) = dst.parent() {
        if !parent.as_os_str().is_empty() {
            fsync_dir(parent)?;
        }
    }
    Ok(())
}

/// The temp-file name the atomic writer uses (`<dst>.tmp`), exposed so
/// crash-recovery sweeps can recognise and discard leftovers.
pub fn tmp_sibling(dst: &Path) -> std::path::PathBuf {
    let mut name = dst.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    dst.with_file_name(name)
}

/// Failpoint-style IO fault injection and operation counters.
///
/// Every durability-relevant syscall issued through this crate (and the
/// WAL crate, which routes its fsyncs here) first consults this module: a
/// per-operation counter is bumped, and if a fault plan is armed for that
/// operation the plan's countdown advances — hitting zero makes the call
/// return an injected `io::Error` *instead of issuing the syscall*, which
/// is exactly what a crash at that instant would look like to the files
/// already on disk.
///
/// The state is process-global (syscalls are process-global too); tests
/// that arm plans must serialise against each other and disarm when done.
/// The disarmed fast path is one relaxed atomic load, so production code
/// pays nothing measurable.
pub mod faults {
    use promips_obs::{CounterId, Registry};
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// The classes of IO operation the shim can count and fail.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum IoOp {
        /// `fsync`/`fdatasync` on a file or directory.
        Fsync,
        /// `rename(2)` — scoped on the destination path.
        Rename,
        /// A data write (`write_all` of a record or blob).
        Write,
        /// A data read (a run of pages, a WAL replay, a file slurp).
        Read,
    }

    /// A fault target: the `nth` matching operation (1-based) whose path
    /// contains `path_contains` (no scoping when `None`). How often it
    /// fires after that is the plan's [`Recurrence`]: [`arm`] gives the
    /// classic one-shot, [`arm_with`] picks.
    #[derive(Clone, Debug)]
    pub struct FaultPlan {
        pub op: IoOp,
        /// Counts device operations: a run of pages read by one
        /// `Storage::read_pages` (or written by one `append_pages`) is
        /// one, however many pages it holds.
        pub nth: u64,
        pub path_contains: Option<String>,
    }

    /// How often an armed plan fires once its `nth` gate is reached.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Recurrence {
        /// Fire once at the `nth` matching op, then self-disarm — recovery
        /// code after the "crash" sees healthy IO again, mirroring a
        /// restart. This is [`arm`]'s behavior.
        Once,
        /// Fire at the `nth` matching op and every `n` matching ops after
        /// it; stays armed until [`disarm`]. Models a persistently sick
        /// device or a hot path that trips a flaky kernel bug.
        EveryNth(u32),
        /// From the `nth` matching op on, fire each matching op
        /// independently with probability `p`, driven by a deterministic
        /// xorshift stream from `seed`; stays armed until [`disarm`].
        /// Same seed + same op sequence → same fault sequence.
        Probabilistic { seed: u64, p: f64 },
    }

    struct Armed {
        plan: FaultPlan,
        recurrence: Recurrence,
        kind: io::ErrorKind,
        seen: u64,
        rng: u64,
    }

    static ARMED_FLAG: AtomicBool = AtomicBool::new(false);
    static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

    /// Snapshot of the process-wide operation counters. Monotonic since
    /// process start; diff two snapshots to meter a workload (e.g. fsyncs
    /// per 1 000 inserts under group commit).
    ///
    /// These are *views over the global metrics registry*
    /// ([`CounterId::IoFsyncs`], [`CounterId::IoRenames`],
    /// [`CounterId::IoWrites`], [`CounterId::IoReads`],
    /// [`CounterId::IoFaultsInjected`]), so the fault shim and a
    /// [`Registry::snapshot`] report the same numbers from one source of
    /// truth.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct IoCounters {
        pub fsyncs: u64,
        pub renames: u64,
        pub writes: u64,
        pub reads: u64,
        /// Faults fired so far (across all plans).
        pub injected: u64,
    }

    /// Reads the operation counters (from the global metrics registry).
    pub fn counters() -> IoCounters {
        let reg = Registry::global();
        IoCounters {
            fsyncs: reg.counter(CounterId::IoFsyncs).get(),
            renames: reg.counter(CounterId::IoRenames).get(),
            writes: reg.counter(CounterId::IoWrites).get(),
            reads: reg.counter(CounterId::IoReads).get(),
            injected: reg.counter(CounterId::IoFaultsInjected).get(),
        }
    }

    /// Arms `plan` as a classic one-shot (fires once, self-disarms,
    /// `ErrorKind::Other`), replacing any previous plan.
    pub fn arm(plan: FaultPlan) {
        arm_with(plan, Recurrence::Once, io::ErrorKind::Other);
    }

    /// Arms `plan` with an explicit recurrence and injected error kind,
    /// replacing any previous plan. Transient kinds (`Interrupted`,
    /// `TimedOut`, `WouldBlock`) let tests exercise the retry paths;
    /// recurring plans stay armed until [`disarm`].
    pub fn arm_with(plan: FaultPlan, recurrence: Recurrence, kind: io::ErrorKind) {
        assert!(plan.nth >= 1, "fault plans are 1-based: nth must be >= 1");
        if let Recurrence::EveryNth(n) = recurrence {
            assert!(n >= 1, "EveryNth period must be >= 1");
        }
        if let Recurrence::Probabilistic { p, .. } = recurrence {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        }
        let rng = match recurrence {
            // splitmix64 scramble so seed 0 still yields a live stream.
            Recurrence::Probabilistic { seed, .. } => {
                let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) | 1
            }
            _ => 0,
        };
        let mut g = ARMED.lock().unwrap();
        *g = Some(Armed {
            plan,
            recurrence,
            kind,
            seen: 0,
            rng,
        });
        ARMED_FLAG.store(true, Ordering::Release);
    }

    /// Disarms any pending plan; returns true if one was still armed
    /// (i.e. it never fired).
    pub fn disarm() -> bool {
        let mut g = ARMED.lock().unwrap();
        ARMED_FLAG.store(false, Ordering::Release);
        g.take().is_some()
    }

    /// The marker every injected error message carries, so tests can tell
    /// injected faults from real IO errors.
    pub const INJECTED_MARKER: &str = "injected fault";

    /// True if `err` was produced by the shim rather than the kernel.
    pub fn is_injected(err: &io::Error) -> bool {
        err.to_string().contains(INJECTED_MARKER)
    }

    /// xorshift64 step: cheap, never zero for a nonzero state.
    fn xorshift64(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Counts `op` against `path` and fails it if an armed plan says so.
    /// Called by every durability helper immediately before the syscall.
    pub fn check(op: IoOp, path: &Path) -> io::Result<()> {
        let reg = Registry::global();
        reg.counter(match op {
            IoOp::Fsync => CounterId::IoFsyncs,
            IoOp::Rename => CounterId::IoRenames,
            IoOp::Write => CounterId::IoWrites,
            IoOp::Read => CounterId::IoReads,
        })
        .inc();
        if !ARMED_FLAG.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut g = ARMED.lock().unwrap();
        let Some(armed) = g.as_mut() else {
            return Ok(());
        };
        if armed.plan.op != op {
            return Ok(());
        }
        if let Some(ref needle) = armed.plan.path_contains {
            if !path.to_string_lossy().contains(needle.as_str()) {
                return Ok(());
            }
        }
        armed.seen += 1;
        if armed.seen < armed.plan.nth {
            return Ok(());
        }
        let fires = match armed.recurrence {
            Recurrence::Once => true,
            Recurrence::EveryNth(n) => (armed.seen - armed.plan.nth) % u64::from(n) == 0,
            Recurrence::Probabilistic { p, .. } => {
                // 53 uniform bits → [0, 1); fires with probability p.
                let u = (xorshift64(&mut armed.rng) >> 11) as f64 / (1u64 << 53) as f64;
                u < p
            }
        };
        if !fires {
            return Ok(());
        }
        let (op, nth, kind) = (armed.plan.op, armed.seen, armed.kind);
        if armed.recurrence == Recurrence::Once {
            *g = None;
            ARMED_FLAG.store(false, Ordering::Release);
        }
        drop(g);
        reg.counter(CounterId::IoFaultsInjected).inc();
        let msg = format!("{INJECTED_MARKER}: {op:?} #{nth} on {}", path.display());
        Err(if kind == io::ErrorKind::Other {
            io::Error::other(msg)
        } else {
            io::Error::new(kind, msg)
        })
    }
}

/// Bounded retry with exponential backoff for *transient* IO failures.
///
/// Transience is classified by `io::ErrorKind` alone: `Interrupted`,
/// `TimedOut` and `WouldBlock` model recoverable conditions (signal
/// delivery, a momentarily saturated device, a non-blocking handle);
/// everything else — including the fault shim's default
/// `ErrorKind::Other` injections — fails through immediately, so
/// crash-safety tests still observe their fault on the first call.
///
/// Used by the WAL append path (before the record is acknowledged) and
/// the manifest-swap path; each retry ticks
/// [`CounterId::IoRetries`](promips_obs::CounterId::IoRetries).
pub mod retry {
    use promips_obs::{CounterId, Registry};
    use std::io;
    use std::time::Duration;

    /// Retry budget: total attempts (first try included) and the initial
    /// backoff, doubled after each failure.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RetryPolicy {
        /// Total attempts, first call included; clamped to at least 1.
        pub attempts: u32,
        /// Sleep before the first retry; doubles per retry. Zero means
        /// retry immediately (useful in tests).
        pub base_backoff: Duration,
    }

    impl Default for RetryPolicy {
        fn default() -> Self {
            Self {
                attempts: 3,
                base_backoff: Duration::from_micros(500),
            }
        }
    }

    /// Whether `e` is worth retrying at all.
    pub fn is_transient(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        )
    }

    /// Runs `op`, retrying transient failures up to the policy's attempt
    /// budget with doubling backoff. The terminal error (transient budget
    /// exhausted, or any non-transient failure) is returned unchanged.
    pub fn retry_io<T>(
        policy: &RetryPolicy,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let attempts = policy.attempts.max(1);
        let mut backoff = policy.base_backoff;
        let mut attempt = 1;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < attempts && is_transient(&e) => {
                    Registry::global().counter(CounterId::IoRetries).inc();
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    backoff = backoff.saturating_mul(2);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::faults::{self, FaultPlan, IoOp, Recurrence};
    use super::retry::{self, RetryPolicy};
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Fault plans are process-global; tests arming them must not overlap.
    static FAULT_TESTS: Mutex<()> = Mutex::new(());

    fn fault_guard() -> MutexGuard<'static, ()> {
        FAULT_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("promips-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_cleans_tmp() {
        let dir = temp_dir("atomic");
        let dst = dir.join("MANIFEST.pms");
        write_file_atomic(&dst, b"one").unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"one");
        write_file_atomic(&dst, b"two-longer").unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"two-longer");
        assert!(
            !tmp_sibling(&dst).exists(),
            "tmp file must not survive a successful swap"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_is_overwritten_not_trusted() {
        let dir = temp_dir("stale");
        let dst = dir.join("MANIFEST.pms");
        // A crashed previous writer left a half-written temp file.
        std::fs::write(tmp_sibling(&dst), b"garbage from a crash").unwrap();
        write_file_atomic(&dst, b"fresh").unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"fresh");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_dir_works_on_real_directory() {
        let dir = temp_dir("fsync");
        fsync_dir(&dir).unwrap();
        assert!(fsync_dir(dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_advance_per_operation() {
        let _g = fault_guard();
        let dir = temp_dir("counters");
        let before = faults::counters();
        write_file_atomic(dir.join("f"), b"x").unwrap();
        let after = faults::counters();
        // write tmp (1 write), fsync tmp + fsync dir (2 fsyncs), 1 rename.
        assert!(after.writes > before.writes);
        assert!(after.fsyncs >= before.fsyncs + 2);
        assert!(after.renames > before.renames);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_rename_fault_preserves_old_contents() {
        let _g = fault_guard();
        let dir = temp_dir("inject-rename");
        let dst = dir.join("MANIFEST.pms");
        write_file_atomic(&dst, b"old").unwrap();
        faults::arm(FaultPlan {
            op: IoOp::Rename,
            nth: 1,
            path_contains: Some("MANIFEST".into()),
        });
        let err = write_file_atomic(&dst, b"new").unwrap_err();
        assert!(faults::is_injected(&err), "unexpected error: {err}");
        assert!(!faults::disarm(), "plan must self-disarm after firing");
        // The swap never happened: the published file still reads "old".
        assert_eq!(std::fs::read(&dst).unwrap(), b"old");
        // Recovery IO works again without explicit disarm.
        write_file_atomic(&dst, b"new").unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nth_and_path_scoping_select_the_target_op() {
        let _g = fault_guard();
        let dir = temp_dir("inject-nth");
        faults::arm(FaultPlan {
            op: IoOp::Fsync,
            nth: 2,
            path_contains: Some("inject-nth".into()),
        });
        // First fsync (tmp file) passes; second (directory) fails.
        let err = write_file_atomic(dir.join("a"), b"x").unwrap_err();
        assert!(faults::is_injected(&err));
        // Unscoped paths never count: arm for a non-matching substring.
        faults::arm(FaultPlan {
            op: IoOp::Write,
            nth: 1,
            path_contains: Some("no-such-path".into()),
        });
        write_file_atomic(dir.join("b"), b"y").unwrap();
        assert!(faults::disarm(), "non-matching plan stays armed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_nth_recurrence_keeps_firing_until_disarm() {
        let _g = fault_guard();
        let path = Path::new("recur-every-nth");
        faults::arm_with(
            FaultPlan {
                op: IoOp::Read,
                nth: 2,
                path_contains: Some("recur-every-nth".into()),
            },
            Recurrence::EveryNth(3),
            std::io::ErrorKind::Other,
        );
        let outcomes: Vec<bool> = (0..8)
            .map(|_| faults::check(IoOp::Read, path).is_err())
            .collect();
        // Gate at the 2nd op, then every 3rd matching op after it.
        assert_eq!(
            outcomes,
            [false, true, false, false, true, false, false, true]
        );
        assert!(faults::disarm(), "recurring plan stays armed after firing");
        assert!(faults::check(IoOp::Read, path).is_ok());
    }

    #[test]
    fn probabilistic_recurrence_is_deterministic_per_seed() {
        let _g = fault_guard();
        let path = Path::new("recur-prob");
        let run = |seed: u64| -> Vec<bool> {
            faults::arm_with(
                FaultPlan {
                    op: IoOp::Write,
                    nth: 1,
                    path_contains: Some("recur-prob".into()),
                },
                Recurrence::Probabilistic { seed, p: 0.5 },
                std::io::ErrorKind::Other,
            );
            let v = (0..64)
                .map(|_| faults::check(IoOp::Write, path).is_err())
                .collect();
            faults::disarm();
            v
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (8..=56).contains(&fired),
            "p=0.5 over 64 ops fired {fired} times — stream looks degenerate"
        );
        // p=1 always fires and the plan stays armed.
        faults::arm_with(
            FaultPlan {
                op: IoOp::Write,
                nth: 1,
                path_contains: Some("recur-prob".into()),
            },
            Recurrence::Probabilistic { seed: 9, p: 1.0 },
            std::io::ErrorKind::Other,
        );
        assert!(faults::check(IoOp::Write, path).is_err());
        assert!(faults::check(IoOp::Write, path).is_err());
        faults::disarm();
    }

    #[test]
    fn injected_kind_is_respected() {
        let _g = fault_guard();
        let path = Path::new("kind-scope");
        faults::arm_with(
            FaultPlan {
                op: IoOp::Fsync,
                nth: 1,
                path_contains: Some("kind-scope".into()),
            },
            Recurrence::Once,
            std::io::ErrorKind::Interrupted,
        );
        let err = faults::check(IoOp::Fsync, path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        assert!(faults::is_injected(&err));
        assert!(!faults::disarm(), "Once still self-disarms under arm_with");
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let _g = fault_guard();
        let path = Path::new("retry-transient");
        // Fail the first two write attempts with a transient kind.
        faults::arm_with(
            FaultPlan {
                op: IoOp::Write,
                nth: 1,
                path_contains: Some("retry-transient".into()),
            },
            Recurrence::EveryNth(1),
            std::io::ErrorKind::Interrupted,
        );
        let before = faults::counters();
        let mut calls = 0u32;
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff: std::time::Duration::ZERO,
        };
        let res = retry::retry_io(&policy, || {
            calls += 1;
            if calls >= 3 {
                faults::disarm();
            }
            faults::check(IoOp::Write, path)
        });
        assert!(res.is_ok(), "third attempt runs with the plan disarmed");
        assert_eq!(calls, 3);
        let after = faults::counters();
        assert_eq!(after.injected - before.injected, 2);
    }

    #[test]
    fn retry_fails_through_on_non_transient_and_exhaustion() {
        let _g = fault_guard();
        let path = Path::new("retry-hard");
        // Default injections are ErrorKind::Other: never retried, so the
        // crash-safety suites still see their fault on the first call.
        faults::arm(FaultPlan {
            op: IoOp::Write,
            nth: 1,
            path_contains: Some("retry-hard".into()),
        });
        let mut calls = 0u32;
        let err = retry::retry_io(&RetryPolicy::default(), || {
            calls += 1;
            faults::check(IoOp::Write, path)
        })
        .unwrap_err();
        assert!(faults::is_injected(&err));
        assert_eq!(calls, 1, "non-transient errors must not be retried");
        // A persistently transient fault exhausts the attempt budget.
        faults::arm_with(
            FaultPlan {
                op: IoOp::Write,
                nth: 1,
                path_contains: Some("retry-hard".into()),
            },
            Recurrence::EveryNth(1),
            std::io::ErrorKind::WouldBlock,
        );
        let mut calls = 0u32;
        let policy = RetryPolicy {
            attempts: 4,
            base_backoff: std::time::Duration::ZERO,
        };
        let err = retry::retry_io(&policy, || {
            calls += 1;
            faults::check(IoOp::Write, path)
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(calls, 4, "attempt budget is total calls, first included");
        assert!(faults::disarm());
    }
}
