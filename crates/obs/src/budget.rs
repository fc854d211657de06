//! Query budgets: wall-clock deadlines and cooperative cancellation.
//!
//! A [`QueryBudget`] travels with one query from the sharded fan-out down
//! into the core scan and verify loops. Those loops are cooperative, not
//! preemptive: they call [`BudgetChecker::tick`] once per block of work
//! (a verified sub-partition group, a nearest-neighbour step), and the
//! checker amortizes the clock read over a stride of ticks so an armed
//! budget costs a handful of relaxed loads per block — and an absent one
//! costs a single branch.
//!
//! Deadlines are absolute [`now_ns`] values, so a budget can be handed to
//! worker threads without re-anchoring, and the remaining budget at
//! completion is a plain subtraction (a traced request returns it as
//! [`QueryTrace::budget_remaining_ns`](crate::QueryTrace::budget_remaining_ns)).
//!
//! A [`BudgetExceeded`] converts into `io::Error` (and back, via
//! [`budget_error`]) so it can ride the existing `io::Result` plumbing of
//! the search path and be re-typed at the shard boundary.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::now_ns;

/// Shared cancellation flag: clone it into the serving thread, keep one
/// handle on the control side, flip it to stop the query at its next
/// cooperative check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every budget carrying this token fails its
    /// next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested. A single relaxed load.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-query execution budget: an optional absolute deadline plus an
/// optional cancellation token. The default budget is unlimited and
/// checks for free.
#[derive(Clone, Debug, Default)]
pub struct QueryBudget {
    /// Absolute [`now_ns`] deadline; `None` means no deadline.
    deadline_ns: Option<u64>,
    cancel: Option<CancelToken>,
}

impl QueryBudget {
    /// No deadline, no cancellation: checks always pass.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Deadline `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        let ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        Self {
            deadline_ns: Some(now_ns().saturating_add(ns)),
            cancel: None,
        }
    }

    /// Deadline at an absolute [`now_ns`] instant (already-expired values
    /// are legal: the first check fails).
    pub fn with_deadline_at(deadline_ns: u64) -> Self {
        Self {
            deadline_ns: Some(deadline_ns),
            cancel: None,
        }
    }

    /// Attaches a cancellation token (keep a clone to trigger it).
    pub fn cancellable(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when neither a deadline nor a token is armed — the zero-cost
    /// fast path.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ns.is_none() && self.cancel.is_none()
    }

    /// The absolute deadline, if one is armed.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }

    /// Nanoseconds left before the deadline (0 once expired); `None`
    /// without a deadline.
    pub fn remaining_ns(&self) -> Option<u64> {
        self.deadline_ns.map(|d| d.saturating_sub(now_ns()))
    }

    /// Unamortized check: reads the cancel flag and the clock.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(BudgetExceeded::Cancelled);
            }
        }
        if let Some(d) = self.deadline_ns {
            if now_ns() >= d {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }
}

/// Why a budgeted query stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation token fired.
    Cancelled,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Deadline => write!(f, "query budget deadline exceeded"),
            Self::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

impl From<BudgetExceeded> for io::Error {
    fn from(e: BudgetExceeded) -> Self {
        match e {
            BudgetExceeded::Deadline => io::Error::new(io::ErrorKind::TimedOut, e),
            BudgetExceeded::Cancelled => io::Error::other(e),
        }
    }
}

/// Recovers a [`BudgetExceeded`] from an `io::Error` produced by its
/// `From` conversion (possibly after crossing `io::Result` plumbing).
pub fn budget_error(e: &io::Error) -> Option<BudgetExceeded> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<BudgetExceeded>())
        .copied()
}

/// Amortizing cooperative checker: the cancel flag is one relaxed load
/// per [`BudgetChecker::tick`], the clock is read once per `stride`
/// ticks, and a `None` budget short-circuits to a single branch.
#[derive(Debug)]
pub struct BudgetChecker<'a> {
    budget: Option<&'a QueryBudget>,
    stride: u32,
    countdown: u32,
}

impl<'a> BudgetChecker<'a> {
    /// Clock-read stride of [`BudgetChecker::new`]. A tick is a page the
    /// calling thread sweeps or a sub-partition the walk visits (on the
    /// annulus path, a sub-partition scanned or a group verified).
    pub const DEFAULT_STRIDE: u32 = 16;

    pub fn new(budget: Option<&'a QueryBudget>) -> Self {
        Self::with_stride(budget, Self::DEFAULT_STRIDE)
    }

    /// As [`BudgetChecker::new`] with an explicit clock-read stride
    /// (clamped to at least 1).
    pub fn with_stride(budget: Option<&'a QueryBudget>, stride: u32) -> Self {
        // An unlimited budget degrades to the no-budget fast path.
        let budget = budget.filter(|b| !b.is_unlimited());
        let stride = stride.max(1);
        Self {
            budget,
            stride,
            // First tick reads the clock, so an already-expired deadline
            // fails before any real work is done.
            countdown: 1,
        }
    }

    /// One cooperative check. Call once per unit of bounded work (a
    /// verified group, an iterator step).
    #[inline]
    pub fn tick(&mut self) -> Result<(), BudgetExceeded> {
        let Some(b) = self.budget else {
            return Ok(());
        };
        if let Some(tok) = &b.cancel {
            if tok.is_cancelled() {
                return Err(BudgetExceeded::Cancelled);
            }
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.stride;
            if let Some(d) = b.deadline_ns {
                if now_ns() >= d {
                    return Err(BudgetExceeded::Deadline);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check().is_ok());
        assert_eq!(b.remaining_ns(), None);
        let mut c = BudgetChecker::new(Some(&b));
        for _ in 0..1000 {
            assert!(c.tick().is_ok());
        }
    }

    #[test]
    fn expired_deadline_fails_first_tick() {
        let b = QueryBudget::with_deadline_at(0);
        assert_eq!(b.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(b.remaining_ns(), Some(0));
        let mut c = BudgetChecker::new(Some(&b));
        assert_eq!(c.tick(), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = QueryBudget::with_deadline(Duration::from_secs(3600));
        assert!(b.check().is_ok());
        assert!(b.remaining_ns().unwrap() > 0);
        let mut c = BudgetChecker::new(Some(&b));
        for _ in 0..100 {
            assert!(c.tick().is_ok());
        }
    }

    #[test]
    fn cancellation_fires_on_every_tick() {
        let tok = CancelToken::new();
        let b = QueryBudget::unlimited().cancellable(tok.clone());
        assert!(!b.is_unlimited());
        let mut c = BudgetChecker::with_stride(Some(&b), 1000);
        assert!(c.tick().is_ok());
        tok.cancel();
        // Cancellation is checked on every tick, not just at clock
        // strides.
        assert_eq!(c.tick(), Err(BudgetExceeded::Cancelled));
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn io_error_round_trip() {
        let e: io::Error = BudgetExceeded::Deadline.into();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert_eq!(budget_error(&e), Some(BudgetExceeded::Deadline));
        let e: io::Error = BudgetExceeded::Cancelled.into();
        assert_eq!(budget_error(&e), Some(BudgetExceeded::Cancelled));
        let plain = io::Error::new(io::ErrorKind::TimedOut, "not a budget error");
        assert_eq!(budget_error(&plain), None);
    }

    #[test]
    fn amortized_checker_eventually_sees_deadline() {
        // Deadline in the past, but stride 64: the first tick still reads
        // the clock (countdown starts at 1).
        let b = QueryBudget::with_deadline_at(1);
        let mut c = BudgetChecker::with_stride(Some(&b), 64);
        assert_eq!(c.tick(), Err(BudgetExceeded::Deadline));
    }
}
