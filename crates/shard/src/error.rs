//! Typed query-lifecycle errors for the sharded fan-out.
//!
//! The fan-out used to ride plain `io::Result`: the first shard failure
//! aborted the whole query with whatever `io::Error` the shard produced,
//! and there was no way to tell a storage fault from an expired deadline,
//! a cancelled query, or a crashed worker. [`QueryError`] names the
//! ways a sharded search can refuse to answer — and [`ShardError`] pins a
//! shard-level failure to the shard that produced it — so a serving layer
//! can route each one differently: retry elsewhere on
//! [`ShardErrorKind::Io`], shed load on [`QueryError::Overloaded`], and
//! simply report [`QueryError::DeadlineExceeded`] to the client that set
//! the budget.
//!
//! [`DegradationPolicy`] decides what a shard failure does to the query:
//! [`DegradationPolicy::FailFast`] (the default) aborts with a typed
//! error naming the shard, exactly like the historical behavior;
//! [`DegradationPolicy::BestEffort`] excludes the failed shard from the
//! merge and returns the top-k over the survivors with
//! [`crate::ShardedSearchResult::degraded`] set.

use std::fmt;
use std::io;

/// What the fan-out does when one shard's search fails mid-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// The first shard failure aborts the whole query with a
    /// [`QueryError`] naming the shard. Deterministic: when several
    /// shards fail in one query, the lowest shard index is reported
    /// however the fan-out is scheduled. The default — exact-or-error, no
    /// silent recall loss.
    #[default]
    FailFast,
    /// Failed shards are dropped from the merge; the query returns the
    /// best-effort top-k over surviving shards with
    /// [`crate::ShardedSearchResult::degraded`] set and the failed shards
    /// flagged in the per-shard stats. Only a query that loses **every**
    /// shard (or is refused by the admission gate) still errors.
    BestEffort,
}

/// Why one shard's search failed.
#[derive(Debug)]
pub enum ShardErrorKind {
    /// The shard's storage failed underneath the search.
    Io(io::Error),
    /// The query's deadline expired inside this shard.
    DeadlineExceeded,
    /// The query's cancellation token fired inside this shard.
    Cancelled,
    /// The shard's search panicked. The shard's shared state is
    /// suspect; under [`DegradationPolicy::BestEffort`] it is excluded
    /// like any other failure, but an operator should look.
    Poisoned,
}

/// One shard's search failure, naming the shard.
#[derive(Debug)]
pub struct ShardError {
    /// Index of the shard that failed.
    pub shard: u32,
    /// What went wrong inside it.
    pub kind: ShardErrorKind,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            // The inner message rides along so markers (e.g. the fault
            // shim's) survive the wrapper.
            ShardErrorKind::Io(e) => write!(f, "shard {} failed: {e}", self.shard),
            ShardErrorKind::DeadlineExceeded => {
                write!(f, "shard {} hit the query deadline", self.shard)
            }
            ShardErrorKind::Cancelled => write!(f, "shard {} query cancelled", self.shard),
            ShardErrorKind::Poisoned => {
                write!(f, "shard {} search worker panicked", self.shard)
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ShardErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a sharded search returned no result.
#[derive(Debug)]
pub enum QueryError {
    /// The query's [`promips_obs::QueryBudget`] deadline expired (under
    /// [`DegradationPolicy::BestEffort`], only when no shard finished in
    /// time — a partial expiry degrades instead).
    DeadlineExceeded,
    /// The query's cancellation token fired.
    Cancelled,
    /// The admission gate refused the query: `in_flight` searches were
    /// already running against a limit of `limit`. Purely a load
    /// condition — retrying after backoff is reasonable.
    Overloaded { in_flight: usize, limit: usize },
    /// The request itself cannot be answered: a query vector whose `‖q‖²`
    /// is not finite (a NaN, infinite or overflowing coordinate) has no
    /// inner-product order to return.
    InvalidInput(&'static str),
    /// A shard failed and the policy said not to degrade (or every shard
    /// failed).
    Shard(ShardError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded => write!(f, "query budget deadline exceeded"),
            Self::Cancelled => write!(f, "query cancelled"),
            Self::Overloaded { in_flight, limit } => write!(
                f,
                "query shed by admission control: {in_flight} in flight, limit {limit}"
            ),
            Self::InvalidInput(why) => write!(f, "invalid query: {why}"),
            Self::Shard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShardError> for QueryError {
    fn from(e: ShardError) -> Self {
        // A budget expiry is a property of the query, not the shard that
        // happened to notice it first: promote it to the query-level
        // variant so callers match one place.
        match e.kind {
            ShardErrorKind::DeadlineExceeded => Self::DeadlineExceeded,
            ShardErrorKind::Cancelled => Self::Cancelled,
            _ => Self::Shard(e),
        }
    }
}

impl From<QueryError> for io::Error {
    /// Kind mapping for callers on the plain `io::Result` search paths:
    /// deadline → `TimedOut`, overload → `WouldBlock` (both retryable
    /// conditions under [`promips_storage::retry`]'s transiency rules), a
    /// refused request → `InvalidInput`, shard IO keeps the underlying kind. The typed error stays
    /// downcastable via [`io::Error::get_ref`].
    fn from(e: QueryError) -> Self {
        let kind = match &e {
            QueryError::DeadlineExceeded => io::ErrorKind::TimedOut,
            QueryError::Cancelled => io::ErrorKind::Other,
            QueryError::Overloaded { .. } => io::ErrorKind::WouldBlock,
            QueryError::InvalidInput(_) => io::ErrorKind::InvalidInput,
            QueryError::Shard(se) => match &se.kind {
                ShardErrorKind::Io(inner) => inner.kind(),
                ShardErrorKind::DeadlineExceeded => io::ErrorKind::TimedOut,
                _ => io::ErrorKind::Other,
            },
        };
        io::Error::new(kind, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_shard_and_keeps_the_inner_message() {
        let e = ShardError {
            shard: 3,
            kind: ShardErrorKind::Io(io::Error::other("injected fault: Read #1")),
        };
        let msg = e.to_string();
        assert!(msg.contains("shard 3"), "{msg}");
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn budget_kinds_promote_to_query_level() {
        let q: QueryError = ShardError {
            shard: 1,
            kind: ShardErrorKind::DeadlineExceeded,
        }
        .into();
        assert!(matches!(q, QueryError::DeadlineExceeded));
        let q: QueryError = ShardError {
            shard: 1,
            kind: ShardErrorKind::Cancelled,
        }
        .into();
        assert!(matches!(q, QueryError::Cancelled));
        let q: QueryError = ShardError {
            shard: 1,
            kind: ShardErrorKind::Poisoned,
        }
        .into();
        assert!(matches!(q, QueryError::Shard(_)));
    }

    #[test]
    fn io_conversion_maps_kinds_and_stays_downcastable() {
        let e: io::Error = QueryError::DeadlineExceeded.into();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        let e: io::Error = QueryError::Overloaded {
            in_flight: 9,
            limit: 8,
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
        assert!(e.to_string().contains("9 in flight"));
        let inner = io::Error::new(io::ErrorKind::PermissionDenied, "disk");
        let e: io::Error = QueryError::Shard(ShardError {
            shard: 0,
            kind: ShardErrorKind::Io(inner),
        })
        .into();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
        let q = e
            .get_ref()
            .and_then(|i| i.downcast_ref::<QueryError>())
            .expect("typed error survives the io wrapper");
        assert!(matches!(q, QueryError::Shard(_)));
    }
}
