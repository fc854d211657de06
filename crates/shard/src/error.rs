//! Typed query-lifecycle errors for the sharded fan-out.
//!
//! [`QueryError`] names the ways a sharded search can refuse to answer,
//! and [`ShardError`] pins a shard-level failure to the shard that
//! produced it, so a caller can route each one differently: retry on
//! [`ShardErrorKind::Io`], report [`QueryError::DeadlineExceeded`] to the
//! client that set the budget, look at a [`ShardErrorKind::Poisoned`]
//! shard. A query is fail-fast: the first shard failure aborts it, and
//! the error names the lowest failing shard however the fan-out was
//! scheduled. A query returns the top-k over the whole index or an error,
//! never an answer over part of it.

use std::fmt;
use std::io;

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
    /// suspect: an operator should look.
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
    /// The query's [`promips_obs::QueryBudget`] deadline expired.
    DeadlineExceeded,
    /// The query's cancellation token fired.
    Cancelled,
    /// The request itself cannot be answered: a query vector whose `‖q‖²`
    /// is not finite (a NaN, infinite or overflowing coordinate) has no
    /// inner-product order to return.
    InvalidInput(&'static str),
    /// A shard failed: the lowest failing shard, with what went wrong.
    Shard(ShardError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded => write!(f, "query budget deadline exceeded"),
            Self::Cancelled => write!(f, "query cancelled"),
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
    /// deadline → `TimedOut` (retryable under [`promips_storage::retry`]'s
    /// transiency rules), a refused request → `InvalidInput`, shard IO keeps
    /// the underlying kind. The typed error stays downcastable via
    /// [`io::Error::get_ref`].
    fn from(e: QueryError) -> Self {
        let kind = match &e {
            QueryError::DeadlineExceeded => io::ErrorKind::TimedOut,
            QueryError::Cancelled => io::ErrorKind::Other,
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
