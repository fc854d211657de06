//! Typed mutation errors.
//!
//! [`MutationError`] names the three refusals the shard layer's mutable
//! overlay can issue — plus the IO failures a durable one can hit — so
//! callers can degrade gracefully without matching on strings: a replicated writer skips
//! [`MutationError::DeadId`], surfaces [`MutationError::UnknownId`] to the
//! client, and treats only [`MutationError::Io`] as a storage incident.

use std::fmt;
use std::io;

/// Why a mutation (or a persistence call guarding against pending
/// mutations) was refused.
#[derive(Debug)]
pub enum MutationError {
    /// The id exists but is already tombstoned — deleting it again would
    /// corrupt live-point accounting, so the duplicate is refused.
    DeadId(u64),
    /// The id has never existed in this index.
    UnknownId(u64),
    /// `snapshot` refused because unfolded delta inserts or tombstones
    /// are pending; compact first.
    PendingMutations { delta: usize, tombstones: usize },
    /// The write-ahead log or index file failed underneath the mutation.
    Io(io::Error),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadId(id) => write!(f, "id {id} is already deleted"),
            Self::UnknownId(id) => write!(f, "id {id} has never existed in this index"),
            Self::PendingMutations { delta, tombstones } => write!(
                f,
                "cannot save with {delta} delta inserts and {tombstones} tombstones pending; rebuild first"
            ),
            Self::Io(e) => write!(f, "mutation IO failure: {e}"),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MutationError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<MutationError> for io::Error {
    fn from(e: MutationError) -> Self {
        match e {
            MutationError::Io(inner) => inner,
            MutationError::DeadId(_) | MutationError::UnknownId(_) => {
                io::Error::new(io::ErrorKind::NotFound, e)
            }
            MutationError::PendingMutations { .. } => {
                io::Error::new(io::ErrorKind::InvalidInput, e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_conversion_preserves_kind_and_message() {
        let e: io::Error = MutationError::UnknownId(42).into();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(e.to_string().contains("42"));
        let e: io::Error = MutationError::PendingMutations {
            delta: 3,
            tombstones: 1,
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("3 delta inserts"));
        let inner = io::Error::new(io::ErrorKind::PermissionDenied, "wal");
        let e: io::Error = MutationError::Io(inner).into();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn callers_can_downcast_from_io() {
        let e: io::Error = MutationError::DeadId(7).into();
        let m = e
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<MutationError>())
            .expect("typed error survives the io wrapper");
        assert!(matches!(m, MutationError::DeadId(7)));
    }
}
