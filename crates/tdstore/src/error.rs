//! Error type for TDStore operations.

use std::fmt;

/// Errors returned by the TDStore client and the checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A disk operation on the checkpoint log failed.
    Io(String),
    /// A fault injected by a chaos [`tchaos::FaultPlan`]; the write it
    /// replaced was never applied, so retrying is always safe.
    Injected,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Injected => write!(f, "injected fault (chaos testing)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}
