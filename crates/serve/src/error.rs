//! Server-side error types that are not client mistakes.

use crate::protocol::WireError;
use std::error::Error;
use std::fmt;

/// A fault inside the server itself (as opposed to a bad request or an
/// expected rejection). Currently the one variant the fault-injection
/// harness exercises; `#[non_exhaustive]` so more can follow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The worker thread handling a request panicked. The panic was caught
    /// with `catch_unwind`, the worker's machine was rebuilt, and the worker
    /// pool survived — only this request failed (`DESIGN.md` §10).
    WorkerFault {
        /// Id of the request whose handling panicked.
        request_id: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WorkerFault {
                request_id,
                message,
            } => write!(
                f,
                "worker panicked handling request {request_id}: {message} \
                 (worker recovered; request is safe to retry)"
            ),
        }
    }
}

impl Error for ServeError {}

impl ServeError {
    /// The wire form of this error.
    pub fn to_wire(&self) -> WireError {
        match self {
            ServeError::WorkerFault { .. } => {
                WireError::new(WireError::WORKER_FAULT, self.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_fault_maps_to_the_wire_kind() {
        let e = ServeError::WorkerFault {
            request_id: 42,
            message: "boom".into(),
        };
        let w = e.to_wire();
        assert_eq!(w.kind, WireError::WORKER_FAULT);
        assert!(w.message.contains("request 42"));
        assert!(w.message.contains("boom"));
        assert!(w.message.contains("safe to retry"));
    }
}
