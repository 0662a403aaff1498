//! Typed errors of the network layer.

use std::fmt;

use crate::message::ErrorCode;

/// Errors produced by the network client, server, and shard router.
#[derive(Debug)]
pub enum NetError {
    /// A socket or pipe operation failed environmentally (refused
    /// connect, reset, closed pipe). Usually transient: the client
    /// retries these with backoff.
    Io(String),
    /// The byte stream violated the wire protocol — bad magic, a length
    /// over the cap, a checksum mismatch, or an unknown frame kind. The
    /// connection cannot be resynchronised and is closed after a typed
    /// `BadFrame` error frame.
    Protocol(String),
    /// The peer speaks an unsupported protocol version.
    VersionMismatch {
        /// The version this build speaks.
        ours: u32,
        /// The version the peer declared.
        theirs: u32,
    },
    /// The server answered with a typed error frame instead of a result.
    Server {
        /// Machine-readable refusal class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Whether the server suggested retrying (e.g. `Overloaded`).
        retryable: bool,
    },
    /// The peer closed the connection mid-operation; the request may or
    /// may not have been journaled server-side. A resubmit with the same
    /// job id resumes instead of redoing work.
    Disconnected,
    /// Every retry (connects or resubmits) was exhausted.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last attempt's error.
        last: String,
    },
    /// A local serving failure that is not expressible as a typed error
    /// frame (worker thread death, spawn failure, malformed design).
    Serve(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network i/o error: {e}"),
            NetError::Protocol(e) => write!(f, "wire protocol violation: {e}"),
            NetError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer declared v{theirs}"
            ),
            NetError::Server {
                code,
                message,
                retryable,
            } => write!(
                f,
                "server refused ({}, retryable={retryable}): {message}",
                code.as_str()
            ),
            NetError::Disconnected => write!(f, "peer disconnected mid-operation"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
            NetError::Serve(e) => write!(f, "serving failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

#[doc(hidden)]
impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl NetError {
    /// Whether a client should back off and try again: transient I/O,
    /// a dropped connection, or a server refusal marked retryable.
    pub fn is_transient(&self) -> bool {
        match self {
            NetError::Io(_) | NetError::Disconnected => true,
            NetError::Server { retryable, .. } => *retryable,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::VersionMismatch { ours: 1, theirs: 9 };
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("v9"));
        let e = NetError::Server {
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            retryable: true,
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.is_transient());
        assert!(!NetError::Protocol("bad magic".to_string()).is_transient());
        assert!(NetError::Disconnected.is_transient());
    }
}
