//! The workspace error type.
//!
//! [`OmegaError`] is the single error currency shared by the harness
//! crates and — most importantly — the `omega-serve` front-end: every
//! failure a request can hit (an unknown dataset name, a malformed wire
//! frame, a corrupt store entry, an I/O fault) maps onto one variant with
//! a stable machine-readable [`OmegaError::code`], so a server can turn
//! *any* error into a structured wire response instead of dying, and a
//! client can dispatch on the code without parsing prose.
//!
//! Conversions are lossless where it matters: [`omega_graph::GraphError`]
//! keeps its structure (an `UnknownName` stays an `UnknownName` rather
//! than degrading to a string), and `std::io::Error` keeps its source
//! chain.

use omega_graph::GraphError;
use std::fmt;

/// Any failure produced by the OMEGA reproduction's harness layers.
#[derive(Debug)]
#[non_exhaustive]
pub enum OmegaError {
    /// A name-keyed lookup (dataset code, algorithm, machine kind, dataset
    /// scale, wire method, …) did not match any known entry. This is the
    /// typed boundary error that replaces "panic deep in the registry":
    /// reject the name where it enters the system.
    UnknownName {
        /// What kind of name was looked up ("dataset", "algo", …).
        kind: &'static str,
        /// The offending input.
        given: String,
        /// A human-readable list of accepted names.
        expected: String,
    },
    /// A configuration was structurally valid but semantically impossible
    /// (e.g. a scratchpad scale below the hardware floor).
    InvalidConfig(String),
    /// A request named a valid combination that the model cannot run
    /// (e.g. an undirected-only algorithm on a directed dataset).
    Unsupported(String),
    /// A graph construction/generation/parsing failure.
    Graph(GraphError),
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// Persisted or transmitted data failed validation: store entries with
    /// bad checksums, JSON that does not decode into the claimed schema.
    Corrupt(String),
    /// A wire-protocol violation: bad framing, missing fields, an
    /// envelope that is not the expected schema.
    Protocol(String),
    /// A service declined work because its admission queue was full.
    Busy {
        /// Jobs queued when the request was shed.
        queue_depth: usize,
        /// The queue's configured capacity.
        queue_limit: usize,
    },
    /// A service is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// An internal invariant failed (worker panic, poisoned state). The
    /// request dies; the process does not.
    Internal(String),
}

impl OmegaError {
    /// Convenience constructor for [`OmegaError::UnknownName`].
    pub fn unknown_name(
        kind: &'static str,
        given: impl Into<String>,
        expected: impl Into<String>,
    ) -> Self {
        OmegaError::UnknownName {
            kind,
            given: given.into(),
            expected: expected.into(),
        }
    }

    /// Stable machine-readable error code, the `code` field of wire-level
    /// error responses. One code per variant; never reused.
    pub fn code(&self) -> &'static str {
        match self {
            OmegaError::UnknownName { .. } => "unknown-name",
            OmegaError::InvalidConfig(_) => "invalid-config",
            OmegaError::Unsupported(_) => "unsupported",
            OmegaError::Graph(_) => "graph",
            OmegaError::Io(_) => "io",
            OmegaError::Corrupt(_) => "corrupt",
            OmegaError::Protocol(_) => "protocol",
            OmegaError::Busy { .. } => "busy",
            OmegaError::ShuttingDown => "shutting-down",
            OmegaError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for OmegaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmegaError::UnknownName {
                kind,
                given,
                expected,
            } => {
                write!(f, "unknown {kind} `{given}` (expected one of: {expected})")
            }
            OmegaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            OmegaError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
            OmegaError::Graph(e) => write!(f, "graph error: {e}"),
            OmegaError::Io(e) => write!(f, "i/o error: {e}"),
            OmegaError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            OmegaError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            OmegaError::Busy {
                queue_depth,
                queue_limit,
            } => write!(
                f,
                "busy: admission queue full ({queue_depth}/{queue_limit})"
            ),
            OmegaError::ShuttingDown => write!(f, "service is shutting down"),
            OmegaError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for OmegaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OmegaError::Graph(e) => Some(e),
            OmegaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for OmegaError {
    fn from(e: GraphError) -> Self {
        match e {
            // Keep boundary lookups structured rather than stringly.
            GraphError::UnknownName { kind, given } => OmegaError::UnknownName {
                kind,
                given,
                expected: String::new(),
            },
            other => OmegaError::Graph(other),
        }
    }
}

impl From<std::io::Error> for OmegaError {
    fn from(e: std::io::Error) -> Self {
        OmegaError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let variants = [
            OmegaError::unknown_name("dataset", "nope", "sd, lj"),
            OmegaError::InvalidConfig("x".into()),
            OmegaError::Unsupported("x".into()),
            OmegaError::Graph(GraphError::InvalidParameter("x".into())),
            OmegaError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            OmegaError::Corrupt("x".into()),
            OmegaError::Protocol("x".into()),
            OmegaError::Busy {
                queue_depth: 4,
                queue_limit: 4,
            },
            OmegaError::ShuttingDown,
            OmegaError::Internal("x".into()),
        ];
        let codes: std::collections::HashSet<&str> = variants.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), variants.len(), "one code per variant");
    }

    #[test]
    fn display_names_the_offending_input() {
        let e = OmegaError::unknown_name("algo", "dijkstra", "pagerank, bfs");
        let s = e.to_string();
        assert!(s.contains("dijkstra") && s.contains("pagerank"), "{s}");
    }

    #[test]
    fn graph_unknown_name_stays_structured() {
        let e = OmegaError::from(GraphError::UnknownName {
            kind: "dataset",
            given: "nope".into(),
        });
        assert_eq!(e.code(), "unknown-name");
    }

    #[test]
    fn io_source_chain_survives() {
        use std::error::Error;
        let e = OmegaError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
    }
}
