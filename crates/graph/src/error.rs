use std::fmt;

/// Errors produced while constructing, generating, or looking up graphs.
#[derive(Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge referenced a vertex id `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A generator or builder was asked for an impossible configuration.
    InvalidParameter(String),
    /// A permutation passed to [`crate::reorder`] was not a bijection on `0..n`.
    InvalidPermutation(String),
    /// A name-keyed lookup (dataset code, scale name, …) matched nothing.
    /// Produced by the `FromStr` impls so bad names become boundary errors
    /// instead of panics inside the registry.
    UnknownName {
        /// What kind of name was looked up ("dataset", "scale", …).
        kind: &'static str,
        /// The offending input.
        given: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex id {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            GraphError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            GraphError::UnknownName { kind, given } => {
                write!(f, "unknown {kind} `{given}`")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 9, n: 4 };
        let s = e.to_string();
        assert!(s.contains("9") && s.contains("4"));
        assert!(s.chars().next().unwrap().is_lowercase());
    }
}
