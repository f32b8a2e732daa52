//! Ligra's `vertexSubset`: the frontier of active vertices, in sparse
//! (vertex-id list) or dense (bit-vector) representation.
//!
//! Ligra switches representation by frontier density; the paper's active
//! lists (§V.B "Maintaining the active-list") are exactly these two
//! structures, and OMEGA gives the dense one a bit per scratchpad-resident
//! vertex.

use omega_graph::VertexId;

/// A set of active vertices over `0..n`.
///
/// # Example
///
/// ```
/// use omega_ligra::VertexSubset;
///
/// let mut frontier = VertexSubset::from_ids(100, vec![3, 1, 4, 1, 5]);
/// assert_eq!(frontier.len(), 4); // deduplicated
/// assert!(frontier.contains(4));
/// frontier.densify();
/// assert!(frontier.is_dense());
/// assert_eq!(frontier.to_ids(), vec![1, 3, 4, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VertexSubset {
    /// Sorted list of active vertex ids.
    Sparse {
        /// Total number of vertices in the graph.
        n: usize,
        /// Active ids, ascending.
        ids: Vec<VertexId>,
    },
    /// One flag per vertex.
    Dense {
        /// Membership flags.
        flags: Vec<bool>,
        /// Number of set flags.
        count: usize,
    },
}

impl VertexSubset {
    /// The empty subset (sparse).
    pub fn empty(n: usize) -> Self {
        VertexSubset::Sparse { n, ids: Vec::new() }
    }

    /// A single active vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn single(n: usize, v: VertexId) -> Self {
        assert!((v as usize) < n, "vertex {v} out of range {n}");
        VertexSubset::Sparse { n, ids: vec![v] }
    }

    /// All `n` vertices active (dense).
    pub fn all(n: usize) -> Self {
        VertexSubset::Dense {
            flags: vec![true; n],
            count: n,
        }
    }

    /// Builds a sparse subset from ids (sorted and deduplicated here).
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= n`.
    pub fn from_ids(n: usize, mut ids: Vec<VertexId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        if let Some(&max) = ids.last() {
            assert!((max as usize) < n, "vertex {max} out of range {n}");
        }
        VertexSubset::Sparse { n, ids }
    }

    /// Number of vertices in the universe.
    pub fn universe(&self) -> usize {
        match self {
            VertexSubset::Sparse { n, .. } => *n,
            VertexSubset::Dense { flags, .. } => flags.len(),
        }
    }

    /// Number of active vertices.
    pub fn len(&self) -> usize {
        match self {
            VertexSubset::Sparse { ids, .. } => ids.len(),
            VertexSubset::Dense { count, .. } => *count,
        }
    }

    /// Whether no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the representation is dense.
    pub fn is_dense(&self) -> bool {
        matches!(self, VertexSubset::Dense { .. })
    }

    /// Membership test.
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            VertexSubset::Sparse { ids, .. } => ids.binary_search(&v).is_ok(),
            VertexSubset::Dense { flags, .. } => flags[v as usize],
        }
    }

    /// Active ids in ascending order (allocates for dense subsets).
    pub fn to_ids(&self) -> Vec<VertexId> {
        match self {
            VertexSubset::Sparse { ids, .. } => ids.clone(),
            VertexSubset::Dense { flags, .. } => flags
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f)
                .map(|(i, _)| i as VertexId)
                .collect(),
        }
    }

    /// Converts to dense in place.
    pub fn densify(&mut self) {
        if let VertexSubset::Sparse { n, ids } = self {
            let mut flags = vec![false; *n];
            for &v in ids.iter() {
                flags[v as usize] = true;
            }
            let count = ids.len();
            *self = VertexSubset::Dense { flags, count };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        let s = VertexSubset::empty(5);
        assert!(s.is_empty());
        let s = VertexSubset::single(5, 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
        assert!(!s.contains(2));
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = VertexSubset::from_ids(10, vec![5, 1, 5, 3]);
        assert_eq!(s.to_ids(), vec![1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn densify_sparsify_roundtrip() {
        let mut s = VertexSubset::from_ids(8, vec![0, 7, 2]);
        s.densify();
        assert!(s.is_dense());
        assert_eq!(s.len(), 3);
        assert!(s.contains(7));
        assert_eq!(s.to_ids(), vec![0, 2, 7]);
    }

    #[test]
    fn all_is_dense_and_full() {
        let s = VertexSubset::all(4);
        assert!(s.is_dense());
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_ids(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_out_of_range_panics() {
        VertexSubset::single(2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_ids_out_of_range_panics() {
        VertexSubset::from_ids(2, vec![0, 5]);
    }
}
