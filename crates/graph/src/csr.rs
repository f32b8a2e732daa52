use crate::{GraphError, VertexId, Weight};

/// A graph in compressed-sparse-row form, with both outgoing and incoming
/// adjacency and optional per-edge weights.
///
/// Vertices are dense integers `0..n`. For a directed graph, `m` counts
/// directed edges; for an undirected graph, each edge `{u, v}` is stored in
/// both directions and `m` counts it **once** (matching how Table I of the
/// paper reports edge counts).
///
/// The incoming adjacency (`in_neighbors`) is what drives the paper's key
/// metric — *in-degree connectivity*, the fraction of incoming edges that
/// land on the most-connected vertices — and Ligra's pull-direction
/// `edge_map`.
///
/// # Example
///
/// ```
/// use omega_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::directed(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(0, 2)?;
/// b.add_edge(2, 1)?;
/// let g = b.build();
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.in_degree(1), 2);
/// assert_eq!(g.out_neighbors(2).collect::<Vec<_>>(), vec![1]);
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    m: u64,
    directed: bool,
    out_off: Vec<u64>,
    out_dst: Vec<VertexId>,
    out_wt: Option<Vec<Weight>>,
    in_off: Vec<u64>,
    in_src: Vec<VertexId>,
    in_wt: Option<Vec<Weight>>,
}

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays. Prefer [`crate::GraphBuilder`];
    /// this exists for deserialisation and tests.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if the offset arrays are not
    /// monotone, do not have length `n + 1`, or reference out-of-range
    /// vertices, or if weight array lengths disagree with adjacency lengths.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        n: usize,
        m: u64,
        directed: bool,
        out_off: Vec<u64>,
        out_dst: Vec<VertexId>,
        out_wt: Option<Vec<Weight>>,
        in_off: Vec<u64>,
        in_src: Vec<VertexId>,
        in_wt: Option<Vec<Weight>>,
    ) -> Result<Self, GraphError> {
        let check =
            |off: &[u64], adj: &[VertexId], wt: &Option<Vec<Weight>>| -> Result<(), GraphError> {
                if off.len() != n + 1 {
                    return Err(GraphError::InvalidParameter(format!(
                        "offset array has length {}, expected {}",
                        off.len(),
                        n + 1
                    )));
                }
                if off[0] != 0 || *off.last().unwrap() != adj.len() as u64 {
                    return Err(GraphError::InvalidParameter(
                        "offset array endpoints do not match adjacency length".into(),
                    ));
                }
                if off.windows(2).any(|w| w[0] > w[1]) {
                    return Err(GraphError::InvalidParameter(
                        "offset array is not monotone".into(),
                    ));
                }
                if let Some(v) = adj.iter().find(|&&v| v as usize >= n) {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: *v as u64,
                        n,
                    });
                }
                if let Some(w) = wt {
                    if w.len() != adj.len() {
                        return Err(GraphError::InvalidParameter(
                            "weight array length does not match adjacency length".into(),
                        ));
                    }
                }
                Ok(())
            };
        check(&out_off, &out_dst, &out_wt)?;
        check(&in_off, &in_src, &in_wt)?;
        Ok(CsrGraph {
            n,
            m,
            directed,
            out_off,
            out_dst,
            out_wt,
            in_off,
            in_src,
            in_wt,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges (undirected edges counted once).
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// Number of stored directed arcs (undirected edges counted twice).
    pub fn num_arcs(&self) -> u64 {
        self.out_dst.len() as u64
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.out_wt.is_some()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.out_off[v + 1] - self.out_off[v]) as u32
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn in_degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.in_off[v + 1] - self.in_off[v]) as u32
    }

    /// Iterator over the out-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn out_neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        let v = v as usize;
        NeighborIter {
            inner: self.out_dst[self.out_off[v] as usize..self.out_off[v + 1] as usize].iter(),
        }
    }

    /// Iterator over the in-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn in_neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        let v = v as usize;
        NeighborIter {
            inner: self.in_src[self.in_off[v] as usize..self.in_off[v + 1] as usize].iter(),
        }
    }

    /// Iterator over `(neighbor, weight)` pairs along outgoing edges.
    /// Unweighted graphs yield weight 1 for every edge.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn out_neighbors_weighted(&self, v: VertexId) -> WeightedNeighborIter<'_> {
        let v = v as usize;
        let range = self.out_off[v] as usize..self.out_off[v + 1] as usize;
        WeightedNeighborIter {
            adj: self.out_dst[range.clone()].iter(),
            wt: self.out_wt.as_ref().map(|w| w[range].iter()),
        }
    }

    /// Iterator over `(neighbor, weight)` pairs along incoming edges.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn in_neighbors_weighted(&self, v: VertexId) -> WeightedNeighborIter<'_> {
        let v = v as usize;
        let range = self.in_off[v] as usize..self.in_off[v + 1] as usize;
        WeightedNeighborIter {
            adj: self.in_src[range.clone()].iter(),
            wt: self.in_wt.as_ref().map(|w| w[range].iter()),
        }
    }

    /// The global index of the first outgoing arc of `v` — useful for laying
    /// out per-edge data and for the tracer's edge-array addressing.
    ///
    /// # Panics
    ///
    /// Panics if `v > num_vertices()` (the one-past-the-end offset is valid).
    pub fn out_offset(&self, v: VertexId) -> u64 {
        self.out_off[v as usize]
    }

    /// The global index of the first incoming arc of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v > num_vertices()`.
    pub fn in_offset(&self, v: VertexId) -> u64 {
        self.in_off[v as usize]
    }

    /// Iterator over all directed arcs `(src, dst)` in source order.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n as VertexId).flat_map(move |u| self.out_neighbors(u).map(move |v| (u, v)))
    }

    /// Returns `true` if `v`'s out-adjacency contains `w` (binary search;
    /// adjacency lists built by [`crate::GraphBuilder`] are sorted).
    pub fn has_edge(&self, v: VertexId, w: VertexId) -> bool {
        let v = v as usize;
        self.out_dst[self.out_off[v] as usize..self.out_off[v + 1] as usize]
            .binary_search(&w)
            .is_ok()
    }
}

/// Iterator over the neighbors of a vertex, created by
/// [`CsrGraph::out_neighbors`] / [`CsrGraph::in_neighbors`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, VertexId>,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Iterator over `(neighbor, weight)` pairs, created by
/// [`CsrGraph::out_neighbors_weighted`] / [`CsrGraph::in_neighbors_weighted`].
#[derive(Debug, Clone)]
pub struct WeightedNeighborIter<'a> {
    adj: std::slice::Iter<'a, VertexId>,
    wt: Option<std::slice::Iter<'a, Weight>>,
}

impl Iterator for WeightedNeighborIter<'_> {
    type Item = (VertexId, Weight);

    fn next(&mut self) -> Option<(VertexId, Weight)> {
        let v = *self.adj.next()?;
        let w = match &mut self.wt {
            Some(it) => *it.next().expect("weight array length matches adjacency"),
            None => 1,
        };
        Some((v, w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.adj.size_hint()
    }
}

impl ExactSizeIterator for WeightedNeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::directed(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn degrees_match_structure() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn neighbor_iterators_are_sorted_and_exact() {
        let g = diamond();
        let out: Vec<_> = g.out_neighbors(0).collect();
        assert_eq!(out, vec![1, 2]);
        let it = g.out_neighbors(0);
        assert_eq!(it.len(), 2);
        let ins: Vec<_> = g.in_neighbors(3).collect();
        assert_eq!(ins, vec![1, 2]);
    }

    #[test]
    fn unweighted_graph_yields_unit_weights() {
        let g = diamond();
        let wts: Vec<_> = g.out_neighbors_weighted(0).map(|(_, w)| w).collect();
        assert_eq!(wts, vec![1, 1]);
    }

    #[test]
    fn has_edge_uses_sorted_adjacency() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn arcs_enumerates_all_directed_edges() {
        let g = diamond();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn from_parts_rejects_bad_offsets() {
        let r = CsrGraph::from_parts(
            2,
            1,
            true,
            vec![0, 2],
            vec![1],
            None,
            vec![0, 0, 1],
            vec![0],
            None,
        );
        assert!(matches!(r, Err(GraphError::InvalidParameter(_))));
    }

    #[test]
    fn from_parts_rejects_out_of_range_vertex() {
        let r = CsrGraph::from_parts(
            2,
            1,
            true,
            vec![0, 1, 1],
            vec![5],
            None,
            vec![0, 0, 1],
            vec![0],
            None,
        );
        assert!(matches!(
            r,
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }

    #[test]
    fn from_parts_rejects_nonmonotone_offsets() {
        let r = CsrGraph::from_parts(
            2,
            1,
            true,
            vec![0, 2, 1],
            vec![1],
            None,
            vec![0, 0, 1],
            vec![0],
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn from_parts_rejects_mismatched_weights() {
        let r = CsrGraph::from_parts(
            2,
            1,
            true,
            vec![0, 1, 1],
            vec![1],
            Some(vec![3, 4]),
            vec![0, 0, 1],
            vec![0],
            None,
        );
        assert!(r.is_err());
    }
}
