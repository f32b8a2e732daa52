//! Graph slicing (§VII "Scaling scratchpad usage to large graphs").
//!
//! When even the hot 20% of `vtxProp` exceeds on-chip storage, the paper
//! discusses partitioning the graph into *slices* processed one at a time:
//!
//! * [`slice_by_vertex_budget`] — the classic scheme (\[19\], \[45\] in the
//!   paper): cut the vertex range so each slice's **entire** vtxProp fits the
//!   budget; every slice keeps only the arcs whose destination is inside it.
//! * [`slice_hot_budget`] — the paper's improvement (§VII.3): cut so that
//!   only the *hot 20%* of each slice's vtxProp must fit, exploiting the
//!   power law to reduce the slice count by "up to 5x".
//!
//! Both return [`GraphSlice`]s that partition the destination-vertex space;
//! running an algorithm over all slices and merging is equivalent to running
//! on the full graph (verified by the integration tests).

use crate::{CsrGraph, GraphBuilder, GraphError, VertexId};

/// One slice of a sliced graph: the subgraph containing every arc whose
/// destination falls inside `dst_range`.
#[derive(Debug, Clone)]
pub struct GraphSlice {
    /// Destination-vertex interval `[start, end)` owned by this slice.
    pub dst_range: std::ops::Range<VertexId>,
    /// The slice subgraph. Vertex ids are **global** (same id space as the
    /// original graph) so per-vertex state carries across slices.
    pub graph: CsrGraph,
}

impl GraphSlice {
    /// Number of destination vertices owned by the slice.
    pub fn owned_vertices(&self) -> usize {
        (self.dst_range.end - self.dst_range.start) as usize
    }
}

/// Slices so that each slice owns at most `vertex_budget` destination
/// vertices (i.e. the whole slice vtxProp fits a budget of that many
/// entries). Slices are contiguous vertex ranges, as in GridGraph/Graphicionado.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `vertex_budget == 0`.
///
/// # Example
///
/// ```
/// use omega_graph::{generators, slicing};
///
/// let g = generators::rmat(8, 4, generators::RmatParams::default(), 2)?;
/// let slices = slicing::slice_by_vertex_budget(&g, 64)?;
/// assert_eq!(slices.len(), 4); // 256 vertices / 64 per slice
/// let arcs: u64 = slices.iter().map(|s| s.graph.num_arcs()).sum();
/// assert_eq!(arcs, g.num_arcs());
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
pub fn slice_by_vertex_budget(
    g: &CsrGraph,
    vertex_budget: usize,
) -> Result<Vec<GraphSlice>, GraphError> {
    if vertex_budget == 0 {
        return Err(GraphError::InvalidParameter(
            "vertex budget must be positive".into(),
        ));
    }
    let n = g.num_vertices();
    let mut slices = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + vertex_budget).min(n);
        slices.push(slice(g, start as VertexId..end as VertexId));
        start = end;
    }
    Ok(slices)
}

/// Power-law-aware slicing (§VII.3): each slice may own up to
/// `hot_budget / hot_fraction` vertices, because only the hot fraction of its
/// vtxProp needs to be resident. With `hot_fraction = 0.2` this cuts the
/// slice count by up to 5x relative to [`slice_by_vertex_budget`] with the
/// same physical budget.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `hot_budget == 0` or
/// `hot_fraction` is not in `(0, 1]`.
pub fn slice_hot_budget(
    g: &CsrGraph,
    hot_budget: usize,
    hot_fraction: f64,
) -> Result<Vec<GraphSlice>, GraphError> {
    if hot_budget == 0 {
        return Err(GraphError::InvalidParameter(
            "hot budget must be positive".into(),
        ));
    }
    if !(hot_fraction > 0.0 && hot_fraction <= 1.0) {
        return Err(GraphError::InvalidParameter(
            "hot fraction must be in (0, 1]".into(),
        ));
    }
    let per_slice = ((hot_budget as f64 / hot_fraction).floor() as usize).max(1);
    slice_by_vertex_budget(g, per_slice)
}

/// The one slice of `g` that owns the destination range `range`: what
/// the two slicers build for each of their ranges, built alone.
pub fn slice(g: &CsrGraph, range: std::ops::Range<VertexId>) -> GraphSlice {
    let n = g.num_vertices();
    // Slices are stored as directed arc sets even for undirected graphs:
    // each slice owns the arcs *into* its range.
    let mut b = GraphBuilder::directed(n);
    for u in 0..n as VertexId {
        for (v, w) in g.out_neighbors_weighted(u) {
            if range.contains(&v) {
                if g.is_weighted() {
                    b.add_weighted_edge(u, v, w).expect("ids already validated");
                } else {
                    b.add_edge(u, v).expect("ids already validated");
                }
            }
        }
    }
    GraphSlice {
        dst_range: range,
        graph: b.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn slices_partition_arcs() {
        let g = generators::rmat(8, 8, generators::RmatParams::default(), 17).unwrap();
        let slices = slice_by_vertex_budget(&g, 64).unwrap();
        assert_eq!(slices.len(), 4);
        let total: u64 = slices.iter().map(|s| s.graph.num_arcs()).sum();
        assert_eq!(total, g.num_arcs());
    }

    #[test]
    fn slice_ranges_cover_vertex_space_disjointly() {
        let g = generators::rmat(7, 4, generators::RmatParams::default(), 1).unwrap();
        let slices = slice_by_vertex_budget(&g, 50).unwrap();
        let mut covered = 0usize;
        let mut prev_end = 0;
        for s in &slices {
            assert_eq!(s.dst_range.start, prev_end);
            prev_end = s.dst_range.end;
            covered += s.owned_vertices();
        }
        assert_eq!(covered, g.num_vertices());
    }

    #[test]
    fn every_slice_arc_lands_in_range() {
        let g = generators::rmat(7, 6, generators::RmatParams::default(), 2).unwrap();
        for s in slice_by_vertex_budget(&g, 37).unwrap() {
            for (_, v) in s.graph.arcs() {
                assert!(s.dst_range.contains(&v));
            }
        }
    }

    #[test]
    fn hot_budget_slicing_reduces_slice_count() {
        let g = generators::rmat(9, 8, generators::RmatParams::default(), 3).unwrap();
        let plain = slice_by_vertex_budget(&g, 64).unwrap();
        let hot = slice_hot_budget(&g, 64, 0.2).unwrap();
        assert_eq!(plain.len(), 8);
        assert_eq!(hot.len(), 2); // 5x fewer, matching the paper's claim
        assert!(hot.len() * 4 <= plain.len());
    }

    #[test]
    fn rejects_zero_budget() {
        let g = generators::path(4).unwrap();
        assert!(slice_by_vertex_budget(&g, 0).is_err());
        assert!(slice_hot_budget(&g, 0, 0.2).is_err());
        assert!(slice_hot_budget(&g, 4, 0.0).is_err());
        assert!(slice_hot_budget(&g, 4, 1.5).is_err());
    }

    #[test]
    fn single_slice_when_budget_covers_graph() {
        let g = generators::path(10).unwrap();
        let slices = slice_by_vertex_budget(&g, 100).unwrap();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].graph.num_arcs(), g.num_arcs());
    }

    #[test]
    fn weighted_slices_keep_weights() {
        let g = generators::grid_road(6, 6, 0.0, 9, 4).unwrap();
        let slices = slice_by_vertex_budget(&g, 10).unwrap();
        let mut total_wt_slices: u64 = 0;
        for s in &slices {
            for u in 0..s.graph.num_vertices() as VertexId {
                for (_, w) in s.graph.out_neighbors_weighted(u) {
                    total_wt_slices += w as u64;
                }
            }
        }
        let mut total_wt: u64 = 0;
        for u in 0..g.num_vertices() as VertexId {
            for (_, w) in g.out_neighbors_weighted(u) {
                total_wt += w as u64;
            }
        }
        assert_eq!(total_wt_slices, total_wt);
    }
}
