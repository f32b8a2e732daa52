use crate::{CsrGraph, GraphError, VertexId, Weight};

/// Incremental edge-list builder producing a [`CsrGraph`].
///
/// The builder accepts edges in any order, optionally with weights, and on
/// [`build`](GraphBuilder::build) sorts each adjacency list, removes
/// duplicate arcs and (unless [`keep_self_loops`](GraphBuilder::keep_self_loops)
/// is set) self-loops, and constructs both the outgoing and incoming CSR
/// views.
///
/// For an *undirected* builder every added edge `{u, v}` is materialised as
/// the two arcs `u→v` and `v→u`, but counted once in
/// [`CsrGraph::num_edges`].
///
/// # Example
///
/// ```
/// use omega_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::undirected(3);
/// b.add_weighted_edge(0, 1, 5)?;
/// b.add_weighted_edge(1, 2, 7)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_neighbors_weighted(1).collect::<Vec<_>>(), vec![(0, 5), (2, 7)]);
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    directed: bool,
    keep_self_loops: bool,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
    weighted: bool,
}

impl GraphBuilder {
    /// Creates a builder for a directed graph on `n` vertices.
    pub fn directed(n: usize) -> Self {
        Self::new(n, true)
    }

    /// Creates a builder for an undirected graph on `n` vertices.
    pub fn undirected(n: usize) -> Self {
        Self::new(n, false)
    }

    fn new(n: usize, directed: bool) -> Self {
        GraphBuilder {
            n,
            directed,
            keep_self_loops: false,
            edges: Vec::new(),
            weights: Vec::new(),
            weighted: false,
        }
    }

    /// Keep self-loops instead of dropping them at build time.
    pub fn keep_self_loops(&mut self, keep: bool) -> &mut Self {
        self.keep_self_loops = keep;
        self
    }

    /// Number of vertices the builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds an unweighted edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`,
    /// and [`GraphError::InvalidParameter`] if the builder already holds
    /// weighted edges.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self, GraphError> {
        if self.weighted {
            return Err(GraphError::InvalidParameter(
                "cannot mix weighted and unweighted edges; use add_weighted_edge".into(),
            ));
        }
        self.check(u)?;
        self.check(v)?;
        self.edges.push((u, v));
        Ok(self)
    }

    /// Adds a weighted edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`,
    /// and [`GraphError::InvalidParameter`] if the builder already holds
    /// unweighted edges.
    pub fn add_weighted_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        w: Weight,
    ) -> Result<&mut Self, GraphError> {
        if !self.edges.is_empty() && !self.weighted {
            return Err(GraphError::InvalidParameter(
                "cannot mix unweighted and weighted edges; use add_edge".into(),
            ));
        }
        self.weighted = true;
        self.check(u)?;
        self.check(v)?;
        self.edges.push((u, v));
        self.weights.push(w);
        Ok(self)
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`add_edge`](GraphBuilder::add_edge);
    /// edges before the failure remain staged.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(
        &mut self,
        iter: I,
    ) -> Result<&mut Self, GraphError> {
        for (u, v) in iter {
            self.add_edge(u, v)?;
        }
        Ok(self)
    }

    fn check(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.n {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v as u64,
                n: self.n,
            })
        }
    }

    /// Finalises the builder into a [`CsrGraph`].
    ///
    /// Sorting, deduplication, self-loop removal, and construction of both
    /// adjacency directions happen here; cost is `O(m log m)`.
    pub fn build(&self) -> CsrGraph {
        // Materialise the arc list (symmetrise if undirected).
        let mut arcs: Vec<(VertexId, VertexId, Weight)> =
            Vec::with_capacity(self.edges.len() * if self.directed { 1 } else { 2 });
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let w = if self.weighted { self.weights[i] } else { 1 };
            if u == v && !self.keep_self_loops {
                continue;
            }
            arcs.push((u, v, w));
            if !self.directed && u != v {
                arcs.push((v, u, w));
            }
        }
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        arcs.dedup_by_key(|&mut (u, v, _)| (u, v));

        let (out_off, out_dst, out_wt) = Self::csr_from_sorted(self.n, &arcs, self.weighted);

        // Incoming view: sort by (dst, src).
        let mut rev: Vec<(VertexId, VertexId, Weight)> =
            arcs.iter().map(|&(u, v, w)| (v, u, w)).collect();
        rev.sort_unstable_by_key(|&(v, u, _)| (v, u));
        let (in_off, in_src, in_wt) = Self::csr_from_sorted(self.n, &rev, self.weighted);

        let m = if self.directed {
            out_dst.len() as u64
        } else {
            // Count undirected edges once; self-loops (if kept) count once too.
            let loops = arcs.iter().filter(|&&(u, v, _)| u == v).count() as u64;
            (out_dst.len() as u64 - loops) / 2 + loops
        };

        CsrGraph::from_parts(
            self.n,
            m,
            self.directed,
            out_off,
            out_dst,
            out_wt,
            in_off,
            in_src,
            in_wt,
        )
        .expect("builder produces structurally valid CSR")
    }

    fn csr_from_sorted(
        n: usize,
        arcs: &[(VertexId, VertexId, Weight)],
        weighted: bool,
    ) -> (Vec<u64>, Vec<VertexId>, Option<Vec<Weight>>) {
        let mut off = vec![0u64; n + 1];
        let mut adj = Vec::with_capacity(arcs.len());
        let mut wts = if weighted {
            Vec::with_capacity(arcs.len())
        } else {
            Vec::new()
        };
        for &(u, v, w) in arcs {
            off[u as usize + 1] += 1;
            adj.push(v);
            if weighted {
                wts.push(w);
            }
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        (off, adj, if weighted { Some(wts) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_parallel_edges_by_default() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn undirected_counts_each_edge_once_but_stores_both_arcs() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 4);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        let mut b = GraphBuilder::directed(2);
        assert!(matches!(
            b.add_edge(0, 2),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_mixing_weighted_and_unweighted() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1).unwrap();
        assert!(b.add_weighted_edge(1, 2, 4).is_err());
        let mut b2 = GraphBuilder::directed(3);
        b2.add_weighted_edge(0, 1, 4).unwrap();
        assert!(b2.add_edge(1, 2).is_err());
    }

    #[test]
    fn weights_follow_their_edges_through_sorting() {
        let mut b = GraphBuilder::directed(3);
        b.add_weighted_edge(2, 0, 30).unwrap();
        b.add_weighted_edge(0, 2, 20).unwrap();
        b.add_weighted_edge(0, 1, 10).unwrap();
        let g = b.build();
        assert_eq!(
            g.out_neighbors_weighted(0).collect::<Vec<_>>(),
            vec![(1, 10), (2, 20)]
        );
        assert_eq!(
            g.out_neighbors_weighted(2).collect::<Vec<_>>(),
            vec![(0, 30)]
        );
        // Incoming view carries weights too.
        assert_eq!(
            g.in_neighbors_weighted(2).collect::<Vec<_>>(),
            vec![(0, 20)]
        );
    }

    #[test]
    fn in_adjacency_is_transpose_of_out() {
        let mut b = GraphBuilder::directed(4);
        b.extend_edges([(0, 1), (2, 1), (3, 1), (1, 0)]).unwrap();
        let g = b.build();
        assert_eq!(g.in_neighbors(1).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(g.in_neighbors(0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::directed(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn undirected_self_loop_kept_counts_once() {
        let mut b = GraphBuilder::undirected(2);
        b.keep_self_loops(true);
        b.add_edge(0, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 3); // loop once + edge twice
    }
}
