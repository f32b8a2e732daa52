//! Degree-skew statistics: the quantities reported in Table I of the paper.
//!
//! The paper's operational definition of a *natural graph* (§II): a graph
//! follows the power law if ≈20% of its vertices are connected to ≈80% of
//! its edges. [`DegreeStats::in_connectivity`] computes exactly the paper's
//! "in-degree con." column — the fraction of incoming edges incident to the
//! top `k` fraction of vertices when ranked by in-degree — and
//! [`DegreeStats::follows_power_law`] applies the 20%/~75% classification
//! that Table I uses.

use crate::{CsrGraph, VertexId};

/// Degree distribution summary for one graph.
///
/// Obtain via [`degree_stats`].
#[derive(Debug, Clone)]
pub struct DegreeStats {
    in_sorted: Vec<u32>,  // in-degrees, descending
    out_sorted: Vec<u32>, // out-degrees, descending
    total_arcs: u64,
}

impl DegreeStats {
    /// Fraction of incoming arcs incident to the `frac` most in-connected
    /// vertices (Table I "in-degree con.", expressed as a fraction not a
    /// percentage). Returns 0 for an empty graph.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not within `[0, 1]`.
    pub fn in_connectivity(&self, frac: f64) -> f64 {
        Self::connectivity(&self.in_sorted, self.total_arcs, frac)
    }

    /// Fraction of outgoing arcs incident to the `frac` most out-connected
    /// vertices (Table I "out-degree con.").
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not within `[0, 1]`.
    pub fn out_connectivity(&self, frac: f64) -> f64 {
        Self::connectivity(&self.out_sorted, self.total_arcs, frac)
    }

    fn connectivity(sorted: &[u32], total: u64, frac: f64) -> f64 {
        assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
        if total == 0 || sorted.is_empty() {
            return 0.0;
        }
        let k = ((sorted.len() as f64 * frac).ceil() as usize).min(sorted.len());
        let covered: u64 = sorted[..k].iter().map(|&d| d as u64).sum();
        covered as f64 / total as f64
    }

    /// The paper's Table I power-law classification: `true` when the top 20%
    /// of vertices (by in-degree) receive more than 55% of the arcs. The
    /// paper's power-law datasets range 58.7–100%; its road networks sit
    /// below 30%.
    pub fn follows_power_law(&self) -> bool {
        self.in_connectivity(0.20) > 0.55
    }

    /// Maximum-likelihood estimate of the power-law exponent α of the
    /// in-degree distribution (Clauset–Shalizi–Newman continuous
    /// approximation, `α = 1 + n / Σ ln(d / d_min)` over degrees
    /// `d ≥ d_min`). Natural graphs typically fall in `2 < α < 3`.
    ///
    /// Returns `None` when fewer than 10 vertices have degree `≥ d_min`.
    pub fn power_law_alpha(&self, d_min: u32) -> Option<f64> {
        let d_min = d_min.max(1) as f64;
        let logs: Vec<f64> = self
            .in_sorted
            .iter()
            .take_while(|&&d| d as f64 >= d_min)
            .map(|&d| (d as f64 / (d_min - 0.5)).ln())
            .collect();
        if logs.len() < 10 {
            return None;
        }
        let sum: f64 = logs.iter().sum();
        Some(1.0 + logs.len() as f64 / sum)
    }
}

/// Computes [`DegreeStats`] for a graph. `O(n log n)`.
///
/// # Example
///
/// ```
/// use omega_graph::{generators, stats};
/// let hub = generators::star(50)?;
/// let s = stats::degree_stats(&hub);
/// assert!(s.follows_power_law());
/// assert!((s.in_connectivity(0.02) - 0.5).abs() < 1e-9);
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    let mut ins: Vec<u32> = (0..n as VertexId).map(|v| g.in_degree(v)).collect();
    let mut outs: Vec<u32> = (0..n as VertexId).map(|v| g.out_degree(v)).collect();
    ins.sort_unstable_by(|a, b| b.cmp(a));
    outs.sort_unstable_by(|a, b| b.cmp(a));
    DegreeStats {
        in_sorted: ins,
        out_sorted: outs,
        total_arcs: g.num_arcs(),
    }
}

/// The fraction of arcs whose *destination* lies in `hot` — i.e. the share
/// of destination-side vtxProp updates that the scratchpads would absorb if
/// `hot` were resident. `hot` is interpreted as a set.
pub fn arc_coverage_of(g: &CsrGraph, hot: &[VertexId]) -> f64 {
    if g.num_arcs() == 0 {
        return 0.0;
    }
    let mut is_hot = vec![false; g.num_vertices()];
    for &v in hot {
        is_hot[v as usize] = true;
    }
    let covered: u64 = is_hot
        .iter()
        .enumerate()
        .filter(|&(_, &h)| h)
        .map(|(v, _)| g.in_degree(v as VertexId) as u64)
        .sum();
    covered as f64 / g.num_arcs() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn star_connectivity_is_extreme() {
        let g = generators::star(100).unwrap();
        let s = degree_stats(&g);
        // Hub holds 99 of 198 arcs.
        assert!((s.in_connectivity(0.01) - 0.5).abs() < 0.01);
        assert!(s.follows_power_law());
    }

    #[test]
    fn path_connectivity_is_flat() {
        let g = generators::path(100).unwrap();
        let s = degree_stats(&g);
        assert!(!s.follows_power_law());
        assert!(s.in_connectivity(0.20) < 0.25);
    }

    #[test]
    fn connectivity_is_monotone_in_fraction() {
        let g = generators::rmat(8, 8, generators::RmatParams::default(), 4).unwrap();
        let s = degree_stats(&g);
        let mut prev = 0.0;
        for k in [0.05, 0.1, 0.2, 0.5, 1.0] {
            let c = s.in_connectivity(k);
            assert!(c >= prev, "connectivity must grow with fraction");
            prev = c;
        }
        assert!((s.in_connectivity(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn arc_coverage_matches_connectivity() {
        let g = generators::rmat(8, 8, generators::RmatParams::default(), 4).unwrap();
        let s = degree_stats(&g);
        // The ceil(20 %) most in-connected vertices.
        let mut top: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        top.sort_unstable_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
        top.truncate((g.num_vertices() as f64 * 0.2).ceil() as usize);
        let cov = arc_coverage_of(&g, &top);
        assert!((cov - s.in_connectivity(0.2)).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = crate::GraphBuilder::directed(0).build();
        let s = degree_stats(&g);
        assert_eq!(s.in_connectivity(0.5), 0.0);
    }

    #[test]
    fn power_law_alpha_lands_in_natural_range() {
        let g = generators::barabasi_albert(4000, 4, 5).unwrap();
        let alpha = degree_stats(&g).power_law_alpha(4).expect("enough tail");
        assert!(
            (1.8..4.0).contains(&alpha),
            "BA graphs have alpha near 3, got {alpha}"
        );
    }

    #[test]
    fn power_law_alpha_needs_enough_tail() {
        let g = generators::path(20).unwrap();
        assert_eq!(degree_stats(&g).power_law_alpha(5), None);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn connectivity_rejects_bad_fraction() {
        let g = generators::path(4).unwrap();
        degree_stats(&g).in_connectivity(1.5);
    }
}
