//! The paper's eight graph workloads (§IV, Table II), implemented on the
//! framework primitives with full tracing.
//!
//! Every algorithm is functionally correct (validated against reference
//! implementations in the tests) and, run under a
//! [`CollectingTracer`](crate::trace::CollectingTracer), produces the
//! memory-access trace that the timing simulation replays.

mod bc;
mod bfs;
mod cc;
mod kcore;
mod pagerank;
mod radii;
mod sssp;
mod tc;

pub use bc::{bc, bc_reference};
pub use bfs::{bfs, bfs_depths_reference, NO_PARENT};
pub use cc::{cc, cc_reference};
pub use kcore::{kcore, kcore_reference};
pub use pagerank::{pagerank, pagerank_pull, pagerank_reference, DAMPING};
pub use radii::radii;
pub use sssp::{sssp, sssp_reference, UNREACHED};
pub use tc::{tc, tc_reference};

use crate::ctx::Ctx;
use omega_graph::{CsrGraph, VertexId};

/// Qualitative levels used in Table II ("%atomic operation",
/// "%random access").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Low.
    Low,
    /// Medium.
    Medium,
    /// High.
    High,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Low => "low",
            Level::Medium => "medium",
            Level::High => "high",
        })
    }
}

/// Static characterisation of one algorithm — the paper's Table II row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmSpec {
    /// Short name as used in the paper's figures.
    pub name: &'static str,
    /// Atomic operation type(s) (Table II row 1).
    pub atomic_op: &'static str,
    /// Expected share of atomic operations.
    pub atomic_level: Level,
    /// Expected share of random accesses.
    pub random_level: Level,
    /// Bytes of vtxProp per vertex, summed over arrays (Table II
    /// "vtxProp entry size").
    pub vtx_prop_bytes: u32,
    /// Number of vtxProp arrays.
    pub n_vtx_props: u32,
    /// Whether the algorithm maintains an active list.
    pub active_list: bool,
    /// Whether the update reads the source vertex's vtxProp (the accesses
    /// the source-vertex buffer serves).
    pub reads_src_prop: bool,
    /// Whether the algorithm requires an undirected (symmetric) graph.
    pub needs_undirected: bool,
}

/// A runnable algorithm instance with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// PageRank with a fixed iteration count (the paper simulates one).
    PageRank {
        /// Number of iterations.
        iters: u32,
    },
    /// Breadth-first search from `root`.
    Bfs {
        /// Start vertex.
        root: VertexId,
    },
    /// Single-source shortest paths from `root`.
    Sssp {
        /// Start vertex.
        root: VertexId,
    },
    /// Betweenness centrality, first (forward) pass only, as the paper
    /// simulates.
    Bc {
        /// Start vertex.
        root: VertexId,
    },
    /// Graph radius estimation via multi-source BFS over a bit sample.
    Radii {
        /// Number of sample sources (the paper uses 16).
        sample: u32,
    },
    /// Connected components by label propagation (undirected).
    Cc,
    /// Triangle counting (undirected).
    Tc,
    /// k-core decomposition by peeling (undirected).
    KCore {
        /// The core parameter.
        k: u32,
    },
}

/// All eight algorithms with harness-default parameters; roots are filled
/// per-graph by [`Algo::with_default_root`].
pub const ALL_ALGOS: [Algo; 8] = [
    Algo::PageRank { iters: 1 },
    Algo::Bfs { root: 0 },
    Algo::Sssp { root: 0 },
    Algo::Bc { root: 0 },
    Algo::Radii { sample: 16 },
    Algo::Cc,
    Algo::Tc,
    Algo::KCore { k: 3 },
];

/// Result of running an [`Algo`] through the uniform dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoOutput {
    /// PageRank scores.
    Ranks(Vec<f64>),
    /// BFS parents (`u32::MAX` = unreached).
    Parents(Vec<u32>),
    /// SSSP distances (`i32::MAX` = unreached).
    Distances(Vec<i32>),
    /// BC shortest-path counts after the forward pass.
    Paths(Vec<f64>),
    /// Estimated radius.
    Radius(u32),
    /// Component labels.
    Labels(Vec<u32>),
    /// Triangle count.
    Triangles(u64),
    /// k-core membership flags.
    CoreFlags(Vec<bool>),
}

impl AlgoOutput {
    /// A deterministic scalar summary, for regression tests.
    pub fn checksum(&self) -> f64 {
        match self {
            AlgoOutput::Ranks(v) => v.iter().sum(),
            AlgoOutput::Parents(v) => v.iter().map(|&x| x as f64).sum(),
            AlgoOutput::Distances(v) => v
                .iter()
                .filter(|&&d| d != i32::MAX)
                .map(|&x| x as f64)
                .sum(),
            AlgoOutput::Paths(v) => v.iter().sum(),
            AlgoOutput::Radius(r) => *r as f64,
            AlgoOutput::Labels(v) => v.iter().map(|&x| x as f64).sum(),
            AlgoOutput::Triangles(t) => *t as f64,
            AlgoOutput::CoreFlags(v) => v.iter().filter(|&&b| b).count() as f64,
        }
    }
}

impl Algo {
    /// Short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::PageRank { .. } => "PageRank",
            Algo::Bfs { .. } => "BFS",
            Algo::Sssp { .. } => "SSSP",
            Algo::Bc { .. } => "BC",
            Algo::Radii { .. } => "Radii",
            Algo::Cc => "CC",
            Algo::Tc => "TC",
            Algo::KCore { .. } => "KC",
        }
    }

    /// Table II row for this algorithm.
    pub fn spec(&self) -> AlgorithmSpec {
        match self {
            Algo::PageRank { .. } => AlgorithmSpec {
                name: "PageRank",
                atomic_op: "fp add",
                atomic_level: Level::High,
                random_level: Level::High,
                vtx_prop_bytes: 8,
                n_vtx_props: 1,
                active_list: false,
                reads_src_prop: false,
                needs_undirected: false,
            },
            Algo::Bfs { .. } => AlgorithmSpec {
                name: "BFS",
                atomic_op: "unsigned comp.",
                atomic_level: Level::Low,
                random_level: Level::High,
                vtx_prop_bytes: 4,
                n_vtx_props: 1,
                active_list: true,
                reads_src_prop: false,
                needs_undirected: false,
            },
            Algo::Sssp { .. } => AlgorithmSpec {
                name: "SSSP",
                atomic_op: "signed min & bool comp.",
                atomic_level: Level::High,
                random_level: Level::High,
                vtx_prop_bytes: 8,
                n_vtx_props: 2,
                active_list: true,
                reads_src_prop: true,
                needs_undirected: false,
            },
            Algo::Bc { .. } => AlgorithmSpec {
                name: "BC",
                atomic_op: "min & fp add",
                atomic_level: Level::Medium,
                random_level: Level::High,
                vtx_prop_bytes: 8,
                n_vtx_props: 1,
                active_list: true,
                reads_src_prop: true,
                needs_undirected: false,
            },
            Algo::Radii { .. } => AlgorithmSpec {
                name: "Radii",
                atomic_op: "or & signed min",
                atomic_level: Level::High,
                random_level: Level::High,
                vtx_prop_bytes: 12,
                n_vtx_props: 3,
                active_list: true,
                reads_src_prop: true,
                needs_undirected: false,
            },
            Algo::Cc => AlgorithmSpec {
                name: "CC",
                atomic_op: "unsigned min",
                atomic_level: Level::High,
                random_level: Level::High,
                vtx_prop_bytes: 8,
                n_vtx_props: 2,
                active_list: true,
                reads_src_prop: true,
                needs_undirected: true,
            },
            Algo::Tc => AlgorithmSpec {
                name: "TC",
                atomic_op: "signed add",
                atomic_level: Level::Low,
                random_level: Level::Low,
                vtx_prop_bytes: 8,
                n_vtx_props: 1,
                active_list: false,
                reads_src_prop: false,
                needs_undirected: true,
            },
            Algo::KCore { .. } => AlgorithmSpec {
                name: "KC",
                atomic_op: "signed add",
                atomic_level: Level::Low,
                random_level: Level::Low,
                vtx_prop_bytes: 4,
                n_vtx_props: 1,
                active_list: true,
                reads_src_prop: false,
                needs_undirected: true,
            },
        }
    }

    /// Whether this algorithm can run on `g` (CC/TC/KC need symmetric
    /// graphs, as in the paper, which runs them on `ap`).
    pub fn supports(&self, g: &CsrGraph) -> bool {
        !self.spec().needs_undirected || !g.is_directed()
    }

    /// Replaces a placeholder root with the highest-out-degree vertex of
    /// `g` — a deterministic, well-connected start, mirroring the paper's
    /// use of an "assigned root node".
    pub fn with_default_root(self, g: &CsrGraph) -> Algo {
        let best_root = || {
            (0..g.num_vertices() as VertexId)
                .max_by_key(|&v| g.out_degree(v))
                .unwrap_or(0)
        };
        match self {
            Algo::Bfs { .. } => Algo::Bfs { root: best_root() },
            Algo::Sssp { .. } => Algo::Sssp { root: best_root() },
            Algo::Bc { .. } => Algo::Bc { root: best_root() },
            other => other,
        }
    }

    /// Runs the algorithm on `g` under `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm requires an undirected graph and `g` is
    /// directed (check [`Algo::supports`] first), or if a root is out of
    /// range.
    pub fn run(&self, g: &CsrGraph, ctx: &mut Ctx<'_>) -> AlgoOutput {
        assert!(
            self.supports(g),
            "{} requires an undirected graph",
            self.name()
        );
        match *self {
            Algo::PageRank { iters } => AlgoOutput::Ranks(pagerank(g, ctx, iters)),
            Algo::Bfs { root } => AlgoOutput::Parents(bfs(g, ctx, root)),
            Algo::Sssp { root } => AlgoOutput::Distances(sssp(g, ctx, root)),
            Algo::Bc { root } => AlgoOutput::Paths(bc(g, ctx, root)),
            Algo::Radii { sample } => AlgoOutput::Radius(radii(g, ctx, sample)),
            Algo::Cc => AlgoOutput::Labels(cc(g, ctx)),
            Algo::Tc => AlgoOutput::Triangles(tc(g, ctx)),
            Algo::KCore { k } => AlgoOutput::CoreFlags(kcore(g, ctx, k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NullTracer;
    use crate::ExecConfig;
    use omega_graph::generators;

    #[test]
    fn specs_match_table_two_entry_sizes() {
        assert_eq!(Algo::PageRank { iters: 1 }.spec().vtx_prop_bytes, 8);
        assert_eq!(Algo::Bfs { root: 0 }.spec().vtx_prop_bytes, 4);
        assert_eq!(Algo::Radii { sample: 16 }.spec().n_vtx_props, 3);
        assert_eq!(Algo::Sssp { root: 0 }.spec().n_vtx_props, 2);
    }

    #[test]
    fn undirected_requirements_enforced() {
        let directed = generators::path(4).unwrap();
        assert!(!Algo::Cc.supports(&directed));
        assert!(Algo::Bfs { root: 0 }.supports(&directed));
        let undirected = generators::star(4).unwrap();
        assert!(Algo::Tc.supports(&undirected));
    }

    #[test]
    fn default_root_is_well_connected() {
        let g = generators::star(8).unwrap();
        let a = Algo::Bfs { root: 99 }.with_default_root(&g);
        assert_eq!(a, Algo::Bfs { root: 0 });
    }

    #[test]
    fn dispatcher_runs_every_algorithm() {
        let g = generators::rmat_undirected(6, 4, generators::RmatParams::default(), 9).unwrap();
        for algo in ALL_ALGOS {
            let algo = algo.with_default_root(&g);
            let mut t = NullTracer;
            let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
            let out = algo.run(&g, &mut ctx);
            assert!(out.checksum().is_finite(), "{}", algo.name());
        }
    }
}
