//! Randomized property tests of the graph substrate: builder invariants,
//! reordering bijections and connectivity statistics, over arbitrary edge
//! lists.
//!
//! Cases are drawn from the crate's own deterministic [`SmallRng`] (the
//! hermetic build has no proptest); the failing case index is in the
//! panic message.

use omega_graph::rng::SmallRng;
use omega_graph::{reorder, stats, GraphBuilder, VertexId};

const CASES: u64 = 64;

fn arb_edges(rng: &mut SmallRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.gen_range(2usize..50);
    let m = rng.gen_range(0usize..150);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    (n, edges)
}

fn for_each_edges(seed: u64, mut check: impl FnMut(usize, &[(u32, u32)], &mut SmallRng)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        let (n, edges) = arb_edges(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(n, &edges, &mut rng);
        }));
        if let Err(e) = result {
            panic!("case {case} (n={n}, {} edges) failed: {e:?}", edges.len());
        }
    }
}

/// Builder invariants: sorted unique adjacency, degree/offset
/// consistency, transpose symmetry.
#[test]
fn builder_produces_consistent_csr() {
    for_each_edges(0xC5A0_0001, |n, edges, _| {
        let mut b = GraphBuilder::directed(n);
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        let mut out_sum = 0u64;
        let mut in_sum = 0u64;
        for v in 0..n as VertexId {
            out_sum += g.out_degree(v) as u64;
            in_sum += g.in_degree(v) as u64;
            // Sorted, unique adjacency.
            let nb: Vec<_> = g.out_neighbors(v).collect();
            for w in nb.windows(2) {
                assert!(w[0] < w[1], "adjacency must be sorted unique");
            }
        }
        assert_eq!(out_sum, in_sum);
        assert_eq!(out_sum, g.num_arcs());
        // Transpose consistency: (u, v) is an arc iff u is an in-neighbor of v.
        for (u, v) in g.arcs() {
            assert!(g.in_neighbors(v).any(|x| x == u));
        }
    });
}

/// Undirected builders are symmetric and count edges once.
#[test]
fn undirected_builder_is_symmetric() {
    for_each_edges(0xC5A0_0002, |n, edges, _| {
        let mut b = GraphBuilder::undirected(n);
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        let loops = 0; // dropped by default
        assert_eq!(g.num_arcs(), 2 * g.num_edges() - loops);
        for (u, v) in g.arcs() {
            assert!(g.has_edge(v, u));
        }
    });
}

/// Reordering by any algorithm preserves arcs up to relabelling.
#[test]
fn reorderings_are_structure_preserving() {
    for_each_edges(0xC5A0_0004, |n, edges, _| {
        let mut b = GraphBuilder::directed(n);
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        for ord in [
            reorder::Reordering::InDegreeSort,
            reorder::Reordering::NthElement { frac_permille: 200 },
            reorder::Reordering::TopFractionSort { frac_permille: 200 },
        ] {
            let p = reorder::compute_permutation(&g, ord);
            let rg = reorder::apply(&g, &p).unwrap();
            assert_eq!(rg.num_arcs(), g.num_arcs());
            for (u, v) in g.arcs() {
                assert!(rg.has_edge(p.map(u), p.map(v)), "{ord:?}");
            }
        }
    });
}

/// Connectivity statistics are bounded and monotone for any graph.
#[test]
fn connectivity_curve_is_well_formed() {
    for_each_edges(0xC5A0_0006, |n, edges, _| {
        let mut b = GraphBuilder::directed(n);
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        let s = stats::degree_stats(&b.build());
        let mut prev = 0.0;
        for f in [0.1, 0.3, 0.5, 0.7, 1.0] {
            let c = s.in_connectivity(f);
            assert!((0.0..=1.0 + 1e-9).contains(&c));
            assert!(c + 1e-9 >= prev);
            prev = c;
        }
    });
}
