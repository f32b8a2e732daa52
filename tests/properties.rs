//! Randomized property tests over the core invariants, spanning crates.
//!
//! These were originally `proptest` suites; the hermetic build carries no
//! external dev-dependencies, so each property now draws its cases from
//! the repo's own deterministic [`SmallRng`] — same invariants, fixed
//! seeds, reproducible failures (the failing case index is in the panic
//! message).

use omega_repro::core::config::SystemConfig;
use omega_repro::core::microcode;
use omega_repro::core::runner::{RunReport, Runner};
use omega_repro::graph::rng::SmallRng;
use omega_repro::graph::{generators, reorder, stats, GraphBuilder, VertexId};
use omega_repro::ligra::algorithms::{self, Algo};
use omega_repro::ligra::trace::NullTracer;
use omega_repro::ligra::{Ctx, ExecConfig};
use omega_repro::sim::AtomicKind;

const CASES: u64 = 48;

/// Arbitrary small directed graph as an edge list over `n` vertices.
fn arb_graph(rng: &mut SmallRng) -> (usize, Vec<(u32, u32)>) {
    let n = rng.gen_range(2usize..60);
    let m = rng.gen_range(1usize..200);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    (n, edges)
}

fn build_directed(n: usize, edges: &[(u32, u32)]) -> omega_repro::graph::CsrGraph {
    let mut b = GraphBuilder::directed(n);
    for &(u, v) in edges {
        b.add_edge(u, v).unwrap();
    }
    b.build()
}

fn build_undirected(n: usize, edges: &[(u32, u32)]) -> omega_repro::graph::CsrGraph {
    let mut b = GraphBuilder::undirected(n);
    for &(u, v) in edges {
        b.add_edge(u, v).unwrap();
    }
    b.build()
}

/// Runs `check` against `CASES` random graphs from a fixed seed.
fn for_each_graph(seed: u64, mut check: impl FnMut(usize, &[(u32, u32)])) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..CASES {
        let (n, edges) = arb_graph(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(n, &edges);
        }));
        if let Err(e) = result {
            panic!("case {case} (n={n}, {} edges) failed: {e:?}", edges.len());
        }
    }
}

/// Reordering a graph must never change BFS reachability counts.
#[test]
fn reordering_preserves_reachability() {
    for_each_graph(0x5EED_0001, |n, edges| {
        let g = build_directed(n, edges);
        let (rg, perm) = reorder::canonical_hot_order(&g);
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let before = algorithms::bfs(&g, &mut ctx, 0);
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let after = algorithms::bfs(&rg, &mut ctx, perm.map(0));
        let reached_before = before
            .iter()
            .filter(|&&p| p != algorithms::NO_PARENT)
            .count();
        let reached_after = after
            .iter()
            .filter(|&&p| p != algorithms::NO_PARENT)
            .count();
        assert_eq!(reached_before, reached_after);
    });
}

/// PageRank mass is conserved up to damping leakage regardless of graph.
#[test]
fn pagerank_scores_are_probability_like() {
    for_each_graph(0x5EED_0002, |n, edges| {
        let g = build_directed(n, edges);
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let ranks = algorithms::pagerank(&g, &mut ctx, 3);
        let sum: f64 = ranks.iter().sum();
        assert!(sum > 0.0 && sum <= 1.0 + 1e-9, "sum = {sum}");
        assert!(ranks.iter().all(|r| r.is_finite() && *r >= 0.0));
    });
}

/// The two machines always compute identical results, for any graph.
#[test]
fn machines_agree_functionally() {
    for_each_graph(0x5EED_0003, |n, edges| {
        let g = build_directed(n, edges);
        let (rg, _) = reorder::canonical_hot_order(&g);
        let [base, omega]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&rg, Algo::Bfs { root: 0 }.with_default_root(&rg))
            .try_into()
            .unwrap();
        assert_eq!(base.checksum, omega.checksum);
    });
}

/// SSSP distances satisfy the triangle inequality along every edge.
#[test]
fn sssp_distances_are_relaxed() {
    for_each_graph(0x5EED_0004, |n, edges| {
        let g = build_directed(n, edges);
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let dist = algorithms::sssp(&g, &mut ctx, 0);
        for (u, v) in g.arcs() {
            let du = dist[u as usize];
            let dv = dist[v as usize];
            if du != algorithms::UNREACHED {
                assert!(
                    dv != algorithms::UNREACHED && dv <= du.saturating_add(1),
                    "edge ({u}, {v}): {du} -> {dv}"
                );
            }
        }
    });
}

/// CC labels are consistent: two endpoints of any edge share a label,
/// and labels equal union-find components.
#[test]
fn cc_labels_are_consistent() {
    for_each_graph(0x5EED_0005, |n, edges| {
        let g = build_undirected(n, edges);
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let labels = algorithms::cc(&g, &mut ctx);
        for (u, v) in g.arcs() {
            assert_eq!(labels[u as usize], labels[v as usize]);
        }
        assert_eq!(labels, algorithms::cc_reference(&g));
    });
}

/// Degree-based statistics are permutation-invariant.
#[test]
fn skew_statistics_are_reorder_invariant() {
    for_each_graph(0x5EED_0006, |n, edges| {
        let g = build_directed(n, edges);
        let (rg, _) = reorder::canonical_hot_order(&g);
        let a = stats::degree_stats(&g);
        let b = stats::degree_stats(&rg);
        assert!((a.in_connectivity(0.2) - b.in_connectivity(0.2)).abs() < 1e-9);
        assert_eq!(a.max_in_degree(), b.max_in_degree());
        assert!((a.in_degree_gini() - b.in_degree_gini()).abs() < 1e-9);
    });
}

/// PISC microcode computes exactly what the framework's atomic does,
/// for every operation kind and random operands.
#[test]
fn microcode_matches_framework_atomics() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0007);
    for _ in 0..256 {
        let old = rng.next_u64() as u32;
        let operand = rng.next_u64() as u32;
        // SignedMin over i32 values embedded in u64 registers.
        let p = microcode::compile(AtomicKind::SignedMin);
        let (new, _) = p.execute(old as i32 as i64 as u64, operand as i32 as i64 as u64);
        assert_eq!(new as i64, (old as i32 as i64).min(operand as i32 as i64));

        let p = microcode::compile(AtomicKind::BoolOr);
        let (new, changed) = p.execute(old as u64, operand as u64);
        assert_eq!(new, (old | operand) as u64);
        assert_eq!(changed, (old | operand) != old);

        let p = microcode::compile(AtomicKind::SignedAdd);
        let (new, _) = p.execute(old as u64, operand as u64);
        assert_eq!(new, (old as u64).wrapping_add(operand as u64));
    }
}

/// Fp-add microcode is IEEE-correct for finite doubles.
#[test]
fn microcode_fp_add_matches_ieee() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0008);
    for _ in 0..256 {
        let a = (rng.gen_f64() - 0.5) * 2e12;
        let b = (rng.gen_f64() - 0.5) * 2e12;
        let p = microcode::compile(AtomicKind::FpAdd);
        let (new, _) = p.execute(a.to_bits(), b.to_bits());
        assert_eq!(f64::from_bits(new), a + b);
    }
}

/// Simulated time is deterministic: equal configs give equal cycles.
#[test]
fn simulation_is_deterministic() {
    for seed in 0u64..8 {
        let g = generators::rmat(7, 4, generators::RmatParams::default(), seed).unwrap();
        let (rg, _) = reorder::canonical_hot_order(&g);
        let runner = Runner::new(SystemConfig::mini_omega());
        let a = runner.run(&rg, Algo::PageRank { iters: 1 });
        let b = runner.run(&rg, Algo::PageRank { iters: 1 });
        assert_eq!(a, b);
    }
}

/// The k-core never grows when k increases.
#[test]
fn kcore_is_antitone_in_k() {
    for_each_graph(0x5EED_0009, |n, edges| {
        let g = build_undirected(n, edges);
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let core2 = algorithms::kcore(&g, &mut ctx, 2);
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let core3 = algorithms::kcore(&g, &mut ctx, 3);
        for v in 0..n {
            assert!(!core3[v] || core2[v], "vertex {v} in 3-core but not 2-core");
        }
    });
}

/// Slicing a graph and summing per-slice PageRank accumulations must equal
/// the unsliced result (the §VII equivalence).
#[test]
fn sliced_pagerank_accumulation_matches_whole_graph() {
    let g = generators::rmat(8, 6, generators::RmatParams::default(), 5).unwrap();
    let n = g.num_vertices();
    // One accumulation step (before normalisation) on the whole graph.
    let whole = one_step_accumulate(&g);
    // Same step slice by slice.
    let slices = omega_repro::graph::slicing::slice_by_vertex_budget(&g, 40).unwrap();
    let mut merged = vec![0.0f64; n];
    for s in &slices {
        let part = one_step_accumulate_into(&s.graph, &g);
        for (v, x) in part.into_iter().enumerate() {
            merged[v] += x;
        }
    }
    for v in 0..n {
        assert!(
            (whole[v] - merged[v]).abs() < 1e-12,
            "vertex {v}: {} vs {}",
            whole[v],
            merged[v]
        );
    }
}

fn one_step_accumulate(g: &omega_repro::graph::CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut acc = vec![0.0; n];
    for u in 0..n as VertexId {
        let w = 1.0 / g.out_degree(u).max(1) as f64;
        for v in g.out_neighbors(u) {
            acc[v as usize] += w;
        }
    }
    acc
}

/// Accumulate over a slice whose arcs are a subset of `full`; degrees come
/// from the full graph (as a slicing framework would keep them globally).
fn one_step_accumulate_into(
    slice: &omega_repro::graph::CsrGraph,
    full: &omega_repro::graph::CsrGraph,
) -> Vec<f64> {
    let n = slice.num_vertices();
    let mut acc = vec![0.0; n];
    for u in 0..n as VertexId {
        let w = 1.0 / full.out_degree(u).max(1) as f64;
        for v in slice.out_neighbors(u) {
            acc[v as usize] += w;
        }
    }
    acc
}
