//! Integration tests for the implemented future-work extensions (§IX, §VII,
//! §V.F): off-chip extensions, slicing, and the GraphMat-style execution
//! mode, all through the public APIs.

use omega_repro::core::config::{MemoryModel, OmegaConfig, PinOrder, SystemConfig};
use omega_repro::core::runner::{replay, trace_algorithm, RunReport, Runner};
use omega_repro::graph::datasets::{Dataset, DatasetScale};
use omega_repro::graph::{reorder, slicing};
use omega_repro::ligra::algorithms::Algo;
use omega_repro::ligra::trace::CollectingTracer;
use omega_repro::ligra::{graphmat, Ctx, ExecConfig};

#[test]
fn graphmat_replays_on_both_machines_without_pisc_activity() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let exec = ExecConfig::default();
    let mut tracer = CollectingTracer::new(exec.n_cores);
    let mut ctx = Ctx::new(exec, &mut tracer);
    let ranks = graphmat::pagerank_graphmat(&g, &mut ctx, 1);
    assert_eq!(ranks.len(), g.num_vertices());
    let meta = ctx.meta_for(g.num_vertices() as u64, g.num_arcs(), g.is_weighted());
    let raw = tracer.finish();
    assert_eq!(raw.classify().prop_atomics, 0);

    // Only cycles and stats are checked, so no functional checksum is passed.
    let replay_on = |sys: SystemConfig| replay("pagerank", 0.0, &raw, &meta, &sys, None);
    let base = replay_on(SystemConfig::mini_baseline()).engine;
    let RunReport {
        engine: omega,
        mem: omega_stats,
        hot_count: hot,
        ..
    } = replay_on(SystemConfig::mini_omega());
    assert!(hot > 0);
    assert_eq!(omega_stats.scratchpad.pisc_ops, 0, "no atomics to offload");
    assert!(
        omega_stats.scratchpad.accesses() > 0,
        "message reads go to scratchpads"
    );
    // At tiny scale the whole graph fits the baseline caches, so OMEGA's
    // remote-scratchpad reads can cost a little; the win appears at Small
    // scale (see `figures abl-graphmat`). Here we only require sanity.
    assert!(
        omega.total_cycles <= 2 * base.total_cycles,
        "OMEGA grossly slower on GraphMat: {} vs {}",
        omega.total_cycles,
        base.total_cycles
    );
}

#[test]
fn offchip_extensions_change_activity_not_results() {
    let g = Dataset::Usa.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    // Shrink the scratchpad so cold vertices exist even at tiny scale.
    let standard = SystemConfig::mini_omega().with_scratchpad_bytes(256);
    let extended = SystemConfig::omega_from_baseline(
        omega_repro::sim::MachineConfig::mini_baseline(),
        OmegaConfig {
            sp_bytes_per_core: 256,
            offchip: true,
            ..OmegaConfig::default()
        },
    );
    let a = Runner::new(standard).run(&g, algo);
    let b = Runner::new(extended).run(&g, algo);
    assert_eq!(a.checksum, b.checksum, "extensions are performance-only");
    assert_eq!(a.mem.scratchpad.pim_ops, 0);
    assert!(
        b.mem.scratchpad.pim_ops > 0,
        "cold atomics must reach the PIMs"
    );
    assert!(b.mem.scratchpad.word_dram_accesses > 0);
    assert!(
        b.mem.dram.row_hits > 0,
        "hybrid policy opens rows for streams"
    );
}

/// Metamorphic oracle for the pinned rivals: with no byte budget nothing
/// is pinned, so either pin order degenerates to the baseline's plain LRU
/// hierarchy, cycle for cycle and counter for counter.
#[test]
fn zero_budget_pinned_machine_is_the_baseline() {
    for ds in [Dataset::Sd, Dataset::Lj] {
        let g = ds.build(DatasetScale::Tiny).unwrap();
        for algo in [Algo::PageRank { iters: 1 }, Algo::Bfs { root: 0 }] {
            let algo = algo.with_default_root(&g);
            let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
            let replay_on =
                |sys: SystemConfig| replay(algo.name(), checksum, &raw, &meta, &sys, None);
            let base = replay_on(SystemConfig::mini_baseline());
            for order in [PinOrder::ScratchpadPrefix, PinOrder::VertexMajor] {
                let pinned = replay_on(SystemConfig {
                    model: MemoryModel::Pinned {
                        bytes_per_core: 0,
                        order,
                    },
                    ..SystemConfig::mini_baseline()
                });
                let case = format!("{} {} {order:?}", ds.code(), algo.name());
                assert_eq!(pinned.total_cycles, base.total_cycles, "{case}");
                assert_eq!(pinned.engine, base.engine, "{case}");
                assert_eq!(pinned.mem, base.mem, "{case}");
                assert_eq!(pinned.checksum.to_bits(), base.checksum.to_bits(), "{case}");
            }
        }
    }
}

#[test]
fn pull_pagerank_dense_activations_are_absorbed_on_omega() {
    // The pull variant activates destinations through *dense fused*
    // frontier writes — the one lowering rule that differs between
    // machines. OMEGA must absorb the resident ones into PISC active bits.
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let exec = ExecConfig::default();
    let mut tracer = CollectingTracer::new(exec.n_cores);
    let mut ctx = Ctx::new(exec, &mut tracer);
    let pull_ranks = omega_repro::ligra::algorithms::pagerank_pull(&g, &mut ctx, 1);
    let meta = ctx.meta_for(g.num_vertices() as u64, g.num_arcs(), g.is_weighted());
    let raw = tracer.finish();

    // Push variant for functional cross-check.
    let mut t2 = CollectingTracer::new(exec.n_cores);
    let mut ctx2 = Ctx::new(exec, &mut t2);
    let push_ranks = omega_repro::ligra::algorithms::pagerank(&g, &mut ctx2, 1);
    for (a, b) in pull_ranks.iter().zip(&push_ranks) {
        assert!((a - b).abs() < 1e-12);
    }

    // Only cycles and stats are checked, so no functional checksum is passed.
    let replay_on = |sys: SystemConfig| replay("pagerank", 0.0, &raw, &meta, &sys, None);
    let base = replay_on(SystemConfig::mini_baseline()).engine;
    let RunReport {
        engine: omega,
        mem: omega_stats,
        hot_count: hot,
        ..
    } = replay_on(SystemConfig::mini_omega());
    assert!(hot > 0);
    // Fully-resident tiny graph: every dense fused activation is absorbed,
    // so the OMEGA replay executes fewer operations than the baseline one.
    let base_ops: u64 = base.per_core.iter().map(|c| c.ops).sum();
    let omega_ops: u64 = omega.per_core.iter().map(|c| c.ops).sum();
    assert!(
        omega_ops < base_ops,
        "absorbed dense activations must shrink the op stream: {omega_ops} vs {base_ops}"
    );
    // Pull has no atomics, hence no PISC activity.
    assert_eq!(omega_stats.scratchpad.pisc_ops, 0);
}

#[test]
fn slice_traces_cover_the_same_arcs_as_the_whole_graph() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let exec = ExecConfig::default();
    let (_, whole, _) = trace_algorithm(&g, algo, &exec);
    let whole_edges = whole.classify().edge_reads;
    let slices = slicing::slice_by_vertex_budget(&g, g.num_vertices() / 3 + 1).unwrap();
    let mut sliced_edges = 0;
    for s in &slices {
        let (_, raw, _) = trace_algorithm(&s.graph, algo, &exec);
        sliced_edges += raw.classify().edge_reads;
    }
    assert_eq!(whole_edges, sliced_edges, "slices partition the edge work");
}

#[test]
fn block_rotation_permutation_moves_slice_ranges_to_front() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let n = g.num_vertices() as u32;
    let slices = slicing::slice_by_vertex_budget(&g, (n / 2) as usize).unwrap();
    let slice = &slices[1];
    let start = slice.dst_range.start;
    let owned = slice.owned_vertices() as u32;
    let forward: Vec<u32> = (0..n)
        .map(|v| {
            if slice.dst_range.contains(&v) {
                v - start
            } else if v < start {
                v + owned
            } else {
                v
            }
        })
        .collect();
    let perm = reorder::Permutation::from_forward(forward).unwrap();
    let rg = reorder::apply(&slice.graph, &perm).unwrap();
    // Every arc destination now lies in the hot prefix [0, owned).
    for (_, v) in rg.arcs() {
        assert!(v < owned, "destination {v} outside rotated range {owned}");
    }
}
