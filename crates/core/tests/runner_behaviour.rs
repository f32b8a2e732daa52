//! Behavioural tests of the run pipeline: chunk matching, trace reuse,
//! and machine-level properties that unit tests cannot see.

use omega_core::config::{OmegaConfig, SystemConfig};
use omega_core::layout::Layout;
use omega_core::lower::{lower, Target};
use omega_core::runner::{exec_for, replay, trace_algorithm, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_ligra::algorithms::Algo;
use omega_ligra::ExecConfig;

#[test]
fn matched_chunks_maximise_local_scratchpad_accesses() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let matched = Runner::new(SystemConfig::mini_omega()).run(&g, algo);
    let mismatched_cfg = SystemConfig::omega_from_baseline(
        omega_sim::MachineConfig::mini_baseline(),
        OmegaConfig {
            mapping_chunk: 64, // scheduling stays 4
            ..OmegaConfig::default()
        },
    );
    let mismatched = Runner::new(mismatched_cfg).run(&g, algo);
    assert!(
        matched.mem.scratchpad.local_accesses > mismatched.mem.scratchpad.local_accesses,
        "§V.D: matching chunks must convert remote scratchpad accesses to local ones \
         ({} vs {})",
        matched.mem.scratchpad.local_accesses,
        mismatched.mem.scratchpad.local_accesses
    );
}

#[test]
fn one_trace_many_machines_is_consistent_with_fresh_runs() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::Bfs { root: 0 }.with_default_root(&g);
    let exec = ExecConfig::default();
    let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec);
    for system in [SystemConfig::mini_baseline(), SystemConfig::mini_omega()] {
        let shared = replay(algo.name(), checksum, &raw, &meta, &system, None);
        let fresh = Runner::new(system).run(&g, algo);
        assert_eq!(
            shared.engine.total_cycles,
            fresh.total_cycles,
            "{}",
            system.label()
        );
        assert_eq!(shared.mem, fresh.mem, "{}", system.label());
    }
}

#[test]
fn lowering_is_machine_invariant_except_fused_activations() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::Bfs { root: 0 }.with_default_root(&g);
    let (_, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
    let layout = Layout::new(&meta);
    let base = lower(&raw, &layout, Target::Baseline);
    let omega = lower(
        &raw,
        &layout,
        Target::Omega {
            hot_count: u32::MAX,
        },
    );
    // BFS activations are fused but *sparse*, so nothing is absorbed: the
    // streams must be identical op for op.
    assert_eq!(base, omega);
}

#[test]
fn every_paper_algorithm_speeds_up_or_stays_flat_on_power_law_graphs() {
    // The paper's qualitative claim: OMEGA never hurts power-law workloads
    // (TC is compute-bound and may be ~1x, hence the 0.85 floor).
    let g = Dataset::Ap.build(DatasetScale::Tiny).unwrap();
    for algo in omega_ligra::algorithms::ALL_ALGOS {
        let algo = algo.with_default_root(&g);
        let base = Runner::new(SystemConfig::mini_baseline()).run(&g, algo);
        let omega = Runner::new(SystemConfig::mini_omega()).run(&g, algo);
        let speedup = base.total_cycles as f64 / omega.total_cycles as f64;
        assert!(speedup > 0.85, "{}: {speedup:.2}x", algo.name());
    }
}

#[test]
fn radii_and_sssp_flush_svb_each_iteration() {
    // SVB occupancy is bounded by per-iteration flushes: hits never exceed
    // stable reads, and misses track iterations.
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    for algo in [Algo::Sssp { root: 0 }, Algo::Radii { sample: 8 }] {
        let algo = algo.with_default_root(&g);
        let r = Runner::new(SystemConfig::mini_omega()).run(&g, algo);
        let sp = &r.mem.scratchpad;
        assert!(
            sp.svb_hits + sp.svb_misses > 0,
            "{} must exercise the source-vertex buffer",
            algo.name()
        );
    }
}

#[test]
fn chunk_size_override_changes_scheduling() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let sys = SystemConfig::mini_omega();
    let default_run = Runner::new(sys).run(&g, algo);
    let exec = ExecConfig {
        chunk_size: 256,
        ..exec_for(&sys)
    };
    let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec);
    let coarse = replay(algo.name(), checksum, &raw, &meta, &sys, None);
    assert_eq!(default_run.checksum, coarse.checksum);
    assert_ne!(
        default_run.total_cycles, coarse.total_cycles,
        "changing the OpenMP chunk must change the schedule"
    );
}

#[test]
fn hot_count_is_zero_only_on_baseline() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let base = Runner::new(SystemConfig::mini_baseline()).run(&g, algo);
    let omega = Runner::new(SystemConfig::mini_omega()).run(&g, algo);
    assert_eq!(base.hot_count, 0);
    assert!(omega.hot_count > 0);
    assert_eq!(base.machine, "baseline");
    assert_eq!(omega.machine, "omega");
}
