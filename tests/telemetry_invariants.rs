//! Cross-layer telemetry invariants over real workloads.
//!
//! Three properties, each across PageRank/BFS/SSSP on every machine kind:
//!
//! 1. **Conservation** — the five per-core stall buckets (issue, memory
//!    stall, atomic stall, barrier, drain) partition each core's wall time
//!    exactly: their sum equals `finish_time` on every core.
//! 2. **Transparency** — enabling telemetry changes nothing observable:
//!    the engine report and every memory statistic are bit-identical with
//!    it on and off, and it is `None` unless requested.
//! 3. **Window completeness** — the cycle-windowed samples are a true
//!    decomposition: merging every per-window delta reproduces the run's
//!    cumulative `MemStats`, and window end cycles strictly increase.

use omega_repro::core::config::SystemConfig;
use omega_repro::core::lower::Tape;
use omega_repro::core::runner::{replay, trace_algorithm, RunReport};
use omega_repro::graph::datasets::{Dataset, DatasetScale};
use omega_repro::ligra::algorithms::Algo;
use omega_repro::ligra::ExecConfig;
use omega_repro::sim::stats::MemStats;
use omega_repro::sim::telemetry::TelemetryConfig;

fn workloads() -> Vec<(&'static str, Algo)> {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    vec![
        ("pagerank", Algo::PageRank { iters: 1 }),
        ("bfs", Algo::Bfs { root: 0 }.with_default_root(&g)),
        ("sssp", Algo::Sssp { root: 0 }.with_default_root(&g)),
    ]
}

fn machines() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("baseline", SystemConfig::mini_baseline()),
        ("omega", SystemConfig::mini_omega()),
        ("locked-cache", SystemConfig::mini_locked_cache()),
    ]
}

#[test]
fn stall_buckets_partition_wall_time_on_every_machine() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    for (name, algo) in workloads() {
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
        let tape = Tape::new(&raw, &meta);
        for (label, system) in machines() {
            let engine = replay(name, checksum, &tape, &system, None).engine;
            for (i, core) in engine.per_core.iter().enumerate() {
                assert_eq!(
                    core.attributed_cycles(),
                    core.finish_time,
                    "{name} on {label}, core {i}: buckets must sum to wall time \
                     (compute {} + mem {} + atomic {} + barrier {} + drain {} vs finish {})",
                    core.compute_cycles,
                    core.memory_stall_cycles,
                    core.atomic_stall_cycles,
                    core.barrier_cycles,
                    core.drain_cycles,
                    core.finish_time,
                );
            }
        }
    }
}

#[test]
fn telemetry_observation_does_not_perturb_the_simulation() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    for (name, algo) in workloads() {
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
        let tape = Tape::new(&raw, &meta);
        for (label, system) in machines() {
            let mut observed = system;
            observed.machine.telemetry = TelemetryConfig::windowed(1024);
            let off = replay(name, checksum, &tape, &system, None);
            let on = replay(name, checksum, &tape, &observed, None);
            assert!(
                off.telemetry.is_none(),
                "{name} on {label}: telemetry uninvited"
            );
            assert!(
                on.telemetry.is_some(),
                "{name} on {label}: telemetry missing"
            );
            assert_eq!(off.engine, on.engine, "{name} on {label}: engine perturbed");
            assert_eq!(off.mem, on.mem, "{name} on {label}: stats perturbed");
            assert_eq!(off.hot_count, on.hot_count);
        }
    }
}

#[test]
fn window_deltas_merge_back_to_run_totals() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    for (name, algo) in workloads() {
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
        let tape = Tape::new(&raw, &meta);
        for (label, system) in machines() {
            let mut observed = system;
            observed.machine.telemetry = TelemetryConfig::windowed(512);
            let RunReport { mem, telemetry, .. } = replay(name, checksum, &tape, &observed, None);
            let t = telemetry.expect("telemetry was requested");
            assert_eq!(t.window_cycles, 512);
            assert!(
                !t.windows.is_empty(),
                "{name} on {label}: no windows sampled"
            );
            let mut recombined = MemStats::default();
            let mut prev_end = 0;
            for w in &t.windows {
                assert!(
                    w.end > prev_end,
                    "{name} on {label}: window ends must strictly increase"
                );
                prev_end = w.end;
                recombined.merge(&w.delta);
            }
            assert_eq!(
                recombined, mem,
                "{name} on {label}: per-window deltas must sum to the run totals"
            );
        }
    }
}
