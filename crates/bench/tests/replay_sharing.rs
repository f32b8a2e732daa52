//! A trace group replays each distinct machine once: members whose
//! memory model is the same for the group's trace share one replay
//! (`runner::ReplayKey`). These tests hold every shared report to a fresh
//! replay on a freshly traced tape, and check that machines the trace can
//! tell apart keep replays of their own.

use omega_bench::session::{AlgoKey, ExperimentSpec, GroupTrace, MachineKind, Variant};
use omega_core::config::SystemConfig;
use omega_core::lower::Tape;
use omega_core::runner::{exec_for, replay, trace_algorithm, ReplayKey, RunReport};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::CsrGraph;

const SCALE: DatasetScale = DatasetScale::Tiny;

/// The ten machine kinds of the natural-graph sweep, plus two more
/// scratchpad sizes.
fn machines() -> Vec<MachineKind> {
    let mut machines = MachineKind::NAMED.to_vec();
    for permille in [500, 250, 1000] {
        machines.push(MachineKind::scaled_sp(permille).expect("valid scale"));
    }
    machines
}

/// A fresh trace of `algo` on `g`, lowered into a fresh tape.
fn fresh_tape(g: &CsrGraph, algo: AlgoKey) -> (f64, Tape) {
    let exec = exec_for(&SystemConfig::mini_baseline());
    let (checksum, raw, meta) = trace_algorithm(g, algo.algo(g), &exec);
    (checksum, Tape::from_raw(raw, meta))
}

fn group(g: &CsrGraph, algo: AlgoKey) -> GroupTrace {
    let exec = exec_for(&SystemConfig::mini_baseline());
    GroupTrace::new(g, algo, Variant::Standard, &exec, false)
}

#[test]
fn every_member_report_equals_a_fresh_replay_on_a_fresh_tape() {
    let algos = [
        AlgoKey::PageRank,
        AlgoKey::Bfs,
        AlgoKey::Sssp,
        AlgoKey::Cc,
        AlgoKey::Tc,
        AlgoKey::KCore,
    ];
    let mut shared = 0;
    for d in Dataset::ALL {
        let g = d.build(SCALE).expect("registry dataset builds");
        for algo in algos {
            if !algo.algo(&g).supports(&g) {
                continue;
            }
            let trace = group(&g, algo);
            let (checksum, tape) = fresh_tape(&g, algo);
            let mut keys: Vec<ReplayKey> = Vec::new();
            for m in machines() {
                let spec = ExperimentSpec::new(d, algo, m);
                let system = spec.system();
                let key = ReplayKey::new(&tape, &system, false);
                if keys.contains(&key) {
                    shared += 1;
                } else {
                    keys.push(key);
                }
                let fresh = replay(algo.algo(&g).name(), checksum, &tape, &system, None);
                assert_eq!(
                    trace.replay_member(spec, SCALE, None),
                    fresh,
                    "{}",
                    spec.label()
                );
            }
        }
    }
    // PageRank and BFS leave omega-nosvb nothing to tell it from omega.
    assert!(shared > 0, "no member shared a replay");
}

/// `a` and `b` replay `d`'s `algo` trace at `scale` differently: their
/// keys differ, their fresh replays differ label aside, and a group
/// holding both gives each its fresh replay. Returns the two reports.
fn assert_told_apart(
    d: Dataset,
    scale: DatasetScale,
    algo: AlgoKey,
    a: MachineKind,
    b: MachineKind,
) -> (RunReport, RunReport) {
    let g = d.build(scale).expect("registry dataset builds");
    let (checksum, tape) = fresh_tape(&g, algo);
    let key = |m: MachineKind| ReplayKey::new(&tape, &m.system(), false);
    assert_ne!(key(a), key(b), "{a:?} and {b:?} share a key");
    let alone = |m: MachineKind| replay(algo.algo(&g).name(), checksum, &tape, &m.system(), None);
    let (alone_a, alone_b) = (alone(a), alone(b));
    let relabelled = RunReport {
        machine: alone_a.machine.clone(),
        ..alone_b.clone()
    };
    assert_ne!(alone_a, relabelled, "{a:?} and {b:?} replay alike");
    let trace = group(&g, algo);
    let spec = |m| ExperimentSpec::new(d, algo, m);
    assert_eq!(trace.replay_member(spec(a), scale, None), alone_a);
    assert_eq!(trace.replay_member(spec(b), scale, None), alone_b);
    (alone_a, alone_b)
}

#[test]
fn omega_nosvb_replays_apart_where_sources_are_monitored() {
    // SSSP reads `dist` of each source vertex: a monitored property that
    // the source-vertex buffer serves.
    assert_told_apart(
        Dataset::Sd,
        SCALE,
        AlgoKey::Sssp,
        MachineKind::Omega,
        MachineKind::OmegaNoSvb,
    );
}

#[test]
fn pinned_caches_replay_apart_where_they_pin_different_lines() {
    // SSSP's two monitored properties outgrow the budget on lj: the
    // prop-major and vertex-major orders then pin different lines.
    assert_told_apart(
        Dataset::Lj,
        SCALE,
        AlgoKey::Sssp,
        MachineKind::LockedCache,
        MachineKind::SpecializedCache,
    );
}

#[test]
fn a_smaller_scratchpad_replays_apart_where_its_hot_set_is_smaller() {
    // Every tiny graph fits in half a scratchpad; small rMat does not.
    let (omega, half) = assert_told_apart(
        Dataset::Rmat,
        DatasetScale::Small,
        AlgoKey::PageRank,
        MachineKind::Omega,
        MachineKind::scaled_sp(500).expect("valid scale"),
    );
    assert!(half.hot_count < omega.hot_count);
}
