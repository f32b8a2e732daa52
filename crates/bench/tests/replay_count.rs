//! A trace group replays each distinct machine once. This file contains
//! exactly one test: `timing_replay_count` is process-global, so the
//! count it pins must not see another test's replays.

use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_core::runner::timing_replay_count;
use omega_graph::datasets::{Dataset, DatasetScale};

#[test]
fn a_tiny_natural_sweep_replays_each_distinct_machine_once() {
    // The natural-graph sweep's shape at tiny scale: 3 datasets × 3
    // algorithms × 10 machines, 90 members in 9 trace groups.
    let mut kinds = MachineKind::NAMED.to_vec();
    kinds.push(MachineKind::scaled_sp(500).expect("valid scale"));
    let mut work = Vec::new();
    for d in [Dataset::Lj, Dataset::Rmat, Dataset::Sd] {
        for a in [AlgoKey::PageRank, AlgoKey::Sssp, AlgoKey::Bfs] {
            work.extend(kinds.iter().map(|&m| ExperimentSpec::new(d, a, m)));
        }
    }
    let replays0 = timing_replay_count();
    let mut s = Session::new(DatasetScale::Tiny).verbose(false);
    s.prefetch(&work);
    assert_eq!(timing_replay_count() - replays0, 67);
}
