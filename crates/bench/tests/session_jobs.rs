//! `--jobs` is a wall-clock knob only: a [`Session`] replays the same
//! reports at any worker budget, whether the budget is spread over many
//! `(dataset, algo)` groups or exceeds the number of groups.

use omega_bench::report_json::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_sim::telemetry::TelemetryConfig;

/// The session's replay paths (the `--jobs` surface) produce the same
/// reports at any worker budget.
#[test]
fn session_reports_are_identical_at_any_jobs_setting() {
    let work = [
        (Dataset::Sd, AlgoKey::PageRank, MachineKind::Baseline),
        (Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega),
        (Dataset::Ap, AlgoKey::Cc, MachineKind::Omega),
    ];
    let mut reference = Session::new(DatasetScale::Tiny).verbose(false).jobs(1);
    reference.prefetch(&work);
    for jobs in [2usize, 4] {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false).jobs(jobs);
        s.prefetch(&work);
        for spec in work {
            assert_eq!(
                s.report(spec).clone(),
                reference.report(spec).clone(),
                "jobs={jobs} diverged on {:?}",
                spec
            );
        }
    }
}

/// One `(dataset, algo)` group replayed on many machines: more jobs than
/// groups, so the extra budget has nothing to run. Every serialised
/// report, telemetry windows and histograms included, is byte-identical
/// to the `jobs = 1` sweep.
#[test]
fn one_group_sweeps_are_byte_identical_at_any_jobs_setting() {
    let machines = [
        MachineKind::Baseline,
        MachineKind::Omega,
        MachineKind::OmegaNoPisc,
        MachineKind::LockedCache,
        MachineKind::PimRank,
        MachineKind::SpecializedCache,
    ];
    let work: Vec<ExperimentSpec> = machines
        .iter()
        .map(|&m| ExperimentSpec {
            telemetry: TelemetryConfig::windowed(1024),
            ..ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, m)
        })
        .collect();
    let documents = |jobs: usize| -> Vec<String> {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false).jobs(jobs);
        s.prefetch(&work);
        work.iter()
            .map(|&spec| run_report_to_json(s.report(spec), &spec.system()).dump())
            .collect()
    };
    let reference = documents(1);
    for jobs in [2usize, 4] {
        for (doc, (want, spec)) in documents(jobs).iter().zip(reference.iter().zip(&work)) {
            assert_eq!(doc, want, "jobs={jobs} diverged on {spec:?}");
        }
    }
}
