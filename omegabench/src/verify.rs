//! Correctness oracles independent of the simulator: native parallel
//! executions of the same algorithms, and the offline report a served
//! payload must equal byte for byte.

use omega_bench::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_core::config::SystemConfig;
use omega_core::runner::RunReport;
use omega_graph::CsrGraph;
use omega_ligra::algorithms::Algo;
use omega_ligra::native;
use omega_sim::telemetry::TelemetryConfig;

/// Relative tolerance between a simulated PageRank checksum and the
/// native one: the native run adds floats in thread order, so the sums
/// differ by reassociation only (~1e-15 in practice).
pub const PAGERANK_REL_TOL: f64 = 1e-9;

/// The checksum a native parallel run of `algo` on `g` produces, with
/// the relative tolerance a simulated run must meet (0 = exact). `None`
/// for algorithms without a native oracle.
pub fn native_checksum(g: &CsrGraph, algo: AlgoKey, threads: usize) -> Option<(f64, f64)> {
    match algo.algo(g) {
        Algo::PageRank { iters } => {
            let ranks = native::pagerank_parallel(g, iters, threads);
            Some((ranks.iter().sum(), PAGERANK_REL_TOL))
        }
        Algo::Sssp { root } => {
            let dist = native::sssp_parallel(g, root, threads);
            let sum = dist
                .iter()
                .filter(|&&d| d != i32::MAX)
                .map(|&d| f64::from(d))
                .sum();
            Some((sum, 0.0))
        }
        _ => None,
    }
}

/// Whether `got` equals `want` within relative tolerance `tol` (bit
/// equality when `tol` is 0).
pub fn checksum_matches(got: f64, want: f64, tol: f64) -> bool {
    if tol == 0.0 {
        got.to_bits() == want.to_bits()
    } else {
        (got - want).abs() <= tol * want.abs().max(1.0)
    }
}

/// The machine a kind runs as: telemetry off, as both `Session` and
/// `omega-serve` configure it.
pub fn system_for(machine: MachineKind) -> SystemConfig {
    let mut sys = machine.system();
    sys.machine.telemetry = TelemetryConfig::off();
    sys
}

/// The exact bytes `omega-serve` must answer for `spec`, given the
/// offline report.
pub fn offline_payload(spec: ExperimentSpec, report: &RunReport) -> String {
    run_report_to_json(report, &system_for(spec.machine)).dump()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::runner::Runner;
    use omega_graph::datasets::{Dataset, DatasetScale};

    #[test]
    fn simulated_checksums_meet_the_native_oracles() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        for algo in [AlgoKey::PageRank, AlgoKey::Sssp] {
            let report = Runner::new(SystemConfig::mini_omega()).run(&g, algo.algo(&g));
            let (want, tol) = native_checksum(&g, algo, 2).unwrap();
            assert!(checksum_matches(report.checksum, want, tol), "{algo}");
            // A perturbed checksum is caught.
            assert!(
                !checksum_matches(report.checksum + 1.0, want, tol),
                "{algo}"
            );
        }
        assert!(native_checksum(&g, AlgoKey::Bfs, 2).is_none());
    }
}
