//! Seeded property loop over the model-audit subsystem.
//!
//! A deterministic RNG draws machine-configuration variations — telemetry
//! on/off, DRAM row policy, device latency, channel count, NoC latency —
//! around the baseline and OMEGA machines, and every PageRank/BFS/SSSP
//! replay at tiny scale must come back clean from the full conservation
//! audit ([`omega_sim::audit`]): internal component ledgers, engine stall
//! attribution, cross-component traffic balance, and telemetry histogram
//! totals.

use omega_repro::core::config::SystemConfig;
use omega_repro::core::lower::Tape;
use omega_repro::core::runner::{replay, trace_algorithm};
use omega_repro::graph::datasets::{Dataset, DatasetScale};
use omega_repro::graph::rng::SmallRng;
use omega_repro::ligra::algorithms::Algo;
use omega_repro::ligra::ExecConfig;
use omega_repro::sim::audit::AuditReport;
use omega_repro::sim::dram::RowMode;
use omega_repro::sim::telemetry::TelemetryConfig;

fn workloads(g: &omega_repro::graph::CsrGraph) -> Vec<(&'static str, Algo)> {
    vec![
        ("pagerank", Algo::PageRank { iters: 1 }),
        ("bfs", Algo::Bfs { root: 0 }.with_default_root(g)),
        ("sssp", Algo::Sssp { root: 0 }.with_default_root(g)),
    ]
}

/// Draws a randomly perturbed variant of `base`: every knob the audit
/// invariants must be insensitive to.
fn perturb(base: SystemConfig, rng: &mut SmallRng) -> SystemConfig {
    let mut sys = base;
    sys.machine.telemetry = if rng.gen_bool() {
        TelemetryConfig::windowed(rng.gen_range(256u64..=4096))
    } else {
        TelemetryConfig::off()
    };
    sys.machine.dram.default_mode = if rng.gen_bool() {
        RowMode::OpenPage
    } else {
        RowMode::ClosePage
    };
    sys.machine.dram.latency = rng.gen_range(20u32..=200);
    sys.machine.dram.channels = rng.gen_range(1usize..=8);
    sys.machine.noc.latency = rng.gen_range(2u32..=24);
    sys
}

#[test]
fn random_configs_pass_the_conservation_audit() {
    let mut rng = SmallRng::seed_from_u64(0x000A_0D17_CA5E);
    for dataset in [Dataset::Sd, Dataset::Ap] {
        let g = dataset.build(DatasetScale::Tiny).unwrap();
        for (name, algo) in workloads(&g) {
            let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
            let tape = Tape::new(&raw, &meta);
            for round in 0..4 {
                for (label, base) in [
                    ("baseline", SystemConfig::mini_baseline()),
                    ("omega", SystemConfig::mini_omega()),
                ] {
                    let sys = perturb(base, &mut rng);
                    // Once a replay parallelism; still drawn so later configs are unchanged.
                    let _ = rng.gen_range(1usize..=4);
                    let mut audit = AuditReport::new();
                    let report = replay(name, checksum, &tape, &sys, Some(&mut audit));
                    assert!(audit.checks_run() > 0);
                    assert!(
                        audit.is_clean(),
                        "{name} on {label} (round {round}, dram latency {}, \
                         {} channels, noc latency {}, {:?}, telemetry {}):\n{audit}",
                        sys.machine.dram.latency,
                        sys.machine.dram.channels,
                        sys.machine.noc.latency,
                        sys.machine.dram.default_mode,
                        sys.machine.telemetry.enabled,
                    );
                    assert!(report.total_cycles > 0);
                }
            }
        }
    }
}

#[test]
fn audit_stays_clean_with_telemetry_off() {
    // The internal-ledger checks must also run (and hold) when no
    // histograms exist to cross-check against.
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    for (name, algo) in workloads(&g) {
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
        let tape = Tape::new(&raw, &meta);
        for (label, sys) in [
            ("baseline", SystemConfig::mini_baseline()),
            ("omega", SystemConfig::mini_omega()),
            ("locked-cache", SystemConfig::mini_locked_cache()),
        ] {
            let mut audit = AuditReport::new();
            replay(name, checksum, &tape, &sys, Some(&mut audit));
            assert!(audit.is_clean(), "{name} on {label}:\n{audit}");
        }
    }
}
