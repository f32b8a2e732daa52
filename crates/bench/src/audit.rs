//! Differential config fuzzing for the model-audit subsystem.
//!
//! [`Fuzzer`] draws seeded random experiment configurations — dataset ×
//! algorithm × [`MachineKind`] × telemetry × DRAM row policy, all at tiny
//! scale — and holds each one against a set of metamorphic oracles:
//!
//! * **audit** — the replay passes every [`omega_sim::audit`] conservation
//!   invariant (internal ledgers, engine attribution, telemetry totals);
//! * **determinism** — replaying the same trace twice is bit-identical;
//! * **telemetry transparency** — enabling telemetry must not perturb the
//!   model (engine report and memory stats identical with it off);
//! * **merge/delta identity** — for any window prefix `p` of the telemetry
//!   series with total `t`, `p.merge(t.delta_since(p)) == t`;
//! * **monotone latency** — doubling the DRAM device latency never makes
//!   the workload finish earlier;
//! * **codec round trip** — the store's full-fidelity encoding survives
//!   dump → parse → decode exactly (a warm store run is `==` to the cold
//!   one).
//!
//! A failing case is greedily shrunk one dimension at a time toward the
//! simplest configuration that still fails (`Sd`/`PageRank`/baseline,
//! telemetry off, close-page), so the reported [`ExperimentSpec`] is a
//! minimal reproducer rather than whatever the RNG happened to draw.

use crate::session::{AlgoKey, ExperimentSpec, MachineKind};
use crate::store::codec;
use omega_core::config::SystemConfig;
use omega_core::lower::Tape;
use omega_core::runner::{exec_for, replay, trace_algorithm};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_graph::CsrGraph;
use omega_sim::audit::AuditReport;
use omega_sim::dram::RowMode;
use omega_sim::obs;
use omega_sim::stats::MemStats;
use omega_sim::telemetry::TelemetryConfig;
use std::collections::HashMap;
use std::fmt;

/// One randomly drawn experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// The input graph (tiny scale).
    pub dataset: Dataset,
    /// The workload.
    pub algo: AlgoKey,
    /// The machine.
    pub machine: MachineKind,
    /// Whether windowed telemetry is collected.
    pub telemetry: bool,
    /// Whether the DRAM row policy is overridden to open-page.
    pub open_page: bool,
}

impl FuzzCase {
    /// The experiment coordinates of this case, telemetry included (the
    /// row policy is a machine-configuration overlay, not a coordinate).
    pub fn spec(&self) -> ExperimentSpec {
        ExperimentSpec {
            telemetry: if self.telemetry {
                TelemetryConfig::windowed(1024)
            } else {
                TelemetryConfig::off()
            },
            ..ExperimentSpec::new(self.dataset, self.algo, self.machine)
        }
    }

    /// The fully resolved machine configuration this case simulates.
    pub fn system(&self) -> SystemConfig {
        let mut sys = self.spec().system();
        if self.open_page {
            sys.machine.dram.default_mode = RowMode::OpenPage;
        }
        sys
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.spec().label(),
            if self.telemetry { "+telemetry" } else { "" },
            if self.open_page { "+openpage" } else { "" }
        )
    }
}

/// One oracle violation, with the shrunk minimal reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case the RNG originally drew.
    pub original: FuzzCase,
    /// The greedily shrunk case that still fails.
    pub minimal: FuzzCase,
    /// Which oracle rejected it.
    pub oracle: String,
    /// What the oracle saw.
    pub detail: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (drawn as {}): {}",
            self.oracle, self.minimal, self.original, self.detail
        )
    }
}

/// Aggregate result of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Cases executed.
    pub cases_run: usize,
    /// Individual oracle evaluations (audit checks + metamorphic checks).
    pub checks_run: u64,
    /// Violations, each with its shrunk reproducer.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzOutcome {
    /// True when every oracle held on every case.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Datasets cheap enough to fuzz at tiny scale, covering power-law
/// (synthetic and real), uniform-random, and road-network topologies.
const DATASETS: [Dataset; 5] = [
    Dataset::Sd,
    Dataset::Ap,
    Dataset::Rmat,
    Dataset::Lj,
    Dataset::Usa,
];

/// Machines the fuzzer draws from — every [`MachineKind`], with a fixed
/// valid permille for the scaled-scratchpad variant.
const MACHINES: [MachineKind; 10] = [
    MachineKind::Baseline,
    MachineKind::Omega,
    MachineKind::OmegaScaledSp { permille: 250 },
    MachineKind::OmegaNoPisc,
    MachineKind::OmegaNoSvb,
    MachineKind::OmegaChunkMismatch,
    MachineKind::OmegaOffchip,
    MachineKind::LockedCache,
    MachineKind::PimRank,
    MachineKind::SpecializedCache,
];

/// Seeded differential configuration fuzzer.
#[derive(Debug)]
pub struct Fuzzer {
    rng: SmallRng,
    graphs: HashMap<Dataset, CsrGraph>,
    verbose: bool,
}

impl Fuzzer {
    /// Creates a fuzzer with a deterministic case stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Fuzzer {
            rng: SmallRng::seed_from_u64(seed),
            graphs: HashMap::new(),
            verbose: false,
        }
    }

    /// Sets whether per-case progress lines go to stderr.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    fn graph(&mut self, d: Dataset) -> &CsrGraph {
        self.graphs.entry(d).or_insert_with(|| {
            d.build(DatasetScale::Tiny)
                .expect("dataset registry parameters are valid")
        })
    }

    /// Draws the next case. The algorithm is substituted with PageRank
    /// when the drawn dataset cannot support it (symmetry requirement),
    /// so every emitted case actually runs.
    pub fn sample(&mut self) -> FuzzCase {
        let dataset = DATASETS[self.rng.gen_range(0usize..DATASETS.len())];
        let mut algo = AlgoKey::ALL[self.rng.gen_range(0usize..AlgoKey::ALL.len())];
        let machine = MACHINES[self.rng.gen_range(0usize..MACHINES.len())];
        let telemetry = self.rng.gen_bool();
        let open_page = self.rng.gen_bool();
        let g = self.graph(dataset);
        if !algo.algo(g).supports(g) {
            algo = AlgoKey::PageRank;
        }
        FuzzCase {
            dataset,
            algo,
            machine,
            telemetry,
            open_page,
        }
    }

    /// Runs every oracle against one case. Returns `(checks, failures)`
    /// where each failure is `(oracle, detail)`; an empty failure list
    /// means the case passed.
    pub fn run_case(&mut self, case: FuzzCase) -> (u64, Vec<(String, String)>) {
        let g = self.graph(case.dataset).clone();
        let algo = case.algo.algo(&g);
        if !algo.supports(&g) {
            // Vacuous: the combination cannot run (only reachable through
            // shrinking, never through `sample`).
            return (0, Vec::new());
        }
        let sys = case.system();
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec_for(&sys));
        let tape = Tape::from_raw(raw, meta);
        let mut checks = 0u64;
        let mut failures: Vec<(String, String)> = Vec::new();

        let replay_on = |sys: &SystemConfig, audit: Option<&mut AuditReport>| {
            replay(algo.name(), checksum, &tape, sys, audit)
        };

        // Oracle 1: the conservation audit itself.
        let mut audit = AuditReport::new();
        let report = replay_on(&sys, Some(&mut audit));
        checks += audit.checks_run();
        for v in audit.violations() {
            failures.push(("audit".into(), v.to_string()));
        }

        // Oracle 2: replaying the same trace twice is bit-identical.
        let again = replay_on(&sys, None);
        checks += 1;
        if again != report {
            failures.push((
                "determinism".into(),
                format!(
                    "second replay diverged: {} vs {} cycles",
                    again.total_cycles, report.total_cycles
                ),
            ));
        }

        // Oracle 3: telemetry is an observer, not a participant.
        if case.telemetry {
            let mut silent = sys;
            silent.machine.telemetry = TelemetryConfig::off();
            let off = replay_on(&silent, None);
            checks += 1;
            if (&off.engine, &off.mem, off.hot_count)
                != (&report.engine, &report.mem, report.hot_count)
            {
                failures.push((
                    "telemetry-transparency".into(),
                    format!(
                        "telemetry perturbed the model: {} vs {} cycles",
                        off.total_cycles, report.total_cycles
                    ),
                ));
            }
        }

        // Oracle 4: merge undoes delta_since at every window prefix.
        if let Some(t) = &report.telemetry {
            for split in 1..t.windows.len() {
                let mut prefix = MemStats::default();
                for w in &t.windows[..split] {
                    prefix.merge(&w.delta);
                }
                let mut total = prefix;
                for w in &t.windows[split..] {
                    total.merge(&w.delta);
                }
                let mut rebuilt = prefix;
                rebuilt.merge(&total.delta_since(&prefix));
                checks += 1;
                if rebuilt != total {
                    failures.push((
                        "merge-delta-identity".into(),
                        format!("prefix of {split} windows does not recombine"),
                    ));
                }
            }
        }

        // Oracle 5: a strictly slower DRAM never finishes the run earlier.
        let mut slow = sys;
        slow.machine.dram.latency *= 2;
        let slower = replay_on(&slow, None);
        checks += 1;
        if slower.total_cycles < report.total_cycles {
            failures.push((
                "monotone-latency".into(),
                format!(
                    "doubled DRAM latency finished earlier: {} vs {} cycles",
                    slower.total_cycles, report.total_cycles
                ),
            ));
        }

        // Oracle 6: host observability (spans + sim-interval capture) is
        // an observer, not a participant — an obs-on replay must be
        // bit-identical to the obs-off baseline, telemetry included.
        // Skipped when the harness itself already has obs enabled (e.g.
        // `audit --profile`): toggling would clobber its live registry,
        // and the baseline would have been collected obs-on anyway.
        if !obs::enabled() {
            obs::enable(true, true);
            let on = replay_on(&sys, None);
            let _ = obs::drain();
            checks += 1;
            if on != report {
                failures.push((
                    "obs-transparency".into(),
                    format!(
                        "observability perturbed the model: {} vs {} cycles",
                        on.total_cycles, report.total_cycles
                    ),
                ));
            }
        }

        // Oracle 6: the store codec is lossless (warm == cold).
        checks += 1;
        let encoded = codec::report_to_json(&report).dump();
        match crate::json::Json::parse(&encoded)
            .ok()
            .and_then(|j| codec::report_from_json(&j).ok())
        {
            Some(decoded) if decoded == report => {}
            Some(_) => failures.push((
                "codec-round-trip".into(),
                "decoded report differs from the original".into(),
            )),
            None => failures.push((
                "codec-round-trip".into(),
                "encoded report failed to parse or decode".into(),
            )),
        }

        (checks, failures)
    }

    /// Greedily shrinks a failing case: one dimension at a time toward
    /// `Sd`/`PageRank`/baseline/telemetry-off/close-page, keeping any
    /// simplification under which *some* oracle still fails.
    pub fn shrink(&mut self, failing: FuzzCase) -> FuzzCase {
        let mut cur = failing;
        loop {
            let mut candidates: Vec<FuzzCase> = Vec::new();
            if cur.dataset != Dataset::Sd {
                candidates.push(FuzzCase {
                    dataset: Dataset::Sd,
                    ..cur
                });
            }
            if cur.algo != AlgoKey::PageRank {
                candidates.push(FuzzCase {
                    algo: AlgoKey::PageRank,
                    ..cur
                });
            }
            if cur.machine != MachineKind::Baseline {
                candidates.push(FuzzCase {
                    machine: MachineKind::Baseline,
                    ..cur
                });
                if cur.machine != MachineKind::Omega {
                    candidates.push(FuzzCase {
                        machine: MachineKind::Omega,
                        ..cur
                    });
                }
            }
            if cur.telemetry {
                candidates.push(FuzzCase {
                    telemetry: false,
                    ..cur
                });
            }
            if cur.open_page {
                candidates.push(FuzzCase {
                    open_page: false,
                    ..cur
                });
            }
            let Some(simpler) = candidates
                .into_iter()
                .find(|&c| !self.run_case(c).1.is_empty())
            else {
                return cur;
            };
            cur = simpler;
        }
    }

    /// Draws and checks `cases` configurations, shrinking every failure.
    pub fn run(&mut self, cases: usize) -> FuzzOutcome {
        let mut outcome = FuzzOutcome::default();
        for i in 0..cases {
            let case = self.sample();
            if self.verbose {
                eprintln!("  [fuzz] case {}/{}: {}", i + 1, cases, case);
            }
            let (checks, failures) = self.run_case(case);
            outcome.cases_run += 1;
            outcome.checks_run += checks;
            if failures.is_empty() {
                continue;
            }
            let minimal = self.shrink(case);
            // Re-run the minimal case for the detail the report shows.
            let (_, minimal_failures) = self.run_case(minimal);
            let witnessed = if minimal_failures.is_empty() {
                &failures
            } else {
                &minimal_failures
            };
            for (oracle, detail) in witnessed {
                outcome.failures.push(FuzzFailure {
                    original: case,
                    minimal,
                    oracle: oracle.clone(),
                    detail: detail.clone(),
                });
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = Fuzzer::new(7);
        let mut b = Fuzzer::new(7);
        for _ in 0..20 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn sampled_cases_always_run() {
        let mut f = Fuzzer::new(11);
        for _ in 0..40 {
            let case = f.sample();
            let g = f.graph(case.dataset).clone();
            assert!(case.algo.algo(&g).supports(&g), "{case}");
        }
    }

    #[test]
    fn a_small_fuzz_run_is_clean() {
        let mut f = Fuzzer::new(0xA0D17);
        let outcome = f.run(3);
        assert_eq!(outcome.cases_run, 3);
        assert!(outcome.checks_run > 0);
        assert!(
            outcome.is_clean(),
            "{}",
            outcome
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn shrink_reaches_the_simplest_case_when_everything_fails() {
        // `shrink` on a case whose failures are universal (here: simulated
        // by shrinking from a case and checking the fixed point is minimal
        // along dimensions that keep failing). We fake "always fails" by
        // shrinking a *passing* case: no candidate fails, so the case is
        // returned unchanged.
        let mut f = Fuzzer::new(3);
        let case = FuzzCase {
            dataset: Dataset::Ap,
            algo: AlgoKey::Bfs,
            machine: MachineKind::Omega,
            telemetry: true,
            open_page: true,
        };
        assert_eq!(f.shrink(case), case);
    }

    #[test]
    fn case_labels_cover_the_overlays() {
        let case = FuzzCase {
            dataset: Dataset::Sd,
            algo: AlgoKey::PageRank,
            machine: MachineKind::Baseline,
            telemetry: true,
            open_page: true,
        };
        let s = case.to_string();
        assert!(s.contains("+telemetry") && s.contains("+openpage"), "{s}");
        assert_eq!(case.spec().label(), "PageRank-sd@baseline");
    }
}
