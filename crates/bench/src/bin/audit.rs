//! `audit` — the model-audit gate: conservation probes, a machine sweep
//! under the full invariant checker, and seeded differential config
//! fuzzing with failing-case shrinking. Exits non-zero on any violation.
//!
//! ```text
//! cargo run --release -p omega-bench --bin audit -- \
//!     [--quick] [--seed N] [--cases N] [--json] [--out PATH] \
//!     [--profile] [--profile-out FILE] [--trace FILE]
//! ```
//!
//! `--quick` trims the sweep to three workloads and the fuzzer to a
//! handful of cases (CI's configuration; still covers all ten machine
//! kinds). `--seed` fixes the fuzzer stream, `--cases` its length.
//! With `--json`, a machine-readable `omega-audit-report/v1` document goes
//! to stdout; `--out PATH` additionally writes the same document to a file
//! (the CI artifact) in every mode.

use omega_bench::audit::Fuzzer;
use omega_bench::json::Json;
use omega_bench::session::{AlgoKey, MachineKind, Session};
use omega_bench::ObsOptions;
use omega_core::runner::{timing_replay_count, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_sim::telemetry::TelemetryConfig;
use std::process::ExitCode;

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

struct Options {
    quick: bool,
    json: bool,
    seed: u64,
    cases: Option<usize>,
    out: Option<String>,
    obs: ObsOptions,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        json: false,
        seed: 0xA0D17,
        cases: None,
        out: None,
        obs: ObsOptions::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if opts
            .obs
            .try_parse_flag(&a, &mut args)
            .map_err(|e| e.to_string())?
        {
            continue;
        }
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?;
            }
            "--cases" => {
                let v = args.next().ok_or("--cases needs a value")?;
                opts.cases = Some(v.parse().map_err(|e| format!("bad --cases `{v}`: {e}"))?);
            }
            "--out" => opts.out = Some(args.next().ok_or("--out needs a value")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// All ten machine kinds — the sweep must stay exhaustive even in
/// `--quick` mode.
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

/// Cold/warm store equivalence on a throwaway store: a warm session must
/// serve the identical report without a single timing replay.
fn warm_store_check() -> Check {
    let dir = std::env::temp_dir().join(format!("omega-audit-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = (Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega);
    let result = (|| -> Result<(bool, String), String> {
        let telemetry = TelemetryConfig::windowed(1024);
        let cold = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .telemetry(telemetry)
            .with_store(&dir)
            .map_err(|e| e.to_string())?
            .report(spec)
            .clone();
        let replays_cold = timing_replay_count();
        let warm = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .telemetry(telemetry)
            .with_store(&dir)
            .map_err(|e| e.to_string())?
            .report(spec)
            .clone();
        let warm_replays = timing_replay_count() - replays_cold;
        if warm != cold {
            Ok((false, "warm report differs from cold".into()))
        } else if warm_replays != 0 {
            Ok((false, format!("warm session ran {warm_replays} replays")))
        } else {
            Ok((true, "warm == cold, zero replays".into()))
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, detail) = result.unwrap_or_else(|e| (false, format!("store error: {e}")));
    Check {
        name: "warm store serves bit-identical reports".into(),
        ok,
        detail,
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    opts.obs.install();
    let mut checks: Vec<Check> = Vec::new();

    // 1. Deterministic model probes: fail immediately if either accounting
    // fix (round-trip response packets, laggard phantom queueing) is
    // reverted — no workload or telemetry needed.
    let probes = omega_sim::audit::run_probes();
    checks.push(Check {
        name: "accounting probes hold".into(),
        ok: probes.is_clean(),
        detail: probes.to_string(),
    });

    // 2. Machine sweep: every machine kind under the full invariant
    // checker, with telemetry on so the histogram cross-checks run.
    let mut session = Session::new(DatasetScale::Tiny).verbose(false);
    let sweep_algos: Vec<AlgoKey> = if opts.quick {
        vec![AlgoKey::PageRank, AlgoKey::Bfs, AlgoKey::Sssp]
    } else {
        AlgoKey::ALL.to_vec()
    };
    let g = session.graph(Dataset::Sd).clone();
    for algo in sweep_algos {
        if !algo.algo(&g).supports(&g) {
            continue;
        }
        let mut runner = Runner::new(MACHINES[0].system());
        for m in &MACHINES[1..] {
            runner = runner.also(m.system());
        }
        let audited = runner
            .telemetry(TelemetryConfig::windowed(1024))
            .run_many_audited(&g, algo.algo(&g));
        for ((report, audit), machine) in audited.into_iter().zip(MACHINES) {
            checks.push(Check {
                name: format!("{} on sd@{} conserves", algo.name(), machine.label()),
                ok: audit.is_clean(),
                detail: if audit.is_clean() {
                    format!(
                        "{} checks, {} cycles",
                        audit.checks_run(),
                        report.total_cycles
                    )
                } else {
                    audit.to_string()
                },
            });
        }
    }

    // 3. Seeded differential config fuzzing with metamorphic oracles.
    let cases = opts.cases.unwrap_or(if opts.quick { 6 } else { 24 });
    let mut fuzzer = Fuzzer::new(opts.seed).verbose(!opts.json);
    let fuzz = fuzzer.run(cases);
    checks.push(Check {
        name: format!("fuzz: {cases} cases, seed {:#x}", opts.seed),
        ok: fuzz.is_clean(),
        detail: if fuzz.is_clean() {
            format!("{} oracle checks", fuzz.checks_run)
        } else {
            fuzz.failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        },
    });

    // 4. Warm-store equivalence.
    checks.push(warm_store_check());

    let failed = checks.iter().filter(|c| !c.ok).count();
    for c in &checks {
        let line = format!(
            "[{}] {} — {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
        if opts.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    let summary = if failed == 0 {
        format!("all {} audit checks passed", checks.len())
    } else {
        format!("{failed} of {} audit checks FAILED", checks.len())
    };

    let mut doc = Json::obj();
    doc.set("schema", Json::Str("omega-audit-report/v1".into()));
    doc.set("quick", Json::Bool(opts.quick));
    doc.set("seed", Json::Num(opts.seed as f64));
    doc.set(
        "checks",
        Json::Arr(
            checks
                .iter()
                .map(|c| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(c.name.clone()));
                    o.set("ok", Json::Bool(c.ok));
                    o.set("detail", Json::Str(c.detail.clone()));
                    o
                })
                .collect(),
        ),
    );
    doc.set("fuzz", {
        let mut o = Json::obj();
        o.set("cases", Json::Num(fuzz.cases_run as f64));
        o.set("checks", Json::Num(fuzz.checks_run as f64));
        o.set(
            "failures",
            Json::Arr(
                fuzz.failures
                    .iter()
                    .map(|f| {
                        let mut v = Json::obj();
                        v.set("oracle", Json::Str(f.oracle.clone()));
                        v.set("minimal", Json::Str(f.minimal.to_string()));
                        v.set("original", Json::Str(f.original.to_string()));
                        v.set("detail", Json::Str(f.detail.clone()));
                        v
                    })
                    .collect(),
            ),
        );
        o
    });
    doc.set("failed", Json::Num(failed as f64));
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, doc.dump()) {
            eprintln!("audit: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.json {
        print!("{}", doc.dump());
        eprintln!("\n{summary}");
    } else {
        println!("\n{summary}");
    }
    if let Err(e) = opts.obs.finish() {
        eprintln!("audit: cannot write obs output: {e}");
        return ExitCode::FAILURE;
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
