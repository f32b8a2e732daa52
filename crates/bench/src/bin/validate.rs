//! `validate` — a fast self-check that the reproduction's headline
//! invariants hold on this machine. Exits non-zero on any violation;
//! suitable as a CI smoke test (runs in seconds at tiny scale).
//!
//! ```text
//! cargo run --release -p omega-bench --bin validate [-- --json]
//! ```
//!
//! With `--json`, a machine-readable `omega-validate-report/v1` document
//! goes to stdout (the human-readable lines move to stderr); the exit code
//! contract is unchanged. `--profile`/`--profile-out`/`--trace` enable the
//! host self-profiling layer (output to stderr/files only).

use omega_bench::json::Json;
use omega_bench::session::{AlgoKey, MachineKind, Session};
use omega_bench::ObsOptions;
use omega_graph::datasets::{Dataset, DatasetScale};
use std::process::ExitCode;

struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn main() -> ExitCode {
    let mut json_mode = false;
    let mut obs = ObsOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match obs.try_parse_flag(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("validate: {e}");
                return ExitCode::from(2);
            }
        }
        if arg == "--json" {
            json_mode = true;
        }
    }
    obs.install();
    let mut s = Session::new(DatasetScale::Tiny).verbose(false);
    // Check 6 compares power-law and road graphs on a capacity-constrained
    // scratchpad (~6% of standard): at tiny scale both graphs fit the
    // standard scratchpads whole.
    let constrained = MachineKind::scaled_sp(63).expect("63‰ keeps the scratchpad above the floor");
    // Every run the checks read, simulated up front: one functional trace
    // per graph.
    s.prefetch(&[
        (Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline),
        (Dataset::Lj, AlgoKey::PageRank, MachineKind::Omega),
        (Dataset::Lj, AlgoKey::PageRank, constrained),
        (Dataset::Lj, AlgoKey::PageRank, MachineKind::OmegaNoPisc),
        (Dataset::Usa, AlgoKey::PageRank, MachineKind::Baseline),
        (Dataset::Usa, AlgoKey::PageRank, constrained),
    ]);
    let mut checks: Vec<Check> = Vec::new();

    // 1. Functional equivalence across machines.
    let base = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .clone();
    let omega = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Omega))
        .clone();
    checks.push(Check {
        name: "machines compute identical results",
        ok: base.checksum == omega.checksum,
        detail: format!("{} vs {}", base.checksum, omega.checksum),
    });

    // 2. OMEGA wins on a natural graph.
    let speedup = base.total_cycles as f64 / omega.total_cycles as f64;
    checks.push(Check {
        name: "OMEGA speeds up power-law PageRank",
        ok: speedup > 1.2,
        detail: format!("{speedup:.2}x"),
    });

    // 3. Traffic shrinks (word packets, Fig 17).
    checks.push(Check {
        name: "OMEGA cuts on-chip traffic",
        ok: omega.mem.noc.bytes < base.mem.noc.bytes,
        detail: format!("{} vs {} bytes", omega.mem.noc.bytes, base.mem.noc.bytes),
    });

    // 4. Hit rate rises (Fig 15).
    checks.push(Check {
        name: "OMEGA lifts last-level hit rate",
        ok: omega.mem.last_level_hit_rate() > base.mem.last_level_hit_rate(),
        detail: format!(
            "{:.2} vs {:.2}",
            omega.mem.last_level_hit_rate(),
            base.mem.last_level_hit_rate()
        ),
    });

    // 5. Atomics actually offload.
    checks.push(Check {
        name: "atomics offload to PISCs",
        ok: omega.mem.scratchpad.pisc_ops > 0 && base.mem.scratchpad.pisc_ops == 0,
        detail: format!("{} PISC ops", omega.mem.scratchpad.pisc_ops),
    });

    // 6. Road networks stay modest (Fig 18 crossover), visible only with
    // capacity-constrained scratchpads.
    let lb = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .total_cycles;
    let lo = s
        .report((Dataset::Lj, AlgoKey::PageRank, constrained))
        .total_cycles;
    let rb = s
        .report((Dataset::Usa, AlgoKey::PageRank, MachineKind::Baseline))
        .total_cycles;
    let ro = s
        .report((Dataset::Usa, AlgoKey::PageRank, constrained))
        .total_cycles;
    let lj_constrained = lb as f64 / lo as f64;
    let road_constrained = rb as f64 / ro as f64;
    checks.push(Check {
        name: "capacity-constrained: power law beats road network",
        ok: road_constrained < lj_constrained,
        detail: format!("road {road_constrained:.2}x vs lj {lj_constrained:.2}x"),
    });

    // 7. Determinism: a fresh session replays the same report.
    let again = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .clone();
    checks.push(Check {
        name: "simulation is deterministic",
        ok: again == base,
        detail: "identical reports".into(),
    });

    // 8. PISC ablation loses speedup.
    let nopisc = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::OmegaNoPisc))
        .total_cycles;
    checks.push(Check {
        name: "removing PISCs costs performance",
        ok: nopisc > omega.total_cycles,
        detail: format!("{} vs {} cycles", nopisc, omega.total_cycles),
    });

    let mut failed = 0u64;
    for c in &checks {
        let line = format!(
            "[{}] {} — {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
        // In JSON mode stdout carries only the document.
        if json_mode {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
        if !c.ok {
            failed += 1;
        }
    }
    let summary = if failed == 0 {
        format!("all {} checks passed", checks.len())
    } else {
        format!("{failed} of {} checks FAILED", checks.len())
    };
    if json_mode {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("omega-validate-report/v1".into()));
        doc.set(
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        let mut o = Json::obj();
                        o.set("name", Json::Str(c.name.into()));
                        o.set("ok", Json::Bool(c.ok));
                        o.set("detail", Json::Str(c.detail.clone()));
                        o
                    })
                    .collect(),
            ),
        );
        doc.set("failed", Json::Num(failed as f64));
        print!("{}", doc.dump());
        eprintln!("\n{summary}");
    } else {
        println!("\n{summary}");
    }
    if let Err(e) = obs.finish() {
        eprintln!("validate: cannot write obs output: {e}");
        return ExitCode::FAILURE;
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
