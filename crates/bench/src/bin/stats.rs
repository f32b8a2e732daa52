//! `stats` — dump one run as a machine-readable JSON report, or diff two
//! previously dumped reports.
//!
//! ```text
//! # Run PageRank on the baseline with telemetry and write the report:
//! cargo run --release -p omega-bench --bin stats -- dump --out base.json
//!
//! # Same workload on OMEGA:
//! cargo run --release -p omega-bench --bin stats -- \
//!     dump --machine omega --out omega.json
//!
//! # Compare every scalar metric of the two runs:
//! cargo run --release -p omega-bench --bin stats -- diff base.json omega.json
//! ```
//!
//! `dump` enables telemetry (cycle-windowed sampling + latency histograms)
//! for its single run and emits the `omega-run-report/v1` schema; `diff`
//! flattens the scalar numbers of both documents and tabulates them side by
//! side with relative change.
//!
//! With `--store PATH`, `dump` consults a persistent content-addressed
//! experiment store before simulating and persists fresh results into it;
//! the emitted document then carries a `store` object with this run's
//! hit/miss counters. `stats store ls|verify|gc PATH` inspects and repairs
//! such a store.

use omega_bench::json::{flatten_numbers, Json};
use omega_bench::report_json::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_bench::table::Table;
use omega_bench::{check_chrome_trace, ExperimentStore, ObsOptions};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_sim::telemetry::TelemetryConfig;
use std::process::ExitCode;

const USAGE: &str = "usage:
  stats dump [--dataset CODE] [--algo NAME] [--machine KIND] \
[--scale tiny|small|medium] [--window N] [--store PATH] [--out PATH] \
[--profile] [--profile-out FILE] [--trace FILE]
  stats diff A.json B.json
  stats bench-diff OLD.json NEW.json [--fail-on-regress PCT]
                           compare two BENCH_sim.json snapshots; with
                           --fail-on-regress, exit 1 when any matched sweep
                           regresses by more than PCT percent
  stats trace-check FILE   validate a Chrome Trace Event file (--trace output)
  stats store ls PATH      list every entry of a persistent store
  stats store verify PATH  check fingerprints + checksums (JSON to stdout)
  stats store gc PATH      drop corrupt entries and leftover temp files

dump defaults: --dataset sd --algo pagerank --machine baseline \
--scale tiny --window 65536 (stdout)
dump --store reuses/persists the run in a content-addressed store
dump --profile/--profile-out/--trace enable host self-profiling (stderr/files)
machines: baseline, omega, omega-nopisc, omega-nosvb, omega-chunkmis, \
omega-offchip, locked-cache, omega-spNNN
algos: pagerank, bfs, sssp, bc, radii, cc, tc, kcore";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("stats: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn dump(args: &[String]) -> ExitCode {
    let mut dataset = Dataset::Sd;
    let mut algo = AlgoKey::PageRank;
    let mut machine = MachineKind::Baseline;
    let mut scale = DatasetScale::Tiny;
    let mut window = TelemetryConfig::DEFAULT_WINDOW;
    let mut out: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut obs = ObsOptions::default();
    let mut it = args.iter().cloned();
    while let Some(flag) = it.next() {
        match obs.try_parse_flag(&flag, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage_error(&e.to_string()),
        }
        let Some(value) = it.next() else {
            return usage_error(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--dataset" => match value.parse::<Dataset>() {
                Ok(d) => dataset = d,
                Err(e) => return usage_error(&e.to_string()),
            },
            "--algo" => match value.parse::<AlgoKey>() {
                Ok(a) => algo = a,
                Err(e) => return usage_error(&e.to_string()),
            },
            "--machine" => match value.parse::<MachineKind>() {
                Ok(m) => machine = m,
                Err(e) => return usage_error(&e.to_string()),
            },
            "--scale" => match value.parse::<DatasetScale>() {
                Ok(s) => scale = s,
                Err(e) => return usage_error(&e.to_string()),
            },
            "--window" => match value.parse::<u64>() {
                Ok(n) if n > 0 => window = n,
                _ => return usage_error(&format!("bad window {value:?}")),
            },
            "--out" => out = Some(value.clone()),
            "--store" => store_path = Some(value.clone()),
            _ => return usage_error(&format!("unknown flag {flag:?}")),
        }
    }
    obs.install();
    let mut session = Session::new(scale)
        .verbose(false)
        .telemetry(TelemetryConfig::windowed(window));
    if let Some(path) = &store_path {
        session = match session.with_store(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("stats: cannot open store {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if !session.supports((dataset, algo)) {
        return usage_error(&format!(
            "{} needs a symmetric graph; {} is directed",
            algo.name(),
            dataset.code()
        ));
    }
    let report = session
        .report(ExperimentSpec::new(dataset, algo, machine))
        .clone();
    let mut system = machine.system();
    system.machine.telemetry = session.telemetry_config();
    let mut doc = run_report_to_json(&report, &system);
    doc.set("dataset", Json::Str(dataset.code().into()));
    if let Some(store) = session.store() {
        doc.set("store", store_counters_json(store));
    }
    let text = doc.dump();
    let code = match out {
        None => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Some(path) => match std::fs::write(&path, &text) {
            Ok(()) => {
                eprintln!(
                    "wrote {path}: {} on {} ({}), {} cycles",
                    report.algo,
                    dataset.code(),
                    report.machine,
                    report.total_cycles
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("stats: cannot write {path}: {e}");
                ExitCode::FAILURE
            }
        },
    };
    if let Err(e) = obs.finish() {
        eprintln!("stats: cannot write obs output: {e}");
        return ExitCode::FAILURE;
    }
    code
}

/// The store's hit/miss counters as a JSON object, embedded in dump
/// documents so warm-cache runs are distinguishable from cold ones.
fn store_counters_json(store: &ExperimentStore) -> Json {
    let c = store.counters();
    let mut o = Json::obj();
    o.set("hits", Json::Num(c.hits as f64));
    o.set("misses", Json::Num(c.misses as f64));
    o.set("corrupt", Json::Num(c.corrupt as f64));
    o.set("writes", Json::Num(c.writes as f64));
    o
}

/// `stats store ls|verify|gc PATH` — maintenance surface of the
/// persistent experiment store.
fn store_cmd(args: &[String]) -> ExitCode {
    let (action, path) = match args {
        [a, p] => (a.as_str(), p.as_str()),
        _ => return usage_error("store takes an action (ls|verify|gc) and a path"),
    };
    let store = match ExperimentStore::open(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stats: cannot open store {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match action {
        "ls" => {
            let entries = match store.entries() {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("stats: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut t = Table::new(["fingerprint", "kind", "label", "bytes"]);
            let mut total = 0u64;
            for e in &entries {
                total += e.bytes;
                t.row([
                    format!("{:016x}", e.fingerprint),
                    e.kind.clone(),
                    e.label.clone(),
                    e.bytes.to_string(),
                ]);
            }
            println!("{t}");
            println!("{} entries, {total} bytes", entries.len());
            ExitCode::SUCCESS
        }
        "verify" => {
            // Machine-readable: CI uploads this document as an artifact.
            let outcome = match store.verify() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("stats: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut doc = Json::obj();
            doc.set("schema", Json::Str("omega-store-verify/v1".into()));
            doc.set("root", Json::Str(store.root().display().to_string()));
            doc.set("ok", Json::Num(outcome.ok as f64));
            doc.set(
                "corrupt",
                Json::Arr(
                    outcome
                        .corrupt
                        .iter()
                        .map(|p| Json::Str(p.display().to_string()))
                        .collect(),
                ),
            );
            println!("{}", doc.dump());
            if outcome.corrupt.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "gc" => {
            let outcome = match store.gc() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("stats: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for p in &outcome.removed {
                eprintln!("removed {}", p.display());
            }
            println!(
                "kept {} entries, removed {} files",
                outcome.kept,
                outcome.removed.len()
            );
            ExitCode::SUCCESS
        }
        other => usage_error(&format!("unknown store action {other:?}")),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn diff(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (label, doc) in [(path_a, &a), (path_b, &b)] {
        if doc.get("schema").and_then(Json::as_str)
            != Some(omega_bench::report_json::RUN_REPORT_SCHEMA)
        {
            eprintln!("stats: {label} is not an omega-run-report/v1 document");
            return ExitCode::FAILURE;
        }
    }
    let flat_a = flatten_numbers(&a);
    let flat_b = flatten_numbers(&b);
    let lookup_b: std::collections::HashMap<&str, f64> =
        flat_b.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    println!(
        "A: {} / {} ({})",
        a.get("algo").and_then(Json::as_str).unwrap_or("?"),
        a.get("dataset").and_then(Json::as_str).unwrap_or("?"),
        a.get("machine").and_then(Json::as_str).unwrap_or("?"),
    );
    println!(
        "B: {} / {} ({})\n",
        b.get("algo").and_then(Json::as_str).unwrap_or("?"),
        b.get("dataset").and_then(Json::as_str).unwrap_or("?"),
        b.get("machine").and_then(Json::as_str).unwrap_or("?"),
    );
    let mut table = Table::new(vec!["metric", "A", "B", "Δ%"]);
    // Document order of A, then any metrics only B has.
    let mut seen = std::collections::HashSet::new();
    for (key, va) in &flat_a {
        seen.insert(key.as_str());
        match lookup_b.get(key.as_str()) {
            Some(&vb) => {
                let delta = if *va == 0.0 {
                    if vb == 0.0 {
                        "0.0".into()
                    } else {
                        "∞".into()
                    }
                } else {
                    format!("{:+.1}", (vb - va) / va * 100.0)
                };
                table.row(vec![key.clone(), fmt(*va), fmt(vb), delta]);
            }
            None => {
                table.row(vec![key.clone(), fmt(*va), "—".into(), "—".into()]);
            }
        }
    }
    for (key, vb) in &flat_b {
        if !seen.contains(key.as_str()) {
            table.row(vec![key.clone(), "—".into(), fmt(*vb), "—".into()]);
        }
    }
    println!("{table}");
    ExitCode::SUCCESS
}

/// `stats bench-diff OLD NEW [--fail-on-regress PCT]` — the CI
/// perf-trajectory step: tabulate per-benchmark median and per-sweep
/// wall-clock deltas between two `omega-bench-report/v1` snapshots.
/// Informational by default; with `--fail-on-regress PCT`, any matched
/// end-to-end sweep that slowed down by more than PCT percent fails the
/// command (median micro-benchmarks stay informational — their noise is
/// reported in the table's ±2σ column instead).
fn bench_diff(args: &[String]) -> ExitCode {
    use omega_bench::bench_report::{bench_delta_table, bench_report_from_json};
    use omega_bench::sweep_regressions;
    let mut paths: Vec<&str> = Vec::new();
    let mut fail_on: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fail-on-regress" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => fail_on = Some(pct),
                _ => return usage_error("--fail-on-regress needs a positive percentage"),
            },
            other if other.starts_with("--") => {
                return usage_error(&format!("unknown flag {other:?}"))
            }
            other => paths.push(other),
        }
    }
    let [path_old, path_new] = paths[..] else {
        return usage_error("bench-diff takes exactly two snapshot paths");
    };
    let parse = |path: &str| {
        load(path).and_then(|j| bench_report_from_json(&j).map_err(|e| format!("{path}: {e}")))
    };
    let (old, new) = match (parse(path_old), parse(path_new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = |r: &omega_bench::BenchReport| r.nproc.map_or("unknown".into(), |n| n.to_string());
    println!("perf trajectory: {path_old} -> {path_new}");
    println!("host nproc: {} -> {}\n", nproc(&old), nproc(&new));
    println!("{}", bench_delta_table(&old, &new).render());
    if let Some(s) = new.sweep_speedup("figures_all_cold", 4) {
        println!("parallel sweep speedup at 4 jobs (new snapshot): {s:.2}x");
    }
    if let Some(threshold) = fail_on {
        let regressions = sweep_regressions(&old, &new, threshold);
        if !regressions.is_empty() {
            for (label, old_ms, new_ms, pct) in &regressions {
                eprintln!(
                    "stats: REGRESSION {label}: {old_ms:.1} ms -> {new_ms:.1} ms (+{pct:.1}%, \
                     threshold {threshold}%)"
                );
            }
            return ExitCode::FAILURE;
        }
        println!("no sweep regression beyond {threshold}%");
    }
    ExitCode::SUCCESS
}

/// `stats trace-check FILE` — validate a Chrome Trace Event document
/// produced by `--trace`: well-formed JSON, a `traceEvents` array whose
/// complete events carry finite ts/dur/pid/tid, and no span left open.
/// CI runs this against the sample trace artifact.
fn trace_check(path: &str) -> ExitCode {
    let doc = match load(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stats: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_chrome_trace(&doc) {
        Ok(stats) => {
            println!(
                "{path}: ok — {} events ({} host spans, {} sim intervals)",
                stats.events, stats.host_spans, stats.sim_intervals
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stats: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("dump") => dump(&args[1..]),
        Some("diff") if args.len() == 3 => diff(&args[1], &args[2]),
        Some("diff") => usage_error("diff takes exactly two report paths"),
        Some("bench-diff") => bench_diff(&args[1..]),
        Some("trace-check") if args.len() == 2 => trace_check(&args[1]),
        Some("trace-check") => usage_error("trace-check takes exactly one trace path"),
        Some("store") => store_cmd(&args[1..]),
        _ => usage_error("expected a subcommand"),
    }
}
