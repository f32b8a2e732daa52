//! Emits the machine-readable performance snapshot (`BENCH_sim.json`,
//! schema `omega-bench-report/v1`) CI records on every run.
//!
//! ```text
//! bench [--out PATH] [--tiny] [--skip-sweep] [--jobs N]
//!       [--profile] [--profile-out FILE] [--trace FILE]
//! ```
//!
//! Two kinds of measurement land in one report:
//!
//! * the micro-benchmark distributions of the trace → lower → replay
//!   pipeline (the same bodies as `cargo bench --bench simulation`, run
//!   through [`omega_bench::microbench`] so min/median/max are retained),
//! * the cold `figures all` sweep wall-clock at `jobs=1` and `jobs=4`
//!   (that many experiments replayed at once by the prefetch pool), next
//!   to the host's core count, so the speedup is recorded honestly next
//!   to the numbers it came from. `--skip-sweep` drops this (seconds vs minutes); `--tiny`
//!   shrinks the datasets for quick local runs.
//!
//! `stats bench-diff OLD NEW` compares two snapshots.

use omega_bench::bench_report::{bench_report_to_json, BenchReport, SweepMeasurement};
use omega_bench::microbench::{black_box, Criterion};
use omega_bench::session::{AlgoKey, MachineKind, Session};
use omega_bench::ObsOptions;
use omega_core::config::SystemConfig;
use omega_core::layout::Layout;
use omega_core::lower::{lower, Target};
use omega_core::runner::{replay, trace_algorithm, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_ligra::algorithms::Algo;
use omega_ligra::ExecConfig;
use std::time::Instant;

/// The figures sweep datasets (mirrors the `figures` binary's warm-up
/// work list so the sweep here measures the same cold cost).
const SWEEP: [Dataset; 9] = [
    Dataset::Sd,
    Dataset::Ap,
    Dataset::Rmat,
    Dataset::Orkut,
    Dataset::Wiki,
    Dataset::Lj,
    Dataset::Ic,
    Dataset::RoadPa,
    Dataset::RoadCa,
];

const SWEEP_ALGOS: [AlgoKey; 5] = [
    AlgoKey::PageRank,
    AlgoKey::Bfs,
    AlgoKey::Sssp,
    AlgoKey::Bc,
    AlgoKey::Radii,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut tiny = false;
    let mut skip_sweep = false;
    let mut sweep_jobs: Vec<usize> = vec![1, 4];
    let mut obs = ObsOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match obs.try_parse_flag(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => die(&e.to_string()),
        }
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(p),
                None => die("--out needs a path"),
            },
            "--tiny" => tiny = true,
            "--skip-sweep" => skip_sweep = true,
            "--jobs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => sweep_jobs = vec![1, n],
                _ => die("--jobs needs a positive integer"),
            },
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let scale = if tiny {
        DatasetScale::Tiny
    } else {
        DatasetScale::Small
    };
    obs.install();

    let mut report = BenchReport {
        benchmarks: micro_benchmarks(),
        sweeps: Vec::new(),
        nproc: std::thread::available_parallelism().ok().map(|n| n.get()),
    };

    if !skip_sweep {
        sweep_jobs.dedup();
        for jobs in sweep_jobs {
            let ms = figures_sweep_ms(scale, jobs);
            eprintln!(
                "[bench] figures_all_cold {} jobs={jobs}: {:.0} ms",
                scale_code(scale),
                ms
            );
            report.sweeps.push(SweepMeasurement {
                name: "figures_all_cold".to_string(),
                scale: scale_code(scale).to_string(),
                jobs,
                wall_ms: ms,
            });
        }
        if let Some(s) = report.sweep_speedup("figures_all_cold", 4) {
            eprintln!("[bench] parallel speedup at 4 jobs: {s:.2}x over serial");
        }
    }

    let text = format!("{}\n", bench_report_to_json(&report).dump());
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                die(&format!("cannot write {path}: {e}"));
            }
            eprintln!("[bench] wrote {path}");
        }
        None => print!("{text}"),
    }
    if let Err(e) = obs.finish() {
        die(&format!("cannot write obs output: {e}"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    std::process::exit(2);
}

fn scale_code(scale: DatasetScale) -> &'static str {
    match scale {
        DatasetScale::Tiny => "tiny",
        DatasetScale::Small => "small",
        DatasetScale::Medium => "medium",
    }
}

/// The pipeline micro-benchmarks (same bodies as `benches/simulation.rs`).
fn micro_benchmarks() -> Vec<omega_bench::microbench::BenchResult> {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let mut c = Criterion::new();
    let mut grp = c.benchmark_group("pipeline");
    grp.sample_size(10);
    grp.bench_function("trace_collect", |b| {
        b.iter(|| black_box(trace_algorithm(&g, algo, &ExecConfig::default())))
    });
    let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
    grp.bench_function("lower_baseline", |b| {
        let layout = Layout::new(&meta);
        b.iter(|| black_box(lower(&raw, &layout, Target::Baseline)))
    });
    grp.bench_function("replay_baseline", |b| {
        let sys = SystemConfig::mini_baseline();
        b.iter(|| black_box(replay(algo.name(), checksum, &raw, &meta, &sys, None)))
    });
    grp.bench_function("replay_omega", |b| {
        let sys = SystemConfig::mini_omega();
        b.iter(|| black_box(replay(algo.name(), checksum, &raw, &meta, &sys, None)))
    });
    grp.bench_function("end_to_end_omega", |b| {
        b.iter(|| black_box(Runner::new(SystemConfig::mini_omega()).run(&g, algo)))
    });
    grp.finish();
    c.take_results()
}

/// Wall-clock of the cold `figures all` simulation sweep (the same work
/// list the `figures` binary prefetches) on a fresh store-less session
/// capped at `jobs` worker threads.
fn figures_sweep_ms(scale: DatasetScale, jobs: usize) -> f64 {
    let mut session = Session::new(scale).verbose(false).jobs(jobs);
    let mut work = Vec::new();
    for d in SWEEP {
        for a in SWEEP_ALGOS {
            for m in [MachineKind::Baseline, MachineKind::Omega] {
                work.push((d, a, m));
            }
        }
    }
    for a in [AlgoKey::Cc, AlgoKey::Tc] {
        for m in [MachineKind::Baseline, MachineKind::Omega] {
            work.push((Dataset::Ap, a, m));
        }
    }
    let supported: Vec<_> = work
        .into_iter()
        .filter(|&(d, a, _)| session.supports((d, a)))
        .collect();
    // Graphs are built before timing starts: the sweep measures tracing and
    // replay, not dataset synthesis.
    for &(d, _, _) in &supported {
        session.graph(d);
    }
    let start = Instant::now();
    session.prefetch(&supported);
    start.elapsed().as_secs_f64() * 1e3
}
