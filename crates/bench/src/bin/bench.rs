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
//! * the cold wall-clock of the paper sweep ([`omega_bench::paper_sweep`],
//!   the runs fig. 14 reads) at `jobs=1` and `jobs=4` (that many
//!   experiments replayed at once by the prefetch pool), next to the
//!   host's core count, so the speedup is recorded honestly next to the
//!   numbers it came from. `--skip-sweep` drops this (seconds vs minutes);
//!   `--tiny` shrinks the datasets for quick local runs.
//!
//! `stats bench-diff OLD NEW` compares two snapshots.

use omega_bench::bench_report::{bench_report_to_json, BenchReport, SweepMeasurement};
use omega_bench::microbench::{bench_pipeline, Criterion};
use omega_bench::{paper_sweep, ObsOptions, Session};
use omega_graph::datasets::DatasetScale;
use std::time::Instant;

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

    let mut c = Criterion::new();
    bench_pipeline(&mut c, 10);
    let mut report = BenchReport {
        benchmarks: c.take_results(),
        sweeps: Vec::new(),
        nproc: std::thread::available_parallelism().ok().map(|n| n.get()),
    };

    if !skip_sweep {
        sweep_jobs.dedup();
        for jobs in sweep_jobs {
            let ms = figures_sweep_ms(scale, jobs);
            eprintln!(
                "[bench] figures_all_cold {} jobs={jobs}: {ms:.0} ms",
                scale.code()
            );
            report.sweeps.push(SweepMeasurement {
                name: "figures_all_cold".to_string(),
                scale: scale.code().to_string(),
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

/// Wall-clock of the cold paper sweep on a fresh store-less session capped
/// at `jobs` worker threads.
fn figures_sweep_ms(scale: DatasetScale, jobs: usize) -> f64 {
    let mut session = Session::new(scale).verbose(false).jobs(jobs);
    // The support checks build every graph, so the timed region holds
    // tracing and replay, not dataset synthesis.
    let work = paper_sweep(&mut session);
    let start = Instant::now();
    session.prefetch(&work);
    start.elapsed().as_secs_f64() * 1e3
}
