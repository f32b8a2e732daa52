//! `sweep-natural`: repeated cold `Session::prefetch` sweeps with no
//! store, each verified.

use crate::host::cpu_seconds;
use crate::hostspeed::Sampler;
use crate::spans::Span;
use crate::stats::median;
use crate::verify;
use crate::workload::{machine_kinds, Interval, Outcome, Params, Timed, Workload};
use omega_bench::session::{trace_groups, AlgoKey, ExperimentSpec, Session};
use omega_core::runner::RunReport;
use omega_graph::rng::SmallRng;
use std::time::Instant;

/// The algorithms a sweep covers, heaviest first.
const ALGOS: [AlgoKey; 3] = [AlgoKey::PageRank, AlgoKey::Sssp, AlgoKey::Bfs];

/// Every spec of one sweep. Trace groups keep a fixed largest-first
/// order, so how the groups pack onto the worker threads does not depend
/// on the seed; the seed shuffles the machines inside each group.
pub fn specs(workload: Workload, seed: u64) -> Vec<ExperimentSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &d in workload.datasets() {
        for a in ALGOS {
            let mut kinds = machine_kinds();
            shuffle(&mut kinds, &mut rng);
            out.extend(kinds.into_iter().map(|m| ExperimentSpec::new(d, a, m)));
        }
    }
    out
}

/// Fisher–Yates with the workspace's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// One set-up: a fresh session with every graph of the sweep built, and
/// its time with the speed factor of its own window.
fn setup(p: &Params, sampler: &Sampler, parent: &Span) -> (Session, Timed) {
    let span = parent.child("setup");
    let t = Instant::now();
    let mut session = Session::new(p.scale).verbose(false).jobs(p.jobs);
    for &d in p.workload.datasets() {
        let _build = span.child(format!("graph.build:{}", d.code()));
        session.graph(d);
    }
    let timed = Timed {
        clock: t.elapsed().as_secs_f64(),
        factor: sampler.factor(t, Instant::now()),
    };
    (session, timed)
}

/// Set-ups made before the first measured sweep, so the reported median
/// is not the process's first, coldest set-up.
const EXTRA_SETUPS: usize = 2;

/// Runs whole sweeps until `p.seconds` of sweeping have been measured.
/// Each sweep and each set-up is normalised by the host speed factor of
/// its own window.
pub fn run(p: &Params, parent: &Span) -> Outcome {
    let specs = specs(p.workload, p.seed);
    let mut out = Outcome::default();
    let sampler = Sampler::start();
    for _ in 0..EXTRA_SETUPS {
        out.setup_s.push(setup(p, &sampler, parent).1);
    }
    let measure = parent.child("measure");
    let mut first: Vec<RunReport> = Vec::new();
    let mut last_session = None;
    let (mut prefetch_s, mut parallel_eff) = (Vec::new(), Vec::new());
    let mut sweep = 0u64;
    while out.raw_wall_s < p.seconds {
        let (mut session, setup_s) = setup(p, &sampler, &measure);
        out.setup_s.push(setup_s);
        let span = measure.request("session.prefetch", sweep + 1);
        crate::alloc::reset_peak();
        let (c0, t0) = (cpu_seconds(), Instant::now());
        session.prefetch(&specs);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        drop(span);
        let f = sampler.factor(t0, Instant::now());
        out.speed_factors.push(f);
        out.raw_wall_s += wall;
        out.latencies_ms.push(Timed {
            clock: wall * 1e3,
            factor: f,
        });
        prefetch_s.push(wall / f);
        parallel_eff.push(cpu / (wall * p.jobs as f64));
        out.attempted += specs.len() as u64;
        out.intervals.push(Interval::measured(
            specs.len() as f64,
            wall,
            cpu,
            f,
            crate::alloc::peak_bytes(),
        ));
        // Deterministic simulation: every later sweep must reproduce the
        // first one's reports exactly.
        let reports: Vec<RunReport> = specs.iter().map(|&s| session.report(s).clone()).collect();
        if first.is_empty() {
            first = reports;
        } else {
            for (i, (a, b)) in first.iter().zip(&reports).enumerate() {
                if a != b {
                    out.failed += 1;
                    out.problem(format!("{} differs between sweeps", specs[i].label()));
                }
            }
        }
        last_session = Some(session);
        sweep += 1;
    }
    drop(measure);
    if let Some(mut session) = last_session {
        let bad = check_oracles(&specs, &first, &mut session, p.jobs, &mut out);
        out.failed += bad * sweep;
    }
    out.layer
        .push(("session.prefetch_s".into(), median(&prefetch_s)));
    out.layer
        .push(("session.parallel_eff".into(), median(&parallel_eff)));
    out
}

/// Checks one sweep's reports against the oracles: within a trace group
/// every machine reports the same checksum, PageRank matches the native
/// run within [`verify::PAGERANK_REL_TOL`] and SSSP matches it exactly.
/// Returns how many reports failed.
fn check_oracles(
    specs: &[ExperimentSpec],
    reports: &[RunReport],
    session: &mut Session,
    threads: usize,
    out: &mut Outcome,
) -> u64 {
    let mut bad = 0;
    for group in trace_groups(specs.iter().copied()) {
        let g = session.graph(group.dataset);
        let reference = verify::native_checksum(g, group.algo, threads);
        let checksum_of = |spec: ExperimentSpec| {
            let i = specs
                .iter()
                .position(|&s| s == spec)
                .expect("spec is in the sweep");
            reports[i].checksum
        };
        let (want, tol) = reference.unwrap_or_else(|| {
            (
                checksum_of(group.specs().next().expect("groups are non-empty")),
                0.0,
            )
        });
        for spec in group.specs() {
            let got = checksum_of(spec);
            if !verify::checksum_matches(got, want, tol) {
                bad += 1;
                out.problem(format!("{}: checksum {got} != oracle {want}", spec.label()));
            }
        }
    }
    bad
}
