//! End-to-end simulation benchmarks: the full trace → lower → replay
//! pipeline on both machines, plus the lowering stage alone. These measure
//! simulated-events-per-second, the number that bounds how large a dataset
//! the harness can afford.

use omega_bench::microbench::{black_box, Criterion};
use omega_core::config::SystemConfig;
use omega_core::layout::Layout;
use omega_core::lower::{lower, Target};
use omega_core::runner::{replay, trace_algorithm, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_ligra::algorithms::Algo;
use omega_ligra::ExecConfig;

fn bench_pipeline(c: &mut Criterion) {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let mut grp = c.benchmark_group("pipeline");
    grp.sample_size(20);
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
}

fn main() {
    let mut c = Criterion::new();
    bench_pipeline(&mut c);
}
