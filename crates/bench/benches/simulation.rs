//! End-to-end simulation benchmarks: the full trace → lower → replay
//! pipeline on both machines, plus the lowering stage alone. These measure
//! simulated-events-per-second, the number that bounds how large a dataset
//! the harness can afford.

use omega_bench::microbench::{bench_pipeline, Criterion};

fn main() {
    let mut c = Criterion::new();
    bench_pipeline(&mut c, 20);
}
