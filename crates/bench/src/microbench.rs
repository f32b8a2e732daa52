//! A minimal, dependency-free micro-benchmark harness.
//!
//! The repository builds hermetically (no crates.io), so Criterion is
//! replaced by this small shim exposing the subset of its API the bench
//! targets use: `Criterion::bench_function`, benchmark groups,
//! `bench_with_input`, and `Bencher::iter`. Each benchmark is warmed up,
//! a batch size is calibrated so one batch carries measurable wall-clock
//! signal, and then [`Group::sample_size`] timed batches are recorded —
//! min / median / max ns-per-iter are printed per benchmark, and every
//! result is retained on the [`Criterion`] driver
//! ([`Criterion::take_results`]) so harnesses can emit machine-readable
//! snapshots (`BENCH_sim.json`).
//!
//! These numbers guard the simulator's own speed (the harness replays tens
//! of millions of events); they are indicative, not statistically rigorous.

use omega_core::config::SystemConfig;
use omega_core::layout::Layout;
use omega_core::lower::{lower, Target};
use omega_core::runner::{replay, trace_algorithm, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_ligra::algorithms::Algo;
use omega_ligra::ExecConfig;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of the optimisation barrier.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Minimum accumulated measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(200);
/// Hard cap on measured iterations (keeps slow end-to-end benches bounded).
const MAX_ITERS: u64 = 100_000;
/// Samples per benchmark unless [`Group::sample_size`] overrides it.
const DEFAULT_SAMPLES: usize = 10;

/// One benchmark's measured distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Full label (`group/name` for grouped benchmarks).
    pub name: String,
    /// Timed batches actually recorded (≤ the requested sample size when
    /// the iteration cap bites first).
    pub samples: usize,
    /// Total timed iterations across all samples and calibration batches.
    pub iters: u64,
    /// Fastest per-batch ns/iter observed.
    pub min_ns: f64,
    /// Median per-batch ns/iter.
    pub median_ns: f64,
    /// Slowest per-batch ns/iter observed.
    pub max_ns: f64,
    /// Time-weighted mean ns/iter (total elapsed / total iters).
    pub mean_ns: f64,
    /// Sample standard deviation of the per-batch ns/iter values (n−1
    /// denominator; 0 with fewer than two samples) — the run-to-run noise
    /// scale profile deltas should be judged against.
    pub stddev_ns: f64,
}

/// Top-level benchmark driver (API-compatible subset of Criterion's).
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Creates a driver.
    pub fn new() -> Self {
        Criterion::default()
    }

    /// Runs one named benchmark with the default sample size.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let r = run_one(name, DEFAULT_SAMPLES, &mut f);
        self.results.push(r);
    }

    /// Opens a named group; benchmarks print as `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group {
            name: name.to_string(),
            samples: DEFAULT_SAMPLES,
            criterion: self,
        }
    }

    /// Drains every result recorded so far, in execution order — the
    /// programmatic view behind `BENCH_sim.json`.
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }
}

/// A named group of benchmarks.
#[derive(Debug)]
pub struct Group<'a> {
    name: String,
    samples: usize,
    criterion: &'a mut Criterion,
}

impl Group<'_> {
    /// Sets how many timed batches each benchmark in this group records
    /// (clamped to at least 2 so a median and extremes exist).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let r = run_one(&format!("{}/{}", self.name, name), self.samples, &mut f);
        self.criterion.results.push(r);
        self
    }

    /// Runs one parameterised benchmark within the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let r = run_one(
            &format!("{}/{}", self.name, id.label),
            self.samples,
            &mut |b| f(b, input),
        );
        self.criterion.results.push(r);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A `name/parameter` benchmark label.
#[derive(Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds the `name/parameter` label.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the body.
#[derive(Debug)]
pub struct Bencher {
    /// ns/iter of each recorded batch.
    samples: Vec<f64>,
    elapsed: Duration,
    iters: u64,
    target_samples: usize,
}

impl Default for Bencher {
    fn default() -> Self {
        Bencher::with_samples(DEFAULT_SAMPLES)
    }
}

impl Bencher {
    fn with_samples(n: usize) -> Self {
        Bencher {
            samples: Vec::new(),
            elapsed: Duration::ZERO,
            iters: 0,
            target_samples: n.max(2),
        }
    }

    /// Measures `f`: one warm-up call, batch-size calibration by doubling,
    /// then `target_samples` timed batches, each recorded as one ns/iter
    /// sample. The total iteration budget is capped at `MAX_ITERS`.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        black_box(f()); // warm-up: touch caches, fault pages
        let n = self.target_samples as u64;
        let per_sample = TARGET / self.target_samples as u32;
        let batch_cap = (MAX_ITERS / n).max(1);

        // Calibrate: grow the batch until one batch spans a sample's share
        // of the time budget (or the per-sample iteration cap). The final
        // calibration batch is representative, so it counts as a sample.
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = start.elapsed();
            self.elapsed += dt;
            self.iters += batch;
            if dt >= per_sample || batch >= batch_cap {
                self.samples.push(dt.as_nanos() as f64 / batch as f64);
                break;
            }
            batch = (batch * 2).min(batch_cap);
        }

        // The remaining samples at the calibrated batch size.
        while self.samples.len() < self.target_samples && self.iters < MAX_ITERS {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = start.elapsed();
            self.elapsed += dt;
            self.iters += batch;
            self.samples.push(dt.as_nanos() as f64 / batch as f64);
        }
    }
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) -> BenchResult {
    let mut b = Bencher::with_samples(samples);
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<40} (no measurement)");
        return BenchResult {
            name: label.to_string(),
            samples: 0,
            iters: 0,
            min_ns: 0.0,
            median_ns: 0.0,
            max_ns: 0.0,
            mean_ns: 0.0,
            stddev_ns: 0.0,
        };
    }
    let mut sorted = b.samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    let mean = b.elapsed.as_nanos() as f64 / b.iters as f64;
    let stddev = if sorted.len() < 2 {
        0.0
    } else {
        let sample_mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let var = sorted
            .iter()
            .map(|x| (x - sample_mean) * (x - sample_mean))
            .sum::<f64>()
            / (sorted.len() - 1) as f64;
        var.sqrt()
    };
    println!(
        "{label:<40} min {min:>12.1}  med {median:>12.1}  max {max:>12.1}  sd {stddev:>10.1} ns/iter  ({} samples, {} iters)",
        sorted.len(),
        b.iters
    );
    BenchResult {
        name: label.to_string(),
        samples: sorted.len(),
        iters: b.iters,
        min_ns: min,
        median_ns: median,
        max_ns: max,
        mean_ns: mean,
        stddev_ns: stddev,
    }
}

/// The trace → lower → replay pipeline on PageRank-sd (tiny), as the
/// `pipeline/*` group: the bodies shared by `cargo bench --bench
/// simulation` and the `bench` snapshot, which differ only in
/// `sample_size`.
pub fn bench_pipeline(c: &mut Criterion, sample_size: usize) {
    let g = Dataset::Sd
        .build(DatasetScale::Tiny)
        .expect("registry datasets build");
    let algo = Algo::PageRank { iters: 1 };
    let mut grp = c.benchmark_group("pipeline");
    grp.sample_size(sample_size);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_and_counts() {
        let mut b = Bencher::default();
        let mut n = 0u64;
        b.iter(|| n += 1);
        assert!(b.iters > 0);
        assert_eq!(n, b.iters + 1); // +1 warm-up call
    }

    #[test]
    fn sample_size_is_respected() {
        // A body slow enough that the iteration cap cannot bite.
        for want in [2usize, 5, 9] {
            let mut b = Bencher::with_samples(want);
            b.iter(|| std::thread::sleep(Duration::from_micros(50)));
            assert_eq!(b.samples.len(), want, "want {want} samples");
        }
    }

    #[test]
    fn results_carry_ordered_extremes() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(4);
            g.bench_function("spin", |b| b.iter(|| black_box(17u64).wrapping_mul(31)));
            g.finish();
        }
        c.bench_function("top", |b| b.iter(|| black_box(1u64) + 1));
        let results = c.take_results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "g/spin");
        // A fast body may hit MAX_ITERS before all samples are recorded.
        assert!((2..=4).contains(&results[0].samples), "{:?}", results[0]);
        assert_eq!(results[1].name, "top");
        for r in &results {
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns, "{r:?}");
            assert!(r.iters > 0);
            // A sample stddev exists and is bounded by the observed range.
            assert!(
                r.stddev_ns >= 0.0 && r.stddev_ns <= r.max_ns - r.min_ns,
                "{r:?}"
            );
        }
        // Drained: a second take is empty.
        assert!(c.take_results().is_empty());
    }
}
