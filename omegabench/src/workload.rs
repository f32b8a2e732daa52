//! The three workloads, their parameters, and what a measured phase
//! returns.

use omega_bench::session::MachineKind;
use omega_graph::datasets::{Dataset, DatasetScale};

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold small-scale `Session::prefetch` sweep over power-law graphs.
    SweepNatural,
    /// `omega-serve` answering a Zipf stream from its memo and store.
    ServeWarm,
    /// `omega-serve` computing distinct specs against an empty store.
    ServeCold,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepNatural,
        Workload::ServeWarm,
        Workload::ServeCold,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepNatural => "sweep-natural",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset scale the workload runs at.
    pub fn scale(self) -> DatasetScale {
        match self {
            Workload::SweepNatural => DatasetScale::Small,
            Workload::ServeWarm | Workload::ServeCold => DatasetScale::Tiny,
        }
    }

    /// The graphs the workload touches. Sweep datasets are listed
    /// largest first: the sweep's trace groups run in this order.
    pub fn datasets(self) -> &'static [Dataset] {
        match self {
            Workload::SweepNatural => &[Dataset::Lj, Dataset::Rmat, Dataset::Sd],
            Workload::ServeWarm | Workload::ServeCold => &Dataset::ALL,
        }
    }

    /// The graph the per-layer ledger and the deterministic counts use:
    /// a power-law graph, except on `serve-cold`, whose ledger covers the
    /// road-network class with `USA`.
    pub fn probe_dataset(self) -> Dataset {
        match self {
            Workload::ServeCold => Dataset::Usa,
            _ => Dataset::Lj,
        }
    }
}

/// The ten machine kinds every sweep and probe covers: the nine named
/// kinds plus the half-size-scratchpad OMEGA of the Fig. 19 sweep.
pub fn machine_kinds() -> Vec<MachineKind> {
    let mut kinds = MachineKind::NAMED.to_vec();
    kinds.push(MachineKind::OmegaScaledSp { permille: 500 });
    kinds
}

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed for request and spec order.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Dataset scale: the workload's own, or `tiny` in the tests.
    pub scale: DatasetScale,
    /// Worker-thread budget handed to the system.
    pub jobs: usize,
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<Timed>,
    /// Operations attempted in the measured phase (a sweep result or a
    /// served request).
    pub attempted: u64,
    /// Attempted operations that errored, were refused, or failed
    /// verification.
    pub failed: u64,
    /// Wall seconds of the measured phase as the clock read it.
    pub raw_wall_s: f64,
    /// One latency sample per request (per whole sweep on the sweeps), ms;
    /// a failed request enters as infinity.
    pub latencies_ms: Vec<Timed>,
    /// The speed factor of every measured interval.
    pub speed_factors: Vec<f64>,
    /// The measured phase cut into intervals (whole sweeps, `serve-warm`
    /// slices, `serve-cold` passes); throughput, CPU per result and peak
    /// heap are their medians.
    pub intervals: Vec<Interval>,
    /// What failed verification, for the log.
    pub problems: Vec<String>,
    /// Workload-specific per-layer metrics, by name.
    pub layer: Vec<(String, f64)>,
}

/// A time as the clock read it, with the host speed factor of the window
/// it was read in (see [`crate::hostspeed`]).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Clock time.
    pub clock: f64,
    /// Speed factor of its window.
    pub factor: f64,
}

impl Timed {
    /// The time in reference-host units, or as the clock read it.
    pub fn get(self, normalised: bool) -> f64 {
        if normalised {
            self.clock / self.factor
        } else {
            self.clock
        }
    }
}

/// One measured interval, both as the clock read it and normalised.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    /// Verified results.
    pub results: f64,
    /// Wall seconds by the clock.
    pub clock_wall_s: f64,
    /// Process CPU seconds by the clock.
    pub clock_cpu_s: f64,
    /// Wall seconds in reference-host units.
    pub wall_s: f64,
    /// Process CPU seconds in reference-host units.
    pub cpu_s: f64,
    /// Peak live heap during the interval, bytes.
    pub peak_heap: usize,
}

impl Interval {
    /// One interval whose window had speed factor `factor`.
    pub fn measured(results: f64, wall_s: f64, cpu_s: f64, factor: f64, peak_heap: usize) -> Self {
        Interval {
            results,
            clock_wall_s: wall_s,
            clock_cpu_s: cpu_s,
            wall_s: wall_s / factor,
            cpu_s: cpu_s / factor,
            peak_heap,
        }
    }

    /// `(wall, cpu)` seconds, normalised or by the clock.
    pub fn times(&self, normalised: bool) -> (f64, f64) {
        if normalised {
            (self.wall_s, self.cpu_s)
        } else {
            (self.clock_wall_s, self.clock_cpu_s)
        }
    }

    /// Adds another interval's totals to this one.
    pub fn add(&mut self, other: Interval) {
        self.results += other.results;
        self.clock_wall_s += other.clock_wall_s;
        self.clock_cpu_s += other.clock_cpu_s;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.peak_heap = self.peak_heap.max(other.peak_heap);
    }
}

impl Outcome {
    /// Notes a verification failure (the log keeps the first few).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}
