//! Memoising experiment runner shared by all figures.

use crate::store::ExperimentStore;
use omega_core::config::{OffchipExtensions, OmegaConfig, SystemConfig};
use omega_core::runner::{replay, trace_algorithm, RunReport, Runner};
use omega_core::OmegaError;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::CsrGraph;
use omega_ligra::algorithms::Algo;
use omega_ligra::ExecConfig;
use omega_sim::obs;
use omega_sim::telemetry::TelemetryConfig;
use omega_sim::MachineConfig;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which machine a run executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// The baseline CMP.
    Baseline,
    /// The standard OMEGA machine.
    Omega,
    /// OMEGA with the scratchpad scaled to `permille/1000` of its standard
    /// size (Fig. 19 sensitivity sweep).
    OmegaScaledSp {
        /// Scratchpad size in permille of the standard size.
        permille: u32,
    },
    /// OMEGA without PISC engines (§X.A "using scratchpads as storage").
    OmegaNoPisc,
    /// OMEGA without the source-vertex buffer (§V.C ablation).
    OmegaNoSvb,
    /// OMEGA whose scratchpad mapping chunk mismatches the framework's
    /// scheduling chunk (Fig. 12 ablation).
    OmegaChunkMismatch,
    /// OMEGA plus the paper's §IX off-chip future-work extensions
    /// (word-granularity DRAM, PIM offload, hybrid page policy).
    OmegaOffchip,
    /// The §IX locked-cache alternative: hot vtxProp lines pinned in a
    /// full-size L2, no scratchpads, no PISCs.
    LockedCache,
    /// The PIM-rank rival: a plain full-size-L2 hierarchy whose monitored
    /// vertex-update atomics execute at the DRAM rank (per-rank compute
    /// engines), trading NoC round trips for rank-level parallelism. No
    /// scratchpad.
    PimRank,
    /// The GRASP-style domain-specialized cache rival: a plain hierarchy
    /// whose insertion/protection policy pins the hottest vertices'
    /// property lines in the L2. No scratchpad.
    SpecializedCache,
}

impl MachineKind {
    /// Smallest scratchpad the OMEGA machine accepts, in bytes per core
    /// (one cache line's worth of vertex properties).
    pub const MIN_SP_BYTES: u64 = 64;

    /// The nine fixed machine kinds, in figure order — everything except
    /// the parameterised [`MachineKind::OmegaScaledSp`], whose labels
    /// (`omega-spNNN`) form an open family parsed by
    /// [`MachineKind::from_name`].
    pub const NAMED: [MachineKind; 9] = [
        MachineKind::Baseline,
        MachineKind::Omega,
        MachineKind::OmegaNoPisc,
        MachineKind::OmegaNoSvb,
        MachineKind::OmegaChunkMismatch,
        MachineKind::OmegaOffchip,
        MachineKind::LockedCache,
        MachineKind::PimRank,
        MachineKind::SpecializedCache,
    ];

    /// Checked constructor for [`MachineKind::OmegaScaledSp`], applying
    /// the Fig. 19 scratchpad scale to `base`. Rejects a permille whose
    /// scaled scratchpad would fall below [`MachineKind::MIN_SP_BYTES`]
    /// (instead of silently simulating a larger machine than the label
    /// claims), and rejects scaling on a machine with no scratchpad —
    /// previously `with_scratchpad_bytes` would silently ignore the scale
    /// and simulate the unscaled machine under the scaled label.
    pub fn scaled_sp(base: MachineKind, permille: u32) -> Result<MachineKind, OmegaError> {
        let Some(omega) = base.system().omega() else {
            return Err(OmegaError::InvalidConfig(format!(
                "machine '{}' has no scratchpad to scale",
                base.label()
            )));
        };
        let standard = omega.sp_bytes_per_core;
        let sp = standard * permille as u64 / 1000;
        if sp < Self::MIN_SP_BYTES {
            return Err(OmegaError::InvalidConfig(format!(
                "scratchpad scale {permille}‰ of {standard} B yields {sp} B/core, \
                 below the {} B minimum",
                Self::MIN_SP_BYTES
            )));
        }
        match base {
            MachineKind::Omega | MachineKind::OmegaScaledSp { .. } => {
                Ok(MachineKind::OmegaScaledSp { permille })
            }
            _ => Err(OmegaError::InvalidConfig(format!(
                "the Fig. 19 scratchpad sweep is only modelled on the standard \
                 omega machine, not '{}'",
                base.label()
            ))),
        }
    }

    /// Looks a machine up by its [`MachineKind::label`] (case-insensitive).
    /// `omega-spNNN` labels go through the [`MachineKind::scaled_sp`]
    /// validation, so an undersized scale is an [`OmegaError::InvalidConfig`]
    /// rather than an unknown name.
    pub fn from_name(name: &str) -> Result<MachineKind, OmegaError> {
        if let Some(m) = MachineKind::NAMED
            .iter()
            .copied()
            .find(|m| m.label().eq_ignore_ascii_case(name))
        {
            return Ok(m);
        }
        let lower = name.to_ascii_lowercase();
        if let Some(digits) = lower.strip_prefix("omega-sp") {
            let permille: u32 = digits
                .parse()
                .map_err(|_| OmegaError::unknown_name("machine", name, Self::expected_names()))?;
            return MachineKind::scaled_sp(MachineKind::Omega, permille);
        }
        Err(OmegaError::unknown_name(
            "machine",
            name,
            Self::expected_names(),
        ))
    }

    fn expected_names() -> String {
        let labels: Vec<String> = MachineKind::NAMED.iter().map(|m| m.label()).collect();
        format!("{}, omega-spNNN", labels.join(", "))
    }

    /// Builds the corresponding system configuration at mini scale.
    ///
    /// # Panics
    ///
    /// Panics for an [`MachineKind::OmegaScaledSp`] whose scaled scratchpad
    /// falls below [`MachineKind::MIN_SP_BYTES`] — use
    /// [`MachineKind::scaled_sp`] to construct validated instances. (An
    /// earlier version silently clamped the size upward, which simulated a
    /// different machine than the label claimed.)
    pub fn system(self) -> SystemConfig {
        match self {
            MachineKind::Baseline => SystemConfig::mini_baseline(),
            MachineKind::Omega => SystemConfig::mini_omega(),
            MachineKind::OmegaScaledSp { permille } => {
                let sp = OmegaConfig::default().sp_bytes_per_core * permille as u64 / 1000;
                assert!(
                    sp >= Self::MIN_SP_BYTES,
                    "OmegaScaledSp {{ permille: {permille} }} yields a {sp} B/core \
                     scratchpad, below the {} B minimum; \
                     use MachineKind::scaled_sp to validate",
                    Self::MIN_SP_BYTES
                );
                mini_omega(OmegaConfig {
                    sp_bytes_per_core: sp,
                    ..OmegaConfig::default()
                })
            }
            MachineKind::OmegaNoPisc => mini_omega(OmegaConfig {
                pisc_enabled: false,
                ..OmegaConfig::default()
            }),
            MachineKind::OmegaNoSvb => mini_omega(OmegaConfig {
                svb_enabled: false,
                ..OmegaConfig::default()
            }),
            // Framework schedules with chunk 4; map scratchpads with 64.
            MachineKind::OmegaChunkMismatch => mini_omega(OmegaConfig {
                mapping_chunk: 64,
                ..OmegaConfig::default()
            }),
            MachineKind::OmegaOffchip => mini_omega(OmegaConfig {
                ext: OffchipExtensions::all(),
                ..OmegaConfig::default()
            }),
            MachineKind::LockedCache => SystemConfig::mini_locked_cache(),
            MachineKind::PimRank => SystemConfig::mini_pim_rank(),
            MachineKind::SpecializedCache => SystemConfig::mini_specialized_cache(),
        }
    }

    /// Human-readable label.
    pub fn label(self) -> String {
        match self {
            MachineKind::Baseline => "baseline".into(),
            MachineKind::Omega => "omega".into(),
            MachineKind::OmegaScaledSp { permille } => format!("omega-sp{permille}"),
            MachineKind::OmegaNoPisc => "omega-nopisc".into(),
            MachineKind::OmegaNoSvb => "omega-nosvb".into(),
            MachineKind::OmegaChunkMismatch => "omega-chunkmis".into(),
            MachineKind::OmegaOffchip => "omega-offchip".into(),
            MachineKind::LockedCache => "locked-cache".into(),
            MachineKind::PimRank => "pim-rank".into(),
            MachineKind::SpecializedCache => "specialized-cache".into(),
        }
    }
}

/// The mini-scale OMEGA machine with the given scratchpad/PISC parameters.
fn mini_omega(omega: OmegaConfig) -> SystemConfig {
    SystemConfig::omega_from_baseline(MachineConfig::mini_baseline(), omega)
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for MachineKind {
    type Err = OmegaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MachineKind::from_name(s)
    }
}

/// A named algorithm instance usable as a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKey {
    /// PageRank, one iteration (as the paper simulates).
    PageRank,
    /// BFS from the default root.
    Bfs,
    /// SSSP from the default root.
    Sssp,
    /// BC forward pass from the default root.
    Bc,
    /// Radii with sample 16.
    Radii,
    /// Connected components.
    Cc,
    /// Triangle counting.
    Tc,
    /// 3-core.
    KCore,
}

impl AlgoKey {
    /// All eight workloads.
    pub const ALL: [AlgoKey; 8] = [
        AlgoKey::PageRank,
        AlgoKey::Bfs,
        AlgoKey::Sssp,
        AlgoKey::Bc,
        AlgoKey::Radii,
        AlgoKey::Cc,
        AlgoKey::Tc,
        AlgoKey::KCore,
    ];

    /// The concrete algorithm instance for `g` (roots resolved).
    pub fn algo(self, g: &CsrGraph) -> Algo {
        let a = match self {
            AlgoKey::PageRank => Algo::PageRank { iters: 1 },
            AlgoKey::Bfs => Algo::Bfs { root: 0 },
            AlgoKey::Sssp => Algo::Sssp { root: 0 },
            AlgoKey::Bc => Algo::Bc { root: 0 },
            AlgoKey::Radii => Algo::Radii { sample: 16 },
            AlgoKey::Cc => Algo::Cc,
            AlgoKey::Tc => Algo::Tc,
            AlgoKey::KCore => Algo::KCore { k: 3 },
        };
        a.with_default_root(g)
    }

    /// Paper figure label.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKey::PageRank => "PageRank",
            AlgoKey::Bfs => "BFS",
            AlgoKey::Sssp => "SSSP",
            AlgoKey::Bc => "BC",
            AlgoKey::Radii => "Radii",
            AlgoKey::Cc => "CC",
            AlgoKey::Tc => "TC",
            AlgoKey::KCore => "KC",
        }
    }

    /// Stable lowercase identifier used in CLI flags and the wire protocol.
    pub fn code(self) -> &'static str {
        match self {
            AlgoKey::PageRank => "pagerank",
            AlgoKey::Bfs => "bfs",
            AlgoKey::Sssp => "sssp",
            AlgoKey::Bc => "bc",
            AlgoKey::Radii => "radii",
            AlgoKey::Cc => "cc",
            AlgoKey::Tc => "tc",
            AlgoKey::KCore => "kcore",
        }
    }

    /// Looks an algorithm up by code, paper label, or alias
    /// (case-insensitive): `pagerank`/`pr`, `kcore`/`kc`, `bfs`, ….
    pub fn from_name(name: &str) -> Result<AlgoKey, OmegaError> {
        let hit = AlgoKey::ALL
            .iter()
            .copied()
            .find(|a| a.code().eq_ignore_ascii_case(name) || a.name().eq_ignore_ascii_case(name));
        let hit = hit.or(match name.to_ascii_lowercase().as_str() {
            "pr" => Some(AlgoKey::PageRank),
            _ => None,
        });
        hit.ok_or_else(|| {
            let codes: Vec<&str> = AlgoKey::ALL.iter().map(|a| a.code()).collect();
            OmegaError::unknown_name("algo", name, codes.join(", "))
        })
    }
}

impl std::fmt::Display for AlgoKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl std::str::FromStr for AlgoKey {
    type Err = OmegaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlgoKey::from_name(s)
    }
}

/// One fully keyed experiment: which dataset, which algorithm, which
/// machine. The first-class replacement for the bare
/// `(Dataset, AlgoKey, MachineKind)` tuples previously threaded through
/// [`Session`] and the figure/stats bins; tuples still convert via `From`,
/// so `session.report((d, a, m))` keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentSpec {
    /// The input graph.
    pub dataset: Dataset,
    /// The workload.
    pub algo: AlgoKey,
    /// The machine it runs on.
    pub machine: MachineKind,
}

impl ExperimentSpec {
    /// Builds a spec from its three coordinates.
    pub fn new(dataset: Dataset, algo: AlgoKey, machine: MachineKind) -> Self {
        ExperimentSpec {
            dataset,
            algo,
            machine,
        }
    }

    /// Human-readable label, e.g. `PageRank-lj@omega`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}@{}",
            self.algo.name(),
            self.dataset.code(),
            self.machine.label()
        )
    }

    /// The store fingerprint of this experiment at a given scale and
    /// telemetry setting: dataset + scale + algorithm + the *complete*
    /// resolved [`SystemConfig`] and execution configuration, so any
    /// machine-parameter change invalidates the cached entry.
    pub fn fingerprint(&self, scale: DatasetScale, telemetry: TelemetryConfig) -> u64 {
        let system = Session::system_for(telemetry, self.machine);
        crate::store::run_fingerprint(
            self.dataset.code(),
            scale.code(),
            self.algo.name(),
            &system,
            &Runner::new(system).resolved_exec(),
        )
    }
}

impl From<(Dataset, AlgoKey, MachineKind)> for ExperimentSpec {
    fn from((dataset, algo, machine): (Dataset, AlgoKey, MachineKind)) -> Self {
        ExperimentSpec::new(dataset, algo, machine)
    }
}

/// Machine-independent queries (e.g. [`Session::supports`]) accept a bare
/// `(dataset, algo)` pair; the machine defaults to the baseline.
impl From<(Dataset, AlgoKey)> for ExperimentSpec {
    fn from((dataset, algo): (Dataset, AlgoKey)) -> Self {
        ExperimentSpec::new(dataset, algo, MachineKind::Baseline)
    }
}

/// One fully keyed experiment and its result.
type KeyedReport = (ExperimentSpec, RunReport);

/// One `(dataset, algorithm)` trace group: the unit of functional-trace
/// sharing. Every machine in the group replays the *same* functional
/// trace, so a batch of specs costs one trace per group, not one per
/// spec. [`Session::prefetch`] and the `omega-serve` batch path both
/// partition work with [`trace_groups`], so the two layers agree on what
/// "compatible" means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceGroup {
    /// The shared input graph.
    pub dataset: Dataset,
    /// The shared workload (traced once).
    pub algo: AlgoKey,
    /// The machines that replay the shared trace, first-seen order,
    /// deduplicated.
    pub machines: Vec<MachineKind>,
}

impl TraceGroup {
    /// The group's key.
    pub fn key(&self) -> (Dataset, AlgoKey) {
        (self.dataset, self.algo)
    }

    /// The group's member specs, in machine order.
    pub fn specs(&self) -> impl Iterator<Item = ExperimentSpec> + '_ {
        self.machines
            .iter()
            .map(move |&m| ExperimentSpec::new(self.dataset, self.algo, m))
    }
}

/// Partitions `specs` into [`TraceGroup`]s by `(dataset, algo)`, in
/// first-seen order, deduplicating machines within each group. All
/// machine configurations share one core count, so one functional trace
/// serves every replay in a group (the same assumption
/// [`Runner::run_many`] makes).
pub fn trace_groups(specs: impl IntoIterator<Item = ExperimentSpec>) -> Vec<TraceGroup> {
    let mut groups: Vec<TraceGroup> = Vec::new();
    for spec in specs {
        match groups
            .iter_mut()
            .find(|g| g.key() == (spec.dataset, spec.algo))
        {
            Some(g) => {
                if !g.machines.contains(&spec.machine) {
                    g.machines.push(spec.machine);
                }
            }
            None => groups.push(TraceGroup {
                dataset: spec.dataset,
                algo: spec.algo,
                machines: vec![spec.machine],
            }),
        }
    }
    groups
}

/// The paper's detailed-simulation datasets: fig. 14's rows (uk and
/// twitter are handled by the fig. 20 analytic model).
pub const SWEEP: [Dataset; 9] = [
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

/// The directed-graph algorithms of the sweep: fig. 14's columns.
pub const SWEEP_ALGOS: [AlgoKey; 5] = [
    AlgoKey::PageRank,
    AlgoKey::Bfs,
    AlgoKey::Sssp,
    AlgoKey::Bc,
    AlgoKey::Radii,
];

/// The paper sweep: every supported [`SWEEP`] × [`SWEEP_ALGOS`] pair, plus
/// CC and TC on ap, each on the baseline and on OMEGA. Fig. 14 reads
/// exactly these runs, and the `bench` snapshot times them cold.
pub fn paper_sweep(session: &mut Session) -> Vec<ExperimentSpec> {
    let undirected = [AlgoKey::Cc, AlgoKey::Tc].map(|a| (Dataset::Ap, a));
    SWEEP
        .iter()
        .flat_map(|&d| SWEEP_ALGOS.map(|a| (d, a)))
        .chain(undirected)
        .filter(|&pair| session.supports(pair))
        .flat_map(|(d, a)| {
            [MachineKind::Baseline, MachineKind::Omega].map(|m| ExperimentSpec::new(d, a, m))
        })
        .collect()
}

/// Where a report came from — the per-request cache outcome that a serving
/// layer needs to keep exact hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOrigin {
    /// Served from the session's in-memory memo cache.
    Memo,
    /// Loaded from the persistent [`ExperimentStore`] (a store hit: no
    /// trace, no replay).
    Store,
    /// Freshly simulated (a store miss; persisted on the way out when a
    /// store is attached).
    Computed,
}

/// Per-spec outcomes of one [`Session::prefetch`] call: exactly one entry
/// per *distinct* requested spec, in first-seen order. Callers that only
/// want the side effect (a warm cache) can ignore it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchReport {
    /// `(spec, origin)` per distinct requested spec.
    pub outcomes: Vec<(ExperimentSpec, RunOrigin)>,
}

impl PrefetchReport {
    /// How many specs resolved with the given origin.
    pub fn count(&self, origin: RunOrigin) -> usize {
        self.outcomes.iter().filter(|(_, o)| *o == origin).count()
    }

    /// Store hits (served with no trace and no replay).
    pub fn store_hits(&self) -> usize {
        self.count(RunOrigin::Store)
    }

    /// Fresh simulations.
    pub fn computed(&self) -> usize {
        self.count(RunOrigin::Computed)
    }

    /// The origin recorded for `spec`, if it was part of the call.
    pub fn origin_of(&self, spec: ExperimentSpec) -> Option<RunOrigin> {
        self.outcomes
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|(_, o)| *o)
    }
}

/// Memoising experiment session.
///
/// Construction is builder-style — `Session::new(scale).verbose(false)
/// .telemetry(...)` — so the old "set `telemetry` before the first run"
/// footgun is enforced by the type: both knobs are fixed before any
/// experiment can execute. [`Session::with_store`] additionally backs the
/// in-memory memo cache with a persistent on-disk [`ExperimentStore`].
#[derive(Debug)]
pub struct Session {
    scale: DatasetScale,
    graphs: HashMap<Dataset, CsrGraph>,
    runs: HashMap<ExperimentSpec, RunReport>,
    verbose: bool,
    telemetry: TelemetryConfig,
    store: Option<ExperimentStore>,
    jobs: Option<usize>,
}

impl Session {
    /// Creates a session at the given dataset scale, verbose, with
    /// telemetry off and no persistent store.
    pub fn new(scale: DatasetScale) -> Self {
        Session {
            scale,
            graphs: HashMap::new(),
            runs: HashMap::new(),
            verbose: true,
            telemetry: TelemetryConfig::off(),
            store: None,
            jobs: None,
        }
    }

    /// Caps how many experiments [`Session::prefetch`] replays at once (the
    /// `--jobs N` flag). The default is
    /// [`std::thread::available_parallelism`]. Each replay is serial.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// The effective prefetch worker count: the [`Session::jobs`] override,
    /// or [`std::thread::available_parallelism`].
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Sets whether progress lines are printed to stderr while running.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Sets the telemetry configuration applied to every machine this
    /// session builds.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Backs the session with a persistent experiment store rooted at
    /// `path` (created if absent): [`Session::report`] and
    /// [`Session::prefetch`] consult the store before simulating and
    /// persist every fresh result.
    pub fn with_store(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.store = Some(ExperimentStore::open(path)?);
        Ok(self)
    }

    /// The session's persistent store, if one was attached.
    pub fn store(&self) -> Option<&ExperimentStore> {
        self.store.as_ref()
    }

    /// The session's telemetry configuration.
    pub fn telemetry_config(&self) -> TelemetryConfig {
        self.telemetry
    }

    /// The machine configuration for `m` with the given telemetry setting
    /// applied.
    fn system_for(telemetry: TelemetryConfig, m: MachineKind) -> SystemConfig {
        let mut sys = m.system();
        sys.machine.telemetry = telemetry;
        sys
    }

    /// The session's dataset scale.
    pub fn scale(&self) -> DatasetScale {
        self.scale
    }

    /// Builds (and caches) a dataset's graph.
    pub fn graph(&mut self, d: Dataset) -> &CsrGraph {
        let scale = self.scale;
        self.graphs.entry(d).or_insert_with(|| {
            d.build(scale)
                .expect("dataset registry parameters are valid")
        })
    }

    /// Whether an algorithm can run on a dataset (symmetry requirement).
    /// The spec's machine is irrelevant; `(dataset, algo)` pairs convert.
    pub fn supports(&mut self, spec: impl Into<ExperimentSpec>) -> bool {
        let spec = spec.into();
        let g = self.graph(spec.dataset);
        spec.algo.algo(g).supports(g)
    }

    /// Loads `spec`'s report from the persistent store into the memo
    /// cache, if a store is attached and holds an intact entry.
    fn load_from_store(&mut self, spec: ExperimentSpec) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let Some(report) = store.load_report(spec.fingerprint(self.scale, self.telemetry)) else {
            return false;
        };
        if self.verbose {
            eprintln!(
                "  [store] {} served from {}",
                spec.label(),
                store.root().display()
            );
        }
        self.runs.insert(spec, report);
        true
    }

    /// Persists a freshly simulated report, if a store is attached.
    /// Write failures (full disk, permissions) degrade to cache-less
    /// operation rather than aborting the run.
    fn persist(
        store: Option<&ExperimentStore>,
        scale: DatasetScale,
        telemetry: TelemetryConfig,
        spec: ExperimentSpec,
        report: &RunReport,
    ) {
        if let Some(store) = store {
            let fp = spec.fingerprint(scale, telemetry);
            if let Err(e) = store.store_report(fp, &spec.label(), report) {
                eprintln!("  [store] warning: failed to persist {}: {e}", spec.label());
            }
        }
    }

    /// Runs every experiment in `work` that is not already cached and
    /// stores the reports. Subsequent [`Session::report`] calls are cache
    /// hits. Returns a [`PrefetchReport`] naming where every distinct spec
    /// came from (memo / store / computed), so callers with their own
    /// hit-rate accounting — the `omega-serve` counters — stay exact.
    ///
    /// Store hits are drained first (no trace, no replay). The remaining
    /// experiments are grouped by `(dataset, algo)`: the functional
    /// (tracing) phase runs **once** per group and every requested
    /// [`MachineKind`] replays the shared trace through the streaming
    /// lowering path. `min(jobs, groups)` workers (see [`Session::jobs`])
    /// take groups in turn, and each replays its group's machines serially
    /// with [`omega_core::runner::replay`]. Simulations are deterministic
    /// and independent, so parallel execution changes nothing but
    /// wall-clock time. Fresh results are persisted from the worker
    /// threads (the store is `Sync`; writes are atomic).
    pub fn prefetch<S: Into<ExperimentSpec> + Copy>(&mut self, work: &[S]) -> PrefetchReport {
        let _span = obs::span("session.prefetch");
        let candidates: Vec<ExperimentSpec> = {
            let mut seen = std::collections::HashSet::new();
            work.iter()
                .map(|&s| s.into())
                .filter(|spec| seen.insert(*spec))
                .collect()
        };
        let mut outcomes: Vec<(ExperimentSpec, RunOrigin)> = Vec::new();
        let mut pending: Vec<ExperimentSpec> = Vec::new();
        for spec in candidates {
            if self.runs.contains_key(&spec) {
                outcomes.push((spec, RunOrigin::Memo));
            } else if self.load_from_store(spec) {
                outcomes.push((spec, RunOrigin::Store));
            } else {
                pending.push(spec);
            }
        }
        outcomes.extend(pending.iter().map(|&spec| (spec, RunOrigin::Computed)));
        let outcome_report = PrefetchReport { outcomes };
        if pending.is_empty() {
            return outcome_report;
        }
        // Specs whose machines resolve to one configuration (omega and
        // omega-sp1000) share a fingerprint: simulate the first, copy it to
        // its twins.
        let mut first = HashMap::new();
        let mut twins = Vec::new();
        pending.retain(|&spec| {
            let fp = spec.fingerprint(self.scale, self.telemetry);
            let of = *first.entry(fp).or_insert(spec);
            if of != spec {
                twins.push((spec, of));
            }
            of == spec
        });
        // Build the needed graphs first (cached, sequential — cheap next to
        // the simulations).
        {
            let _build = obs::span("session.graph_build");
            for spec in &pending {
                self.graph(spec.dataset);
            }
        }
        // One group per (dataset, algorithm), in first-seen order: the
        // functional trace is shared by all of the group's machines.
        let groups = trace_groups(pending.iter().copied());
        let graphs = &self.graphs;
        let verbose = self.verbose;
        let telemetry = self.telemetry;
        let scale = self.scale;
        let store = self.store.as_ref();
        let workers = self.effective_jobs().min(groups.len()).max(1);
        let next_group = AtomicUsize::new(0);
        let results: Mutex<Vec<KeyedReport>> = Mutex::new(Vec::with_capacity(pending.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next_group.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(i) else {
                        break;
                    };
                    let (d, a, machines) = (&group.dataset, &group.algo, &group.machines);
                    let _group =
                        obs::span_owned(format!("session.group:{}/{}", d.code(), a.name()));
                    let g = &graphs[d];
                    let algo = a.algo(g);
                    if verbose {
                        eprintln!(
                            "  [trace] {} on {} (×{} machines)",
                            a.name(),
                            d.code(),
                            machines.len()
                        );
                    }
                    // All machine configurations share one core count, so
                    // one functional trace serves every replay (the same
                    // assumption `Runner::run_many` makes).
                    let exec = ExecConfig {
                        n_cores: machines[0].system().machine.core.n_cores,
                        ..ExecConfig::default()
                    };
                    let (checksum, raw, meta) = trace_algorithm(g, algo, &exec);
                    let mut batch = Vec::with_capacity(machines.len());
                    for &m in machines {
                        if verbose {
                            eprintln!("  [replay] {} on {} ({})", a.name(), d.code(), m.label());
                        }
                        let report = replay(
                            algo.name(),
                            checksum,
                            &raw,
                            &meta,
                            &Self::system_for(telemetry, m),
                            None,
                        );
                        let spec = ExperimentSpec::new(*d, *a, m);
                        Self::persist(store, scale, telemetry, spec, &report);
                        batch.push((spec, report));
                    }
                    results
                        .lock()
                        .expect("no panics hold the lock")
                        .extend(batch);
                });
            }
        });
        self.runs
            .extend(results.into_inner().expect("no panics hold the lock"));
        for (twin, of) in twins {
            let report = self.runs[&of].clone();
            self.runs.insert(twin, report);
        }
        outcome_report
    }

    /// Runs (or fetches) one experiment. Lookup order: in-memory memo
    /// cache, then the persistent store (if attached), then a fresh
    /// simulation (persisted on the way out).
    pub fn report(&mut self, spec: impl Into<ExperimentSpec>) -> &RunReport {
        self.report_with_origin(spec).0
    }

    /// [`Session::report`], additionally naming where the report came from
    /// (memo hit / store hit / fresh simulation).
    pub fn report_with_origin(
        &mut self,
        spec: impl Into<ExperimentSpec>,
    ) -> (&RunReport, RunOrigin) {
        let spec = spec.into();
        let origin = if self.runs.contains_key(&spec) {
            RunOrigin::Memo
        } else if self.load_from_store(spec) {
            RunOrigin::Store
        } else {
            let g = self.graph(spec.dataset).clone();
            let algo = spec.algo.algo(&g);
            if self.verbose {
                eprintln!(
                    "  [run] {} on {} ({}) — {} vertices, {} arcs",
                    spec.algo.name(),
                    spec.dataset.code(),
                    spec.machine.label(),
                    g.num_vertices(),
                    g.num_arcs()
                );
            }
            let report = Runner::new(Self::system_for(self.telemetry, spec.machine)).run(&g, algo);
            Self::persist(
                self.store.as_ref(),
                self.scale,
                self.telemetry,
                spec,
                &report,
            );
            self.runs.insert(spec, report);
            RunOrigin::Computed
        };
        (&self.runs[&spec], origin)
    }

    /// OMEGA-over-baseline speedup for one experiment.
    pub fn speedup(&mut self, d: Dataset, a: AlgoKey) -> f64 {
        let base = self.report((d, a, MachineKind::Baseline)).total_cycles;
        let omega = self.report((d, a, MachineKind::Omega)).total_cycles;
        if omega == 0 {
            0.0
        } else {
            base as f64 / omega as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::config::{MemoryModel, PinOrder};

    #[test]
    fn session_memoises_runs() {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        let a = s
            .report((Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline))
            .clone();
        let b = s
            .report(ExperimentSpec::new(
                Dataset::Sd,
                AlgoKey::Bfs,
                MachineKind::Baseline,
            ))
            .clone();
        assert_eq!(a, b);
        assert_eq!(s.runs.len(), 1);
    }

    #[test]
    fn machine_kinds_produce_expected_configs() {
        assert!(MachineKind::Baseline.system().omega().is_none());
        assert!(MachineKind::Omega.system().omega().is_some());
        let half = MachineKind::OmegaScaledSp { permille: 500 }.system();
        assert_eq!(
            half.omega().unwrap().sp_bytes_per_core * 2,
            MachineKind::Omega
                .system()
                .omega()
                .unwrap()
                .sp_bytes_per_core
        );
        assert!(
            !MachineKind::OmegaNoPisc
                .system()
                .omega()
                .unwrap()
                .pisc_enabled
        );
        assert!(
            !MachineKind::OmegaNoSvb
                .system()
                .omega()
                .unwrap()
                .svb_enabled
        );
        assert_eq!(
            MachineKind::OmegaChunkMismatch
                .system()
                .omega()
                .unwrap()
                .mapping_chunk,
            64
        );
        let pim = MachineKind::PimRank.system();
        assert!(matches!(pim.model, MemoryModel::PimRank(_)) && pim.omega().is_none());
        let sc = MachineKind::SpecializedCache.system();
        assert!(
            matches!(
                sc.model,
                MemoryModel::Pinned {
                    order: PinOrder::VertexMajor,
                    ..
                }
            ) && sc.omega().is_none()
        );
        assert_eq!(pim.label(), "pim-rank");
        assert_eq!(sc.label(), "specialized-cache");
    }

    #[test]
    fn scaled_sp_validates_the_permille() {
        // 8 ‰ of 8 KiB is 65 B, just above the 64 B floor; 7 ‰ (57 B)
        // falls below it.
        assert!(MachineKind::scaled_sp(MachineKind::Omega, 8).is_ok());
        assert!(MachineKind::scaled_sp(MachineKind::Omega, 1000).is_ok());
        let err = MachineKind::scaled_sp(MachineKind::Omega, 7).unwrap_err();
        assert!(err.to_string().contains("below"), "{err}");
        assert_eq!(err.code(), "invalid-config");
        // The validated instance builds the size its label claims.
        let sys = MachineKind::scaled_sp(MachineKind::Omega, 8)
            .unwrap()
            .system();
        assert_eq!(sys.omega().unwrap().sp_bytes_per_core, 65);
    }

    #[test]
    fn scaled_sp_rejects_scratchpad_less_machines() {
        // The scratchpad-less kinds have nothing to scale; rejecting is
        // better than the old behaviour, where `with_scratchpad_bytes`
        // silently no-opped and the unscaled machine ran under a scaled
        // label.
        for m in [
            MachineKind::PimRank,
            MachineKind::SpecializedCache,
            MachineKind::Baseline,
            MachineKind::LockedCache,
        ] {
            let err = MachineKind::scaled_sp(m, 500).unwrap_err();
            assert_eq!(err.code(), "invalid-config", "{m:?}");
            assert!(err.to_string().contains("no scratchpad"), "{m:?}: {err}");
        }
        // The omega ablations do have scratchpads, but the sweep is only
        // modelled on the standard machine — still a loud error.
        let err = MachineKind::scaled_sp(MachineKind::OmegaNoPisc, 500).unwrap_err();
        assert_eq!(err.code(), "invalid-config");
    }

    #[test]
    #[should_panic(expected = "below the 64 B minimum")]
    fn undersized_scaled_sp_panics_instead_of_clamping() {
        MachineKind::OmegaScaledSp { permille: 1 }.system();
    }

    #[test]
    fn machine_names_roundtrip_through_from_name() {
        for m in MachineKind::NAMED {
            assert_eq!(m.label().parse::<MachineKind>().unwrap(), m);
        }
        // The scaled-scratchpad family parses through validation.
        assert_eq!(
            "omega-sp500".parse::<MachineKind>().unwrap(),
            MachineKind::OmegaScaledSp { permille: 500 }
        );
        assert_eq!(
            "OMEGA".parse::<MachineKind>().unwrap(),
            MachineKind::Omega,
            "lookups are case-insensitive"
        );
        assert_eq!(
            "pim-rank".parse::<MachineKind>().unwrap(),
            MachineKind::PimRank
        );
        assert_eq!(
            "Specialized-Cache".parse::<MachineKind>().unwrap(),
            MachineKind::SpecializedCache
        );
        let undersized = "omega-sp1".parse::<MachineKind>().unwrap_err();
        assert_eq!(undersized.code(), "invalid-config");
        let unknown = "warp-drive".parse::<MachineKind>().unwrap_err();
        assert_eq!(unknown.code(), "unknown-name");
        assert!(unknown.to_string().contains("baseline"), "{unknown}");
    }

    #[test]
    fn algo_names_roundtrip_through_from_name() {
        for a in AlgoKey::ALL {
            assert_eq!(a.code().parse::<AlgoKey>().unwrap(), a);
            assert_eq!(a.name().parse::<AlgoKey>().unwrap(), a, "paper label");
        }
        assert_eq!("pr".parse::<AlgoKey>().unwrap(), AlgoKey::PageRank);
        assert_eq!("kc".parse::<AlgoKey>().unwrap(), AlgoKey::KCore);
        let err = "dijkstra".parse::<AlgoKey>().unwrap_err();
        assert_eq!(err.code(), "unknown-name");
        assert!(err.to_string().contains("pagerank"), "{err}");
    }

    #[test]
    fn prefetch_reports_per_spec_origins() {
        let dir =
            std::env::temp_dir().join(format!("omega-prefetch-origin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let memo_spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline);
        let fresh_spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega);
        let mut s = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .with_store(&dir)
            .unwrap();
        s.report(memo_spec);
        let r = s.prefetch(&[memo_spec, fresh_spec, fresh_spec]);
        assert_eq!(r.outcomes.len(), 2, "duplicates collapse");
        assert_eq!(r.origin_of(memo_spec), Some(RunOrigin::Memo));
        assert_eq!(r.origin_of(fresh_spec), Some(RunOrigin::Computed));
        assert_eq!(r.computed(), 1);
        assert_eq!(r.store_hits(), 0);
        // A second session over the same store sees the persisted result.
        let mut s2 = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .with_store(&dir)
            .unwrap();
        let r2 = s2.prefetch(&[fresh_spec]);
        assert_eq!(r2.origin_of(fresh_spec), Some(RunOrigin::Store));
        assert_eq!(r2.store_hits(), 1);
        let (_, origin) = s2.report_with_origin(memo_spec);
        assert_eq!(origin, RunOrigin::Store);
        let (_, origin) = s2.report_with_origin(memo_spec);
        assert_eq!(origin, RunOrigin::Memo);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_converts_from_tuples_and_labels() {
        let spec: ExperimentSpec = (Dataset::Lj, AlgoKey::PageRank, MachineKind::Omega).into();
        assert_eq!(
            spec,
            ExperimentSpec::new(Dataset::Lj, AlgoKey::PageRank, MachineKind::Omega)
        );
        assert_eq!(spec.label(), "PageRank-lj@omega");
        let pair: ExperimentSpec = (Dataset::Lj, AlgoKey::PageRank).into();
        assert_eq!(pair.machine, MachineKind::Baseline);
    }

    #[test]
    fn spec_fingerprints_separate_every_coordinate() {
        let base = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline);
        let fp = |s: ExperimentSpec| s.fingerprint(DatasetScale::Tiny, TelemetryConfig::off());
        assert_eq!(fp(base), fp(base));
        let mut other = base;
        other.dataset = Dataset::Ap;
        assert_ne!(fp(base), fp(other));
        let mut other = base;
        other.algo = AlgoKey::Cc;
        assert_ne!(fp(base), fp(other));
        let mut other = base;
        other.machine = MachineKind::Omega;
        assert_ne!(fp(base), fp(other));
        // Scale and telemetry also key the store.
        assert_ne!(
            base.fingerprint(DatasetScale::Tiny, TelemetryConfig::off()),
            base.fingerprint(DatasetScale::Small, TelemetryConfig::off())
        );
        assert_ne!(
            base.fingerprint(DatasetScale::Tiny, TelemetryConfig::off()),
            base.fingerprint(DatasetScale::Tiny, TelemetryConfig::windowed(4096))
        );
    }

    #[test]
    fn prefetch_fills_the_cache_in_parallel() {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        let work = [
            (Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline),
            (Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega),
            (Dataset::Ap, AlgoKey::Cc, MachineKind::Baseline),
        ];
        s.prefetch(&work);
        assert_eq!(s.runs.len(), 3);
        // Prefetched results are identical to sequential ones.
        let cached = s
            .report((Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline))
            .clone();
        let mut fresh_session = Session::new(DatasetScale::Tiny).verbose(false);
        let fresh = fresh_session
            .report((Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline))
            .clone();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn prefetch_skips_cached_and_duplicate_work() {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        s.report((Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline));
        let work = [
            (Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline),
            (Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline),
        ];
        s.prefetch(&work);
        assert_eq!(s.runs.len(), 1);
    }

    #[test]
    fn session_telemetry_setting_reaches_the_reports() {
        let mut s = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .telemetry(TelemetryConfig::windowed(4096));
        // Both run paths: the direct `report` miss and the prefetch pool.
        let direct = s
            .report((Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega))
            .clone();
        assert!(direct.telemetry.is_some());
        s.prefetch(&[(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline)]);
        assert!(s
            .report((Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline))
            .telemetry
            .is_some());
    }

    #[test]
    fn undirected_algos_gated_by_dataset() {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        assert!(!s.supports((Dataset::Lj, AlgoKey::Cc)));
        assert!(s.supports((Dataset::Ap, AlgoKey::Cc)));
        assert!(s.supports((Dataset::Lj, AlgoKey::PageRank)));
    }
}
