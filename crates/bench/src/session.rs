//! Memoising experiment runner shared by all figures.
//!
//! [`Session`] resolves every spec through the in-memory memo, then the
//! persistent store, then one compute path: specs are grouped by
//! `(dataset, algorithm)` and the graph or trace their [`Variant`]
//! changes, each group is traced once and every machine in it replays the
//! shared trace. A group can also summarise its trace ([`TraceSummary`])
//! for the figures that read the trace itself. [`Session::prefetch`] and
//! [`Session::prefetch_with_summaries`] feed that path a batch;
//! [`Session::report`] and [`Session::summary`] feed it the one thing
//! they miss.

use crate::store::ExperimentStore;
use omega_core::config::{OmegaConfig, SystemConfig};
use omega_core::lower::Tape;
use omega_core::runner::{
    exec_for, replay, replay_plain_atomics, trace_algorithm, trace_with, ReplayKey, RunReport,
};
use omega_core::OmegaError;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::reorder::{self, Reordering};
use omega_graph::{slicing, CsrGraph};
use omega_ligra::algorithms::Algo;
use omega_ligra::trace::{RawTrace, TraceMeta};
use omega_ligra::{graphmat, ExecConfig};
use omega_sim::obs;
use omega_sim::telemetry::TelemetryConfig;
use omega_sim::MachineConfig;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

    /// Checked constructor for [`MachineKind::OmegaScaledSp`]: the
    /// standard OMEGA machine with its scratchpad scaled to
    /// `permille/1000` (the Fig. 19 sweep). Rejects a permille whose
    /// scaled scratchpad would fall below [`MachineKind::MIN_SP_BYTES`]
    /// instead of simulating a larger machine than the label claims.
    pub fn scaled_sp(permille: u32) -> Result<MachineKind, OmegaError> {
        let standard = OmegaConfig::default().sp_bytes_per_core;
        let sp = standard * permille as u64 / 1000;
        if sp < Self::MIN_SP_BYTES {
            return Err(OmegaError::InvalidConfig(format!(
                "scratchpad scale {permille}‰ of {standard} B yields {sp} B/core, \
                 below the {} B minimum",
                Self::MIN_SP_BYTES
            )));
        }
        Ok(MachineKind::OmegaScaledSp { permille })
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
            return MachineKind::scaled_sp(permille);
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
                offchip: true,
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

/// How a run departs from the standard experiment. Each case belongs to
/// the one figure that needs it and changes the machine (`channels`, and
/// the scratchpad of `abl-slicing`), the graph (`abl-reorder`,
/// `abl-slicing`), the trace (`abl-graphmat`) or the lowering
/// (`abl-atomics`). [`ExperimentSpec::new`] sets [`Variant::Standard`];
/// no CLI flag or wire field sets another case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The experiment as the paper runs it.
    #[default]
    Standard,
    /// `channels`: the machine with this many DRAM channels.
    DramChannels(usize),
    /// `abl-atomics`: every atomic lowered to a plain store (§III).
    PlainAtomics,
    /// `abl-graphmat`: PageRank traced under the GraphMat-style framework
    /// (§V.F) instead of Ligra, whatever the spec's algorithm.
    GraphMat,
    /// `abl-reorder`: the dataset built unordered, then reordered.
    Reordered(Reordering),
    /// `abl-slicing`: slice `index` of the graph cut by `slicing`, on a
    /// [`Slicing::SP_BYTES`] scratchpad per core.
    Sliced {
        /// How the graph is cut.
        slicing: Slicing,
        /// Which slice runs (0 for [`Slicing::Unsliced`]).
        index: u32,
    },
}

impl Variant {
    /// The case without its machine and lowering parts: what the
    /// functional trace depends on, and so part of the trace-group key.
    fn trace_variant(self) -> Variant {
        match self {
            Variant::DramChannels(_) | Variant::PlainAtomics => Variant::Standard,
            Variant::Sliced {
                slicing: Slicing::Unsliced,
                ..
            } => Variant::Standard,
            other => other,
        }
    }

    /// What the fingerprint appends to the algorithm name: the graph, trace
    /// or lowering the case changes. Machine changes reach the fingerprint
    /// through [`ExperimentSpec::system`].
    fn key_tag(self) -> Option<String> {
        match self {
            Variant::PlainAtomics => Some(format!("{self:?}")),
            other => (other.trace_variant() != Variant::Standard).then(|| format!("{other:?}")),
        }
    }

    /// Whether this case shapes the dataset built unordered rather than
    /// its standard graph.
    fn reorders(self) -> bool {
        matches!(self, Variant::Reordered(_))
    }

    /// The graph this case traces in place of `base`, or `None` when it
    /// traces `base` itself. `base` is the dataset built unordered when
    /// [`Variant::reorders`] holds, its standard graph otherwise.
    fn graph(self, base: &CsrGraph) -> Option<CsrGraph> {
        match self.trace_variant() {
            Variant::Reordered(ord) => {
                let perm = reorder::compute_permutation(base, ord);
                Some(reorder::apply(base, &perm).expect("permutation sized to graph"))
            }
            Variant::Sliced { slicing, index } => Some(slicing.slice(base, index)),
            _ => None,
        }
    }
}

/// How `abl-slicing` cuts a graph whose hot set does not fit the
/// scratchpads (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slicing {
    /// No cut: the whole graph in one pass.
    Unsliced,
    /// Plain slicing: each slice's whole vtxProp fits the scratchpads.
    WholeSliceFits,
    /// Power-law-aware slicing (§VII.3): only each slice's hot 20% must
    /// fit.
    HotFits,
}

impl Slicing {
    /// Scratchpad bytes per core of every sliced run: 1/16 of standard.
    pub const SP_BYTES: u64 = 512;

    /// Destination vertices per slice of an `n`-vertex graph, as
    /// `slicing::slice_by_vertex_budget` and `slicing::slice_hot_budget`
    /// cut it for the scratchpads' PageRank entries (8 B plus a flag byte).
    fn width(self, n: usize) -> usize {
        let budget = (Self::SP_BYTES * 16 / 9) as usize;
        match self {
            Slicing::Unsliced => n.max(1),
            Slicing::WholeSliceFits => budget,
            Slicing::HotFits => (budget as f64 / 0.2).floor() as usize,
        }
    }

    /// How many slices `g` is cut into.
    pub fn count(self, g: &CsrGraph) -> u32 {
        g.num_vertices().div_ceil(self.width(g.num_vertices())) as u32
    }

    /// Slice `index` of `g`, its owned destination range rotated to the
    /// id front so the scratchpads hold exactly that slice's vtxProp.
    fn slice(self, g: &CsrGraph, index: u32) -> CsrGraph {
        let (n, width) = (g.num_vertices(), self.width(g.num_vertices()));
        let start = index as usize * width;
        let range = start as u32..(start + width).min(n) as u32;
        let owned = range.len() as u32;
        let forward = (0..n as u32)
            .map(|v| match v {
                _ if range.contains(&v) => v - range.start,
                _ if v < range.start => v + owned,
                _ => v,
            })
            .collect();
        let perm = reorder::Permutation::from_forward(forward).expect("rotation is a bijection");
        reorder::apply(&slicing::slice(g, range).graph, &perm).expect("sized to graph")
    }
}

/// What `table2`, `fig4b`, `fig5` and `fig18` read from a standard trace
/// group's functional trace. [`Session::summary`] memoises and persists
/// one per `(dataset, algo)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Share of trace events that are atomics (Table II).
    pub atomic_fraction: f64,
    /// Share of trace events that are random accesses (Table II).
    pub random_fraction: f64,
    /// vtxProp arrays the scratchpads monitor (Table II).
    pub monitored_props: u64,
    /// Share of vtxProp accesses to the 20% most-connected vertices, ids
    /// below `ceil(0.2 * n)` (figs. 4b, 5 and 18).
    pub hot_prop_share: f64,
}

impl TraceSummary {
    /// Summarises a functional trace collected with `meta`.
    fn of(raw: &RawTrace, meta: &TraceMeta) -> TraceSummary {
        let classes = raw.classify();
        let hot = (meta.n_vertices as f64 * 0.2).ceil() as u32;
        TraceSummary {
            atomic_fraction: classes.atomic_fraction(),
            random_fraction: classes.random_fraction(),
            monitored_props: meta.props.iter().filter(|p| p.monitored).count() as u64,
            hot_prop_share: raw.prop_access_fraction_below(hot),
        }
    }
}

/// One fully keyed experiment: which dataset, which algorithm, which
/// machine, what telemetry that machine collects, and which [`Variant`]
/// of the run. Together with the session's scale these are every input
/// of the store fingerprint, so a spec is the memo key. Tuples convert via
/// `From` with telemetry off and the standard variant, so
/// `session.report((d, a, m))` keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentSpec {
    /// The input graph.
    pub dataset: Dataset,
    /// The workload.
    pub algo: AlgoKey,
    /// The machine it runs on.
    pub machine: MachineKind,
    /// The telemetry the machine collects; an observer only, so every
    /// simulated number equals the telemetry-free run's.
    pub telemetry: TelemetryConfig,
    /// How the run departs from the standard experiment.
    pub variant: Variant,
}

impl ExperimentSpec {
    /// Builds a spec from its first three coordinates, telemetry off, the
    /// standard variant.
    pub fn new(dataset: Dataset, algo: AlgoKey, machine: MachineKind) -> Self {
        ExperimentSpec {
            dataset,
            algo,
            machine,
            telemetry: TelemetryConfig::off(),
            variant: Variant::Standard,
        }
    }

    /// Human-readable label, e.g. `PageRank-lj@omega`, then any
    /// non-standard variant.
    pub fn label(&self) -> String {
        let (a, d, m) = (self.algo.name(), self.dataset.code(), self.machine);
        match self.variant {
            Variant::Standard => format!("{a}-{d}@{m}"),
            v => format!("{a}-{d}@{m} [{v:?}]"),
        }
    }

    /// The machine this experiment runs on, with its telemetry and the
    /// variant's machine changes applied.
    pub fn system(self) -> SystemConfig {
        let mut sys = self.machine.system();
        sys.machine.telemetry = self.telemetry;
        match self.variant {
            Variant::DramChannels(channels) => sys.machine.dram.channels = channels,
            Variant::Sliced { .. } => sys = sys.with_scratchpad_bytes(Slicing::SP_BYTES),
            _ => {}
        }
        sys
    }

    /// The store fingerprint of this experiment at a given scale:
    /// dataset + scale + algorithm (tagged with the variant's graph, trace
    /// or lowering change, if any) + the *complete* resolved
    /// [`SystemConfig`] (telemetry included) and execution configuration,
    /// so any machine-parameter change invalidates the cached entry. A
    /// standard spec hashes the bytes it hashed before variants existed.
    pub fn fingerprint(&self, scale: DatasetScale) -> u64 {
        let algo = match self.variant.key_tag() {
            Some(tag) => Cow::Owned(format!("{}/{tag}", self.algo.name())),
            None => Cow::Borrowed(self.algo.name()),
        };
        let system = self.system();
        crate::store::run_fingerprint(
            self.dataset.code(),
            scale.code(),
            &algo,
            &system,
            &exec_for(&system),
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

/// One trace group: the unit of functional-trace sharing, keyed by
/// `(dataset, algorithm)` and the graph or trace the members' [`Variant`]
/// changes. Every spec in the group replays the *same* functional trace,
/// a [`GroupTrace`], so a batch of specs costs one trace per group, not
/// one per spec: a machine with telemetry and the same machine without
/// it share it too. [`Session::prefetch`] partitions its pending specs
/// with [`trace_groups`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceGroup {
    /// The shared input graph.
    pub dataset: Dataset,
    /// The shared workload (traced once).
    pub algo: AlgoKey,
    /// What the members change about the graph or the trace.
    variant: Variant,
    /// The member specs, first-seen order, deduplicated.
    specs: Vec<ExperimentSpec>,
    /// Whether the group also summarises its trace.
    summarise: bool,
}

impl TraceGroup {
    /// The group's member specs, in first-seen order.
    pub fn specs(&self) -> impl Iterator<Item = ExperimentSpec> + '_ {
        self.specs.iter().copied()
    }
}

/// Partitions `specs` into [`TraceGroup`]s by `(dataset, algo)` and the
/// variant's trace part, in first-seen order, deduplicating specs within
/// each group. All machine configurations share one core count, so one
/// functional trace serves every replay in a group (see [`exec_for`]).
pub fn trace_groups(specs: impl IntoIterator<Item = ExperimentSpec>) -> Vec<TraceGroup> {
    let mut groups: Vec<TraceGroup> = Vec::new();
    for spec in specs {
        let key = (spec.dataset, spec.algo, spec.variant.trace_variant());
        match groups
            .iter_mut()
            .find(|g| (g.dataset, g.algo, g.variant) == key)
        {
            Some(g) => {
                if !g.specs.contains(&spec) {
                    g.specs.push(spec);
                }
            }
            None => groups.push(TraceGroup {
                dataset: key.0,
                algo: key.1,
                variant: key.2,
                specs: vec![spec],
                summarise: false,
            }),
        }
    }
    groups
}

/// The functional trace of one trace group, lowered once into the
/// [`Tape`] every member replays, and the replay of a member on it: the
/// paper's trace-once, replay-on-every-machine step (§V). Every computed
/// run goes through it, in [`Session`]'s workers and in `omega-serve`'s.
///
/// Members replay once per distinct machine: each replay is keyed by the
/// memory model as the tape sees it ([`ReplayKey`]), and a member whose
/// key the group has already replayed takes a copy of that report under
/// its own machine label. On a PageRank or BFS trace, for example,
/// `omega-nosvb` has no source read for its missing buffer to miss, and
/// `specialized-cache` pins the lines `locked-cache` pins.
#[derive(Debug)]
pub struct GroupTrace {
    /// The traced kernel's name, which every report carries.
    algo: &'static str,
    checksum: f64,
    tape: Tape,
    summary: Option<TraceSummary>,
    /// One report per replay key, kept for the life of the group. The
    /// slot is filled outside the lock, once, however many workers ask
    /// for its key at the same time (`omega-serve` shares groups across
    /// its workers).
    replays: Mutex<Vec<(ReplayKey, Arc<OnceLock<RunReport>>)>>,
    /// What the group's `[replay]` progress lines name (kernel, dataset,
    /// variant); `None` keeps replays silent.
    progress: Option<String>,
}

impl GroupTrace {
    /// Traces `algo` on `g`, the graph the group's trace `variant` shapes,
    /// under `exec`: the Ligra kernel, or the GraphMat-style PageRank
    /// (§V.F) for [`Variant::GraphMat`]. With `summarise` set, the trace
    /// is summarised first ([`GroupTrace::summary`]). The trace is then
    /// lowered into the group's tape core by core, each core's events
    /// freed once lowered, so the group never holds both in full.
    pub fn new(
        g: &CsrGraph,
        algo: AlgoKey,
        variant: Variant,
        exec: &ExecConfig,
        summarise: bool,
    ) -> Self {
        let kernel = algo.algo(g);
        let (checksum, raw, meta) = match variant {
            Variant::GraphMat => trace_with(g, exec, |ctx| {
                graphmat::pagerank_graphmat(g, ctx, 1).iter().sum()
            }),
            _ => trace_algorithm(g, kernel, exec),
        };
        let summary = summarise.then(|| TraceSummary::of(&raw, &meta));
        GroupTrace {
            algo: kernel.name(),
            checksum,
            tape: Tape::from_raw(raw, meta),
            summary,
            replays: Mutex::default(),
            progress: None,
        }
    }

    /// Prints a `[replay] {what} (machine)` line to stderr for every
    /// replay this group actually runs; a member that shares an earlier
    /// member's replay prints none.
    pub fn with_progress(mut self, what: Option<String>) -> Self {
        self.progress = what;
        self
    }

    /// Replays member `spec` on its machine, every atomic lowered to a
    /// plain store for [`Variant::PlainAtomics`], and persists the report
    /// in `store` under the spec's fingerprint at `scale`. A member whose
    /// [`ReplayKey`] the group has replayed before is not replayed again:
    /// it gets that report with its own machine label. A failed write
    /// (full disk, permissions) degrades to cache-less operation rather
    /// than aborting the run.
    pub fn replay_member(
        &self,
        spec: ExperimentSpec,
        scale: DatasetScale,
        store: Option<&ExperimentStore>,
    ) -> RunReport {
        let (algo, checksum, tape) = (self.algo, self.checksum, &self.tape);
        let system = spec.system();
        let plain_atomics = spec.variant == Variant::PlainAtomics;
        let key = ReplayKey::new(tape, &system, plain_atomics);
        let slot = {
            let mut replays = self.replays.lock().expect("no panics hold the lock");
            match replays.iter().find(|(k, _)| *k == key) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Arc::default();
                    replays.push((key, Arc::clone(&slot)));
                    slot
                }
            }
        };
        let mut report = slot
            .get_or_init(|| {
                if let Some(what) = &self.progress {
                    let tag = if spec.telemetry.enabled {
                        " +telemetry"
                    } else {
                        ""
                    };
                    eprintln!("  [replay] {what} ({}{tag})", spec.machine.label());
                }
                if plain_atomics {
                    replay_plain_atomics(algo, checksum, tape, &system)
                } else {
                    replay(algo, checksum, tape, &system, None)
                }
            })
            .clone();
        report.machine = system.label().to_string();
        if let Some(store) = store {
            if let Err(e) = store.store_report(spec.fingerprint(scale), &spec.label(), &report) {
                eprintln!("  [store] warning: failed to persist {}: {e}", spec.label());
            }
        }
        report
    }

    /// The trace's summary, if [`GroupTrace::new`] was asked for one.
    pub fn summary(&self) -> Option<TraceSummary> {
        self.summary
    }
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
/// exactly these runs, and CI times `figures fig14` cold.
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

/// Memoising experiment session.
///
/// The memo is keyed by [`ExperimentSpec`], whose coordinates (telemetry
/// and variant included) and the session's scale are every input of the
/// store fingerprint, so one session holds telemetry, variant and plain
/// runs side by side. A second memo holds [`TraceSummary`]s by
/// `(dataset, algo)`. Construction is builder-style
/// (`Session::new(scale).verbose(false).jobs(n)`);
/// [`Session::with_store`] additionally backs both memos with a
/// persistent on-disk [`ExperimentStore`].
#[derive(Debug)]
pub struct Session {
    scale: DatasetScale,
    graphs: HashMap<Dataset, CsrGraph>,
    runs: HashMap<ExperimentSpec, RunReport>,
    summaries: HashMap<(Dataset, AlgoKey), TraceSummary>,
    verbose: bool,
    store: Option<ExperimentStore>,
    jobs: Option<usize>,
}

impl Session {
    /// Creates a session at the given dataset scale, verbose, with no
    /// persistent store.
    pub fn new(scale: DatasetScale) -> Self {
        Session {
            scale,
            graphs: HashMap::new(),
            runs: HashMap::new(),
            summaries: HashMap::new(),
            verbose: true,
            store: None,
            jobs: None,
        }
    }

    /// Caps how many trace groups [`Session::prefetch`] works on at once
    /// (the `--jobs N` flag). The default is
    /// [`std::thread::available_parallelism`]. Each replay is serial.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Sets whether progress lines are printed to stderr while running.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Backs the session with a persistent experiment store rooted at
    /// `path` (created if absent): every lookup consults the store before
    /// simulating, and every fresh result is persisted.
    pub fn with_store(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.store = Some(ExperimentStore::open(path)?);
        Ok(self)
    }

    /// The session's persistent store, if one was attached.
    pub fn store(&self) -> Option<&ExperimentStore> {
        self.store.as_ref()
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

    /// Prints where the store served `what` from, when verbose.
    fn served(&self, what: &str) {
        if let (true, Some(store)) = (self.verbose, &self.store) {
            eprintln!("  [store] {what} served from {}", store.root().display());
        }
    }

    /// Loads `spec`'s report from the persistent store into the memo
    /// cache, if a store is attached and holds an intact entry.
    fn load_from_store(&mut self, spec: ExperimentSpec) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let Some(report) = store.load_report(spec.fingerprint(self.scale)) else {
            return false;
        };
        self.served(&spec.label());
        self.runs.insert(spec, report);
        true
    }

    /// Loads `pair`'s trace summary from the persistent store into its
    /// memo, if a store is attached and holds an intact entry.
    fn load_summary(&mut self, pair: (Dataset, AlgoKey)) -> bool {
        let (fp, label) = summary_key(pair, self.scale);
        let Some(summary) = self.store.as_ref().and_then(|s| s.load_summary(fp)) else {
            return false;
        };
        self.served(&label);
        self.summaries.insert(pair, summary);
        true
    }

    /// Runs every experiment in `work` that is not already cached and
    /// stores the reports. Subsequent [`Session::report`] calls are cache
    /// hits. Duplicates collapse, memo hits touch nothing, and store hits
    /// are drained first (no trace, no replay); the rest are simulated
    /// together, one functional trace per trace group.
    pub fn prefetch<S: Into<ExperimentSpec> + Copy>(&mut self, work: &[S]) {
        let runs: Vec<ExperimentSpec> = work.iter().map(|&s| s.into()).collect();
        self.prefetch_with_summaries(&runs, &[]);
    }

    /// [`Session::prefetch`] for `runs`, plus the trace summaries of
    /// `summaries`: a pair whose standard trace group has pending runs
    /// summarises that group's trace, and any other pair is traced for its
    /// summary alone. Subsequent [`Session::summary`] calls are cache hits.
    pub fn prefetch_with_summaries(
        &mut self,
        runs: &[ExperimentSpec],
        summaries: &[(Dataset, AlgoKey)],
    ) {
        let _span = obs::span("session.prefetch");
        let mut seen = HashSet::new();
        let pending: Vec<ExperimentSpec> = runs
            .iter()
            .copied()
            .filter(|&spec| {
                seen.insert(spec) && !self.runs.contains_key(&spec) && !self.load_from_store(spec)
            })
            .collect();
        let mut seen = HashSet::new();
        let wanted: Vec<(Dataset, AlgoKey)> = summaries
            .iter()
            .copied()
            .filter(|&pair| {
                seen.insert(pair) && !self.summaries.contains_key(&pair) && !self.load_summary(pair)
            })
            .collect();
        self.compute(pending, wanted);
    }

    /// Simulates `pending`, distinct specs found in neither the memo nor
    /// the store, summarises the traces of `wanted`, distinct pairs found
    /// in neither either, and memoises the results.
    ///
    /// The specs are grouped by [`trace_groups`]: each group's graph is
    /// shaped, its [`GroupTrace`] collected **once**, and every spec in it
    /// replayed on that trace. A wanted pair marks its standard group, or
    /// adds a group with no specs. `min(jobs, groups)` workers (see
    /// [`Session::jobs`]) take groups in turn, and each replays its
    /// group's specs serially. Simulations are deterministic and
    /// independent, so parallel execution changes nothing but wall-clock
    /// time. Fresh results are persisted from the worker threads (the
    /// store is `Sync`; writes are atomic).
    fn compute(&mut self, mut pending: Vec<ExperimentSpec>, wanted: Vec<(Dataset, AlgoKey)>) {
        if pending.is_empty() && wanted.is_empty() {
            return;
        }
        // Specs that resolve to one configuration (omega and omega-sp1000)
        // share a fingerprint: simulate the first, copy it to its twins.
        let mut first = HashMap::new();
        let mut twins = Vec::new();
        pending.retain(|&spec| {
            let fp = spec.fingerprint(self.scale);
            let of = *first.entry(fp).or_insert(spec);
            if of != spec {
                twins.push((spec, of));
            }
            of == spec
        });
        // One group per (dataset, algorithm, trace variant), in first-seen
        // order: the functional trace is shared by all of the group's specs.
        let mut groups = trace_groups(pending.iter().copied());
        for &(dataset, algo) in &wanted {
            let key = (dataset, algo, Variant::Standard);
            match groups
                .iter_mut()
                .find(|g| (g.dataset, g.algo, g.variant) == key)
            {
                Some(g) => g.summarise = true,
                None => groups.push(TraceGroup {
                    dataset,
                    algo,
                    variant: Variant::Standard,
                    specs: Vec::new(),
                    summarise: true,
                }),
            }
        }
        // Build the graphs the groups shape first (sequential — cheap next
        // to the simulations): a reordering group's dataset built unordered,
        // once for all its orderings, and every other group's standard
        // graph, cached in the session.
        let mut unordered = HashMap::new();
        {
            let _build = obs::span("session.graph_build");
            for group in &groups {
                let d = group.dataset;
                if group.variant.reorders() {
                    unordered.entry(d).or_insert_with(|| {
                        d.build_unordered(self.scale)
                            .expect("dataset parameters are valid")
                    });
                } else {
                    self.graph(d);
                }
            }
        }
        let graphs = &self.graphs;
        let unordered = &unordered;
        let verbose = self.verbose;
        let scale = self.scale;
        let store = self.store.as_ref();
        let jobs = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let workers = jobs.min(groups.len()).max(1);
        let next_group = AtomicUsize::new(0);
        let results: Mutex<Vec<KeyedReport>> = Mutex::new(Vec::with_capacity(pending.len()));
        let summaries: Mutex<Vec<((Dataset, AlgoKey), TraceSummary)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next_group.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(i) else {
                        break;
                    };
                    let (d, a) = (group.dataset, group.algo);
                    let tag = match group.variant {
                        Variant::Standard => String::new(),
                        v => format!(" [{v:?}]"),
                    };
                    let _group =
                        obs::span_owned(format!("session.group:{}/{}{tag}", d.code(), a.name()));
                    let base = if group.variant.reorders() {
                        &unordered[&d]
                    } else {
                        &graphs[&d]
                    };
                    let shaped = group.variant.graph(base);
                    let g = shaped.as_ref().unwrap_or(base);
                    if verbose {
                        eprintln!(
                            "  [trace] {} on {}{tag} (×{} runs{})",
                            a.name(),
                            d.code(),
                            group.specs.len(),
                            if group.summarise { ", summary" } else { "" }
                        );
                    }
                    let exec = group
                        .specs
                        .first()
                        .map_or_else(ExecConfig::default, |spec| exec_for(&spec.system()));
                    let trace = GroupTrace::new(g, a, group.variant, &exec, group.summarise)
                        .with_progress(
                            verbose.then(|| format!("{} on {}{tag}", a.name(), d.code())),
                        );
                    if let Some(summary) = trace.summary() {
                        if let Some(store) = store {
                            let (fp, label) = summary_key((d, a), scale);
                            if let Err(e) = store.store_summary(fp, &label, &summary) {
                                eprintln!("  [store] warning: failed to persist {label}: {e}");
                            }
                        }
                        summaries
                            .lock()
                            .expect("no panics hold the lock")
                            .push(((d, a), summary));
                    }
                    let mut batch = Vec::with_capacity(group.specs.len());
                    for spec in group.specs() {
                        batch.push((spec, trace.replay_member(spec, scale, store)));
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
        self.summaries
            .extend(summaries.into_inner().expect("no panics hold the lock"));
        for (twin, of) in twins {
            let report = self.runs[&of].clone();
            self.runs.insert(twin, report);
        }
    }

    /// Runs (or fetches) one experiment. Lookup order: in-memory memo
    /// cache, then the persistent store (if attached), then a fresh
    /// simulation through the same grouped path as [`Session::prefetch`]
    /// (persisted on the way out).
    pub fn report(&mut self, spec: impl Into<ExperimentSpec>) -> &RunReport {
        let spec = spec.into();
        if !self.runs.contains_key(&spec) && !self.load_from_store(spec) {
            if self.verbose {
                let g = self.graph(spec.dataset);
                eprintln!(
                    "  [run] {} — {} vertices, {} arcs",
                    spec.label(),
                    g.num_vertices(),
                    g.num_arcs()
                );
            }
            self.compute(vec![spec], Vec::new());
        }
        &self.runs[&spec]
    }

    /// The trace summary of algorithm `a` on dataset `d`: memo, then store,
    /// then a fresh trace through the same grouped path as
    /// [`Session::prefetch_with_summaries`].
    pub fn summary(&mut self, d: Dataset, a: AlgoKey) -> TraceSummary {
        let pair = (d, a);
        if !self.summaries.contains_key(&pair) && !self.load_summary(pair) {
            if self.verbose {
                eprintln!("  [run] {}", summary_key(pair, self.scale).1);
            }
            self.compute(Vec::new(), vec![pair]);
        }
        self.summaries[&pair]
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

/// The store key and label of `(d, a)`'s trace summary at `scale`. Every
/// machine traces with the default execution parameters (see
/// [`exec_for`]), so one summary serves the pair's standard groups.
fn summary_key((d, a): (Dataset, AlgoKey), scale: DatasetScale) -> (u64, String) {
    let exec = ExecConfig::default();
    let fp = crate::store::summary_fingerprint(d.code(), scale.code(), a.name(), &exec);
    (fp, format!("trace summary of {}-{}", a.name(), d.code()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::config::{MemoryModel, PinOrder};
    use omega_core::runner::Runner;

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
        assert!(MachineKind::scaled_sp(8).is_ok());
        assert!(MachineKind::scaled_sp(1000).is_ok());
        let err = MachineKind::scaled_sp(7).unwrap_err();
        assert!(err.to_string().contains("below"), "{err}");
        assert_eq!(err.code(), "invalid-config");
        // The validated instance builds the size its label claims.
        let sys = MachineKind::scaled_sp(8).unwrap().system();
        assert_eq!(sys.omega().unwrap().sp_bytes_per_core, 65);
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
    fn prefetch_and_report_tick_the_store_once_per_distinct_spec() {
        use crate::store::StoreCounters;
        let dir =
            std::env::temp_dir().join(format!("omega-prefetch-counters-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let memo_spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline);
        let fresh_spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega);
        let counters = |s: &Session| s.store().unwrap().counters();
        let mut s = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .with_store(&dir)
            .unwrap();
        s.report(memo_spec);
        let computed_one = StoreCounters {
            misses: 1,
            writes: 1,
            ..StoreCounters::default()
        };
        assert_eq!(counters(&s), computed_one);
        // The memo hit touches no counter; the duplicates collapse into one
        // miss and one write.
        s.prefetch(&[memo_spec, fresh_spec, fresh_spec]);
        let computed_two = StoreCounters {
            misses: 2,
            writes: 2,
            ..StoreCounters::default()
        };
        assert_eq!(counters(&s), computed_two);
        assert_eq!(s.runs.len(), 2);
        // A second session over the same store sees the persisted results,
        // through either entry point, and then serves them from its memo.
        let mut s2 = Session::new(DatasetScale::Tiny)
            .verbose(false)
            .with_store(&dir)
            .unwrap();
        s2.prefetch(&[fresh_spec, fresh_spec]);
        s2.report(memo_spec);
        s2.report(memo_spec);
        s2.prefetch(&[memo_spec, fresh_spec]);
        let hits_only = StoreCounters {
            hits: 2,
            ..StoreCounters::default()
        };
        assert_eq!(counters(&s2), hits_only);
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
        let fp = |s: ExperimentSpec| s.fingerprint(DatasetScale::Tiny);
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
        let mut other = base;
        other.telemetry = TelemetryConfig::windowed(4096);
        assert_ne!(fp(base), fp(other));
        // The scale also keys the store.
        assert_ne!(fp(base), base.fingerprint(DatasetScale::Small));
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
        // Prefetched results are identical to an independent `Runner` run.
        for spec in work.map(ExperimentSpec::from) {
            let g = s.graph(spec.dataset).clone();
            let fresh = Runner::new(spec.system()).run(&g, spec.algo.algo(&g));
            assert_eq!(s.report(spec), &fresh, "{}", spec.label());
        }
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

    /// `spec` with windowed telemetry.
    fn observed(spec: (Dataset, AlgoKey, MachineKind)) -> ExperimentSpec {
        ExperimentSpec {
            telemetry: TelemetryConfig::windowed(4096),
            ..spec.into()
        }
    }

    #[test]
    fn session_telemetry_setting_reaches_the_reports() {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        // Both entry points: a `report` miss and a prefetch.
        let direct = s
            .report(observed((
                Dataset::Sd,
                AlgoKey::PageRank,
                MachineKind::Omega,
            )))
            .clone();
        assert!(direct.telemetry.is_some());
        let bfs = observed((Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline));
        s.prefetch(&[bfs]);
        assert!(s.report(bfs).telemetry.is_some());
    }

    #[test]
    fn telemetry_and_plain_runs_share_one_session_and_one_trace_group() {
        let plain = ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega);
        let tel = observed((Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega));
        let groups = trace_groups([plain, tel]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].specs().collect::<Vec<_>>(), [plain, tel]);
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        s.prefetch(&[plain, tel]);
        assert_eq!(s.runs.len(), 2);
        let (p, t) = (s.runs[&plain].clone(), &s.runs[&tel]);
        assert!(p.telemetry.is_none() && t.telemetry.is_some());
        // Telemetry observes; it changes no simulated number.
        assert_eq!((p.total_cycles, &p.mem), (t.total_cycles, &t.mem));
    }

    #[test]
    fn undirected_algos_gated_by_dataset() {
        let mut s = Session::new(DatasetScale::Tiny).verbose(false);
        assert!(!s.supports((Dataset::Lj, AlgoKey::Cc)));
        assert!(s.supports((Dataset::Ap, AlgoKey::Cc)));
        assert!(s.supports((Dataset::Lj, AlgoKey::PageRank)));
    }
}
