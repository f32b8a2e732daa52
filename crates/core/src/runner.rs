//! One-call experiment execution: functional run → trace → lowering →
//! timing replay → report.
//!
//! [`Runner`] is the entry point used by the examples, the integration
//! tests and the audit. It executes an algorithm functionally under the
//! tracing framework, lowers the trace once into a [`Tape`], and replays
//! the tape cycle-accurately on each requested machine, returning a
//! [`RunReport`] per machine with the functional checksum (identical
//! across machines — the architecture must not change results) and all
//! timing/memory statistics. The free function [`replay`] is the one
//! replay path underneath: it replays a tape on one machine, serially,
//! and is what the builder, the audit, the benchmark session's grouped
//! compute and the service call. It also does, once for every memory
//! model, the two steps that read a model's merged statistics: it samples
//! the telemetry windows and, when audited, checks cross-component flow
//! conservation. [`exec_for`] is the one rule for the execution parameters
//! a trace is collected with, and [`ReplayKey`] says when two machines
//! replay one tape alike.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::{MemoryModel, OmegaConfig, PimRankConfig, SystemConfig};
use crate::controller::ScratchpadController;
use crate::layout::Layout;
use crate::lower::{Tape, Target};
use crate::machine::OmegaMemory;
use crate::pim::PimRankMemory;
use crate::pinned::pinned_hierarchy;
use omega_graph::CsrGraph;
use omega_ligra::algorithms::Algo;
use omega_ligra::trace::{CollectingTracer, RawTrace, TraceMeta};
use omega_ligra::{Ctx, ExecConfig};
use omega_sim::audit::{self, AuditReport};
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::obs;
use omega_sim::stats::MemStats;
use omega_sim::telemetry::{TelemetryReport, WindowSampler};
use omega_sim::{
    engine, AccessOutcome, Cycle, EngineReport, MachineConfig, MemAccess, MemorySystem,
};

/// The framework execution parameters a trace for `system` uses: the
/// default [`ExecConfig`] with the machine's core count. Every machine
/// kind shares one core count, so one trace serves them all.
pub fn exec_for(system: &SystemConfig) -> ExecConfig {
    ExecConfig {
        n_cores: system.machine.core.n_cores,
        ..ExecConfig::default()
    }
}

/// Builder over the trace/replay pipeline: one functional trace, replayed
/// on one or more machines.
///
/// ```
/// use omega_core::config::SystemConfig;
/// use omega_core::runner::Runner;
/// use omega_graph::datasets::{Dataset, DatasetScale};
/// use omega_ligra::algorithms::Algo;
///
/// let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
/// let reports = Runner::new(SystemConfig::mini_baseline())
///     .also(SystemConfig::mini_omega())
///     .run_many(&g, Algo::PageRank { iters: 1 });
/// assert_eq!(reports[0].checksum, reports[1].checksum);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    systems: Vec<SystemConfig>,
}

impl Runner {
    /// A runner targeting one machine. It traces with [`exec_for`] this
    /// (first) machine.
    pub fn new(system: SystemConfig) -> Self {
        Runner {
            systems: vec![system],
        }
    }

    /// Adds another machine replaying the same functional trace. All
    /// machines must share the first machine's core count — the trace is
    /// per-core.
    pub fn also(mut self, system: SystemConfig) -> Self {
        self.systems.push(system);
        self
    }

    /// Traces `algo` on `g` once, lowers it once, and replays it on every
    /// target machine, returning one report per
    /// [`Runner::new`]/[`Runner::also`] machine in order.
    pub fn run_many(&self, g: &CsrGraph, algo: Algo) -> Vec<RunReport> {
        let (checksum, tape) = self.tape(g, algo);
        self.systems
            .iter()
            .map(|sys| replay(algo.name(), checksum, &tape, sys, None))
            .collect()
    }

    /// Like [`Runner::run_many`], but runs the model-conservation audit
    /// after each replay and returns the audit report alongside each run
    /// report — the `audit` binary's collection path.
    pub fn run_many_audited(&self, g: &CsrGraph, algo: Algo) -> Vec<(RunReport, AuditReport)> {
        let (checksum, tape) = self.tape(g, algo);
        self.systems
            .iter()
            .map(|sys| {
                let mut audit = AuditReport::new();
                let report = replay(algo.name(), checksum, &tape, sys, Some(&mut audit));
                (report, audit)
            })
            .collect()
    }

    /// Traces `algo` on `g` with [`exec_for`] the first machine and lowers
    /// the trace into the tape every machine replays.
    fn tape(&self, g: &CsrGraph, algo: Algo) -> (f64, Tape) {
        let (checksum, raw, meta) = trace_algorithm(g, algo, &exec_for(&self.systems[0]));
        (checksum, Tape::from_raw(raw, meta))
    }

    /// Runs end to end on the first (usually only) target machine.
    pub fn run(&self, g: &CsrGraph, algo: Algo) -> RunReport {
        self.run_many(g, algo)
            .into_iter()
            .next()
            .expect("a runner always has at least one machine")
    }
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Algorithm name.
    pub algo: String,
    /// Machine label ("baseline" / "omega").
    pub machine: String,
    /// Deterministic functional result summary (machine-independent).
    pub checksum: f64,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Engine-side cycle attribution.
    pub engine: EngineReport,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Number of scratchpad-resident vertices (0 on the baseline).
    pub hot_count: u32,
    /// Vertices in the graph.
    pub n_vertices: u64,
    /// Stored arcs in the graph.
    pub n_arcs: u64,
    /// Telemetry collected during the replay; `None` unless the machine
    /// config enabled it (`system.machine.telemetry`).
    pub telemetry: Option<TelemetryReport>,
}

impl RunReport {
    /// Speedup of this run relative to `other` (`other` is the baseline).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        other.total_cycles as f64 / self.total_cycles as f64
    }
}

/// Number of functional (tracing) runs executed by this process — a probe
/// for tests asserting that harnesses share traces instead of re-running
/// the functional phase per machine configuration.
static FUNCTIONAL_TRACES: AtomicU64 = AtomicU64::new(0);

/// How many functional traces this process has collected so far.
pub fn functional_trace_count() -> u64 {
    FUNCTIONAL_TRACES.load(Ordering::Relaxed)
}

/// Number of timing replays executed by this process — the counterpart of
/// [`functional_trace_count`] used by the warm-store CI check to prove a
/// cached sweep simulates nothing at all.
static TIMING_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// How many timing replays this process has executed so far.
pub fn timing_replay_count() -> u64 {
    TIMING_REPLAYS.load(Ordering::Relaxed)
}

/// Runs `algo` on `g` functionally, collecting the trace (shared step of
/// every experiment). Returns `(checksum, raw trace, meta)`.
pub fn trace_algorithm(g: &CsrGraph, algo: Algo, exec: &ExecConfig) -> (f64, RawTrace, TraceMeta) {
    trace_with(g, exec, |ctx| algo.run(g, ctx).checksum())
}

/// The one tracing path: runs `kernel` over `g` under a collecting tracer
/// and returns `(kernel's checksum, raw trace, meta)`. [`trace_algorithm`]
/// passes a Ligra [`Algo`]; the benchmark session also passes the
/// GraphMat-style PageRank (§V.F).
pub fn trace_with(
    g: &CsrGraph,
    exec: &ExecConfig,
    kernel: impl FnOnce(&mut Ctx<'_>) -> f64,
) -> (f64, RawTrace, TraceMeta) {
    let _span = obs::span("runner.trace");
    FUNCTIONAL_TRACES.fetch_add(1, Ordering::Relaxed);
    let mut tracer = CollectingTracer::new(exec.n_cores);
    let mut ctx = Ctx::new(*exec, &mut tracer);
    let checksum = kernel(&mut ctx);
    let meta = ctx.meta_for(g.num_vertices() as u64, g.num_arcs(), g.is_weighted());
    (checksum, tracer.finish(), meta)
}

/// Replays the lowered trace of `algo` (functional result `checksum`) on
/// `system` and builds its [`RunReport`]. This is the one replay path:
/// [`Runner`], the audit, the benchmark session's grouped prefetch and the
/// service all reuse one functional run, lowered once into a [`Tape`],
/// across many machines through it.
///
/// The engine pulls the tape's ops through [`Tape::source`], which
/// applies the machine's one lowering difference (OMEGA absorbs fused
/// dense activations of its resident vertices) as it decodes, and the
/// timing loop runs serially on the calling thread.
///
/// With `audit` set, the model-conservation audit runs alongside: the
/// machine's internal ledgers are checked after the replay (before
/// telemetry is consumed), then the merged memory stats, the engine report
/// and the telemetry are checked against each other. Violations are
/// collected into `audit`, not panicked on.
pub fn replay(
    algo: &str,
    checksum: f64,
    tape: &Tape,
    system: &SystemConfig,
    audit: Option<&mut AuditReport>,
) -> RunReport {
    replay_lowered(algo, checksum, tape, system, false, audit)
}

/// [`replay`] with every atomic lowered to a plain store
/// ([`Target::BaselinePlainAtomics`]): the paper's §III way of measuring
/// what atomic instructions cost. Only the baseline lowering has this
/// form; on an OMEGA machine the result equals [`replay`]'s.
pub fn replay_plain_atomics(
    algo: &str,
    checksum: f64,
    tape: &Tape,
    system: &SystemConfig,
) -> RunReport {
    replay_lowered(algo, checksum, tape, system, true, None)
}

/// The lowering a replay of `tape` on `system` decodes: OMEGA absorbs the
/// activations of its resident vertices, and every other model sees the
/// baseline lowering, its atomics demoted to stores for `plain_atomics`.
fn target_for(tape: &Tape, system: &SystemConfig, plain_atomics: bool) -> Target {
    match system.model {
        MemoryModel::Omega(omega) => Target::Omega {
            hot_count: ScratchpadController::hot_count_for(
                tape.meta(),
                system.machine.core.n_cores,
                omega.sp_bytes_per_core,
            ),
        },
        _ if plain_atomics => Target::BaselinePlainAtomics,
        _ => Target::Baseline,
    }
}

fn replay_lowered(
    algo: &str,
    checksum: f64,
    tape: &Tape,
    system: &SystemConfig,
    plain_atomics: bool,
    mut audit: Option<&mut AuditReport>,
) -> RunReport {
    let _span = obs::span("runner.replay");
    // In trace mode, scope a simulated session so the memory models built
    // below capture their cycle-domain intervals under this machine's
    // label. Inert (one branch) otherwise.
    let _sim = obs::sim_session(system.label());
    TIMING_REPLAYS.fetch_add(1, Ordering::Relaxed);
    let meta = tape.meta();
    let mut mem = Memory::build(system, tape.layout(), meta);
    let target = target_for(tape, system, plain_atomics);
    let engine_report = engine::run_source(&mut tape.source(target), &mut mem, &system.machine);
    let stats = mem.model.stats();
    if let Some(out) = audit.as_deref_mut() {
        mem.audit_into(out);
        audit::check_mem_stats(&stats, out);
        audit::check_engine(&engine_report, out);
    }
    let telemetry = mem.take_telemetry();
    if let (Some(out), Some(telemetry)) = (audit, &telemetry) {
        audit::check_telemetry(&stats, telemetry, out);
    }
    RunReport {
        algo: algo.to_string(),
        machine: system.label().to_string(),
        checksum,
        total_cycles: engine_report.total_cycles,
        engine: engine_report,
        mem: stats,
        hot_count: match target {
            Target::Omega { hot_count } => hot_count,
            _ => 0,
        },
        n_vertices: meta.n_vertices,
        n_arcs: meta.n_arcs,
        telemetry,
    }
}

/// What a replay of one [`Tape`] depends on: two machines with equal keys
/// for a tape replay it to equal [`RunReport`]s, the `machine` label
/// aside, so a trace group replays each distinct key once.
///
/// The key is the lowering [`Target`], the [`MachineConfig`] (telemetry
/// included) and the memory model, with exactly three normalisations of
/// the model, each for a setting that this tape cannot tell apart:
///
/// 1. OMEGA's `sp_bytes_per_core` is cleared: the `hot_count` it yields
///    is in the target, and nothing else reads it during a replay.
/// 2. OMEGA's source-vertex buffer (`svb_enabled`, `svb_entries`) is
///    cleared when the tape has no stable read of a monitored property
///    (`Tape::reads_monitored_sources`), the only op the buffer serves.
/// 3. A pinned model becomes the sorted lines its L2 banks accepted
///    ([`pinned_hierarchy`]), which decide its behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayKey {
    target: Target,
    machine: MachineConfig,
    model: ModelKey,
}

/// The memory-model part of a [`ReplayKey`].
#[derive(Debug, Clone, PartialEq)]
enum ModelKey {
    Baseline,
    Omega(OmegaConfig),
    PimRank(PimRankConfig),
    Pinned(Vec<u64>),
}

impl ReplayKey {
    /// The key of replaying `tape` on `system`, through
    /// [`replay_plain_atomics`] when `plain_atomics` is set and through
    /// [`replay`] otherwise.
    pub fn new(tape: &Tape, system: &SystemConfig, plain_atomics: bool) -> ReplayKey {
        let machine = system.machine;
        let model = match system.model {
            MemoryModel::Baseline => ModelKey::Baseline,
            MemoryModel::Omega(omega) => {
                let svb = tape.reads_monitored_sources();
                ModelKey::Omega(OmegaConfig {
                    sp_bytes_per_core: 0,
                    svb_enabled: svb && omega.svb_enabled,
                    svb_entries: if svb { omega.svb_entries } else { 0 },
                    ..omega
                })
            }
            MemoryModel::PimRank(pim) => ModelKey::PimRank(pim),
            MemoryModel::Pinned {
                bytes_per_core,
                order,
            } => {
                let (_, lines) =
                    pinned_hierarchy(&machine, tape.layout(), tape.meta(), bytes_per_core, order);
                ModelKey::Pinned(lines)
            }
        };
        ReplayKey {
            target: target_for(tape, system, plain_atomics),
            machine,
            model,
        }
    }
}

/// Compatibility shim for the `omegabench` ledger, which calls
/// `replay_parallel(&raw, &meta, &sys, 1)` and destructures the tuple. It
/// lowers `raw` into a [`Tape`] and makes one call to [`replay`];
/// `parallelism` never changed a result and is ignored. It goes when a
/// benchmark change moves `omegabench` to [`replay`].
#[doc(hidden)]
pub fn replay_parallel(
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
    _parallelism: usize,
) -> (EngineReport, MemStats, u32, Option<TelemetryReport>) {
    let r = replay("", 0.0, &Tape::new(raw, meta), system, None);
    (r.engine, r.mem, r.hot_count, r.telemetry)
}

/// The memory system a [`SystemConfig`] replays on: the concrete model
/// and, when `system.machine.telemetry` is on, the window sampler. Every
/// model keeps its own counters and histograms; the sampler snapshots the
/// model's merged [`MemStats`] (scratchpad and PIM counters included), so
/// windows are sampled here, once, for every model.
#[derive(Debug)]
struct Memory {
    model: Model,
    sampler: Option<WindowSampler>,
}

/// One variant per concrete model, built by [`Memory::build`]'s one
/// `match` over [`MemoryModel`]. The pinned rivals are plain hierarchies
/// once their lines are pinned.
///
/// There is one value per replay, so the variants' size spread costs
/// nothing, while boxing would add a pointer chase to every access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Model {
    Hierarchy(CacheHierarchy),
    Omega(OmegaMemory),
    PimRank(PimRankMemory),
}

/// Evaluates `$body` with `$m` bound to the concrete model `$model` holds.
macro_rules! each_model {
    ($model:expr, $m:ident => $body:expr) => {
        match $model {
            Model::Hierarchy($m) => $body,
            Model::Omega($m) => $body,
            Model::PimRank($m) => $body,
        }
    };
}

impl Model {
    /// The model's merged statistics.
    fn stats(&self) -> MemStats {
        each_model!(self, m => m.stats())
    }
}

impl Memory {
    fn build(system: &SystemConfig, layout: &Layout, meta: &TraceMeta) -> Memory {
        let model = match system.model {
            MemoryModel::Baseline => Model::Hierarchy(CacheHierarchy::new(&system.machine)),
            MemoryModel::Omega(_) => Model::Omega(OmegaMemory::new(system, layout.clone(), meta)),
            MemoryModel::PimRank(_) => {
                Model::PimRank(PimRankMemory::new(system, layout.clone(), meta))
            }
            MemoryModel::Pinned {
                bytes_per_core,
                order,
            } => Model::Hierarchy(
                pinned_hierarchy(&system.machine, layout, meta, bytes_per_core, order).0,
            ),
        };
        let telemetry = system.machine.telemetry;
        Memory {
            model,
            sampler: telemetry
                .enabled
                .then(|| WindowSampler::new(telemetry.window_cycles)),
        }
    }
}

impl MemorySystem for Memory {
    fn access(&mut self, core: usize, access: MemAccess, now: Cycle) -> AccessOutcome {
        // One compare on the common path; the merged stats are only
        // assembled when a window boundary has passed.
        if let Some(sampler) = self.sampler.as_mut().filter(|s| s.due(now)) {
            sampler.tick(now, &self.model.stats());
        }
        each_model!(&mut self.model, m => m.access(core, access, now))
    }

    fn barrier(&mut self, now: Cycle) {
        each_model!(&mut self.model, m => m.barrier(now))
    }

    fn finish(&mut self, now: Cycle) {
        if let Some(sampler) = &mut self.sampler {
            sampler.flush(now, &self.model.stats());
        }
        each_model!(&mut self.model, m => m.finish(now))
    }

    /// The model's histograms, with the windows sampled here.
    fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let mut report = each_model!(&mut self.model, m => m.take_telemetry())?;
        if let Some(sampler) = self.sampler.take() {
            report.windows = sampler.into_samples();
        }
        Some(report)
    }

    fn audit_into(&self, out: &mut AuditReport) {
        each_model!(&self.model, m => m.audit_into(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::datasets::{Dataset, DatasetScale};
    use omega_ligra::algorithms::Algo;

    #[test]
    fn baseline_and_omega_compute_identical_results() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let [base, omega]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, algo)
            .try_into()
            .unwrap();
        assert_eq!(base.checksum, omega.checksum);
        assert!(base.total_cycles > 0);
        assert!(omega.total_cycles > 0);
    }

    #[test]
    fn omega_speeds_up_pagerank_on_a_natural_graph() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let [base, omega]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, algo)
            .try_into()
            .unwrap();
        let speedup = omega.speedup_over(&base);
        assert!(speedup > 1.2, "expected a clear win, got {speedup:.2}x");
    }

    #[test]
    fn omega_uses_scratchpads_baseline_does_not() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::Bfs { root: 0 }.with_default_root(&g);
        let [base, omega]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, algo)
            .try_into()
            .unwrap();
        assert_eq!(base.mem.scratchpad.accesses(), 0);
        assert!(omega.mem.scratchpad.accesses() > 0);
        assert_eq!(base.hot_count, 0);
        assert!(omega.hot_count > 0);
    }

    #[test]
    fn reports_are_deterministic() {
        let g = Dataset::Ap.build(DatasetScale::Tiny).unwrap();
        let runner = Runner::new(SystemConfig::mini_omega());
        let a = runner.run(&g, Algo::Cc);
        let b = runner.run(&g, Algo::Cc);
        assert_eq!(a, b);
    }

    #[test]
    fn builder_matches_the_free_replay() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let runner = Runner::new(SystemConfig::mini_baseline()).also(SystemConfig::mini_omega());
        let exec = exec_for(&SystemConfig::mini_baseline());
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec);
        let tape = Tape::from_raw(raw, meta);
        let free: Vec<RunReport> = runner
            .systems
            .iter()
            .map(|sys| replay(algo.name(), checksum, &tape, sys, None))
            .collect();
        assert_eq!(runner.run_many(&g, algo), free);
    }

    #[test]
    fn builder_applies_telemetry_and_chunk_overrides() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let mut sys = SystemConfig::mini_baseline();
        sys.machine.telemetry = omega_sim::telemetry::TelemetryConfig::windowed(4096);
        assert!(Runner::new(sys).run(&g, algo).telemetry.is_some());
        // The chunk is set on the trace's execution parameters.
        let exec = ExecConfig {
            chunk_size: 8,
            ..exec_for(&sys)
        };
        assert_eq!(exec.chunk_size, 8);
        assert_eq!(exec.n_cores, sys.machine.core.n_cores);
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec);
        let r = replay(
            algo.name(),
            checksum,
            &Tape::from_raw(raw, meta),
            &sys,
            None,
        );
        assert!(r.telemetry.is_some());
    }

    #[test]
    fn run_many_shares_one_trace_and_counts_replays() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let traces0 = functional_trace_count();
        let replays0 = timing_replay_count();
        let reports = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .also(SystemConfig::mini_locked_cache())
            .also(SystemConfig::mini_pim_rank())
            .also(SystemConfig::mini_specialized_cache())
            .run_many(&g, Algo::Bfs { root: 0 }.with_default_root(&g));
        assert_eq!(reports.len(), 5);
        // Same functional result on every machine.
        for r in &reports[1..] {
            assert_eq!(r.checksum, reports[0].checksum);
        }
        // Counters are process-global; other parallel tests can only add.
        assert!(functional_trace_count() > traces0);
        assert!(timing_replay_count() >= replays0 + 5);
    }

    #[test]
    fn audited_runs_are_clean_and_match_unaudited_reports() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let algo = Algo::PageRank { iters: 1 };
        let observed = |mut sys: SystemConfig| {
            sys.machine.telemetry = omega_sim::telemetry::TelemetryConfig::windowed(4096);
            sys
        };
        let runner = Runner::new(observed(SystemConfig::mini_baseline()))
            .also(observed(SystemConfig::mini_omega()))
            .also(observed(SystemConfig::mini_locked_cache()))
            .also(observed(SystemConfig::mini_pim_rank()))
            .also(observed(SystemConfig::mini_specialized_cache()));
        let (audited, audits): (Vec<RunReport>, Vec<AuditReport>) =
            runner.run_many_audited(&g, algo).into_iter().unzip();
        assert_eq!(
            audited,
            runner.run_many(&g, algo),
            "auditing must not perturb the model"
        );
        // The counts pin that each replay runs every check once: the model's
        // ledgers, the merged-stats flow checks, the engine and the
        // telemetry. PIM-rank adds its rank ledger.
        let checks: Vec<u64> = audits.iter().map(AuditReport::checks_run).collect();
        assert_eq!(checks, [57, 57, 57, 58, 57]);
        for (report, audit) in audited.iter().zip(&audits) {
            assert!(
                audit.is_clean(),
                "{} on {}:\n{audit}",
                report.algo,
                report.machine
            );
        }
    }

    #[test]
    fn offchip_replay_audits_the_channel_pim_ledgers() {
        // omega-offchip's §IX.2 channel engines are the PIM-rank engine
        // with one rank per channel, so the rank-ledger check runs on it:
        // one check more than the same replay without the extensions, and
        // it passes. sd is fully resident at tiny scale, so a 64 B
        // scratchpad variant makes cold vertices whose atomics reach the
        // ledgers.
        use crate::config::OmegaConfig;
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let exec = exec_for(&SystemConfig::mini_omega());
        let (_, raw, meta) = trace_algorithm(&g, Algo::PageRank { iters: 1 }, &exec);
        let tape = Tape::from_raw(raw, meta);
        for sp_bytes_per_core in [OmegaConfig::default().sp_bytes_per_core, 64] {
            let machine = |offchip| {
                SystemConfig::omega_from_baseline(
                    omega_sim::MachineConfig::mini_baseline(),
                    OmegaConfig {
                        sp_bytes_per_core,
                        offchip,
                        ..OmegaConfig::default()
                    },
                )
            };
            let audited = |offchip| {
                let mut audit = AuditReport::new();
                let report = replay("pagerank", 0.0, &tape, &machine(offchip), Some(&mut audit));
                (report.mem, audit)
            };
            let (stats, offchip) = audited(true);
            let (_, standard) = audited(false);
            assert!(offchip.is_clean(), "{offchip}");
            assert_eq!(offchip.checks_run(), 47);
            assert_eq!(standard.checks_run(), 46);
            if sp_bytes_per_core == 64 {
                assert!(stats.scratchpad.pim_ops > 0, "cold atomics reach the PIMs");
            }
        }
    }

    #[test]
    fn omega_reduces_onchip_traffic_for_pagerank() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let [base, omega]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, Algo::PageRank { iters: 1 })
            .try_into()
            .unwrap();
        assert!(
            omega.mem.noc.bytes < base.mem.noc.bytes,
            "word-granularity packets must cut traffic: {} vs {}",
            omega.mem.noc.bytes,
            base.mem.noc.bytes
        );
    }
}
