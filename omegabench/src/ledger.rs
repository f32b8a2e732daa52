//! The per-layer ledger: each layer timed alone around its public entry
//! point on the workload's probe graph (PageRank), plus the deterministic
//! simulated counts a speed-only change must leave identical.

use crate::host::TempDir;
use crate::serving::{rtt_probe, RttProbe};
use crate::spans::Span;
use crate::stats::median;
use crate::sweep::shuffle;
use crate::workload::{machine_kinds, Params, Workload};
use omega_bench::session::{AlgoKey, MachineKind};
use omega_bench::store::codec::{report_from_json, report_to_json};
use omega_bench::ExperimentStore;
use omega_core::layout::Layout;
use omega_core::lower::{LoweringStream, Target};
use omega_core::runner::{replay_parallel, trace_algorithm, RunReport};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_graph::CsrGraph;
use omega_ligra::trace::{RawTrace, TraceMeta};
use omega_ligra::ExecConfig;
use omega_sim::engine::{run_source, VecOpSource};
use omega_sim::stats::MemStats;
use omega_sim::{
    AccessKind, AccessOutcome, Blocking, CoreOp, EngineReport, MemAccess, MemorySystem, OpSource,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Repetitions of the short probes (trace, lowering, engine); the median
/// is reported.
const REPS: usize = 3;
/// Repetitions of the store codec and I/O probes.
const STORE_REPS: usize = 50;

/// A named metric value.
pub type Metrics = Vec<(String, f64)>;

/// The functional trace of the probe: PageRank on the workload's probe
/// graph.
pub struct ProbeTrace {
    graph: CsrGraph,
    raw: RawTrace,
    meta: TraceMeta,
}

fn exec() -> ExecConfig {
    ExecConfig {
        n_cores: MachineKind::Baseline.system().machine.core.n_cores,
        ..ExecConfig::default()
    }
}

impl ProbeTrace {
    /// Builds the probe graph and traces PageRank on it.
    pub fn new(dataset: Dataset, scale: DatasetScale) -> ProbeTrace {
        let graph = dataset
            .build(scale)
            .expect("dataset registry parameters are valid");
        let (_, raw, meta) = trace_algorithm(&graph, AlgoKey::PageRank.algo(&graph), &exec());
        ProbeTrace { graph, raw, meta }
    }

    /// Drains a baseline `LoweringStream` with no engine attached,
    /// returning the lowered ops per core.
    fn lower(&self) -> Vec<Vec<CoreOp>> {
        let layout = Layout::new(&self.meta);
        let mut stream = LoweringStream::new(&self.raw, &layout, Target::Baseline);
        (0..stream.n_cores())
            .map(|core| std::iter::from_fn(|| stream.next(core)).collect())
            .collect()
    }
}

/// One machine kind's replay of the probe trace.
struct Replay {
    kind: MachineKind,
    secs: f64,
    ops: u64,
    engine: EngineReport,
    mem: MemStats,
}

/// Replays the probe on every machine kind, in seed order, on `threads`
/// threads (timings are only meaningful with one).
fn replay_all(probe: &ProbeTrace, seed: u64, threads: usize, parent: &Span) -> Vec<Replay> {
    let mut kinds = machine_kinds();
    shuffle(&mut kinds, &mut SmallRng::seed_from_u64(seed));
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Replay>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                while let Some(&kind) = kinds.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let sys = crate::verify::system_for(kind);
                    let span = parent.child(format!("replay:{}", kind.label()));
                    let t = Instant::now();
                    let (engine, mem, _, _) = replay_parallel(&probe.raw, &probe.meta, &sys, 1);
                    let secs = t.elapsed().as_secs_f64();
                    drop(span);
                    done.lock()
                        .expect("no replay thread panicked")
                        .push(Replay {
                            kind,
                            secs,
                            ops: engine.per_core.iter().map(|c| c.ops).sum(),
                            engine,
                            mem,
                        });
                }
            });
        }
    });
    let mut done = done.into_inner().expect("no replay thread panicked");
    done.sort_by_key(|r| machine_kinds().iter().position(|&k| k == r.kind));
    done
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The deterministic counts: identical on every run of any seed, and
/// under any change that only makes the simulator faster.
fn count_metrics(probe: &ProbeTrace, lower_ops: u64, replays: &[Replay]) -> Metrics {
    let mut out: Metrics = vec![
        (
            "sim.cycles".into(),
            replays.iter().map(|r| r.engine.total_cycles as f64).sum(),
        ),
        ("lower.ops".into(), lower_ops as f64),
        ("ligra.events".into(), probe.raw.events() as f64),
    ];
    for r in replays {
        let k = r.kind.label();
        out.push((
            format!("mem.{k}.l2_hit_ratio"),
            ratio(r.mem.l2.hits, r.mem.l2.accesses()),
        ));
        out.push((
            format!("mem.{k}.dram_accesses"),
            r.mem.dram.accesses() as f64,
        ));
        out.push((format!("mem.{k}.noc_packets"), r.mem.noc.packets as f64));
        if r.kind == MachineKind::Omega {
            let sp = r.mem.scratchpad;
            out.push((
                "mem.omega.sp_hit_ratio".into(),
                ratio(sp.accesses(), sp.accesses() + sp.range_misses),
            ));
        }
    }
    out
}

/// The deterministic counts of `workload`'s probe at `scale`, replaying
/// the machine kinds in `seed` order on `threads` threads.
pub fn counts(workload: Workload, seed: u64, scale: DatasetScale, threads: usize) -> Metrics {
    let probe = ProbeTrace::new(workload.probe_dataset(), scale);
    let lower_ops = probe.lower().iter().map(|t| t.len() as u64).sum();
    let replays = replay_all(&probe, seed, threads, &Span::root("counts"));
    count_metrics(&probe, lower_ops, &replays)
}

/// A memory system that completes every access after a fixed latency,
/// with the blocking behaviour the baseline gives each access kind: it
/// isolates the engine's own scheduling cost.
struct FixedLatency;

impl MemorySystem for FixedLatency {
    fn access(&mut self, _core: usize, access: MemAccess, now: u64) -> AccessOutcome {
        let blocking = match access.kind {
            AccessKind::Read | AccessKind::ReadStable => Blocking::Window,
            AccessKind::Write => Blocking::None,
            AccessKind::Atomic(_) => Blocking::Full,
        };
        AccessOutcome {
            completion: now + 20,
            blocking,
        }
    }
}

fn timed<T>(parent: &Span, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = parent.child(name);
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// What the layer probes produced.
pub struct Ledger {
    /// Per-layer metrics, the counts excluded.
    pub metrics: Metrics,
    /// The deterministic counts.
    pub counts: Metrics,
    /// Anything that failed.
    pub problems: Vec<String>,
}

/// Runs every layer probe.
pub fn run(p: &Params, parent: &Span) -> Ledger {
    let span = parent.child("ledger");
    let mut out: Metrics = Vec::new();

    // graph: build every dataset the workload touches.
    let ((), build_s) = timed(&span, "graph.build", || {
        for &d in p.workload.datasets() {
            d.build(p.scale)
                .expect("dataset registry parameters are valid");
        }
    });
    out.push(("graph.build_ms".into(), build_s * 1e3));

    // ligra: the functional trace.
    let mut trace_s = Vec::new();
    let mut probe = None;
    for _ in 0..REPS {
        let graph = p
            .workload
            .probe_dataset()
            .build(p.scale)
            .expect("dataset registry parameters are valid");
        let algo = AlgoKey::PageRank.algo(&graph);
        let ((_, raw, meta), s) = timed(&span, "ligra.trace", || {
            trace_algorithm(&graph, algo, &exec())
        });
        trace_s.push(s);
        probe = Some(ProbeTrace { graph, raw, meta });
    }
    let probe = probe.expect("REPS > 0");
    let events = probe.raw.events() as f64;
    out.push(("ligra.trace_ms".into(), median(&trace_s) * 1e3));
    out.push(("ligra.ns_per_event".into(), median(&trace_s) * 1e9 / events));

    // core lowering, alone.
    let mut lower_s = Vec::new();
    let mut lowered = Vec::new();
    for _ in 0..REPS {
        let (ops, s) = timed(&span, "lower.drain", || probe.lower());
        lower_s.push(s);
        lowered = ops;
    }
    let lower_ops: u64 = lowered.iter().map(|t| t.len() as u64).sum();
    let lower_ns = median(&lower_s) * 1e9 / lower_ops as f64;
    out.push(("lower.ns_per_op".into(), lower_ns));

    // sim engine over pre-lowered ops and a fixed-latency memory.
    let machine = MachineKind::Baseline.system().machine;
    let mut engine_s = Vec::new();
    for _ in 0..REPS {
        let mut source = VecOpSource::new(lowered.clone());
        let (_, s) = timed(&span, "engine.run_source", || {
            run_source(&mut source, &mut FixedLatency, &machine)
        });
        engine_s.push(s);
    }
    let engine_ns = median(&engine_s) * 1e9 / lower_ops as f64;
    out.push(("engine.ns_per_op".into(), engine_ns));

    // memory models: full replays; the model's share is what the
    // lowering and the engine alone do not explain.
    let replays = replay_all(&probe, p.seed, 1, &span);
    for r in &replays {
        let k = r.kind.label();
        let replay_ns = r.secs * 1e9 / r.ops as f64;
        out.push((format!("replay.{k}.ns_per_op"), replay_ns));
        out.push((
            format!("mem.{k}.ns_per_op"),
            replay_ns - lower_ns - engine_ns,
        ));
    }
    let counts = count_metrics(&probe, lower_ops, &replays);

    // bench store: codec and file I/O on the omega report.
    let omega = replays
        .iter()
        .find(|r| r.kind == MachineKind::Omega)
        .expect("omega is a machine kind");
    let report = RunReport {
        algo: "PageRank".into(),
        machine: "omega".into(),
        checksum: 1.0,
        total_cycles: omega.engine.total_cycles,
        engine: omega.engine.clone(),
        mem: omega.mem,
        hot_count: 0,
        n_vertices: probe.graph.num_vertices() as u64,
        n_arcs: probe.graph.num_arcs(),
        telemetry: None,
    };
    let (mut enc, mut dec, mut write, mut load) = (vec![], vec![], vec![], vec![]);
    let mut problems = Vec::new();
    let dir = TempDir::new("ledger-store").expect("creating the store directory");
    let store = ExperimentStore::open(dir.path()).expect("opening the store");
    for i in 0..STORE_REPS {
        let (json, s) = timed(&span, "store.encode", || report_to_json(&report));
        enc.push(s);
        let (back, s) = timed(&span, "store.decode", || report_from_json(&json));
        dec.push(s);
        if back.ok().as_ref() != Some(&report) {
            problems.push("store codec does not round-trip".to_string());
        }
        let fp = 0x0E0A_BE4C_0000_0000 | i as u64;
        let (res, s) = timed(&span, "store.write", || {
            store.store_report(fp, "probe", &report)
        });
        write.push(s);
        if let Err(e) = res {
            problems.push(format!("store write: {e}"));
        }
        let (back, s) = timed(&span, "store.load", || store.load_report(fp));
        load.push(s);
        if back.as_ref() != Some(&report) {
            problems.push("store load returned a different report".to_string());
        }
    }
    for (name, v) in [
        ("store.encode_us", &enc),
        ("store.decode_us", &dec),
        ("store.write_us", &write),
        ("store.load_us", &load),
    ] {
        out.push((name.into(), median(v) * 1e6));
    }

    // serve: one idle-server round trip of each origin. Its counter
    // deltas (store.* included) describe the serve path; the serve
    // workloads replace them with their measured phase's deltas.
    let RttProbe {
        computed_ms,
        store_us,
        memo_us,
        counts: serve_counts,
        problems: rtt_problems,
    } = rtt_probe(p, &span);
    out.push(("serve.rtt_computed_ms".into(), computed_ms));
    out.push(("serve.rtt_store_us".into(), store_us));
    out.push(("serve.rtt_memo_us".into(), memo_us));
    out.extend(serve_counts.metrics());
    problems.extend(rtt_problems);
    problems.truncate(8);
    Ledger {
        metrics: out,
        counts,
        problems,
    }
}
