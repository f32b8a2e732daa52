//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures <id>... [--tiny|--medium|--scale S] [--store PATH] [--jobs N]
//!                 [--profile] [--profile-out FILE] [--trace FILE]
//! ids: table1 table2 table3 fig3 fig4a fig4b fig5 fig14 fig15 fig16 fig17
//!      fig18 fig19 fig20 table4 fig21 abl-pisc abl-chunk abl-svb
//!      abl-reorder abl-offchip abl-slicing abl-graphmat abl-locked rivals
//!      channels abl-atomics telemetry all
//! ```
//!
//! No id, or `all`, runs every experiment except `abl-atomics`. An unknown
//! id is refused (exit 2) before any work starts.
//!
//! Every experiment is one entry of [`EXPERIMENTS`]: its id, its caption,
//! the session runs it reads and its render function. Before rendering,
//! the session runs of all selected experiments are prefetched in one
//! grouped batch: one functional trace per (dataset, algorithm), replayed
//! on every machine that reads it. `--jobs N` replays up to N such groups
//! at once (default: all cores); each timing replay itself is serial.
//!
//! Each experiment prints the paper's reference value next to the measured
//! one; EXPERIMENTS.md records a captured run.
//!
//! With `--store PATH`, every simulated run and every trace-derived figure
//! value is persisted in a content-addressed store: a second invocation
//! against the same store replays nothing and re-traces nothing, yet
//! produces byte-identical stdout. The final stderr line reports the
//! store's hit/miss counters together with this process's functional-trace
//! and timing-replay counts.
//!
//! `--profile` prints a host-side self-time table to stderr at exit;
//! `--profile-out FILE` writes the same data as `omega-profile-report/v1`
//! JSON; `--trace FILE` writes a Chrome Trace Event file (host spans plus
//! simulated DRAM/NoC/core activity) loadable in Perfetto. All three are
//! off by default and leave disabled runs bit-identical.

use omega_bench::json::Json;
use omega_bench::session::{paper_sweep, AlgoKey, MachineKind, Session, SWEEP, SWEEP_ALGOS};
use omega_bench::store::{value_fingerprint, StoreCounters};
use omega_bench::{ExperimentSpec, ObsOptions, Table};
use omega_core::analytic::{estimate, WorkloadProfile};
use omega_core::config::SystemConfig;
use omega_core::runner::{
    functional_trace_count, replay, timing_replay_count, trace_algorithm, ExecConfigSer, RunReport,
    Runner,
};
use omega_energy::{energy_breakdown, node_table};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::{reorder, stats};
use omega_ligra::algorithms::Algo;
use omega_ligra::ExecConfig;
use omega_sim::fingerprint::{Canonicalize, Fnv64};
use omega_sim::obs;
use omega_sim::telemetry::TelemetryConfig;

/// One experiment of the evaluation.
struct Experiment {
    id: &'static str,
    render: fn(&mut Figures),
    /// The session runs `render` reads. `main` prefetches them for every
    /// selected experiment at once, so each report a render asks for is
    /// already memoised.
    runs: fn(&mut Session) -> Vec<ExperimentSpec>,
    caption: &'static str,
    /// Whether `all` (and an empty id list) runs it.
    in_all: bool,
}

impl Experiment {
    const fn new(
        id: &'static str,
        render: fn(&mut Figures),
        runs: fn(&mut Session) -> Vec<ExperimentSpec>,
        caption: &'static str,
    ) -> Self {
        Experiment {
            id,
            render,
            runs,
            caption,
            in_all: true,
        }
    }
}

/// Every experiment, in `all` order: id, render, the session runs the
/// render reads, and caption.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 28] = [
    Experiment::new("table1", table1, no_runs,
        "graph dataset characterisation (measured vs paper Table I)"),
    Experiment::new("table2", table2, no_runs,
        "graph algorithm characterisation, measured on ap (paper Table II)"),
    Experiment::new("table3", table3, no_runs,
        "experimental testbed setup (Table III, capacities at mini scale)"),
    Experiment::new("fig3", fig3, |_| cross(FIG3_ROWS, &[MachineKind::Baseline]),
        "execution-time breakdown, baseline CMP (paper: ~71% memory bound)"),
    Experiment::new("fig4a", fig4a, |_| cross(FIG4A_ROWS, &[MachineKind::Baseline]),
        "baseline cache hit rates (paper: L2/LLC below 50%)"),
    Experiment::new("fig4b", fig4b, no_runs,
        "vtxProp accesses to the 20% most-connected vertices (paper: >75%)"),
    Experiment::new("fig5", fig5, no_runs,
        "heat map: vtxProp accesses to top-20% vertices (100 = all)"),
    Experiment::new("fig14", fig14, paper_sweep,
        "OMEGA speedup over baseline (paper: 2x average, PageRank 2.8x)"),
    Experiment::new("fig15", fig15, sweep_pagerank,
        "last-level storage hit rate, PageRank (paper: 44% -> >75%)"),
    Experiment::new("fig16", fig16, sweep_pagerank,
        "DRAM bandwidth utilisation, PageRank (paper: 2.28x better on OMEGA)"),
    Experiment::new("fig17", fig17, sweep_pagerank,
        "on-chip interconnect traffic, PageRank (paper: >3x reduction)"),
    Experiment::new("fig18", fig18, |_| cross(FIG18_ROWS, &PAIR),
        "power-law (lj) vs non-power-law (USA) (paper: USA max 1.15x)"),
    Experiment::new("fig19", fig19, fig19_runs,
        "scratchpad size sensitivity, lj (paper: 1.4-1.5x at quarter size)"),
    Experiment::new("fig20", fig20, |_| cross(LJ_PAGERANK, &PAIR),
        "large datasets via the high-level model (paper: twitter 1.68x PR)"),
    Experiment::new("table4", table4, no_runs,
        "peak power and area per node (paper Table IV, 45nm, paper scale)"),
    Experiment::new("fig21", fig21, sweep_pagerank,
        "memory-system energy, PageRank (paper: 2.5x saving)"),
    Experiment::new("abl-pisc", abl_pisc,
        |_| cross(LJ_PAGERANK, &pair_and(MachineKind::OmegaNoPisc)),
        "scratchpads-as-storage ablation, PageRank lj (paper: 1.3x vs >3x)"),
    Experiment::new("abl-chunk", abl_chunk,
        |_| cross(LJ_PAGERANK, &[MachineKind::Omega, MachineKind::OmegaChunkMismatch]),
        "scratchpad-mapping chunk mismatch, PageRank lj (Fig. 12)"),
    Experiment::new("abl-svb", abl_svb,
        |_| cross([(Dataset::Lj, AlgoKey::Sssp)], &pair_and(MachineKind::OmegaNoSvb)),
        "source-vertex buffer ablation, SSSP lj (§V.C)"),
    Experiment::new("abl-reorder", abl_reorder, no_runs,
        "offline reordering variants, PageRank lj baseline (paper: ~8% best)"),
    Experiment::new("abl-offchip", abl_offchip,
        |_| cross(OFFCHIP_ROWS, &pair_and(MachineKind::OmegaOffchip)),
        "§IX off-chip extensions: word DRAM + PIM + hybrid page policy (paper: future work)"),
    Experiment::new("abl-slicing", abl_slicing, no_runs,
        "§VII graph slicing: plain vs power-law-aware (paper: up to 5x fewer slices)"),
    Experiment::new("abl-graphmat", abl_graphmat, |_| cross(LJ_PAGERANK, &PAIR),
        "§V.F framework independence: Ligra vs GraphMat-style PageRank"),
    Experiment::new("abl-locked", abl_locked, |_| cross(LJ_PAGERANK, &LOCKED_MACHINES),
        "§IX locked cache vs scratchpad, PageRank (paper: locking still loses)"),
    Experiment::new("rivals", rivals, |_| cross(RIVAL_ROWS, &RIVAL_MACHINES),
        "§IX rival subsystems: omega vs PIM ranks vs specialized cache"),
    Experiment::new("channels", channels, no_runs,
        "§IX DRAM channel scaling, PageRank on lj (Green et al.: MLP vs compute placement)"),
    // Not in `all`: neither captured golden (results/figures_all_*.txt)
    // includes it, and `all` must keep reproducing both.
    Experiment { in_all: false, ..Experiment::new("abl-atomics", abl_atomics, no_runs,
        "§III atomic-instruction overhead on the baseline (paper: up to 50%)") },
    // Its runs carry telemetry, so they come from the figure's own
    // session, which prefetches them itself.
    Experiment::new("telemetry", telemetry, no_runs,
        "stall attribution and DRAM bandwidth utilisation over time"),
];

fn no_runs(_: &mut Session) -> Vec<ExperimentSpec> {
    Vec::new()
}

/// The baseline and OMEGA machines.
const PAIR: [MachineKind; 2] = [MachineKind::Baseline, MachineKind::Omega];

const LJ_PAGERANK: [(Dataset, AlgoKey); 1] = [(Dataset::Lj, AlgoKey::PageRank)];

/// [`PAIR`] and one more machine.
const fn pair_and(m: MachineKind) -> [MachineKind; 3] {
    [MachineKind::Baseline, MachineKind::Omega, m]
}

/// Every machine of `machines` on every `(dataset, algo)` row.
fn cross(
    rows: impl IntoIterator<Item = (Dataset, AlgoKey)>,
    machines: &[MachineKind],
) -> Vec<ExperimentSpec> {
    rows.into_iter()
        .flat_map(|(d, a)| machines.iter().map(move |&m| ExperimentSpec::new(d, a, m)))
        .collect()
}

/// PageRank on every sweep dataset, baseline and OMEGA (figs. 15-17, 21).
fn sweep_pagerank(_: &mut Session) -> Vec<ExperimentSpec> {
    cross(SWEEP.map(|d| (d, AlgoKey::PageRank)), &PAIR)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut medium = false;
    let mut scale_flag: Option<DatasetScale> = None;
    let mut store_path: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut obs = ObsOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match obs.try_parse_flag(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => die(&e.to_string()),
        }
        match arg.as_str() {
            "--tiny" => tiny = true,
            "--medium" => medium = true,
            "--scale" => match it.next().map(|v| v.parse::<DatasetScale>()) {
                Some(Ok(s)) => scale_flag = Some(s),
                Some(Err(e)) => die(&e.to_string()),
                None => die("--scale needs a value (tiny|small|medium)"),
            },
            "--store" => match it.next() {
                Some(p) => store_path = Some(p),
                None => die("--store needs a path"),
            },
            "--jobs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => die("--jobs needs a positive integer"),
            },
            other if other.starts_with("--") => {
                die(&format!("unknown flag {other:?} (see README)"))
            }
            other => ids.push(other.to_string()),
        }
    }
    let selected = select(&ids).unwrap_or_else(|bad| {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        die(&format!(
            "unknown experiment id `{bad}`; valid ids: {} all",
            valid.join(" ")
        ))
    });
    obs.install();
    let scale = scale_flag.unwrap_or(if tiny {
        DatasetScale::Tiny
    } else if medium {
        DatasetScale::Medium
    } else {
        DatasetScale::Small
    });
    let mut session = Session::new(scale);
    if let Some(n) = jobs {
        session = session.jobs(n);
    }
    if let Some(path) = &store_path {
        session = session
            .with_store(path)
            .unwrap_or_else(|e| die(&format!("cannot open store {path}: {e}")));
    }

    let runs: Vec<ExperimentSpec> = selected
        .iter()
        .flat_map(|e| (e.runs)(&mut session))
        .collect();
    session.prefetch(&runs);
    let mut f = Figures {
        s: session,
        tel: None,
    };
    for e in selected {
        let _fig = obs::span_owned(format!("figure.{}", e.id));
        println!("\n==== {}: {} ====", e.id, e.caption);
        (e.render)(&mut f);
    }

    // One machine-greppable summary line: how much the store served and how
    // much tracing/replaying this process still had to do. A fully warm
    // store shows `traces=0 replays=0`.
    if store_path.is_some() {
        let mut c = StoreCounters::default();
        for st in [f.s.store(), f.tel.as_ref().and_then(Session::store)]
            .into_iter()
            .flatten()
        {
            let k = st.counters();
            c.hits += k.hits;
            c.misses += k.misses;
            c.corrupt += k.corrupt;
            c.writes += k.writes;
        }
        eprintln!(
            "[store] hits={} misses={} corrupt={} writes={} traces={} replays={}",
            c.hits,
            c.misses,
            c.corrupt,
            c.writes,
            functional_trace_count(),
            timing_replay_count()
        );
    }

    if let Err(e) = obs.finish() {
        die(&format!("cannot write obs output: {e}"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

/// The experiments `ids` name, in order; no id or `all` selects every
/// `in_all` experiment. Fails with the first id the table lacks.
fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    let find = |id: &str| EXPERIMENTS.iter().find(|e| e.id == id);
    if let Some(bad) = ids.iter().find(|id| *id != "all" && find(id).is_none()) {
        return Err(bad);
    }
    Ok(if ids.is_empty() || ids.iter().any(|id| id == "all") {
        EXPERIMENTS.iter().filter(|e| e.in_all).collect()
    } else {
        ids.iter().filter_map(|id| find(id)).collect()
    })
}

/// The context every render takes.
struct Figures {
    /// Memoises every session run and graph; its store, when attached,
    /// also caches the trace-derived figure values.
    s: Session,
    /// The telemetry figure's session, built on first use.
    tel: Option<Session>,
}

impl Figures {
    /// A trace-derived figure value that does not pass through
    /// [`Session::report`] (access-share fractions, trace classification
    /// mixes, ablation cycle counts): the stored value under `(kind, exec,
    /// parts)`, or computed, persisted and returned. Both paths go through
    /// `decode`, so warm and cold runs format identical numbers; a stale or
    /// malformed payload (impossible without a format bug, but cheap to
    /// guard) falls back to recomputation.
    fn value<T>(
        &self,
        kind: &str,
        label: &str,
        exec: Option<&ExecConfigSer>,
        parts: impl Fn(&mut Fnv64),
        decode: impl Fn(&Json) -> Option<T>,
        compute: impl FnOnce() -> Json,
    ) -> T {
        let fresh = |v: &Json| decode(v).expect("freshly computed figure value decodes");
        let Some(store) = self.s.store() else {
            return fresh(&compute());
        };
        let fp = value_fingerprint(kind, self.s.scale().code(), exec, parts);
        if let Some(v) = store.load_value(fp) {
            if let Some(t) = decode(&v) {
                return t;
            }
        }
        let v = compute();
        let t = fresh(&v);
        if let Err(e) = store.store_value(fp, label, v) {
            eprintln!("  [store] warning: failed to persist {label}: {e}");
        }
        t
    }

    /// The baseline and OMEGA reports of one workload.
    fn pair(&mut self, d: Dataset, a: AlgoKey) -> (RunReport, RunReport) {
        let base = self.s.report((d, a, MachineKind::Baseline)).clone();
        (base, self.s.report((d, a, MachineKind::Omega)).clone())
    }
}

/// Lossless f64 encoding for cached figure values (bit-pattern hex, same
/// discipline as the run-report codec).
fn jf(x: f64) -> Json {
    Json::Str(format!("{:016x}", x.to_bits()))
}

fn jf_get(v: &Json, key: &str) -> Option<f64> {
    let s = v.get(key)?.as_str()?;
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

/// Lossless u64 encoding (decimal string: `Json::Num` is an f64 and would
/// round counts above 2^53).
fn ju(x: u64) -> Json {
    Json::Str(x.to_string())
}

fn ju_get(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_str()?.parse().ok()
}

fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Table I — dataset characterisation.
fn table1(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new([
        "dataset",
        "#V",
        "#E",
        "type",
        "in-con% (paper)",
        "out-con% (paper)",
        "power law (paper)",
    ]);
    for d in Dataset::ALL {
        let meta = d.meta();
        let g = s.graph(d).clone();
        let st = stats::degree_stats(&g);
        t.row([
            d.code().to_string(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            if g.is_directed() { "dir." } else { "undir." }.to_string(),
            format!(
                "{} ({})",
                pct(st.in_connectivity(0.2)),
                meta.paper_in_connectivity
            ),
            format!(
                "{} ({})",
                pct(st.out_connectivity(0.2)),
                meta.paper_out_connectivity
            ),
            format!(
                "{} ({})",
                st.follows_power_law(),
                if meta.power_law { "yes" } else { "no" }
            ),
        ]);
    }
    println!("{t}");
}

/// Table II — algorithm characterisation (static spec + measured rates).
fn table2(f: &mut Figures) {
    let g = f.s.graph(Dataset::Ap).clone(); // symmetric: every algorithm runs
    let exec_ser: ExecConfigSer = ExecConfig::default().into();
    let mut t = Table::new([
        "algo",
        "atomic op",
        "%atomic",
        "%random",
        "entry B",
        "#vtxProp",
        "active-list",
        "reads src",
    ]);
    for key in AlgoKey::ALL {
        let algo = key.algo(&g);
        let spec = algo.spec();
        let (atomic, random, monitored) = f.value(
            "table2-trace-class",
            &format!("table2-{}-{}", key.name(), Dataset::Ap.code()),
            Some(&exec_ser),
            |h| {
                h.write_str(Dataset::Ap.code());
                h.write_str(key.name());
            },
            |v| {
                Some((
                    jf_get(v, "atomic")?,
                    jf_get(v, "random")?,
                    ju_get(v, "monitored")?,
                ))
            },
            || {
                let (_, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
                let c = raw.classify();
                let monitored = meta.props.iter().filter(|p| p.monitored).count();
                let mut o = Json::obj();
                o.set("atomic", jf(c.atomic_fraction()));
                o.set("random", jf(c.random_fraction()));
                o.set("monitored", ju(monitored as u64));
                o
            },
        );
        t.row([
            spec.name.to_string(),
            spec.atomic_op.to_string(),
            format!("{} ({})", pct(atomic), spec.atomic_level),
            format!("{} ({})", pct(random), spec.random_level),
            spec.vtx_prop_bytes.to_string(),
            format!("{} ({})", monitored, spec.n_vtx_props),
            spec.active_list.to_string(),
            spec.reads_src_prop.to_string(),
        ]);
    }
    println!("{t}");
}

/// Table III — experimental setup dump.
fn table3(_: &mut Figures) {
    let base = SystemConfig::mini_baseline();
    let omega = SystemConfig::mini_omega();
    let m = base.machine;
    let mut t = Table::new(["parameter", "baseline", "omega"]);
    t.row([
        "cores".to_string(),
        format!("{} OoO, 2GHz", m.core.n_cores),
        "same".into(),
    ]);
    t.row([
        "outstanding accesses/core".to_string(),
        m.core.max_outstanding.to_string(),
        "same".into(),
    ]);
    t.row([
        "L1D per core".to_string(),
        format!("{} B", m.l1.capacity),
        "same".into(),
    ]);
    t.row([
        "L2 per core".to_string(),
        format!("{} KB", m.l2.capacity / 1024),
        format!("{} KB", omega.machine.l2.capacity / 1024),
    ]);
    t.row([
        "scratchpad per core".to_string(),
        "-".into(),
        format!(
            "{} KB, 3-cycle",
            omega.omega().unwrap().sp_bytes_per_core / 1024
        ),
    ]);
    t.row([
        "interconnect".to_string(),
        format!(
            "crossbar, {} B/cycle, {}-cycle",
            m.noc.bytes_per_cycle, m.noc.latency
        ),
        "same (+word packets)".into(),
    ]);
    t.row([
        "memory".to_string(),
        format!(
            "{}x DDR3, {:.1} B/cycle/ch, {}-cycle",
            m.dram.channels, m.dram.bytes_per_cycle, m.dram.latency
        ),
        "same".into(),
    ]);
    t.row([
        "total on-chip storage".to_string(),
        format!("{} KB", base.total_onchip_bytes() / 1024),
        format!("{} KB", omega.total_onchip_bytes() / 1024),
    ]);
    println!("{t}");
}

/// Fig. 3's workloads.
const FIG3_ROWS: [(Dataset, AlgoKey); 5] = [
    (Dataset::Sd, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
    (Dataset::Wiki, AlgoKey::Sssp),
    (Dataset::Ap, AlgoKey::Cc),
];

/// Fig. 3 — TMAM-style execution breakdown on the baseline.
fn fig3(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new([
        "workload",
        "memory-bound %",
        "of which atomic %",
        "compute %",
    ]);
    for (d, a) in FIG3_ROWS {
        let r = s.report((d, a, MachineKind::Baseline));
        let mem = r.engine.memory_bound_fraction();
        let atomic = r.engine.atomic_bound_fraction();
        t.row([
            format!("{}-{}", a.name(), d.code()),
            pct(mem),
            pct(atomic),
            pct(1.0 - mem),
        ]);
    }
    println!("{t}");
}

/// Fig. 4a's workloads.
const FIG4A_ROWS: [(Dataset, AlgoKey); 5] = [
    (Dataset::Sd, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
    (Dataset::Wiki, AlgoKey::Sssp),
    (Dataset::Ic, AlgoKey::Bc),
];

/// Fig. 4a — baseline cache hit rates.
fn fig4a(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new(["workload", "L1 hit %", "LLC (L2) hit %"]);
    for (d, a) in FIG4A_ROWS {
        let r = s.report((d, a, MachineKind::Baseline));
        t.row([
            format!("{}-{}", a.name(), d.code()),
            pct(r.mem.l1.hit_rate()),
            pct(r.mem.l2.hit_rate()),
        ]);
    }
    println!("{t}");
}

/// Share of vtxProp accesses landing on the 20% most-connected vertices —
/// the trace-derived number behind figs. 4b, 5, and 18, cached under the
/// shared `prop-share` kind so the three figures reuse one entry per
/// workload.
fn prop_share(f: &mut Figures, d: Dataset, a: AlgoKey) -> f64 {
    let g = f.s.graph(d).clone();
    let exec_ser: ExecConfigSer = ExecConfig::default().into();
    f.value(
        "prop-share",
        &format!("prop-share-{}-{}", a.name(), d.code()),
        Some(&exec_ser),
        |h| {
            h.write_str(d.code());
            h.write_str(a.name());
            h.write_u32(200); // hot fraction in permille
        },
        |v| jf_get(v, "share"),
        || {
            let (_, raw, _) = trace_algorithm(&g, a.algo(&g), &ExecConfig::default());
            let hot = (g.num_vertices() as f64 * 0.2).ceil() as u32;
            let mut o = Json::obj();
            o.set("share", jf(raw.prop_access_fraction_below(hot)));
            o
        },
    )
}

/// Fig. 4b — share of vtxProp accesses hitting the top-20% vertices.
fn fig4b(f: &mut Figures) {
    let mut t = Table::new(["workload", "top-20% access share %"]);
    for (d, a) in [
        (Dataset::Sd, AlgoKey::PageRank),
        (Dataset::Lj, AlgoKey::PageRank),
        (Dataset::Lj, AlgoKey::Bfs),
        (Dataset::Ic, AlgoKey::Sssp),
        (Dataset::RoadCa, AlgoKey::PageRank),
    ] {
        t.row([
            format!("{}-{}", a.name(), d.code()),
            pct(prop_share(f, d, a)),
        ]);
    }
    println!("{t}");
}

/// Fig. 5 — heat map: vtxProp access share to top-20% vertices.
fn fig5(f: &mut Figures) {
    let algos = [
        AlgoKey::PageRank,
        AlgoKey::Bfs,
        AlgoKey::Sssp,
        AlgoKey::Bc,
        AlgoKey::Radii,
        AlgoKey::Cc,
        AlgoKey::Tc,
        AlgoKey::KCore,
    ];
    let mut t = Table::new(
        std::iter::once("dataset".to_string()).chain(algos.iter().map(|a| a.name().to_string())),
    );
    for d in SWEEP {
        let mut cells = vec![d.code().to_string()];
        for a in algos {
            if !f.s.supports((d, a)) {
                cells.push("-".into());
                continue;
            }
            cells.push(pct(prop_share(f, d, a)));
        }
        t.row(cells);
    }
    println!("{t}");
}

/// Fig. 14 — the headline speedup sweep.
fn fig14(f: &mut Figures) {
    let s = &mut f.s;
    let sweep = paper_sweep(s);
    let algos = SWEEP_ALGOS.into_iter().chain([AlgoKey::Cc, AlgoKey::Tc]);
    let mut t = Table::new(
        std::iter::once("dataset".to_string()).chain(algos.clone().map(|a| a.name().to_string())),
    );
    let mut total = 0.0;
    let mut count = 0u32;
    for d in SWEEP {
        let mut cells = vec![d.code().to_string()];
        for a in algos.clone() {
            if !sweep.contains(&ExperimentSpec::new(d, a, MachineKind::Omega)) {
                cells.push("-".into());
                continue;
            }
            let sp = s.speedup(d, a);
            total += sp;
            count += 1;
            cells.push(format!("{sp:.2}x"));
        }
        t.row(cells);
    }
    println!("{t}");
    println!(
        "average speedup: {:.2}x over {count} runs",
        total / count as f64
    );
}

/// Fig. 15 — last-level storage hit rate, PageRank.
fn fig15(f: &mut Figures) {
    let mut t = Table::new(["dataset", "baseline %", "omega (L2+SP) %", "resident vtx %"]);
    let mut sums = (0.0, 0.0);
    for d in SWEEP {
        let (base, omega) = f.pair(d, AlgoKey::PageRank);
        sums.0 += base.mem.last_level_hit_rate();
        sums.1 += omega.mem.last_level_hit_rate();
        t.row([
            d.code().to_string(),
            pct(base.mem.last_level_hit_rate()),
            pct(omega.mem.last_level_hit_rate()),
            pct(omega.hot_count as f64 / omega.n_vertices as f64),
        ]);
    }
    println!("{t}");
    println!(
        "average: baseline {}%, omega {}%",
        pct(sums.0 / SWEEP.len() as f64),
        pct(sums.1 / SWEEP.len() as f64)
    );
}

/// Fig. 16 — DRAM bandwidth utilisation, PageRank.
fn fig16(f: &mut Figures) {
    let mut t = Table::new(["dataset", "baseline util %", "omega util %", "ratio"]);
    let mut ratios = 0.0;
    for d in SWEEP {
        let (base, omega) = f.pair(d, AlgoKey::PageRank);
        let bu = base.mem.dram.utilization(base.total_cycles, 4);
        let ou = omega.mem.dram.utilization(omega.total_cycles, 4);
        let ratio = if bu > 0.0 { ou / bu } else { 0.0 };
        ratios += ratio;
        t.row([
            d.code().to_string(),
            pct(bu),
            pct(ou),
            format!("{ratio:.2}x"),
        ]);
    }
    println!("{t}");
    println!(
        "average utilisation improvement: {:.2}x",
        ratios / SWEEP.len() as f64
    );
}

/// Fig. 17 — on-chip traffic, PageRank.
fn fig17(f: &mut Figures) {
    let mut t = Table::new(["dataset", "baseline MB", "omega MB", "reduction"]);
    let mut reds = 0.0;
    for d in SWEEP {
        let (base, omega) = f.pair(d, AlgoKey::PageRank);
        let red = base.mem.noc.bytes as f64 / omega.mem.noc.bytes.max(1) as f64;
        reds += red;
        t.row([
            d.code().to_string(),
            format!("{:.2}", base.mem.noc.bytes as f64 / 1e6),
            format!("{:.2}", omega.mem.noc.bytes as f64 / 1e6),
            format!("{red:.2}x"),
        ]);
    }
    println!("{t}");
    println!(
        "average traffic reduction: {:.2}x",
        reds / SWEEP.len() as f64
    );
}

/// Fig. 18's graphs, PageRank and BFS.
const FIG18_ROWS: [(Dataset, AlgoKey); 4] = [
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
    (Dataset::Usa, AlgoKey::PageRank),
    (Dataset::Usa, AlgoKey::Bfs),
];

/// Fig. 18 — power-law vs. non-power-law.
fn fig18(f: &mut Figures) {
    let mut t = Table::new([
        "graph",
        "PageRank speedup",
        "BFS speedup",
        "top-20% access share %",
    ]);
    for d in [Dataset::Lj, Dataset::Usa] {
        let share = prop_share(f, d, AlgoKey::PageRank);
        t.row([
            d.code().to_string(),
            format!("{:.2}x", f.s.speedup(d, AlgoKey::PageRank)),
            format!("{:.2}x", f.s.speedup(d, AlgoKey::Bfs)),
            pct(share),
        ]);
    }
    println!("{t}");
}

/// Fig. 19's workloads and scratchpad sizes (permille of standard).
const FIG19_ROWS: [(Dataset, AlgoKey); 2] = [
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
];
const FIG19_PERMILLE: [u32; 3] = [1000, 500, 250];

fn fig19_runs(_: &mut Session) -> Vec<ExperimentSpec> {
    let sp = FIG19_PERMILLE.map(|permille| MachineKind::OmegaScaledSp { permille });
    let mut runs = cross(FIG19_ROWS, &[MachineKind::Baseline]);
    runs.extend(cross(FIG19_ROWS, &sp));
    runs
}

/// Fig. 19 — scratchpad size sensitivity on lj.
fn fig19(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new([
        "SP size",
        "PageRank speedup",
        "BFS speedup",
        "resident vtx % (PR)",
    ]);
    let base_pr = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .total_cycles;
    let base_bfs = s
        .report((Dataset::Lj, AlgoKey::Bfs, MachineKind::Baseline))
        .total_cycles;
    for permille in FIG19_PERMILLE {
        let m = MachineKind::OmegaScaledSp { permille };
        let pr = s.report((Dataset::Lj, AlgoKey::PageRank, m)).clone();
        let bfs = s.report((Dataset::Lj, AlgoKey::Bfs, m)).total_cycles;
        t.row([
            format!("{}%", permille / 10),
            format!("{:.2}x", base_pr as f64 / pr.total_cycles as f64),
            format!("{:.2}x", base_bfs as f64 / bfs as f64),
            pct(pr.hot_count as f64 / pr.n_vertices as f64),
        ]);
    }
    println!("{t}");
}

/// Fig. 20 — analytic model for very large graphs + validation.
fn fig20(f: &mut Figures) {
    let s = &mut f.s;
    let detailed = s.speedup(Dataset::Lj, AlgoKey::PageRank);
    let g = s.graph(Dataset::Lj).clone();
    let profile = WorkloadProfile::from_graph(&g, Algo::PageRank { iters: 1 });
    let ab = estimate(&profile, &SystemConfig::mini_baseline());
    let ao = estimate(&profile, &SystemConfig::mini_omega());
    let analytic = ab.cycles / ao.cycles;
    println!(
        "validation on lj/PageRank: detailed {detailed:.2}x vs analytic {analytic:.2}x (error {:.0}%)",
        100.0 * (analytic - detailed).abs() / detailed
    );
    // At paper scale, uk and twitter dwarf the scratchpads: only ~11% and
    // ~5% of their vertices are resident. Reproduce those fractions by
    // scaling the scratchpad relative to each stand-in graph.
    let mut t = Table::new(["dataset", "algo", "est. speedup", "resident vtx %"]);
    for (d, resident_frac) in [(Dataset::Uk, 0.108), (Dataset::Twitter, 0.048)] {
        let g = s.graph(d).clone();
        for (name, algo) in [
            ("PageRank", Algo::PageRank { iters: 1 }),
            ("BFS", Algo::Bfs { root: 0 }),
        ] {
            let p = WorkloadProfile::from_graph(&g, algo);
            let slot = algo.spec().vtx_prop_bytes as u64 + 1;
            let sp_bytes_per_core = ((p.n as f64 * resident_frac) as u64 * slot / 16).max(64);
            let omega_cfg = SystemConfig::mini_omega().with_scratchpad_bytes(sp_bytes_per_core);
            let b = estimate(&p, &SystemConfig::mini_baseline());
            let o = estimate(&p, &omega_cfg);
            let hot = (sp_bytes_per_core * 16 / slot).min(p.n);
            t.row([
                d.code().to_string(),
                name.to_string(),
                format!("{:.2}x", b.cycles / o.cycles),
                pct(hot as f64 / p.n as f64),
            ]);
        }
    }
    println!("{t}");
}

/// Table IV — area and peak power.
fn table4(_: &mut Figures) {
    let base = node_table(&SystemConfig::paper_baseline());
    let omega = node_table(&SystemConfig::paper_omega());
    let mut t = Table::new(["component", "baseline W / mm2", "omega W / mm2"]);
    let f = |ap: omega_energy::AreaPower| format!("{:.2} / {:.2}", ap.power_w, ap.area_mm2);
    t.row(["core".to_string(), f(base.core), f(omega.core)]);
    t.row(["L1 caches".to_string(), f(base.l1), f(omega.l1)]);
    t.row([
        "scratchpad".to_string(),
        "-".to_string(),
        omega.scratchpad.map(f).unwrap_or_default(),
    ]);
    t.row([
        "PISC".to_string(),
        "-".to_string(),
        omega.pisc.map(f).unwrap_or_default(),
    ]);
    t.row(["L2 cache".to_string(), f(base.l2), f(omega.l2)]);
    t.row(["node total".to_string(), f(base.total()), f(omega.total())]);
    println!("{t}");
    println!(
        "paper: baseline 6.17 W / 32.91 mm2; omega 6.21 W / 32.15 mm2 (-2.31% area, +0.65% power)"
    );
}

/// Fig. 21 — memory-system energy breakdown, PageRank.
fn fig21(f: &mut Figures) {
    let mut t = Table::new([
        "dataset",
        "baseline mJ",
        "omega mJ",
        "saving",
        "omega DRAM share %",
    ]);
    let mut savings = 0.0;
    for d in SWEEP {
        let (base, omega) = f.pair(d, AlgoKey::PageRank);
        let eb = energy_breakdown(&base, &MachineKind::Baseline.system());
        let eo = energy_breakdown(&omega, &MachineKind::Omega.system());
        let saving = eb.total_mj() / eo.total_mj();
        savings += saving;
        t.row([
            d.code().to_string(),
            format!("{:.3}", eb.total_mj()),
            format!("{:.3}", eo.total_mj()),
            format!("{saving:.2}x"),
            pct((eo.dram_mj + eo.dram_background_mj) / eo.total_mj()),
        ]);
    }
    println!("{t}");
    println!(
        "average energy saving: {:.2}x",
        savings / SWEEP.len() as f64
    );

    // The stacked component breakdown of the paper's Fig. 21, for lj.
    let (base, omega) = f.pair(Dataset::Lj, AlgoKey::PageRank);
    let eb = energy_breakdown(&base, &MachineKind::Baseline.system());
    let eo = energy_breakdown(&omega, &MachineKind::Omega.system());
    let mut t = Table::new(["component (lj, mJ)", "baseline", "omega"]);
    for (name, b, o) in [
        ("L1", eb.l1_mj, eo.l1_mj),
        ("L2", eb.l2_mj, eo.l2_mj),
        ("scratchpad", eb.scratchpad_mj, eo.scratchpad_mj),
        ("PISC", eb.pisc_mj, eo.pisc_mj),
        ("interconnect", eb.noc_mj, eo.noc_mj),
        ("DRAM dynamic", eb.dram_mj, eo.dram_mj),
        ("on-chip leakage", eb.leakage_mj, eo.leakage_mj),
        (
            "DRAM background",
            eb.dram_background_mj,
            eo.dram_background_mj,
        ),
        ("total", eb.total_mj(), eo.total_mj()),
    ] {
        t.row([name.to_string(), format!("{b:.3}"), format!("{o:.3}")]);
    }
    println!("{t}");
}

/// §X.A — scratchpads without PISCs.
fn abl_pisc(f: &mut Figures) {
    let s = &mut f.s;
    let full = s.speedup(Dataset::Lj, AlgoKey::PageRank);
    let base = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .total_cycles;
    let nopisc = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::OmegaNoPisc))
        .total_cycles;
    let mut t = Table::new(["machine", "speedup over baseline"]);
    t.row(["omega (SP+PISC)".to_string(), format!("{full:.2}x")]);
    t.row([
        "omega (SP only)".to_string(),
        format!("{:.2}x", base as f64 / nopisc as f64),
    ]);
    println!("{t}");
}

/// Fig. 12 — chunk-size mismatch cost.
fn abl_chunk(f: &mut Figures) {
    let s = &mut f.s;
    let matched = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Omega))
        .clone();
    let mismatched = s
        .report((
            Dataset::Lj,
            AlgoKey::PageRank,
            MachineKind::OmegaChunkMismatch,
        ))
        .clone();
    let mut t = Table::new([
        "mapping",
        "cycles",
        "local SP accesses",
        "remote SP accesses",
    ]);
    for (name, r) in [("matched", &matched), ("mismatched", &mismatched)] {
        t.row([
            name.to_string(),
            r.total_cycles.to_string(),
            r.mem.scratchpad.local_accesses.to_string(),
            r.mem.scratchpad.remote_accesses.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "mismatch slowdown: {:.2}x",
        mismatched.total_cycles as f64 / matched.total_cycles as f64
    );
}

/// §V.C — source-vertex buffer ablation on SSSP.
fn abl_svb(f: &mut Figures) {
    let s = &mut f.s;
    let base = s
        .report((Dataset::Lj, AlgoKey::Sssp, MachineKind::Baseline))
        .total_cycles;
    let mut t = Table::new([
        "machine",
        "speedup",
        "SVB hits",
        "remote SP reads",
        "noc MB",
    ]);
    for (name, m) in [
        ("omega (with SVB)", MachineKind::Omega),
        ("omega (no SVB)", MachineKind::OmegaNoSvb),
    ] {
        let r = s.report((Dataset::Lj, AlgoKey::Sssp, m));
        t.row([
            name.to_string(),
            format!("{:.2}x", base as f64 / r.total_cycles as f64),
            r.mem.scratchpad.svb_hits.to_string(),
            r.mem.scratchpad.remote_accesses.to_string(),
            format!("{:.2}", r.mem.noc.bytes as f64 / 1e6),
        ]);
    }
    println!("{t}");
}

/// §III/§VI — reordering algorithm comparison on the baseline.
fn abl_reorder(f: &mut Figures) {
    let scale = f.s.scale();
    // Built lazily: a fully warm store never constructs the unordered graph.
    let g = std::cell::OnceCell::new();
    let system = SystemConfig::mini_baseline();
    let runner = Runner::new(system);
    let exec = runner.resolved_exec();
    let mut t = Table::new([
        "ordering",
        "baseline cycles",
        "LLC hit %",
        "speedup vs identity",
    ]);
    let mut identity_cycles = 0u64;
    for (name, ord) in [
        ("identity", reorder::Reordering::Identity),
        ("in-degree sort", reorder::Reordering::InDegreeSort),
        ("out-degree sort", reorder::Reordering::OutDegreeSort),
        (
            "nth-element 20%",
            reorder::Reordering::NthElement { frac_permille: 200 },
        ),
        (
            "slashburn-like",
            reorder::Reordering::SlashBurnLike { hubs_per_round: 64 },
        ),
    ] {
        let (cycles, l2_hit) = f.value(
            "abl-reorder",
            &format!("abl-reorder-{name}-{}", Dataset::Lj.code()),
            Some(&exec),
            |h| {
                h.write_str(Dataset::Lj.code());
                h.write_str("unordered");
                h.write_str(name);
                h.write_str("PageRank");
                system.canonicalize(h);
            },
            |v| Some((ju_get(v, "cycles")?, jf_get(v, "l2_hit_rate")?)),
            || {
                let g =
                    g.get_or_init(|| Dataset::Lj.build_unordered(scale).expect("dataset builds"));
                let perm = reorder::compute_permutation(g, ord);
                let rg = reorder::apply(g, &perm).expect("permutation sized to graph");
                let r = runner.run(&rg, Algo::PageRank { iters: 1 });
                let mut o = Json::obj();
                o.set("cycles", ju(r.total_cycles));
                o.set("l2_hit_rate", jf(r.mem.l2.hit_rate()));
                o
            },
        );
        if name == "identity" {
            identity_cycles = cycles;
        }
        t.row([
            name.to_string(),
            cycles.to_string(),
            pct(l2_hit),
            format!("{:.2}x", identity_cycles as f64 / cycles as f64),
        ]);
    }
    println!("{t}");
}

/// The off-chip ablation's workloads.
const OFFCHIP_ROWS: [(Dataset, AlgoKey); 4] = [
    (Dataset::Usa, AlgoKey::PageRank),
    (Dataset::Usa, AlgoKey::Sssp),
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::RoadCa, AlgoKey::PageRank),
];

/// §IX — the paper's deferred off-chip extensions (word-granularity DRAM,
/// PIM offload, hybrid page policy), evaluated where they matter: graphs
/// whose cold vertices dominate (the road networks and partially-resident
/// power-law graphs).
fn abl_offchip(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new([
        "workload",
        "omega",
        "omega+offchip",
        "PIM ops",
        "word accesses",
        "DRAM row hits",
    ]);
    for (d, a) in OFFCHIP_ROWS {
        let base = s.report((d, a, MachineKind::Baseline)).total_cycles;
        let ext = s.report((d, a, MachineKind::OmegaOffchip)).clone();
        t.row([
            format!("{}-{}", a.name(), d.code()),
            format!("{:.2}x", s.speedup(d, a)),
            format!("{:.2}x", base as f64 / ext.total_cycles as f64),
            ext.mem.scratchpad.pim_ops.to_string(),
            ext.mem.scratchpad.word_dram_accesses.to_string(),
            ext.mem.dram.row_hits.to_string(),
        ]);
    }
    println!("{t}");
}

/// §VII — scaling scratchpads to graphs whose hot set does not fit:
/// plain slicing (every slice's vtxProp fits) vs. the paper's
/// power-law-aware slicing (only each slice's hot 20% must fit), which
/// cuts the slice count "by up to 5x" and with it the per-slice overhead.
fn abl_slicing(f: &mut Figures) {
    use omega_graph::slicing;
    let g = f.s.graph(Dataset::Uk).clone();
    let n = g.num_vertices();
    // A scratchpad too small for the whole hot set: 1/16 of standard.
    let system = SystemConfig::mini_omega().with_scratchpad_bytes(512);
    let slot = 9u64; // PageRank: 8-byte entry + flag byte
    let budget_entries = (512 * 16 / slot) as usize;
    let runner = Runner::new(system);
    let exec = runner.resolved_exec();

    let unsliced = f.value(
        "abl-slicing",
        &format!("abl-slicing-unsliced-{}", Dataset::Uk.code()),
        Some(&exec),
        |h| {
            h.write_str(Dataset::Uk.code());
            h.write_str("unsliced");
            h.write_str("PageRank");
            system.canonicalize(h);
        },
        |v| ju_get(v, "cycles"),
        || {
            let mut o = Json::obj();
            o.set(
                "cycles",
                ju(runner.run(&g, Algo::PageRank { iters: 1 }).total_cycles),
            );
            o
        },
    );

    let mut t = Table::new(["strategy", "slices", "total cycles", "vs unsliced"]);
    t.row([
        "unsliced (tiny SP)".to_string(),
        "1".into(),
        unsliced.to_string(),
        "1.00x".into(),
    ]);
    for name in ["whole-slice fits", "hot-20% fits (§VII.3)"] {
        let (n_slices, total) = f.value(
            "abl-slicing",
            &format!("abl-slicing-{name}-{}", Dataset::Uk.code()),
            Some(&exec),
            |h| {
                h.write_str(Dataset::Uk.code());
                h.write_str(name);
                h.write_str("PageRank");
                h.write_usize(budget_entries);
                system.canonicalize(h);
            },
            |v| Some((ju_get(v, "slices")?, ju_get(v, "cycles")?)),
            || {
                let slices = if name == "whole-slice fits" {
                    slicing::slice_by_vertex_budget(&g, budget_entries).expect("budget > 0")
                } else {
                    slicing::slice_hot_budget(&g, budget_entries, 0.2).expect("budget > 0")
                };
                let mut total = 0u64;
                for slice in &slices {
                    // Rotate the slice's owned destination range to the id
                    // front so the scratchpads hold exactly this slice's
                    // vtxProp segment.
                    let start = slice.dst_range.start;
                    let owned = slice.owned_vertices() as u32;
                    let forward: Vec<u32> = (0..n as u32)
                        .map(|v| {
                            if slice.dst_range.contains(&v) {
                                v - start
                            } else if v < start {
                                v + owned
                            } else {
                                v
                            }
                        })
                        .collect();
                    let perm = omega_graph::reorder::Permutation::from_forward(forward)
                        .expect("block rotation is a bijection");
                    let rg =
                        omega_graph::reorder::apply(&slice.graph, &perm).expect("sized to graph");
                    let r = runner.run(&rg, Algo::PageRank { iters: 1 });
                    total += r.total_cycles;
                }
                let mut o = Json::obj();
                o.set("slices", ju(slices.len() as u64));
                o.set("cycles", ju(total));
                o
            },
        );
        t.row([
            name.to_string(),
            n_slices.to_string(),
            total.to_string(),
            format!("{:.2}x", unsliced as f64 / total as f64),
        ]);
    }
    println!("{t}");
}

/// §V.F — framework independence: the same OMEGA hardware under a
/// GraphMat-style (partitioned, atomic-free) framework. GraphMat trades
/// atomics for gather-direction random reads, so OMEGA's scratchpads still
/// help but its PISC offload has nothing to do — the speedup is smaller
/// than under Ligra, which is exactly what makes OMEGA's
/// framework-independence claim meaningful.
fn abl_graphmat(f: &mut Figures) {
    use omega_ligra::trace::CollectingTracer;
    use omega_ligra::{graphmat, Ctx};
    let g = f.s.graph(Dataset::Lj).clone();

    // Ligra numbers come from the session cache.
    let (ligra_base, ligra_omega) = f.pair(Dataset::Lj, AlgoKey::PageRank);

    // GraphMat trace, replayed on both machines (cached as one value: the
    // trace is shared, so the two replays always happen together).
    let exec_ser: ExecConfigSer = ExecConfig::default().into();
    let (gm_base_cycles, gm_omega_cycles, gm_pisc_ops) = f.value(
        "abl-graphmat",
        &format!("abl-graphmat-pagerank-{}", Dataset::Lj.code()),
        Some(&exec_ser),
        |h| {
            h.write_str(Dataset::Lj.code());
            h.write_str("graphmat-pagerank");
            SystemConfig::mini_baseline().canonicalize(h);
            SystemConfig::mini_omega().canonicalize(h);
        },
        |v| {
            Some((
                ju_get(v, "base_cycles")?,
                ju_get(v, "omega_cycles")?,
                ju_get(v, "pisc_ops")?,
            ))
        },
        || {
            let exec = ExecConfig::default();
            let mut tracer = CollectingTracer::new(exec.n_cores);
            let mut ctx = Ctx::new(exec, &mut tracer);
            graphmat::pagerank_graphmat(&g, &mut ctx, 1);
            let meta = ctx.meta_for(g.num_vertices() as u64, g.num_arcs(), g.is_weighted());
            let raw = tracer.finish();
            // GraphMat's scores are not compared here, so no checksum is passed.
            let replay_on = |sys: SystemConfig| replay("pagerank", 0.0, &raw, &meta, &sys, None);
            let gm_base = replay_on(SystemConfig::mini_baseline());
            let gm_omega = replay_on(SystemConfig::mini_omega());
            let mut o = Json::obj();
            o.set("base_cycles", ju(gm_base.total_cycles));
            o.set("omega_cycles", ju(gm_omega.total_cycles));
            o.set("pisc_ops", ju(gm_omega.mem.scratchpad.pisc_ops));
            o
        },
    );

    let mut t = Table::new([
        "framework",
        "baseline cycles",
        "omega cycles",
        "speedup",
        "PISC ops",
    ]);
    t.row([
        "Ligra (push, atomics)".to_string(),
        ligra_base.total_cycles.to_string(),
        ligra_omega.total_cycles.to_string(),
        format!(
            "{:.2}x",
            ligra_base.total_cycles as f64 / ligra_omega.total_cycles as f64
        ),
        ligra_omega.mem.scratchpad.pisc_ops.to_string(),
    ]);
    t.row([
        "GraphMat (gather, no atomics)".to_string(),
        gm_base_cycles.to_string(),
        gm_omega_cycles.to_string(),
        format!("{:.2}x", gm_base_cycles as f64 / gm_omega_cycles as f64),
        gm_pisc_ops.to_string(),
    ]);
    println!("{t}");
}

/// The locked-cache ablation's machines, PageRank on lj.
const LOCKED_MACHINES: [MachineKind; 3] = [
    MachineKind::Baseline,
    MachineKind::LockedCache,
    MachineKind::Omega,
];

/// §IX — locked cache vs. scratchpad: pin the same hot vertices in a
/// full-size L2 instead of carving out scratchpads. The paper predicts the
/// locked cache recovers hit rate but keeps the line-granularity traffic
/// and the core-executed atomics — measured here.
fn abl_locked(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new([
        "machine",
        "speedup (lj)",
        "LLC/SP hit %",
        "noc MB",
        "atomic stall %",
    ]);
    let base = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .total_cycles;
    for m in LOCKED_MACHINES {
        let r = s.report((Dataset::Lj, AlgoKey::PageRank, m));
        t.row([
            m.label(),
            format!("{:.2}x", base as f64 / r.total_cycles as f64),
            pct(r.mem.last_level_hit_rate()),
            format!("{:.2}", r.mem.noc.bytes as f64 / 1e6),
            pct(r.engine.atomic_bound_fraction()),
        ]);
    }
    println!("{t}");
}

/// The rival comparison's workloads and machines.
const RIVAL_ROWS: [(Dataset, AlgoKey); 3] = [
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Sd, AlgoKey::Bfs),
    (Dataset::Usa, AlgoKey::Sssp),
];
const RIVAL_MACHINES: [MachineKind; 4] = [
    MachineKind::Baseline,
    MachineKind::Omega,
    MachineKind::PimRank,
    MachineKind::SpecializedCache,
];

/// §IX — the three-way rival comparison: OMEGA's scratchpad+PISC against
/// a PIM-rank machine (reduce/apply executed at the DRAM rank) and a
/// GRASP-style specialized cache (degree-ordered pinning in a plain L2,
/// no scratchpad). Same trace, same hierarchy sizing — only the
/// vertex-property path differs.
fn rivals(f: &mut Figures) {
    let s = &mut f.s;
    let mut t = Table::new([
        "workload",
        "machine",
        "speedup",
        "LLC/SP hit %",
        "noc MB",
        "atomic stall %",
        "offloaded ops",
    ]);
    for (d, a) in RIVAL_ROWS {
        let base = s.report((d, a, MachineKind::Baseline)).total_cycles;
        for m in RIVAL_MACHINES {
            let r = s.report((d, a, m));
            // OMEGA offloads to the PISC engines behind the scratchpad;
            // the PIM machine offloads to the rank engines. One column
            // covers both rival offload paths.
            let offloaded = r.mem.scratchpad.pisc_ops + r.mem.scratchpad.pim_ops;
            t.row([
                format!("{}-{}", a.name(), d.code()),
                m.label(),
                format!("{:.2}x", base as f64 / r.total_cycles as f64),
                pct(r.mem.last_level_hit_rate()),
                format!("{:.2}", r.mem.noc.bytes as f64 / 1e6),
                pct(r.engine.atomic_bound_fraction()),
                offloaded.to_string(),
            ]);
        }
    }
    println!("{t}");
}

/// §IX — DRAM channel scaling (Green et al.): how much of each machine's
/// advantage is really memory-level parallelism. The PIM machine's rank
/// count grows with the channel count, so it is the one whose standing
/// this sweep can change.
fn channels(f: &mut Figures) {
    const CHANNELS: [usize; 4] = [1, 2, 4, 8];
    let systems = |ch: usize| {
        let mut out = [
            ("baseline", SystemConfig::mini_baseline()),
            ("omega", SystemConfig::mini_omega()),
            ("pim-rank", SystemConfig::mini_pim_rank()),
        ];
        for (_, sys) in &mut out {
            sys.machine.dram.channels = ch;
        }
        out
    };
    let exec_ser: ExecConfigSer = ExecConfig::default().into();
    let g = f.s.graph(Dataset::Lj).clone();
    let cycles: Vec<u64> = f.value(
        "channels",
        &format!("channels-pagerank-{}", Dataset::Lj.code()),
        Some(&exec_ser),
        |h| {
            h.write_str(Dataset::Lj.code());
            h.write_str("pagerank");
            for ch in CHANNELS {
                for (_, sys) in systems(ch) {
                    sys.canonicalize(h);
                }
            }
        },
        |v| {
            let mut out = Vec::new();
            for ch in CHANNELS {
                for (label, _) in systems(ch) {
                    out.push(ju_get(v, &format!("{label}-{ch}"))?);
                }
            }
            Some(out)
        },
        || {
            let algo = AlgoKey::PageRank.algo(&g);
            let (checksum, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
            let mut o = Json::obj();
            for ch in CHANNELS {
                for (label, sys) in systems(ch) {
                    let report = replay(algo.name(), checksum, &raw, &meta, &sys, None);
                    o.set(format!("{label}-{ch}").as_str(), ju(report.total_cycles));
                }
            }
            o
        },
    );
    let mut t = Table::new([
        "channels",
        "baseline cycles",
        "omega",
        "pim-rank",
        "omega speedup",
        "pim speedup",
    ]);
    for (i, ch) in CHANNELS.iter().enumerate() {
        let [base, omega, pim] = [cycles[3 * i], cycles[3 * i + 1], cycles[3 * i + 2]];
        t.row([
            ch.to_string(),
            base.to_string(),
            omega.to_string(),
            pim.to_string(),
            format!("{:.2}x", base as f64 / omega as f64),
            format!("{:.2}x", base as f64 / pim as f64),
        ]);
    }
    println!("{t}");
}

/// §III — the cost of atomic instructions on the baseline, measured the
/// paper's way: lower every atomic to a plain store and compare (the paper
/// reports "an overhead of up to 50%" on real hardware).
fn abl_atomics(f: &mut Figures) {
    use omega_core::layout::Layout;
    use omega_core::lower::{lower, Target};
    use omega_sim::{engine, hierarchy::CacheHierarchy};
    let exec_ser: ExecConfigSer = ExecConfig::default().into();
    let mut t = Table::new([
        "workload",
        "with atomics",
        "plain stores",
        "atomic overhead %",
    ]);
    for (d, a) in [
        (Dataset::Lj, AlgoKey::PageRank),
        (Dataset::Sd, AlgoKey::PageRank),
        (Dataset::Wiki, AlgoKey::Sssp),
        (Dataset::Ap, AlgoKey::Cc),
    ] {
        let g = f.s.graph(d).clone();
        let (atomic, plain) = f.value(
            "abl-atomics",
            &format!("abl-atomics-{}-{}", a.name(), d.code()),
            Some(&exec_ser),
            |h| {
                h.write_str(d.code());
                h.write_str(a.name());
                SystemConfig::mini_baseline().canonicalize(h);
            },
            |v| Some((ju_get(v, "atomic")?, ju_get(v, "plain")?)),
            || {
                let algo = a.algo(&g);
                let (_, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
                let layout = Layout::new(&meta);
                let machine = SystemConfig::mini_baseline().machine;
                let run_with = |target: Target| {
                    let mut mem = CacheHierarchy::new(&machine);
                    let traces = lower(&raw, &layout, target);
                    engine::run(traces, &mut mem, &machine).total_cycles
                };
                let mut o = Json::obj();
                o.set("atomic", ju(run_with(Target::Baseline)));
                o.set("plain", ju(run_with(Target::BaselinePlainAtomics)));
                o
            },
        );
        t.row([
            format!("{}-{}", a.name(), d.code()),
            atomic.to_string(),
            plain.to_string(),
            format!("{:.0}", 100.0 * (atomic as f64 / plain as f64 - 1.0)),
        ]);
    }
    println!("{t}");
}

/// Compresses a per-window utilisation series (values in `[0, 1]`) into a
/// fixed-width block-character sparkline.
fn sparkline(series: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return "—".into();
    }
    let cols = width.min(series.len()).max(1);
    (0..cols)
        .map(|c| {
            // Average the windows falling into this column.
            let lo = c * series.len() / cols;
            let hi = ((c + 1) * series.len() / cols).max(lo + 1);
            let avg = series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            let idx = (avg.clamp(0.0, 1.0) * 7.0).round() as usize;
            BLOCKS[idx.min(7)]
        })
        .collect()
}

/// The telemetry figure's workloads, each on the baseline and OMEGA.
const TELEMETRY_ROWS: [(Dataset, AlgoKey); 4] = [
    (Dataset::Sd, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
    (Dataset::Wiki, AlgoKey::Sssp),
];

/// The telemetry figure's session. It cannot use the main one, which
/// memoises telemetry-free runs. It shares the main session's store root
/// (telemetry settings are part of the fingerprint, so the entries never
/// collide).
fn telemetry_session(outer: &Session) -> Session {
    let window = match outer.scale() {
        DatasetScale::Tiny => 1 << 10,
        _ => TelemetryConfig::DEFAULT_WINDOW,
    };
    let mut s = Session::new(outer.scale())
        .verbose(false)
        .telemetry(TelemetryConfig::windowed(window))
        .jobs(outer.effective_jobs());
    if let Some(store) = outer.store() {
        let root = store.root();
        s = s
            .with_store(root)
            .unwrap_or_else(|e| die(&format!("cannot reopen store {}: {e}", root.display())));
    }
    s
}

/// Telemetry deep-dive — the observability companion to Figs. 3/16/17:
/// exact per-bucket stall attribution (every cycle lands in exactly one
/// bucket) and DRAM bandwidth utilisation over time from the
/// cycle-windowed sampler.
fn telemetry(f: &mut Figures) {
    let s = f.tel.get_or_insert_with(|| telemetry_session(&f.s));
    s.prefetch(&cross(TELEMETRY_ROWS, &PAIR));
    let mut t = Table::new([
        "workload",
        "machine",
        "issue %",
        "mem %",
        "atomic %",
        "barrier %",
        "drain %",
        "DRAM util over time",
    ]);
    for (d, a) in TELEMETRY_ROWS {
        for m in PAIR {
            let channels = m.system().machine.dram.channels;
            let r = s.report((d, a, m));
            let mut buckets = [0u64; 5];
            let mut total = 0u64;
            for c in &r.engine.per_core {
                buckets[0] += c.compute_cycles;
                buckets[1] += c.memory_stall_cycles;
                buckets[2] += c.atomic_stall_cycles;
                buckets[3] += c.barrier_cycles;
                buckets[4] += c.drain_cycles;
                total += c.finish_time;
            }
            let share = |b: u64| pct(b as f64 / total.max(1) as f64);
            let series: Vec<f64> = r
                .telemetry
                .as_ref()
                .map(|tel| {
                    let mut prev = 0u64;
                    tel.windows
                        .iter()
                        .map(|w| {
                            let len = w.end.saturating_sub(prev);
                            prev = w.end;
                            w.delta.dram.utilization(len, channels)
                        })
                        .collect()
                })
                .unwrap_or_default();
            t.row([
                format!("{}-{}", a.name(), d.code()),
                m.label(),
                share(buckets[0]),
                share(buckets[1]),
                share(buckets[2]),
                share(buckets[3]),
                share(buckets[4]),
                sparkline(&series, 24),
            ]);
        }
    }
    println!("{t}");
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// The whitespace-separated ids between `start` and the next `end`.
    fn listed<'a>(doc: &'a str, start: &str, end: &str) -> Vec<&'a str> {
        let from = doc.find(start).expect("id list present") + start.len();
        let list = &doc[from..from + doc[from..].find(end).expect("id list ends")];
        let mut ids: Vec<&str> = list.split_whitespace().filter(|w| *w != "//!").collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn readme_and_usage_list_exactly_the_table_ids() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).chain(["all"]).collect();
        ids.sort_unstable();
        let readme = include_str!("../../../../README.md");
        assert_eq!(
            listed(readme, "understood by `figures`, in `all` order: `", "`"),
            ids
        );
        assert_eq!(
            listed(include_str!("figures.rs"), "//! ids:", "//! ```"),
            ids
        );
    }
}
