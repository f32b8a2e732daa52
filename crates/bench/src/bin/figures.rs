//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures <id>... [--tiny|--scale S] [--store PATH] [--jobs N]
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
//! the session runs and trace summaries it reads and its render function.
//! Every simulated or trace-derived number a render prints comes from one
//! of those: an ablation is a run with a non-standard [`Variant`], and a
//! figure that reads the trace itself (Table II, figs. 4b, 5 and 18) reads
//! its group's [`omega_bench::session::TraceSummary`]. Before rendering, the runs and
//! summaries of all selected experiments are prefetched in one grouped
//! batch: one functional trace per trace group, replayed on every machine
//! that reads it. `--jobs N` works on up to N such groups at once
//! (default: all cores); each timing replay itself is serial.
//!
//! Each experiment prints the paper's reference value next to the measured
//! one; EXPERIMENTS.md records a captured run.
//!
//! With `--store PATH`, every simulated run and every trace summary is
//! persisted in a content-addressed store: a second invocation against
//! the same store replays nothing and re-traces nothing, yet produces
//! byte-identical stdout. The final stderr line reports the store's
//! hit/miss counters together with this process's functional-trace and
//! timing-replay counts.
//!
//! `--profile` prints a host-side self-time table to stderr at exit;
//! `--profile-out FILE` writes the same data as `omega-profile-report/v1`
//! JSON; `--trace FILE` writes a Chrome Trace Event file (host spans plus
//! simulated DRAM/NoC/core activity) loadable in Perfetto. All three are
//! off by default and leave disabled runs bit-identical.

use omega_bench::session::{
    paper_sweep, AlgoKey, MachineKind, Session, Slicing, Variant, SWEEP, SWEEP_ALGOS,
};
use omega_bench::{ExperimentSpec, ObsOptions, Table};
use omega_core::analytic::{estimate, WorkloadProfile};
use omega_core::config::SystemConfig;
use omega_core::runner::{functional_trace_count, timing_replay_count, RunReport};
use omega_energy::{energy_breakdown, node_table};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::reorder::Reordering;
use omega_graph::stats;
use omega_ligra::algorithms::Algo;
use omega_sim::obs;
use omega_sim::telemetry::TelemetryConfig;

/// One experiment of the evaluation.
struct Experiment {
    id: &'static str,
    render: fn(&mut Session),
    /// The session runs `render` reads. `main` prefetches them for every
    /// selected experiment at once, so each report a render asks for is
    /// already memoised.
    runs: fn(&mut Session) -> Vec<ExperimentSpec>,
    /// The trace summaries `render` reads, prefetched with the runs.
    summaries: fn(&mut Session) -> Vec<(Dataset, AlgoKey)>,
    caption: &'static str,
    /// Whether `all` (and an empty id list) runs it.
    in_all: bool,
}

impl Experiment {
    const fn new(
        id: &'static str,
        render: fn(&mut Session),
        runs: fn(&mut Session) -> Vec<ExperimentSpec>,
        caption: &'static str,
    ) -> Self {
        Experiment {
            id,
            render,
            runs,
            summaries: |_| Vec::new(),
            caption,
            in_all: true,
        }
    }
}

/// Every experiment, in `all` order: id, render, the session runs the
/// render reads, and caption; the four that read trace summaries name
/// them too.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 28] = [
    Experiment::new("table1", table1, no_runs,
        "graph dataset characterisation (measured vs paper Table I)"),
    Experiment { summaries: |_| AlgoKey::ALL.map(|a| (Dataset::Ap, a)).to_vec(),
        ..Experiment::new("table2", table2, no_runs,
        "graph algorithm characterisation, measured on ap (paper Table II)") },
    Experiment::new("table3", table3, no_runs,
        "experimental testbed setup (Table III, capacities at mini scale)"),
    Experiment::new("fig3", fig3, |_| cross(FIG3_ROWS, &[MachineKind::Baseline]),
        "execution-time breakdown, baseline CMP (paper: ~71% memory bound)"),
    Experiment::new("fig4a", fig4a, |_| cross(FIG4A_ROWS, &[MachineKind::Baseline]),
        "baseline cache hit rates (paper: L2/LLC below 50%)"),
    Experiment { summaries: |_| FIG4B_ROWS.to_vec(),
        ..Experiment::new("fig4b", fig4b, no_runs,
        "vtxProp accesses to the 20% most-connected vertices (paper: >75%)") },
    Experiment { summaries: fig5_summaries,
        ..Experiment::new("fig5", fig5, no_runs,
        "heat map: vtxProp accesses to top-20% vertices (100 = all)") },
    Experiment::new("fig14", fig14, paper_sweep,
        "OMEGA speedup over baseline (paper: 2x average, PageRank 2.8x)"),
    Experiment::new("fig15", fig15, sweep_pagerank,
        "last-level storage hit rate, PageRank (paper: 44% -> >75%)"),
    Experiment::new("fig16", fig16, sweep_pagerank,
        "DRAM bandwidth utilisation, PageRank (paper: 2.28x better on OMEGA)"),
    Experiment::new("fig17", fig17, sweep_pagerank,
        "on-chip interconnect traffic, PageRank (paper: >3x reduction)"),
    Experiment { summaries: |_| FIG18_GRAPHS.map(|d| (d, AlgoKey::PageRank)).to_vec(),
        ..Experiment::new("fig18", fig18, |_| cross(FIG18_ROWS, &PAIR),
        "power-law (lj) vs non-power-law (USA) (paper: USA max 1.15x)") },
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
    Experiment::new("abl-reorder", abl_reorder,
        |_| ORDERINGS.map(|(_, o)| reordered(o)).to_vec(),
        "offline reordering variants, PageRank lj baseline (paper: ~8% best)"),
    Experiment::new("abl-offchip", abl_offchip,
        |_| cross(OFFCHIP_ROWS, &pair_and(MachineKind::OmegaOffchip)),
        "§IX off-chip extensions: word DRAM + PIM + hybrid page policy (paper: future work)"),
    Experiment::new("abl-slicing", abl_slicing,
        |s| SLICINGS.iter().flat_map(|&(_, slicing)| slices(s, slicing)).collect(),
        "§VII graph slicing: plain vs power-law-aware (paper: up to 5x fewer slices)"),
    Experiment::new("abl-graphmat", abl_graphmat,
        |_| FRAMEWORKS.iter().flat_map(|&(_, v)| PAIR.map(|m| lj_pagerank(m, v))).collect(),
        "§V.F framework independence: Ligra vs GraphMat-style PageRank"),
    Experiment::new("abl-locked", abl_locked, |_| cross(LJ_PAGERANK, &LOCKED_MACHINES),
        "§IX locked cache vs scratchpad, PageRank (paper: locking still loses)"),
    Experiment::new("rivals", rivals, |_| cross(RIVAL_ROWS, &RIVAL_MACHINES),
        "§IX rival subsystems: omega vs PIM ranks vs specialized cache"),
    Experiment::new("channels", channels, |_| CHANNELS.iter()
        .flat_map(|&ch| CHANNEL_MACHINES.map(|m| lj_pagerank(m, Variant::DramChannels(ch))))
        .collect(),
        "§IX DRAM channel scaling, PageRank on lj (Green et al.: MLP vs compute placement)"),
    // Not in `all`: neither captured golden (results/figures_all_*.txt)
    // includes it, and `all` must keep reproducing both.
    Experiment { in_all: false, ..Experiment::new("abl-atomics", abl_atomics,
        |_| ATOMICS_ROWS.iter()
            .flat_map(|&(d, a)| ATOMICS.map(|v| varied(d, a, MachineKind::Baseline, v)))
            .collect(),
        "§III atomic-instruction overhead on the baseline (paper: up to 50%)") },
    Experiment::new("telemetry", telemetry, telemetry_runs,
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

/// `(d, a, m)` in variant `variant`.
fn varied(d: Dataset, a: AlgoKey, m: MachineKind, variant: Variant) -> ExperimentSpec {
    ExperimentSpec {
        variant,
        ..ExperimentSpec::new(d, a, m)
    }
}

/// PageRank on lj on `m` in variant `variant`.
fn lj_pagerank(m: MachineKind, variant: Variant) -> ExperimentSpec {
    varied(Dataset::Lj, AlgoKey::PageRank, m, variant)
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
    let summaries: Vec<(Dataset, AlgoKey)> = selected
        .iter()
        .flat_map(|e| (e.summaries)(&mut session))
        .collect();
    session.prefetch_with_summaries(&runs, &summaries);
    for e in selected {
        let _fig = obs::span_owned(format!("figure.{}", e.id));
        println!("\n==== {}: {} ====", e.id, e.caption);
        (e.render)(&mut session);
    }

    // One machine-greppable summary line: how much the store served and how
    // much tracing/replaying this process still had to do. A fully warm
    // store shows `traces=0 replays=0`.
    if let Some(store) = session.store() {
        let c = store.counters();
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

/// The baseline and OMEGA reports of one workload.
fn pair(s: &mut Session, d: Dataset, a: AlgoKey) -> (RunReport, RunReport) {
    let base = s.report((d, a, MachineKind::Baseline)).clone();
    (base, s.report((d, a, MachineKind::Omega)).clone())
}

fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

/// Table I — dataset characterisation.
fn table1(s: &mut Session) {
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
        let g = s.graph(d);
        let st = stats::degree_stats(g);
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
fn table2(s: &mut Session) {
    let g = s.graph(Dataset::Ap).clone(); // symmetric: every algorithm runs
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
        let spec = key.algo(&g).spec();
        let summary = s.summary(Dataset::Ap, key);
        t.row([
            spec.name.to_string(),
            spec.atomic_op.to_string(),
            format!("{} ({})", pct(summary.atomic_fraction), spec.atomic_level),
            format!("{} ({})", pct(summary.random_fraction), spec.random_level),
            spec.vtx_prop_bytes.to_string(),
            format!("{} ({})", summary.monitored_props, spec.n_vtx_props),
            spec.active_list.to_string(),
            spec.reads_src_prop.to_string(),
        ]);
    }
    println!("{t}");
}

/// Table III — experimental setup dump.
fn table3(_: &mut Session) {
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
fn fig3(s: &mut Session) {
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
fn fig4a(s: &mut Session) {
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

/// Fig. 4b's workloads.
const FIG4B_ROWS: [(Dataset, AlgoKey); 5] = [
    (Dataset::Sd, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
    (Dataset::Ic, AlgoKey::Sssp),
    (Dataset::RoadCa, AlgoKey::PageRank),
];

/// Fig. 4b — share of vtxProp accesses hitting the top-20% vertices.
fn fig4b(s: &mut Session) {
    let mut t = Table::new(["workload", "top-20% access share %"]);
    for (d, a) in FIG4B_ROWS {
        t.row([
            format!("{}-{}", a.name(), d.code()),
            pct(s.summary(d, a).hot_prop_share),
        ]);
    }
    println!("{t}");
}

/// Fig. 5's cells: every algorithm on every sweep dataset that supports it.
fn fig5_summaries(s: &mut Session) -> Vec<(Dataset, AlgoKey)> {
    SWEEP
        .iter()
        .flat_map(|&d| AlgoKey::ALL.map(|a| (d, a)))
        .filter(|&pair| s.supports(pair))
        .collect()
}

/// Fig. 5 — heat map: vtxProp access share to top-20% vertices.
fn fig5(s: &mut Session) {
    let mut t = Table::new(
        std::iter::once("dataset".to_string())
            .chain(AlgoKey::ALL.iter().map(|a| a.name().to_string())),
    );
    for d in SWEEP {
        let mut cells = vec![d.code().to_string()];
        for a in AlgoKey::ALL {
            if !s.supports((d, a)) {
                cells.push("-".into());
                continue;
            }
            cells.push(pct(s.summary(d, a).hot_prop_share));
        }
        t.row(cells);
    }
    println!("{t}");
}

/// Fig. 14 — the headline speedup sweep.
fn fig14(s: &mut Session) {
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
fn fig15(s: &mut Session) {
    let mut t = Table::new(["dataset", "baseline %", "omega (L2+SP) %", "resident vtx %"]);
    let mut sums = (0.0, 0.0);
    for d in SWEEP {
        let (base, omega) = pair(s, d, AlgoKey::PageRank);
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
fn fig16(s: &mut Session) {
    let mut t = Table::new(["dataset", "baseline util %", "omega util %", "ratio"]);
    let mut ratios = 0.0;
    for d in SWEEP {
        let (base, omega) = pair(s, d, AlgoKey::PageRank);
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
fn fig17(s: &mut Session) {
    let mut t = Table::new(["dataset", "baseline MB", "omega MB", "reduction"]);
    let mut reds = 0.0;
    for d in SWEEP {
        let (base, omega) = pair(s, d, AlgoKey::PageRank);
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

/// Fig. 18's graphs.
const FIG18_GRAPHS: [Dataset; 2] = [Dataset::Lj, Dataset::Usa];

/// Fig. 18's graphs, PageRank and BFS.
const FIG18_ROWS: [(Dataset, AlgoKey); 4] = [
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Lj, AlgoKey::Bfs),
    (Dataset::Usa, AlgoKey::PageRank),
    (Dataset::Usa, AlgoKey::Bfs),
];

/// Fig. 18 — power-law vs. non-power-law.
fn fig18(s: &mut Session) {
    let mut t = Table::new([
        "graph",
        "PageRank speedup",
        "BFS speedup",
        "top-20% access share %",
    ]);
    for d in FIG18_GRAPHS {
        let share = s.summary(d, AlgoKey::PageRank).hot_prop_share;
        t.row([
            d.code().to_string(),
            format!("{:.2}x", s.speedup(d, AlgoKey::PageRank)),
            format!("{:.2}x", s.speedup(d, AlgoKey::Bfs)),
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
fn fig19(s: &mut Session) {
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
fn fig20(s: &mut Session) {
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
fn table4(_: &mut Session) {
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
fn fig21(s: &mut Session) {
    let mut t = Table::new([
        "dataset",
        "baseline mJ",
        "omega mJ",
        "saving",
        "omega DRAM share %",
    ]);
    let mut savings = 0.0;
    for d in SWEEP {
        let (base, omega) = pair(s, d, AlgoKey::PageRank);
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
    let (base, omega) = pair(s, Dataset::Lj, AlgoKey::PageRank);
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
fn abl_pisc(s: &mut Session) {
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
fn abl_chunk(s: &mut Session) {
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
fn abl_svb(s: &mut Session) {
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

/// The reordering ablation's orderings, each applied to the unordered lj.
const ORDERINGS: [(&str, Reordering); 5] = [
    ("identity", Reordering::Identity),
    ("in-degree sort", Reordering::InDegreeSort),
    ("out-degree sort", Reordering::OutDegreeSort),
    (
        "nth-element 20%",
        Reordering::NthElement { frac_permille: 200 },
    ),
    (
        "slashburn-like",
        Reordering::SlashBurnLike { hubs_per_round: 64 },
    ),
];

/// PageRank on lj reordered by `ord`, on the baseline.
fn reordered(ord: Reordering) -> ExperimentSpec {
    lj_pagerank(MachineKind::Baseline, Variant::Reordered(ord))
}

/// §III/§VI — reordering algorithm comparison on the baseline.
fn abl_reorder(s: &mut Session) {
    let mut t = Table::new([
        "ordering",
        "baseline cycles",
        "LLC hit %",
        "speedup vs identity",
    ]);
    let identity_cycles = s.report(reordered(Reordering::Identity)).total_cycles;
    for (name, ord) in ORDERINGS {
        let r = s.report(reordered(ord));
        t.row([
            name.to_string(),
            r.total_cycles.to_string(),
            pct(r.mem.l2.hit_rate()),
            format!("{:.2}x", identity_cycles as f64 / r.total_cycles as f64),
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
fn abl_offchip(s: &mut Session) {
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

/// The slicing ablation's cuts, with their row labels.
const SLICINGS: [(&str, Slicing); 3] = [
    ("unsliced (tiny SP)", Slicing::Unsliced),
    ("whole-slice fits", Slicing::WholeSliceFits),
    ("hot-20% fits (§VII.3)", Slicing::HotFits),
];

/// PageRank on every slice of uk under `slicing`.
fn slices(s: &mut Session, slicing: Slicing) -> Vec<ExperimentSpec> {
    let variant = |index| Variant::Sliced { slicing, index };
    (0..slicing.count(s.graph(Dataset::Uk)))
        .map(|i| {
            varied(
                Dataset::Uk,
                AlgoKey::PageRank,
                MachineKind::Omega,
                variant(i),
            )
        })
        .collect()
}

/// §VII — scaling scratchpads to graphs whose hot set does not fit:
/// plain slicing (every slice's vtxProp fits) vs. the paper's
/// power-law-aware slicing (only each slice's hot 20% must fit), which
/// cuts the slice count "by up to 5x" and with it the per-slice overhead.
/// The scratchpad is 1/16 of standard, too small for the whole hot set.
fn abl_slicing(s: &mut Session) {
    let mut t = Table::new(["strategy", "slices", "total cycles", "vs unsliced"]);
    let mut unsliced = 0u64;
    for (name, slicing) in SLICINGS {
        let runs = slices(s, slicing);
        let total: u64 = runs.iter().map(|&spec| s.report(spec).total_cycles).sum();
        if slicing == Slicing::Unsliced {
            unsliced = total;
        }
        t.row([
            name.to_string(),
            runs.len().to_string(),
            total.to_string(),
            format!("{:.2}x", unsliced as f64 / total as f64),
        ]);
    }
    println!("{t}");
}

/// The frameworks of the GraphMat ablation, with their row labels.
const FRAMEWORKS: [(&str, Variant); 2] = [
    ("Ligra (push, atomics)", Variant::Standard),
    ("GraphMat (gather, no atomics)", Variant::GraphMat),
];

/// §V.F — framework independence: the same OMEGA hardware under a
/// GraphMat-style (partitioned, atomic-free) framework. GraphMat trades
/// atomics for gather-direction random reads, so OMEGA's scratchpads still
/// help but its PISC offload has nothing to do — the speedup is smaller
/// than under Ligra, which is exactly what makes OMEGA's
/// framework-independence claim meaningful.
fn abl_graphmat(s: &mut Session) {
    let mut t = Table::new([
        "framework",
        "baseline cycles",
        "omega cycles",
        "speedup",
        "PISC ops",
    ]);
    for (name, variant) in FRAMEWORKS {
        let base = s
            .report(lj_pagerank(MachineKind::Baseline, variant))
            .total_cycles;
        let omega = s.report(lj_pagerank(MachineKind::Omega, variant));
        t.row([
            name.to_string(),
            base.to_string(),
            omega.total_cycles.to_string(),
            format!("{:.2}x", base as f64 / omega.total_cycles as f64),
            omega.mem.scratchpad.pisc_ops.to_string(),
        ]);
    }
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
fn abl_locked(s: &mut Session) {
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
fn rivals(s: &mut Session) {
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

/// The channel sweep's channel counts and machines.
const CHANNELS: [usize; 4] = [1, 2, 4, 8];
const CHANNEL_MACHINES: [MachineKind; 3] = [
    MachineKind::Baseline,
    MachineKind::Omega,
    MachineKind::PimRank,
];

/// §IX — DRAM channel scaling (Green et al.): how much of each machine's
/// advantage is really memory-level parallelism. The PIM machine's rank
/// count grows with the channel count, so it is the one whose standing
/// this sweep can change.
fn channels(s: &mut Session) {
    let mut t = Table::new([
        "channels",
        "baseline cycles",
        "omega",
        "pim-rank",
        "omega speedup",
        "pim speedup",
    ]);
    for ch in CHANNELS {
        let [base, omega, pim] = CHANNEL_MACHINES.map(|m| {
            s.report(lj_pagerank(m, Variant::DramChannels(ch)))
                .total_cycles
        });
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

/// The atomics ablation's workloads, each with atomics and with plain
/// stores on the baseline.
const ATOMICS_ROWS: [(Dataset, AlgoKey); 4] = [
    (Dataset::Lj, AlgoKey::PageRank),
    (Dataset::Sd, AlgoKey::PageRank),
    (Dataset::Wiki, AlgoKey::Sssp),
    (Dataset::Ap, AlgoKey::Cc),
];
const ATOMICS: [Variant; 2] = [Variant::Standard, Variant::PlainAtomics];

/// §III — the cost of atomic instructions on the baseline, measured the
/// paper's way: lower every atomic to a plain store and compare (the paper
/// reports "an overhead of up to 50%" on real hardware).
fn abl_atomics(s: &mut Session) {
    let mut t = Table::new([
        "workload",
        "with atomics",
        "plain stores",
        "atomic overhead %",
    ]);
    for (d, a) in ATOMICS_ROWS {
        let [atomic, plain] = ATOMICS.map(|v| {
            s.report(varied(d, a, MachineKind::Baseline, v))
                .total_cycles
        });
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

/// The telemetry figure's runs: [`TELEMETRY_ROWS`] × [`PAIR`], sampled
/// in 1,024-cycle windows at tiny scale and the default window otherwise.
/// They join the trace groups of the same workloads' plain runs.
fn telemetry_runs(s: &mut Session) -> Vec<ExperimentSpec> {
    let window = match s.scale() {
        DatasetScale::Tiny => 1 << 10,
        _ => TelemetryConfig::DEFAULT_WINDOW,
    };
    let telemetry = TelemetryConfig::windowed(window);
    cross(TELEMETRY_ROWS, &PAIR)
        .into_iter()
        .map(|spec| ExperimentSpec { telemetry, ..spec })
        .collect()
}

/// Telemetry deep-dive — the observability companion to Figs. 3/16/17:
/// exact per-bucket stall attribution (every cycle lands in exactly one
/// bucket) and DRAM bandwidth utilisation over time from the
/// cycle-windowed sampler.
fn telemetry(s: &mut Session) {
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
    for spec in telemetry_runs(s) {
        let channels = spec.machine.system().machine.dram.channels;
        let r = s.report(spec);
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
            format!("{}-{}", spec.algo.name(), spec.dataset.code()),
            spec.machine.label(),
            share(buckets[0]),
            share(buckets[1]),
            share(buckets[2]),
            share(buckets[3]),
            share(buckets[4]),
            sparkline(&series, 24),
        ]);
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
