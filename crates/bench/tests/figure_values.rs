//! Every figure value is a session run or a trace summary. These tests
//! keep the direct computations those values replaced as oracles: a
//! session result must equal what a hand-built trace and replay of the
//! same workload produce.

use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session, Slicing, Variant};
use omega_core::config::SystemConfig;
use omega_core::layout::Layout;
use omega_core::lower::{lower, Tape, Target};
use omega_core::runner::{exec_for, replay, trace_algorithm, RunReport, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::reorder::{self, Reordering};
use omega_graph::slicing;
use omega_ligra::algorithms::Algo;
use omega_ligra::trace::CollectingTracer;
use omega_ligra::{graphmat, Ctx, ExecConfig};
use omega_sim::engine;
use omega_sim::hierarchy::CacheHierarchy;

fn varied(d: Dataset, a: AlgoKey, m: MachineKind, variant: Variant) -> ExperimentSpec {
    ExperimentSpec {
        variant,
        ..ExperimentSpec::new(d, a, m)
    }
}

fn session() -> Session {
    Session::new(DatasetScale::Tiny).verbose(false)
}

/// The simulated part of a report: everything but the algorithm name and
/// the functional checksum, which a hand-built GraphMat replay leaves
/// unset.
fn simulated(
    r: &RunReport,
) -> (
    u64,
    &omega_sim::EngineReport,
    &omega_sim::stats::MemStats,
    u32,
) {
    (r.total_cycles, &r.engine, &r.mem, r.hot_count)
}

/// One functional trace serves every machine of a group, and a trace
/// summary reuses the group's trace, only because every machine and every
/// machine-side variant traces with the default execution parameters.
#[test]
fn every_machine_traces_with_the_default_execution_parameters() {
    let mut machines = MachineKind::NAMED.to_vec();
    machines.push(MachineKind::scaled_sp(250).expect("valid scale"));
    let mut variants = vec![Variant::Standard];
    variants.extend([1, 2, 4, 8].map(Variant::DramChannels));
    variants.extend(
        [Slicing::Unsliced, Slicing::WholeSliceFits, Slicing::HotFits]
            .map(|slicing| Variant::Sliced { slicing, index: 0 }),
    );
    for m in machines {
        for &variant in &variants {
            let spec = varied(Dataset::Sd, AlgoKey::PageRank, m, variant);
            assert_eq!(
                exec_for(&spec.system()),
                ExecConfig::default(),
                "{}",
                spec.label()
            );
        }
    }
}

#[test]
fn trace_summaries_equal_a_direct_trace_of_every_algorithm() {
    let mut s = session();
    let g = s.graph(Dataset::Ap).clone();
    let pairs = AlgoKey::ALL.map(|a| (Dataset::Ap, a));
    // CC's summary comes from a group that also replays a run; the others
    // are traced for their summary alone.
    let cc_run = ExperimentSpec::new(Dataset::Ap, AlgoKey::Cc, MachineKind::Baseline);
    s.prefetch_with_summaries(&[cc_run], &pairs);
    let hot = (g.num_vertices() as f64 * 0.2).ceil() as u32;
    for a in AlgoKey::ALL {
        let (_, raw, meta) = trace_algorithm(&g, a.algo(&g), &ExecConfig::default());
        let classes = raw.classify();
        let got = s.summary(Dataset::Ap, a);
        let bits = |x: f64| x.to_bits();
        assert_eq!(
            bits(got.atomic_fraction),
            bits(classes.atomic_fraction()),
            "{}",
            a.name()
        );
        assert_eq!(
            bits(got.random_fraction),
            bits(classes.random_fraction()),
            "{}",
            a.name()
        );
        assert_eq!(
            got.monitored_props,
            meta.props.iter().filter(|p| p.monitored).count() as u64,
            "{}",
            a.name()
        );
        assert_eq!(
            bits(got.hot_prop_share),
            bits(raw.prop_access_fraction_below(hot)),
            "{}",
            a.name()
        );
    }
    // A summary no prefetch asked for is computed on demand.
    assert_eq!(
        session().summary(Dataset::Ap, AlgoKey::Tc),
        s.summary(Dataset::Ap, AlgoKey::Tc)
    );
}

#[test]
fn a_channel_run_equals_a_hand_built_replay() {
    let mut s = session();
    let spec = varied(
        Dataset::Lj,
        AlgoKey::PageRank,
        MachineKind::PimRank,
        Variant::DramChannels(2),
    );
    let got = s.report(spec).clone();
    let g = s.graph(Dataset::Lj);
    let algo = AlgoKey::PageRank.algo(g);
    let (checksum, raw, meta) = trace_algorithm(g, algo, &ExecConfig::default());
    let tape = Tape::new(&raw, &meta);
    let mut sys = SystemConfig::mini_pim_rank();
    sys.machine.dram.channels = 2;
    let want = replay(algo.name(), checksum, &tape, &sys, None);
    assert_eq!(got, want);
}

#[test]
fn graphmat_runs_equal_a_hand_built_trace_and_replay() {
    let mut s = session();
    let on = |m| varied(Dataset::Lj, AlgoKey::PageRank, m, Variant::GraphMat);
    s.prefetch(&[on(MachineKind::Baseline), on(MachineKind::Omega)]);
    let g = s.graph(Dataset::Lj).clone();
    let exec = ExecConfig::default();
    let mut tracer = CollectingTracer::new(exec.n_cores);
    let mut ctx = Ctx::new(exec, &mut tracer);
    graphmat::pagerank_graphmat(&g, &mut ctx, 1);
    let meta = ctx.meta_for(g.num_vertices() as u64, g.num_arcs(), g.is_weighted());
    let raw = tracer.finish();
    let tape = Tape::new(&raw, &meta);
    for (m, sys) in [
        (MachineKind::Baseline, SystemConfig::mini_baseline()),
        (MachineKind::Omega, SystemConfig::mini_omega()),
    ] {
        let want = replay("pagerank", 0.0, &tape, &sys, None);
        let got = s.report(on(m));
        assert_eq!(simulated(got), simulated(&want), "{m}");
    }
    // GraphMat has no atomics to offload, and its trace is not Ligra's.
    assert_eq!(s.report(on(MachineKind::Omega)).mem.scratchpad.pisc_ops, 0);
    let ligra = s
        .report((Dataset::Lj, AlgoKey::PageRank, MachineKind::Baseline))
        .total_cycles;
    assert_ne!(s.report(on(MachineKind::Baseline)).total_cycles, ligra);
}

#[test]
fn plain_atomic_runs_equal_the_materialised_lowering() {
    let mut s = session();
    let (d, a) = (Dataset::Sd, AlgoKey::PageRank);
    let plain = s
        .report(varied(d, a, MachineKind::Baseline, Variant::PlainAtomics))
        .total_cycles;
    let atomic = s.report((d, a, MachineKind::Baseline)).total_cycles;
    let g = s.graph(d);
    let (_, raw, meta) = trace_algorithm(g, a.algo(g), &ExecConfig::default());
    let layout = Layout::new(&meta);
    let machine = SystemConfig::mini_baseline().machine;
    let run_with = |target: Target| {
        let mut mem = CacheHierarchy::new(&machine);
        engine::run(lower(&raw, &layout, target), &mut mem, &machine).total_cycles
    };
    assert_eq!(atomic, run_with(Target::Baseline));
    assert_eq!(plain, run_with(Target::BaselinePlainAtomics));
    assert!(plain < atomic);
}

#[test]
fn reordered_runs_equal_a_runner_on_the_reordered_graph() {
    let mut s = session();
    let unordered = Dataset::Lj
        .build_unordered(DatasetScale::Tiny)
        .expect("dataset builds");
    for ord in [Reordering::Identity, Reordering::InDegreeSort] {
        let got = s
            .report(varied(
                Dataset::Lj,
                AlgoKey::PageRank,
                MachineKind::Baseline,
                Variant::Reordered(ord),
            ))
            .clone();
        let perm = reorder::compute_permutation(&unordered, ord);
        let rg = reorder::apply(&unordered, &perm).expect("sized to graph");
        let want = Runner::new(SystemConfig::mini_baseline()).run(&rg, Algo::PageRank { iters: 1 });
        assert_eq!(got, want, "{ord:?}");
    }
}

#[test]
fn slices_are_the_slicers_slices_on_the_small_scratchpad() {
    let mut s = session();
    let g = s.graph(Dataset::Uk).clone();
    let budget = (Slicing::SP_BYTES * 16 / 9) as usize;
    for (slicing, want) in [
        (
            Slicing::WholeSliceFits,
            slicing::slice_by_vertex_budget(&g, budget).expect("budget > 0"),
        ),
        (
            Slicing::HotFits,
            slicing::slice_hot_budget(&g, budget, 0.2).expect("budget > 0"),
        ),
    ] {
        assert_eq!(slicing.count(&g) as usize, want.len(), "{slicing:?}");
        for (index, slice) in want.iter().enumerate() {
            let spec = varied(
                Dataset::Uk,
                AlgoKey::PageRank,
                MachineKind::Omega,
                Variant::Sliced {
                    slicing,
                    index: index as u32,
                },
            );
            assert_eq!(s.report(spec).n_arcs, slice.graph.num_arcs(), "{slicing:?}");
        }
    }
    // The whole graph on the same small scratchpad.
    let unsliced = varied(
        Dataset::Uk,
        AlgoKey::PageRank,
        MachineKind::Omega,
        Variant::Sliced {
            slicing: Slicing::Unsliced,
            index: 0,
        },
    );
    assert_eq!(Slicing::Unsliced.count(&g), 1);
    let want = Runner::new(SystemConfig::mini_omega().with_scratchpad_bytes(Slicing::SP_BYTES))
        .run(&g, Algo::PageRank { iters: 1 });
    assert_eq!(s.report(unsliced), &want);
}
