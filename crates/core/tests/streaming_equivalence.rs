//! Golden equivalence of the replay pipeline.
//!
//! The production replay path lowers a trace once into a [`Tape`] and
//! decodes it for each machine as the engine pulls; these tests pin it
//! bit-for-bit to the reference path that first materialises the whole
//! lowered trace for one target with [`lower`] and replays the vectors.
//! Cycles, every memory-system statistic, and NoC bytes must be identical
//! — the tape is an implementation strategy, not a model change.

use omega_core::config::{MemoryModel, OmegaConfig, SystemConfig};
use omega_core::layout::Layout;
use omega_core::lower::{lower, LoweringStream, Tape, Target};
use omega_core::machine::OmegaMemory;
use omega_core::pim::PimRankMemory;
use omega_core::pinned::pinned_hierarchy;
use omega_core::runner::{replay, replay_plain_atomics, trace_algorithm};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_ligra::algorithms::Algo;
use omega_ligra::trace::{RawTrace, TraceEvent, TraceMeta};
use omega_ligra::ExecConfig;
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::stats::MemStats;
use omega_sim::{engine, AtomicKind, EngineReport, MachineConfig, OpSource, Trace};

/// The reference path: materialise the full lowered trace for the
/// machine's target, then replay it on the machine's memory model (what
/// `runner::replay` did before lowering went lazy). OMEGA lowers for its
/// resident vertices; every other model sees the baseline lowering, with
/// atomics demoted to stores when `plain_atomics` is set.
fn replay_materialised(
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
    plain_atomics: bool,
) -> (EngineReport, MemStats) {
    let layout = Layout::new(meta);
    let baseline = if plain_atomics {
        Target::BaselinePlainAtomics
    } else {
        Target::Baseline
    };
    let run = |traces: Vec<Trace>, mem: &mut dyn omega_sim::MemorySystem| {
        engine::run_source(
            &mut omega_sim::VecOpSource::new(traces),
            mem,
            &system.machine,
        )
    };
    match system.model {
        MemoryModel::Omega(_) => {
            let mut mem = OmegaMemory::new(system, layout.clone(), meta);
            let target = Target::Omega {
                hot_count: mem.hot_count(),
            };
            let report = run(lower(raw, &layout, target), &mut mem);
            (report, mem.stats())
        }
        MemoryModel::PimRank(_) => {
            let mut mem = PimRankMemory::new(system, layout.clone(), meta);
            let report = run(lower(raw, &layout, baseline), &mut mem);
            (report, mem.stats())
        }
        MemoryModel::Pinned {
            bytes_per_core,
            order,
        } => {
            let (mut mem, _) =
                pinned_hierarchy(&system.machine, &layout, meta, bytes_per_core, order);
            let report = run(lower(raw, &layout, baseline), &mut mem);
            (report, mem.stats())
        }
        MemoryModel::Baseline => {
            let mut mem = CacheHierarchy::new(&system.machine);
            let report = run(lower(raw, &layout, baseline), &mut mem);
            (report, mem.stats())
        }
    }
}

/// The configuration of every machine kind the benchmark session runs:
/// the baseline, OMEGA and its ablations (a half-size scratchpad among
/// them), and the three rivals.
fn every_machine() -> Vec<SystemConfig> {
    let omega = |omega: OmegaConfig| {
        SystemConfig::omega_from_baseline(MachineConfig::mini_baseline(), omega)
    };
    let standard = OmegaConfig::default();
    vec![
        SystemConfig::mini_baseline(),
        SystemConfig::mini_omega(),
        omega(OmegaConfig {
            sp_bytes_per_core: standard.sp_bytes_per_core / 2,
            ..standard
        }),
        omega(OmegaConfig {
            pisc_enabled: false,
            ..standard
        }),
        omega(OmegaConfig {
            svb_enabled: false,
            ..standard
        }),
        omega(OmegaConfig {
            mapping_chunk: 64,
            ..standard
        }),
        omega(OmegaConfig {
            offchip: true,
            ..standard
        }),
        SystemConfig::mini_locked_cache(),
        SystemConfig::mini_pim_rank(),
        SystemConfig::mini_specialized_cache(),
    ]
}

#[test]
fn streaming_replay_is_bit_identical_to_materialised_replay() {
    type MakeAlgo = fn(&omega_graph::CsrGraph) -> Algo;
    let algos: [(&str, MakeAlgo); 3] = [
        ("pagerank", |_| Algo::PageRank { iters: 1 }),
        ("bfs", |g| Algo::Bfs { root: 0 }.with_default_root(g)),
        ("sssp", |g| Algo::Sssp { root: 0 }.with_default_root(g)),
    ];
    for dataset in [Dataset::Sd, Dataset::Usa] {
        let g = dataset.build(DatasetScale::Tiny).unwrap();
        for (name, make) in algos {
            let algo = make(&g);
            let (_, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
            let tape = Tape::new(&raw, &meta);
            for system in every_machine() {
                for plain_atomics in [false, true] {
                    let (want_engine, want_mem) =
                        replay_materialised(&raw, &meta, &system, plain_atomics);
                    let got = if plain_atomics {
                        replay_plain_atomics(name, 0.0, &tape, &system)
                    } else {
                        replay(name, 0.0, &tape, &system, None)
                    };
                    let what = format!(
                        "{name} on {dataset:?} / {} (plain atomics: {plain_atomics})",
                        system.label()
                    );
                    assert!(
                        got.telemetry.is_none(),
                        "telemetry must stay off unless requested"
                    );
                    assert_eq!(got.engine, want_engine, "{what}: engine reports diverge");
                    assert_eq!(got.mem, want_mem, "{what}: memory stats diverge");
                    assert_eq!(
                        got.mem.noc.bytes, want_mem.noc.bytes,
                        "{what}: NoC bytes diverge"
                    );
                }
            }
        }
    }
}

/// A random short logical trace over a few cores.
fn arb_raw(rng: &mut SmallRng) -> RawTrace {
    let n_cores = rng.gen_range(1usize..5);
    let streams = (0..n_cores)
        .map(|_| {
            let len = rng.gen_range(0usize..80);
            (0..len)
                .map(|_| match rng.gen_range(0u32..10) {
                    0 => TraceEvent::Compute(rng.gen_range(1u32..500)),
                    1 => TraceEvent::PropRead {
                        id: 0,
                        v: rng.gen_range(0u32..96),
                    },
                    2 => TraceEvent::PropReadSrc {
                        id: 0,
                        v: rng.gen_range(0u32..96),
                    },
                    3 => TraceEvent::PropWrite {
                        id: 0,
                        v: rng.gen_range(0u32..96),
                    },
                    4 => TraceEvent::PropAtomic {
                        id: 0,
                        v: rng.gen_range(0u32..96),
                        kind: AtomicKind::FpAdd,
                    },
                    5 => TraceEvent::EdgeRead {
                        arc: rng.gen_range(0u64..500),
                    },
                    6 => TraceEvent::FrontierRead {
                        index: rng.gen_range(0u64..96),
                        dense: rng.gen_bool(),
                    },
                    7 => TraceEvent::FrontierWrite {
                        vertex: rng.gen_range(0u32..96),
                        dense: rng.gen_bool(),
                        fused: rng.gen_bool(),
                    },
                    8 => TraceEvent::NGraph,
                    _ => TraceEvent::Barrier,
                })
                .collect()
        })
        .collect();
    RawTrace::from_events(streams)
}

/// Pulling a [`LoweringStream`] core by core — in an adversarially
/// interleaved order, as the engine does — yields exactly the ops that the
/// collecting `lower()` materialises, per core and in order. This pins the
/// per-core cursor state (sparse-out and bookkeeping slots) as independent
/// across cores.
#[test]
fn lowering_stream_matches_collected_lower_under_interleaving() {
    let meta = TraceMeta {
        props: vec![omega_ligra::trace::PropSpec {
            entry_bytes: 8,
            len: 96,
            monitored: true,
        }],
        n_vertices: 96,
        n_arcs: 500,
        weighted: false,
    };
    let layout = Layout::new(&meta);
    let mut rng = SmallRng::seed_from_u64(0x57E4_0001);
    for case in 0..64 {
        let raw = arb_raw(&mut rng);
        for target in [
            Target::Baseline,
            Target::BaselinePlainAtomics,
            Target::Omega { hot_count: 20 },
        ] {
            let want = lower(&raw, &layout, target);
            let mut stream = LoweringStream::new(&raw, &layout, target);
            let mut got: Vec<Vec<_>> = vec![Vec::new(); raw.n_cores()];
            let mut live: Vec<usize> = (0..raw.n_cores()).collect();
            while !live.is_empty() {
                let pick = rng.gen_range(0..live.len());
                let core = live[pick];
                match stream.next(core) {
                    Some(op) => got[core].push(op),
                    None => {
                        live.swap_remove(pick);
                        // Exhausted streams must stay exhausted.
                        assert!(stream.next(core).is_none());
                    }
                }
            }
            assert_eq!(got, want, "case {case}, target {target:?}");
        }
    }
}

/// Every target a tape is replayed for: both baseline lowerings, and OMEGA
/// absorbing no vertex, some, and every one.
fn targets(n_vertices: u64) -> [Target; 5] {
    [
        Target::Baseline,
        Target::BaselinePlainAtomics,
        Target::Omega { hot_count: 0 },
        Target::Omega {
            hot_count: (n_vertices / 2) as u32,
        },
        Target::Omega {
            hot_count: n_vertices as u32,
        },
    ]
}

/// Drains `tape`'s replay for `target`, core by core.
fn drain(tape: &Tape, target: Target) -> Vec<Trace> {
    let mut source = tape.source(target);
    (0..source.n_cores())
        .map(|core| std::iter::from_fn(|| source.next(core)).collect())
        .collect()
}

/// A tape replayed for a target yields exactly the ops that [`lower`]
/// materialises for that target, op for op, on random traces (pulled in
/// an interleaved order, as the engine does) and on real ones.
#[test]
fn tape_replays_equal_the_reference_lowering() {
    let meta = TraceMeta {
        props: vec![omega_ligra::trace::PropSpec {
            entry_bytes: 8,
            len: 96,
            monitored: true,
        }],
        n_vertices: 96,
        n_arcs: 500,
        weighted: false,
    };
    let layout = Layout::new(&meta);
    let mut rng = SmallRng::seed_from_u64(0x7A9E_0001);
    for case in 0..64 {
        let raw = arb_raw(&mut rng);
        let tape = Tape::new(&raw, &meta);
        assert_eq!(
            tape,
            Tape::from_raw(raw.clone(), meta.clone()),
            "case {case}"
        );
        for target in targets(meta.n_vertices) {
            let want = lower(&raw, &layout, target);
            let mut source = tape.source(target);
            let mut got: Vec<Vec<_>> = vec![Vec::new(); raw.n_cores()];
            let mut live: Vec<usize> = (0..raw.n_cores()).collect();
            while !live.is_empty() {
                let pick = rng.gen_range(0..live.len());
                let core = live[pick];
                match source.next(core) {
                    Some(op) => got[core].push(op),
                    None => {
                        live.swap_remove(pick);
                        assert!(source.next(core).is_none());
                    }
                }
            }
            assert_eq!(got, want, "case {case}, target {target:?}");
        }
    }
    for dataset in [Dataset::Sd, Dataset::Ap] {
        let g = dataset.build(DatasetScale::Tiny).unwrap();
        for algo in [
            Algo::PageRank { iters: 1 },
            Algo::Bfs { root: 0 }.with_default_root(&g),
            Algo::Cc,
        ] {
            if !algo.supports(&g) {
                continue;
            }
            let (_, raw, meta) = trace_algorithm(&g, algo, &ExecConfig::default());
            let layout = Layout::new(&meta);
            let tape = Tape::new(&raw, &meta);
            for target in targets(meta.n_vertices) {
                assert_eq!(
                    drain(&tape, target),
                    lower(&raw, &layout, target),
                    "{} on {dataset:?}, target {target:?}",
                    algo.name()
                );
            }
        }
    }
}
