//! Golden equivalence of the streaming trace pipeline.
//!
//! The production replay path lowers lazily through a [`LoweringStream`]
//! pulled by the engine; these tests pin it bit-for-bit to the reference
//! path that first materialises the whole lowered trace with [`lower`] and
//! replays the vectors. Cycles, every memory-system statistic, and NoC
//! bytes must be identical — streaming is an implementation strategy, not
//! a model change.

use omega_core::config::SystemConfig;
use omega_core::layout::Layout;
use omega_core::lower::{lower, LoweringStream, Target};
use omega_core::machine::OmegaMemory;
use omega_core::runner::{replay, trace_algorithm};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_ligra::algorithms::Algo;
use omega_ligra::trace::{RawTrace, TraceEvent, TraceMeta};
use omega_ligra::ExecConfig;
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::stats::MemStats;
use omega_sim::{engine, AtomicKind, EngineReport, OpSource};

/// The reference path: materialise the full lowered trace, then replay it
/// (what `runner::replay` did before lowering went lazy).
fn replay_materialised(
    raw: &RawTrace,
    meta: &TraceMeta,
    system: &SystemConfig,
) -> (EngineReport, MemStats) {
    let layout = Layout::new(meta);
    if system.omega().is_some() {
        let mut mem = OmegaMemory::new(system, layout.clone(), meta);
        let hot = mem.hot_count();
        let traces = lower(raw, &layout, Target::Omega { hot_count: hot });
        let report = engine::run(traces, &mut mem, &system.machine);
        let stats = mem.stats();
        (report, stats)
    } else {
        let mut mem = CacheHierarchy::new(&system.machine);
        let traces = lower(raw, &layout, Target::Baseline);
        let report = engine::run(traces, &mut mem, &system.machine);
        let stats = mem.stats();
        (report, stats)
    }
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
            for system in [SystemConfig::mini_baseline(), SystemConfig::mini_omega()] {
                let (want_engine, want_mem) = replay_materialised(&raw, &meta, &system);
                let got = replay(name, 0.0, &raw, &meta, &system, None);
                assert!(
                    got.telemetry.is_none(),
                    "telemetry must stay off unless requested"
                );
                assert_eq!(
                    got.engine,
                    want_engine,
                    "{name} on {dataset:?} / {}: engine reports diverge",
                    system.label()
                );
                assert_eq!(
                    got.mem,
                    want_mem,
                    "{name} on {dataset:?} / {}: memory stats diverge",
                    system.label()
                );
                assert_eq!(
                    got.mem.noc.bytes,
                    want_mem.noc.bytes,
                    "{name} on {dataset:?} / {}: NoC bytes diverge",
                    system.label()
                );
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
