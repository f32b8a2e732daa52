//! Engine timing-model tests: fractional issue costs, window behaviour,
//! and barrier/finish interplay, against a deterministic fixed-latency
//! memory; and a differential fuzz of `run_source` against a reference
//! engine.

use omega_sim::engine::CoreReport;
use omega_sim::{
    engine, AccessKind, AccessOutcome, Blocking, CoreOp, EngineReport, MachineConfig, MemAccess,
    MemorySystem, Trace, VecOpSource,
};

#[derive(Debug, Default)]
struct FixedMem {
    latency: u64,
}

impl MemorySystem for FixedMem {
    fn access(&mut self, _core: usize, access: MemAccess, now: u64) -> AccessOutcome {
        let blocking = match access.kind {
            AccessKind::Read | AccessKind::ReadStable => Blocking::Window,
            AccessKind::Write => Blocking::None,
            AccessKind::Atomic(_) => Blocking::Full,
        };
        AccessOutcome {
            completion: now + self.latency,
            blocking,
        }
    }
}

fn cfg(issue_cost_x100: u32, window: usize) -> MachineConfig {
    let mut c = MachineConfig::mini_baseline();
    c.core.issue_cost_x100 = issue_cost_x100;
    c.core.max_outstanding = window;
    c
}

#[test]
fn eight_wide_issue_retires_four_accesses_per_cycle() {
    // issue_cost 25/100 cycles per op → 100 stores take 25 cycles.
    let mut mem = FixedMem { latency: 0 };
    let t: Trace = (0..100)
        .map(|i| CoreOp::Access(MemAccess::write(i * 64, 8)))
        .collect();
    let r = engine::run(vec![t], &mut mem, &cfg(25, 4));
    assert_eq!(r.total_cycles, 25);
}

#[test]
fn fractional_compute_accumulates_exactly() {
    let mut mem = FixedMem::default();
    // 150 x100-units per op × 8 ops = 12 cycles, no rounding drift.
    let t: Trace = (0..8).map(|_| CoreOp::ComputeX100(150)).collect();
    let r = engine::run(vec![t], &mut mem, &cfg(100, 4));
    assert_eq!(r.total_cycles, 12);
}

#[test]
fn window_retires_opportunistically() {
    // Latency 10, window 2, issue 1/cycle: loads overlap pairwise, so 6
    // loads finish far sooner than 6 × 10 serial.
    let mut mem = FixedMem { latency: 10 };
    let t: Trace = (0..6)
        .map(|i| CoreOp::Access(MemAccess::read(i * 64, 8)))
        .collect();
    let r = engine::run(vec![t], &mut mem, &cfg(100, 2)).total_cycles;
    assert!(r < 40, "got {r}");
    // Window of 1 forces near-serial execution.
    let mut mem = FixedMem { latency: 10 };
    let t: Trace = (0..6)
        .map(|i| CoreOp::Access(MemAccess::read(i * 64, 8)))
        .collect();
    let serial = engine::run(vec![t], &mut mem, &cfg(100, 1)).total_cycles;
    assert!(
        serial > r,
        "window=1 ({serial}) must be slower than window=2 ({r})"
    );
}

#[test]
fn trailing_barrier_then_empty_trace_terminates() {
    let mut mem = FixedMem::default();
    let t = vec![CoreOp::compute(5), CoreOp::Barrier];
    let r = engine::run(vec![t, vec![CoreOp::Barrier]], &mut mem, &cfg(100, 4));
    assert_eq!(r.total_cycles, 5);
}

#[test]
fn consecutive_barriers_do_not_deadlock() {
    let mut mem = FixedMem::default();
    let t1 = vec![CoreOp::Barrier, CoreOp::Barrier, CoreOp::compute(1)];
    let t2 = vec![CoreOp::Barrier, CoreOp::Barrier, CoreOp::compute(2)];
    let r = engine::run(vec![t1, t2], &mut mem, &cfg(100, 4));
    assert_eq!(r.total_cycles, 2);
}

#[test]
fn full_blocking_serialises_with_window_pending() {
    // A load in flight does not let a Full-blocking atomic start earlier.
    let mut mem = FixedMem { latency: 50 };
    let t = vec![
        CoreOp::Access(MemAccess::read(0, 8)),
        CoreOp::Access(MemAccess::atomic(64, 8, omega_sim::AtomicKind::FpAdd)),
    ];
    let r = engine::run(vec![t], &mut mem, &cfg(100, 4));
    // Atomic issues at ~2 and completes at ~52; the pending load (done at
    // 51) drains by then; trace end waits for the max.
    assert!(r.total_cycles >= 52, "got {}", r.total_cycles);
    assert!(r.per_core[0].atomic_stall_cycles >= 49);
}

#[test]
fn stall_attribution_partitions_time() {
    let mut mem = FixedMem { latency: 30 };
    let t: Trace = (0..20)
        .flat_map(|i| {
            [
                CoreOp::compute(2),
                CoreOp::Access(MemAccess::read(i * 64, 8)),
            ]
        })
        .collect();
    let r = engine::run(vec![t], &mut mem, &cfg(100, 2));
    let c = &r.per_core[0];
    assert_eq!(c.finish_time, r.total_cycles);
    assert_eq!(
        c.attributed_cycles(),
        c.finish_time,
        "every cycle must land in exactly one attribution bucket"
    );
    assert!(c.memory_stall_cycles + c.drain_cycles > 0);
}

/// The engine before run-ahead scheduling: a linear scan for the minimum
/// `(time, index)` core before every op, with a `Vec` window scanned for
/// its minimum and maximum. `run_source` must replay every stream exactly
/// as this does.
fn reference_run<M: MemorySystem>(
    traces: &[Trace],
    mem: &mut M,
    cfg: &MachineConfig,
) -> EngineReport {
    #[derive(Default)]
    struct Core {
        time: u64,
        issue_acc_x100: u64,
        window: Vec<u64>,
        at_barrier: bool,
        finished: bool,
        pos: usize,
        report: CoreReport,
    }
    impl Core {
        fn drain_all(&mut self) {
            if let Some(&max) = self.window.iter().max() {
                if max > self.time {
                    self.report.drain_cycles += max - self.time;
                    self.time = max;
                }
            }
            self.window.clear();
        }
    }
    let max_outstanding = cfg.core.max_outstanding.max(1);
    let mut cores: Vec<Core> = traces.iter().map(|_| Core::default()).collect();
    loop {
        let mut next: Option<usize> = None;
        for (i, c) in cores.iter().enumerate() {
            if !c.finished && !c.at_barrier {
                match next {
                    Some(j) if cores[j].time <= c.time => {}
                    _ => next = Some(i),
                }
            }
        }
        let Some(i) = next else {
            if !cores.iter().any(|c| c.at_barrier) {
                break;
            }
            let release = cores
                .iter()
                .filter(|c| c.at_barrier)
                .map(|c| c.time)
                .max()
                .unwrap();
            for c in cores.iter_mut().filter(|c| c.at_barrier) {
                c.report.barrier_cycles += release - c.time;
                c.time = release;
                c.at_barrier = false;
            }
            mem.barrier(release);
            continue;
        };
        let core = &mut cores[i];
        let Some(&op) = traces[i].get(core.pos) else {
            core.drain_all();
            core.finished = true;
            core.report.finish_time = core.time;
            continue;
        };
        core.pos += 1;
        core.report.ops += 1;
        match op {
            CoreOp::ComputeX100(k) => {
                core.issue_acc_x100 += k as u64;
                let whole = core.issue_acc_x100 / 100;
                core.issue_acc_x100 %= 100;
                core.time += whole;
                core.report.compute_cycles += whole;
            }
            CoreOp::Barrier => {
                core.drain_all();
                core.at_barrier = true;
            }
            CoreOp::Access(access) => {
                core.issue_acc_x100 += cfg.core.issue_cost_x100 as u64;
                let whole = core.issue_acc_x100 / 100;
                core.issue_acc_x100 %= 100;
                core.time += whole;
                core.report.compute_cycles += whole;
                while core.window.len() >= max_outstanding {
                    let min = *core.window.iter().min().unwrap();
                    if min > core.time {
                        core.report.memory_stall_cycles += min - core.time;
                        core.time = min;
                    }
                    let t = core.time;
                    core.window.retain(|&c| c > t);
                }
                let out = mem.access(i, access, core.time);
                match out.blocking {
                    Blocking::Window => {
                        let t = core.time;
                        core.window.retain(|&c| c > t);
                        core.window.push(out.completion);
                    }
                    Blocking::Full => {
                        if out.completion > core.time {
                            core.report.atomic_stall_cycles += out.completion - core.time;
                            core.time = out.completion;
                        }
                    }
                    Blocking::None => {}
                }
            }
        }
    }
    let total = cores
        .iter()
        .map(|c| c.report.finish_time)
        .max()
        .unwrap_or(0);
    mem.finish(total);
    EngineReport {
        total_cycles: total,
        per_core: cores.into_iter().map(|c| c.report).collect(),
    }
}

/// SplitMix64: the seeded stream behind the fuzzed op streams and
/// latencies.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every call the engine makes into the memory system, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Access { core: usize, addr: u64, now: u64 },
    Barrier(u64),
    Finish(u64),
}

/// A memory whose latency and blocking kind come from a seeded stream, so
/// any reordering of calls changes every later outcome.
struct SeededMem {
    rng: u64,
    calls: Vec<Call>,
}

impl MemorySystem for SeededMem {
    fn access(&mut self, core: usize, access: MemAccess, now: u64) -> AccessOutcome {
        self.calls.push(Call::Access {
            core,
            addr: access.addr,
            now,
        });
        let r = splitmix(&mut self.rng);
        // One access in eight completes at once, making equal-time ties.
        let latency = if r.is_multiple_of(8) {
            0
        } else {
            (r >> 8) % 160
        };
        let blocking = match (r >> 32) % 3 {
            0 => Blocking::Window,
            1 => Blocking::Full,
            _ => Blocking::None,
        };
        AccessOutcome {
            completion: now + latency,
            blocking,
        }
    }
    fn barrier(&mut self, now: u64) {
        self.calls.push(Call::Barrier(now));
    }
    fn finish(&mut self, now: u64) {
        self.calls.push(Call::Finish(now));
    }
}

/// One core's stream in one of the access patterns of Dann et al.'s
/// taxonomy, mixed with compute bundles and barriers.
fn fuzz_trace(rng: &mut u64, pattern: u64, len: usize, barrier_every: u64) -> Trace {
    let base = (splitmix(rng) % 1024) * 4096;
    let stride = 8 * (1 + splitmix(rng) % 16);
    (0..len as u64)
        .map(|i| {
            let r = splitmix(rng);
            if r.is_multiple_of(barrier_every) {
                return CoreOp::Barrier;
            }
            if r % 4 == 1 {
                // Small bundles keep cores' clocks close, so ties are common.
                return CoreOp::ComputeX100((r >> 16) as u32 % 300);
            }
            let addr = match pattern {
                0 => base + i * 8,
                1 => base + i * stride,
                2 => (r >> 20) % (1 << 20) * 8,
                // Hub-skewed: most accesses land on a handful of hubs.
                _ if (r >> 12) % 10 < 8 => ((r >> 24) % 8) * 64,
                _ => (r >> 20) % (1 << 20) * 8,
            };
            let access = match (r >> 40) % 3 {
                0 => MemAccess::read(addr, 8),
                1 => MemAccess::write(addr, 8),
                _ => MemAccess::atomic(addr, 8, omega_sim::AtomicKind::FpAdd),
            };
            CoreOp::Access(access)
        })
        .collect()
}

#[test]
fn run_source_matches_the_reference_engine() {
    for seed in 0..300u64 {
        let mut rng = seed;
        let n_cores = 1 + (splitmix(&mut rng) % 16) as usize;
        let pattern = seed % 4;
        let barrier_every = [7, 31, 200, u64::MAX][(splitmix(&mut rng) % 4) as usize];
        let traces: Vec<Trace> = (0..n_cores)
            .map(|_| {
                // Uneven lengths, some empty: cores finish at different
                // times, some before the others' barriers.
                let len = (splitmix(&mut rng) % 400) as usize * (splitmix(&mut rng) % 3) as usize;
                fuzz_trace(&mut rng, pattern, len, barrier_every)
            })
            .collect();
        let mut c = cfg(
            [25, 50, 100, 130][(splitmix(&mut rng) % 4) as usize],
            1 + (splitmix(&mut rng) % 16) as usize,
        );
        c.core.n_cores = 16;
        let mem_seed = splitmix(&mut rng);

        let mut expected_mem = SeededMem {
            rng: mem_seed,
            calls: Vec::new(),
        };
        let expected = reference_run(&traces, &mut expected_mem, &c);
        let mut mem = SeededMem {
            rng: mem_seed,
            calls: Vec::new(),
        };
        let mut source = VecOpSource::new(traces);
        let got = engine::run_source(&mut source, &mut mem, &c);
        assert_eq!(
            mem.calls, expected_mem.calls,
            "seed {seed}: access sequence"
        );
        assert_eq!(got, expected, "seed {seed}: engine report");
    }
}
