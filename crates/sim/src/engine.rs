//! Trace-replay engine: drives per-core operation streams through a
//! [`MemorySystem`] in global time order.
//!
//! ## Core timing model
//!
//! The paper's cores are 8-wide out-of-order with 192-entry ROBs; what
//! matters for a memory-subsystem study is how much memory-level
//! parallelism they extract and when they stall. The engine models each
//! core as:
//!
//! * in-order issue of trace operations, with a fractional issue cost per
//!   op (several ops per cycle, as an 8-wide machine would retire),
//! * a window of up to `max_outstanding` incomplete loads (MLP bound);
//!   issuing into a full window stalls until the oldest-completing load
//!   drains — the **memory-bound** time of the Fig. 3 TMAM breakdown,
//! * complete pipeline holds on `Blocking::Full` accesses (baseline
//!   atomics) — the **atomic-stall** time,
//! * `Blocking::None` accesses (stores, offloaded atomics) that retire
//!   immediately.
//!
//! Cores interact only through the shared [`MemorySystem`]; the engine
//! executes operations in ascending per-core time, so contention
//! (bank ports, DRAM channels, line locks) is resolved in causal order.
//!
//! [`CoreOp::Barrier`] implements Ligra's per-iteration joins: every core
//! waits until all cores arrive, then all resume at the same cycle and the
//! memory system is notified (OMEGA flushes its source-vertex buffers).
//!
//! ## Run-ahead scheduling
//!
//! The order is "the runnable core with the smallest `(time, index)` issues
//! next", but [`run_source`] does not rescan the cores before every op.
//! Runnable cores sit in a min-heap keyed by `(time, index)`; parked and
//! finished cores are not in it. The engine pops the best core, peeks the
//! runner-up, and the chosen core then keeps issuing until its
//! `(time, index)` passes the runner-up's, or it parks at a barrier or
//! finishes; a core still runnable goes back into the heap. This is exact:
//! cores interact only through the memory system, and while one core
//! issues no other core's clock moves, so a rescan after each op would
//! pick the same core every time until that horizon.
//!
//! ## Lazy window retirement
//!
//! A load's window entry is not retired the moment its completion time
//! passes. Entries are pruned only when the window is full, just before
//! the stall check. This is exact too: a completed entry never makes
//! the window stall (its minimum would not exceed the clock), and the
//! barrier or trace-end drain reads only the maximum, which a
//! completed entry never raises above the clock.
//! `crates/sim/tests/engine_timing.rs` fuzzes the engine against the eager,
//! per-op scanning loop it replaced.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::MachineConfig;
use crate::mem::{Blocking, CoreOp, MemorySystem};
use crate::Cycle;

/// A fully materialised per-core operation stream.
pub type Trace = Vec<CoreOp>;

/// A pull-based supplier of per-core operation streams.
///
/// The engine asks the source for one operation at a time, so lowering can
/// happen lazily while the replay is in flight — no second, fully lowered
/// copy of the trace ever needs to exist. `next(core)` must keep returning
/// `None` once core `core`'s stream is exhausted.
pub trait OpSource {
    /// Number of core streams this source supplies.
    fn n_cores(&self) -> usize;
    /// The next operation for `core`, or `None` when its stream has ended.
    fn next(&mut self, core: usize) -> Option<CoreOp>;
}

/// [`OpSource`] over fully materialised traces (the compatibility path for
/// hand-built op vectors in tests and the ablation harness).
#[derive(Debug)]
pub struct VecOpSource {
    traces: Vec<Trace>,
    pos: Vec<usize>,
}

impl VecOpSource {
    /// Wraps one materialised trace per core.
    pub fn new(traces: Vec<Trace>) -> Self {
        let pos = vec![0; traces.len()];
        VecOpSource { traces, pos }
    }
}

impl OpSource for VecOpSource {
    fn n_cores(&self) -> usize {
        self.traces.len()
    }

    fn next(&mut self, core: usize) -> Option<CoreOp> {
        let op = self.traces[core].get(self.pos[core]).copied();
        if op.is_some() {
            self.pos[core] += 1;
        }
        op
    }
}

/// Per-core cycle attribution.
///
/// Every cycle of a core's lifetime `[0, finish_time]` is charged to
/// exactly one bucket — issue (compute), memory-bound window stall, atomic
/// full-pipeline stall, barrier wait, or end-of-phase drain — so the Fig. 3
/// TMAM-style breakdown is reproducible directly from this struct. The
/// conservation invariant ([`CoreReport::attributed_cycles`]` ==
/// finish_time`) is enforced by tests on every machine kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// Operations executed.
    pub ops: u64,
    /// Cycles attributed to compute bundles and issue occupancy.
    pub compute_cycles: Cycle,
    /// Cycles stalled waiting for a window slot to free up (memory-bound
    /// time: the front end is blocked on the oldest outstanding load).
    pub memory_stall_cycles: Cycle,
    /// Cycles stalled on blocking atomics.
    pub atomic_stall_cycles: Cycle,
    /// Cycles parked at barriers waiting for other cores.
    pub barrier_cycles: Cycle,
    /// Cycles draining the whole outstanding-access window at a barrier or
    /// at trace end (memory latency exposed once no further work can
    /// overlap it).
    pub drain_cycles: Cycle,
    /// Cycle at which this core finished its trace.
    pub finish_time: Cycle,
}

impl CoreReport {
    /// Sum of all five attribution buckets. Equals [`Self::finish_time`]
    /// on every replay — the engine advances a core's clock only through
    /// attributed paths.
    pub fn attributed_cycles(&self) -> Cycle {
        self.compute_cycles
            + self.memory_stall_cycles
            + self.atomic_stall_cycles
            + self.barrier_cycles
            + self.drain_cycles
    }
}

/// Result of one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineReport {
    /// Cycle at which the last core finished.
    pub total_cycles: Cycle,
    /// Per-core attribution.
    pub per_core: Vec<CoreReport>,
}

impl EngineReport {
    /// Fraction of total core-time stalled on memory or atomics — the
    /// proxy for the paper's Fig. 3 "memory bound" TMAM metric. Window
    /// stalls, end-of-phase drains, and atomic holds all count as stalled;
    /// barrier waiting is excluded from the denominator.
    pub fn memory_bound_fraction(&self) -> f64 {
        let (mut stalled, mut busy) = (0u64, 0u64);
        for c in &self.per_core {
            stalled += c.memory_stall_cycles + c.drain_cycles + c.atomic_stall_cycles;
            busy += c.finish_time - c.barrier_cycles;
        }
        if busy == 0 {
            0.0
        } else {
            stalled as f64 / busy as f64
        }
    }

    /// Fraction of total core-time stalled specifically on atomics.
    pub fn atomic_bound_fraction(&self) -> f64 {
        let (mut stalled, mut busy) = (0u64, 0u64);
        for c in &self.per_core {
            stalled += c.atomic_stall_cycles;
            busy += c.finish_time - c.barrier_cycles;
        }
        if busy == 0 {
            0.0
        } else {
            stalled as f64 / busy as f64
        }
    }
}

#[derive(Debug)]
struct CoreState {
    time: Cycle,
    issue_acc_x100: u64,
    window: Vec<Cycle>,
    at_barrier: bool,
    finished: bool,
    report: CoreReport,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            time: 0,
            issue_acc_x100: 0,
            window: Vec::new(),
            at_barrier: false,
            finished: false,
            report: CoreReport::default(),
        }
    }

    fn runnable(&self) -> bool {
        !self.finished && !self.at_barrier
    }

    /// Waits for the oldest-completing window entry, attributing the wait to
    /// memory stall, and removes every entry that has completed by then.
    fn drain_one(&mut self) {
        if let Some(&min) = self.window.iter().min() {
            if min > self.time {
                self.report.memory_stall_cycles += min - self.time;
                self.time = min;
            }
            let t = self.time;
            self.window.retain(|&c| c > t);
        }
    }

    /// Waits for every outstanding access (barrier/trace-end drain),
    /// attributing the wait to the drain bucket: latency exposed here can
    /// never be overlapped with further work, unlike a window stall.
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

/// Replays `traces` (one per core) against `mem`.
///
/// Compatibility wrapper over [`run_source`] for fully materialised traces;
/// cores without a trace entry (if `traces.len() < n_cores`) simply idle.
///
/// # Panics
///
/// Panics if `traces.len()` exceeds `cfg.core.n_cores`.
pub fn run<M: MemorySystem>(traces: Vec<Trace>, mem: &mut M, cfg: &MachineConfig) -> EngineReport {
    let mut source = VecOpSource::new(traces);
    run_source(&mut source, mem, cfg)
}

/// Replays the streams supplied by `source` against `mem`.
///
/// This is the real engine: it pulls one [`CoreOp`] at a time from the
/// source, so op streams can be lowered lazily while the replay runs.
///
/// # Panics
///
/// Panics if `source.n_cores()` exceeds `cfg.core.n_cores`.
pub fn run_source<S: OpSource, M: MemorySystem + ?Sized>(
    source: &mut S,
    mem: &mut M,
    cfg: &MachineConfig,
) -> EngineReport {
    assert!(
        source.n_cores() <= cfg.core.n_cores,
        "{} traces for {} cores",
        source.n_cores(),
        cfg.core.n_cores
    );
    let n = source.n_cores();
    let mut cores: Vec<CoreState> = (0..n).map(|_| CoreState::new()).collect();
    let max_outstanding = cfg.core.max_outstanding.max(1);
    let _span = crate::obs::span("engine.timing_loop");
    // Per-core simulated epoch activity (trace mode only): each lane holds
    // the cycle its core's current epoch started at.
    let mut epochs = crate::obs::IntervalRecorder::if_active("core", n).map(|r| (r, vec![0u64; n]));

    // The runnable cores, keyed by (time, index) packed into one word:
    // the index breaks ties toward the lower core.
    assert!(
        n <= 1 << CORE_BITS,
        "{n} cores exceed the scheduler's {CORE_BITS}-bit index"
    );
    let mut runnable: BinaryHeap<Reverse<u64>> = (0..n).map(|i| Reverse(key(0, i))).collect();

    loop {
        // Pick the runnable core with the smallest (time, index), and the
        // runner-up: the chosen core may run ahead until it passes it.
        let Some(Reverse(best)) = runnable.pop() else {
            // Everyone is finished or parked at a barrier.
            let any_waiting = cores.iter().any(|c| c.at_barrier);
            if !any_waiting {
                break;
            }
            // Release the barrier: all waiting cores resume at the max time.
            let release = cores
                .iter()
                .filter(|c| c.at_barrier)
                .map(|c| c.time)
                .max()
                .expect("at least one waiting core");
            if let Some((rec, start)) = epochs.as_mut() {
                for (ci, c) in cores.iter().enumerate() {
                    if c.at_barrier {
                        rec.record(ci, start[ci], c.time);
                        start[ci] = release;
                    }
                }
            }
            for (ci, c) in cores.iter_mut().enumerate() {
                if c.at_barrier {
                    c.report.barrier_cycles += release - c.time;
                    c.time = release;
                    c.at_barrier = false;
                    runnable.push(Reverse(key(release, ci)));
                }
            }
            mem.barrier(release);
            continue;
        };
        let i = (best & ((1 << CORE_BITS) - 1)) as usize;
        let runner_up = runnable.peek().map_or(u64::MAX, |r| r.0);
        // Core `i` stays the pick while it sorts before the runner-up by
        // (time, index); no other core's clock moves while it runs, so
        // issuing its ops back to back replays the exact order.
        let core = &mut cores[i];
        while core.runnable() && key(core.time, i) < runner_up {
            step(core, i, source, mem, cfg, max_outstanding, &mut epochs);
        }
        if core.runnable() {
            runnable.push(Reverse(key(core.time, i)));
        }
    }

    if let Some((mut rec, _)) = epochs {
        rec.flush();
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

/// Bits of a scheduling key that hold the core index; the clock sits
/// above them.
const CORE_BITS: u32 = 8;

/// Core `core`'s scheduling key at clock `time`: keys order as
/// `(time, core)` pairs do.
#[inline]
fn key(time: Cycle, core: usize) -> u64 {
    assert!(
        time < 1 << (64 - CORE_BITS),
        "cycle {time} exceeds the scheduler's clock field"
    );
    time << CORE_BITS | core as u64
}

/// Per-core lanes of simulated epoch activity and the start of each lane's
/// current epoch (trace mode only).
type Epochs = Option<(Box<crate::obs::IntervalRecorder>, Vec<Cycle>)>;

/// Issues core `i`'s next op: advances its clock, stalls it, parks it at a
/// barrier, or retires it at end of stream.
#[inline]
fn step<S: OpSource, M: MemorySystem + ?Sized>(
    core: &mut CoreState,
    i: usize,
    source: &mut S,
    mem: &mut M,
    cfg: &MachineConfig,
    max_outstanding: usize,
    epochs: &mut Epochs,
) {
    let Some(op) = source.next(i) else {
        core.drain_all();
        core.finished = true;
        core.report.finish_time = core.time;
        if let Some((rec, start)) = epochs.as_mut() {
            rec.record(i, start[i], core.time);
        }
        debug_assert_eq!(
            core.report.attributed_cycles(),
            core.report.finish_time,
            "core {i}: stall buckets must partition wall time at retirement"
        );
        return;
    };
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
            // Issue occupancy.
            core.issue_acc_x100 += cfg.core.issue_cost_x100 as u64;
            let whole = core.issue_acc_x100 / 100;
            core.issue_acc_x100 %= 100;
            core.time += whole;
            core.report.compute_cycles += whole;

            // A full window stalls the front end, once the entries that
            // have completed by now are retired.
            if core.window.len() >= max_outstanding {
                let t = core.time;
                core.window.retain(|&c| c > t);
                while core.window.len() >= max_outstanding {
                    core.drain_one();
                }
            }
            let out = mem.access(i, access, core.time);
            match out.blocking {
                Blocking::Window => core.window.push(out.completion),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{AccessKind, AccessOutcome, AtomicKind, MemAccess};
    use crate::MachineConfig;

    /// A memory system with fixed latency, recording barrier calls.
    #[derive(Debug, Default)]
    struct FixedMem {
        latency: u64,
        barriers: u64,
        accesses: u64,
    }

    impl MemorySystem for FixedMem {
        fn access(&mut self, _core: usize, access: MemAccess, now: Cycle) -> AccessOutcome {
            self.accesses += 1;
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
        fn barrier(&mut self, _now: Cycle) {
            self.barriers += 1;
        }
    }

    fn cfg() -> MachineConfig {
        let mut c = MachineConfig::mini_baseline();
        c.core.max_outstanding = 2;
        c.core.issue_cost_x100 = 100; // 1 cycle per op: simplifies arithmetic
        c
    }

    #[test]
    fn compute_only_trace_takes_compute_time() {
        let mut mem = FixedMem {
            latency: 10,
            ..Default::default()
        };
        let r = run(vec![vec![CoreOp::compute(50)]], &mut mem, &cfg());
        assert_eq!(r.total_cycles, 50);
        assert_eq!(r.per_core[0].compute_cycles, 50);
        assert_eq!(r.per_core[0].memory_stall_cycles, 0);
    }

    #[test]
    fn loads_overlap_within_window() {
        let mut mem = FixedMem {
            latency: 100,
            ..Default::default()
        };
        // Two loads, window = 2: both in flight; drain at end.
        let t = vec![
            CoreOp::Access(MemAccess::read(0, 8)),
            CoreOp::Access(MemAccess::read(64, 8)),
        ];
        let r = run(vec![t], &mut mem, &cfg());
        // Issue at 1 and 2; completions 101, 102; drain-all to 102. The
        // wait happens at trace end, so it lands in the drain bucket, not
        // the (overlappable) window-stall bucket.
        assert_eq!(r.total_cycles, 102);
        assert_eq!(r.per_core[0].memory_stall_cycles, 0);
        assert_eq!(r.per_core[0].drain_cycles, 100);
    }

    #[test]
    fn window_limit_serialises_excess_loads() {
        let mut mem = FixedMem {
            latency: 100,
            ..Default::default()
        };
        let t: Trace = (0..4)
            .map(|i| CoreOp::Access(MemAccess::read(i * 64, 8)))
            .collect();
        let r = run(vec![t], &mut mem, &cfg());
        // Window of 2: loads 3 and 4 wait for 1 and 2 → ~2 serialised rounds.
        assert!(r.total_cycles > 200, "got {}", r.total_cycles);
        assert!(r.total_cycles < 250);
    }

    #[test]
    fn atomics_fully_stall() {
        let mut mem = FixedMem {
            latency: 100,
            ..Default::default()
        };
        let t = vec![
            CoreOp::Access(MemAccess::atomic(0, 8, AtomicKind::FpAdd)),
            CoreOp::Access(MemAccess::atomic(0, 8, AtomicKind::FpAdd)),
        ];
        let r = run(vec![t], &mut mem, &cfg());
        assert_eq!(r.total_cycles, 202);
        assert_eq!(r.per_core[0].atomic_stall_cycles, 200);
        assert!(r.memory_bound_fraction() > 0.9);
    }

    #[test]
    fn stores_do_not_stall() {
        let mut mem = FixedMem {
            latency: 1000,
            ..Default::default()
        };
        let t: Trace = (0..10)
            .map(|i| CoreOp::Access(MemAccess::write(i * 64, 8)))
            .collect();
        let r = run(vec![t], &mut mem, &cfg());
        assert_eq!(r.total_cycles, 10); // issue cost only
    }

    #[test]
    fn barrier_synchronises_cores() {
        let mut mem = FixedMem {
            latency: 0,
            ..Default::default()
        };
        let fast = vec![CoreOp::compute(10), CoreOp::Barrier, CoreOp::compute(5)];
        let slow = vec![CoreOp::compute(100), CoreOp::Barrier, CoreOp::compute(5)];
        let r = run(vec![fast, slow], &mut mem, &cfg());
        assert_eq!(r.total_cycles, 105);
        assert_eq!(mem.barriers, 1);
        assert_eq!(r.per_core[0].barrier_cycles, 90);
        assert_eq!(r.per_core[1].barrier_cycles, 0);
    }

    #[test]
    fn finished_cores_do_not_block_barriers() {
        let mut mem = FixedMem::default();
        let with_barrier = vec![CoreOp::compute(10), CoreOp::Barrier, CoreOp::compute(1)];
        let no_barrier = vec![CoreOp::compute(1)];
        let r = run(vec![with_barrier, no_barrier], &mut mem, &cfg());
        assert_eq!(r.total_cycles, 11);
    }

    #[test]
    fn empty_traces_finish_at_zero() {
        let mut mem = FixedMem::default();
        let r = run(vec![vec![], vec![]], &mut mem, &cfg());
        assert_eq!(r.total_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "traces for")]
    fn too_many_traces_panics() {
        let mut mem = FixedMem::default();
        let traces = vec![vec![]; 17];
        run(traces, &mut mem, &cfg());
    }

    #[test]
    fn every_cycle_is_attributed_to_exactly_one_bucket() {
        let mut mem = FixedMem {
            latency: 100,
            ..Default::default()
        };
        // A trace exercising all five buckets: compute, window stalls,
        // atomic holds, a barrier (with drain), and a trace-end drain.
        let busy: Trace = vec![
            CoreOp::compute(20),
            CoreOp::Access(MemAccess::read(0, 8)),
            CoreOp::Access(MemAccess::read(64, 8)),
            CoreOp::Access(MemAccess::read(128, 8)),
            CoreOp::Access(MemAccess::atomic(0, 8, AtomicKind::FpAdd)),
            CoreOp::Barrier,
            CoreOp::Access(MemAccess::read(192, 8)),
        ];
        let idle: Trace = vec![CoreOp::compute(1), CoreOp::Barrier];
        let r = run(vec![busy, idle], &mut mem, &cfg());
        for c in &r.per_core {
            assert_eq!(c.attributed_cycles(), c.finish_time, "{c:?}");
        }
        assert!(r.per_core[0].drain_cycles > 0);
        assert!(r.per_core[1].barrier_cycles > 0);
    }

    #[test]
    fn cores_advance_in_global_time_order() {
        // With a shared fixed-latency memory this is hard to observe
        // directly; instead check all traces complete and op counts add up.
        let mut mem = FixedMem {
            latency: 7,
            ..Default::default()
        };
        let traces: Vec<Trace> = (0..4)
            .map(|c| {
                (0..50)
                    .map(|i| CoreOp::Access(MemAccess::read((c * 64 + i) * 64, 8)))
                    .collect()
            })
            .collect();
        let r = run(traces, &mut mem, &cfg());
        assert_eq!(mem.accesses, 200);
        assert_eq!(r.per_core.iter().map(|c| c.ops).sum::<u64>(), 200);
    }
}
