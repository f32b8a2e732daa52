//! The PISC (Processing-In-SCratchpad) engine timing model (Fig. 9).
//!
//! Each scratchpad carries one PISC: a small ALU plus a microcode
//! sequencer. Cores offload atomic vertex updates to the owning
//! scratchpad's PISC (Fig. 8) and continue immediately; the PISC executes
//! requests in arrival order, occupying the scratchpad port for the
//! read-modify-write. While an operation is in flight, the scratchpad
//! controller blocks other requests to the same vertex (§V.A) — modelled
//! here by the engine's strict arrival-order serialisation per PISC.
//!
//! The sequencer's cost per operation is [`AtomicKind::pisc_cycles`]; the
//! [`microcode`](crate::microcode) compiler's programs are the reference
//! that table is tested against.

use omega_sim::{AccessOutcome, AtomicKind, Blocking, Cycle};

/// One PISC engine's timing state.
///
/// # Example
///
/// ```
/// use omega_core::pisc::PiscEngine;
/// use omega_sim::AtomicKind;
///
/// let mut pisc = PiscEngine::new(3); // 3-cycle scratchpad
/// let first = pisc.execute(AtomicKind::FpAdd, 100);
/// let second = pisc.execute(AtomicKind::FpAdd, 100); // queues behind the first
/// assert!(second > first);
/// assert_eq!(pisc.ops(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PiscEngine {
    free_at: Cycle,
    sp_latency: u32,
    ops: u64,
    busy_cycles: u64,
}

impl PiscEngine {
    /// Creates an idle PISC attached to a scratchpad of the given access
    /// latency.
    pub fn new(sp_latency: u32) -> Self {
        PiscEngine {
            free_at: 0,
            sp_latency,
            ops: 0,
            busy_cycles: 0,
        }
    }

    /// Executes one offloaded atomic arriving at `arrival`; returns its
    /// completion cycle. Requests are serviced in submission order (the
    /// sequencer is single-issue), which also realises the per-vertex
    /// blocking the controller enforces.
    pub fn execute(&mut self, kind: AtomicKind, arrival: Cycle) -> Cycle {
        // Read + ALU/sequencer + write-back; the scratchpad port is held
        // for the whole RMW.
        let service = self.sp_latency as u64 * 2 + kind.pisc_cycles() as u64;
        let start = arrival.max(self.free_at);
        let done = start + service;
        self.free_at = done;
        self.ops += 1;
        self.busy_cycles += service;
        done
    }

    /// Operations executed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total busy cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

/// Releases a core that offloaded an atomic at `now` to an engine that
/// finishes it at `done`. Offload is fire-and-forget: the core is held only
/// for the memory-mapped register stores of the translated update function
/// (Fig. 13: operand then destination id, ~2 cycles per uncached store),
/// unless the engine's queue holds more than `backlog` cycles of work, which
/// back-pressures it. Returns the outcome and that back-pressure wait.
pub fn release_offloader(now: Cycle, done: Cycle, backlog: Cycle) -> (AccessOutcome, Cycle) {
    let issue_done = now + 4;
    let wait = done.saturating_sub(backlog).saturating_sub(issue_done);
    let outcome = AccessOutcome {
        completion: issue_done + wait,
        blocking: Blocking::Full,
    };
    (outcome, wait)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_engine_services_immediately() {
        let mut p = PiscEngine::new(3);
        let done = p.execute(AtomicKind::SignedAdd, 100);
        // 2×3 scratchpad + 2 sequencer cycles.
        assert_eq!(done, 108);
        assert_eq!(p.ops(), 1);
        assert_eq!(p.busy_cycles(), 8);
    }

    #[test]
    fn back_to_back_requests_serialise() {
        let mut p = PiscEngine::new(3);
        let first = p.execute(AtomicKind::FpAdd, 0);
        let second = p.execute(AtomicKind::FpAdd, 0);
        assert_eq!(second, first + first); // same service time, queued
        assert_eq!(p.free_at, second);
    }

    #[test]
    fn gap_lets_engine_idle() {
        let mut p = PiscEngine::new(3);
        let first = p.execute(AtomicKind::SignedMin, 0);
        let second = p.execute(AtomicKind::SignedMin, first + 100);
        assert_eq!(second, first + 100 + 8);
        assert!(p.busy_cycles() < second);
    }

    #[test]
    fn fp_add_costs_more_than_integer_min() {
        let mut a = PiscEngine::new(3);
        let mut b = PiscEngine::new(3);
        assert!(a.execute(AtomicKind::FpAdd, 0) > b.execute(AtomicKind::SignedMin, 0));
    }
}
