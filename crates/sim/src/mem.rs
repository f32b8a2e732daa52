//! Memory operations, outcomes, and the [`MemorySystem`] trait through which
//! machines (the baseline CMP here, the OMEGA machine in `omega-core`) plug
//! into the replay [`engine`](crate::engine).

use crate::Cycle;

/// The atomic read-modify-write operations of Table II, which are exactly
/// the operations a PISC engine must implement (§V.B: "PageRank requires
/// floating point addition, BFS requires unsigned integer comparison, SSSP
/// requires signed integer min and Bool comparison").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicKind {
    /// Floating-point add (PageRank).
    FpAdd,
    /// Unsigned compare-and-set (BFS parent assignment).
    UnsignedCompareSet,
    /// Signed integer min plus visited-flag compare (SSSP, Radii).
    SignedMin,
    /// Signed integer min (CC label propagation).
    LabelMin,
    /// Bool OR (Radii bitfield updates).
    BoolOr,
    /// Signed integer add (TC, KC counters).
    SignedAdd,
}

impl AtomicKind {
    /// Cycles a PISC ALU needs to execute this operation's microcode
    /// (read-operand, ALU, write-back). Floating point costs more than
    /// integer compare, matching the synthesised PISC of §X.B whose area
    /// and latency are dominated by the FP adder.
    pub fn pisc_cycles(self) -> u32 {
        match self {
            AtomicKind::FpAdd => 3,
            AtomicKind::UnsignedCompareSet => 3,
            AtomicKind::SignedMin | AtomicKind::LabelMin => 2,
            AtomicKind::BoolOr => 2,
            AtomicKind::SignedAdd => 2,
        }
    }
}

/// What a memory access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A load of data guaranteed stable until the next barrier — e.g. a
    /// source vertex's property during an edge scan, which Ligra never
    /// updates mid-iteration. OMEGA's source-vertex buffer may cache such
    /// reads without coherence (§V.C); the baseline treats them as ordinary
    /// loads.
    ReadStable,
    /// A store.
    Write,
    /// An atomic read-modify-write executed by the issuing core (baseline
    /// semantics: the line is locked and the core pipeline holds until
    /// completion — §V: "atomic operations causing the core's pipeline to
    /// be on-hold until their completion").
    Atomic(AtomicKind),
}

/// One memory access in a core's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Virtual address.
    pub addr: u64,
    /// Access size in bytes (1–8; a word-granularity quantity, not a line).
    pub size: u8,
    /// Operation.
    pub kind: AccessKind,
}

impl MemAccess {
    /// A load of `size` bytes at `addr`.
    pub fn read(addr: u64, size: u8) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Read,
        }
    }

    /// A store of `size` bytes at `addr`.
    pub fn write(addr: u64, size: u8) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Write,
        }
    }

    /// An atomic RMW of `size` bytes at `addr`.
    pub fn atomic(addr: u64, size: u8, kind: AtomicKind) -> Self {
        MemAccess {
            addr,
            size,
            kind: AccessKind::Atomic(kind),
        }
    }
}

/// How an access occupies the issuing core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// Occupies a slot in the core's outstanding-access window until
    /// completion (ordinary loads; overlappable).
    Window,
    /// Stalls the core completely until completion (baseline atomics).
    Full,
    /// Fire-and-forget: the core continues immediately (stores to write
    /// buffers, OMEGA's offloaded atomics).
    None,
}

/// The memory system's answer to one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Absolute cycle at which the access completes.
    pub completion: Cycle,
    /// How the access occupies the core.
    pub blocking: Blocking,
}

/// One operation in a core's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreOp {
    /// Retire `0.01 × arg` cycles worth of non-memory work (scaled fixed
    /// point so an 8-wide core can express sub-cycle bundles).
    ComputeX100(u32),
    /// A memory access.
    Access(MemAccess),
    /// Synchronise with all other cores (Ligra's per-iteration join).
    Barrier,
}

impl CoreOp {
    /// Convenience: a compute bundle of `cycles` whole cycles.
    pub fn compute(cycles: u32) -> Self {
        CoreOp::ComputeX100(cycles * 100)
    }
}

/// A machine's memory subsystem, as seen by the replay engine.
///
/// Implementations: [`crate::hierarchy::CacheHierarchy`] (baseline CMP) and
/// `omega_core::machine::OmegaMemory` (scratchpads + PISCs).
pub trait MemorySystem {
    /// Executes one access issued by `core` at cycle `now`; returns when it
    /// completes and how it blocks the core.
    fn access(&mut self, core: usize, access: MemAccess, now: Cycle) -> AccessOutcome;

    /// Called when all cores reach a barrier (end of a Ligra iteration).
    /// OMEGA uses this to invalidate the source-vertex buffers (§V.C).
    fn barrier(&mut self, _now: Cycle) {}

    /// Called once after the trace is fully replayed, with the final cycle
    /// count, so bandwidth-utilisation statistics can be closed out.
    fn finish(&mut self, _now: Cycle) {}

    /// Takes the latency histograms collected during the replay (the
    /// replay adds the windowed [`crate::stats::MemStats`] time series,
    /// see [`crate::telemetry::WindowSampler`]). Returns
    /// `None` when telemetry was disabled — the default for machines that
    /// do not instrument themselves. Call after [`Self::finish`]; a second
    /// call returns `None`.
    fn take_telemetry(&mut self) -> Option<crate::telemetry::TelemetryReport> {
        None
    }

    /// Checks the machine's internal conservation invariants (live
    /// component ledgers the public stats cannot express) into `out`.
    /// Call after [`Self::finish`] but *before* [`Self::take_telemetry`],
    /// which consumes the histograms some checks compare against. The
    /// default is a no-op for machines without internal ledgers.
    fn audit_into(&self, _out: &mut crate::audit::AuditReport) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(MemAccess::read(8, 4).kind, AccessKind::Read);
        assert_eq!(MemAccess::write(8, 4).kind, AccessKind::Write);
        assert!(matches!(
            MemAccess::atomic(8, 8, AtomicKind::FpAdd).kind,
            AccessKind::Atomic(AtomicKind::FpAdd)
        ));
    }

    #[test]
    fn fp_add_is_slowest_pisc_op() {
        for k in [
            AtomicKind::UnsignedCompareSet,
            AtomicKind::SignedMin,
            AtomicKind::LabelMin,
            AtomicKind::BoolOr,
            AtomicKind::SignedAdd,
        ] {
            assert!(AtomicKind::FpAdd.pisc_cycles() >= k.pisc_cycles());
        }
    }

    #[test]
    fn compute_helper_scales() {
        assert_eq!(CoreOp::compute(3), CoreOp::ComputeX100(300));
    }
}
