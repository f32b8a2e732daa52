//! The PISC microcode ISA and its compiler — the stand-in for the paper's
//! lightweight source-to-source translation tool (§V.F, Fig. 13).
//!
//! In the paper, the tool parses a pre-annotated `update` function and
//! emits (a) configuration stores that fill the PISC's microcode registers
//! and (b) a rewritten update function that writes its operands to
//! memory-mapped registers. Here, the update functions are the atomic
//! operation kinds of Table II ([`AtomicKind`]); [`compile`] produces the
//! micro-operation sequence a PISC executes for each, at one cycle per
//! micro-op (two for the floating-point ALU, which dominates the
//! synthesised PISC's area and delay, §X.B). The sequencer model in
//! [`crate::pisc`] charges [`AtomicKind::pisc_cycles`], and a test pins
//! that table to these programs' costs.
//!
//! The interpreter ([`Program::execute`]) runs the microcode functionally
//! over 64-bit registers, so tests can verify that the offloaded operation
//! computes exactly what the core-side atomic would have.

use omega_sim::AtomicKind;

/// ALU operations supported by the PISC (Fig. 9: "several operations
/// corresponding to the atomic operations of the algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// IEEE-754 double addition (PageRank, BC).
    FAdd,
    /// Unsigned minimum.
    UMin,
    /// Signed minimum (SSSP, CC).
    SMin,
    /// Bitwise OR (Radii).
    Or,
    /// Integer addition (TC, KC).
    IAdd,
    /// Select the operand if the accumulator equals the sentinel in `r2`
    /// (compare-and-set, BFS parent assignment).
    SelectIfEqual,
}

/// One micro-operation of a PISC program. The register model is minimal:
/// `acc` (accumulator), `op` (the operand delivered in the offload
/// packet), and `r2` (an immediate loaded from the microcode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// Read the target vertex's property entry from the scratchpad into
    /// `acc`.
    LoadProp,
    /// Load an immediate into `r2`.
    LoadImm(u64),
    /// Apply an ALU operation: `acc ← alu(acc, op, r2)`.
    Alu(AluOp),
    /// Write `acc` back to the scratchpad.
    StoreProp,
    /// Set the vertex's dense active-list bit if the store changed the
    /// value (§V.B).
    SetActiveBitIfChanged,
}

/// A compiled PISC microcode program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<MicroOp>,
    kind: AtomicKind,
}

impl Program {
    /// The micro-operations in order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// The atomic kind this program implements.
    pub fn kind(&self) -> AtomicKind {
        self.kind
    }

    /// Sequencer cycles to execute the program: one per micro-op, with the
    /// floating-point ALU costing two. Scratchpad read/write micro-ops are
    /// charged by the scratchpad latency separately, so they are free here.
    pub fn cycles(&self) -> u32 {
        self.ops
            .iter()
            .map(|op| match op {
                MicroOp::Alu(AluOp::FAdd) => 2,
                MicroOp::Alu(_) => 1,
                MicroOp::LoadImm(_) => 1,
                MicroOp::LoadProp | MicroOp::StoreProp => 0,
                MicroOp::SetActiveBitIfChanged => 1,
            })
            .sum()
    }

    /// Functionally executes the program: `old` is the current property
    /// bits, `operand` the offloaded value. Returns `(new, changed)`.
    pub fn execute(&self, old: u64, operand: u64) -> (u64, bool) {
        let mut acc = 0u64;
        let mut r2 = 0u64;
        let mut stored = old;
        for op in &self.ops {
            match op {
                MicroOp::LoadProp => acc = old,
                MicroOp::LoadImm(imm) => r2 = *imm,
                MicroOp::Alu(alu) => acc = apply_alu(*alu, acc, operand, r2),
                MicroOp::StoreProp => stored = acc,
                MicroOp::SetActiveBitIfChanged => {}
            }
        }
        (stored, stored != old)
    }
}

fn apply_alu(alu: AluOp, acc: u64, operand: u64, r2: u64) -> u64 {
    match alu {
        AluOp::FAdd => (f64::from_bits(acc) + f64::from_bits(operand)).to_bits(),
        AluOp::UMin => acc.min(operand),
        AluOp::SMin => ((acc as i64).min(operand as i64)) as u64,
        AluOp::Or => acc | operand,
        AluOp::IAdd => acc.wrapping_add(operand),
        AluOp::SelectIfEqual => {
            if acc == r2 {
                operand
            } else {
                acc
            }
        }
    }
}

/// Compiles the microcode for one of Table II's atomic operations — the
/// analogue of translating a framework's annotated `update` function
/// (Fig. 10 → Fig. 13).
///
/// # Example
///
/// ```
/// use omega_core::microcode::compile;
/// use omega_sim::AtomicKind;
///
/// // SSSP's update: signed min over the stored distance.
/// let program = compile(AtomicKind::SignedMin);
/// let (new, changed) = program.execute(10i64 as u64, 7i64 as u64);
/// assert_eq!(new as i64, 7);
/// assert!(changed);
/// ```
pub fn compile(kind: AtomicKind) -> Program {
    let alu = match kind {
        AtomicKind::FpAdd => vec![MicroOp::Alu(AluOp::FAdd)],
        AtomicKind::SignedAdd => vec![MicroOp::Alu(AluOp::IAdd)],
        AtomicKind::SignedMin | AtomicKind::LabelMin => vec![MicroOp::Alu(AluOp::SMin)],
        AtomicKind::BoolOr => vec![MicroOp::Alu(AluOp::Or)],
        AtomicKind::UnsignedCompareSet => {
            vec![
                MicroOp::LoadImm(u64::MAX),
                MicroOp::Alu(AluOp::SelectIfEqual),
            ]
        }
    };
    let mut ops = vec![MicroOp::LoadProp];
    ops.extend(alu);
    ops.push(MicroOp::StoreProp);
    ops.push(MicroOp::SetActiveBitIfChanged);
    Program { ops, kind }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_add_matches_ieee() {
        let p = compile(AtomicKind::FpAdd);
        let (new, changed) = p.execute(2.5f64.to_bits(), 0.75f64.to_bits());
        assert_eq!(f64::from_bits(new), 3.25);
        assert!(changed);
    }

    #[test]
    fn signed_min_handles_negatives() {
        let p = compile(AtomicKind::SignedMin);
        let (new, changed) = p.execute(5i64 as u64, (-3i64) as u64);
        assert_eq!(new as i64, -3);
        assert!(changed);
        let (new, changed) = p.execute((-3i64) as u64, 5i64 as u64);
        assert_eq!(new as i64, -3);
        assert!(!changed);
    }

    #[test]
    fn compare_set_only_fires_on_sentinel() {
        let p = compile(AtomicKind::UnsignedCompareSet);
        // Unset (MAX) → takes the operand.
        let (new, changed) = p.execute(u64::MAX, 42);
        assert_eq!(new, 42);
        assert!(changed);
        // Already set → unchanged.
        let (new, changed) = p.execute(7, 42);
        assert_eq!(new, 7);
        assert!(!changed);
    }

    #[test]
    fn bool_or_accumulates_bits() {
        let p = compile(AtomicKind::BoolOr);
        let (new, changed) = p.execute(0b0101, 0b0011);
        assert_eq!(new, 0b0111);
        assert!(changed);
        let (_, changed) = p.execute(0b0111, 0b0011);
        assert!(!changed);
    }

    #[test]
    fn integer_add_wraps() {
        let p = compile(AtomicKind::SignedAdd);
        let (new, _) = p.execute(10, (-1i64) as u64);
        assert_eq!(new as i64, 9);
    }

    #[test]
    fn cycle_counts_match_pisc_model() {
        // The sequencer cost used by the timing model (AtomicKind::pisc_cycles)
        // must equal the compiled program's cost, so the microcode and the
        // timing model cannot drift apart.
        for kind in [
            AtomicKind::FpAdd,
            AtomicKind::UnsignedCompareSet,
            AtomicKind::SignedMin,
            AtomicKind::LabelMin,
            AtomicKind::BoolOr,
            AtomicKind::SignedAdd,
        ] {
            assert_eq!(compile(kind).cycles(), kind.pisc_cycles(), "{kind:?}");
        }
    }

    #[test]
    fn every_program_bounds_at_scratchpad_roundtrip() {
        for kind in [AtomicKind::FpAdd, AtomicKind::BoolOr] {
            let p = compile(kind);
            assert_eq!(p.ops().first(), Some(&MicroOp::LoadProp));
            assert!(p.ops().contains(&MicroOp::StoreProp));
            assert_eq!(p.ops().last(), Some(&MicroOp::SetActiveBitIfChanged));
        }
    }
}
