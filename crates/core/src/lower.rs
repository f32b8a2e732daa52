//! Lowering: turns the framework's logical trace events into concrete
//! simulator operations with virtual addresses.
//!
//! Lowering is *machine-aware* in exactly one place: a fused, dense
//! active-list update whose vertex is scratchpad-resident costs the core
//! nothing on OMEGA, because the PISC sets the scratchpad's active bit as
//! part of the offloaded atomic (§V.B). Every other event lowers
//! identically on both machines — OMEGA's routing decisions happen inside
//! `OmegaMemory`, keyed purely on addresses, just as the hardware's
//! address-monitoring registers would.
//!
//! That one place is what lets a trace be lowered once for every machine.
//! A [`Tape`] is the baseline lowering, packed eight bytes an op, in which
//! each fused dense activation keeps its vertex id; a replay
//! ([`Tape::source`]) absorbs the ones below its target's `hot_count` and
//! demotes atomics to stores for [`Target::BaselinePlainAtomics`] as it
//! decodes. [`LoweringStream`] and [`lower`] lower for one target directly:
//! they are the reference that the tape is tested against.

use crate::layout::Layout;
use omega_ligra::trace::{RawTrace, TraceEvent, TraceMeta};
use omega_sim::{AccessKind, AtomicKind, CoreOp, MemAccess, OpSource, Trace};

/// Which machine the trace is being lowered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The baseline CMP: every event becomes a memory operation.
    Baseline,
    /// The baseline CMP with every atomic lowered to a plain store — the
    /// paper's §III methodology for measuring atomic-instruction overhead
    /// ("we replaced each atomic instruction with a regular read/write").
    BaselinePlainAtomics,
    /// An OMEGA machine: fused dense activations of vertices below
    /// `hot_count` are absorbed by the PISCs.
    Omega {
        /// Number of scratchpad-resident vertices.
        hot_count: u32,
    },
}

/// Per-core progress of a [`LoweringStream`].
#[derive(Debug, Clone, Copy, Default)]
struct CoreCursor {
    pos: usize,
    sparse_out_slot: u64,
    ngraph_slot: u64,
}

/// Lazily lowers a collected trace for one target, one operation at a
/// time.
///
/// This is the reference lowering: the engine can pull [`CoreOp`]s
/// through [`OpSource::next`] with each logical event lowered on the fly,
/// and the tests hold a [`Tape`]'s replays to it op for op. Lowering is
/// stateful per core (sparse-frontier and bookkeeping slots advance
/// monotonically), and that state lives in the per-core cursors here.
#[derive(Debug)]
pub struct LoweringStream<'a> {
    raw: &'a RawTrace,
    layout: &'a Layout,
    target: Target,
    cursors: Vec<CoreCursor>,
}

impl<'a> LoweringStream<'a> {
    /// Creates a stream over `raw` for `target`, starting at every core's
    /// first event.
    pub fn new(raw: &'a RawTrace, layout: &'a Layout, target: Target) -> Self {
        LoweringStream {
            raw,
            layout,
            target,
            cursors: vec![CoreCursor::default(); raw.n_cores()],
        }
    }

    /// Lowers one event; `None` means the event is absorbed (produces no
    /// operation) and the caller should advance to the next event.
    fn lower_event(&mut self, core: usize, ev: TraceEvent) -> Option<CoreOp> {
        lower_event(self.layout, self.target, core, &mut self.cursors[core], ev)
    }
}

/// Lowers one event against one core's cursor; `None` means the event is
/// absorbed on this target. Inlined into both of its callers, the
/// reference stream and the tape's lowering, which call it once an event.
#[inline(always)]
fn lower_event(
    layout: &Layout,
    target: Target,
    core: usize,
    cursor: &mut CoreCursor,
    ev: TraceEvent,
) -> Option<CoreOp> {
    match ev {
        TraceEvent::Compute(x100) => Some(CoreOp::ComputeX100(x100)),
        TraceEvent::PropRead { id, v } => Some(CoreOp::Access(MemAccess::read(
            layout.prop_addr(id, v),
            layout.prop_entry_bytes(id) as u8,
        ))),
        TraceEvent::PropReadSrc { id, v } => Some(CoreOp::Access(MemAccess {
            addr: layout.prop_addr(id, v),
            size: layout.prop_entry_bytes(id) as u8,
            kind: AccessKind::ReadStable,
        })),
        TraceEvent::PropWrite { id, v } => Some(CoreOp::Access(MemAccess::write(
            layout.prop_addr(id, v),
            layout.prop_entry_bytes(id) as u8,
        ))),
        TraceEvent::PropAtomic { id, v, kind } => {
            let access = if target == Target::BaselinePlainAtomics {
                MemAccess::write(layout.prop_addr(id, v), layout.prop_entry_bytes(id) as u8)
            } else {
                MemAccess::atomic(
                    layout.prop_addr(id, v),
                    layout.prop_entry_bytes(id) as u8,
                    kind,
                )
            };
            Some(CoreOp::Access(access))
        }
        TraceEvent::EdgeRead { arc } => Some(CoreOp::Access(MemAccess::read(
            layout.edge_addr(arc),
            layout.arc_bytes() as u8,
        ))),
        TraceEvent::FrontierRead { index, dense } => {
            let addr = if dense {
                layout.dense_frontier_addr(index)
            } else {
                layout.sparse_frontier_addr(index)
            };
            Some(CoreOp::Access(MemAccess::read(
                addr,
                if dense { 8 } else { 4 },
            )))
        }
        TraceEvent::FrontierWrite {
            vertex,
            dense,
            fused,
        } => {
            let absorbed = match target {
                Target::Omega { hot_count } => fused && dense && vertex < hot_count,
                Target::Baseline | Target::BaselinePlainAtomics => false,
            };
            if absorbed {
                None
            } else if dense {
                Some(CoreOp::Access(MemAccess::write(
                    layout.dense_frontier_addr(vertex as u64 / 64),
                    8,
                )))
            } else {
                let slot = cursor.sparse_out_slot;
                cursor.sparse_out_slot += 1;
                Some(CoreOp::Access(MemAccess::write(
                    layout.sparse_out_addr(core, slot),
                    4,
                )))
            }
        }
        TraceEvent::NGraph => {
            let slot = cursor.ngraph_slot;
            cursor.ngraph_slot += 1;
            Some(CoreOp::Access(MemAccess::read(
                layout.ngraph_addr(core, slot),
                8,
            )))
        }
        TraceEvent::Barrier => Some(CoreOp::Barrier),
    }
}

impl OpSource for LoweringStream<'_> {
    fn n_cores(&self) -> usize {
        self.raw.n_cores()
    }

    fn next(&mut self, core: usize) -> Option<CoreOp> {
        loop {
            let pos = self.cursors[core].pos;
            let ev = self.raw.event(core, pos)?;
            self.cursors[core].pos += 1;
            if let Some(op) = self.lower_event(core, ev) {
                return Some(op);
            }
            // Absorbed event (free on this target): keep scanning.
        }
    }
}

/// Lowers a collected trace into fully materialised per-core operation
/// streams.
///
/// Thin collecting wrapper over [`LoweringStream`]: the materialising
/// reference that the `streaming_equivalence` tests check the tape
/// against. The simulation paths replay a [`Tape`].
pub fn lower(raw: &RawTrace, layout: &Layout, target: Target) -> Vec<Trace> {
    let mut stream = LoweringStream::new(raw, layout, target);
    (0..stream.n_cores())
        .map(|core| std::iter::from_fn(|| stream.next(core)).collect())
        .collect()
}

/// A trace lowered once for every [`Target`]: per-core streams of packed
/// ops, eight bytes each, with the [`TraceMeta`] and [`Layout`] they were
/// lowered under.
///
/// The tape holds the baseline lowering, except that a fused dense
/// activation keeps its vertex id instead of its frontier-word address,
/// so one tape replays on every machine a trace group holds
/// ([`Tape::source`]). It has one op per trace event, so it is the same
/// size as the packed [`RawTrace`] it replaces.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    cores: Vec<Vec<TapeOp>>,
    meta: TraceMeta,
    layout: Layout,
}

impl Tape {
    /// Lowers `raw`, collected with `meta`, leaving `raw` in place.
    pub fn new(raw: &RawTrace, meta: &TraceMeta) -> Tape {
        Tape::lower_cores(raw.cores(), meta.clone())
    }

    /// Lowers `raw` core by core, freeing each core's events once they
    /// are lowered, so the trace and its tape never both exist in full.
    pub fn from_raw(raw: RawTrace, meta: TraceMeta) -> Tape {
        Tape::lower_cores(raw.into_cores(), meta)
    }

    fn lower_cores<C>(cores: impl Iterator<Item = C>, meta: TraceMeta) -> Tape
    where
        C: ExactSizeIterator<Item = TraceEvent>,
    {
        let layout = Layout::new(&meta);
        let cores = cores
            .enumerate()
            .map(|(core, events)| {
                let mut cursor = CoreCursor::default();
                let mut ops = Vec::with_capacity(events.len());
                ops.extend(events.map(|ev| {
                    match ev {
                        TraceEvent::FrontierWrite {
                            vertex,
                            dense: true,
                            fused: true,
                        } => TapeOp::activation(vertex),
                        ev => TapeOp::pack(
                            lower_event(&layout, Target::Baseline, core, &mut cursor, ev)
                                .expect("the baseline lowering absorbs no event"),
                        ),
                    }
                }));
                ops
            })
            .collect();
        Tape {
            cores,
            meta,
            layout,
        }
    }

    /// The metadata of the trace this tape was lowered from.
    pub(crate) fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The address layout the tape was lowered under.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// A replay of the tape for `target`: the op streams that
    /// [`lower`] would materialise for it, decoded as the engine pulls.
    pub fn source(&self, target: Target) -> TapeSource<'_> {
        let (hot_count, plain_atomics) = match target {
            Target::Baseline => (0, false),
            Target::BaselinePlainAtomics => (0, true),
            Target::Omega { hot_count } => (hot_count, false),
        };
        TapeSource {
            cores: self.cores.iter().map(|ops| ops.iter()).collect(),
            dense_frontier: &self.layout,
            hot_count,
            plain_atomics,
        }
    }
}

/// One lowered op of a [`Tape`], packed into eight bytes: a 4-bit tag in
/// the top bits and its payload below.
///
/// | tag | op                 | payload bits                               |
/// |-----|--------------------|--------------------------------------------|
/// | 0   | `ComputeX100`      | `x100` in 0..32                            |
/// | 1   | read               | `addr` in 0..48, `size` in 48..56          |
/// | 2   | stable read        | as read                                    |
/// | 3   | write              | as read                                    |
/// | 4   | atomic             | as read, `kind` in 56..60                  |
/// | 5   | fused dense activation | `vertex` in 0..32                      |
/// | 6   | `Barrier`          | —                                          |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapeOp(u64);

const OP_TAG_SHIFT: u32 = 60;
const ADDR_BITS: u32 = 48;
const KIND_SHIFT: u32 = 56;
const ATOMIC_KINDS: [AtomicKind; 6] = [
    AtomicKind::FpAdd,
    AtomicKind::UnsignedCompareSet,
    AtomicKind::SignedMin,
    AtomicKind::LabelMin,
    AtomicKind::BoolOr,
    AtomicKind::SignedAdd,
];

impl TapeOp {
    /// Packs a lowered op.
    ///
    /// # Panics
    ///
    /// Panics if an address does not fit in 48 bits.
    fn pack(op: CoreOp) -> TapeOp {
        let bits = match op {
            CoreOp::ComputeX100(x100) => x100 as u64,
            CoreOp::Barrier => 6 << OP_TAG_SHIFT,
            CoreOp::Access(MemAccess { addr, size, kind }) => {
                assert!(addr < 1 << ADDR_BITS, "address {addr:#x} exceeds 48 bits");
                let (tag, code) = match kind {
                    AccessKind::Read => (1, 0),
                    AccessKind::ReadStable => (2, 0),
                    AccessKind::Write => (3, 0),
                    AccessKind::Atomic(kind) => {
                        let code = ATOMIC_KINDS.iter().position(|&k| k == kind);
                        (4, code.expect("every kind is listed") as u64)
                    }
                };
                tag << OP_TAG_SHIFT | code << KIND_SHIFT | (size as u64) << ADDR_BITS | addr
            }
        };
        TapeOp(bits)
    }

    /// A fused dense activation of `vertex`.
    fn activation(vertex: u32) -> TapeOp {
        TapeOp(5 << OP_TAG_SHIFT | vertex as u64)
    }
}

/// A replay of a [`Tape`] for one [`Target`], pulled by the engine through
/// [`OpSource`]. Made by [`Tape::source`].
#[derive(Debug)]
pub struct TapeSource<'a> {
    cores: Vec<std::slice::Iter<'a, TapeOp>>,
    dense_frontier: &'a Layout,
    hot_count: u32,
    plain_atomics: bool,
}

impl TapeSource<'_> {
    /// Decodes one op; `None` means the op is absorbed on this target.
    #[inline]
    fn decode(&self, op: TapeOp) -> Option<CoreOp> {
        let b = op.0;
        let access = |kind| {
            CoreOp::Access(MemAccess {
                addr: b & ((1 << ADDR_BITS) - 1),
                size: (b >> ADDR_BITS) as u8,
                kind,
            })
        };
        Some(match b >> OP_TAG_SHIFT {
            0 => CoreOp::ComputeX100(b as u32),
            1 => access(AccessKind::Read),
            2 => access(AccessKind::ReadStable),
            3 => access(AccessKind::Write),
            4 if self.plain_atomics => access(AccessKind::Write),
            4 => access(AccessKind::Atomic(
                ATOMIC_KINDS[(b >> KIND_SHIFT & 0xF) as usize],
            )),
            5 => {
                let vertex = b as u32;
                if vertex < self.hot_count {
                    return None;
                }
                CoreOp::Access(MemAccess::write(
                    self.dense_frontier.dense_frontier_addr(vertex as u64 / 64),
                    8,
                ))
            }
            _ => CoreOp::Barrier,
        })
    }
}

impl OpSource for TapeSource<'_> {
    fn n_cores(&self) -> usize {
        self.cores.len()
    }

    #[inline]
    fn next(&mut self, core: usize) -> Option<CoreOp> {
        loop {
            let &op = self.cores[core].next()?;
            if let Some(op) = self.decode(op) {
                return Some(op);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::{PropSpec, TraceMeta};
    use omega_sim::AtomicKind;

    fn layout() -> Layout {
        Layout::new(&TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: 100,
                monitored: true,
            }],
            n_vertices: 100,
            n_arcs: 500,
            weighted: false,
        })
    }

    fn raw(events: Vec<TraceEvent>) -> RawTrace {
        RawTrace::from_events(vec![events])
    }

    #[test]
    fn prop_events_carry_entry_size_and_address() {
        let l = layout();
        let t = lower(
            &raw(vec![TraceEvent::PropRead { id: 0, v: 7 }]),
            &l,
            Target::Baseline,
        );
        let CoreOp::Access(a) = t[0][0] else {
            panic!("expected access")
        };
        assert_eq!(a.addr, l.prop_addr(0, 7));
        assert_eq!(a.size, 8);
        assert_eq!(a.kind, AccessKind::Read);
    }

    #[test]
    fn src_reads_become_stable_reads() {
        let l = layout();
        let t = lower(
            &raw(vec![TraceEvent::PropReadSrc { id: 0, v: 7 }]),
            &l,
            Target::Baseline,
        );
        let CoreOp::Access(a) = t[0][0] else { panic!() };
        assert_eq!(a.kind, AccessKind::ReadStable);
    }

    #[test]
    fn atomics_keep_their_kind() {
        let l = layout();
        let t = lower(
            &raw(vec![TraceEvent::PropAtomic {
                id: 0,
                v: 1,
                kind: AtomicKind::FpAdd,
            }]),
            &l,
            Target::Baseline,
        );
        let CoreOp::Access(a) = t[0][0] else { panic!() };
        assert_eq!(a.kind, AccessKind::Atomic(AtomicKind::FpAdd));
    }

    #[test]
    fn fused_dense_hot_writes_are_absorbed_on_omega_only() {
        let l = layout();
        let ev = vec![TraceEvent::FrontierWrite {
            vertex: 3,
            dense: true,
            fused: true,
        }];
        assert_eq!(lower(&raw(ev.clone()), &l, Target::Baseline)[0].len(), 1);
        assert_eq!(
            lower(&raw(ev.clone()), &l, Target::Omega { hot_count: 10 })[0].len(),
            0
        );
        // Cold vertex: not absorbed.
        let cold = vec![TraceEvent::FrontierWrite {
            vertex: 50,
            dense: true,
            fused: true,
        }];
        assert_eq!(
            lower(&raw(cold), &l, Target::Omega { hot_count: 10 })[0].len(),
            1
        );
        // Sparse fused writes still go through the L1 (paper §V.B).
        let sparse = vec![TraceEvent::FrontierWrite {
            vertex: 3,
            dense: false,
            fused: true,
        }];
        assert_eq!(
            lower(&raw(sparse), &l, Target::Omega { hot_count: 10 })[0].len(),
            1
        );
    }

    #[test]
    fn sparse_out_writes_advance_per_core_slots() {
        let l = layout();
        let ev = vec![
            TraceEvent::FrontierWrite {
                vertex: 1,
                dense: false,
                fused: false,
            },
            TraceEvent::FrontierWrite {
                vertex: 2,
                dense: false,
                fused: false,
            },
        ];
        let t = lower(&raw(ev), &l, Target::Baseline);
        let CoreOp::Access(a) = t[0][0] else { panic!() };
        let CoreOp::Access(b) = t[0][1] else { panic!() };
        assert_eq!(b.addr - a.addr, 4);
    }

    #[test]
    fn plain_atomics_target_demotes_rmws_to_stores() {
        let l = layout();
        let t = lower(
            &raw(vec![TraceEvent::PropAtomic {
                id: 0,
                v: 1,
                kind: AtomicKind::FpAdd,
            }]),
            &l,
            Target::BaselinePlainAtomics,
        );
        let CoreOp::Access(a) = t[0][0] else { panic!() };
        assert_eq!(a.kind, AccessKind::Write);
    }

    #[test]
    fn barriers_and_compute_pass_through() {
        let l = layout();
        let t = lower(
            &raw(vec![TraceEvent::Compute(250), TraceEvent::Barrier]),
            &l,
            Target::Baseline,
        );
        assert_eq!(t[0][0], CoreOp::ComputeX100(250));
        assert_eq!(t[0][1], CoreOp::Barrier);
    }

    #[test]
    fn edge_reads_are_sequential_addresses() {
        let l = layout();
        let t = lower(
            &raw(vec![
                TraceEvent::EdgeRead { arc: 0 },
                TraceEvent::EdgeRead { arc: 1 },
            ]),
            &l,
            Target::Baseline,
        );
        let CoreOp::Access(a) = t[0][0] else { panic!() };
        let CoreOp::Access(b) = t[0][1] else { panic!() };
        assert_eq!(b.addr - a.addr, 4);
    }
}
