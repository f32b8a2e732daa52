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

use crate::layout::Layout;
use omega_ligra::trace::{RawTrace, TraceEvent};
use omega_sim::{AccessKind, CoreOp, MemAccess, OpSource, Trace};

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

/// Lazily lowers a collected trace, one operation at a time.
///
/// This is the streaming half of the pipeline: the replay engine pulls
/// [`CoreOp`]s through [`OpSource::next`] and each logical event is lowered
/// on the fly, so the fully lowered trace — which would be as large as the
/// functional trace itself — never exists in memory. Lowering is stateful
/// per core (sparse-frontier and bookkeeping slots advance monotonically),
/// and that state lives in the per-core cursors here.
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
/// absorbed on this target.
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
/// reference that the `streaming_equivalence` tests check the stream
/// against. The simulation paths replay the stream directly.
pub fn lower(raw: &RawTrace, layout: &Layout, target: Target) -> Vec<Trace> {
    let mut stream = LoweringStream::new(raw, layout, target);
    (0..stream.n_cores())
        .map(|core| std::iter::from_fn(|| stream.next(core)).collect())
        .collect()
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
