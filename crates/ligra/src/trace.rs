//! The instrumentation layer: typed memory-access events.
//!
//! The framework emits one [`TraceEvent`] for every access it (or an
//! algorithm's update function) makes to the three data-structure classes
//! the paper distinguishes (§II "Graph data structures"):
//!
//! * **vtxProp** — per-vertex property arrays: random access, the target of
//!   OMEGA's scratchpads.
//! * **edgeList** — CSR adjacency: sequential access, cache-friendly.
//! * **nGraphData** — everything else: frontier arrays, loop bookkeeping.
//!
//! Events carry *logical* coordinates (property id + vertex id, arc index,
//! frontier index); `omega-core`'s layout assigns virtual addresses when
//! lowering to the timing simulator. This keeps the framework independent
//! of machine configuration, exactly as Ligra is.

use omega_sim::AtomicKind;

/// Identifier of a registered property array.
pub type RawPropId = u16;

/// One logical memory event, attributed to a simulated core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Non-memory work, in cycles ×100.
    Compute(u32),
    /// Random read of vertex `v`'s entry in property `id`.
    PropRead {
        /// Property array.
        id: RawPropId,
        /// Vertex index.
        v: u32,
    },
    /// Read of the *source* vertex's property while scanning its out-edges —
    /// the access class served by OMEGA's source-vertex buffer (§V.C).
    PropReadSrc {
        /// Property array.
        id: RawPropId,
        /// Vertex index.
        v: u32,
    },
    /// Plain write of vertex `v`'s entry in property `id`.
    PropWrite {
        /// Property array.
        id: RawPropId,
        /// Vertex index.
        v: u32,
    },
    /// Atomic read-modify-write of vertex `v`'s entry (the operation OMEGA
    /// offloads to a PISC).
    PropAtomic {
        /// Property array.
        id: RawPropId,
        /// Vertex index.
        v: u32,
        /// Which ALU operation.
        kind: AtomicKind,
    },
    /// Sequential read of the CSR arc at global index `arc` (target id plus
    /// weight if the graph is weighted).
    EdgeRead {
        /// Global arc index.
        arc: u64,
    },
    /// Read of the frontier (active list) at `index`.
    FrontierRead {
        /// Element (sparse) or 64-vertex word (dense) index.
        index: u64,
        /// Dense bit-vector vs. sparse id list.
        dense: bool,
    },
    /// Insertion of `vertex` into the next frontier.
    FrontierWrite {
        /// The activated vertex.
        vertex: u32,
        /// Dense bit-vector vs. sparse id list.
        dense: bool,
        /// `true` when the activation is produced by the same atomic update
        /// that modified the vertex's property — OMEGA's PISC absorbs these
        /// into the scratchpad's active-list bit for free (§V.B).
        fused: bool,
    },
    /// A bookkeeping access to non-graph data (loop counters, frontier
    /// metadata).
    NGraph,
    /// All cores synchronise (end of a Ligra iteration).
    Barrier,
}

/// Metadata for one registered property array, needed to lay it out in the
/// simulated address space (the paper's address-monitoring registers hold
/// exactly this: start address, type size, stride — §V.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropSpec {
    /// Bytes per entry (Table II "vtxProp entry size" contributions).
    pub entry_bytes: u32,
    /// Number of entries (== number of vertices).
    pub len: u64,
    /// Whether this array is a true vtxProp (randomly accessed per edge,
    /// counted in Table II, eligible for scratchpad residency). Auxiliary
    /// arrays (e.g. PageRank's previous-iteration ranks, BC's visited
    /// flags) stay in the regular caches.
    pub monitored: bool,
}

/// Trace-wide metadata captured alongside the events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Registered property arrays, indexed by [`RawPropId`].
    pub props: Vec<PropSpec>,
    /// Number of vertices in the processed graph.
    pub n_vertices: u64,
    /// Number of stored arcs.
    pub n_arcs: u64,
    /// Whether edges carry weights (8-byte vs 4-byte arc records).
    pub weighted: bool,
}

impl TraceMeta {
    /// Bytes per arc record in the CSR edge array.
    pub fn arc_bytes(&self) -> u32 {
        if self.weighted {
            8
        } else {
            4
        }
    }
}

/// A [`TraceEvent`] packed into eight bytes.
///
/// Functional traces are the dominant memory consumer of the pipeline —
/// tens of millions of events per run — and the natural enum layout costs
/// 16 bytes per event (the `u64` arc index forces 8-byte alignment). The
/// packed form keeps the 4-bit discriminant in the top bits of one `u64`
/// and fits every payload in the remaining 60:
///
/// | tag | event           | payload bits                                  |
/// |-----|-----------------|-----------------------------------------------|
/// | 0   | `Compute`       | `x100` in 0..32                               |
/// | 1   | `PropRead`      | `id` in 0..16, `v` in 16..48                  |
/// | 2   | `PropReadSrc`   | `id` in 0..16, `v` in 16..48                  |
/// | 3   | `PropWrite`     | `id` in 0..16, `v` in 16..48                  |
/// | 4   | `PropAtomic`    | `id` in 0..16, `v` in 16..48, `kind` in 48..52|
/// | 5   | `EdgeRead`      | `arc` in 0..60                                |
/// | 6   | `FrontierRead`  | `index` in 0..59, `dense` at 59               |
/// | 7   | `FrontierWrite` | `vertex` in 0..32, `dense` at 32, `fused` at 33|
/// | 8   | `NGraph`        | —                                             |
/// | 9   | `Barrier`       | —                                             |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedEvent(u64);

const TAG_SHIFT: u32 = 60;

impl PackedEvent {
    /// Packs `ev` into its eight-byte form.
    ///
    /// # Panics
    ///
    /// Panics if an arc or frontier index exceeds its payload field (2^60
    /// arcs — unreachable for any graph the simulator can hold).
    pub fn pack(ev: TraceEvent) -> Self {
        let bits = match ev {
            TraceEvent::Compute(x100) => x100 as u64,
            TraceEvent::PropRead { id, v } => 1 << TAG_SHIFT | (v as u64) << 16 | id as u64,
            TraceEvent::PropReadSrc { id, v } => 2 << TAG_SHIFT | (v as u64) << 16 | id as u64,
            TraceEvent::PropWrite { id, v } => 3 << TAG_SHIFT | (v as u64) << 16 | id as u64,
            TraceEvent::PropAtomic { id, v, kind } => {
                4 << TAG_SHIFT
                    | (atomic_kind_code(kind) as u64) << 48
                    | (v as u64) << 16
                    | id as u64
            }
            TraceEvent::EdgeRead { arc } => {
                assert!(arc < 1 << 60, "arc index {arc} exceeds packed field");
                5 << TAG_SHIFT | arc
            }
            TraceEvent::FrontierRead { index, dense } => {
                assert!(
                    index < 1 << 59,
                    "frontier index {index} exceeds packed field"
                );
                6 << TAG_SHIFT | (dense as u64) << 59 | index
            }
            TraceEvent::FrontierWrite {
                vertex,
                dense,
                fused,
            } => 7 << TAG_SHIFT | (fused as u64) << 33 | (dense as u64) << 32 | vertex as u64,
            TraceEvent::NGraph => 8 << TAG_SHIFT,
            TraceEvent::Barrier => 9 << TAG_SHIFT,
        };
        PackedEvent(bits)
    }

    /// Recovers the logical event.
    pub fn unpack(self) -> TraceEvent {
        let b = self.0;
        let id = b as u16;
        let v = (b >> 16) as u32;
        match b >> TAG_SHIFT {
            0 => TraceEvent::Compute(b as u32),
            1 => TraceEvent::PropRead { id, v },
            2 => TraceEvent::PropReadSrc { id, v },
            3 => TraceEvent::PropWrite { id, v },
            4 => TraceEvent::PropAtomic {
                id,
                v,
                kind: atomic_kind_from_code((b >> 48) as u8 & 0xF),
            },
            5 => TraceEvent::EdgeRead {
                arc: b & ((1 << 60) - 1),
            },
            6 => TraceEvent::FrontierRead {
                index: b & ((1 << 59) - 1),
                dense: b >> 59 & 1 != 0,
            },
            7 => TraceEvent::FrontierWrite {
                vertex: b as u32,
                dense: b >> 32 & 1 != 0,
                fused: b >> 33 & 1 != 0,
            },
            8 => TraceEvent::NGraph,
            _ => TraceEvent::Barrier,
        }
    }
}

fn atomic_kind_code(kind: AtomicKind) -> u8 {
    match kind {
        AtomicKind::FpAdd => 0,
        AtomicKind::UnsignedCompareSet => 1,
        AtomicKind::SignedMin => 2,
        AtomicKind::LabelMin => 3,
        AtomicKind::BoolOr => 4,
        AtomicKind::SignedAdd => 5,
    }
}

fn atomic_kind_from_code(code: u8) -> AtomicKind {
    match code {
        0 => AtomicKind::FpAdd,
        1 => AtomicKind::UnsignedCompareSet,
        2 => AtomicKind::SignedMin,
        3 => AtomicKind::LabelMin,
        4 => AtomicKind::BoolOr,
        5 => AtomicKind::SignedAdd,
        other => unreachable!("invalid packed AtomicKind code {other}"),
    }
}

/// Sink for trace events.
///
/// The framework calls [`Tracer::emit`] with the logical core that performed
/// the access (OpenMP-style static chunking decides which core that is).
pub trait Tracer {
    /// Records `ev` as performed by `core`.
    fn emit(&mut self, core: usize, ev: TraceEvent);

    /// Records a global synchronisation (appended to every core's stream).
    fn emit_barrier(&mut self);
}

/// A tracer that discards everything — for purely functional runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn emit(&mut self, _core: usize, _ev: TraceEvent) {}
    fn emit_barrier(&mut self) {}
}

/// Collects per-core event streams in memory, packed as they arrive.
#[derive(Debug, Clone)]
pub struct CollectingTracer {
    per_core: Vec<Vec<PackedEvent>>,
}

impl CollectingTracer {
    /// Creates a tracer for `n_cores` logical cores.
    pub fn new(n_cores: usize) -> Self {
        CollectingTracer {
            per_core: vec![Vec::new(); n_cores],
        }
    }

    /// Consumes the tracer, yielding the collected streams.
    pub fn finish(self) -> RawTrace {
        RawTrace {
            per_core: self.per_core,
        }
    }
}

impl Tracer for CollectingTracer {
    fn emit(&mut self, core: usize, ev: TraceEvent) {
        self.per_core[core].push(PackedEvent::pack(ev));
    }

    fn emit_barrier(&mut self) {
        for stream in &mut self.per_core {
            stream.push(PackedEvent::pack(TraceEvent::Barrier));
        }
    }
}

/// The collected per-core event streams of one algorithm run.
///
/// Events are stored packed ([`PackedEvent`], eight bytes each — half the
/// natural enum layout) and unpacked on the fly by the accessors. A run's
/// `RawTrace` lives only until it is lowered: `omega-core` turns it into
/// the op tape every machine replays, consuming it core by core
/// ([`RawTrace::into_cores`]), so the tape, at the same eight bytes an op,
/// takes its place as the one buffered copy of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct RawTrace {
    per_core: Vec<Vec<PackedEvent>>,
}

impl RawTrace {
    /// Builds a trace from already-materialised per-core event streams
    /// (tests and tools; the framework path goes through
    /// [`CollectingTracer`]).
    pub fn from_events(streams: Vec<Vec<TraceEvent>>) -> Self {
        RawTrace {
            per_core: streams
                .into_iter()
                .map(|s| s.into_iter().map(PackedEvent::pack).collect())
                .collect(),
        }
    }

    /// Number of per-core streams.
    pub fn n_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Number of events in `core`'s stream.
    pub fn core_len(&self, core: usize) -> usize {
        self.per_core[core].len()
    }

    /// The event at position `idx` of `core`'s stream, if any.
    pub fn event(&self, core: usize, idx: usize) -> Option<TraceEvent> {
        self.per_core[core].get(idx).map(|p| p.unpack())
    }

    /// Iterates the cores' streams in core order, each as an iterator over
    /// its events.
    pub fn cores(&self) -> impl Iterator<Item = impl ExactSizeIterator<Item = TraceEvent> + '_> {
        self.per_core.iter().map(|s| s.iter().map(|p| p.unpack()))
    }

    /// Consumes the trace core by core: like [`RawTrace::cores`], but each
    /// core's buffer is freed as soon as its iterator is dropped, so a
    /// consumer that converts the streams one at a time never holds two
    /// full copies of the trace.
    pub fn into_cores(self) -> impl Iterator<Item = impl ExactSizeIterator<Item = TraceEvent>> {
        self.per_core
            .into_iter()
            .map(|s| s.into_iter().map(PackedEvent::unpack))
    }

    /// Iterates every event of every core (core-major order).
    pub fn iter_events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.per_core.iter().flatten().map(|p| p.unpack())
    }

    /// Total number of events across cores.
    pub fn events(&self) -> u64 {
        self.per_core.iter().map(|s| s.len() as u64).sum()
    }

    /// Counts of the access classes, for the Table II / Fig. 4b / Fig. 5
    /// analyses.
    pub fn classify(&self) -> TraceClassification {
        let mut c = TraceClassification::default();
        for ev in self.iter_events() {
            match ev {
                TraceEvent::PropRead { .. } | TraceEvent::PropReadSrc { .. } => c.prop_reads += 1,
                TraceEvent::PropWrite { .. } => c.prop_writes += 1,
                TraceEvent::PropAtomic { .. } => c.prop_atomics += 1,
                TraceEvent::EdgeRead { .. } => c.edge_reads += 1,
                TraceEvent::FrontierRead { .. } | TraceEvent::FrontierWrite { .. } => {
                    c.frontier_accesses += 1
                }
                TraceEvent::NGraph => c.ngraph_accesses += 1,
                TraceEvent::Compute(_) | TraceEvent::Barrier => {}
            }
        }
        c
    }

    /// Fraction of vtxProp accesses (read/write/atomic) that touch a vertex
    /// id below `hot_count` — with graphs in canonical hot order, this is
    /// exactly the paper's "accesses to the 20% most-connected vertices"
    /// metric (Fig. 4b / Fig. 5).
    pub fn prop_access_fraction_below(&self, hot_count: u32) -> f64 {
        let mut total = 0u64;
        let mut hot = 0u64;
        for ev in self.iter_events() {
            let v = match ev {
                TraceEvent::PropRead { v, .. }
                | TraceEvent::PropReadSrc { v, .. }
                | TraceEvent::PropWrite { v, .. }
                | TraceEvent::PropAtomic { v, .. } => v,
                _ => continue,
            };
            total += 1;
            if v < hot_count {
                hot += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hot as f64 / total as f64
        }
    }
}

/// Aggregate counts of each access class in a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceClassification {
    /// vtxProp loads (including source-vertex reads).
    pub prop_reads: u64,
    /// vtxProp plain stores.
    pub prop_writes: u64,
    /// vtxProp atomic RMWs.
    pub prop_atomics: u64,
    /// edgeList reads.
    pub edge_reads: u64,
    /// Active-list reads and writes.
    pub frontier_accesses: u64,
    /// Non-graph bookkeeping accesses.
    pub ngraph_accesses: u64,
}

impl TraceClassification {
    /// Total memory accesses.
    pub fn total(&self) -> u64 {
        self.prop_reads
            + self.prop_writes
            + self.prop_atomics
            + self.edge_reads
            + self.frontier_accesses
            + self.ngraph_accesses
    }

    /// Share of accesses that are atomic RMWs (Table II "%atomic").
    pub fn atomic_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.prop_atomics as f64 / self.total() as f64
        }
    }

    /// Share of accesses that are random vtxProp accesses
    /// (Table II "%random access").
    pub fn random_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.prop_reads + self.prop_writes + self.prop_atomics) as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_tracer_routes_by_core() {
        let mut t = CollectingTracer::new(2);
        t.emit(0, TraceEvent::NGraph);
        t.emit(1, TraceEvent::Compute(100));
        t.emit_barrier();
        let raw = t.finish();
        assert_eq!(raw.core_len(0), 2);
        assert_eq!(raw.core_len(1), 2);
        assert_eq!(raw.event(0, 1), Some(TraceEvent::Barrier));
    }

    #[test]
    fn packed_events_roundtrip_every_variant() {
        let kinds = [
            AtomicKind::FpAdd,
            AtomicKind::UnsignedCompareSet,
            AtomicKind::SignedMin,
            AtomicKind::LabelMin,
            AtomicKind::BoolOr,
            AtomicKind::SignedAdd,
        ];
        let mut events = vec![
            TraceEvent::Compute(0),
            TraceEvent::Compute(u32::MAX),
            TraceEvent::PropRead { id: 0, v: 0 },
            TraceEvent::PropRead {
                id: u16::MAX,
                v: u32::MAX,
            },
            TraceEvent::PropReadSrc { id: 7, v: 12345 },
            TraceEvent::PropWrite {
                id: 3,
                v: 0xDEAD_BEEF,
            },
            TraceEvent::EdgeRead { arc: 0 },
            TraceEvent::EdgeRead { arc: (1 << 60) - 1 },
            TraceEvent::FrontierRead {
                index: (1 << 59) - 1,
                dense: false,
            },
            TraceEvent::NGraph,
            TraceEvent::Barrier,
        ];
        for kind in kinds {
            events.push(TraceEvent::PropAtomic {
                id: 11,
                v: 42_000_000,
                kind,
            });
        }
        for dense in [false, true] {
            events.push(TraceEvent::FrontierRead { index: 9, dense });
            for fused in [false, true] {
                events.push(TraceEvent::FrontierWrite {
                    vertex: u32::MAX,
                    dense,
                    fused,
                });
            }
        }
        for ev in events {
            assert_eq!(PackedEvent::pack(ev).unpack(), ev, "{ev:?}");
        }
    }

    #[test]
    fn packed_events_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<PackedEvent>(), 8);
        // The packing exists because the natural layout is twice that.
        assert!(std::mem::size_of::<TraceEvent>() > 8);
    }

    #[test]
    fn from_events_matches_collecting_tracer() {
        let evs = vec![
            TraceEvent::PropRead { id: 0, v: 1 },
            TraceEvent::EdgeRead { arc: 2 },
            TraceEvent::Barrier,
        ];
        let mut t = CollectingTracer::new(1);
        for &e in &evs[..2] {
            t.emit(0, e);
        }
        t.emit_barrier();
        assert_eq!(t.finish(), RawTrace::from_events(vec![evs]));
    }

    #[test]
    fn classification_counts_kinds() {
        let mut t = CollectingTracer::new(1);
        t.emit(0, TraceEvent::PropRead { id: 0, v: 1 });
        t.emit(
            0,
            TraceEvent::PropAtomic {
                id: 0,
                v: 2,
                kind: AtomicKind::FpAdd,
            },
        );
        t.emit(0, TraceEvent::EdgeRead { arc: 0 });
        t.emit(0, TraceEvent::EdgeRead { arc: 1 });
        let c = t.finish().classify();
        assert_eq!(c.prop_reads, 1);
        assert_eq!(c.prop_atomics, 1);
        assert_eq!(c.edge_reads, 2);
        assert!((c.atomic_fraction() - 0.25).abs() < 1e-12);
        assert!((c.random_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hot_fraction_counts_only_prop_events() {
        let mut t = CollectingTracer::new(1);
        t.emit(
            0,
            TraceEvent::PropAtomic {
                id: 0,
                v: 1,
                kind: AtomicKind::FpAdd,
            },
        );
        t.emit(0, TraceEvent::PropRead { id: 0, v: 100 });
        t.emit(0, TraceEvent::EdgeRead { arc: 5 });
        let raw = t.finish();
        assert!((raw.prop_access_fraction_below(10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arc_bytes_depend_on_weights() {
        let meta = TraceMeta {
            props: vec![],
            n_vertices: 0,
            n_arcs: 0,
            weighted: false,
        };
        assert_eq!(meta.arc_bytes(), 4);
        let meta = TraceMeta {
            weighted: true,
            ..meta
        };
        assert_eq!(meta.arc_bytes(), 8);
    }
}
