//! The execution context: property registry, work partitioning, and the
//! tracing hooks through which every vtxProp access flows.

use crate::props::{PropId, PropStorage, PropType};
use crate::trace::{PropSpec, TraceEvent, TraceMeta, Tracer};
use omega_sim::fingerprint::{Canonicalize, Fnv64};
use omega_sim::AtomicKind;
use std::marker::PhantomData;

/// Framework execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of logical cores work is partitioned over (16, Table III).
    pub n_cores: usize,
    /// OpenMP-style static chunk size: iteration `i` of a parallel loop is
    /// executed by core `(i / chunk_size) % n_cores`. OMEGA's scratchpad
    /// mapping is configured to the same chunk size (§V.D); the chunk
    /// ablation deliberately mismatches them.
    pub chunk_size: usize,
    /// Ligra's direction-optimisation threshold: use the dense (pull)
    /// representation when `frontier_size + frontier_out_edges > m / div`.
    pub dense_threshold_div: u64,
    /// Non-memory work per processed edge, in cycles ×100.
    pub compute_per_edge_x100: u32,
    /// Non-memory work per processed vertex, in cycles ×100.
    pub compute_per_vertex_x100: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            n_cores: 16,
            chunk_size: 4,
            dense_threshold_div: 20,
            compute_per_edge_x100: 150,
            compute_per_vertex_x100: 200,
        }
    }
}

impl ExecConfig {
    /// The core executing iteration `i` of a statically-chunked parallel
    /// loop.
    pub fn core_of(&self, i: usize) -> usize {
        (i / self.chunk_size.max(1)) % self.n_cores
    }
}

/// Every field, in declaration order. These bytes are part of every store
/// key, so changing them moves every stored entry.
impl Canonicalize for ExecConfig {
    fn canonicalize(&self, h: &mut Fnv64) {
        h.write_usize(self.n_cores);
        h.write_usize(self.chunk_size);
        h.write_u64(self.dense_threshold_div);
        h.write_u32(self.compute_per_edge_x100);
        h.write_u32(self.compute_per_vertex_x100);
    }
}

/// Execution context: owns the property arrays and the tracer.
///
/// Algorithms allocate vtxProp arrays with [`Ctx::new_prop`] and access
/// them through the typed, traced accessors. The context is reusable
/// across algorithm runs only if the caller wants the traces concatenated;
/// typically one context is created per run.
pub struct Ctx<'t> {
    cfg: ExecConfig,
    props: Vec<PropStorage>,
    monitored: Vec<bool>,
    tracer: &'t mut dyn Tracer,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("cfg", &self.cfg)
            .field("props", &self.props.len())
            .finish()
    }
}

impl<'t> Ctx<'t> {
    /// Creates a context that reports events to `tracer`.
    pub fn new(cfg: ExecConfig, tracer: &'t mut dyn Tracer) -> Self {
        Ctx {
            cfg,
            props: Vec::new(),
            monitored: Vec::new(),
            tracer,
        }
    }

    /// The execution configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Allocates a vtxProp array of `len` entries initialised to `init`.
    /// The array is *monitored*: it counts toward Table II's vtxProp
    /// footprint and is eligible for scratchpad residency.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` arrays are allocated.
    pub fn new_prop<T: PropType>(&mut self, len: usize, init: T) -> PropId<T> {
        self.alloc_prop(len, init, true)
    }

    /// Allocates an *auxiliary* per-vertex array: framework bookkeeping
    /// that Table II does not count as vtxProp (e.g. PageRank's
    /// previous-iteration ranks, BC's visited flags). Auxiliary arrays
    /// always live in the regular cache hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` arrays are allocated.
    pub fn new_aux_prop<T: PropType>(&mut self, len: usize, init: T) -> PropId<T> {
        self.alloc_prop(len, init, false)
    }

    fn alloc_prop<T: PropType>(&mut self, len: usize, init: T, monitored: bool) -> PropId<T> {
        let raw = u16::try_from(self.props.len()).expect("too many property arrays");
        self.props.push(T::alloc(len, init));
        self.monitored.push(monitored);
        PropId {
            raw,
            _ty: PhantomData,
        }
    }

    /// Untraced read (initialisation, result extraction).
    pub fn peek<T: PropType>(&self, id: PropId<T>, v: u32) -> T {
        T::load(&self.props[id.raw as usize], v as usize)
    }

    /// Untraced write (initialisation).
    pub fn poke<T: PropType>(&mut self, id: PropId<T>, v: u32, val: T) {
        T::store(&mut self.props[id.raw as usize], v as usize, val);
    }

    /// Traced random read of vertex `v`'s property, performed by `core`.
    pub fn read<T: PropType>(&mut self, core: usize, id: PropId<T>, v: u32) -> T {
        self.tracer
            .emit(core, TraceEvent::PropRead { id: id.raw, v });
        T::load(&self.props[id.raw as usize], v as usize)
    }

    /// Traced read of a *source* vertex's property during an edge scan —
    /// eligible for OMEGA's source-vertex buffer (§V.C).
    pub fn read_src<T: PropType>(&mut self, core: usize, id: PropId<T>, v: u32) -> T {
        self.tracer
            .emit(core, TraceEvent::PropReadSrc { id: id.raw, v });
        T::load(&self.props[id.raw as usize], v as usize)
    }

    /// Traced write of vertex `v`'s property.
    pub fn write<T: PropType>(&mut self, core: usize, id: PropId<T>, v: u32, val: T) {
        self.tracer
            .emit(core, TraceEvent::PropWrite { id: id.raw, v });
        T::store(&mut self.props[id.raw as usize], v as usize, val);
    }

    /// Traced atomic read-modify-write: applies `f` to the current value
    /// and stores the result; returns `(old, new)`. `kind` names the ALU
    /// operation for the PISC microcode (Table II).
    pub fn atomic<T: PropType>(
        &mut self,
        core: usize,
        id: PropId<T>,
        v: u32,
        kind: AtomicKind,
        f: impl FnOnce(T) -> T,
    ) -> (T, T) {
        self.tracer.emit(
            core,
            TraceEvent::PropAtomic {
                id: id.raw,
                v,
                kind,
            },
        );
        let storage = &mut self.props[id.raw as usize];
        let old = T::load(storage, v as usize);
        let new = f(old);
        T::store(storage, v as usize, new);
        (old, new)
    }

    /// Emits an edge-array read event (the framework calls this while
    /// scanning adjacency).
    pub fn trace_edge(&mut self, core: usize, arc: u64) {
        self.tracer.emit(core, TraceEvent::EdgeRead { arc });
    }

    /// Emits a frontier read event.
    pub fn trace_frontier_read(&mut self, core: usize, index: u64, dense: bool) {
        self.tracer
            .emit(core, TraceEvent::FrontierRead { index, dense });
    }

    /// Emits a frontier insertion event.
    pub fn trace_frontier_write(&mut self, core: usize, vertex: u32, dense: bool, fused: bool) {
        self.tracer.emit(
            core,
            TraceEvent::FrontierWrite {
                vertex,
                dense,
                fused,
            },
        );
    }

    /// Emits a non-graph bookkeeping access.
    pub fn trace_ngraph(&mut self, core: usize) {
        self.tracer.emit(core, TraceEvent::NGraph);
    }

    /// Emits non-memory work of `x100 / 100` cycles.
    pub fn trace_compute(&mut self, core: usize, x100: u32) {
        self.tracer.emit(core, TraceEvent::Compute(x100));
    }

    /// Emits a global barrier (end of a Ligra iteration).
    pub fn barrier(&mut self) {
        self.tracer.emit_barrier();
    }

    /// Metadata describing the registered property arrays, for address
    /// layout in `omega-core`.
    pub fn prop_specs(&self) -> Vec<PropSpec> {
        self.props
            .iter()
            .zip(&self.monitored)
            .map(|(p, &monitored)| PropSpec {
                entry_bytes: p.entry_bytes(),
                len: p.len() as u64,
                monitored,
            })
            .collect()
    }

    /// Builds the full [`TraceMeta`] for a run over a graph with the given
    /// shape.
    pub fn meta_for(&self, n_vertices: u64, n_arcs: u64, weighted: bool) -> TraceMeta {
        TraceMeta {
            props: self.prop_specs(),
            n_vertices,
            n_arcs,
            weighted,
        }
    }

    /// Extracts a whole property array as a `Vec` (untraced; result
    /// extraction).
    pub fn extract<T: PropType>(&self, id: PropId<T>) -> Vec<T> {
        let storage = &self.props[id.raw as usize];
        (0..storage.len()).map(|i| T::load(storage, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CollectingTracer, NullTracer};

    #[test]
    fn chunked_core_assignment() {
        let cfg = ExecConfig {
            n_cores: 4,
            chunk_size: 2,
            ..Default::default()
        };
        let cores: Vec<usize> = (0..10).map(|i| cfg.core_of(i)).collect();
        assert_eq!(cores, vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 0]);
    }

    #[test]
    fn traced_accesses_emit_events() {
        let mut t = CollectingTracer::new(2);
        let mut ctx = Ctx::new(
            ExecConfig {
                n_cores: 2,
                ..Default::default()
            },
            &mut t,
        );
        let p = ctx.new_prop::<f64>(4, 1.0);
        assert_eq!(ctx.read(0, p, 2), 1.0);
        ctx.write(1, p, 2, 3.0);
        let (old, new) = ctx.atomic(0, p, 2, AtomicKind::FpAdd, |x| x + 1.0);
        assert_eq!((old, new), (3.0, 4.0));
        let raw = t.finish();
        assert_eq!(raw.core_len(0), 2);
        assert_eq!(raw.core_len(1), 1);
    }

    #[test]
    fn peek_and_poke_do_not_trace() {
        let mut t = CollectingTracer::new(1);
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let p = ctx.new_prop::<u32>(2, 7);
        ctx.poke(p, 0, 9);
        assert_eq!(ctx.peek(p, 0), 9);
        assert_eq!(t.finish().events(), 0);
    }

    #[test]
    fn prop_specs_reflect_allocations() {
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        ctx.new_prop::<f64>(10, 0.0);
        ctx.new_prop::<bool>(10, false);
        let specs = ctx.prop_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].entry_bytes, 8);
        assert_eq!(specs[1].entry_bytes, 1);
        assert_eq!(specs[1].len, 10);
    }

    #[test]
    fn extract_returns_full_array() {
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let p = ctx.new_prop::<u32>(3, 5);
        ctx.poke(p, 1, 8);
        assert_eq!(ctx.extract(p), vec![5, 8, 5]);
    }
}
