//! The scratchpad controller (Fig. 7): address-monitoring registers,
//! monitor unit, partition unit, and index unit.
//!
//! At application start the framework configures one monitoring register
//! per vtxProp array (start address, type size, stride — here delegated to
//! [`Layout`]) and the controller thereafter classifies every request:
//!
//! * **monitor unit** — is the address inside a vtxProp region at all? If
//!   not, the request belongs to the regular cache hierarchy.
//! * **residency check** — is the vertex within the scratchpad-resident hot
//!   prefix (graphs arrive in canonical hot order, §VI)?
//! * **partition unit** — which core's scratchpad owns the vertex? The
//!   mapping interleaves chunks of `mapping_chunk` vertices across cores,
//!   pre-configured to match the framework's OpenMP chunk size (§V.D).
//! * **index unit** — which scratchpad line holds it? One line stores *all*
//!   property entries of a vertex plus an active-list bit (§V.A).

use crate::layout::Layout;
use omega_ligra::trace::{RawPropId, TraceMeta};

/// A classified vtxProp request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpRequest {
    /// Which property array.
    pub prop: RawPropId,
    /// Which vertex.
    pub vertex: u32,
    /// Whether the vertex is scratchpad-resident.
    pub resident: bool,
    /// Owning core's scratchpad (meaningful when `resident`).
    pub owner: usize,
    /// Line index within the owner's scratchpad (meaningful when
    /// `resident`).
    pub line: u64,
}

/// The scratchpad controller state shared by all cores.
///
/// # Example
///
/// ```
/// use omega_core::controller::ScratchpadController;
/// use omega_core::layout::Layout;
/// use omega_ligra::trace::{PropSpec, TraceMeta};
///
/// let meta = TraceMeta {
///     props: vec![PropSpec { entry_bytes: 8, len: 1000, monitored: true }],
///     n_vertices: 1000,
///     n_arcs: 8000,
///     weighted: false,
/// };
/// let layout = Layout::new(&meta);
/// let ctrl = ScratchpadController::new(layout, &meta, 16, 4, 128);
/// // 16 cores × 128 B / 9 B-slots = 227 resident vertices.
/// assert_eq!(ctrl.hot_count(), 227);
/// let addr = ctrl.layout().prop_addr(0, 5);
/// let req = ctrl.classify(addr).expect("vtxProp address");
/// assert!(req.resident);
/// assert_eq!(req.owner, 1); // chunk 4: vertex 5 → chunk 1 → core 1
/// ```
#[derive(Debug, Clone)]
pub struct ScratchpadController {
    layout: Layout,
    monitored: Vec<bool>,
    n_cores: usize,
    chunk: u64,
    hot_count: u32,
    slot_bytes: u32,
}

impl ScratchpadController {
    /// Configures the controller for a run: registers the vtxProp arrays
    /// of `meta` (via `layout`) and computes the resident hot-vertex count
    /// from the scratchpad capacity.
    ///
    /// One scratchpad line holds every property entry of one vertex plus
    /// one active-list bit per property (§V.A), so the line size is the
    /// sum of entry sizes plus one bookkeeping byte.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0` or `chunk == 0`.
    pub fn new(
        layout: Layout,
        meta: &TraceMeta,
        n_cores: usize,
        chunk: usize,
        sp_bytes_per_core: u64,
    ) -> Self {
        assert!(n_cores > 0, "need at least one core");
        assert!(chunk > 0, "mapping chunk must be positive");
        ScratchpadController {
            layout,
            monitored: meta.props.iter().map(|p| p.monitored).collect(),
            n_cores,
            chunk: chunk as u64,
            hot_count: Self::hot_count_for(meta, n_cores, sp_bytes_per_core),
            slot_bytes: Self::slot_bytes_for(meta),
        }
    }

    /// The resident hot-vertex count [`ScratchpadController::new`] computes
    /// for `n_cores` scratchpads of `sp_bytes_per_core` bytes: as many
    /// vertex slots as fit, capped at the graph's vertex count.
    pub fn hot_count_for(meta: &TraceMeta, n_cores: usize, sp_bytes_per_core: u64) -> u32 {
        let total_slots = (sp_bytes_per_core * n_cores as u64) / Self::slot_bytes_for(meta) as u64;
        total_slots.min(meta.n_vertices).min(u32::MAX as u64) as u32
    }

    fn slot_bytes_for(meta: &TraceMeta) -> u32 {
        meta.props
            .iter()
            .filter(|p| p.monitored)
            .map(|p| p.entry_bytes)
            .sum::<u32>()
            + 1
    }

    /// Number of scratchpad-resident vertices (the hot prefix `0..hot_count`).
    pub fn hot_count(&self) -> u32 {
        self.hot_count
    }

    /// Bytes of scratchpad line per resident vertex.
    pub fn slot_bytes(&self) -> u32 {
        self.slot_bytes
    }

    /// The address layout (monitoring registers).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Monitor + partition + index in one step: classifies `addr`.
    /// Returns `None` for addresses outside every vtxProp region (the
    /// request belongs to the regular caches).
    pub fn classify(&self, addr: u64) -> Option<SpRequest> {
        let (prop, vertex) = self.layout.prop_of_addr(addr)?;
        if !self.monitored[prop as usize] {
            return None;
        }
        let resident = vertex < self.hot_count;
        let owner = self.owner_of(vertex);
        let line = self.line_of(vertex);
        Some(SpRequest {
            prop,
            vertex,
            resident,
            owner,
            line,
        })
    }

    /// Partition unit: the core whose scratchpad owns `vertex`.
    pub fn owner_of(&self, vertex: u32) -> usize {
        ((vertex as u64 / self.chunk) % self.n_cores as u64) as usize
    }

    /// Index unit: the line index of `vertex` within its owner's
    /// scratchpad.
    pub fn line_of(&self, vertex: u32) -> u64 {
        let v = vertex as u64;
        // Chunks rotate across cores; within an owner, completed rotations
        // stack sequentially.
        (v / (self.chunk * self.n_cores as u64)) * self.chunk + (v % self.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::PropSpec;

    fn controller(n_vertices: u64, sp_bytes: u64, chunk: usize) -> ScratchpadController {
        let meta = TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: n_vertices,
                monitored: true,
            }],
            n_vertices,
            n_arcs: 0,
            weighted: false,
        };
        let layout = Layout::new(&meta);
        ScratchpadController::new(layout, &meta, 4, chunk, sp_bytes)
    }

    #[test]
    fn hot_count_follows_capacity() {
        // 4 cores × 90 B = 360 B; 9 B/slot ⇒ 40 resident vertices.
        let c = controller(1000, 90, 16);
        assert_eq!(c.slot_bytes(), 9);
        assert_eq!(c.hot_count(), 40);
        // Capacity beyond the graph is clamped.
        let c = controller(10, 1 << 20, 16);
        assert_eq!(c.hot_count(), 10);
    }

    #[test]
    fn ownership_interleaves_by_chunk() {
        let c = controller(1000, 1 << 20, 2);
        let owners: Vec<usize> = (0..10).map(|v| c.owner_of(v)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 0]);
    }

    #[test]
    fn line_index_is_dense_per_owner() {
        let c = controller(1000, 1 << 20, 2);
        // Core 0 owns vertices 0,1 (lines 0,1) then 8,9 (lines 2,3).
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(1), 1);
        assert_eq!(c.line_of(8), 2);
        assert_eq!(c.line_of(9), 3);
        // Core 1 owns 2,3 → lines 0,1.
        assert_eq!(c.line_of(2), 0);
        assert_eq!(c.line_of(3), 1);
    }

    #[test]
    fn classify_routes_by_region_and_residency() {
        let c = controller(100, 90, 4); // hot_count = 40
        let hot_addr = c.layout().prop_addr(0, 5);
        let req = c.classify(hot_addr).unwrap();
        assert!(req.resident);
        assert_eq!(req.vertex, 5);
        assert_eq!(req.owner, 1);
        let cold_addr = c.layout().prop_addr(0, 90);
        let req = c.classify(cold_addr).unwrap();
        assert!(!req.resident);
        // Outside any region.
        assert_eq!(c.classify(0xDEAD), None);
    }

    #[test]
    fn slot_bytes_sums_all_props_plus_flag_byte() {
        let meta = TraceMeta {
            props: vec![
                PropSpec {
                    entry_bytes: 8,
                    len: 10,
                    monitored: true,
                },
                PropSpec {
                    entry_bytes: 4,
                    len: 10,
                    monitored: true,
                },
                PropSpec {
                    entry_bytes: 1,
                    len: 10,
                    monitored: true,
                },
            ],
            n_vertices: 10,
            n_arcs: 0,
            weighted: false,
        };
        let layout = Layout::new(&meta);
        let c = ScratchpadController::new(layout, &meta, 2, 8, 1024);
        assert_eq!(c.slot_bytes(), 14);
    }
}
