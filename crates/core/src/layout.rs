//! The simulated virtual address space.
//!
//! Ligra allocates its data structures as large contiguous arrays; the
//! layout mirrors that: each vtxProp array gets its own region (base,
//! stride), followed by the CSR edge array, the frontier structures, and a
//! small non-graph-data region. The per-prop `(start_addr, type_size,
//! stride)` triples are exactly what the graph framework writes into
//! OMEGA's address-monitoring registers at startup (§V.A, Fig. 7).

use omega_ligra::trace::{RawPropId, TraceMeta};

const PROP_REGION_BASE: u64 = 0x1000_0000;
const REGION_ALIGN: u64 = 0x1_0000; // 64 KiB guard/alignment between arrays
const EDGE_BASE_MIN: u64 = 0x4000_0000;
const SPARSE_FRONTIER_BASE: u64 = 0x5000_0000;
const SPARSE_OUT_BASE: u64 = 0x5400_0000;
const DENSE_FRONTIER_BASE: u64 = 0x5800_0000;
const NGRAPH_BASE: u64 = 0x6000_0000;

/// Per-core region size for the sparse output frontier (writes wrap within
/// it; Ligra uses per-thread buffers that are recycled every iteration).
pub const SPARSE_OUT_REGION: u64 = 0x1_0000;

/// Address assignment for one traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    prop_bases: Vec<u64>,
    prop_strides: Vec<u32>,
    prop_lens: Vec<u64>,
    edge_base: u64,
    arc_bytes: u32,
}

impl Layout {
    /// Lays out the arrays described by `meta`.
    pub fn new(meta: &TraceMeta) -> Self {
        let mut prop_bases = Vec::with_capacity(meta.props.len());
        let mut prop_strides = Vec::with_capacity(meta.props.len());
        let mut prop_lens = Vec::with_capacity(meta.props.len());
        let mut cursor = PROP_REGION_BASE;
        for spec in &meta.props {
            prop_bases.push(cursor);
            prop_strides.push(spec.entry_bytes);
            prop_lens.push(spec.len);
            let bytes = spec.len * spec.entry_bytes as u64;
            cursor = (cursor + bytes + REGION_ALIGN).next_multiple_of(REGION_ALIGN);
        }
        let edge_base = cursor.max(EDGE_BASE_MIN);
        Layout {
            prop_bases,
            prop_strides,
            prop_lens,
            edge_base,
            arc_bytes: meta.arc_bytes(),
        }
    }

    /// Address of vertex `v`'s entry in property `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn prop_addr(&self, id: RawPropId, v: u32) -> u64 {
        self.prop_bases[id as usize] + v as u64 * self.prop_strides[id as usize] as u64
    }

    /// Entry size of property `id` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn prop_entry_bytes(&self, id: RawPropId) -> u32 {
        self.prop_strides[id as usize]
    }

    /// The monitor-unit lookup: if `addr` falls inside a registered vtxProp
    /// region, returns `(property, vertex)`.
    pub fn prop_of_addr(&self, addr: u64) -> Option<(RawPropId, u32)> {
        for (i, &base) in self.prop_bases.iter().enumerate() {
            let stride = self.prop_strides[i] as u64;
            let end = base + self.prop_lens[i] * stride;
            if addr >= base && addr < end {
                return Some((i as RawPropId, ((addr - base) / stride) as u32));
            }
        }
        None
    }

    /// Address of the CSR arc record at global index `arc`.
    pub fn edge_addr(&self, arc: u64) -> u64 {
        self.edge_base + arc * self.arc_bytes as u64
    }

    /// Bytes per arc record.
    pub fn arc_bytes(&self) -> u32 {
        self.arc_bytes
    }

    /// Address of sparse-frontier element `index` (the input frontier
    /// array).
    pub fn sparse_frontier_addr(&self, index: u64) -> u64 {
        SPARSE_FRONTIER_BASE + index * 4
    }

    /// Address of the `slot`-th sparse output-frontier write of `core`
    /// (per-core buffers, wrapping inside [`SPARSE_OUT_REGION`]).
    pub fn sparse_out_addr(&self, core: usize, slot: u64) -> u64 {
        SPARSE_OUT_BASE + core as u64 * SPARSE_OUT_REGION + (slot * 4) % SPARSE_OUT_REGION
    }

    /// Address of the dense-frontier word covering vertices
    /// `64*word_index ..`.
    pub fn dense_frontier_addr(&self, word_index: u64) -> u64 {
        DENSE_FRONTIER_BASE + word_index * 8
    }

    /// Address of the `slot`-th non-graph-data access of `core` (small
    /// per-core bookkeeping region, mostly L1-resident).
    pub fn ngraph_addr(&self, core: usize, slot: u64) -> u64 {
        NGRAPH_BASE + core as u64 * 256 + (slot % 32) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::PropSpec;

    fn meta() -> TraceMeta {
        TraceMeta {
            props: vec![
                PropSpec {
                    entry_bytes: 8,
                    len: 1000,
                    monitored: true,
                },
                PropSpec {
                    entry_bytes: 4,
                    len: 1000,
                    monitored: true,
                },
            ],
            n_vertices: 1000,
            n_arcs: 5000,
            weighted: false,
        }
    }

    #[test]
    fn props_get_disjoint_regions() {
        let l = Layout::new(&meta());
        let end0 = l.prop_addr(0, 999) + 8;
        assert!(l.prop_addr(1, 0) >= end0, "regions must not overlap");
    }

    #[test]
    fn prop_addr_roundtrips_through_monitor() {
        let l = Layout::new(&meta());
        for (id, v) in [(0u16, 0u32), (0, 999), (1, 500)] {
            let addr = l.prop_addr(id, v);
            assert_eq!(l.prop_of_addr(addr), Some((id, v)));
            // Any byte inside the entry maps back to the same vertex.
            assert_eq!(l.prop_of_addr(addr + 1), Some((id, v)));
        }
    }

    #[test]
    fn non_prop_addresses_are_unmonitored() {
        let l = Layout::new(&meta());
        assert_eq!(l.prop_of_addr(l.edge_addr(0)), None);
        assert_eq!(l.prop_of_addr(l.sparse_frontier_addr(3)), None);
        assert_eq!(l.prop_of_addr(l.ngraph_addr(2, 7)), None);
        assert_eq!(l.prop_of_addr(0), None);
    }

    #[test]
    fn edge_addresses_are_sequential() {
        let l = Layout::new(&meta());
        assert_eq!(l.edge_addr(1) - l.edge_addr(0), 4);
        let wmeta = TraceMeta {
            weighted: true,
            ..meta()
        };
        let lw = Layout::new(&wmeta);
        assert_eq!(lw.edge_addr(1) - lw.edge_addr(0), 8);
    }

    #[test]
    fn sparse_out_regions_are_per_core_and_wrap() {
        let l = Layout::new(&meta());
        let a = l.sparse_out_addr(0, 0);
        let b = l.sparse_out_addr(1, 0);
        assert_eq!(b - a, SPARSE_OUT_REGION);
        // Wraps inside the region.
        assert_eq!(l.sparse_out_addr(0, SPARSE_OUT_REGION / 4), a);
    }

    #[test]
    fn huge_prop_arrays_push_edge_base_up() {
        let big = TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: 200_000_000,
                monitored: true,
            }],
            n_vertices: 200_000_000,
            n_arcs: 0,
            weighted: false,
        };
        let l = Layout::new(&big);
        assert!(l.edge_addr(0) > l.prop_addr(0, 199_999_999));
    }
}
