//! Pinned hierarchies: a plain full-size L2 whose hot vtxProp lines are
//! locked against eviction. No scratchpad, no PISC; atomics stay on the
//! cores. Two rivals of OMEGA are this one mechanism with a different
//! [`PinOrder`]:
//!
//! * **the §IX locked cache**, which the paper argues "would still suffer
//!   from high on-chip communication overhead because data is
//!   inefficiently accessed on a cache-line granularity instead of word
//!   granularity". It pins the resident set OMEGA's controller would
//!   choose for the same budget, prop-major, so `abl-locked` compares
//!   mechanisms, not selections;
//! * **the GRASP-style domain-specialized cache** (Faldu et al.), whose
//!   protection policy is genuinely GRASP's: the budget is spent on whole
//!   lines, with none of the scratchpad's per-slot valid-byte overhead, so
//!   it protects *more* hot vertices than OMEGA could make resident; and
//!   vertex-major, so every property of a hot vertex is protected together
//!   and the hottest vertices win set-capacity conflicts.

use std::collections::HashSet;

use crate::config::PinOrder;
use crate::controller::ScratchpadController;
use crate::layout::Layout;
use omega_ligra::trace::TraceMeta;
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::{MachineConfig, LINE_BYTES};

/// Builds a baseline hierarchy whose L2 banks have hot monitored vtxProp
/// lines pinned, within a per-core byte budget, selected in `order`.
/// Returns the memory system and the lines its banks accepted, sorted
/// (some sets refuse lines past their lockdown cap).
///
/// The accepted set decides how the hierarchy behaves: L2 lines are never
/// invalidated, and victim choice looks only at the unpinned lines' LRU
/// order. So two budgets or orders that pin the same set replay a trace
/// identically, which is what a replay key compares.
pub fn pinned_hierarchy(
    machine: &MachineConfig,
    layout: &Layout,
    meta: &TraceMeta,
    bytes_per_core: u64,
    order: PinOrder,
) -> (CacheHierarchy, Vec<u64>) {
    let n_cores = machine.core.n_cores;
    let max_lines = (bytes_per_core * n_cores as u64 / LINE_BYTES) as usize;
    let line_of = |prop: usize, v: u32| layout.prop_addr(prop as u16, v) / LINE_BYTES * LINE_BYTES;
    let monitored = || meta.props.iter().enumerate().filter(|(_, p)| p.monitored);
    let lines: Vec<u64> = match order {
        PinOrder::ScratchpadPrefix => {
            // Reuse the controller's residency math for an apples-to-apples
            // hot set, then respect the budget at line granularity.
            let ctrl = ScratchpadController::new(layout.clone(), meta, n_cores, 1, bytes_per_core);
            let hot_count = ctrl.hot_count();
            let mut lines: Vec<u64> = monitored()
                .flat_map(|(id, spec)| {
                    (0..hot_count.min(spec.len as u32)).map(move |v| line_of(id, v))
                })
                .collect();
            lines.sort_unstable();
            lines.dedup();
            lines.truncate(max_lines);
            lines
        }
        PinOrder::VertexMajor => {
            let n_vertices = meta.n_vertices.min(u32::MAX as u64) as u32;
            let mut seen = HashSet::new();
            (0..n_vertices)
                .flat_map(|v| {
                    monitored()
                        .filter(move |(_, spec)| (v as u64) < spec.len)
                        .map(move |(id, _)| line_of(id, v))
                })
                .filter(|&line| seen.insert(line))
                .take(max_lines)
                .collect()
        }
    };
    let mut mem = CacheHierarchy::new(machine);
    let mut pinned = mem.pin_lines(lines);
    pinned.sort_unstable();
    (mem, pinned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::PropSpec;
    use omega_sim::{MemAccess, MemorySystem};

    fn meta(n: u64) -> TraceMeta {
        TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: n,
                monitored: true,
            }],
            n_vertices: n,
            n_arcs: 4 * n,
            weighted: false,
        }
    }

    #[test]
    fn pins_hot_lines_within_budget() {
        let m = meta(100_000);
        let layout = Layout::new(&m);
        let machine = MachineConfig::mini_baseline();
        let (mem, pinned) =
            pinned_hierarchy(&machine, &layout, &m, 8 * 1024, PinOrder::ScratchpadPrefix);
        // 8 KB × 16 cores = 128 KB → at most 2048 lines; some sets refuse.
        assert!(!pinned.is_empty());
        assert!(pinned.len() <= 2048);
        drop(mem);
    }

    #[test]
    fn pinned_hot_vertices_hit_after_thrashing() {
        let m = meta(100_000);
        let layout = Layout::new(&m);
        let machine = MachineConfig::mini_baseline();
        let (mut mem, _) =
            pinned_hierarchy(&machine, &layout, &m, 8 * 1024, PinOrder::ScratchpadPrefix);
        let hot_addr = layout.prop_addr(0, 0);
        // Thrash the L2 with cold traffic.
        for i in 0..50_000u64 {
            mem.access(0, MemAccess::read(0x9000_0000 + i * 64, 8), i * 20);
        }
        let before = mem.stats().l2;
        mem.access(1, MemAccess::read(hot_addr, 8), 10_000_000);
        let after = mem.stats().l2;
        assert_eq!(
            after.hits,
            before.hits + 1,
            "pinned hot line must survive the thrashing"
        );
    }

    #[test]
    fn unmonitored_props_are_not_pinned() {
        let m = TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: 1000,
                monitored: false,
            }],
            n_vertices: 1000,
            n_arcs: 0,
            weighted: false,
        };
        let layout = Layout::new(&m);
        let (_, pinned) = pinned_hierarchy(
            &MachineConfig::mini_baseline(),
            &layout,
            &m,
            8 * 1024,
            PinOrder::ScratchpadPrefix,
        );
        assert!(pinned.is_empty());
    }

    fn two_prop_meta(n: u64) -> TraceMeta {
        TraceMeta {
            props: vec![
                PropSpec {
                    entry_bytes: 8,
                    len: n,
                    monitored: true,
                },
                PropSpec {
                    entry_bytes: 4,
                    len: n,
                    monitored: true,
                },
            ],
            n_vertices: n,
            n_arcs: 4 * n,
            weighted: false,
        }
    }

    #[test]
    fn protects_within_budget() {
        let m = two_prop_meta(100_000);
        let layout = Layout::new(&m);
        let machine = MachineConfig::mini_baseline();
        let (_, pinned) = pinned_hierarchy(&machine, &layout, &m, 8 * 1024, PinOrder::VertexMajor);
        assert!(!pinned.is_empty());
        // 8 KB × 16 cores = 128 KB → at most 2048 lines; some sets refuse.
        assert!(pinned.len() <= 2048);
    }

    #[test]
    fn protects_every_property_of_the_hottest_vertices() {
        let m = two_prop_meta(1_000_000);
        let layout = Layout::new(&m);
        let machine = MachineConfig::mini_baseline();
        let (mut mem, _) = pinned_hierarchy(&machine, &layout, &m, 8 * 1024, PinOrder::VertexMajor);
        // Thrash the L2 with cold traffic, then touch vertex 0 in *both*
        // property arrays: vertex-major selection protects both lines.
        for i in 0..50_000u64 {
            mem.access(0, MemAccess::read(0x9000_0000 + i * 64, 8), i * 20);
        }
        for prop in 0..2u16 {
            let before = mem.stats().l2;
            mem.access(1, MemAccess::read(layout.prop_addr(prop, 0), 8), 10_000_000);
            let after = mem.stats().l2;
            assert_eq!(
                after.hits,
                before.hits + 1,
                "prop {prop} of a hot vertex must survive the thrashing"
            );
        }
    }

    #[test]
    fn selection_differs_from_the_locked_cache() {
        // Under the same tight budget the per-set lockdown cap refuses
        // late-priority lines on both machines, so *order* decides who is
        // protected. The locked cache pins in address order: property 0's
        // whole hot prefix claims every set's pinnable ways and property 1
        // is starved entirely. GRASP pins vertex-major, so the hottest
        // vertices keep *both* properties at the cost of a shallower
        // property-0 prefix. Two probes separate the policies in opposite
        // directions.
        let m = two_prop_meta(1_000_000);
        let layout = Layout::new(&m);
        let machine = MachineConfig::mini_baseline();
        let budget = 1024;
        let (mut locked, _) =
            pinned_hierarchy(&machine, &layout, &m, budget, PinOrder::ScratchpadPrefix);
        let (mut grasp, _) = pinned_hierarchy(&machine, &layout, &m, budget, PinOrder::VertexMajor);
        for mem in [&mut locked, &mut grasp] {
            for i in 0..50_000u64 {
                mem.access(0, MemAccess::read(0x9000_0000 + i * 64, 8), i * 20);
            }
        }
        // (probe, locked expects hit, grasp expects hit)
        let probes = [
            (layout.prop_addr(1, 0), 0, 1), // prop 1 starved by prop-major order
            (layout.prop_addr(0, 1000), 1, 0), // deep prop-0 prefix beats vertex-major
        ];
        for (probe, locked_hit, grasp_hit) in probes {
            let locked_before = locked.stats().l2.hits;
            locked.access(1, MemAccess::read(probe, 8), 10_000_000);
            let grasp_before = grasp.stats().l2.hits;
            grasp.access(1, MemAccess::read(probe, 8), 10_000_000);
            assert_eq!(
                locked.stats().l2.hits,
                locked_before + locked_hit,
                "locked-cache outcome at {probe:#x}"
            );
            assert_eq!(
                grasp.stats().l2.hits,
                grasp_before + grasp_hit,
                "specialized-cache outcome at {probe:#x}"
            );
        }
    }

    #[test]
    fn unmonitored_props_are_not_protected() {
        let m = TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: 1000,
                monitored: false,
            }],
            n_vertices: 1000,
            n_arcs: 0,
            weighted: false,
        };
        let layout = Layout::new(&m);
        let (_, pinned) = pinned_hierarchy(
            &MachineConfig::mini_baseline(),
            &layout,
            &m,
            8 * 1024,
            PinOrder::VertexMajor,
        );
        assert!(pinned.is_empty());
    }
}
