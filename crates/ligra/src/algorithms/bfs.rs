//! Breadth-first search, Ligra-style: a sparse frontier, a cheap
//! parent-already-set check per edge, and a compare-and-set only on first
//! touch — the paper's example of an algorithm with *many random reads but
//! few atomics* (Table II: %atomic low, %random high).

use crate::ctx::Ctx;
use crate::edge_map::{edge_map, Activation, Direction};
use crate::subset::VertexSubset;
use omega_graph::{CsrGraph, VertexId};
use omega_sim::AtomicKind;

/// Marker for an unreached vertex in the parent array.
pub const NO_PARENT: u32 = u32::MAX;

/// BFS from `root`; returns the parent array (`NO_PARENT` = unreached;
/// the root is its own parent).
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs(g: &CsrGraph, ctx: &mut Ctx<'_>, root: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range {n}");
    let parent = ctx.new_prop::<u32>(n, NO_PARENT);
    ctx.poke(parent, root, root);
    let mut frontier = VertexSubset::single(n, root);
    while !frontier.is_empty() {
        frontier = edge_map(
            g,
            ctx,
            &frontier,
            Direction::Push,
            &mut |ctx, core, u, v, _w, _pull| {
                // Ligra checks before the CAS to avoid wasted atomics.
                if ctx.read(core, parent, v) != NO_PARENT {
                    return Activation::None;
                }
                let (old, _) = ctx.atomic(core, parent, v, AtomicKind::UnsignedCompareSet, |p| {
                    if p == NO_PARENT {
                        u
                    } else {
                        p
                    }
                });
                if old == NO_PARENT {
                    Activation::ActivatedFused
                } else {
                    Activation::None
                }
            },
            None,
        );
        ctx.barrier();
    }
    ctx.extract(parent)
}

/// Reference BFS depths for validation (`u32::MAX` = unreached).
pub fn bfs_depths_reference(g: &CsrGraph, root: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut depth = vec![u32::MAX; n];
    depth[root as usize] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for v in g.out_neighbors(u) {
            if depth[v as usize] == u32::MAX {
                depth[v as usize] = depth[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CollectingTracer, NullTracer};
    use crate::ExecConfig;
    use omega_graph::generators;

    fn run_bfs(g: &CsrGraph, root: VertexId) -> Vec<u32> {
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        bfs(g, &mut ctx, root)
    }

    /// A parent array is valid iff the reachable set matches reference BFS
    /// and each parent edge exists and decreases depth by exactly one.
    fn assert_valid_parents(g: &CsrGraph, root: VertexId, parents: &[u32]) {
        let depths = bfs_depths_reference(g, root);
        for v in 0..g.num_vertices() {
            let p = parents[v];
            if v as u32 == root {
                assert_eq!(p, root);
                continue;
            }
            if depths[v] == u32::MAX {
                assert_eq!(p, NO_PARENT, "unreachable vertex {v} must have no parent");
            } else {
                assert_ne!(p, NO_PARENT, "reachable vertex {v} must have a parent");
                assert!(g.has_edge(p, v as u32), "parent edge {p}->{v} must exist");
                assert_eq!(
                    depths[v],
                    depths[p as usize] + 1,
                    "parent must be one level up"
                );
            }
        }
    }

    #[test]
    fn valid_on_power_law_graph() {
        let g = generators::rmat(7, 8, generators::RmatParams::default(), 2).unwrap();
        let root = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.out_degree(v))
            .unwrap();
        let parents = run_bfs(&g, root);
        assert_valid_parents(&g, root, &parents);
    }

    #[test]
    fn valid_on_path() {
        let g = generators::path(10).unwrap();
        let parents = run_bfs(&g, 0);
        for (v, &p) in parents.iter().enumerate().skip(1) {
            assert_eq!(p, v as u32 - 1);
        }
    }

    #[test]
    fn unreachable_vertices_are_marked() {
        let g = generators::path(5).unwrap();
        let parents = run_bfs(&g, 3);
        assert_eq!(parents[0], NO_PARENT);
        assert_eq!(parents[4], 3);
    }

    #[test]
    fn atomics_at_most_one_per_discovered_vertex_class() {
        let g = generators::rmat(7, 8, generators::RmatParams::default(), 4).unwrap();
        let mut t = CollectingTracer::new(16);
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        bfs(&g, &mut ctx, 0);
        let c = t.finish().classify();
        // Sequential semantics: the pre-check filters all but first-touch,
        // so atomics == discovered vertices − 1 at most; far below reads.
        assert!(c.prop_atomics < c.prop_reads / 2, "{c:?}");
        assert!(c.prop_atomics <= g.num_vertices() as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_root_panics() {
        let g = generators::path(3).unwrap();
        run_bfs(&g, 9);
    }
}
