//! Native multithreaded execution — the framework as a *user* of a real
//! CMP, rather than as a workload generator for the simulated one.
//!
//! These implementations mirror the traced algorithms' structure (push-style
//! scatter with atomic updates, frontier rounds) but run on host threads
//! with real `std::sync::atomic` operations — including the atomic kinds
//! Table II lists: CAS-loops for floating-point add and `fetch_min` for
//! distances. They are validated against the sequential reference
//! implementations.
//!
//! Work partitioning matches the simulated framework's OpenMP-style static
//! chunking, so the native path is also a sanity check that the partitioned
//! algorithm semantics (activation-once, per-round flags) are correct under
//! genuine concurrency, not just under the deterministic sequential
//! interleaving the tracer uses.

use crate::algorithms::DAMPING;
use omega_graph::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};

/// Chunk size for static work partitioning (matches
/// [`crate::ExecConfig::chunk_size`]'s role).
const CHUNK: usize = 64;

/// Runs `body` over chunk ranges of `0..len` on `threads` host threads.
fn parallel_for(threads: usize, len: usize, body: impl Fn(std::ops::Range<usize>) + Sync) {
    let next = AtomicU64::new(0);
    let total_chunks = len.div_ceil(CHUNK) as u64;
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= total_chunks {
                    break;
                }
                let start = c as usize * CHUNK;
                body(start..(start + CHUNK).min(len));
            });
        }
    });
}

fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Parallel PageRank on `threads` host threads; numerically equal to
/// [`crate::algorithms::pagerank`] up to floating-point reassociation.
///
/// # Example
///
/// ```
/// use omega_graph::generators;
/// use omega_ligra::native::pagerank_parallel;
///
/// let g = generators::rmat(8, 6, generators::RmatParams::default(), 3)?;
/// let ranks = pagerank_parallel(&g, 5, 4);
/// let total: f64 = ranks.iter().sum();
/// assert!(total > 0.0 && total <= 1.0 + 1e-9);
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
pub fn pagerank_parallel(g: &CsrGraph, iters: u32, threads: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let curr: Vec<AtomicU64> = (0..n)
        .map(|_| AtomicU64::new((1.0 / n as f64).to_bits()))
        .collect();
    let next: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
    for _ in 0..iters {
        parallel_for(threads, n, |range| {
            for u in range {
                let ru = f64::from_bits(curr[u].load(Ordering::Relaxed));
                let contrib = ru / g.out_degree(u as VertexId).max(1) as f64;
                for v in g.out_neighbors(u as VertexId) {
                    atomic_f64_add(&next[v as usize], contrib);
                }
            }
        });
        parallel_for(threads, n, |range| {
            for v in range {
                let acc = f64::from_bits(next[v].load(Ordering::Relaxed));
                let rank = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
                curr[v].store(rank.to_bits(), Ordering::Relaxed);
                next[v].store(0f64.to_bits(), Ordering::Relaxed);
            }
        });
    }
    curr.into_iter()
        .map(|c| f64::from_bits(c.into_inner()))
        .collect()
}

/// Parallel SSSP (Bellman-Ford over frontiers) with `fetch_min` relaxation;
/// exact distances, identical to the sequential result.
pub fn sssp_parallel(g: &CsrGraph, root: VertexId, threads: usize) -> Vec<i32> {
    let n = g.num_vertices();
    assert!((root as usize) < n, "root {root} out of range {n}");
    let dist: Vec<AtomicI32> = (0..n).map(|_| AtomicI32::new(i32::MAX)).collect();
    let queued: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    dist[root as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![root];
    let mut rounds = 0;
    while !frontier.is_empty() && rounds <= n {
        rounds += 1;
        let next: std::sync::Mutex<Vec<VertexId>> = std::sync::Mutex::new(Vec::new());
        {
            let frontier_ref = &frontier;
            let dist_ref = &dist;
            let queued_ref = &queued;
            let next_ref = &next;
            parallel_for(threads, frontier.len(), move |range| {
                let mut local = Vec::new();
                for &u in &frontier_ref[range] {
                    let du = dist_ref[u as usize].load(Ordering::Relaxed);
                    if du == i32::MAX {
                        continue;
                    }
                    for (v, w) in g.out_neighbors_weighted(u) {
                        let cand = du.saturating_add(w as i32);
                        let old = dist_ref[v as usize].fetch_min(cand, Ordering::AcqRel);
                        if cand < old && !queued_ref[v as usize].swap(true, Ordering::AcqRel) {
                            local.push(v);
                        }
                    }
                }
                next_ref.lock().expect("no poisoned frontier").extend(local);
            });
        }
        frontier = next.into_inner().expect("no poisoned frontier");
        frontier.sort_unstable();
        for &v in &frontier {
            queued[v as usize].store(false, Ordering::Relaxed);
        }
    }
    dist.into_iter().map(AtomicI32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use crate::trace::NullTracer;
    use crate::{Ctx, ExecConfig};
    use omega_graph::generators;

    fn rmat() -> CsrGraph {
        generators::rmat(9, 8, generators::RmatParams::default(), 77).unwrap()
    }

    #[test]
    fn parallel_pagerank_matches_sequential() {
        let g = rmat();
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let seq = algorithms::pagerank(&g, &mut ctx, 3);
        let par = pagerank_parallel(&g, 3, 8);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn parallel_sssp_equals_dijkstra() {
        let g = generators::grid_road(16, 16, 0.2, 50, 9).unwrap();
        let par = sssp_parallel(&g, 0, 8);
        assert_eq!(par, algorithms::sssp_reference(&g, 0));
    }

    #[test]
    fn single_thread_is_a_valid_degenerate_case() {
        let g = rmat();
        let par1 = pagerank_parallel(&g, 2, 1);
        let par8 = pagerank_parallel(&g, 2, 8);
        for (a, b) in par1.iter().zip(&par8) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn atomic_f64_add_is_exact_under_contention() {
        let cell = AtomicU64::new(0f64.to_bits());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        atomic_f64_add(&cell, 0.5);
                    }
                });
            }
        });
        assert_eq!(f64::from_bits(cell.into_inner()), 4000.0);
    }

    #[test]
    fn empty_graph_and_bad_roots() {
        let g = omega_graph::GraphBuilder::directed(0).build();
        assert!(pagerank_parallel(&g, 1, 4).is_empty());
        let g = generators::path(3).unwrap();
        let r = std::panic::catch_unwind(|| sssp_parallel(&g, 9, 2));
        assert!(r.is_err(), "out-of-range root must panic");
    }
}
