//! A GraphMat-style execution mode (§V.F: "To verify the functionality of
//! the tool across multiple frameworks, we applied the tool to GraphMat in
//! addition to Ligra").
//!
//! GraphMat (Sundaram et al., VLDB'15) casts vertex programs as sparse
//! matrix-vector products and — unlike Ligra — *partitions destinations* so
//! that only a single thread ever writes a given vertex's property:
//! **no atomic operations at all** (§IV: "there are graph frameworks that
//! do not rely upon atomic operations, e.g., GraphMat"). The trade-off is
//! a gather (pull) traversal whose per-edge *reads* of source values are
//! random — the access class OMEGA's scratchpads and source-vertex buffers
//! still serve, while its PISC offload has nothing to do.
//!
//! The `abl-graphmat` experiment uses this module to show exactly that
//! contrast: OMEGA speeds GraphMat up less than Ligra, because GraphMat
//! already paid (in programming model) for what the PISCs provide.

use crate::ctx::Ctx;
use crate::edge_map::vertex_map_all;
use omega_graph::{CsrGraph, VertexId};

/// GraphMat-style PageRank: gather-direction SpMV with destination
/// partitioning; zero atomics.
///
/// Numerically identical to [`crate::algorithms::pagerank`] (verified by
/// tests); only the access pattern differs.
pub fn pagerank_graphmat(g: &CsrGraph, ctx: &mut Ctx<'_>, iters: u32) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // The randomly-gathered message vector is the true vtxProp here; the
    // accumulator is written sequentially by its owning partition.
    let msg = ctx.new_prop::<f64>(n, 0.0);
    let rank = ctx.new_aux_prop::<f64>(n, 1.0 / n as f64);
    let damping = crate::algorithms::DAMPING;
    let per_edge = ctx.config().compute_per_edge_x100;
    for _ in 0..iters {
        // Scatter phase: each vertex publishes rank/out_degree — sequential
        // writes, one owner per vertex.
        vertex_map_all(ctx, n, |ctx, core, v| {
            let r = ctx.read(core, rank, v);
            ctx.write(core, msg, v, r / g.out_degree(v).max(1) as f64);
        });
        ctx.barrier();
        // Gather phase (SpMV row products): destination-partitioned, so the
        // accumulation is a plain write; the per-edge message reads are the
        // random accesses. Messages are stable within the phase (SVB class).
        for v in 0..n as VertexId {
            let core = ctx.config().core_of(v as usize);
            ctx.trace_ngraph(core);
            let first_arc = g.in_offset(v);
            let mut acc = 0.0;
            for (k, u) in g.in_neighbors(v).enumerate() {
                ctx.trace_edge(core, first_arc + k as u64);
                ctx.trace_compute(core, per_edge);
                acc += ctx.read_src(core, msg, u);
            }
            ctx.write(core, rank, v, (1.0 - damping) / n as f64 + damping * acc);
        }
        ctx.barrier();
    }
    ctx.extract(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use crate::trace::{CollectingTracer, NullTracer};
    use crate::ExecConfig;
    use omega_graph::generators;

    #[test]
    fn graphmat_pagerank_matches_ligra_pagerank() {
        let g = generators::rmat(7, 6, generators::RmatParams::default(), 9).unwrap();
        let mut t = NullTracer;
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        let gm = pagerank_graphmat(&g, &mut ctx, 3);
        let reference = algorithms::pagerank_reference(&g, 3);
        for (a, b) in gm.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn graphmat_emits_no_atomics() {
        let g = generators::rmat(6, 4, generators::RmatParams::default(), 2).unwrap();
        let mut t = CollectingTracer::new(16);
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        pagerank_graphmat(&g, &mut ctx, 2);
        let c = t.finish().classify();
        assert_eq!(c.prop_atomics, 0, "GraphMat partitions instead of locking");
        assert!(c.prop_reads > 0);
        assert!(c.edge_reads > 0);
    }

    #[test]
    fn message_reads_are_svb_eligible() {
        let g = generators::rmat(6, 4, generators::RmatParams::default(), 2).unwrap();
        let mut t = CollectingTracer::new(16);
        let mut ctx = Ctx::new(ExecConfig::default(), &mut t);
        pagerank_graphmat(&g, &mut ctx, 1);
        let raw = t.finish();
        let stable_reads = raw
            .iter_events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::PropReadSrc { .. }))
            .count() as u64;
        assert_eq!(
            stable_reads,
            g.num_arcs(),
            "one stable message read per in-edge"
        );
    }
}
