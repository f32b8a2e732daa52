//! Evolving-graph scenario (§IX "Dynamic graphs", implemented as an
//! extension): a social network keeps gaining edges, the configured hot set
//! drifts away from the true one, and OMEGA's speedup erodes — until the
//! framework re-runs the §VI reordering.
//!
//! ```text
//! cargo run --release --example evolving_graph
//! ```

use omega_core::config::SystemConfig;
use omega_core::runner::{RunReport, Runner};
use omega_graph::dynamic::DynamicGraph;
use omega_graph::generators::{rmat, RmatParams};
use omega_graph::reorder;
use omega_graph::rng::SmallRng;
use omega_ligra::algorithms::Algo;

fn measure(g: &omega_graph::CsrGraph) -> f64 {
    // Scratchpads sized to hold just ~20% of this graph's vertices, so the
    // quality of the hot-set identification is what decides the speedup.
    let omega_cfg = SystemConfig::mini_omega().with_scratchpad_bytes(512);
    let [base, omega]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
        .also(omega_cfg)
        .run_many(g, Algo::PageRank { iters: 1 })
        .try_into()
        .unwrap();
    omega.speedup_over(&base)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Day 0: a freshly-reordered natural graph.
    let g = rmat(12, 10, RmatParams::default(), 21)?;
    let (g, _) = reorder::canonical_hot_order(&g);
    let hot = g.num_vertices() / 5;
    let mut live = DynamicGraph::from_graph(&g, hot);
    println!(
        "day 0: {} members, {} edges; configured hot set covers {:.1}% of edges; OMEGA speedup {:.2}x",
        g.num_vertices(),
        g.num_edges(),
        100.0 * live.hot_set_coverage(),
        measure(&g),
    );

    // Days 1..: a handful of previously-quiet members go viral — the worst
    // case for a fixed hot set, since the new hubs live outside it.
    let mut rng = SmallRng::seed_from_u64(5);
    let n = live.num_vertices() as u32;
    for day in 1..=3 {
        for _ in 0..live.num_edges() / 5 {
            let u = rng.gen_range(0..n);
            // 40 "viral" members from the cold tail soak up the new edges.
            let v = n - 1 - rng.gen_range(0u32..40);
            let _ = live.insert_edge(u, v)?;
        }
        println!(
            "day {day}: {} edges; hot-set coverage {:.1}% (oracle {:.1}%), drift {:.1} pts — reorder needed: {}",
            live.num_edges(),
            100.0 * live.hot_set_coverage(),
            100.0 * live.oracle_coverage(),
            100.0 * live.drift(),
            live.needs_reorder(0.05),
        );
    }

    // Keep running with the stale ordering...
    let stale = live.materialize();
    println!(
        "\nwithout maintenance (stale hot set) : OMEGA speedup {:.2}x",
        measure(&stale)
    );
    // ...or take a maintenance window: re-run the §VI reordering.
    let (fresh, _) = live.snapshot();
    println!(
        "after re-running the §VI reordering : OMEGA speedup {:.2}x (hot-set coverage back to {:.1}%)",
        measure(&fresh),
        100.0 * live.hot_set_coverage(),
    );
    println!(
        "(the paper defers dynamic graphs to future work; this is the §IX sketch made concrete:\n\
         track drift incrementally, re-identify the hot 20% when it exceeds a threshold.)"
    );
    Ok(())
}
