//! Road-network navigation scenario: shortest-path routing over a weighted,
//! *non*-power-law graph (the paper's roadNet/Western-USA class) — showing
//! both the library's weighted-SSSP API and the paper's finding that OMEGA's
//! benefit is limited when no degree skew exists (Fig. 18).
//!
//! ```text
//! cargo run --release --example road_navigation
//! ```

use omega_core::config::SystemConfig;
use omega_core::runner::{RunReport, Runner};
use omega_graph::generators::grid_road;
use omega_graph::{reorder, stats};
use omega_ligra::algorithms::{self, Algo};
use omega_ligra::trace::NullTracer;
use omega_ligra::{Ctx, ExecConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic road network: 96×96 grid of intersections, road segment
    // lengths 1..500 m, a few diagonal shortcuts.
    let g = grid_road(96, 96, 0.08, 500, 3)?;
    let skew = stats::degree_stats(&g);
    println!(
        "road network: {} intersections, {} road segments; top-20% connectivity {:.0}% (no power law)",
        g.num_vertices(),
        g.num_edges(),
        100.0 * skew.in_connectivity(0.2),
    );
    let (g, perm) = reorder::canonical_hot_order(&g);

    // Route from one corner of the map.
    let depot = perm.map(0);
    let mut tracer = NullTracer;
    let mut ctx = Ctx::new(ExecConfig::default(), &mut tracer);
    let dist = algorithms::sssp(&g, &mut ctx, depot);
    let reachable = dist.iter().filter(|&&d| d != algorithms::UNREACHED).count();
    let furthest = dist
        .iter()
        .filter(|&&d| d != algorithms::UNREACHED)
        .max()
        .unwrap();
    println!(
        "\nrouting from the depot: {} of {} intersections reachable; furthest is {} m away",
        reachable,
        g.num_vertices(),
        furthest
    );

    // Estimated service radius via multi-source BFS sampling.
    let mut ctx = Ctx::new(ExecConfig::default(), &mut tracer);
    let hops = algorithms::radii(&g, &mut ctx, 16);
    println!("estimated network radius: {hops} hops");

    // The architectural story: flat degree distributions give the
    // scratchpads nothing special to hold (paper Fig. 18: USA max 1.15x).
    println!("\nsimulated on a 16-core CMP (baseline vs OMEGA):");
    for algo in [Algo::Sssp { root: depot }, Algo::PageRank { iters: 1 }] {
        let [base, fast]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, algo)
            .try_into()
            .unwrap();
        println!(
            "  {:<9} {:.2}x speedup ({:.0}% of vertices scratchpad-resident, but accesses are uniform)",
            algo.name(),
            fast.speedup_over(&base),
            100.0 * fast.hot_count as f64 / fast.n_vertices as f64,
        );
    }
    println!("\ncompare with the power-law results of `cargo run --release --example quickstart`.");
    Ok(())
}
