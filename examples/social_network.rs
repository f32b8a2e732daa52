//! Social-network analytics scenario: influence ranking, reachability, and
//! community structure over a power-law friendship graph — the workload mix
//! the paper's introduction motivates (web ranking, social analysis).
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use omega_core::config::SystemConfig;
use omega_core::runner::{RunReport, Runner};
use omega_graph::generators::{rmat_undirected, RmatParams};
use omega_graph::reorder;
use omega_ligra::algorithms::{self, Algo};
use omega_ligra::trace::NullTracer;
use omega_ligra::{Ctx, ExecConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic friendship network (undirected, heavy-tailed degrees).
    let g = rmat_undirected(12, 10, RmatParams::default(), 7)?;
    let (g, _) = reorder::canonical_hot_order(&g);
    println!(
        "social graph: {} members, {} friendships",
        g.num_vertices(),
        g.num_edges()
    );

    // -- Functional analytics (plain library use, no simulation) --------
    let mut tracer = NullTracer;
    let mut ctx = Ctx::new(ExecConfig::default(), &mut tracer);
    let ranks = algorithms::pagerank(&g, &mut ctx, 10);
    let mut top: Vec<usize> = (0..ranks.len()).collect();
    top.sort_unstable_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
    println!("\nmost influential members (10 PageRank iterations):");
    for &v in top.iter().take(5) {
        println!(
            "  member {v:>6}: score {:.5}, {} friends",
            ranks[v],
            g.out_degree(v as u32)
        );
    }

    let mut ctx = Ctx::new(ExecConfig::default(), &mut tracer);
    let labels = algorithms::cc(&g, &mut ctx);
    let mut sizes = std::collections::HashMap::new();
    for &l in &labels {
        *sizes.entry(l).or_insert(0usize) += 1;
    }
    let mut communities: Vec<usize> = sizes.values().copied().collect();
    communities.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\ncommunities: {} total; largest {} members ({:.0}% of the network)",
        communities.len(),
        communities[0],
        100.0 * communities[0] as f64 / labels.len() as f64
    );

    let mut ctx = Ctx::new(ExecConfig::default(), &mut tracer);
    let triangles = algorithms::tc(&g, &mut ctx);
    println!("triangles (mutual-friend triples): {triangles}");

    // -- Architectural comparison: what OMEGA buys this workload --------
    println!("\nsimulated on a 16-core CMP (baseline vs OMEGA):");
    for algo in [
        Algo::PageRank { iters: 1 },
        Algo::Bfs { root: 0 }.with_default_root(&g),
        Algo::Cc,
    ] {
        let [base, fast]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, algo)
            .try_into()
            .unwrap();
        println!(
            "  {:<9} {:>11} -> {:>11} cycles  ({:.2}x; {:.0}% of vtxProp updates on PISCs)",
            algo.name(),
            base.total_cycles,
            fast.total_cycles,
            fast.speedup_over(&base),
            100.0 * fast.mem.scratchpad.pisc_ops as f64 / fast.mem.atomics.executed.max(1) as f64,
        );
    }
    Ok(())
}
