//! Quickstart: run one graph algorithm on the baseline CMP and on OMEGA,
//! and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use omega_core::config::SystemConfig;
use omega_core::runner::{RunReport, Runner};
use omega_energy::energy_breakdown;
use omega_graph::generators::{rmat, RmatParams};
use omega_graph::{reorder, stats};
use omega_ligra::algorithms::Algo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a natural (power-law) graph, like a small web crawl.
    let g = rmat(13, 12, RmatParams::default(), 42)?;
    let skew = stats::degree_stats(&g);
    println!(
        "graph: {} vertices, {} edges; top-20% vertices receive {:.0}% of edges (power law: {})",
        g.num_vertices(),
        g.num_edges(),
        100.0 * skew.in_connectivity(0.2),
        skew.follows_power_law(),
    );

    // 2. Reorder into the canonical hot order OMEGA expects (§VI of the
    //    paper: linear-time n-th-element selection of the top 20%).
    let (g, _perm) = reorder::canonical_hot_order(&g);

    // 3. Run one PageRank iteration on both machines. The functional
    //    result is identical; only the timing differs.
    let baseline = SystemConfig::mini_baseline();
    let omega = SystemConfig::mini_omega();
    let [base, fast]: [RunReport; 2] = Runner::new(baseline)
        .also(omega)
        .run_many(&g, Algo::PageRank { iters: 1 })
        .try_into()
        .unwrap();
    assert_eq!(
        base.checksum, fast.checksum,
        "the architecture must not change results"
    );

    println!("\nbaseline CMP : {:>12} cycles", base.total_cycles);
    println!("OMEGA        : {:>12} cycles", fast.total_cycles);
    println!("speedup      : {:.2}x", fast.speedup_over(&base));

    // 4. Where did the time go?
    println!(
        "\nbaseline: LLC hit {:.0}%, {:.1} MB on-chip traffic, memory-bound {:.0}%",
        100.0 * base.mem.l2.hit_rate(),
        base.mem.noc.bytes as f64 / 1e6,
        100.0 * base.engine.memory_bound_fraction(),
    );
    println!(
        "OMEGA   : last-level hit {:.0}%, {:.1} MB traffic, {} atomics offloaded to PISCs, {} served locally",
        100.0 * fast.mem.last_level_hit_rate(),
        fast.mem.noc.bytes as f64 / 1e6,
        fast.mem.scratchpad.pisc_ops,
        fast.mem.scratchpad.local_accesses,
    );

    // 5. Energy (Fig. 21 of the paper).
    let eb = energy_breakdown(&base, &baseline);
    let eo = energy_breakdown(&fast, &omega);
    println!(
        "\nmemory-system energy: baseline {:.3} mJ, OMEGA {:.3} mJ ({:.2}x saving)",
        eb.total_mj(),
        eo.total_mj(),
        eb.total_mj() / eo.total_mj(),
    );
    Ok(())
}
