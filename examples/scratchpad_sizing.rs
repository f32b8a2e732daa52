//! Capacity-planning scenario: how much scratchpad does a workload need?
//!
//! Sweeps the per-core scratchpad size for a natural graph (the paper's
//! Fig. 19 sensitivity study) and cross-checks the detailed simulation
//! against the analytic model used for very large graphs (Fig. 20).
//!
//! ```text
//! cargo run --release --example scratchpad_sizing
//! ```

use omega_core::analytic::{estimate, WorkloadProfile};
use omega_core::config::SystemConfig;
use omega_core::runner::Runner;
use omega_graph::generators::{rmat, RmatParams};
use omega_graph::reorder;
use omega_ligra::algorithms::Algo;
use omega_sim::telemetry::TelemetryConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = rmat(13, 12, RmatParams::default(), 99)?;
    let (g, _) = reorder::canonical_hot_order(&g);
    let algo = Algo::PageRank { iters: 1 };
    println!(
        "sizing scratchpads for PageRank on a {}-vertex natural graph\n",
        g.num_vertices()
    );

    let baseline = Runner::new(SystemConfig::mini_baseline()).run(&g, algo);
    println!("baseline CMP: {} cycles\n", baseline.total_cycles);
    println!(
        "{:>10}  {:>12}  {:>10}  {:>9}  {:>10}",
        "SP/core", "resident %", "speedup", "analytic", "PISC ops"
    );

    let profile = WorkloadProfile::from_graph(&g, algo);
    let analytic_base = estimate(&profile, &SystemConfig::mini_baseline());
    for kb in [1u64, 2, 4, 8, 16] {
        let system = SystemConfig::mini_omega().with_scratchpad_bytes(kb * 1024);
        let r = Runner::new(system).run(&g, algo);
        let a = estimate(&profile, &system);
        println!(
            "{:>8}KB  {:>11.1}%  {:>9.2}x  {:>8.2}x  {:>10}",
            kb,
            100.0 * r.hot_count as f64 / r.n_vertices as f64,
            baseline.total_cycles as f64 / r.total_cycles as f64,
            analytic_base.cycles / a.cycles,
            r.mem.scratchpad.pisc_ops,
        );
    }

    println!(
        "\nreading the table: once the resident fraction covers the hot 20% of vertices,\n\
         extra scratchpad capacity buys little — the paper's key scaling observation (§VII)."
    );

    // Utilisation over time on the standard OMEGA machine: sixteen windows
    // of cycle-sampled telemetry show *when* the bandwidth and the PISCs
    // are busy, not just how much in aggregate.
    let mut system = SystemConfig::mini_omega();
    system.machine.telemetry = TelemetryConfig::windowed((baseline.total_cycles / 16).max(1));
    let r = Runner::new(system).run(&g, algo);
    let t = r.telemetry.expect("telemetry was enabled");
    println!(
        "\nutilisation over time (standard OMEGA, {}-cycle windows):\n",
        t.window_cycles
    );
    println!(
        "{:>10}  {:>10}  {:>9}  {:>10}  {:>10}",
        "cycle", "DRAM util", "LLC hit %", "NoC bytes", "PISC busy"
    );
    let channels = system.machine.dram.channels;
    let mut prev_end = 0;
    for w in &t.windows {
        let len = w.end.saturating_sub(prev_end);
        prev_end = w.end;
        let d = &w.delta;
        println!(
            "{:>10}  {:>9.1}%  {:>8.1}%  {:>10}  {:>10}",
            w.end,
            100.0 * d.dram.utilization(len, channels),
            100.0 * d.last_level_hit_rate(),
            d.noc.bytes,
            d.scratchpad.pisc_busy_cycles,
        );
    }
    Ok(())
}
