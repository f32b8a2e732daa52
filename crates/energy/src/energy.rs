//! Memory-system energy model (Fig. 21).
//!
//! Energy = dynamic (activity counts × per-access energy) + leakage
//! (component leakage power × runtime). Per-access constants are
//! Cacti-class 45 nm values; the scratchpad's per-access cost is below the
//! same-capacity cache's because a direct-mapped, tag-less, word-wide array
//! activates far less circuitry per access — the effect the paper cites
//! for OMEGA's 2.5x energy saving, together with fewer DRAM accesses and
//! shorter runtime.

use crate::area;
use omega_core::config::SystemConfig;
use omega_core::runner::RunReport;

/// Clock frequency (Table III: 2 GHz) used to convert cycles to seconds.
pub const CLOCK_HZ: f64 = 2.0e9;

// Dynamic per-access energies (picojoules), 45 nm class.
const L1_ACCESS_PJ: f64 = 25.0;
const L2_ACCESS_PJ_PER_MB_SLICE: f64 = 45.0; // grows with bank size
const L2_ACCESS_BASE_PJ: f64 = 60.0;
const SP_ACCESS_BASE_PJ: f64 = 25.0; // no tag match, word-wide port
const SP_ACCESS_PJ_PER_MB: f64 = 25.0;
const PISC_OP_PJ: f64 = 12.0;
const NOC_PJ_PER_BYTE: f64 = 1.2;
const NOC_PJ_PER_PACKET: f64 = 8.0;
const DRAM_PJ_PER_BYTE: f64 = 120.0; // DDR3 array + I/O
const DRAM_PJ_PER_ACCESS: f64 = 2500.0; // activate/precharge

/// Leakage fraction of the Table IV peak power attributable to the memory
/// components when idle.
const LEAKAGE_FRACTION: f64 = 0.30;
/// DRAM background power (W) across the DIMMs.
const DRAM_BACKGROUND_W: f64 = 2.0;

/// Energy breakdown of one run's memory system, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// L1 dynamic energy.
    pub l1_mj: f64,
    /// L2 dynamic energy.
    pub l2_mj: f64,
    /// Scratchpad dynamic energy.
    pub scratchpad_mj: f64,
    /// Near-memory compute dynamic energy: PISC ops behind the
    /// scratchpads, and rank-engine ops on the PIM machines — the same
    /// ALU class, placed at the scratchpad or at the DRAM rank.
    pub pisc_mj: f64,
    /// Interconnect dynamic energy.
    pub noc_mj: f64,
    /// DRAM dynamic energy.
    pub dram_mj: f64,
    /// On-chip memory leakage over the runtime.
    pub leakage_mj: f64,
    /// DRAM background energy over the runtime.
    pub dram_background_mj: f64,
}

impl EnergyBreakdown {
    /// Total memory-system energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.l1_mj
            + self.l2_mj
            + self.scratchpad_mj
            + self.pisc_mj
            + self.noc_mj
            + self.dram_mj
            + self.leakage_mj
            + self.dram_background_mj
    }

    /// On-chip (non-DRAM) energy in millijoules.
    pub fn onchip_mj(&self) -> f64 {
        self.total_mj() - self.dram_mj - self.dram_background_mj
    }
}

fn l2_access_pj(slice_bytes: u64) -> f64 {
    L2_ACCESS_BASE_PJ + L2_ACCESS_PJ_PER_MB_SLICE * slice_bytes as f64 / (1024.0 * 1024.0)
}

fn sp_access_pj(sp_bytes: u64) -> f64 {
    SP_ACCESS_BASE_PJ + SP_ACCESS_PJ_PER_MB * sp_bytes as f64 / (1024.0 * 1024.0)
}

/// Computes the Fig. 21 energy breakdown from a run's activity counts.
///
/// # Example
///
/// ```
/// use omega_core::config::SystemConfig;
/// use omega_core::runner::Runner;
/// use omega_energy::energy_breakdown;
/// use omega_graph::datasets::{Dataset, DatasetScale};
/// use omega_ligra::algorithms::Algo;
///
/// let g = Dataset::Sd.build(DatasetScale::Tiny)?;
/// let cfg = SystemConfig::mini_omega();
/// let report = Runner::new(cfg).run(&g, Algo::PageRank { iters: 1 });
/// let energy = energy_breakdown(&report, &cfg);
/// assert!(energy.total_mj() > 0.0);
/// assert!(energy.scratchpad_mj > 0.0);
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
pub fn energy_breakdown(report: &RunReport, system: &SystemConfig) -> EnergyBreakdown {
    let m = &report.mem;
    let seconds = report.total_cycles as f64 / CLOCK_HZ;
    let pj_to_mj = 1.0e-9;

    let l1_accesses = m.l1.accesses() + m.l1.writebacks + m.l1.invalidations;
    let l2_accesses = m.l2.accesses() + m.l2.writebacks;
    let sp_accesses = m.scratchpad.accesses() + 2 * m.scratchpad.pisc_ops;

    // Memory-component leakage: L1 + L2 + SP share of Table IV peak power.
    let node = area::node_table(system);
    let n_cores = system.machine.core.n_cores as f64;
    let onchip_peak_w = (node.l1.power_w
        + node.l2.power_w
        + node.scratchpad.map(|s| s.power_w).unwrap_or(0.0)
        + node.pisc.map(|p| p.power_w).unwrap_or(0.0))
        * n_cores;

    EnergyBreakdown {
        l1_mj: l1_accesses as f64 * L1_ACCESS_PJ * pj_to_mj,
        l2_mj: l2_accesses as f64 * l2_access_pj(system.machine.l2.capacity) * pj_to_mj,
        scratchpad_mj: system
            .omega()
            .map(|o| sp_accesses as f64 * sp_access_pj(o.sp_bytes_per_core) * pj_to_mj)
            .unwrap_or(0.0),
        pisc_mj: (m.scratchpad.pisc_ops + m.scratchpad.pim_ops) as f64 * PISC_OP_PJ * pj_to_mj,
        noc_mj: (m.noc.bytes as f64 * NOC_PJ_PER_BYTE + m.noc.packets as f64 * NOC_PJ_PER_PACKET)
            * pj_to_mj,
        dram_mj: (m.dram.bytes as f64 * DRAM_PJ_PER_BYTE
            + (m.dram.reads + m.dram.writes) as f64 * DRAM_PJ_PER_ACCESS)
            * pj_to_mj,
        leakage_mj: onchip_peak_w * LEAKAGE_FRACTION * seconds * 1.0e3,
        dram_background_mj: DRAM_BACKGROUND_W * seconds * 1.0e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::runner::Runner;
    use omega_graph::datasets::{Dataset, DatasetScale};
    use omega_ligra::algorithms::Algo;

    fn pagerank_pair() -> [RunReport; 2] {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_omega())
            .run_many(&g, Algo::PageRank { iters: 1 })
            .try_into()
            .unwrap()
    }

    #[test]
    fn omega_saves_memory_energy_on_pagerank() {
        let [base, omega] = pagerank_pair();
        let eb = energy_breakdown(&base, &SystemConfig::mini_baseline());
        let eo = energy_breakdown(&omega, &SystemConfig::mini_omega());
        let saving = eb.total_mj() / eo.total_mj();
        assert!(saving > 1.2, "expected energy saving, got {saving:.2}x");
    }

    #[test]
    fn baseline_has_no_scratchpad_energy() {
        let [base, omega] = pagerank_pair();
        let eb = energy_breakdown(&base, &SystemConfig::mini_baseline());
        let eo = energy_breakdown(&omega, &SystemConfig::mini_omega());
        assert_eq!(eb.scratchpad_mj, 0.0);
        assert_eq!(eb.pisc_mj, 0.0);
        assert!(eo.scratchpad_mj > 0.0);
        assert!(eo.pisc_mj > 0.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let [base, _] = pagerank_pair();
        let e = energy_breakdown(&base, &SystemConfig::mini_baseline());
        let manual = e.l1_mj
            + e.l2_mj
            + e.scratchpad_mj
            + e.pisc_mj
            + e.noc_mj
            + e.dram_mj
            + e.leakage_mj
            + e.dram_background_mj;
        assert!((e.total_mj() - manual).abs() < 1e-12);
        assert!(e.onchip_mj() < e.total_mj());
    }

    #[test]
    fn dram_dominates_baseline_dynamic_energy() {
        let [base, _] = pagerank_pair();
        let e = energy_breakdown(&base, &SystemConfig::mini_baseline());
        assert!(
            e.dram_mj > e.l2_mj,
            "off-chip accesses are the expensive ones"
        );
    }

    #[test]
    fn scratchpad_access_cheaper_than_cache_access() {
        assert!(sp_access_pj(1024 * 1024) < l2_access_pj(1024 * 1024));
    }

    #[test]
    fn pim_rank_ops_are_billed_as_near_memory_compute() {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let [_, pim]: [RunReport; 2] = Runner::new(SystemConfig::mini_baseline())
            .also(SystemConfig::mini_pim_rank())
            .run_many(&g, Algo::PageRank { iters: 1 })
            .try_into()
            .unwrap();
        assert!(pim.mem.scratchpad.pim_ops > 0, "PIM run offloads ops");
        let e = energy_breakdown(&pim, &SystemConfig::mini_pim_rank());
        // No scratchpad exists, but the rank-engine ops draw ALU energy.
        assert_eq!(e.scratchpad_mj, 0.0);
        assert!(e.pisc_mj > 0.0);
        let expected = pim.mem.scratchpad.pim_ops as f64 * PISC_OP_PJ * 1.0e-9;
        assert!((e.pisc_mj - expected).abs() < 1e-15);
    }
}
