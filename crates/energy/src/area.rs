//! Area and peak-power models (Table IV).
//!
//! Calibration points, all at 45 nm, from the paper's Table IV (per-core
//! values):
//!
//! | component | power (W) | area (mm²) |
//! |---|---|---|
//! | core | 3.11 | 24.08 |
//! | L1 caches | 0.20 | 0.42 |
//! | scratchpad (1 MB) | 1.40 | 3.17 |
//! | PISC | 0.004 | 0.01 |
//! | L2 2 MB (baseline) | 2.86 | 8.41 |
//! | L2 1 MB (OMEGA) | 1.50 | 4.47 |
//!
//! The two L2 points give the linear cache model
//! `area = periphery + slope × capacity`; the scratchpad is cheaper per
//! byte because the direct-mapped array stores no tags (§X.B: "the
//! slightly lower area is due to OMEGA's scratchpads being directly mapped
//! and thus not requiring cache tag information").

use omega_core::config::{MemoryModel, SystemConfig};

const MB: f64 = 1024.0 * 1024.0;

// Core and L1 are configuration-independent in Table IV.
const CORE_POWER_W: f64 = 3.11;
const CORE_AREA_MM2: f64 = 24.08;
const L1_POWER_W: f64 = 0.20;
const L1_AREA_MM2: f64 = 0.42;

// Cache model from the 2 MB / 1 MB Table IV points.
const CACHE_AREA_SLOPE_MM2_PER_MB: f64 = 8.41 - 4.47; // 3.94
const CACHE_AREA_PERIPHERY_MM2: f64 = 4.47 - CACHE_AREA_SLOPE_MM2_PER_MB; // 0.53
const CACHE_POWER_SLOPE_W_PER_MB: f64 = 2.86 - 1.50; // 1.36
const CACHE_POWER_PERIPHERY_W: f64 = 1.50 - CACHE_POWER_SLOPE_W_PER_MB; // 0.14

// Scratchpad model through the single 1 MB Table IV point, with the same
// periphery structure but no tag arrays.
const SP_AREA_SLOPE_MM2_PER_MB: f64 = 3.17 - CACHE_AREA_PERIPHERY_MM2 * 0.5; // tag-less data array
const SP_AREA_PERIPHERY_MM2: f64 = CACHE_AREA_PERIPHERY_MM2 * 0.5;
const SP_POWER_SLOPE_W_PER_MB: f64 = 1.40 - CACHE_POWER_PERIPHERY_W * 0.5;
const SP_POWER_PERIPHERY_W: f64 = CACHE_POWER_PERIPHERY_W * 0.5;

const PISC_POWER_W: f64 = 0.004;
const PISC_AREA_MM2: f64 = 0.01;

/// Area and peak power of one component (per core).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaPower {
    /// Peak power in watts.
    pub power_w: f64,
    /// Area in mm².
    pub area_mm2: f64,
}

impl AreaPower {
    fn add(self, other: AreaPower) -> AreaPower {
        AreaPower {
            power_w: self.power_w + other.power_w,
            area_mm2: self.area_mm2 + other.area_mm2,
        }
    }
}

/// Area/peak-power of an L2 cache slice of `bytes`.
pub fn cache_slice(bytes: u64) -> AreaPower {
    let mb = bytes as f64 / MB;
    AreaPower {
        power_w: CACHE_POWER_PERIPHERY_W + CACHE_POWER_SLOPE_W_PER_MB * mb,
        area_mm2: CACHE_AREA_PERIPHERY_MM2 + CACHE_AREA_SLOPE_MM2_PER_MB * mb,
    }
}

/// Area/peak-power of a scratchpad of `bytes` (tag-less direct-mapped
/// array).
pub fn scratchpad(bytes: u64) -> AreaPower {
    let mb = bytes as f64 / MB;
    AreaPower {
        power_w: SP_POWER_PERIPHERY_W + SP_POWER_SLOPE_W_PER_MB * mb,
        area_mm2: SP_AREA_PERIPHERY_MM2 + SP_AREA_SLOPE_MM2_PER_MB * mb,
    }
}

/// The Table IV rows for one node (per-core breakdown plus totals).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTable {
    /// Machine label ("baseline" / "omega").
    pub label: String,
    /// CPU core.
    pub core: AreaPower,
    /// L1 instruction + data caches.
    pub l1: AreaPower,
    /// Scratchpad (zero-sized on the baseline).
    pub scratchpad: Option<AreaPower>,
    /// PISC engine (absent on the baseline).
    pub pisc: Option<AreaPower>,
    /// Per-core share of the DRAM rank engines (PIM machines only):
    /// `channels × ranks_per_channel` PISC-class ALUs live at the ranks,
    /// amortised over the cores.
    pub rank_engines: Option<AreaPower>,
    /// L2 cache slice.
    pub l2: AreaPower,
}

impl NodeTable {
    /// Per-core node total.
    pub fn total(&self) -> AreaPower {
        let mut t = self.core.add(self.l1).add(self.l2);
        if let Some(sp) = self.scratchpad {
            t = t.add(sp);
        }
        if let Some(p) = self.pisc {
            t = t.add(p);
        }
        if let Some(r) = self.rank_engines {
            t = t.add(r);
        }
        t
    }
}

/// Builds the Table IV breakdown for a machine.
pub fn node_table(system: &SystemConfig) -> NodeTable {
    let l2 = cache_slice(system.machine.l2.capacity);
    let (sp, pisc) = match system.omega() {
        Some(o) => (
            Some(scratchpad(o.sp_bytes_per_core)),
            Some(AreaPower {
                power_w: PISC_POWER_W,
                area_mm2: PISC_AREA_MM2,
            }),
        ),
        None => (None, None),
    };
    let rank_engines = match system.model {
        MemoryModel::PimRank(p) => {
            let engines = (system.machine.dram.channels * p.ranks_per_channel) as f64;
            let share = engines / system.machine.core.n_cores as f64;
            Some(AreaPower {
                power_w: PISC_POWER_W * share,
                area_mm2: PISC_AREA_MM2 * share,
            })
        }
        _ => None,
    };
    NodeTable {
        label: system.label().to_string(),
        core: AreaPower {
            power_w: CORE_POWER_W,
            area_mm2: CORE_AREA_MM2,
        },
        l1: AreaPower {
            power_w: L1_POWER_W,
            area_mm2: L1_AREA_MM2,
        },
        scratchpad: sp,
        pisc,
        rank_engines,
        l2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::config::SystemConfig;

    #[test]
    fn calibration_reproduces_table_four_points() {
        let two_mb = cache_slice(2 * 1024 * 1024);
        assert!((two_mb.area_mm2 - 8.41).abs() < 1e-9);
        assert!((two_mb.power_w - 2.86).abs() < 1e-9);
        let one_mb = cache_slice(1024 * 1024);
        assert!((one_mb.area_mm2 - 4.47).abs() < 1e-9);
        let sp = scratchpad(1024 * 1024);
        assert!((sp.area_mm2 - 3.17).abs() < 1e-9);
        assert!((sp.power_w - 1.40).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_node_totals_match_table_four() {
        let base = node_table(&SystemConfig::paper_baseline());
        let omega = node_table(&SystemConfig::paper_omega());
        let bt = base.total();
        let ot = omega.total();
        // Table IV: baseline 6.17 W / 32.91 mm²; OMEGA 6.21 W / 32.15 mm².
        assert!(
            (bt.power_w - 6.17).abs() < 0.01,
            "baseline power {}",
            bt.power_w
        );
        assert!(
            (bt.area_mm2 - 32.91).abs() < 0.01,
            "baseline area {}",
            bt.area_mm2
        );
        assert!(
            (ot.power_w - 6.21).abs() < 0.03,
            "omega power {}",
            ot.power_w
        );
        assert!(
            (ot.area_mm2 - 32.15).abs() < 0.05,
            "omega area {}",
            ot.area_mm2
        );
    }

    #[test]
    fn omega_node_is_smaller_but_hotter() {
        let bt = node_table(&SystemConfig::paper_baseline()).total();
        let ot = node_table(&SystemConfig::paper_omega()).total();
        assert!(
            ot.area_mm2 < bt.area_mm2,
            "tag-less scratchpads shrink the node"
        );
        assert!(
            ot.power_w > bt.power_w,
            "PISC + scratchpad periphery cost a little power"
        );
        // Within a few percent either way, as the paper reports.
        assert!((ot.area_mm2 / bt.area_mm2 - 1.0).abs() < 0.05);
        assert!((ot.power_w / bt.power_w - 1.0).abs() < 0.05);
    }

    #[test]
    fn scratchpad_cheaper_than_same_size_cache() {
        for bytes in [64 * 1024, 1024 * 1024, 4 * 1024 * 1024] {
            assert!(scratchpad(bytes).area_mm2 < cache_slice(bytes).area_mm2);
        }
    }

    #[test]
    fn baseline_table_has_no_omega_rows() {
        let t = node_table(&SystemConfig::mini_baseline());
        assert!(t.scratchpad.is_none());
        assert!(t.pisc.is_none());
        assert!(t.rank_engines.is_none());
    }

    #[test]
    fn rival_machines_carry_only_their_own_rows() {
        let pim = node_table(&SystemConfig::mini_pim_rank());
        assert_eq!(pim.label, "pim-rank");
        assert!(pim.scratchpad.is_none());
        assert!(pim.pisc.is_none());
        let engines = pim.rank_engines.expect("rank engines modelled");
        assert!(engines.power_w > 0.0 && engines.area_mm2 > 0.0);
        // A handful of rank ALUs amortised over the cores must stay far
        // below one per-core PISC — the PIM pitch is near-free compute.
        assert!(engines.area_mm2 < PISC_AREA_MM2);

        let sc = node_table(&SystemConfig::mini_specialized_cache());
        assert_eq!(sc.label, "specialized-cache");
        assert!(sc.scratchpad.is_none());
        assert!(sc.pisc.is_none());
        assert!(sc.rank_engines.is_none());
        // The specialized cache is policy-only: its node is the baseline's.
        let base = node_table(&SystemConfig::mini_baseline());
        assert_eq!(sc.total(), base.total());
    }
}
