//! System assembly: the CMP substrate plus one [`MemoryModel`] — the
//! baseline hierarchy, OMEGA, or one of its rivals.
//!
//! The paper's rule (Table III): OMEGA re-purposes **half** of each core's
//! L2 slice as a scratchpad of the same capacity, keeping total on-chip
//! storage identical, and adds a PISC next to each scratchpad (<1% area).
//! All latency parameters stay at their Table III values at every scale.

use omega_sim::fingerprint::{Canonicalize, Fnv64};
use omega_sim::{Cycle, MachineConfig};

/// Parameters of OMEGA's scratchpad/PISC extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmegaConfig {
    /// Scratchpad capacity per core, in bytes (Table III: 1 MB at paper
    /// scale; 8 KB in the mini preset).
    pub sp_bytes_per_core: u64,
    /// Scratchpad access latency in cycles (Table III: 3).
    pub sp_latency: u32,
    /// Chunk size of the interleaved vertex→scratchpad mapping (§V.D).
    /// OMEGA configures this to match the framework's OpenMP chunk (both
    /// default to 4 at mini scale — the paper's chunk of 64 scaled by the
    /// same factor as the datasets, so hub-update load balance across
    /// PISCs matches the paper's). The chunk ablation deliberately
    /// mismatches the two.
    pub mapping_chunk: usize,
    /// Whether PISC engines execute offloaded atomics (false = the
    /// "scratchpads as storage" ablation of §X.A).
    pub pisc_enabled: bool,
    /// Whether the source-vertex buffer is present (§V.C).
    pub svb_enabled: bool,
    /// Source-vertex buffer entries per core.
    pub svb_entries: usize,
    /// Maximum cycles of queued work a PISC may accumulate before the
    /// offloading core is back-pressured (bounds the fire-and-forget
    /// queue).
    pub pisc_backlog_cycles: Cycle,
    /// The off-chip memory extensions the paper defers to future work
    /// (§IX "Optimizing access to the least-connected vertices"), all
    /// three together; off on standard OMEGA, on for `omega-offchip`:
    ///
    /// 1. cold vtxProp reads/writes bypass the caches as word-sized DRAM
    ///    accesses;
    /// 2. cold vtxProp atomics are offloaded to per-channel PIM engines
    ///    instead of holding the core (the hybrid PISC + PIM
    ///    architecture);
    /// 3. ordinary traffic uses open-page DRAM, cold vtxProp close-page.
    pub offchip: bool,
}

impl Default for OmegaConfig {
    fn default() -> Self {
        OmegaConfig {
            sp_bytes_per_core: 8 * 1024,
            sp_latency: 3,
            mapping_chunk: 4,
            pisc_enabled: true,
            svb_enabled: true,
            svb_entries: 32,
            pisc_backlog_cycles: 512,
            offchip: false,
        }
    }
}

/// Parameters of the PIM-rank rival machine (ALPHA-PIM/PIUMA-style):
/// reduce/apply atomics execute at the DRAM rank instead of on the cores
/// or in on-chip PISCs, trading NoC round trips for bank-level
/// parallelism. No scratchpad exists — the L2 keeps its full size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimRankConfig {
    /// Compute-capable DRAM ranks per channel; the rank engines are the
    /// globally-ordered per-rank compute ledgers.
    pub ranks_per_channel: usize,
    /// Base service latency of one rank-engine op, in DRAM-side cycles
    /// (plays the role `sp_latency` plays for a PISC).
    pub rank_latency: u32,
    /// Maximum cycles of queued work a rank engine may accumulate before
    /// the offloading core is back-pressured.
    pub rank_backlog_cycles: Cycle,
}

impl Default for PimRankConfig {
    fn default() -> Self {
        PimRankConfig {
            ranks_per_channel: 2,
            rank_latency: 12,
            rank_backlog_cycles: 512,
        }
    }
}

/// The order in which a pinned hierarchy spends its per-core byte budget
/// on hot vtxProp lines. Both rivals pin through the same L2 lockdown; the
/// order decides who wins the per-set capacity conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinOrder {
    /// The §IX locked cache: the scratchpad controller's hot prefix for
    /// the same budget, prop-major in address order, so both designs
    /// protect the same vertices and differ only in mechanism.
    ScratchpadPrefix,
    /// The GRASP-style domain-specialized cache (Faldu et al.): vertex-
    /// major, every property of a hot vertex together, spent at line
    /// granularity until the budget runs out.
    VertexMajor,
}

/// What sits between the cores and the CMP substrate: exactly one memory
/// model per machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryModel {
    /// The plain cache hierarchy.
    Baseline,
    /// OMEGA's scratchpads and PISCs (the machine's L2 is already halved).
    Omega(OmegaConfig),
    /// The PIM-rank rival: monitored atomics execute at the DRAM rank.
    PimRank(PimRankConfig),
    /// A full-size L2 with hot vtxProp lines pinned: no scratchpad, no
    /// PISC, atomics on the cores.
    Pinned {
        /// Per-core byte budget of pinned lines (matched to OMEGA's
        /// scratchpad budget for apples-to-apples comparisons).
        bytes_per_core: u64,
        /// Which lines the budget is spent on first.
        order: PinOrder,
    },
}

/// A complete machine: the CMP substrate plus its memory model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// The CMP substrate (cores, caches, NoC, DRAM). For an OMEGA machine
    /// this already carries the *halved* L2.
    pub machine: MachineConfig,
    /// The memory model built over the substrate.
    pub model: MemoryModel,
}

impl SystemConfig {
    /// Scaled-down baseline (Table III at 1/160 capacity; see DESIGN.md).
    pub fn mini_baseline() -> Self {
        Self::mini(MemoryModel::Baseline)
    }

    /// Scaled-down locked-cache machine (§IX): the baseline CMP with the
    /// same per-core byte budget OMEGA spends on scratchpads pinned into
    /// the L2 instead.
    pub fn mini_locked_cache() -> Self {
        Self::mini_pinned(PinOrder::ScratchpadPrefix)
    }

    /// Scaled-down OMEGA: half of each 16 KB L2 slice becomes an 8 KB
    /// scratchpad with a PISC.
    pub fn mini_omega() -> Self {
        Self::omega_from_baseline(MachineConfig::mini_baseline(), OmegaConfig::default())
    }

    /// Full-scale baseline (the paper's Table III).
    pub fn paper_baseline() -> Self {
        SystemConfig {
            machine: MachineConfig::paper_baseline(),
            model: MemoryModel::Baseline,
        }
    }

    /// Full-scale OMEGA: 1 MB L2 + 1 MB scratchpad per core.
    pub fn paper_omega() -> Self {
        Self::omega_from_baseline(
            MachineConfig::paper_baseline(),
            OmegaConfig {
                sp_bytes_per_core: 1024 * 1024,
                ..OmegaConfig::default()
            },
        )
    }

    /// Builds an OMEGA machine from a baseline by re-purposing half of each
    /// L2 slice as scratchpad, overriding the scratchpad size with
    /// `omega.sp_bytes_per_core`.
    ///
    /// # Panics
    ///
    /// Panics if the baseline L2 slice is smaller than two cache lines.
    pub fn omega_from_baseline(mut machine: MachineConfig, omega: OmegaConfig) -> Self {
        assert!(machine.l2.capacity >= 128, "L2 slice too small to split");
        machine.l2.capacity /= 2;
        SystemConfig {
            machine,
            model: MemoryModel::Omega(omega),
        }
    }

    /// Scaled-down PIM-rank machine: the baseline CMP (full-size L2) with
    /// rank-level compute engines behind every DRAM channel.
    pub fn mini_pim_rank() -> Self {
        Self::mini(MemoryModel::PimRank(PimRankConfig::default()))
    }

    /// Scaled-down specialized-cache machine: the baseline CMP with a
    /// GRASP-style hot-vertex protection policy in the (full-size) L2.
    pub fn mini_specialized_cache() -> Self {
        Self::mini_pinned(PinOrder::VertexMajor)
    }

    fn mini(model: MemoryModel) -> Self {
        SystemConfig {
            machine: MachineConfig::mini_baseline(),
            model,
        }
    }

    fn mini_pinned(order: PinOrder) -> Self {
        Self::mini(MemoryModel::Pinned {
            bytes_per_core: OmegaConfig::default().sp_bytes_per_core,
            order,
        })
    }

    /// Returns a copy with a different scratchpad size (the Fig. 19
    /// sensitivity sweep). No-op on a machine without scratchpads.
    pub fn with_scratchpad_bytes(mut self, bytes_per_core: u64) -> Self {
        if let MemoryModel::Omega(o) = &mut self.model {
            o.sp_bytes_per_core = bytes_per_core;
        }
        self
    }

    /// The scratchpad/PISC parameters, on an OMEGA machine.
    pub fn omega(&self) -> Option<OmegaConfig> {
        match self.model {
            MemoryModel::Omega(o) => Some(o),
            _ => None,
        }
    }

    /// "baseline", "omega", "locked-cache", "pim-rank", or
    /// "specialized-cache", for report labels.
    pub fn label(&self) -> &'static str {
        match self.model {
            MemoryModel::Baseline => "baseline",
            MemoryModel::Omega(_) => "omega",
            MemoryModel::PimRank(_) => "pim-rank",
            MemoryModel::Pinned {
                order: PinOrder::ScratchpadPrefix,
                ..
            } => "locked-cache",
            MemoryModel::Pinned {
                order: PinOrder::VertexMajor,
                ..
            } => "specialized-cache",
        }
    }

    /// Total on-chip data storage (L2 + scratchpads), which the paper keeps
    /// equal between the two machines.
    pub fn total_onchip_bytes(&self) -> u64 {
        let l2 = self.machine.l2.capacity * self.machine.core.n_cores as u64;
        let sp = self
            .omega()
            .map(|o| o.sp_bytes_per_core * self.machine.core.n_cores as u64)
            .unwrap_or(0);
        l2 + sp
    }
}

impl Canonicalize for OmegaConfig {
    fn canonicalize(&self, h: &mut Fnv64) {
        h.write_u64(self.sp_bytes_per_core);
        h.write_u32(self.sp_latency);
        h.write_usize(self.mapping_chunk);
        h.write_bool(self.pisc_enabled);
        h.write_bool(self.svb_enabled);
        h.write_usize(self.svb_entries);
        h.write_u64(self.pisc_backlog_cycles);
        // The bytes of the three extension flags this switch replaced, so
        // every store fingerprint stays where it was.
        for _ in 0..3 {
            h.write_bool(self.offchip);
        }
    }
}

impl Canonicalize for PimRankConfig {
    fn canonicalize(&self, h: &mut Fnv64) {
        h.write_usize(self.ranks_per_channel);
        h.write_u32(self.rank_latency);
        h.write_u64(self.rank_backlog_cycles);
    }
}

impl Canonicalize for MemoryModel {
    fn canonicalize(&self, h: &mut Fnv64) {
        // The byte layout of the four optional overlays this enum replaced
        // (omega, locked cache, PIM rank, specialized cache): a 0/1 tag per
        // slot, the occupied one followed by its payload. Keeping it leaves
        // every store fingerprint where format v3 put it.
        let slot = match self {
            MemoryModel::Baseline => None,
            MemoryModel::Omega(_) => Some(0),
            MemoryModel::Pinned {
                order: PinOrder::ScratchpadPrefix,
                ..
            } => Some(1),
            MemoryModel::PimRank(_) => Some(2),
            MemoryModel::Pinned {
                order: PinOrder::VertexMajor,
                ..
            } => Some(3),
        };
        for tag in 0..4 {
            h.write_bool(slot == Some(tag));
            if slot != Some(tag) {
                continue;
            }
            match self {
                MemoryModel::Baseline => {}
                MemoryModel::Omega(o) => o.canonicalize(h),
                MemoryModel::PimRank(p) => p.canonicalize(h),
                MemoryModel::Pinned { bytes_per_core, .. } => h.write_u64(*bytes_per_core),
            }
        }
    }
}

impl Canonicalize for SystemConfig {
    fn canonicalize(&self, h: &mut Fnv64) {
        self.machine.canonicalize(h);
        self.model.canonicalize(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_keeps_total_onchip_storage() {
        let base = SystemConfig::mini_baseline();
        let omega = SystemConfig::mini_omega();
        assert_eq!(base.total_onchip_bytes(), omega.total_onchip_bytes());
        let base = SystemConfig::paper_baseline();
        let omega = SystemConfig::paper_omega();
        assert_eq!(base.total_onchip_bytes(), omega.total_onchip_bytes());
    }

    #[test]
    fn omega_halves_l2() {
        let base = SystemConfig::mini_baseline();
        let omega = SystemConfig::mini_omega();
        assert_eq!(omega.machine.l2.capacity * 2, base.machine.l2.capacity);
    }

    #[test]
    fn labels() {
        assert_eq!(SystemConfig::mini_baseline().label(), "baseline");
        assert_eq!(SystemConfig::mini_omega().label(), "omega");
        assert_eq!(SystemConfig::mini_locked_cache().label(), "locked-cache");
        assert_eq!(SystemConfig::mini_pim_rank().label(), "pim-rank");
        assert_eq!(
            SystemConfig::mini_specialized_cache().label(),
            "specialized-cache"
        );
    }

    #[test]
    fn rival_machines_keep_the_full_l2() {
        let base = SystemConfig::mini_baseline();
        assert_eq!(
            SystemConfig::mini_pim_rank().machine.l2.capacity,
            base.machine.l2.capacity
        );
        assert_eq!(
            SystemConfig::mini_specialized_cache().machine.l2.capacity,
            base.machine.l2.capacity
        );
    }

    #[test]
    fn scratchpad_sweep_rescales() {
        let half = SystemConfig::mini_omega().with_scratchpad_bytes(4 * 1024);
        assert_eq!(half.omega().unwrap().sp_bytes_per_core, 4 * 1024);
        // Baselines ignore the sweep.
        let b = SystemConfig::mini_baseline().with_scratchpad_bytes(4 * 1024);
        assert!(b.omega().is_none());
    }

    #[test]
    fn paper_omega_matches_table_three() {
        let o = SystemConfig::paper_omega();
        assert_eq!(o.machine.l2.capacity, 1024 * 1024);
        assert_eq!(o.omega().unwrap().sp_bytes_per_core, 1024 * 1024);
        assert_eq!(o.omega().unwrap().sp_latency, 3);
    }

    #[test]
    fn system_canonicalisation_separates_machine_variants() {
        let digest = |s: &SystemConfig| {
            let mut h = Fnv64::new();
            s.canonicalize(&mut h);
            h.finish()
        };
        let variants = [
            SystemConfig::mini_baseline(),
            SystemConfig::mini_omega(),
            SystemConfig::mini_locked_cache(),
            SystemConfig::mini_omega().with_scratchpad_bytes(4 * 1024),
            SystemConfig::paper_omega(),
            SystemConfig::mini_pim_rank(),
            SystemConfig::mini_specialized_cache(),
        ];
        for (i, a) in variants.iter().enumerate() {
            assert_eq!(digest(a), digest(&a.clone()));
            for b in &variants[i + 1..] {
                assert_ne!(digest(a), digest(b), "{} vs {}", a.label(), b.label());
            }
        }
        // Omega sub-fields reach the digest through the model.
        let mini_omega_with = |omega: OmegaConfig| {
            SystemConfig::omega_from_baseline(MachineConfig::mini_baseline(), omega)
        };
        let nosvb = mini_omega_with(OmegaConfig {
            svb_enabled: false,
            ..OmegaConfig::default()
        });
        assert_ne!(digest(&SystemConfig::mini_omega()), digest(&nosvb));
        let ext = mini_omega_with(OmegaConfig {
            offchip: true,
            ..OmegaConfig::default()
        });
        assert_ne!(digest(&SystemConfig::mini_omega()), digest(&ext));
        // Rival sub-fields reach the digest through the model too.
        let pim = SystemConfig {
            model: MemoryModel::PimRank(PimRankConfig {
                ranks_per_channel: 4,
                ..PimRankConfig::default()
            }),
            ..SystemConfig::mini_pim_rank()
        };
        assert_ne!(digest(&SystemConfig::mini_pim_rank()), digest(&pim));
        let sc = SystemConfig {
            model: MemoryModel::Pinned {
                bytes_per_core: 4 * 1024,
                order: PinOrder::VertexMajor,
            },
            ..SystemConfig::mini_specialized_cache()
        };
        assert_ne!(digest(&SystemConfig::mini_specialized_cache()), digest(&sc));
    }
}
