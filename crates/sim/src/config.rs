//! Machine configuration (the paper's Table III), plus the scaled-down
//! "mini" preset used by the evaluation harness.
//!
//! Scaling discipline (see DESIGN.md): datasets are generated at ≈1/160 of
//! the paper's vertex counts, so all *capacities* here are scaled by the
//! same factor while all *latencies* are kept at their Table III values.
//! This preserves the resident-fraction of `vtxProp` in each storage level,
//! which is the quantity the paper's results depend on.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes (per instance: per-core for L1, per-bank for L2).
    pub capacity: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of 64-byte lines.
    pub fn lines(&self) -> u64 {
        self.capacity / crate::LINE_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.lines() / self.ways as u64).max(1)
    }
}

/// Core (pipeline) timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Number of cores.
    pub n_cores: usize,
    /// Maximum outstanding non-blocking memory accesses per core — the
    /// memory-level-parallelism proxy for the paper's 192-entry ROB.
    pub max_outstanding: usize,
    /// Issue cost per trace operation, in cycles ×100 (an 8-wide core
    /// retires several ops per cycle; 25 means 4 ops/cycle).
    pub issue_cost_x100: u32,
}

/// Crossbar interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// One-way traversal latency in cycles (request or response).
    pub latency: u32,
    /// Payload bytes moved per cycle per port (128-bit bus = 16).
    pub bytes_per_cycle: u32,
    /// Control/header bytes added to every packet.
    pub header_bytes: u32,
}

/// DRAM channel parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Access latency in core cycles (row activation + transfer start).
    pub latency: u32,
    /// Peak bandwidth per channel in bytes per core cycle (12.8 GB/s at
    /// 2 GHz ⇒ 6.4 B/cycle).
    pub bytes_per_cycle: f64,
    /// Row-buffer policy applied to ordinary (cache-hierarchy) accesses.
    /// `ClosePage` reproduces the paper's flat ≈100-cycle DRAM model;
    /// `OpenPage` is used by the §IX hybrid-policy extension.
    pub default_mode: crate::dram::RowMode,
}

/// Complete machine description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Private per-core L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2; one bank per core, `l2.capacity` is the per-bank size.
    pub l2: CacheConfig,
    /// Crossbar parameters.
    pub noc: NocConfig,
    /// Memory parameters.
    pub dram: DramConfig,
    /// Extra cycles a blocking atomic occupies the line/core beyond a
    /// write hit (lock + RMW turnaround on a general-purpose core).
    pub atomic_overhead: u32,
    /// Cycles successive atomics to the *same line* from different cores
    /// are spaced apart: the MESI line-handoff time. The issuing core still
    /// waits for its own full completion, but the next core's RMW can begin
    /// once the line moves on — atomics pipeline across cores at this
    /// granularity rather than serialising full miss paths.
    pub atomic_handoff: u32,
    /// Telemetry collection (latency histograms + windowed time series).
    /// Disabled by default; see [`crate::telemetry`].
    pub telemetry: crate::telemetry::TelemetryConfig,
}

impl MachineConfig {
    /// The paper's Table III baseline at full scale: 16 cores, 16 KB L1
    /// I/D, 2 MB shared L2 per core, 4×DDR3-1600, crossbar with 128-bit
    /// links and ≈17-cycle average remote latency.
    pub fn paper_baseline() -> Self {
        MachineConfig {
            core: CoreConfig {
                n_cores: 16,
                max_outstanding: 12,
                issue_cost_x100: 25,
            },
            l1: CacheConfig {
                capacity: 16 * 1024,
                ways: 8,
                latency: 2,
            },
            l2: CacheConfig {
                capacity: 2 * 1024 * 1024,
                ways: 8,
                latency: 10,
            },
            noc: NocConfig {
                latency: 8,
                bytes_per_cycle: 16,
                header_bytes: 8,
            },
            // 60-cycle device latency: together with the L1→NoC→L2 path
            // this yields the ≈100-cycle end-to-end "cycles to reach DRAM"
            // the paper's §X model uses.
            dram: DramConfig {
                channels: 4,
                latency: 60,
                bytes_per_cycle: 6.4,
                default_mode: crate::dram::RowMode::ClosePage,
            },
            atomic_overhead: 8,
            atomic_handoff: 24,
            telemetry: crate::telemetry::TelemetryConfig::off(),
        }
    }

    /// The scaled-down baseline used by the harness: capacities at ≈1/160
    /// of Table III (L1 512 B, L2 16 KB per core), latencies unchanged.
    pub fn mini_baseline() -> Self {
        let mut cfg = Self::paper_baseline();
        cfg.l1.capacity = 512;
        cfg.l1.ways = 4;
        cfg.l2.capacity = 16 * 1024;
        cfg
    }

    /// Index of the L2 bank (and NoC port) owning `addr` — line-interleaved
    /// across banks.
    pub fn l2_bank_of(&self, addr: u64) -> usize {
        ((addr / crate::LINE_BYTES) % self.core.n_cores as u64) as usize
    }

    /// Index of the DRAM channel owning `addr`.
    pub fn dram_channel_of(&self, addr: u64) -> usize {
        ((addr / crate::LINE_BYTES) % self.dram.channels as u64) as usize
    }
}

impl crate::fingerprint::Canonicalize for CacheConfig {
    fn canonicalize(&self, h: &mut crate::fingerprint::Fnv64) {
        h.write_u64(self.capacity);
        h.write_u32(self.ways);
        h.write_u32(self.latency);
    }
}

impl crate::fingerprint::Canonicalize for CoreConfig {
    fn canonicalize(&self, h: &mut crate::fingerprint::Fnv64) {
        h.write_usize(self.n_cores);
        h.write_usize(self.max_outstanding);
        h.write_u32(self.issue_cost_x100);
    }
}

impl crate::fingerprint::Canonicalize for NocConfig {
    fn canonicalize(&self, h: &mut crate::fingerprint::Fnv64) {
        h.write_u32(self.latency);
        h.write_u32(self.bytes_per_cycle);
        h.write_u32(self.header_bytes);
    }
}

impl crate::fingerprint::Canonicalize for DramConfig {
    fn canonicalize(&self, h: &mut crate::fingerprint::Fnv64) {
        h.write_usize(self.channels);
        h.write_u32(self.latency);
        h.write_f64(self.bytes_per_cycle);
        h.write_u8(match self.default_mode {
            crate::dram::RowMode::OpenPage => 0,
            crate::dram::RowMode::ClosePage => 1,
        });
    }
}

impl crate::fingerprint::Canonicalize for MachineConfig {
    fn canonicalize(&self, h: &mut crate::fingerprint::Fnv64) {
        self.core.canonicalize(h);
        self.l1.canonicalize(h);
        self.l2.canonicalize(h);
        self.noc.canonicalize(h);
        self.dram.canonicalize(h);
        h.write_u32(self.atomic_overhead);
        h.write_u32(self.atomic_handoff);
        self.telemetry.canonicalize(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_three() {
        let c = MachineConfig::paper_baseline();
        assert_eq!(c.core.n_cores, 16);
        assert_eq!(c.l1.capacity, 16 * 1024);
        assert_eq!(c.l2.capacity * c.core.n_cores as u64, 32 * 1024 * 1024);
        assert_eq!(c.dram.channels, 4);
        // 128-bit bus.
        assert_eq!(c.noc.bytes_per_cycle, 16);
    }

    #[test]
    fn mini_scales_capacity_not_latency() {
        let p = MachineConfig::paper_baseline();
        let m = MachineConfig::mini_baseline();
        assert!(m.l2.capacity < p.l2.capacity);
        assert_eq!(m.l2.latency, p.l2.latency);
        assert_eq!(m.dram.latency, p.dram.latency);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            capacity: 512,
            ways: 4,
            latency: 2,
        };
        assert_eq!(c.lines(), 8);
        assert_eq!(c.sets(), 2);
    }

    #[test]
    fn bank_interleaving_covers_all_banks() {
        let c = MachineConfig::mini_baseline();
        let mut seen = vec![false; c.core.n_cores];
        for i in 0..c.core.n_cores as u64 {
            seen[c.l2_bank_of(i * crate::LINE_BYTES)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn same_line_same_bank() {
        let c = MachineConfig::mini_baseline();
        assert_eq!(c.l2_bank_of(0x1000), c.l2_bank_of(0x103F));
        assert_ne!(c.l2_bank_of(0x1000), c.l2_bank_of(0x1040));
    }

    #[test]
    fn canonicalisation_is_stable_and_field_sensitive() {
        use crate::fingerprint::{Canonicalize, Fnv64};
        let digest = |c: &MachineConfig| {
            let mut h = Fnv64::new();
            c.canonicalize(&mut h);
            h.finish()
        };
        let base = MachineConfig::mini_baseline();
        assert_eq!(digest(&base), digest(&base.clone()));
        assert_ne!(digest(&base), digest(&MachineConfig::paper_baseline()));
        // Every class of field perturbs the digest.
        let mut m = base;
        m.l1.ways += 1;
        assert_ne!(digest(&base), digest(&m));
        let mut m = base;
        m.dram.bytes_per_cycle += 0.1;
        assert_ne!(digest(&base), digest(&m));
        let mut m = base;
        m.dram.default_mode = crate::dram::RowMode::OpenPage;
        assert_ne!(digest(&base), digest(&m));
        let mut m = base;
        m.atomic_handoff += 1;
        assert_ne!(digest(&base), digest(&m));
        let mut m = base;
        m.telemetry = crate::telemetry::TelemetryConfig::windowed(4096);
        assert_ne!(digest(&base), digest(&m));
    }
}
