//! `PimRankMemory`: the processing-in-memory rival machine (ALPHA-PIM /
//! PIUMA-style, see PAPERS.md), and `DramPim`, the DRAM-side offload
//! engines it shares with OMEGA's §IX.2 extension.
//!
//! Where OMEGA pulls hot vertex state *on-chip* into scratchpads, the PIM
//! machine pushes the compute *off-chip*: every atomic reduce/apply on a
//! monitored vtxProp entry — hot or cold, there is no residency concept —
//! is offloaded to a compute engine at the DRAM rank that owns the
//! address. The core sends a fire-and-forget command packet and continues;
//! the rank engine performs the read-modify-write inside the rank
//! (close-page, word granularity), serialising operations per rank, which
//! trades NoC round trips for bank-level parallelism.
//!
//! The substrate is the unmodified baseline CMP (full-size L2, no
//! scratchpad, no PISC): plain reads/writes and unmonitored traffic are
//! untouched.

use crate::config::{MemoryModel, PimRankConfig, SystemConfig};
use crate::layout::Layout;
use crate::pisc::{release_offloader, PiscEngine};
use omega_ligra::trace::TraceMeta;
use omega_sim::audit::AuditReport;
use omega_sim::dram::RowMode;
use omega_sim::hierarchy::CacheHierarchy;
use omega_sim::stats::{AtomicStats, MemStats, ScratchpadStats};
use omega_sim::telemetry::TelemetryReport;
use omega_sim::{
    AccessKind, AccessOutcome, AtomicKind, Cycle, MachineConfig, MemAccess, MemorySystem,
    LINE_BYTES,
};

/// Compute engines at the DRAM side of the memory controllers: the one
/// atomic-offload path shared by the PIM-rank machine (one engine per
/// rank) and OMEGA's §IX.2 cold-vertex extension (one engine per channel,
/// i.e. one rank per channel).
///
/// An offloaded atomic travels to the owning engine as a command packet,
/// queues there in arrival order, and performs a word-granularity
/// read-modify-write inside DRAM (close-page — the rank-local access never
/// populates a row buffer the channel queue could observe, so it
/// contributes no row outcome). The core is held only for the
/// memory-mapped command stores unless the engine's backlog is saturated.
#[derive(Debug)]
pub struct DramPim {
    cfg: PimRankConfig,
    /// Per-engine compute ledgers, indexed `channel * ranks_per_channel +
    /// rank`. Ops per engine feed the audit.
    engines: Vec<PiscEngine>,
    ops: u64,
    lock_wait: u64,
}

impl DramPim {
    /// Idle engines for every rank of every channel of `machine`.
    pub fn new(cfg: PimRankConfig, machine: &MachineConfig) -> Self {
        DramPim {
            cfg,
            // An engine's "scratchpad" is the in-rank row buffer; its
            // service time is dominated by the in-memory RMW.
            engines: (0..machine.dram.channels * cfg.ranks_per_channel)
                .map(|_| PiscEngine::new(cfg.rank_latency))
                .collect(),
            ops: 0,
            lock_wait: 0,
        }
    }

    /// The engine index owning `addr`: its DRAM channel, then the rank the
    /// line maps to within the channel (line-interleaved across ranks, the
    /// same modulo scheme the channels use).
    fn engine_of(&self, machine: &MachineConfig, addr: u64) -> usize {
        let channels = machine.dram.channels as u64;
        let ranks = self.cfg.ranks_per_channel;
        let rank = ((addr / LINE_BYTES / channels) % ranks as u64) as usize;
        machine.dram_channel_of(addr) * ranks + rank
    }

    /// Offloads one atomic issued at `now` to the engine owning its
    /// address, over `mem`'s NoC and DRAM. Returns when the core is
    /// released.
    pub fn offload(
        &mut self,
        mem: &mut CacheHierarchy,
        access: MemAccess,
        kind: AtomicKind,
        now: Cycle,
    ) -> AccessOutcome {
        self.ops += 1;
        let engine = self.engine_of(mem.config(), access.addr);
        let arrival = now + mem.config().noc.latency as u64 + 1;
        let rmw_start = self.engines[engine].execute(kind, arrival);
        let done = mem.dram_mut().access(
            access.addr,
            access.size as u32,
            true,
            RowMode::ClosePage,
            rmw_start,
        );
        let (out, wait) = release_offloader(now, done, self.cfg.rank_backlog_cycles);
        mem.record_lock_wait(wait);
        self.lock_wait += wait;
        out
    }

    /// Total operations executed across all engines (the ledger side of
    /// the `pim_ops` audit).
    pub fn ledger_ops(&self) -> u64 {
        self.engines.iter().map(|e| e.ops()).sum()
    }

    /// Adds the offloads to `s`: each is one executed atomic and one
    /// `pim_ops` count, and back-pressure counts as lock wait.
    pub fn merge_stats(&self, s: &mut MemStats) {
        s.scratchpad.merge(&ScratchpadStats {
            pim_ops: self.ops,
            ..ScratchpadStats::default()
        });
        s.atomics.merge(&AtomicStats {
            executed: self.ops,
            lock_wait_cycles: self.lock_wait,
        });
    }

    /// Every offloaded op must be owned by exactly one engine.
    pub fn audit_into(&self, out: &mut AuditReport) {
        let ledger = self.ledger_ops();
        out.check(
            "pim-rank",
            "rank ledgers sum to the offloaded op count",
            ledger == self.ops,
            || format!("rank ledger {} vs pim_ops {}", ledger, self.ops),
        );
    }
}

/// The PIM-rank memory system. See the module docs for the request flow.
#[derive(Debug)]
pub struct PimRankMemory {
    inner: CacheHierarchy,
    layout: Layout,
    /// Which property arrays are monitored (the same address-monitoring
    /// registers OMEGA's controller uses, §V.A).
    monitored: Vec<bool>,
    ranks: DramPim,
}

impl PimRankMemory {
    /// Builds the PIM-rank machine for one traced run.
    ///
    /// # Panics
    ///
    /// Panics if `system` is not a PIM-rank machine.
    pub fn new(system: &SystemConfig, layout: Layout, meta: &TraceMeta) -> Self {
        let MemoryModel::PimRank(cfg) = system.model else {
            panic!("PimRankMemory requires a PIM-rank system config");
        };
        PimRankMemory {
            inner: CacheHierarchy::new(&system.machine),
            layout,
            monitored: meta.props.iter().map(|p| p.monitored).collect(),
            ranks: DramPim::new(cfg, &system.machine),
        }
    }

    /// Total operations executed across all rank engines (the ledger side
    /// of the `pim_ops` audit).
    pub fn rank_ops(&self) -> u64 {
        self.ranks.ledger_ops()
    }

    /// Merged statistics: the hierarchy's counters plus the rank-offload
    /// activity (reported through the `pim_ops` channel the §IX.2
    /// extension established).
    pub fn stats(&self) -> MemStats {
        let mut s = self.inner.stats();
        self.ranks.merge_stats(&mut s);
        s
    }

    /// Whether `addr` falls inside a monitored vtxProp region.
    fn is_monitored(&self, addr: u64) -> bool {
        self.layout
            .prop_of_addr(addr)
            .is_some_and(|(prop, _)| self.monitored[prop as usize])
    }
}

impl MemorySystem for PimRankMemory {
    fn access(&mut self, core: usize, access: MemAccess, now: Cycle) -> AccessOutcome {
        match access.kind {
            AccessKind::Atomic(kind) if self.is_monitored(access.addr) => {
                self.ranks.offload(&mut self.inner, access, kind, now)
            }
            _ => self.inner.access(core, access, now),
        }
    }

    fn barrier(&mut self, now: Cycle) {
        self.inner.barrier(now);
    }

    fn finish(&mut self, now: Cycle) {
        self.inner.finish(now);
    }

    fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        self.inner.take_telemetry()
    }

    fn audit_into(&self, out: &mut AuditReport) {
        self.inner.audit_into(out);
        self.ranks.audit_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::PropSpec;
    use omega_sim::{AtomicKind, Blocking};

    fn meta(n: u64) -> TraceMeta {
        TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: n,
                monitored: true,
            }],
            n_vertices: n,
            n_arcs: 10 * n,
            weighted: false,
        }
    }

    fn machine(n: u64) -> PimRankMemory {
        let m = meta(n);
        let layout = Layout::new(&m);
        PimRankMemory::new(&SystemConfig::mini_pim_rank(), layout, &m)
    }

    #[test]
    fn one_rank_per_channel_engines_are_the_dram_channels() {
        // OMEGA's §IX.2 channel PIMs are this engine with one rank per
        // channel: the engine index must be the DRAM channel itself.
        let mut rng = omega_graph::rng::SmallRng::seed_from_u64(0x0c4a_77e1);
        for channels in [1, 2, 4] {
            let mut machine = MachineConfig::mini_baseline();
            machine.dram.channels = channels;
            let cfg = PimRankConfig {
                ranks_per_channel: 1,
                ..PimRankConfig::default()
            };
            let pim = DramPim::new(cfg, &machine);
            assert_eq!(pim.engines.len(), channels);
            for _ in 0..1000 {
                let addr = rng.next_u64() >> 20;
                assert_eq!(
                    pim.engine_of(&machine, addr),
                    machine.dram_channel_of(addr),
                    "{channels} channels, addr {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn monitored_atomics_offload_to_ranks() {
        let mut m = machine(10_000);
        let a = m.layout.prop_addr(0, 7);
        let out = m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 100);
        // Fire-and-forget: the core is held only for the command stores.
        assert_eq!(out.completion, 104);
        assert_eq!(out.blocking, Blocking::Full);
        let s = m.stats();
        assert_eq!(s.scratchpad.pim_ops, 1);
        assert_eq!(s.atomics.executed, 1);
        assert_eq!(s.dram.writes, 1, "the rank RMW issues one DRAM write");
        assert_eq!(s.dram.bytes, 8, "word, not line");
        assert_eq!(s.l1.misses, 0, "the offload bypasses the caches");
        assert_eq!(m.rank_ops(), 1);
    }

    #[test]
    fn plain_traffic_uses_the_unmodified_hierarchy() {
        let mut m = machine(10_000);
        let a = m.layout.prop_addr(0, 7);
        m.access(0, MemAccess::read(a, 8), 0);
        m.access(0, MemAccess::read(0x9000_0000, 8), 100);
        let s = m.stats();
        assert_eq!(s.scratchpad.pim_ops, 0);
        assert_eq!(s.l1.misses, 2);
    }

    #[test]
    fn unmonitored_atomics_execute_in_the_hierarchy() {
        let mt = TraceMeta {
            props: vec![PropSpec {
                entry_bytes: 8,
                len: 1000,
                monitored: false,
            }],
            n_vertices: 1000,
            n_arcs: 0,
            weighted: false,
        };
        let layout = Layout::new(&mt);
        let a = layout.prop_addr(0, 3);
        let mut m = PimRankMemory::new(&SystemConfig::mini_pim_rank(), layout, &mt);
        m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        let s = m.stats();
        assert_eq!(s.scratchpad.pim_ops, 0);
        assert!(s.atomics.executed > 0, "the hierarchy executed the atomic");
    }

    #[test]
    fn rank_engines_spread_by_address() {
        let mut m = machine(100_000);
        for v in 0..64u32 {
            let a = m.layout.prop_addr(0, v * 8); // stride across lines
            m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        }
        let busy_ranks = m.ranks.engines.iter().filter(|r| r.ops() > 0).count();
        assert!(
            busy_ranks > 1,
            "line-interleaving must engage more than one rank"
        );
        assert_eq!(m.rank_ops(), 64);
    }

    #[test]
    fn saturated_rank_backpressures() {
        let mut m = machine(10_000);
        let a = m.layout.prop_addr(0, 0);
        let mut waited = false;
        for _ in 0..200 {
            let out = m.access(1, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
            if out.completion > 4 {
                waited = true;
                break;
            }
        }
        assert!(waited, "an endlessly hammered rank must back-pressure");
        assert!(m.stats().atomics.lock_wait_cycles > 0);
    }

    #[test]
    fn audit_is_clean_on_mixed_traffic() {
        let mut m = machine(10_000);
        for i in 0..50u32 {
            let a = m.layout.prop_addr(0, i * 3);
            m.access(
                (i % 4) as usize,
                MemAccess::atomic(a, 8, AtomicKind::FpAdd),
                i as u64 * 20,
            );
            m.access((i % 4) as usize, MemAccess::read(a, 8), i as u64 * 20 + 7);
            m.access(
                (i % 4) as usize,
                MemAccess::read(0x9000_0000 + i as u64 * 64, 8),
                i as u64 * 20 + 13,
            );
        }
        m.finish(10_000);
        let mut report = AuditReport::new();
        m.audit_into(&mut report);
        omega_sim::audit::check_mem_stats(&m.stats(), &mut report);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn rank_local_writes_produce_no_row_outcome() {
        let mut m = machine(10_000);
        for i in 0..20u32 {
            let a = m.layout.prop_addr(0, i * 11);
            m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), i as u64 * 9);
        }
        let s = m.stats();
        assert_eq!(s.dram.open_page_accesses, 0);
        assert_eq!(s.dram.row_hits + s.dram.row_conflicts + s.dram.row_opens, 0);
    }
}
