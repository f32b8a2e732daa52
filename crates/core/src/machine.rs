//! `OmegaMemory`: the complete OMEGA memory system (Fig. 6, right side).
//!
//! Every request is classified by the scratchpad controller:
//!
//! * addresses outside the vtxProp regions, and vtxProp entries of
//!   non-resident (cold) vertices, go to the regular cache hierarchy —
//!   OMEGA changes nothing for them;
//! * resident vtxProp reads are served by the owning scratchpad: local at
//!   scratchpad latency, remote over the crossbar in **word-granularity
//!   packets** (§V.E) — up to 8 bytes of payload instead of a 64-byte
//!   line;
//! * resident vtxProp writes are posted word writes;
//! * resident vtxProp atomics are **offloaded to the owner's PISC**: the
//!   core sends a command packet and continues (Fig. 8). The PISC
//!   serialises operations (which also enforces the controller's
//!   same-vertex blocking) and sets the dense active-list bit in the same
//!   operation. A full PISC back-pressures the offloading core;
//! * `ReadStable` accesses (source-vertex reads) consult the per-core
//!   source-vertex buffer first; remote fills populate it, and all entries
//!   are invalidated at each barrier (§V.C).
//!
//! The scratchpad fabric shares the physical crossbar with the cache
//! traffic, so both contend for the same port bandwidth and are counted in
//! the same Fig. 17 traffic statistics.

use crate::config::{MemoryModel, OmegaConfig, PimRankConfig, SystemConfig};
use crate::controller::ScratchpadController;
use crate::layout::Layout;
use crate::pim::DramPim;
use crate::pisc::{release_offloader, PiscEngine};
use crate::svbuffer::SourceVertexBuffer;
use omega_ligra::trace::TraceMeta;
use omega_sim::audit::{self, AuditReport};
use omega_sim::dram::RowMode;
use omega_sim::hierarchy::{CacheHierarchy, LineMap};
use omega_sim::stats::{AtomicStats, MemStats, ScratchpadStats};
use omega_sim::telemetry::{TelemetryReport, WindowSampler};
use omega_sim::{AccessKind, AccessOutcome, AtomicKind, Blocking, Cycle, MemAccess, MemorySystem};

/// The OMEGA memory system. See the module docs for the request flows.
#[derive(Debug)]
pub struct OmegaMemory {
    inner: CacheHierarchy,
    omega: OmegaConfig,
    ctrl: ScratchpadController,
    piscs: Vec<PiscEngine>,
    /// Memory-side PIM engines, one per DRAM channel (§IX.2 extension);
    /// `None` unless `omega.ext.pim`.
    pim: Option<DramPim>,
    svbs: Vec<SourceVertexBuffer>,
    /// Per-vertex-entry locks for the scratchpad-only ablation (atomics
    /// executed by the cores over scratchpad data).
    sp_locks: LineMap<Cycle>,
    sp_local: u64,
    sp_remote: u64,
    range_misses: u64,
    active_list_updates: u64,
    atomics_executed: u64,
    atomic_lock_wait: u64,
    word_dram_accesses: u64,
    /// See [`OuterSampled`].
    sampler: Option<WindowSampler>,
}

impl OmegaMemory {
    /// Builds the OMEGA machine for one traced run.
    ///
    /// `system` must be an OMEGA configuration (its `MachineConfig` already
    /// carries the halved L2); `layout`/`meta` configure the
    /// address-monitoring registers and residency, as the framework's
    /// startup code does in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `system` is not an OMEGA machine.
    pub fn new(system: &SystemConfig, layout: Layout, meta: &TraceMeta) -> Self {
        let MemoryModel::Omega(omega) = system.model else {
            panic!("OmegaMemory requires an OMEGA system config");
        };
        let mut machine = system.machine;
        if omega.ext.hybrid_page {
            // §IX.3: ordinary traffic (edge streams, frontier arrays, cold
            // fills) enjoys open-page locality; cold vtxProp below issues
            // its own close-page accesses.
            machine.dram.default_mode = RowMode::OpenPage;
        }
        let n = machine.core.n_cores;
        let ctrl = ScratchpadController::new(
            layout,
            meta,
            n,
            omega.mapping_chunk,
            omega.sp_bytes_per_core,
        );
        let mut inner = CacheHierarchy::new(&machine);
        let sampler = inner.take_sampler();
        OmegaMemory {
            inner,
            omega,
            ctrl,
            piscs: (0..n).map(|_| PiscEngine::new(omega.sp_latency)).collect(),
            // A channel PIM is a PIM-rank engine with one rank per channel,
            // back-pressured like a PISC.
            pim: omega.ext.pim.then(|| {
                let channel_engines = PimRankConfig {
                    ranks_per_channel: 1,
                    rank_latency: 12,
                    rank_backlog_cycles: omega.pisc_backlog_cycles,
                };
                DramPim::new(channel_engines, &machine)
            }),
            svbs: (0..n)
                .map(|_| {
                    SourceVertexBuffer::new(if omega.svb_enabled {
                        omega.svb_entries
                    } else {
                        0
                    })
                })
                .collect(),
            sp_locks: LineMap::default(),
            sp_local: 0,
            sp_remote: 0,
            range_misses: 0,
            active_list_updates: 0,
            atomics_executed: 0,
            atomic_lock_wait: 0,
            word_dram_accesses: 0,
            sampler,
        }
    }

    /// Number of scratchpad-resident vertices.
    pub fn hot_count(&self) -> u32 {
        self.ctrl.hot_count()
    }

    /// The controller (for tests and analyses).
    pub fn controller(&self) -> &ScratchpadController {
        &self.ctrl
    }

    /// Merged statistics: the cache hierarchy's counters plus the
    /// scratchpad/PISC/SVB activity.
    pub fn stats(&self) -> MemStats {
        let mut s = self.inner.stats();
        s.scratchpad.merge(&ScratchpadStats {
            local_accesses: self.sp_local,
            remote_accesses: self.sp_remote,
            range_misses: self.range_misses,
            pisc_ops: self.piscs.iter().map(|p| p.ops()).sum(),
            pisc_busy_cycles: self.piscs.iter().map(|p| p.busy_cycles()).sum(),
            svb_hits: self.svbs.iter().map(|b| b.hits()).sum(),
            svb_misses: self.svbs.iter().map(|b| b.misses()).sum(),
            active_list_updates: self.active_list_updates,
            word_dram_accesses: self.word_dram_accesses,
            ..ScratchpadStats::default()
        });
        s.atomics.merge(&AtomicStats {
            executed: self.atomics_executed,
            lock_wait_cycles: self.atomic_lock_wait,
        });
        if let Some(pim) = &self.pim {
            pim.merge_stats(&mut s);
        }
        s
    }

    fn sp_read(
        &mut self,
        core: usize,
        access: MemAccess,
        owner: usize,
        now: Cycle,
    ) -> AccessOutcome {
        let stable = access.kind == AccessKind::ReadStable;
        if stable && self.svbs[core].lookup(access.addr) {
            // Served from the core-local buffer at L1-like latency.
            return AccessOutcome {
                completion: now + 1,
                blocking: Blocking::Window,
            };
        }
        let completion = if owner == core {
            self.sp_local += 1;
            now + self.omega.sp_latency as u64
        } else {
            self.sp_remote += 1;
            // Header-only request; word-sized response (§V.E: packets of at
            // most 64 bits, far below a cache line).
            let back = self
                .inner
                .noc_mut()
                .round_trip(owner, 0, access.size as u32, now);
            let done = back + self.omega.sp_latency as u64;
            if stable {
                self.svbs[core].insert(access.addr);
            }
            done
        };
        AccessOutcome {
            completion,
            blocking: Blocking::Window,
        }
    }

    fn sp_write(
        &mut self,
        core: usize,
        access: MemAccess,
        owner: usize,
        now: Cycle,
    ) -> AccessOutcome {
        let completion = if owner == core {
            self.sp_local += 1;
            now + self.omega.sp_latency as u64
        } else {
            self.sp_remote += 1;
            let arrive = self.inner.noc_mut().send(owner, access.size as u32, now);
            arrive + self.omega.sp_latency as u64
        };
        // Posted write: the core does not wait.
        AccessOutcome {
            completion,
            blocking: Blocking::None,
        }
    }

    fn sp_atomic(
        &mut self,
        core: usize,
        access: MemAccess,
        kind: AtomicKind,
        owner: usize,
        now: Cycle,
    ) -> AccessOutcome {
        self.atomics_executed += 1;
        if self.omega.pisc_enabled {
            // Offload: command + operand packet (8 B payload) to the owner.
            let arrival = if owner == core {
                self.sp_local += 1;
                now + 1
            } else {
                self.sp_remote += 1;
                self.inner.noc_mut().send(owner, 8, now)
            };
            let done = self.piscs[owner].execute(kind, arrival);
            // The PISC sets the dense active-list bit in the same RMW.
            self.active_list_updates += 1;
            let (out, wait) = release_offloader(now, done, self.omega.pisc_backlog_cycles);
            self.inner.record_lock_wait(wait);
            self.atomic_lock_wait += wait;
            out
        } else {
            // Scratchpads-as-storage ablation (§X.A): the core itself
            // performs the RMW over scratchpad data, serialised per entry.
            let lock_free = self.sp_locks.get(&access.addr).copied().unwrap_or(0);
            let start = now.max(lock_free);
            self.atomic_lock_wait += start - now;
            self.inner.record_lock_wait(start - now);
            let read = self.sp_read(
                core,
                MemAccess::read(access.addr, access.size),
                owner,
                start,
            );
            let alu = kind.pisc_cycles() as u64;
            let write_issue = read.completion + alu;
            let write = self.sp_write(core, access, owner, write_issue);
            let done = write.completion;
            self.sp_locks.insert(access.addr, done);
            AccessOutcome {
                completion: done,
                blocking: Blocking::Full,
            }
        }
    }

    /// §IX cold-vertex path: word-granularity DRAM access and/or PIM
    /// offload for vtxProp entries outside the scratchpads. Returns `None`
    /// when no extension covers the access (regular cache path).
    fn cold_access(&mut self, access: MemAccess, now: Cycle) -> Option<AccessOutcome> {
        match access.kind {
            AccessKind::Atomic(kind) => {
                let pim = self.pim.as_mut()?;
                Some(pim.offload(&mut self.inner, access, kind, now))
            }
            _ if self.omega.ext.word_dram => {
                // Reads block the window; writes are posted.
                let write = access.kind == AccessKind::Write;
                self.word_dram_accesses += 1;
                let completion = self.inner.dram_mut().access(
                    access.addr,
                    access.size as u32,
                    write,
                    RowMode::ClosePage,
                    now,
                );
                let blocking = if write {
                    Blocking::None
                } else {
                    Blocking::Window
                };
                Some(AccessOutcome {
                    completion,
                    blocking,
                })
            }
            _ => None,
        }
    }
}

/// A model over a [`CacheHierarchy`] that adds its own counters (OMEGA,
/// PIM-rank). It takes the hierarchy's window sampler over, so windows see
/// the merged counters; the hierarchy keeps collecting its histograms.
pub(crate) trait OuterSampled {
    /// The taken-over sampler; `None` when telemetry is off.
    fn sampler(&mut self) -> &mut Option<WindowSampler>;

    /// Hierarchy counters plus the model's own.
    fn merged_stats(&self) -> MemStats;

    /// Ticks the sampler if `now` crossed a boundary; one compare on the
    /// common path.
    #[inline]
    fn sample_if_due(&mut self, now: Cycle) {
        if self.sampler().as_ref().is_some_and(|s| s.due(now)) {
            let cumulative = self.merged_stats();
            if let Some(s) = self.sampler() {
                s.tick(now, &cumulative);
            }
        }
    }

    /// Emits the final partial window.
    fn flush_windows(&mut self, now: Cycle) {
        if self.sampler().is_some() {
            let cumulative = self.merged_stats();
            if let Some(s) = self.sampler() {
                s.flush(now, &cumulative);
            }
        }
    }

    /// Replaces the hierarchy report's windows with the merged ones.
    fn attach_windows(&mut self, report: Option<TelemetryReport>) -> Option<TelemetryReport> {
        let mut report = report?;
        if let Some(s) = self.sampler().take() {
            report.windows = s.into_samples();
        }
        Some(report)
    }
}

impl OuterSampled for OmegaMemory {
    fn sampler(&mut self) -> &mut Option<WindowSampler> {
        &mut self.sampler
    }

    fn merged_stats(&self) -> MemStats {
        self.stats()
    }
}

impl MemorySystem for OmegaMemory {
    fn access(&mut self, core: usize, access: MemAccess, now: Cycle) -> AccessOutcome {
        self.sample_if_due(now);
        let Some(req) = self.ctrl.classify(access.addr) else {
            return self.inner.access(core, access, now);
        };
        if !req.resident {
            self.range_misses += 1;
            return self
                .cold_access(access, now)
                .unwrap_or_else(|| self.inner.access(core, access, now));
        }
        match access.kind {
            AccessKind::Read | AccessKind::ReadStable => self.sp_read(core, access, req.owner, now),
            AccessKind::Write => self.sp_write(core, access, req.owner, now),
            AccessKind::Atomic(kind) => self.sp_atomic(core, access, kind, req.owner, now),
        }
    }

    fn barrier(&mut self, now: Cycle) {
        for b in &mut self.svbs {
            b.invalidate_all(now);
        }
        self.sp_locks.clear();
        self.inner.barrier(now);
    }

    fn finish(&mut self, now: Cycle) {
        self.flush_windows(now);
        self.inner.finish(now);
    }

    fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let report = self.inner.take_telemetry();
        self.attach_windows(report)
    }

    fn audit_into(&self, out: &mut AuditReport) {
        // Component ledgers of the shared fabric, then the cross-component
        // checks over the *merged* stats: the scratchpad's word/PIM DRAM
        // traffic and offloaded atomics only balance at this level.
        self.inner.audit_components(out);
        audit::check_mem_stats(&self.stats(), out);
        if let Some(pim) = &self.pim {
            pim.audit_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ligra::trace::PropSpec;

    fn system() -> SystemConfig {
        SystemConfig::mini_omega()
    }

    /// The mini OMEGA machine with modified scratchpad/PISC parameters.
    fn system_with(omega: OmegaConfig) -> SystemConfig {
        SystemConfig::omega_from_baseline(omega_sim::MachineConfig::mini_baseline(), omega)
    }

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

    fn machine(n: u64) -> OmegaMemory {
        let m = meta(n);
        let layout = Layout::new(&m);
        OmegaMemory::new(&system(), layout, &m)
    }

    /// Address of vertex v in prop 0 for a machine over `n` vertices.
    fn addr(m: &OmegaMemory, v: u32) -> u64 {
        m.controller().layout().prop_addr(0, v)
    }

    #[test]
    fn hot_count_reflects_scratchpad_capacity() {
        // 16 cores × 8 KB / 9 B per slot = 14563 slots.
        let m = machine(100_000);
        assert_eq!(m.hot_count(), 14563);
        // Small graphs are fully resident.
        let m = machine(100);
        assert_eq!(m.hot_count(), 100);
    }

    #[test]
    fn local_read_takes_scratchpad_latency() {
        let mut m = machine(10_000);
        let v_local = 0; // owner = (0/64)%16 = 0
        let out = m.access(0, MemAccess::read(addr(&m, v_local), 8), 100);
        assert_eq!(out.completion, 103);
        assert_eq!(m.stats().scratchpad.local_accesses, 1);
    }

    #[test]
    fn remote_read_crosses_the_noc() {
        let mut m = machine(10_000);
        let v_remote = 4; // owner = (4/4)%16 = 1
        let out = m.access(0, MemAccess::read(addr(&m, v_remote), 8), 100);
        assert!(
            out.completion > 110,
            "remote read must pay crossbar latency"
        );
        assert_eq!(m.stats().scratchpad.remote_accesses, 1);
        assert!(m.stats().noc.bytes > 0);
        assert!(m.stats().noc.bytes < 64, "word packets, not cache lines");
    }

    #[test]
    fn cold_vertices_fall_back_to_caches() {
        let mut m = machine(1_000_000);
        let cold = m.hot_count() + 100;
        m.access(0, MemAccess::read(addr(&m, cold), 8), 0);
        let s = m.stats();
        assert_eq!(s.scratchpad.range_misses, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(
            s.scratchpad.local_accesses + s.scratchpad.remote_accesses,
            0
        );
    }

    #[test]
    fn non_prop_addresses_use_caches() {
        let mut m = machine(1000);
        m.access(0, MemAccess::read(0x9000_0000, 8), 0);
        assert_eq!(m.stats().l1.misses, 1);
    }

    #[test]
    fn offloaded_atomic_costs_only_the_register_stores() {
        let mut m = machine(10_000);
        let out = m.access(0, MemAccess::atomic(addr(&m, 4), 8, AtomicKind::FpAdd), 100);
        // The core is held only for the two memory-mapped register stores
        // (Fig. 13), not for the PISC's execution.
        assert_eq!(out.completion, 104);
        assert_eq!(out.blocking, Blocking::Full);
        assert_eq!(m.stats().scratchpad.pisc_ops, 1);
        assert_eq!(m.stats().scratchpad.active_list_updates, 1);
    }

    #[test]
    fn saturated_pisc_backpressures() {
        let mut m = machine(10_000);
        let a = addr(&m, 0);
        let mut blocked = false;
        for _ in 0..200 {
            let out = m.access(1, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
            if out.blocking == Blocking::Full {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "an endlessly hammered PISC must back-pressure");
    }

    #[test]
    fn svb_caches_stable_remote_reads() {
        let mut m = machine(10_000);
        let a = addr(&m, 4); // remote for core 0
        let first = m.access(
            0,
            MemAccess {
                addr: a,
                size: 8,
                kind: AccessKind::ReadStable,
            },
            0,
        );
        let second = m.access(
            0,
            MemAccess {
                addr: a,
                size: 8,
                kind: AccessKind::ReadStable,
            },
            1000,
        );
        assert!(
            second.completion - 1000 < first.completion,
            "second read hits the buffer"
        );
        let s = m.stats();
        assert_eq!(s.scratchpad.svb_hits, 1);
        assert_eq!(s.scratchpad.svb_misses, 1);
    }

    #[test]
    fn barrier_flushes_svb() {
        let mut m = machine(10_000);
        let a = addr(&m, 4);
        m.access(
            0,
            MemAccess {
                addr: a,
                size: 8,
                kind: AccessKind::ReadStable,
            },
            0,
        );
        m.barrier(500);
        m.access(
            0,
            MemAccess {
                addr: a,
                size: 8,
                kind: AccessKind::ReadStable,
            },
            1000,
        );
        assert_eq!(m.stats().scratchpad.svb_hits, 0);
        assert_eq!(m.stats().scratchpad.svb_misses, 2);
    }

    #[test]
    fn plain_reads_do_not_populate_svb() {
        let mut m = machine(10_000);
        let a = addr(&m, 4);
        m.access(0, MemAccess::read(a, 8), 0);
        m.access(
            0,
            MemAccess {
                addr: a,
                size: 8,
                kind: AccessKind::ReadStable,
            },
            100,
        );
        assert_eq!(m.stats().scratchpad.svb_hits, 0);
    }

    #[test]
    fn scratchpad_only_ablation_blocks_and_serialises() {
        let sys = system_with(OmegaConfig {
            pisc_enabled: false,
            ..OmegaConfig::default()
        });
        let mt = meta(10_000);
        let layout = Layout::new(&mt);
        let mut m = OmegaMemory::new(&sys, layout, &mt);
        let a = m.controller().layout().prop_addr(0, 0);
        let first = m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        assert_eq!(first.blocking, Blocking::Full);
        let second = m.access(1, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        assert!(
            second.completion > first.completion,
            "same-entry atomics serialise"
        );
        assert_eq!(m.stats().scratchpad.pisc_ops, 0);
    }

    fn machine_with_ext(n: u64) -> OmegaMemory {
        let sys = system_with(OmegaConfig {
            ext: crate::config::OffchipExtensions::all(),
            ..OmegaConfig::default()
        });
        let mt = meta(n);
        let layout = Layout::new(&mt);
        OmegaMemory::new(&sys, layout, &mt)
    }

    #[test]
    fn word_dram_serves_cold_reads_without_caches() {
        let mut m = machine_with_ext(1_000_000);
        let cold = m.hot_count() + 100;
        let a = m.controller().layout().prop_addr(0, cold);
        let out = m.access(0, MemAccess::read(a, 8), 0);
        assert_eq!(out.blocking, Blocking::Window);
        let st = m.stats();
        assert_eq!(st.scratchpad.word_dram_accesses, 1);
        assert_eq!(st.l1.misses, 0, "word-DRAM path bypasses the caches");
        assert_eq!(st.dram.bytes, 8, "word, not line");
    }

    #[test]
    fn pim_offloads_cold_atomics() {
        let mut m = machine_with_ext(1_000_000);
        let cold = m.hot_count() + 100;
        let a = m.controller().layout().prop_addr(0, cold);
        let out = m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 100);
        // Fire-and-forget: only the offload stores hold the core.
        assert_eq!(out.completion, 104);
        let st = m.stats();
        assert_eq!(st.scratchpad.pim_ops, 1);
        assert_eq!(
            st.scratchpad.pisc_ops, 0,
            "cold atomics go to PIM, not PISC"
        );
    }

    #[test]
    fn extensions_leave_hot_path_unchanged() {
        let mut m = machine_with_ext(10_000);
        let out = m.access(0, MemAccess::atomic(addr(&m, 4), 8, AtomicKind::FpAdd), 0);
        assert_eq!(m.stats().scratchpad.pisc_ops, 1);
        assert_eq!(m.stats().scratchpad.pim_ops, 0);
        assert_eq!(out.completion, 4);
    }

    #[test]
    fn hybrid_page_opens_rows_for_streams() {
        let mut m = machine_with_ext(1000);
        // Two sequential non-vtxProp reads missing to DRAM on one channel.
        m.access(0, MemAccess::read(0x9000_0000, 8), 0);
        m.access(0, MemAccess::read(0x9000_0100, 8), 50_000);
        assert!(
            m.stats().dram.row_hits > 0,
            "open-page must kick in for streamed fills"
        );
    }

    #[test]
    fn standard_omega_has_no_extension_activity() {
        let mut m = machine(1_000_000);
        let cold = m.hot_count() + 100;
        let a = m.controller().layout().prop_addr(0, cold);
        m.access(0, MemAccess::atomic(a, 8, AtomicKind::FpAdd), 0);
        let st = m.stats();
        assert_eq!(st.scratchpad.pim_ops, 0);
        assert_eq!(st.scratchpad.word_dram_accesses, 0);
        assert_eq!(st.dram.row_hits, 0);
    }

    #[test]
    fn telemetry_windows_include_scratchpad_activity() {
        let mut sys = system();
        sys.machine.telemetry = omega_sim::telemetry::TelemetryConfig::windowed(200);
        let mt = meta(10_000);
        let layout = Layout::new(&mt);
        let mut m = OmegaMemory::new(&sys, layout, &mt);
        let a = m.controller().layout().prop_addr(0, 0);
        for t in 0..10u64 {
            m.access(0, MemAccess::read(a, 8), t * 100);
            m.access(1, MemAccess::atomic(a, 8, AtomicKind::FpAdd), t * 100 + 50);
        }
        m.finish(1000);
        let s = m.stats();
        let t = m.take_telemetry().expect("telemetry enabled");
        assert!(m.take_telemetry().is_none());
        // Window deltas are computed from the combined stats, so the
        // scratchpad counters recombine to the run totals too.
        let mut total = MemStats::default();
        for w in &t.windows {
            total.merge(&w.delta);
        }
        assert_eq!(total, s);
        assert!(total.scratchpad.accesses() > 0);
        assert!(total.scratchpad.pisc_ops > 0);
        // PISC/SVB-path atomics record their (zero or positive) waits.
        assert_eq!(t.lock_wait.count(), s.atomics.executed);
    }

    #[test]
    fn svb_disabled_config_never_hits() {
        let sys = system_with(OmegaConfig {
            svb_enabled: false,
            ..OmegaConfig::default()
        });
        let mt = meta(10_000);
        let layout = Layout::new(&mt);
        let mut m = OmegaMemory::new(&sys, layout, &mt);
        let a = m.controller().layout().prop_addr(0, 4);
        for t in [0, 100, 200] {
            m.access(
                0,
                MemAccess {
                    addr: a,
                    size: 8,
                    kind: AccessKind::ReadStable,
                },
                t,
            );
        }
        assert_eq!(m.stats().scratchpad.svb_hits, 0);
    }
}
