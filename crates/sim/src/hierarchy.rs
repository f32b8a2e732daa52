//! The baseline CMP memory system of Table III: per-core private L1 data
//! caches, a shared L2 distributed into per-core banks (line-interleaved),
//! a directory-based MESI-style coherence filter, a crossbar between cores
//! and banks, and DRAM channels behind the banks.
//!
//! Coherence is modelled with *atomic transactions* (no transient states):
//! because the replay engine executes operations in global time order, each
//! access can consult and update the directory in one step, paying the
//! latency and traffic of each protocol hop it would have taken:
//!
//! * L1 read miss → request to the home bank (crossbar round trip with a
//!   64-byte response) → possibly a dirty-owner forward (extra round trip)
//!   → possibly a DRAM fill.
//! * L1 write to a Shared line → upgrade: invalidation message per sharer.
//! * Atomics → fetch-exclusive plus a per-line lock that serialises
//!   concurrent atomics to the same line and holds the issuing core
//!   (`Blocking::Full`) — the overhead OMEGA's PISC offload removes.
//!
//! The L2 is inclusive: evicting an L2 victim back-invalidates L1 copies.
//!
//! The directory and `line_locks` are [`LineMap`]s, so an L1 miss's four to
//! six lookups each cost one multiply rather than a SipHash. Their keys are
//! line addresses the simulator computes, so the default hasher's defence
//! against crafted keys does not apply (see [`LineMap`]). `line_locks` is
//! pruned at every barrier, so it holds only locks still held.

use crate::audit::AuditReport;
use crate::cache::{CacheArray, LineState};
use crate::config::MachineConfig;
use crate::dram::DramModel;
use crate::mem::{AccessKind, AccessOutcome, Blocking, MemAccess, MemorySystem};
use crate::noc::Crossbar;
use crate::stats::{AtomicStats, CoreCounters, MemStats};
use crate::telemetry::{LatencyHistogram, TelemetryReport};
use crate::{line_of, Cycle, LINE_BYTES};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by simulated line (or word) addresses.
///
/// The keys are addresses the simulator computes itself, inside the dense
/// layout ranges of one replay — never bytes that arrive from outside the
/// program — so nobody can craft keys that collide, and the default
/// hasher's flooding protection buys nothing here. [`LineHasher`] instead
/// costs one multiply per lookup; the hierarchy does several per L1 miss.
/// Nothing iterates these maps in an order that reaches results.
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Multiplicative (Fibonacci) hash of one `u64` address, for [`LineMap`].
///
/// The product's low bits depend only on the key's low bits, which are
/// zero for line-aligned addresses; the rotate moves the well-mixed high
/// bits down to where the table takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    sharers: u32,
    owner_modified: Option<u8>,
}

impl DirEntry {
    fn add_sharer(&mut self, core: usize) {
        self.sharers |= 1 << core;
    }
    fn remove_sharer(&mut self, core: usize) {
        self.sharers &= !(1 << core);
    }
    fn others(&self, core: usize) -> u32 {
        self.sharers & !(1 << core)
    }
}

/// Telemetry the hierarchy itself collects (the DRAM and NoC models own
/// their histograms; the replay that drives the memory system samples
/// windows). Boxed behind an `Option` so the disabled path pays one
/// branch.
#[derive(Debug)]
struct HierTelemetry {
    miss_latency: LatencyHistogram,
    lock_wait: LatencyHistogram,
}

/// The baseline memory system. See the module docs for the protocol.
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: MachineConfig,
    l1: Vec<CacheArray>,
    l1_stats: CoreCounters,
    l2: Vec<CacheArray>,
    l2_stats: CoreCounters,
    directory: LineMap<DirEntry>,
    noc: Crossbar,
    dram: DramModel,
    line_locks: LineMap<Cycle>,
    atomics: AtomicStats,
    telemetry: Option<Box<HierTelemetry>>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cfg`. Telemetry hooks (see
    /// [`crate::telemetry`]) activate when `cfg.telemetry.enabled`.
    pub fn new(cfg: &MachineConfig) -> Self {
        let n = cfg.core.n_cores;
        let mut h = CacheHierarchy {
            cfg: *cfg,
            l1: (0..n).map(|_| CacheArray::new(&cfg.l1)).collect(),
            l1_stats: CoreCounters::new(n),
            l2: (0..n).map(|_| CacheArray::new(&cfg.l2)).collect(),
            l2_stats: CoreCounters::new(n),
            directory: LineMap::default(),
            noc: Crossbar::new(cfg.noc, n),
            dram: DramModel::new(cfg.dram),
            line_locks: LineMap::default(),
            atomics: AtomicStats::default(),
            telemetry: None,
        };
        if cfg.telemetry.enabled {
            h.dram.enable_telemetry();
            h.noc.enable_telemetry();
            h.telemetry = Some(Box::new(HierTelemetry {
                miss_latency: LatencyHistogram::new(),
                lock_wait: LatencyHistogram::new(),
            }));
        }
        h
    }

    /// Records one atomic's serialisation wait into the lock-wait
    /// histogram. Outer memory systems route their PISC back-pressure and
    /// per-entry serialisation waits through this, so one histogram covers
    /// lock-wait on every machine kind. No-op when telemetry is disabled.
    #[inline]
    pub fn record_lock_wait(&mut self, wait: Cycle) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.lock_wait.record(wait);
        }
    }

    /// Merged statistics across all cores and banks.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1: self.l1_stats.merged(),
            l2: self.l2_stats.merged(),
            noc: self.noc.stats(),
            dram: self.dram.stats(),
            atomics: self.atomics,
            scratchpad: Default::default(),
        }
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Mutable access to the crossbar, so an outer memory system (OMEGA's
    /// scratchpad fabric) can share the same physical interconnect — and
    /// therefore the same bandwidth and traffic accounting — as the cache
    /// traffic.
    pub fn noc_mut(&mut self) -> &mut Crossbar {
        &mut self.noc
    }

    /// Pins a set of lines into their home L2 banks (the §IX locked-cache
    /// alternative): pinned lines are pre-loaded `Shared` and excluded from
    /// replacement. Returns the lines actually pinned, in pin order
    /// (pinning stops short of monopolising any set).
    pub fn pin_lines<I: IntoIterator<Item = u64>>(&mut self, lines: I) -> Vec<u64> {
        lines
            .into_iter()
            .map(line_of)
            .filter(|&line| self.l2[self.cfg.l2_bank_of(line)].pin(line))
            .collect()
    }

    /// Mutable access to the DRAM model, for memory-side extensions
    /// (word-granularity cold-vertex access and PIM offload, §IX of the
    /// paper) that bypass the caches but share the same channels.
    pub fn dram_mut(&mut self) -> &mut DramModel {
        &mut self.dram
    }

    fn writeback_l1_victim(&mut self, core: usize, line: u64, now: Cycle) {
        // Dirty L1 victim: transfer the line to its home bank.
        let bank = self.cfg.l2_bank_of(line);
        if bank != core {
            self.noc.send(bank, LINE_BYTES as u32, now);
        }
        self.l1_stats.writebacks[core] += 1;
        self.l2[bank].set_state(line, LineState::Modified);
        if let Some(e) = self.directory.get_mut(&line) {
            e.owner_modified = None;
            e.remove_sharer(core);
        }
    }

    /// Invalidate every other sharer of `line`; returns the number
    /// invalidated. Counts one control packet per invalidation.
    fn invalidate_others(&mut self, core: usize, line: u64, now: Cycle) -> u32 {
        let Some(entry) = self.directory.get(&line).copied() else {
            return 0;
        };
        let mut count = 0;
        for other in 0..self.cfg.core.n_cores {
            if other != core && (entry.sharers >> other) & 1 == 1 {
                if self.l1[other].invalidate(line).is_some() {
                    self.l1_stats.invalidations[other] += 1;
                }
                self.noc.send(other, 0, now); // header-only invalidation packet
                count += 1;
            }
        }
        let e = self.directory.entry(line).or_default();
        e.sharers &= 1 << core;
        e.owner_modified = None;
        count
    }

    /// Serves a miss at the L2 bank. Returns the cycle the line is ready at
    /// the bank, after any dirty-owner forward or DRAM fill.
    fn bank_fill(&mut self, core: usize, line: u64, want_exclusive: bool, mut now: Cycle) -> Cycle {
        let bank = self.cfg.l2_bank_of(line);

        // Dirty copy in another L1? Forward it (extra hop owner → bank).
        let owner = self
            .directory
            .get(&line)
            .and_then(|e| e.owner_modified)
            .map(|o| o as usize);
        if let Some(o) = owner {
            if o != core {
                now = self.noc.round_trip(o, 8, LINE_BYTES as u32, now);
                self.l1[o].set_state(line, LineState::Shared);
                self.l2[bank].insert(line, LineState::Modified);
                if let Some(e) = self.directory.get_mut(&line) {
                    e.owner_modified = None;
                }
                self.l2_stats.hits[bank] += 1;
                if want_exclusive {
                    self.invalidate_others(core, line, now);
                }
                return now;
            }
        }

        // A read joining existing sharers downgrades any Exclusive holder
        // to Shared (the snoop that supplies the sharing response).
        if !want_exclusive {
            if let Some(entry) = self.directory.get(&line).copied() {
                for other in 0..self.cfg.core.n_cores {
                    if other != core
                        && (entry.sharers >> other) & 1 == 1
                        && self.l1[other].peek(line) == Some(LineState::Exclusive)
                    {
                        self.l1[other].set_state(line, LineState::Shared);
                    }
                }
            }
        }
        if self.l2[bank].lookup(line).is_some() {
            self.l2_stats.hits[bank] += 1;
            now += self.cfg.l2.latency as u64;
        } else {
            self.l2_stats.misses[bank] += 1;
            now += self.cfg.l2.latency as u64;
            now = self.dram.access_line(line, false, now);
            if let Some(ev) = self.l2[bank].insert(line, LineState::Shared) {
                // Inclusive L2: back-invalidate L1 copies of the victim; a
                // recalled Modified copy makes the victim dirty even if the
                // L2 line state itself was clean.
                let recalled_dirty = self.back_invalidate(ev.line, now);
                if ev.state.dirty() || recalled_dirty {
                    self.l2_stats.writebacks[bank] += 1;
                    self.dram.access_line(ev.line, true, now);
                }
            }
        }
        if want_exclusive {
            self.invalidate_others(core, line, now);
        }
        now
    }

    /// Invalidates every L1 copy of an L2 victim (inclusion). Returns
    /// `true` if a Modified copy was recalled, in which case the victim's
    /// data is dirty regardless of the L2 line state and the caller must
    /// write it back.
    fn back_invalidate(&mut self, line: u64, now: Cycle) -> bool {
        let mut recalled_dirty = false;
        if let Some(entry) = self.directory.remove(&line) {
            for other in 0..self.cfg.core.n_cores {
                if (entry.sharers >> other) & 1 == 1 {
                    if let Some(state) = self.l1[other].invalidate(line) {
                        self.l1_stats.invalidations[other] += 1;
                        if state.dirty() {
                            // Recall the dirty data alongside the probe.
                            self.noc
                                .send(self.cfg.l2_bank_of(line), LINE_BYTES as u32, now);
                            recalled_dirty = true;
                        }
                    }
                    self.noc.send(other, 0, now);
                }
            }
        }
        recalled_dirty
    }

    fn fill_l1(&mut self, core: usize, line: u64, state: LineState, now: Cycle) {
        if let Some(ev) = self.l1[core].insert(line, state) {
            if ev.state.dirty() {
                self.writeback_l1_victim(core, ev.line, now);
            } else if let Some(e) = self.directory.get_mut(&ev.line) {
                e.remove_sharer(core);
            }
        }
        let e = self.directory.entry(line).or_default();
        e.add_sharer(core);
        e.owner_modified = if state == LineState::Modified {
            Some(core as u8)
        } else {
            None
        };
    }

    /// Handles one read/write/atomic; shared by `access`.
    fn do_access(&mut self, core: usize, access: MemAccess, now: Cycle) -> Cycle {
        let line = line_of(access.addr);
        let bank = self.cfg.l2_bank_of(line);
        let write = !matches!(access.kind, AccessKind::Read | AccessKind::ReadStable);
        let mut t = now + self.cfg.l1.latency as u64;

        match self.l1[core].lookup(line) {
            Some(state) if !write || state.writable() => {
                self.l1_stats.hits[core] += 1;
                if write {
                    self.l1[core].set_state(line, LineState::Modified);
                    let e = self.directory.entry(line).or_default();
                    e.add_sharer(core);
                    e.owner_modified = Some(core as u8);
                }
                t
            }
            Some(_shared_needs_upgrade) => {
                // Write to a Shared line: upgrade through the home bank.
                self.l1_stats.hits[core] += 1;
                t = if bank == core {
                    t + self.cfg.l2.latency as u64
                } else {
                    self.noc.round_trip(bank, 8, 8, t)
                };
                self.invalidate_others(core, line, t);
                self.l1[core].set_state(line, LineState::Modified);
                let e = self.directory.entry(line).or_default();
                e.add_sharer(core);
                e.owner_modified = Some(core as u8);
                t
            }
            None => {
                self.l1_stats.misses[core] += 1;
                // Request to the home bank.
                let at_bank = if bank == core {
                    t
                } else {
                    // Request packet; the data response is charged after the
                    // bank produces the line.
                    self.noc.send(bank, 8, t)
                };
                let ready = self.bank_fill(core, line, write, at_bank);
                let done = if bank == core {
                    ready
                } else {
                    // 64-byte line travels back to the core.
                    self.noc.send(core, LINE_BYTES as u32, ready)
                };
                let state = if write {
                    LineState::Modified
                } else if self.directory.get(&line).map_or(0, |e| e.others(core)) != 0 {
                    LineState::Shared
                } else {
                    LineState::Exclusive
                };
                self.fill_l1(core, line, state, done);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    // End-to-end L1-miss service time (issue → line at core).
                    t.miss_latency.record(done.saturating_sub(now));
                }
                debug_assert!(done >= now, "a miss must not complete before it was issued");
                done
            }
        }
    }
}

impl MemorySystem for CacheHierarchy {
    fn access(&mut self, core: usize, access: MemAccess, now: Cycle) -> AccessOutcome {
        match access.kind {
            AccessKind::Read | AccessKind::ReadStable => {
                let completion = self.do_access(core, access, now);
                AccessOutcome {
                    completion,
                    blocking: Blocking::Window,
                }
            }
            AccessKind::Write => {
                let completion = self.do_access(core, access, now);
                // Stores retire through a store buffer; the core does not wait.
                AccessOutcome {
                    completion,
                    blocking: Blocking::None,
                }
            }
            AccessKind::Atomic(_) => {
                let line = line_of(access.addr);
                // Serialise behind any atomic in flight on the same line.
                let lock_free = self.line_locks.get(&line).copied().unwrap_or(0);
                let start = now.max(lock_free);
                self.atomics.lock_wait_cycles += start - now;
                self.record_lock_wait(start - now);
                let done = self.do_access(core, access, start) + self.cfg.atomic_overhead as u64;
                // The next core's atomic may begin once the line hands off,
                // well before this core's pipeline releases.
                self.line_locks
                    .insert(line, start + self.cfg.atomic_handoff as u64);
                self.atomics.executed += 1;
                AccessOutcome {
                    completion: done,
                    blocking: Blocking::Full,
                }
            }
        }
    }

    fn barrier(&mut self, now: Cycle) {
        // Every access after a barrier issues at or after its release
        // cycle, so a lock that has freed by then can never delay one:
        // dropping it is exact and bounds the map by the atomics still in
        // flight across the barrier, not by every atomic line ever seen.
        self.line_locks.retain(|_, free| *free > now);
    }

    fn finish(&mut self, _now: Cycle) {
        // Hand any simulated obs intervals (DRAM busy windows, NoC
        // contention bursts) to the global registry; one branch each when
        // no trace session was active. OMEGA and the locked-cache machine
        // both route their `finish` through here, so this covers every
        // machine kind.
        self.dram.flush_obs();
        self.noc.flush_obs();
    }

    /// Audits the component-internal ledgers (crossbar ports, DRAM
    /// channels). The flow checks over merged stats
    /// ([`crate::audit::check_mem_stats`]) belong to the replay, which
    /// alone sees the traffic an outer model (OMEGA's scratchpad fabric)
    /// injects into these components directly.
    fn audit_into(&self, out: &mut AuditReport) {
        self.noc.audit_into(out);
        self.dram.audit_into(out);
    }

    fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let t = *self.telemetry.take()?;
        Some(TelemetryReport {
            window_cycles: self.cfg.telemetry.window_cycles,
            windows: Vec::new(),
            dram_queue: self.dram.take_queue_histogram().unwrap_or_default(),
            noc_contention: self.noc.take_contention_histogram().unwrap_or_default(),
            miss_latency: t.miss_latency,
            lock_wait: t.lock_wait,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AtomicKind;

    fn mini() -> (MachineConfig, CacheHierarchy) {
        let cfg = MachineConfig::mini_baseline();
        let h = CacheHierarchy::new(&cfg);
        (cfg, h)
    }

    #[test]
    fn cold_read_misses_both_levels_and_reaches_dram() {
        let (cfg, mut h) = mini();
        let out = h.access(0, MemAccess::read(0x4000, 8), 0);
        assert!(out.completion > cfg.dram.latency as u64);
        let s = h.stats();
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.dram.reads, 1);
    }

    #[test]
    fn second_read_hits_l1() {
        let (_, mut h) = mini();
        h.access(0, MemAccess::read(0x4000, 8), 0);
        let t0 = 1000;
        let out = h.access(0, MemAccess::read(0x4008, 8), t0);
        assert_eq!(out.completion, t0 + h.config().l1.latency as u64);
        assert_eq!(h.stats().l1.hits, 1);
    }

    #[test]
    fn sharer_read_then_remote_write_invalidates() {
        let (_, mut h) = mini();
        h.access(0, MemAccess::read(0x4000, 8), 0);
        h.access(1, MemAccess::read(0x4000, 8), 500);
        // Core 2 writes: both sharers must be invalidated.
        h.access(2, MemAccess::write(0x4000, 8), 1000);
        let s = h.stats();
        assert_eq!(s.l1.invalidations, 2);
        // Core 0 must now miss again.
        h.access(0, MemAccess::read(0x4000, 8), 2000);
        assert_eq!(h.stats().l1.misses, 4); // 3 cold + 1 post-invalidation
    }

    #[test]
    fn dirty_remote_line_is_forwarded() {
        let (_, mut h) = mini();
        h.access(0, MemAccess::write(0x4000, 8), 0);
        let before_dram_reads = h.stats().dram.reads;
        h.access(1, MemAccess::read(0x4000, 8), 1000);
        // The second access must have been served by owner forwarding, not DRAM.
        assert_eq!(h.stats().dram.reads, before_dram_reads);
        assert_eq!(h.stats().l2.hits, 1);
    }

    #[test]
    fn atomics_to_same_line_serialise() {
        let (_, mut h) = mini();
        // Warm the line.
        h.access(0, MemAccess::read(0x4000, 8), 0);
        let a = h.access(0, MemAccess::atomic(0x4000, 8, AtomicKind::FpAdd), 1000);
        let b = h.access(1, MemAccess::atomic(0x4000, 8, AtomicKind::FpAdd), 1000);
        assert!(
            b.completion > a.completion,
            "second atomic must wait for the lock"
        );
        assert!(h.stats().atomics.lock_wait_cycles > 0);
        assert_eq!(h.stats().atomics.executed, 2);
    }

    #[test]
    fn barrier_drops_line_locks_that_have_freed() {
        let (cfg, mut h) = mini();
        let lines = 1000u64;
        for i in 0..lines {
            h.access(
                0,
                MemAccess::atomic(i * LINE_BYTES, 8, AtomicKind::FpAdd),
                i,
            );
        }
        assert_eq!(h.line_locks.len(), lines as usize);
        // Only locks still held past the release cycle survive a barrier.
        let release = 900;
        let held = (0..lines)
            .filter(|&i| i + cfg.atomic_handoff as u64 > release)
            .count();
        h.barrier(release);
        assert_eq!(h.line_locks.len(), held);
        assert!(held < 200, "{held} locks survived");
        h.barrier(lines + cfg.atomic_handoff as u64);
        assert!(h.line_locks.is_empty());
    }

    #[test]
    fn line_hasher_spreads_aligned_keys() {
        // Line-aligned keys have six zero low bits; the table indexes by
        // low hash bits, so those must still vary.
        let buckets: std::collections::HashSet<u64> = (0..1024u64)
            .map(|i| {
                let mut h = LineHasher::default();
                h.write_u64(i * LINE_BYTES);
                h.finish() & 1023
            })
            .collect();
        assert!(buckets.len() > 512, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn atomics_block_the_core() {
        let (_, mut h) = mini();
        let out = h.access(0, MemAccess::atomic(0x4000, 8, AtomicKind::FpAdd), 0);
        assert_eq!(out.blocking, Blocking::Full);
    }

    #[test]
    fn stores_do_not_block() {
        let (_, mut h) = mini();
        let out = h.access(0, MemAccess::write(0x4000, 8), 0);
        assert_eq!(out.blocking, Blocking::None);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_lines() {
        let (cfg, mut h) = mini();
        // Write more distinct lines than L1 holds, all mapping over the tiny L1.
        let lines = cfg.l1.lines() * 4;
        for i in 0..lines {
            h.access(0, MemAccess::write(i * LINE_BYTES, 8), i * 10_000);
        }
        assert!(h.stats().l1.writebacks > 0);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        let cfg = MachineConfig {
            l1: crate::CacheConfig {
                capacity: 1024,
                ways: 4,
                latency: 2,
            },
            l2: crate::CacheConfig {
                capacity: 256,
                ways: 2,
                latency: 10,
            },
            ..MachineConfig::mini_baseline()
        };
        let mut h = CacheHierarchy::new(&cfg);
        // With 16 banks interleaved by line, lines k and k+16 share bank (k%16)
        // and map to the same tiny bank set; stream enough to force L2 evictions.
        for i in 0..64u64 {
            h.access(0, MemAccess::read(i * 16 * LINE_BYTES, 8), i * 10_000);
        }
        let s = h.stats();
        assert!(s.l1.invalidations > 0, "inclusive L2 must back-invalidate");
    }

    #[test]
    fn local_bank_access_is_cheaper_than_remote() {
        let (cfg, mut h) = mini();
        // Line homed at bank 0 accessed by core 0 (local).
        let local = h.access(0, MemAccess::read(0, 8), 0).completion;
        // Line homed at bank 1 accessed by core 0 (remote), same L2/DRAM path.
        let mut h2 = CacheHierarchy::new(&cfg);
        let remote = h2.access(0, MemAccess::read(LINE_BYTES, 8), 0).completion;
        assert!(remote > local);
    }

    #[test]
    fn noc_traffic_accumulates_line_transfers() {
        let (_, mut h) = mini();
        h.access(0, MemAccess::read(LINE_BYTES, 8), 0); // remote bank
        assert!(h.stats().noc.bytes >= LINE_BYTES);
    }

    #[test]
    fn telemetry_collects_histograms_and_windows() {
        // The histograms only: windows are sampled by the replay over the
        // merged stats (`tests/telemetry_invariants.rs`), so a bare
        // hierarchy reports none.
        let mut cfg = MachineConfig::mini_baseline();
        cfg.telemetry = crate::telemetry::TelemetryConfig::windowed(500);
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..20u64 {
            h.access(0, MemAccess::read(0x4000 + i * LINE_BYTES, 8), i * 100);
        }
        h.access(0, MemAccess::atomic(0x4000, 8, AtomicKind::FpAdd), 2000);
        h.finish(2100);
        let s = h.stats();
        let t = h.take_telemetry().expect("telemetry was enabled");
        // A second take yields nothing.
        assert!(h.take_telemetry().is_none());
        // One miss-latency sample per L1 miss; one lock-wait per atomic.
        assert_eq!(t.miss_latency.count(), s.l1.misses);
        assert_eq!(t.lock_wait.count(), s.atomics.executed);
        assert_eq!(t.dram_queue.count(), s.dram.reads + s.dram.writes);
        assert_eq!(t.window_cycles, 500);
        assert!(t.windows.is_empty());
    }

    #[test]
    fn disabled_telemetry_returns_none_and_identical_stats() {
        let (cfg, mut h) = mini();
        let mut cfg_on = cfg;
        cfg_on.telemetry = crate::telemetry::TelemetryConfig::windowed(256);
        let mut h_on = CacheHierarchy::new(&cfg_on);
        for i in 0..50u64 {
            let a = MemAccess::read((i % 13) * LINE_BYTES, 8);
            let t = i * 37;
            assert_eq!(h.access(0, a, t), h_on.access(0, a, t));
        }
        h.finish(5000);
        h_on.finish(5000);
        // Telemetry must not perturb timing or statistics.
        assert_eq!(h.stats(), h_on.stats());
        assert!(h.take_telemetry().is_none());
        assert!(h_on.take_telemetry().is_some());
    }
}
