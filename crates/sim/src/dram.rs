//! Off-chip memory model: DDR3-like channels with a fixed access latency
//! and per-channel bandwidth occupancy (Table III: 4×DDR3-1600, 12.8 GB/s
//! per channel).
//!
//! Each line-sized request occupies its channel for
//! `bytes / bytes_per_cycle` cycles; requests to a busy channel queue. The
//! busy-cycle counter divided by elapsed time is the Fig. 16 "DRAM bandwidth
//! utilisation" metric.

use crate::audit::AuditReport;
use crate::config::DramConfig;
use crate::obs::IntervalRecorder;
use crate::stats::DramStats;
use crate::telemetry::LatencyHistogram;
use crate::{Cycle, LINE_BYTES};

/// DRAM row span covered by one row-buffer entry, in bytes. Because
/// channels are line-interleaved, a sequential stream revisits each
/// channel's open row every `channels` lines.
pub const ROW_SPAN_BYTES: u64 = 8192;
/// Access latency when the open row already holds the address (open-page
/// policy row hit).
pub const ROW_HIT_LATENCY: u32 = 18;
/// Extra precharge latency when an open row must be closed first
/// (open-page row conflict).
pub const ROW_CONFLICT_EXTRA: u32 = 12;

/// Row-buffer management policy for one access (§IX.3 of the paper
/// proposes a *hybrid*: close-page for the randomly-accessed cold vtxProp,
/// open-page for streams like the edge list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowMode {
    /// Leave the row open after the access: later hits to the same row are
    /// fast, conflicts pay a precharge.
    OpenPage,
    /// Precharge immediately: flat latency, no row state.
    ClosePage,
}

/// Multi-channel DRAM with fixed latency plus bandwidth contention.
///
/// Contention is a per-channel *leaky-bucket backlog*: each access adds its
/// transfer occupancy to the channel's backlog, which drains one cycle per
/// cycle of simulated time; an access is delayed by the backlog ahead of
/// it. This keeps genuine bandwidth saturation visible while staying
/// robust to the replay engine's bounded per-core time divergence (hard
/// `busy-until` reservations would charge lagging cores phantom waits).
/// # Example
///
/// ```
/// use omega_sim::dram::{DramModel, RowMode};
/// use omega_sim::DramConfig;
///
/// let mut dram = DramModel::new(DramConfig {
///     channels: 4,
///     latency: 60,
///     bytes_per_cycle: 6.4,
///     default_mode: RowMode::ClosePage,
/// });
/// let done = dram.access_line(0x1000, false, 0);
/// assert_eq!(done, 60 + 10); // 64 B at 6.4 B/cycle occupies 10 cycles
/// assert_eq!(dram.stats().reads, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    channel_backlog: Vec<u64>,
    channel_last: Vec<Cycle>,
    // Conservation ledger: per-channel transfer occupancy. The auditor
    // cross-checks its sum against the global `busy_cycles` counter.
    channel_busy: Vec<u64>,
    open_row: Vec<Option<u64>>,
    stats: DramStats,
    // Per-access queue-delay histogram; None (no per-access cost beyond
    // one branch) unless telemetry is enabled.
    queue_histogram: Option<Box<LatencyHistogram>>,
    // Simulated per-channel busy windows for the obs timeline; None (one
    // branch per access) unless a trace session is active at construction.
    busy_windows: Option<Box<IntervalRecorder>>,
}

impl DramModel {
    /// Creates the DRAM model.
    pub fn new(cfg: DramConfig) -> Self {
        DramModel {
            channel_backlog: vec![0; cfg.channels],
            channel_last: vec![0; cfg.channels],
            channel_busy: vec![0; cfg.channels],
            open_row: vec![None; cfg.channels],
            busy_windows: IntervalRecorder::if_active("dram.ch", cfg.channels),
            cfg,
            stats: DramStats::default(),
            queue_histogram: None,
        }
    }

    /// Flushes recorded simulated busy windows into the obs registry.
    /// No-op (one branch) when no trace session was active at build time.
    pub fn flush_obs(&mut self) {
        if let Some(w) = self.busy_windows.as_deref_mut() {
            w.flush();
        }
    }

    /// Starts recording the per-access queue delay (cycles each request
    /// spends waiting behind its channel's backlog) into a histogram.
    pub fn enable_telemetry(&mut self) {
        self.queue_histogram = Some(Box::default());
    }

    /// Takes the queue-delay histogram collected since
    /// [`Self::enable_telemetry`], leaving telemetry disabled.
    pub fn take_queue_histogram(&mut self) -> Option<LatencyHistogram> {
        self.queue_histogram.take().map(|h| *h)
    }

    /// Issues a line-granularity access at `now`; returns its completion
    /// cycle. `is_write` distinguishes writebacks (which are posted — the
    /// returned cycle is when the channel is free again, but callers
    /// typically do not wait on it).
    pub fn access_line(&mut self, addr: u64, is_write: bool, now: Cycle) -> Cycle {
        self.access(
            addr,
            LINE_BYTES as u32,
            is_write,
            self.cfg.default_mode,
            now,
        )
    }

    /// Issues an access of `bytes` under the configured default row policy
    /// (word-granularity DRAM access is one of the paper's §IX future-work
    /// extensions; the model supports it so the ablation can explore it).
    pub fn access_bytes(&mut self, addr: u64, bytes: u32, is_write: bool, now: Cycle) -> Cycle {
        self.access(addr, bytes, is_write, self.cfg.default_mode, now)
    }

    /// Issues an access with an explicit row-buffer policy — the hook for
    /// the paper's §IX.3 hybrid page policy (close-page for cold vtxProp,
    /// open-page for streamed structures).
    pub fn access(
        &mut self,
        addr: u64,
        bytes: u32,
        is_write: bool,
        mode: RowMode,
        now: Cycle,
    ) -> Cycle {
        let ch = ((addr / LINE_BYTES) % self.cfg.channels as u64) as usize;
        let occupancy = ((bytes as f64 / self.cfg.bytes_per_cycle).ceil() as u64).max(1);
        // Row-buffer state.
        let row = addr / ROW_SPAN_BYTES;
        let latency = match mode {
            RowMode::ClosePage => {
                // Flat latency; any open row is implicitly closed.
                self.open_row[ch] = None;
                self.cfg.latency as u64
            }
            RowMode::OpenPage => {
                self.stats.open_page_accesses += 1;
                match self.open_row[ch] {
                    Some(open) if open == row => {
                        self.stats.row_hits += 1;
                        ROW_HIT_LATENCY as u64
                    }
                    Some(_) => {
                        self.stats.row_conflicts += 1;
                        self.open_row[ch] = Some(row);
                        (self.cfg.latency + ROW_CONFLICT_EXTRA) as u64
                    }
                    None => {
                        self.stats.row_opens += 1;
                        self.open_row[ch] = Some(row);
                        self.cfg.latency as u64
                    }
                }
            }
        };
        // Drain the backlog by the time elapsed since the last arrival. A
        // lagging requester (now behind the channel's last arrival) lands
        // in the channel's past: the backlog there is phantom from its
        // point of view, so it neither waits behind it nor adds to it —
        // the same rule the crossbar applies to lagging senders.
        let last = self.channel_last[ch];
        let ahead = if now < last {
            0
        } else {
            let drained = self.channel_backlog[ch].saturating_sub(now - last);
            self.channel_last[ch] = now;
            self.channel_backlog[ch] = drained + occupancy;
            drained
        };
        self.stats.queue_cycles += ahead;
        if let Some(h) = self.queue_histogram.as_deref_mut() {
            h.record(ahead);
        }
        self.channel_busy[ch] += occupancy;
        self.stats.busy_cycles += occupancy;
        self.stats.bytes += bytes as u64;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        debug_assert_eq!(
            self.channel_busy.iter().sum::<u64>(),
            self.stats.busy_cycles,
            "per-channel occupancy must reconcile with the busy counter"
        );
        // Wait behind the queued work, then pay row access + transfer.
        let completion = now + ahead + latency + occupancy;
        if let Some(w) = self.busy_windows.as_deref_mut() {
            // The transfer occupies the channel for the final `occupancy`
            // cycles of the access; back-to-back windows coalesce.
            w.record(ch, completion - occupancy, completion);
        }
        completion
    }

    /// Activity statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Transfer occupancy accumulated on `channel`.
    pub fn channel_busy(&self, channel: usize) -> u64 {
        self.channel_busy[channel]
    }

    /// Checks the DRAM model's flow-conservation invariants into `out`:
    /// `busy_cycles` equals the per-channel occupancy sum, every access is
    /// a read or a write, the open-page row outcomes partition their
    /// accesses, and (when telemetry is live) the queue histogram has one
    /// sample per access summing to `queue_cycles`.
    pub fn audit_into(&self, out: &mut AuditReport) {
        let s = &self.stats;
        let accesses = s.reads + s.writes;
        let ledger: u64 = self.channel_busy.iter().sum();
        out.check(
            "dram",
            "busy_cycles == sum of per-channel occupancy",
            s.busy_cycles == ledger,
            || format!("busy {} vs channel ledger {}", s.busy_cycles, ledger),
        );
        out.check(
            "dram",
            "every access occupies its channel at least one cycle",
            s.busy_cycles >= accesses,
            || format!("busy {} < {} accesses", s.busy_cycles, accesses),
        );
        out.check(
            "dram",
            "row outcomes exactly partition the open-page accesses",
            s.row_hits + s.row_conflicts + s.row_opens == s.open_page_accesses,
            || {
                format!(
                    "hits {} + conflicts {} + opens {} != {} open-page accesses",
                    s.row_hits, s.row_conflicts, s.row_opens, s.open_page_accesses
                )
            },
        );
        out.check(
            "dram",
            "open-page accesses never outnumber accesses",
            s.open_page_accesses <= accesses,
            || {
                format!(
                    "{} open-page accesses > {} accesses",
                    s.open_page_accesses, accesses
                )
            },
        );
        if let Some(h) = self.queue_histogram.as_deref() {
            out.check(
                "dram",
                "queue histogram has one sample per access",
                h.count() == accesses,
                || format!("{} samples, {} accesses", h.count(), accesses),
            );
            out.check(
                "dram",
                "queue histogram sums to queue_cycles",
                h.sum() == s.queue_cycles as u128,
                || format!("histogram sum {}, counter {}", h.sum(), s.queue_cycles),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig {
            channels: 2,
            latency: 100,
            bytes_per_cycle: 6.4,
            default_mode: RowMode::ClosePage,
        })
    }

    #[test]
    fn uncontended_access_latency() {
        let mut d = model();
        let t = d.access_line(0, false, 50);
        // 64 / 6.4 = 10 cycles occupancy.
        assert_eq!(t, 50 + 100 + 10);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().bytes, 64);
    }

    #[test]
    fn same_channel_back_to_back_queues() {
        let mut d = model();
        let t1 = d.access_line(0, false, 0);
        let t2 = d.access_line(0x80, false, 0); // lines 0 and 2 → both channel 0
        assert_eq!(
            t2,
            t1 + 10,
            "second access waits behind the first's transfer"
        );
        assert_eq!(d.stats().queue_cycles, 10);
        // After the backlog drains, no more queueing.
        let t3 = d.access_line(0x100, false, 10_000);
        assert_eq!(t3, 10_000 + 100 + 10);
    }

    #[test]
    fn different_channels_overlap() {
        let mut d = model();
        let t1 = d.access_line(0, false, 0);
        let t2 = d.access_line(0x40, false, 0); // line 1 → channel 1
        assert_eq!(t1, t2);
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn writes_counted_separately() {
        let mut d = model();
        d.access_line(0, true, 0);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn word_access_occupies_less() {
        let mut d = model();
        let base = d.access_bytes(0, 8, false, 0);
        assert_eq!(base, 100 + 2); // ceil(8/6.4)=2
        assert_eq!(d.stats().bytes, 8);
    }

    #[test]
    fn open_page_rewards_row_locality() {
        let mut d = model();
        // Sequential lines on channel 0 share a row under open-page.
        let first = d.access(0, 64, false, RowMode::OpenPage, 0);
        let second = d.access(0x80, 64, false, RowMode::OpenPage, 5000);
        assert_eq!(first, 110);
        assert_eq!(second, 5000 + ROW_HIT_LATENCY as u64 + 10);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_opens, 1, "the first access opened the row");
        assert_eq!(d.stats().row_conflicts, 0);
    }

    #[test]
    fn open_page_conflict_pays_precharge() {
        let mut d = model();
        d.access(0, 64, false, RowMode::OpenPage, 0);
        // A different row on the same channel conflicts.
        let t = d.access(ROW_SPAN_BYTES * 2, 64, false, RowMode::OpenPage, 5000);
        assert_eq!(t, 5000 + (100 + ROW_CONFLICT_EXTRA) as u64 + 10);
        assert_eq!(d.stats().row_conflicts, 1);
        // Hit + conflict + open partition the open-page accesses exactly.
        let s = d.stats();
        assert_eq!(
            s.row_hits + s.row_conflicts + s.row_opens,
            s.reads + s.writes
        );
    }

    #[test]
    fn close_page_never_hits_rows() {
        let mut d = model();
        d.access(0, 64, false, RowMode::ClosePage, 0);
        d.access(0x80, 64, false, RowMode::ClosePage, 5000);
        assert_eq!(d.stats().row_hits, 0);
        // Close-page accesses track no row state at all: the denominator
        // for row-locality ratios is the open-page population only.
        assert_eq!(d.stats().row_conflicts, 0);
        assert_eq!(d.stats().row_opens, 0);
    }

    #[test]
    fn close_page_closes_open_rows() {
        let mut d = model();
        d.access(0, 64, false, RowMode::OpenPage, 0);
        d.access(0x80, 64, false, RowMode::ClosePage, 5000);
        // The row was closed: no hit afterwards.
        let t = d.access(0x100, 64, false, RowMode::OpenPage, 10_000);
        assert_eq!(t, 10_000 + 100 + 10);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn queue_histogram_sums_to_queue_cycles() {
        let mut d = model();
        d.enable_telemetry();
        for i in 0..10 {
            d.access_line(i * 0x80, false, 0); // all channel 0: backlog grows
        }
        let s = d.stats();
        let h = d.take_queue_histogram().unwrap();
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), s.queue_cycles as u128);
        assert!(h.quantile(1.0).unwrap() >= h.quantile(0.5).unwrap());
        // Telemetry is one-shot: taking it disables further recording.
        assert!(d.take_queue_histogram().is_none());
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let mut d = model();
        for i in 0..10 {
            d.access_line(i * 0x80, false, 0); // all channel 0
        }
        let s = d.stats();
        assert_eq!(s.busy_cycles, 100);
        assert!((s.utilization(100, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lagging_access_stats_match_its_latency() {
        let mut d = model();
        d.enable_telemetry();
        // Build a genuine backlog far in the future on channel 0.
        for i in 0..10 {
            d.access_line(i * 0x80, false, 1_000_000);
        }
        let q = d.stats().queue_cycles;
        assert!(q > 0, "the pile-up itself must register queueing");
        // A lagging requester sees a free channel: flat latency, and the
        // stats agree — no phantom queue charge.
        let t = d.access_line(0x200, false, 10);
        assert_eq!(t, 10 + 100 + 10);
        assert_eq!(
            d.stats().queue_cycles,
            q,
            "a lagging access must not be charged the future backlog"
        );
        let s = d.stats();
        let h = d.take_queue_histogram().unwrap();
        assert_eq!(h.count(), s.reads + s.writes);
        assert_eq!(h.sum(), s.queue_cycles as u128);
    }

    #[test]
    fn audit_passes_on_mixed_traffic() {
        let mut d = model();
        d.enable_telemetry();
        for i in 0..40u64 {
            let mode = if i % 3 == 0 {
                RowMode::OpenPage
            } else {
                RowMode::ClosePage
            };
            d.access(i * 0x50, 64, i % 2 == 0, mode, i * 7);
        }
        let mut report = AuditReport::default();
        d.audit_into(&mut report);
        assert!(report.is_clean(), "{report}");
        assert_eq!(d.channel_busy(0) + d.channel_busy(1), d.stats().busy_cycles);
    }
}
