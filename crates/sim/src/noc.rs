//! Crossbar interconnect model.
//!
//! The paper's setup (Table III) is a 16-port crossbar with a 128-bit bus
//! and an average remote-access latency of ≈17 cycles. Each packet pays the
//! switch traversal plus its serialisation time
//! (`ceil(bytes / bytes_per_cycle)`), and every byte (payload + header) is
//! counted — this is the quantity behind Fig. 17 ("OMEGA reduces on-chip
//! traffic by over 3x"), where OMEGA wins by moving 1–8-byte words instead
//! of 64-byte lines.
//!
//! Port occupancy is tracked statistically (busy cycles per port) rather
//! than as hard reservations: the replay engine executes cores with
//! bounded time divergence, and hard reservations would charge a lagging
//! core the full divergence window as phantom queueing. The
//! [`NocStats::contention_cycles`] counter reports genuine oversubscription
//! pressure — the amount by which packet arrivals outpace each port's
//! drain rate within the run.

use crate::audit::AuditReport;
use crate::config::NocConfig;
use crate::obs::IntervalRecorder;
use crate::stats::NocStats;
use crate::telemetry::LatencyHistogram;
use crate::Cycle;

/// A crossbar with per-packet serialisation and per-port occupancy
/// accounting.
///
/// # Example
///
/// ```
/// use omega_sim::noc::Crossbar;
/// use omega_sim::NocConfig;
///
/// let cfg = NocConfig { latency: 8, bytes_per_cycle: 16, header_bytes: 8 };
/// let mut xbar = Crossbar::new(cfg, 16);
/// // A word-sized scratchpad packet: 8 B payload + 8 B header → 1 cycle
/// // of serialisation after the 8-cycle switch traversal.
/// let arrival = xbar.send(3, 8, 100);
/// assert_eq!(arrival, 109);
/// assert_eq!(xbar.stats().bytes, 16);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    cfg: NocConfig,
    port_busy_cycles: Vec<u64>,
    port_last_arrival: Vec<Cycle>,
    port_backlog: Vec<u64>,
    stats: NocStats,
    // Conservation ledger: packets that paid serialisation through
    // `account()`. The auditor cross-checks it against `stats.packets`
    // to catch legs that bump traffic counters without occupying a port.
    accounted_packets: u64,
    // Per-packet contention histogram; None (one branch per packet)
    // unless telemetry is enabled.
    contention_histogram: Option<Box<LatencyHistogram>>,
    // Simulated per-port contention bursts for the obs timeline; None
    // (one branch per packet) unless a trace session is active at
    // construction.
    contention_bursts: Option<Box<IntervalRecorder>>,
}

impl Crossbar {
    /// Creates a crossbar with `ports` destination ports.
    pub fn new(cfg: NocConfig, ports: usize) -> Self {
        Crossbar {
            cfg,
            port_busy_cycles: vec![0; ports],
            port_last_arrival: vec![0; ports],
            port_backlog: vec![0; ports],
            stats: NocStats::default(),
            accounted_packets: 0,
            contention_histogram: None,
            contention_bursts: IntervalRecorder::if_active("noc.port", ports),
        }
    }

    /// Flushes recorded simulated contention bursts into the obs registry.
    /// No-op (one branch) when no trace session was active at build time.
    pub fn flush_obs(&mut self) {
        if let Some(b) = self.contention_bursts.as_deref_mut() {
            b.flush();
        }
    }

    /// Starts recording per-packet port contention (queueing beyond the
    /// packet's own serialisation; zero for uncontended packets) into a
    /// histogram.
    pub fn enable_telemetry(&mut self) {
        self.contention_histogram = Some(Box::default());
    }

    /// Takes the contention histogram collected since
    /// [`Self::enable_telemetry`], leaving telemetry disabled.
    pub fn take_contention_histogram(&mut self) -> Option<LatencyHistogram> {
        self.contention_histogram.take().map(|h| *h)
    }

    fn serialisation(&self, payload_bytes: u32) -> u64 {
        let bytes = payload_bytes + self.cfg.header_bytes;
        (bytes as u64)
            .div_ceil(self.cfg.bytes_per_cycle as u64)
            .max(1)
    }

    /// Accounts one packet to `dst` arriving at `at`: tracks the port's
    /// drained backlog so sustained oversubscription shows up as
    /// contention, without hard cross-core reservations.
    fn account(&mut self, dst: usize, ser: u64, at: Cycle) {
        let last = self.port_last_arrival[dst];
        let contention = if at < last {
            // A lagging sender lands in the port's past: the latency model
            // gives it the port immediately (see
            // `lagging_sender_is_not_charged_phantom_queueing`), so the
            // stats must not charge it the outstanding future backlog
            // either, and its serialisation is already drained by `last`.
            0
        } else {
            // Drain the backlog by the time elapsed since the last
            // arrival; whatever survives is genuine queueing ahead of
            // this packet.
            let drained = self.port_backlog[dst].saturating_sub(at - last);
            self.port_last_arrival[dst] = at;
            self.port_backlog[dst] = drained + ser;
            drained
        };
        self.stats.contention_cycles += contention;
        if let Some(h) = self.contention_histogram.as_deref_mut() {
            h.record(contention);
        }
        if let Some(b) = self.contention_bursts.as_deref_mut() {
            if contention > 0 {
                // The packet queues from its arrival until the backlog
                // ahead of it drains; adjacent bursts coalesce.
                b.record(dst, at, at + contention);
            }
        }
        self.port_busy_cycles[dst] += ser;
        self.accounted_packets += 1;
    }

    /// Sends `payload_bytes` to `dst`; returns the arrival cycle
    /// (`now + switch latency + serialisation`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send(&mut self, dst: usize, payload_bytes: u32, now: Cycle) -> Cycle {
        let ser = self.serialisation(payload_bytes);
        let arrive = now + self.cfg.latency as u64 + ser;
        self.account(dst, ser, arrive);
        self.stats.packets += 1;
        self.stats.bytes += (payload_bytes + self.cfg.header_bytes) as u64;
        debug_assert_eq!(
            self.accounted_packets, self.stats.packets,
            "every counted packet must pay serialisation through account()"
        );
        arrive
    }

    /// A round trip: a small request to `dst` followed by a
    /// `response_bytes` reply. Returns the cycle the response arrives back.
    ///
    /// Both legs go through [`Self::send`]: the response serialises on the
    /// crossbar like any other packet, so busy cycles, contention, and the
    /// telemetry histogram stay consistent with `packets`/`bytes`. (The
    /// reply is charged to `dst`'s port pair — the crossbar does not track
    /// the requester's port.)
    pub fn round_trip(
        &mut self,
        dst: usize,
        request_bytes: u32,
        response_bytes: u32,
        now: Cycle,
    ) -> Cycle {
        let req_done = self.send(dst, request_bytes, now);
        self.send(dst, response_bytes, req_done)
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Busy cycles accumulated at `port`.
    pub fn port_busy(&self, port: usize) -> u64 {
        self.port_busy_cycles[port]
    }

    /// Number of destination ports.
    pub fn ports(&self) -> usize {
        self.port_busy_cycles.len()
    }

    /// Checks the crossbar's flow-conservation invariants into `out`:
    /// every counted packet went through `account()`, per-port busy cycles
    /// bound the byte count under the configured bandwidth, and (when
    /// telemetry is live) the contention histogram has one sample per
    /// packet summing to `contention_cycles`.
    pub fn audit_into(&self, out: &mut AuditReport) {
        out.check(
            "noc",
            "accounted_packets == packets",
            self.accounted_packets == self.stats.packets,
            || {
                format!(
                    "{} packets paid serialisation, {} counted",
                    self.accounted_packets, self.stats.packets
                )
            },
        );
        let busy: u64 = self.port_busy_cycles.iter().sum();
        let bpc = self.cfg.bytes_per_cycle as u64;
        // Σ ceil(bytes_i/bpc) ≥ ceil(Σ bytes_i / bpc): missing legs (bytes
        // counted without serialisation) break the lower bound.
        out.check(
            "noc",
            "port busy cycles cover the byte count",
            busy >= self.stats.bytes.div_ceil(bpc),
            || {
                format!(
                    "busy {} < ceil({} B / {} B/cyc)",
                    busy, self.stats.bytes, bpc
                )
            },
        );
        // Each packet rounds up by < 1 cycle (plus the 1-cycle floor), so
        // busy can exceed bytes/bpc by at most one cycle per packet.
        out.check(
            "noc",
            "port busy cycles bounded by bytes + one cycle per packet",
            busy <= self.stats.bytes / bpc + self.stats.packets,
            || {
                format!(
                    "busy {} > {} B / {} B/cyc + {} packets",
                    busy, self.stats.bytes, bpc, self.stats.packets
                )
            },
        );
        if let Some(h) = self.contention_histogram.as_deref() {
            out.check(
                "noc",
                "contention histogram has one sample per packet",
                h.count() == self.stats.packets,
                || format!("{} samples, {} packets", h.count(), self.stats.packets),
            );
            out.check(
                "noc",
                "contention histogram sums to contention_cycles",
                h.sum() == self.stats.contention_cycles as u128,
                || {
                    format!(
                        "histogram sum {}, counter {}",
                        h.sum(),
                        self.stats.contention_cycles
                    )
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig {
            latency: 8,
            bytes_per_cycle: 16,
            header_bytes: 8,
        }
    }

    #[test]
    fn latency_is_switch_plus_serialisation() {
        let mut x = Crossbar::new(cfg(), 4);
        // 56B payload + 8B header = 64B → 4 cycles serialisation.
        let t = x.send(0, 56, 100);
        assert_eq!(t, 100 + 8 + 4);
    }

    #[test]
    fn bytes_count_headers() {
        let mut x = Crossbar::new(cfg(), 4);
        x.send(0, 8, 0);
        assert_eq!(x.stats().bytes, 16);
        assert_eq!(x.stats().packets, 1);
    }

    #[test]
    fn word_packets_cost_less_than_line_packets() {
        let mut a = Crossbar::new(cfg(), 1);
        let mut b = Crossbar::new(cfg(), 1);
        let t_word = a.round_trip(0, 8, 8, 0);
        let t_line = b.round_trip(0, 8, 64, 0);
        assert!(t_word < t_line);
        assert!(a.stats().bytes < b.stats().bytes);
    }

    #[test]
    fn round_trip_counts_two_packets() {
        let mut x = Crossbar::new(cfg(), 2);
        x.enable_telemetry();
        let t = x.round_trip(1, 8, 64, 10);
        assert_eq!(x.stats().packets, 2);
        // 8+8=16B req → 1 cycle; 64+8=72 → 5 cycles resp.
        assert_eq!(t, 10 + 8 + 1 + 8 + 5);
        // The response leg pays serialisation like the request: the port
        // is busy for both legs and the histogram sees both packets.
        assert_eq!(x.port_busy(1), 1 + 5);
        assert_eq!(x.stats().bytes, 16 + 72);
        let h = x.take_contention_histogram().unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn port_busy_accumulates_per_destination() {
        let mut x = Crossbar::new(cfg(), 2);
        x.send(0, 56, 0);
        x.send(0, 56, 100);
        x.send(1, 8, 100);
        assert_eq!(x.port_busy(0), 8);
        assert_eq!(x.port_busy(1), 1);
    }

    #[test]
    fn sustained_oversubscription_registers_contention() {
        let mut x = Crossbar::new(cfg(), 1);
        // 64-byte packets every cycle need 4 cycles each: backlog grows.
        for t in 0..100 {
            x.send(0, 56, t);
        }
        assert!(x.stats().contention_cycles > 0);
        // A trickle does not.
        let mut y = Crossbar::new(cfg(), 1);
        for t in 0..100 {
            y.send(0, 56, t * 50);
        }
        assert_eq!(y.stats().contention_cycles, 0);
    }

    #[test]
    fn contention_histogram_sums_to_contention_cycles() {
        let mut x = Crossbar::new(cfg(), 1);
        x.enable_telemetry();
        for t in 0..100 {
            x.send(0, 56, t);
        }
        let s = x.stats();
        let h = x.take_contention_histogram().unwrap();
        // One sample per accounted packet, zeros included.
        assert_eq!(h.count(), s.packets);
        assert_eq!(h.sum(), s.contention_cycles as u128);
        assert!(x.take_contention_histogram().is_none());
    }

    #[test]
    fn lagging_sender_is_not_charged_phantom_queueing() {
        let mut x = Crossbar::new(cfg(), 1);
        // A core far ahead in time reserves nothing for the laggard.
        x.send(0, 56, 1_000_000);
        let t = x.send(0, 56, 10);
        assert_eq!(t, 10 + 8 + 4);
    }

    #[test]
    fn lagging_sender_stats_match_its_latency() {
        let mut x = Crossbar::new(cfg(), 1);
        x.enable_telemetry();
        // Pile up a genuine backlog far in the future: ten 4-cycle packets
        // arriving on the same cycle.
        for _ in 0..10 {
            x.send(0, 56, 1_000_000);
        }
        let ahead = x.stats().contention_cycles;
        assert!(ahead > 0, "the pile-up itself must register contention");
        // The laggard's latency is uncontended, so its stats must be too.
        let t = x.send(0, 56, 10);
        assert_eq!(t, 10 + 8 + 4);
        assert_eq!(
            x.stats().contention_cycles,
            ahead,
            "a lagging sender must not be charged the future backlog"
        );
        // Still one histogram sample (a zero) per packet.
        let s = x.stats();
        let h = x.take_contention_histogram().unwrap();
        assert_eq!(h.count(), s.packets);
        assert_eq!(h.sum(), s.contention_cycles as u128);
    }

    #[test]
    fn audit_passes_on_mixed_traffic() {
        let mut x = Crossbar::new(cfg(), 4);
        x.enable_telemetry();
        for t in 0..50 {
            x.send((t % 4) as usize, 56, t);
            x.round_trip(((t + 1) % 4) as usize, 8, 64, t);
        }
        let mut report = AuditReport::default();
        x.audit_into(&mut report);
        assert!(report.is_clean(), "{report}");
    }
}
