//! Statistics counters collected by the simulator components.
//!
//! Everything is plain counters so `omega-energy` can turn activity into
//! energy, and the figure harness can print hit rates, traffic, and
//! bandwidth utilisation directly.

/// Hit/miss counters for one cache level (aggregated over instances).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
    /// Lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Accumulates another instance's counters.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.invalidations += other.invalidations;
    }

    /// Field-wise difference against an earlier snapshot (saturating, so a
    /// non-monotone snapshot can never underflow).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
        }
    }
}

/// Struct-of-arrays bank of per-instance cache counters.
///
/// The hot cache-access paths bump exactly one counter per event; keeping
/// each counter kind in its own contiguous array means an L1-hit burst
/// walks one cache line of `hits` instead of striding over whole
/// `CacheStats` records, and a per-core slice of any one kind is a plain
/// `&[u64]`. Each index is written only on behalf of one cache instance,
/// and the global view is the sum [`CoreCounters::merged`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Per-instance hit counts.
    pub hits: Vec<u64>,
    /// Per-instance miss counts.
    pub misses: Vec<u64>,
    /// Per-instance writeback counts.
    pub writebacks: Vec<u64>,
    /// Per-instance coherence-invalidation counts.
    pub invalidations: Vec<u64>,
}

impl CoreCounters {
    /// A zeroed bank for `n` cache instances.
    pub fn new(n: usize) -> Self {
        CoreCounters {
            hits: vec![0; n],
            misses: vec![0; n],
            writebacks: vec![0; n],
            invalidations: vec![0; n],
        }
    }

    /// Number of instances in the bank.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the bank holds no instances.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// One instance's counters as a [`CacheStats`] record.
    pub fn instance(&self, i: usize) -> CacheStats {
        CacheStats {
            hits: self.hits[i],
            misses: self.misses[i],
            writebacks: self.writebacks[i],
            invalidations: self.invalidations[i],
        }
    }

    /// The order-insensitive sum over all instances — the merge the public
    /// [`MemStats`] view reports.
    pub fn merged(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for i in 0..self.len() {
            total.merge(&self.instance(i));
        }
        total
    }
}

/// On-chip interconnect traffic counters (Fig. 17's quantity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Packets sent.
    pub packets: u64,
    /// Total payload + header bytes moved.
    pub bytes: u64,
    /// Cycles spent queueing behind busy ports (contention).
    pub contention_cycles: u64,
}

impl NocStats {
    /// Accumulates another instance's counters.
    pub fn merge(&mut self, other: &NocStats) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.contention_cycles += other.contention_cycles;
    }

    /// Field-wise difference against an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &NocStats) -> NocStats {
        NocStats {
            packets: self.packets.saturating_sub(earlier.packets),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            contention_cycles: self
                .contention_cycles
                .saturating_sub(earlier.contention_cycles),
        }
    }
}

/// DRAM activity counters (Fig. 16's quantity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read requests (line granularity).
    pub reads: u64,
    /// Write requests (writebacks).
    pub writes: u64,
    /// Bytes transferred in either direction.
    pub bytes: u64,
    /// Total cycles during which channels were busy transferring
    /// (summed over channels).
    pub busy_cycles: u64,
    /// Cycles requests waited behind busy channels.
    pub queue_cycles: u64,
    /// Open-page row-buffer hits (zero under the default close-page
    /// policy; populated by the §IX hybrid-policy extension).
    pub row_hits: u64,
    /// Open-page accesses that found a different row open and paid the
    /// precharge. Hits + conflicts + opens partition the open-page
    /// accesses, so Fig.-16-style row-locality ratios have an exact
    /// denominator.
    pub row_conflicts: u64,
    /// Open-page accesses that activated a closed bank (first touch after
    /// reset or after a close-page access precharged the row).
    pub row_opens: u64,
    /// Accesses issued under the open-page policy — the exact denominator
    /// of the row-outcome partition. Close-page accesses (and rank-local
    /// PIM traffic, which always precharges) contribute nothing here, so
    /// the auditor can require `row_hits + row_conflicts + row_opens ==
    /// open_page_accesses` instead of a lossy `<= accesses` bound.
    pub open_page_accesses: u64,
}

impl DramStats {
    /// Achieved bandwidth as a fraction of peak, given the elapsed cycles
    /// and the per-channel peak bytes/cycle. This is the Fig. 16
    /// "DRAM bandwidth utilisation" metric.
    pub fn utilization(&self, elapsed_cycles: u64, channels: usize) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / (elapsed_cycles as f64 * channels as f64)
    }

    /// Accumulates another instance's counters.
    pub fn merge(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes += other.bytes;
        self.busy_cycles += other.busy_cycles;
        self.queue_cycles += other.queue_cycles;
        self.row_hits += other.row_hits;
        self.row_conflicts += other.row_conflicts;
        self.row_opens += other.row_opens;
        self.open_page_accesses += other.open_page_accesses;
    }

    /// Field-wise difference against an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &DramStats) -> DramStats {
        DramStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            busy_cycles: self.busy_cycles.saturating_sub(earlier.busy_cycles),
            queue_cycles: self.queue_cycles.saturating_sub(earlier.queue_cycles),
            row_hits: self.row_hits.saturating_sub(earlier.row_hits),
            row_conflicts: self.row_conflicts.saturating_sub(earlier.row_conflicts),
            row_opens: self.row_opens.saturating_sub(earlier.row_opens),
            open_page_accesses: self
                .open_page_accesses
                .saturating_sub(earlier.open_page_accesses),
        }
    }

    /// Total requests (reads + writes) — the auditor's "accesses" side of
    /// `reads + writes == accesses`.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Per-line-locked atomic execution counters (baseline cores or PISCs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtomicStats {
    /// Atomic operations executed.
    pub executed: u64,
    /// Cycles spent serialised behind a locked line/vertex.
    pub lock_wait_cycles: u64,
}

impl AtomicStats {
    /// Accumulates another instance's counters.
    pub fn merge(&mut self, other: &AtomicStats) {
        self.executed += other.executed;
        self.lock_wait_cycles += other.lock_wait_cycles;
    }

    /// Field-wise difference against an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &AtomicStats) -> AtomicStats {
        AtomicStats {
            executed: self.executed.saturating_sub(earlier.executed),
            lock_wait_cycles: self
                .lock_wait_cycles
                .saturating_sub(earlier.lock_wait_cycles),
        }
    }
}

/// Scratchpad counters (OMEGA machines only; zero on the baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchpadStats {
    /// Accesses served by the local scratchpad.
    pub local_accesses: u64,
    /// Accesses served by a remote scratchpad over the crossbar.
    pub remote_accesses: u64,
    /// Requests that fell outside the scratchpad-resident range and went to
    /// the regular cache hierarchy.
    pub range_misses: u64,
    /// Atomic operations offloaded to PISC engines.
    pub pisc_ops: u64,
    /// Cycles PISC engines were busy.
    pub pisc_busy_cycles: u64,
    /// Source-vertex-buffer hits (§V.C).
    pub svb_hits: u64,
    /// Source-vertex-buffer misses.
    pub svb_misses: u64,
    /// Active-list update operations absorbed by scratchpad bits.
    pub active_list_updates: u64,
    /// Cold-vertex atomics offloaded to memory-side PIM engines
    /// (§IX.2 extension; zero on standard OMEGA).
    pub pim_ops: u64,
    /// Cold-vertex accesses served by word-granularity DRAM reads/writes
    /// (§IX.1 extension; zero on standard OMEGA).
    pub word_dram_accesses: u64,
}

impl ScratchpadStats {
    /// Total scratchpad data accesses (local + remote).
    pub fn accesses(&self) -> u64 {
        self.local_accesses + self.remote_accesses
    }

    /// Accumulates another instance's counters.
    pub fn merge(&mut self, other: &ScratchpadStats) {
        self.local_accesses += other.local_accesses;
        self.remote_accesses += other.remote_accesses;
        self.range_misses += other.range_misses;
        self.pisc_ops += other.pisc_ops;
        self.pisc_busy_cycles += other.pisc_busy_cycles;
        self.svb_hits += other.svb_hits;
        self.svb_misses += other.svb_misses;
        self.active_list_updates += other.active_list_updates;
        self.pim_ops += other.pim_ops;
        self.word_dram_accesses += other.word_dram_accesses;
    }

    /// Field-wise difference against an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &ScratchpadStats) -> ScratchpadStats {
        ScratchpadStats {
            local_accesses: self.local_accesses.saturating_sub(earlier.local_accesses),
            remote_accesses: self.remote_accesses.saturating_sub(earlier.remote_accesses),
            range_misses: self.range_misses.saturating_sub(earlier.range_misses),
            pisc_ops: self.pisc_ops.saturating_sub(earlier.pisc_ops),
            pisc_busy_cycles: self
                .pisc_busy_cycles
                .saturating_sub(earlier.pisc_busy_cycles),
            svb_hits: self.svb_hits.saturating_sub(earlier.svb_hits),
            svb_misses: self.svb_misses.saturating_sub(earlier.svb_misses),
            active_list_updates: self
                .active_list_updates
                .saturating_sub(earlier.active_list_updates),
            pim_ops: self.pim_ops.saturating_sub(earlier.pim_ops),
            word_dram_accesses: self
                .word_dram_accesses
                .saturating_sub(earlier.word_dram_accesses),
        }
    }
}

/// Combined memory-system statistics returned by every machine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// L1 data caches (all cores merged).
    pub l1: CacheStats,
    /// Shared L2 (all banks merged).
    pub l2: CacheStats,
    /// Crossbar traffic.
    pub noc: NocStats,
    /// Off-chip memory.
    pub dram: DramStats,
    /// Atomic execution.
    pub atomics: AtomicStats,
    /// Scratchpad + PISC (zero for the baseline).
    pub scratchpad: ScratchpadStats,
}

impl MemStats {
    /// Last-level *storage* hit rate: the paper's Fig. 15 metric. For the
    /// baseline this is the L2 hit rate; for OMEGA it counts scratchpad
    /// accesses as hits alongside L2 hits (the scratchpad never misses once
    /// a vertex is resident).
    pub fn last_level_hit_rate(&self) -> f64 {
        let hits = self.l2.hits + self.scratchpad.accesses();
        let total = self.l2.accesses() + self.scratchpad.accesses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Accumulates every component's counters from `other` — the top-level
    /// combinator machines and the window sampler use instead of
    /// hand-summing fields.
    pub fn merge(&mut self, other: &MemStats) {
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
        self.noc.merge(&other.noc);
        self.dram.merge(&other.dram);
        self.atomics.merge(&other.atomics);
        self.scratchpad.merge(&other.scratchpad);
    }

    /// Component-wise difference against an earlier snapshot: the
    /// per-window delta the [`crate::telemetry::WindowSampler`] emits.
    pub fn delta_since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            l1: self.l1.delta_since(&earlier.l1),
            l2: self.l2.delta_since(&earlier.l2),
            noc: self.noc.delta_since(&earlier.noc),
            dram: self.dram.delta_since(&earlier.dram),
            atomics: self.atomics.delta_since(&earlier.atomics),
            scratchpad: self.scratchpad.delta_since(&earlier.scratchpad),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            writebacks: 3,
            invalidations: 4,
        };
        a.merge(&CacheStats {
            hits: 10,
            misses: 20,
            writebacks: 30,
            invalidations: 40,
        });
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                misses: 22,
                writebacks: 33,
                invalidations: 44
            }
        );
    }

    #[test]
    fn core_counters_merge_matches_per_instance_sum() {
        let mut bank = CoreCounters::new(3);
        bank.hits[0] = 5;
        bank.misses[1] = 7;
        bank.writebacks[2] = 2;
        bank.invalidations[1] = 4;
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        assert_eq!(
            bank.instance(1),
            CacheStats {
                hits: 0,
                misses: 7,
                writebacks: 0,
                invalidations: 4
            }
        );
        assert_eq!(
            bank.merged(),
            CacheStats {
                hits: 5,
                misses: 7,
                writebacks: 2,
                invalidations: 4
            }
        );
        assert_eq!(CoreCounters::new(0).merged(), CacheStats::default());
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let d = DramStats {
            busy_cycles: 400,
            ..Default::default()
        };
        assert!((d.utilization(100, 4) - 1.0).abs() < 1e-12);
        assert_eq!(d.utilization(0, 4), 0.0);
    }

    #[test]
    fn mem_stats_merge_undoes_delta_since() {
        let earlier = MemStats {
            l1: CacheStats {
                hits: 5,
                misses: 2,
                writebacks: 1,
                invalidations: 0,
            },
            dram: DramStats {
                reads: 3,
                bytes: 192,
                busy_cycles: 30,
                row_hits: 2,
                row_conflicts: 1,
                row_opens: 1,
                ..Default::default()
            },
            noc: NocStats {
                packets: 4,
                bytes: 288,
                contention_cycles: 7,
            },
            atomics: AtomicStats {
                executed: 2,
                lock_wait_cycles: 11,
            },
            scratchpad: ScratchpadStats {
                local_accesses: 9,
                pisc_ops: 3,
                pisc_busy_cycles: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut later = earlier;
        later.merge(&earlier); // later = 2 × earlier
        let delta = later.delta_since(&earlier);
        assert_eq!(delta, earlier);
        let mut rebuilt = earlier;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, later);
    }

    #[test]
    fn delta_since_saturates_instead_of_underflowing() {
        let a = MemStats::default();
        let b = MemStats {
            l1: CacheStats {
                hits: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(a.delta_since(&b), MemStats::default());
    }

    #[test]
    fn last_level_hit_rate_counts_scratchpad_as_hits() {
        let m = MemStats {
            l2: CacheStats {
                hits: 10,
                misses: 10,
                ..Default::default()
            },
            scratchpad: ScratchpadStats {
                local_accesses: 60,
                remote_accesses: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((m.last_level_hit_rate() - 0.9).abs() < 1e-12);
    }
}
