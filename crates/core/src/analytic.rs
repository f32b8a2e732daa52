//! The high-level performance model of §X "Scalability to large datasets"
//! (Fig. 20).
//!
//! For graphs too large to simulate cycle-by-cycle (the paper's `uk` and
//! `twitter`), the paper estimates performance from first-order
//! quantities: the number of vtxProp accesses served on-chip (from a
//! hit-rate estimate), a 100-cycle DRAM access, a 17-cycle remote
//! scratchpad access, and PISC-equivalent atomic costs on the baseline
//! (a conservative choice the paper makes explicitly). This module
//! implements that model:
//!
//! * vtxProp accesses (≈ one per edge, plus a source read when the
//!   algorithm reads source properties) hit on-chip storage with a
//!   probability given by the graph's degree-skew curve — the fraction of
//!   arcs incident to however many hottest vertices the storage holds;
//! * edgeList streaming is charged at line granularity against DRAM
//!   bandwidth;
//! * the baseline serialises atomics (pipeline hold), while OMEGA issues
//!   them fire-and-forget, bounded by aggregate PISC throughput;
//! * ordinary loads overlap up to the core's outstanding-access window.
//!
//! The model's validation against the detailed simulator is part of the
//! Fig. 20 harness output (the paper reports ≤7% error for its own model;
//! ours is reported honestly by the harness).

use crate::config::SystemConfig;
use omega_graph::{stats, CsrGraph};
use omega_ligra::algorithms::Algo;
use omega_sim::LINE_BYTES;

/// First-order workload description extracted from a graph + algorithm.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Vertices.
    pub n: u64,
    /// Stored arcs (edge updates ≈ one per arc).
    pub arcs: u64,
    /// vtxProp bytes per vertex (all arrays).
    pub prop_bytes: u32,
    /// Bytes per arc record.
    pub arc_bytes: u32,
    /// Whether the update reads the source's property per edge.
    pub reads_src: bool,
    /// Whether destination updates are atomic.
    pub atomic_updates: bool,
    /// Degree-skew curve: `coverage(k)` = fraction of arcs whose
    /// destination is among the `k` most-connected vertices.
    skew: Vec<(u64, f64)>,
}

impl WorkloadProfile {
    /// Builds a profile for `algo` on `g` (which must be in canonical hot
    /// order, as produced by the dataset registry).
    pub fn from_graph(g: &CsrGraph, algo: Algo) -> Self {
        let s = stats::degree_stats(g);
        let n = g.num_vertices() as u64;
        // Sample the coverage curve at a few prefix sizes.
        let fractions = [0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.0];
        let skew = fractions
            .iter()
            .map(|&f| (((n as f64) * f).ceil() as u64, s.in_connectivity(f)))
            .collect();
        let spec = algo.spec();
        WorkloadProfile {
            n,
            arcs: g.num_arcs(),
            prop_bytes: spec.vtx_prop_bytes,
            arc_bytes: if g.is_weighted() { 8 } else { 4 },
            reads_src: spec.reads_src_prop,
            atomic_updates: true,
            skew,
        }
    }

    /// Interpolated fraction of arcs covered by the `k` hottest vertices.
    pub fn coverage(&self, k: u64) -> f64 {
        if self.n == 0 || k == 0 {
            return 0.0;
        }
        let k = k.min(self.n);
        let mut prev = (0u64, 0.0f64);
        for &(kk, cov) in &self.skew {
            if k <= kk {
                let span = (kk - prev.0).max(1) as f64;
                let t = (k - prev.0) as f64 / span;
                return prev.1 + t * (cov - prev.1);
            }
            prev = (kk, cov);
        }
        1.0
    }
}

/// Cycle estimate for one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEstimate {
    /// Estimated total cycles.
    pub cycles: f64,
    /// Fraction of vtxProp accesses served on-chip.
    pub onchip_fraction: f64,
}

const SVB_HIT_RATE: f64 = 0.7; // repeated source reads within an edge scan

/// Estimates the cycles for `profile` on `system`.
///
/// # Example
///
/// ```
/// use omega_core::analytic::{estimate, WorkloadProfile};
/// use omega_core::config::SystemConfig;
/// use omega_graph::{generators, reorder};
/// use omega_ligra::algorithms::Algo;
///
/// let g = generators::rmat(10, 8, generators::RmatParams::default(), 1)?;
/// let (g, _) = reorder::canonical_hot_order(&g);
/// let profile = WorkloadProfile::from_graph(&g, Algo::PageRank { iters: 1 });
/// let base = estimate(&profile, &SystemConfig::mini_baseline());
/// let omega = estimate(&profile, &SystemConfig::mini_omega());
/// assert!(omega.cycles < base.cycles);
/// # Ok::<(), omega_graph::GraphError>(())
/// ```
pub fn estimate(profile: &WorkloadProfile, system: &SystemConfig) -> AnalyticEstimate {
    let m = &system.machine;
    let cores = m.core.n_cores as f64;
    let mlp = m.core.max_outstanding as f64;
    let dram = m.dram.latency as f64;
    let remote = 2.0 * m.noc.latency as f64 + 1.0; // the paper's ≈17-cycle crossbar round trip
    let edges = profile.arcs as f64;

    // How many of the hottest vertices fit on-chip? Destination-update
    // cost per edge, by machine.
    let (onchip_fraction, dst_cost, pisc_bound) = match system.omega() {
        None => {
            // Baseline: the L2 retains roughly its capacity's worth of the
            // hottest vtxProp entries (LRU keeps what is touched most).
            let cap_vertices = m.l2.capacity * m.core.n_cores as u64 / profile.prop_bytes as u64;
            let h = profile.coverage(cap_vertices);
            let hit_cost = m.l2.latency as f64 + remote;
            let miss_cost = dram;
            let mut avg = h * hit_cost + (1.0 - h) * miss_cost;
            if profile.atomic_updates {
                // Atomics hold the pipeline: no MLP overlap, plus lock
                // overhead (the paper's §X model charges PISC-equivalent
                // cost here; we charge the measured hold).
                avg += m.atomic_overhead as f64;
            } else {
                avg /= mlp;
            }
            // No PISC on the baseline: its throughput bound never binds.
            (h, avg, 0.0)
        }
        Some(o) => {
            let slot = profile.prop_bytes as u64 + 1;
            let hot = (o.sp_bytes_per_core * m.core.n_cores as u64 / slot).min(profile.n);
            let h = profile.coverage(hot);
            // Resident updates cost only the offload stores (Fig. 13).
            let offload_issue = 4.0;
            // Cold updates still execute on the core over the (halved) L2:
            // their hit rate is the share of cold accesses the remaining
            // capacity retains.
            let cap_vertices = m.l2.capacity * m.core.n_cores as u64 / profile.prop_bytes as u64;
            let h_cold_raw = profile.coverage(hot + cap_vertices) - h;
            let h_cold = if h < 1.0 {
                (h_cold_raw / (1.0 - h)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let cold_cost = h_cold * (m.l2.latency as f64 + remote)
                + (1.0 - h_cold) * dram
                + m.atomic_overhead as f64;
            let avg = h * offload_issue + (1.0 - h) * cold_cost;
            // Aggregate PISC throughput bounds resident updates.
            let pisc_service = (2 * o.sp_latency + 3) as f64;
            let bound = h * edges * pisc_service / cores;
            (h, avg, bound)
        }
    };

    // Source-property reads: served by caches/SVB on-chip most of the time.
    let src_cost = if profile.reads_src {
        match system.omega() {
            None => m.l1.latency as f64 + 2.0,
            Some(o) => {
                let svb = if o.svb_enabled { SVB_HIT_RATE } else { 0.0 };
                svb * 1.0 + (1.0 - svb) * (remote + o.sp_latency as f64)
            }
        }
    } else {
        0.0
    };

    // Edge streaming: sequential; bandwidth-bound across the machine.
    let edge_bytes = edges * profile.arc_bytes as f64;
    let bw_cycles = edge_bytes / (m.dram.channels as f64 * m.dram.bytes_per_cycle);
    let edge_cost_per = (profile.arc_bytes as f64 / LINE_BYTES as f64) * dram / mlp;

    // Per-core serial time: issue + destination update + source read.
    let per_edge = 1.0 + dst_cost + src_cost / mlp + edge_cost_per;
    let compute = edges * per_edge / cores;
    let cycles = compute.max(bw_cycles).max(pisc_bound);
    AnalyticEstimate {
        cycles,
        onchip_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::datasets::{Dataset, DatasetScale};

    fn profile(d: Dataset) -> WorkloadProfile {
        let g = d.build(DatasetScale::Tiny).unwrap();
        WorkloadProfile::from_graph(&g, Algo::PageRank { iters: 1 })
    }

    /// Estimated `omega`-over-`baseline` speedup of PageRank on `d`, as
    /// `figures fig20` divides the two estimates.
    fn speedup(d: Dataset, baseline: &SystemConfig, omega: &SystemConfig) -> f64 {
        let p = profile(d);
        estimate(&p, baseline).cycles / estimate(&p, omega).cycles
    }

    #[test]
    fn coverage_is_monotone() {
        let p = profile(Dataset::Lj);
        let mut prev = 0.0;
        for k in [1, 10, 100, 1000, p.n] {
            let c = p.coverage(k);
            assert!(c >= prev - 1e-9, "coverage must grow with k");
            prev = c;
        }
        assert!((p.coverage(p.n) - 1.0).abs() < 1e-9);
        assert_eq!(p.coverage(0), 0.0);
    }

    #[test]
    fn omega_estimate_beats_baseline_on_power_law() {
        let s = speedup(
            Dataset::Lj,
            &SystemConfig::mini_baseline(),
            &SystemConfig::mini_omega(),
        );
        assert!(
            s > 1.2,
            "analytic speedup {s:.2} too small for a natural graph"
        );
        assert!(s < 20.0, "analytic speedup {s:.2} implausibly large");
    }

    #[test]
    fn non_power_law_speedup_is_smaller() {
        let b = SystemConfig::mini_baseline();
        let o = SystemConfig::mini_omega();
        // Shrink the scratchpad so the road network's flat vtxProp does not
        // simply fit whole (the paper's USA is far larger than on-chip
        // storage; at Tiny scale we scale the scratchpad down to match).
        let o_small = o.with_scratchpad_bytes(256);
        let s_nat = speedup(Dataset::Lj, &b, &o_small);
        let s_road = speedup(Dataset::Usa, &b, &o_small);
        assert!(
            s_nat > s_road,
            "power-law graph must benefit more: {s_nat:.2} vs {s_road:.2}"
        );
    }

    #[test]
    fn bigger_scratchpads_never_hurt() {
        let g = Dataset::Uk.build(DatasetScale::Tiny).unwrap();
        let p = WorkloadProfile::from_graph(&g, Algo::PageRank { iters: 1 });
        let mut prev = f64::INFINITY;
        for kb in [1, 2, 4, 8] {
            let sys = SystemConfig::mini_omega().with_scratchpad_bytes(kb * 1024);
            let e = estimate(&p, &sys);
            assert!(e.cycles <= prev + 1.0, "more scratchpad must not slow down");
            prev = e.cycles;
        }
    }

    #[test]
    fn onchip_fraction_tracks_skew() {
        let lj = profile(Dataset::Lj);
        let usa = profile(Dataset::Usa);
        let sys = SystemConfig::mini_omega().with_scratchpad_bytes(512);
        let e_lj = estimate(&lj, &sys);
        let e_usa = estimate(&usa, &sys);
        assert!(e_lj.onchip_fraction > e_usa.onchip_fraction);
    }
}
