//! Serialisation of a [`RunReport`] into the stable
//! `omega-run-report/v1` JSON schema.
//!
//! The schema is the machine-readable counterpart of the `figures` tables:
//! CI archives it per run, and `stats diff` compares two of them. Keys are
//! emitted in a fixed order so reports diff cleanly as text, and every
//! quantity is either a counter (exact integer) or a dimensionless ratio.

use crate::json::Json;
use omega_core::config::SystemConfig;
use omega_core::runner::RunReport;
use omega_sim::stats::MemStats;
use omega_sim::telemetry::{LatencyHistogram, TelemetryReport};

/// Schema identifier embedded in every report.
pub const RUN_REPORT_SCHEMA: &str = "omega-run-report/v1";

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn histogram_to_json(h: &LatencyHistogram) -> Json {
    let mut o = Json::obj();
    o.set("count", num(h.count()));
    o.set("sum", Json::Num(h.sum() as f64));
    o.set("mean", Json::Num(h.mean()));
    o.set("min", h.min().map_or(Json::Null, num));
    o.set("max", h.max().map_or(Json::Null, num));
    o.set("p50", h.quantile(0.50).map_or(Json::Null, num));
    o.set("p90", h.quantile(0.90).map_or(Json::Null, num));
    o.set("p99", h.quantile(0.99).map_or(Json::Null, num));
    o.set(
        "buckets",
        Json::Arr(
            h.nonzero_buckets()
                .map(|(lo, _hi, count)| Json::Arr(vec![num(lo), num(count)]))
                .collect(),
        ),
    );
    o
}

fn mem_to_json(m: &MemStats, total_cycles: u64, system: &SystemConfig) -> Json {
    let mut l1 = Json::obj();
    l1.set("hits", num(m.l1.hits));
    l1.set("misses", num(m.l1.misses));
    l1.set("writebacks", num(m.l1.writebacks));
    l1.set("hit_rate", Json::Num(m.l1.hit_rate()));
    let mut l2 = Json::obj();
    l2.set("hits", num(m.l2.hits));
    l2.set("misses", num(m.l2.misses));
    l2.set("writebacks", num(m.l2.writebacks));
    l2.set("invalidations", num(m.l2.invalidations));
    l2.set("hit_rate", Json::Num(m.l2.hit_rate()));
    let mut noc = Json::obj();
    noc.set("packets", num(m.noc.packets));
    noc.set("bytes", num(m.noc.bytes));
    noc.set("contention_cycles", num(m.noc.contention_cycles));
    let mut dram = Json::obj();
    dram.set("reads", num(m.dram.reads));
    dram.set("writes", num(m.dram.writes));
    dram.set("bytes", num(m.dram.bytes));
    dram.set("busy_cycles", num(m.dram.busy_cycles));
    dram.set("queue_cycles", num(m.dram.queue_cycles));
    dram.set("row_hits", num(m.dram.row_hits));
    dram.set("row_conflicts", num(m.dram.row_conflicts));
    dram.set("row_opens", num(m.dram.row_opens));
    dram.set(
        "utilization",
        Json::Num(
            m.dram
                .utilization(total_cycles, system.machine.dram.channels),
        ),
    );
    let mut atomics = Json::obj();
    atomics.set("executed", num(m.atomics.executed));
    atomics.set("lock_wait_cycles", num(m.atomics.lock_wait_cycles));
    let sp = &m.scratchpad;
    let mut scratchpad = Json::obj();
    scratchpad.set("local_accesses", num(sp.local_accesses));
    scratchpad.set("remote_accesses", num(sp.remote_accesses));
    scratchpad.set("range_misses", num(sp.range_misses));
    scratchpad.set("pisc_ops", num(sp.pisc_ops));
    scratchpad.set("pisc_busy_cycles", num(sp.pisc_busy_cycles));
    scratchpad.set("svb_hits", num(sp.svb_hits));
    scratchpad.set("svb_misses", num(sp.svb_misses));
    scratchpad.set("active_list_updates", num(sp.active_list_updates));
    scratchpad.set("pim_ops", num(sp.pim_ops));
    scratchpad.set("word_dram_accesses", num(sp.word_dram_accesses));
    let mut o = Json::obj();
    o.set("l1", l1);
    o.set("l2", l2);
    o.set("noc", noc);
    o.set("dram", dram);
    o.set("atomics", atomics);
    o.set("scratchpad", scratchpad);
    o.set("last_level_hit_rate", Json::Num(m.last_level_hit_rate()));
    o
}

fn telemetry_to_json(t: &TelemetryReport, system: &SystemConfig) -> Json {
    let channels = system.machine.dram.channels;
    let mut windows = Vec::with_capacity(t.windows.len());
    let mut prev_end = 0u64;
    for w in &t.windows {
        let len = w.end.saturating_sub(prev_end);
        let mut o = Json::obj();
        o.set("end", num(w.end));
        o.set("dram_busy_cycles", num(w.delta.dram.busy_cycles));
        o.set(
            "dram_utilization",
            Json::Num(w.delta.dram.utilization(len, channels)),
        );
        o.set("dram_bytes", num(w.delta.dram.bytes));
        o.set("noc_bytes", num(w.delta.noc.bytes));
        o.set("noc_packets", num(w.delta.noc.packets));
        o.set("l2_hits", num(w.delta.l2.hits));
        o.set("l2_misses", num(w.delta.l2.misses));
        o.set("sp_accesses", num(w.delta.scratchpad.accesses()));
        o.set("pisc_busy_cycles", num(w.delta.scratchpad.pisc_busy_cycles));
        windows.push(o);
        prev_end = w.end;
    }
    let mut histograms = Json::obj();
    histograms.set("dram_queue", histogram_to_json(&t.dram_queue));
    histograms.set("noc_contention", histogram_to_json(&t.noc_contention));
    histograms.set("miss_latency", histogram_to_json(&t.miss_latency));
    histograms.set("lock_wait", histogram_to_json(&t.lock_wait));
    let mut o = Json::obj();
    o.set("window_cycles", num(t.window_cycles));
    o.set("windows", Json::Arr(windows));
    o.set("histograms", histograms);
    o
}

/// Serialises one run into the `omega-run-report/v1` schema.
pub fn run_report_to_json(r: &RunReport, system: &SystemConfig) -> Json {
    let mut root = Json::obj();
    root.set("schema", Json::Str(RUN_REPORT_SCHEMA.to_string()));
    root.set("algo", Json::Str(r.algo.clone()));
    root.set("machine", Json::Str(r.machine.clone()));
    root.set("checksum", Json::Num(r.checksum));
    root.set("total_cycles", num(r.total_cycles));

    let mut graph = Json::obj();
    graph.set("n_vertices", num(r.n_vertices));
    graph.set("n_arcs", num(r.n_arcs));
    graph.set("hot_count", num(r.hot_count as u64));
    root.set("graph", graph);

    let mut engine = Json::obj();
    engine.set("total_cycles", num(r.engine.total_cycles));
    engine.set(
        "memory_bound_fraction",
        Json::Num(r.engine.memory_bound_fraction()),
    );
    engine.set(
        "atomic_bound_fraction",
        Json::Num(r.engine.atomic_bound_fraction()),
    );
    engine.set(
        "per_core",
        Json::Arr(
            r.engine
                .per_core
                .iter()
                .map(|c| {
                    let mut o = Json::obj();
                    o.set("ops", num(c.ops));
                    o.set("compute_cycles", num(c.compute_cycles));
                    o.set("memory_stall_cycles", num(c.memory_stall_cycles));
                    o.set("atomic_stall_cycles", num(c.atomic_stall_cycles));
                    o.set("barrier_cycles", num(c.barrier_cycles));
                    o.set("drain_cycles", num(c.drain_cycles));
                    o.set("finish_time", num(c.finish_time));
                    o
                })
                .collect(),
        ),
    );
    root.set("engine", engine);

    root.set("mem", mem_to_json(&r.mem, r.total_cycles, system));

    let mut config = Json::obj();
    config.set("n_cores", num(system.machine.core.n_cores as u64));
    config.set("dram_channels", num(system.machine.dram.channels as u64));
    config.set("l2_total_bytes", num(system.machine.l2.capacity));
    config.set(
        "sp_bytes_per_core",
        system
            .omega()
            .map_or(Json::Null, |o| num(o.sp_bytes_per_core)),
    );
    root.set("config", config);

    root.set(
        "telemetry",
        r.telemetry
            .as_ref()
            .map_or(Json::Null, |t| telemetry_to_json(t, system)),
    );
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::runner::{run, RunConfig};
    use omega_graph::datasets::{Dataset, DatasetScale};
    use omega_ligra::algorithms::Algo;
    use omega_sim::telemetry::TelemetryConfig;

    fn sample_report(telemetry: bool) -> (RunReport, SystemConfig) {
        let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let mut system = SystemConfig::mini_omega();
        if telemetry {
            system.machine.telemetry = TelemetryConfig::windowed(4096);
        }
        let r = run(&g, Algo::PageRank { iters: 1 }, &RunConfig::new(system));
        (r, system)
    }

    #[test]
    fn report_round_trips_and_keeps_core_counters() {
        let (r, system) = sample_report(true);
        let j = run_report_to_json(&r, &system);
        let parsed = Json::parse(&j.dump()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(RUN_REPORT_SCHEMA)
        );
        assert_eq!(
            parsed.get("total_cycles").and_then(Json::as_u64),
            Some(r.total_cycles)
        );
        let mem = parsed.get("mem").unwrap();
        assert_eq!(
            mem.get("dram")
                .and_then(|d| d.get("bytes"))
                .and_then(Json::as_u64),
            Some(r.mem.dram.bytes)
        );
        // Telemetry was on: windows and histograms are present.
        let t = parsed.get("telemetry").unwrap();
        assert!(!t.get("windows").unwrap().as_array().unwrap().is_empty());
        let miss = t
            .get("histograms")
            .and_then(|h| h.get("miss_latency"))
            .unwrap();
        assert_eq!(
            miss.get("count").and_then(Json::as_u64),
            Some(r.mem.l1.misses)
        );
    }

    #[test]
    fn telemetry_is_null_when_disabled() {
        let (r, system) = sample_report(false);
        assert!(r.telemetry.is_none());
        let j = run_report_to_json(&r, &system);
        assert_eq!(j.get("telemetry"), Some(&Json::Null));
    }

    #[test]
    fn per_core_buckets_in_the_report_sum_to_finish_time() {
        let (r, system) = sample_report(false);
        let j = run_report_to_json(&r, &system);
        for core in j
            .get("engine")
            .and_then(|e| e.get("per_core"))
            .and_then(Json::as_array)
            .unwrap()
        {
            let f = |k: &str| core.get(k).and_then(Json::as_u64).unwrap();
            assert_eq!(
                f("compute_cycles")
                    + f("memory_stall_cycles")
                    + f("atomic_stall_cycles")
                    + f("barrier_cycles")
                    + f("drain_cycles"),
                f("finish_time")
            );
        }
    }
}
