//! The metric catalogue: every name the benchmark prints, with its unit
//! and which direction is better. `BENCHMARK.json` lists the same names
//! (a test keeps the two in step).

use crate::workload::machine_kinds;

/// One metric's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics of an untraced run: what a user of the system sees.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("results_per_s", "1/s", "higher"),
        def("cpu_ms_per_result", "ms", "lower"),
        def("p50_ms", "ms", "lower"),
        def("p90_ms", "ms", "lower"),
        def("p99_ms", "ms", "lower"),
        def("peak_heap_mb", "MB", "lower"),
    ]
}

/// Metrics of a traced run: the per-layer ledger.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = vec![
        def("graph.build_ms", "ms", "lower"),
        def("ligra.trace_ms", "ms", "lower"),
        def("ligra.events", "count", "lower"),
        def("ligra.ns_per_event", "ns", "lower"),
        def("lower.ops", "count", "lower"),
        def("lower.ns_per_op", "ns", "lower"),
        def("engine.ns_per_op", "ns", "lower"),
    ];
    let kinds: Vec<String> = machine_kinds().iter().map(|k| k.label()).collect();
    for k in &kinds {
        out.push(def(format!("replay.{k}.ns_per_op"), "ns", "lower"));
        out.push(def(format!("mem.{k}.ns_per_op"), "ns", "lower"));
    }
    out.push(def("sim.cycles", "cycles", "lower"));
    for k in &kinds {
        out.push(def(format!("mem.{k}.l2_hit_ratio"), "ratio", "higher"));
        out.push(def(format!("mem.{k}.dram_accesses"), "count", "lower"));
        out.push(def(format!("mem.{k}.noc_packets"), "count", "lower"));
    }
    out.extend([
        def("mem.omega.sp_hit_ratio", "ratio", "higher"),
        def("session.prefetch_s", "s", "lower"),
        def("session.parallel_eff", "ratio", "higher"),
        def("store.encode_us", "us", "lower"),
        def("store.decode_us", "us", "lower"),
        def("store.write_us", "us", "lower"),
        def("store.load_us", "us", "lower"),
        def("store.hits", "count", "higher"),
        def("store.misses", "count", "lower"),
        def("store.writes", "count", "lower"),
        def("store.corrupt", "count", "lower"),
        def("serve.memo_hits", "count", "higher"),
        def("serve.store_hits", "count", "higher"),
        def("serve.computed", "count", "lower"),
        def("serve.grouped", "count", "higher"),
        def("serve.shed", "count", "lower"),
        def("serve.evictions", "count", "lower"),
        def("serve.memo_hit_ratio", "ratio", "higher"),
        def("serve.rtt_memo_us", "us", "lower"),
        def("serve.rtt_store_us", "us", "lower"),
        def("serve.rtt_computed_ms", "ms", "lower"),
        def("traced.results_per_s", "1/s", "higher"),
        def("untraced.results_per_s", "1/s", "higher"),
        def("tracing.overhead_pct", "%", "lower"),
        def("trace.spans", "count", "lower"),
        def("host.speed_factor", "ratio", "lower"),
    ]);
    out
}
