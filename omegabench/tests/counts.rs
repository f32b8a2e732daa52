//! The deterministic counts repeat exactly, and the metric catalogue
//! matches `BENCHMARK.json`.

use omega_bench::Json;
use omega_graph::datasets::DatasetScale;
use omegabench::ledger::counts;
use omegabench::metrics::{end_to_end, per_layer, MetricDef};
use omegabench::workload::Workload;

#[test]
fn two_runs_with_the_same_seed_give_identical_counts() {
    for w in Workload::ALL {
        let a = counts(w, 7, DatasetScale::Tiny, 2);
        let b = counts(w, 7, DatasetScale::Tiny, 2);
        assert_eq!(a, b, "{}", w.name());
        assert!(a.iter().any(|(k, v)| k == "sim.cycles" && *v > 0.0));
        // The seed only orders the replays; the counts do not move.
        assert_eq!(a, counts(w, 8, DatasetScale::Tiny, 1), "{}", w.name());
    }
}

type Row = (String, String, String);

fn listed(doc: &Json, key: &str) -> Vec<Row> {
    let field = |m: &Json, f: &str| {
        m.get(f)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}: metric without `{f}`"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn rows(defs: Vec<MetricDef>) -> Vec<Row> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(listed(&doc, "end_to_end"), rows(end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), rows(per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
