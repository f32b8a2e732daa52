//! Helpers shared by the live-server suites: specs on the sd dataset at
//! tiny scale, the offline ground-truth payload, and `stats` polling.

// Each suite compiles its own copy and uses only some of the helpers.
#![allow(dead_code)]

use omega_bench::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_bench::Json;
use omega_core::runner::Runner;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_serve::Client;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const SCALE: DatasetScale = DatasetScale::Tiny;

pub fn spec(algo: AlgoKey, machine: MachineKind) -> ExperimentSpec {
    ExperimentSpec::new(Dataset::Sd, algo, machine)
}

/// The payload the server must answer for `spec` at [`SCALE`], as the
/// tree `run_report_to_json` gives the report of the plain `Runner` (the
/// wire carries no telemetry, so `spec` has it off).
pub fn expected_tree(spec: ExperimentSpec) -> Json {
    let g = spec.dataset.build(SCALE).expect("registry dataset builds");
    let sys = spec.system();
    let report = Runner::new(sys).run(&g, spec.algo.algo(&g));
    run_report_to_json(&report, &sys)
}

/// [`expected_tree`], dumped.
pub fn expected_payload(spec: ExperimentSpec) -> String {
    expected_tree(spec).dump()
}

/// Polls `stats` until `pred` holds, failing loudly after 30s.
pub fn await_stats(addr: SocketAddr, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let mut client = Client::connect(addr).expect("connect for polling");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats poll");
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {}",
            stats.dump()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(|v| v.as_u64()).expect("counter")
}
