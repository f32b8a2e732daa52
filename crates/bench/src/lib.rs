//! # omega-bench
//!
//! The benchmark harness of the OMEGA reproduction: shared experiment
//! plumbing for the `figures` binary (which regenerates every table and
//! figure of the paper) and the micro-benchmarks.
//!
//! The heart is [`Session`], a memoising runner: each
//! `(dataset, algorithm, machine)` triple is simulated once and the
//! `RunReport` reused by every figure that needs it, so `figures all`
//! does not redo work.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod bench_report;
pub mod json;
pub mod microbench;
pub mod obs_report;
pub mod report_json;
pub mod session;
pub mod store;
pub mod table;

pub use audit::{FuzzCase, FuzzOutcome, Fuzzer};
pub use bench_report::{
    bench_delta_table, bench_report_from_json, bench_report_to_json, sweep_regressions,
    BenchReport, SweepMeasurement, BENCH_REPORT_SCHEMA,
};
pub use json::Json;
pub use obs_report::{
    check_chrome_trace, chrome_trace_to_json, profile_report_to_json, profile_table, ObsOptions,
    PROFILE_REPORT_SCHEMA,
};
pub use report_json::run_report_to_json;
pub use session::{paper_sweep, ExperimentSpec, MachineKind, Session};
pub use store::ExperimentStore;
pub use table::Table;
