//! `omegabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host line, a deterministic-counts line, on untraced runs a
//! clock line, and, last, the result line `{"correct", "attempted",
//! "failed", "metrics"}`. Exits 1 when any
//! operation failed or a check did not pass, 2 on bad arguments.

use omegabench::alloc::CountingAlloc;
use omegabench::{compact, Args, USAGE};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omegabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = omegabench::run(&args);
    for p in &report.problems {
        eprintln!("omegabench: FAILED: {p}");
    }
    let mut host = omega_bench::Json::obj();
    host.set("host", report.host.clone());
    println!("{}", compact(&host));
    println!("{}", compact(&report.counts_json()));
    if let Some(clock) = report.clock_json() {
        println!("{}", compact(&clock));
    }
    println!("{}", compact(&report.result_json()));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
