//! `omega-serve` — the long-running analytics service.
//!
//! ```text
//! omega-serve [--addr HOST:PORT] [--port-file PATH] [--store DIR]
//!             [--jobs N] [--queue-depth N]
//!             [--memo-entries N] [--memo-ttl-ms N] [--job-delay-ms N]
//!             [--profile] [--profile-out FILE] [--trace FILE]
//! ```
//!
//! Binds (port 0 picks a free port; `--port-file` publishes the actual
//! address for scripts), serves until a client sends `shutdown`, then
//! drains and exits. Obs flags profile the whole server lifetime: the
//! profile/trace is written after the drain completes.

use omega_serve::{serve, ServeConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: omega-serve [--addr HOST:PORT] [--port-file PATH] [--store DIR] \
[--jobs N] [--queue-depth N] [--memo-entries N] [--memo-ttl-ms N] \
[--job-delay-ms N] [--profile] [--profile-out FILE] [--trace FILE]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("omega-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServeConfig::default();
    let mut port_file: Option<String> = None;
    let mut obs = omega_bench::ObsOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match obs.try_parse_flag(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return fail(&e.to_string()),
        }
        macro_rules! value {
            () => {
                match it.next() {
                    Some(v) => v,
                    None => return fail(&format!("{arg} needs a value")),
                }
            };
        }
        match arg.as_str() {
            "--addr" => config.addr = value!(),
            "--port-file" => port_file = Some(value!()),
            "--store" => config.store = Some(value!().into()),
            "--jobs" => match value!().parse() {
                Ok(n) => config.jobs = n,
                Err(e) => return fail(&format!("--jobs: {e}")),
            },
            "--queue-depth" => match value!().parse() {
                Ok(n) => config.queue_depth = n,
                Err(e) => return fail(&format!("--queue-depth: {e}")),
            },
            "--memo-entries" => match value!().parse() {
                Ok(n) => config.memo_entries = n,
                Err(e) => return fail(&format!("--memo-entries: {e}")),
            },
            "--memo-ttl-ms" => match value!().parse() {
                Ok(n) => config.memo_ttl_ms = n,
                Err(e) => return fail(&format!("--memo-ttl-ms: {e}")),
            },
            "--job-delay-ms" => match value!().parse() {
                Ok(n) => config.job_delay_ms = n,
                Err(e) => return fail(&format!("--job-delay-ms: {e}")),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }

    obs.install();
    let workers = config.effective_workers();
    let queue = config.queue_depth;
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("omega-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    eprintln!("omega-serve: listening on {addr} (workers={workers}, queue={queue})");
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("omega-serve: cannot write port file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    handle.wait();
    eprintln!("omega-serve: drained, exiting");
    if let Err(e) = obs.finish() {
        eprintln!("omega-serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
