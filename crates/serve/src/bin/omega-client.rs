//! `omega-client` — command-line client for a running `omega-serve`.
//!
//! ```text
//! omega-client run      --addr HOST:PORT [--scale S] [--retry N] <dataset> <algo> [machine]
//! omega-client batch    --addr HOST:PORT [--scale S] [--pipeline|--grouped] SPEC...
//! omega-client stats    --addr HOST:PORT                        # SPEC = dataset:algo[:machine]
//! omega-client ping     --addr HOST:PORT
//! omega-client shutdown --addr HOST:PORT
//! ```
//!
//! `run` and `stats` print the payload JSON on stdout. `batch` issues
//! every spec over one connection and prints a one-line outcome per
//! spec plus a summary; it exits non-zero if any request was shed or
//! failed. Batch has three wire shapes:
//!
//! * default — sequential calls, one at a time;
//! * `--pipeline` — up to `MAX_IN_FLIGHT` requests are written ahead of
//!   the responses read; the server computes them concurrently and
//!   responses are matched back by frame id;
//! * `--grouped` — one server-side `batch` request, so specs sharing
//!   `(dataset, algo)` ride one queue slot and one functional trace.
//!
//! `--retry N` retries `busy` responses up to N times with capped
//! jittered backoff (deterministic per `--seed`).

use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_serve::proto::RunRequest;
use omega_serve::{Client, Response, RetryPolicy};
use std::process::ExitCode;

const USAGE: &str = "usage: omega-client <run|batch|stats|ping|shutdown> --addr HOST:PORT \
[--scale S] [--retry N] [--seed S] [--pipeline|--grouped] [args...]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("omega-client: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

enum BatchMode {
    Sequential,
    Pipelined,
    Grouped,
}

struct Cli {
    addr: Option<String>,
    scale: DatasetScale,
    retries: u32,
    seed: u64,
    mode: BatchMode,
    rest: Vec<String>,
}

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: None,
        scale: DatasetScale::Small,
        retries: 0,
        seed: 0xC0FFEE,
        mode: BatchMode::Sequential,
        rest: Vec::new(),
    };
    let mut it = args;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cli.addr = Some(it.next().ok_or("--addr needs a value")?),
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                cli.scale = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--retry" => {
                let v = it.next().ok_or("--retry needs a value")?;
                cli.retries = v.parse().map_err(|e| format!("--retry: {e}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cli.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--pipeline" => cli.mode = BatchMode::Pipelined,
            "--grouped" => cli.mode = BatchMode::Grouped,
            _ => cli.rest.push(arg),
        }
    }
    Ok(cli)
}

/// Parses `dataset:algo[:machine]`.
fn parse_spec(text: &str) -> Result<ExperimentSpec, String> {
    let parts: Vec<&str> = text.split(':').collect();
    let (d, a, m) = match parts.as_slice() {
        [d, a] => (*d, *a, None),
        [d, a, m] => (*d, *a, Some(*m)),
        _ => return Err(format!("spec `{text}` is not dataset:algo[:machine]")),
    };
    let dataset: Dataset = d.parse().map_err(|e| format!("{e}"))?;
    let algo: AlgoKey = a.parse().map_err(|e| format!("{e}"))?;
    let machine: MachineKind = match m {
        Some(m) => m.parse().map_err(|e| format!("{e}"))?,
        None => MachineKind::Omega,
    };
    Ok(ExperimentSpec::new(dataset, algo, machine))
}

fn connect(cli: &Cli) -> Result<Client, String> {
    let addr = cli.addr.as_deref().ok_or("missing --addr HOST:PORT")?;
    let client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    Ok(if cli.retries > 0 {
        client.with_retry(RetryPolicy::new(cli.retries, cli.seed))
    } else {
        client
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return fail("missing command");
    };
    let cli = match parse_cli(args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&cli),
        "batch" => cmd_batch(&cli),
        "stats" => cmd_stats(&cli),
        "ping" => cmd_simple(&cli, |c| c.ping().map(|()| "pong".to_string())),
        "shutdown" => cmd_simple(&cli, |c| c.shutdown().map(|()| "draining".to_string())),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return fail(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    let dataset = cli.rest.first().ok_or("run: missing dataset")?;
    let algo = cli.rest.get(1).ok_or("run: missing algo")?;
    let machine = cli.rest.get(2).map(String::as_str);
    let spec = parse_spec(&match machine {
        Some(m) => format!("{dataset}:{algo}:{m}"),
        None => format!("{dataset}:{algo}"),
    })?;
    let mut client = connect(cli)?;
    let payload = client
        .run_payload(RunRequest {
            spec,
            scale: cli.scale,
        })
        .map_err(|e| e.to_string())?;
    print!("{}", payload.dump());
    Ok(ExitCode::SUCCESS)
}

fn cmd_batch(cli: &Cli) -> Result<ExitCode, String> {
    if cli.rest.is_empty() {
        return Err("batch: no specs given".into());
    }
    let specs: Vec<ExperimentSpec> = cli
        .rest
        .iter()
        .map(|s| parse_spec(s))
        .collect::<Result<_, _>>()?;
    let runs: Vec<RunRequest> = specs
        .iter()
        .map(|&spec| RunRequest {
            spec,
            scale: cli.scale,
        })
        .collect();
    let mut client = connect(cli)?;
    let responses: Vec<Response> = match cli.mode {
        BatchMode::Sequential => runs
            .iter()
            .map(|&run| client.run(run))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        BatchMode::Pipelined => client.run_pipelined(&runs).map_err(|e| e.to_string())?,
        BatchMode::Grouped => client.batch(&runs).map_err(|e| e.to_string())?,
    };
    let (mut ok, mut busy, mut failed) = (0u32, 0u32, 0u32);
    for (spec, resp) in specs.iter().zip(responses) {
        match resp {
            Response::Ok(payload) => {
                ok += 1;
                let cycles = payload
                    .get("total_cycles")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
                println!("ok   {} total_cycles={cycles}", spec.label());
            }
            Response::Busy {
                queue_depth,
                queue_limit,
            } => {
                busy += 1;
                println!("busy {} ({queue_depth}/{queue_limit})", spec.label());
            }
            Response::Error { code, message } => {
                failed += 1;
                println!("err  {} {code}: {message}", spec.label());
            }
        }
    }
    println!("batch: {ok} ok, {busy} busy, {failed} errors");
    Ok(if busy == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_stats(cli: &Cli) -> Result<ExitCode, String> {
    let mut client = connect(cli)?;
    let payload = client.stats().map_err(|e| e.to_string())?;
    print!("{}", payload.dump());
    Ok(ExitCode::SUCCESS)
}

fn cmd_simple(
    cli: &Cli,
    f: impl FnOnce(&mut Client) -> Result<String, omega_core::OmegaError>,
) -> Result<ExitCode, String> {
    let mut client = connect(cli)?;
    let msg = f(&mut client).map_err(|e| e.to_string())?;
    println!("{msg}");
    Ok(ExitCode::SUCCESS)
}
