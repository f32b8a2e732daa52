//! `omegabench`: the end-to-end and per-layer benchmark of the OMEGA
//! simulator (`Session::prefetch` sweeps) and of `omega-serve` (warm and
//! cold request streams). `README.md` beside this crate describes the
//! workloads, the metrics and how to run it.

pub mod alloc;
pub mod host;
pub mod hostspeed;
pub mod ledger;
pub mod metrics;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod verify;
pub mod workload;

use crate::spans::Span;
use crate::stats::{median, percentile};
use crate::workload::{Outcome, Params, Workload};
use omega_bench::Json;
use std::collections::BTreeMap;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the measured phase.
    pub seconds: f64,
    /// `--trace 1`: the traced run printing the per-layer ledger.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: omegabench --workload <sweep-natural|serve-warm|serve-cold> \
--seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--flag value` pairs.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Everything one invocation prints.
#[derive(Debug)]
pub struct Report {
    /// No operation failed and every check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Untraced runs: the same end-to-end metrics by the clock, without
    /// the host speed index, and the median speed factor.
    pub clock: Option<(ledger::Metrics, f64)>,
    /// The deterministic simulated counts.
    pub counts: ledger::Metrics,
    /// Where and how the numbers were made.
    pub host: Json,
    /// What failed, for the log.
    pub problems: Vec<String>,
}

fn run_workload(p: &Params, parent: &Span) -> Outcome {
    match p.workload {
        Workload::SweepNatural => sweep::run(p, parent),
        Workload::ServeWarm => serving::run_warm(p, parent),
        Workload::ServeCold => serving::run_cold(p, parent),
    }
}

/// Median over the measured intervals of verified results per second,
/// normalised or by the clock.
fn results_per_s(o: &Outcome, normalised: bool) -> f64 {
    let rates: Vec<f64> = o
        .intervals
        .iter()
        .map(|i| i.results / i.times(normalised).0)
        .collect();
    median(&rates)
}

/// The end-to-end metrics of an untraced measured phase, in
/// reference-host units or by the clock.
fn end_to_end_values(o: &Outcome, normalised: bool) -> BTreeMap<String, f64> {
    let cpu_ms: Vec<f64> = o
        .intervals
        .iter()
        .map(|i| i.times(normalised).1 * 1e3 / i.results.max(1.0))
        .collect();
    let peak_mb: Vec<f64> = o
        .intervals
        .iter()
        .map(|i| i.peak_heap as f64 / 1e6)
        .collect();
    let setup: Vec<f64> = o.setup_s.iter().map(|t| t.get(normalised)).collect();
    let latency: Vec<f64> = o.latencies_ms.iter().map(|t| t.get(normalised)).collect();
    [
        ("setup_s", median(&setup)),
        ("results_per_s", results_per_s(o, normalised)),
        ("cpu_ms_per_result", median(&cpu_ms)),
        ("p50_ms", percentile(&latency, 0.50)),
        ("p90_ms", percentile(&latency, 0.90)),
        ("p99_ms", percentile(&latency, 0.99)),
        ("peak_heap_mb", median(&peak_mb)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Runs one invocation: an untraced measured phase, or (with `--trace
/// 1`) an untraced and a traced half followed by the per-layer ledger.
pub fn run(args: &Args) -> Report {
    let p = Params {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.workload.scale(),
        jobs: host::nproc(),
    };
    let host = host::record();
    if !args.trace {
        let o = run_workload(&p, &Span::root("run"));
        log_speed(&o);
        let values = end_to_end_values(&o, true);
        let clock = (
            end_to_end_values(&o, false).into_iter().collect(),
            median(&o.speed_factors),
        );
        let counts = ledger::counts(p.workload, p.seed, p.scale, p.jobs);
        let mut report = finish(host, metrics::end_to_end(), values, counts, vec![o], vec![]);
        report.clock = Some(clock);
        return report;
    }
    let half = Params {
        seconds: p.seconds / 2.0,
        ..p
    };
    let untraced = run_workload(&half, &Span::root("run"));
    spans::enable();
    let root = Span::root("run");
    let traced = run_workload(&half, &root);
    log_speed(&untraced);
    log_speed(&traced);
    let ledger::Ledger {
        metrics: layer,
        counts,
        mut problems,
    } = ledger::run(&p, &root);
    drop(root);
    let spans = spans::take();
    let nesting = spans::nesting_errors(&spans);
    if nesting > 0 {
        problems.push(format!("{nesting} spans escape their parent"));
    }
    print_self_times(&spans);
    write_spans(&p, &host, &spans);
    let mut values: BTreeMap<String, f64> =
        layer.into_iter().chain(counts.iter().cloned()).collect();
    values.extend(traced.layer.iter().cloned());
    let (u, t) = (results_per_s(&untraced, true), results_per_s(&traced, true));
    values.insert("untraced.results_per_s".into(), u);
    values.insert("traced.results_per_s".into(), t);
    values.insert("tracing.overhead_pct".into(), (u - t) / u * 100.0);
    values.insert("trace.spans".into(), spans.len() as f64);
    values.insert("host.speed_factor".into(), median(&traced.speed_factors));
    finish(
        host,
        metrics::per_layer(),
        values,
        counts,
        vec![untraced, traced],
        problems,
    )
}

/// Reports on stderr how the clock and the host speed index compared.
fn log_speed(o: &Outcome) {
    eprintln!(
        "measured {:.2} s by the clock = {:.2} reference-host s; speed factors median {:.3}, range {:.3}-{:.3} over {} intervals",
        o.raw_wall_s,
        o.intervals.iter().map(|i| i.wall_s).sum::<f64>(),
        median(&o.speed_factors),
        o.speed_factors.iter().copied().fold(f64::INFINITY, f64::min),
        o.speed_factors.iter().copied().fold(0.0, f64::max),
        o.speed_factors.len()
    );
}

fn finish(
    host: Json,
    catalogue: Vec<metrics::MetricDef>,
    values: BTreeMap<String, f64>,
    counts: ledger::Metrics,
    outcomes: Vec<Outcome>,
    mut problems: Vec<String>,
) -> Report {
    let mut metrics = Vec::new();
    for d in catalogue {
        match values.get(&d.name) {
            Some(&v) => metrics.push((d.name, d.unit, v)),
            None => problems.push(format!("metric {} was not measured", d.name)),
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    for o in outcomes {
        attempted += o.attempted;
        failed += o.failed;
        problems.extend(o.problems);
    }
    Report {
        correct: failed == 0 && problems.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
        clock: None,
        counts,
        host,
        problems,
    }
}

fn print_self_times(spans: &[spans::SpanRecord]) {
    let mut rows: Vec<(String, (u64, u64, u64))> = spans::self_times(spans).into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    eprintln!(
        "{:<40} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in rows.iter().take(30) {
        eprintln!(
            "{name:<40} {count:>8} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
}

fn write_spans(p: &Params, host: &Json, spans: &[spans::SpanRecord]) {
    let mut doc = spans::to_json(spans);
    doc.set("host", host.clone());
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.json", p.workload.name(), p.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.dump())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// One-line JSON: the format of every line the benchmark prints on
/// stdout. Non-finite numbers become `null`.
pub fn compact(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.is_finite() => format!("{n}"),
        Json::Num(_) => "null".into(),
        Json::Str(s) => {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        Json::Arr(items) => {
            let parts: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", parts.join(", "))
        }
        Json::Obj(entries) => {
            let parts: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Json::Str(k.clone())), compact(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, unit, value) in &self.metrics {
            let mut m = Json::obj();
            m.set("value", Json::Num(*value));
            m.set("unit", Json::Str(unit.to_string()));
            metrics.set(name, m);
        }
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct));
        o.set("attempted", Json::Num(self.attempted as f64));
        o.set("failed", Json::Num(self.failed as f64));
        o.set("metrics", metrics);
        o
    }

    /// The clock line of an untraced run: the end-to-end metrics as the
    /// clock read them, next to the median speed factor that the result
    /// line's figures were divided by.
    pub fn clock_json(&self) -> Option<Json> {
        let (values, factor) = self.clock.as_ref()?;
        let mut clock = Json::obj();
        for (k, v) in values {
            clock.set(k, Json::Num(*v));
        }
        let mut o = Json::obj();
        o.set("clock", clock);
        o.set("speed_factor", Json::Num(*factor));
        Some(o)
    }

    /// The counts line.
    pub fn counts_json(&self) -> Json {
        let mut counts = Json::obj();
        for (k, v) in &self.counts {
            counts.set(k, Json::Num(*v));
        }
        let mut o = Json::obj();
        o.set("counts", counts);
        o
    }
}
