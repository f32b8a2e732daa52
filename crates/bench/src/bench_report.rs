//! Serialisation of micro-benchmark and sweep measurements into the
//! stable `omega-bench-report/v1` JSON schema (`BENCH_sim.json`).
//!
//! Every CI run emits one of these snapshots from the `bench` binary:
//! the microbench distributions (min / median / max ns-per-iter, see
//! [`crate::microbench`]) plus wall-clock sweep measurements — notably the
//! cold `figures all` sweep at `jobs=1` (the serial baseline) and
//! `jobs=4`, so the parallel-sweep speedup is recorded honestly in the
//! same file, next to the host's CPU count without which the two cannot
//! be read. `stats bench-diff OLD NEW` renders the per-benchmark delta
//! table CI prints as the perf trajectory.

use crate::json::Json;
use crate::microbench::BenchResult;
use crate::table::Table;

/// Schema identifier embedded in every bench report.
pub const BENCH_REPORT_SCHEMA: &str = "omega-bench-report/v1";

/// One wall-clock sweep measurement (whole-harness, not per-iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMeasurement {
    /// Sweep label, e.g. `figures_all_cold`.
    pub name: String,
    /// Dataset scale the sweep ran at.
    pub scale: String,
    /// How many experiments (`--jobs`) the sweep ran at once.
    pub jobs: usize,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
}

/// A parsed `omega-bench-report/v1` snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Micro-benchmark distributions, in execution order.
    pub benchmarks: Vec<BenchResult>,
    /// Wall-clock sweep measurements.
    pub sweeps: Vec<SweepMeasurement>,
    /// CPUs available to the run (`host.nproc`,
    /// [`std::thread::available_parallelism`]); `None` for snapshots
    /// written before the field existed.
    pub nproc: Option<usize>,
}

impl BenchReport {
    /// The wall-clock of the named sweep at a given jobs level, if
    /// recorded.
    pub fn sweep_ms(&self, name: &str, jobs: usize) -> Option<f64> {
        self.sweeps
            .iter()
            .find(|s| s.name == name && s.jobs == jobs)
            .map(|s| s.wall_ms)
    }

    /// Speedup of the named sweep at `jobs` over its `jobs=1` serial
    /// baseline recorded in the same report.
    pub fn sweep_speedup(&self, name: &str, jobs: usize) -> Option<f64> {
        let serial = self.sweep_ms(name, 1)?;
        let parallel = self.sweep_ms(name, jobs)?;
        (parallel > 0.0).then(|| serial / parallel)
    }
}

/// Serialises a bench report. Keys are emitted in a fixed order so
/// snapshots diff cleanly as text.
pub fn bench_report_to_json(report: &BenchReport) -> Json {
    let mut root = Json::obj();
    root.set("schema", Json::Str(BENCH_REPORT_SCHEMA.to_string()));
    root.set(
        "benchmarks",
        Json::Arr(
            report
                .benchmarks
                .iter()
                .map(|b| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(b.name.clone()));
                    o.set("samples", Json::Num(b.samples as f64));
                    o.set("iters", Json::Num(b.iters as f64));
                    o.set("min_ns", Json::Num(b.min_ns));
                    o.set("median_ns", Json::Num(b.median_ns));
                    o.set("max_ns", Json::Num(b.max_ns));
                    o.set("mean_ns", Json::Num(b.mean_ns));
                    o.set("stddev_ns", Json::Num(b.stddev_ns));
                    o
                })
                .collect(),
        ),
    );
    if let Some(nproc) = report.nproc {
        let mut host = Json::obj();
        host.set("nproc", Json::Num(nproc as f64));
        root.set("host", host);
    }
    root.set(
        "sweeps",
        Json::Arr(
            report
                .sweeps
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(s.name.clone()));
                    o.set("scale", Json::Str(s.scale.clone()));
                    o.set("jobs", Json::Num(s.jobs as f64));
                    o.set("wall_ms", Json::Num(s.wall_ms));
                    o
                })
                .collect(),
        ),
    );
    root
}

fn field_f64(o: &Json, key: &str) -> Result<f64, String> {
    o.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn field_str(o: &Json, key: &str) -> Result<String, String> {
    Ok(o.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))?
        .to_string())
}

/// Parses a bench report, validating the schema tag.
pub fn bench_report_from_json(j: &Json) -> Result<BenchReport, String> {
    match j.get("schema").and_then(Json::as_str) {
        Some(BENCH_REPORT_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing schema tag".to_string()),
    }
    let mut report = BenchReport::default();
    for b in j
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("missing benchmarks array")?
    {
        report.benchmarks.push(BenchResult {
            name: field_str(b, "name")?,
            samples: field_f64(b, "samples")? as usize,
            iters: field_f64(b, "iters")? as u64,
            min_ns: field_f64(b, "min_ns")?,
            median_ns: field_f64(b, "median_ns")?,
            max_ns: field_f64(b, "max_ns")?,
            mean_ns: field_f64(b, "mean_ns")?,
            // Tolerant: snapshots written before the field existed (the
            // committed BENCH_sim.json baseline) parse as zero noise.
            stddev_ns: b.get("stddev_ns").and_then(Json::as_f64).unwrap_or(0.0),
        });
    }
    for s in j
        .get("sweeps")
        .and_then(Json::as_array)
        .ok_or("missing sweeps array")?
    {
        report.sweeps.push(SweepMeasurement {
            name: field_str(s, "name")?,
            scale: field_str(s, "scale")?,
            jobs: field_f64(s, "jobs")? as usize,
            wall_ms: field_f64(s, "wall_ms")?,
        });
    }
    // Tolerant like `stddev_ns`: the committed baseline has no host block.
    report.nproc = j
        .get("host")
        .and_then(|h| h.get("nproc"))
        .and_then(Json::as_f64)
        .map(|n| n as usize);
    Ok(report)
}

fn pct(old: f64, new: f64) -> String {
    if old <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (new - old) / old * 100.0)
}

/// `±2σ` band, as a percentage of the old median — the scale a delta must
/// clear before it means anything. Empty when neither snapshot recorded a
/// stddev (pre-field baselines parse as zero noise).
fn noise_band(old: &BenchResult, new: &BenchResult) -> String {
    let sd = old.stddev_ns.max(new.stddev_ns);
    if sd <= 0.0 || old.median_ns <= 0.0 {
        return String::new();
    }
    format!("±{:.1}%", 2.0 * sd / old.median_ns * 100.0)
}

/// Wall-clock sweep regressions beyond `threshold_pct`, comparing each of
/// `new`'s sweeps against the matching `(name, scale, jobs)` entry in
/// `old`. Returns `(label, old_ms, new_ms, regress_pct)` rows — empty
/// means the gate passes. Sweeps present in only one snapshot never fail
/// the gate.
pub fn sweep_regressions(
    old: &BenchReport,
    new: &BenchReport,
    threshold_pct: f64,
) -> Vec<(String, f64, f64, f64)> {
    let mut out = Vec::new();
    for s in &new.sweeps {
        let Some(o) = old
            .sweeps
            .iter()
            .find(|o| o.name == s.name && o.scale == s.scale && o.jobs == s.jobs)
        else {
            continue;
        };
        if o.wall_ms <= 0.0 {
            continue;
        }
        let regress = (s.wall_ms - o.wall_ms) / o.wall_ms * 100.0;
        if regress > threshold_pct {
            out.push((
                format!("{} [{} jobs={}]", s.name, s.scale, s.jobs),
                o.wall_ms,
                s.wall_ms,
                regress,
            ));
        }
    }
    out
}

/// Per-benchmark delta table between two snapshots (the CI perf
/// trajectory). Medians are compared for micro-benchmarks, wall-clock for
/// sweeps; entries present in only one snapshot are marked. Informational
/// — rendering never fails on drift.
pub fn bench_delta_table(old: &BenchReport, new: &BenchReport) -> Table {
    let mut t = Table::new(["benchmark", "old", "new", "delta", "noise"]);
    for b in &new.benchmarks {
        match old.benchmarks.iter().find(|o| o.name == b.name) {
            Some(o) => t.row([
                b.name.clone(),
                format!("{:.1} ns", o.median_ns),
                format!("{:.1} ns", b.median_ns),
                pct(o.median_ns, b.median_ns),
                noise_band(o, b),
            ]),
            None => t.row([
                b.name.clone(),
                "—".to_string(),
                format!("{:.1} ns", b.median_ns),
                "new".to_string(),
                String::new(),
            ]),
        };
    }
    for o in &old.benchmarks {
        if !new.benchmarks.iter().any(|b| b.name == o.name) {
            t.row([
                o.name.clone(),
                format!("{:.1} ns", o.median_ns),
                "—".to_string(),
                "removed".to_string(),
            ]);
        }
    }
    for s in &new.sweeps {
        let label = format!("{} [{} jobs={}]", s.name, s.scale, s.jobs);
        match old
            .sweeps
            .iter()
            .find(|o| o.name == s.name && o.scale == s.scale && o.jobs == s.jobs)
        {
            Some(o) => t.row([
                label,
                format!("{:.0} ms", o.wall_ms),
                format!("{:.0} ms", s.wall_ms),
                pct(o.wall_ms, s.wall_ms),
            ]),
            None => t.row([
                label,
                "—".to_string(),
                format!("{:.0} ms", s.wall_ms),
                "new".to_string(),
            ]),
        };
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            benchmarks: vec![
                BenchResult {
                    name: "pipeline/replay_baseline".into(),
                    samples: 10,
                    iters: 1000,
                    min_ns: 90.0,
                    median_ns: 100.0,
                    max_ns: 130.0,
                    mean_ns: 105.0,
                    stddev_ns: 8.0,
                },
                BenchResult {
                    name: "substrate/csr_build".into(),
                    samples: 10,
                    iters: 5000,
                    min_ns: 10.0,
                    median_ns: 11.0,
                    max_ns: 12.0,
                    mean_ns: 11.2,
                    stddev_ns: 0.5,
                },
            ],
            sweeps: vec![
                SweepMeasurement {
                    name: "figures_all_cold".into(),
                    scale: "small".into(),
                    jobs: 1,
                    wall_ms: 40_000.0,
                },
                SweepMeasurement {
                    name: "figures_all_cold".into(),
                    scale: "small".into(),
                    jobs: 4,
                    wall_ms: 15_000.0,
                },
            ],
            nproc: Some(4),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let r = sample();
        let text = bench_report_to_json(&r).dump();
        let parsed = bench_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn host_nproc_round_trips_through_json() {
        let text = bench_report_to_json(&sample()).dump();
        let j = Json::parse(&text).unwrap();
        let host = j.get("host").expect("host block is written");
        assert_eq!(host.get("nproc").and_then(Json::as_f64), Some(4.0));
        assert_eq!(bench_report_from_json(&j).unwrap().nproc, Some(4));
    }

    #[test]
    fn snapshots_without_a_host_block_parse_with_unknown_nproc() {
        // The committed BENCH_sim.json predates the field.
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json"))
                .unwrap();
        let old = bench_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(old.nproc, None);
        assert!(!old.benchmarks.is_empty());
        // Writing it back out omits the block rather than inventing a count.
        assert!(bench_report_to_json(&old).get("host").is_none());
    }

    #[test]
    fn schema_tag_is_enforced() {
        let mut j = bench_report_to_json(&sample());
        j.set("schema", Json::Str("bogus/v0".into()));
        assert!(bench_report_from_json(&j).is_err());
        assert!(bench_report_from_json(&Json::obj()).is_err());
    }

    #[test]
    fn sweep_speedup_uses_serial_baseline_from_same_report() {
        let r = sample();
        let s = r.sweep_speedup("figures_all_cold", 4).unwrap();
        assert!((s - 40_000.0 / 15_000.0).abs() < 1e-12);
        assert!(r.sweep_speedup("missing", 4).is_none());
    }

    #[test]
    fn stddev_field_is_optional_when_parsing() {
        // A snapshot written before the field existed (the committed
        // baseline) must still parse, with zero noise.
        let mut b = Json::obj();
        b.set("name", Json::Str("x".into()));
        b.set("samples", Json::Num(2.0));
        b.set("iters", Json::Num(10.0));
        b.set("min_ns", Json::Num(1.0));
        b.set("median_ns", Json::Num(2.0));
        b.set("max_ns", Json::Num(3.0));
        b.set("mean_ns", Json::Num(2.0));
        let mut j = Json::obj();
        j.set("schema", Json::Str(BENCH_REPORT_SCHEMA.into()));
        j.set("benchmarks", Json::Arr(vec![b]));
        j.set("sweeps", Json::Arr(vec![]));
        let r = bench_report_from_json(&j).unwrap();
        assert_eq!(r.benchmarks[0].stddev_ns, 0.0);
    }

    #[test]
    fn sweep_regression_gate_trips_only_beyond_threshold() {
        let old = sample();
        let mut new = sample();
        assert!(sweep_regressions(&old, &new, 10.0).is_empty());
        new.sweeps[0].wall_ms = 50_000.0; // +25% over the 40 s baseline
        let hits = sweep_regressions(&old, &new, 10.0);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].0.contains("jobs=1"), "{:?}", hits[0]);
        assert!((hits[0].3 - 25.0).abs() < 1e-9);
        assert!(sweep_regressions(&old, &new, 30.0).is_empty());
        // Sweeps present in only one snapshot never trip the gate.
        new.sweeps.push(SweepMeasurement {
            name: "brand_new".into(),
            scale: "small".into(),
            jobs: 1,
            wall_ms: 1e9,
        });
        assert!(sweep_regressions(&old, &new, 30.0).is_empty());
    }

    #[test]
    fn delta_table_covers_changed_new_and_removed() {
        let old = sample();
        let mut new = sample();
        new.benchmarks[0].median_ns = 50.0; // improved
        new.benchmarks.remove(1); // removed
        new.benchmarks.push(BenchResult {
            name: "pipeline/new_bench".into(),
            samples: 5,
            iters: 10,
            min_ns: 1.0,
            median_ns: 2.0,
            max_ns: 3.0,
            mean_ns: 2.0,
            stddev_ns: 0.1,
        });
        let t = bench_delta_table(&old, &new);
        let rendered = t.render();
        assert!(rendered.contains("-50.0%"), "{rendered}");
        assert!(rendered.contains("new"), "{rendered}");
        assert!(rendered.contains("removed"), "{rendered}");
        assert!(rendered.contains("figures_all_cold"), "{rendered}");
    }
}
