//! Lossless [`RunReport`] and [`TraceSummary`] ⇄ [`Json`] codec for the
//! experiment store.
//!
//! The public `omega-run-report/v1` schema (see [`crate::report_json`]) is
//! a *presentation* format: it rounds histogram sums to `f64`, keeps only
//! selected per-window fields, and has no parser back to a `RunReport`.
//! The store needs the opposite trade-off — every bit of the report must
//! survive a disk round trip so a warm run is `==` to the simulation that
//! produced it — so entries use this private full-fidelity encoding:
//!
//! * `u64` counters use a JSON number while exactly representable
//!   (< 2^53) and fall back to a decimal string above that;
//! * the `u128` histogram sum is always a decimal string;
//! * the functional checksum and the summary fractions are stored as
//!   their IEEE-754 bit patterns;
//! * histograms persist their raw `(bucket index, count)` pairs plus the
//!   exact sum/min/max, reconstructed via `LatencyHistogram::from_raw`;
//! * telemetry windows carry the complete `MemStats` delta.
//!
//! Decoding is total: any structural mismatch yields `Err`, which the
//! store treats as corruption (recompute, never panic).

use crate::json::Json;
use crate::session::TraceSummary;
use omega_core::runner::RunReport;
use omega_core::OmegaError;
use omega_sim::stats::{AtomicStats, CacheStats, DramStats, MemStats, NocStats, ScratchpadStats};
use omega_sim::telemetry::{LatencyHistogram, TelemetryReport, WindowSample};
use omega_sim::{engine::CoreReport, EngineReport};

/// Largest integer exactly representable in an `f64`.
const MAX_EXACT: u64 = 1 << 53;

/// Every decode failure is data that does not form the claimed schema.
fn corrupt(msg: impl Into<String>) -> OmegaError {
    OmegaError::Corrupt(msg.into())
}

fn ju64(n: u64) -> Json {
    if n < MAX_EXACT {
        Json::Num(n as f64)
    } else {
        Json::Str(n.to_string())
    }
}

fn pu64(v: &Json) -> Result<u64, OmegaError> {
    match v {
        Json::Num(_) => v.as_u64().ok_or_else(|| corrupt("non-counter number")),
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|e| corrupt(format!("bad u64 `{s}`: {e}"))),
        other => Err(corrupt(format!("expected u64, got {other:?}"))),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, OmegaError> {
    v.get(key)
        .ok_or_else(|| corrupt(format!("missing field `{key}`")))
}

fn fu64(v: &Json, key: &str) -> Result<u64, OmegaError> {
    pu64(field(v, key)?)
}

fn fstr(v: &Json, key: &str) -> Result<String, OmegaError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| corrupt(format!("field `{key}` is not a string")))
}

fn jf64(x: f64) -> Json {
    Json::Str(format!("{:016x}", x.to_bits()))
}

fn ff64(v: &Json, key: &str) -> Result<f64, OmegaError> {
    let hex = fstr(v, key)?;
    u64::from_str_radix(&hex, 16)
        .map(f64::from_bits)
        .map_err(|e| corrupt(format!("bad f64 bits `{hex}`: {e}")))
}

fn cache_stats_to_json(c: &CacheStats) -> Json {
    let mut o = Json::obj();
    o.set("hits", ju64(c.hits));
    o.set("misses", ju64(c.misses));
    o.set("writebacks", ju64(c.writebacks));
    o.set("invalidations", ju64(c.invalidations));
    o
}

fn cache_stats_from_json(v: &Json) -> Result<CacheStats, OmegaError> {
    Ok(CacheStats {
        hits: fu64(v, "hits")?,
        misses: fu64(v, "misses")?,
        writebacks: fu64(v, "writebacks")?,
        invalidations: fu64(v, "invalidations")?,
    })
}

fn mem_stats_to_json(m: &MemStats) -> Json {
    let mut noc = Json::obj();
    noc.set("packets", ju64(m.noc.packets));
    noc.set("bytes", ju64(m.noc.bytes));
    noc.set("contention_cycles", ju64(m.noc.contention_cycles));
    let mut dram = Json::obj();
    dram.set("reads", ju64(m.dram.reads));
    dram.set("writes", ju64(m.dram.writes));
    dram.set("bytes", ju64(m.dram.bytes));
    dram.set("busy_cycles", ju64(m.dram.busy_cycles));
    dram.set("queue_cycles", ju64(m.dram.queue_cycles));
    dram.set("row_hits", ju64(m.dram.row_hits));
    dram.set("row_conflicts", ju64(m.dram.row_conflicts));
    dram.set("row_opens", ju64(m.dram.row_opens));
    dram.set("open_page_accesses", ju64(m.dram.open_page_accesses));
    let mut atomics = Json::obj();
    atomics.set("executed", ju64(m.atomics.executed));
    atomics.set("lock_wait_cycles", ju64(m.atomics.lock_wait_cycles));
    let sp = &m.scratchpad;
    let mut scratchpad = Json::obj();
    scratchpad.set("local_accesses", ju64(sp.local_accesses));
    scratchpad.set("remote_accesses", ju64(sp.remote_accesses));
    scratchpad.set("range_misses", ju64(sp.range_misses));
    scratchpad.set("pisc_ops", ju64(sp.pisc_ops));
    scratchpad.set("pisc_busy_cycles", ju64(sp.pisc_busy_cycles));
    scratchpad.set("svb_hits", ju64(sp.svb_hits));
    scratchpad.set("svb_misses", ju64(sp.svb_misses));
    scratchpad.set("active_list_updates", ju64(sp.active_list_updates));
    scratchpad.set("pim_ops", ju64(sp.pim_ops));
    scratchpad.set("word_dram_accesses", ju64(sp.word_dram_accesses));
    let mut o = Json::obj();
    o.set("l1", cache_stats_to_json(&m.l1));
    o.set("l2", cache_stats_to_json(&m.l2));
    o.set("noc", noc);
    o.set("dram", dram);
    o.set("atomics", atomics);
    o.set("scratchpad", scratchpad);
    o
}

fn mem_stats_from_json(v: &Json) -> Result<MemStats, OmegaError> {
    let noc = field(v, "noc")?;
    let dram = field(v, "dram")?;
    let atomics = field(v, "atomics")?;
    let sp = field(v, "scratchpad")?;
    Ok(MemStats {
        l1: cache_stats_from_json(field(v, "l1")?)?,
        l2: cache_stats_from_json(field(v, "l2")?)?,
        noc: NocStats {
            packets: fu64(noc, "packets")?,
            bytes: fu64(noc, "bytes")?,
            contention_cycles: fu64(noc, "contention_cycles")?,
        },
        dram: DramStats {
            reads: fu64(dram, "reads")?,
            writes: fu64(dram, "writes")?,
            bytes: fu64(dram, "bytes")?,
            busy_cycles: fu64(dram, "busy_cycles")?,
            queue_cycles: fu64(dram, "queue_cycles")?,
            row_hits: fu64(dram, "row_hits")?,
            row_conflicts: fu64(dram, "row_conflicts")?,
            row_opens: fu64(dram, "row_opens")?,
            open_page_accesses: fu64(dram, "open_page_accesses")?,
        },
        atomics: AtomicStats {
            executed: fu64(atomics, "executed")?,
            lock_wait_cycles: fu64(atomics, "lock_wait_cycles")?,
        },
        scratchpad: ScratchpadStats {
            local_accesses: fu64(sp, "local_accesses")?,
            remote_accesses: fu64(sp, "remote_accesses")?,
            range_misses: fu64(sp, "range_misses")?,
            pisc_ops: fu64(sp, "pisc_ops")?,
            pisc_busy_cycles: fu64(sp, "pisc_busy_cycles")?,
            svb_hits: fu64(sp, "svb_hits")?,
            svb_misses: fu64(sp, "svb_misses")?,
            active_list_updates: fu64(sp, "active_list_updates")?,
            pim_ops: fu64(sp, "pim_ops")?,
            word_dram_accesses: fu64(sp, "word_dram_accesses")?,
        },
    })
}

fn histogram_to_json(h: &LatencyHistogram) -> Json {
    let mut o = Json::obj();
    o.set(
        "buckets",
        Json::Arr(
            h.raw_buckets()
                .map(|(i, n)| Json::Arr(vec![Json::Num(i as f64), ju64(n)]))
                .collect(),
        ),
    );
    o.set("sum", Json::Str(h.sum().to_string()));
    o.set("min", ju64(h.min().unwrap_or(u64::MAX)));
    o.set("max", ju64(h.max().unwrap_or(0)));
    o
}

fn histogram_from_json(v: &Json) -> Result<LatencyHistogram, OmegaError> {
    let mut buckets = Vec::new();
    for pair in field(v, "buckets")?
        .as_array()
        .ok_or_else(|| corrupt("histogram buckets are not an array"))?
    {
        let pair = pair
            .as_array()
            .ok_or_else(|| corrupt("bucket entry is not a pair"))?;
        if pair.len() != 2 {
            return Err(corrupt("bucket entry is not a pair"));
        }
        let idx = pair[0]
            .as_u64()
            .ok_or_else(|| corrupt("bad bucket index"))? as usize;
        buckets.push((idx, pu64(&pair[1])?));
    }
    let sum_str = fstr(v, "sum")?;
    let sum = sum_str
        .parse::<u128>()
        .map_err(|e| corrupt(format!("bad histogram sum `{sum_str}`: {e}")))?;
    LatencyHistogram::from_raw(&buckets, sum, fu64(v, "min")?, fu64(v, "max")?)
        .ok_or_else(|| corrupt("inconsistent histogram state"))
}

fn telemetry_to_json(t: &TelemetryReport) -> Json {
    let mut o = Json::obj();
    o.set("window_cycles", ju64(t.window_cycles));
    o.set(
        "windows",
        Json::Arr(
            t.windows
                .iter()
                .map(|w| {
                    let mut s = Json::obj();
                    s.set("end", ju64(w.end));
                    s.set("delta", mem_stats_to_json(&w.delta));
                    s
                })
                .collect(),
        ),
    );
    o.set("dram_queue", histogram_to_json(&t.dram_queue));
    o.set("noc_contention", histogram_to_json(&t.noc_contention));
    o.set("miss_latency", histogram_to_json(&t.miss_latency));
    o.set("lock_wait", histogram_to_json(&t.lock_wait));
    o
}

fn telemetry_from_json(v: &Json) -> Result<TelemetryReport, OmegaError> {
    let mut windows = Vec::new();
    for w in field(v, "windows")?
        .as_array()
        .ok_or_else(|| corrupt("telemetry windows are not an array"))?
    {
        windows.push(WindowSample {
            end: fu64(w, "end")?,
            delta: mem_stats_from_json(field(w, "delta")?)?,
        });
    }
    Ok(TelemetryReport {
        window_cycles: fu64(v, "window_cycles")?,
        windows,
        dram_queue: histogram_from_json(field(v, "dram_queue")?)?,
        noc_contention: histogram_from_json(field(v, "noc_contention")?)?,
        miss_latency: histogram_from_json(field(v, "miss_latency")?)?,
        lock_wait: histogram_from_json(field(v, "lock_wait")?)?,
    })
}

/// Encodes a report into the store's full-fidelity payload form.
pub fn report_to_json(r: &RunReport) -> Json {
    let mut engine = Json::obj();
    engine.set("total_cycles", ju64(r.engine.total_cycles));
    engine.set(
        "per_core",
        Json::Arr(
            r.engine
                .per_core
                .iter()
                .map(|c| {
                    Json::Arr(vec![
                        ju64(c.ops),
                        ju64(c.compute_cycles),
                        ju64(c.memory_stall_cycles),
                        ju64(c.atomic_stall_cycles),
                        ju64(c.barrier_cycles),
                        ju64(c.drain_cycles),
                        ju64(c.finish_time),
                    ])
                })
                .collect(),
        ),
    );
    let mut o = Json::obj();
    o.set("algo", Json::Str(r.algo.clone()));
    o.set("machine", Json::Str(r.machine.clone()));
    o.set("checksum_bits", jf64(r.checksum));
    o.set("total_cycles", ju64(r.total_cycles));
    o.set("engine", engine);
    o.set("mem", mem_stats_to_json(&r.mem));
    o.set("hot_count", ju64(r.hot_count as u64));
    o.set("n_vertices", ju64(r.n_vertices));
    o.set("n_arcs", ju64(r.n_arcs));
    o.set(
        "telemetry",
        r.telemetry.as_ref().map_or(Json::Null, telemetry_to_json),
    );
    o
}

/// Decodes a store payload back into a report. Every structural mismatch
/// is an [`OmegaError::Corrupt`] — the store maps that to "corrupt entry,
/// recompute".
pub fn report_from_json(v: &Json) -> Result<RunReport, OmegaError> {
    let engine = field(v, "engine")?;
    let mut per_core = Vec::new();
    for core in field(engine, "per_core")?
        .as_array()
        .ok_or_else(|| corrupt("per_core is not an array"))?
    {
        let core = core
            .as_array()
            .ok_or_else(|| corrupt("per-core entry is not an array"))?;
        if core.len() != 7 {
            return Err(corrupt("per-core entry has wrong arity"));
        }
        per_core.push(CoreReport {
            ops: pu64(&core[0])?,
            compute_cycles: pu64(&core[1])?,
            memory_stall_cycles: pu64(&core[2])?,
            atomic_stall_cycles: pu64(&core[3])?,
            barrier_cycles: pu64(&core[4])?,
            drain_cycles: pu64(&core[5])?,
            finish_time: pu64(&core[6])?,
        });
    }
    let hot = fu64(v, "hot_count")?;
    if hot > u32::MAX as u64 {
        return Err(corrupt("hot_count exceeds u32"));
    }
    Ok(RunReport {
        algo: fstr(v, "algo")?,
        machine: fstr(v, "machine")?,
        checksum: ff64(v, "checksum_bits")?,
        total_cycles: fu64(v, "total_cycles")?,
        engine: EngineReport {
            total_cycles: fu64(engine, "total_cycles")?,
            per_core,
        },
        mem: mem_stats_from_json(field(v, "mem")?)?,
        hot_count: hot as u32,
        n_vertices: fu64(v, "n_vertices")?,
        n_arcs: fu64(v, "n_arcs")?,
        telemetry: match field(v, "telemetry")? {
            Json::Null => None,
            t => Some(telemetry_from_json(t)?),
        },
    })
}

/// Encodes a trace summary into its store payload form.
pub(crate) fn summary_to_json(s: &TraceSummary) -> Json {
    let mut o = Json::obj();
    o.set("atomic_fraction", jf64(s.atomic_fraction));
    o.set("random_fraction", jf64(s.random_fraction));
    o.set("monitored_props", ju64(s.monitored_props));
    o.set("hot_prop_share", jf64(s.hot_prop_share));
    o
}

/// Decodes a store payload back into a trace summary; a mismatch is an
/// [`OmegaError::Corrupt`].
pub(crate) fn summary_from_json(v: &Json) -> Result<TraceSummary, OmegaError> {
    Ok(TraceSummary {
        atomic_fraction: ff64(v, "atomic_fraction")?,
        random_fraction: ff64(v, "random_fraction")?,
        monitored_props: fu64(v, "monitored_props")?,
        hot_prop_share: ff64(v, "hot_prop_share")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_report() -> RunReport {
        // Deliberately extreme values: counters beyond 2^53, u64::MAX
        // histogram samples, a negative checksum.
        let mut hist = LatencyHistogram::new();
        for v in [0u64, 1, 63, 1000, u64::MAX] {
            hist.record(v);
        }
        let mut windows = Vec::new();
        let mut delta = MemStats::default();
        delta.l1.hits = (1 << 53) + 12345; // not exactly representable in f64
        delta.dram.bytes = u64::MAX;
        delta.dram.open_page_accesses = (1 << 53) + 9;
        delta.scratchpad.pisc_ops = 7;
        windows.push(WindowSample {
            end: u64::MAX - 1,
            delta,
        });
        RunReport {
            algo: "SyntheticAlgo".into(),
            machine: "omega".into(),
            checksum: -0.031_25,
            total_cycles: (1 << 60) + 3,
            engine: EngineReport {
                total_cycles: (1 << 60) + 3,
                per_core: vec![
                    CoreReport {
                        ops: u64::MAX,
                        compute_cycles: 1,
                        memory_stall_cycles: 2,
                        atomic_stall_cycles: 3,
                        barrier_cycles: 4,
                        drain_cycles: 5,
                        finish_time: 15,
                    },
                    CoreReport::default(),
                ],
            },
            mem: delta,
            hot_count: u32::MAX,
            n_vertices: 1 << 54,
            n_arcs: (1 << 54) + 1,
            telemetry: Some(TelemetryReport {
                window_cycles: 1 << 16,
                windows,
                dram_queue: hist.clone(),
                noc_contention: LatencyHistogram::new(),
                miss_latency: hist.clone(),
                lock_wait: hist,
            }),
        }
    }

    #[test]
    fn extreme_values_round_trip_exactly() {
        let r = synthetic_report();
        let j = report_to_json(&r);
        // Through the actual text form, as the store reads it from disk.
        let parsed = Json::parse(&j.dump()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(report_from_json(&parsed).unwrap(), r);
    }

    #[test]
    fn telemetry_free_reports_round_trip() {
        let mut r = synthetic_report();
        r.telemetry = None;
        let j = report_to_json(&r);
        assert_eq!(report_from_json(&j).unwrap(), r);
    }

    #[test]
    fn structural_damage_is_an_error_not_a_panic() {
        let r = synthetic_report();
        let good = report_to_json(&r);
        // Remove each top-level field in turn.
        for (key, _) in good.as_object().unwrap() {
            let Json::Obj(entries) = &good else {
                unreachable!()
            };
            let damaged = Json::Obj(entries.iter().filter(|(k, _)| k != key).cloned().collect());
            assert!(report_from_json(&damaged).is_err(), "dropping `{key}`");
        }
        // Type confusion and garbage values.
        let mut bad = good.clone();
        bad.set("total_cycles", Json::Str("not a number".into()));
        assert!(report_from_json(&bad).is_err());
        let mut bad = good.clone();
        bad.set("checksum_bits", Json::Str("xyzzy".into()));
        assert!(report_from_json(&bad).is_err());
        assert!(report_from_json(&Json::Null).is_err());
        assert!(report_from_json(&Json::Arr(vec![])).is_err());
    }
}
