//! Observability discipline, pinned end to end: the trace export round-
//! trips through the JSON layer as a valid Chrome Trace Event document,
//! and turning the whole obs layer on changes *nothing* about results —
//! reports, serialised run-report JSON, and the bytes the experiment
//! store writes to disk are bit-identical either way.
//!
//! Lives in its own integration-test binary because it toggles the
//! process-global obs registry; a local mutex serialises the tests, and
//! per-binary process isolation keeps every other test blind to it.

use omega_bench::report_json::run_report_to_json;
use omega_bench::session::{AlgoKey, MachineKind, Session};
use omega_bench::{check_chrome_trace, chrome_trace_to_json, Json};
use omega_core::lower::Tape;
use omega_core::runner::{exec_for, replay, trace_algorithm};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_sim::obs;
use std::path::Path;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One small real workload through the timing engine.
fn replay_once() -> omega_core::runner::RunReport {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let sys = MachineKind::Omega.system();
    let algo = AlgoKey::PageRank.algo(&g);
    let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec_for(&sys));
    let tape = Tape::new(&raw, &meta);
    replay("pagerank", checksum, &tape, &sys, None)
}

#[test]
fn trace_export_round_trips_as_valid_chrome_trace_json() {
    let _g = locked();
    obs::enable(true, true);
    let report = replay_once();
    assert!(report.total_cycles > 0);
    let dump = obs::drain();

    // Host spans from the instrumented pipeline are present.
    let names: Vec<&str> = dump.aggregates.iter().map(|a| a.name.as_str()).collect();
    for want in ["runner.replay", "engine.timing_loop"] {
        assert!(names.contains(&want), "missing host span {want}: {names:?}");
    }
    // Simulated-time tracks for the machine models are present.
    let tracks: Vec<&str> = dump.sim_tracks.iter().map(|t| t.name.as_str()).collect();
    assert!(
        tracks.iter().any(|t| t.starts_with("core")),
        "no per-core epoch track: {tracks:?}"
    );
    assert!(
        tracks.iter().any(|t| t.starts_with("dram.ch")),
        "no DRAM channel track: {tracks:?}"
    );

    // Serialise → parse → validate: the full round trip CI's trace-check
    // subcommand performs, through the same hand-written JSON layer.
    let text = chrome_trace_to_json(&dump).dump();
    let parsed = Json::parse(&text).expect("trace JSON parses");
    let stats = check_chrome_trace(&parsed).expect("trace validates");
    assert_eq!(stats.host_spans as u64, dump.closed);
    assert!(stats.sim_intervals > 0);
    // Beyond the X events counted above, the document carries ph:"M"
    // process/thread naming metadata — at least one entry per process.
    assert!(stats.events > stats.host_spans + stats.sim_intervals);
}

/// Every file the store wrote, as (relative path, bytes), sorted.
fn dir_bytes(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The golden disabled-path check: an obs-on run (profile + trace, then
/// drained) produces byte-identical reports, report JSON, and on-disk
/// store entries to an obs-off run of the same workload.
#[test]
fn obs_on_and_off_runs_are_bit_identical_including_store_bytes() {
    let _g = locked();
    let base = std::env::temp_dir().join(format!("omega-obs-golden-{}", std::process::id()));
    let dir_off = base.join("off");
    let dir_on = base.join("on");
    let _ = std::fs::remove_dir_all(&base);
    let spec = (Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega);

    assert!(!obs::enabled());
    let report_off = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir_off)
        .expect("store opens")
        .report(spec)
        .clone();
    let direct_off = replay_once();

    obs::enable(true, true);
    let report_on = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir_on)
        .expect("store opens")
        .report(spec)
        .clone();
    let direct_on = replay_once();
    let dump = obs::drain();
    assert!(dump.opened > 0, "the obs-on run actually recorded spans");

    assert_eq!(report_on, report_off, "session reports differ");
    assert_eq!(direct_on, direct_off, "direct replay reports differ");
    let sys = spec.2.system();
    assert_eq!(
        run_report_to_json(&report_on, &sys).dump(),
        run_report_to_json(&report_off, &sys).dump(),
        "serialised run reports differ"
    );
    let bytes_off = dir_bytes(&dir_off);
    let bytes_on = dir_bytes(&dir_on);
    assert!(!bytes_off.is_empty(), "the store wrote entries");
    assert_eq!(bytes_off, bytes_on, "store bytes differ between runs");
    let _ = std::fs::remove_dir_all(&base);
}
