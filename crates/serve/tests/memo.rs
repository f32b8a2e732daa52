//! The bounded response memo against a live server with a persistent
//! store: evictions are safe (evicted entries come back byte-identical
//! from the content-addressed store, with zero recomputation), and the
//! memo/store counters in the `stats` payload reconcile exactly.
//!
//! This file contains exactly one test: `timing_replay_count` is
//! process-wide, and the zero-recompute claim is asserted through it.
//! (TTL expiry is covered deterministically in the `memo` module's unit
//! tests via the manual clock — an integration TTL test would need real
//! sleeps.)

use omega_bench::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_core::runner::{timing_replay_count, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_serve::proto::RunRequest;
use omega_serve::{serve, Client, ServeConfig};
use omega_sim::telemetry::TelemetryConfig;

const SCALE: DatasetScale = DatasetScale::Tiny;

fn spec(algo: AlgoKey, machine: MachineKind) -> ExperimentSpec {
    ExperimentSpec::new(Dataset::Sd, algo, machine)
}

fn expected_payload(spec: ExperimentSpec) -> String {
    let g = spec.dataset.build(SCALE).expect("registry dataset builds");
    let mut sys = spec.machine.system();
    sys.machine.telemetry = TelemetryConfig::off();
    let report = Runner::new(sys).run(&g, spec.algo.algo(&g));
    run_report_to_json(&report, &sys).dump()
}

#[test]
fn evicted_memo_entries_reload_byte_identically_from_the_store() {
    let store_dir = std::env::temp_dir().join(format!(
        "omega-serve-memo-eviction-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);

    // Four distinct specs against a memo that holds only two.
    let specs = [
        spec(AlgoKey::PageRank, MachineKind::Omega),
        spec(AlgoKey::PageRank, MachineKind::Baseline),
        spec(AlgoKey::Bfs, MachineKind::Omega),
        spec(AlgoKey::Bfs, MachineKind::Baseline),
    ];
    let wants: Vec<String> = specs.iter().map(|&s| expected_payload(s)).collect();
    let replays0 = timing_replay_count();

    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 16,
        memo_entries: 2,
        store: Some(store_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Fill past capacity: four cold runs, four replays, four store
    // writes, and (4 inserts − capacity 2) = 2 evictions.
    for (spec, want) in specs.iter().zip(&wants) {
        let got = client
            .run_payload(RunRequest {
                spec: *spec,
                scale: SCALE,
            })
            .expect("cold run")
            .dump();
        assert_eq!(&got, want, "cold payload for {}", spec.label());
    }
    assert_eq!(timing_replay_count() - replays0, 4, "four cold replays");

    // The first spec was evicted (LRU; the memo now holds the last
    // two). Asking for it again must NOT replay: the content-addressed
    // store reloads it, byte-identical, and it re-enters the memo
    // (evicting again).
    let again = client
        .run_payload(RunRequest {
            spec: specs[0],
            scale: SCALE,
        })
        .expect("evicted re-run")
        .dump();
    assert_eq!(again, wants[0], "evicted entry reloads byte-identically");
    assert_eq!(
        timing_replay_count() - replays0,
        4,
        "the reload did not recompute"
    );

    // The most recent spec is still memoised: a pure memo hit.
    let warm = client
        .run_payload(RunRequest {
            spec: specs[3],
            scale: SCALE,
        })
        .expect("warm run")
        .dump();
    assert_eq!(warm, wants[3]);

    // Exact counter reconciliation across all three layers.
    let stats = client.stats().expect("stats");
    let top = |k: &str| stats.get(k).and_then(|v| v.as_u64()).expect("counter");
    let nested = |section: &str, k: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("{section}.{k} missing from stats"))
    };

    // Serve layer: 6 run requests = 4 computed + 2 served hot (one via
    // store reload, one via memo).
    assert_eq!(top("misses"), 4);
    assert_eq!(top("hits"), 2);
    assert_eq!(top("coalesced"), 0);
    assert_eq!(top("errors"), 0);

    // Memo layer: every run probed the memo once → 5 misses (4 cold +
    // the evicted re-run) and 1 hit; 5 inserts (4 computes + 1 store
    // reload) against capacity 2 → 3 evictions, mirrored at top level
    // for the smoke gate.
    assert_eq!(nested("memo", "capacity"), 2);
    assert_eq!(nested("memo", "entries"), 2);
    assert_eq!(nested("memo", "misses"), 5);
    assert_eq!(nested("memo", "hits"), 1);
    assert_eq!(nested("memo", "inserts"), 5);
    assert_eq!(nested("memo", "evictions"), 3);
    assert_eq!(nested("memo", "expired"), 0);
    assert_eq!(top("evictions"), nested("memo", "evictions"));

    // Store layer: one write per computed report; one load attempt per
    // memo miss → 4 cold misses and exactly 1 hit (the evicted re-run).
    assert_eq!(nested("store", "writes"), 4);
    assert_eq!(nested("store", "misses"), 4);
    assert_eq!(nested("store", "hits"), 1);
    assert_eq!(nested("store", "corrupt"), 0);

    client.shutdown().expect("shutdown ack");
    handle.wait();
    let _ = std::fs::remove_dir_all(&store_dir);
}
