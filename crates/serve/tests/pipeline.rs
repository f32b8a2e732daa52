//! Pipelined multiplexing and batch grouping against a live server,
//! proven with the process-global replay/trace probes.
//!
//! This file contains exactly one test: `timing_replay_count` /
//! `functional_trace_count` are process-wide, and `serve` runs its
//! workers inside this test process, so any sibling test computing
//! reports would perturb the deltas asserted here.
//!
//! Synchronisation is by polling the `stats` method and by a blocker
//! request held open with the `job_delay_ms` hook (the admission-suite
//! pattern) — no bare sleeps, so the interleaving is pinned on any
//! machine: every pipelined request is admitted while the single worker
//! is still busy with the blocker, which makes the grouping counters
//! exact rather than racy.

use omega_bench::run_report_to_json;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_bench::Json;
use omega_core::runner::{functional_trace_count, timing_replay_count, Runner};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_serve::proto::{Request, RunRequest};
use omega_serve::{serve, Client, Response, ServeConfig};
use omega_sim::telemetry::TelemetryConfig;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

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

fn await_stats(addr: SocketAddr, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let mut client = Client::connect(addr).expect("connect for polling");
    let deadline = Instant::now() + Duration::from_secs(60);
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

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(|v| v.as_u64()).expect("counter")
}

#[test]
fn pipelined_and_batched_requests_group_replays_and_answer_byte_identically() {
    // The cast. `blocker` occupies the single worker while everything
    // else is admitted; `hot` appears twice in every client's pipeline
    // (8 identical requests total); the other three are distinct. The
    // pagerank pair and the bfs pair each share a `(dataset, algo)`
    // trace group.
    let blocker = spec(AlgoKey::Sssp, MachineKind::Omega);
    let hot = spec(AlgoKey::PageRank, MachineKind::Omega);
    let pr_base = spec(AlgoKey::PageRank, MachineKind::Baseline);
    let bfs_omega = spec(AlgoKey::Bfs, MachineKind::Omega);
    let bfs_base = spec(AlgoKey::Bfs, MachineKind::Baseline);
    let batch_specs = [
        spec(AlgoKey::Radii, MachineKind::Omega),
        spec(AlgoKey::Radii, MachineKind::Baseline),
        spec(AlgoKey::Bc, MachineKind::Omega),
    ];

    // Ground truth from the plain Runner, computed *before* the probe
    // baselines so its own replays don't pollute the deltas.
    let want_blocker = expected_payload(blocker);
    let pipeline: [(ExperimentSpec, String); 5] = [
        (hot, expected_payload(hot)),
        (pr_base, expected_payload(pr_base)),
        (bfs_omega, expected_payload(bfs_omega)),
        (bfs_base, expected_payload(bfs_base)),
        (hot, expected_payload(hot)),
    ];
    let want_batch: Vec<String> = batch_specs.iter().map(|&s| expected_payload(s)).collect();

    let replays0 = timing_replay_count();
    let traces0 = functional_trace_count();

    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 16,
        // Holds the worker on each computed entry long enough for every
        // concurrent admission to land while its flight is in the air.
        job_delay_ms: 1500,
        ..ServeConfig::default()
    })
    .expect("server binds on a free loopback port");
    let addr = handle.addr();

    // --- Phase 1: pipelined multiplexing over one connection each. ---

    // The blocker is itself pipelined: sent without reading, so this
    // thread is free to orchestrate while the worker chews on it.
    let mut blocker_client = Client::connect(addr).expect("connect blocker");
    let blocker_id = blocker_client
        .send(&Request::Run(RunRequest {
            spec: blocker,
            scale: SCALE,
        }))
        .expect("send blocker");
    await_stats(addr, "the worker to go busy on the blocker", |st| {
        counter(st, "inflight") == 1
    });

    // 4 clients, one connection each, every request written before any
    // response is read. Responses are then collected in *reverse* send
    // order, which forces the out-of-order buffering path: the server
    // answers whenever each flight lands, the client re-correlates by
    // frame id.
    let responses: Vec<Vec<String>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pipeline = &pipeline;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let ids: Vec<u64> = pipeline
                        .iter()
                        .map(|&(spec, _)| {
                            client
                                .send(&Request::Run(RunRequest { spec, scale: SCALE }))
                                .expect("pipelined send")
                        })
                        .collect();
                    let mut got = vec![String::new(); ids.len()];
                    for (pos, &id) in ids.iter().enumerate().rev() {
                        let payload = match client.recv(id).expect("pipelined recv") {
                            Response::Ok(payload) => payload.dump(),
                            other => panic!("request {pos} failed: {other:?}"),
                        };
                        got[pos] = payload;
                    }
                    got
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let blocker_payload = match blocker_client.recv(blocker_id).expect("recv blocker") {
        Response::Ok(payload) => payload.dump(),
        other => panic!("blocker failed: {other:?}"),
    };

    // Byte-identity: every one of the 21 responses equals the
    // independent offline Runner run for the spec *at that pipeline
    // position* — which is also the proof that ids were matched to
    // frames correctly, since neighbouring positions carry different
    // machines/algos and hence different payloads.
    assert_eq!(blocker_payload, want_blocker, "blocker payload");
    for (who, got) in responses.iter().enumerate() {
        for ((spec, want), got) in pipeline.iter().zip(got) {
            assert_eq!(got, want, "client {who}, payload for {}", spec.label());
        }
    }

    // The probes reconcile with the grouping: 5 distinct specs → 5
    // replays; (sssp, pagerank, bfs) → 3 functional traces, shared
    // across machines.
    assert_eq!(timing_replay_count() - replays0, 5, "one replay per spec");
    assert_eq!(functional_trace_count() - traces0, 3, "one trace per group");

    let stats = await_stats(addr, "phase-1 counters to settle", |st| {
        counter(st, "inflight") == 0 && counter(st, "queue_depth") == 0
    });
    assert_eq!(counter(&stats, "misses"), 5, "5 computed entries");
    assert_eq!(counter(&stats, "shed"), 0);
    assert_eq!(counter(&stats, "errors"), 0);
    // 21 run requests: 5 computed, the rest served from a flight or the
    // memo.
    assert_eq!(counter(&stats, "hits") + counter(&stats, "coalesced"), 16);
    // Each trace-group's second leader coalesced into the queued group
    // job (pagerank and bfs) instead of taking a slot of its own.
    assert_eq!(counter(&stats, "grouped"), 2, "queued-job coalescing");
    assert_eq!(counter(&stats, "batches"), 0);

    // --- Phase 2: one server-side batch over a now-idle server. ---

    // The batch is admitted as whole trace groups, so the two radii
    // specs share one queue slot and one functional trace even though
    // nothing else is queued to coalesce with.
    let mut client = Client::connect(addr).expect("connect batch");
    let runs: Vec<RunRequest> = batch_specs
        .iter()
        .map(|&spec| RunRequest { spec, scale: SCALE })
        .collect();
    let results = client.batch(&runs).expect("batch");
    assert_eq!(results.len(), 3);
    for ((spec, want), got) in batch_specs.iter().zip(&want_batch).zip(&results) {
        match got {
            Response::Ok(payload) => {
                assert_eq!(&payload.dump(), want, "batch payload for {}", spec.label())
            }
            other => panic!("batch member {} failed: {other:?}", spec.label()),
        }
    }

    assert_eq!(
        timing_replay_count() - replays0,
        8,
        "3 more replays for the batch"
    );
    assert_eq!(
        functional_trace_count() - traces0,
        5,
        "2 more traces: radii (shared by both machines) and bc"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "batches"), 1);
    assert_eq!(counter(&stats, "misses"), 8);
    assert_eq!(counter(&stats, "errors"), 0);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}
