//! Bounded admission and graceful shutdown against live servers.
//!
//! Synchronisation is by polling the `stats` method (served inline,
//! never queued), not by sleeping: the suite runs deterministically on
//! a single-core machine. The `job_delay_ms` hook holds each computed
//! job open long enough for the polls to observe the states we need.

use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_bench::Json;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_serve::proto::RunRequest;
use omega_serve::{serve, Client, Response, ServeConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SCALE: DatasetScale = DatasetScale::Tiny;

fn spec(algo: AlgoKey, machine: MachineKind) -> ExperimentSpec {
    ExperimentSpec::new(Dataset::Sd, algo, machine)
}

/// Polls `stats` until `pred` holds, failing loudly after 30s.
fn await_stats(addr: SocketAddr, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let mut client = Client::connect(addr).expect("connect for polling");
    let deadline = Instant::now() + Duration::from_secs(30);
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
fn full_queue_sheds_with_a_structured_busy_response() {
    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 1,
        job_delay_ms: 1500,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();

    // The three requests use three distinct algorithms: requests that
    // share `(dataset, algo)` coalesce into an already-queued group job
    // instead of shedding (covered below), and shedding is exactly what
    // this test is about.
    std::thread::scope(|s| {
        // First request occupies the single worker...
        let first = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: spec(AlgoKey::PageRank, MachineKind::Baseline),
                scale: SCALE,
            })
        });
        await_stats(addr, "the worker to go busy", |st| {
            counter(st, "inflight") == 1
        });

        // ...the second fills the depth-1 queue...
        let second = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: spec(AlgoKey::Bfs, MachineKind::Omega),
                scale: SCALE,
            })
        });
        await_stats(addr, "the queue to fill", |st| {
            counter(st, "queue_depth") == 1
        });

        // ...and the third (an incompatible group) is shed immediately
        // with the queue's shape.
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .run(RunRequest {
                spec: spec(AlgoKey::Sssp, MachineKind::OmegaNoPisc),
                scale: SCALE,
            })
            .expect("call completes");
        assert_eq!(
            resp,
            Response::Busy {
                queue_depth: 1,
                queue_limit: 1
            },
            "third request sheds with the structured busy envelope"
        );

        // The admitted requests were not disturbed by the shed.
        assert!(first.join().unwrap().is_ok(), "first request completes");
        assert!(second.join().unwrap().is_ok(), "second request completes");
    });

    let stats = await_stats(addr, "both computations to finish", |st| {
        counter(st, "misses") == 2
    });
    assert_eq!(counter(&stats, "shed"), 1);
    assert_eq!(counter(&stats, "errors"), 0);
    assert_eq!(counter(&stats, "inflight"), 0);
    assert_eq!(counter(&stats, "queue_depth"), 0);

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    handle.wait();
}

/// A request compatible with an already-queued group rides its slot:
/// even a full queue answers it (grouping never consumes a slot), and
/// it completes with a real payload instead of `busy`.
#[test]
fn compatible_request_joins_a_queued_group_instead_of_shedding() {
    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 1,
        job_delay_ms: 1200,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();

    std::thread::scope(|s| {
        // Occupy the worker with one group...
        let first = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: spec(AlgoKey::PageRank, MachineKind::Baseline),
                scale: SCALE,
            })
        });
        await_stats(addr, "the worker to go busy", |st| {
            counter(st, "inflight") == 1
        });

        // ...fill the depth-1 queue with a bfs group...
        let second = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: spec(AlgoKey::Bfs, MachineKind::Omega),
                scale: SCALE,
            })
        });
        await_stats(addr, "the queue to fill", |st| {
            counter(st, "queue_depth") == 1
        });

        // ...and submit a *compatible* spec (same dataset and algo,
        // different machine). The queue is full, yet it is admitted by
        // joining the queued bfs group.
        let mut c = Client::connect(addr).expect("connect");
        let payload = c
            .run_payload(RunRequest {
                spec: spec(AlgoKey::Bfs, MachineKind::Baseline),
                scale: SCALE,
            })
            .expect("grouped request completes with a payload, not busy");
        assert_eq!(
            payload.get("schema").and_then(|v| v.as_str()),
            Some("omega-run-report/v1"),
        );

        assert!(first.join().unwrap().is_ok());
        assert!(second.join().unwrap().is_ok());
    });

    let stats = await_stats(addr, "all three computations to finish", |st| {
        counter(st, "misses") == 3
    });
    assert_eq!(counter(&stats, "grouped"), 1, "one request rode the group");
    assert_eq!(counter(&stats, "shed"), 0, "nothing was shed");
    assert_eq!(counter(&stats, "errors"), 0);

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    handle.wait();
}

#[test]
fn shutdown_drains_inflight_work_then_refuses_connections() {
    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 4,
        job_delay_ms: 800,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();

    let (inflight, acked) = std::thread::scope(|s| {
        let inflight = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: spec(AlgoKey::Bfs, MachineKind::Omega),
                scale: SCALE,
            })
        });
        await_stats(addr, "the job to start", |st| counter(st, "inflight") == 1);

        // Shutdown lands while the job is mid-compute.
        let acked = Client::connect(addr).expect("connect").shutdown();
        (inflight.join().unwrap(), acked)
    });

    acked.expect("shutdown acknowledged");
    let payload = inflight.expect("the in-flight request was drained, not dropped");
    assert_eq!(
        payload.get("schema").and_then(|v| v.as_str()),
        Some("omega-run-report/v1"),
        "drained request received its full report"
    );

    // `wait` returns only after the drain; afterwards the port is dark.
    handle.wait();
    assert!(
        Client::connect(addr).is_err(),
        "the listener is gone after the drain"
    );
}
