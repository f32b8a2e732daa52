//! Bounded admission and graceful shutdown against live servers.
//!
//! Synchronisation is by polling the `stats` method (answered at once,
//! never queued), not by sleeping: the suite runs deterministically on
//! a single-core machine. The `job_delay_ms` hook holds each computed
//! job open long enough for the polls to observe the states we need.

mod common;

use common::{await_stats, counter, expected_payload, spec, SCALE};
use omega_bench::session::{AlgoKey, MachineKind};
use omega_core::OmegaError;
use omega_serve::proto::{Request, RunRequest};
use omega_serve::server::{MAX_IN_FLIGHT, MAX_WORKERS};
use omega_serve::{serve, Client, Response, ServeConfig};

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

/// A configured depth of 0 still queues one job, and both `busy` and
/// `stats` report that effective limit, never a limit below the depth.
#[test]
fn zero_queue_depth_reports_its_effective_limit_of_one() {
    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 0,
        job_delay_ms: 1500,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();

    std::thread::scope(|s| {
        // Occupy the worker, then the one queue slot...
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
        let second = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: spec(AlgoKey::Bfs, MachineKind::Omega),
                scale: SCALE,
            })
        });
        let stats = await_stats(addr, "the queue to fill", |st| {
            counter(st, "queue_depth") == 1
        });
        assert_eq!(counter(&stats, "queue_limit"), 1, "stats limit");

        // ...and draw one `busy`.
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .run(RunRequest {
                spec: spec(AlgoKey::Sssp, MachineKind::OmegaNoPisc),
                scale: SCALE,
            })
            .expect("call completes");
        let Response::Busy {
            queue_depth,
            queue_limit,
        } = resp
        else {
            panic!("expected busy, got {resp:?}");
        };
        assert_eq!(queue_limit, 1, "busy limit");
        assert!(queue_depth <= queue_limit, "{queue_depth} > {queue_limit}");

        assert!(first.join().unwrap().is_ok(), "first request completes");
        assert!(second.join().unwrap().is_ok(), "second request completes");
    });

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

/// One connection pipelining far past the in-flight bound: the server
/// takes `MAX_IN_FLIGHT` frames, stops reading while they wait on the
/// one flight, and answers every frame once the flight lands.
#[test]
fn a_connection_keeps_at_most_max_in_flight_handlers() {
    let hot = spec(AlgoKey::PageRank, MachineKind::Omega);
    let want = expected_payload(hot);
    let handle = serve(ServeConfig {
        jobs: 1,
        job_delay_ms: 1500,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    let ids: Vec<u64> = (0..3 * MAX_IN_FLIGHT)
        .map(|_| {
            client
                .send(&Request::Run(RunRequest {
                    spec: hot,
                    scale: SCALE,
                }))
                .expect("pipelined send")
        })
        .collect();

    // One leader and MAX_IN_FLIGHT - 1 followers; the frames past the
    // bound stay unread until the flight lands.
    await_stats(addr, "the connection to fill its in-flight bound", |st| {
        counter(st, "coalesced") >= MAX_IN_FLIGHT as u64 - 1
    });
    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(
        counter(&stats, "open_flights"),
        1,
        "the flight is in the air"
    );
    assert_eq!(counter(&stats, "coalesced"), MAX_IN_FLIGHT as u64 - 1);

    for (pos, id) in ids.into_iter().enumerate() {
        match client.recv(id).expect("every frame is answered") {
            Response::Ok(payload) => assert_eq!(payload.dump(), want, "response {pos}"),
            other => panic!("request {pos} failed: {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "misses"), 1, "one replay for every frame");
    assert_eq!(counter(&stats, "shed"), 0);
    assert_eq!(counter(&stats, "errors"), 0);

    client.shutdown().expect("shutdown ack");
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

/// A worker pool past `MAX_WORKERS` is refused before the server binds
/// or spawns anything: the address below is already taken, so a server
/// that tried to bind would fail with an I/O error instead.
#[test]
fn oversized_worker_pool_is_refused_before_binding() {
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = taken.local_addr().expect("addr").to_string();
    let refused = serve(ServeConfig {
        addr: addr.clone(),
        jobs: MAX_WORKERS + 1,
        ..ServeConfig::default()
    });
    match refused {
        Err(OmegaError::InvalidConfig(msg)) => {
            assert!(msg.contains(&MAX_WORKERS.to_string()), "{msg}")
        }
        Err(e) => panic!("expected invalid-config, got {e}"),
        Ok(_) => panic!("an oversized pool must be refused"),
    }

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_omega-serve"))
        .args(["--addr", &addr, "--jobs", &(MAX_WORKERS + 1).to_string()])
        .output()
        .expect("run omega-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("worker-pool bound"), "{stderr}");
}
