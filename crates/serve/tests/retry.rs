//! Client-side retry with capped jittered backoff against a live
//! depth-1 server: the structured `busy{queue_depth, queue_limit}`
//! envelope drives the delays, every request eventually lands, and the
//! seeded RNG makes the schedule reproducible.
//!
//! This file contains exactly one test: `timing_replay_count` is
//! process-wide and asserted here. Synchronisation is by polling
//! `stats` plus the `job_delay_ms` hook — no bare sleeps in the test
//! itself (the backoff sleeps *are* the mechanism under test).

mod common;

use common::{await_stats, counter, expected_payload, spec, SCALE};
use omega_bench::session::{AlgoKey, MachineKind};
use omega_core::runner::timing_replay_count;
use omega_graph::rng::SmallRng;
use omega_serve::proto::RunRequest;
use omega_serve::{serve, Client, RetryPolicy, ServeConfig};

#[test]
fn backoff_client_lands_every_request_on_a_saturated_server() {
    let blocker = spec(AlgoKey::PageRank, MachineKind::Omega);
    let filler = spec(AlgoKey::Bfs, MachineKind::Omega);
    let retrier = spec(AlgoKey::Sssp, MachineKind::Omega);
    let want_blocker = expected_payload(blocker);
    let want_filler = expected_payload(filler);
    let want_retrier = expected_payload(retrier);
    let replays0 = timing_replay_count();

    let handle = serve(ServeConfig {
        jobs: 1,
        queue_depth: 1,
        job_delay_ms: 600,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let addr = handle.addr();

    let (got_blocker, got_filler, got_retrier) = std::thread::scope(|s| {
        // Saturate: one request computing, one in the depth-1 queue.
        let blocker_t = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: blocker,
                scale: SCALE,
            })
        });
        await_stats(addr, "the worker to go busy", |st| {
            counter(st, "inflight") == 1
        });
        let filler_t = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run_payload(RunRequest {
                spec: filler,
                scale: SCALE,
            })
        });
        await_stats(addr, "the queue to fill", |st| {
            counter(st, "queue_depth") == 1
        });

        // The retrying client meets a full queue: its first attempt is
        // shed with `busy{1,1}`, and the policy turns that into backoff
        // instead of a caller-visible failure. The delay budget
        // (10·2^n capped at 500 ms) comfortably outlasts the ~1.2 s the
        // queue needs to free up.
        let mut c = Client::connect(addr)
            .expect("connect")
            .with_retry(RetryPolicy::new(20, 42));
        let retried = c.run_payload(RunRequest {
            spec: retrier,
            scale: SCALE,
        });
        (blocker_t.join().unwrap(), filler_t.join().unwrap(), retried)
    });

    // Zero lost responses: all three requests completed with full,
    // byte-identical reports.
    assert_eq!(got_blocker.expect("blocker lands").dump(), want_blocker);
    assert_eq!(got_filler.expect("filler lands").dump(), want_filler);
    assert_eq!(got_retrier.expect("retrier lands").dump(), want_retrier);
    assert_eq!(timing_replay_count() - replays0, 3, "one replay each");

    let stats = await_stats(addr, "the counters to settle", |st| {
        counter(st, "inflight") == 0
    });
    assert_eq!(counter(&stats, "misses"), 3);
    assert_eq!(counter(&stats, "errors"), 0, "busy is not an error");
    assert!(
        counter(&stats, "shed") >= 1,
        "the retrier really was shed at least once before landing"
    );

    // The schedule that landed it is reproducible: with
    // `busy{queue_depth: 1, queue_limit: 1}` the occupancy floor pins
    // the jitter window shut, so the seeded sequence is exactly the
    // capped exponential — and two RNGs with the same seed agree.
    let policy = RetryPolicy::new(20, 42);
    let mut a = SmallRng::seed_from_u64(policy.seed);
    let mut b = SmallRng::seed_from_u64(policy.seed);
    for attempt in 0..8 {
        let d = policy.delay_ms(attempt, 1, 1, &mut a);
        assert_eq!(d, policy.delay_ms(attempt, 1, 1, &mut b));
        assert_eq!(d, (10u64 << attempt).min(500), "attempt {attempt}");
    }

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    handle.wait();
}
