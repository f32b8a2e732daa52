//! Single-flight behaviour of a live server, proven with the
//! process-global replay/trace probes.
//!
//! This file contains exactly one test: `timing_replay_count` /
//! `functional_trace_count` are process-wide, and `serve` runs its
//! workers inside this test process, so any sibling test computing
//! reports would perturb the deltas asserted here.

mod common;

use common::{expected_payload, spec, SCALE};
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_core::runner::{functional_trace_count, timing_replay_count};
use omega_serve::proto::RunRequest;
use omega_serve::{serve, Client, ServeConfig};

#[test]
fn concurrent_identical_requests_replay_once_and_answer_byte_identically() {
    let scale = SCALE;
    let hot = spec(AlgoKey::PageRank, MachineKind::Omega);
    let cold_a = spec(AlgoKey::PageRank, MachineKind::Baseline);
    let cold_b = spec(AlgoKey::Bfs, MachineKind::Omega);

    // Ground truth from the plain Runner, computed *before* the probe
    // baselines so its own replays don't pollute the deltas.
    let want_hot = expected_payload(hot);
    let want_a = expected_payload(cold_a);
    let want_b = expected_payload(cold_b);

    let replays0 = timing_replay_count();
    let traces0 = functional_trace_count();

    let handle = serve(ServeConfig {
        jobs: 2,
        queue_depth: 16,
        // Hold each computation open long enough for every concurrent
        // request to arrive while its flight is still in the air.
        job_delay_ms: 200,
        ..ServeConfig::default()
    })
    .expect("server binds on a free loopback port");
    let addr = handle.addr();

    // 8 identical + 2 distinct requests, each on its own connection.
    let mut wants: Vec<(ExperimentSpec, &String)> = vec![(hot, &want_hot); 8];
    wants.push((cold_a, &want_a));
    wants.push((cold_b, &want_b));
    let responses: Vec<String> = std::thread::scope(|s| {
        let threads: Vec<_> = wants
            .iter()
            .map(|&(spec, _)| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .run_payload(RunRequest { spec, scale })
                        .expect("run succeeds")
                        .dump()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // Exactly one replay per distinct spec, however the 10 requests
    // interleaved; one functional trace per (dataset, algo).
    assert_eq!(timing_replay_count() - replays0, 3, "single-flight replay");
    assert_eq!(functional_trace_count() - traces0, 2, "shared traces");

    // Every response is byte-identical to the independent Runner run —
    // leaders, followers, and memo hits alike.
    for ((spec, want), got) in wants.iter().zip(&responses) {
        assert_eq!(got, *want, "payload for {}", spec.label());
    }

    // A warm repeat is a memo hit: byte-identical, no new replay.
    let mut client = Client::connect(addr).expect("connect");
    let warm = client
        .run_payload(RunRequest { spec: hot, scale })
        .expect("warm run")
        .dump();
    assert_eq!(warm, want_hot, "warm response is byte-identical");
    assert_eq!(timing_replay_count() - replays0, 3, "warm run hit the memo");

    // The counters agree: 11 run requests, 3 computed, 0 shed/errors,
    // and everything else served from a flight or the memo.
    let stats = client.stats().expect("stats");
    let get = |k: &str| stats.get(k).and_then(|v| v.as_u64()).expect("counter");
    assert_eq!(get("misses"), 3);
    assert_eq!(get("shed"), 0);
    assert_eq!(get("errors"), 0);
    assert_eq!(get("hits") + get("coalesced"), 8);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}
