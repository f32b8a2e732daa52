//! A store that `omega-serve` filled is a warm store for the batch
//! tools: a `Session` over the same directory reads every run the server
//! computed back as a store hit, replays nothing, and gets the report a
//! fresh `Session` computes.
//!
//! This file contains exactly one test: `timing_replay_count` is
//! process-wide, and the zero-replay claim is asserted through it.

mod common;

use common::{spec, SCALE};
use omega_bench::session::{AlgoKey, MachineKind, Session};
use omega_bench::store::StoreCounters;
use omega_core::runner::timing_replay_count;
use omega_serve::proto::RunRequest;
use omega_serve::{serve, Client, ServeConfig};

#[test]
fn runs_a_server_computed_are_store_hits_for_a_session() {
    let store_dir = std::env::temp_dir().join(format!(
        "omega-serve-store-handoff-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let specs = [
        spec(AlgoKey::PageRank, MachineKind::Baseline),
        spec(AlgoKey::PageRank, MachineKind::Omega),
        spec(AlgoKey::Bfs, MachineKind::OmegaOffchip),
    ];

    // The server computes every spec into the empty store.
    let handle = serve(ServeConfig {
        jobs: 2,
        store: Some(store_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let runs = specs.map(|spec| RunRequest { spec, scale: SCALE });
    for response in client.batch(&runs).expect("batch") {
        assert!(
            matches!(response, omega_serve::Response::Ok(_)),
            "{response:?}"
        );
    }
    client.shutdown().expect("shutdown ack");
    handle.wait();

    // A session over that store serves each spec from it, replaying
    // nothing.
    let replays = timing_replay_count();
    let mut warm = Session::new(SCALE)
        .verbose(false)
        .with_store(&store_dir)
        .expect("store opens");
    warm.prefetch(&specs);
    let hits_only = StoreCounters {
        hits: specs.len() as u64,
        ..StoreCounters::default()
    };
    assert_eq!(warm.store().expect("attached").counters(), hits_only);
    assert_eq!(timing_replay_count(), replays, "no spec was replayed");

    // Each stored report equals the one a fresh session computes.
    let mut fresh = Session::new(SCALE).verbose(false);
    for spec in specs {
        assert_eq!(warm.report(spec), fresh.report(spec), "{}", spec.label());
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}
