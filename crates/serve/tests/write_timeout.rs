//! A client that stops reading cannot hang the server: a response write
//! that makes no progress for `WRITE_TIMEOUT` shuts the connection down,
//! so the connection's handlers end and a `shutdown` drains.
//!
//! This file contains exactly one test: the stalled connection holds up
//! to `MAX_IN_FLIGHT` handlers, each with a response of about 330 KB.

mod common;

use common::{spec, SCALE};
use omega_bench::session::{AlgoKey, MachineKind};
use omega_serve::proto::{self, Request, RequestFrame, RunRequest};
use omega_serve::server::WRITE_TIMEOUT;
use omega_serve::wire;
use omega_serve::{serve, Client, ServeConfig};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

/// Runs per batch. A handler waits for the writer holding its response as
/// encoded bytes, spliced from the memo's text without a payload tree: at
/// 1,024 copies (about 5 MB of response each) the test process peaked at
/// about 246 MB resident (`VmHWM`) on a 2-vCPU host, against about 700 MB
/// when every handler built the response's JSON tree first. Larger
/// batches only cost the test memory.
const COPIES: usize = 64;

#[test]
fn a_client_that_stops_reading_cannot_hold_up_the_drain() {
    let handle = serve(ServeConfig::default()).expect("server binds");
    let addr = handle.addr();
    let run = RunRequest {
        spec: spec(AlgoKey::Bfs, MachineKind::Baseline),
        scale: SCALE,
    };
    Client::connect(addr)
        .expect("connect")
        .run_payload(run)
        .expect("warm the memo");

    // Batches of memo hits written without reading a byte back, until
    // the server stops reading.
    let batch = proto::request_frame_to_json(&RequestFrame {
        id: 0,
        request: Request::Batch(vec![run; COPIES]),
    });
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("client write timeout");
    let mut sent = 0;
    while wire::write_frame(&mut stalled, &batch).is_ok() {
        sent += 1;
        assert!(sent < 20_000, "the server never stopped reading");
    }

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        let _ = done_tx.send(());
    });
    // The client's kernel keeps taking a trickle of bytes for a few
    // seconds after the stall, and a send that moved some bytes returns
    // them only at its timeout: the failing write can end two timeouts
    // after the last byte went in.
    let bound = 3 * WRITE_TIMEOUT + Duration::from_secs(5);
    assert!(
        done_rx.recv_timeout(bound).is_ok(),
        "wait() did not return within {bound:?} of shutdown ({sent} batches sent)"
    );
    // Held open until here: closing it would end the stall by itself.
    drop(stalled);
}
