//! The wire at the raw-frame level, against a live server.
//!
//! `omega-serve/v2` is the one protocol revision. A frame tagged with
//! the retired `omega-serve/v1` draws a v2-tagged `protocol` error that
//! names the served revision, and the connection keeps working. Plus
//! robustness: a malformed body, including one nested past the JSON
//! parser's bound, gets an error response and the connection survives;
//! a torn frame gets an error response and a hang-up. The deepest
//! response the server writes, a batch carrying a run report, is pinned
//! within that bound. A run the dataset cannot support gets a typed
//! error, and the connection keeps serving.
//!
//! No test in this file asserts the process-global replay probes, so
//! the file can hold several tests.

mod common;

use omega_bench::json::MAX_DEPTH;
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_bench::Json;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_serve::proto::{self, Request, RequestFrame, RunRequest, PROTO_V2};
use omega_serve::wire::{self, Frame};
use omega_serve::{serve, Client, Response, ServeConfig};
use std::io::Write;
use std::net::TcpStream;

fn tiny_server() -> omega_serve::ServerHandle {
    serve(ServeConfig {
        jobs: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .expect("server binds")
}

fn read(stream: &mut TcpStream) -> Json {
    match wire::read_frame(stream, || false).expect("read frame") {
        Frame::Doc(doc) => doc,
        other => panic!("expected a document, got {other:?}"),
    }
}

fn ping(id: u64) -> Json {
    proto::request_frame_to_json(&RequestFrame {
        id,
        request: Request::Ping,
    })
}

#[test]
fn v1_frames_get_a_v2_protocol_error_and_the_connection_survives() {
    let handle = tiny_server();
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect raw");

    // A v1 ping: unadorned, no id.
    let mut v1 = Json::obj();
    v1.set("proto", Json::Str("omega-serve/v1".to_string()));
    v1.set("method", Json::Str("ping".to_string()));
    wire::write_frame(&mut stream, &v1).expect("write v1");
    let doc = read(&mut stream);
    assert_eq!(doc.get("proto").and_then(Json::as_str), Some(PROTO_V2));
    assert!(doc.get("id").is_none(), "the refused frame had no id");
    let Response::Error { code, message } = proto::response_frame_from_json(doc.clone())
        .expect("a well-formed v2 reply")
        .response
    else {
        panic!("expected an error reply, got {}", doc.dump());
    };
    assert_eq!(code, "protocol");
    assert!(message.contains(PROTO_V2), "{message}");

    // The same connection then answers a v2 ping, echoing its id.
    wire::write_frame(&mut stream, &ping(7)).expect("write v2");
    let frame = proto::response_frame_from_json(read(&mut stream)).expect("v2 reply");
    assert_eq!(frame.id, Some(7));
    assert!(matches!(frame.response, Response::Ok(_)));

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn raw_frames_survive_malformed_bodies_and_hang_up_on_torn_ones() {
    let handle = tiny_server();
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect raw");

    // A malformed body (valid JSON, bogus proto tag) draws an error
    // response — and the connection is still usable afterwards.
    let mut bogus = Json::obj();
    bogus.set("proto", Json::Str("omega-serve/v9".to_string()));
    bogus.set("method", Json::Str("ping".to_string()));
    wire::write_frame(&mut stream, &bogus).expect("write bogus");
    let doc = read(&mut stream);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
    wire::write_frame(&mut stream, &ping(8)).expect("write after error");
    let frame = proto::response_frame_from_json(read(&mut stream)).expect("connection survived");
    assert!(matches!(frame.response, Response::Ok(_)));

    // A torn frame (length prefix promising more bytes than follow,
    // then EOF on the write side) is unrecoverable: the server answers
    // with a protocol error and hangs up.
    let mut torn = TcpStream::connect(addr).expect("connect torn");
    torn.write_all(&100u32.to_be_bytes()).expect("torn header");
    torn.write_all(b"not a hundred bytes").expect("torn body");
    torn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let doc = read(&mut torn);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
    assert!(
        matches!(wire::read_frame(&mut torn, || false), Ok(Frame::Eof)),
        "the server hung up after the framing error"
    );

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    handle.wait();
}

#[test]
fn deeply_nested_frame_gets_a_protocol_error_and_the_connection_survives() {
    let handle = tiny_server();
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect raw");

    // 100,000 levels of `[`: far under the frame cap, far past the
    // parser's nesting bound.
    let body = "[".repeat(100_000);
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .expect("write header");
    stream.write_all(body.as_bytes()).expect("write body");
    let doc = read(&mut stream);
    assert!(doc.get("id").is_none(), "the refused frame had no id");
    let Response::Error { code, message } = proto::response_frame_from_json(doc.clone())
        .expect("a well-formed reply")
        .response
    else {
        panic!("expected an error reply, got {}", doc.dump());
    };
    assert_eq!(code, "protocol");
    assert!(message.contains("nesting"), "{message}");

    wire::write_frame(&mut stream, &ping(3)).expect("write after error");
    let frame = proto::response_frame_from_json(read(&mut stream)).expect("connection survived");
    assert_eq!(frame.id, Some(3));
    assert!(matches!(frame.response, Response::Ok(_)));

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    handle.wait();
}

/// Nesting depth of a document: 0 for a scalar, else one more than its
/// deepest member.
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Pins the depth of the deepest response the server writes — a batch
/// result carrying a run report — that `json::MAX_DEPTH` is derived
/// from. A schema change that nests deeper fails here first.
#[test]
fn batch_response_nests_within_the_json_bound() {
    let handle = tiny_server();
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let run = RunRequest {
        spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega),
        scale: DatasetScale::Tiny,
    };
    let request = proto::request_frame_to_json(&RequestFrame {
        id: 1,
        request: Request::Batch(vec![run]),
    });
    wire::write_frame(&mut stream, &request).expect("write batch");
    let doc = read(&mut stream);
    let Response::Ok(payload) = proto::response_frame_from_json(doc.clone())
        .expect("a well-formed reply")
        .response
    else {
        panic!("expected an ok reply, got {}", doc.dump());
    };
    assert!(matches!(
        proto::batch_results(payload)
            .expect("batch payload")
            .as_slice(),
        [Response::Ok(_)]
    ));
    assert_eq!(depth(&doc), 8);
    assert!(depth(&doc) <= MAX_DEPTH);

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    handle.wait();
}

/// A `cc` run on a directed dataset gets a typed `unsupported` error,
/// counted once under `errors`, and the same connection then answers a
/// valid run with its correct payload.
#[test]
fn unsupported_run_gets_a_typed_error_and_the_connection_serves_on() {
    let handle = tiny_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let errors = |client: &mut Client| common::counter(&client.stats().expect("stats"), "errors");
    assert_eq!(errors(&mut client), 0);

    let cc = RunRequest {
        spec: ExperimentSpec::new(Dataset::Lj, AlgoKey::Cc, MachineKind::Omega),
        scale: common::SCALE,
    };
    let Response::Error { code, message } = client.run(cc).expect("a reply") else {
        panic!("expected an error reply for cc on lj");
    };
    assert_eq!(code, "unsupported");
    assert!(message.contains("lj is directed"), "{message}");
    assert_eq!(errors(&mut client), 1, "one failed run, one error");

    let valid = common::spec(AlgoKey::PageRank, MachineKind::Omega);
    let got = client
        .run_payload(RunRequest {
            spec: valid,
            scale: common::SCALE,
        })
        .expect("the connection still serves")
        .dump();
    assert_eq!(got, common::expected_payload(valid));
    assert_eq!(errors(&mut client), 1);

    client.shutdown().expect("shutdown ack");
    handle.wait();
}
