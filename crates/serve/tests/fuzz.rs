//! Seeded fuzz from the socket inward: each round writes one malformed
//! byte stream to a fresh connection and half-closes it. Every frame
//! the server sends back must be a well-formed response envelope, the
//! server must then close the connection, and afterwards it must still
//! answer — having computed nothing, since no round names a valid run.
//!
//! This file contains exactly one test: `timing_replay_count` is
//! process-wide and asserted here.

use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_bench::Json;
use omega_core::runner::timing_replay_count;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_serve::proto::{self, Request, RequestFrame, RunRequest, MAX_BATCH_RUNS};
use omega_serve::wire::{self, Frame, MAX_FRAME};
use omega_serve::{serve, Client, Response, ServeConfig};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn framed(doc: &Json) -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, doc).expect("corpus frame encodes");
    bytes
}

fn frame(id: u64, request: Request) -> Json {
    proto::request_frame_to_json(&RequestFrame { id, request })
}

/// Writes `bytes`, half-closes, and reads until the server hangs up.
/// Returns the responses that came back.
fn exchange(addr: SocketAddr, bytes: &[u8], round: usize) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    // The server may hang up before it has read everything; a failed
    // write is then part of the exchange, not a test failure.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut answered = Vec::new();
    loop {
        match wire::read_frame(&mut stream, || Instant::now() > deadline) {
            Ok(Frame::Doc(doc)) => {
                let frame = proto::response_frame_from_json(doc.clone()).unwrap_or_else(|e| {
                    panic!("round {round}: malformed response {}: {e}", doc.dump())
                });
                answered.push(frame.response);
            }
            Ok(Frame::Malformed(e)) => panic!("round {round}: malformed response frame: {e}"),
            Ok(Frame::Eof) => return answered,
            Ok(Frame::Cancelled) => panic!("round {round}: the server neither answered nor closed"),
            // A server that closes with unread input resets the
            // connection: closed all the same.
            Err(e) if e.code() == "io" => return answered,
            Err(e) => panic!("round {round}: torn response stream: {e}"),
        }
    }
}

#[test]
fn malformed_streams_get_well_formed_answers_and_a_hang_up() {
    let handle = serve(ServeConfig::default()).expect("server binds");
    let addr = handle.addr();
    let replays0 = timing_replay_count();
    let mut rng = SmallRng::seed_from_u64(0x5EED_F0CA);

    let ping = framed(&frame(7, Request::Ping));
    let run = RunRequest {
        spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega),
        scale: DatasetScale::Tiny,
    };
    let over_cap = framed(&frame(9, Request::Batch(vec![run; MAX_BATCH_RUNS + 1])));

    let mut answered = 0;
    for round in 0..270usize {
        let bytes: Vec<u8> = match round % 9 {
            // Garbage of random length, including empty.
            0 => {
                let len = rng.gen_range(0usize..96);
                (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
            }
            // A valid frame with 1-7 bit flips: length prefix, UTF-8
            // or JSON may break.
            1 => {
                let mut b = ping.clone();
                for _ in 0..rng.gen_range(1usize..8) {
                    let i = rng.gen_range(0usize..b.len());
                    b[i] ^= 1 << rng.gen_range(0u32..8);
                }
                b
            }
            // A torn frame: a valid one cut short.
            2 => ping[..rng.gen_range(1usize..ping.len())].to_vec(),
            // An oversize length prefix.
            3 => {
                let len = rng.gen_range(MAX_FRAME as u64 + 1..=u64::from(u32::MAX)) as u32;
                len.to_be_bytes().to_vec()
            }
            // A body that is not UTF-8.
            4 => {
                let mut b = 4u32.to_be_bytes().to_vec();
                b.extend_from_slice(&[b'"', 0xff, 0xfe, b'"']);
                b
            }
            // A v1-tagged frame, then a v2 frame without an id.
            5 => {
                let mut v1 = Json::obj();
                v1.set("proto", Json::Str("omega-serve/v1".into()));
                v1.set("method", Json::Str("ping".into()));
                let mut v2 = v1.clone();
                v2.set("proto", Json::Str(proto::PROTO_V2.into()));
                [framed(&v1), framed(&v2)].concat()
            }
            // A fractional id.
            6 => {
                let mut doc = frame(1, Request::Ping);
                doc.set("id", Json::Num(1.5));
                framed(&doc)
            }
            // An empty batch.
            7 => framed(&frame(8, Request::Batch(vec![]))),
            // A batch one run over the cap.
            _ => over_cap.clone(),
        };
        let responses = exchange(addr, &bytes, round);
        if round % 9 == 5 {
            let codes: Vec<_> = responses
                .iter()
                .map(|r| match r {
                    Response::Error { code, .. } => code.as_str(),
                    _ => "not an error",
                })
                .collect();
            assert_eq!(codes, ["protocol", "protocol"], "round {round}");
        }
        answered += responses.len();
    }
    assert!(
        answered > 0,
        "the corpus drew at least some error envelopes"
    );

    let mut client = Client::connect(addr).expect("connect after the fuzz");
    client.ping().expect("the server is still up");
    assert_eq!(
        timing_replay_count() - replays0,
        0,
        "no round named a valid run"
    );
    client.shutdown().expect("shutdown ack");
    handle.wait();
}
