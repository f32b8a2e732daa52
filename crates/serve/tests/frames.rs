//! Response frames byte for byte. A `run` response and a `batch`
//! response, computed, answered from the memo and answered from the
//! store, each equal the frame `wire::encode_frame` writes for the tree
//! `run_report_to_json` gives the same report. A payload sits at depth 1
//! of a `run` frame and at depth 3 of a `batch` frame, so this pins its
//! indentation at both. `compat.rs` parses frames and CI compares the
//! client's re-dumped output, so neither sees whitespace.
//!
//! No test in this file asserts the process-global replay probes.

mod common;

use common::{expected_tree, spec, SCALE};
use omega_bench::session::{AlgoKey, MachineKind};
use omega_bench::Json;
use omega_serve::proto::{self, Request, RequestFrame, ResponseFrame, RunRequest};
use omega_serve::{serve, wire, Client, Response, ServeConfig};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

/// Sends `request` as frame `id` and returns the raw response frame:
/// the length prefix and the body.
fn exchange(stream: &mut TcpStream, id: u64, request: Request) -> Vec<u8> {
    let frame = proto::request_frame_to_json(&RequestFrame { id, request });
    wire::write_frame(stream, &frame).expect("write request");
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).expect("read length prefix");
    let mut frame = header.to_vec();
    frame.resize(4 + u32::from_be_bytes(header) as usize, 0);
    stream.read_exact(&mut frame[4..]).expect("read body");
    frame
}

/// The frame an `ok` response with `payload` must be.
fn expected_frame(id: u64, payload: Json) -> Vec<u8> {
    let frame = ResponseFrame {
        id: Some(id),
        response: Response::Ok(payload),
    };
    wire::encode_frame(&proto::response_frame_to_json(frame)).expect("encodes")
}

fn assert_same(got: &[u8], want: &[u8], what: &str) {
    if got == want {
        return;
    }
    let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
    let around = |b: &[u8]| {
        String::from_utf8_lossy(&b[at.saturating_sub(40)..b.len().min(at + 40)]).into_owned()
    };
    panic!(
        "{what}: frames of {} and {} bytes differ at byte {at}:\n got: {:?}\nwant: {:?}",
        got.len(),
        want.len(),
        around(got),
        around(want)
    );
}

/// The specs every exchange asks for, with their expected trees.
struct Expected {
    runs: Vec<RunRequest>,
    trees: Vec<Json>,
}

impl Expected {
    /// One `run` frame per spec.
    fn runs(&self, stream: &mut TcpStream, what: &str) {
        for (i, (run, tree)) in self.runs.iter().zip(&self.trees).enumerate() {
            let id = i as u64 + 1;
            let got = exchange(stream, id, Request::Run(*run));
            let what = format!("{what} run {}", run.spec.label());
            assert_same(&got, &expected_frame(id, tree.clone()), &what);
        }
    }

    /// One `batch` frame of every spec.
    fn batch(&self, stream: &mut TcpStream, what: &str) {
        let got = exchange(stream, 9, Request::Batch(self.runs.clone()));
        let results = self.trees.iter().cloned().map(Response::Ok).collect();
        let want = expected_frame(9, proto::batch_payload(results));
        assert_same(&got, &want, &format!("{what} batch"));
    }
}

/// Memo hits, store hits and computed runs the server behind `addr` has
/// answered.
fn origins(addr: SocketAddr) -> [u64; 3] {
    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let memo_hits = stats.get("memo").and_then(|m| m.get("hits"));
    let store_hits = stats.get("store").and_then(|s| s.get("hits"));
    let computed = stats.get("misses");
    [memo_hits, store_hits, computed].map(|v| v.and_then(Json::as_u64).expect("counter"))
}

fn server(store: &Path) -> omega_serve::ServerHandle {
    serve(ServeConfig {
        store: Some(store.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("server binds")
}

fn stop(handle: omega_serve::ServerHandle) {
    Client::connect(handle.addr())
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    handle.wait();
}

#[test]
fn run_and_batch_frames_equal_the_frames_of_the_report_tree() {
    let store_dir =
        std::env::temp_dir().join(format!("omega-serve-frames-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let specs = [
        spec(AlgoKey::PageRank, MachineKind::Omega),
        spec(AlgoKey::Bfs, MachineKind::Baseline),
    ];
    let expected = Expected {
        runs: specs.map(|spec| RunRequest { spec, scale: SCALE }).to_vec(),
        trees: specs.map(expected_tree).to_vec(),
    };

    // An empty store: the batch computes every spec, then both shapes
    // are answered from the memo.
    let handle = server(&store_dir);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    expected.batch(&mut stream, "computed");
    assert_eq!(origins(handle.addr()), [0, 0, 2]);
    expected.runs(&mut stream, "memo");
    expected.batch(&mut stream, "memo");
    assert_eq!(origins(handle.addr()), [4, 0, 2]);
    stop(handle);

    // Over the filled store, a fresh server answers its first shape from
    // the store and the other from the memo.
    for batch_first in [false, true] {
        let handle = server(&store_dir);
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        if batch_first {
            expected.batch(&mut stream, "store");
            expected.runs(&mut stream, "memo");
        } else {
            expected.runs(&mut stream, "store");
            expected.batch(&mut stream, "memo");
        }
        assert_eq!(origins(handle.addr()), [2, 2, 0]);
        stop(handle);
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}
